//! # rcb — Resource-Competitive Broadcast with Jamming
//!
//! A Rust reproduction of Gilbert, King, Pettie, Porat, Saia & Young,
//! *"(Near) Optimal Resource-Competitive Broadcast with Jamming"*,
//! SPAA 2014.
//!
//! The workspace implements the paper end to end:
//!
//! | Piece | Crate |
//! |---|---|
//! | Slotted single-hop radio channel (collisions, CCA, ℓ-uniform jamming, energy ledger) | [`rcb_channel`] |
//! | Adaptive jamming/spoofing adversary strategies, incl. the lower-bound constructions | [`rcb_adversary`] |
//! | The paper's algorithms: 1-to-1 (Figure 1), 1-to-n (Figure 2), combined | [`rcb_core`] |
//! | Baselines: King–Saia–Young golden ratio, naive always-on, oblivious splits | [`rcb_baselines`] |
//! | Exact and fast simulation engines, parallel Monte-Carlo runner | [`rcb_sim`] |
//! | Scaling fits and table rendering for the experiment harness | [`rcb_analysis`] |
//! | Samplers, statistics, fits | [`rcb_mathkit`] |
//!
//! ## Quickstart
//!
//! A run is a declarative [`ScenarioSpec`](rcb_sim::scenario::ScenarioSpec):
//! workload, engine, adversary, faults, seeds, and trial count in one
//! validated value (DESIGN.md §10).
//!
//! ```
//! use rcb::prelude::*;
//!
//! // Alice sends m to Bob while an adversary blanket-jams early phases
//! // with a budget of 10_000 slot-units.
//! let spec = ScenarioSpec::duel(DuelProtocol::fig1(0.01, 8))
//!     .with_adversary(AdversarySpec::Budgeted { budget: 10_000, fraction: 1.0 });
//! let mut rng = RcbRng::new(42);
//! let (outcome, err) = spec.run_trial_raw(0, &mut rng);
//! assert!(err.is_none(), "well under the engine cap");
//! let outcome = outcome.into_duel();
//!
//! assert!(outcome.delivered, "after the budget is spent, m gets through");
//! // Resource competitiveness: the good nodes spend far less than T.
//! assert!(outcome.max_cost() < outcome.adversary_cost / 4);
//! ```
//!
//! ## 1-to-n in one call
//!
//! ```
//! use rcb::prelude::*;
//!
//! // Defaults: practical Figure-2 constants, node 0 informed, no jamming
//! // (T = 0: the efficiency-function regime).
//! let spec = ScenarioSpec::broadcast(32);
//! let mut rng = RcbRng::new(7);
//! let (out, err) = spec.run_trial_raw(0, &mut rng);
//! assert!(err.is_none(), "unjammed runs finish early");
//! let out = out.into_broadcast();
//! assert!(out.all_informed && out.all_terminated);
//! ```
//!
//! The pinned scenarios are published as a named registry:
//! [`registry()`](rcb_sim::scenario::registry) /
//! [`find_scenario`](rcb_sim::scenario::find_scenario) in the library,
//! `rcbsim scenario list` / `rcbsim scenario run <name>` on the CLI. Below
//! the spec, every engine has one lifecycle: its session
//! ([`DuelSession`](rcb_sim::duel::DuelSession),
//! [`BroadcastSession`](rcb_sim::fast::BroadcastSession),
//! [`CohortSession`](rcb_sim::cohort::CohortSession),
//! [`ExactBroadcastSession`](rcb_sim::session::ExactBroadcastSession)),
//! built at a seed, run, and re-armed for the next run; a spec trial is a
//! one-shot session, bit-identical to one driven by hand. The exact
//! engine's slot-level harness
//! [`run_exact`](rcb_sim::exact::run_exact) stays for protocol sets no
//! spec can name.

pub use rcb_adversary as adversary;
pub use rcb_analysis as analysis;
pub use rcb_baselines as baselines;
pub use rcb_channel as channel;
pub use rcb_core as core_alg;
pub use rcb_mathkit as mathkit;
pub use rcb_sim as sim;

/// The most common imports in one place.
pub mod prelude {
    pub use rcb_adversary::adapter::{JamTarget, RepAsSlotAdversary};
    pub use rcb_adversary::rep_strategies::{
        BudgetedRepBlocker, HalfRepBlocker, NoJamRep, RandomRep, SuffixFractionRep,
    };
    pub use rcb_adversary::slot_strategies::{
        BudgetedPhaseBlocker, NoJam, PeriodicJammer, RandomJammer, ReactiveJammer,
    };
    pub use rcb_adversary::threshold::ThresholdAdversary;
    pub use rcb_adversary::traits::{JamPlan, RepetitionAdversary, SlotAdversary};
    pub use rcb_baselines::combined::{combined_alice, combined_bob};
    pub use rcb_baselines::ksy::{KsyAlice, KsyBob, KsyProfile};
    pub use rcb_baselines::naive::{NaiveAlice, NaiveBob};
    pub use rcb_baselines::oblivious::ConstantRatePair;
    pub use rcb_channel::{Action, EnergyLedger, Partition, Payload, Reception};
    pub use rcb_core::combined::BalancedDuo;
    pub use rcb_core::one_to_n::{OneToNNode, OneToNParams, OneToNSchedule, OneToNSlotNode};
    pub use rcb_core::one_to_one::{
        AliceProtocol, BobProtocol, DuelProfile, DuelSchedule, Fig1Profile,
    };
    pub use rcb_core::protocol::{Schedule, SlotProtocol};
    pub use rcb_mathkit::rng::{RcbRng, SeedSequence};
    pub use rcb_sim::cohort::{CohortConfig, CohortSession};
    pub use rcb_sim::conformance::{
        default_grid, replay_broadcast_trace, replay_duel_trace, run_grid, Cell, ConformanceConfig,
        GridReport,
    };
    pub use rcb_sim::deadline::Deadline;
    pub use rcb_sim::duel::{DuelConfig, DuelSession};
    pub use rcb_sim::error::{SimError, TrialFailure};
    pub use rcb_sim::exact::{run_exact, ExactConfig};
    pub use rcb_sim::fast::{BroadcastSession, FastConfig};
    pub use rcb_sim::faults::{FaultConfigError, FaultPlan};
    pub use rcb_sim::outcome::{BroadcastOutcome, DuelOutcome};
    pub use rcb_sim::runner::{run_trials, Parallelism};
    pub use rcb_sim::scenario::{
        find_scenario, registry, AdversarySpec, BroadcastWorkload, DuelProtocol, DuelWorkload,
        Engine, NamedScenario, Outcome, ScenarioSpec, SeedPolicy, Workload,
    };
    pub use rcb_sim::session::{ExactBroadcastSession, Session};
}

/// Compiles the README's code blocks as doctests so the front-page example
/// can never rot.
#[doc = include_str!("../README.md")]
#[cfg(doctest)]
pub struct ReadmeDoctests;
