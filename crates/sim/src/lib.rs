//! # rcb-sim
//!
//! Simulation engines and the Monte-Carlo trial runner.
//!
//! Three engines execute protocols against adversaries. Each has one
//! lifecycle, a [`Session`]: construct it at a seed with its full argument
//! set — a fault-injection plan ([`faults`]) included — run it under a
//! cooperative [`Deadline`], and [`rearm`](Session::rearm) it for the next
//! run. A run returns the outcome next to an optional typed [`SimError`]
//! (an engine cap or a fired deadline), so a truncated run is data, never
//! a silent clip:
//!
//! * [`exact`] ([`ExactBroadcastSession`]; [`run_exact`] for arbitrary
//!   protocol sets) — the reference engine: every slot is resolved through
//!   `rcb_channel::resolve_slot` for a set of
//!   [`SlotProtocol`](rcb_core::protocol::SlotProtocol) nodes and a
//!   [`SlotAdversary`](rcb_adversary::SlotAdversary). Faithful and general,
//!   cost `O(slots · n)`.
//! * [`duel`] ([`DuelSession`], Figure 1) and [`fast`]
//!   ([`BroadcastSession`], Figure 2) — the per-node fast engines: they
//!   exploit the protocols' period structure to sample only the *events*
//!   (sends, listens) instead of iterating silent slots. The sampling is
//!   exact — a Bernoulli process over a block is its Binomial count plus
//!   uniform positions, implemented by geometric skips in `rcb-mathkit` —
//!   so these engines agree with [`exact`] in distribution; the
//!   [`conformance`] differ and integration tests cross-validate them.
//! * [`cohort`] ([`CohortSession`], Figure 2) — the population-compressed
//!   engine: nodes in the same protocol state move as one cohort, so a
//!   repetition costs O(active cohorts) instead of O(n) and n reaches 10^6.
//!
//! [`scenario`] is the **front door**: a declarative [`ScenarioSpec`]
//! (workload, engine, adversary, faults, seed policy, trials) maps its
//! (workload, engine) pair to a session in one place. A trial
//! ([`ScenarioSpec::run_trial_raw`], or `run_trial_ctl` under a deadline)
//! runs that session once on the trial's RNG, bit-identical to a session
//! at the trial's seed driven by hand; a stream trial drains its message
//! queue through the same session, re-armed per message; a batch runs
//! through [`ScenarioSpec::run_batch_raw`]. New code should build a spec;
//! the sessions serve callers that hold their own adversary or observer.
//!
//! One worker pool runs all parallel work: a list of specs runs through
//! [`executor::run_specs_ctl`], which claims one trial at a time across
//! the whole list, and [`runner::run_trials`] fans one closure batch out
//! over the same pool, with one deterministic RNG stream per trial so
//! results are independent of thread count. [`lowerbound`] packages the Theorem 2 / Theorem 5
//! measurement games.
//!
//! The crash-safety layer rides on top: [`deadline`] threads a cooperative
//! wall-clock [`Deadline`] through the executor and the engine slot loops,
//! and [`journal`] checkpoints per-trial results as one FNV-1a-checksummed
//! line of integers each, appended as each trial finishes, so a run
//! killed by any signal keeps every finished trial;
//! [`executor::run_specs_journaled`] is the one runner that writes and
//! reads it, so interrupted runs resume bit-identical to uninterrupted
//! ones.

pub mod cohort;
pub mod conformance;
pub mod deadline;
pub mod duel;
pub mod error;
pub mod exact;
pub mod executor;
pub mod fast;
pub mod faults;
pub mod journal;
pub mod lowerbound;
pub mod outcome;
mod population;
pub mod runner;
pub mod scenario;
pub mod session;

pub use cohort::{run_cohort_instrumented, CohortConfig, CohortSession, CohortStats};
pub use conformance::{default_grid, run_grid, Cell, ConformanceConfig, GridReport};
pub use deadline::Deadline;
pub use duel::{DuelConfig, DuelSession};
pub use error::{SimError, TrialFailure};
pub use exact::{run_exact, ExactConfig, ExactOutcome};
pub use executor::{run_specs_ctl, run_specs_journaled, QuarantinedTrial, SpecsControl, SpecsRun};
pub use fast::{BroadcastObserver, BroadcastSession, FastConfig};
pub use faults::{BatteryFault, CrashFault, FaultConfigError, FaultPlan, LossFault, SkewFault};
pub use journal::{Journal, JournalError, JournalKind};
pub use outcome::{BroadcastOutcome, DuelOutcome};
pub use runner::{run_trials, Parallelism};
pub use scenario::{
    find_scenario, fnv1a, fnv1a_bytes, registry, AdversarySpec, BroadcastWorkload, DuelProtocol,
    DuelWorkload, Engine, NamedScenario, Outcome, ScenarioSpec, SeedPolicy, Workload,
    FAST_STREAM_SALT, FNV_OFFSET,
};
pub use session::{ExactBroadcastSession, Session};
