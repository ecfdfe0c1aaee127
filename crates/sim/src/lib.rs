//! # rcb-sim
//!
//! Simulation engines and the Monte-Carlo trial runner.
//!
//! Three engines execute protocols against adversaries, each through one
//! entry point that takes the full argument set — a fault-injection plan
//! ([`faults`]) and a cooperative [`Deadline`] included — and returns the
//! outcome next to an optional typed [`SimError`] (an engine cap or a
//! fired deadline), so a truncated run is data, never a silent clip:
//!
//! * [`exact`] ([`run_exact`]) — the reference engine: every slot is
//!   resolved through `rcb_channel::resolve_slot` for an arbitrary set of
//!   [`SlotProtocol`](rcb_core::protocol::SlotProtocol) nodes and a
//!   [`SlotAdversary`](rcb_adversary::SlotAdversary). Faithful and general,
//!   cost `O(slots · n)`.
//! * [`duel`] ([`run_duel`], Figure 1) and [`fast`] ([`run_broadcast`],
//!   Figure 2) — the per-node fast engines: they exploit the protocols'
//!   period structure to sample only the *events* (sends, listens) instead
//!   of iterating silent slots. The sampling is exact — a Bernoulli process
//!   over a block is its Binomial count plus uniform positions, implemented
//!   by geometric skips in `rcb-mathkit` — so these engines agree with
//!   [`exact`] in distribution; the [`conformance`] differ and integration
//!   tests cross-validate them.
//! * [`cohort`] ([`run_cohort`], Figure 2) — the population-compressed
//!   engine: nodes in the same protocol state move as one cohort, so a
//!   repetition costs O(active cohorts) instead of O(n) and n reaches 10^6.
//!
//! [`scenario`] is the **front door**: a declarative [`ScenarioSpec`]
//! (workload, engine, adversary, faults, seed policy, trials) runs one
//! trial through [`ScenarioSpec::run_trial_raw`] (or `run_trial_ctl` under
//! a deadline) and a batch through [`ScenarioSpec::run_batch_raw`]. New code
//! should build a spec; the engine entry points serve callers that hold
//! their own protocol or adversary instances. [`session`] keeps one
//! engine's allocations alive across runs: a re-armed session is
//! bit-identical to a fresh entry-point call at the same seed, which is
//! what the streaming workloads drain their queues through.
//!
//! One worker pool runs all parallel work: [`executor`] claims one work
//! unit at a time — a cell ([`executor::run_cells`]) or a trial across a
//! whole `ScenarioSpec` sweep ([`executor::run_specs_ctl`]) — and
//! [`runner::run_trials`] fans one batch out over the same pool, with one
//! deterministic RNG stream per trial so results are independent of
//! thread count. [`lowerbound`] packages the Theorem 2 / Theorem 5
//! measurement games.
//!
//! The crash-safety layer rides on top: [`deadline`] threads a cooperative
//! [`Deadline`]/cancellation token through the executor and the engine
//! slot loops, [`json`] is the dependency-free JSON layer, and [`journal`]
//! persists per-cell results as an append-only, FNV-1a-checksummed JSONL
//! file so interrupted sweeps resume bit-identical to uninterrupted ones.

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
pub mod json;
pub mod lowerbound;
pub mod outcome;
pub mod reduction;
pub mod runner;
pub mod scenario;
pub mod session;

pub use cohort::{run_cohort, run_cohort_instrumented, CohortConfig, CohortStats};
pub use conformance::{
    default_grid, run_grid, BroadcastCell, ConformanceConfig, DuelCell, GridReport,
};
pub use deadline::{install_sigint_handler, interrupted, Deadline};
pub use duel::{run_duel, DuelConfig};
pub use error::{SimError, TrialFailure};
pub use exact::{run_exact, ExactConfig, ExactOutcome};
pub use executor::{
    run_cells, run_cells_ctl, run_specs_ctl, CellsRun, QuarantinedTrial, SpecsControl, SpecsRun,
};
pub use fast::{run_broadcast, BroadcastObserver, FastConfig};
pub use faults::{BatteryFault, CrashFault, FaultConfigError, FaultPlan, LossFault, SkewFault};
pub use journal::{Journal, JournalError, JournalHeader};
pub use json::Json;
pub use outcome::{BroadcastOutcome, DuelOutcome};
pub use reduction::{simulate_reduction, ReductionOutcome};
pub use runner::{run_trials, Parallelism};
pub use scenario::{
    find_scenario, fnv1a, fnv1a_bytes, registry, AdversarySpec, BroadcastWorkload, DuelProtocol,
    DuelWorkload, Engine, NamedScenario, Outcome, ScenarioSpec, SeedPolicy, Workload,
    FAST_STREAM_SALT, FNV_OFFSET,
};
