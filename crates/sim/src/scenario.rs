//! Declarative scenario layer: one canonical description of "a run".
//!
//! Every consumer of the engines — the `rcbsim` CLI, the experiment
//! drivers' sweeps, the conformance grid, the benchmark — used to
//! re-invent its own ad-hoc bundle of (protocol, engine, params,
//! adversary, faults, seeds). A [`ScenarioSpec`] replaces all of them: it
//! names the workload, the engine, the adversary policy, the fault plan,
//! and the seed policy, and exposes one tolerant trial path
//! ([`ScenarioSpec::run_trial_raw`], or [`ScenarioSpec::run_trial_ctl`]
//! under a deadline) plus a [`run_trials`]-integrated batch form
//! ([`ScenarioSpec::run_batch_raw`]). Every path returns the outcome next
//! to an optional typed [`SimError`], so a truncated run is data, never a
//! silent clip.
//!
//! One private constructor maps the spec's (workload, engine) pair to an
//! engine session ([`crate::session`]). A single trial runs that session
//! once on the trial's RNG, drawing exactly the stream a fresh session at
//! the trial's seed would, so a spec run is **bit-identical** to driving
//! the session by hand (certified by the golden equivalence suite in
//! `crates/sim/tests/scenario_equivalence.rs`); a stream trial re-arms it
//! per message.
//!
//! ## Seed policy
//!
//! * Trial `i` of a batch draws its RNG from
//!   `SeedSequence::new(master).rng(i)` — exactly what [`run_trials`]
//!   derives, so batch results are independent of thread count.
//! * Seeded adversaries (the [`AdversarySpec::Random`] policy) receive
//!   `master ^ i` per trial ([`SeedPolicy::adversary_seed`]), matching the
//!   CLI's historical `seed ^ i` derivation.
//! * The conformance differ's fast-engine batch must not share trial
//!   streams with the exact batch; it salts the master seed with
//!   [`FAST_STREAM_SALT`].
//!
//! ## Registry
//!
//! The pinned scenarios are published as named registry entries
//! ([`registry`]); `rcbsim scenario list` / `rcbsim scenario run <name>`
//! expose them from the CLI. Adding a protocol, engine, or
//! adversary now costs one registry entry instead of one change per
//! consumer.

use std::fmt;

use rcb_adversary::rep_strategies::{BudgetedRepBlocker, KeepAliveBlocker, NoJamRep, RandomRep};
use rcb_adversary::traits::RepetitionAdversary;
use rcb_adversary::RepAsSlotAdversary;
use rcb_baselines::ksy::KsyProfile;
use rcb_channel::partition::Partition;
use rcb_core::one_to_n::OneToNParams;
use rcb_core::one_to_one::profile::{DuelProfile, Fig1Profile};
use rcb_core::one_to_one::schedule::DuelSchedule;
use rcb_core::one_to_one::slot::{AliceProtocol, BobProtocol};
use rcb_core::protocol::SlotProtocol;
use rcb_mathkit::rng::RcbRng;

use crate::cohort::{CohortConfig, CohortSession};
use crate::deadline::Deadline;
use crate::duel::{DuelConfig, DuelSession};
use crate::error::SimError;
use crate::exact::{run_exact, ExactConfig};
use crate::fast::{BroadcastSession, FastConfig};
use crate::faults::FaultPlan;
use crate::outcome::{BroadcastOutcome, DuelOutcome, StreamOutcome};
use crate::runner::{run_trials, Parallelism};
use crate::session::{run_on, ExactBroadcastSession, OwnsRng, Session};

/// Salt for RNG streams that must not correlate with the master-seeded
/// batch (the conformance differ's fast-engine side). The constant is the
/// 64-bit golden-ratio increment; any fixed odd constant would do — what
/// matters is that it is pinned, because recorded baselines depend on it.
pub const FAST_STREAM_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Salt for the cohort engine's conformance batches, for the same reason
/// as [`FAST_STREAM_SALT`]: all three engines consume different amounts of
/// randomness per trial, so each needs an uncorrelated stream. (This is
/// the golden-ratio constant multiplied by 3, an arbitrary pinned odd
/// word.)
pub const COHORT_STREAM_SALT: u64 = 0xdaa6_6d2c_7ddf_743f;

/// FNV-1a offset basis; every determinism checksum starts here.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `words` into an FNV-1a hash byte-wise (little-endian), starting
/// from `h`. This is the fold behind every determinism checksum
/// (`rcbsim scenario run`, the benchmark's pinned folds, the registry pins
/// in `crates/sim/tests/scenario_equivalence.rs`), so changing it moves
/// every recorded checksum.
pub fn fnv1a(mut h: u64, words: &[u64]) -> u64 {
    for &w in words {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Byte-granular FNV-1a fold — the same hash as [`fnv1a`] applied to a raw
/// byte stream. Used for spec fingerprints, where the input is the spec's
/// text rendering rather than a word sequence.
pub fn fnv1a_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Workload
// ---------------------------------------------------------------------------

/// Which 1-to-1 protocol a duel workload runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DuelProtocol {
    /// The paper's Figure 1 profile at tolerance `epsilon`.
    Fig1 { epsilon: f64, start_epoch: u32 },
    /// The KSY 2012 golden-ratio baseline.
    Ksy { start_epoch: u32 },
}

impl DuelProtocol {
    pub fn fig1(epsilon: f64, start_epoch: u32) -> Self {
        Self::Fig1 {
            epsilon,
            start_epoch,
        }
    }

    /// KSY at its default start epoch (4).
    pub fn ksy() -> Self {
        Self::Ksy { start_epoch: 4 }
    }

    pub fn start_epoch(&self) -> u32 {
        match *self {
            Self::Fig1 { start_epoch, .. } | Self::Ksy { start_epoch } => start_epoch,
        }
    }
}

impl fmt::Display for DuelProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Fig1 {
                epsilon,
                start_epoch,
            } => write!(f, "fig1(ε={epsilon}, i₀={start_epoch})"),
            Self::Ksy { start_epoch } => write!(f, "ksy(i₀={start_epoch})"),
        }
    }
}

/// A 1-to-1 workload: two parties dueling over one channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DuelWorkload {
    pub protocol: DuelProtocol,
    /// Fast-engine slot cap ([`DuelConfig::max_slots`]).
    pub max_slots: u64,
    /// Exact-engine slot cap ([`ExactConfig::max_slots`]).
    pub exact_max_slots: u64,
}

/// A 1-to-n workload: `n` nodes, the nodes in `sources` start informed.
#[derive(Debug, Clone, PartialEq)]
pub struct BroadcastWorkload {
    pub params: OneToNParams,
    pub n: usize,
    pub sources: Vec<usize>,
    /// Fast-engine epoch cap ([`FastConfig::max_epoch`]).
    pub max_epoch: u32,
    /// Exact-engine slot cap. Defaults to the conformance grid's
    /// 40 M-slot budget (broadcast cells are tiny; the duel default of
    /// 100 M would let a wedged cell run for minutes).
    pub exact_max_slots: u64,
}

/// The arrival process feeding a [`StreamWorkload`]'s queue. Every
/// variant is deterministic given the trial RNG: arrivals are generated
/// from the trial stream *before* any per-message execution, so the
/// schedule is identical across engines.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalSpec {
    /// Memoryless arrivals at `rate` messages per slot (exponential
    /// inter-arrival gaps, rounded up to whole slots, minimum gap 1).
    Poisson { rate: f64 },
    /// `size` messages land together every `period` slots, starting at
    /// slot 0 — the adversarial "thundering herd" pattern.
    Burst { period: u64, size: u64 },
    /// An explicit adversarial schedule: sorted arrival slots, all below
    /// the horizon.
    Schedule { arrivals: Vec<u64> },
}

impl ArrivalSpec {
    /// Materializes the arrival slots within `[0, horizon)`. Only the
    /// Poisson process consumes randomness.
    pub fn generate(&self, horizon: u64, rng: &mut RcbRng) -> Vec<u64> {
        match self {
            ArrivalSpec::Poisson { rate } => {
                let mut out = Vec::new();
                let mut t = 0u64;
                loop {
                    // 1 - f64() lies in (0, 1], so the log is finite.
                    let gap = (-(1.0 - rng.f64()).ln() / rate).ceil();
                    t = t.saturating_add((gap as u64).max(1));
                    if t >= horizon {
                        return out;
                    }
                    out.push(t);
                }
            }
            ArrivalSpec::Burst { period, size } => {
                let mut out = Vec::new();
                let mut t = 0u64;
                while t < horizon {
                    out.extend(std::iter::repeat_n(t, *size as usize));
                    t = t.saturating_add(*period);
                }
                out
            }
            ArrivalSpec::Schedule { arrivals } => arrivals.clone(),
        }
    }
}

impl fmt::Display for ArrivalSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArrivalSpec::Poisson { rate } => write!(f, "poisson(λ={rate})"),
            ArrivalSpec::Burst { period, size } => write!(f, "burst({size}/{period})"),
            ArrivalSpec::Schedule { arrivals } => write!(f, "schedule({} msgs)", arrivals.len()),
        }
    }
}

/// How the jammer's budget is allocated across a stream's messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamAlloc {
    /// One budget spans the whole stream: the adversary built at trial
    /// start drains monotonically across messages (the paper's model —
    /// total spend `T` is what resource-competitiveness charges against).
    Persistent,
    /// The adversary is re-armed (budget refilled, learning state and
    /// internal RNG reset) before every message — an adversary who can
    /// bring its full budget to bear on each broadcast.
    PerMessage,
}

/// A queue-driven streaming workload: messages arrive by `arrival` over
/// `[0, horizon)` slots and drain FIFO through a single re-armed broadcast
/// session ([`crate::session`]). One trial = one stream.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamWorkload {
    pub params: OneToNParams,
    pub n: usize,
    pub sources: Vec<usize>,
    /// Fast/cohort per-message epoch cap ([`FastConfig::max_epoch`]).
    pub max_epoch: u32,
    /// Exact-engine per-message slot cap.
    pub exact_max_slots: u64,
    /// The arrival process.
    pub arrival: ArrivalSpec,
    /// Arrival window in slots; service may run past it.
    pub horizon: u64,
    /// Jammer budget allocation policy.
    pub alloc: StreamAlloc,
}

/// What the scenario simulates.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    Duel(DuelWorkload),
    Broadcast(BroadcastWorkload),
    Stream(StreamWorkload),
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Workload::Duel(w) => write!(f, "duel {}", w.protocol),
            Workload::Broadcast(w) => write!(f, "broadcast n={}", w.n),
            Workload::Stream(w) => write!(f, "stream n={} {}", w.n, w.arrival),
        }
    }
}

/// Which engine family executes the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Event-sampling engines ([`crate::duel`], [`crate::fast`]): agree
    /// with [`Exact`](Engine::Exact) in distribution, orders of magnitude
    /// faster.
    Fast,
    /// The slot-by-slot reference engine ([`crate::exact`]).
    Exact,
    /// The population-compressed engine ([`crate::cohort`]): broadcast
    /// workloads only, `O(active cohorts)` per repetition instead of
    /// `O(n)` — the large-n (10^4…10^6) engine. Agrees with the others in
    /// distribution up to the approximations documented on
    /// [`crate::cohort`].
    CohortFast,
}

// ---------------------------------------------------------------------------
// Adversary
// ---------------------------------------------------------------------------

/// An adversary policy every engine can run (promoted here from
/// `conformance::differ`, which re-exports it for compatibility). Each
/// trial gets a **fresh** instance via [`AdversarySpec::build`] (budgets
/// reset), so trials stay i.i.d.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdversarySpec {
    /// No jamming (`T = 0`).
    NoJam,
    /// [`BudgetedRepBlocker`]: jam a `fraction`-suffix of every repetition
    /// while the budget lasts.
    Budgeted { budget: u64, fraction: f64 },
    /// [`KeepAliveBlocker`]: jam only odd repetitions, keeping the victims
    /// active for longer.
    KeepAlive { budget: u64, fraction: f64 },
    /// [`RandomRep`]: jam each repetition independently at `rate`. The only
    /// seeded policy; [`build`](AdversarySpec::build) hands it the seed.
    Random { budget: u64, rate: f64 },
}

impl AdversarySpec {
    /// A fresh strategy instance with its full budget. `seed` feeds the
    /// internally-randomised policies ([`AdversarySpec::Random`]) and is
    /// ignored by the deterministic ones; batch paths pass
    /// [`SeedPolicy::adversary_seed`] so each trial's adversary coin flips
    /// are independent.
    pub fn build(&self, seed: u64) -> Box<dyn RepetitionAdversary> {
        match *self {
            AdversarySpec::NoJam => Box::new(NoJamRep),
            AdversarySpec::Budgeted { budget, fraction } => {
                Box::new(BudgetedRepBlocker::new(budget, fraction))
            }
            AdversarySpec::KeepAlive { budget, fraction } => {
                Box::new(KeepAliveBlocker::new(budget, fraction))
            }
            AdversarySpec::Random { budget, rate } => Box::new(RandomRep::new(rate, budget, seed)),
        }
    }

    /// The policy's jamming budget (`0` for [`NoJam`](AdversarySpec::NoJam)).
    pub fn budget(&self) -> u64 {
        match *self {
            AdversarySpec::NoJam => 0,
            AdversarySpec::Budgeted { budget, .. }
            | AdversarySpec::KeepAlive { budget, .. }
            | AdversarySpec::Random { budget, .. } => budget,
        }
    }

    /// The same policy with a different budget — the sweep axis mutation.
    /// [`NoJam`](AdversarySpec::NoJam) stays `NoJam` (it has no budget).
    pub fn with_budget(self, budget: u64) -> Self {
        match self {
            AdversarySpec::NoJam => AdversarySpec::NoJam,
            AdversarySpec::Budgeted { fraction, .. } => {
                AdversarySpec::Budgeted { budget, fraction }
            }
            AdversarySpec::KeepAlive { fraction, .. } => {
                AdversarySpec::KeepAlive { budget, fraction }
            }
            AdversarySpec::Random { rate, .. } => AdversarySpec::Random { budget, rate },
        }
    }
}

impl fmt::Display for AdversarySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdversarySpec::NoJam => write!(f, "T=0"),
            AdversarySpec::Budgeted { budget, fraction } => {
                write!(f, "blocker(T={budget}, q={fraction})")
            }
            AdversarySpec::KeepAlive { budget, fraction } => {
                write!(f, "keepalive(T={budget}, q={fraction})")
            }
            AdversarySpec::Random { budget, rate } => {
                write!(f, "random(T={budget}, q={rate})")
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Seed policy
// ---------------------------------------------------------------------------

/// Deterministic seed derivation for a scenario's trial batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedPolicy {
    /// Master seed; trial `i` runs on `SeedSequence::new(master).rng(i)`.
    pub master: u64,
}

impl SeedPolicy {
    pub fn new(master: u64) -> Self {
        Self { master }
    }

    /// Per-trial seed for internally-randomised adversaries: `master ^ i`
    /// (the CLI's historical derivation, kept for bit-compatibility).
    pub fn adversary_seed(&self, trial: u64) -> u64 {
        self.master ^ trial
    }
}

// ---------------------------------------------------------------------------
// ScenarioSpec
// ---------------------------------------------------------------------------

/// The canonical, declarative description of a simulation run (or a batch
/// of them). Construct with [`ScenarioSpec::duel`] /
/// [`ScenarioSpec::broadcast`], refine with the `with_*` builders, execute
/// with [`run_trial_raw`](ScenarioSpec::run_trial_raw) /
/// [`run_batch_raw`](ScenarioSpec::run_batch_raw).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    pub workload: Workload,
    pub engine: Engine,
    pub adversary: AdversarySpec,
    pub faults: FaultPlan,
    pub seeds: SeedPolicy,
    /// Batch size for [`run_batch_raw`](ScenarioSpec::run_batch_raw).
    pub trials: u64,
    pub parallelism: Parallelism,
}

/// The cohort engine's configuration for a spec with this epoch cap.
fn cohort_config(max_epoch: u32) -> CohortConfig {
    CohortConfig {
        max_epoch,
        ..CohortConfig::default()
    }
}

impl ScenarioSpec {
    /// A fast-engine duel scenario with engine-default caps, no jamming,
    /// no faults, seed 2014, one trial.
    pub fn duel(protocol: DuelProtocol) -> Self {
        Self {
            workload: Workload::Duel(DuelWorkload {
                protocol,
                max_slots: DuelConfig::default().max_slots,
                exact_max_slots: ExactConfig::default().max_slots,
            }),
            engine: Engine::Fast,
            adversary: AdversarySpec::NoJam,
            faults: FaultPlan::none(),
            seeds: SeedPolicy::new(2014),
            trials: 1,
            parallelism: Parallelism::Auto,
        }
    }

    /// A fast-engine 1-to-n scenario over `OneToNParams::practical()`.
    pub fn broadcast(n: usize) -> Self {
        Self::broadcast_with(OneToNParams::practical(), n)
    }

    /// A fast-engine 1-to-n scenario over explicit params; node 0 is the
    /// source.
    pub fn broadcast_with(params: OneToNParams, n: usize) -> Self {
        Self {
            workload: Workload::Broadcast(BroadcastWorkload {
                params,
                n,
                sources: vec![0],
                max_epoch: FastConfig::default().max_epoch,
                exact_max_slots: 40_000_000,
            }),
            engine: Engine::Fast,
            adversary: AdversarySpec::NoJam,
            faults: FaultPlan::none(),
            seeds: SeedPolicy::new(2014),
            trials: 1,
            parallelism: Parallelism::Auto,
        }
    }

    /// A fast-engine streaming scenario over `OneToNParams::practical()`:
    /// node 0 is the source of every message, one persistent jammer budget
    /// spans the stream.
    pub fn stream(n: usize, arrival: ArrivalSpec, horizon: u64) -> Self {
        Self {
            workload: Workload::Stream(StreamWorkload {
                params: OneToNParams::practical(),
                n,
                sources: vec![0],
                max_epoch: FastConfig::default().max_epoch,
                exact_max_slots: 40_000_000,
                arrival,
                horizon,
                alloc: StreamAlloc::Persistent,
            }),
            engine: Engine::Fast,
            adversary: AdversarySpec::NoJam,
            faults: FaultPlan::none(),
            seeds: SeedPolicy::new(2014),
            trials: 1,
            parallelism: Parallelism::Auto,
        }
    }

    /// Sets the jammer allocation policy on a stream workload (no-op on
    /// the other workloads).
    pub fn with_stream_alloc(mut self, alloc: StreamAlloc) -> Self {
        if let Workload::Stream(w) = &mut self.workload {
            w.alloc = alloc;
        }
        self
    }

    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    pub fn with_adversary(mut self, adversary: AdversarySpec) -> Self {
        self.adversary = adversary;
        self
    }

    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    pub fn with_seed(mut self, master: u64) -> Self {
        self.seeds = SeedPolicy::new(master);
        self
    }

    pub fn with_trials(mut self, trials: u64) -> Self {
        self.trials = trials;
        self
    }

    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Checks the spec's cross-field invariants (fault plan validity for
    /// the population, source bounds, adversary parameter ranges). The run paths enforce
    /// the same invariants by assertion; `validate` exists so front ends
    /// (the CLI) can surface a readable error instead of a panic.
    pub fn validate(&self) -> Result<(), String> {
        if self.engine == Engine::CohortFast && matches!(self.workload, Workload::Duel(_)) {
            return Err("the cohort engine supports only broadcast workloads".into());
        }
        let check_population = |n: usize, sources: &[usize]| -> Result<(), String> {
            if n == 0 {
                return Err("broadcast workload needs at least one node".into());
            }
            if sources.is_empty() {
                return Err("broadcast workload needs at least one source".into());
            }
            if let Some(&s) = sources.iter().find(|&&s| s >= n) {
                return Err(format!("source id {s} out of range (n = {n})"));
            }
            self.faults.validate(n).map_err(|e| e.to_string())
        };
        match &self.workload {
            Workload::Duel(w) => {
                self.faults.validate(2).map_err(|e| e.to_string())?;
                if let DuelProtocol::Fig1 { epsilon, .. } = w.protocol {
                    if !(epsilon > 0.0 && epsilon < 1.0) {
                        return Err(format!("figure 1 epsilon {epsilon} outside (0, 1)"));
                    }
                }
            }
            Workload::Broadcast(w) => check_population(w.n, &w.sources)?,
            Workload::Stream(w) => {
                check_population(w.n, &w.sources)?;
                if w.horizon == 0 {
                    return Err("stream workload needs a horizon of at least one slot".into());
                }
                match &w.arrival {
                    ArrivalSpec::Poisson { rate } => {
                        if !(*rate > 0.0 && *rate <= 1.0) {
                            return Err(format!("poisson arrival rate {rate} outside (0, 1]"));
                        }
                    }
                    ArrivalSpec::Burst { period, size } => {
                        if *period == 0 || *size == 0 {
                            return Err("burst arrivals need period ≥ 1 and size ≥ 1".into());
                        }
                    }
                    ArrivalSpec::Schedule { arrivals } => {
                        if arrivals.is_empty() {
                            return Err("scheduled arrivals must list at least one slot".into());
                        }
                        if !arrivals.windows(2).all(|p| p[0] <= p[1]) {
                            return Err("scheduled arrivals must be sorted".into());
                        }
                        if arrivals.last().copied().unwrap_or(0) >= w.horizon {
                            return Err("scheduled arrivals must lie below the horizon".into());
                        }
                    }
                }
            }
        }
        match self.adversary {
            AdversarySpec::Budgeted { fraction, .. }
            | AdversarySpec::KeepAlive { fraction, .. }
                if !(0.0..=1.0).contains(&fraction) =>
            {
                Err(format!("blocking fraction {fraction} outside [0, 1]"))
            }
            AdversarySpec::Random { rate, .. } if !(0.0..1.0).contains(&rate) => {
                Err(format!("random jamming rate {rate} outside [0, 1)"))
            }
            _ => Ok(()),
        }
    }

    /// The engine label `rcbsim scenario` prints and the benchmark reports
    /// (pinned: renaming a label would orphan recorded results).
    pub fn engine_label(&self) -> &'static str {
        match (&self.engine, &self.workload) {
            (Engine::Fast, Workload::Duel(_)) => "duel-fast",
            // Streams reuse the broadcast labels: the engine doing the
            // work is the same, and the workload kind is already visible
            // in the scenario name.
            (Engine::Fast, Workload::Broadcast(_) | Workload::Stream(_)) => "broadcast-fast",
            (Engine::Exact, _) => "exact",
            // `validate` rejects (CohortFast, Duel), so the label is
            // unconditionally the broadcast one.
            (Engine::CohortFast, _) => "broadcast-cohort",
        }
    }

    /// Whether this spec's runs pool per-node costs (the cohort engine's
    /// aggregate mode; see [`CohortConfig::pools_costs`]), so that
    /// `max_cost` is not a measurement.
    pub fn pools_costs(&self) -> bool {
        let (n, max_epoch) = match &self.workload {
            Workload::Duel(_) => return false,
            Workload::Broadcast(w) => (w.n, w.max_epoch),
            Workload::Stream(w) => (w.n, w.max_epoch),
        };
        self.engine == Engine::CohortFast && cohort_config(max_epoch).pools_costs(n, &self.faults)
    }

    // -- run paths ----------------------------------------------------------

    /// Runs trial `trial` of the scenario on the caller's RNG and returns
    /// the (possibly truncated) outcome *and* the typed error. The trial
    /// index feeds seeded adversaries via [`SeedPolicy::adversary_seed`].
    /// The conformance differ samples truncated runs too — a cap is data
    /// about the engine, not a failure of the comparison.
    pub fn run_trial_raw(&self, trial: u64, rng: &mut RcbRng) -> (Outcome, Option<SimError>) {
        self.run_trial_ctl(trial, rng, &Deadline::NONE)
    }

    /// [`run_trial_raw`](Self::run_trial_raw) under a cooperative
    /// [`Deadline`]: the engine's slot loop checks it (without consuming
    /// RNG) and cuts the trial off with [`SimError::DeadlineExceeded`] and
    /// a partial outcome. An unbounded deadline is byte-identical to the
    /// raw path. Deadline-cut outcomes are wall-clock dependent and must
    /// never be journaled.
    ///
    /// A duel or broadcast trial runs the spec's engine session once on
    /// `rng`, drawing exactly what a session at the trial's seed would; a
    /// stream trial re-arms the session per message.
    pub fn run_trial_ctl(
        &self,
        trial: u64,
        rng: &mut RcbRng,
        deadline: &Deadline,
    ) -> (Outcome, Option<SimError>) {
        debug_assert!(self.validate().is_ok(), "invalid scenario spec");
        let mut adv = self.adversary.build(self.seeds.adversary_seed(trial));
        let mut session = self.session();
        match &self.workload {
            Workload::Stream(w) => {
                let (out, err) = run_stream(w, &mut session, adv.as_mut(), rng, deadline);
                (Outcome::Stream(out), err)
            }
            Workload::Duel(_) | Workload::Broadcast(_) => {
                run_on(&mut session, rng, adv.as_mut(), deadline)
            }
        }
    }

    /// The one map from (workload, engine) to an engine: a session armed
    /// at seed 0, which [`run_trial_ctl`](Self::run_trial_ctl) runs on the
    /// trial's RNG or re-arms per stream message.
    fn session(&self) -> SpecSession {
        let faults = self.faults;
        let (params, n, sources, max_epoch, exact_max_slots) = match &self.workload {
            Workload::Duel(w) => {
                let config = DuelConfig {
                    max_slots: w.max_slots,
                };
                return match (self.engine, w.protocol) {
                    (
                        Engine::Fast,
                        DuelProtocol::Fig1 {
                            epsilon,
                            start_epoch,
                        },
                    ) => SpecSession::Fig1(DuelSession::new(
                        Fig1Profile::with_start_epoch(epsilon, start_epoch),
                        config,
                        faults,
                        0,
                    )),
                    (Engine::Fast, DuelProtocol::Ksy { start_epoch }) => {
                        SpecSession::Ksy(DuelSession::new(
                            KsyProfile::with_start_epoch(start_epoch),
                            config,
                            faults,
                            0,
                        ))
                    }
                    (Engine::Exact, _) => SpecSession::ExactDuel {
                        workload: *w,
                        faults,
                        rng: RcbRng::new(0),
                    },
                    (Engine::CohortFast, _) => {
                        unreachable!("validate() rejects duel workloads on the cohort engine")
                    }
                };
            }
            Workload::Broadcast(w) => (w.params, w.n, &w.sources, w.max_epoch, w.exact_max_slots),
            Workload::Stream(w) => (w.params, w.n, &w.sources, w.max_epoch, w.exact_max_slots),
        };
        let sources = sources.clone();
        match self.engine {
            Engine::Fast => SpecSession::Fast(BroadcastSession::new(
                params,
                n,
                sources,
                FastConfig { max_epoch },
                faults,
                0,
            )),
            Engine::Exact => SpecSession::Exact(ExactBroadcastSession::new(
                params,
                n,
                sources,
                ExactConfig {
                    max_slots: exact_max_slots,
                },
                faults,
                0,
            )),
            Engine::CohortFast => SpecSession::Cohort(CohortSession::new(
                params,
                n,
                sources,
                cohort_config(max_epoch),
                faults,
                0,
            )),
        }
    }

    /// Runs `self.trials` independent executions through [`run_trials`]
    /// (deterministic per-trial streams; results independent of thread
    /// count). Every trial yields its (possibly truncated) outcome.
    pub fn run_batch_raw(&self) -> Vec<(Outcome, Option<SimError>)> {
        run_trials(
            self.trials,
            self.seeds.master,
            self.parallelism,
            |i, rng| self.run_trial_raw(i, rng),
        )
    }

    // -- checksums ----------------------------------------------------------

    /// FNV-1a fold of one outcome, in a pinned word order per
    /// (workload, engine). Batch checksums
    /// fold these per-trial hashes: `fnv1a(acc, &[outcome_checksum(..)])`.
    pub fn outcome_checksum(&self, outcome: &Outcome) -> u64 {
        match (outcome, self.engine) {
            (Outcome::Duel(o), Engine::Fast) => fnv1a(
                FNV_OFFSET,
                &[
                    o.alice_cost,
                    o.bob_cost,
                    o.adversary_cost,
                    o.slots,
                    o.delivered as u64,
                    o.delivery_slot.unwrap_or(u64::MAX),
                    o.last_epoch as u64,
                ],
            ),
            (Outcome::Duel(o), Engine::Exact) => fnv1a(
                FNV_OFFSET,
                &[
                    o.alice_cost,
                    o.bob_cost,
                    o.slots,
                    (!o.truncated) as u64,
                    o.delivered as u64,
                ],
            ),
            (Outcome::Duel(_), Engine::CohortFast) => {
                unreachable!("validate() rejects duel workloads on the cohort engine")
            }
            // Engine-agnostic on purpose: the broadcast word order predates
            // the cohort engine and stays pinned so fast-engine baselines
            // remain comparable.
            (Outcome::Broadcast(o), _) => {
                let h = fnv1a(
                    FNV_OFFSET,
                    &[
                        o.slots,
                        o.adversary_cost,
                        o.informed as u64,
                        o.last_epoch as u64,
                        o.safety_terminations as u64,
                    ],
                );
                fnv1a(h, &o.node_costs)
            }
            // Engine-agnostic like the broadcast order; pinned from the
            // day streams landed. Deadline-truncated streams must never
            // reach a checksum fold (they are machine-dependent).
            (Outcome::Stream(o), _) => fnv1a(
                FNV_OFFSET,
                &[
                    o.slots,
                    o.adversary_cost,
                    o.arrivals,
                    o.delivered,
                    o.truncated_msgs,
                    o.queue_area,
                    o.max_queue,
                    o.latency_p50,
                    o.latency_p95,
                    o.latency_max,
                    o.max_cost,
                ],
            ),
        }
    }

    // -- identity -----------------------------------------------------------

    /// FNV-1a over the spec's derived `Debug` rendering — the identity a
    /// journal header records. The rendering covers every field, so two
    /// specs share a fingerprint iff they produce the same results.
    /// `parallelism` is normalised away: the executor's seed folds make
    /// outcomes thread-count-invariant, so two runs of the same spec at
    /// different worker counts share a fingerprint and can resume each
    /// other's journals. Should the rendering change between toolchains,
    /// a resume is refused as a fingerprint mismatch, never spliced.
    pub fn fingerprint(&self) -> u64 {
        let spec = ScenarioSpec {
            parallelism: Parallelism::Auto,
            ..self.clone()
        };
        fnv1a_bytes(FNV_OFFSET, format!("{spec:?}").as_bytes())
    }
}

/// The session a spec runs on, one variant per (workload, engine) pair;
/// built only by [`ScenarioSpec::session`].
#[derive(Debug)]
enum SpecSession {
    Fig1(DuelSession<Fig1Profile>),
    Ksy(DuelSession<KsyProfile>),
    /// The exact-engine duel rebuilds its two slot-level state machines
    /// per run, so it carries only its RNG between runs.
    ExactDuel {
        workload: DuelWorkload,
        faults: FaultPlan,
        rng: RcbRng,
    },
    Fast(BroadcastSession),
    Exact(ExactBroadcastSession),
    Cohort(CohortSession),
}

impl Session for SpecSession {
    type Outcome = Outcome;

    fn rearm(&mut self, seed: u64) {
        match self {
            SpecSession::Fig1(s) => s.rearm(seed),
            SpecSession::Ksy(s) => s.rearm(seed),
            SpecSession::ExactDuel { rng, .. } => *rng = RcbRng::new(seed),
            SpecSession::Fast(s) => s.rearm(seed),
            SpecSession::Exact(s) => s.rearm(seed),
            SpecSession::Cohort(s) => s.rearm(seed),
        }
    }

    fn run(
        &mut self,
        adversary: &mut dyn RepetitionAdversary,
        deadline: &Deadline,
    ) -> (Outcome, Option<SimError>) {
        match self {
            SpecSession::Fig1(s) => lift(s.run(adversary, deadline), Outcome::Duel),
            SpecSession::Ksy(s) => lift(s.run(adversary, deadline), Outcome::Duel),
            SpecSession::ExactDuel {
                workload,
                faults,
                rng,
            } => {
                let run = match workload.protocol {
                    DuelProtocol::Fig1 {
                        epsilon,
                        start_epoch,
                    } => exact_duel(
                        Fig1Profile::with_start_epoch(epsilon, start_epoch),
                        workload,
                        faults,
                        adversary,
                        rng,
                        deadline,
                    ),
                    DuelProtocol::Ksy { start_epoch } => exact_duel(
                        KsyProfile::with_start_epoch(start_epoch),
                        workload,
                        faults,
                        adversary,
                        rng,
                        deadline,
                    ),
                };
                lift(run, Outcome::Duel)
            }
            SpecSession::Fast(s) => lift(s.run(adversary, deadline), Outcome::Broadcast),
            SpecSession::Exact(s) => lift(s.run(adversary, deadline), Outcome::Broadcast),
            SpecSession::Cohort(s) => lift(s.run(adversary, deadline), Outcome::Broadcast),
        }
    }
}

/// Lifts an engine's (outcome, error) pair into the spec-level [`Outcome`].
fn lift<O>(
    (out, err): (O, Option<SimError>),
    kind: fn(O) -> Outcome,
) -> (Outcome, Option<SimError>) {
    (kind(out), err)
}

impl OwnsRng for SpecSession {
    fn rng_mut(&mut self) -> &mut RcbRng {
        match self {
            SpecSession::Fig1(s) => s.rng_mut(),
            SpecSession::Ksy(s) => s.rng_mut(),
            SpecSession::ExactDuel { rng, .. } => rng,
            SpecSession::Fast(s) => s.rng_mut(),
            SpecSession::Exact(s) => s.rng_mut(),
            SpecSession::Cohort(s) => s.rng_mut(),
        }
    }
}

/// Exact-engine duel: drives the slot-level protocol pair and converts
/// the ledger into a [`DuelOutcome`]. Slot-granular bookkeeping the
/// exact engine does not track is left at its zero value and documented
/// on [`Outcome`].
fn exact_duel<P: DuelProfile + Copy>(
    profile: P,
    w: &DuelWorkload,
    faults: &FaultPlan,
    adversary: &mut dyn RepetitionAdversary,
    rng: &mut RcbRng,
    deadline: &Deadline,
) -> (DuelOutcome, Option<SimError>) {
    let mut alice = AliceProtocol::new(profile);
    let mut bob = BobProtocol::new(profile);
    let schedule = DuelSchedule::new(profile.start_epoch());
    let partition = Partition::pair();
    let mut adv = RepAsSlotAdversary::duel(adversary);
    let (out, err) = run_exact(
        &mut [&mut alice, &mut bob],
        &mut adv,
        &schedule,
        &partition,
        rng,
        ExactConfig {
            max_slots: w.exact_max_slots,
        },
        None,
        faults,
        deadline,
    );
    let delivered = bob.received_message();
    (
        DuelOutcome {
            delivered,
            bob_premature: !delivered && out.completed,
            alice_cost: out.ledger.node_cost(0),
            bob_cost: out.ledger.node_cost(1),
            adversary_cost: out.ledger.adversary_cost(),
            slots: out.slots,
            delivery_slot: None, // not tracked at ledger granularity
            last_epoch: 0,       // not tracked by the exact engine
            truncated: !out.completed,
        },
        err,
    )
}

/// The FIFO single-server drain at the heart of a stream trial. The
/// arrival schedule is drawn from the trial stream *before* any
/// per-message execution, so it is engine-independent; each message then
/// re-arms `session` with a fresh per-message seed from the same stream,
/// making a stream trial exactly reproducible. Message `k` starts service
/// at `max(clock, arrival_k)`; its latency is queue wait + service time.
///
/// Per-message engine caps (epoch/slot budgets) are *data*, not failures:
/// they count into `truncated_msgs`, the message still advances the
/// clock, and the stream continues. Only a wall-clock deadline aborts the
/// stream, marking the outcome `truncated` (such outcomes are
/// machine-dependent and must never be journaled).
fn run_stream(
    w: &StreamWorkload,
    session: &mut SpecSession,
    adversary: &mut dyn RepetitionAdversary,
    rng: &mut RcbRng,
    deadline: &Deadline,
) -> (StreamOutcome, Option<SimError>) {
    let arrivals = w.arrival.generate(w.horizon, rng);
    let arrivals = &arrivals[..];
    let mut out = StreamOutcome {
        n: w.n,
        arrivals: arrivals.len() as u64,
        delivered: 0,
        truncated_msgs: 0,
        slots: 0,
        adversary_cost: 0,
        max_cost: 0,
        queue_area: 0,
        max_queue: 0,
        latency_p50: 0,
        latency_p95: 0,
        latency_max: 0,
        truncated: false,
    };
    let mut latencies: Vec<u64> = Vec::with_capacity(arrivals.len());
    let mut clock = 0u64;
    let mut stream_err = None;
    let mut seed_buf = [0u64; 1];
    for (k, &arrival) in arrivals.iter().enumerate() {
        if deadline.exceeded() {
            out.truncated = true;
            stream_err = Some(SimError::DeadlineExceeded { slots: clock });
            break;
        }
        let start = clock.max(arrival);
        // Backlog sampled as service begins: arrivals at or before `start`
        // minus the k messages already completed (includes this one).
        let backlog = arrivals[k..].iter().take_while(|&&a| a <= start).count() as u64;
        out.max_queue = out.max_queue.max(backlog);
        if w.alloc == StreamAlloc::PerMessage {
            adversary.rearm();
        }
        rng.fill_u64s(&mut seed_buf);
        session.rearm(seed_buf[0]);
        let (msg, err) = session.run(adversary, deadline);
        let msg = msg.into_broadcast();
        out.adversary_cost += msg.adversary_cost;
        out.max_cost = out.max_cost.max(msg.max_cost());
        if let Some(e) = err {
            if matches!(e, SimError::DeadlineExceeded { .. }) {
                out.truncated = true;
                stream_err = Some(SimError::DeadlineExceeded { slots: clock });
                break;
            }
            out.truncated_msgs += 1;
        }
        let completion = start + msg.slots;
        let latency = completion - arrival;
        latencies.push(latency);
        out.queue_area += latency;
        clock = completion;
        if msg.all_informed {
            out.delivered += 1;
        }
    }
    out.slots = clock.max(arrivals.last().copied().unwrap_or(0));
    latencies.sort_unstable();
    out.latency_p50 = percentile(&latencies, 50);
    out.latency_p95 = percentile(&latencies, 95);
    out.latency_max = latencies.last().copied().unwrap_or(0);
    (out, stream_err)
}

/// Nearest-rank percentile over an ascending-sorted slice (0 if empty).
fn percentile(sorted: &[u64], p: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as u64 * p).div_ceil(100).max(1) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

// ---------------------------------------------------------------------------
// Outcome
// ---------------------------------------------------------------------------

/// Unified result of a scenario run.
///
/// Exact-engine runs convert the energy ledger into the same outcome
/// structs the fast engines produce. Fields the slot-level engine does not
/// track are left at documented zero values: `delivery_slot` is `None`,
/// `last_epoch` is 0, and broadcast `safety_terminations` is 0.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    Duel(DuelOutcome),
    Broadcast(BroadcastOutcome),
    Stream(StreamOutcome),
}

impl Outcome {
    pub fn slots(&self) -> u64 {
        match self {
            Outcome::Duel(o) => o.slots,
            Outcome::Broadcast(o) => o.slots,
            Outcome::Stream(o) => o.slots,
        }
    }

    pub fn truncated(&self) -> bool {
        match self {
            Outcome::Duel(o) => o.truncated,
            Outcome::Broadcast(o) => o.truncated,
            Outcome::Stream(o) => o.truncated,
        }
    }

    pub fn adversary_cost(&self) -> u64 {
        match self {
            Outcome::Duel(o) => o.adversary_cost,
            Outcome::Broadcast(o) => o.adversary_cost,
            Outcome::Stream(o) => o.adversary_cost,
        }
    }

    /// Max per-node cost (the resource-competitive quantity). For streams
    /// this is the max over any single message's execution.
    pub fn max_cost(&self) -> u64 {
        match self {
            Outcome::Duel(o) => o.max_cost(),
            Outcome::Broadcast(o) => o.max_cost(),
            Outcome::Stream(o) => o.max_cost,
        }
    }

    /// # Panics
    ///
    /// Panics on a non-duel outcome.
    pub fn into_duel(self) -> DuelOutcome {
        match self {
            Outcome::Duel(o) => o,
            _ => panic!("expected a duel outcome"),
        }
    }

    /// # Panics
    ///
    /// Panics on a non-broadcast outcome.
    pub fn into_broadcast(self) -> BroadcastOutcome {
        match self {
            Outcome::Broadcast(o) => o,
            _ => panic!("expected a broadcast outcome"),
        }
    }

    /// # Panics
    ///
    /// Panics on a non-stream outcome.
    pub fn into_stream(self) -> StreamOutcome {
        match self {
            Outcome::Stream(o) => o,
            _ => panic!("expected a stream outcome"),
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// A named, pinned scenario — the unit the `rcbsim scenario` subcommand
/// runs. Names and parameters are part of the recorded checksums' meaning
/// (`crates/sim/tests/scenario_equivalence.rs` pins them by name), so
/// renaming or retuning an entry orphans its history.
#[derive(Debug, Clone)]
pub struct NamedScenario {
    pub name: &'static str,
    /// One-line human description for `rcbsim scenario list`.
    pub summary: &'static str,
    pub spec: ScenarioSpec,
}

/// The pinned scenario registry. The specs carry their default trial
/// counts, which `rcbsim scenario run` uses unless `--trials` overrides.
pub fn registry() -> Vec<NamedScenario> {
    let duel = |adversary, faults: FaultPlan, trials| {
        ScenarioSpec::duel(DuelProtocol::fig1(0.1, 8))
            .with_adversary(adversary)
            .with_faults(faults)
            .with_trials(trials)
    };
    let bcast = |n, budget, faults: FaultPlan, trials| {
        ScenarioSpec::broadcast(n)
            .with_adversary(AdversarySpec::Budgeted {
                budget,
                fraction: 1.0,
            })
            .with_faults(faults)
            .with_trials(trials)
    };
    vec![
        NamedScenario {
            name: "duel_clean",
            summary: "fast duel, no jamming (hot-path baseline)",
            // Clean duels finish in a couple of epochs, so the count is
            // high: a default run lasts ≥ ~100 ms, long enough that its
            // wall time measures the engine rather than scheduler jitter.
            spec: duel(AdversarySpec::NoJam, FaultPlan::none(), 30_000),
        },
        NamedScenario {
            name: "duel_jammed",
            summary: "fast duel vs 64 Ki-budget blanket blocker",
            spec: duel(
                AdversarySpec::Budgeted {
                    budget: 1 << 16,
                    fraction: 1.0,
                },
                FaultPlan::none(),
                600,
            ),
        },
        NamedScenario {
            name: "duel_jammed_faulted",
            summary: "jammed fast duel with loss 0.1 and 1-slot skew",
            spec: duel(
                AdversarySpec::Budgeted {
                    budget: 1 << 16,
                    fraction: 1.0,
                },
                FaultPlan::none().with_loss(0.1).with_skew(1, 1),
                600,
            ),
        },
        NamedScenario {
            name: "exact_duel_jammed",
            summary: "exact-engine duel vs 4 Ki-budget blocker (reference)",
            spec: duel(
                AdversarySpec::Budgeted {
                    budget: 1 << 12,
                    fraction: 1.0,
                },
                FaultPlan::none(),
                160,
            )
            .with_engine(Engine::Exact),
        },
        NamedScenario {
            name: "bcast_n8_jammed",
            summary: "fast broadcast, n=8, 100 k-budget blocker",
            spec: bcast(8, 100_000, FaultPlan::none(), 60),
        },
        NamedScenario {
            name: "bcast_n64_jammed",
            summary: "fast broadcast, n=64, 200 k-budget blocker",
            spec: bcast(64, 200_000, FaultPlan::none(), 20),
        },
        NamedScenario {
            name: "bcast_n256_jammed",
            summary: "fast broadcast, n=256, 400 k-budget blocker",
            spec: bcast(256, 400_000, FaultPlan::none(), 8),
        },
        NamedScenario {
            name: "bcast_n64_faulted",
            summary: "jammed n=64 broadcast with loss, crash-reboot, skew",
            spec: bcast(
                64,
                200_000,
                FaultPlan::none()
                    .with_loss(0.1)
                    .with_crash(3, 2, 6, true)
                    .with_skew(5, 1),
                20,
            ),
        },
        // Streaming entries: queue-driven workloads draining through one
        // re-armed session, one entry per engine so `rcbsim scenario run`
        // demonstrates streaming end-to-end everywhere.
        NamedScenario {
            name: "stream_n8_poisson",
            summary: "fast stream, n=8, Poisson arrivals vs persistent 20 k jammer",
            spec: ScenarioSpec::stream(8, ArrivalSpec::Poisson { rate: 2e-4 }, 50_000)
                .with_adversary(AdversarySpec::Budgeted {
                    budget: 20_000,
                    fraction: 1.0,
                })
                .with_trials(12),
        },
        NamedScenario {
            name: "stream_n4_exact_burst",
            summary: "exact stream, n=4, bursty arrivals, per-message 2 k jammer",
            spec: ScenarioSpec::stream(
                4,
                ArrivalSpec::Burst {
                    period: 30_000,
                    size: 2,
                },
                60_000,
            )
            .with_engine(Engine::Exact)
            .with_stream_alloc(StreamAlloc::PerMessage)
            .with_adversary(AdversarySpec::KeepAlive {
                budget: 2_000,
                fraction: 1.0,
            })
            .with_trials(4),
        },
        NamedScenario {
            name: "stream_n4096_cohort",
            summary: "cohort stream, n=4096, scheduled arrivals, persistent 50 k jammer",
            spec: ScenarioSpec::stream(
                4096,
                ArrivalSpec::Schedule {
                    arrivals: vec![0, 1_000, 2_000, 3_000],
                },
                10_000,
            )
            .with_engine(Engine::CohortFast)
            .with_adversary(AdversarySpec::Budgeted {
                budget: 50_000,
                fraction: 1.0,
            })
            .with_trials(4),
        },
        // The large-n cohort entries sit last deliberately: they are the
        // slowest (n = 10^6 takes over a minute per trial), so a loop over
        // `rcbsim scenario names` reports every cheap entry first.
        NamedScenario {
            name: "bcast_n65536",
            summary: "cohort broadcast, n=65536, 2 M-budget blocker",
            spec: bcast(65_536, 2_000_000, FaultPlan::none(), 4).with_engine(Engine::CohortFast),
        },
        NamedScenario {
            name: "bcast_n1e6",
            summary: "cohort broadcast, n=10^6, no jamming (scale ceiling)",
            spec: ScenarioSpec::broadcast(1_000_000)
                .with_trials(2)
                .with_engine(Engine::CohortFast),
        },
    ]
}

/// Looks up a registry entry by name.
pub fn find_scenario(name: &str) -> Option<NamedScenario> {
    registry().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trial 0 on `rng`; panics if the run hit an engine cap.
    fn run_ok(spec: &ScenarioSpec, rng: &mut RcbRng) -> Outcome {
        match spec.run_trial_raw(0, rng) {
            (out, None) => out,
            (_, Some(err)) => panic!("{err}"),
        }
    }

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let entries = registry();
        assert_eq!(entries.len(), 13);
        for (i, a) in entries.iter().enumerate() {
            for b in &entries[i + 1..] {
                assert_ne!(a.name, b.name);
            }
            let found = find_scenario(a.name).expect("registered name resolves");
            assert_eq!(found.spec, a.spec);
            assert!(a.spec.validate().is_ok(), "{}", a.name);
            assert!(!a.summary.is_empty());
        }
        assert!(find_scenario("nonexistent").is_none());
    }

    #[test]
    fn exact_duel_outcome_maps_the_ledger() {
        let spec = ScenarioSpec::duel(DuelProtocol::fig1(0.05, 6)).with_engine(Engine::Exact);
        let mut rng = RcbRng::new(7);
        let out = run_ok(&spec, &mut rng).into_duel();
        assert!(!out.truncated);
        assert!(out.alice_cost > 0);
        assert_eq!(out.adversary_cost, 0);
        assert_eq!(out.delivery_slot, None, "not tracked at slot granularity");
        assert_eq!(out.last_epoch, 0, "not tracked by the exact engine");
    }

    #[test]
    fn run_batch_raw_equals_sequential_run_trial_raw() {
        let spec = ScenarioSpec::duel(DuelProtocol::fig1(0.1, 8))
            .with_adversary(AdversarySpec::Budgeted {
                budget: 1024,
                fraction: 1.0,
            })
            .with_trials(8)
            .with_seed(99);
        let batch = spec.run_batch_raw();
        let sequential: Vec<_> = (0..8)
            .map(|i| {
                let mut rng = rcb_mathkit::rng::SeedSequence::new(99).rng(i);
                spec.run_trial_raw(i, &mut rng)
            })
            .collect();
        assert_eq!(batch, sequential);
    }

    #[test]
    fn checksum_word_order_is_pinned() {
        // The fast-duel fold order is part of the recorded baselines'
        // meaning; pin it against an independently computed value.
        let spec = ScenarioSpec::duel(DuelProtocol::fig1(0.1, 8));
        let out = DuelOutcome {
            delivered: true,
            bob_premature: false,
            alice_cost: 1,
            bob_cost: 2,
            adversary_cost: 3,
            slots: 4,
            delivery_slot: None,
            last_epoch: 9,
            truncated: false,
        };
        let expected = fnv1a(FNV_OFFSET, &[1, 2, 3, 4, 1, u64::MAX, 9]);
        assert_eq!(spec.outcome_checksum(&Outcome::Duel(out)), expected);
    }

    #[test]
    fn adversary_budget_axis_mutation() {
        let a = AdversarySpec::Budgeted {
            budget: 10,
            fraction: 0.5,
        };
        assert_eq!(
            a.with_budget(99),
            AdversarySpec::Budgeted {
                budget: 99,
                fraction: 0.5
            }
        );
        assert_eq!(AdversarySpec::NoJam.with_budget(99), AdversarySpec::NoJam);
        assert_eq!(a.budget(), 10);
        assert_eq!(AdversarySpec::NoJam.budget(), 0);
    }

    #[test]
    fn adversary_display_is_stable() {
        // Conformance cell names embed these renders; report archaeology
        // depends on them staying fixed.
        assert_eq!(AdversarySpec::NoJam.to_string(), "T=0");
        assert_eq!(
            AdversarySpec::Budgeted {
                budget: 512,
                fraction: 1.0
            }
            .to_string(),
            "blocker(T=512, q=1)"
        );
        assert_eq!(
            AdversarySpec::KeepAlive {
                budget: 1024,
                fraction: 1.0
            }
            .to_string(),
            "keepalive(T=1024, q=1)"
        );
        assert_eq!(
            AdversarySpec::Random {
                budget: 64,
                rate: 0.5
            }
            .to_string(),
            "random(T=64, q=0.5)"
        );
    }

    #[test]
    fn validate_rejects_bad_specs() {
        let bad_source = {
            let mut s = ScenarioSpec::broadcast(4);
            if let Workload::Broadcast(w) = &mut s.workload {
                w.sources = vec![4];
            }
            s
        };
        assert!(bad_source.validate().is_err());
        let bad_fraction =
            ScenarioSpec::duel(DuelProtocol::ksy()).with_adversary(AdversarySpec::Budgeted {
                budget: 1,
                fraction: 1.5,
            });
        assert!(bad_fraction.validate().is_err());
        for epsilon in [2.0, 0.0, f64::NAN] {
            let bad_epsilon = ScenarioSpec::duel(DuelProtocol::fig1(epsilon, 8));
            let err = bad_epsilon.validate().expect_err("epsilon outside (0, 1)");
            assert!(err.contains("epsilon"), "{epsilon}: {err}");
        }
        assert!(ScenarioSpec::duel(DuelProtocol::ksy()).validate().is_ok());
        // Fault targets must lie inside the population: 2 in a duel, `n`
        // in a broadcast or stream.
        let duel_crash = ScenarioSpec::duel(DuelProtocol::ksy())
            .with_faults(FaultPlan::none().with_crash(5, 0, 3, false));
        let err = duel_crash.validate().expect_err("crash node 5 of a duel");
        assert!(err.contains("node 5") && err.contains("2 nodes"), "{err}");
        let bcast_skew =
            ScenarioSpec::broadcast(16).with_faults(FaultPlan::none().with_skew(16, 1));
        let err = bcast_skew.validate().expect_err("skew node 16 of 16");
        assert!(err.contains("node 16") && err.contains("16 nodes"), "{err}");
        assert!(ScenarioSpec::broadcast(16)
            .with_faults(FaultPlan::none().with_crash(15, 0, 3, true))
            .validate()
            .is_ok());
    }

    #[test]
    fn random_adversary_is_seed_deterministic() {
        let spec =
            ScenarioSpec::duel(DuelProtocol::fig1(0.1, 8)).with_adversary(AdversarySpec::Random {
                budget: 4096,
                rate: 0.5,
            });
        let run = || {
            let mut rng = RcbRng::new(3);
            run_ok(&spec, &mut rng).into_duel()
        };
        assert_eq!(run(), run(), "same (seed, trial) must replay exactly");
    }

    #[test]
    fn engine_labels_are_pinned() {
        assert_eq!(
            ScenarioSpec::duel(DuelProtocol::ksy()).engine_label(),
            "duel-fast"
        );
        assert_eq!(ScenarioSpec::broadcast(4).engine_label(), "broadcast-fast");
        assert_eq!(
            ScenarioSpec::broadcast(4)
                .with_engine(Engine::Exact)
                .engine_label(),
            "exact"
        );
        assert_eq!(
            ScenarioSpec::broadcast(4)
                .with_engine(Engine::CohortFast)
                .engine_label(),
            "broadcast-cohort"
        );
    }

    #[test]
    fn cohort_engine_rejects_duel_workloads() {
        let spec = ScenarioSpec::duel(DuelProtocol::fig1(0.1, 8)).with_engine(Engine::CohortFast);
        assert!(spec.validate().is_err());
    }

    #[test]
    fn truncation_surfaces_as_typed_error() {
        let mut spec = ScenarioSpec::duel(DuelProtocol::fig1(0.1, 8)).with_adversary(
            AdversarySpec::Budgeted {
                budget: 10_000,
                fraction: 1.0,
            },
        );
        if let Workload::Duel(w) = &mut spec.workload {
            w.max_slots = 100;
        }
        let mut rng = RcbRng::new(3);
        let (out, err) = spec.run_trial_raw(0, &mut rng);
        assert!(matches!(
            err.expect("100 slots cannot finish"),
            SimError::SlotBudgetExhausted { max_slots: 100, .. }
        ));
        // The truncated outcome still comes back next to the error.
        assert!(out.truncated());
    }

    #[test]
    fn fingerprints_separate_specs_and_ignore_parallelism() {
        let base = ScenarioSpec::duel(DuelProtocol::fig1(0.1, 8)).with_seed(7);
        assert_ne!(
            base.fingerprint(),
            base.clone().with_seed(8).fingerprint(),
            "the seed is part of the work's identity"
        );
        assert_ne!(
            base.fingerprint(),
            base.clone().with_trials(2).fingerprint()
        );
        assert_eq!(
            base.fingerprint(),
            base.clone()
                .with_parallelism(Parallelism::Fixed(4))
                .fingerprint(),
            "thread count is a runtime concern: seed folds make outcomes \
             thread-count-invariant, so runs at any worker count may share a journal"
        );

        // One mutation per result-defining field, each against the spec it
        // mutates: the derived rendering must carry every one of them.
        fn edit(spec: &ScenarioSpec, f: impl FnOnce(&mut ScenarioSpec)) -> ScenarioSpec {
            let mut spec = spec.clone();
            f(&mut spec);
            spec
        }
        let duel_w = |f: fn(&mut DuelWorkload)| {
            edit(&base, |s| {
                if let Workload::Duel(w) = &mut s.workload {
                    f(w)
                }
            })
        };
        let bcast = ScenarioSpec::broadcast(8).with_seed(7);
        let bcast_w = |f: fn(&mut BroadcastWorkload)| {
            edit(&bcast, |s| {
                if let Workload::Broadcast(w) = &mut s.workload {
                    f(w)
                }
            })
        };
        let (budget, fraction, rate) = (4096, 1.0, 0.5);
        let jam = |adversary| base.clone().with_adversary(adversary);
        let blocker = jam(AdversarySpec::Budgeted { budget, fraction });
        let keepalive = jam(AdversarySpec::KeepAlive { budget, fraction });
        let random = jam(AdversarySpec::Random { budget, rate });
        let fault = |plan| base.clone().with_faults(plan);
        let stream = ScenarioSpec::stream(4, ArrivalSpec::Poisson { rate }, 10_000);
        let stream_w = |f: fn(&mut StreamWorkload)| {
            edit(&stream, |s| {
                if let Workload::Stream(w) = &mut s.workload {
                    f(w)
                }
            })
        };
        let mutations = [
            (
                "duel engine",
                &base,
                base.clone().with_engine(Engine::Exact),
            ),
            (
                "broadcast engine",
                &bcast,
                bcast.clone().with_engine(Engine::Exact),
            ),
            (
                "cohort engine",
                &bcast,
                bcast.clone().with_engine(Engine::CohortFast),
            ),
            (
                "protocol",
                &base,
                ScenarioSpec::duel(DuelProtocol::ksy()).with_seed(7),
            ),
            (
                "epsilon",
                &base,
                ScenarioSpec::duel(DuelProtocol::fig1(0.2, 8)).with_seed(7),
            ),
            ("blocker", &base, blocker.clone()),
            ("keep-alive", &blocker, keepalive.clone()),
            ("random", &blocker, random.clone()),
            (
                "blocker budget",
                &blocker,
                jam(AdversarySpec::Budgeted {
                    budget: budget + 1,
                    fraction,
                }),
            ),
            (
                "keep-alive budget",
                &keepalive,
                jam(AdversarySpec::KeepAlive {
                    budget: budget + 1,
                    fraction,
                }),
            ),
            (
                "random budget",
                &random,
                jam(AdversarySpec::Random {
                    budget: budget + 1,
                    rate,
                }),
            ),
            ("loss", &base, fault(FaultPlan::none().with_loss(0.1))),
            (
                "crash",
                &base,
                fault(FaultPlan::none().with_crash(1, 2, 3, true)),
            ),
            ("skew", &base, fault(FaultPlan::none().with_skew(1, 1))),
            ("battery", &base, fault(FaultPlan::none().with_battery(64))),
            ("max_slots", &base, duel_w(|w| w.max_slots += 1)),
            (
                "duel exact_max_slots",
                &base,
                duel_w(|w| w.exact_max_slots += 1),
            ),
            (
                "broadcast exact_max_slots",
                &bcast,
                bcast_w(|w| w.exact_max_slots += 1),
            ),
            ("max_epoch", &bcast, bcast_w(|w| w.max_epoch += 1)),
            ("params", &bcast, bcast_w(|w| w.params.first_epoch += 1)),
            ("n", &bcast, bcast_w(|w| w.n += 1)),
            ("sources", &bcast, bcast_w(|w| w.sources = vec![1])),
            (
                "arrival",
                &stream,
                stream_w(|w| {
                    w.arrival = ArrivalSpec::Burst {
                        period: 100,
                        size: 2,
                    }
                }),
            ),
            (
                "schedule",
                &stream,
                stream_w(|w| {
                    w.arrival = ArrivalSpec::Schedule {
                        arrivals: vec![5, 9],
                    }
                }),
            ),
            ("horizon", &stream, stream_w(|w| w.horizon += 1)),
            (
                "alloc",
                &stream,
                stream.clone().with_stream_alloc(StreamAlloc::PerMessage),
            ),
        ];
        for (field, before, after) in &mutations {
            assert_ne!(
                before.fingerprint(),
                after.fingerprint(),
                "changing the {field} must change the fingerprint"
            );
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 50), 0);
        assert_eq!(percentile(&[10], 50), 10);
        assert_eq!(percentile(&[1, 2, 3, 4], 50), 2);
        assert_eq!(percentile(&[1, 2, 3, 4], 95), 4);
        assert_eq!(percentile(&[1, 2, 3, 4], 100), 4);
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&hundred, 50), 50);
        assert_eq!(percentile(&hundred, 95), 95);
    }

    #[test]
    fn arrival_specs_generate_deterministic_sorted_schedules() {
        let gen = |seed| {
            let mut rng = RcbRng::new(seed);
            ArrivalSpec::Poisson { rate: 1e-3 }.generate(100_000, &mut rng)
        };
        let a = gen(3);
        assert_eq!(a, gen(3), "poisson schedule must replay from the seed");
        assert!(!a.is_empty(), "rate 1e-3 over 100k slots should arrive");
        assert!(a.windows(2).all(|p| p[0] <= p[1]), "sorted");
        assert!(a.iter().all(|&t| t < 100_000), "inside the horizon");

        let mut rng = RcbRng::new(0);
        let burst = ArrivalSpec::Burst {
            period: 10,
            size: 2,
        }
        .generate(25, &mut rng);
        assert_eq!(burst, vec![0, 0, 10, 10, 20, 20]);
        let sched = ArrivalSpec::Schedule {
            arrivals: vec![5, 9],
        }
        .generate(25, &mut rng);
        assert_eq!(sched, vec![5, 9]);
    }

    #[test]
    fn stream_runs_on_all_three_engines_and_replays() {
        for engine in [Engine::Fast, Engine::Exact, Engine::CohortFast] {
            let spec = ScenarioSpec::stream(
                4,
                ArrivalSpec::Burst {
                    period: 30_000,
                    size: 2,
                },
                60_000,
            )
            .with_engine(engine)
            .with_adversary(AdversarySpec::Budgeted {
                budget: 2_000,
                fraction: 1.0,
            });
            assert!(spec.validate().is_ok());
            let mut rng = RcbRng::new(5);
            let out = run_ok(&spec, &mut rng).into_stream();
            assert_eq!(out.arrivals, 4, "{engine:?}");
            assert_eq!(out.delivered, 4, "{engine:?}: jamming delays, not kills");
            assert_eq!(out.truncated_msgs, 0, "{engine:?}");
            assert!(!out.truncated, "{engine:?}");
            assert!(out.max_queue >= 2, "{engine:?}: bursts of 2 queue up");
            assert!(
                out.latency_p50 <= out.latency_p95 && out.latency_p95 <= out.latency_max,
                "{engine:?}: percentile ordering"
            );
            let mut rng2 = RcbRng::new(5);
            assert_eq!(
                run_ok(&spec, &mut rng2).into_stream(),
                out,
                "{engine:?}: stream trials must replay exactly"
            );
        }
    }

    #[test]
    fn stream_alloc_policies_have_distinct_budget_semantics() {
        let base = ScenarioSpec::stream(
            8,
            ArrivalSpec::Burst {
                period: 10_000,
                size: 1,
            },
            50_000,
        )
        .with_adversary(AdversarySpec::Budgeted {
            budget: 3_000,
            fraction: 1.0,
        });
        let mut rng = RcbRng::new(9);
        let persistent = run_ok(&base, &mut rng).into_stream();
        assert!(
            persistent.adversary_cost <= 3_000,
            "one budget spans the stream: spent {}",
            persistent.adversary_cost
        );
        let per_msg = base.with_stream_alloc(StreamAlloc::PerMessage);
        let mut rng = RcbRng::new(9);
        let refill = run_ok(&per_msg, &mut rng).into_stream();
        assert!(
            refill.adversary_cost >= persistent.adversary_cost,
            "a refilled jammer can spend at least as much ({} vs {})",
            refill.adversary_cost,
            persistent.adversary_cost
        );
    }

    #[test]
    fn stream_validate_rejects_bad_arrivals() {
        let bad_rate = ScenarioSpec::stream(4, ArrivalSpec::Poisson { rate: 0.0 }, 1_000);
        assert!(bad_rate.validate().is_err());
        let bad_burst = ScenarioSpec::stream(4, ArrivalSpec::Burst { period: 0, size: 1 }, 1_000);
        assert!(bad_burst.validate().is_err());
        let unsorted = ScenarioSpec::stream(
            4,
            ArrivalSpec::Schedule {
                arrivals: vec![9, 5],
            },
            1_000,
        );
        assert!(unsorted.validate().is_err());
        let past_horizon = ScenarioSpec::stream(
            4,
            ArrivalSpec::Schedule {
                arrivals: vec![1_000],
            },
            1_000,
        );
        assert!(past_horizon.validate().is_err());
        let no_horizon = ScenarioSpec::stream(4, ArrivalSpec::Poisson { rate: 0.5 }, 0);
        assert!(no_horizon.validate().is_err());
        let ok = ScenarioSpec::stream(4, ArrivalSpec::Poisson { rate: 0.5 }, 1_000);
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn stream_checksum_word_order_is_pinned() {
        let spec = ScenarioSpec::stream(4, ArrivalSpec::Poisson { rate: 0.5 }, 1_000);
        let out = StreamOutcome {
            n: 4,
            arrivals: 3,
            delivered: 4,
            truncated_msgs: 5,
            slots: 1,
            adversary_cost: 2,
            max_cost: 11,
            queue_area: 6,
            max_queue: 7,
            latency_p50: 8,
            latency_p95: 9,
            latency_max: 10,
            truncated: false,
        };
        let expected = fnv1a(FNV_OFFSET, &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]);
        assert_eq!(spec.outcome_checksum(&Outcome::Stream(out)), expected);
    }
}
