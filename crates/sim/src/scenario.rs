//! Declarative scenario layer: one canonical description of "a run".
//!
//! Every consumer of the engines — the `rcbsim` CLI, the experiment
//! drivers' sweeps, the conformance grid, the perf grid — used to
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
//! The trial path calls the engines' single entry points
//! ([`run_duel`], [`run_broadcast`], [`run_cohort`], [`run_exact`]) with
//! the same argument values and RNG stream usage a hand-built call would
//! use, so a spec run is **bit-identical** to that call (certified by the
//! golden equivalence suite in `crates/sim/tests/scenario_equivalence.rs`).
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
//! The perf grid's pinned scenarios are published as named registry
//! entries ([`registry`]); `rcbsim scenario list` / `rcbsim scenario run
//! <name>` expose them from the CLI. Adding a protocol, engine, or
//! adversary now costs one registry entry instead of one change per
//! consumer.

use std::fmt;

use rcb_adversary::rep_strategies::{BudgetedRepBlocker, KeepAliveBlocker, NoJamRep, RandomRep};
use rcb_adversary::traits::RepetitionAdversary;
use rcb_adversary::RepAsSlotAdversary;
use rcb_baselines::ksy::KsyProfile;
use rcb_channel::partition::Partition;
use rcb_core::one_to_n::{OneToNParams, OneToNSchedule, OneToNSlotNode};
use rcb_core::one_to_one::profile::{DuelProfile, Fig1Profile};
use rcb_core::one_to_one::schedule::DuelSchedule;
use rcb_core::one_to_one::slot::{AliceProtocol, BobProtocol};
use rcb_core::protocol::SlotProtocol;
use rcb_mathkit::rng::RcbRng;

use crate::cohort::{run_cohort, CohortConfig, CohortSession};
use crate::deadline::Deadline;
use crate::duel::{run_duel, DuelConfig};
use crate::error::SimError;
use crate::exact::{run_exact, ExactConfig};
use crate::fast::{run_broadcast, BroadcastSession, FastConfig};
use crate::faults::FaultPlan;
use crate::json::Json;
use crate::outcome::{BroadcastOutcome, DuelOutcome, StreamOutcome};
use crate::runner::{run_trials, Parallelism};
use crate::session::{ExactBroadcastSession, Session};

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

/// FNV-1a offset basis; the perf grid's checksums start here.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `words` into an FNV-1a hash byte-wise (little-endian), starting
/// from `h`. This is the exact fold the perf grid has always recorded, so
/// checksums in historical `BENCH_*.json` files stay comparable.
pub fn fnv1a(mut h: u64, words: &[u64]) -> u64 {
    for &w in words {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Byte-granular FNV-1a fold — the same hash as [`fnv1a`] applied to a raw
/// byte stream. Used for spec fingerprints and journal record checksums,
/// where the payload is canonical JSON text rather than a word sequence.
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

    /// Checks the spec's cross-field invariants (fault plan validity,
    /// source bounds, adversary parameter ranges). The run paths enforce
    /// the same invariants by assertion; `validate` exists so front ends
    /// (the CLI) can surface a readable error instead of a panic.
    pub fn validate(&self) -> Result<(), String> {
        self.faults.validate().map_err(|e| e.to_string())?;
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
            Ok(())
        };
        match &self.workload {
            Workload::Duel(_) => {}
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

    /// The engine label recorded in `BENCH_*.json` files (pinned: renaming
    /// a label would orphan the perf history).
    pub fn engine_label(&self) -> &'static str {
        match (&self.engine, &self.workload) {
            (Engine::Fast, Workload::Duel(_)) => "duel-fast",
            // Streams reuse the broadcast labels: the engine doing the
            // work is the same, and the workload kind is already visible
            // in the scenario name / spec JSON.
            (Engine::Fast, Workload::Broadcast(_) | Workload::Stream(_)) => "broadcast-fast",
            (Engine::Exact, _) => "exact",
            // `validate` rejects (CohortFast, Duel), so the label is
            // unconditionally the broadcast one.
            (Engine::CohortFast, _) => "broadcast-cohort",
        }
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
    pub fn run_trial_ctl(
        &self,
        trial: u64,
        rng: &mut RcbRng,
        deadline: &Deadline,
    ) -> (Outcome, Option<SimError>) {
        debug_assert!(self.validate().is_ok(), "invalid scenario spec");
        match (&self.workload, self.engine) {
            (Workload::Duel(w), Engine::Fast) => {
                let mut adv = self.adversary.build(self.seeds.adversary_seed(trial));
                let config = DuelConfig {
                    max_slots: w.max_slots,
                };
                let (out, err) = match w.protocol {
                    DuelProtocol::Fig1 {
                        epsilon,
                        start_epoch,
                    } => run_duel(
                        &Fig1Profile::with_start_epoch(epsilon, start_epoch),
                        adv.as_mut(),
                        rng,
                        config,
                        &self.faults,
                        deadline,
                    ),
                    DuelProtocol::Ksy { start_epoch } => run_duel(
                        &KsyProfile::with_start_epoch(start_epoch),
                        adv.as_mut(),
                        rng,
                        config,
                        &self.faults,
                        deadline,
                    ),
                };
                (Outcome::Duel(out), err)
            }
            (Workload::Duel(w), Engine::Exact) => {
                let adv = self.adversary.build(self.seeds.adversary_seed(trial));
                match w.protocol {
                    DuelProtocol::Fig1 {
                        epsilon,
                        start_epoch,
                    } => self.exact_duel(
                        Fig1Profile::with_start_epoch(epsilon, start_epoch),
                        w,
                        adv,
                        rng,
                        deadline,
                    ),
                    DuelProtocol::Ksy { start_epoch } => self.exact_duel(
                        KsyProfile::with_start_epoch(start_epoch),
                        w,
                        adv,
                        rng,
                        deadline,
                    ),
                }
            }
            (Workload::Broadcast(w), Engine::Fast) => {
                let mut adv = self.adversary.build(self.seeds.adversary_seed(trial));
                let (out, err) = run_broadcast(
                    &w.params,
                    w.n,
                    &w.sources,
                    adv.as_mut(),
                    rng,
                    FastConfig {
                        max_epoch: w.max_epoch,
                    },
                    &mut (),
                    &self.faults,
                    deadline,
                );
                (Outcome::Broadcast(out), err)
            }
            (Workload::Broadcast(w), Engine::Exact) => {
                let adv = self.adversary.build(self.seeds.adversary_seed(trial));
                self.exact_broadcast(w, adv, rng, deadline)
            }
            (Workload::Broadcast(w), Engine::CohortFast) => {
                let mut adv = self.adversary.build(self.seeds.adversary_seed(trial));
                let (out, err) = run_cohort(
                    &w.params,
                    w.n,
                    &w.sources,
                    adv.as_mut(),
                    rng,
                    CohortConfig {
                        max_epoch: w.max_epoch,
                        ..CohortConfig::default()
                    },
                    &self.faults,
                    deadline,
                );
                (Outcome::Broadcast(out), err)
            }
            (Workload::Stream(w), _) => {
                let mut adv = self.adversary.build(self.seeds.adversary_seed(trial));
                let (out, err) = self.run_stream(w, adv.as_mut(), rng, deadline);
                (Outcome::Stream(out), err)
            }
            (Workload::Duel(_), Engine::CohortFast) => {
                unreachable!("validate() rejects duel workloads on the cohort engine")
            }
        }
    }

    /// Queue-driven streaming run: builds the engine's session once, then
    /// drains the arrival queue FIFO through it, re-arming between
    /// messages. The arrival schedule is drawn from the trial stream
    /// *before* any per-message execution, so it is engine-independent;
    /// each message then gets a fresh per-message seed from the same
    /// stream, making a stream trial exactly reproducible.
    fn run_stream(
        &self,
        w: &StreamWorkload,
        adversary: &mut dyn RepetitionAdversary,
        rng: &mut RcbRng,
        deadline: &Deadline,
    ) -> (StreamOutcome, Option<SimError>) {
        let arrivals = w.arrival.generate(w.horizon, rng);
        match self.engine {
            Engine::Fast => {
                let mut session = BroadcastSession::new(
                    w.params,
                    w.n,
                    w.sources.clone(),
                    FastConfig {
                        max_epoch: w.max_epoch,
                    },
                    self.faults,
                    0,
                );
                stream_loop(w, &arrivals, &mut session, adversary, rng, deadline)
            }
            Engine::Exact => {
                let mut session = ExactBroadcastSession::new(
                    w.params,
                    w.n,
                    w.sources.clone(),
                    ExactConfig {
                        max_slots: w.exact_max_slots,
                    },
                    self.faults,
                    0,
                );
                stream_loop(w, &arrivals, &mut session, adversary, rng, deadline)
            }
            Engine::CohortFast => {
                let mut session = CohortSession::new(
                    w.params,
                    w.n,
                    w.sources.clone(),
                    CohortConfig {
                        max_epoch: w.max_epoch,
                        ..CohortConfig::default()
                    },
                    self.faults,
                    0,
                );
                stream_loop(w, &arrivals, &mut session, adversary, rng, deadline)
            }
        }
    }

    /// Exact-engine duel: drives the slot-level protocol pair and converts
    /// the ledger into a [`DuelOutcome`]. Slot-granular bookkeeping the
    /// exact engine does not track is left at its zero value and documented
    /// on [`Outcome`].
    fn exact_duel<P: DuelProfile + Copy>(
        &self,
        profile: P,
        w: &DuelWorkload,
        adversary: Box<dyn RepetitionAdversary>,
        rng: &mut RcbRng,
        deadline: &Deadline,
    ) -> (Outcome, Option<SimError>) {
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
            &self.faults,
            deadline,
        );
        let delivered = bob.received_message();
        (
            Outcome::Duel(DuelOutcome {
                delivered,
                bob_premature: !delivered && out.completed,
                alice_cost: out.ledger.node_cost(0),
                bob_cost: out.ledger.node_cost(1),
                adversary_cost: out.ledger.adversary_cost(),
                slots: out.slots,
                delivery_slot: None, // not tracked at ledger granularity
                last_epoch: 0,       // not tracked by the exact engine
                truncated: !out.completed,
            }),
            err,
        )
    }

    /// Exact-engine broadcast: one [`OneToNSlotNode`] per node, informed
    /// iff listed in `sources`.
    fn exact_broadcast(
        &self,
        w: &BroadcastWorkload,
        adversary: Box<dyn RepetitionAdversary>,
        rng: &mut RcbRng,
        deadline: &Deadline,
    ) -> (Outcome, Option<SimError>) {
        let mut nodes: Vec<OneToNSlotNode> = (0..w.n)
            .map(|u| OneToNSlotNode::new(w.params, w.sources.contains(&u)))
            .collect();
        let mut refs: Vec<&mut dyn SlotProtocol> = Vec::new();
        for node in nodes.iter_mut() {
            refs.push(node);
        }
        let schedule = OneToNSchedule::new(w.params);
        let partition = Partition::uniform(w.n);
        let mut adv = RepAsSlotAdversary::broadcast(adversary, w.n);
        let (out, err) = run_exact(
            &mut refs,
            &mut adv,
            &schedule,
            &partition,
            rng,
            ExactConfig {
                max_slots: w.exact_max_slots,
            },
            None,
            &self.faults,
            deadline,
        );
        let informed = nodes.iter().filter(|v| v.received_message()).count();
        (
            Outcome::Broadcast(BroadcastOutcome {
                n: w.n,
                informed,
                all_informed: informed == w.n,
                all_terminated: out.completed,
                safety_terminations: 0, // not tracked at slot granularity
                node_costs: (0..w.n).map(|u| out.ledger.node_cost(u)).collect(),
                adversary_cost: out.ledger.adversary_cost(),
                slots: out.slots,
                last_epoch: 0, // not tracked by the exact engine
                truncated: !out.completed,
            }),
            err,
        )
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

    /// FNV-1a fold of one outcome, in the exact word order the perf grid
    /// has always recorded for this (workload, engine). Batch checksums
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

    // -- serialization ------------------------------------------------------

    /// Serializes everything that defines the scenario's *results* —
    /// workload, engine, adversary, faults, seed policy, trials.
    /// `parallelism` is deliberately excluded: the executor's seed folds
    /// make outcomes thread-count-invariant, so two runs of the same spec
    /// at different `--cpus` share a fingerprint and can resume each
    /// other's journals. `u64` fields are written as decimal strings
    /// (`Json::Num` is an `f64` and would round above 2^53).
    pub fn to_json(&self) -> Json {
        let workload = match &self.workload {
            Workload::Duel(w) => {
                let protocol = match w.protocol {
                    DuelProtocol::Fig1 {
                        epsilon,
                        start_epoch,
                    } => Json::obj(vec![
                        ("kind", Json::Str("fig1".into())),
                        ("epsilon", Json::Num(epsilon)),
                        ("start_epoch", Json::Num(f64::from(start_epoch))),
                    ]),
                    DuelProtocol::Ksy { start_epoch } => Json::obj(vec![
                        ("kind", Json::Str("ksy".into())),
                        ("start_epoch", Json::Num(f64::from(start_epoch))),
                    ]),
                };
                Json::obj(vec![
                    ("kind", Json::Str("duel".into())),
                    ("protocol", protocol),
                    ("max_slots", ju64(w.max_slots)),
                    ("exact_max_slots", ju64(w.exact_max_slots)),
                ])
            }
            Workload::Broadcast(w) => Json::obj(vec![
                ("kind", Json::Str("broadcast".into())),
                ("params", params_to_json(&w.params)),
                ("n", Json::Num(w.n as f64)),
                (
                    "sources",
                    Json::Arr(w.sources.iter().map(|&s| Json::Num(s as f64)).collect()),
                ),
                ("max_epoch", Json::Num(f64::from(w.max_epoch))),
                ("exact_max_slots", ju64(w.exact_max_slots)),
            ]),
            Workload::Stream(w) => {
                let arrival = match &w.arrival {
                    ArrivalSpec::Poisson { rate } => Json::obj(vec![
                        ("kind", Json::Str("poisson".into())),
                        ("rate", Json::Num(*rate)),
                    ]),
                    ArrivalSpec::Burst { period, size } => Json::obj(vec![
                        ("kind", Json::Str("burst".into())),
                        ("period", ju64(*period)),
                        ("size", ju64(*size)),
                    ]),
                    ArrivalSpec::Schedule { arrivals } => Json::obj(vec![
                        ("kind", Json::Str("schedule".into())),
                        (
                            "arrivals",
                            Json::Arr(arrivals.iter().map(|&a| ju64(a)).collect()),
                        ),
                    ]),
                };
                Json::obj(vec![
                    ("kind", Json::Str("stream".into())),
                    ("params", params_to_json(&w.params)),
                    ("n", Json::Num(w.n as f64)),
                    (
                        "sources",
                        Json::Arr(w.sources.iter().map(|&s| Json::Num(s as f64)).collect()),
                    ),
                    ("max_epoch", Json::Num(f64::from(w.max_epoch))),
                    ("exact_max_slots", ju64(w.exact_max_slots)),
                    ("arrival", arrival),
                    ("horizon", ju64(w.horizon)),
                    (
                        "alloc",
                        Json::Str(
                            match w.alloc {
                                StreamAlloc::Persistent => "persistent",
                                StreamAlloc::PerMessage => "per-message",
                            }
                            .into(),
                        ),
                    ),
                ])
            }
        };
        let engine = Json::Str(
            match self.engine {
                Engine::Fast => "fast",
                Engine::Exact => "exact",
                Engine::CohortFast => "cohort",
            }
            .into(),
        );
        let adversary = match self.adversary {
            AdversarySpec::NoJam => Json::obj(vec![("kind", Json::Str("nojam".into()))]),
            AdversarySpec::Budgeted { budget, fraction } => Json::obj(vec![
                ("kind", Json::Str("budgeted".into())),
                ("budget", ju64(budget)),
                ("fraction", Json::Num(fraction)),
            ]),
            AdversarySpec::KeepAlive { budget, fraction } => Json::obj(vec![
                ("kind", Json::Str("keepalive".into())),
                ("budget", ju64(budget)),
                ("fraction", Json::Num(fraction)),
            ]),
            AdversarySpec::Random { budget, rate } => Json::obj(vec![
                ("kind", Json::Str("random".into())),
                ("budget", ju64(budget)),
                ("rate", Json::Num(rate)),
            ]),
        };
        Json::obj(vec![
            ("workload", workload),
            ("engine", engine),
            ("adversary", adversary),
            ("faults", faults_to_json(&self.faults)),
            ("seed", ju64(self.seeds.master)),
            ("trials", ju64(self.trials)),
        ])
    }

    /// Inverse of [`to_json`](Self::to_json). The deserialized spec runs
    /// at [`Parallelism::Auto`] (parallelism is not serialized).
    pub fn from_json(value: &Json) -> Result<ScenarioSpec, String> {
        let workload = value.get("workload").ok_or("spec missing `workload`")?;
        let workload = match workload.get("kind").and_then(Json::as_str) {
            Some("duel") => {
                let protocol = workload.get("protocol").ok_or("duel missing `protocol`")?;
                let start_epoch = pu32(protocol, "start_epoch")?;
                let protocol = match protocol.get("kind").and_then(Json::as_str) {
                    Some("fig1") => DuelProtocol::Fig1 {
                        epsilon: pf64(protocol, "epsilon")?,
                        start_epoch,
                    },
                    Some("ksy") => DuelProtocol::Ksy { start_epoch },
                    other => return Err(format!("unknown duel protocol kind {other:?}")),
                };
                Workload::Duel(DuelWorkload {
                    protocol,
                    max_slots: pu64(workload, "max_slots")?,
                    exact_max_slots: pu64(workload, "exact_max_slots")?,
                })
            }
            Some("broadcast") => {
                let sources = workload
                    .get("sources")
                    .and_then(Json::as_arr)
                    .ok_or("broadcast missing `sources`")?
                    .iter()
                    .map(|s| {
                        s.as_u64()
                            .map(|v| v as usize)
                            .ok_or_else(|| "bad source index".to_string())
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Workload::Broadcast(BroadcastWorkload {
                    params: params_from_json(
                        workload.get("params").ok_or("broadcast missing `params`")?,
                    )?,
                    n: pu32(workload, "n")? as usize,
                    sources,
                    max_epoch: pu32(workload, "max_epoch")?,
                    exact_max_slots: pu64(workload, "exact_max_slots")?,
                })
            }
            Some("stream") => {
                let sources = workload
                    .get("sources")
                    .and_then(Json::as_arr)
                    .ok_or("stream missing `sources`")?
                    .iter()
                    .map(|s| {
                        s.as_u64()
                            .map(|v| v as usize)
                            .ok_or_else(|| "bad source index".to_string())
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let arrival = workload.get("arrival").ok_or("stream missing `arrival`")?;
                let arrival = match arrival.get("kind").and_then(Json::as_str) {
                    Some("poisson") => ArrivalSpec::Poisson {
                        rate: pf64(arrival, "rate")?,
                    },
                    Some("burst") => ArrivalSpec::Burst {
                        period: pu64(arrival, "period")?,
                        size: pu64(arrival, "size")?,
                    },
                    Some("schedule") => ArrivalSpec::Schedule {
                        arrivals: arrival
                            .get("arrivals")
                            .and_then(Json::as_arr)
                            .ok_or("schedule missing `arrivals`")?
                            .iter()
                            .map(|a| {
                                a.as_str()
                                    .ok_or_else(|| "bad arrival slot".to_string())?
                                    .parse::<u64>()
                                    .map_err(|e| format!("bad arrival slot: {e}"))
                            })
                            .collect::<Result<Vec<_>, _>>()?,
                    },
                    other => return Err(format!("unknown arrival kind {other:?}")),
                };
                let alloc = match workload.get("alloc").and_then(Json::as_str) {
                    Some("persistent") => StreamAlloc::Persistent,
                    Some("per-message") => StreamAlloc::PerMessage,
                    other => return Err(format!("unknown stream alloc {other:?}")),
                };
                Workload::Stream(StreamWorkload {
                    params: params_from_json(
                        workload.get("params").ok_or("stream missing `params`")?,
                    )?,
                    n: pu32(workload, "n")? as usize,
                    sources,
                    max_epoch: pu32(workload, "max_epoch")?,
                    exact_max_slots: pu64(workload, "exact_max_slots")?,
                    arrival,
                    horizon: pu64(workload, "horizon")?,
                    alloc,
                })
            }
            other => return Err(format!("unknown workload kind {other:?}")),
        };
        let engine = match value.get("engine").and_then(Json::as_str) {
            Some("fast") => Engine::Fast,
            Some("exact") => Engine::Exact,
            Some("cohort") => Engine::CohortFast,
            other => return Err(format!("unknown engine {other:?}")),
        };
        let adversary = value.get("adversary").ok_or("spec missing `adversary`")?;
        let adversary = match adversary.get("kind").and_then(Json::as_str) {
            Some("nojam") => AdversarySpec::NoJam,
            Some("budgeted") => AdversarySpec::Budgeted {
                budget: pu64(adversary, "budget")?,
                fraction: pf64(adversary, "fraction")?,
            },
            Some("keepalive") => AdversarySpec::KeepAlive {
                budget: pu64(adversary, "budget")?,
                fraction: pf64(adversary, "fraction")?,
            },
            Some("random") => AdversarySpec::Random {
                budget: pu64(adversary, "budget")?,
                rate: pf64(adversary, "rate")?,
            },
            other => return Err(format!("unknown adversary kind {other:?}")),
        };
        let spec = ScenarioSpec {
            workload,
            engine,
            adversary,
            faults: faults_from_json(value.get("faults").ok_or("spec missing `faults`")?)?,
            seeds: SeedPolicy::new(pu64(value, "seed")?),
            trials: pu64(value, "trials")?,
            parallelism: Parallelism::Auto,
        };
        spec.validate().map_err(|e| format!("invalid spec: {e}"))?;
        Ok(spec)
    }

    /// FNV-1a over the canonical (compact) rendering of
    /// [`to_json`](Self::to_json) — the identity a journal header records.
    /// Two specs share a fingerprint iff they produce the same results.
    pub fn fingerprint(&self) -> u64 {
        fnv1a_bytes(FNV_OFFSET, self.to_json().render_compact().as_bytes())
    }
}

/// The FIFO single-server drain at the heart of a stream trial, generic
/// over the engine's session type. Message `k` starts service at
/// `max(clock, arrival_k)`; its latency is queue wait + service time.
///
/// Per-message engine caps (epoch/slot budgets) are *data*, not failures:
/// they count into `truncated_msgs`, the message still advances the
/// clock, and the stream continues. Only a wall-clock deadline aborts the
/// stream, marking the outcome `truncated` (such outcomes are
/// machine-dependent and must never be journaled).
fn stream_loop<S: Session<Outcome = BroadcastOutcome>>(
    w: &StreamWorkload,
    arrivals: &[u64],
    session: &mut S,
    adversary: &mut dyn RepetitionAdversary,
    rng: &mut RcbRng,
    deadline: &Deadline,
) -> (StreamOutcome, Option<SimError>) {
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

// JSON field helpers shared by the spec and outcome (de)serializers. All
// `u64` quantities travel as decimal strings — `Json::Num` is an `f64`,
// which silently rounds past 2^53 (seeds and slot counts routinely exceed
// that).
fn ju64(x: u64) -> Json {
    Json::Str(x.to_string())
}

fn pu64(value: &Json, key: &str) -> Result<u64, String> {
    value
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing u64 field `{key}`"))?
        .parse::<u64>()
        .map_err(|e| format!("field `{key}`: {e}"))
}

fn pf64(value: &Json, key: &str) -> Result<f64, String> {
    value
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing f64 field `{key}`"))
}

fn pu32(value: &Json, key: &str) -> Result<u32, String> {
    value
        .get(key)
        .and_then(Json::as_u64)
        .and_then(|v| u32::try_from(v).ok())
        .ok_or_else(|| format!("missing u32 field `{key}`"))
}

fn pbool(value: &Json, key: &str) -> Result<bool, String> {
    value
        .get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| format!("missing bool field `{key}`"))
}

fn params_to_json(p: &OneToNParams) -> Json {
    Json::obj(vec![
        ("b", Json::Num(p.b)),
        ("rep_pow", Json::Num(f64::from(p.rep_pow))),
        ("d", Json::Num(p.d)),
        ("listen_pow", Json::Num(f64::from(p.listen_pow))),
        ("s_init", Json::Num(p.s_init)),
        ("helper_frac", Json::Num(p.helper_frac)),
        ("growth_extra_pow", Json::Num(f64::from(p.growth_extra_pow))),
        ("term_factor", Json::Num(p.term_factor)),
        ("safety_factor", Json::Num(p.safety_factor)),
        ("first_epoch", Json::Num(f64::from(p.first_epoch))),
    ])
}

fn params_from_json(value: &Json) -> Result<OneToNParams, String> {
    Ok(OneToNParams {
        b: pf64(value, "b")?,
        rep_pow: pu32(value, "rep_pow")?,
        d: pf64(value, "d")?,
        listen_pow: pu32(value, "listen_pow")?,
        s_init: pf64(value, "s_init")?,
        helper_frac: pf64(value, "helper_frac")?,
        growth_extra_pow: pu32(value, "growth_extra_pow")?,
        term_factor: pf64(value, "term_factor")?,
        safety_factor: pf64(value, "safety_factor")?,
        first_epoch: pu32(value, "first_epoch")?,
    })
}

fn faults_to_json(plan: &FaultPlan) -> Json {
    let loss = match &plan.loss {
        None => Json::Null,
        Some(l) => Json::obj(vec![("p", Json::Num(l.p))]),
    };
    let crash = match &plan.crash {
        None => Json::Null,
        Some(c) => Json::obj(vec![
            ("node", Json::Num(c.node as f64)),
            ("start_period", ju64(c.start_period)),
            ("periods", ju64(c.periods)),
            ("lose_state", Json::Bool(c.lose_state)),
        ]),
    };
    let skew = match &plan.skew {
        None => Json::Null,
        Some(s) => Json::obj(vec![
            ("node", Json::Num(s.node as f64)),
            ("slots", ju64(s.slots)),
        ]),
    };
    let battery = match &plan.battery {
        None => Json::Null,
        Some(b) => Json::obj(vec![("capacity", ju64(b.capacity))]),
    };
    Json::obj(vec![
        ("loss", loss),
        ("crash", crash),
        ("skew", skew),
        ("battery", battery),
    ])
}

fn faults_from_json(value: &Json) -> Result<FaultPlan, String> {
    let opt = |key: &str| -> Result<Option<&Json>, String> {
        match value.get(key) {
            None => Err(format!("faults missing `{key}`")),
            Some(Json::Null) => Ok(None),
            Some(v) => Ok(Some(v)),
        }
    };
    let loss = opt("loss")?
        .map(|l| Ok::<_, String>(crate::faults::LossFault { p: pf64(l, "p")? }))
        .transpose()?;
    let crash = opt("crash")?
        .map(|c| {
            Ok::<_, String>(crate::faults::CrashFault {
                node: pu32(c, "node")? as usize,
                start_period: pu64(c, "start_period")?,
                periods: pu64(c, "periods")?,
                lose_state: pbool(c, "lose_state")?,
            })
        })
        .transpose()?;
    let skew = opt("skew")?
        .map(|s| {
            Ok::<_, String>(crate::faults::SkewFault {
                node: pu32(s, "node")? as usize,
                slots: pu64(s, "slots")?,
            })
        })
        .transpose()?;
    let battery = opt("battery")?
        .map(|b| {
            Ok::<_, String>(crate::faults::BatteryFault {
                capacity: pu64(b, "capacity")?,
            })
        })
        .transpose()?;
    Ok(FaultPlan {
        loss,
        crash,
        skew,
        battery,
    })
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

    pub fn as_duel(&self) -> Option<&DuelOutcome> {
        match self {
            Outcome::Duel(o) => Some(o),
            _ => None,
        }
    }

    pub fn as_broadcast(&self) -> Option<&BroadcastOutcome> {
        match self {
            Outcome::Broadcast(o) => Some(o),
            _ => None,
        }
    }

    pub fn as_stream(&self) -> Option<&StreamOutcome> {
        match self {
            Outcome::Stream(o) => Some(o),
            _ => None,
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

    /// Serializes for journal record payloads; [`Outcome::from_json`]
    /// inverts losslessly (`u64` fields travel as decimal strings).
    pub fn to_json(&self) -> Json {
        match self {
            Outcome::Duel(o) => Json::obj(vec![
                ("kind", Json::Str("duel".into())),
                ("delivered", Json::Bool(o.delivered)),
                ("bob_premature", Json::Bool(o.bob_premature)),
                ("alice_cost", ju64(o.alice_cost)),
                ("bob_cost", ju64(o.bob_cost)),
                ("adversary_cost", ju64(o.adversary_cost)),
                ("slots", ju64(o.slots)),
                (
                    "delivery_slot",
                    match o.delivery_slot {
                        None => Json::Null,
                        Some(t) => ju64(t),
                    },
                ),
                ("last_epoch", Json::Num(f64::from(o.last_epoch))),
                ("truncated", Json::Bool(o.truncated)),
            ]),
            Outcome::Broadcast(o) => Json::obj(vec![
                ("kind", Json::Str("broadcast".into())),
                ("n", Json::Num(o.n as f64)),
                ("informed", Json::Num(o.informed as f64)),
                ("all_informed", Json::Bool(o.all_informed)),
                ("all_terminated", Json::Bool(o.all_terminated)),
                (
                    "safety_terminations",
                    Json::Num(o.safety_terminations as f64),
                ),
                (
                    "node_costs",
                    Json::Arr(o.node_costs.iter().map(|&c| ju64(c)).collect()),
                ),
                ("adversary_cost", ju64(o.adversary_cost)),
                ("slots", ju64(o.slots)),
                ("last_epoch", Json::Num(f64::from(o.last_epoch))),
                ("truncated", Json::Bool(o.truncated)),
            ]),
            Outcome::Stream(o) => Json::obj(vec![
                ("kind", Json::Str("stream".into())),
                ("n", Json::Num(o.n as f64)),
                ("arrivals", ju64(o.arrivals)),
                ("delivered", ju64(o.delivered)),
                ("truncated_msgs", ju64(o.truncated_msgs)),
                ("slots", ju64(o.slots)),
                ("adversary_cost", ju64(o.adversary_cost)),
                ("max_cost", ju64(o.max_cost)),
                ("queue_area", ju64(o.queue_area)),
                ("max_queue", ju64(o.max_queue)),
                ("latency_p50", ju64(o.latency_p50)),
                ("latency_p95", ju64(o.latency_p95)),
                ("latency_max", ju64(o.latency_max)),
                ("truncated", Json::Bool(o.truncated)),
            ]),
        }
    }

    /// Inverse of [`Outcome::to_json`].
    pub fn from_json(value: &Json) -> Result<Outcome, String> {
        match value.get("kind").and_then(Json::as_str) {
            Some("duel") => Ok(Outcome::Duel(DuelOutcome {
                delivered: pbool(value, "delivered")?,
                bob_premature: pbool(value, "bob_premature")?,
                alice_cost: pu64(value, "alice_cost")?,
                bob_cost: pu64(value, "bob_cost")?,
                adversary_cost: pu64(value, "adversary_cost")?,
                slots: pu64(value, "slots")?,
                delivery_slot: match value.get("delivery_slot") {
                    Some(Json::Null) => None,
                    Some(_) => Some(pu64(value, "delivery_slot")?),
                    None => return Err("duel outcome missing `delivery_slot`".into()),
                },
                last_epoch: pu32(value, "last_epoch")?,
                truncated: pbool(value, "truncated")?,
            })),
            Some("broadcast") => Ok(Outcome::Broadcast(BroadcastOutcome {
                n: pu32(value, "n")? as usize,
                informed: pu32(value, "informed")? as usize,
                all_informed: pbool(value, "all_informed")?,
                all_terminated: pbool(value, "all_terminated")?,
                safety_terminations: pu32(value, "safety_terminations")? as usize,
                node_costs: value
                    .get("node_costs")
                    .and_then(Json::as_arr)
                    .ok_or("broadcast outcome missing `node_costs`")?
                    .iter()
                    .map(|c| {
                        c.as_str()
                            .ok_or_else(|| "bad node cost".to_string())?
                            .parse::<u64>()
                            .map_err(|e| format!("bad node cost: {e}"))
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                adversary_cost: pu64(value, "adversary_cost")?,
                slots: pu64(value, "slots")?,
                last_epoch: pu32(value, "last_epoch")?,
                truncated: pbool(value, "truncated")?,
            })),
            Some("stream") => Ok(Outcome::Stream(StreamOutcome {
                n: pu32(value, "n")? as usize,
                arrivals: pu64(value, "arrivals")?,
                delivered: pu64(value, "delivered")?,
                truncated_msgs: pu64(value, "truncated_msgs")?,
                slots: pu64(value, "slots")?,
                adversary_cost: pu64(value, "adversary_cost")?,
                max_cost: pu64(value, "max_cost")?,
                queue_area: pu64(value, "queue_area")?,
                max_queue: pu64(value, "max_queue")?,
                latency_p50: pu64(value, "latency_p50")?,
                latency_p95: pu64(value, "latency_p95")?,
                latency_max: pu64(value, "latency_max")?,
                truncated: pbool(value, "truncated")?,
            })),
            other => Err(format!("unknown outcome kind {other:?}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// A named, pinned scenario — the unit the perf grid measures and the
/// `rcbsim scenario` subcommand runs. Names, parameters, and order are
/// part of the recorded baselines' meaning: the perf comparator matches by
/// name, so renaming an entry orphans its history.
#[derive(Debug, Clone)]
pub struct NamedScenario {
    pub name: &'static str,
    /// One-line human description for `rcbsim scenario list`.
    pub summary: &'static str,
    pub spec: ScenarioSpec,
}

/// The pinned scenario registry. The specs carry their perf-grid trial
/// counts; `rcbsim scenario run` and the perf harness both read them.
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
            // high: a perf repeat must run for ≥ ~100 ms or scheduler
            // jitter (not engine speed) dominates the measurement.
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
        // The large-n cohort entries sit last deliberately: their heap
        // high-water marks (tens of MiB at n = 10^6) would otherwise leak
        // into the following entries' per-scenario RSS attribution on a
        // serial perf pass.
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
    fn fast_duel_spec_matches_legacy_entry_point() {
        let spec = ScenarioSpec::duel(DuelProtocol::fig1(0.1, 8)).with_adversary(
            AdversarySpec::Budgeted {
                budget: 4096,
                fraction: 1.0,
            },
        );
        for seed in 0..5 {
            let mut rng_a = RcbRng::new(seed);
            let via_spec = run_ok(&spec, &mut rng_a).into_duel();
            let mut rng_b = RcbRng::new(seed);
            let mut adv = BudgetedRepBlocker::new(4096, 1.0);
            let (direct, _) = run_duel(
                &Fig1Profile::with_start_epoch(0.1, 8),
                &mut adv,
                &mut rng_b,
                DuelConfig::default(),
                &FaultPlan::none(),
                &Deadline::NONE,
            );
            assert_eq!(via_spec, direct, "seed {seed}");
            assert_eq!(rng_a, rng_b, "seed {seed}: RNG streams diverged");
        }
    }

    #[test]
    fn fast_broadcast_spec_matches_legacy_entry_point() {
        let spec = ScenarioSpec::broadcast(12).with_adversary(AdversarySpec::Budgeted {
            budget: 50_000,
            fraction: 1.0,
        });
        for seed in 0..3 {
            let mut rng_a = RcbRng::new(seed);
            let via_spec = run_ok(&spec, &mut rng_a).into_broadcast();
            let mut rng_b = RcbRng::new(seed);
            let mut adv = BudgetedRepBlocker::new(50_000, 1.0);
            let (direct, _) = run_broadcast(
                &OneToNParams::practical(),
                12,
                &[0],
                &mut adv,
                &mut rng_b,
                FastConfig::default(),
                &mut (),
                &FaultPlan::none(),
                &Deadline::NONE,
            );
            assert_eq!(via_spec, direct, "seed {seed}");
            assert_eq!(rng_a, rng_b, "seed {seed}: RNG streams diverged");
        }
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
    fn empty_fault_plan_spec_is_byte_identical_to_clean_path() {
        let spec = ScenarioSpec::duel(DuelProtocol::fig1(0.1, 8))
            .with_adversary(AdversarySpec::Budgeted {
                budget: 2048,
                fraction: 1.0,
            })
            .with_faults(FaultPlan::none());
        for seed in 0..5 {
            let mut rng_a = RcbRng::new(seed);
            let spec_out = run_ok(&spec, &mut rng_a).into_duel();
            let mut rng_b = RcbRng::new(seed);
            let mut adv = BudgetedRepBlocker::new(2048, 1.0);
            let (clean, _) = run_duel(
                &Fig1Profile::with_start_epoch(0.1, 8),
                &mut adv,
                &mut rng_b,
                DuelConfig::default(),
                &FaultPlan::none(),
                &Deadline::NONE,
            );
            assert_eq!(spec_out, clean, "seed {seed}");
            assert_eq!(rng_a, rng_b, "seed {seed}: no extra randomness drawn");
        }
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
        assert!(ScenarioSpec::duel(DuelProtocol::ksy()).validate().is_ok());
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
    fn cohort_spec_matches_legacy_entry_point() {
        let spec = ScenarioSpec::broadcast(24)
            .with_engine(Engine::CohortFast)
            .with_adversary(AdversarySpec::Budgeted {
                budget: 50_000,
                fraction: 1.0,
            });
        for seed in 0..3 {
            let mut rng_a = RcbRng::new(seed);
            let via_spec = run_ok(&spec, &mut rng_a).into_broadcast();
            let mut rng_b = RcbRng::new(seed);
            let mut adv = BudgetedRepBlocker::new(50_000, 1.0);
            let (direct, _) = run_cohort(
                &OneToNParams::practical(),
                24,
                &[0],
                &mut adv,
                &mut rng_b,
                CohortConfig::default(),
                &FaultPlan::none(),
                &Deadline::NONE,
            );
            assert_eq!(via_spec, direct, "seed {seed}");
            assert_eq!(rng_a, rng_b, "seed {seed}: RNG streams diverged");
        }
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
    fn spec_json_round_trips_for_every_registry_scenario() {
        for named in registry() {
            let spec = named.spec.clone().with_parallelism(Parallelism::Auto);
            let json = spec.to_json();
            let back = ScenarioSpec::from_json(&json)
                .unwrap_or_else(|e| panic!("{}: {e}\n{}", named.name, json.render()));
            assert_eq!(back, spec, "{} drifted through JSON", named.name);
            assert_eq!(
                back.fingerprint(),
                spec.fingerprint(),
                "{}: fingerprint is not a pure function of the spec",
                named.name
            );
        }
    }

    #[test]
    fn spec_json_round_trips_the_exotic_branches() {
        // Ksy protocol, seeded Random adversary, every fault kind — the
        // branches the registry does not exercise.
        let spec = ScenarioSpec::duel(DuelProtocol::ksy())
            .with_engine(Engine::Exact)
            .with_adversary(AdversarySpec::Random {
                budget: 4096,
                rate: 0.25,
            })
            .with_faults(
                FaultPlan::none()
                    .with_loss(0.125)
                    .with_skew(1, 3)
                    .with_battery(1 << 40),
            )
            .with_trials(17)
            .with_seed(u64::MAX - 1);
        let back = ScenarioSpec::from_json(&spec.to_json()).expect("round trip");
        assert_eq!(back, spec.clone().with_parallelism(Parallelism::Auto));
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
             thread-count-invariant, so any --cpus run may share a journal"
        );
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

    #[test]
    fn outcome_json_round_trips() {
        let duel = Outcome::Duel(DuelOutcome {
            delivered: true,
            bob_premature: false,
            alice_cost: 10,
            bob_cost: 20,
            adversary_cost: u64::MAX,
            slots: 1 << 60,
            delivery_slot: Some(12345),
            last_epoch: 9,
            truncated: false,
        });
        assert_eq!(Outcome::from_json(&duel.to_json()).unwrap(), duel);

        let bcast = Outcome::Broadcast(BroadcastOutcome {
            n: 3,
            informed: 3,
            all_informed: true,
            all_terminated: false,
            safety_terminations: 1,
            node_costs: vec![5, 0, u64::MAX - 3],
            adversary_cost: 7,
            slots: 99,
            last_epoch: 4,
            truncated: true,
        });
        assert_eq!(Outcome::from_json(&bcast.to_json()).unwrap(), bcast);

        let no_delivery = Outcome::Duel(DuelOutcome {
            delivery_slot: None,
            ..match duel {
                Outcome::Duel(d) => d,
                _ => unreachable!(),
            }
        });
        assert_eq!(
            Outcome::from_json(&no_delivery.to_json()).unwrap(),
            no_delivery
        );
    }
}
