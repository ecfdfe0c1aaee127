//! The four workloads. Each is one *batch* of scenario specs that a run
//! repeats, unchanged, for as long as it measures: the work is then the
//! same on every repeat and on both sides of an A/B comparison, and every
//! repeat must reproduce the batch checksum bit for bit.
//!
//! Why these four (each stresses different layers, see README.md):
//!
//! * `duel_sweep` — the Theorem 1 cost-vs-T sweep: hundreds of thousands
//!   of microsecond trials, so per-trial front-door overhead (engine-state
//!   construction, `AdversarySpec::build`) and `sample_slots_into` dominate.
//!   No per-node or cohort code runs.
//! * `bcast_pernode` — Figure 2 on the per-node fast engine: an
//!   O(n)-per-repetition loop of per-node sampling and
//!   `OneToNNode::end_repetition`.
//! * `bcast_cohort` — Figure 2 on the cohort engine in aggregate mode:
//!   O(active cohorts) per repetition, dominated by `binomial_fast`,
//!   `multinomial_into`, `binomial_tail_gt` and cohort split/merge.
//! * `sweep_x2` — an E16-shaped stream sweep on the executor's worker pool:
//!   every message re-arms a session, the cohort engine runs in all-tracked
//!   mode, and it is the only workload whose end-to-end numbers include the
//!   executor.
//!
//! Loads are closed-loop: trials run back to back; stream arrivals exist
//! only in simulated time.

use rcb_mathkit::rng::{RcbRng, SeedSequence};
use rcb_sim::scenario::{
    AdversarySpec, ArrivalSpec, DuelProtocol, Engine, ScenarioSpec, StreamAlloc,
};

/// The seed whose batch checksums are pinned below.
pub const PINNED_SEED: u64 = 2014;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DuelSweep,
    BcastPernode,
    BcastCohort,
    SweepX2,
}

pub const ALL: [Workload; 4] = [
    Workload::DuelSweep,
    Workload::BcastPernode,
    Workload::BcastCohort,
    Workload::SweepX2,
];

/// Stream horizon in slots, and the arrivals a Poisson process at rate
/// λ = 2·10⁻⁵ per slot brings over it on average.
const HORIZON: u64 = 300_000;
const ARRIVALS: usize = 6;
/// Separates the arrival schedules' streams from the trials' streams.
const ARRIVAL_SALT: u64 = 0xA221_7A15;

/// A Poisson arrival schedule conditioned on [`ARRIVALS`] arrivals in the
/// horizon: that many uniform slots, sorted. Fixing the count keeps the
/// sweep's work the same from seed to seed; with free Poisson counts a
/// batch's message total, and with it the throughput, moved by tens of
/// percent between seeds.
fn poisson_schedule(rng: &mut RcbRng) -> Vec<u64> {
    let mut arrivals: Vec<u64> = (0..ARRIVALS).map(|_| rng.below(HORIZON)).collect();
    arrivals.sort_unstable();
    arrivals
}

/// The full-phase blocker every jammed workload uses.
fn blocker(budget: u64) -> AdversarySpec {
    AdversarySpec::Budgeted {
        budget,
        fraction: 1.0,
    }
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::DuelSweep => "duel_sweep",
            Workload::BcastPernode => "bcast_pernode",
            Workload::BcastCohort => "bcast_cohort",
            Workload::SweepX2 => "sweep_x2",
        }
    }

    pub fn parse(name: &str) -> Result<Workload, String> {
        ALL.into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload `{name}`; valid: {}", names()))
    }

    /// Whether the batch runs on the executor's worker pool (otherwise it
    /// runs serially, one front-door trial at a time).
    pub fn pooled(self) -> bool {
        self == Workload::SweepX2
    }

    /// One batch at `seed`. Trial `i` of a spec runs on
    /// `SeedSequence::new(spec.seeds.master).rng(i)`.
    pub fn batch(self, seed: u64) -> Vec<ScenarioSpec> {
        match self {
            // Budgets 0, 2^10, 2^13, 2^16 with trials in the ratio
            // 10:10:5:1; each cell's master is the seed XOR its budget, as
            // in the experiments' budget sweeps.
            Workload::DuelSweep => [
                (0u64, 5_000u64),
                (1 << 10, 5_000),
                (1 << 13, 2_500),
                (1 << 16, 500),
            ]
            .into_iter()
            .map(|(budget, trials)| {
                ScenarioSpec::duel(DuelProtocol::fig1(0.1, 8))
                    .with_adversary(blocker(budget))
                    .with_seed(seed ^ budget)
                    .with_trials(trials)
            })
            .collect(),
            Workload::BcastPernode => vec![ScenarioSpec::broadcast(64)
                .with_adversary(blocker(200_000))
                .with_seed(seed)
                .with_trials(5)],
            Workload::BcastCohort => vec![ScenarioSpec::broadcast(4_096)
                .with_engine(Engine::CohortFast)
                .with_adversary(blocker(1_000_000))
                .with_seed(seed)
                .with_trials(1)],
            // Three jammer policies × two engines: no jamming, one
            // persistent T = 150k budget, and a budget refilled per message;
            // fast at n = 8 and cohort all-tracked at n = 64. The executor
            // hands out trials in chunks of 16, so a batch of 16 or fewer
            // would run on one worker; alternating the engines spreads the
            // slow cells over the chunks. Twelve trials per cell steady the
            // median trial time: over ten seeds it spread by 7–10% with six.
            Workload::SweepX2 => {
                let policies = [
                    (AdversarySpec::NoJam, StreamAlloc::Persistent),
                    (blocker(150_000), StreamAlloc::Persistent),
                    (blocker(150_000), StreamAlloc::PerMessage),
                ];
                let engines = [(Engine::Fast, 8usize), (Engine::CohortFast, 64)];
                policies
                    .into_iter()
                    .flat_map(|policy| engines.map(|engine| (engine, policy)))
                    .enumerate()
                    .map(|(cell, ((engine, n), (adversary, alloc)))| {
                        let arrivals = poisson_schedule(
                            &mut SeedSequence::new(seed ^ ARRIVAL_SALT).rng(cell as u64),
                        );
                        ScenarioSpec::stream(n, ArrivalSpec::Schedule { arrivals }, HORIZON)
                            .with_engine(engine)
                            .with_adversary(adversary)
                            .with_stream_alloc(alloc)
                            .with_seed(seed ^ cell as u64)
                            .with_trials(12)
                    })
                    .collect()
            }
        }
    }

    /// The batch checksum at [`PINNED_SEED`]. A run at that seed whose
    /// checksum differs has drifted: the simulator's behaviour changed.
    pub fn pinned_checksum(self) -> u64 {
        match self {
            Workload::DuelSweep => 0x8130_2608_f0ff_4b83,
            Workload::BcastPernode => 0x0654_e15c_cad3_a6b1,
            Workload::BcastCohort => 0x15fc_9df9_6d0d_b15e,
            Workload::SweepX2 => 0x3d53_e298_78e0_1126,
        }
    }
}

/// Comma-separated workload names, for error messages.
pub fn names() -> String {
    ALL.map(Workload::name).join(", ")
}
