//! Statistical differ: paired trial batches on the exact and fast engines.
//!
//! Each *cell* fixes a protocol configuration and an adversary policy; the
//! harness runs `trials` independent executions per engine (deterministic
//! per-trial RNG streams; the whole grid is one
//! [`run_specs_ctl`] call) and compares the
//! load-bearing
//! metrics with two nonparametric tests: Mann–Whitney U (location shifts)
//! and two-sample Kolmogorov–Smirnov (any distributional difference). Under
//! the null — both engines sample the same distribution — p-values are
//! uniform, so `p < alpha` with `alpha = 1e-3` is a 1-in-1000 fluke per
//! test and treated as an engine divergence.
//!
//! Each cell runs one attack on every engine: one [`AdversarySpec`] builds
//! the *same* repetition strategy for both, and the exact engine drives it
//! through [`RepAsSlotAdversary`](rcb_adversary::RepAsSlotAdversary), the
//! only way it runs a planned jammer.
//!
//! ## Reading the worst p-value
//!
//! A full default-grid run computes on the order of 150 p-values (16 cells
//! × 4–5 verdict metrics × 2 tests), so under the null the *minimum* of
//! them is routinely in the 0.01–0.05 range — that is what the order
//! statistic of ~100 uniforms looks like, not evidence of drift. The gate
//! only fires below `alpha = 1e-3` per test (grid-wide false-positive rate
//! ≈ 10%, driven to ~0 on a re-run at a different seed). A concrete worked
//! example: the `faults[skew=n1+1]` duel cell once showed `bob_cost`
//! MW-p = 0.0198 — suspicious-looking until checked against both engines'
//! skew semantics, which are byte-for-byte the same strict comparison
//! (`offset < skew_slots`, certified deterministically by
//! `skew_boundary_is_strict_in_both_engines`). Cells known to sit near the
//! verdict threshold can raise their own sample size via
//! [`Cell::trial_multiplier`] instead of loosening the gate for the whole
//! grid.

use rcb_core::one_to_n::OneToNParams;
use rcb_mathkit::gof::ks_two_sample;
use rcb_mathkit::hypothesis::mann_whitney_u;

use crate::executor::{run_specs_ctl, SpecsControl};
use crate::faults::FaultPlan;
use crate::runner::Parallelism;
use crate::scenario::{
    DuelProtocol, Engine, Outcome, ScenarioSpec, Workload, COHORT_STREAM_SALT, FAST_STREAM_SALT,
};

// `AdversarySpec` was born here and moved up to the scenario layer once
// every consumer (not just the differ) needed it; re-exported so existing
// `conformance::AdversarySpec` paths keep working.
pub use crate::scenario::AdversarySpec;

/// One grid cell: an engine-agnostic [`ScenarioSpec`] (a duel or a
/// broadcast workload) that [`run_grid`] stamps with each engine of the
/// pair in turn, plus the config's seed, trial count, and parallelism.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// The scenario both engines run. Its `engine`, `seeds`, `trials`, and
    /// `parallelism` fields are placeholders — the harness overwrites them.
    pub spec: ScenarioSpec,
    /// The engine pair under comparison, default `(Exact, Fast)` — the
    /// historical differ. [`Cell::versus`] swaps in any other pair;
    /// cohort cells compare against `Exact` where the slot-level engine is
    /// affordable (small n) and against `Fast` beyond that.
    pub engines: (Engine, Engine),
    /// Multiplies `ConformanceConfig::trials` for this cell only. Use > 1
    /// for cells whose p-values historically land near the verdict
    /// threshold: more samples sharpen the test where it matters without
    /// inflating the whole grid's runtime. `0` is treated as `1`.
    pub trial_multiplier: u64,
}

impl Cell {
    fn new(spec: ScenarioSpec) -> Self {
        Self {
            spec,
            engines: (Engine::Exact, Engine::Fast),
            trial_multiplier: 1,
        }
    }

    /// A clean Figure-1 cell: error tolerance ε, start epoch (kept small so
    /// the exact engine stays fast), adversary policy.
    pub fn duel(error_rate: f64, start_epoch: u32, adversary: AdversarySpec) -> Self {
        Self::new(
            ScenarioSpec::duel(DuelProtocol::fig1(error_rate, start_epoch))
                .with_adversary(adversary),
        )
    }

    /// A clean Figure-2 cell: `n` nodes on `OneToNParams::practical()`
    /// with the given `first_epoch`, node 0 the source.
    pub fn broadcast(n: usize, first_epoch: u32, adversary: AdversarySpec) -> Self {
        let mut params = OneToNParams::practical();
        params.first_epoch = first_epoch;
        Self::new(ScenarioSpec::broadcast_with(params, n).with_adversary(adversary))
    }

    /// Adds a non-adversarial fault plan, applied to both engines. Fault
    /// cells are how the differ certifies that the two fault
    /// implementations agree in distribution, not just the clean paths.
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.spec = self.spec.with_faults(fault);
        self
    }

    pub fn with_trial_multiplier(mut self, trial_multiplier: u64) -> Self {
        self.trial_multiplier = trial_multiplier;
        self
    }

    /// Compares `reference` against `candidate` instead of the default
    /// `(Exact, Fast)` pair. The report's `exact_*` columns hold the
    /// reference engine, `fast_*` the candidate.
    pub fn versus(mut self, reference: Engine, candidate: Engine) -> Self {
        self.engines = (reference, candidate);
        self
    }

    fn name(&self) -> String {
        let tag = fault_tag(&self.spec.faults);
        let adversary = &self.spec.adversary;
        let pair = if self.engines == (Engine::Exact, Engine::Fast) {
            String::new()
        } else {
            format!(
                " [{} vs {}]",
                engine_tag(self.engines.0),
                engine_tag(self.engines.1)
            )
        };
        match &self.spec.workload {
            Workload::Duel(w) => match w.protocol {
                DuelProtocol::Fig1 {
                    epsilon,
                    start_epoch,
                } => format!("duel ε={epsilon} i₀={start_epoch} {adversary}{tag}{pair}"),
                DuelProtocol::Ksy { start_epoch } => {
                    format!("duel ksy i₀={start_epoch} {adversary}{tag}{pair}")
                }
            },
            Workload::Broadcast(w) => format!(
                "broadcast n={} i₀={} {adversary}{tag}{pair}",
                w.n, w.params.first_epoch
            ),
            Workload::Stream(_) => unreachable!("a cell holds a duel or broadcast workload"),
        }
    }
}

/// Short engine tag for cell names.
fn engine_tag(engine: Engine) -> &'static str {
    match engine {
        Engine::Exact => "exact",
        Engine::Fast => "fast",
        Engine::CohortFast => "cohort",
    }
}

/// Stamps a cell's engine-agnostic spec with one engine plus the harness
/// parameters (seed stream, sample size, parallelism).
fn stamp(cell: &Cell, engine: Engine, cfg: &ConformanceConfig) -> ScenarioSpec {
    let seed = match engine {
        Engine::Exact => cfg.seed,
        Engine::Fast => cfg.fast_seed(),
        Engine::CohortFast => cfg.cohort_seed(),
    };
    cell.spec
        .clone()
        .with_engine(engine)
        .with_seed(seed)
        .with_trials(cfg.trials.saturating_mul(cell.trial_multiplier.max(1)))
        .with_parallelism(cfg.parallelism)
}

/// Harness parameters.
#[derive(Debug, Clone, Copy)]
pub struct ConformanceConfig {
    /// Trials per engine per cell.
    pub trials: u64,
    /// Master seed; the fast engine's batch uses a derived stream.
    pub seed: u64,
    /// Per-test significance level for the divergence verdict.
    pub alpha: f64,
    pub parallelism: Parallelism,
}

impl Default for ConformanceConfig {
    fn default() -> Self {
        Self {
            trials: 200,
            seed: 2014,
            alpha: 1e-3,
            parallelism: Parallelism::Auto,
        }
    }
}

impl ConformanceConfig {
    /// The fast engine must not share trial seeds with the exact engine:
    /// the engines consume different amounts of randomness per trial, and
    /// partially-shared streams would correlate the two samples.
    pub fn fast_seed(&self) -> u64 {
        self.seed ^ FAST_STREAM_SALT
    }

    /// The cohort engine's seed stream, disjoint from both the exact and
    /// fast streams for the same reason as [`ConformanceConfig::fast_seed`].
    pub fn cohort_seed(&self) -> u64 {
        self.seed ^ COHORT_STREAM_SALT
    }
}

/// Two-engine comparison of one metric.
#[derive(Debug, Clone)]
pub struct MetricVerdict {
    pub metric: &'static str,
    pub exact_mean: f64,
    pub fast_mean: f64,
    /// Mann–Whitney two-sided p.
    pub mw_p: f64,
    /// Rank-biserial effect size in `[-1, 1]`.
    pub effect_size: f64,
    /// KS statistic `D` and its p-value.
    pub ks_d: f64,
    pub ks_p: f64,
    /// Advisory metrics are reported but excluded from the divergence
    /// verdict (e.g. `slots`: the fast engines round runs up to phase
    /// boundaries by construction, so small shifts are expected).
    pub advisory: bool,
}

impl MetricVerdict {
    fn compare(metric: &'static str, exact: &[f64], fast: &[f64], advisory: bool) -> Self {
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let degenerate = {
            // Both samples one identical constant: every test statistic is
            // 0/0; that is perfect agreement, not a divergence.
            let first = exact[0];
            exact.iter().chain(fast).all(|&x| x == first)
        };
        let (mw_p, effect_size, ks_d, ks_p) = if degenerate {
            (1.0, 0.0, 0.0, 1.0)
        } else {
            let mw = mann_whitney_u(exact, fast);
            let ks = ks_two_sample(exact, fast);
            (mw.p_two_sided, mw.effect_size, ks.d, ks.p)
        };
        Self {
            metric,
            exact_mean: mean(exact),
            fast_mean: mean(fast),
            mw_p,
            effect_size,
            ks_d,
            ks_p,
            advisory,
        }
    }

    /// The smaller of the two test p-values.
    pub fn worst_p(&self) -> f64 {
        self.mw_p.min(self.ks_p)
    }

    pub fn diverges(&self, alpha: f64) -> bool {
        !self.advisory && self.worst_p() < alpha
    }
}

/// All metric verdicts for one grid cell.
#[derive(Debug, Clone)]
pub struct CellReport {
    pub name: String,
    pub trials: u64,
    pub metrics: Vec<MetricVerdict>,
}

impl CellReport {
    pub fn diverges(&self, alpha: f64) -> bool {
        self.metrics.iter().any(|m| m.diverges(alpha))
    }

    /// Smallest verdict-relevant p in the cell (1.0 if all advisory).
    pub fn worst_p(&self) -> f64 {
        self.metrics
            .iter()
            .filter(|m| !m.advisory)
            .map(MetricVerdict::worst_p)
            .fold(1.0, f64::min)
    }
}

/// The full grid's verdicts.
#[derive(Debug, Clone)]
pub struct GridReport {
    pub alpha: f64,
    pub cells: Vec<CellReport>,
}

impl GridReport {
    pub fn passed(&self) -> bool {
        self.cells.iter().all(|c| !c.diverges(self.alpha))
    }

    pub fn worst_p(&self) -> f64 {
        self.cells
            .iter()
            .map(CellReport::worst_p)
            .fold(1.0, f64::min)
    }

    /// Human-readable table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for cell in &self.cells {
            out.push_str(&format!(
                "cell: {} ({} trials/engine)\n",
                cell.name, cell.trials
            ));
            out.push_str(
                "  metric            exact-mean   fast-mean      MW-p     KS-D      KS-p\n",
            );
            for m in &cell.metrics {
                let flag = if m.diverges(self.alpha) {
                    "  << DIVERGES"
                } else if m.advisory {
                    "  (advisory)"
                } else {
                    ""
                };
                out.push_str(&format!(
                    "  {:<16} {:>11.3} {:>11.3} {:>9.4} {:>8.4} {:>9.4}{}\n",
                    m.metric, m.exact_mean, m.fast_mean, m.mw_p, m.ks_d, m.ks_p, flag
                ));
            }
        }
        out.push_str(&format!(
            "grid {}: worst p = {:.4} (alpha = {})\n",
            if self.passed() { "PASSED" } else { "FAILED" },
            self.worst_p(),
            self.alpha
        ));
        out
    }
}

/// The metrics a cell compares, read off one outcome by its kind:
/// `(name, value, advisory)`.
fn metrics_of(outcome: &Outcome) -> Vec<(&'static str, f64, bool)> {
    match outcome {
        Outcome::Duel(o) => vec![
            ("alice_cost", o.alice_cost as f64, false),
            ("bob_cost", o.bob_cost as f64, false),
            ("max_cost", o.max_cost() as f64, false),
            ("delivered", o.delivered as u64 as f64, false),
            ("slots", o.slots as f64, true),
        ],
        Outcome::Broadcast(o) => vec![
            ("mean_cost", o.mean_cost(), false),
            ("max_cost", o.max_cost() as f64, false),
            ("informed", o.informed as f64 / o.n as f64, false),
            ("slots", o.slots as f64, true),
        ],
        Outcome::Stream(_) => unreachable!("a cell holds a duel or broadcast workload"),
    }
}

/// Compares one cell's two trial batches metric by metric. Truncated
/// trials are sampled too — hitting a cap is data about the engine, not a
/// failure of the comparison.
fn cell_report(cell: &Cell, reference: &[Outcome], candidate: &[Outcome]) -> CellReport {
    let rows = |batch: &[Outcome]| batch.iter().map(metrics_of).collect::<Vec<_>>();
    let (reference, candidate) = (rows(reference), rows(candidate));
    let column = |rows: &[Vec<(&str, f64, bool)>], k: usize| {
        rows.iter().map(|row| row[k].1).collect::<Vec<f64>>()
    };
    let metrics = reference[0]
        .iter()
        .enumerate()
        .map(|(k, &(metric, _, advisory))| {
            MetricVerdict::compare(
                metric,
                &column(&reference, k),
                &column(&candidate, k),
                advisory,
            )
        })
        .collect();
    CellReport {
        name: cell.name(),
        trials: reference.len() as u64,
        metrics,
    }
}

/// ` faults[…]` suffix for cell names; empty for the clean plan.
fn fault_tag(fault: &FaultPlan) -> String {
    if fault.is_none() {
        String::new()
    } else {
        format!(" faults[{fault}]")
    }
}

/// The default (profile × adversary × budget × fault × engine-pair) grid:
/// unjammed
/// baselines, blanket blockers at two budgets, a partial-fraction blocker,
/// a keep-alive schedule, and fault-injection cells (loss under jamming,
/// battery brownout, clock skew, crash–restart) for both protocol
/// families. Duel cells come first, then broadcast cells.
pub fn default_grid() -> Vec<Cell> {
    let duel = |adversary| Cell::duel(0.05, 6, adversary);
    let broadcast = |adversary| Cell::broadcast(5, 4, adversary);
    vec![
        duel(AdversarySpec::NoJam),
        duel(AdversarySpec::Budgeted {
            budget: 512,
            fraction: 1.0,
        }),
        duel(AdversarySpec::Budgeted {
            budget: 2048,
            fraction: 1.0,
        }),
        duel(AdversarySpec::Budgeted {
            budget: 1024,
            fraction: 0.5,
        }),
        duel(AdversarySpec::KeepAlive {
            budget: 1024,
            fraction: 1.0,
        }),
        duel(AdversarySpec::Budgeted {
            budget: 512,
            fraction: 1.0,
        })
        .with_fault(FaultPlan::none().with_loss(0.15)),
        duel(AdversarySpec::NoJam).with_fault(FaultPlan::none().with_battery(64)),
        duel(AdversarySpec::NoJam)
            .with_fault(FaultPlan::none().with_skew(1, 1))
            // This cell's bob_cost MW-p once landed at 0.0198 — within the
            // expected min-of-~100-uniforms range (see module docs), and
            // the boundary semantics are certified identical by a
            // deterministic test. The larger sample keeps its p-values
            // comfortably away from the verdict threshold anyway.
            .with_trial_multiplier(4),
        broadcast(AdversarySpec::NoJam),
        broadcast(AdversarySpec::Budgeted {
            budget: 256,
            fraction: 1.0,
        }),
        broadcast(AdversarySpec::NoJam).with_fault(FaultPlan::none().with_loss(0.15)),
        broadcast(AdversarySpec::NoJam).with_fault(FaultPlan::none().with_crash(1, 2, 6, true)),
        // Cohort-engine cells. At n = 8 the slot-level exact engine is
        // still cheap, so the cohort engine faces the ground truth
        // directly; at n ∈ {64, 256} it is differed against the fast
        // engine, which the cells above have already certified.
        Cell::broadcast(8, 4, AdversarySpec::NoJam).versus(Engine::Exact, Engine::CohortFast),
        Cell::broadcast(
            64,
            4,
            AdversarySpec::Budgeted {
                budget: 4096,
                fraction: 1.0,
            },
        )
        .versus(Engine::Fast, Engine::CohortFast),
        Cell::broadcast(256, 4, AdversarySpec::NoJam).versus(Engine::Fast, Engine::CohortFast),
        Cell::broadcast(64, 4, AdversarySpec::NoJam)
            .with_fault(FaultPlan::none().with_crash(1, 2, 6, true))
            .versus(Engine::Fast, Engine::CohortFast),
    ]
}

/// Runs a grid of cells and collects the verdicts, in cell order. Every
/// cell's two stamped specs go into one
/// [`run_specs_ctl`] call at
/// `cfg.parallelism`, so workers steal trials across cell boundaries; each
/// trial's stream is seed-derived, so the report is byte-identical at any
/// thread count. A trial that panics is a harness bug, not a verdict: it
/// panics naming the cell and trial.
pub fn run_grid(cells: &[Cell], cfg: &ConformanceConfig) -> GridReport {
    let specs: Vec<ScenarioSpec> = cells
        .iter()
        .flat_map(|cell| {
            [
                stamp(cell, cell.engines.0, cfg),
                stamp(cell, cell.engines.1, cfg),
            ]
        })
        .collect();
    let run = run_specs_ctl(&specs, cfg.parallelism, &SpecsControl::DEFAULT);
    if let Some(q) = run.quarantined.first() {
        panic!(
            "conformance cell `{}`: trial {} panicked: {}",
            cells[q.spec / 2].name(),
            q.trial,
            q.failure
        );
    }
    let outcomes: Vec<Vec<Outcome>> = run
        .results
        .into_iter()
        .map(|batch| {
            batch
                .into_iter()
                .map(|slot| slot.expect("an unbounded run completes every trial").0)
                .collect()
        })
        .collect();
    let cells = cells
        .iter()
        .zip(outcomes.chunks(2))
        .map(|(cell, pair)| cell_report(cell, &pair[0], &pair[1]))
        .collect();
    GridReport {
        alpha: cfg.alpha,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcb_adversary::rep_strategies::NoJamRep;
    use rcb_adversary::RepAsSlotAdversary;
    use rcb_channel::partition::Partition;
    use rcb_core::one_to_one::profile::Fig1Profile;
    use rcb_core::one_to_one::schedule::DuelSchedule;
    use rcb_core::one_to_one::slot::{AliceProtocol, BobProtocol};
    use rcb_core::protocol::SlotProtocol;

    use crate::deadline::Deadline;
    use crate::duel::{DuelConfig, DuelSession};
    use crate::exact::{run_exact, ExactConfig};
    use crate::runner::run_trials;
    use crate::session::Session;
    use rcb_mathkit::rng::SeedSequence;

    fn run_cell(cell: &Cell, cfg: &ConformanceConfig) -> CellReport {
        run_grid(std::slice::from_ref(cell), cfg).cells.remove(0)
    }

    fn small_cfg() -> ConformanceConfig {
        ConformanceConfig {
            trials: 40,
            seed: 7,
            alpha: 1e-3,
            parallelism: Parallelism::Fixed(1),
        }
    }

    #[test]
    fn unjammed_duel_cell_agrees() {
        let cell = Cell::duel(0.05, 6, AdversarySpec::NoJam);
        let report = run_cell(&cell, &small_cfg());
        assert!(
            !report.diverges(1e-3),
            "engines diverge on an unjammed cell:\n{:#?}",
            report
        );
    }

    #[test]
    fn jammed_duel_cell_agrees() {
        let cell = Cell::duel(
            0.05,
            6,
            AdversarySpec::Budgeted {
                budget: 512,
                fraction: 1.0,
            },
        );
        let report = run_cell(&cell, &small_cfg());
        assert!(
            !report.diverges(1e-3),
            "engines diverge under jamming:\n{:#?}",
            report
        );
    }

    #[test]
    fn lossy_duel_cell_agrees() {
        // The fault implementations are engine-specific (receiver
        // condition vs. sampled-event coin); the differ must certify they
        // sample the same distribution.
        let cell = Cell::duel(
            0.05,
            6,
            AdversarySpec::Budgeted {
                budget: 512,
                fraction: 1.0,
            },
        )
        .with_fault(FaultPlan::none().with_loss(0.15));
        let report = run_cell(&cell, &small_cfg());
        assert!(report.name.contains("faults[loss=0.15]"), "{}", report.name);
        assert!(
            !report.diverges(1e-3),
            "engines diverge on a lossy cell:\n{:#?}",
            report
        );
    }

    #[test]
    fn crash_broadcast_cell_agrees() {
        let cell = Cell::broadcast(5, 4, AdversarySpec::NoJam)
            .with_fault(FaultPlan::none().with_crash(1, 2, 6, true));
        let cfg = ConformanceConfig {
            trials: 25,
            ..small_cfg()
        };
        let report = run_cell(&cell, &cfg);
        assert!(
            !report.diverges(1e-3),
            "engines diverge on a crash–restart cell:\n{:#?}",
            report
        );
    }

    #[test]
    fn fast_vs_exact_half_jammed_broadcast_cell_agrees() {
        // Half-suffix jamming leaves every jammed repetition's first half
        // open, so most listens resolve against the fast engine's channel
        // contents rather than the jam plan.
        let cell = Cell::broadcast(
            8,
            4,
            AdversarySpec::Budgeted {
                budget: 2048,
                fraction: 0.5,
            },
        );
        let cfg = ConformanceConfig {
            trials: 30,
            ..small_cfg()
        };
        let report = run_cell(&cell, &cfg);
        assert!(
            !report.diverges(1e-3),
            "fast engine diverges from exact under partial jamming:\n{:#?}",
            report
        );
    }

    #[test]
    fn cohort_vs_exact_broadcast_cell_agrees() {
        // The cohort engine against ground truth at a population small
        // enough for the slot-level engine.
        let cell =
            Cell::broadcast(8, 4, AdversarySpec::NoJam).versus(Engine::Exact, Engine::CohortFast);
        let cfg = ConformanceConfig {
            trials: 30,
            ..small_cfg()
        };
        let report = run_cell(&cell, &cfg);
        assert!(report.name.contains("[exact vs cohort]"), "{}", report.name);
        assert!(
            !report.diverges(1e-3),
            "cohort engine diverges from exact:\n{:#?}",
            report
        );
    }

    #[test]
    fn cohort_vs_fast_jammed_broadcast_cell_agrees() {
        let cell = Cell::broadcast(
            64,
            4,
            AdversarySpec::Budgeted {
                budget: 4096,
                fraction: 1.0,
            },
        )
        .versus(Engine::Fast, Engine::CohortFast);
        let cfg = ConformanceConfig {
            trials: 25,
            ..small_cfg()
        };
        let report = run_cell(&cell, &cfg);
        assert!(report.name.contains("[fast vs cohort]"), "{}", report.name);
        assert!(
            !report.diverges(1e-3),
            "cohort engine diverges from fast under jamming:\n{:#?}",
            report
        );
    }

    #[test]
    fn cohort_vs_fast_crash_cell_agrees() {
        // Crash targets are tracked individually by the cohort engine;
        // this certifies the materialized path against the fast engine.
        let cell = Cell::broadcast(64, 4, AdversarySpec::NoJam)
            .with_fault(FaultPlan::none().with_crash(1, 2, 6, true))
            .versus(Engine::Fast, Engine::CohortFast);
        let cfg = ConformanceConfig {
            trials: 25,
            ..small_cfg()
        };
        let report = run_cell(&cell, &cfg);
        assert!(
            !report.diverges(1e-3),
            "cohort engine diverges from fast on a crash–restart cell:\n{:#?}",
            report
        );
    }

    #[test]
    fn differ_detects_a_planted_divergence() {
        // Power check: exact runs jammed, fast runs unjammed. The jammed
        // runs burn far more energy, so the cost metrics must reject hard.
        // (Built by hand since the public API deliberately runs one spec on
        // both engines.)
        let cfg = small_cfg();
        let profile = Fig1Profile::with_start_epoch(0.05, 6);
        let jammed = AdversarySpec::Budgeted {
            budget: 4096,
            fraction: 1.0,
        };
        let exact: Vec<f64> = run_trials(cfg.trials, cfg.seed, cfg.parallelism, |_, rng| {
            let mut alice = AliceProtocol::new(profile);
            let mut bob = BobProtocol::new(profile);
            let schedule = DuelSchedule::new(6);
            let partition = Partition::pair();
            let mut adv = RepAsSlotAdversary::duel(jammed.build(0));
            let out = run_exact(
                &mut [&mut alice, &mut bob],
                &mut adv,
                &schedule,
                &partition,
                rng,
                ExactConfig::default(),
                None,
                &FaultPlan::none(),
                &Deadline::NONE,
            )
            .0;
            out.ledger.max_node_cost() as f64
        });
        let seeds = SeedSequence::new(cfg.fast_seed());
        let fast: Vec<f64> = run_trials(cfg.trials, cfg.fast_seed(), cfg.parallelism, |i, _| {
            let mut adv = AdversarySpec::NoJam.build(0);
            DuelSession::new(
                profile,
                DuelConfig::default(),
                FaultPlan::none(),
                seeds.child(i),
            )
            .run(&mut adv, &Deadline::NONE)
            .0
            .max_cost() as f64
        });
        let verdict = MetricVerdict::compare("max_cost", &exact, &fast, false);
        assert!(
            verdict.diverges(1e-3),
            "differ has no power against a 4096-budget mismatch: {verdict:#?}"
        );
    }

    #[test]
    fn reports_are_deterministic() {
        let cell = Cell::duel(
            0.05,
            6,
            AdversarySpec::Budgeted {
                budget: 256,
                fraction: 1.0,
            },
        );
        let cfg = ConformanceConfig {
            trials: 20,
            ..small_cfg()
        };
        let a = run_cell(&cell, &cfg);
        let b = run_cell(&cell, &cfg);
        for (ma, mb) in a.metrics.iter().zip(&b.metrics) {
            assert_eq!(ma.mw_p, mb.mw_p, "{}", ma.metric);
            assert_eq!(ma.ks_d, mb.ks_d, "{}", ma.metric);
        }
    }

    #[test]
    fn grid_verdicts_are_identical_across_parallelism() {
        // The executor steals trials across cells; every trial's stream is
        // seed-derived, so the grid's statistics must be bit-identical at
        // any thread count.
        let cells = vec![
            Cell::duel(
                0.05,
                6,
                AdversarySpec::Budgeted {
                    budget: 256,
                    fraction: 1.0,
                },
            ),
            Cell::broadcast(5, 4, AdversarySpec::NoJam),
        ];
        let cfg = ConformanceConfig {
            trials: 15,
            ..small_cfg()
        };
        let grid = |parallelism| run_grid(&cells, &ConformanceConfig { parallelism, ..cfg });
        let one = grid(Parallelism::Fixed(1));
        let four = grid(Parallelism::Fixed(4));
        let auto = grid(Parallelism::Auto);
        assert_eq!(one.cells.len(), 2);
        for (a, b, c) in one
            .cells
            .iter()
            .zip(&four.cells)
            .zip(&auto.cells)
            .map(|((a, b), c)| (a, b, c))
        {
            assert_eq!(a.name, b.name);
            assert_eq!(a.name, c.name);
            for (ma, (mb, mc)) in a.metrics.iter().zip(b.metrics.iter().zip(&c.metrics)) {
                assert_eq!(ma.mw_p, mb.mw_p, "{}: {}", a.name, ma.metric);
                assert_eq!(ma.ks_d, mc.ks_d, "{}: {}", a.name, ma.metric);
                assert_eq!(ma.exact_mean, mb.exact_mean, "{}: {}", a.name, ma.metric);
                assert_eq!(ma.fast_mean, mc.fast_mean, "{}: {}", a.name, ma.metric);
            }
        }
    }

    #[test]
    fn degenerate_constant_metrics_do_not_reject() {
        let v = MetricVerdict::compare("delivered", &[1.0; 30], &[1.0; 30], false);
        assert_eq!(v.worst_p(), 1.0);
        assert!(!v.diverges(0.05));
    }

    #[test]
    fn trial_multiplier_scales_the_cell_sample() {
        let cell = Cell::duel(0.05, 6, AdversarySpec::NoJam).with_trial_multiplier(3);
        let cfg = ConformanceConfig {
            trials: 10,
            ..small_cfg()
        };
        let report = run_cell(&cell, &cfg);
        assert_eq!(report.trials, 30, "multiplier must scale the sample");
        assert!(report.metrics.iter().all(|m| m.mw_p.is_finite()));
    }

    /// Both engines implement `skew = s` as the strict mask
    /// `offset < s` within each period. This pins the convention down
    /// deterministically: an always-on sender plus a listener that records
    /// its first decoded slot, run through the exact engine, must agree
    /// slot-for-slot with the fast duel engine's delivery slot at every
    /// skew value — including both boundary cases (s = 0 masks nothing,
    /// s = period length masks everything). This is the certificate behind
    /// dismissing the `faults[skew=n1+1]` cell's near-threshold p-value as
    /// a multiple-comparison artifact rather than an off-by-one.
    #[test]
    fn skew_boundary_is_strict_in_both_engines() {
        use rcb_channel::slot::{Action, Reception};
        use rcb_channel::{Payload, Slot};
        use rcb_core::one_to_one::profile::DuelProfile;
        use rcb_core::protocol::{PeriodLoc, Schedule};
        use rcb_mathkit::rng::RcbRng;

        const PERIOD: u64 = 4;
        const HORIZON: u64 = 2 * PERIOD;

        struct FourSlotPeriods;
        impl Schedule for FourSlotPeriods {
            fn locate(&self, slot: Slot) -> PeriodLoc {
                PeriodLoc {
                    period: slot / PERIOD,
                    offset: slot % PERIOD,
                    len: PERIOD,
                }
            }
        }

        #[derive(Default)]
        struct MeteredSender {
            slot: u64,
        }
        impl SlotProtocol for MeteredSender {
            fn act(&mut self, _rng: &mut RcbRng) -> Action {
                if self.is_done() {
                    Action::Sleep
                } else {
                    Action::Send(Payload::message())
                }
            }
            fn end_slot(&mut self, _heard: Option<&Reception>) {
                self.slot += 1;
            }
            fn is_done(&self) -> bool {
                self.slot >= HORIZON
            }
            fn received_message(&self) -> bool {
                true
            }
        }

        #[derive(Default)]
        struct BoundaryProbe {
            slot: u64,
            first_decode: Option<u64>,
        }
        impl SlotProtocol for BoundaryProbe {
            fn act(&mut self, _rng: &mut RcbRng) -> Action {
                if self.is_done() {
                    Action::Sleep
                } else {
                    Action::Listen
                }
            }
            fn end_slot(&mut self, heard: Option<&Reception>) {
                if let Some(r) = heard {
                    if r.is_message() && self.first_decode.is_none() {
                        self.first_decode = Some(self.slot);
                    }
                }
                self.slot += 1;
            }
            fn is_done(&self) -> bool {
                self.slot >= HORIZON
            }
            fn received_message(&self) -> bool {
                self.first_decode.is_some()
            }
        }

        struct AlwaysOnProfile;
        impl DuelProfile for AlwaysOnProfile {
            fn start_epoch(&self) -> u32 {
                1
            }
            fn rate(&self, _epoch: u32) -> f64 {
                1.0
            }
            fn noise_threshold(&self, _epoch: u32) -> f64 {
                100.0
            }
            fn phase_len(&self, _epoch: u32) -> u64 {
                PERIOD
            }
        }

        let exact_first_decode = |s: u64| {
            let mut sender = MeteredSender::default();
            let mut probe = BoundaryProbe::default();
            let mut adv = RepAsSlotAdversary::duel(Box::new(NoJamRep));
            let mut rng = RcbRng::new(9);
            run_exact(
                &mut [&mut sender, &mut probe],
                &mut adv,
                &FourSlotPeriods,
                &Partition::pair(),
                &mut rng,
                ExactConfig::default(),
                None,
                &FaultPlan::none().with_skew(1, s),
                &Deadline::NONE,
            );
            probe.first_decode
        };
        let fast_delivery = |s: u64| {
            let plan = FaultPlan::none().with_skew(1, s);
            DuelSession::new(AlwaysOnProfile, DuelConfig::default(), plan, 9)
                .run(&mut NoJamRep, &Deadline::NONE)
                .0
                .delivery_slot
        };
        for s in 0..=PERIOD {
            let exact = exact_first_decode(s);
            let fast = fast_delivery(s);
            assert_eq!(exact, fast, "skew boundary disagrees at s = {s}");
            // And the shared convention itself: first decode at offset s.
            assert_eq!(exact, (s < PERIOD).then_some(s), "s = {s}");
        }
    }

    #[test]
    fn render_mentions_every_cell() {
        let report = GridReport {
            alpha: 1e-3,
            cells: vec![CellReport {
                name: "duel test-cell".into(),
                trials: 5,
                metrics: vec![MetricVerdict::compare(
                    "delivered",
                    &[1.0, 1.0, 0.0],
                    &[1.0, 0.0, 1.0],
                    false,
                )],
            }],
        };
        let text = report.render();
        assert!(text.contains("test-cell"));
        assert!(text.contains("delivered"));
        assert!(text.contains("PASSED"));
    }
}
