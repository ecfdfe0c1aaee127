//! Shared sweep machinery for the experiment modules.
//!
//! Sweeps are axis-mutations of a base [`ScenarioSpec`]: the caller builds
//! one spec (protocol, blocking fraction, trials, seed) and the sweep
//! re-stamps the adversary budget and the per-cell seed for each point.
//! All per-budget specs are built up front and executed through the
//! trial-granular work-stealing executor
//! ([`rcb_sim::executor::run_specs_ctl`]), so cores stay
//! busy across cell boundaries; the per-cell seed folds (and therefore
//! every trial's RNG stream) are unchanged from the historical serial
//! loop. Crash safety comes from the caller's [`SweepControl`] (the
//! `--journal-dir` and `--deadline` flags of `rcbsim exp`): a journal
//! directory checkpoints (and auto-resumes) per-trial journals, a deadline
//! bounds the wall clock. Only the budget sweeps (E1–E3, E5–E7, E9) are
//! resumable; the other experiments run their engines directly.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Duration;

use rcb_analysis::report::{Cell, SweepSeries};
use rcb_sim::deadline::Deadline;
use rcb_sim::error::SimError;
use rcb_sim::executor::{run_specs_journaled, QuarantinedTrial};
use rcb_sim::journal::{Journal, JournalKind};
use rcb_sim::outcome::{BroadcastOutcome, DuelOutcome};
use rcb_sim::runner::Parallelism;
use rcb_sim::scenario::{
    fnv1a, AdversarySpec, DuelProtocol, Outcome, ScenarioSpec, Workload, FNV_OFFSET,
};

/// Base duel spec for budget sweeps: the canonical full-phase blocker at
/// fraction `q`, budget re-stamped per sweep point.
pub fn duel_sweep_base(protocol: DuelProtocol, q: f64, trials: u64, seed: u64) -> ScenarioSpec {
    ScenarioSpec::duel(protocol)
        .with_adversary(AdversarySpec::Budgeted {
            budget: 0,
            fraction: q,
        })
        .with_trials(trials)
        .with_seed(seed)
}

/// Base 1-to-n spec (practical params, node 0 source) for budget sweeps.
pub fn broadcast_sweep_base(n: usize, q: f64, trials: u64, seed: u64) -> ScenarioSpec {
    ScenarioSpec::broadcast(n)
        .with_adversary(AdversarySpec::Budgeted {
            budget: 0,
            fraction: q,
        })
        .with_trials(trials)
        .with_seed(seed)
}

/// Budget axis: `2^start .. 2^end` inclusive, stepping by `step` doublings.
pub fn budget_axis(start: u32, end: u32, step: u32) -> Vec<u64> {
    (start..=end)
        .step_by(step as usize)
        .map(|k| 1u64 << k)
        .collect()
}

/// Per-budget duel statistics.
#[derive(Debug, Clone)]
pub struct DuelSweepPoint {
    pub budget: u64,
    /// Mean realized adversary spend (the empirical `T`).
    pub mean_t: f64,
    pub cost: Cell,
    pub latency: Cell,
    pub success_rate: f64,
    /// Trials the engine cut off at a budget cap; they are excluded from
    /// every statistic above and must be surfaced in the report.
    pub truncated: u64,
    pub outcomes: Vec<DuelOutcome>,
}

/// Splits tolerant trial results — each outcome next to its optional
/// engine error — into completed outcomes and the number of trials the
/// engine truncated at a budget cap.
pub fn split_truncated<T>(
    results: impl IntoIterator<Item = (T, Option<SimError>)>,
) -> (Vec<T>, u64) {
    let mut out = Vec::new();
    let mut truncated = 0u64;
    for (v, err) in results {
        match err {
            None => out.push(v),
            Some(_) => truncated += 1,
        }
    }
    (out, truncated)
}

/// Crash-safety knobs for the budget sweeps.
///
/// With `journal_dir` set, every budget sweep journals completed trials to
/// `<dir>/sweep_<fingerprint>.journal` and automatically resumes an existing
/// journal for the same work (a journal from *different* work is refused
/// via its header fingerprint, never silently spliced). With `deadline`
/// set, in-flight trials finish and the sweep stops with a message naming
/// the resume mechanism — partial statistics are never reported as if
/// they were complete.
#[derive(Debug, Clone, Default)]
pub struct SweepControl {
    pub journal_dir: Option<PathBuf>,
    pub deadline: Option<Duration>,
}

/// Grid-level identity of a sweep: FNV-1a fold of every cell spec's
/// fingerprint, in cell order. This is what the journal header records.
pub fn sweep_fingerprint(specs: &[ScenarioSpec]) -> u64 {
    specs
        .iter()
        .fold(FNV_OFFSET, |h, s| fnv1a(h, &[s.fingerprint()]))
}

/// Renders quarantined trials with **identical panic messages deduped**:
/// one line per distinct message with its multiplicity and first site, so
/// a bug that kills 500 trials the same way reads as one fact, not 500.
pub fn quarantine_report(quarantined: &[QuarantinedTrial]) -> String {
    let mut order: Vec<&str> = Vec::new();
    let mut counts: HashMap<&str, (u64, usize, u64, u32)> = HashMap::new();
    for q in quarantined {
        counts
            .entry(q.failure.payload.as_str())
            .and_modify(|e| e.0 += 1)
            .or_insert_with(|| {
                order.push(q.failure.payload.as_str());
                (1, q.spec, q.trial, q.failure.attempts)
            });
    }
    let mut s = format!(
        "{} trial(s) quarantined after same-seed retries:\n",
        quarantined.len()
    );
    for msg in order {
        let (count, spec, trial, attempts) = counts[msg];
        s.push_str(&format!(
            "  {count} × `{msg}` (first at spec {spec}, trial {trial}; {attempts} attempt(s) each)\n"
        ));
    }
    s
}

/// One sweep cell's trials: each outcome next to its optional engine
/// error, in trial order.
pub type CellResults = Vec<(Outcome, Option<SimError>)>;

/// Same-seed retry budget for sweep trials before quarantine.
const SWEEP_MAX_ATTEMPTS: u32 = 2;

/// The sweep execution core: [`run_specs_journaled`] with the crash-safety
/// knobs wired in. With no journal dir and no deadline this returns
/// exactly what a per-spec `run_batch_raw` would (every
/// trial still runs on its unchanged seed fold; the bounded same-seed
/// retry policy cannot alter a successful trial's stream), so the default
/// path stays byte-identical. Quarantined trials fail the sweep with a
/// deduped report — statistics with silent holes are worse than no
/// statistics — and so does a deadline cut, naming how to resume.
pub fn run_sweep_specs(
    specs: &[ScenarioSpec],
    parallelism: Parallelism,
    sweep_ctl: &SweepControl,
) -> Result<Vec<CellResults>, String> {
    let journal = match &sweep_ctl.journal_dir {
        None => None,
        Some(dir) => {
            let fingerprint = sweep_fingerprint(specs);
            let path = dir.join(format!("sweep_{fingerprint:016x}.journal"));
            let (verb, opened) = if path.exists() {
                let resumed = Journal::open_resume(&path, JournalKind::Sweep, fingerprint);
                ("resume", resumed)
            } else {
                (
                    "create",
                    Journal::create(&path, JournalKind::Sweep, fingerprint),
                )
            };
            Some(opened.map_err(|e| format!("cannot {verb} {}: {e}", path.display()))?)
        }
    };

    let run = run_specs_journaled(
        specs,
        parallelism,
        sweep_ctl.deadline.map_or(Deadline::NONE, Deadline::after),
        SWEEP_MAX_ATTEMPTS,
        journal.as_ref(),
    )
    .map_err(|e| format!("sweep journal: {e}"))?;

    if !run.quarantined.is_empty() {
        return Err(quarantine_report(&run.quarantined));
    }
    if run.deadline_hit {
        let total: u64 = specs.iter().map(|s| s.trials).sum();
        return Err(match &journal {
            Some(j) => format!(
                "sweep wall-clock budget exceeded: {} of {total} trials journaled in {}; \
                 re-run with the same --journal-dir to resume \
                 (completed trials are skipped; results stay bit-identical)",
                j.len(),
                j.path().display()
            ),
            None => "sweep wall-clock budget exceeded with no --journal-dir: \
                     partial progress was not persisted"
                .to_string(),
        });
    }

    Ok(run
        .results
        .into_iter()
        .map(|batch| {
            batch
                .into_iter()
                .map(|slot| {
                    slot.expect("uncut and unquarantined: every trial ran or was journaled")
                })
                .collect()
        })
        .collect())
}

/// Sweeps a base duel scenario over adversary budgets. The base spec fixes
/// the protocol, the adversary family (its blocking fraction survives the
/// re-budgeting), the trial count, and the master seed; each point runs the
/// base with the budget swapped in and the seed XOR-folded with it so cells
/// draw independent streams.
pub fn duel_budget_sweep(
    base: &ScenarioSpec,
    budgets: &[u64],
    ctl: &SweepControl,
) -> Result<Vec<DuelSweepPoint>, String> {
    assert!(
        matches!(base.workload, Workload::Duel(_)),
        "duel_budget_sweep needs a duel base spec"
    );
    let specs: Vec<ScenarioSpec> = budgets
        .iter()
        .map(|&budget| {
            base.clone()
                .with_adversary(base.adversary.with_budget(budget))
                .with_seed(base.seeds.master ^ budget)
        })
        .collect();
    let batches = run_sweep_specs(&specs, base.parallelism, ctl)?;
    Ok(budgets
        .iter()
        .zip(batches)
        .map(|(&budget, batch)| {
            let (outcomes, truncated) =
                split_truncated(batch.into_iter().map(|(o, err)| (o.into_duel(), err)));
            summarize_duels(budget, outcomes, truncated)
        })
        .collect())
}

/// Aggregates duel outcomes into a sweep point. Panics when *every* trial
/// truncated: a cell with no completed trials has no statistics to report.
pub fn summarize_duels(budget: u64, outcomes: Vec<DuelOutcome>, truncated: u64) -> DuelSweepPoint {
    assert!(
        !outcomes.is_empty(),
        "budget {budget}: all {truncated} trials truncated at an engine cap"
    );
    let mean_t = outcomes
        .iter()
        .map(|o| o.adversary_cost as f64)
        .sum::<f64>()
        / outcomes.len() as f64;
    let costs: Vec<f64> = outcomes.iter().map(|o| o.max_cost() as f64).collect();
    let slots: Vec<f64> = outcomes.iter().map(|o| o.slots as f64).collect();
    let successes = outcomes.iter().filter(|o| o.delivered).count();
    DuelSweepPoint {
        budget,
        mean_t,
        cost: Cell::from_samples(mean_t.max(1.0), &costs),
        latency: Cell::from_samples(mean_t.max(1.0), &slots),
        success_rate: successes as f64 / outcomes.len() as f64,
        truncated,
        outcomes,
    }
}

/// Per-budget broadcast statistics.
#[derive(Debug, Clone)]
pub struct BroadcastSweepPoint {
    pub budget: u64,
    pub n: usize,
    pub mean_t: f64,
    /// Mean per-node cost (fair-cost measure).
    pub mean_cost: Cell,
    /// Max per-node cost (the Theorem 3 bound).
    pub max_cost: Cell,
    pub latency: Cell,
    pub all_informed_rate: f64,
    /// Trials the engine cut off at its epoch cap; excluded from the
    /// statistics above and surfaced in the report.
    pub truncated: u64,
    pub outcomes: Vec<BroadcastOutcome>,
}

/// Sweeps a base 1-to-n scenario over adversary budgets at its fixed `n`.
/// Seeds fold in both the budget and `n` so multi-`n` grids never share a
/// stream across cells.
pub fn broadcast_budget_sweep(
    base: &ScenarioSpec,
    budgets: &[u64],
    ctl: &SweepControl,
) -> Result<Vec<BroadcastSweepPoint>, String> {
    let n = match &base.workload {
        Workload::Broadcast(w) => w.n,
        _ => panic!("broadcast_budget_sweep needs a broadcast base spec"),
    };
    let specs: Vec<ScenarioSpec> = budgets
        .iter()
        .map(|&budget| {
            base.clone()
                .with_adversary(base.adversary.with_budget(budget))
                .with_seed(base.seeds.master ^ budget ^ ((n as u64) << 32))
        })
        .collect();
    let batches = run_sweep_specs(&specs, base.parallelism, ctl)?;
    Ok(budgets
        .iter()
        .zip(batches)
        .map(|(&budget, batch)| {
            let (outcomes, truncated) =
                split_truncated(batch.into_iter().map(|(o, err)| (o.into_broadcast(), err)));
            summarize_broadcasts(budget, n, outcomes, truncated)
        })
        .collect())
}

/// Aggregates broadcast outcomes into a sweep point. The `x` of the cells
/// is the realized mean `T` (budget sweeps) — callers that sweep `n`
/// rebuild cells with `n` as `x`.
pub fn summarize_broadcasts(
    budget: u64,
    n: usize,
    outcomes: Vec<BroadcastOutcome>,
    truncated: u64,
) -> BroadcastSweepPoint {
    assert!(
        !outcomes.is_empty(),
        "n {n}, budget {budget}: all {truncated} trials truncated at the epoch cap"
    );
    let mean_t = outcomes
        .iter()
        .map(|o| o.adversary_cost as f64)
        .sum::<f64>()
        / outcomes.len() as f64;
    let x = mean_t.max(1.0);
    let mean_costs: Vec<f64> = outcomes.iter().map(|o| o.mean_cost()).collect();
    let max_costs: Vec<f64> = outcomes.iter().map(|o| o.max_cost() as f64).collect();
    let slots: Vec<f64> = outcomes.iter().map(|o| o.slots as f64).collect();
    let informed = outcomes.iter().filter(|o| o.all_informed).count();
    BroadcastSweepPoint {
        budget,
        n,
        mean_t,
        mean_cost: Cell::from_samples(x, &mean_costs),
        max_cost: Cell::from_samples(x, &max_costs),
        latency: Cell::from_samples(x, &slots),
        all_informed_rate: informed as f64 / outcomes.len() as f64,
        truncated,
        outcomes,
    }
}

/// Report-annotation view of a sweep cell: how many trials completed and
/// how many the engine truncated at a cap.
pub trait TruncationCount {
    fn cell_label(&self) -> String;
    fn completed(&self) -> u64;
    fn truncated(&self) -> u64;
}

impl TruncationCount for DuelSweepPoint {
    fn cell_label(&self) -> String {
        format!("budget {}", self.budget)
    }
    fn completed(&self) -> u64 {
        self.outcomes.len() as u64
    }
    fn truncated(&self) -> u64 {
        self.truncated
    }
}

impl TruncationCount for BroadcastSweepPoint {
    fn cell_label(&self) -> String {
        format!("n {}, budget {}", self.n, self.budget)
    }
    fn completed(&self) -> u64 {
        self.outcomes.len() as u64
    }
    fn truncated(&self) -> u64 {
        self.truncated
    }
}

/// Standard report line for engine-cap truncations. Experiments always
/// append it, so "0" is an explicit claim rather than silence; nonzero
/// counts list the affected cells so a clipped distribution can never
/// masquerade as a converged one.
pub fn truncation_note<C: TruncationCount>(points: &[C]) -> String {
    let total: u64 = points.iter().map(TruncationCount::truncated).sum();
    if total == 0 {
        return "\ntruncated trials: 0\n".to_string();
    }
    let mut s = format!("\nWARNING: {total} truncated trial(s) excluded from the statistics:\n");
    for p in points.iter().filter(|p| p.truncated() > 0) {
        s.push_str(&format!(
            "  {}: {}/{} truncated\n",
            p.cell_label(),
            p.truncated(),
            p.truncated() + p.completed()
        ));
    }
    s
}

/// Builds a series from `(x, cell)` pairs with a fresh `x`.
pub fn series_from(name: &str, points: impl IntoIterator<Item = (f64, Cell)>) -> SweepSeries {
    let mut s = SweepSeries::new(name);
    for (x, cell) in points {
        s.push(Cell { x, ..cell });
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_axis_doubles() {
        assert_eq!(budget_axis(3, 7, 2), vec![8, 32, 128]);
        assert_eq!(budget_axis(4, 4, 1), vec![16]);
    }

    #[test]
    fn duel_sweep_smoke() {
        let base = duel_sweep_base(DuelProtocol::fig1(0.1, 7), 1.0, 8, 1);
        let pts = duel_budget_sweep(&base, &[1024], &SweepControl::default()).expect("sweep runs");
        assert_eq!(pts.len(), 1);
        let p = &pts[0];
        assert_eq!(p.outcomes.len(), 8);
        assert!(p.mean_t > 0.0);
        assert!(p.cost.mean > 0.0);
        assert!(p.success_rate >= 0.0 && p.success_rate <= 1.0);
    }

    #[test]
    fn broadcast_sweep_smoke() {
        let base = broadcast_sweep_base(8, 1.0, 3, 2);
        let pts =
            broadcast_budget_sweep(&base, &[2048], &SweepControl::default()).expect("sweep runs");
        assert_eq!(pts.len(), 1);
        assert!(pts[0].mean_cost.mean > 0.0);
        assert!(pts[0].mean_t > 0.0);
    }

    #[test]
    fn sweep_results_match_per_cell_run_batch() {
        // The work-stealing execution must reproduce the historical
        // serial per-cell path bit-for-bit: same seed folds, same trials.
        let base = duel_sweep_base(DuelProtocol::fig1(0.1, 7), 1.0, 5, 3);
        let budgets = [512u64, 1024, 4096];
        let pts = duel_budget_sweep(&base, &budgets, &SweepControl::default()).expect("sweep runs");
        for (&budget, pt) in budgets.iter().zip(&pts) {
            let direct: Vec<_> = base
                .clone()
                .with_adversary(base.adversary.with_budget(budget))
                .with_seed(base.seeds.master ^ budget)
                .run_batch_raw()
                .into_iter()
                .filter_map(|(o, err)| err.is_none().then(|| o.into_duel()))
                .collect();
            assert_eq!(pt.outcomes, direct, "budget {budget} diverged");
        }
    }

    #[test]
    fn split_truncated_partitions_and_counts() {
        let results = vec![
            (1u32, None),
            (
                8,
                Some(SimError::EpochBudgetExhausted {
                    max_epoch: 3,
                    slots: 99,
                }),
            ),
            (2, None),
            (
                9,
                Some(SimError::EpochBudgetExhausted {
                    max_epoch: 3,
                    slots: 7,
                }),
            ),
        ];
        let (ok, truncated) = split_truncated(results);
        assert_eq!(ok, vec![1, 2]);
        assert_eq!(truncated, 2);
    }

    #[test]
    fn truncation_note_zero_is_explicit() {
        let base = duel_sweep_base(DuelProtocol::fig1(0.1, 7), 1.0, 4, 1);
        let pts = duel_budget_sweep(&base, &[1024], &SweepControl::default()).expect("sweep runs");
        let note = truncation_note(&pts);
        assert!(note.contains("truncated trials: 0"), "{note}");
    }

    #[test]
    fn truncation_note_lists_affected_cells() {
        let base = duel_sweep_base(DuelProtocol::fig1(0.1, 7), 1.0, 4, 1);
        let mut pts =
            duel_budget_sweep(&base, &[1024, 2048], &SweepControl::default()).expect("sweep runs");
        pts[1].truncated = 3;
        let note = truncation_note(&pts);
        assert!(note.contains("WARNING"), "{note}");
        assert!(note.contains("budget 2048: 3/7 truncated"), "{note}");
        assert!(!note.contains("budget 1024"), "{note}");
    }

    #[test]
    #[should_panic(expected = "all 5 trials truncated")]
    fn summarize_panics_when_every_trial_truncated() {
        summarize_duels(64, Vec::new(), 5);
    }

    #[test]
    fn series_from_overrides_x() {
        let c = Cell::from_samples(99.0, &[1.0, 2.0]);
        let s = series_from("s", vec![(7.0, c)]);
        assert_eq!(s.cells[0].x, 7.0);
        assert!((s.cells[0].mean - 1.5).abs() < 1e-12);
    }

    #[test]
    fn journaled_sweep_resumes_bit_identically() {
        let dir = std::env::temp_dir().join(format!("rcb_sweep_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let base = duel_sweep_base(DuelProtocol::fig1(0.1, 7), 1.0, 6, 21);
        let budgets = [512u64, 1024];
        let specs: Vec<ScenarioSpec> = budgets
            .iter()
            .map(|&b| {
                base.clone()
                    .with_adversary(base.adversary.with_budget(b))
                    .with_seed(base.seeds.master ^ b)
            })
            .collect();

        let straight = run_sweep_specs(&specs, Parallelism::Fixed(1), &SweepControl::default())
            .expect("sweep runs");
        let ctl = SweepControl {
            journal_dir: Some(dir.clone()),
            deadline: None,
        };
        let journaled = run_sweep_specs(&specs, Parallelism::Fixed(2), &ctl).expect("journaled");
        assert_eq!(straight, journaled, "the journal must not perturb results");

        // Second run with the same dir: everything is resumed from the
        // journal (no trial re-runs) and the batch is still identical.
        let resumed = run_sweep_specs(&specs, Parallelism::Fixed(1), &ctl).expect("resumed");
        assert_eq!(
            straight, resumed,
            "a full resume must round-trip the records"
        );

        let fingerprint = sweep_fingerprint(&specs);
        let path = dir.join(format!("sweep_{fingerprint:016x}.journal"));
        let journal = Journal::load(&path).expect("sweep journal exists");
        assert_eq!(journal.kind(), JournalKind::Sweep);
        assert_eq!(journal.len() as u64, 12, "every trial journaled once");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quarantine_report_dedupes_identical_messages() {
        use rcb_sim::error::TrialFailure;
        let mut failure = TrialFailure::new(0, "index out of bounds".to_string());
        failure.attempts = 2;
        let quarantined: Vec<QuarantinedTrial> = (0..5)
            .map(|t| QuarantinedTrial {
                spec: t / 3,
                trial: t as u64,
                failure: TrialFailure {
                    trial: t as u64,
                    ..failure.clone()
                },
            })
            .chain(std::iter::once(QuarantinedTrial {
                spec: 1,
                trial: 9,
                failure: TrialFailure::new(9, "a different panic".to_string()),
            }))
            .collect();
        let report = quarantine_report(&quarantined);
        assert!(report.starts_with("6 trial(s) quarantined"), "{report}");
        assert_eq!(
            report.matches("index out of bounds").count(),
            1,
            "identical messages must collapse to one line: {report}"
        );
        assert!(report.contains("5 × `index out of bounds`"), "{report}");
        assert!(report.contains("first at spec 0, trial 0"), "{report}");
        assert!(report.contains("1 × `a different panic`"), "{report}");
    }
}
