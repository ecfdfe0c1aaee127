//! E15 (extension) — graceful degradation under non-adversarial faults.
//!
//! The paper's adversary jams; real deployments *also* lose packets, brown
//! out, reboot, and drift their clocks. This experiment measures how the
//! Figure 1 / Figure 2 protocols degrade under the seeded fault-injection
//! layer (`rcb_sim::faults`), with three claims to check:
//!
//! 1. **Loss is a slope, not a cliff.** Receiver-side loss `p` makes the
//!    duel pay more and deliver later, but delivery probability falls
//!    continuously in `p` — there is no threshold where the protocol
//!    collapses, with or without a concurrent jammer.
//! 2. **Crash–restart re-converges.** A node that goes dark mid-run and
//!    reboots with wiped volatile state is re-informed by the helpers;
//!    the informed rate stays at the fault-free level.
//! 3. **Battery brownout fails soft.** A hard energy cap produces runs
//!    that end with whatever dissemination was achieved — informed
//!    fraction grows with capacity, and no cap wedges the run.

use crate::experiments::common::{
    broadcast_results, duel_results, run_sweep_specs, summarize_broadcasts, summarize_duels,
    BroadcastSweepPoint, CellResults, SweepControl,
};
use crate::experiments::Report;
use crate::scale::Scale;
use rcb_analysis::table::{num, TableBuilder};
use rcb_mathkit::stats::RunningStats;
use rcb_sim::faults::FaultPlan;
use rcb_sim::runner::Parallelism;
use rcb_sim::scenario::{AdversarySpec, DuelProtocol, ScenarioSpec};

/// A duel cell: Figure 1 (ε = 0.1, i₀ = 8) under receiver loss `loss`,
/// against a full blocker with `budget` (none at 0).
fn duel_spec(budget: u64, loss: f64, trials: u64, seed: u64) -> ScenarioSpec {
    let plan = if loss > 0.0 {
        FaultPlan::none().with_loss(loss)
    } else {
        FaultPlan::none()
    };
    let adversary = if budget == 0 {
        AdversarySpec::NoJam
    } else {
        AdversarySpec::Budgeted {
            budget,
            fraction: 1.0,
        }
    };
    ScenarioSpec::duel(DuelProtocol::fig1(0.1, 8))
        .with_adversary(adversary)
        .with_faults(plan)
        .with_seed(seed)
        .with_trials(trials)
}

/// An unjammed `n`-node broadcast cell under the fault plan `plan`.
fn broadcast_spec(n: usize, plan: FaultPlan, trials: u64, seed: u64) -> ScenarioSpec {
    ScenarioSpec::broadcast(n)
        .with_faults(plan)
        .with_seed(seed)
        .with_trials(trials)
}

/// Mean fraction of the cell's nodes informed per completed trial.
fn informed_fraction(cell: &BroadcastSweepPoint) -> f64 {
    let mut informed = RunningStats::new();
    for o in &cell.outcomes {
        informed.push(o.informed as f64 / cell.n as f64);
    }
    informed.mean()
}

/// Whether a column of delivered rates, ordered by increasing loss, has a
/// cliff: a step from ≥ 0.50 to < 0.10 delivered, which erases delivery
/// outright (sampling noise stays well above this). The column's first
/// cell has no predecessor and counts as a step from an unbounded rate.
fn has_cliff(delivered: &[f64]) -> bool {
    std::iter::once(f64::INFINITY)
        .chain(delivered.iter().copied())
        .zip(delivered)
        .any(|(prev, &rate)| prev >= 0.5 && rate < 0.1)
}

pub fn run(scale: &Scale, ctl: &SweepControl) -> Result<Report, String> {
    let mut out = Report::default();
    let seed = scale.seed ^ 0xE15;
    let duel_trials = scale.trials(60);
    let losses = [0.0, 0.05, 0.1, 0.2, 0.4];
    let budgets = [0u64, 4096];
    let n = 16;
    let trials = scale.trials(40);
    let crash_cells = [
        ("none", FaultPlan::none()),
        (
            "crash n3 @2+8",
            FaultPlan::none().with_crash(3, 2, 8, false),
        ),
        (
            "crash n3 @2+8, lose state",
            FaultPlan::none().with_crash(3, 2, 8, true),
        ),
    ];
    let caps = [Some(32u64), Some(128), Some(512), None];

    // Every cell of the three tables is independent: one spec list, in
    // table order.
    let mut specs = Vec::new();
    for &budget in &budgets {
        for (k, &loss) in losses.iter().enumerate() {
            specs.push(duel_spec(
                budget,
                loss,
                duel_trials,
                seed ^ (budget << 8) ^ k as u64,
            ));
        }
    }
    for (i, (_, plan)) in crash_cells.iter().enumerate() {
        specs.push(broadcast_spec(n, *plan, trials, seed ^ 0xC0 ^ i as u64));
    }
    for (i, cap) in caps.iter().enumerate() {
        let plan = match cap {
            Some(c) => FaultPlan::none().with_battery(*c),
            None => FaultPlan::none(),
        };
        specs.push(broadcast_spec(n, plan, trials, seed ^ 0xBA00 ^ i as u64));
    }
    let mut batches = run_sweep_specs(&specs, Parallelism::Auto, ctl)?.into_iter();
    let mut truncated_total = 0u64;
    let broadcast_cell = |batch: CellResults| {
        let (outcomes, truncated) = broadcast_results(batch);
        summarize_broadcasts(0, n, outcomes, truncated)
    };

    // ---- 1. Loss sweep × jammer budget (duel). ----
    let mut table = TableBuilder::new(vec![
        "T",
        "p_loss",
        "delivered rate",
        "E[max cost]",
        "E[slots]",
    ]);
    let mut cliff = false;
    for &budget in &budgets {
        let mut delivered = Vec::new();
        for &loss in &losses {
            let (outcomes, truncated) = duel_results(batches.next().expect("a loss cell"));
            truncated_total += truncated;
            let r = summarize_duels(budget, outcomes, truncated);
            delivered.push(r.success_rate);
            table.row(vec![
                budget.to_string(),
                format!("{loss:.2}"),
                format!("{:.2}", r.success_rate),
                num(r.cost.mean),
                num(r.latency.mean),
            ]);
        }
        cliff |= has_cliff(&delivered);
    }
    out.push_str(&format!(
        "1-to-1 under receiver loss (ε = 0.1, i₀ = 8, trials/cell = {duel_trials})\n\n"
    ));
    out.push_str(&table.markdown());
    out.check(
        "cliff check".to_string(),
        !cliff,
        &format!(
            "\ncliff check: {} (a cliff = adjacent loss steps falling from ≥0.50 \
             to <0.10 delivered)\n\n",
            if cliff {
                "FAILED — delivery collapses"
            } else {
                "passed — degradation is continuous"
            }
        ),
    );

    // ---- 2. Crash–restart re-convergence (1-to-n). ----
    let mut table = TableBuilder::new(vec![
        "fault",
        "informed frac",
        "all-informed rate",
        "E[max cost]",
        "E[slots]",
    ]);
    for (label, _) in &crash_cells {
        let r = broadcast_cell(batches.next().expect("a crash cell"));
        truncated_total += r.truncated;
        table.row(vec![
            label.to_string(),
            format!("{:.3}", informed_fraction(&r)),
            format!("{:.2}", r.all_informed_rate),
            num(r.max_cost.mean),
            num(r.latency.mean),
        ]);
    }
    out.push_str(&format!(
        "1-to-n crash–restart (n = {n}, no jamming, trials/cell = {trials})\n\n"
    ));
    out.push_str(&table.markdown());
    out.push_str(
        "\nexpected shape: the crashed node misses the early dissemination \
         window, reboots (with or without its volatile state), and is \
         re-informed by the helpers — the informed rate stays at the \
         fault-free level, at slightly higher latency.\n\n",
    );

    // ---- 3. Battery brownout (1-to-n). ----
    let mut table = TableBuilder::new(vec![
        "battery cap",
        "informed frac",
        "all-informed rate",
        "E[max cost]",
    ]);
    for cap in &caps {
        let r = broadcast_cell(batches.next().expect("a battery cell"));
        truncated_total += r.truncated;
        table.row(vec![
            cap.map_or("∞".into(), |c| c.to_string()),
            format!("{:.3}", informed_fraction(&r)),
            format!("{:.2}", r.all_informed_rate),
            num(r.max_cost.mean),
        ]);
    }
    out.push_str(&format!(
        "1-to-n battery brownout (n = {n}, no jamming, trials/cell = {trials})\n\n"
    ));
    out.push_str(&table.markdown());
    out.push_str(
        "\nexpected shape: informed fraction grows with capacity and max \
         cost stays ≤ cap + one period of overshoot; every run ends (dead \
         nodes count as halted) — brownout fails soft instead of wedging \
         the harness.\n",
    );
    out.push_str(&format!("\ntruncated trials: {truncated_total}\n"));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_step_from_half_to_under_a_tenth_is_a_cliff() {
        assert!(has_cliff(&[1.0, 0.9, 0.5, 0.05, 0.0]));
    }

    #[test]
    fn a_gradual_decline_is_not_a_cliff() {
        assert!(!has_cliff(&[1.0, 0.8, 0.55, 0.3, 0.12, 0.05]));
    }
}
