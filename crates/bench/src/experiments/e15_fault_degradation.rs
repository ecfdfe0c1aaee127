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

use crate::experiments::common::split_truncated;
use crate::scale::Scale;
use rcb_adversary::rep_strategies::{BudgetedRepBlocker, NoJamRep};
use rcb_adversary::traits::RepetitionAdversary;
use rcb_analysis::table::{num, TableBuilder};
use rcb_core::one_to_n::OneToNParams;
use rcb_core::one_to_one::profile::Fig1Profile;
use rcb_mathkit::stats::RunningStats;
use rcb_sim::deadline::Deadline;
use rcb_sim::duel::{run_duel, DuelConfig};
use rcb_sim::fast::{run_broadcast, FastConfig};
use rcb_sim::faults::FaultPlan;
use rcb_sim::runner::{run_trials, Parallelism};

struct DuelCellResult {
    delivered_rate: f64,
    mean_max_cost: f64,
    mean_slots: f64,
    truncated: u64,
}

fn duel_cell(budget: u64, loss: f64, trials: u64, seed: u64) -> DuelCellResult {
    let profile = Fig1Profile::with_start_epoch(0.1, 8);
    let plan = if loss > 0.0 {
        FaultPlan::none().with_loss(loss)
    } else {
        FaultPlan::none()
    };
    let results = run_trials(trials, seed, Parallelism::Auto, |_, rng| {
        let mut adv: Box<dyn RepetitionAdversary> = if budget == 0 {
            Box::new(NoJamRep)
        } else {
            Box::new(BudgetedRepBlocker::new(budget, 1.0))
        };
        run_duel(
            &profile,
            adv.as_mut(),
            rng,
            DuelConfig::default(),
            &plan,
            &Deadline::NONE,
        )
    });
    let (outcomes, truncated) = split_truncated(results);
    assert!(
        !outcomes.is_empty(),
        "budget {budget}, loss {loss}: every trial truncated"
    );
    let mut max_cost = RunningStats::new();
    let mut slots = RunningStats::new();
    let mut delivered = 0u64;
    for o in &outcomes {
        max_cost.push(o.max_cost() as f64);
        slots.push(o.slots as f64);
        delivered += o.delivered as u64;
    }
    DuelCellResult {
        delivered_rate: delivered as f64 / outcomes.len() as f64,
        mean_max_cost: max_cost.mean(),
        mean_slots: slots.mean(),
        truncated,
    }
}

struct BroadcastCellResult {
    informed_fraction: f64,
    all_informed_rate: f64,
    mean_max_cost: f64,
    mean_slots: f64,
    truncated: u64,
}

fn broadcast_cell(n: usize, plan: FaultPlan, trials: u64, seed: u64) -> BroadcastCellResult {
    let params = OneToNParams::practical();
    let results = run_trials(trials, seed, Parallelism::Auto, |_, rng| {
        let mut adv = NoJamRep;
        run_broadcast(
            &params,
            n,
            &[0],
            &mut adv,
            rng,
            FastConfig::default(),
            &mut (),
            &plan,
            &Deadline::NONE,
        )
    });
    let (outcomes, truncated) = split_truncated(results);
    assert!(!outcomes.is_empty(), "n {n}: every trial truncated");
    let mut informed = RunningStats::new();
    let mut max_cost = RunningStats::new();
    let mut slots = RunningStats::new();
    let mut all_informed = 0u64;
    for o in &outcomes {
        informed.push(o.informed as f64 / n as f64);
        max_cost.push(o.max_cost() as f64);
        slots.push(o.slots as f64);
        all_informed += o.all_informed as u64;
    }
    BroadcastCellResult {
        informed_fraction: informed.mean(),
        all_informed_rate: all_informed as f64 / outcomes.len() as f64,
        mean_max_cost: max_cost.mean(),
        mean_slots: slots.mean(),
        truncated,
    }
}

pub fn run(scale: &Scale) -> String {
    let mut out = String::new();
    let seed = scale.seed ^ 0xE15;

    // ---- 1. Loss sweep × jammer budget (duel). ----
    let trials = scale.trials(60);
    let losses = [0.0, 0.05, 0.1, 0.2, 0.4];
    let budgets = [0u64, 4096];
    let mut table = TableBuilder::new(vec![
        "T",
        "p_loss",
        "delivered rate",
        "E[max cost]",
        "E[slots]",
    ]);
    let mut truncated_total = 0u64;
    let mut cliff = false;
    for &budget in &budgets {
        let mut prev_rate = f64::INFINITY;
        for (k, &loss) in losses.iter().enumerate() {
            let r = duel_cell(budget, loss, trials, seed ^ (budget << 8) ^ k as u64);
            truncated_total += r.truncated;
            // A "cliff" is a fault step that erases delivery outright:
            // adjacent cells dropping from mostly-delivering to
            // essentially-never. Sampling noise stays well above this.
            cliff |= prev_rate >= 0.5 && r.delivered_rate < 0.1;
            prev_rate = r.delivered_rate;
            table.row(vec![
                budget.to_string(),
                format!("{loss:.2}"),
                format!("{:.2}", r.delivered_rate),
                num(r.mean_max_cost),
                num(r.mean_slots),
            ]);
        }
    }
    out.push_str(&format!(
        "1-to-1 under receiver loss (ε = 0.1, i₀ = 8, trials/cell = {trials})\n\n"
    ));
    out.push_str(&table.markdown());
    out.push_str(&format!(
        "\ncliff check: {} (a cliff = adjacent loss steps falling from ≥0.50 \
         to <0.10 delivered)\n\n",
        if cliff {
            "FAILED — delivery collapses"
        } else {
            "passed — degradation is continuous"
        }
    ));

    // ---- 2. Crash–restart re-convergence (1-to-n). ----
    let n = 16;
    let trials = scale.trials(40);
    let mut table = TableBuilder::new(vec![
        "fault",
        "informed frac",
        "all-informed rate",
        "E[max cost]",
        "E[slots]",
    ]);
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
    for (i, (label, plan)) in crash_cells.iter().enumerate() {
        let r = broadcast_cell(n, *plan, trials, seed ^ 0xC0 ^ i as u64);
        truncated_total += r.truncated;
        table.row(vec![
            label.to_string(),
            format!("{:.3}", r.informed_fraction),
            format!("{:.2}", r.all_informed_rate),
            num(r.mean_max_cost),
            num(r.mean_slots),
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
    let caps = [Some(32u64), Some(128), Some(512), None];
    for (i, cap) in caps.iter().enumerate() {
        let plan = match cap {
            Some(c) => FaultPlan::none().with_battery(*c),
            None => FaultPlan::none(),
        };
        let r = broadcast_cell(n, plan, trials, seed ^ 0xBA00 ^ i as u64);
        truncated_total += r.truncated;
        table.row(vec![
            cap.map_or("∞".into(), |c| c.to_string()),
            format!("{:.3}", r.informed_fraction),
            format!("{:.2}", r.all_informed_rate),
            num(r.mean_max_cost),
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
    out
}
