//! E9 — §1.4 head-to-head: Figure 1 vs KSY vs the combined protocol vs the
//! deterministic baseline.
//!
//! Expected shape:
//!
//! * at `T = 0` KSY is cheapest (no ε-dependence: the `+1` beats
//!   `ln(1/ε)`). The combined protocol should track it but does not: its
//!   device runs each sender lane to its own halt, so it pays Figure 1's
//!   ε-floor;
//! * as `T` grows Figure 1 wins (`√T < T^0.618`), the combined protocol
//!   tracks *it*, and the crossover sits where `√(T·ln 1/ε)` undercuts
//!   `T^0.618`;
//! * the naive deterministic pair pays `T + 1` — linear, not competitive.

use crate::experiments::Report;
use crate::scale::Scale;
use rcb_adversary::{BudgetedRepBlocker, JamTarget, RepAsSlotAdversary};
use rcb_analysis::table::{num, TableBuilder};
use rcb_baselines::combined::{combined_alice, combined_bob};
use rcb_baselines::ksy::KsyProfile;
use rcb_channel::Partition;
use rcb_core::one_to_one::profile::Fig1Profile;
use rcb_core::one_to_one::schedule::DuelSchedule;
use rcb_core::protocol::SlotProtocol;
use rcb_mathkit::stats::RunningStats;
use rcb_sim::deadline::Deadline;
use rcb_sim::exact::{run_exact, ExactConfig};
use rcb_sim::faults::FaultPlan;
use rcb_sim::runner::{run_trials, Parallelism};

use crate::experiments::common::{
    duel_budget_sweep, duel_sweep_base, split_truncated, truncation_note, SweepControl,
};
use rcb_sim::scenario::DuelProtocol;

const EPSILON: f64 = 0.01;

/// Mean max-cost of the combined device pair via the exact engine, plus
/// the number of trials the slot cap truncated (excluded from the mean).
fn combined_cost(budget: u64, trials: u64, seed: u64) -> (f64, f64, u64) {
    let fig1 = Fig1Profile::with_start_epoch(EPSILON, 8);
    let ksy = KsyProfile::new();
    let results = run_trials(trials, seed, Parallelism::Auto, |_, rng| {
        let mut alice = combined_alice(fig1, ksy);
        let mut bob = combined_bob(fig1, ksy);
        // Both parties are jammed (the lanes' phases do not follow the pair
        // schedule): 2 ledger units per slot, so the inner budget is T / 2.
        let blocker = BudgetedRepBlocker::new(budget / 2, 1.0);
        let mut adv = RepAsSlotAdversary::new(blocker, JamTarget::Mask(0b11), 2);
        let schedule = DuelSchedule::new(8);
        let partition = Partition::pair();
        let (out, err) = run_exact(
            &mut [&mut alice, &mut bob],
            &mut adv,
            &schedule,
            &partition,
            rng,
            ExactConfig {
                max_slots: (budget * 64).max(1 << 22),
            },
            None,
            &FaultPlan::none(),
            &Deadline::NONE,
        );
        (
            (out.ledger.max_node_cost() as f64, bob.received_message()),
            err,
        )
    });
    let (outcomes, truncated) = split_truncated(results);
    assert!(
        !outcomes.is_empty(),
        "budget {budget}: all {truncated} combined-device trials hit the slot cap"
    );
    let mut stats = RunningStats::new();
    let mut ok = 0usize;
    for (c, delivered) in &outcomes {
        stats.push(*c);
        ok += *delivered as usize;
    }
    (stats.mean(), ok as f64 / outcomes.len() as f64, truncated)
}

pub fn run(scale: &Scale, ctl: &SweepControl) -> Result<Report, String> {
    let mut out = Report::default();
    let budgets = [0u64, 1 << 10, 1 << 14, 1 << 18, 1 << 22];
    let trials = scale.trials(60);
    let trials_exact = scale.trials(15);

    let fig1_base = duel_sweep_base(
        DuelProtocol::fig1(EPSILON, 8),
        1.0,
        trials,
        scale.seed ^ 0xE9,
    );
    let ksy_base = duel_sweep_base(DuelProtocol::ksy(), 1.0, trials, scale.seed ^ 0x9E9);

    let mut table = TableBuilder::new(vec![
        "T (budget)",
        "Fig-1 (√T)",
        "KSY (T^.62)",
        "Combined",
        "Naive (T+1)",
    ]);
    let fig1_pts = duel_budget_sweep(&fig1_base, &budgets, ctl)?;
    let ksy_budgets: Vec<u64> = budgets.iter().map(|&b| b.max(1)).collect();
    let ksy_pts = duel_budget_sweep(&ksy_base, &ksy_budgets, ctl)?;
    let mut exact_truncated = 0u64;
    for ((&budget, fig1), ksy) in budgets.iter().zip(&fig1_pts).zip(&ksy_pts) {
        let (combined, _success, combined_trunc) =
            combined_cost(budget, trials_exact, scale.seed ^ 0xC0);
        exact_truncated += combined_trunc;
        table.row(vec![
            budget.to_string(),
            num(fig1.cost.mean),
            num(ksy.cost.mean),
            num(combined),
            num(budget as f64 + 1.0),
        ]);
    }
    out.push_str(&format!(
        "ε = {EPSILON}; cells: mean max-party cost; duel trials = {trials}, \
         combined (exact engine) trials = {trials_exact}\n\n"
    ));
    out.push_str(&table.markdown());
    out.push_str(
        "\nexpected shape: KSY wins at T = 0; Figure 1 wins for large T; the \
         combined column tracks the column-wise minimum up to a constant; \
         naive is linear in T.\n",
    );
    out.push_str(&truncation_note(
        fig1_pts.iter().zip(&ksy_pts).flat_map(|(f, k)| [f, k]),
    ));
    out.push_str(&format!(
        "truncated combined-device (exact engine) trials: {exact_truncated}\n"
    ));
    Ok(out)
}
