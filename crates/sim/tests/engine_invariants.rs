//! Engine-level invariant tests: conservation between outcomes and
//! adversary accounting, monotonicity of cost in the budget, and
//! reproducibility guarantees.

use rcb_adversary::rep_strategies::{BudgetedRepBlocker, NoJamRep};
use rcb_adversary::traits::RepetitionAdversary;
use rcb_core::one_to_n::OneToNParams;
use rcb_core::one_to_one::profile::Fig1Profile;
use rcb_mathkit::rng::SeedSequence;
use rcb_sim::deadline::Deadline;
use rcb_sim::duel::{DuelConfig, DuelSession};
use rcb_sim::fast::{BroadcastSession, FastConfig};
use rcb_sim::faults::FaultPlan;
use rcb_sim::outcome::{BroadcastOutcome, DuelOutcome};
use rcb_sim::runner::{run_trials, Parallelism};
use rcb_sim::session::Session;

/// A fault-free, unbounded duel on a fresh session at `seed`.
fn duel(
    profile: &Fig1Profile,
    adversary: &mut dyn RepetitionAdversary,
    seed: u64,
    config: DuelConfig,
) -> DuelOutcome {
    DuelSession::new(*profile, config, FaultPlan::none(), seed)
        .run(adversary, &Deadline::NONE)
        .0
}

/// A fault-free, unbounded broadcast from node 0 on a fresh session at
/// `seed`.
fn broadcast(
    params: &OneToNParams,
    n: usize,
    adversary: &mut dyn RepetitionAdversary,
    seed: u64,
    config: FastConfig,
) -> BroadcastOutcome {
    BroadcastSession::new(*params, n, vec![0], config, FaultPlan::none(), seed)
        .run(adversary, &Deadline::NONE)
        .0
}

#[test]
fn duel_same_seed_same_outcome() {
    let profile = Fig1Profile::with_start_epoch(0.05, 7);
    let run = |seed| {
        let mut adv = BudgetedRepBlocker::new(5000, 1.0);
        duel(&profile, &mut adv, seed, DuelConfig::default())
    };
    assert_eq!(run(7), run(7), "bitwise reproducibility");
    // And different seeds differ somewhere across a few tries.
    let varied = (0..5).map(run).collect::<Vec<_>>();
    assert!(varied.iter().any(|o| o != &varied[0]));
}

#[test]
fn broadcast_same_seed_same_outcome() {
    let params = OneToNParams::practical();
    let run = |seed| {
        let mut adv = NoJamRep;
        broadcast(&params, 12, &mut adv, seed, FastConfig::default())
    };
    assert_eq!(run(3), run(3));
}

#[test]
fn adversary_cost_never_exceeds_budget() {
    let profile = Fig1Profile::with_start_epoch(0.05, 7);
    for budget in [0u64, 100, 5_000, 100_000] {
        let mut adv = BudgetedRepBlocker::new(budget, 1.0);
        let out = duel(&profile, &mut adv, budget ^ 11, DuelConfig::default());
        assert!(
            out.adversary_cost <= budget,
            "spent {} on budget {budget}",
            out.adversary_cost
        );
    }
}

#[test]
fn broadcast_adversary_cost_never_exceeds_budget() {
    let params = OneToNParams::practical();
    for budget in [0u64, 1000, 50_000] {
        let mut adv = BudgetedRepBlocker::new(budget, 1.0);
        let out = broadcast(&params, 8, &mut adv, budget ^ 5, FastConfig::default());
        assert!(out.adversary_cost <= budget);
    }
}

#[test]
fn duel_costs_grow_with_budget_on_average() {
    let profile = Fig1Profile::with_start_epoch(0.05, 8);
    let mean_cost = |budget: u64| {
        let seeds = SeedSequence::new(17 ^ budget);
        let outs = run_trials(40, 17 ^ budget, Parallelism::Auto, |i, _| {
            let mut adv = BudgetedRepBlocker::new(budget, 1.0);
            duel(&profile, &mut adv, seeds.child(i), DuelConfig::default())
        });
        outs.iter().map(|o| o.max_cost() as f64).sum::<f64>() / outs.len() as f64
    };
    let c0 = mean_cost(0);
    let c1 = mean_cost(1 << 14);
    let c2 = mean_cost(1 << 19);
    assert!(c0 < c1 && c1 < c2, "{c0} < {c1} < {c2} expected");
}

#[test]
fn delivery_slot_is_within_run() {
    let profile = Fig1Profile::with_start_epoch(0.05, 7);
    for seed in 0..30 {
        let mut adv = BudgetedRepBlocker::new(2000, 1.0);
        let out = duel(&profile, &mut adv, seed, DuelConfig::default());
        if let Some(t) = out.delivery_slot {
            assert!(out.delivered);
            assert!(t < out.slots, "delivery slot {t} vs total {}", out.slots);
        }
    }
}

#[test]
fn broadcast_outcome_counts_are_consistent() {
    let params = OneToNParams::practical();
    for seed in 0..10 {
        let mut adv = NoJamRep;
        let out = broadcast(&params, 16, &mut adv, seed, FastConfig::default());
        assert_eq!(out.n, 16);
        assert_eq!(out.node_costs.len(), 16);
        assert!(out.informed <= out.n);
        assert_eq!(out.all_informed, out.informed == out.n);
        assert!(out.safety_terminations <= out.n);
        assert!(out.max_cost() as f64 >= out.mean_cost());
        // The sender is node 0 and always informed.
        assert!(out.informed >= 1);
    }
}

#[test]
fn sender_alone_is_node_zero_semantics() {
    // n = 1 runs to termination and reports the sender informed.
    let params = OneToNParams::practical();
    let mut adv = NoJamRep;
    let out = broadcast(&params, 1, &mut adv, 1, FastConfig::default());
    assert!(out.all_informed);
    assert!(out.all_terminated);
}

#[test]
fn duel_engine_matches_closed_form_prediction() {
    // The Theorem 1 bookkeeping (rcb_core::one_to_one::predict) and the
    // fast engine must agree on expected cost and latency within
    // Monte-Carlo tolerance: they encode the same model independently.
    use rcb_core::one_to_one::predict::{predicted_cost, predicted_latency};
    let profile = Fig1Profile::with_start_epoch(0.05, 8);
    for budget in [0u64, 1 << 12, 1 << 16] {
        let seeds = SeedSequence::new(3 ^ budget);
        let outs = run_trials(80, 3 ^ budget, Parallelism::Auto, |i, _| {
            let mut adv = BudgetedRepBlocker::new(budget, 1.0);
            duel(&profile, &mut adv, seeds.child(i), DuelConfig::default())
        });
        let mean_alice: f64 =
            outs.iter().map(|o| o.alice_cost as f64).sum::<f64>() / outs.len() as f64;
        let mean_slots: f64 = outs.iter().map(|o| o.slots as f64).sum::<f64>() / outs.len() as f64;
        let pc = predicted_cost(&profile, budget);
        let pl = predicted_latency(&profile, budget);
        assert!(
            (mean_alice - pc).abs() < 0.25 * pc + 10.0,
            "T={budget}: alice {mean_alice} vs predicted {pc}"
        );
        assert!(
            (mean_slots - pl).abs() < 0.25 * pl + 10.0,
            "T={budget}: slots {mean_slots} vs predicted {pl}"
        );
    }
}

#[test]
fn unjammed_broadcast_latency_matches_schedule_estimate() {
    // The predict module's unjammed-latency estimate (slots through the
    // ideal epoch) and the fast engine must agree within epoch
    // granularity: one epoch of slack either way.
    use rcb_core::one_to_n::predict::{estimated_termination_epoch, slots_in_epochs};
    let params = OneToNParams::practical();
    for n in [8usize, 32, 64] {
        let mut slots_sum = 0u64;
        let trials = 4u64;
        for seed in 0..trials {
            let mut adv = NoJamRep;
            let out = broadcast(
                &params,
                n,
                &mut adv,
                900 + seed + n as u64,
                FastConfig::default(),
            );
            assert!(out.all_terminated);
            slots_sum += out.slots;
        }
        let measured = slots_sum as f64 / trials as f64;
        let est_epoch = estimated_termination_epoch(&params, n);
        let lo = slots_in_epochs(&params, params.first_epoch, est_epoch.saturating_sub(1)) as f64;
        let hi = slots_in_epochs(&params, params.first_epoch, est_epoch + 2) as f64;
        assert!(
            measured >= lo * 0.5 && measured <= hi,
            "n={n}: measured {measured} outside [{lo}, {hi}]"
        );
    }
}
