//! Scenario: choosing a 1-to-1 protocol for an energy-budgeted link.
//!
//! Compares three strategies against the same blanket jammer:
//!
//! * **Figure 1** (this paper): cost ~ √(T·ln(1/ε)), Monte Carlo;
//! * **KSY** (King–Saia–Young, PODC 2011): cost ~ T^0.618, Las-Vegas-style,
//!   no ε-dependence — cheaper when there is no attack;
//! * **Combined**: both at once, energy-balanced (the min of the two).
//!
//! ```sh
//! cargo run --release --example protocol_shootout
//! ```

use rcb::prelude::*;
use rcb_core::one_to_one::schedule::DuelSchedule;
use rcb_sim::runner::{run_trials, Parallelism};

/// Mean max-party cost over completed trials; truncated trials (engine
/// slot cap) are dropped from the mean and counted.
fn mean_duel_cost(protocol: DuelProtocol, budget: u64, trials: u64) -> (f64, u64) {
    let spec = ScenarioSpec::duel(protocol)
        .with_adversary(AdversarySpec::Budgeted {
            budget,
            fraction: 1.0,
        })
        .with_trials(trials)
        .with_seed(0xD0E1 ^ budget);
    let mut sum = 0.0;
    let mut completed = 0u64;
    let mut truncated = 0u64;
    for result in spec.run_batch_raw() {
        match result {
            (out, None) => {
                sum += out.max_cost() as f64;
                completed += 1;
            }
            (_, Some(_)) => truncated += 1,
        }
    }
    (sum / completed.max(1) as f64, truncated)
}

fn mean_combined_cost(budget: u64, trials: u64) -> (f64, u64) {
    let fig1 = Fig1Profile::with_start_epoch(0.01, 8);
    let ksy = KsyProfile::new();
    let results = run_trials(trials, 0xC0DE ^ budget, Parallelism::Auto, |_, rng| {
        let mut alice = combined_alice(fig1, ksy);
        let mut bob = combined_bob(fig1, ksy);
        // Both parties are jammed: 2 ledger units per slot, so T / 2 slots.
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
                max_slots: (budget * 64).max(1 << 20),
            },
            None,
            &FaultPlan::none(),
            &Deadline::NONE,
        );
        (out.ledger.max_node_cost() as f64, err)
    });
    let mut sum = 0.0;
    let mut completed = 0u64;
    let mut truncated = 0u64;
    for r in results {
        match r {
            (c, None) => {
                sum += c;
                completed += 1;
            }
            (_, Some(_)) => truncated += 1,
        }
    }
    (sum / completed.max(1) as f64, truncated)
}

fn main() {
    let trials = 40;

    println!("         T | Fig-1 (sqrt T) | KSY (T^0.62) | Combined (min)");
    println!("-----------+----------------+--------------+---------------");
    let mut total_truncated = 0u64;
    for budget in [0u64, 1 << 8, 1 << 12, 1 << 16, 1 << 19] {
        let (f, tf) = mean_duel_cost(DuelProtocol::fig1(0.01, 8), budget, trials);
        let (k, tk) = mean_duel_cost(DuelProtocol::ksy(), budget, trials);
        let (c, tc) = mean_combined_cost(budget, 10);
        total_truncated += tf + tk + tc;
        println!("{budget:>10} | {f:>14.1} | {k:>12.1} | {c:>13.1}");
    }
    println!("\ntruncated trials (excluded from means): {total_truncated}");

    println!();
    println!("KSY wins at T = 0 (no ln(1/ε) floor); Figure 1 pulls ahead as T");
    println!("grows (0.5 < 0.618 in the exponent). For T > 0 the combined protocol");
    println!("pays at most a constant factor over the better column (paper, Section");
    println!("1.3); at T = 0 each sender lane runs to its own halt, so it pays");
    println!("Figure 1's ln(1/ε) floor instead of KSY's constant.");
}
