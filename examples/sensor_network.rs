//! Scenario: a battery-powered sensor field must flood an alarm message
//! from one node to all `n` nodes while a jammer tries to starve it.
//!
//! This is the paper's motivating workload for 1-to-n BROADCAST
//! (Figure 2): the striking property is that the *bigger* the field, the
//! *less* each sensor pays to beat the same jammer — per-node cost scales
//! as √(T/n)·polylog (Theorem 3).
//!
//! ```sh
//! cargo run --release --example sensor_network
//! ```

use rcb::prelude::*;

fn main() {
    let budget = 1u64 << 21; // the jammer's battery, in slot-units
    let trials = 10u64;

    println!("jammer budget per run: {budget}\n");
    println!("   n | mean cost/node | max cost/node | slots (mean) | all informed");
    println!("-----+----------------+---------------+--------------+-------------");
    for n in [4usize, 8, 16, 32, 64, 128] {
        let spec = ScenarioSpec::broadcast(n)
            .with_adversary(AdversarySpec::Budgeted {
                budget,
                fraction: 1.0,
            })
            .with_trials(trials)
            .with_seed(0xA1A7 + n as u64);
        let mut outcomes = Vec::new();
        let mut truncated = 0u64;
        for result in spec.run_batch_raw() {
            match result {
                (out, None) => outcomes.push(out.into_broadcast()),
                (_, Some(_)) => truncated += 1,
            }
        }
        if outcomes.is_empty() {
            println!("{n:>4} | every trial truncated at the epoch cap");
            continue;
        }
        let done = outcomes.len() as f64;
        let mean_cost: f64 = outcomes.iter().map(|o| o.mean_cost()).sum::<f64>() / done;
        let max_cost: f64 = outcomes.iter().map(|o| o.max_cost() as f64).sum::<f64>() / done;
        let slots: f64 = outcomes.iter().map(|o| o.slots as f64).sum::<f64>() / done;
        let informed = outcomes.iter().filter(|o| o.all_informed).count();
        println!(
            "{:>4} | {:>14.1} | {:>13.1} | {:>12.0} | {:>2}/{}{}",
            n,
            mean_cost,
            max_cost,
            slots,
            informed,
            outcomes.len(),
            if truncated > 0 {
                format!("  ({truncated} truncated)")
            } else {
                String::new()
            },
        );
    }

    println!();
    println!("Per-sensor cost falls as the field grows: informed sensors share the");
    println!("relay work, and silence (which calibrates the rates) is free. The");
    println!("jammer must outspend the *network*, not any single node (Theorem 3).");
}
