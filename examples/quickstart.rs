//! Quickstart: Alice sends an authenticated message to Bob over a jammed
//! channel, spending a *square root* of what the jammer spends.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use rcb::prelude::*;

fn main() {
    // Failure probability ε = 1%: Bob receives m with probability ≥ 99%.
    // (The start epoch is scaled down from the paper's 11 + lg ln(8/ε) so
    // the T = 0 baseline cost is small; see DESIGN.md §2.)
    let base = ScenarioSpec::duel(DuelProtocol::fig1(0.01, 8));

    println!("adversary budget T | Alice cost | Bob cost | slots | delivered");
    println!("-------------------+------------+----------+-------+----------");
    for budget in [0u64, 1 << 10, 1 << 14, 1 << 18] {
        // The canonical attacker: silence whole phases until the budget is
        // gone (Lemma 1 says suffix/blanket jamming is the adversary's
        // strongest shape).
        let spec = base.clone().with_adversary(AdversarySpec::Budgeted {
            budget,
            fraction: 1.0,
        });
        let mut rng = RcbRng::new(2014);
        match spec.run_trial_raw(0, &mut rng) {
            (outcome, None) => {
                let out = outcome.into_duel();
                println!(
                    "{:>18} | {:>10} | {:>8} | {:>5} | {}",
                    out.adversary_cost, out.alice_cost, out.bob_cost, out.slots, out.delivered
                );
            }
            (_, Some(e)) => println!("{budget:>18} | TRUNCATED before completion: {e}"),
        }
    }

    println!();
    println!("The jammer's spend grows 256x across rows; the parties' cost grows ~16x.");
    println!("That square-root gap is resource competitiveness (Theorem 1).");
}
