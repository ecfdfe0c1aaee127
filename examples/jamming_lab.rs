//! Scenario: an interference lab — pit the exact slot-level engine against
//! four different jammer personalities and watch what each buys per unit
//! of energy.
//!
//! Uses the exact engine (every slot resolved through the channel model),
//! a traced execution, and the pair partition (one group per party). The
//! three planned jammers run through `RepAsSlotAdversary::duel`, which jams
//! only the listening party at 1 unit per slot; the reactive jammer hits
//! both parties at 2 units per slot.
//!
//! ```sh
//! cargo run --release --example jamming_lab
//! ```

use rcb::prelude::*;
use rcb_adversary::rep_strategies::KeepAliveBlocker;
use rcb_channel::trace::Trace;
use rcb_core::one_to_one::schedule::DuelSchedule;

fn run_one(label: &str, adversary: &mut dyn SlotAdversary, seed: u64) -> (String, u64, u64, bool) {
    let profile = Fig1Profile::with_start_epoch(0.05, 7);
    let mut alice = AliceProtocol::new(profile);
    let mut bob = BobProtocol::new(profile);
    let schedule = DuelSchedule::new(7);
    let partition = Partition::pair();
    let mut rng = RcbRng::new(seed);
    let mut trace = Trace::with_capacity(4096);
    // A run that hits the engine slot cap comes back with a typed error
    // next to its partial numbers, never silently clipped.
    let (out, err) = run_exact(
        &mut [&mut alice, &mut bob],
        adversary,
        &schedule,
        &partition,
        &mut rng,
        ExactConfig::default(),
        Some(&mut trace),
        &FaultPlan::none(),
        &Deadline::NONE,
    );
    if let Some(e) = err {
        panic!("{label}: truncated at the engine slot cap: {e}");
    }
    let jammed_slots = trace.records().iter().filter(|r| r.jam_mask != 0).count() as u64;
    (
        format!(
            "{label:<22} adversary spent {:>6}  (≥{jammed_slots} jammed slots seen)  \
             good-node max cost {:>5}  delivered: {}",
            out.ledger.adversary_cost(),
            out.ledger.max_node_cost(),
            bob.received_message()
        ),
        out.ledger.adversary_cost(),
        out.ledger.max_node_cost(),
        bob.received_message(),
    )
}

fn main() {
    let budget = 2048u64;
    println!("1-to-1 BROADCAST on the exact engine; every jammer gets {budget} energy\n");

    let mut blanket = RepAsSlotAdversary::duel(BudgetedRepBlocker::new(budget, 1.0));
    println!("{}", run_one("blanket blocker", &mut blanket, 1).0);

    let mut random = RepAsSlotAdversary::duel(RandomRep::new(0.5, budget, 99));
    println!("{}", run_one("random 50% jammer", &mut random, 2).0);

    let mut keep_alive = RepAsSlotAdversary::duel(KeepAliveBlocker::new(budget, 0.25));
    println!("{}", run_one("keep-alive 1/4 nacks", &mut keep_alive, 3).0);

    let mut reactive = ReactiveJammer::new(budget);
    println!("{}", run_one("reactive (follows TX)", &mut reactive, 4).0);

    println!();
    println!("The keep-alive jammer extracts the most good-node cost for the same");
    println!("energy, as E11 finds: jamming just over the halting threshold of each");
    println!("nack phase keeps both parties paying full epochs, where blanket");
    println!("blocking pays for every slot of a phase. The reactive jammer, which");
    println!("jams the slot after any transmission, buys almost nothing.");
}
