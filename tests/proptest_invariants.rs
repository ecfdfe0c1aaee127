//! Property-based tests (proptest) on core invariants: channel physics,
//! energy accounting, jam plans, state machines, and samplers under
//! arbitrary inputs.

use proptest::prelude::*;
use rcb::prelude::*;
use rcb_adversary::traits::{JamPlan, RepetitionContext, SlotContext};
use rcb_channel::ledger::EnergyLedger;
use rcb_channel::slot::{resolve_slot, JamDecision};
use rcb_core::one_to_n::OneToNNode;
use rcb_core::one_to_one::schedule::DuelSchedule;
use rcb_core::one_to_one::state::{AliceState, BobState};
use rcb_mathkit::sample::{binomial, sample_slots};

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        Just(Action::Sleep),
        Just(Action::Listen),
        Just(Action::Send(Payload::message())),
        Just(Action::Send(Payload::Noise)),
        Just(Action::Send(Payload::nack())),
    ]
}

proptest! {
    /// Channel: energy conservation — every active node is charged exactly
    /// once per slot; sleepers never.
    #[test]
    fn ledger_charges_match_actions(actions in prop::collection::vec(arb_action(), 1..20)) {
        let n = actions.len();
        let partition = Partition::uniform(n);
        let mut ledger = EnergyLedger::new(n);
        resolve_slot(&actions, &JamDecision::none(), &partition, &mut ledger);
        for (i, a) in actions.iter().enumerate() {
            prop_assert_eq!(ledger.node_cost(i), a.is_active() as u64);
        }
        prop_assert_eq!(ledger.adversary_cost(), 0);
    }

    /// Channel: a message is decodable iff there is exactly one sender and
    /// no jamming; listeners always agree with each other.
    #[test]
    fn listeners_agree(actions in prop::collection::vec(arb_action(), 2..16), jam in any::<bool>()) {
        let n = actions.len();
        let partition = Partition::uniform(n);
        let mut ledger = EnergyLedger::new(n);
        let decision = if jam { JamDecision::jam_all(&partition) } else { JamDecision::none() };
        let res = resolve_slot(&actions, &decision, &partition, &mut ledger);
        let mut receptions = res.receptions.iter().map(|(_, r)| r);
        if let Some(first) = receptions.next() {
            for r in receptions {
                prop_assert_eq!(r, first, "all listeners in one group hear the same thing");
            }
        }
        let senders = actions.iter().filter(|a| matches!(a, Action::Send(_))).count();
        for (_, r) in &res.receptions {
            match r {
                Reception::Received(_) => {
                    prop_assert!(!jam && senders == 1);
                }
                Reception::Clear => prop_assert!(!jam && senders == 0),
                Reception::Noise => prop_assert!(jam || senders >= 1),
            }
        }
    }

    /// Jam plans: jam_count and is_jammed agree for every plan shape.
    #[test]
    fn jam_plan_count_matches_membership(
        len in 1u64..512,
        suffix in 0u64..600,
        slots in prop::collection::btree_set(0u64..512, 0..32),
    ) {
        let plans = vec![
            JamPlan::None,
            JamPlan::All,
            JamPlan::Suffix(suffix),
            JamPlan::Slots(slots.into_iter().collect()),
        ];
        for plan in plans {
            let by_count = plan.jam_count(len);
            let by_membership = (0..len).filter(|&t| plan.is_jammed(t, len)).count() as u64;
            prop_assert_eq!(by_count, by_membership, "plan {:?}", plan);
        }
    }

    /// Sampler: slot samples are sorted, unique, in range, and their count
    /// is the corresponding binomial's support.
    #[test]
    fn sample_slots_invariants(seed in any::<u64>(), n in 0u64..10_000, p in 0.0f64..1.0) {
        let mut rng = RcbRng::new(seed);
        let slots = sample_slots(&mut rng, n, p);
        prop_assert!(slots.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(slots.iter().all(|&s| s < n));
        prop_assert!(slots.len() as u64 <= n);
    }

    /// Sampler: binomial is within support bounds.
    #[test]
    fn binomial_support(seed in any::<u64>(), n in 0u64..100_000, p in 0.0f64..1.0) {
        let mut rng = RcbRng::new(seed);
        let k = binomial(&mut rng, n, p);
        prop_assert!(k <= n);
    }

    /// Figure 1 state machines: whatever the phase aggregates, Alice and
    /// Bob never un-halt, and epochs never decrease.
    #[test]
    fn duel_states_are_monotone(
        rounds in prop::collection::vec((any::<bool>(), 0u64..100, 0.0f64..20.0), 1..50)
    ) {
        let mut alice = AliceState::new(5);
        let mut bob = BobState::new(5);
        let mut last_epoch_a = alice.epoch();
        let mut last_epoch_b = bob.epoch();
        for (flag, noise, thr) in rounds {
            if !alice.is_done() {
                alice.end_epoch(flag, noise, thr);
                prop_assert!(alice.epoch() >= last_epoch_a);
                last_epoch_a = alice.epoch();
            }
            if !bob.is_done() {
                match bob.end_send_phase(flag, noise, thr) {
                    rcb_core::one_to_one::BobSendOutcome::ContinueToNack => {
                        bob.end_nack_phase();
                    }
                    _ => prop_assert!(bob.is_done()),
                }
                prop_assert!(bob.epoch() >= last_epoch_b);
                last_epoch_b = bob.epoch();
            }
        }
    }

    /// Figure 2 node: S_u never drops below s_init within an epoch, grows
    /// monotonically with clear slots, and status only moves forward.
    #[test]
    fn one_to_n_node_invariants(
        reps in prop::collection::vec((0u64..100_000, 0u64..10_000), 1..60)
    ) {
        let params = OneToNParams::practical();
        let mut node = OneToNNode::new(&params, false);
        let rank = |s: rcb_core::one_to_n::Status| match s {
            rcb_core::one_to_n::Status::Uninformed => 0,
            rcb_core::one_to_n::Status::Informed => 1,
            rcb_core::one_to_n::Status::Helper => 2,
            rcb_core::one_to_n::Status::Terminated => 3,
        };
        let mut last_rank = rank(node.status());
        for (clear, msgs) in reps {
            let s_before = node.s();
            node.end_repetition(&params, clear, msgs);
            if node.is_terminated() {
                break;
            }
            prop_assert!(node.s() >= s_before, "S_u never shrinks within an epoch");
            prop_assert!(node.s() >= params.s_init);
            let r = rank(node.status());
            prop_assert!(r >= last_rank, "status is monotone");
            last_rank = r;
        }
    }

    /// Adapter: driving a repetition strategy through `RepAsSlotAdversary`
    /// spends exactly what driving it directly would — per period, the
    /// integrated per-slot jam decisions equal the plan's `jam_count`, and
    /// only the listening party's group is ever hit (even periods jam Bob's
    /// group 1, odd periods Alice's group 0) at one budget unit per slot.
    #[test]
    fn adapter_matches_direct_plans(
        budget in 0u64..5_000,
        q in 0.0f64..=1.0,
        epoch in 1u32..10,
        periods in 1u64..20,
    ) {
        let mut direct = BudgetedRepBlocker::new(budget, q);
        let mut adapter = RepAsSlotAdversary::duel(BudgetedRepBlocker::new(budget, q));
        let len = 1u64 << epoch;
        for period in 0..periods {
            let plan = direct.plan(&RepetitionContext {
                epoch,
                repetition: period,
                slots: len,
                active_nodes: 2,
            });
            let mut unrolled = 0u64;
            for offset in 0..len {
                let d = adapter.decide(&SlotContext {
                    slot: period * len + offset,
                    period,
                    offset,
                    period_len: len,
                    groups: 2,
                });
                unrolled += d.jam_count();
                if d.jam_mask != 0 {
                    let expect = if period % 2 == 0 { 0b10 } else { 0b01 };
                    prop_assert_eq!(d.jam_mask, expect, "period {} jams the listener only", period);
                }
            }
            prop_assert_eq!(unrolled, plan.jam_count(len), "period {}", period);
        }
        prop_assert_eq!(adapter.inner().remaining_budget(), direct.remaining_budget());
    }

    /// Duel schedule: locate is the inverse of cumulative phase lengths.
    #[test]
    fn duel_schedule_roundtrip(start in 1u32..10, slot in 0u64..1_000_000) {
        let s = DuelSchedule::new(start);
        let loc = s.locate_duel(slot);
        prop_assert!(loc.epoch >= start);
        prop_assert!(loc.offset < (1u64 << loc.epoch));
        // Reconstruct the global slot from the location.
        let phase_extra = match loc.phase {
            rcb_core::one_to_one::PhaseKind::Send => 0,
            rcb_core::one_to_one::PhaseKind::Nack => 1u64 << loc.epoch,
        };
        let rebuilt = s.slots_before_epoch(loc.epoch) + phase_extra + loc.offset;
        prop_assert_eq!(rebuilt, slot);
    }
}
