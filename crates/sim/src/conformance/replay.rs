//! Trace-level replay: feed an exact-engine slot log back through the
//! phase-level state machines.
//!
//! The differ can say *that* the engines disagree; the replayer says
//! *where*. A [`Trace`] recorded by [`run_exact`](crate::exact::run_exact)
//! holds, per slot, the jam mask and what every listening node heard. Those
//! receptions are exactly the inputs of the phase-level machines
//! ([`AliceState`]/[`BobState`]), so the replayer re-derives the phase
//! aggregates from the log, drives mirror state machines with them, and
//! reports the first slot at which the log is inconsistent with the mirror
//! (a node listening after its mirror halted, epochs out of step, …). Any
//! such [`Divergence`] pinpoints a semantic drift between the slot-level
//! protocol adapters and the state machines the fast engines drive.

use rcb_channel::trace::{ReceptionKind, Trace};
use rcb_channel::NodeId;
use rcb_core::one_to_one::profile::DuelProfile;
use rcb_core::one_to_one::schedule::DuelSchedule;
use rcb_core::one_to_one::state::{AliceState, BobSendOutcome, BobState, PhaseKind};

/// A point where the trace contradicts the replayed state machines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    pub slot: u64,
    pub what: String,
}

/// Result of replaying a duel trace.
#[derive(Debug, Clone)]
pub struct DuelReplay {
    /// Bob's mirror received `m`.
    pub delivered: bool,
    /// Slot at which `m` arrived, if it did.
    pub delivery_slot: Option<u64>,
    pub alice_halted: bool,
    pub bob_halted: bool,
    /// Alice's mirror epoch after the last complete phase.
    pub final_epoch: u32,
    /// Slots consumed from the trace.
    pub slots: u64,
    /// Inconsistencies between the log and the mirrors (empty = conformant).
    pub divergences: Vec<Divergence>,
}

/// Replays a duel trace through mirror [`AliceState`]/[`BobState`] machines.
///
/// `trace` must come from a run over
/// [`Partition::pair`](rcb_channel::partition::Partition::pair)
/// (node 0 = Alice, node 1 = Bob) on `schedule`; records must be the
/// complete prefix of the run (the default for an ample-capacity trace).
pub fn replay_duel_trace<P: DuelProfile>(
    profile: &P,
    schedule: &DuelSchedule,
    trace: &Trace,
) -> DuelReplay {
    const ALICE: NodeId = 0;
    const BOB: NodeId = 1;

    let mut alice = AliceState::new(profile.start_epoch());
    let mut bob = BobState::new(profile.start_epoch());
    let mut divergences = Vec::new();
    let mut delivery_slot = None;

    // Per-phase aggregates, reset at each phase boundary.
    let mut alice_noise = 0u64;
    let mut heard_nack = false;
    let mut bob_noise = 0u64;
    let mut bob_nacking = false;
    let mut slots = 0u64;

    for record in trace.records() {
        slots = record.slot + 1;
        let loc = schedule.locate_duel(record.slot);
        let heard = |node: NodeId| {
            record
                .receptions
                .iter()
                .find(|(u, _)| *u == node)
                .map(|(_, kind)| *kind)
        };

        // Epoch drift: a live mirror must agree with the public schedule.
        if !alice.is_done() && alice.epoch() != loc.epoch {
            divergences.push(Divergence {
                slot: record.slot,
                what: format!(
                    "Alice mirror at epoch {} but schedule says {}",
                    alice.epoch(),
                    loc.epoch
                ),
            });
            break;
        }

        match loc.phase {
            PhaseKind::Send => {
                // Only Bob listens here.
                if heard(ALICE).is_some() {
                    divergences.push(Divergence {
                        slot: record.slot,
                        what: "Alice listened during a send phase".into(),
                    });
                }
                if let Some(kind) = heard(BOB) {
                    if bob.is_done() {
                        divergences.push(Divergence {
                            slot: record.slot,
                            what: "Bob listened after his mirror halted".into(),
                        });
                    } else {
                        match kind {
                            ReceptionKind::Message => {
                                bob.receive_message();
                                delivery_slot = Some(record.slot);
                            }
                            ReceptionKind::Noise => bob_noise += 1,
                            _ => {}
                        }
                    }
                }
            }
            PhaseKind::Nack => {
                // Only Alice listens here.
                if heard(BOB).is_some() {
                    divergences.push(Divergence {
                        slot: record.slot,
                        what: "Bob listened during a nack phase".into(),
                    });
                }
                if let Some(kind) = heard(ALICE) {
                    if alice.is_done() {
                        divergences.push(Divergence {
                            slot: record.slot,
                            what: "Alice listened after her mirror halted".into(),
                        });
                    } else {
                        match kind {
                            ReceptionKind::Nack => heard_nack = true,
                            ReceptionKind::Noise => alice_noise += 1,
                            _ => {}
                        }
                    }
                }
            }
        }

        // Phase boundary: drive the state machines with the aggregates.
        let phase_len = 1u64 << loc.epoch;
        if loc.offset + 1 == phase_len {
            let thr = profile.noise_threshold(loc.epoch);
            match loc.phase {
                PhaseKind::Send => {
                    bob_nacking = if bob.is_done() {
                        false
                    } else {
                        matches!(
                            bob.end_send_phase(false, bob_noise, thr),
                            BobSendOutcome::ContinueToNack
                        )
                    };
                    bob_noise = 0;
                }
                PhaseKind::Nack => {
                    if !alice.is_done() {
                        alice.end_epoch(heard_nack, alice_noise, thr);
                    }
                    heard_nack = false;
                    alice_noise = 0;
                    if bob_nacking {
                        bob.end_nack_phase();
                        bob_nacking = false;
                    }
                }
            }
        }
    }

    DuelReplay {
        delivered: bob.got_message(),
        delivery_slot,
        alice_halted: alice.is_done(),
        bob_halted: bob.is_done(),
        final_epoch: alice.epoch(),
        slots,
        divergences,
    }
}

/// Result of replaying a 1-to-n trace.
#[derive(Debug, Clone)]
pub struct BroadcastReplay {
    /// Per node: the slot at which it first decoded `m`, if ever. A node
    /// that starts informed (the sender) never *hears* `m`.
    pub first_heard: Vec<Option<u64>>,
    pub divergences: Vec<Divergence>,
}

/// Replays a 1-to-n trace over
/// [`Partition::uniform`](rcb_channel::partition::Partition::uniform)`(n)`.
///
/// The trace records listeners but not per-node send decisions, so the full
/// [`OneToNNode`](rcb_core::one_to_n::OneToNNode) machine cannot be
/// re-driven from the log alone; what *can* be checked is the
/// informed-set dynamics: a node's `received_message` must equal "the log
/// shows it decoding `m`", and nobody decodes `m` twice (informed nodes
/// switch from listening-for-`m` to relaying it).
pub fn replay_broadcast_trace(n: usize, trace: &Trace) -> BroadcastReplay {
    let mut first_heard: Vec<Option<u64>> = vec![None; n];
    let mut divergences = Vec::new();
    for record in trace.records() {
        for &(node, kind) in &record.receptions {
            if node >= n {
                divergences.push(Divergence {
                    slot: record.slot,
                    what: format!("reception for out-of-range node {node}"),
                });
                continue;
            }
            if kind == ReceptionKind::Message && first_heard[node].is_none() {
                first_heard[node] = Some(record.slot);
            }
        }
    }
    BroadcastReplay {
        first_heard,
        divergences,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadline::Deadline;
    use crate::exact::{run_exact, ExactConfig};
    use crate::faults::FaultPlan;
    use rcb_adversary::rep_strategies::BudgetedRepBlocker;
    use rcb_adversary::slot_strategies::NoJam;
    use rcb_adversary::RepAsSlotAdversary;
    use rcb_channel::partition::Partition;
    use rcb_core::one_to_n::{OneToNParams, OneToNSchedule, OneToNSlotNode};
    use rcb_core::one_to_one::profile::Fig1Profile;
    use rcb_core::one_to_one::slot::{AliceProtocol, BobProtocol};
    use rcb_core::protocol::SlotProtocol;
    use rcb_mathkit::rng::RcbRng;

    fn record_duel(budget: u64, seed: u64) -> (Fig1Profile, DuelSchedule, Trace, bool) {
        let profile = Fig1Profile::with_start_epoch(0.05, 5);
        let schedule = DuelSchedule::new(5);
        let mut alice = AliceProtocol::new(profile);
        let mut bob = BobProtocol::new(profile);
        let partition = Partition::pair();
        let mut rng = RcbRng::new(seed);
        let mut adv = RepAsSlotAdversary::duel(BudgetedRepBlocker::new(budget, 1.0));
        let mut trace = Trace::with_capacity(1 << 22);
        let out = run_exact(
            &mut [&mut alice, &mut bob],
            &mut adv,
            &schedule,
            &partition,
            &mut rng,
            ExactConfig::default(),
            Some(&mut trace),
            &FaultPlan::none(),
            &Deadline::NONE,
        )
        .0;
        assert!(out.completed);
        assert_eq!(trace.dropped(), 0, "trace must hold the whole run");
        (profile, schedule, trace, bob.received_message())
    }

    #[test]
    fn replayed_duel_reaches_the_recorded_outcome() {
        for seed in 0..10 {
            let (profile, schedule, trace, delivered) = record_duel(0, seed);
            let replay = replay_duel_trace(&profile, &schedule, &trace);
            assert_eq!(
                replay.divergences,
                Vec::new(),
                "seed {seed}: slot adapters and state machines drifted"
            );
            assert_eq!(replay.delivered, delivered, "seed {seed}");
            assert!(replay.alice_halted && replay.bob_halted, "seed {seed}");
        }
    }

    #[test]
    fn replayed_jammed_duel_reaches_the_recorded_outcome() {
        for seed in 0..6 {
            let (profile, schedule, trace, delivered) = record_duel(400, seed);
            let replay = replay_duel_trace(&profile, &schedule, &trace);
            assert_eq!(replay.divergences, Vec::new(), "seed {seed}");
            assert_eq!(replay.delivered, delivered, "seed {seed}");
        }
    }

    #[test]
    fn tampered_trace_is_flagged() {
        let (profile, schedule, trace, _) = record_duel(0, 3);
        // Serialize-free tamper: rebuild a trace whose Bob keeps listening
        // after the recorded delivery. Splice an extra Bob reception into a
        // send-phase slot *after* the delivery slot.
        let replay = replay_duel_trace(&profile, &schedule, &trace);
        let Some(delivery) = replay.delivery_slot else {
            return; // premature halt this seed; nothing to tamper with
        };
        let mut injected = false;
        let records = trace
            .records()
            .iter()
            .map(|r| {
                let mut rec = r.clone();
                if !injected && r.slot > delivery {
                    // In a send phase this is "listening after halt"; in a
                    // nack phase it is "Bob listened during a nack phase".
                    // Either way the replayer must flag it.
                    rec.receptions.push((1, ReceptionKind::Clear));
                    injected = true;
                }
                rec
            })
            .collect();
        assert!(injected, "no slot after delivery to tamper");
        let verdict = replay_duel_trace(&profile, &schedule, &Trace::from_records(records));
        assert!(!verdict.divergences.is_empty(), "tampering went undetected");
    }

    #[test]
    fn replayed_broadcast_matches_received_flags() {
        let params = {
            let mut p = OneToNParams::practical();
            p.first_epoch = 4;
            p
        };
        let n = 4;
        for seed in 0..5 {
            let mut nodes: Vec<OneToNSlotNode> = (0..n)
                .map(|u| OneToNSlotNode::new(params, u == 0))
                .collect();
            let mut refs: Vec<&mut dyn SlotProtocol> = Vec::new();
            for node in nodes.iter_mut() {
                refs.push(node);
            }
            let schedule = OneToNSchedule::new(params);
            let partition = Partition::uniform(n);
            let mut rng = RcbRng::new(100 + seed);
            let mut adv = NoJam;
            let mut trace = Trace::with_capacity(1 << 22);
            let out = run_exact(
                &mut refs,
                &mut adv,
                &schedule,
                &partition,
                &mut rng,
                ExactConfig {
                    max_slots: 40_000_000,
                },
                Some(&mut trace),
                &FaultPlan::none(),
                &Deadline::NONE,
            )
            .0;
            assert!(out.completed);
            assert_eq!(trace.dropped(), 0);
            let replay = replay_broadcast_trace(n, &trace);
            assert!(replay.divergences.is_empty());
            for (u, node) in nodes.iter().enumerate().skip(1) {
                assert_eq!(
                    replay.first_heard[u].is_some(),
                    node.received_message(),
                    "seed {seed}, node {u}: log and node state disagree on m"
                );
            }
        }
    }
}
