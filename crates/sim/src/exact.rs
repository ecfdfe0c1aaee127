//! The reference engine: every slot resolved through the channel substrate.
//!
//! General over any node set implementing
//! [`SlotProtocol`] and any
//! [`SlotAdversary`]. Used directly for small configurations, for the
//! spoofing experiments (only this engine supports payload injection), and
//! as the ground truth the fast engines are cross-validated against.

use rcb_adversary::traits::{SlotAdversary, SlotContext, SlotObservation};
use rcb_channel::ledger::EnergyLedger;
use rcb_channel::partition::Partition;
use rcb_channel::slot::{resolve_slot_into, Action, Reception, SlotResolution};
use rcb_channel::trace::Trace;
use rcb_core::protocol::{Schedule, SlotProtocol};
use rcb_mathkit::rng::RcbRng;
use serde::{Deserialize, Serialize};

use crate::deadline::Deadline;
use crate::error::SimError;
use crate::faults::{FaultPlan, Gate, LossCoins};

/// Engine limits.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ExactConfig {
    /// Hard slot cap; a run that reaches it is reported as truncated.
    pub max_slots: u64,
}

impl Default for ExactConfig {
    fn default() -> Self {
        Self {
            max_slots: 100_000_000,
        }
    }
}

/// Result of an exact-engine run.
#[derive(Debug, Clone)]
pub struct ExactOutcome {
    /// Full energy ledger of the execution.
    pub ledger: EnergyLedger,
    /// Slots executed.
    pub slots: u64,
    /// All nodes halted before the cap.
    pub completed: bool,
}

/// Runs `protocols` against `adversary` until every node is done (or the
/// slot cap is hit). `schedule` supplies the public period structure handed
/// to the adversary; `trace`, when provided, records per-slot summaries.
///
/// `faults` layers a fault-injection plan (see [`crate::faults`]) between
/// the channel and the receivers: battery-dead and crashed nodes are forced
/// to [`Action::Sleep`]; battery-dead nodes additionally count as halted
/// for the completion check (they can never act again). The trace and the
/// adversary's observations record the **raw** channel resolution —
/// receiver-side degradation is invisible on the air. Slot-budget
/// exhaustion and a fired `deadline` come back as the typed [`SimError`]
/// next to the partial (`completed = false`) outcome.
#[allow(clippy::too_many_arguments)]
pub fn run_exact(
    protocols: &mut [&mut dyn SlotProtocol],
    adversary: &mut dyn SlotAdversary,
    schedule: &dyn Schedule,
    partition: &Partition,
    rng: &mut RcbRng,
    config: ExactConfig,
    trace: Option<&mut Trace>,
    faults: &FaultPlan,
    deadline: &Deadline,
) -> (ExactOutcome, Option<SimError>) {
    let mut scratch = ExactScratch::new(protocols.len());
    run_exact_in(
        &mut scratch,
        protocols,
        adversary,
        schedule,
        partition,
        rng,
        config,
        trace,
        faults,
        deadline,
    )
}

/// Slots between deadline checkpoints in the exact engine's hot loop: the
/// per-slot work is small, so reading the clock every slot would dominate.
const DEADLINE_CHECK_MASK: u64 = 0xFFF;

/// Retained per-session state of the exact engine: the energy ledger, the
/// fault gate and every per-slot buffer. Sessions hold one across runs;
/// [`run_exact`] builds a fresh one per run, so both paths execute the
/// identical slot loop. The outcome clones the ledger (node counts, not
/// slots — the only per-run copy the session layer introduces).
#[derive(Debug)]
pub struct ExactScratch {
    ledger: EnergyLedger,
    actions: Vec<Action>,
    receptions: Vec<Option<Reception>>,
    resolution: SlotResolution,
    gate: Gate,
}

impl ExactScratch {
    pub fn new(nodes: usize) -> Self {
        Self {
            ledger: EnergyLedger::new(nodes),
            actions: Vec::with_capacity(nodes),
            receptions: vec![None; nodes],
            resolution: SlotResolution {
                states: Vec::new(),
                receptions: Vec::new(),
                senders: 0,
            },
            gate: Gate::default(),
        }
    }

    /// Number of nodes this scratch was sized for.
    pub fn nodes(&self) -> usize {
        self.receptions.len()
    }

    /// Zeroes the ledger in place (the session layer's re-arm path); the
    /// per-slot buffers are overwritten every slot and each run arms the
    /// fault gate, so neither needs a reset.
    pub fn rearm(&mut self) {
        self.ledger.reset();
    }
}

/// The slot loop over caller-retained [`ExactScratch`] state. The scratch
/// must be armed (fresh, or [`ExactScratch::rearm`]ed since its last run).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_exact_in(
    scratch: &mut ExactScratch,
    protocols: &mut [&mut dyn SlotProtocol],
    adversary: &mut dyn SlotAdversary,
    schedule: &dyn Schedule,
    partition: &Partition,
    rng: &mut RcbRng,
    config: ExactConfig,
    mut trace: Option<&mut Trace>,
    faults: &FaultPlan,
    deadline: &Deadline,
) -> (ExactOutcome, Option<SimError>) {
    assert_eq!(
        protocols.len(),
        partition.nodes(),
        "one protocol per partition slot"
    );
    assert_eq!(
        protocols.len(),
        scratch.nodes(),
        "scratch sized for a different node count"
    );
    debug_assert!(faults.validate(scratch.nodes()).is_ok(), "invalid faults");
    let ExactScratch {
        ledger,
        actions,
        receptions,
        resolution,
        gate,
    } = scratch;
    gate.arm(faults, protocols.len(), Some);
    // `FaultPlan::none()` splits no fault stream, so every coin flip below
    // stays bit-identical to the unfaulted engine.
    let mut loss = LossCoins::new(faults, rng);

    // Deadline checkpoints consume no RNG; the `is_unbounded` gate keeps
    // even the cadenced clock read off the default (unbounded) path.
    let bounded = !deadline.is_unbounded();

    let mut slot = 0u64;
    let err = loop {
        if slot >= config.max_slots {
            break Some(SimError::SlotBudgetExhausted {
                max_slots: config.max_slots,
                slots: slot,
            });
        }
        if bounded && slot & DEADLINE_CHECK_MASK == 0 && deadline.exceeded() {
            break Some(SimError::DeadlineExceeded { slots: slot });
        }
        let loc = schedule.locate(slot);
        if loc.offset == 0 {
            if let Some(node) = gate.boundary(loc.period, |i| ledger.node_cost(i)) {
                protocols[node].reboot();
            }
        }
        if gate.halted(protocols.iter().map(|p| p.is_done())) {
            break None;
        }
        let ctx = SlotContext {
            slot,
            period: loc.period,
            offset: loc.offset,
            period_len: loc.len,
            groups: partition.groups(),
        };
        // Adversary commits before node coins are flipped (§1.2).
        let jam = adversary.decide(&ctx);

        actions.clear();
        for (p, &off) in protocols.iter_mut().zip(&gate.off) {
            // Radio off: no acting, no coin flips — the protocol's RNG
            // stream pauses with its radio (and resumes in sync, because
            // the fast engines skip whole-period sampling the same way).
            actions.push(if off { Action::Sleep } else { p.act(rng) });
        }

        resolve_slot_into(actions, &jam, partition, ledger, resolution);
        if let Some(t) = trace.as_deref_mut() {
            t.record(slot, jam.jam_mask, resolution);
        }

        receptions.fill(None);
        for (node, reception) in &resolution.receptions {
            let skewed = loc.offset < faults.skew_slots(*node);
            receptions[*node] = Some(degrade(reception, skewed, &mut loss));
        }
        for (i, p) in protocols.iter_mut().enumerate() {
            p.end_slot(receptions[i].as_ref());
        }

        adversary.observe(&SlotObservation {
            ctx,
            actions,
            resolution,
        });
        slot += 1;
    };
    // A run that halted by the time a cap or the deadline fired completed.
    let completed = gate.halted(protocols.iter().map(|p| p.is_done()));
    (
        ExactOutcome {
            ledger: ledger.clone(),
            slots: slot,
            completed,
        },
        err.filter(|_| !completed),
    )
}

/// The receiver rule the duel and fast engines share: a `skewed` slot is
/// noise and draws no coin; a payload that would decode is lost (heard as
/// noise) on one coin from `loss`; anything else is heard as resolved.
fn degrade(reception: &Reception, skewed: bool, loss: &mut LossCoins) -> Reception {
    match reception {
        _ if skewed => Reception::Noise,
        Reception::Received(_) if loss.lost() => Reception::Noise,
        heard => heard.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rcb_adversary::adapter::{JamTarget, RepAsSlotAdversary};
    use rcb_adversary::rep_strategies::BudgetedRepBlocker;
    use rcb_adversary::slot_strategies::NoJam;
    use rcb_adversary::traits::RepetitionAdversary;
    use rcb_channel::Payload;
    use rcb_core::one_to_n::{OneToNParams, OneToNSchedule, OneToNSlotNode};
    use rcb_core::one_to_one::profile::Fig1Profile;
    use rcb_core::one_to_one::schedule::DuelSchedule;
    use rcb_core::one_to_one::slot::{AliceProtocol, BobProtocol};

    fn fig1_pair(
        start_epoch: u32,
    ) -> (
        AliceProtocol<Fig1Profile>,
        BobProtocol<Fig1Profile>,
        DuelSchedule,
    ) {
        let profile = Fig1Profile::with_start_epoch(0.1, start_epoch);
        (
            AliceProtocol::new(profile),
            BobProtocol::new(profile),
            DuelSchedule::new(start_epoch),
        )
    }

    #[test]
    fn unjammed_duel_delivers_and_halts_fast() {
        let mut delivered = 0;
        let trials = 50;
        for seed in 0..trials {
            let (mut alice, mut bob, schedule) = fig1_pair(6);
            let mut rng = RcbRng::new(seed);
            let mut adv = NoJam;
            let partition = Partition::pair();
            let out = run_exact(
                &mut [&mut alice, &mut bob],
                &mut adv,
                &schedule,
                &partition,
                &mut rng,
                ExactConfig::default(),
                None,
                &FaultPlan::none(),
                &Deadline::NONE,
            )
            .0;
            assert!(out.completed, "unjammed duel must halt");
            assert_eq!(out.ledger.adversary_cost(), 0);
            if bob.received_message() {
                delivered += 1;
            }
            // With no jamming both should halt within very few epochs:
            // epoch 6 + margin.
            assert!(out.slots < 4096, "slots {}", out.slots);
        }
        // ε = 0.1 nominal; small start epoch weakens the constant a bit.
        // Expect the vast majority of runs to deliver.
        assert!(
            delivered >= trials * 8 / 10,
            "delivered {delivered}/{trials}"
        );
    }

    #[test]
    fn jamming_inflates_costs_and_charges_adversary() {
        let (mut alice, mut bob, schedule) = fig1_pair(6);
        let mut rng = RcbRng::new(7);
        // Fully block early phases with a healthy budget.
        let mut adv = RepAsSlotAdversary::duel(BudgetedRepBlocker::new(2_000, 1.0));
        let partition = Partition::pair();
        let out = run_exact(
            &mut [&mut alice, &mut bob],
            &mut adv,
            &schedule,
            &partition,
            &mut rng,
            ExactConfig::default(),
            None,
            &FaultPlan::none(),
            &Deadline::NONE,
        )
        .0;
        assert!(out.completed);
        assert!(out.ledger.adversary_cost() > 0);
        // Heavy early jamming must push the pair past the first epoch.
        assert!(out.slots > 128, "slots {}", out.slots);
    }

    /// Runs `protocols` to completion against a full blocker with inner
    /// budget `budget` aimed at `target`; returns the ledger's adversary
    /// charge and the inner strategy's spend.
    fn ledger_and_inner_spend(
        protocols: &mut [&mut dyn SlotProtocol],
        schedule: &dyn Schedule,
        partition: &Partition,
        target: JamTarget,
        budget: u64,
        seed: u64,
    ) -> (u64, u64) {
        let blocker = BudgetedRepBlocker::new(budget, 1.0);
        let mut adv = RepAsSlotAdversary::new(blocker, target, protocols.len());
        let out = run_exact(
            protocols,
            &mut adv,
            schedule,
            partition,
            &mut RcbRng::new(seed),
            ExactConfig::default(),
            None,
            &FaultPlan::none(),
            &Deadline::NONE,
        )
        .0;
        assert!(out.completed, "seed {seed}");
        let left = adv.inner().remaining_budget().expect("budgeted");
        (out.ledger.adversary_cost(), budget - left)
    }

    #[test]
    fn a_group_mask_charges_the_ledger_once_per_group_and_slot() {
        for seed in 0..8 {
            // Both groups of the pair partition: 2 ledger units per slot
            // the inner strategy pays 1 for (E9's combined device).
            let (mut alice, mut bob, schedule) = fig1_pair(6);
            let (ledger, spent) = ledger_and_inner_spend(
                &mut [&mut alice, &mut bob],
                &schedule,
                &Partition::pair(),
                JamTarget::Mask(0b11),
                1_000,
                seed,
            );
            assert!(spent > 0, "seed {seed}: the blocker jams");
            assert_eq!(ledger, 2 * spent, "seed {seed}: two groups");

            // One group of a custom partition: 1 unit per slot (E14's
            // 2-uniform row).
            let mut params = OneToNParams::practical();
            params.first_epoch = 4;
            let mut nodes: Vec<OneToNSlotNode> = (0..4)
                .map(|u| OneToNSlotNode::new(params, u == 0))
                .collect();
            let mut refs: Vec<&mut dyn SlotProtocol> = Vec::new();
            for node in nodes.iter_mut() {
                refs.push(node);
            }
            let (ledger, spent) = ledger_and_inner_spend(
                &mut refs,
                &OneToNSchedule::new(params),
                &Partition::custom(vec![0, 1, 0, 1]),
                JamTarget::Mask(0b10),
                1_000,
                seed,
            );
            assert!(spent > 0, "seed {seed}: the blocker jams");
            assert_eq!(ledger, spent, "seed {seed}: one group");
        }
    }

    #[test]
    fn trace_records_slots() {
        let (mut alice, mut bob, schedule) = fig1_pair(5);
        let mut rng = RcbRng::new(8);
        let mut adv = NoJam;
        let partition = Partition::pair();
        let mut trace = Trace::with_capacity(64);
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
        assert!(!trace.is_empty());
    }

    #[test]
    fn slot_cap_truncates() {
        let (mut alice, mut bob, schedule) = fig1_pair(8);
        let mut rng = RcbRng::new(9);
        let mut adv = NoJam;
        let partition = Partition::pair();
        let out = run_exact(
            &mut [&mut alice, &mut bob],
            &mut adv,
            &schedule,
            &partition,
            &mut rng,
            ExactConfig { max_slots: 10 },
            None,
            &FaultPlan::none(),
            &Deadline::NONE,
        )
        .0;
        assert_eq!(out.slots, 10);
        assert!(!out.completed);
    }

    #[test]
    fn checked_run_reports_slot_budget_exhaustion() {
        let (mut alice, mut bob, schedule) = fig1_pair(8);
        let mut rng = RcbRng::new(9);
        let mut adv = NoJam;
        let partition = Partition::pair();
        let err = run_exact(
            &mut [&mut alice, &mut bob],
            &mut adv,
            &schedule,
            &partition,
            &mut rng,
            ExactConfig { max_slots: 10 },
            None,
            &FaultPlan::none(),
            &Deadline::NONE,
        )
        .1
        .expect("10 slots cannot finish a duel");
        assert_eq!(
            err,
            SimError::SlotBudgetExhausted {
                max_slots: 10,
                slots: 10
            }
        );
    }

    #[test]
    fn an_elapsed_deadline_stops_the_slot_loop_with_a_typed_error() {
        let (mut alice, mut bob, schedule) = fig1_pair(8);
        let mut rng = RcbRng::new(9);
        let mut adv = NoJam;
        let partition = Partition::pair();
        let (out, err) = run_exact(
            &mut [&mut alice, &mut bob],
            &mut adv,
            &schedule,
            &partition,
            &mut rng,
            ExactConfig::default(),
            None,
            &FaultPlan::none(),
            &Deadline::after(std::time::Duration::ZERO),
        );
        // The checkpoint at slot 0 fires before any work happens.
        assert_eq!(out.slots, 0);
        assert!(!out.completed);
        assert_eq!(err, Some(SimError::DeadlineExceeded { slots: 0 }));
    }

    #[test]
    fn battery_brownout_halts_the_run() {
        // A 1-unit battery dies at the first period boundary after any
        // activity; the run then completes with both nodes offline.
        let (mut alice, mut bob, schedule) = fig1_pair(6);
        let mut rng = RcbRng::new(11);
        let mut adv = NoJam;
        let partition = Partition::pair();
        let out = run_exact(
            &mut [&mut alice, &mut bob],
            &mut adv,
            &schedule,
            &partition,
            &mut rng,
            ExactConfig::default(),
            None,
            &FaultPlan::none().with_battery(1),
            &Deadline::NONE,
        )
        .0;
        assert!(out.completed, "dead nodes count as halted");
        assert!(
            out.slots < 4096,
            "both batteries die within a few phases, got {}",
            out.slots
        );
        for i in 0..2 {
            let cost = out.ledger.node_cost(i);
            assert!(
                cost < 256,
                "node {i}: cap 1 + at most one period of overshoot, got {cost}"
            );
        }
    }

    #[test]
    fn crashed_node_sleeps_through_its_window() {
        // Crash Bob for the entire run: he never acts, so his ledger stays
        // empty and Alice eventually gives up on her own.
        let (mut alice, mut bob, schedule) = fig1_pair(6);
        let mut rng = RcbRng::new(12);
        let mut adv = NoJam;
        let partition = Partition::pair();
        let out = run_exact(
            &mut [&mut alice, &mut bob],
            &mut adv,
            &schedule,
            &partition,
            &mut rng,
            ExactConfig::default(),
            None,
            &FaultPlan::none().with_crash(1, 0, u64::MAX, false),
            &Deadline::NONE,
        )
        .0;
        assert_eq!(out.ledger.node_cost(1), 0, "radio off costs nothing");
        assert!(out.ledger.node_cost(0) > 0, "Alice still runs");
    }

    /// Every reception a listener can resolve to.
    fn receptions() -> [Reception; 3] {
        [
            Reception::Clear,
            Reception::Noise,
            Reception::Received(Payload::message()),
        ]
    }

    #[test]
    fn an_empty_plan_draws_nothing_and_degrades_nothing() {
        let mut rng = RcbRng::new(7);
        let mut loss = LossCoins::new(&FaultPlan::none(), &mut rng);
        assert_eq!(rng, RcbRng::new(7), "no fault stream is split off");
        for r in receptions() {
            assert_eq!(degrade(&r, false, &mut loss), r);
        }
        assert_eq!(loss, LossCoins::default(), "no coins consumed");
    }

    #[test]
    fn skew_yields_noise_and_draws_no_coin() {
        let mut loss = LossCoins::new(&FaultPlan::none().with_loss(0.5), &mut RcbRng::new(8));
        let before = loss.clone();
        for r in receptions() {
            assert_eq!(degrade(&r, true, &mut loss), Reception::Noise);
        }
        assert_eq!(loss, before, "skew consumes no loss coin");
    }

    #[test]
    fn loss_touches_only_decodable_payloads() {
        let mut loss = LossCoins::new(&FaultPlan::none().with_loss(0.5), &mut RcbRng::new(9));
        let before = loss.clone();
        assert_eq!(
            degrade(&Reception::Clear, false, &mut loss),
            Reception::Clear
        );
        assert_eq!(
            degrade(&Reception::Noise, false, &mut loss),
            Reception::Noise
        );
        assert_eq!(loss, before, "no coin for a slot that would not decode");
        // One coin per payload; a lost one is heard as noise (the energy was
        // real, only the decode failed).
        let m = Reception::Received(Payload::message());
        let mut reference = before;
        for _ in 0..64 {
            let expected = if reference.lost() {
                Reception::Noise
            } else {
                m.clone()
            };
            assert_eq!(degrade(&m, false, &mut loss), expected);
        }
        assert_eq!(loss, reference);
    }

    proptest! {
        /// No fault creates a reception: each comes out as resolved or as
        /// noise, and a skewed slot is always noise.
        #[test]
        fn faults_never_create_receptions(
            skewed in any::<bool>(),
            loss_p in 0.0f64..=1.0,
            seed in any::<u64>(),
        ) {
            let plan = FaultPlan::none().with_loss(loss_p);
            let mut loss = LossCoins::new(&plan, &mut RcbRng::new(seed));
            for heard in receptions() {
                let out = degrade(&heard, skewed, &mut loss);
                prop_assert!(
                    out == Reception::Noise || (!skewed && out == heard),
                    "{:?} became {:?}", heard, out
                );
            }
        }
    }

    #[test]
    #[should_panic]
    fn partition_size_mismatch_panics() {
        let (mut alice, _, schedule) = fig1_pair(5);
        let mut rng = RcbRng::new(10);
        let mut adv = NoJam;
        let partition = Partition::pair(); // 2 slots, 1 protocol
        run_exact(
            &mut [&mut alice],
            &mut adv,
            &schedule,
            &partition,
            &mut rng,
            ExactConfig::default(),
            None,
            &FaultPlan::none(),
            &Deadline::NONE,
        );
    }
}
