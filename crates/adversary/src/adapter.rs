//! Granularity adapter: drive the exact engine with a
//! [`RepetitionAdversary`].
//!
//! Every planned jammer is a repetition strategy, and this adapter is how
//! the exact engine runs one, so a cross-engine comparison never confounds
//! engine drift with adversary drift. [`RepAsSlotAdversary`] asks the
//! wrapped strategy for a [`JamPlan`] at each period boundary and unrolls
//! it slot by slot, targeting the groups the fast engines charge for.
//!
//! The wrapped strategy counts jammed *slots*; the exact engine's ledger
//! counts (group, slot) pairs. A [`JamTarget::Mask`] of `k` groups is
//! charged `k` ledger units per jammed slot, so it takes an inner budget of
//! `T / k` to spend `T`.

use crate::traits::{
    JamPlan, RepetitionAdversary, RepetitionContext, RepetitionSummary, SlotAdversary, SlotContext,
    SlotObservation,
};
use rcb_channel::message::PayloadKind;
use rcb_channel::slot::{Action, JamDecision};

/// Which groups a plan's jammed slots should hit in the exact engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JamTarget {
    /// Figure 1 pair partition: jam the **listening** party's group — Bob
    /// (group 1) in send phases (even periods), Alice (group 0) in nack
    /// phases (odd periods). Jamming the speaker is wasted energy, and this
    /// is the 1-unit-per-slot accounting the fast duel engine uses.
    DuelListener,
    /// Jam a fixed group mask every jammed slot (e.g. `1` for the 1-uniform
    /// broadcast partition).
    Mask(u64),
}

impl JamTarget {
    fn mask_for(&self, period: u64) -> u64 {
        match self {
            JamTarget::DuelListener => {
                if period.is_multiple_of(2) {
                    1 << 1 // send phase: Bob listens
                } else {
                    1 << 0 // nack phase: Alice listens
                }
            }
            JamTarget::Mask(m) => *m,
        }
    }
}

/// Wraps a [`RepetitionAdversary`] as a [`SlotAdversary`].
///
/// Per period the adapter (1) flushes the previous period's
/// [`RepetitionSummary`] to the inner strategy, (2) requests a fresh
/// [`JamPlan`], and (3) answers each slot's `decide` from that plan. Action
/// counts for the summaries are accumulated from the slot observations, so
/// adaptive strategies (e.g. `BanditBlocker`) see the same aggregate feed on
/// both engines.
#[derive(Debug)]
pub struct RepAsSlotAdversary<A> {
    inner: A,
    target: JamTarget,
    /// Period the current plan belongs to, with its context.
    current: Option<(RepetitionContext, JamPlan)>,
    summary: RepetitionSummary,
    /// Nodes that acted at least once in the current period; feeds the next
    /// period's `active_nodes` (the adversary only knows *past* actions).
    acted: Vec<bool>,
    active_nodes: usize,
}

impl<A: RepetitionAdversary> RepAsSlotAdversary<A> {
    /// `nodes` seeds `active_nodes` for the first period, before any
    /// observation exists.
    pub fn new(inner: A, target: JamTarget, nodes: usize) -> Self {
        Self {
            inner,
            target,
            current: None,
            summary: RepetitionSummary::default(),
            acted: vec![false; nodes],
            active_nodes: nodes,
        }
    }

    /// Convenience for the Figure 1 pair partition.
    pub fn duel(inner: A) -> Self {
        Self::new(inner, JamTarget::DuelListener, 2)
    }

    /// Convenience for the 1-uniform broadcast partition over `n` nodes.
    pub fn broadcast(inner: A, n: usize) -> Self {
        Self::new(inner, JamTarget::Mask(1), n)
    }

    /// Flushes the pending period summary (call after the run ends so the
    /// inner strategy observes the final period) and returns the inner
    /// strategy.
    pub fn finish(mut self) -> A {
        self.flush();
        self.inner
    }

    /// The wrapped strategy.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Re-arms the adapter *and* the wrapped strategy to the
    /// just-constructed state: pending plan and summary discarded (no final
    /// observation — the run they belonged to is being abandoned, not
    /// finished), activity bitmap cleared, `active_nodes` reseeded to the
    /// full node count.
    pub fn rearm(&mut self) {
        self.inner.rearm();
        self.current = None;
        self.summary = RepetitionSummary::default();
        let nodes = self.acted.len();
        self.acted.fill(false);
        self.active_nodes = nodes;
    }

    fn flush(&mut self) {
        if let Some((ctx, _)) = self.current.take() {
            self.inner.observe(&ctx, &self.summary);
            self.summary = RepetitionSummary::default();
            self.active_nodes = self.acted.iter().filter(|&&a| a).count().max(1);
            self.acted.fill(false);
        }
    }
}

impl<A: RepetitionAdversary> SlotAdversary for RepAsSlotAdversary<A> {
    fn decide(&mut self, ctx: &SlotContext) -> JamDecision {
        let stale = match &self.current {
            Some((rep_ctx, _)) => rep_ctx.repetition != ctx.period,
            None => true,
        };
        if stale {
            self.flush();
            // Period lengths are powers of two (2^epoch) for every schedule
            // in this workspace, so the epoch is recoverable from the
            // length. A non-power-of-two length rounds down, which only
            // affects strategies keying on `epoch` rather than `slots`.
            let epoch = 63 - ctx.period_len.max(1).leading_zeros();
            let rep_ctx = RepetitionContext {
                epoch,
                repetition: ctx.period,
                slots: ctx.period_len,
                active_nodes: self.active_nodes,
            };
            let plan = self.inner.plan(&rep_ctx);
            self.summary.jammed_slots = plan.jam_count(ctx.period_len);
            self.current = Some((rep_ctx, plan));
        }
        let (rep_ctx, plan) = self.current.as_ref().expect("plan installed above");
        if plan.is_jammed(ctx.offset, rep_ctx.slots) {
            JamDecision {
                jam_mask: self.target.mask_for(ctx.period) & ctx.all_groups_mask(),
                inject: None,
            }
        } else {
            JamDecision::none()
        }
    }

    fn observe(&mut self, obs: &SlotObservation<'_>) {
        let mut senders = 0u64;
        let mut message_senders = 0u64;
        for (node, action) in obs.actions.iter().enumerate() {
            match action {
                Action::Send(payload) => {
                    senders += 1;
                    if payload.kind() == PayloadKind::Message {
                        message_senders += 1;
                    }
                    self.acted[node] = true;
                }
                Action::Listen => {
                    self.summary.listen_actions += 1;
                    self.acted[node] = true;
                }
                Action::Sleep => {}
            }
        }
        self.summary.send_actions += senders;
        if senders > 0 {
            self.summary.busy_slots += 1;
        }
        if senders == 1 && message_senders == 1 {
            self.summary.message_slots += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rep_strategies::{BudgetedRepBlocker, KeepAliveBlocker};
    use rcb_channel::message::Payload;
    use rcb_channel::slot::SlotResolution;

    fn slot_ctx(period: u64, offset: u64, len: u64) -> SlotContext {
        SlotContext {
            slot: period * len + offset,
            period,
            offset,
            period_len: len,
            groups: 2,
        }
    }

    /// Drive the adapter through whole periods and collect per-slot jam
    /// decisions.
    fn drive(
        adapter: &mut RepAsSlotAdversary<BudgetedRepBlocker>,
        periods: u64,
        len: u64,
    ) -> Vec<Vec<u64>> {
        (0..periods)
            .map(|p| {
                (0..len)
                    .map(|o| adapter.decide(&slot_ctx(p, o, len)).jam_mask)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn duel_target_jams_the_listening_group() {
        // Full blocking, ample budget: every slot of period 0 must jam
        // group 1 (Bob listens in send phases), period 1 group 0.
        let mut adapter = RepAsSlotAdversary::duel(BudgetedRepBlocker::new(1 << 30, 1.0));
        let masks = drive(&mut adapter, 2, 8);
        assert!(masks[0].iter().all(|&m| m == 0b10), "send phase: Bob");
        assert!(masks[1].iter().all(|&m| m == 0b01), "nack phase: Alice");
    }

    #[test]
    fn integrated_slot_cost_equals_plan_cost() {
        // q = 0.5 over 16-slot periods: each affordable plan jams
        // ceil(8) = 8 suffix slots of exactly one group.
        let mut adapter = RepAsSlotAdversary::duel(BudgetedRepBlocker::new(20, 0.5));
        let masks = drive(&mut adapter, 4, 16);
        let per_period: Vec<u64> = masks
            .iter()
            .map(|p| p.iter().map(|m| m.count_ones() as u64).sum())
            .collect();
        // Budget 20 affords two 8-slot plans, then nothing.
        assert_eq!(per_period, vec![8, 8, 0, 0]);
        assert_eq!(adapter.inner().remaining_budget(), Some(4));
        // Jammed slots are the period suffix.
        assert!(masks[0][..8].iter().all(|&m| m == 0));
        assert!(masks[0][8..].iter().all(|&m| m != 0));
    }

    #[test]
    fn keep_alive_strategy_behaves_identically_through_the_adapter() {
        // The wrapped strategy sees the same (period, len) stream as it
        // would from the fast engine, so its plan sequence is identical.
        let mut direct = KeepAliveBlocker::new(100, 0.25);
        let mut adapter = RepAsSlotAdversary::duel(KeepAliveBlocker::new(100, 0.25));
        for period in 0..6u64 {
            let len = 16u64;
            let plan = direct.plan(&RepetitionContext {
                epoch: 4,
                repetition: period,
                slots: len,
                active_nodes: 2,
            });
            let adapted: u64 = (0..len)
                .map(|o| adapter.decide(&slot_ctx(period, o, len)).jam_count())
                .sum();
            assert_eq!(adapted, plan.jam_count(len), "period {period}");
        }
        assert_eq!(
            adapter.inner().remaining_budget(),
            direct.remaining_budget(),
            "same spend on both paths"
        );
    }

    #[test]
    fn summaries_aggregate_actions_per_period() {
        let mut adapter = RepAsSlotAdversary::duel(BudgetedRepBlocker::new(0, 1.0));
        let resolution = SlotResolution {
            states: vec![],
            receptions: vec![],
            senders: 0,
        };
        // Period 0, two slots: Alice sends m then both sleep + Bob listens.
        adapter.decide(&slot_ctx(0, 0, 2));
        adapter.observe(&SlotObservation {
            ctx: slot_ctx(0, 0, 2),
            actions: &[Action::Send(Payload::message()), Action::Listen],
            resolution: &resolution,
        });
        adapter.decide(&slot_ctx(0, 1, 2));
        adapter.observe(&SlotObservation {
            ctx: slot_ctx(0, 1, 2),
            actions: &[Action::Sleep, Action::Listen],
            resolution: &resolution,
        });
        // Entering period 1 flushes period 0's summary into the inner
        // strategy; inspect via a fresh decide then finish().
        adapter.decide(&slot_ctx(1, 0, 2));
        assert_eq!(adapter.summary, RepetitionSummary::default());
        let _ = adapter.finish();
    }

    #[test]
    fn active_nodes_follow_observed_activity() {
        let mut adapter = RepAsSlotAdversary::duel(BudgetedRepBlocker::new(0, 1.0));
        let resolution = SlotResolution {
            states: vec![],
            receptions: vec![],
            senders: 0,
        };
        adapter.decide(&slot_ctx(0, 0, 1));
        // Only node 0 acts during period 0.
        adapter.observe(&SlotObservation {
            ctx: slot_ctx(0, 0, 1),
            actions: &[Action::Send(Payload::message()), Action::Sleep],
            resolution: &resolution,
        });
        adapter.decide(&slot_ctx(1, 0, 1));
        assert_eq!(adapter.active_nodes, 1, "one active node observed");
    }

    #[test]
    fn broadcast_target_uses_group_zero() {
        let mut adapter = RepAsSlotAdversary::broadcast(BudgetedRepBlocker::new(1 << 30, 1.0), 4);
        let ctx = SlotContext {
            slot: 0,
            period: 0,
            offset: 0,
            period_len: 8,
            groups: 1,
        };
        assert_eq!(adapter.decide(&ctx).jam_mask, 0b1);
    }
}
