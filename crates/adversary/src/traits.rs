//! Adversary interfaces and the information they are allowed to see.
//!
//! The model (§1.2): the adversary is adaptive — "she knows the actions of
//! all nodes in previous time slots and uses this information to inform
//! future attacks" — and knows the protocol, including its deterministic
//! schedule (epoch/phase/repetition boundaries), but never the random bits
//! of the current slot. The engines enforce this by consulting the adversary
//! *before* sampling node actions for the slot, and showing her the resolved
//! slot only afterwards.

use rcb_channel::slot::{Action, JamDecision, SlotResolution};
use rcb_channel::Slot;

/// Public-schedule information available to the adversary at the start of a
/// slot. Periods are the protocol's deterministic units (a phase of the
/// 1-to-1 protocol, a repetition of the 1-to-n protocol); their boundaries
/// are public knowledge because the protocol is public.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotContext {
    /// Global slot index since the start of the execution.
    pub slot: Slot,
    /// Index of the current period.
    pub period: u64,
    /// Slot offset within the current period.
    pub offset: u64,
    /// Length of the current period in slots.
    pub period_len: u64,
    /// Number of jamming groups in the partition.
    pub groups: usize,
}

impl SlotContext {
    /// Bitmask covering every group.
    pub fn all_groups_mask(&self) -> u64 {
        if self.groups >= 64 {
            u64::MAX
        } else {
            (1u64 << self.groups.max(1)) - 1
        }
    }
}

/// What the adversary observes once a slot has resolved: everyone's actions
/// and the resulting channel states. (She paid for the slot already; this
/// is the "previous time slots" knowledge for *future* decisions.)
#[derive(Debug)]
pub struct SlotObservation<'a> {
    pub ctx: SlotContext,
    pub actions: &'a [Action],
    pub resolution: &'a SlotResolution,
}

/// A slot-granularity adversary, consulted by the exact engine.
pub trait SlotAdversary {
    /// Decide the jamming/spoofing move for the upcoming slot. Called
    /// before node actions for the slot are sampled.
    fn decide(&mut self, ctx: &SlotContext) -> JamDecision;

    /// Observe the resolved slot (adaptive strategies update state here).
    fn observe(&mut self, _obs: &SlotObservation<'_>) {}
}

/// A jam plan for one whole repetition of the 1-to-n protocol.
///
/// `Suffix` is the canonical (Lemma 1) form: jam the last `k` slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JamPlan {
    /// Leave the repetition alone.
    None,
    /// Jam the final `k` slots of the repetition.
    Suffix(u64),
    /// Jam an explicit, sorted, deduplicated set of slot offsets.
    Slots(Vec<u64>),
    /// Jam every slot.
    All,
}

impl JamPlan {
    /// Number of slots this plan jams within a repetition of `len` slots.
    pub fn jam_count(&self, len: u64) -> u64 {
        match self {
            JamPlan::None => 0,
            JamPlan::Suffix(k) => (*k).min(len),
            JamPlan::Slots(v) => v.iter().filter(|&&s| s < len).count() as u64,
            JamPlan::All => len,
        }
    }

    /// Where the plan's jammed suffix of a `len`-slot repetition starts:
    /// every offset `t < len` is jammed exactly when `t ≥` the returned
    /// start (`len` for no jamming, 0 for all of it). `None` for a
    /// scattered [`Slots`](JamPlan::Slots) plan, which is no suffix.
    pub fn suffix_start(&self, len: u64) -> Option<u64> {
        match self {
            JamPlan::None => Some(len),
            JamPlan::Suffix(k) => Some(len - (*k).min(len)),
            JamPlan::Slots(_) => None,
            JamPlan::All => Some(0),
        }
    }

    /// Whether slot `offset` is jammed under this plan.
    pub fn is_jammed(&self, offset: u64, len: u64) -> bool {
        match self {
            JamPlan::None => false,
            JamPlan::Suffix(k) => offset >= len.saturating_sub(*k),
            JamPlan::Slots(v) => v.binary_search(&offset).is_ok(),
            JamPlan::All => offset < len,
        }
    }
}

/// Schedule information for one repetition of the 1-to-n protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepetitionContext {
    /// Epoch index `i` (the repetition has `2^i` slots).
    pub epoch: u32,
    /// The run-global period index: repetitions counted from the start of
    /// the run across every epoch (and, in the duel, its phases), not
    /// restarted at each epoch. Strategies that alternate by repetition
    /// (`KeepAliveBlocker`'s parity) key on it.
    pub repetition: u64,
    /// Number of slots in the repetition (`2^i`).
    pub slots: u64,
    /// Number of nodes that have not terminated (observable: the adversary
    /// has seen every past action, so it knows who has gone silent).
    pub active_nodes: usize,
}

/// Aggregate observation of a finished repetition — everything the fast
/// engine can cheaply expose, and no more than the model allows (actions,
/// not internal state).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RepetitionSummary {
    /// Slots in which exactly one node transmitted the message `m`.
    pub message_slots: u64,
    /// Slots containing at least one transmission (any payload).
    pub busy_slots: u64,
    /// Slots the plan jammed.
    pub jammed_slots: u64,
    /// Total listen actions across nodes.
    pub listen_actions: u64,
    /// Total send actions across nodes.
    pub send_actions: u64,
}

/// A repetition-granularity adversary, consulted by the fast engine.
pub trait RepetitionAdversary {
    /// Plan the jamming for the upcoming repetition.
    fn plan(&mut self, ctx: &RepetitionContext) -> JamPlan;

    /// Observe the aggregate outcome of the repetition just resolved.
    fn observe(&mut self, _ctx: &RepetitionContext, _summary: &RepetitionSummary) {}

    /// Remaining budget in slot units, if bounded.
    fn remaining_budget(&self) -> Option<u64> {
        None
    }

    /// Re-arms the strategy to its just-constructed state: full budget,
    /// reset learning state, reset internal RNG (seeded strategies re-derive
    /// their stream from the construction seed). The streaming workload's
    /// per-message allocation policy calls this between messages; the
    /// default is a no-op, correct for stateless strategies.
    fn rearm(&mut self) {}
}

/// Boxed strategies forward, so `Box<dyn RepetitionAdversary>` plugs into
/// anything generic over `A: RepetitionAdversary` (e.g. the conformance
/// harness, which builds a fresh boxed strategy per trial per engine).
impl<A: RepetitionAdversary + ?Sized> RepetitionAdversary for Box<A> {
    fn plan(&mut self, ctx: &RepetitionContext) -> JamPlan {
        (**self).plan(ctx)
    }

    fn observe(&mut self, ctx: &RepetitionContext, summary: &RepetitionSummary) {
        (**self).observe(ctx, summary)
    }

    fn remaining_budget(&self) -> Option<u64> {
        (**self).remaining_budget()
    }

    fn rearm(&mut self) {
        (**self).rearm()
    }
}

/// Mutable borrows forward too, so a caller that owns a strategy across
/// runs (the session layer's streaming loop) can lend it to an adapter
/// that is generic over `A: RepetitionAdversary` by value.
impl<A: RepetitionAdversary + ?Sized> RepetitionAdversary for &mut A {
    fn plan(&mut self, ctx: &RepetitionContext) -> JamPlan {
        (**self).plan(ctx)
    }

    fn observe(&mut self, ctx: &RepetitionContext, summary: &RepetitionSummary) {
        (**self).observe(ctx, summary)
    }

    fn remaining_budget(&self) -> Option<u64> {
        (**self).remaining_budget()
    }

    fn rearm(&mut self) {
        (**self).rearm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_groups_mask_covers_partition() {
        let ctx = SlotContext {
            slot: 0,
            period: 0,
            offset: 0,
            period_len: 8,
            groups: 2,
        };
        assert_eq!(ctx.all_groups_mask(), 0b11);
        let one = SlotContext { groups: 1, ..ctx };
        assert_eq!(one.all_groups_mask(), 0b1);
        let zero = SlotContext { groups: 0, ..ctx };
        assert_eq!(zero.all_groups_mask(), 0b1, "degenerate: at least group 0");
    }

    #[test]
    fn jam_plan_counts() {
        assert_eq!(JamPlan::None.jam_count(16), 0);
        assert_eq!(JamPlan::All.jam_count(16), 16);
        assert_eq!(JamPlan::Suffix(4).jam_count(16), 4);
        assert_eq!(JamPlan::Suffix(99).jam_count(16), 16, "suffix clamps");
        assert_eq!(JamPlan::Slots(vec![1, 5, 20]).jam_count(16), 2);
    }

    #[test]
    fn jam_plan_membership() {
        let suffix = JamPlan::Suffix(4);
        assert!(!suffix.is_jammed(11, 16));
        assert!(suffix.is_jammed(12, 16));
        assert!(suffix.is_jammed(15, 16));

        let slots = JamPlan::Slots(vec![0, 3, 7]);
        assert!(slots.is_jammed(3, 8));
        assert!(!slots.is_jammed(4, 8));

        assert!(JamPlan::All.is_jammed(0, 8));
        assert!(!JamPlan::None.is_jammed(0, 8));
    }

    #[test]
    fn suffix_start_is_where_membership_begins() {
        let len = 16;
        assert_eq!(JamPlan::None.suffix_start(len), Some(len));
        assert_eq!(JamPlan::Suffix(0).suffix_start(len), Some(len));
        assert_eq!(JamPlan::Suffix(4).suffix_start(len), Some(12));
        assert_eq!(JamPlan::Suffix(len).suffix_start(len), Some(0));
        assert_eq!(JamPlan::Suffix(99).suffix_start(len), Some(0), "k > len");
        assert_eq!(JamPlan::Suffix(u64::MAX).suffix_start(len), Some(0));
        assert_eq!(JamPlan::All.suffix_start(len), Some(0));
        assert_eq!(JamPlan::Slots(vec![3, 15]).suffix_start(len), None);
        for plan in [
            JamPlan::None,
            JamPlan::Suffix(0),
            JamPlan::Suffix(5),
            JamPlan::Suffix(99),
            JamPlan::All,
        ] {
            let start = plan.suffix_start(len).unwrap();
            for t in 0..len {
                assert_eq!(plan.is_jammed(t, len), t >= start, "{plan:?} slot {t}");
            }
            assert_eq!(plan.jam_count(len), len - start, "{plan:?}");
        }
    }

    #[test]
    fn suffix_longer_than_period_jams_everything() {
        let plan = JamPlan::Suffix(100);
        for s in 0..8 {
            assert!(plan.is_jammed(s, 8));
        }
    }
}
