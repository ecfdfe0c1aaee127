//! A Figure 2 population and the one repetition loop both broadcast
//! engines ([`fast`](crate::fast), [`cohort`](crate::cohort)) run through.
//!
//! A population is [`Singletons`], the nodes simulated one by one, plus
//! anonymous [`Cohort`]s, which only the cohort engine has. An engine
//! supplies a [`Repetition`] step that draws one repetition;
//! [`run_repetitions`] owns the rest: the epoch schedule, the deadline
//! checkpoint, the fault bookkeeping at repetition boundaries, the
//! adversary's calls, termination and the outcome. It is generic over the
//! step, so it makes no dynamic call but the adversary's and observer's.

use rcb_adversary::traits::{JamPlan, RepetitionAdversary, RepetitionContext, RepetitionSummary};
use rcb_core::one_to_n::node::{OneToNNode, TermReason};
use rcb_core::one_to_n::params::OneToNParams;
use rcb_mathkit::rng::RcbRng;

use crate::deadline::Deadline;
use crate::error::SimError;
use crate::fast::BroadcastObserver;
use crate::faults::FaultPlan;
use crate::outcome::BroadcastOutcome;

/// The nodes simulated one by one: every node in the fast engine and in the
/// cohort engine's all-tracked mode; the sources and fault targets in its
/// aggregate mode. Parallel vectors indexed alike, sorted by node id.
#[derive(Debug)]
pub(crate) struct Singletons {
    pub(crate) ids: Vec<usize>,
    pub(crate) nodes: Vec<OneToNNode>,
    pub(crate) costs: Vec<u64>,
    /// Battery-dead: radio off for good, counted as halted.
    pub(crate) dead: Vec<bool>,
    /// Radio off this repetition (dead or inside the crash window).
    pub(crate) offline: Vec<bool>,
}

impl Singletons {
    /// The nodes `ids` (sorted), those in `sources` informed.
    pub(crate) fn new(params: &OneToNParams, ids: Vec<usize>, sources: &[usize]) -> Self {
        let k = ids.len();
        let nodes = ids
            .iter()
            .map(|u| OneToNNode::new(params, sources.contains(u)));
        Self {
            nodes: nodes.collect(),
            ids,
            costs: vec![0; k],
            dead: vec![false; k],
            offline: vec![false; k],
        }
    }

    /// Returns every node and counter to the just-constructed state,
    /// keeping the allocations.
    pub(crate) fn rearm(&mut self, params: &OneToNParams, sources: &[usize]) {
        for (node, id) in self.nodes.iter_mut().zip(&self.ids) {
            node.rearm(params, sources.contains(id));
        }
        self.costs.fill(0);
        self.dead.fill(false);
        self.offline.fill(false);
    }
}

/// An anonymous cohort: `count` nodes all in exactly the state of `node`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cohort {
    pub(crate) node: OneToNNode,
    pub(crate) count: u64,
    /// Total send+listen cost accrued by the cohort's members, pooled.
    pub(crate) cost_pool: u64,
}

/// What one repetition is drawn under.
pub(crate) struct Rep<'a> {
    /// Its epoch, index in the run (`repetition`) and length (`slots`).
    pub(crate) ctx: RepetitionContext,
    pub(crate) params: &'a OneToNParams,
    pub(crate) faults: &'a FaultPlan,
    pub(crate) plan: &'a JamPlan,
    /// `plan.jam_count(ctx.slots)`.
    pub(crate) jammed: u64,
}

/// An engine's repetition step: everything the engines do differently.
pub(crate) trait Repetition {
    /// Draws one repetition: the channel, every live node's sends and
    /// listens (charged to its cost), and every unterminated node's
    /// repetition epilogue, radio-off singletons included (with zero
    /// counts). Returns what the adversary observes.
    fn resolve(
        &mut self,
        singles: &mut Singletons,
        rep: &Rep<'_>,
        rng: &mut RcbRng,
    ) -> RepetitionSummary;

    /// The anonymous cohorts; none for a per-node engine.
    fn bulk(&self) -> &[Cohort] {
        &[]
    }

    /// Moves the anonymous cohorts into `epoch`.
    fn bulk_begin_epoch(&mut self, _epoch: u32, _params: &OneToNParams) {}
}

/// Members of the population, singletons and cohorts alike, that `pred` holds for.
fn members(singles: &[OneToNNode], bulk: &[Cohort], pred: impl Fn(&OneToNNode) -> bool) -> usize {
    singles.iter().filter(|v| pred(v)).count()
        + bulk
            .iter()
            .filter(|c| pred(&c.node))
            .map(|c| c.count as usize)
            .sum::<usize>()
}

/// Runs one broadcast from the current (armed) population to termination,
/// the epoch cap, or the deadline, with `step` resolving each repetition.
///
/// Faults follow the exact engine's semantics: the battery gauge is read
/// and a pending state-losing reboot fires at each repetition boundary,
/// where the radio-off set is refreshed; battery-dead nodes count as
/// halted. Deadline checkpoints sit at the same boundaries and consume no
/// RNG. `observer` sees the singletons after every repetition.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_repetitions<R: Repetition>(
    singles: &mut Singletons,
    step: &mut R,
    params: &OneToNParams,
    max_epoch: u32,
    faults: &FaultPlan,
    adversary: &mut dyn RepetitionAdversary,
    observer: &mut dyn BroadcastObserver,
    rng: &mut RcbRng,
    deadline: &Deadline,
) -> (BroadcastOutcome, Option<SimError>) {
    let n = members(&singles.nodes, step.bulk(), |_| true);
    let mut adversary_cost = 0u64;
    let mut slots = 0u64;
    let mut period = 0u64;
    let mut truncated = true;
    let mut pending_reboot = faults.reboot_at();
    // The `is_unbounded` gate keeps the clock read off the default path.
    let bounded = !deadline.is_unbounded();
    let mut err = None;

    let mut epoch = params.first_epoch;
    'epochs: while epoch <= max_epoch {
        let len = params.slots(epoch);
        for _ in 0..params.reps(epoch) {
            if bounded && deadline.exceeded() {
                err = Some(SimError::DeadlineExceeded { slots });
                break 'epochs;
            }
            if !faults.is_none() {
                if let Some(cap) = faults.battery_capacity() {
                    for (d, &cost) in singles.dead.iter_mut().zip(&singles.costs) {
                        *d = *d || cost >= cap;
                    }
                }
                if let Some((node, at)) = pending_reboot {
                    if period >= at {
                        if let Ok(i) = singles.ids.binary_search(&node) {
                            singles.nodes[i].reboot(params);
                        }
                        pending_reboot = None;
                    }
                }
                for (i, off) in singles.offline.iter_mut().enumerate() {
                    *off = singles.dead[i] || faults.crashed(singles.ids[i], period);
                }
            }
            let all_halted = singles
                .nodes
                .iter()
                .zip(&singles.dead)
                .all(|(v, &d)| v.is_terminated() || d)
                && step.bulk().iter().all(|c| c.node.is_terminated());
            if all_halted {
                truncated = false;
                break 'epochs;
            }
            let active = singles
                .nodes
                .iter()
                .zip(&singles.offline)
                .filter(|(v, &off)| !v.is_terminated() && !off)
                .count()
                + members(&[], step.bulk(), |v| !v.is_terminated());
            let ctx = RepetitionContext {
                epoch,
                repetition: period,
                slots: len,
                active_nodes: active,
            };
            let plan = adversary.plan(&ctx);
            let jammed = plan.jam_count(len);
            adversary_cost += jammed;
            let rep = Rep {
                ctx,
                params,
                faults,
                plan: &plan,
                jammed,
            };
            let summary = step.resolve(singles, &rep, rng);
            adversary.observe(&ctx, &summary);
            observer.on_repetition(epoch, period, jammed, &singles.nodes);
            slots += len;
            period += 1;
        }
        if members(&singles.nodes, step.bulk(), |v| !v.is_terminated()) == 0 {
            truncated = false;
            break;
        }
        epoch += 1;
        if epoch <= max_epoch {
            for node in singles.nodes.iter_mut() {
                node.begin_epoch(epoch, params);
            }
            step.bulk_begin_epoch(epoch, params);
        }
    }

    let bulk = step.bulk();
    let informed = members(&singles.nodes, bulk, OneToNNode::ever_informed);
    let safety = members(&singles.nodes, bulk, |v| {
        v.term_reason() == Some(TermReason::Safety)
    });
    // Per-node costs: singletons exact; a cohort's members get its pool
    // smeared evenly, on the ids no singleton holds, in ascending order.
    let mut costs = vec![0u64; n];
    for (&id, &cost) in singles.ids.iter().zip(&singles.costs) {
        costs[id] = cost;
    }
    let mut free_ids = (0..n).filter(|u| singles.ids.binary_search(u).is_err());
    for c in bulk {
        let base = c.cost_pool / c.count.max(1);
        let extra = (c.cost_pool % c.count.max(1)) as usize;
        for j in 0..c.count as usize {
            let id = free_ids.next().expect("cohorts fill the free ids");
            costs[id] = base + u64::from(j < extra);
        }
    }
    let err = err.or(truncated.then_some(SimError::EpochBudgetExhausted { max_epoch, slots }));
    (
        BroadcastOutcome {
            n,
            informed,
            all_informed: informed == n,
            all_terminated: members(&singles.nodes, bulk, OneToNNode::is_terminated) == n,
            safety_terminations: safety,
            node_costs: costs,
            adversary_cost,
            slots,
            last_epoch: epoch.min(max_epoch),
            truncated,
        },
        err,
    )
}
