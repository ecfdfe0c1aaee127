//! Fast 1-to-n engine: samples whole repetitions at once.
//!
//! Per repetition of epoch `i` (`2^i` slots):
//!
//! 1. every live node's send slots and listen slots are sampled as exact
//!    Bernoulli processes (geometric skips), with listen slots that collide
//!    with the node's own send slots dropped (a radio cannot do both — the
//!    same rule the slot adapter uses);
//! 2. all send events are sorted by slot (as 8-byte keys
//!    `t << 1 | sends_message`) and collapsed into per-slot channel states
//!    (single `m` / single noise / collision);
//! 3. every listen event is resolved against the jam plan and the channel
//!    state — observations therefore remain **fully coupled across nodes**
//!    (two listeners of the same slot hear the same thing), which Lemma 6
//!    style properties depend on. Each node's sorted listen slots are
//!    merge-walked against its own sorted send slots and, through a
//!    forward-only galloping cursor, against the sorted channel states;
//! 4. each node's `(clear, messages)` counts feed
//!    [`OneToNNode::end_repetition`] — the same state machine the exact
//!    engine drives.
//!
//! Work per repetition is one sort of the send events plus a linear merge
//! per node (each channel lookup gallops `O(log gap)`), independent of
//! `2^i`.

use rcb_adversary::traits::{RepetitionAdversary, RepetitionContext, RepetitionSummary};
use rcb_core::one_to_n::node::OneToNNode;
use rcb_core::one_to_n::params::OneToNParams;
use rcb_mathkit::rng::RcbRng;
use rcb_mathkit::sample::{bernoulli, sample_slots_into};
use serde::{Deserialize, Serialize};

use crate::deadline::Deadline;
use crate::error::SimError;
use crate::faults::FaultPlan;
use crate::outcome::BroadcastOutcome;

/// Limits for the fast broadcast engine.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FastConfig {
    /// Hard cap on the epoch index; runs reaching it are truncated. (Bounds
    /// the tiny-probability executions whose expected cost the paper's
    /// safety valve exists to cap.)
    pub max_epoch: u32,
}

impl Default for FastConfig {
    fn default() -> Self {
        Self { max_epoch: 40 }
    }
}

/// Per-slot channel content, collapsed from the send events of one
/// repetition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotContent {
    /// Exactly one sender, transmitting `m`.
    Message,
    /// Exactly one sender, transmitting noise (an uninformed node).
    SingleNoise,
    /// Two or more senders.
    Collision,
}

/// Observer hook for instrumented runs (dynamics experiment E10): called
/// after every repetition epilogue with the full node states.
pub trait BroadcastObserver {
    fn on_repetition(&mut self, epoch: u32, period: u64, jammed_slots: u64, nodes: &[OneToNNode]);
}

/// The no-op observer.
impl BroadcastObserver for () {
    fn on_repetition(&mut self, _: u32, _: u64, _: u64, _: &[OneToNNode]) {}
}

/// Runs one 1-to-n execution: every node in `sources` starts informed.
///
/// Figure 2 never uses the fact that exactly one node holds `m` initially —
/// the analysis works for any informed set `A` with `|A| ≥ 1` (Lemma 9
/// explicitly tracks a growing `A`). Multiple sources simply shorten the
/// dissemination phase; rates, helper logic, and termination are untouched.
///
/// `observer` sees every repetition epilogue (pass `&mut ()` for none).
/// `faults` layers a fault-injection plan (see [`crate::faults`]) between
/// the channel and the receivers, with the exact engine's semantics:
/// crashed and battery-dead nodes are radio-off (no sampling, no coin
/// flips) while their protocol clock keeps ticking through zero-count
/// repetition epilogues; the loss coin is drawn only on decodable `m`
/// receptions; skewed boundary slots decode as noise; the battery gauge is
/// sampled at repetition boundaries, so overshoot is at most one repetition
/// of activity. Battery-dead nodes count as halted for the completion
/// check. Budget exhaustion and a fired `deadline` come back as the typed
/// [`SimError`] next to the partial (`truncated`) outcome.
///
/// ```
/// use rcb_sim::deadline::Deadline;
/// use rcb_sim::fast::{run_broadcast, FastConfig};
/// use rcb_sim::faults::FaultPlan;
/// use rcb_adversary::rep_strategies::NoJamRep;
/// use rcb_core::one_to_n::OneToNParams;
/// use rcb_mathkit::rng::RcbRng;
///
/// let params = OneToNParams::practical();
/// let mut rng = RcbRng::new(7);
/// let (out, err) = run_broadcast(
///     &params,
///     16,
///     &[0],
///     &mut NoJamRep,
///     &mut rng,
///     FastConfig::default(),
///     &mut (),
///     &FaultPlan::none(),
///     &Deadline::NONE,
/// );
/// assert!(err.is_none() && out.all_informed && out.all_terminated);
/// ```
#[allow(clippy::too_many_arguments)]
pub fn run_broadcast(
    params: &OneToNParams,
    n: usize,
    sources: &[usize],
    adversary: &mut dyn RepetitionAdversary,
    rng: &mut RcbRng,
    config: FastConfig,
    observer: &mut dyn BroadcastObserver,
    faults: &FaultPlan,
    deadline: &Deadline,
) -> (BroadcastOutcome, Option<SimError>) {
    let mut state = FastState::new(params, n, sources);
    run_broadcast_in(
        &mut state, params, adversary, rng, config, observer, faults, deadline,
    )
}

/// Retained per-run state of the fast broadcast engine: the node state
/// machines, cost/fault bookkeeping, and every reusable sampling buffer.
/// One `FastState` serves a whole [`BroadcastSession`]; [`run_broadcast`]
/// builds a fresh one per run, so both paths execute the identical
/// loop body.
#[derive(Debug)]
struct FastState {
    nodes: Vec<OneToNNode>,
    costs: Vec<u64>,
    dead: Vec<bool>,
    offline: Vec<bool>,
    /// This repetition's send events as `t << 1 | sends_message` keys.
    send_keys: Vec<u64>,
    /// Every node's sorted send slots, back to back; node `u`'s are
    /// `own_sends[own_send_offsets[u]..own_send_offsets[u + 1]]`.
    own_sends: Vec<u64>,
    own_send_offsets: Vec<usize>,
    slot_contents: Vec<(u64, SlotContent)>,
    scratch: Vec<u64>,
    clear_counts: Vec<u64>,
    msg_counts: Vec<u64>,
}

impl FastState {
    fn new(params: &OneToNParams, n: usize, sources: &[usize]) -> Self {
        assert!(n >= 1, "need at least one node");
        assert!(!sources.is_empty(), "need at least one source");
        assert!(sources.iter().all(|&s| s < n), "source ids must be < n");
        Self {
            nodes: (0..n)
                .map(|u| OneToNNode::new(params, sources.contains(&u)))
                .collect(),
            costs: vec![0; n],
            dead: vec![false; n],
            offline: vec![false; n],
            send_keys: Vec::new(),
            own_sends: Vec::new(),
            own_send_offsets: vec![0; n + 1],
            slot_contents: Vec::new(),
            scratch: Vec::new(),
            clear_counts: vec![0; n],
            msg_counts: vec![0; n],
        }
    }

    /// Resets every node and counter to the just-constructed state while
    /// keeping every allocation (the session layer's re-arm path).
    fn rearm(&mut self, params: &OneToNParams, sources: &[usize]) {
        for (u, node) in self.nodes.iter_mut().enumerate() {
            node.rearm(params, sources.contains(&u));
        }
        self.costs.fill(0);
        self.dead.fill(false);
        self.offline.fill(false);
        // The loop zeroes these as it goes, but a truncated run can leave
        // residue in the last repetition's counts.
        self.clear_counts.fill(0);
        self.msg_counts.fill(0);
    }
}

/// A re-armable fast-broadcast session: one set of allocations (node
/// vector, cost counters, sampling buffers) serves a stream of runs.
/// [`rearm`](Self::rearm) returns everything to the just-constructed
/// state in place; the golden equivalence suite pins that a re-armed run
/// is bit-identical to a fresh [`run_broadcast`] at the same seed.
#[derive(Debug)]
pub struct BroadcastSession {
    params: OneToNParams,
    sources: Vec<usize>,
    config: FastConfig,
    faults: FaultPlan,
    state: FastState,
    rng: RcbRng,
}

impl BroadcastSession {
    pub fn new(
        params: OneToNParams,
        n: usize,
        sources: Vec<usize>,
        config: FastConfig,
        faults: FaultPlan,
        seed: u64,
    ) -> Self {
        assert!(faults.validate().is_ok(), "invalid fault plan");
        let state = FastState::new(&params, n, &sources);
        Self {
            params,
            sources,
            config,
            faults,
            state,
            rng: RcbRng::new(seed),
        }
    }

    /// Re-arms the session to slot 0 on a fresh RNG stream, reusing every
    /// allocation.
    pub fn rearm(&mut self, seed: u64) {
        self.state.rearm(&self.params, &self.sources);
        self.rng = RcbRng::new(seed);
    }

    /// Runs one execution against `adversary` on the session's RNG. The
    /// session must be armed (just constructed, or [`rearm`](Self::rearm)
    /// since the previous run).
    pub fn run(
        &mut self,
        adversary: &mut dyn RepetitionAdversary,
        deadline: &Deadline,
    ) -> (BroadcastOutcome, Option<SimError>) {
        run_broadcast_in(
            &mut self.state,
            &self.params,
            adversary,
            &mut self.rng,
            self.config,
            &mut (),
            &self.faults,
            deadline,
        )
    }
}

#[allow(clippy::too_many_arguments)]
fn run_broadcast_in(
    state: &mut FastState,
    params: &OneToNParams,
    adversary: &mut dyn RepetitionAdversary,
    rng: &mut RcbRng,
    config: FastConfig,
    observer: &mut dyn BroadcastObserver,
    faults: &FaultPlan,
    deadline: &Deadline,
) -> (BroadcastOutcome, Option<SimError>) {
    let FastState {
        nodes,
        costs,
        dead,
        offline,
        send_keys,
        own_sends,
        own_send_offsets,
        slot_contents,
        scratch,
        clear_counts,
        msg_counts,
    } = state;
    let n = nodes.len();
    let mut adversary_cost = 0u64;
    let mut slots_total = 0u64;
    let mut period = 0u64;
    let mut truncated = true;

    // Fault state. The dedicated RNG stream is derived only for non-empty
    // plans, so `FaultPlan::none()` leaves the caller's stream — and hence
    // every sample below — bit-identical to the unfaulted engine.
    debug_assert!(faults.validate().is_ok(), "invalid fault plan");
    let has_faults = !faults.is_none();
    let mut fault_rng = if has_faults { Some(rng.split()) } else { None };
    let loss_p = faults.loss_p();
    let lost = |frng: &mut Option<RcbRng>| match frng {
        Some(r) if loss_p > 0.0 => bernoulli(r, loss_p),
        _ => false,
    };
    let mut pending_reboot = faults.reboot_at();

    // Deadline checkpoints sit at repetition boundaries (the granularity
    // of all other bookkeeping) and consume no RNG; the `is_unbounded`
    // gate keeps the clock read off the default path entirely.
    let bounded = !deadline.is_unbounded();
    let mut deadline_hit = false;

    let mut epoch = params.first_epoch;
    'epochs: while epoch <= config.max_epoch {
        let len = params.slots(epoch);
        let reps = params.reps(epoch);
        for _ in 0..reps {
            if bounded && deadline.exceeded() {
                deadline_hit = true;
                break 'epochs;
            }
            if has_faults {
                // Repetition-boundary bookkeeping, mirroring the exact
                // engine's period boundary: sample the battery gauge, fire
                // a pending state-losing reboot, and refresh which radios
                // are off this period.
                if let Some(cap) = faults.battery_capacity() {
                    for (u, d) in dead.iter_mut().enumerate() {
                        *d = *d || costs[u] >= cap;
                    }
                }
                if let Some((node, at)) = pending_reboot {
                    if period >= at {
                        nodes[node].reboot(params);
                        pending_reboot = None;
                    }
                }
                for (u, off) in offline.iter_mut().enumerate() {
                    *off = dead[u] || faults.crashed(u, period);
                }
            }
            if nodes
                .iter()
                .zip(&**dead)
                .all(|(v, &d)| v.is_terminated() || d)
            {
                truncated = false;
                break 'epochs;
            }
            let active = nodes
                .iter()
                .zip(&**offline)
                .filter(|(v, &off)| !v.is_terminated() && !off)
                .count();
            let ctx = RepetitionContext {
                epoch,
                repetition: period,
                slots: len,
                active_nodes: active,
            };
            let plan = adversary.plan(&ctx);
            adversary_cost += plan.jam_count(len);

            // 1. Send events. Radio-off nodes sample nothing: no coin
            // flips, so their RNG consumption pauses with the radio.
            // Each node's sorted send slots are kept for step 3's merge.
            send_keys.clear();
            own_sends.clear();
            for (u, node) in nodes.iter().enumerate() {
                if !node.is_terminated() && !offline[u] {
                    sample_slots_into(rng, len, node.send_prob(params), scratch);
                    costs[u] += scratch.len() as u64;
                    own_sends.extend_from_slice(scratch);
                    let payload = u64::from(node.sends_message());
                    send_keys.extend(scratch.iter().map(|&t| t << 1 | payload));
                }
                own_send_offsets[u + 1] = own_sends.len();
            }
            send_keys.sort_unstable();

            // 2. Collapse into per-slot channel content.
            let message_slots = collapse_sends(send_keys, slot_contents);

            // 3. Listen events.
            let mut total_listens = 0u64;
            for (u, node) in nodes.iter().enumerate() {
                if node.is_terminated() || offline[u] {
                    continue;
                }
                let skew = faults.skew_slots(u);
                sample_slots_into(rng, len, node.listen_prob(params), scratch);
                let mut cursor = ListenCursor::new(
                    &own_sends[own_send_offsets[u]..own_send_offsets[u + 1]],
                    slot_contents,
                );
                for &t in scratch.iter() {
                    if cursor.sends_in(t) {
                        continue; // a radio cannot send and listen at once
                    }
                    costs[u] += 1;
                    total_listens += 1;
                    if t < skew {
                        continue; // clock skew: boundary slots decode as noise
                    }
                    if plan.is_jammed(t, len) {
                        continue; // noise
                    }
                    match cursor.content_at(t) {
                        None => clear_counts[u] += 1,
                        // The loss coin is drawn only on decodable payload
                        // receptions, same as the exact engine's receiver
                        // condition.
                        Some(SlotContent::Message) => {
                            if !lost(&mut fault_rng) {
                                msg_counts[u] += 1;
                            }
                        }
                        Some(SlotContent::SingleNoise | SlotContent::Collision) => {}
                    }
                }
            }

            // 4. Repetition epilogue.
            for (u, node) in nodes.iter_mut().enumerate() {
                if node.is_terminated() {
                    continue;
                }
                node.end_repetition(params, clear_counts[u], msg_counts[u]);
                clear_counts[u] = 0;
                msg_counts[u] = 0;
            }
            adversary.observe(
                &ctx,
                &RepetitionSummary {
                    message_slots,
                    busy_slots: slot_contents.len() as u64,
                    jammed_slots: plan.jam_count(len),
                    listen_actions: total_listens,
                    send_actions: send_keys.len() as u64,
                },
            );
            observer.on_repetition(epoch, period, plan.jam_count(len), nodes);
            slots_total += len;
            period += 1;
        }
        if nodes.iter().all(|v| v.is_terminated()) {
            truncated = false;
            break;
        }
        epoch += 1;
        if epoch <= config.max_epoch {
            for node in nodes.iter_mut() {
                node.begin_epoch(epoch, params);
            }
        }
    }

    let informed = nodes.iter().filter(|v| v.ever_informed()).count();
    let safety = nodes
        .iter()
        .filter(|v| v.term_reason() == Some(rcb_core::one_to_n::TermReason::Safety))
        .count();
    let err = if deadline_hit {
        Some(SimError::DeadlineExceeded { slots: slots_total })
    } else {
        truncated.then_some(SimError::EpochBudgetExhausted {
            max_epoch: config.max_epoch,
            slots: slots_total,
        })
    };
    (
        BroadcastOutcome {
            n,
            informed,
            all_informed: informed == n,
            all_terminated: nodes.iter().all(|v| v.is_terminated()),
            safety_terminations: safety,
            node_costs: costs.clone(),
            adversary_cost,
            slots: slots_total,
            last_epoch: epoch.min(config.max_epoch),
            truncated,
        },
        err,
    )
}

/// Collapses sorted `t << 1 | sends_message` send keys into per-slot
/// channel content, returning the number of `m` slots (the epilogue needs
/// the total, and counting here is cheaper than re-scanning the contents).
fn collapse_sends(send_keys: &[u64], slot_contents: &mut Vec<(u64, SlotContent)>) -> u64 {
    slot_contents.clear();
    let mut message_slots = 0u64;
    for group in send_keys.chunk_by(|a, b| a >> 1 == b >> 1) {
        let content = match group {
            [key] if key & 1 == 1 => {
                message_slots += 1;
                SlotContent::Message
            }
            [_] => SlotContent::SingleNoise,
            _ => SlotContent::Collision,
        };
        slot_contents.push((group[0] >> 1, content));
    }
    message_slots
}

/// First index `i >= from` with `contents[i].0 >= t`, found by doubling the
/// step from `from` and then binary-searching the last step, so a lookup
/// that skips `g` entries costs `O(log g)`.
fn gallop(contents: &[(u64, SlotContent)], from: usize, t: u64) -> usize {
    let rest = &contents[from..];
    let (mut lo, mut step) = (0, 1);
    while step <= rest.len() && rest[step - 1].0 < t {
        lo = step;
        step *= 2;
    }
    let hi = step.min(rest.len());
    from + lo + rest[lo..hi].partition_point(|&(s, _)| s < t)
}

/// Resolves one node's listen slots, which must be queried in increasing
/// order: both cursors only move forward.
struct ListenCursor<'a> {
    own_sends: &'a [u64],
    contents: &'a [(u64, SlotContent)],
    own: usize,
    content: usize,
}

impl<'a> ListenCursor<'a> {
    fn new(own_sends: &'a [u64], contents: &'a [(u64, SlotContent)]) -> Self {
        Self {
            own_sends,
            contents,
            own: 0,
            content: 0,
        }
    }

    /// Whether the node itself transmits in slot `t`.
    fn sends_in(&mut self, t: u64) -> bool {
        while self.own_sends.get(self.own).is_some_and(|&s| s < t) {
            self.own += 1;
        }
        self.own_sends.get(self.own) == Some(&t)
    }

    /// The channel content of slot `t`; `None` is a silent slot.
    fn content_at(&mut self, t: u64) -> Option<SlotContent> {
        self.content = gallop(self.contents, self.content, t);
        match self.contents.get(self.content) {
            Some(&(s, content)) if s == t => Some(content),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcb_adversary::rep_strategies::{BudgetedRepBlocker, NoJamRep};

    fn params() -> OneToNParams {
        OneToNParams::practical()
    }

    /// Node 0 the source, no observer, no faults, no deadline.
    fn plain(
        p: &OneToNParams,
        n: usize,
        adversary: &mut dyn RepetitionAdversary,
        rng: &mut RcbRng,
        config: FastConfig,
    ) -> BroadcastOutcome {
        let (out, _) = run_broadcast(
            p,
            n,
            &[0],
            adversary,
            rng,
            config,
            &mut (),
            &FaultPlan::none(),
            &Deadline::NONE,
        );
        out
    }

    #[test]
    fn single_node_terminates_alone() {
        // n = 1: the sender hears only silence, S grows, and the safety
        // valve or helper logic must terminate it with bounded cost.
        let p = params();
        let mut rng = RcbRng::new(1);
        let mut adv = NoJamRep;
        let out = plain(&p, 1, &mut adv, &mut rng, FastConfig::default());
        assert!(out.all_terminated, "last epoch {}", out.last_epoch);
        assert!(out.all_informed);
        assert!(!out.truncated);
    }

    #[test]
    fn unjammed_broadcast_informs_everyone() {
        let p = params();
        let mut ok = 0;
        let trials = 10;
        for seed in 0..trials {
            let mut rng = RcbRng::new(seed);
            let mut adv = NoJamRep;
            let out = plain(&p, 16, &mut adv, &mut rng, FastConfig::default());
            assert!(
                !out.truncated,
                "seed {seed}: truncated at epoch {}",
                out.last_epoch
            );
            if out.all_informed && out.all_terminated {
                ok += 1;
            }
        }
        assert!(ok >= 9, "informed+terminated in {ok}/{trials} runs");
    }

    #[test]
    fn termination_happens_near_the_ideal_epoch() {
        let p = params();
        let n = 32;
        let mut rng = RcbRng::new(3);
        let mut adv = NoJamRep;
        let out = plain(&p, n, &mut adv, &mut rng, FastConfig::default());
        let ideal = p.ideal_epoch(n);
        assert!(
            out.last_epoch <= ideal + 3,
            "terminated at epoch {} vs ideal {ideal}",
            out.last_epoch
        );
    }

    #[test]
    fn jamming_charges_adversary_and_inflates_cost() {
        let p = params();
        let n = 16;
        let mut rng = RcbRng::new(4);
        let mut adv_free = NoJamRep;
        let free = plain(&p, n, &mut adv_free, &mut rng, FastConfig::default());

        let mut rng = RcbRng::new(4);
        // T must comfortably exceed the unjammed slot total: at comparable
        // budgets blanket jamming can even *reduce* node cost (blocked
        // epochs suppress the expensive growth-phase listening).
        let budget = 16 * free.slots;
        let mut adv = BudgetedRepBlocker::new(budget, 1.0);
        let jammed = plain(&p, n, &mut adv, &mut rng, FastConfig::default());
        assert!(jammed.adversary_cost > 0);
        assert!(
            jammed.max_cost() > free.max_cost(),
            "jammed {} vs free {}",
            jammed.max_cost(),
            free.max_cost()
        );
        assert!(jammed.slots > free.slots);
        assert!(jammed.all_informed, "budget exhausted ⇒ delivery resumes");
    }

    #[test]
    fn per_node_cost_shrinks_as_n_grows() {
        // The headline of Theorem 3: bigger systems pay less per node under
        // the same attack budget.
        let p = params();
        let budget = 2_000_000u64;
        let mean_cost = |n: usize, seed: u64| {
            let mut total = 0.0;
            let trials = 3;
            for s in 0..trials {
                let mut rng = RcbRng::new(seed + s);
                let mut adv = BudgetedRepBlocker::new(budget, 1.0);
                let out = plain(&p, n, &mut adv, &mut rng, FastConfig::default());
                total += out.mean_cost();
            }
            total / trials as f64
        };
        let small = mean_cost(8, 10);
        let large = mean_cost(64, 20);
        assert!(
            large < small,
            "per-node cost should fall with n: n=8 → {small}, n=128 → {large}"
        );
    }

    /// Channel contents at the given busy slots, all collisions.
    fn busy(slots: &[u64]) -> Vec<(u64, SlotContent)> {
        slots.iter().map(|&t| (t, SlotContent::Collision)).collect()
    }

    #[test]
    fn gallop_edge_cases() {
        assert_eq!(gallop(&[], 0, 5), 0, "empty contents");
        let contents = busy(&[2, 4, 6, 8]);
        assert_eq!(gallop(&contents, 4, 0), 4, "from == len stays put");
        assert_eq!(gallop(&contents, 1, 100), 4, "past the last slot");
        assert_eq!(gallop(&contents, 0, 6), 2, "exact hit");
        assert_eq!(gallop(&contents, 2, 6), 2, "exact hit at `from`");
        assert_eq!(gallop(&contents, 0, 5), 2, "a miss lands on the next slot");
    }

    #[test]
    fn gallop_skips_long_runs_like_a_binary_search() {
        let slots: Vec<u64> = (0..1000).map(|k| 3 * k).collect();
        let contents = busy(&slots);
        let mut at = 0;
        for t in [1u64, 2, 700, 701, 1500, 2996, 2997, 2998] {
            at = gallop(&contents, at, t);
            assert_eq!(at, slots.partition_point(|&s| s < t), "target {t}");
        }
        assert_eq!(at, contents.len());
    }

    #[test]
    fn listens_skip_own_sends_but_others_hear_the_collision() {
        // Node 0 sends noise at 3 and 7, node 1 sends m at 3 and 9.
        let mut keys = vec![3 << 1, 7 << 1, 3 << 1 | 1, 9 << 1 | 1];
        keys.sort_unstable();
        let mut contents = Vec::new();
        assert_eq!(collapse_sends(&keys, &mut contents), 1);
        assert_eq!(
            contents,
            [
                (3, SlotContent::Collision),
                (7, SlotContent::SingleNoise),
                (9, SlotContent::Message)
            ]
        );

        let mut own = ListenCursor::new(&[3, 7], &contents);
        assert!(own.sends_in(3), "a listen on an own send slot is dropped");
        assert!(!own.sends_in(5));
        assert_eq!(own.content_at(5), None);
        assert!(own.sends_in(7));
        assert!(!own.sends_in(9));
        assert_eq!(own.content_at(9), Some(SlotContent::Message));

        let mut other = ListenCursor::new(&[], &contents);
        assert!(!other.sends_in(3));
        assert_eq!(other.content_at(3), Some(SlotContent::Collision));
        assert_eq!(other.content_at(7), Some(SlotContent::SingleNoise));
    }

    #[test]
    fn multi_source_broadcast_informs_and_is_no_slower() {
        let p = params();
        let n = 24;
        let mut single_slots = 0u64;
        let mut multi_slots = 0u64;
        let trials = 6;
        for seed in 0..trials {
            let mut rng = RcbRng::new(400 + seed);
            let mut adv = NoJamRep;
            let out = run_broadcast(
                &p,
                n,
                &[0],
                &mut adv,
                &mut rng,
                FastConfig::default(),
                &mut (),
                &FaultPlan::none(),
                &Deadline::NONE,
            )
            .0;
            assert!(out.all_informed);
            single_slots += out.slots;

            let mut rng = RcbRng::new(800 + seed);
            let mut adv = NoJamRep;
            let out = run_broadcast(
                &p,
                n,
                &[0, 5, 11, 17],
                &mut adv,
                &mut rng,
                FastConfig::default(),
                &mut (),
                &FaultPlan::none(),
                &Deadline::NONE,
            )
            .0;
            assert!(out.all_informed);
            assert!(out.informed == n);
            multi_slots += out.slots;
        }
        // Extra sources can only help dissemination; allow slack for the
        // epoch-granular termination.
        assert!(
            multi_slots <= single_slots + single_slots / 2,
            "multi {multi_slots} vs single {single_slots}"
        );
    }

    #[test]
    #[should_panic]
    fn out_of_range_source_panics() {
        let p = params();
        let mut rng = RcbRng::new(1);
        let mut adv = NoJamRep;
        run_broadcast(
            &p,
            4,
            &[4],
            &mut adv,
            &mut rng,
            FastConfig::default(),
            &mut (),
            &FaultPlan::none(),
            &Deadline::NONE,
        );
    }

    #[test]
    fn epoch_cap_truncates() {
        let p = params();
        let mut rng = RcbRng::new(5);
        // Unlimited full blocking: nobody can ever terminate.
        let mut adv = rcb_adversary::rep_strategies::SuffixFractionRep::new(1.0);
        let out = plain(
            &p,
            4,
            &mut adv,
            &mut rng,
            FastConfig {
                max_epoch: p.first_epoch + 2,
            },
        );
        assert!(out.truncated);
        assert!(!out.all_terminated);
        assert_eq!(out.last_epoch, p.first_epoch + 2);
    }

    #[test]
    fn checked_run_reports_epoch_cap_as_typed_error() {
        let p = params();
        let mut rng = RcbRng::new(5);
        let mut adv = rcb_adversary::rep_strategies::SuffixFractionRep::new(1.0);
        let err = run_broadcast(
            &p,
            4,
            &[0],
            &mut adv,
            &mut rng,
            FastConfig {
                max_epoch: p.first_epoch + 2,
            },
            &mut (),
            &FaultPlan::none(),
            &Deadline::NONE,
        )
        .1
        .expect("fully blocked nodes never terminate");
        assert!(matches!(
            err,
            SimError::EpochBudgetExhausted { max_epoch, .. } if max_epoch == p.first_epoch + 2
        ));
    }

    #[test]
    fn an_elapsed_deadline_truncates_with_a_typed_error() {
        let p = params();
        let mut rng = RcbRng::new(7);
        let (out, err) = run_broadcast(
            &p,
            16,
            &[0],
            &mut NoJamRep,
            &mut rng,
            FastConfig::default(),
            &mut (),
            &FaultPlan::none(),
            &Deadline::after(std::time::Duration::ZERO),
        );
        assert!(out.truncated);
        assert_eq!(out.slots, 0, "checkpoint fires before the first repetition");
        assert_eq!(err, Some(SimError::DeadlineExceeded { slots: 0 }));
    }

    #[test]
    fn crash_restart_reconverges() {
        // Node 3 goes dark for six early periods and reboots with its
        // volatile state wiped. The informed helpers keep transmitting m,
        // so the rebooted node relearns it: dissemination degrades
        // gracefully instead of wedging.
        let p = params();
        let mut informed_runs = 0;
        let trials = 10;
        for seed in 0..trials {
            let mut rng = RcbRng::new(900 + seed);
            let mut adv = NoJamRep;
            let out = run_broadcast(
                &p,
                8,
                &[0],
                &mut adv,
                &mut rng,
                FastConfig::default(),
                &mut (),
                &FaultPlan::none().with_crash(3, 2, 6, true),
                &Deadline::NONE,
            )
            .0;
            assert!(!out.truncated, "seed {seed}");
            if out.all_informed {
                informed_runs += 1;
            }
        }
        assert!(
            informed_runs >= 8,
            "re-converged in {informed_runs}/{trials} runs"
        );
    }

    #[test]
    fn lossy_reception_degrades_gracefully() {
        // 20% receiver-side loss slows dissemination but must not produce
        // a cliff: most runs still inform everyone.
        let p = params();
        let mut informed_runs = 0;
        let trials = 10;
        for seed in 0..trials {
            let mut rng = RcbRng::new(300 + seed);
            let mut adv = NoJamRep;
            let out = run_broadcast(
                &p,
                16,
                &[0],
                &mut adv,
                &mut rng,
                FastConfig::default(),
                &mut (),
                &FaultPlan::none().with_loss(0.2),
                &Deadline::NONE,
            )
            .0;
            assert!(!out.truncated, "seed {seed}");
            if out.all_informed {
                informed_runs += 1;
            }
        }
        assert!(
            informed_runs >= 8,
            "informed in {informed_runs}/{trials} lossy runs"
        );
    }

    #[test]
    fn battery_brownout_caps_node_cost() {
        let p = params();
        let mut rng = RcbRng::new(9);
        let mut adv = NoJamRep;
        let uncapped = plain(&p, 8, &mut adv, &mut rng, FastConfig::default());

        let mut rng = RcbRng::new(9);
        let mut adv = NoJamRep;
        let capped = run_broadcast(
            &p,
            8,
            &[0],
            &mut adv,
            &mut rng,
            FastConfig::default(),
            &mut (),
            &FaultPlan::none().with_battery(20),
            &Deadline::NONE,
        )
        .0;
        assert!(!capped.truncated, "dead nodes count as halted");
        assert!(
            capped.max_cost() < uncapped.max_cost(),
            "capped {} vs uncapped {}",
            capped.max_cost(),
            uncapped.max_cost()
        );
    }
}
