//! Fast 1-to-n engine: samples whole repetitions at once.
//!
//! Per repetition of epoch `i` (`2^i` slots):
//!
//! 1. every live node's send slots and listen slots are sampled as exact
//!    Bernoulli processes (geometric skips), with listen slots that collide
//!    with the node's own send slots dropped (a radio cannot do both — the
//!    same rule the slot adapter uses);
//! 2. all send events go into a per-repetition slot map, an open-addressing
//!    table from slot to channel state (single `m` / single noise /
//!    collision) whose capacity follows the send count, never `2^i`;
//! 3. every listen event is resolved against the jam plan and one slot-map
//!    lookup — observations therefore remain **fully coupled across nodes**
//!    (two listeners of the same slot hear the same thing), which Lemma 6
//!    style properties depend on. Each node's sorted listen slots are
//!    merge-walked against its own sorted send slots to drop the slots it
//!    transmits in;
//! 4. each node's `(clear, messages)` counts feed
//!    [`OneToNNode::end_repetition`] — the same state machine the exact
//!    engine drives.
//!
//! Work per repetition is one map insert per send plus, per listen, one
//! expected-`O(1)` lookup and a step of the node's own-send merge,
//! independent of `2^i`.

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
use crate::session::{OwnsRng, Session};

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

/// Per-slot channel content, merged from the send events of one
/// repetition. The discriminants are [`SlotMap`]'s 2-bit codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotContent {
    /// Exactly one sender, transmitting `m`.
    Message = 1,
    /// Exactly one sender, transmitting noise (an uninformed node).
    SingleNoise = 2,
    /// Two or more senders.
    Collision = 3,
}

/// One repetition's channel state: an open-addressing table from busy slot
/// to [`SlotContent`]. Capacity is the next power of two ≥ `max(2·sends,
/// 16)`, so the load stays ≤ ½ and memory is `O(sends)` whatever the
/// repetition's length. Slot `t` probes linearly from `t & (cap − 1)`; send
/// slots are uniform, so the low bits hash well, and a repetition no longer
/// than the table is indexed directly, without a collision.
#[derive(Debug, Default)]
struct SlotMap {
    /// `t << 2 | code` per busy slot; 0 marks an empty bucket (no code is 0).
    /// `OneToNParams::slots` keeps `t < 2^61`, so the shift loses no bit.
    buckets: Vec<u64>,
    /// Slots holding at least one transmission.
    busy_slots: u64,
    /// Slots holding exactly one transmission, of `m`.
    message_slots: u64,
}

impl SlotMap {
    /// Empties the map and sizes it for `sends` send events.
    fn reset(&mut self, sends: usize) {
        self.buckets.clear();
        self.buckets
            .resize((2 * sends).max(16).next_power_of_two(), 0);
        self.busy_slots = 0;
        self.message_slots = 0;
    }

    /// The bucket holding slot `t`, or the empty one where it would go.
    fn bucket_of(&self, t: u64) -> usize {
        let mask = self.buckets.len() - 1;
        let mut i = t as usize & mask;
        while self.buckets[i] != 0 && self.buckets[i] >> 2 != t {
            i = (i + 1) & mask;
        }
        i
    }

    /// Records one transmission in slot `t`, of `m` if `message`.
    fn insert(&mut self, t: u64, message: bool) {
        let i = self.bucket_of(t);
        let bucket = &mut self.buckets[i];
        if *bucket == 0 {
            let content = if message {
                SlotContent::Message
            } else {
                SlotContent::SingleNoise
            };
            *bucket = t << 2 | content as u64;
            self.busy_slots += 1;
            self.message_slots += u64::from(message);
        } else {
            self.message_slots -= u64::from(*bucket & 3 == SlotContent::Message as u64);
            *bucket = t << 2 | SlotContent::Collision as u64;
        }
    }

    /// The channel content of slot `t`; `None` is a silent slot.
    fn get(&self, t: u64) -> Option<SlotContent> {
        match self.buckets[self.bucket_of(t)] & 3 {
            0 => None,
            1 => Some(SlotContent::Message),
            2 => Some(SlotContent::SingleNoise),
            _ => Some(SlotContent::Collision),
        }
    }
}

/// Per-repetition observer hook for instrumented runs (E10, E12,
/// `calibrate`): [`BroadcastSession::run_observed`] calls it after every
/// repetition epilogue with the full node states.
pub trait BroadcastObserver {
    fn on_repetition(&mut self, epoch: u32, period: u64, jammed_slots: u64, nodes: &[OneToNNode]);
}

/// The no-op observer.
impl BroadcastObserver for () {
    fn on_repetition(&mut self, _: u32, _: u64, _: u64, _: &[OneToNNode]) {}
}

/// Retained per-run state of the fast broadcast engine: the node state
/// machines, cost/fault bookkeeping, and every reusable sampling buffer.
/// One `FastState` serves a whole [`BroadcastSession`].
#[derive(Debug)]
struct FastState {
    nodes: Vec<OneToNNode>,
    costs: Vec<u64>,
    dead: Vec<bool>,
    offline: Vec<bool>,
    /// Every node's sorted send slots, back to back; node `u`'s are
    /// `own_sends[own_send_offsets[u]..own_send_offsets[u + 1]]`.
    own_sends: Vec<u64>,
    own_send_offsets: Vec<usize>,
    slot_map: SlotMap,
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
            own_sends: Vec::new(),
            own_send_offsets: vec![0; n + 1],
            slot_map: SlotMap::default(),
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

/// A fast-broadcast session: one 1-to-n execution per
/// [`run`](Session::run), every node in `sources` starting informed.
///
/// Figure 2 never uses the fact that exactly one node holds `m` initially —
/// the analysis works for any informed set `A` with `|A| ≥ 1` (Lemma 9
/// explicitly tracks a growing `A`). Multiple sources simply shorten the
/// dissemination phase; rates, helper logic, and termination are untouched.
///
/// `faults` layers a fault-injection plan (see [`crate::faults`]) between
/// the channel and the receivers, with the exact engine's semantics:
/// crashed and battery-dead nodes are radio-off (no sampling, no coin
/// flips) while their protocol clock keeps ticking through zero-count
/// repetition epilogues; the loss coin is drawn only on decodable `m`
/// receptions; skewed boundary slots decode as noise; the battery gauge is
/// sampled at repetition boundaries, so overshoot is at most one repetition
/// of activity. Battery-dead nodes count as halted for the completion
/// check. Budget exhaustion and a fired deadline come back as the typed
/// [`SimError`] next to the partial (`truncated`) outcome.
///
/// One set of allocations (node vector, cost counters, sampling buffers)
/// serves a stream of runs; [`rearm`](Session::rearm) returns everything
/// to the just-constructed state in place.
///
/// ```
/// use rcb_sim::deadline::Deadline;
/// use rcb_sim::fast::{BroadcastSession, FastConfig};
/// use rcb_sim::faults::FaultPlan;
/// use rcb_sim::session::Session;
/// use rcb_adversary::rep_strategies::NoJamRep;
/// use rcb_core::one_to_n::OneToNParams;
///
/// let params = OneToNParams::practical();
/// let mut session =
///     BroadcastSession::new(params, 16, vec![0], FastConfig::default(), FaultPlan::none(), 7);
/// let (out, err) = session.run(&mut NoJamRep, &Deadline::NONE);
/// assert!(err.is_none() && out.all_informed && out.all_terminated);
/// ```
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

    /// [`run`](Session::run) with `observer` called after every repetition
    /// epilogue. The session must be armed (just constructed, or re-armed
    /// since the previous run).
    pub fn run_observed(
        &mut self,
        adversary: &mut dyn RepetitionAdversary,
        observer: &mut dyn BroadcastObserver,
        deadline: &Deadline,
    ) -> (BroadcastOutcome, Option<SimError>) {
        run_broadcast_in(
            &mut self.state,
            &self.params,
            adversary,
            &mut self.rng,
            self.config,
            observer,
            &self.faults,
            deadline,
        )
    }
}

impl Session for BroadcastSession {
    type Outcome = BroadcastOutcome;

    fn rearm(&mut self, seed: u64) {
        self.state.rearm(&self.params, &self.sources);
        self.rng = RcbRng::new(seed);
    }

    fn run(
        &mut self,
        adversary: &mut dyn RepetitionAdversary,
        deadline: &Deadline,
    ) -> (BroadcastOutcome, Option<SimError>) {
        self.run_observed(adversary, &mut (), deadline)
    }
}

impl OwnsRng for BroadcastSession {
    fn rng_mut(&mut self) -> &mut RcbRng {
        &mut self.rng
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
        own_sends,
        own_send_offsets,
        slot_map,
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
            // Each node's sorted send slots are kept for steps 2 and 3.
            own_sends.clear();
            for (u, node) in nodes.iter().enumerate() {
                if !node.is_terminated() && !offline[u] {
                    sample_slots_into(rng, len, node.send_prob(params), scratch);
                    costs[u] += scratch.len() as u64;
                    own_sends.extend_from_slice(scratch);
                }
                own_send_offsets[u + 1] = own_sends.len();
            }

            // 2. The channel state, sized now that every send is drawn.
            slot_map.reset(own_sends.len());
            for (u, node) in nodes.iter().enumerate() {
                let message = node.sends_message();
                for &t in &own_sends[own_send_offsets[u]..own_send_offsets[u + 1]] {
                    slot_map.insert(t, message);
                }
            }

            // 3. Listen events.
            let mut total_listens = 0u64;
            for (u, node) in nodes.iter().enumerate() {
                if node.is_terminated() || offline[u] {
                    continue;
                }
                let skew = faults.skew_slots(u);
                sample_slots_into(rng, len, node.listen_prob(params), scratch);
                let own = &own_sends[own_send_offsets[u]..own_send_offsets[u + 1]];
                let mut next_own = 0;
                for &t in scratch.iter() {
                    while own.get(next_own).is_some_and(|&s| s < t) {
                        next_own += 1;
                    }
                    if own.get(next_own) == Some(&t) {
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
                    match slot_map.get(t) {
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
                    message_slots: slot_map.message_slots,
                    busy_slots: slot_map.busy_slots,
                    jammed_slots: plan.jam_count(len),
                    listen_actions: total_listens,
                    send_actions: own_sends.len() as u64,
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

#[cfg(test)]
mod tests {
    use super::*;
    use rcb_adversary::rep_strategies::{BudgetedRepBlocker, NoJamRep};

    fn params() -> OneToNParams {
        OneToNParams::practical()
    }

    /// One run of a fresh session on the caller's RNG — the one-shot hand-off
    /// a spec trial uses — so unit tests can share one stream across trials.
    #[allow(clippy::too_many_arguments)]
    fn one_shot(
        params: &OneToNParams,
        n: usize,
        sources: &[usize],
        adversary: &mut dyn RepetitionAdversary,
        rng: &mut RcbRng,
        config: FastConfig,
        faults: &FaultPlan,
        deadline: &Deadline,
    ) -> (BroadcastOutcome, Option<SimError>) {
        let mut session = BroadcastSession::new(*params, n, sources.to_vec(), config, *faults, 0);
        crate::session::run_on(&mut session, rng, adversary, deadline)
    }

    /// Node 0 the source, no faults, no deadline.
    fn plain(
        p: &OneToNParams,
        n: usize,
        adversary: &mut dyn RepetitionAdversary,
        rng: &mut RcbRng,
        config: FastConfig,
    ) -> BroadcastOutcome {
        let (out, _) = one_shot(
            p,
            n,
            &[0],
            adversary,
            rng,
            config,
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

    /// The slot map's reference: sort the `(t, message)` sends, then merge
    /// each run of equal slots.
    fn collapse(sends: &[(u64, bool)]) -> Vec<(u64, SlotContent)> {
        let mut sorted = sends.to_vec();
        sorted.sort_unstable();
        sorted
            .chunk_by(|a, b| a.0 == b.0)
            .map(|group| {
                let content = match group {
                    [(_, true)] => SlotContent::Message,
                    [_] => SlotContent::SingleNoise,
                    _ => SlotContent::Collision,
                };
                (group[0].0, content)
            })
            .collect()
    }

    /// Builds a map from `sends` and checks it against [`collapse`] on every
    /// busy slot, on the `silent` slots and in both counters.
    fn map_matching_collapse(sends: &[(u64, bool)], silent: &[u64]) -> SlotMap {
        let mut map = SlotMap::default();
        map.reset(sends.len());
        for &(t, message) in sends {
            map.insert(t, message);
        }
        let expected = collapse(sends);
        for &(t, content) in &expected {
            assert_eq!(map.get(t), Some(content), "busy slot {t}");
        }
        for &t in silent {
            assert!(expected.iter().all(|e| e.0 != t), "slot {t} is busy");
            assert_eq!(map.get(t), None, "silent slot {t}");
        }
        let messages = expected.iter().filter(|e| e.1 == SlotContent::Message);
        assert_eq!(map.busy_slots, expected.len() as u64);
        assert_eq!(map.message_slots, messages.count() as u64);
        map
    }

    #[test]
    fn slot_map_capacity_follows_the_sends_not_the_repetition_length() {
        // A 2^40-slot repetition (the default epoch cap) with a few sends.
        let len = 1u64 << 40;
        let few = [
            (len - 1, true),
            (0, false),
            (12_345_678_901, true),
            (0, true),
        ];
        let map = map_matching_collapse(&few, &[1, 16, len - 2, len / 2]);
        assert_eq!(map.buckets.len(), 16);

        let spread: Vec<(u64, bool)> = (1..=20u64)
            .map(|k| (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 24, k % 3 == 0))
            .collect();
        assert!(spread.iter().all(|&(t, _)| t < len));
        let map = map_matching_collapse(&spread, &[2, len - 3]);
        assert_eq!(map.buckets.len(), 64, "next_pow2(2 · 20)");
    }

    #[test]
    fn slot_map_resolves_keys_that_share_low_bits() {
        // Seven sends size the table at 16 buckets; slots `16k + 15` chain
        // from the last bucket round to the first, and the `16k` slots queue
        // up behind them.
        let sends = [
            (15, true),
            (31, false),
            (47, true),
            (63, false),
            (0, true),
            (16, true),
            (31, true), // mid-chain: noise + m collide
        ];
        let map = map_matching_collapse(&sends, &[79, 32, 48, 1]);
        assert_eq!(map.buckets.len(), 16);
        assert_eq!(map.get(31), Some(SlotContent::Collision));
    }

    #[test]
    fn slot_map_collides_three_or_more_senders() {
        let mut sends = vec![(5, true); 3];
        sends.extend([(9, true), (9, false), (9, false), (9, true), (2, true)]);
        let map = map_matching_collapse(&sends, &[0, 3]);
        assert_eq!(map.get(5), Some(SlotContent::Collision));
        assert_eq!(map.get(9), Some(SlotContent::Collision));
        assert_eq!((map.busy_slots, map.message_slots), (3, 1));
    }

    #[test]
    fn slot_map_tells_message_noise_and_collision_apart() {
        let sends = [
            (3, true),
            (4, false),
            (7, true),
            (7, true),
            (8, false),
            (8, true),
        ];
        let map = map_matching_collapse(&sends, &[0, 5, 6]);
        assert_eq!(map.get(3), Some(SlotContent::Message));
        assert_eq!(map.get(4), Some(SlotContent::SingleNoise));
        assert_eq!(map.get(7), Some(SlotContent::Collision), "two m's collide");
        assert_eq!(map.get(8), Some(SlotContent::Collision));
    }

    #[test]
    fn slot_map_matches_collapse_on_sampled_repetitions() {
        // Per-node Bernoulli send slots, as step 1 draws them, at lengths
        // below, at and above the table's capacity; the map is reused.
        let mut rng = RcbRng::new(24);
        let mut map = SlotMap::default();
        let mut slots = Vec::new();
        for (len, p) in [
            (64u64, 0.2),
            (1 << 10, 0.01),
            (1 << 20, 1e-4),
            (1 << 40, 1e-10),
        ] {
            let mut sends = Vec::new();
            for u in 0..12 {
                sample_slots_into(&mut rng, len, p, &mut slots);
                sends.extend(slots.iter().map(|&t| (t, u % 2 == 0)));
            }
            map.reset(sends.len());
            for &(t, message) in &sends {
                map.insert(t, message);
            }
            let expected = collapse(&sends);
            for t in (0..len.min(4096)).chain(expected.iter().map(|e| e.0)) {
                let want = expected.iter().find(|e| e.0 == t).map(|e| e.1);
                assert_eq!(map.get(t), want, "len {len}, slot {t}");
            }
            assert_eq!(map.busy_slots, expected.len() as u64, "len {len}");
        }
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
            let out = one_shot(
                &p,
                n,
                &[0],
                &mut adv,
                &mut rng,
                FastConfig::default(),
                &FaultPlan::none(),
                &Deadline::NONE,
            )
            .0;
            assert!(out.all_informed);
            single_slots += out.slots;

            let mut rng = RcbRng::new(800 + seed);
            let mut adv = NoJamRep;
            let out = one_shot(
                &p,
                n,
                &[0, 5, 11, 17],
                &mut adv,
                &mut rng,
                FastConfig::default(),
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
        one_shot(
            &p,
            4,
            &[4],
            &mut adv,
            &mut rng,
            FastConfig::default(),
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
        let err = one_shot(
            &p,
            4,
            &[0],
            &mut adv,
            &mut rng,
            FastConfig {
                max_epoch: p.first_epoch + 2,
            },
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
        let (out, err) = one_shot(
            &p,
            16,
            &[0],
            &mut NoJamRep,
            &mut rng,
            FastConfig::default(),
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
            let out = one_shot(
                &p,
                8,
                &[0],
                &mut adv,
                &mut rng,
                FastConfig::default(),
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
            let out = one_shot(
                &p,
                16,
                &[0],
                &mut adv,
                &mut rng,
                FastConfig::default(),
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
        let capped = one_shot(
            &p,
            8,
            &[0],
            &mut adv,
            &mut rng,
            FastConfig::default(),
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
