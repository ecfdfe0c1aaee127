//! Fast 1-to-n engine: samples whole repetitions at once.
//!
//! Per repetition of epoch `i` (`2^i` slots):
//!
//! 1. every live node's send slots and listen slots are sampled as exact
//!    Bernoulli processes (geometric skips);
//! 2. all send events go into a per-repetition slot map from slot to
//!    channel state (single `m` / single noise / collision): a byte per slot
//!    when the repetition fits in the bytes an open-addressing table sized
//!    by the send count would take, else that table, so memory follows the
//!    send count, never `2^i`;
//! 3. each node's sorted listen slots are resolved by run. Two binary
//!    searches split off the prefix its clock skew garbles and the plan's
//!    jammed suffix (Lemma 1's canonical form), which are only counted;
//!    each slot of the audible run between them takes one slot-map lookup,
//!    so observations remain **fully coupled across nodes** (two listeners
//!    of the same slot hear the same thing), which Lemma 6 style properties
//!    depend on. Listen slots the node also sends in, found by binary
//!    search, are dropped (a radio cannot do both — the same rule the slot
//!    adapter uses); its loss coins are tossed after the run;
//! 4. each node's `(clear, messages)` counts feed
//!    [`OneToNNode::end_repetition`] — the same state machine the exact
//!    engine drives.
//!
//! Work per repetition is one map insert per send and, per listener, two
//! binary searches, one per own send, and one lookup per audible listen
//! (one byte load in the dense form, expected `O(1)` probes in the hashed
//! one), independent of `2^i`.

use rcb_adversary::traits::{JamPlan, RepetitionAdversary, RepetitionSummary};
use rcb_core::one_to_n::node::OneToNNode;
use rcb_core::one_to_n::params::OneToNParams;
use rcb_mathkit::rng::RcbRng;
use rcb_mathkit::sample::sample_slots_into;
use serde::{Deserialize, Serialize};

use crate::deadline::Deadline;
use crate::error::SimError;
use crate::faults::{FaultPlan, LossCoins};
use crate::outcome::BroadcastOutcome;
use crate::population::{run_repetitions, Rep, Repetition, Singletons};
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

/// One repetition's channel state: the [`SlotContent`] code of every busy
/// slot, in one of two forms chosen per repetition by [`reset`](Self::reset).
/// The hashed form is an open-addressing table whose capacity is the next
/// power of two ≥ `max(2·sends, 16)`, so the load stays ≤ ½ and memory is
/// `O(sends)` whatever the repetition's length; slot `t` probes linearly
/// from `t & (cap − 1)` (send slots are uniform, so the low bits hash well).
/// A repetition whose `len` slots fit in that table's bytes (`len ≤ 8·cap`)
/// takes the dense form instead: one code byte per slot, indexed by the slot,
/// so a lookup is one load with no probe loop, and no repetition fills more
/// bytes than the table would.
#[derive(Debug, Default)]
struct SlotMap {
    /// The dense form: slot `t`'s code at `codes[t]`. Empty in the hashed
    /// form.
    codes: Vec<u8>,
    /// The hashed form: `t << 2 | code` per busy slot; 0 marks an empty
    /// bucket (no code is 0). `OneToNParams::slots` keeps `t < 2^61`, so the
    /// shift loses no bit. Empty in the dense form.
    buckets: Vec<u64>,
    /// Slots holding at least one transmission.
    busy_slots: u64,
    /// Slots holding exactly one transmission, of `m`.
    message_slots: u64,
}

impl SlotMap {
    /// Empties the map for a `len`-slot repetition with `sends` send events
    /// and picks its form.
    fn reset(&mut self, sends: usize, len: u64) {
        let cap = (2 * sends).max(16).next_power_of_two();
        self.codes.clear();
        self.buckets.clear();
        if len <= 8 * cap as u64 {
            self.codes.resize(len as usize, 0);
        } else {
            self.buckets.resize(cap, 0);
        }
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
        let old = self.code(t);
        let new = match (old, message) {
            (0, true) => SlotContent::Message,
            (0, false) => SlotContent::SingleNoise,
            _ => SlotContent::Collision,
        } as u8;
        if self.buckets.is_empty() {
            self.codes[t as usize] = new;
        } else {
            let i = self.bucket_of(t);
            self.buckets[i] = t << 2 | u64::from(new);
        }
        self.busy_slots += u64::from(old == 0);
        self.message_slots += u64::from(new == SlotContent::Message as u8);
        self.message_slots -= u64::from(old == SlotContent::Message as u8);
    }

    /// Slot `t`'s code: 0 for a silent slot, else its [`SlotContent`].
    fn code(&self, t: u64) -> u8 {
        if self.buckets.is_empty() {
            self.codes[t as usize]
        } else {
            (self.buckets[self.bucket_of(t)] & 3) as u8
        }
    }
}

/// Splits sorted `listens` into runs: `[..a]` in the `skew` prefix, `[b..]`
/// from `jam_start` ([`JamPlan::suffix_start`]; none for a scattered plan,
/// whose jammed slots stay inside), and the audible run `[a..b]`.
pub(crate) fn listen_runs(listens: &[u64], skew: u64, jam_start: Option<u64>) -> (usize, usize) {
    let a = listens.partition_point(|&t| t < skew);
    let b = jam_start.map_or(listens.len(), |s| {
        a + listens[a..].partition_point(|&t| t < s)
    });
    (a, b)
}

/// The slots in both sorted, duplicate-free `x` and `y`, in order: each
/// slot of the shorter is searched in the longer, `O(min · log max)`.
pub(crate) fn shared_slots<'s>(x: &'s [u64], y: &'s [u64]) -> impl Iterator<Item = u64> + 's {
    let (few, many) = if x.len() <= y.len() { (x, y) } else { (y, x) };
    few.iter()
        .copied()
        .filter(|s| many.binary_search(s).is_ok())
}

/// Step 3 for one node: its listen actions (`listens` minus its `own`
/// sends), the clear slots it heard and its `m` receptions kept.
fn resolve_listener(
    listens: &[u64],
    own: &[u64],
    skew: u64,
    plan: &JamPlan,
    len: u64,
    map: &SlotMap,
    loss: &mut LossCoins,
) -> (u64, u64, u64) {
    let jam_start = plan.suffix_start(len);
    let (a, b) = listen_runs(listens, skew, jam_start);
    let (mut clear, mut raw_m) = (0u64, 0u64);
    for &t in &listens[a..b] {
        if jam_start.is_none() && plan.is_jammed(t, len) {
            continue;
        }
        let code = map.code(t);
        clear += u64::from(code == 0);
        raw_m += u64::from(code == SlotContent::Message as u8);
    }
    // An own send slot is busy in the map, so it never counted as clear;
    // it counted as `m` if it is audible and this node sent `m` there alone.
    let mut own_listens = 0u64;
    for s in shared_slots(own, listens) {
        own_listens += 1;
        if s >= skew && !plan.is_jammed(s, len) && map.code(s) == SlotContent::Message as u8 {
            raw_m -= 1;
        }
    }
    (listens.len() as u64 - own_listens, clear, loss.kept(raw_m))
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

/// The fast engine's repetition step (steps 1–4 above) and its reusable
/// sampling buffers; one serves a whole [`BroadcastSession`].
#[derive(Debug, Default)]
struct FastChannel {
    /// Every node's sorted send slots, back to back; node `u`'s are
    /// `own_sends[own_send_offsets[u]..own_send_offsets[u + 1]]`.
    own_sends: Vec<u64>,
    own_send_offsets: Vec<usize>,
    slot_map: SlotMap,
    scratch: Vec<u64>,
    /// The run's loss coins, drawn off the trial RNG as the run starts.
    loss: LossCoins,
}

impl Repetition for FastChannel {
    fn resolve(
        &mut self,
        singles: &mut Singletons,
        rep: &Rep<'_>,
        rng: &mut RcbRng,
    ) -> RepetitionSummary {
        let Self {
            own_sends,
            own_send_offsets,
            slot_map,
            scratch,
            loss,
        } = self;
        let (params, len) = (rep.params, rep.ctx.slots);

        // 1. Send events. Radio-off nodes sample nothing: no coin flips,
        // so their RNG consumption pauses with the radio. Each node's
        // sorted send slots are kept for steps 2 and 3.
        own_sends.clear();
        for (u, node) in singles.nodes.iter().enumerate() {
            if !node.is_terminated() && !singles.gate.off[u] {
                sample_slots_into(rng, len, node.send_prob(params), scratch);
                singles.costs[u] += scratch.len() as u64;
                own_sends.extend_from_slice(scratch);
            }
            own_send_offsets[u + 1] = own_sends.len();
        }

        // 2. The channel state, sized now that every send is drawn.
        slot_map.reset(own_sends.len(), len);
        for (u, node) in singles.nodes.iter().enumerate() {
            let message = node.sends_message();
            for &t in &own_sends[own_send_offsets[u]..own_send_offsets[u + 1]] {
                slot_map.insert(t, message);
            }
        }

        // 3. Listen events, resolved by run; 4. each node's epilogue, which
        // reads only its own counts (zero while its radio is off).
        let mut total_listens = 0u64;
        for (u, node) in singles.nodes.iter_mut().enumerate() {
            if node.is_terminated() {
                continue;
            }
            let (mut clear, mut messages) = (0, 0);
            if !singles.gate.off[u] {
                sample_slots_into(rng, len, node.listen_prob(params), scratch);
                let own = &own_sends[own_send_offsets[u]..own_send_offsets[u + 1]];
                let skew = rep.faults.skew_slots(singles.ids[u]);
                let listens;
                (listens, clear, messages) =
                    resolve_listener(scratch, own, skew, rep.plan, len, slot_map, loss);
                singles.costs[u] += listens;
                total_listens += listens;
            }
            node.end_repetition(params, clear, messages);
        }
        RepetitionSummary {
            message_slots: slot_map.message_slots,
            busy_slots: slot_map.busy_slots,
            jammed_slots: rep.jammed,
            listen_actions: total_listens,
            send_actions: own_sends.len() as u64,
        }
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
    singles: Singletons,
    channel: FastChannel,
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
        assert!(faults.validate(n).is_ok(), "invalid fault plan");
        assert!(n >= 1, "need at least one node");
        assert!(!sources.is_empty(), "need at least one source");
        assert!(sources.iter().all(|&s| s < n), "source ids must be < n");
        Self {
            singles: Singletons::new(&params, (0..n).collect(), &sources),
            channel: FastChannel {
                own_send_offsets: vec![0; n + 1],
                ..FastChannel::default()
            },
            params,
            sources,
            config,
            faults,
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
        // `FaultPlan::none()` leaves the caller's stream alone.
        self.channel.loss = LossCoins::new(&self.faults, &mut self.rng);
        run_repetitions(
            &mut self.singles,
            &mut self.channel,
            &self.params,
            self.config.max_epoch,
            &self.faults,
            adversary,
            observer,
            &mut self.rng,
            deadline,
        )
    }
}

impl Session for BroadcastSession {
    type Outcome = BroadcastOutcome;

    fn rearm(&mut self, seed: u64) {
        self.singles.rearm(&self.params, &self.sources);
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rcb_adversary::rep_strategies::{BudgetedRepBlocker, NoJamRep};
    use rcb_mathkit::sample::bernoulli;

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

    /// Slot `t`'s content decoded from the map's code; `None` is silent.
    fn content(map: &SlotMap, t: u64) -> Option<SlotContent> {
        match map.code(t) {
            0 => None,
            1 => Some(SlotContent::Message),
            2 => Some(SlotContent::SingleNoise),
            _ => Some(SlotContent::Collision),
        }
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

    /// Fills `map` for a `len`-slot repetition of `sends` and checks it
    /// against [`collapse`] on every busy slot, on the `silent` slots and in
    /// both counters.
    fn check_against_collapse(map: &mut SlotMap, len: u64, sends: &[(u64, bool)], silent: &[u64]) {
        map.reset(sends.len(), len);
        for &(t, message) in sends {
            map.insert(t, message);
        }
        let expected = collapse(sends);
        for &(t, busy) in &expected {
            assert_eq!(content(map, t), Some(busy), "busy slot {t}");
        }
        for &t in silent {
            assert!(expected.iter().all(|e| e.0 != t), "slot {t} is busy");
            assert_eq!(content(map, t), None, "silent slot {t}");
        }
        let messages = expected.iter().filter(|e| e.1 == SlotContent::Message);
        assert_eq!(map.busy_slots, expected.len() as u64);
        assert_eq!(map.message_slots, messages.count() as u64);
    }

    /// [`check_against_collapse`] on a fresh map.
    fn map_matching_collapse(len: u64, sends: &[(u64, bool)], silent: &[u64]) -> SlotMap {
        let mut map = SlotMap::default();
        check_against_collapse(&mut map, len, sends, silent);
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
        let map = map_matching_collapse(len, &few, &[1, 16, len - 2, len / 2]);
        assert_eq!((map.buckets.len(), map.codes.len()), (16, 0));

        let spread: Vec<(u64, bool)> = (1..=20u64)
            .map(|k| (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 24, k % 3 == 0))
            .collect();
        assert!(spread.iter().all(|&(t, _)| t < len));
        let map = map_matching_collapse(len, &spread, &[2, len - 3]);
        assert_eq!(map.buckets.len(), 64, "next_pow2(2 · 20)");
    }

    #[test]
    fn slot_map_resolves_keys_that_share_low_bits() {
        // Seven sends size the table at 16 buckets, and a repetition longer
        // than its 128 bytes keeps it hashed; slots `16k + 15` chain from the
        // last bucket round to the first, and the `16k` slots queue up
        // behind them.
        let sends = [
            (15, true),
            (31, false),
            (47, true),
            (63, false),
            (0, true),
            (16, true),
            (31, true), // mid-chain: noise + m collide
        ];
        let map = map_matching_collapse(129, &sends, &[79, 32, 48, 1]);
        assert_eq!(map.buckets.len(), 16);
        assert_eq!(content(&map, 31), Some(SlotContent::Collision));
    }

    #[test]
    fn slot_map_collides_three_or_more_senders() {
        let mut sends = vec![(5, true); 3];
        sends.extend([(9, true), (9, false), (9, false), (9, true), (2, true)]);
        let map = map_matching_collapse(16, &sends, &[0, 3]);
        assert_eq!(content(&map, 5), Some(SlotContent::Collision));
        assert_eq!(content(&map, 9), Some(SlotContent::Collision));
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
        let map = map_matching_collapse(16, &sends, &[0, 5, 6]);
        assert_eq!(content(&map, 3), Some(SlotContent::Message));
        assert_eq!(content(&map, 4), Some(SlotContent::SingleNoise));
        assert_eq!(
            content(&map, 7),
            Some(SlotContent::Collision),
            "two m's collide"
        );
        assert_eq!(content(&map, 8), Some(SlotContent::Collision));
    }

    #[test]
    fn slot_map_matches_collapse_on_sampled_repetitions() {
        // Per-node Bernoulli send slots, as step 1 draws them, at lengths
        // below, at and above the table's capacity (dense at 2^6 and 2^10,
        // hashed at 2^20 and 2^40); the map is reused.
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
            map.reset(sends.len(), len);
            for &(t, message) in &sends {
                map.insert(t, message);
            }
            let expected = collapse(&sends);
            for t in (0..len.min(4096)).chain(expected.iter().map(|e| e.0)) {
                let want = expected.iter().find(|e| e.0 == t).map(|e| e.1);
                assert_eq!(content(&map, t), want, "len {len}, slot {t}");
            }
            assert_eq!(map.busy_slots, expected.len() as u64, "len {len}");
            assert_eq!(map.buckets.is_empty(), len <= 1 << 10, "len {len}: form");
        }
    }

    #[test]
    fn slot_map_forms_match_collapse_either_side_of_the_dense_bound() {
        // Lengths one below, at and one above `8·cap` (dense, dense,
        // hashed) and 2^40, for several send counts, with repeated slots.
        // One map serves every repetition, switching dense → hashed →
        // dense → hashed → dense, and every slot busy in an earlier
        // repetition is checked silent unless busy now, so no stale code
        // or bucket can leak through a switch.
        let mut rng = RcbRng::new(33);
        let mut map = SlotMap::default();
        let mut earlier = Vec::new();
        for sends_n in [0u64, 7, 40, 300] {
            let cap = (2 * sends_n).max(16).next_power_of_two();
            let bound = 8 * cap;
            for len in [bound - 1, bound + 1, bound, 1 << 40, bound - 1] {
                let mut sends: Vec<(u64, bool)> = Vec::new();
                for k in 0..sends_n {
                    let t = if k % 3 == 2 {
                        sends[rng.below(k) as usize].0
                    } else {
                        rng.below(len)
                    };
                    sends.push((t, rng.below(2) == 0));
                }
                let busy = |t: u64| sends.iter().any(|s| s.0 == t);
                let probes = (0..64).map(|_| rng.below(len));
                let silent: Vec<u64> = [0, len / 2, len - 1]
                    .into_iter()
                    .chain(earlier.iter().copied().filter(|&t| t < len))
                    .chain(probes)
                    .filter(|&t| !busy(t))
                    .collect();
                check_against_collapse(&mut map, len, &sends, &silent);
                let dense = len <= bound;
                assert_eq!(map.codes.len() as u64, if dense { len } else { 0 });
                assert_eq!(map.buckets.len() as u64, if dense { 0 } else { cap });
                assert!(
                    map.codes.len() as u64 <= cap * std::mem::size_of::<u64>() as u64,
                    "the dense table holds more bytes than the hashed one would"
                );
                earlier.extend(sends.iter().map(|s| s.0));
            }
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

    /// Step 3 for one node as it was before listens were resolved by run,
    /// verbatim but for taking its inputs as arguments and returning its
    /// counts: a forward merge drops the node's own send slots, then each
    /// listen is checked for skew and jamming and looked up in the map,
    /// with one loss coin per `m`. Returns `(listens, clear, messages)`.
    #[allow(clippy::too_many_arguments)]
    fn per_listen_reference(
        scratch: &[u64],
        own: &[u64],
        skew: u64,
        plan: &JamPlan,
        len: u64,
        slot_map: &SlotMap,
        fault_rng: &mut Option<RcbRng>,
        loss_p: f64,
    ) -> (u64, u64, u64) {
        let lost = |frng: &mut Option<RcbRng>| match frng {
            Some(r) if loss_p > 0.0 => bernoulli(r, loss_p),
            _ => false,
        };
        let (mut listens, mut clear, mut messages) = (0u64, 0u64, 0u64);
        let mut next_own = 0;
        for &t in scratch.iter() {
            while own.get(next_own).is_some_and(|&s| s < t) {
                next_own += 1;
            }
            if own.get(next_own) == Some(&t) {
                continue; // a radio cannot send and listen at once
            }
            listens += 1;
            if t < skew {
                continue; // clock skew: boundary slots decode as noise
            }
            if plan.is_jammed(t, len) {
                continue; // noise
            }
            match content(slot_map, t) {
                None => clear += 1,
                Some(SlotContent::Message) => {
                    if !lost(fault_rng) {
                        messages += 1;
                    }
                }
                Some(SlotContent::SingleNoise | SlotContent::Collision) => {}
            }
        }
        (listens, clear, messages)
    }

    /// A jam plan of every shape for a `len`-slot repetition: none, all, a
    /// suffix of any length (also longer than `len`) or scattered slots.
    pub(crate) fn any_plan(rng: &mut RcbRng, len: u64) -> JamPlan {
        match rng.below(5) {
            0 => JamPlan::None,
            1 => JamPlan::All,
            2 => JamPlan::Suffix(rng.below(len + 1)),
            3 => JamPlan::Suffix(len + 1 + rng.below(len)),
            _ => {
                let mut slots = Vec::new();
                sample_slots_into(rng, len + 8, 0.25, &mut slots);
                JamPlan::Slots(slots)
            }
        }
    }

    /// A skew below, at or above the plan's jam start (the middle of the
    /// repetition for a scattered plan), zero, or past the repetition.
    pub(crate) fn any_skew(rng: &mut RcbRng, plan: &JamPlan, len: u64) -> u64 {
        let start = plan.suffix_start(len).unwrap_or(len / 2);
        match rng.below(5) {
            0 => 0,
            1 => rng.below(start + 1),
            2 => start,
            3 => start + 1 + rng.below(len - start + 1),
            _ => len + rng.below(4),
        }
    }

    /// Loss coins of every kind: no fault stream, a stream without loss,
    /// and loss at 0.3 and 1. Its `rng` and `p` are what the reference
    /// loops take as `fault_rng` and `loss_p`.
    pub(crate) fn any_loss(rng: &mut RcbRng) -> LossCoins {
        let p = [0.0, 0.0, 0.3, 1.0][rng.below(4) as usize];
        let stream = rng.below(4) != 0;
        LossCoins {
            rng: stream.then(|| rng.split()),
            p: if stream { p } else { 0.0 },
        }
    }

    /// `slots` plus about half of `extra`, sorted and deduplicated: forces
    /// listens onto send slots, which independent draws rarely hit.
    pub(crate) fn with_some_of(rng: &mut RcbRng, slots: &[u64], extra: &[u64]) -> Vec<u64> {
        let mut out = slots.to_vec();
        out.extend(extra.iter().filter(|_| rng.below(2) == 0));
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn listens_by_run_match_the_per_listen_loop() {
        // Random repetitions: a few senders, informed or not, every plan
        // shape, skew on either side of the jam start, listens forced onto
        // the listener's own send slots, loss on and off. Every node of
        // the repetition listens in turn against one loss stream, so the
        // coins of the whole step must line up.
        let mut rng = RcbRng::new(2014);
        let (mut fixups, mut coin_reps, mut own_runs) = (0, 0, [0u32; 3]);
        let mut map = SlotMap::default();
        let mut listens = Vec::new();
        for case in 0..4000 {
            let len = 16u64 << rng.below(7);
            let nodes = 1 + rng.below(5) as usize;
            let (mut sends, mut informed) = (Vec::new(), Vec::new());
            for _ in 0..nodes {
                let p = [0.0, 0.02, 0.1, 0.4][rng.below(4) as usize];
                let mut own = Vec::new();
                sample_slots_into(&mut rng, len, p, &mut own);
                sends.push(own);
                informed.push(rng.below(2) == 0);
            }
            map.reset(sends.iter().map(Vec::len).sum(), len);
            for (own, &m) in sends.iter().zip(&informed) {
                for &t in own {
                    map.insert(t, m);
                }
            }
            let plan = any_plan(&mut rng, len);
            let mut loss = any_loss(&mut rng);
            let mut fault_rng = loss.rng.clone();
            let (mut total, mut total_ref) = (0, 0);
            for (own, &m) in sends.iter().zip(&informed) {
                let skew = any_skew(&mut rng, &plan, len);
                let q = [0.0, 0.05, 0.3, 0.9][rng.below(4) as usize];
                sample_slots_into(&mut rng, len, q, &mut listens);
                let listens = with_some_of(&mut rng, &listens, own);
                let got = resolve_listener(&listens, own, skew, &plan, len, &map, &mut loss);
                let want = per_listen_reference(
                    &listens,
                    own,
                    skew,
                    &plan,
                    len,
                    &map,
                    &mut fault_rng,
                    loss.p,
                );
                assert_eq!(got, want, "case {case}: {plan:?} skew {skew} len {len}");
                assert_eq!(loss.rng, fault_rng, "case {case}: loss stream");
                total += got.0;
                total_ref += want.0;
                for s in shared_slots(own, &listens) {
                    let jammed = plan.is_jammed(s, len);
                    own_runs[if s < skew {
                        0
                    } else if jammed {
                        2
                    } else {
                        1
                    }] += 1;
                    let alone_with_m = content(&map, s) == Some(SlotContent::Message);
                    fixups += u32::from(m && s >= skew && !jammed && alone_with_m);
                }
                coin_reps += u32::from(loss.p == 0.3 && want.2 > 0);
            }
            assert_eq!(total, total_ref, "case {case}: total listens");
        }
        assert!(
            own_runs.iter().all(|&k| k > 100),
            "own sends per run {own_runs:?}"
        );
        assert!(
            fixups > 100 && coin_reps > 100,
            "{fixups} fix-ups, {coin_reps}"
        );
    }

    #[test]
    fn listen_runs_split_at_the_skew_and_the_jam_start() {
        let listens = [0u64, 2, 3, 5, 8, 9, 12, 15];
        let split = |plan: JamPlan, skew| listen_runs(&listens, skew, plan.suffix_start(16));
        assert_eq!(split(JamPlan::None, 0), (0, 8));
        assert_eq!(split(JamPlan::None, 3), (2, 8));
        assert_eq!(
            split(JamPlan::Suffix(4), 3),
            (2, 6),
            "slots 12 and 15 jammed"
        );
        assert_eq!(
            split(JamPlan::Suffix(4), 12),
            (6, 6),
            "skew at the jam start"
        );
        assert_eq!(split(JamPlan::Suffix(8), 13), (7, 7), "skew past it");
        assert_eq!(split(JamPlan::Suffix(99), 0), (0, 0));
        assert_eq!(split(JamPlan::All, 5), (3, 3));
        assert_eq!(split(JamPlan::None, 99), (8, 8));
        assert_eq!(split(JamPlan::Slots(vec![2, 9]), 1), (1, 8), "no suffix");
        assert_eq!(listen_runs(&[], 4, Some(2)), (0, 0));
    }

    #[test]
    fn shared_slots_are_the_intersection_in_order() {
        let common = |x: &[u64], y: &[u64]| shared_slots(x, y).collect::<Vec<_>>();
        assert_eq!(common(&[1, 3, 5, 7], &[2, 3, 7]), [3, 7]);
        assert_eq!(common(&[2, 3, 7], &[1, 3, 5, 7]), [3, 7]);
        assert_eq!(common(&[], &[1, 2]), [] as [u64; 0]);
        assert_eq!(common(&[4], &[]), [] as [u64; 0]);
    }
}
