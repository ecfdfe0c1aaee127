//! Population-compressed 1-to-n engine: cohorts instead of nodes.
//!
//! [`fast`](crate::fast) samples every node's send/listen events per
//! repetition — `O(n)` work per repetition even when almost all nodes are
//! in *identical* protocol states. This engine exploits that symmetry: the
//! population is a set of **cohorts**, each a `(representative node state,
//! member count)` record, and a repetition is resolved with work
//! proportional to the number of *distinct states*, not the number of
//! nodes:
//!
//! 1. **Channel composition.** Per-slot content is i.i.d. across a
//!    repetition's slots (every node's send coins are), so the counts of
//!    clear / single-message / other slots in each jam/skew region follow a
//!    multinomial over closed-form probabilities (`P(clear) = Π(1−p_c)^m_c`
//!    etc.) — drawn with `O(cohorts)` binomial splits
//!    ([`rcb_mathkit::sample::multinomial_into`]), never by iterating
//!    slots.
//! 2. **Cohort dynamics.** Members of a cohort hear i.i.d.
//!    `Binomial(clear slots, listen_prob)` clear counts, so the cohort
//!    splits into sub-cohorts by drawn clear value (a multinomial over the
//!    binomial's support, walked with the pmf recurrence), then by message
//!    outcome (heard `m` / promoted to helper). Each sub-cohort's state
//!    transition is delegated to the *real*
//!    [`OneToNNode::end_repetition`] on a representative copy — the cohort
//!    engine contains no duplicate of the protocol state machine.
//! 3. **Lazy materialization.** Nodes whose symmetry is broken from the
//!    outside — the designated sources (own-transmission exclusion) and
//!    fault targets (crash, skew) — are *tracked singletons*: cohorts of
//!    count 1 with exact per-node draws. Everyone else stays anonymous
//!    until a drawn outcome differs, at which point the cohort splits;
//!    sub-cohorts whose states re-converge (epoch reset) re-merge.
//!
//! Below [`CohortConfig::exact_member_threshold`] members (and always under
//! a battery fault, whose per-node energy gauge breaks every symmetry) the
//! engine tracks *every* node as a singleton: per-node dynamics are then
//! exact, which is the regime the conformance differ gates at n ≤ 256.
//!
//! ## Documented approximations (relative to [`fast`](crate::fast))
//!
//! All engines agree only *in distribution* — but this engine's per-node
//! marginals carry three deliberate deviations, each negligible at the
//! scales where it is active and absent in all-singleton mode where noted:
//!
//! * **Hearing decoupling.** Two listeners of the same slot hear the same
//!   thing in `fast`; here each node's heard counts are drawn
//!   independently given the composition. Per-node marginals are exact;
//!   only cross-node correlations differ.
//! * **Own-singleton exclusion for anonymous cohorts.** An anonymous
//!   informed node's heard-message draw does not exclude the handful of
//!   singleton slots it produced itself (tracked singletons do). Helper
//!   promotion needs `msgs > helper_frac·d·i` — reached only when message
//!   singles vastly outnumber any one node's own — so the promotion bias
//!   is far below statistical resolution.
//! * **Cost pooling.** Anonymous cohorts draw send/listen *totals*
//!   (`Binomial(count·slots, p)`), exact for sums — so `mean_cost` is
//!   exact — and smear them evenly across members on output, so per-node
//!   cost spread (`max_cost`) is compressed at large n. All-singleton mode
//!   draws per-node costs individually and has no smearing.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use rcb_adversary::traits::{JamPlan, RepetitionAdversary, RepetitionSummary};
use rcb_core::one_to_n::node::{OneToNNode, Status, TermReason};
use rcb_core::one_to_n::params::OneToNParams;
use rcb_mathkit::binom::{
    binomial_tail_gt, ln_factorial, BinomialLn, TailSum, F64_EXACT_INT_BOUND,
};
use rcb_mathkit::rng::RcbRng;
use rcb_mathkit::sample::{binomial_fast, multinomial_into, CoinBetween};
use serde::{Deserialize, Serialize};

use crate::deadline::Deadline;
use crate::error::SimError;
use crate::faults::FaultPlan;
use crate::outcome::BroadcastOutcome;
use crate::population::{run_repetitions, Cohort, Rep, Repetition, Singletons};
use crate::session::{run_on, OwnsRng, Session};

/// Limits and mode selection for the cohort engine.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CohortConfig {
    /// Hard cap on the epoch index; runs reaching it are truncated. Same
    /// semantics as [`FastConfig::max_epoch`](crate::fast::FastConfig).
    pub max_epoch: u32,
    /// Populations up to this size are simulated with every node as a
    /// tracked singleton (exact per-node dynamics); larger populations use
    /// anonymous cohorts. The default keeps every conformance grid size
    /// (n ≤ 256) in exact mode with headroom.
    pub exact_member_threshold: usize,
}

impl Default for CohortConfig {
    fn default() -> Self {
        Self {
            max_epoch: 40,
            exact_member_threshold: 384,
        }
    }
}

impl CohortConfig {
    /// Whether a run of `n` nodes under `faults` runs in aggregate mode,
    /// pooling its anonymous cohorts' costs: above the exact-member
    /// threshold and without a battery fault (whose per-node gauges force
    /// every node to be tracked). A pooled run's per-node cost spread
    /// (`max_cost`) is smeared, not measured.
    pub fn pools_costs(&self, n: usize, faults: &FaultPlan) -> bool {
        n > self.exact_member_threshold && faults.battery.is_none()
    }
}

/// Compression diagnostics from an instrumented run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CohortStats {
    /// Peak number of simultaneously live anonymous cohorts.
    pub max_live_cohorts: usize,
    /// Repetitions in which at least one cohort split into multiple
    /// distinct successor states.
    pub split_repetitions: u64,
    /// First period (repetition index) at which any cohort split — the
    /// lazy-materialization boundary.
    pub first_split_period: Option<u64>,
    /// Number of tracked singleton nodes.
    pub tracked_nodes: usize,
}

/// Merge key for anonymous cohorts. Live cohorts merge on (status, epoch,
/// quantized log₂ S_u, n-estimate, informed history); terminated cohorts
/// are inert, so they merge on (reason, informed history) alone.
///
/// The quantization lattice (1/64 of a doubling) re-merges cohorts whose
/// rate variables drifted apart by less than the protocol can resolve in
/// one repetition; in all-singleton mode no anonymous cohorts exist, so
/// quantization never touches the conformance-gated scales.
///
/// A key is built and looked up once per successor cohort, on every
/// anonymous-cohort visit, so both halves are kept cheap: `qls` is rounded
/// by casts ([`round_to_i64`]) rather than a `round` call, and the merge
/// index hashes keys with [`KeyHasher`] rather than SipHash. Neither
/// choice can move a result: the index is only looked up, never iterated
/// (a cohort's position is its push order), and the rounding equals
/// `round() as i64` for every `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CohortKey {
    Live {
        status: Status,
        epoch: u32,
        qls: i64,
        n_est_bits: u64,
        ever_informed: bool,
    },
    Terminated {
        reason: Option<TermReason>,
        ever_informed: bool,
    },
}

const QLS_PER_DOUBLING: f64 = 64.0;

fn cohort_key(node: &OneToNNode) -> CohortKey {
    if node.is_terminated() {
        CohortKey::Terminated {
            reason: node.term_reason(),
            ever_informed: node.ever_informed(),
        }
    } else {
        CohortKey::Live {
            status: node.status(),
            epoch: node.epoch(),
            qls: round_to_i64(node.s().log2() * QLS_PER_DOUBLING),
            n_est_bits: node.n_estimate().map_or(0, f64::to_bits),
            ever_informed: node.ever_informed(),
        }
    }
}

/// `x.round() as i64` — half away from zero, saturating, NaN to 0 — for
/// every `f64`, without the out-of-line `round` call.
///
/// The truncating cast gives `t`; below `2^63` in magnitude both `t as f64`
/// and `x − t` (the fractional part) are exact, so comparing the fraction
/// with ±½ decides the rounding exactly (`0.49999999999999994` stays 0,
/// unlike `(x + 0.5)` then truncate). Past `2^53` `x` is an integer and the
/// fraction is 0; at or past `±2^63` (and ±∞) `t` saturates and the
/// saturating step keeps it there; NaN casts to 0 and fails both tests.
fn round_to_i64(x: f64) -> i64 {
    let t = x as i64;
    let frac = x - t as f64;
    t.saturating_add(i64::from(frac >= 0.5))
        .saturating_sub(i64::from(frac <= -0.5))
}

/// The merge index's hasher: an Fx-style multiply-rotate over the key's
/// words. Deterministic and unkeyed, which is safe here: the keys come
/// from the simulation, not from outside, and the index is lookup-only,
/// so its hash affects speed, never results.
#[derive(Debug, Default, Clone, Copy)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(K);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Successor-cohort key → position in the cohort list being built.
type MergeIndex = HashMap<CohortKey, usize, BuildHasherDefault<KeyHasher>>;

/// One fault-free, unbounded cohort-engine run on the caller's RNG that
/// also reports compression diagnostics — how many cohorts existed, when
/// the first symmetry break split one (the benchmark's trace pass reads
/// them).
pub fn run_cohort_instrumented(
    params: &OneToNParams,
    n: usize,
    sources: &[usize],
    adversary: &mut dyn RepetitionAdversary,
    rng: &mut RcbRng,
    config: CohortConfig,
) -> (BroadcastOutcome, CohortStats) {
    let mut session =
        CohortSession::new(*params, n, sources.to_vec(), config, FaultPlan::none(), 0);
    let (out, _) = run_on(&mut session, rng, adversary, &Deadline::NONE);
    let mut stats = session.state.stats;
    stats.tracked_nodes = session.singles.ids.len();
    (out, stats)
}

/// Channel-composition slot categories, drawn per region each repetition.
/// Layout: `[clear, anonymous message singles, tracked-sender singles...,
/// everything else]`.
const CAT_CLEAR: usize = 0;
const CAT_MSG_ANON: usize = 1;
const CAT_TRACKED_BASE: usize = 2;

/// The cohort engine's repetition step: the anonymous cohort list, the
/// run's compression diagnostics and every reusable sampling buffer. The
/// tracked singletons live next to it in the session.
#[derive(Debug)]
struct CohortState {
    cohorts: Vec<Cohort>,
    /// The skewed node's index among the singletons, and its skew.
    skew: Option<(usize, u64)>,
    stats: CohortStats,
    weights: Vec<f64>,
    region_counts: Vec<Vec<u64>>,
    scratch_counts: Vec<u64>,
    clear_groups: Vec<(u64, u64)>,
    next_cohorts: Vec<Cohort>,
    merge_index: MergeIndex,
    /// Per tracked node, this repetition's `(p, ln(1 − p))` send terms.
    send_terms: Vec<(f64, f64)>,
}

impl CohortState {
    /// The tracked singletons and the step for a run of `n` nodes.
    fn new(
        params: &OneToNParams,
        n: usize,
        sources: &[usize],
        config: CohortConfig,
        faults: &FaultPlan,
    ) -> (Singletons, Self) {
        assert!(n >= 1, "need at least one node");
        assert!(!sources.is_empty(), "need at least one source");
        assert!(sources.iter().all(|&s| s < n), "source ids must be < n");

        // Mode selection: everyone tracked below the threshold or under a
        // battery fault; otherwise only the symmetry-broken nodes (sources,
        // crash/skew targets).
        let ids: Vec<usize> = if !config.pools_costs(n, faults) {
            (0..n).collect()
        } else {
            let mut ids: Vec<usize> = sources.to_vec();
            ids.extend(faults.crash.map(|c| c.node));
            ids.extend(faults.skew.map(|s| s.node));
            ids.sort_unstable();
            ids.dedup();
            ids
        };
        let singles = Singletons::new(params, ids, sources);
        let mut state = Self {
            cohorts: vec![Cohort {
                node: OneToNNode::new(params, false),
                count: (n - singles.ids.len()) as u64,
                cost_pool: 0,
            }],
            skew: faults
                .skew
                .and_then(|s| Some((singles.ids.binary_search(&s.node).ok()?, s.slots))),
            stats: CohortStats::default(),
            weights: Vec::new(),
            region_counts: vec![Vec::new(); 4],
            scratch_counts: Vec::new(),
            clear_groups: Vec::new(),
            next_cohorts: Vec::new(),
            merge_index: MergeIndex::default(),
            send_terms: Vec::new(),
        };
        state.rearm(params);
        (singles, state)
    }

    /// Collapses the anonymous population back into one uninformed cohort
    /// of the same size, in place (anonymous nodes are never sources), and
    /// clears the diagnostics. The tracked ids never change across re-arms.
    fn rearm(&mut self, params: &OneToNParams) {
        let anon: u64 = self.cohorts.iter().map(|c| c.count).sum();
        self.cohorts.clear();
        if anon > 0 {
            self.cohorts.push(Cohort {
                node: OneToNNode::new(params, false),
                count: anon,
                cost_pool: 0,
            });
        }
        self.stats = CohortStats::default();
    }
}

impl Repetition for CohortState {
    fn bulk(&self) -> &[Cohort] {
        &self.cohorts
    }

    /// The epoch reset (S_u ← s_init) collapses the state space: re-merge
    /// everything that reconverged.
    fn bulk_begin_epoch(&mut self, epoch: u32, params: &OneToNParams) {
        self.next_cohorts.clear();
        self.merge_index.clear();
        for mut c in self.cohorts.drain(..) {
            c.node.begin_epoch(epoch, params);
            push_merged(&mut self.next_cohorts, &mut self.merge_index, c);
        }
        std::mem::swap(&mut self.cohorts, &mut self.next_cohorts);
    }

    fn resolve(
        &mut self,
        singles: &mut Singletons,
        rep: &Rep<'_>,
        rng: &mut RcbRng,
    ) -> RepetitionSummary {
        let Self {
            cohorts,
            skew,
            stats,
            weights,
            region_counts,
            scratch_counts,
            clear_groups,
            next_cohorts,
            merge_index,
            send_terms,
        } = self;
        let (params, plan, jam_total) = (rep.params, rep.plan, rep.jammed);
        let (epoch, period, len) = (rep.ctx.epoch, rep.ctx.repetition, rep.ctx.slots);
        let loss_p = rep.faults.loss_p();

        // --- Region decomposition -----------------------------------------
        // Slot contents are i.i.d., so region compositions are independent
        // multinomials over the same category probabilities; only the
        // region *lengths* differ. Regions: (skew prefix vs rest) × (jammed
        // vs clear air). The prefix axis exists only while the skewed node
        // is live.
        let skew_prefix = skew
            .filter(|&(i, _)| !singles.nodes[i].is_terminated())
            .map_or(0, |(_, slots)| slots.min(len));
        let jam_in_prefix = jammed_in_prefix(plan, skew_prefix, len);
        // Region order: [rest∩unjam, prefix∩unjam, rest∩jam, prefix∩jam].
        let region_lens = [
            len - skew_prefix - (jam_total - jam_in_prefix),
            skew_prefix - jam_in_prefix,
            jam_total - jam_in_prefix,
            jam_in_prefix,
        ];

        // --- Composition probabilities ------------------------------------
        // ln P(clear) = Σ m_c·ln(1−p_c); a slot is a singleton of group g
        // with probability P(clear)·Σ_{u∈g} p_u/(1−p_u). Saturated senders
        // (p = 1, transient in the earliest epochs) make clear slots
        // impossible and collide with any other sender.
        let mut ln_rest = 0.0f64;
        let mut saturated = 0u64;
        let mut anon_msg_ratio = 0.0f64; // Σ m·p/(1−p) over msg senders
        let mut sat_category: Option<usize> = None; // category of a lone saturated sender

        // Each tracked node's send probability (0 while halted or offline)
        // and `ln(1 − p)`, computed once for the composition, the weights
        // and the node's own draws below.
        send_terms.clear();
        for (node, &offline) in singles.nodes.iter().zip(&singles.offline) {
            let halted = node.is_terminated() || offline;
            let p = if halted { 0.0 } else { node.send_prob(params) };
            let ln_1m_p = if p < 1.0 { (-p).ln_1p() } else { 0.0 };
            send_terms.push((p, ln_1m_p));
            if halted {
                continue;
            }
            if p >= 1.0 {
                saturated += 1;
            } else {
                ln_rest += ln_1m_p;
            }
        }
        for c in cohorts.iter() {
            if c.node.is_terminated() {
                continue;
            }
            let p = c.node.send_prob(params);
            if p >= 1.0 {
                saturated += c.count;
            } else {
                ln_rest += c.count as f64 * (-p).ln_1p();
                if c.node.sends_message() {
                    anon_msg_ratio += c.count as f64 * p / (1.0 - p);
                }
            }
        }
        // A lone saturated *anonymous* sender can still produce singletons;
        // find which category it belongs to.
        if saturated == 1 {
            if let Some(c) = cohorts
                .iter()
                .find(|c| !c.node.is_terminated() && c.node.send_prob(params) >= 1.0)
            {
                sat_category = Some(if c.node.sends_message() {
                    CAT_MSG_ANON
                } else {
                    usize::MAX // noise singleton: lands in "rest"
                });
            }
        }
        let p0 = if saturated == 0 { ln_rest.exp() } else { 0.0 };

        weights.clear();
        weights.push(p0);
        weights.push(p0 * anon_msg_ratio);
        for &(p, ln_1m_p) in send_terms.iter() {
            let w = if saturated == 0 && p < 1.0 {
                // Remove this sender's own factor from ln P(clear).
                (ln_rest - ln_1m_p).exp() * p
            } else if saturated == 1 && p >= 1.0 {
                // The lone saturated sender: singleton wherever nobody else
                // transmits.
                ln_rest.exp()
            } else {
                0.0
            };
            weights.push(w);
        }
        if sat_category == Some(CAT_MSG_ANON) {
            weights[CAT_MSG_ANON] = ln_rest.exp();
        }
        let assigned: f64 = weights.iter().sum();
        weights.push((1.0 - assigned).max(0.0)); // noise + collisions

        for (r, &rlen) in region_lens.iter().enumerate() {
            multinomial_into(rng, rlen, weights, scratch_counts);
            region_counts[r].clear();
            region_counts[r].extend_from_slice(scratch_counts);
        }

        // `m` singles in `regions` from anonymous and tracked senders.
        let msgs_in = |regions: &[usize], nodes: &[OneToNNode]| -> u64 {
            let cat = |c: usize| regions.iter().map(|&r| region_counts[r][c]).sum::<u64>();
            cat(CAT_MSG_ANON)
                + nodes
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| v.sends_message())
                    .map(|(i, _)| cat(CAT_TRACKED_BASE + i))
                    .sum::<u64>()
        };
        let message_slots = msgs_in(&[0, 1, 2, 3], &singles.nodes);
        let busy_slots: u64 = len - (0..4).map(|r| region_counts[r][CAT_CLEAR]).sum::<u64>();
        // Audible regions for an unskewed listener: the unjammed ones.
        let clear_unjam = region_counts[0][CAT_CLEAR] + region_counts[1][CAT_CLEAR];
        let msg_unjam = |cat: usize| region_counts[0][cat] + region_counts[1][cat];
        let msg_total_unjam = msgs_in(&[0, 1], &singles.nodes);
        // The skewed node hears region 0 alone. Like every count here, it
        // is read from the senders' states before any epilogue below.
        let msg_skewed = if skew_prefix > 0 {
            msgs_in(&[0], &singles.nodes)
        } else {
            0
        };

        let mut total_listens = 0u64;
        let mut total_sends = 0u64;

        // --- Tracked singletons: exact per-node draws ---------------------
        for i in 0..singles.nodes.len() {
            let node = &singles.nodes[i];
            if node.is_terminated() {
                continue;
            }
            if singles.offline[i] {
                // Radio off, clock ticks: zero-count epilogue.
                singles.nodes[i].end_repetition(params, 0, 0);
                continue;
            }
            let p = send_terms[i].0;
            let q = node.listen_prob(params);
            let sends = binomial_fast(rng, len, p);
            let listens = binomial_fast(rng, len - sends, q);
            // The skewed node cannot decode its prefix: restrict its
            // audible counts to the non-prefix unjammed region.
            let skewed = skew_prefix > 0 && skew.is_some_and(|(s, _)| s == i);
            let (n0, msgs_avail) = if skewed {
                let own = if node.sends_message() {
                    region_counts[0][CAT_TRACKED_BASE + i]
                } else {
                    0
                };
                (region_counts[0][CAT_CLEAR], msg_skewed - own)
            } else {
                let own = if node.sends_message() {
                    msg_unjam(CAT_TRACKED_BASE + i)
                } else {
                    0
                };
                (clear_unjam, msg_total_unjam - own)
            };
            let clear = binomial_fast(rng, n0, q);
            let msgs = binomial_fast(rng, msgs_avail, q * (1.0 - loss_p));
            singles.costs[i] += sends + listens;
            total_sends += sends;
            total_listens += listens;
            singles.nodes[i].end_repetition(params, clear, msgs);
        }

        // --- Anonymous cohorts: split by drawn outcome --------------------
        if !cohorts.is_empty() {
            next_cohorts.clear();
            merge_index.clear();
            let mut split_this_rep = false;
            // Every cohort's clear counts are Binomial(clear_unjam, q): the
            // `ln n!` of its pmfs is one value per repetition.
            let ln_clear_factorial = ln_factorial(clear_unjam);
            for c in cohorts.iter().copied() {
                if c.node.is_terminated() {
                    push_merged(next_cohorts, merge_index, c);
                    continue;
                }
                let p = c.node.send_prob(params);
                let q = c.node.listen_prob(params);
                // Pooled costs: exact totals, smeared per member.
                let sends = binomial_fast(rng, c.count * len, p);
                let listens = binomial_fast(rng, c.count * len - sends, q);
                total_sends += sends;
                total_listens += listens;
                let pool = c.cost_pool + sends + listens;

                // Split members by drawn clear count: only values above
                // ⌊E/2⌋ change S_u, so everything at or below merges into
                // one zero-growth group. The saturating cast is that floor
                // (and 0 for NaN) without a `floor` call.
                let expected = params.expected_listens(epoch, c.node.s());
                let t_growth = (expected / 2.0) as u64;
                split_by_clear(
                    rng,
                    c.count,
                    clear_unjam,
                    ln_clear_factorial,
                    q,
                    t_growth,
                    clear_groups,
                );

                // Message-outcome probabilities, shared by every clear group
                // (listen coins are independent across slots).
                let q_eff = (q * (1.0 - loss_p)).clamp(0.0, 1.0);
                let thr = params.helper_threshold(epoch);
                let (p_event, msgs_rep) = match c.node.status() {
                    Status::Uninformed => (p_hear_any(msg_total_unjam, q_eff), 1u64),
                    Status::Informed => {
                        let k = thr as u64; // ⌊thr⌋, 0 if negative or NaN
                        (binomial_tail_gt(msg_total_unjam, k, q_eff), k + 1)
                    }
                    Status::Helper | Status::Terminated => (0.0, 0),
                };

                let mut children = 0usize;
                let mut remaining_pool = pool;
                let mut remaining_members = c.count;
                let groups = std::mem::take(clear_groups);
                for (gi, &(clear, cnt)) in groups.iter().enumerate() {
                    let hit = if p_event > 0.0 {
                        binomial_fast(rng, cnt, p_event)
                    } else {
                        0
                    };
                    let subs = [(clear, hit, msgs_rep), (clear, cnt - hit, 0)];
                    for &(v, m, msgs) in subs.iter() {
                        if m == 0 {
                            continue;
                        }
                        let mut rep = c.node;
                        rep.end_repetition(params, v, msgs);
                        // Pool shares: proportional, remainder on the final
                        // child so totals are conserved.
                        let last = gi == groups.len() - 1 && m == remaining_members;
                        let share = if last {
                            remaining_pool
                        } else {
                            ((pool as u128 * m as u128) / c.count as u128) as u64
                        };
                        remaining_pool -= share;
                        remaining_members -= m;
                        children += 1;
                        push_merged(
                            next_cohorts,
                            merge_index,
                            Cohort {
                                node: rep,
                                count: m,
                                cost_pool: share,
                            },
                        );
                    }
                }
                *clear_groups = groups;
                debug_assert_eq!(remaining_members, 0);
                // Conservation: any rounding residue sticks to the last
                // child; if every child merged away the residue is already
                // inside next_cohorts.
                if children > 1 {
                    split_this_rep = true;
                }
            }
            std::mem::swap(cohorts, next_cohorts);
            if split_this_rep {
                stats.split_repetitions += 1;
                if stats.first_split_period.is_none() {
                    stats.first_split_period = Some(period);
                }
            }
            stats.max_live_cohorts = stats.max_live_cohorts.max(cohorts.len());
        }

        RepetitionSummary {
            message_slots,
            busy_slots,
            jammed_slots: jam_total,
            listen_actions: total_listens,
            send_actions: total_sends,
        }
    }
}

/// A cohort-engine session: one 1-to-n execution per
/// [`run`](Session::run), every node in `sources` starting informed.
///
/// `faults` layers a fault-injection plan with the other engines'
/// semantics; every fault target is a tracked singleton, and a battery
/// fault forces all-singleton mode (the energy gauge is per-node state
/// that anonymous cohorts cannot carry). Budget exhaustion and a fired
/// deadline come back as the typed [`SimError`] next to the partial
/// (`truncated`) outcome.
///
/// The cohort list, tracked-singleton vectors, and sampling buffers persist
/// across runs; [`rearm`](Session::rearm) collapses whatever population
/// structure the previous run materialized back into the initial cohorts.
///
/// ```
/// use rcb_sim::cohort::{CohortConfig, CohortSession};
/// use rcb_sim::deadline::Deadline;
/// use rcb_sim::faults::FaultPlan;
/// use rcb_sim::session::Session;
/// use rcb_adversary::rep_strategies::NoJamRep;
/// use rcb_core::one_to_n::OneToNParams;
///
/// let params = OneToNParams::practical();
/// let mut session =
///     CohortSession::new(params, 16, vec![0], CohortConfig::default(), FaultPlan::none(), 7);
/// let (out, err) = session.run(&mut NoJamRep, &Deadline::NONE);
/// assert!(err.is_none() && out.all_informed && out.all_terminated);
/// ```
#[derive(Debug)]
pub struct CohortSession {
    params: OneToNParams,
    sources: Vec<usize>,
    config: CohortConfig,
    faults: FaultPlan,
    singles: Singletons,
    state: CohortState,
    rng: RcbRng,
}

impl CohortSession {
    pub fn new(
        params: OneToNParams,
        n: usize,
        sources: Vec<usize>,
        config: CohortConfig,
        faults: FaultPlan,
        seed: u64,
    ) -> Self {
        assert!(faults.validate(n).is_ok(), "invalid fault plan");
        let (singles, state) = CohortState::new(&params, n, &sources, config, &faults);
        Self {
            params,
            sources,
            config,
            faults,
            singles,
            state,
            rng: RcbRng::new(seed),
        }
    }
}

impl Session for CohortSession {
    type Outcome = BroadcastOutcome;

    fn rearm(&mut self, seed: u64) {
        self.singles.rearm(&self.params, &self.sources);
        self.state.rearm(&self.params);
        self.rng = RcbRng::new(seed);
    }

    fn run(
        &mut self,
        adversary: &mut dyn RepetitionAdversary,
        deadline: &Deadline,
    ) -> (BroadcastOutcome, Option<SimError>) {
        run_repetitions(
            &mut self.singles,
            &mut self.state,
            &self.params,
            self.config.max_epoch,
            &self.faults,
            adversary,
            &mut (),
            &mut self.rng,
            deadline,
        )
    }
}

impl OwnsRng for CohortSession {
    fn rng_mut(&mut self) -> &mut RcbRng {
        &mut self.rng
    }
}

/// `P(at least one of `m` independent q-coins lands heads)`, stable for
/// tiny `q` and huge `m`.
fn p_hear_any(m: u64, q: f64) -> f64 {
    if m == 0 || q.is_nan() || q <= 0.0 {
        return 0.0;
    }
    if q >= 1.0 {
        return 1.0;
    }
    -(m as f64 * (-q).ln_1p()).exp_m1()
}

/// How many jammed slots fall inside `[0, prefix)`, for `prefix ≤ len`.
fn jammed_in_prefix(plan: &JamPlan, prefix: u64, len: u64) -> u64 {
    if prefix == 0 {
        return 0;
    }
    match plan {
        JamPlan::Slots(v) => v.iter().filter(|&&t| t < prefix && t < len).count() as u64,
        _ => plan
            .suffix_start(len)
            .map_or(0, |start| prefix.saturating_sub(start)),
    }
}

/// Distributes `m` i.i.d. `Binomial(n0, q)` clear-count draws into groups:
/// one merged group for every value ≤ `t` (those leave S_u unchanged, so
/// the exact value is irrelevant — representative 0), and one group per
/// drawn value above `t` (each maps to a distinct S_u).
///
/// The above-`t` histogram is walked with the conditional pmf recurrence:
/// `O(distinct occupied values)` binomial splits, which is `O(√(n0·q))`-ish
/// in the clear-channel regime and zero when the channel is noise- or
/// jam-saturated (the common large-n case). The caller passes `ln(n0!)`,
/// which it takes once per repetition; the tail and the walk's first pmf
/// share one [`BinomialLn`], so `ln q` and `ln(1 − q)` are taken once per
/// split, and a tail summed upward from `pmf(t + 1)` hands that first pmf
/// over instead of having it recomputed. A count-1 cohort's split
/// ([`split_one`]) sums only as much of the tail as its draws need.
fn split_by_clear(
    rng: &mut RcbRng,
    m: u64,
    n0: u64,
    ln_n0_factorial: f64,
    q: f64,
    t: u64,
    out: &mut Vec<(u64, u64)>,
) {
    out.clear();
    if m == 0 {
        return;
    }
    if q >= 1.0 {
        // Every member hears every clear slot.
        out.push((n0, m));
        return;
    }
    if n0 <= t {
        // No draw can exceed `t`: everyone is in the zero-growth group.
        out.push((0, m));
        return;
    }
    let dist = BinomialLn::with_ln_factorial(n0, ln_n0_factorial, q);
    let mut tail = dist.tail_sum(t);
    // The walk's start, taken only once some member lands above `t`.
    let walk = |tail: &TailSum| PmfWalk::start(&dist, tail, n0, q, t);
    if m == 1 {
        split_one(rng, &mut tail, walk, out);
    } else {
        split_many(rng, m, &mut tail, walk, out);
    }
    #[cfg(test)]
    tests::TAIL_TERMS.with(|c| c.set(c.get() + tail.terms()));
}

/// [`split_by_clear`] for `m ≥ 2`: the tail in full, `k_hi` members above
/// `t` drawn at once, then split value by value by the conditional
/// probability `pmf(v)/tail(v)`.
fn split_many(
    rng: &mut RcbRng,
    m: u64,
    tail: &mut TailSum,
    walk: impl FnOnce(&TailSum) -> PmfWalk,
    out: &mut Vec<(u64, u64)>,
) {
    tail.finish();
    let p_hi = tail.tail_gt();
    let k_hi = if p_hi > 0.0 {
        binomial_fast(rng, m, p_hi)
    } else {
        0
    };
    if m > k_hi {
        out.push((0, m - k_hi));
    }
    if k_hi == 0 {
        return;
    }
    let mut walk = walk(tail);
    let n0 = walk.n0;
    let mut k_rem = k_hi;
    let mut tail = p_hi;
    while k_rem > 0 {
        let v = walk.v;
        let take = if v >= n0 || tail <= f64::MIN_POSITIVE {
            k_rem
        } else if walk.pmf == 0.0 {
            // The pmf underflowed. Every step left draws nothing
            // (`binomial_fast` at p = 0 takes no word) and leaves `tail`
            // as it is, so the members left walk to `n0`.
            out.push((n0, k_rem));
            break;
        } else {
            let p_take = (walk.pmf / tail).clamp(0.0, 1.0);
            binomial_fast(rng, k_rem, p_take)
        };
        if take > 0 {
            out.push((v, take));
            k_rem -= take;
        }
        if k_rem == 0 || v >= n0 {
            if k_rem > 0 {
                out.push((n0, k_rem));
            }
            break;
        }
        tail -= walk.pmf;
        walk.step();
    }
}

/// [`split_by_clear`] for one member, deciding each draw from a bracket
/// on the tail.
///
/// The member's draws are `binomial_fast(rng, 1, ·)` coins: whether it
/// lands above `t` (probability `tail(t)`), then at each `v` whether it
/// stops there (`pmf(v)/tail(v)`). A [`TailSum`] brackets the tail after a
/// few terms, the walk carries that bracket's two ends through the same
/// `tail -= pmf` (subtraction is monotone), and [`CoinBetween`] takes a
/// coin's result when it is the same at both ends of its probability,
/// which `pmf / tail` and the clamp keep monotone. Most steps are a "not
/// here" far below the mode, and a walk step first tests only that, at
/// the upper end `pmf/lo` ([`CoinBetween::zero_up_to`]): a 0 there is a 0
/// at every probability below, and the general test would have taken the
/// same uniform and decided the same 0 without refining. Otherwise it asks
/// about `[pmf, pmf/lo]`, which holds `[pmf/hi, pmf/lo]` because
/// `hi ≤ 1`, and divides by `hi` only if that wider interval is
/// undecided. On disagreement the tail sums more terms and the walk
/// replays its subtractions from the narrower bracket; summed to the end,
/// the bracket is the exact tail and the coin finishes as `binomial_fast`
/// would. So the groups and the generator's state are those of
/// [`split_many`] at `m = 1`, while most tails stop after a handful of
/// terms.
fn split_one(
    rng: &mut RcbRng,
    tail: &mut TailSum,
    walk: impl FnOnce(&TailSum) -> PmfWalk,
    out: &mut Vec<(u64, u64)>,
) {
    // Terms the first bracket sums; each refinement doubles the total.
    const FIRST_TERMS: u64 = 4;
    tail.advance(FIRST_TERMS);
    let refine = |tail: &mut TailSum| tail.advance(tail.terms());
    let mut coin = CoinBetween::default();
    let above = loop {
        let (lo, hi) = tail.tail_bounds();
        if let Some(hit) = coin.decide(rng, lo, hi) {
            break hit;
        }
        if tail.is_done() {
            break coin.exact(rng, lo);
        }
        refine(tail);
    };
    if above == 0 {
        out.push((0, 1));
        return;
    }
    let start = walk(tail);
    let mut walk = start;
    let (mut lo, mut hi) = tail.tail_bounds();
    while walk.v < walk.n0 {
        let mut coin = CoinBetween::default();
        if lo > f64::MIN_POSITIVE && coin.zero_up_to(rng, walk.pmf / lo) {
            #[cfg(test)]
            tests::count_walk_step(true);
            (lo, hi) = (lo - walk.pmf, hi - walk.pmf);
            walk.step();
            continue;
        }
        #[cfg(test)]
        tests::count_walk_step(false);
        let take = loop {
            if hi <= f64::MIN_POSITIVE {
                break 1;
            }
            if tail.is_done() {
                // `lo == hi`: the exact step, from the uniform if drawn.
                break coin.exact(rng, (walk.pmf / hi).clamp(0.0, 1.0));
            }
            if lo > f64::MIN_POSITIVE {
                debug_assert!(hi <= 1.0);
                let p_hi = (walk.pmf / lo).clamp(0.0, 1.0);
                if let Some(take) = coin.decide(rng, walk.pmf.min(1.0), p_hi) {
                    break take;
                }
                let p_lo = (walk.pmf / hi).clamp(0.0, 1.0);
                if let Some(take) = coin.decide(rng, p_lo, p_hi) {
                    break take;
                }
            }
            refine(tail);
            (lo, hi) = tail.tail_bounds();
            let mut replay = start;
            while replay.v < walk.v {
                (lo, hi) = (lo - replay.pmf, hi - replay.pmf);
                replay.step();
            }
        };
        if take == 1 {
            break;
        }
        if walk.pmf == 0.0 {
            // The pmf underflowed: with `lo` and `hi` fixed from here on,
            // every step left decides this 0 the same way, drawing nothing.
            walk.v = walk.n0;
            break;
        }
        (lo, hi) = (lo - walk.pmf, hi - walk.pmf);
        walk.step();
    }
    out.push((walk.v, 1));
}

/// The pmf of `Binomial(n0, q)` walked upward from `v = t + 1` by its
/// ratio recurrence.
#[derive(Debug, Clone, Copy)]
struct PmfWalk {
    v: u64,
    n0: u64,
    pmf: f64,
    ratio: f64,
    /// `n0 − v` and `v + 1` as f64 counters (see `F64_EXACT_INT_BOUND`).
    exact: bool,
    rest: f64,
    next: f64,
}

impl PmfWalk {
    fn start(dist: &BinomialLn, tail: &TailSum, n0: u64, q: f64, t: u64) -> Self {
        let v = t + 1;
        Self {
            v,
            n0,
            pmf: tail.anchor().unwrap_or_else(|| dist.ln_pmf(v).exp()),
            ratio: q / (1.0 - q),
            exact: n0 < F64_EXACT_INT_BOUND,
            rest: (n0 - v) as f64,
            next: v as f64 + 1.0,
        }
    }

    fn step(&mut self) {
        if !self.exact {
            (self.rest, self.next) = ((self.n0 - self.v) as f64, (self.v + 1) as f64);
        }
        self.pmf *= self.ratio * self.rest / self.next;
        self.v += 1;
        (self.rest, self.next) = (self.rest - 1.0, self.next + 1.0);
    }
}

/// Inserts a cohort into the builder, merging with an existing cohort of
/// the same [`CohortKey`] (counts and cost pools add; the first-inserted
/// representative state is kept).
fn push_merged(out: &mut Vec<Cohort>, index: &mut MergeIndex, c: Cohort) {
    let key = cohort_key(&c.node);
    match index.get(&key) {
        Some(&i) => {
            out[i].count += c.count;
            out[i].cost_pool += c.cost_pool;
        }
        None => {
            index.insert(key, out.len());
            out.push(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcb_adversary::rep_strategies::{
        BudgetedRepBlocker, KeepAliveBlocker, NoJamRep, SuffixFractionRep,
    };
    use rcb_adversary::traits::RepetitionContext;

    thread_local! {
        /// Tail terms [`split_by_clear`] has summed on this thread.
        pub(super) static TAIL_TERMS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
        /// Count-1 walk steps on this thread: `[decided by the upper
        /// bound alone, decided by the general coin]`.
        static WALK_STEPS: std::cell::Cell<[u64; 2]> = const { std::cell::Cell::new([0; 2]) };
    }

    /// Counts one [`split_one`] walk step in [`WALK_STEPS`].
    pub(super) fn count_walk_step(by_bound: bool) {
        WALK_STEPS.with(|c| {
            let mut steps = c.get();
            steps[usize::from(!by_bound)] += 1;
            c.set(steps);
        });
    }

    fn params() -> OneToNParams {
        OneToNParams::practical()
    }

    /// One run of a fresh session on the caller's RNG — the one-shot
    /// hand-off a spec trial uses — so tests can share one stream.
    #[allow(clippy::too_many_arguments)]
    fn one_shot(
        p: &OneToNParams,
        n: usize,
        sources: &[usize],
        adversary: &mut dyn RepetitionAdversary,
        rng: &mut RcbRng,
        config: CohortConfig,
        faults: &FaultPlan,
        deadline: &Deadline,
    ) -> (BroadcastOutcome, Option<SimError>) {
        let mut session = CohortSession::new(*p, n, sources.to_vec(), config, *faults, 0);
        crate::session::run_on(&mut session, rng, adversary, deadline)
    }

    /// Node 0 the source, no faults, no deadline.
    fn plain(
        p: &OneToNParams,
        n: usize,
        adversary: &mut dyn RepetitionAdversary,
        rng: &mut RcbRng,
        config: CohortConfig,
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

    /// Force aggregate (anonymous-cohort) mode regardless of n.
    fn aggregate_config() -> CohortConfig {
        CohortConfig {
            exact_member_threshold: 0,
            ..CohortConfig::default()
        }
    }

    #[test]
    fn only_aggregate_mode_pools_costs() {
        let (config, none) = (CohortConfig::default(), FaultPlan::none());
        let threshold = config.exact_member_threshold;
        assert!(!config.pools_costs(threshold, &none), "all tracked");
        assert!(config.pools_costs(threshold + 1, &none), "aggregate");
        let battery = FaultPlan::none().with_battery(500);
        assert!(
            !config.pools_costs(65_536, &battery),
            "battery forces tracking"
        );
        assert!(aggregate_config().pools_costs(8, &none));
        // The predicate is the mode: a pooling run has anonymous cohorts.
        for (n, config) in [
            (threshold, config),
            (threshold + 1, config),
            (8, aggregate_config()),
        ] {
            let (_, state) = CohortState::new(&params(), n, &[0], config, &none);
            assert_eq!(
                !state.cohorts.is_empty(),
                config.pools_costs(n, &none),
                "n {n}"
            );
        }
    }

    #[test]
    fn single_node_terminates_alone() {
        let p = params();
        let mut rng = RcbRng::new(1);
        let out = plain(&p, 1, &mut NoJamRep, &mut rng, CohortConfig::default());
        assert!(out.all_terminated, "last epoch {}", out.last_epoch);
        assert!(out.all_informed);
        assert!(!out.truncated);
    }

    #[test]
    fn unjammed_broadcast_informs_everyone_exact_mode() {
        let p = params();
        let mut ok = 0;
        let trials = 10;
        for seed in 0..trials {
            let mut rng = RcbRng::new(seed);
            let out = plain(&p, 16, &mut NoJamRep, &mut rng, CohortConfig::default());
            assert!(!out.truncated, "seed {seed}");
            if out.all_informed && out.all_terminated {
                ok += 1;
            }
        }
        assert!(ok >= 9, "informed+terminated in {ok}/{trials} runs");
    }

    #[test]
    fn unjammed_broadcast_informs_everyone_aggregate_mode() {
        let p = params();
        let mut ok = 0;
        let trials = 10;
        for seed in 0..trials {
            let mut rng = RcbRng::new(100 + seed);
            let out = plain(&p, 64, &mut NoJamRep, &mut rng, aggregate_config());
            assert!(!out.truncated, "seed {seed}");
            if out.all_informed && out.all_terminated {
                ok += 1;
            }
        }
        assert!(ok >= 9, "informed+terminated in {ok}/{trials} runs");
    }

    #[test]
    fn termination_happens_near_the_ideal_epoch() {
        let p = params();
        for (n, cfg) in [(32usize, CohortConfig::default()), (64, aggregate_config())] {
            let mut rng = RcbRng::new(3);
            let out = plain(&p, n, &mut NoJamRep, &mut rng, cfg);
            let ideal = p.ideal_epoch(n);
            assert!(
                out.last_epoch <= ideal + 3,
                "n {n}: terminated at epoch {} vs ideal {ideal}",
                out.last_epoch
            );
        }
    }

    #[test]
    fn jamming_charges_adversary_and_inflates_cost() {
        let p = params();
        let n = 16;
        let mut rng = RcbRng::new(4);
        let free = plain(&p, n, &mut NoJamRep, &mut rng, CohortConfig::default());

        let mut rng = RcbRng::new(4);
        let mut adv = BudgetedRepBlocker::new(16 * free.slots, 1.0);
        let jammed = plain(&p, n, &mut adv, &mut rng, CohortConfig::default());
        assert!(jammed.adversary_cost > 0);
        assert!(jammed.slots > free.slots);
        assert!(jammed.all_informed, "budget exhausted ⇒ delivery resumes");
    }

    #[test]
    fn epoch_cap_truncates() {
        let p = params();
        let mut rng = RcbRng::new(5);
        let mut adv = SuffixFractionRep::new(1.0);
        let cfg = CohortConfig {
            max_epoch: p.first_epoch + 2,
            ..CohortConfig::default()
        };
        let out = plain(&p, 4, &mut adv, &mut rng, cfg);
        assert!(out.truncated);
        assert!(!out.all_terminated);
        assert_eq!(out.last_epoch, p.first_epoch + 2);
    }

    #[test]
    fn checked_run_reports_epoch_cap_as_typed_error() {
        let p = params();
        let mut rng = RcbRng::new(5);
        let mut adv = SuffixFractionRep::new(1.0);
        let cfg = CohortConfig {
            max_epoch: p.first_epoch + 2,
            ..CohortConfig::default()
        };
        let err = one_shot(
            &p,
            4,
            &[0],
            &mut adv,
            &mut rng,
            cfg,
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
            CohortConfig::default(),
            &FaultPlan::none(),
            &Deadline::after(std::time::Duration::ZERO),
        );
        assert!(out.truncated);
        assert_eq!(out.slots, 0);
        assert_eq!(err, Some(SimError::DeadlineExceeded { slots: 0 }));
    }

    #[test]
    fn same_seed_runs_are_bit_identical() {
        let p = params();
        for cfg in [CohortConfig::default(), aggregate_config()] {
            for seed in 0..5u64 {
                let mut rng_a = RcbRng::new(seed);
                let mut adv_a = BudgetedRepBlocker::new(40_000, 1.0);
                let a = plain(&p, 48, &mut adv_a, &mut rng_a, cfg);
                let mut rng_b = RcbRng::new(seed);
                let mut adv_b = BudgetedRepBlocker::new(40_000, 1.0);
                let b = plain(&p, 48, &mut adv_b, &mut rng_b, cfg);
                assert_eq!(a, b, "seed {seed}");
                assert_eq!(rng_a, rng_b, "seed {seed}: RNG state must match");
            }
        }
    }

    #[test]
    fn aggregate_mean_cost_tracks_exact_mode() {
        // The pooled-cost path must agree with per-node draws on the mean:
        // compare aggregate vs all-tracked mode across trials at the same
        // n. (Distributions differ per node — the pool is smeared — but
        // totals are drawn from the same law.)
        let p = params();
        let n = 64;
        let trials = 12;
        let mean = |cfg: CohortConfig, base: u64| {
            let mut acc = 0.0;
            for s in 0..trials {
                let mut rng = RcbRng::new(base + s);
                let out = plain(&p, n, &mut NoJamRep, &mut rng, cfg);
                acc += out.mean_cost();
            }
            acc / trials as f64
        };
        let exact = mean(CohortConfig::default(), 50);
        let agg = mean(aggregate_config(), 950);
        let rel = (exact - agg).abs() / exact.max(1.0);
        assert!(rel < 0.25, "exact {exact} vs aggregate {agg}");
    }

    /// Aggregate-mode runs at n = 512 folded per case: every outcome field
    /// and every node's cost, over 3 trials. The cases cover what the
    /// registry's full-suffix blockers leave to `bcast_n65536` alone:
    /// partly jammed repetitions (half-suffix, keep-alive), and under the
    /// faulted plan a skewed node's prefix regions, tracked crash and skew
    /// singletons and lossy message tails. A change here is a behaviour
    /// change and must be declared.
    const AGGREGATE_CHECKSUMS: [(&str, u64); 4] = [
        ("half_suffix", 0xda71_027b_223f_2100),
        ("keep_alive", 0xa94a_0c5d_a8ca_dfa4),
        ("half_suffix_faulted", 0xb4a3_4578_e8e9_87ad),
        ("keep_alive_faulted", 0xcc64_ebf0_835b_b56a),
    ];

    fn aggregate_fold(case: &str) -> u64 {
        let p = params();
        let n = 512;
        let faults = if case.ends_with("_faulted") {
            FaultPlan::none()
                .with_skew(5, 256)
                .with_crash(9, 3, 6, true)
                .with_loss(0.1)
        } else {
            FaultPlan::none()
        };
        let mut fold = crate::scenario::FNV_OFFSET;
        for trial in 0..3u64 {
            let budget = 1_500_000;
            let mut adversary: Box<dyn RepetitionAdversary> = if case.starts_with("keep_alive") {
                Box::new(KeepAliveBlocker::new(budget, 0.5))
            } else {
                Box::new(BudgetedRepBlocker::new(budget, 0.5))
            };
            let mut session =
                CohortSession::new(p, n, vec![0], aggregate_config(), faults, 0xA66 + trial);
            let (out, err) = session.run(adversary.as_mut(), &Deadline::NONE);
            fold = crate::scenario::fnv1a(
                fold,
                &[
                    out.slots,
                    out.informed as u64,
                    out.all_informed as u64,
                    out.all_terminated as u64,
                    out.safety_terminations as u64,
                    out.adversary_cost,
                    out.last_epoch as u64,
                    out.truncated as u64,
                    err.is_some() as u64,
                ],
            );
            fold = crate::scenario::fnv1a(fold, &out.node_costs);
        }
        fold
    }

    #[test]
    fn aggregate_mode_matches_pins() {
        let moved: Vec<String> = AGGREGATE_CHECKSUMS
            .iter()
            .filter_map(|&(case, expected)| {
                let got = aggregate_fold(case);
                (got != expected)
                    .then(|| format!("{case}: {got:#018x} moved from the pinned {expected:#018x}"))
            })
            .collect();
        assert!(moved.is_empty(), "{}", moved.join("\n"));
    }

    /// Jams slot 0 of every repetition.
    struct JamFirstSlot;

    impl RepetitionAdversary for JamFirstSlot {
        fn plan(&mut self, _: &RepetitionContext) -> JamPlan {
            JamPlan::Slots(vec![0])
        }
    }

    #[test]
    fn a_skewed_node_whose_prefix_is_jammed_hears_what_it_would_unskewed() {
        // A one-slot skew under a jammer of slot 0: the skewed node's
        // prefix is jammed anyway, so it hears what an unskewed node hears,
        // and the composition draws the same regions in the same order (an
        // empty region draws nothing). The run must equal the unskewed one
        // bit for bit. The skewed node has the highest id: every other node
        // that learns `m` during a repetition sent noise in it, and must
        // count as a noise sender in the skewed node's message count too.
        let p = params();
        for seed in 0..8 {
            let run = |faults: FaultPlan| {
                CohortSession::new(p, 16, vec![0], CohortConfig::default(), faults, seed)
                    .run(&mut JamFirstSlot, &Deadline::NONE)
            };
            let skewed = run(FaultPlan::none().with_skew(15, 1));
            assert_eq!(skewed, run(FaultPlan::none()), "seed {seed}");
        }
    }

    #[test]
    fn first_reception_splits_the_uninformed_cohort() {
        // The lazy-materialization boundary: in aggregate mode the
        // population starts as one anonymous uninformed cohort plus the
        // tracked source, stays compressed while nobody hears anything,
        // and splits exactly when the first symmetric outcome diverges.
        let p = params();
        let mut rng = RcbRng::new(11);
        let (out, stats) =
            run_cohort_instrumented(&p, 64, &[0], &mut NoJamRep, &mut rng, aggregate_config());
        assert!(out.all_informed);
        assert_eq!(stats.tracked_nodes, 1, "only the source is materialized");
        assert!(
            stats.first_split_period.is_some(),
            "dissemination must break the uninformed cohort's symmetry"
        );
        assert!(stats.max_live_cohorts >= 2);

        // Determinism of the full trace: a second run with the same seed
        // reports the identical split boundary.
        let mut rng = RcbRng::new(11);
        let (out2, stats2) =
            run_cohort_instrumented(&p, 64, &[0], &mut NoJamRep, &mut rng, aggregate_config());
        assert_eq!(out, out2);
        assert_eq!(stats, stats2);
    }

    #[test]
    fn crash_restart_reconverges() {
        let p = params();
        let mut informed_runs = 0;
        let trials = 10;
        for seed in 0..trials {
            let mut rng = RcbRng::new(900 + seed);
            let out = one_shot(
                &p,
                8,
                &[0],
                &mut NoJamRep,
                &mut rng,
                CohortConfig::default(),
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
            "re-converged in {informed_runs}/{trials}"
        );
    }

    #[test]
    fn crash_target_is_tracked_in_aggregate_mode() {
        let p = params();
        let mut rng = RcbRng::new(31);
        let faults = FaultPlan::none().with_crash(7, 1, 4, false);
        let mut session = CohortSession::new(p, 64, vec![0], aggregate_config(), faults, 0);
        let (out, _) = run_on(&mut session, &mut rng, &mut NoJamRep, &Deadline::NONE);
        let stats = CohortStats {
            tracked_nodes: session.singles.ids.len(),
            ..session.state.stats
        };
        assert_eq!(stats.tracked_nodes, 2, "source + crash target");
        assert!(!out.truncated);
    }

    #[test]
    fn battery_fault_forces_exact_mode_and_caps_cost() {
        let p = params();
        let mut rng = RcbRng::new(9);
        let uncapped = plain(&p, 8, &mut NoJamRep, &mut rng, CohortConfig::default());
        let mut rng = RcbRng::new(9);
        let capped = one_shot(
            &p,
            8,
            &[0],
            &mut NoJamRep,
            &mut rng,
            aggregate_config(), // battery overrides the aggregate request
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

    #[test]
    fn lossy_reception_degrades_gracefully() {
        let p = params();
        let mut informed_runs = 0;
        let trials = 10;
        for seed in 0..trials {
            let mut rng = RcbRng::new(300 + seed);
            let out = one_shot(
                &p,
                16,
                &[0],
                &mut NoJamRep,
                &mut rng,
                CohortConfig::default(),
                &FaultPlan::none().with_loss(0.2),
                &Deadline::NONE,
            )
            .0;
            assert!(!out.truncated, "seed {seed}");
            if out.all_informed {
                informed_runs += 1;
            }
        }
        assert!(informed_runs >= 8, "informed in {informed_runs}/{trials}");
    }

    #[test]
    fn large_population_compresses() {
        // n = 4096 in aggregate mode: the run must complete and inform
        // essentially everyone. Noise saturation keeps the population to a
        // few cohorts through the early epochs, but helpers split almost
        // one cohort per node (the keyed n-estimate is exact f64 bits):
        // the peak here is 4,036 cohorts, so the bound below barely binds.
        let p = params();
        let mut rng = RcbRng::new(21);
        let (out, stats) =
            run_cohort_instrumented(&p, 4096, &[0], &mut NoJamRep, &mut rng, aggregate_config());
        assert!(!out.truncated, "last epoch {}", out.last_epoch);
        assert!(
            out.informed as f64 >= 0.99 * 4096.0,
            "informed {}",
            out.informed
        );
        assert!(
            stats.max_live_cohorts < 4096,
            "population must stay compressed: {} cohorts",
            stats.max_live_cohorts
        );
    }

    #[test]
    fn cast_rounding_equals_round_for_every_f64() {
        let check = |x: f64| {
            let want = x.round() as i64;
            assert_eq!(round_to_i64(x), want, "x = {x:e} ({:#018x})", x.to_bits());
        };
        let half_below = 0.5f64.next_down();
        let mut edges = vec![
            0.0,
            f64::MIN_POSITIVE,
            5e-324,
            half_below,
            0.5,
            0.5f64.next_up(),
            1.5,
            2.5,
            4503599627370495.5, // 2^52 − ½: the last half-integer
            4503599627370496.0, // 2^52
            9007199254740993.0, // rounds to 2^53
            9.223372036854775e18,
            9.223372036854776e18, // 2^63
            9.223372036854778e18,
            1e300,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ];
        edges.extend((1..=64).map(|e| 2f64.powi(e) - 0.5));
        edges.extend((1..=64).map(|e| 2f64.powi(e) + 0.5));
        for x in edges {
            for y in [x, x.next_up(), x.next_down()] {
                check(y);
                check(-y);
            }
        }
        // The keys' own range: 64·log₂ S for S anywhere in f64, plus
        // values straddling every half-integer there.
        let mut rng = RcbRng::new(2014);
        for _ in 0..1_000_000 {
            let s = f64::from_bits(rng.below(1 << 63)); // sign bit clear, any exponent
            let x = s.log2() * QLS_PER_DOUBLING;
            check(x);
            let h = (rng.below(1 << 17) as f64 - 65_536.0) + 0.5;
            check(h);
            check(h.next_down());
            check(h.next_up());
        }
    }

    #[test]
    fn split_by_clear_conserves_members() {
        let mut rng = RcbRng::new(15);
        let mut out = Vec::new();
        for &(m, n0, q, t) in &[
            (1000u64, 200u64, 0.3f64, 30u64),
            (5, 0, 0.5, 0),
            (7, 100, 1.5, 10),  // saturated listen probability
            (100, 50, 0.9, 60), // threshold above support
        ] {
            split_by_clear(&mut rng, m, n0, ln_factorial(n0), q, t, &mut out);
            let total: u64 = out.iter().map(|&(_, c)| c).sum();
            assert_eq!(total, m, "m {m} n0 {n0} q {q} t {t}");
            for &(v, _) in &out {
                assert!(v <= n0, "value {v} outside support");
            }
        }
    }

    #[test]
    fn split_by_clear_mean_matches_binomial() {
        // The above-threshold histogram must reproduce Binomial(n0, q)
        // restricted to v > t: check the conditional mean.
        let mut rng = RcbRng::new(16);
        let (m, n0, q, t) = (200_000u64, 100u64, 0.5f64, 49u64);
        let mut out = Vec::new();
        split_by_clear(&mut rng, m, n0, ln_factorial(n0), q, t, &mut out);
        let hi: Vec<&(u64, u64)> = out.iter().filter(|&&(v, _)| v > t).collect();
        let hi_members: u64 = hi.iter().map(|&&(_, c)| c).sum();
        let hi_mean: f64 =
            hi.iter().map(|&&(v, c)| v as f64 * c as f64).sum::<f64>() / hi_members as f64;
        // E[V | V > 49] for Bin(100, 0.5) = 53.6861 (exact summation).
        assert!((hi_mean - 53.686).abs() < 0.1, "conditional mean {hi_mean}");
        let p_hi_emp = hi_members as f64 / m as f64;
        let p_hi = binomial_tail_gt(n0, t, q);
        assert!((p_hi_emp - p_hi).abs() < 0.01, "{p_hi_emp} vs {p_hi}");
    }

    /// `split_by_clear` as it was before the bracketed tail, verbatim but
    /// for two lines. The tail and the walk's first pmf came from the
    /// since-retired `tail_gt_anchored`, whose values are `tail_gt(t)` and
    /// `ln_pmf(t + 1).exp()` bit for bit. And once the pmf has underflowed
    /// to 0 (and `tail` is above `MIN_POSITIVE`), `v` jumps to `n0`: the
    /// loop would get there one value at a time, each step drawing at
    /// p = 0 (no word) and leaving `tail` and `pmf` as they are, which for
    /// `n0` near 2^40 takes hours.
    fn split_by_clear_reference(
        rng: &mut RcbRng,
        m: u64,
        n0: u64,
        ln_n0_factorial: f64,
        q: f64,
        t: u64,
        out: &mut Vec<(u64, u64)>,
    ) {
        out.clear();
        if m == 0 {
            return;
        }
        if q >= 1.0 {
            // Every member hears every clear slot.
            out.push((n0, m));
            return;
        }
        if n0 <= t {
            // No draw can exceed `t`: everyone is in the zero-growth group.
            out.push((0, m));
            return;
        }
        let dist = BinomialLn::with_ln_factorial(n0, ln_n0_factorial, q);
        let p_hi = dist.tail_gt(t);
        let k_hi = if p_hi > 0.0 {
            binomial_fast(rng, m, p_hi)
        } else {
            0
        };
        if m > k_hi {
            out.push((0, m - k_hi));
        }
        if k_hi == 0 {
            return;
        }
        // Walk v = t+1, t+2, … with the pmf ratio recurrence, splitting the
        // remaining members by the conditional probability pmf(v)/tail(v).
        let mut k_rem = k_hi;
        let mut v = t + 1;
        let mut pmf = dist.ln_pmf(v).exp();
        let mut tail = p_hi;
        let ratio = q / (1.0 - q);
        // `n0 − v` and `v + 1` as f64 counters (see `F64_EXACT_INT_BOUND`).
        let exact = n0 < F64_EXACT_INT_BOUND;
        let (mut rest, mut next) = ((n0 - v) as f64, v as f64 + 1.0);
        while k_rem > 0 {
            if pmf == 0.0 && tail > f64::MIN_POSITIVE {
                v = n0;
            }
            let take = if v >= n0 || tail <= f64::MIN_POSITIVE {
                k_rem
            } else {
                let p_take = (pmf / tail).clamp(0.0, 1.0);
                binomial_fast(rng, k_rem, p_take)
            };
            if take > 0 {
                out.push((v, take));
                k_rem -= take;
            }
            if k_rem == 0 || v >= n0 {
                if k_rem > 0 {
                    out.push((n0, k_rem));
                }
                break;
            }
            tail -= pmf;
            if !exact {
                (rest, next) = ((n0 - v) as f64, (v + 1) as f64);
            }
            pmf *= ratio * rest / next;
            v += 1;
            (rest, next) = (rest - 1.0, next + 1.0);
        }
    }

    /// A random split `(m, n0, q, t)`: mostly cuts within ±12σ of a mean
    /// log-uniform in `[10^-3, 10^4]` (or mirrored near `q = 1`), with `n0`
    /// up to 2^40, and in fixed shares the edge cases — `q ≥ 1`, `n0 ≤ t`,
    /// cuts at the median (the tail near ½, where the coin switches to
    /// its complement), cuts whose tail is near `f64::MIN_POSITIVE`, and
    /// `n0` past 2^53. Median cuts of several members keep `n0` below
    /// 2^20 (see there).
    fn random_split(rng: &mut RcbRng) -> (u64, u64, f64, u64) {
        let m = [1, 1, 1, 1, 1, 2, 7, 1000][rng.below(8) as usize];
        let log_uniform = |rng: &mut RcbRng, max: f64| 2f64.powf(max.log2() * rng.f64());
        let mut n0 = (log_uniform(rng, 1e5) as u64).max(1);
        if rng.below(4) == 0 {
            n0 = (log_uniform(rng, 2f64.powi(40)) as u64).max(1);
        }
        let mean_q = |rng: &mut RcbRng, n0: u64| {
            (10f64.powf(7.0 * rng.f64() - 3.0) / n0 as f64).min(rng.f64())
        };
        match rng.below(16) {
            0 => (m, n0, [1.0, 1.5][rng.below(2) as usize], rng.below(n0 + 1)),
            1 => (m, n0, rng.f64(), n0 + rng.below(3)),
            2 | 3 => {
                // Several members can outlast the bulk here, and past it
                // the pmf can stall at a subnormal (times a step's factor,
                // it rounds back to itself) for a number of values of the
                // order of n0, a draw each: n0 stays below 2^20 for them.
                let n0 = if m == 1 { n0 } else { n0.min(1 << 20) };
                let q = rng.f64();
                let median = (n0 as f64 * q) as u64;
                (m, n0, q, (median + rng.below(3)).saturating_sub(1))
            }
            4 => {
                // The first t above the mean with ln pmf(t + 1) < −708.
                let n0 = 2000 + rng.below(20_000);
                let q = 0.5 * rng.f64() + 0.01;
                let dist = BinomialLn::new(n0, q);
                let (mut lo, mut hi) = ((n0 as f64 * q) as u64, n0);
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if dist.ln_pmf(mid + 1) < -708.0 {
                        hi = mid;
                    } else {
                        lo = mid + 1;
                    }
                }
                (m, n0, q, (lo + rng.below(5)).saturating_sub(2))
            }
            5 => {
                // Mass near n0, so the walk from t + 1 to n0 stays short.
                let n0 = F64_EXACT_INT_BOUND + rng.below(1 << 20) * rng.below(1 << 40);
                let misses = 10f64.powf(3.0 * rng.f64());
                let z = (8.0 * rng.f64() - 4.0) * misses.sqrt();
                let t = n0 - ((misses + z).max(0.0) as u64 + 1);
                (m, n0, 1.0 - misses / n0 as f64, t)
            }
            _ => {
                let mut q = mean_q(rng, n0);
                if rng.below(3) == 0 {
                    q = 1.0 - q;
                }
                let mean = n0 as f64 * q;
                let sigma = (mean * (1.0 - q)).sqrt();
                let t = (mean + (24.0 * rng.f64() - 12.0) * sigma).max(0.0) as u64;
                (m, n0, q, t.min(n0 + 1))
            }
        }
    }

    #[test]
    fn split_by_clear_matches_the_exact_split() {
        // The bracketed count-1 split and the exact m ≥ 2 split against
        // the exact split of before, on one generator each: same groups,
        // same generator state after every case.
        let mut cases = RcbRng::new(2014);
        let mut new_rng = RcbRng::new(27);
        let mut old_rng = new_rng.clone();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut seen = [0u32; 8];
        for i in 0..100_000 {
            let (m, n0, q, t) = random_split(&mut cases);
            let ln_f = ln_factorial(n0);
            split_by_clear(&mut new_rng, m, n0, ln_f, q, t, &mut got);
            split_by_clear_reference(&mut old_rng, m, n0, ln_f, q, t, &mut want);
            assert_eq!(got, want, "case {i}: m {m} n0 {n0} q {q:e} t {t}");
            assert_eq!(new_rng, old_rng, "case {i}: generator state");
            if q < 1.0 && n0 > t {
                let p_hi = binomial_tail_gt(n0, t, q);
                let lower = (t as f64) < n0 as f64 * q;
                seen[usize::from(lower)] += 1;
                seen[2] += u32::from((p_hi - 0.5).abs() < 0.02);
                seen[3] += u32::from(p_hi > 0.0 && p_hi < 1e-300);
                seen[4] += u32::from(n0 >= F64_EXACT_INT_BOUND);
                seen[5] += u32::from(m == 1 && got.iter().any(|&(v, _)| v > t));
            } else {
                seen[6] += 1;
            }
            seen[7] += u32::from(m == 1000 && got.len() > 3);
        }
        // Both branches, the complement switch, tails near MIN_POSITIVE,
        // n0 past 2^53, count-1 walks, the shortcuts and wide m = 1000
        // histograms all occur.
        assert!(seen.iter().all(|&c| c > 500), "coverage {seen:?}");
    }

    #[test]
    fn count_one_splits_sum_a_fraction_of_the_tail_terms() {
        // A layout-proof witness for the bracketed tail: the tail terms
        // every split sums over the `half_suffix` pin's three trials. The
        // exact split of before summed 2,134,195 terms over the same run
        // (22,606 splits, 14,167 of them count-1). A change here changes
        // how much of a tail the split reads, not what it draws.
        TAIL_TERMS.with(|c| c.set(0));
        assert_eq!(aggregate_fold("half_suffix"), AGGREGATE_CHECKSUMS[0].1);
        assert_eq!(TAIL_TERMS.with(|c| c.get()), 547_657);
    }

    #[test]
    fn count_one_walks_decide_most_steps_from_the_upper_bound() {
        // A witness that the walk's one-test "not here" path fires: walk
        // steps over the `half_suffix` pin's three trials, decided by the
        // upper bound alone vs. by the general coin. No checksum moves if
        // the bound stops deciding; this count does.
        WALK_STEPS.with(|c| c.set([0; 2]));
        assert_eq!(aggregate_fold("half_suffix"), AGGREGATE_CHECKSUMS[0].1);
        assert_eq!(WALK_STEPS.with(|c| c.get()), [1_714_022, 13_347]);
    }

    #[test]
    fn walks_jump_to_n0_once_the_pmf_underflows() {
        // A walk whose pmf is already 0, as after an underflow, draws
        // nothing more: both splits send the members above t to n0 at
        // once, and the generator moves by the first coin alone. Without
        // the jump these walks would step through 2^40 values. (The split
        // oracle meets the jump only in several-member walks.)
        let (n0, q) = (1u64 << 40, 1e-9);
        let dist = BinomialLn::new(n0, q);
        let mut rng = RcbRng::new(29);
        let mut out = Vec::new();
        let mut jumped = [0; 2];
        for (m, t) in [(1, 1090), (1, 1100), (2, 1100), (7, 1050)].repeat(20) {
            let mut reference = rng.clone();
            let above = binomial_fast(&mut reference, m, dist.tail_gt(t));
            let mut tail = dist.tail_sum(t);
            out.clear();
            let walk = |tail: &TailSum| PmfWalk {
                pmf: 0.0,
                ..PmfWalk::start(&dist, tail, n0, q, t)
            };
            if m == 1 {
                split_one(&mut rng, &mut tail, walk, &mut out);
            } else {
                split_many(&mut rng, m, &mut tail, walk, &mut out);
            }
            let mut want = Vec::new();
            if m > above {
                want.push((0, m - above));
            }
            if above > 0 {
                want.push((n0, above));
                jumped[usize::from(m > 1)] += 1;
            }
            assert_eq!(out, want, "m {m} t {t}");
            assert_eq!(rng, reference, "generator state at m {m} t {t}");
        }
        assert!(jumped.iter().all(|&j| j > 10), "{jumped:?}");
    }

    #[test]
    fn splits_past_2_pow_53_return_the_exact_split() {
        // Mean 637.7 at n0 ≈ 2.5e17: with `ln C(n0, k)` cancelling, the
        // tail read 1.0 and the walk's first pmf 0, and the walk stepped
        // toward n0 one value at a time.
        let (n0, q, t) = (249_194_851_773_808_880u64, 2.559e-15, 629u64);
        let ln_f = ln_factorial(n0);
        let mut new_rng = RcbRng::new(28);
        let mut old_rng = new_rng.clone();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut above = 0;
        for m in [1u64, 1, 1, 1, 2, 7, 1000] {
            for _ in 0..200 {
                split_by_clear(&mut new_rng, m, n0, ln_f, q, t, &mut got);
                split_by_clear_reference(&mut old_rng, m, n0, ln_f, q, t, &mut want);
                assert_eq!(got, want, "m {m}");
                assert_eq!(new_rng, old_rng, "generator state at m {m}");
                assert_eq!(got.iter().map(|&(_, c)| c).sum::<u64>(), m);
                assert!(got
                    .iter()
                    .all(|&(v, _)| v == 0 || (t..t + 400).contains(&v)));
                above += got
                    .iter()
                    .filter(|&&(v, _)| v > t)
                    .map(|&(_, c)| c)
                    .sum::<u64>();
            }
        }
        // About 0.63 of the 202,400 members land above t.
        let share = above as f64 / 202_400.0;
        assert!((0.6..0.66).contains(&share), "{share}");
    }

    #[test]
    fn jammed_in_prefix_counts() {
        assert_eq!(jammed_in_prefix(&JamPlan::None, 10, 100), 0);
        assert_eq!(jammed_in_prefix(&JamPlan::All, 10, 100), 10);
        assert_eq!(jammed_in_prefix(&JamPlan::Suffix(95), 10, 100), 5);
        assert_eq!(jammed_in_prefix(&JamPlan::Suffix(50), 10, 100), 0);
        assert_eq!(
            jammed_in_prefix(&JamPlan::Slots(vec![0, 5, 20]), 10, 100),
            2
        );
        assert_eq!(jammed_in_prefix(&JamPlan::Suffix(10), 0, 100), 0);
    }
}
