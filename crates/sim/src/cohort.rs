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

use rcb_adversary::traits::{JamPlan, RepetitionAdversary, RepetitionContext, RepetitionSummary};
use rcb_core::one_to_n::node::{OneToNNode, Status, TermReason};
use rcb_core::one_to_n::params::OneToNParams;
use rcb_mathkit::binom::{binomial_tail_gt, ln_binomial_pmf};
use rcb_mathkit::rng::RcbRng;
use rcb_mathkit::sample::{binomial_fast, multinomial_into};
use serde::{Deserialize, Serialize};

use crate::deadline::Deadline;
use crate::error::SimError;
use crate::faults::FaultPlan;
use crate::outcome::BroadcastOutcome;

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

/// An anonymous cohort: `count` nodes all in exactly the state of `node`.
#[derive(Debug, Clone, Copy)]
struct Cohort {
    node: OneToNNode,
    count: u64,
    /// Total send+listen cost accrued by the cohort's members, pooled.
    cost_pool: u64,
}

/// A node simulated individually (sources, fault targets, or — below the
/// exact-member threshold — everyone).
#[derive(Debug, Clone, Copy)]
struct Tracked {
    id: usize,
    node: OneToNNode,
    cost: u64,
    dead: bool,
    offline: bool,
}

/// Merge key for anonymous cohorts. Live cohorts merge on (status, epoch,
/// quantized log₂ S_u, n-estimate, informed history); terminated cohorts
/// are inert, so they merge on (reason, informed history) alone.
///
/// The quantization lattice (1/64 of a doubling) re-merges cohorts whose
/// rate variables drifted apart by less than the protocol can resolve in
/// one repetition; in all-singleton mode no anonymous cohorts exist, so
/// quantization never touches the conformance-gated scales.
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
            qls: (node.s().log2() * QLS_PER_DOUBLING).round() as i64,
            n_est_bits: node.n_estimate().map_or(0, f64::to_bits),
            ever_informed: node.ever_informed(),
        }
    }
}

/// Runs one 1-to-n execution on the cohort engine: every node in
/// `sources` starts informed.
///
/// `faults` layers a fault-injection plan with the other engines'
/// semantics; every fault target is a tracked singleton, and a battery
/// fault forces all-singleton mode (the energy gauge is per-node state
/// that anonymous cohorts cannot carry). Budget exhaustion and a fired
/// `deadline` come back as the typed [`SimError`] next to the partial
/// (`truncated`) outcome.
///
/// ```
/// use rcb_sim::cohort::{run_cohort, CohortConfig};
/// use rcb_sim::deadline::Deadline;
/// use rcb_sim::faults::FaultPlan;
/// use rcb_adversary::rep_strategies::NoJamRep;
/// use rcb_core::one_to_n::OneToNParams;
/// use rcb_mathkit::rng::RcbRng;
///
/// let params = OneToNParams::practical();
/// let mut rng = RcbRng::new(7);
/// let (out, err) = run_cohort(
///     &params,
///     16,
///     &[0],
///     &mut NoJamRep,
///     &mut rng,
///     CohortConfig::default(),
///     &FaultPlan::none(),
///     &Deadline::NONE,
/// );
/// assert!(err.is_none() && out.all_informed && out.all_terminated);
/// ```
#[allow(clippy::too_many_arguments)]
pub fn run_cohort(
    params: &OneToNParams,
    n: usize,
    sources: &[usize],
    adversary: &mut dyn RepetitionAdversary,
    rng: &mut RcbRng,
    config: CohortConfig,
    faults: &FaultPlan,
    deadline: &Deadline,
) -> (BroadcastOutcome, Option<SimError>) {
    let mut state = CohortState::new(params, n, sources, config, faults);
    run_cohort_in(
        &mut state,
        params,
        n,
        adversary,
        rng,
        config,
        faults,
        deadline,
        &mut CohortStats::default(),
    )
}

/// A fault-free, unbounded [`run_cohort`] that also reports compression
/// diagnostics — how many cohorts existed, when the first symmetry break
/// split one.
pub fn run_cohort_instrumented(
    params: &OneToNParams,
    n: usize,
    sources: &[usize],
    adversary: &mut dyn RepetitionAdversary,
    rng: &mut RcbRng,
    config: CohortConfig,
) -> (BroadcastOutcome, CohortStats) {
    let faults = FaultPlan::none();
    let mut state = CohortState::new(params, n, sources, config, &faults);
    let mut stats = CohortStats::default();
    let (out, _) = run_cohort_in(
        &mut state,
        params,
        n,
        adversary,
        rng,
        config,
        &faults,
        &Deadline::NONE,
        &mut stats,
    );
    (out, stats)
}

/// Channel-composition slot categories, drawn per region each repetition.
/// Layout: `[clear, anonymous message singles, tracked-sender singles...,
/// everything else]`.
const CAT_CLEAR: usize = 0;
const CAT_MSG_ANON: usize = 1;
const CAT_TRACKED_BASE: usize = 2;

/// Retained per-session state of the cohort engine: the materialized
/// (tracked) singletons, the anonymous cohort list, and every reusable
/// sampling buffer. One `CohortState` serves a whole [`CohortSession`];
/// [`run_cohort`] builds a fresh one per run, so both paths
/// execute the identical repetition loop.
#[derive(Debug)]
struct CohortState {
    tracked: Vec<Tracked>,
    cohorts: Vec<Cohort>,
    weights: Vec<f64>,
    region_counts: Vec<Vec<u64>>,
    scratch_counts: Vec<u64>,
    clear_groups: Vec<(u64, u64)>,
    next_cohorts: Vec<Cohort>,
    merge_index: HashMap<CohortKey, usize>,
}

impl CohortState {
    fn new(
        params: &OneToNParams,
        n: usize,
        sources: &[usize],
        config: CohortConfig,
        faults: &FaultPlan,
    ) -> Self {
        assert!(n >= 1, "need at least one node");
        assert!(!sources.is_empty(), "need at least one source");
        assert!(sources.iter().all(|&s| s < n), "source ids must be < n");
        debug_assert!(faults.validate().is_ok(), "invalid fault plan");

        // Mode selection: everyone tracked below the threshold or under a
        // battery fault; otherwise only the symmetry-broken nodes (sources,
        // crash/skew targets).
        let all_tracked = n <= config.exact_member_threshold || faults.battery_capacity().is_some();
        let mut tracked_ids: Vec<usize> = if all_tracked {
            (0..n).collect()
        } else {
            let mut ids: Vec<usize> = sources.to_vec();
            if let Some(c) = faults.crash {
                if c.node < n {
                    ids.push(c.node);
                }
            }
            if let Some(s) = faults.skew {
                if s.node < n {
                    ids.push(s.node);
                }
            }
            ids.sort_unstable();
            ids.dedup();
            ids
        };
        tracked_ids.sort_unstable();
        let tracked: Vec<Tracked> = tracked_ids
            .iter()
            .map(|&id| Tracked {
                id,
                node: OneToNNode::new(params, sources.contains(&id)),
                cost: 0,
                dead: false,
                offline: false,
            })
            .collect();

        let anon_initial = (n - tracked.len()) as u64;
        let mut cohorts: Vec<Cohort> = Vec::new();
        if anon_initial > 0 {
            // Anonymous nodes are never sources (sources are tracked).
            cohorts.push(Cohort {
                node: OneToNNode::new(params, false),
                count: anon_initial,
                cost_pool: 0,
            });
        }

        Self {
            tracked,
            cohorts,
            weights: Vec::new(),
            region_counts: vec![Vec::new(); 4],
            scratch_counts: Vec::new(),
            clear_groups: Vec::new(),
            next_cohorts: Vec::new(),
            merge_index: HashMap::new(),
        }
    }

    /// Collapses the population back to its initial shape in place: every
    /// tracked singleton re-armed to its constructed state, and all
    /// materialized anonymous cohorts folded into the single uninformed
    /// cohort again. The tracked id set is a deterministic function of the
    /// session's fixed (n, sources, faults, config), so it never changes
    /// across re-arms.
    fn rearm(&mut self, params: &OneToNParams, n: usize, sources: &[usize]) {
        for t in self.tracked.iter_mut() {
            t.node.rearm(params, sources.contains(&t.id));
            t.cost = 0;
            t.dead = false;
            t.offline = false;
        }
        self.cohorts.clear();
        let anon_initial = (n - self.tracked.len()) as u64;
        if anon_initial > 0 {
            self.cohorts.push(Cohort {
                node: OneToNNode::new(params, false),
                count: anon_initial,
                cost_pool: 0,
            });
        }
        self.next_cohorts.clear();
        self.merge_index.clear();
    }
}

/// A re-armable cohort-engine session: the cohort list, tracked-singleton
/// vector, and sampling buffers persist across runs.
/// [`rearm`](Self::rearm) collapses whatever population structure the
/// previous run materialized back into the initial cohorts; the golden
/// equivalence suite pins that a re-armed run is bit-identical to a fresh
/// [`run_cohort`] at the same seed.
#[derive(Debug)]
pub struct CohortSession {
    params: OneToNParams,
    n: usize,
    sources: Vec<usize>,
    config: CohortConfig,
    faults: FaultPlan,
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
        assert!(faults.validate().is_ok(), "invalid fault plan");
        let state = CohortState::new(&params, n, &sources, config, &faults);
        Self {
            params,
            n,
            sources,
            config,
            faults,
            state,
            rng: RcbRng::new(seed),
        }
    }

    /// Re-arms the session to slot 0 on a fresh RNG stream, collapsing
    /// materialized nodes back into cohorts without reallocating.
    pub fn rearm(&mut self, seed: u64) {
        self.state.rearm(&self.params, self.n, &self.sources);
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
        run_cohort_in(
            &mut self.state,
            &self.params,
            self.n,
            adversary,
            &mut self.rng,
            self.config,
            &self.faults,
            deadline,
            &mut CohortStats::default(),
        )
    }
}

#[allow(clippy::too_many_arguments)]
fn run_cohort_in(
    state: &mut CohortState,
    params: &OneToNParams,
    n: usize,
    adversary: &mut dyn RepetitionAdversary,
    rng: &mut RcbRng,
    config: CohortConfig,
    faults: &FaultPlan,
    deadline: &Deadline,
    stats: &mut CohortStats,
) -> (BroadcastOutcome, Option<SimError>) {
    let CohortState {
        tracked,
        cohorts,
        weights,
        region_counts,
        scratch_counts,
        clear_groups,
        next_cohorts,
        merge_index,
    } = state;
    stats.tracked_nodes = tracked.len();

    let loss_p = faults.loss_p();
    let mut pending_reboot = faults.reboot_at();
    let has_faults = !faults.is_none();

    let mut adversary_cost = 0u64;
    let mut slots_total = 0u64;
    let mut period = 0u64;
    let mut truncated = true;
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
                if let Some(cap) = faults.battery_capacity() {
                    for t in tracked.iter_mut() {
                        t.dead = t.dead || t.cost >= cap;
                    }
                }
                if let Some((node, at)) = pending_reboot {
                    if period >= at {
                        if let Some(t) = tracked.iter_mut().find(|t| t.id == node) {
                            t.node.reboot(params);
                        }
                        pending_reboot = None;
                    }
                }
                for t in tracked.iter_mut() {
                    t.offline = t.dead || faults.crashed(t.id, period);
                }
            }
            let all_halted = tracked.iter().all(|t| t.node.is_terminated() || t.dead)
                && cohorts.iter().all(|c| c.node.is_terminated());
            if all_halted {
                truncated = false;
                break 'epochs;
            }
            let active_tracked = tracked
                .iter()
                .filter(|t| !t.node.is_terminated() && !t.offline)
                .count() as u64;
            let active_anon: u64 = cohorts
                .iter()
                .filter(|c| !c.node.is_terminated())
                .map(|c| c.count)
                .sum();
            let ctx = RepetitionContext {
                epoch,
                repetition: period,
                slots: len,
                active_nodes: (active_tracked + active_anon) as usize,
            };
            let plan = adversary.plan(&ctx);
            let jam_total = plan.jam_count(len);
            adversary_cost += jam_total;

            // --- Region decomposition -------------------------------------
            // Slot contents are i.i.d., so region compositions are
            // independent multinomials over the same category
            // probabilities; only the region *lengths* differ. Regions:
            // (skew prefix vs rest) × (jammed vs clear air). The prefix
            // axis exists only while a skewed node is live.
            let skew_prefix = faults
                .skew
                .filter(|s| {
                    s.node < n
                        && tracked
                            .iter()
                            .any(|t| t.id == s.node && !t.node.is_terminated())
                })
                .map_or(0, |s| s.slots.min(len));
            let jam_in_prefix = jammed_in_prefix(&plan, skew_prefix, len);
            // Region order: [rest∩unjam, prefix∩unjam, rest∩jam, prefix∩jam].
            let region_lens = [
                len - skew_prefix - (jam_total - jam_in_prefix),
                skew_prefix - jam_in_prefix,
                jam_total - jam_in_prefix,
                jam_in_prefix,
            ];

            // --- Composition probabilities --------------------------------
            // ln P(clear) = Σ m_c·ln(1−p_c); a slot is a singleton of group
            // g with probability P(clear)·Σ_{u∈g} p_u/(1−p_u). Saturated
            // senders (p = 1, transient in the earliest epochs) make clear
            // slots impossible and collide with any other sender.
            let mut ln_rest = 0.0f64;
            let mut saturated = 0u64;
            let mut anon_msg_ratio = 0.0f64; // Σ m·p/(1−p) over msg senders
            let mut sat_category: Option<usize> = None; // category of a lone saturated sender
            for t in tracked.iter() {
                if t.node.is_terminated() || t.offline {
                    continue;
                }
                let p = t.node.send_prob(params);
                if p >= 1.0 {
                    saturated += 1;
                } else {
                    ln_rest += (-p).ln_1p();
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
                    if sends_message(&c.node) {
                        anon_msg_ratio += c.count as f64 * p / (1.0 - p);
                    }
                }
            }
            // A lone saturated *anonymous* sender can still produce
            // singletons; find which category it belongs to.
            if saturated == 1 {
                if let Some((idx, c)) = cohorts
                    .iter()
                    .enumerate()
                    .find(|(_, c)| !c.node.is_terminated() && c.node.send_prob(params) >= 1.0)
                {
                    debug_assert_eq!(c.count, 1);
                    let _ = idx;
                    sat_category = Some(if sends_message(&c.node) {
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
            for t in tracked.iter() {
                let p = if t.node.is_terminated() || t.offline {
                    0.0
                } else {
                    t.node.send_prob(params)
                };
                let w = if saturated == 0 && p < 1.0 {
                    // Remove this sender's own factor from ln P(clear).
                    (ln_rest - (-p).ln_1p()).exp() * p
                } else if saturated == 1 && p >= 1.0 {
                    // The lone saturated sender: singleton wherever nobody
                    // else transmits.
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

            let message_slots: u64 = (0..4)
                .map(|r| {
                    region_counts[r][CAT_MSG_ANON]
                        + tracked
                            .iter()
                            .enumerate()
                            .filter(|(_, t)| sends_message(&t.node))
                            .map(|(i, _)| region_counts[r][CAT_TRACKED_BASE + i])
                            .sum::<u64>()
                })
                .sum();
            let busy_slots: u64 = len - (0..4).map(|r| region_counts[r][CAT_CLEAR]).sum::<u64>();
            // Audible regions for an unskewed listener: the unjammed ones.
            let clear_unjam = region_counts[0][CAT_CLEAR] + region_counts[1][CAT_CLEAR];
            let msg_unjam = |cat: usize| region_counts[0][cat] + region_counts[1][cat];
            let msg_total_unjam: u64 = msg_unjam(CAT_MSG_ANON)
                + tracked
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| sends_message(&t.node))
                    .map(|(i, _)| msg_unjam(CAT_TRACKED_BASE + i))
                    .sum::<u64>();

            let mut total_listens = 0u64;
            let mut total_sends = 0u64;

            // --- Tracked singletons: exact per-node draws -----------------
            for i in 0..tracked.len() {
                let t = &tracked[i];
                if t.node.is_terminated() {
                    continue;
                }
                if t.offline {
                    // Radio off, clock ticks: zero-count epilogue.
                    tracked[i].node.end_repetition(params, 0, 0);
                    continue;
                }
                let p = t.node.send_prob(params);
                let q = t.node.listen_prob(params);
                let sends = binomial_fast(rng, len, p);
                let listens = binomial_fast(rng, len - sends, q);
                // The skewed node cannot decode its prefix: restrict its
                // audible counts to the non-prefix unjammed region.
                let skewed = skew_prefix > 0 && t.id == faults.skew.map_or(usize::MAX, |s| s.node);
                let (n0, msgs_avail) = if skewed {
                    let own = if sends_message(&t.node) {
                        region_counts[0][CAT_TRACKED_BASE + i]
                    } else {
                        0
                    };
                    (
                        region_counts[0][CAT_CLEAR],
                        region_counts[0][CAT_MSG_ANON]
                            + tracked
                                .iter()
                                .enumerate()
                                .filter(|(_, o)| sends_message(&o.node))
                                .map(|(j, _)| region_counts[0][CAT_TRACKED_BASE + j])
                                .sum::<u64>()
                            - own,
                    )
                } else {
                    let own = if sends_message(&t.node) {
                        msg_unjam(CAT_TRACKED_BASE + i)
                    } else {
                        0
                    };
                    (clear_unjam, msg_total_unjam - own)
                };
                let clear = binomial_fast(rng, n0, q);
                let msgs = binomial_fast(rng, msgs_avail, q * (1.0 - loss_p));
                let t = &mut tracked[i];
                t.cost += sends + listens;
                total_sends += sends;
                total_listens += listens;
                t.node.end_repetition(params, clear, msgs);
            }

            // --- Anonymous cohorts: split by drawn outcome ----------------
            if !cohorts.is_empty() {
                next_cohorts.clear();
                merge_index.clear();
                let mut split_this_rep = false;
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
                    // ⌊E/2⌋ change S_u, so everything at or below merges
                    // into one zero-growth group.
                    let expected = params.expected_listens(epoch, c.node.s());
                    let t_growth = (expected / 2.0).floor() as u64;
                    split_by_clear(rng, c.count, clear_unjam, q, t_growth, clear_groups);

                    // Message-outcome probabilities, shared by every clear
                    // group (listen coins are independent across slots).
                    let q_eff = (q * (1.0 - loss_p)).clamp(0.0, 1.0);
                    let thr = params.helper_threshold(epoch);
                    let status = c.node.status();
                    let (p_event, msgs_rep) = match status {
                        Status::Uninformed => (p_hear_any(msg_total_unjam, q_eff), 1u64),
                        Status::Informed => {
                            let k = thr.floor().max(0.0) as u64;
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
                            // Pool shares: proportional, remainder on the
                            // final child so totals are conserved.
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
                    // child; if every child merged away the residue is
                    // already inside next_cohorts.
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

            adversary.observe(
                &ctx,
                &RepetitionSummary {
                    message_slots,
                    busy_slots,
                    jammed_slots: jam_total,
                    listen_actions: total_listens,
                    send_actions: total_sends,
                },
            );
            slots_total += len;
            period += 1;
        }
        let everyone_terminated = tracked.iter().all(|t| t.node.is_terminated())
            && cohorts.iter().all(|c| c.node.is_terminated());
        if everyone_terminated {
            truncated = false;
            break;
        }
        epoch += 1;
        if epoch <= config.max_epoch {
            for t in tracked.iter_mut() {
                t.node.begin_epoch(epoch, params);
            }
            // The epoch reset (S_u ← s_init) collapses the state space:
            // re-merge everything that reconverged.
            next_cohorts.clear();
            merge_index.clear();
            for c in cohorts.drain(..) {
                let mut c = c;
                c.node.begin_epoch(epoch, params);
                push_merged(next_cohorts, merge_index, c);
            }
            std::mem::swap(cohorts, next_cohorts);
        }
    }

    // --- Outcome assembly ------------------------------------------------
    let informed = tracked.iter().filter(|t| t.node.ever_informed()).count()
        + cohorts
            .iter()
            .filter(|c| c.node.ever_informed())
            .map(|c| c.count as usize)
            .sum::<usize>();
    let all_terminated = tracked.iter().all(|t| t.node.is_terminated())
        && cohorts.iter().all(|c| c.node.is_terminated());
    let safety = tracked
        .iter()
        .filter(|t| t.node.term_reason() == Some(TermReason::Safety))
        .count()
        + cohorts
            .iter()
            .filter(|c| c.node.term_reason() == Some(TermReason::Safety))
            .map(|c| c.count as usize)
            .sum::<usize>();

    // Per-node costs: tracked nodes exact; anonymous members receive their
    // cohort pool smeared evenly (see module docs), assigned to the unused
    // ids in ascending order for determinism.
    let mut costs = vec![0u64; n];
    let mut is_tracked = vec![false; n];
    for t in tracked.iter() {
        costs[t.id] = t.cost;
        is_tracked[t.id] = true;
    }
    let mut free_ids = (0..n).filter(|&u| !is_tracked[u]);
    for c in cohorts.iter() {
        let base = c.cost_pool / c.count.max(1);
        let extra = (c.cost_pool % c.count.max(1)) as usize;
        for j in 0..c.count as usize {
            let id = free_ids.next().expect("cohort counts sum to n - tracked");
            costs[id] = base + u64::from(j < extra);
        }
    }

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
            all_terminated,
            safety_terminations: safety,
            node_costs: costs,
            adversary_cost,
            slots: slots_total,
            last_epoch: epoch.min(config.max_epoch),
            truncated,
        },
        err,
    )
}

/// Whether a node in this state transmits `m` (rather than noise) when it
/// sends.
fn sends_message(node: &OneToNNode) -> bool {
    matches!(node.status(), Status::Informed | Status::Helper)
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

/// How many jammed slots fall inside `[0, prefix)`.
fn jammed_in_prefix(plan: &JamPlan, prefix: u64, len: u64) -> u64 {
    if prefix == 0 {
        return 0;
    }
    match plan {
        JamPlan::None => 0,
        JamPlan::All => prefix,
        JamPlan::Suffix(k) => {
            let start = len - (*k).min(len);
            prefix.saturating_sub(start)
        }
        JamPlan::Slots(v) => v.iter().filter(|&&t| t < prefix && t < len).count() as u64,
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
/// jam-saturated (the common large-n case).
fn split_by_clear(rng: &mut RcbRng, m: u64, n0: u64, q: f64, t: u64, out: &mut Vec<(u64, u64)>) {
    out.clear();
    if m == 0 {
        return;
    }
    if q >= 1.0 {
        // Every member hears every clear slot.
        out.push((n0, m));
        return;
    }
    let p_hi = if n0 > t {
        binomial_tail_gt(n0, t, q)
    } else {
        0.0
    };
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
    let mut pmf = ln_binomial_pmf(n0, v, q).exp();
    let mut tail = p_hi;
    let ratio = q / (1.0 - q);
    while k_rem > 0 {
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
        pmf *= ratio * (n0 - v) as f64 / (v + 1) as f64;
        v += 1;
    }
}

/// Inserts a cohort into the builder, merging with an existing cohort of
/// the same [`CohortKey`] (counts and cost pools add; the first-inserted
/// representative state is kept).
fn push_merged(out: &mut Vec<Cohort>, index: &mut HashMap<CohortKey, usize>, c: Cohort) {
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
    use rcb_adversary::rep_strategies::{BudgetedRepBlocker, NoJamRep, SuffixFractionRep};

    fn params() -> OneToNParams {
        OneToNParams::practical()
    }

    /// Node 0 the source, no faults, no deadline.
    fn plain(
        p: &OneToNParams,
        n: usize,
        adversary: &mut dyn RepetitionAdversary,
        rng: &mut RcbRng,
        config: CohortConfig,
    ) -> BroadcastOutcome {
        let (out, _) = run_cohort(
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
        let err = run_cohort(
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
        let (out, err) = run_cohort(
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
            let out = run_cohort(
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
        let mut state = CohortState::new(&p, 64, &[0], aggregate_config(), &faults);
        let mut stats = CohortStats::default();
        let (out, _) = run_cohort_in(
            &mut state,
            &p,
            64,
            &mut NoJamRep,
            &mut rng,
            aggregate_config(),
            &faults,
            &Deadline::NONE,
            &mut stats,
        );
        assert_eq!(stats.tracked_nodes, 2, "source + crash target");
        assert!(!out.truncated);
    }

    #[test]
    fn battery_fault_forces_exact_mode_and_caps_cost() {
        let p = params();
        let mut rng = RcbRng::new(9);
        let uncapped = plain(&p, 8, &mut NoJamRep, &mut rng, CohortConfig::default());
        let mut rng = RcbRng::new(9);
        let capped = run_cohort(
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
            let out = run_cohort(
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
        // n = 4096 in aggregate mode: the run must complete quickly (noise
        // saturation keeps the population to a handful of cohorts through
        // the early epochs) and inform essentially everyone.
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
    fn split_by_clear_conserves_members() {
        let mut rng = RcbRng::new(15);
        let mut out = Vec::new();
        for &(m, n0, q, t) in &[
            (1000u64, 200u64, 0.3f64, 30u64),
            (5, 0, 0.5, 0),
            (7, 100, 1.5, 10),  // saturated listen probability
            (100, 50, 0.9, 60), // threshold above support
        ] {
            split_by_clear(&mut rng, m, n0, q, t, &mut out);
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
        split_by_clear(&mut rng, m, n0, q, t, &mut out);
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
