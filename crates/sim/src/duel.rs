//! Fast 1-to-1 engine: samples whole phases at once.
//!
//! Exploits the structure of the two-party protocols: within a phase of
//! epoch `i`, Alice's send slots and Bob's listen slots are independent
//! Bernoulli processes at rate `p_i`, so the engine samples the two slot
//! sets directly (geometric skips; exact) and resolves them against the
//! adversary's per-phase [`JamPlan`] by run, as the broadcast engine does:
//! the listener's skewed prefix and the jammed suffix are counted as noise,
//! and only the audible run between them is walked against the sender's
//! slots. Cost per epoch is proportional to the parties' *activity*, not to
//! `2^i` — executions with `T` in the millions take microseconds.
//!
//! Drives the *same* phase-level state machines
//! ([`AliceState`]/[`BobState`]) as the slot adapters, so halting semantics
//! cannot diverge from the exact engine; an integration test cross-checks
//! the two distributionally.
//!
//! Jamming semantics (2-uniform adversary): a plan's jammed slots target
//! the **listening party's** group in each phase — Bob in send phases,
//! Alice in nack phases — which is the only jamming that accomplishes
//! anything (jamming a sender is wasted energy) and costs 1 per slot.

use rcb_adversary::traits::{JamPlan, RepetitionAdversary, RepetitionContext, RepetitionSummary};
use rcb_core::one_to_one::profile::DuelProfile;
use rcb_core::one_to_one::state::{AliceState, BobSendOutcome, BobState};
use rcb_mathkit::rng::RcbRng;
use rcb_mathkit::sample::sample_slots_into;
use serde::{Deserialize, Serialize};

use crate::deadline::Deadline;
use crate::error::SimError;
use crate::fast::{listen_runs, shared_slots};
use crate::faults::{FaultPlan, Gate, LossCoins};
use crate::outcome::DuelOutcome;
use crate::session::{OwnsRng, Session};

/// The duel engine's epoch cap: phase lengths past 2^62 slots overflow the
/// slot arithmetic, so runs are truncated here regardless of `max_slots`.
const DUEL_EPOCH_CAP: u32 = 62;

/// Limits for the fast duel engine.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DuelConfig {
    /// Hard cap on elapsed slots; runs reaching it are marked truncated.
    pub max_slots: u64,
}

impl Default for DuelConfig {
    fn default() -> Self {
        Self { max_slots: 1 << 40 }
    }
}

/// Bob's send-phase listens, by run, up to the first `m` he decodes: his
/// listen actions, the noise he heard and the slot he decoded `m` in.
fn bob_hears(
    listens: &[u64],
    alice_sends: &[u64],
    skew: u64,
    plan: &JamPlan,
    len: u64,
    loss: &mut LossCoins,
) -> (u64, u64, Option<u64>) {
    let jam_start = plan.suffix_start(len);
    let (a, b) = listen_runs(listens, skew, jam_start);
    let mut noise = a as u64;
    let mut j = 0;
    for (i, &t) in listens[a..b].iter().enumerate() {
        if jam_start.is_none() && plan.is_jammed(t, len) {
            noise += 1;
            continue;
        }
        while alice_sends.get(j).is_some_and(|&s| s < t) {
            j += 1;
        }
        if alice_sends.get(j) == Some(&t) {
            if !loss.lost() {
                return ((a + i + 1) as u64, noise, Some(t));
            }
            noise += 1;
        }
    }
    let noise = noise + (listens.len() - b) as u64;
    (listens.len() as u64, noise, None)
}

/// Alice's nack-phase listens, by run: whether she heard a nack, and the
/// noise she heard. One loss coin per audible nack, tossed after the run.
fn alice_hears(
    listens: &[u64],
    nacks: &[u64],
    skew: u64,
    plan: &JamPlan,
    len: u64,
    loss: &mut LossCoins,
) -> (bool, u64) {
    let jam_start = plan.suffix_start(len);
    let (a, b) = listen_runs(listens, skew, jam_start);
    let audible = &listens[a..b];
    let jammed_within = |&t: &u64| jam_start.is_none() && plan.is_jammed(t, len);
    let jammed = audible.iter().filter(|t| jammed_within(t)).count();
    let nacks_heard = shared_slots(nacks, audible)
        .filter(|t| !jammed_within(t))
        .count() as u64;
    let kept = loss.kept(nacks_heard);
    let noise = (a + jammed + listens.len() - b) as u64 + nacks_heard - kept;
    (kept > 0, noise)
}

/// Reusable phase buffers: the transmitting party's slot set and the
/// listening party's, plus the fault gate. One set of allocations serves a
/// whole session instead of two fresh `Vec`s per epoch.
#[derive(Debug, Default)]
pub struct DuelScratch {
    sends_buf: Vec<u64>,
    listens_buf: Vec<u64>,
    gate: Gate,
}

/// A fast-duel session: one execution of a two-party epoch protocol
/// described by `profile` per [`run`](Session::run), against a
/// repetition-granularity adversary, under a fault-injection plan (see
/// [`crate::faults`]) and a cooperative [`Deadline`].
///
/// Budget exhaustion (the slot cap or the epoch-62 runaway guard) and a
/// fired deadline come back as the typed [`SimError`] next to the partial
/// outcome, whose `truncated` flag is set.
///
/// Node convention: Alice is node 0, Bob node 1 (matching the exact
/// engine's pair partition); periods are phases. A crashed or
/// battery-dead party skips its sampling but still runs its phase
/// epilogue with zero counts — exactly what the exact engine's slot
/// clock does for a sleeping radio — so a quiet window can push it into
/// premature halting, which is measured degradation, not a bug.
///
/// The session retains the scratch buffers (and the profile/config/fault
/// plan) across runs, so a stream of executions costs zero allocations
/// after the first. The protocol state itself ([`AliceState`]/
/// [`BobState`]) is rebuilt from the profile at the top of every run — it
/// is two plain words, so "without reallocating" holds by construction.
///
/// ```
/// use rcb_sim::deadline::Deadline;
/// use rcb_sim::duel::{DuelConfig, DuelSession};
/// use rcb_sim::faults::FaultPlan;
/// use rcb_sim::session::Session;
/// use rcb_adversary::rep_strategies::BudgetedRepBlocker;
/// use rcb_core::one_to_one::profile::Fig1Profile;
///
/// let profile = Fig1Profile::with_start_epoch(0.05, 8);
/// let mut session = DuelSession::new(profile, DuelConfig::default(), FaultPlan::none(), 1);
/// let mut jammer = BudgetedRepBlocker::new(50_000, 1.0);
/// let (out, err) = session.run(&mut jammer, &Deadline::NONE);
/// assert!(err.is_none() && out.delivered);
/// assert!(out.max_cost() < out.adversary_cost / 4); // √T ≪ T
/// ```
#[derive(Debug)]
pub struct DuelSession<P> {
    profile: P,
    config: DuelConfig,
    faults: FaultPlan,
    scratch: DuelScratch,
    rng: RcbRng,
}

impl<P: DuelProfile> DuelSession<P> {
    pub fn new(profile: P, config: DuelConfig, faults: FaultPlan, seed: u64) -> Self {
        assert!(faults.validate(2).is_ok(), "invalid fault plan");
        Self {
            profile,
            config,
            faults,
            scratch: DuelScratch::default(),
            rng: RcbRng::new(seed),
        }
    }
}

impl<P: DuelProfile> Session for DuelSession<P> {
    type Outcome = DuelOutcome;

    fn rearm(&mut self, seed: u64) {
        self.rng = RcbRng::new(seed);
    }

    fn run(
        &mut self,
        adversary: &mut dyn RepetitionAdversary,
        deadline: &Deadline,
    ) -> (DuelOutcome, Option<SimError>) {
        run_duel_in(
            &mut self.scratch,
            &self.profile,
            adversary,
            &mut self.rng,
            self.config,
            &self.faults,
            deadline,
        )
    }
}

impl<P> OwnsRng for DuelSession<P> {
    fn rng_mut(&mut self) -> &mut RcbRng {
        &mut self.rng
    }
}

/// What a duel's periods share: the fault gate, the adversary and the
/// running totals (`costs` by node: Alice 0, Bob 1).
struct Periods<'a> {
    gate: &'a mut Gate,
    adversary: &'a mut dyn RepetitionAdversary,
    costs: [u64; 2],
    adversary_cost: u64,
    slots: u64,
    period: u64,
}

impl Periods<'_> {
    /// One period, a phase of `len` slots in `epoch` in which `sender`
    /// transmits: the gate's boundary (false if every party has halted,
    /// done or battery-dead), the adversary's plan, `phase` (given the
    /// radio-off flags, the plan and the first slot, it draws the sender's
    /// sends and the listener's listens), the adversary's observation, the
    /// clocks.
    fn step(
        &mut self,
        epoch: u32,
        len: u64,
        done: [bool; 2],
        sender: usize,
        phase: impl FnOnce(&[bool], &JamPlan, u64) -> (u64, u64),
    ) -> bool {
        // A due reboot loses nothing (see `CrashFault::lose_state`).
        let _ = self.gate.boundary(self.period, |i| self.costs[i]);
        if self.gate.halted(done) {
            return false;
        }
        let ctx = RepetitionContext {
            epoch,
            repetition: self.period,
            slots: len,
            active_nodes: done.iter().filter(|&&d| !d).count(),
        };
        let plan = self.adversary.plan(&ctx);
        let jammed = plan.jam_count(len);
        self.adversary_cost += jammed;
        let (sent, listened) = phase(&self.gate.off, &plan, self.slots);
        self.costs[sender] += sent;
        self.costs[1 - sender] += listened;
        // Summaries report *this phase's* action counts — adaptive
        // adversaries key their spending on per-repetition observations, so
        // feeding them cumulative totals would skew every budget-reactive
        // strategy (and differently per engine).
        let summary = RepetitionSummary {
            message_slots: if sender == 0 { sent } else { 0 },
            busy_slots: sent,
            jammed_slots: jammed,
            listen_actions: listened,
            send_actions: sent,
        };
        self.adversary.observe(&ctx, &summary);
        self.slots += len;
        self.period += 1;
        true
    }
}

fn run_duel_in<P: DuelProfile>(
    scratch: &mut DuelScratch,
    profile: &P,
    adversary: &mut dyn RepetitionAdversary,
    rng: &mut RcbRng,
    config: DuelConfig,
    faults: &FaultPlan,
    deadline: &Deadline,
) -> (DuelOutcome, Option<SimError>) {
    let mut alice = AliceState::new(profile.start_epoch());
    let mut bob = BobState::new(profile.start_epoch());

    let mut delivery_slot = None;
    let mut epoch = profile.start_epoch();

    // Session-owned buffers and gate (capacity survives re-arms); their
    // contents never feed the RNG, so reuse cannot perturb determinism.
    let DuelScratch {
        sends_buf,
        listens_buf,
        gate,
    } = scratch;
    // Fault state (Alice = node 0, Bob = node 1).
    gate.arm(faults, 2, Some);
    let mut loss = LossCoins::new(faults, rng);
    let alice_skew = faults.skew_slots(0);
    let bob_skew = faults.skew_slots(1);
    let mut run = Periods {
        gate,
        adversary,
        costs: [0; 2],
        adversary_cost: 0,
        slots: 0,
        period: 0,
    };

    // The deadline checkpoint consumes no RNG, so a deadline that never
    // fires is byte-identical to an unbounded one; the `is_unbounded`
    // gate keeps even the clock read off the default path.
    let bounded = !deadline.is_unbounded();

    let error = loop {
        if run.gate.halted([alice.is_done(), bob.is_done()]) {
            break None;
        }
        if run.slots >= config.max_slots {
            break Some(SimError::SlotBudgetExhausted {
                max_slots: config.max_slots,
                slots: run.slots,
            });
        }
        if bounded && deadline.exceeded() {
            break Some(SimError::DeadlineExceeded { slots: run.slots });
        }
        let len = profile.phase_len(epoch);
        let rate = profile.rate(epoch);
        let thr = profile.noise_threshold(epoch);

        // ---- Send phase: Alice transmits, Bob listens. ----
        let mut bob_outcome = None;
        let done = [alice.is_done(), bob.is_done()];
        let sent = run.step(epoch, len, done, 0, |off, plan, start| {
            if alice.is_done() || off[0] {
                sends_buf.clear();
            } else {
                sample_slots_into(rng, len, rate, sends_buf);
            }
            let mut listened = 0;
            if !bob.is_done() {
                if off[1] {
                    // Radio off; the phase epilogue still runs with zero
                    // counts (the phase clock is driven by Bob's own
                    // crystal).
                    bob_outcome = Some(bob.end_send_phase(false, 0, thr));
                } else {
                    sample_slots_into(rng, len, rate, listens_buf);
                    let (noise, got_m_at);
                    (listened, noise, got_m_at) =
                        bob_hears(listens_buf, sends_buf, bob_skew, plan, len, &mut loss);
                    if let Some(t) = got_m_at {
                        bob.receive_message();
                        delivery_slot = Some(start + t);
                    } else {
                        bob_outcome = Some(bob.end_send_phase(false, noise, thr));
                    }
                }
            }
            (sends_buf.len() as u64, listened)
        });
        if !sent {
            break None;
        }

        // ---- Nack phase: Bob (if still fighting) transmits, Alice listens.
        let bob_nacking = matches!(bob_outcome, Some(BobSendOutcome::ContinueToNack));
        let done = [alice.is_done(), bob.is_done()];
        let nacked = run.step(epoch, len, done, 1, |off, plan, _| {
            if bob_nacking && !off[1] {
                sample_slots_into(rng, len, rate, sends_buf);
            } else {
                sends_buf.clear();
            }
            let mut listened = 0;
            if !alice.is_done() {
                if off[0] {
                    // Radio off: a quiet epoch from Alice's point of view.
                    alice.end_epoch(false, 0, thr);
                } else {
                    sample_slots_into(rng, len, rate, listens_buf);
                    listened = listens_buf.len() as u64;
                    let (heard_nack, noise) =
                        alice_hears(listens_buf, sends_buf, alice_skew, plan, len, &mut loss);
                    alice.end_epoch(heard_nack, noise, thr);
                }
            }
            if bob_nacking {
                bob.end_nack_phase();
            }
            (sends_buf.len() as u64, listened)
        });
        epoch += 1;
        if !nacked {
            break None;
        }
        if epoch >= DUEL_EPOCH_CAP {
            // An effectively-infinite adversary budget (or a degenerate
            // profile) would push phase lengths past 2^62 slots; truncate
            // like the `max_slots` cap instead of aborting the trial batch.
            break Some(SimError::EpochBudgetExhausted {
                max_epoch: DUEL_EPOCH_CAP,
                slots: run.slots,
            });
        }
    };

    let outcome = DuelOutcome {
        delivered: bob.got_message(),
        bob_premature: bob.is_done() && !bob.got_message(),
        alice_cost: run.costs[0],
        bob_cost: run.costs[1],
        adversary_cost: run.adversary_cost,
        slots: run.slots,
        delivery_slot,
        last_epoch: epoch.saturating_sub(1).max(profile.start_epoch()),
        truncated: error.is_some(),
    };
    (outcome, error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcb_adversary::rep_strategies::{BudgetedRepBlocker, NoJamRep};
    use rcb_core::one_to_one::profile::Fig1Profile;
    use rcb_mathkit::sample::bernoulli;

    /// One run of a fresh session on the caller's RNG — the one-shot hand-off
    /// a spec trial uses — so unit tests can share one stream across trials.
    fn one_shot<P: DuelProfile + Copy>(
        profile: &P,
        adversary: &mut dyn RepetitionAdversary,
        rng: &mut RcbRng,
        config: DuelConfig,
        faults: &FaultPlan,
        deadline: &Deadline,
    ) -> (DuelOutcome, Option<SimError>) {
        let mut session = DuelSession::new(*profile, config, *faults, 0);
        crate::session::run_on(&mut session, rng, adversary, deadline)
    }

    /// No faults, no deadline: the outcome alone.
    fn plain<P: DuelProfile + Copy>(
        profile: &P,
        adversary: &mut dyn RepetitionAdversary,
        rng: &mut RcbRng,
        config: DuelConfig,
    ) -> DuelOutcome {
        one_shot(
            profile,
            adversary,
            rng,
            config,
            &FaultPlan::none(),
            &Deadline::NONE,
        )
        .0
    }

    #[test]
    fn unjammed_run_delivers_with_high_probability() {
        let profile = Fig1Profile::new(0.1); // paper start epoch (14)
        let mut delivered = 0;
        let trials = 100;
        for seed in 0..trials {
            let mut rng = RcbRng::new(seed);
            let mut adv = NoJamRep;
            let out = plain(&profile, &mut adv, &mut rng, DuelConfig::default());
            assert!(!out.truncated);
            assert_eq!(out.adversary_cost, 0);
            if out.delivered {
                delivered += 1;
                assert!(out.delivery_slot.is_some());
            } else {
                assert!(out.bob_premature);
            }
        }
        assert!(delivered >= 90, "delivered {delivered}/100 at ε = 0.1");
    }

    #[test]
    fn unjammed_cost_is_the_efficiency_function() {
        // With T = 0, expected cost is O(ln(1/ε)) — concretely, about one
        // epoch's activity: p_i·2^i per phase at the start epoch.
        let profile = Fig1Profile::new(0.1);
        let mut rng = RcbRng::new(42);
        let mut total = 0u64;
        let trials = 50;
        for _ in 0..trials {
            let mut adv = NoJamRep;
            let out = plain(&profile, &mut adv, &mut rng, DuelConfig::default());
            total += out.max_cost();
        }
        let mean = total as f64 / trials as f64;
        let i = profile.start_epoch();
        let one_epoch = profile.rate(i) * (2 * (1u64 << i)) as f64;
        assert!(
            mean < 3.0 * one_epoch,
            "mean cost {mean} vs one-epoch bound {one_epoch}"
        );
    }

    #[test]
    fn full_blocking_forces_epoch_progression() {
        let profile = Fig1Profile::with_start_epoch(0.1, 8);
        let mut rng = RcbRng::new(1);
        // Budget enough to fully block epochs 8 and 9 (4 phases: 2·256+2·512).
        let mut adv = BudgetedRepBlocker::new(1536, 1.0);
        let out = plain(&profile, &mut adv, &mut rng, DuelConfig::default());
        assert!(out.adversary_cost > 0);
        assert!(
            out.last_epoch >= 10,
            "blocked epochs must push progression, got {}",
            out.last_epoch
        );
        assert!(out.delivered, "after the budget is gone, delivery succeeds");
    }

    #[test]
    fn latency_is_linear_in_adversary_budget() {
        let profile = Fig1Profile::with_start_epoch(0.1, 8);
        let mut slots_small = 0u64;
        let mut slots_large = 0u64;
        for seed in 0..20 {
            let mut rng = RcbRng::new(seed);
            let mut adv = BudgetedRepBlocker::new(2_000, 1.0);
            slots_small += plain(&profile, &mut adv, &mut rng, DuelConfig::default()).slots;
            let mut rng = RcbRng::new(seed + 1000);
            let mut adv = BudgetedRepBlocker::new(64_000, 1.0);
            slots_large += plain(&profile, &mut adv, &mut rng, DuelConfig::default()).slots;
        }
        // 32× budget should yield far more than 4× latency (it is ~linear).
        assert!(
            slots_large > slots_small * 4,
            "latency {slots_large} vs {slots_small}"
        );
    }

    #[test]
    fn cost_grows_sublinearly_in_t() {
        // The heart of Theorem 1: doubling T must not double cost; the
        // ratio between budgets 4096 and 262144 (64×) should be near
        // √64 = 8, certainly below 20.
        let profile = Fig1Profile::with_start_epoch(0.1, 8);
        let trials = 30;
        let mut cost_small = 0.0;
        let mut cost_large = 0.0;
        for seed in 0..trials {
            let mut rng = RcbRng::new(seed);
            let mut adv = BudgetedRepBlocker::new(4096, 1.0);
            cost_small +=
                plain(&profile, &mut adv, &mut rng, DuelConfig::default()).max_cost() as f64;
            let mut rng = RcbRng::new(seed + 500);
            let mut adv = BudgetedRepBlocker::new(262_144, 1.0);
            cost_large +=
                plain(&profile, &mut adv, &mut rng, DuelConfig::default()).max_cost() as f64;
        }
        let ratio = cost_large / cost_small;
        assert!(
            ratio > 3.0 && ratio < 20.0,
            "64× budget → cost ratio {ratio}, expected ≈ 8"
        );
    }

    #[test]
    fn truncation_is_reported() {
        let profile = Fig1Profile::with_start_epoch(0.1, 8);
        let mut rng = RcbRng::new(3);
        let mut adv = BudgetedRepBlocker::new(10_000, 1.0);
        let out = plain(&profile, &mut adv, &mut rng, DuelConfig { max_slots: 100 });
        assert!(out.truncated);
    }

    /// Records every (context, summary) pair it observes; never jams.
    struct RecordingRep {
        observed: Vec<(RepetitionContext, RepetitionSummary)>,
    }

    impl RepetitionAdversary for RecordingRep {
        fn plan(&mut self, _ctx: &RepetitionContext) -> rcb_adversary::traits::JamPlan {
            rcb_adversary::traits::JamPlan::None
        }

        fn observe(&mut self, ctx: &RepetitionContext, summary: &RepetitionSummary) {
            self.observed.push((*ctx, *summary));
        }
    }

    #[test]
    fn summaries_report_per_phase_counts() {
        // Cross-check the per-phase action counts against the outcome's
        // cumulative totals: Bob listens in send phases (even periods) and
        // nacks in nack phases (odd); Alice is the mirror image. A summary
        // that leaked cumulative totals would both break the totals below
        // and exceed the phase length.
        for seed in 0..20 {
            let profile = Fig1Profile::with_start_epoch(0.05, 6);
            let mut rng = RcbRng::new(seed);
            let mut adv = RecordingRep {
                observed: Vec::new(),
            };
            let out = plain(&profile, &mut adv, &mut rng, DuelConfig::default());

            let mut alice_total = 0u64;
            let mut bob_total = 0u64;
            for (ctx, summary) in &adv.observed {
                assert!(
                    summary.listen_actions <= ctx.slots,
                    "seed {seed}: per-phase listens {} exceed phase length {}",
                    summary.listen_actions,
                    ctx.slots
                );
                assert!(summary.send_actions <= ctx.slots);
                if ctx.repetition % 2 == 0 {
                    alice_total += summary.send_actions;
                    bob_total += summary.listen_actions;
                } else {
                    alice_total += summary.listen_actions;
                    bob_total += summary.send_actions;
                }
            }
            assert_eq!(alice_total, out.alice_cost, "seed {seed}: alice total");
            assert_eq!(bob_total, out.bob_cost, "seed {seed}: bob total");
        }
    }

    /// A degenerate profile that never lets either party halt (threshold 0
    /// with zero activity), forcing the epoch counter to run away.
    #[derive(Clone, Copy)]
    struct NeverHaltProfile;

    impl DuelProfile for NeverHaltProfile {
        fn start_epoch(&self) -> u32 {
            1
        }

        fn rate(&self, _epoch: u32) -> f64 {
            0.0
        }

        fn noise_threshold(&self, _epoch: u32) -> f64 {
            0.0
        }

        fn phase_len(&self, _epoch: u32) -> u64 {
            1
        }
    }

    #[test]
    fn runaway_epochs_truncate_instead_of_panicking() {
        let mut rng = RcbRng::new(5);
        let mut adv = NoJamRep;
        let out = plain(
            &NeverHaltProfile,
            &mut adv,
            &mut rng,
            DuelConfig {
                max_slots: u64::MAX,
            },
        );
        assert!(out.truncated, "epoch cap must truncate, not abort");
        assert!(!out.delivered);
        assert_eq!(out.last_epoch, 61);
    }

    #[test]
    fn checked_run_reports_epoch_cap_as_typed_error() {
        let mut rng = RcbRng::new(5);
        let mut adv = NoJamRep;
        let err = one_shot(
            &NeverHaltProfile,
            &mut adv,
            &mut rng,
            DuelConfig {
                max_slots: u64::MAX,
            },
            &FaultPlan::none(),
            &Deadline::NONE,
        )
        .1
        .expect("runaway profile must exhaust the epoch budget");
        assert!(matches!(
            err,
            SimError::EpochBudgetExhausted { max_epoch: 62, .. }
        ));
    }

    #[test]
    fn checked_run_reports_slot_cap_as_typed_error() {
        let profile = Fig1Profile::with_start_epoch(0.1, 8);
        let mut rng = RcbRng::new(3);
        let mut adv = BudgetedRepBlocker::new(10_000, 1.0);
        let err = one_shot(
            &profile,
            &mut adv,
            &mut rng,
            DuelConfig { max_slots: 100 },
            &FaultPlan::none(),
            &Deadline::NONE,
        )
        .1
        .expect("100 slots cannot finish a jammed duel");
        assert!(matches!(
            err,
            SimError::SlotBudgetExhausted { max_slots: 100, .. }
        ));
    }

    #[test]
    fn certain_loss_blocks_delivery() {
        // p_loss = 1: every decode fails, so m can never be delivered; Bob
        // must eventually halt prematurely via the noise threshold path.
        let profile = Fig1Profile::with_start_epoch(0.1, 8);
        for seed in 0..10 {
            let mut rng = RcbRng::new(seed);
            let mut adv = NoJamRep;
            let out = one_shot(
                &profile,
                &mut adv,
                &mut rng,
                DuelConfig::default(),
                &FaultPlan::none().with_loss(1.0),
                &Deadline::NONE,
            )
            .0;
            assert!(!out.delivered, "seed {seed}: lossy radio cannot decode m");
            assert!(!out.truncated, "seed {seed}: the duel still halts");
        }
    }

    #[test]
    fn moderate_loss_still_delivers_mostly() {
        let profile = Fig1Profile::with_start_epoch(0.1, 8);
        let mut delivered = 0;
        let trials = 50;
        for seed in 0..trials {
            let mut rng = RcbRng::new(seed);
            let mut adv = NoJamRep;
            let out = one_shot(
                &profile,
                &mut adv,
                &mut rng,
                DuelConfig::default(),
                &FaultPlan::none().with_loss(0.2),
                &Deadline::NONE,
            )
            .0;
            if out.delivered {
                delivered += 1;
            }
        }
        assert!(
            delivered >= trials * 6 / 10,
            "graceful degradation: {delivered}/{trials} delivered at p_loss = 0.2"
        );
    }

    #[test]
    fn crashed_bob_pays_nothing_during_the_window() {
        // Bob offline from the start, forever: he never listens, so his
        // cost is zero and delivery is impossible.
        let profile = Fig1Profile::with_start_epoch(0.1, 8);
        let mut rng = RcbRng::new(9);
        let mut adv = NoJamRep;
        let out = one_shot(
            &profile,
            &mut adv,
            &mut rng,
            DuelConfig::default(),
            &FaultPlan::none().with_crash(1, 0, u64::MAX, false),
            &Deadline::NONE,
        )
        .0;
        assert_eq!(out.bob_cost, 0);
        assert!(!out.delivered);
        assert!(out.bob_premature, "quiet phases push Bob out");
    }

    #[test]
    fn battery_brownout_caps_spend_near_capacity() {
        // Heavy blanket jamming would normally cost each party hundreds;
        // a small battery caps the spend at capacity plus one phase.
        let profile = Fig1Profile::with_start_epoch(0.1, 8);
        let cap = 16u64;
        for seed in 0..10 {
            let mut rng = RcbRng::new(seed);
            let mut adv = BudgetedRepBlocker::new(1 << 20, 1.0);
            let out = one_shot(
                &profile,
                &mut adv,
                &mut rng,
                DuelConfig::default(),
                &FaultPlan::none().with_battery(cap),
                &Deadline::NONE,
            )
            .0;
            assert!(!out.truncated, "seed {seed}: dead parties end the run");
            // Overshoot is bounded by one phase of sampled activity: at
            // start epoch 8 that is ≈ rate·len ≈ 47 expected actions, so
            // allow a generous 128 on top of the capacity — still far
            // below the unfaulted spend under this attack (hundreds).
            assert!(
                out.alice_cost < cap + 128 && out.bob_cost < cap + 128,
                "seed {seed}: costs {}/{} vs cap {cap}",
                out.alice_cost,
                out.bob_cost
            );
        }
    }

    /// Deterministic fixture: 4-slot phases, rate 1 (every slot active),
    /// and a noise threshold no phase can reach — both parties halt the
    /// moment a phase is quiet, and Bob decodes m in the first unskewed
    /// send slot.
    #[derive(Clone, Copy)]
    struct AlwaysOnProfile;

    impl DuelProfile for AlwaysOnProfile {
        fn start_epoch(&self) -> u32 {
            1
        }

        fn rate(&self, _epoch: u32) -> f64 {
            1.0
        }

        fn noise_threshold(&self, _epoch: u32) -> f64 {
            100.0
        }

        fn phase_len(&self, _epoch: u32) -> u64 {
            4
        }
    }

    #[test]
    fn skewed_bob_hears_boundary_slots_as_noise() {
        let run = |skew_slots: u64| {
            let mut rng = RcbRng::new(4);
            let mut adv = NoJamRep;
            one_shot(
                &AlwaysOnProfile,
                &mut adv,
                &mut rng,
                DuelConfig::default(),
                &FaultPlan::none().with_skew(1, skew_slots),
                &Deadline::NONE,
            )
            .0
        };
        // No skew: Alice sends every slot, Bob decodes at offset 0.
        assert_eq!(run(0).delivery_slot, Some(0));
        // Two skewed boundary slots: the first decodable slot is offset 2.
        assert_eq!(run(2).delivery_slot, Some(2));
        // A fully skewed phase decodes nothing; 4 noise slots stay below
        // the threshold, so Bob quits prematurely — graceful, not stuck.
        let out = run(4);
        assert!(!out.delivered);
        assert!(out.bob_premature);
        assert!(!out.truncated);
    }

    #[test]
    fn an_elapsed_deadline_truncates_with_a_typed_error() {
        let mut rng = RcbRng::new(5);
        let mut adv = NoJamRep;
        let (out, err) = one_shot(
            &NeverHaltProfile,
            &mut adv,
            &mut rng,
            DuelConfig {
                max_slots: u64::MAX,
            },
            &FaultPlan::none(),
            &Deadline::after(std::time::Duration::ZERO),
        );
        assert!(out.truncated);
        assert!(matches!(err, Some(SimError::DeadlineExceeded { .. })));
    }

    #[test]
    fn an_unbounded_deadline_is_bit_identical_to_the_legacy_path() {
        let profile = Fig1Profile::with_start_epoch(0.1, 8);
        for seed in 0..10 {
            let mut rng_a = RcbRng::new(seed);
            let mut adv_a = BudgetedRepBlocker::new(4096, 1.0);
            let untimed = plain(&profile, &mut adv_a, &mut rng_a, DuelConfig::default());
            let mut rng_b = RcbRng::new(seed);
            let mut adv_b = BudgetedRepBlocker::new(4096, 1.0);
            let far = Deadline::after(std::time::Duration::from_secs(3600));
            let (timed, err) = one_shot(
                &profile,
                &mut adv_b,
                &mut rng_b,
                DuelConfig::default(),
                &FaultPlan::none(),
                &far,
            );
            assert_eq!(untimed, timed, "seed {seed}");
            assert_eq!(rng_a, rng_b, "seed {seed}: no extra randomness drawn");
            assert!(err.is_none());
        }
    }

    /// The sorted-merge membership scan both parties' listens went
    /// through before they were resolved by run, verbatim: reports for each
    /// listen whether it is in `sends`, until the callback says stop.
    fn scan_listens(listens: &[u64], sends: &[u64], mut on_listen: impl FnMut(u64, bool) -> bool) {
        let mut j = 0usize;
        for &t in listens {
            while j < sends.len() && sends[j] < t {
                j += 1;
            }
            let hit = j < sends.len() && sends[j] == t;
            if on_listen(t, hit) {
                return;
            }
        }
    }

    /// Bob's send-phase scan before run resolution, verbatim but for its
    /// inputs and outputs: `(listens, noise, slot m was decoded in)`.
    #[allow(clippy::too_many_arguments)]
    fn bob_reference(
        listens: &[u64],
        alice_sends: &[u64],
        bob_skew: u64,
        plan: &JamPlan,
        len: u64,
        fault_rng: &mut Option<RcbRng>,
        loss_p: f64,
    ) -> (u64, u64, Option<u64>) {
        let lost = |frng: &mut Option<RcbRng>| match frng {
            Some(r) if loss_p > 0.0 => bernoulli(r, loss_p),
            _ => false,
        };
        let (mut bob_listened, mut bob_noise, mut got_m_at) = (0u64, 0u64, None);
        scan_listens(listens, alice_sends, |t, alice_sent| {
            bob_listened += 1;
            if t < bob_skew {
                // Misaligned boundary slot: undecodable energy.
                bob_noise += 1;
                false
            } else if plan.is_jammed(t, len) {
                bob_noise += 1;
                false
            } else if alice_sent {
                if lost(fault_rng) {
                    bob_noise += 1;
                    false
                } else {
                    got_m_at = Some(t);
                    true // Bob halts immediately on m; stop listening.
                }
            } else {
                false
            }
        });
        (bob_listened, bob_noise, got_m_at)
    }

    /// Alice's nack-phase scan before run resolution, verbatim but for its
    /// inputs and outputs: `(heard a nack, noise)`.
    fn alice_reference(
        listens: &[u64],
        bob_nacks: &[u64],
        alice_skew: u64,
        plan2: &JamPlan,
        len: u64,
        fault_rng: &mut Option<RcbRng>,
        loss_p: f64,
    ) -> (bool, u64) {
        let lost = |frng: &mut Option<RcbRng>| match frng {
            Some(r) if loss_p > 0.0 => bernoulli(r, loss_p),
            _ => false,
        };
        let mut heard_nack = false;
        let mut alice_noise = 0u64;
        scan_listens(listens, bob_nacks, |t, bob_sent| {
            // Skew is checked before jamming; both decode as noise
            // and neither draws the loss coin.
            if t < alice_skew || plan2.is_jammed(t, len) {
                alice_noise += 1;
            } else if bob_sent {
                if lost(fault_rng) {
                    alice_noise += 1;
                } else {
                    heard_nack = true;
                }
            }
            false
        });
        (heard_nack, alice_noise)
    }

    #[test]
    fn listens_by_run_hear_the_hand_worked_phases() {
        // Listens 1, 3, 5, 7 against sends 2, 3, 7: Bob stops at 3, his
        // second listen; Alice hears both nacks. With a skew of 4 and the
        // last slot jammed, Bob hears 1, 3 and 7 as noise and never m, and
        // Alice hears nothing but noise.
        let (listens, sends) = ([1u64, 3, 5, 7], [2u64, 3, 7]);
        let mut quiet = LossCoins { rng: None, p: 0.0 };
        let (open, tail) = (JamPlan::None, JamPlan::Suffix(1));
        let bob = bob_hears(&listens, &sends, 0, &open, 8, &mut quiet);
        assert_eq!(bob, (2, 0, Some(3)));
        let alice = alice_hears(&listens, &sends, 0, &open, 8, &mut quiet);
        assert_eq!(alice, (true, 0));
        let bob = bob_hears(&listens, &sends, 4, &tail, 8, &mut quiet);
        assert_eq!(bob, (4, 3, None));
        let alice = alice_hears(&listens, &sends, 4, &tail, 8, &mut quiet);
        assert_eq!(alice, (false, 3));
        // Bob stops at the first hit: his third listen goes unmade.
        let bob = bob_hears(&[1, 2, 3], &[2], 0, &open, 4, &mut quiet);
        assert_eq!(bob, (2, 0, Some(2)));
    }

    #[test]
    fn listens_by_run_match_the_per_listen_scans() {
        // Random phases: every plan shape, skew on either side of the jam
        // start, listens forced onto the other party's send slots, empty
        // send and listen sets, loss on and off. Bob's and Alice's scans
        // share one loss stream per case, Bob's coins first.
        use crate::fast::tests::{any_loss, any_plan, any_skew, with_some_of};
        let mut rng = RcbRng::new(2014);
        let (mut stops, mut coins, mut nacks_heard) = (0, 0, 0);
        let (mut sends, mut listens) = (Vec::new(), Vec::new());
        for case in 0..6000 {
            let len = 16u64 << rng.below(7);
            let mut loss = any_loss(&mut rng);
            let mut fault_rng = loss.rng.clone();
            for bob_listens in [true, false] {
                let plan = any_plan(&mut rng, len);
                let skew = any_skew(&mut rng, &plan, len);
                let p = [0.0, 0.05, 0.3][rng.below(3) as usize];
                sample_slots_into(&mut rng, len, p, &mut sends);
                let q = [0.0, 0.05, 0.3, 0.9][rng.below(4) as usize];
                sample_slots_into(&mut rng, len, q, &mut listens);
                let listens = with_some_of(&mut rng, &listens, &sends);
                let before = loss.rng.clone();
                if bob_listens {
                    let got = bob_hears(&listens, &sends, skew, &plan, len, &mut loss);
                    let want =
                        bob_reference(&listens, &sends, skew, &plan, len, &mut fault_rng, loss.p);
                    assert_eq!(got, want, "case {case}: Bob, {plan:?} skew {skew}");
                    stops += u32::from(want.2.is_some() && want.0 < listens.len() as u64);
                } else {
                    let got = alice_hears(&listens, &sends, skew, &plan, len, &mut loss);
                    let want =
                        alice_reference(&listens, &sends, skew, &plan, len, &mut fault_rng, loss.p);
                    assert_eq!(got, want, "case {case}: Alice, {plan:?} skew {skew}");
                    nacks_heard += u32::from(want.0);
                }
                assert_eq!(loss.rng, fault_rng, "case {case}: loss stream");
                coins += u32::from(loss.p == 0.3 && loss.rng != before);
            }
        }
        assert!(
            stops > 100 && nacks_heard > 100 && coins > 100,
            "{stops} early stops, {nacks_heard} nacks heard, {coins} lossy phases"
        );
    }
}
