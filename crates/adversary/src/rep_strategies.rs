//! Repetition-granularity strategies for the fast 1-to-n engine.
//!
//! The Theorem 3 analysis pins down what an effective adversary must do:
//! to stop `S_V` from growing it must ½-block repetitions (Lemma 8), to
//! stop dissemination or helper-termination it must 1/10-block a constant
//! fraction of an epoch's repetitions (Lemmas 9/12), and pushing the system
//! into epoch `i ≫ log n` costs `T = Ω(i²·2^i)`. `BudgetedRepBlocker` is
//! that attacker: it q-blocks every repetition from the start until its
//! budget runs out.

use crate::error::AdversaryConfigError;
use crate::traits::{JamPlan, RepetitionAdversary, RepetitionContext, RepetitionSummary};
use rcb_mathkit::rng::RcbRng;
use rcb_mathkit::sample::{bernoulli, sample_slots};

fn check_fraction(what: &'static str, value: f64) -> Result<(), AdversaryConfigError> {
    if (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(AdversaryConfigError::FractionOutOfRange { what, value })
    }
}

/// No jamming: the τ (efficiency-function) baseline.
#[derive(Debug, Clone, Default)]
pub struct NoJamRep;

impl RepetitionAdversary for NoJamRep {
    fn plan(&mut self, _ctx: &RepetitionContext) -> JamPlan {
        JamPlan::None
    }

    fn remaining_budget(&self) -> Option<u64> {
        Some(0)
    }
}

/// q-blocks (jams the last `ceil(q·2^i)` slots of) each repetition until the
/// budget is exhausted. With `q = 1.0` it silences whole repetitions.
#[derive(Debug, Clone)]
pub struct BudgetedRepBlocker {
    budget: u64,
    spent: u64,
    q: f64,
}

impl BudgetedRepBlocker {
    /// Checked constructor: rejects `q ∉ [0, 1]` as a typed error.
    pub fn try_new(budget: u64, q: f64) -> Result<Self, AdversaryConfigError> {
        check_fraction("q", q)?;
        Ok(Self {
            budget,
            spent: 0,
            q,
        })
    }

    /// # Panics
    ///
    /// Panics if `q ∉ [0, 1]`; use [`BudgetedRepBlocker::try_new`] for
    /// configurations built from user input.
    pub fn new(budget: u64, q: f64) -> Self {
        Self::try_new(budget, q).expect("valid blocking fraction")
    }

    pub fn spent(&self) -> u64 {
        self.spent
    }
}

impl RepetitionAdversary for BudgetedRepBlocker {
    fn plan(&mut self, ctx: &RepetitionContext) -> JamPlan {
        let want = ((self.q * ctx.slots as f64).ceil() as u64).min(ctx.slots);
        let left = self.budget - self.spent;
        // Partial blocking below the intended fraction is wasted energy
        // (a (q-δ)-blocked repetition still lets the protocol progress), so
        // only jam if the full q-suffix is affordable.
        if want == 0 || want > left {
            return JamPlan::None;
        }
        self.spent += want;
        JamPlan::Suffix(want)
    }

    fn remaining_budget(&self) -> Option<u64> {
        Some(self.budget - self.spent)
    }

    fn rearm(&mut self) {
        self.spent = 0;
    }
}

/// Unbounded q-suffix jamming of every repetition — used by the dynamics
/// experiment (E10) to hold the system in a chosen regime.
#[derive(Debug, Clone)]
pub struct SuffixFractionRep {
    q: f64,
}

impl SuffixFractionRep {
    /// Checked constructor: rejects `q ∉ [0, 1]` as a typed error.
    pub fn try_new(q: f64) -> Result<Self, AdversaryConfigError> {
        check_fraction("q", q)?;
        Ok(Self { q })
    }

    /// # Panics
    ///
    /// Panics if `q ∉ [0, 1]`; use [`SuffixFractionRep::try_new`] for
    /// configurations built from user input.
    pub fn new(q: f64) -> Self {
        Self::try_new(q).expect("valid blocking fraction")
    }
}

impl RepetitionAdversary for SuffixFractionRep {
    fn plan(&mut self, ctx: &RepetitionContext) -> JamPlan {
        let k = ((self.q * ctx.slots as f64).ceil() as u64).min(ctx.slots);
        if k == 0 {
            JamPlan::None
        } else {
            JamPlan::Suffix(k)
        }
    }
}

/// The cost-efficient "keep-alive" attack against two-party epoch
/// protocols: jam a small suffix of **odd periods only** (the nack phases
/// of the Figure 1 schedule, where the *sender* listens for nacks).
///
/// Rationale (validated by experiment E11): delivery cannot be stopped
/// without half-blocking send phases, but *halting* is governed by the
/// noise threshold `Θᵢ` — roughly a 1/8 fraction. Jamming only the phases
/// where halting decisions are made keeps both parties paying their full
/// per-epoch budgets at a fraction of the blanket-blocking price.
#[derive(Debug, Clone)]
pub struct KeepAliveBlocker {
    budget: u64,
    spent: u64,
    q: f64,
}

impl KeepAliveBlocker {
    /// `q` is the fraction of each nack phase to jam; it must exceed the
    /// protocol's noise-threshold fraction to bite (¼ is a safe default
    /// for the Figure 1 profile, whose Θᵢ corresponds to ⅛). Rejects
    /// `q ∉ [0, 1]` as a typed error.
    pub fn try_new(budget: u64, q: f64) -> Result<Self, AdversaryConfigError> {
        check_fraction("q", q)?;
        Ok(Self {
            budget,
            spent: 0,
            q,
        })
    }

    /// # Panics
    ///
    /// Panics if `q ∉ [0, 1]`; use [`KeepAliveBlocker::try_new`] for
    /// configurations built from user input.
    pub fn new(budget: u64, q: f64) -> Self {
        Self::try_new(budget, q).expect("valid blocking fraction")
    }
}

impl RepetitionAdversary for KeepAliveBlocker {
    fn plan(&mut self, ctx: &RepetitionContext) -> JamPlan {
        if ctx.repetition.is_multiple_of(2) {
            return JamPlan::None; // send phase: let m through, it is cheap
        }
        let want = ((self.q * ctx.slots as f64).ceil() as u64).min(ctx.slots);
        let left = self.budget - self.spent;
        if want == 0 || want > left {
            return JamPlan::None;
        }
        self.spent += want;
        JamPlan::Suffix(want)
    }

    fn remaining_budget(&self) -> Option<u64> {
        Some(self.budget - self.spent)
    }

    fn rearm(&mut self) {
        self.spent = 0;
    }
}

/// A *learning* jammer: ε-greedy bandit over blocking fractions.
///
/// §1.4 cites Dams–Hoefer–Kesselheim's jamming-resistant *defenders* built
/// on distributed learning; this is the mirror image — an attacker that
/// does not know which blocking fraction is budget-optimal for the victim
/// protocol (experiment E11 shows it is *not* full blocking) and learns it
/// online across executions.
///
/// One arm = one q fraction. The bandit commits to a single arm for a whole
/// *execution* (picked at the first `plan` after construction or
/// [`refill`](Self::refill)), because a weak arm ends a run within an epoch
/// or two — there is no within-run sample budget to learn from. The reward
/// is the **total victim activity observed during the run**: the budget is
/// per-run ("use it or lose it"), so raw extracted cost — not cost per
/// energy — is the attacker's objective. Exploration is ε-greedy with
/// ε = 1/√(runs).
#[derive(Debug)]
pub struct BanditBlocker {
    arms: Vec<f64>,
    reward_sum: Vec<f64>,
    pulls: Vec<u64>,
    budget: u64,
    spent: u64,
    seed: u64,
    rng: RcbRng,
    current_arm: Option<usize>,
    run_activity: u64,
    runs: u64,
}

impl BanditBlocker {
    /// `arms` are the candidate blocking fractions (each in `[0, 1]`).
    /// Rejects an empty arm set or an out-of-range fraction as a typed
    /// error.
    pub fn try_new(arms: Vec<f64>, budget: u64, seed: u64) -> Result<Self, AdversaryConfigError> {
        if arms.is_empty() {
            return Err(AdversaryConfigError::NoArms);
        }
        if let Some(&bad) = arms.iter().find(|q| !(0.0..=1.0).contains(*q)) {
            return Err(AdversaryConfigError::FractionOutOfRange {
                what: "arm",
                value: bad,
            });
        }
        let k = arms.len();
        Ok(Self {
            arms,
            reward_sum: vec![0.0; k],
            pulls: vec![0; k],
            budget,
            spent: 0,
            seed,
            rng: RcbRng::new(seed),
            current_arm: None,
            run_activity: 0,
            runs: 0,
        })
    }

    /// # Panics
    ///
    /// Panics on an empty arm set or an out-of-range fraction; use
    /// [`BanditBlocker::try_new`] for configurations built from user input.
    pub fn new(arms: Vec<f64>, budget: u64, seed: u64) -> Self {
        Self::try_new(arms, budget, seed).expect("valid bandit arms")
    }

    fn pick_arm(&mut self) -> usize {
        self.runs += 1;
        // Pull every arm once first, then explore with decaying ε.
        if let Some(unpulled) = self.pulls.iter().position(|&p| p == 0) {
            return unpulled;
        }
        let epsilon = 1.0 / (self.runs as f64).sqrt();
        if bernoulli(&mut self.rng, epsilon) {
            return self.rng.below(self.arms.len() as u64) as usize;
        }
        let mut best = 0;
        for i in 1..self.arms.len() {
            let mean_i = self.reward_sum[i] / self.pulls[i] as f64;
            let mean_b = self.reward_sum[best] / self.pulls[best] as f64;
            if mean_i > mean_b {
                best = i;
            }
        }
        best
    }

    /// Flushes the finished run's reward into the arm statistics. Called
    /// automatically by [`refill`](Self::refill); call directly after the
    /// final run.
    pub fn settle_now(&mut self) {
        if let Some(arm) = self.current_arm.take() {
            self.reward_sum[arm] += self.run_activity as f64;
            self.pulls[arm] += 1;
        }
        self.run_activity = 0;
    }

    /// Settles the finished run and refills the jamming budget for the
    /// next one, keeping everything learned so far.
    pub fn refill(&mut self, budget: u64) {
        self.settle_now();
        self.budget = budget;
        self.spent = 0;
    }

    /// `(q, mean reward, pulls)` per arm, for diagnostics.
    pub fn arm_means(&self) -> Vec<(f64, f64, u64)> {
        self.arms
            .iter()
            .zip(&self.reward_sum)
            .zip(&self.pulls)
            .map(|((&q, &r), &p)| (q, if p == 0 { 0.0 } else { r / p as f64 }, p))
            .collect()
    }
}

impl RepetitionAdversary for BanditBlocker {
    fn plan(&mut self, ctx: &RepetitionContext) -> JamPlan {
        let arm = match self.current_arm {
            Some(a) => a,
            None => {
                let a = self.pick_arm();
                self.current_arm = Some(a);
                a
            }
        };
        let q = self.arms[arm];
        let want = ((q * ctx.slots as f64).ceil() as u64).min(ctx.slots);
        let left = self.budget - self.spent;
        if want == 0 || want > left {
            return JamPlan::None;
        }
        self.spent += want;
        JamPlan::Suffix(want)
    }

    fn observe(&mut self, _ctx: &RepetitionContext, summary: &RepetitionSummary) {
        self.run_activity += summary.listen_actions + summary.send_actions;
    }

    fn remaining_budget(&self) -> Option<u64> {
        Some(self.budget - self.spent)
    }

    /// Full reset: forgets everything learned (the [`refill`](Self::refill)
    /// path keeps the statistics; `rearm` is the just-constructed contract).
    fn rearm(&mut self) {
        self.reward_sum.iter_mut().for_each(|r| *r = 0.0);
        self.pulls.iter_mut().for_each(|p| *p = 0);
        self.spent = 0;
        self.rng = RcbRng::new(self.seed);
        self.current_arm = None;
        self.run_activity = 0;
        self.runs = 0;
    }
}

/// Jams uniformly random slots at `rate` within each repetition until the
/// budget is spent — the non-canonical jammer for the ablation (E11).
#[derive(Debug)]
pub struct RandomRep {
    rate: f64,
    budget: u64,
    spent: u64,
    seed: u64,
    rng: RcbRng,
}

impl RandomRep {
    /// Checked constructor: rejects `rate ∉ [0, 1]` as a typed error.
    pub fn try_new(rate: f64, budget: u64, seed: u64) -> Result<Self, AdversaryConfigError> {
        check_fraction("rate", rate)?;
        Ok(Self {
            rate,
            budget,
            spent: 0,
            seed,
            rng: RcbRng::new(seed),
        })
    }

    /// # Panics
    ///
    /// Panics if `rate ∉ [0, 1]`; use [`RandomRep::try_new`] for
    /// configurations built from user input.
    pub fn new(rate: f64, budget: u64, seed: u64) -> Self {
        Self::try_new(rate, budget, seed).expect("valid jamming rate")
    }
}

impl RepetitionAdversary for RandomRep {
    fn plan(&mut self, ctx: &RepetitionContext) -> JamPlan {
        if self.spent >= self.budget {
            return JamPlan::None;
        }
        let mut slots = sample_slots(&mut self.rng, ctx.slots, self.rate);
        let left = (self.budget - self.spent) as usize;
        if slots.len() > left {
            slots.truncate(left);
        }
        self.spent += slots.len() as u64;
        if slots.is_empty() {
            JamPlan::None
        } else {
            JamPlan::Slots(slots)
        }
    }

    fn remaining_budget(&self) -> Option<u64> {
        Some(self.budget - self.spent)
    }

    fn rearm(&mut self) {
        self.spent = 0;
        self.rng = RcbRng::new(self.seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(epoch: u32, repetition: u64) -> RepetitionContext {
        RepetitionContext {
            epoch,
            repetition,
            slots: 1u64 << epoch,
            active_nodes: 8,
        }
    }

    #[test]
    fn no_jam_rep_plans_nothing() {
        let mut a = NoJamRep;
        assert_eq!(a.plan(&ctx(6, 0)), JamPlan::None);
    }

    #[test]
    fn budgeted_blocker_spends_exactly_budget_granularity() {
        // Budget 100, q = 1, epoch 5 (32 slots/rep): blocks 3 reps (96),
        // then cannot afford a 4th full block and stops.
        let mut a = BudgetedRepBlocker::new(100, 1.0);
        let mut blocked = 0;
        for r in 0..10 {
            match a.plan(&ctx(5, r)) {
                JamPlan::Suffix(32) => blocked += 1,
                JamPlan::None => {}
                other => panic!("unexpected plan {other:?}"),
            }
        }
        assert_eq!(blocked, 3);
        assert_eq!(a.spent(), 96);
        assert_eq!(a.remaining_budget(), Some(4));
    }

    #[test]
    fn fraction_blocker_suffix_size() {
        let mut a = BudgetedRepBlocker::new(u64::MAX / 2, 0.1);
        match a.plan(&ctx(10, 0)) {
            // ceil(0.1 * 1024) = 103.
            JamPlan::Suffix(k) => assert_eq!(k, 103),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn suffix_fraction_unbounded() {
        let mut a = SuffixFractionRep::new(0.5);
        for r in 0..100 {
            match a.plan(&ctx(4, r)) {
                JamPlan::Suffix(8) => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(a.remaining_budget(), None, "unbounded");
    }

    #[test]
    fn suffix_fraction_zero_is_none() {
        let mut a = SuffixFractionRep::new(0.0);
        assert_eq!(a.plan(&ctx(4, 0)), JamPlan::None);
    }

    #[test]
    fn bandit_pulls_every_arm_then_exploits_the_best() {
        // Synthetic campaign: each "run" is one repetition; the environment
        // pays activity 160·q·(q ≤ 0.5): diluted arms extract more, the
        // zero-ish arm nothing (run ends instantly). Best arm: q = 0.25.
        let mut a = BanditBlocker::new(vec![0.0625, 0.25, 1.0], u64::MAX / 2, 7);
        for run in 0..200u64 {
            let ctx = RepetitionContext {
                epoch: 6,
                repetition: 0,
                slots: 64,
                active_nodes: 2,
            };
            let plan = a.plan(&ctx);
            let jammed = plan.jam_count(64);
            // Threshold-cliff environment (the E11 shape): below 8 jammed
            // slots the victim quits early (low activity); above, activity
            // falls with over-jamming.
            let activity = if jammed < 8 {
                20
            } else {
                160u64.saturating_sub(jammed)
            };
            a.observe(
                &ctx,
                &RepetitionSummary {
                    message_slots: 0,
                    busy_slots: 0,
                    jammed_slots: jammed,
                    listen_actions: activity,
                    send_actions: 0,
                },
            );
            a.refill(u64::MAX / 2);
            let _ = run;
        }
        a.settle_now();
        let means = a.arm_means();
        assert!(
            means.iter().all(|&(_, _, pulls)| pulls >= 1),
            "all explored"
        );
        let best = means
            .iter()
            .max_by(|x, y| x.2.cmp(&y.2))
            .expect("non-empty");
        assert_eq!(
            best.0, 0.25,
            "bandit converged to the diluted arm: {means:?}"
        );
    }

    #[test]
    fn bandit_commits_to_one_arm_per_run() {
        let mut a = BanditBlocker::new(vec![0.25, 1.0], u64::MAX / 2, 3);
        let mut fractions = Vec::new();
        for rep in 0..6 {
            let ctx = RepetitionContext {
                epoch: 6,
                repetition: rep,
                slots: 64,
                active_nodes: 2,
            };
            fractions.push(a.plan(&ctx).jam_count(64));
        }
        // All plans within one run use the same arm.
        assert!(fractions.windows(2).all(|w| w[0] == w[1]), "{fractions:?}");
    }

    #[test]
    fn bandit_respects_budget() {
        let mut a = BanditBlocker::new(vec![1.0], 100, 3);
        let mut total = 0u64;
        for epoch in 5..9u32 {
            for rep in 0..10 {
                let ctx = RepetitionContext {
                    epoch,
                    repetition: rep,
                    slots: 32,
                    active_nodes: 2,
                };
                total += a.plan(&ctx).jam_count(32);
            }
        }
        assert!(total <= 100);
        assert_eq!(a.remaining_budget(), Some(100 - total));
        // Refill restores the budget and keeps the statistics.
        a.refill(100);
        assert_eq!(a.remaining_budget(), Some(100));
        assert_eq!(a.arm_means()[0].2, 1, "one settled run");
    }

    #[test]
    fn keep_alive_blocker_targets_odd_periods() {
        let mut a = KeepAliveBlocker::new(1000, 0.25);
        // Even period (send phase): untouched.
        assert_eq!(a.plan(&ctx(6, 0)), JamPlan::None);
        // Odd period (nack phase): quarter suffix.
        match a.plan(&ctx(6, 1)) {
            JamPlan::Suffix(k) => assert_eq!(k, 16),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(a.remaining_budget(), Some(984));
    }

    #[test]
    fn keep_alive_blocker_respects_budget() {
        let mut a = KeepAliveBlocker::new(20, 0.25);
        // Each odd epoch-6 plan costs 16; only one fits in 20.
        assert!(matches!(a.plan(&ctx(6, 1)), JamPlan::Suffix(16)));
        assert_eq!(a.plan(&ctx(6, 3)), JamPlan::None);
    }

    #[test]
    fn random_rep_respects_budget_and_rate() {
        let mut a = RandomRep::new(0.25, 1000, 3);
        let mut total = 0u64;
        for r in 0..100 {
            total += a.plan(&ctx(8, r)).jam_count(256);
        }
        assert!(total <= 1000);
        // Expected spend before capping: 100 · 256 · 0.25 = 6400 > 1000, so
        // the budget must be the binding constraint.
        assert_eq!(total, 1000);
        assert_eq!(a.remaining_budget(), Some(0));
    }

    #[test]
    fn try_new_rejects_malformed_configs_with_typed_errors() {
        assert!(matches!(
            BudgetedRepBlocker::try_new(100, 1.5),
            Err(AdversaryConfigError::FractionOutOfRange { what: "q", .. })
        ));
        assert!(matches!(
            SuffixFractionRep::try_new(-0.1),
            Err(AdversaryConfigError::FractionOutOfRange { what: "q", .. })
        ));
        assert!(matches!(
            KeepAliveBlocker::try_new(100, f64::NAN),
            Err(AdversaryConfigError::FractionOutOfRange { what: "q", .. })
        ));
        assert!(matches!(
            RandomRep::try_new(2.0, 100, 1),
            Err(AdversaryConfigError::FractionOutOfRange { what: "rate", .. })
        ));
        assert!(matches!(
            BanditBlocker::try_new(vec![], 100, 1),
            Err(AdversaryConfigError::NoArms)
        ));
        assert!(matches!(
            BanditBlocker::try_new(vec![0.5, 1.2], 100, 1),
            Err(AdversaryConfigError::FractionOutOfRange { what: "arm", .. })
        ));
        // The happy paths still construct.
        assert!(BudgetedRepBlocker::try_new(100, 0.5).is_ok());
        assert!(SuffixFractionRep::try_new(0.0).is_ok());
        assert!(KeepAliveBlocker::try_new(100, 1.0).is_ok());
        assert!(RandomRep::try_new(0.25, 100, 1).is_ok());
        assert!(BanditBlocker::try_new(vec![0.25, 1.0], 100, 1).is_ok());
    }

    #[test]
    #[should_panic]
    fn panicking_wrapper_is_preserved() {
        let _ = BudgetedRepBlocker::new(100, 1.5);
    }

    #[test]
    fn random_rep_slots_are_valid() {
        let mut a = RandomRep::new(0.1, u64::MAX / 2, 4);
        for r in 0..20 {
            if let JamPlan::Slots(v) = a.plan(&ctx(7, r)) {
                assert!(v.windows(2).all(|w| w[0] < w[1]));
                assert!(v.iter().all(|&s| s < 128));
            }
        }
    }
}
