//! The slot-granularity strategies that no [`JamPlan`] can express.
//!
//! Every planned jammer is a [`RepetitionAdversary`]: by Lemma 1 jamming a
//! suffix of each period is without loss of generality, so those strategies
//! live in [`rep_strategies`](crate::rep_strategies) and reach the exact
//! engine through [`RepAsSlotAdversary`](crate::adapter::RepAsSlotAdversary).
//! What stays here has no plan form: [`NoJam`] is the trivial slot-level base case, [`ReactiveJammer`] jams
//! the slot after a busy one, and [`NackSpoofer`] injects spoofed nacks
//! (Theorem 5).
//!
//! [`JamPlan`]: crate::traits::JamPlan
//! [`RepetitionAdversary`]: crate::traits::RepetitionAdversary

use crate::traits::{SlotAdversary, SlotContext, SlotObservation};
use rcb_channel::slot::JamDecision;
use rcb_mathkit::rng::RcbRng;
use rcb_mathkit::sample::bernoulli;

/// The absent adversary (`T = 0`): the efficiency-function (τ) baseline.
#[derive(Debug, Clone, Default)]
pub struct NoJam;

impl SlotAdversary for NoJam {
    fn decide(&mut self, _ctx: &SlotContext) -> JamDecision {
        JamDecision::none()
    }
}

/// Jams the slot after any slot that carried a transmission — a reactive
/// jammer chasing observed activity (it cannot react within a slot; the
/// model only grants knowledge of *previous* slots).
#[derive(Debug, Clone)]
pub struct ReactiveJammer {
    budget: u64,
    spent: u64,
    trigger: bool,
}

impl ReactiveJammer {
    pub fn new(budget: u64) -> Self {
        Self {
            budget,
            spent: 0,
            trigger: false,
        }
    }
}

impl SlotAdversary for ReactiveJammer {
    fn decide(&mut self, ctx: &SlotContext) -> JamDecision {
        let mask = ctx.all_groups_mask();
        let cost = mask.count_ones() as u64;
        if !self.trigger || self.spent + cost > self.budget {
            return JamDecision::none();
        }
        self.spent += cost;
        JamDecision {
            jam_mask: mask,
            inject: None,
        }
    }

    fn observe(&mut self, obs: &SlotObservation<'_>) {
        self.trigger = obs.resolution.senders > 0;
    }
}

/// Injects spoofed nacks — the Theorem 5 capability, usable only in the
/// unauthenticated-Bob model.
///
/// Strategy: transmit one fake nack near the end of every period (for the
/// Figure 1 schedule, periods alternate send/nack phases, so half these
/// injections land where Alice listens). Against a protocol that trusts
/// nacks this costs the adversary `O(1)` per epoch while forcing Alice to
/// pay her full per-epoch budget forever — the empirical demonstration of
/// why Theorem 1 *requires* Bob to be authenticated and why the spoofing
/// model's answer degrades to `T^(φ−1)` (Theorem 5).
#[derive(Debug, Clone)]
pub struct NackSpoofer {
    budget: u64,
    spent: u64,
    /// Injections per period.
    per_period: u64,
    rng: RcbRng,
}

impl NackSpoofer {
    pub fn new(budget: u64, per_period: u64, seed: u64) -> Self {
        assert!(per_period >= 1);
        Self {
            budget,
            spent: 0,
            per_period,
            rng: RcbRng::new(seed),
        }
    }
}

impl SlotAdversary for NackSpoofer {
    fn decide(&mut self, ctx: &SlotContext) -> JamDecision {
        if self.spent >= self.budget {
            return JamDecision::none();
        }
        // Spread the injections across the period uniformly at random so
        // an Alice listening at rate p catches one with probability
        // ≈ 1 − (1−p)^per_period per period.
        let p = self.per_period as f64 / ctx.period_len.max(1) as f64;
        if bernoulli(&mut self.rng, p) {
            self.spent += 1;
            JamDecision::inject(rcb_channel::message::Payload::Nack { spoofed: true })
        } else {
            JamDecision::none()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcb_channel::slot::SlotResolution;

    fn ctx(slot: u64, offset: u64, period_len: u64, groups: usize) -> SlotContext {
        SlotContext {
            slot,
            period: slot / period_len.max(1),
            offset,
            period_len,
            groups,
        }
    }

    #[test]
    fn no_jam_never_jams() {
        let mut a = NoJam;
        for s in 0..100 {
            assert_eq!(a.decide(&ctx(s, s % 10, 10, 1)), JamDecision::none());
        }
    }

    #[test]
    fn reactive_jammer_follows_activity() {
        let mut a = ReactiveJammer::new(100);
        // No prior activity: no jam.
        assert_eq!(a.decide(&ctx(0, 0, 1, 1)).jam_count(), 0);
        // Observe a busy slot.
        let res = SlotResolution {
            states: vec![],
            receptions: vec![],
            senders: 2,
        };
        a.observe(&SlotObservation {
            ctx: ctx(0, 0, 1, 1),
            actions: &[],
            resolution: &res,
        });
        assert_eq!(a.decide(&ctx(1, 0, 1, 1)).jam_count(), 1);
        // Observe a quiet slot: trigger clears.
        let quiet = SlotResolution {
            states: vec![],
            receptions: vec![],
            senders: 0,
        };
        a.observe(&SlotObservation {
            ctx: ctx(1, 0, 1, 1),
            actions: &[],
            resolution: &quiet,
        });
        assert_eq!(a.decide(&ctx(2, 0, 1, 1)).jam_count(), 0);
    }

    #[test]
    fn nack_spoofer_injects_at_the_requested_rate() {
        let mut a = NackSpoofer::new(u64::MAX / 2, 4, 9);
        let mut injected = 0u64;
        let n = 20_000u64;
        for s in 0..n {
            let d = a.decide(&ctx(s, s % 64, 64, 2));
            if let Some(p) = d.inject {
                assert!(p.is_spoofed(), "audit flag must be set");
                injected += 1;
            }
            assert_eq!(d.jam_mask, 0, "the spoofer never jams");
        }
        // Expected rate 4/64 per slot.
        let rate = injected as f64 / n as f64;
        assert!((rate - 4.0 / 64.0).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn nack_spoofer_respects_budget() {
        let mut a = NackSpoofer::new(10, 64, 10);
        let mut injected = 0;
        for s in 0..1000 {
            if a.decide(&ctx(s, 0, 64, 2)).inject.is_some() {
                injected += 1;
            }
        }
        assert_eq!(injected, 10);
    }
}
