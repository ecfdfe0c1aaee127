//! Deterministic, seeded fault injection: non-adversarial failure
//! processes layered between the protocols and the channel.
//!
//! The paper's threat model (§1.2) charges every disruption to the
//! adversary's budget `T`, but Theorem 1's noise-threshold halting
//! (`Θᵢ = √(2^(i−1)·ln(8/ε))/4`) is explicitly designed to tolerate
//! *unpredictable background noise* — disruption that costs the adversary
//! nothing. A [`FaultPlan`] models four such processes:
//!
//! * **Lossy reception** ([`LossFault`]) — each listener independently
//!   fails to decode a delivered payload with probability `p`; the energy
//!   was real, so the slot reads as noise. Exercises the noise-threshold
//!   halting path against noise the adversary did not pay for.
//! * **Crash–restart** ([`CrashFault`]) — one device's radio is off for a
//!   window of periods (phases / repetitions); optionally it loses its
//!   volatile state on restart (`lose_state`), keeping only stable storage
//!   (the message `m`) and the period clock, which is re-synced from the
//!   public schedule.
//! * **Clock skew** ([`SkewFault`]) — one listener's slot boundary is
//!   offset, so the first `slots` offsets of every period decode as noise
//!   for it (the symbol correlator integrates across the boundary until it
//!   re-syncs mid-period).
//! * **Battery brownout** ([`BatteryFault`]) — a hard per-node energy cap;
//!   a node whose ledger reaches it goes permanently offline. The gauge is
//!   sampled at **period boundaries** in every engine, so a node may
//!   overshoot the cap by at most one period's activity — identically in
//!   distribution everywhere.
//!
//! Determinism: the exact, duel and fast engines toss their loss coins on
//! a fault stream that `LossCoins::new` splits off the per-trial RNG
//! **only when the plan is non-empty**. The cohort engine splits none: it
//! draws each cohort's heard messages in aggregate, so loss is a
//! `q·(1 − p)` thinning of those draws on the trial stream itself. Either
//! way [`FaultPlan::none`] is a byte-identical no-op and every faulted run
//! replays from `(master_seed, trial_index)`, as `run_trials` seeds it.
//! All four engines (exact, duel, fast, cohort) do the period-boundary
//! bookkeeping through one `Gate`, so they share one semantics, which the
//! conformance differ cross-validates under faults.

use rcb_mathkit::rng::RcbRng;
use rcb_mathkit::sample::bernoulli;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Benign packet loss: each delivered reception is independently lost
/// (decoded as noise) with probability `p`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LossFault {
    /// Per-reception loss probability, in `[0, 1]`.
    pub p: f64,
}

/// One device is offline for a window of periods, radio off: it neither
/// sends nor listens, but its period clock keeps running (driven by its own
/// crystal), so it rejoins in sync.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashFault {
    /// The crashed node (duel convention: 0 = Alice, 1 = Bob).
    pub node: usize,
    /// First period of the outage.
    pub start_period: u64,
    /// Window length in periods (must be ≥ 1).
    pub periods: u64,
    /// Whether volatile state (rate variables, helper bookkeeping) is lost
    /// at restart. Stable storage — the message `m` — always survives. A
    /// no-op on a duel: Figure 1's state is the epoch (re-synced from the
    /// clock), `done` and `got_message` (stable storage).
    pub lose_state: bool,
}

/// One listener's slot boundary is offset: the first `slots` offsets of
/// every period are heard as noise by it, unconditionally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SkewFault {
    /// The skewed node (duel convention: 0 = Alice, 1 = Bob).
    pub node: usize,
    /// How many leading slots of each period are undecodable.
    pub slots: u64,
}

/// A hard per-node energy cap: any node whose spend reaches `capacity`
/// goes permanently offline (checked at period boundaries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatteryFault {
    /// Energy units available to each node (must be ≥ 1).
    pub capacity: u64,
}

/// A malformed fault configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultConfigError {
    /// Loss probability outside `[0, 1]`.
    LossOutOfRange { p: f64 },
    /// A crash window of zero periods.
    EmptyCrashWindow,
    /// A battery that starts empty.
    ZeroBatteryCapacity,
    /// A crash or skew target outside `0..population`.
    NodeOutOfRange {
        fault: &'static str,
        node: usize,
        population: usize,
    },
}

impl fmt::Display for FaultConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultConfigError::LossOutOfRange { p } => {
                write!(f, "loss probability {p} out of range: must lie in [0, 1]")
            }
            FaultConfigError::EmptyCrashWindow => {
                write!(f, "crash window must span at least one period")
            }
            FaultConfigError::ZeroBatteryCapacity => {
                write!(f, "battery capacity must be at least 1 energy unit")
            }
            FaultConfigError::NodeOutOfRange {
                fault,
                node,
                population,
            } => write!(
                f,
                "{fault} node {node} out of range: the population has {population} nodes \
                 (ids 0..{population})"
            ),
        }
    }
}

impl std::error::Error for FaultConfigError {}

/// A composition of non-adversarial failure processes for one execution.
///
/// All-`None` (the [`FaultPlan::none`] default) is guaranteed to be a
/// byte-identical no-op in every engine.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    pub loss: Option<LossFault>,
    pub crash: Option<CrashFault>,
    pub skew: Option<SkewFault>,
    pub battery: Option<BatteryFault>,
}

impl FaultPlan {
    /// The empty plan: no faults, engines behave bit-identically to an
    /// unfaulted run.
    pub fn none() -> Self {
        Self::default()
    }

    pub fn is_none(&self) -> bool {
        self.loss.is_none() && self.crash.is_none() && self.skew.is_none() && self.battery.is_none()
    }

    /// Builder: add lossy reception.
    pub fn with_loss(mut self, p: f64) -> Self {
        self.loss = Some(LossFault { p });
        self
    }

    /// Builder: add a crash–restart window.
    pub fn with_crash(
        mut self,
        node: usize,
        start_period: u64,
        periods: u64,
        lose_state: bool,
    ) -> Self {
        self.crash = Some(CrashFault {
            node,
            start_period,
            periods,
            lose_state,
        });
        self
    }

    /// Builder: add clock skew.
    pub fn with_skew(mut self, node: usize, slots: u64) -> Self {
        self.skew = Some(SkewFault { node, slots });
        self
    }

    /// Builder: add a battery cap.
    pub fn with_battery(mut self, capacity: u64) -> Self {
        self.battery = Some(BatteryFault { capacity });
        self
    }

    /// Rejects out-of-domain parameters and crash or skew targets outside
    /// `0..population` (2 for a duel) with a typed error. The `with_*`
    /// methods do not validate; sessions assert validity and CLI code must
    /// call this.
    pub fn validate(&self, population: usize) -> Result<(), FaultConfigError> {
        if let Some(LossFault { p }) = self.loss {
            if !(0.0..=1.0).contains(&p) {
                return Err(FaultConfigError::LossOutOfRange { p });
            }
        }
        if let Some(CrashFault { periods: 0, .. }) = self.crash {
            return Err(FaultConfigError::EmptyCrashWindow);
        }
        if let Some(BatteryFault { capacity: 0 }) = self.battery {
            return Err(FaultConfigError::ZeroBatteryCapacity);
        }
        let crash = self.crash.map(|c| ("crash", c.node));
        let skew = self.skew.map(|s| ("skew", s.node));
        match [crash, skew]
            .into_iter()
            .flatten()
            .find(|&(_, u)| u >= population)
        {
            Some((fault, node)) => Err(FaultConfigError::NodeOutOfRange {
                fault,
                node,
                population,
            }),
            None => Ok(()),
        }
    }

    /// The per-reception loss probability (0 when no loss fault is set).
    pub fn loss_p(&self) -> f64 {
        self.loss.map_or(0.0, |l| l.p)
    }

    /// Whether `node`'s radio is off in `period`.
    pub fn crashed(&self, node: usize, period: u64) -> bool {
        match self.crash {
            // Elapsed-periods form: immune to `start + periods` overflow,
            // so `periods = u64::MAX` means "never comes back".
            Some(c) if c.node == node => period
                .checked_sub(c.start_period)
                .is_some_and(|elapsed| elapsed < c.periods),
            _ => false,
        }
    }

    /// `(node, period)` at which a state-losing reboot fires: the first
    /// period after the crash window, when `lose_state` is set.
    pub fn reboot_at(&self) -> Option<(usize, u64)> {
        self.crash.and_then(|c| {
            c.lose_state
                .then(|| (c.node, c.start_period.saturating_add(c.periods)))
        })
    }

    /// How many leading slots of each period `node` hears as noise.
    pub fn skew_slots(&self, node: usize) -> u64 {
        match self.skew {
            Some(s) if s.node == node => s.slots,
            _ => 0,
        }
    }

    /// The per-node energy cap, if any.
    pub fn battery_capacity(&self) -> Option<u64> {
        self.battery.map(|b| b.capacity)
    }
}

/// The exact, duel and fast engines' receiver-side loss coins: one
/// Bernoulli(`p`) toss per payload reception that would otherwise decode,
/// from the run's dedicated fault stream. The stream is split off the trial RNG only for a
/// non-empty plan, so [`FaultPlan::none`] leaves that RNG untouched.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct LossCoins {
    pub(crate) rng: Option<RcbRng>,
    pub(crate) p: f64,
}

impl LossCoins {
    pub(crate) fn new(faults: &FaultPlan, rng: &mut RcbRng) -> Self {
        Self {
            rng: (!faults.is_none()).then(|| rng.split()),
            p: faults.loss_p(),
        }
    }

    /// One toss: whether this reception is lost (heard as noise).
    pub(crate) fn lost(&mut self) -> bool {
        match &mut self.rng {
            Some(r) if self.p > 0.0 => bernoulli(r, self.p),
            _ => false,
        }
    }

    /// Tosses one coin for each of `received` receptions, in order, and
    /// returns how many were not lost.
    pub(crate) fn kept(&mut self, received: u64) -> u64 {
        let p = self.p;
        match &mut self.rng {
            Some(r) if p > 0.0 => (0..received).filter(|_| !bernoulli(r, p)).count() as u64,
            _ => received,
        }
    }
}

/// The period-boundary fault bookkeeping every engine goes through: the
/// battery gauge, the pending state-losing reboot, the crash window, and
/// which nodes (engine indices; [`Gate::arm`] maps ids) are battery-dead,
/// counted as halted, or radio-off this period. Sessions keep one, so only
/// a session's first run allocates.
#[derive(Debug, Default)]
pub(crate) struct Gate {
    plan: FaultPlan,
    /// The crash target's index and id.
    crash: Option<(usize, usize)>,
    /// The reboot target's index and the period it is due in.
    reboot: Option<(usize, u64)>,
    dead: Vec<bool>,
    /// Which radios are off this period, by index.
    pub(crate) off: Vec<bool>,
}

impl Gate {
    /// Arms the gate for a run of `plan` over `nodes` nodes; `index` maps a
    /// node id to its index (`None`: never crashed or rebooted).
    pub(crate) fn arm(
        &mut self,
        plan: &FaultPlan,
        nodes: usize,
        index: impl Fn(usize) -> Option<usize>,
    ) {
        self.plan = *plan;
        self.crash = plan.crash.and_then(|c| Some((index(c.node)?, c.node)));
        self.reboot = plan.reboot_at().and_then(|(u, at)| Some((index(u)?, at)));
        for flags in [&mut self.dead, &mut self.off] {
            flags.clear();
            flags.resize(nodes, false);
        }
    }

    /// The boundary of `period`: reads the battery gauge from `cost` (a cap
    /// is overshot by at most one period), refreshes `off`, and returns the
    /// node whose state-losing reboot is due, once. Without a battery or a
    /// gated crash (every empty plan) it returns at the first branch.
    #[inline]
    pub(crate) fn boundary(&mut self, period: u64, cost: impl Fn(usize) -> u64) -> Option<usize> {
        if self.plan.battery.is_none() && self.crash.is_none() {
            return None;
        }
        if let Some(cap) = self.plan.battery_capacity() {
            for (i, dead) in self.dead.iter_mut().enumerate() {
                *dead = *dead || cost(i) >= cap;
            }
        }
        self.off.copy_from_slice(&self.dead);
        if let Some((i, node)) = self.crash {
            self.off[i] |= self.plan.crashed(node, period);
        }
        let (i, at) = self.reboot?;
        (period >= at).then(|| {
            self.reboot = None;
            i
        })
    }

    /// Whether every node has halted: each is `done` or battery-dead.
    pub(crate) fn halted(&self, done: impl IntoIterator<Item = bool>) -> bool {
        done.into_iter().zip(&self.dead).all(|(d, &x)| d || x)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() {
            return write!(f, "none");
        }
        let mut sep = "";
        if let Some(l) = self.loss {
            write!(f, "loss={}", l.p)?;
            sep = " ";
        }
        if let Some(c) = self.crash {
            write!(
                f,
                "{sep}crash=n{}@{}+{}{}",
                c.node,
                c.start_period,
                c.periods,
                if c.lose_state { ":lose" } else { "" }
            )?;
            sep = " ";
        }
        if let Some(s) = self.skew {
            write!(f, "{sep}skew=n{}+{}", s.node, s.slots)?;
            sep = " ";
        }
        if let Some(b) = self.battery {
            write!(f, "{sep}battery={}", b.capacity)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_none_and_valid() {
        let plan = FaultPlan::none();
        assert!(plan.is_none());
        assert!(plan.validate(1).is_ok());
        assert_eq!(plan.loss_p(), 0.0);
        assert!(!plan.crashed(0, 0));
        assert_eq!(plan.skew_slots(0), 0);
        assert_eq!(plan.battery_capacity(), None);
        assert_eq!(plan.reboot_at(), None);
        assert_eq!(plan.to_string(), "none");
    }

    #[test]
    fn validate_rejects_out_of_domain_parameters() {
        assert!(matches!(
            FaultPlan::none().with_loss(1.5).validate(2),
            Err(FaultConfigError::LossOutOfRange { .. })
        ));
        assert!(matches!(
            FaultPlan::none().with_crash(0, 4, 0, false).validate(2),
            Err(FaultConfigError::EmptyCrashWindow)
        ));
        assert!(matches!(
            FaultPlan::none().with_battery(0).validate(2),
            Err(FaultConfigError::ZeroBatteryCapacity)
        ));
        assert!(FaultPlan::none()
            .with_loss(0.3)
            .with_crash(1, 2, 8, true)
            .with_skew(0, 2)
            .with_battery(500)
            .validate(2)
            .is_ok());
        // Crash and skew targets must name a node of the population.
        let crash = FaultPlan::none().with_crash(2, 0, 3, false);
        assert!(crash.validate(3).is_ok());
        assert_eq!(
            crash.validate(2),
            Err(FaultConfigError::NodeOutOfRange {
                fault: "crash",
                node: 2,
                population: 2,
            })
        );
        let err = FaultPlan::none().with_skew(16, 1).validate(16).unwrap_err();
        assert_eq!(
            err.to_string(),
            "skew node 16 out of range: the population has 16 nodes (ids 0..16)"
        );
    }

    #[test]
    fn crash_window_is_half_open_and_per_node() {
        let plan = FaultPlan::none().with_crash(1, 4, 3, false);
        assert!(!plan.crashed(1, 3));
        assert!(plan.crashed(1, 4));
        assert!(plan.crashed(1, 6));
        assert!(!plan.crashed(1, 7));
        assert!(!plan.crashed(0, 5), "only the named node crashes");
        assert_eq!(plan.reboot_at(), None, "no state loss requested");
        assert_eq!(
            FaultPlan::none().with_crash(1, 4, 3, true).reboot_at(),
            Some((1, 7))
        );
    }

    #[test]
    fn crash_window_saturates_instead_of_overflowing() {
        let plan = FaultPlan::none().with_crash(0, u64::MAX - 1, u64::MAX, true);
        assert!(plan.crashed(0, u64::MAX));
        assert_eq!(plan.reboot_at(), Some((0, u64::MAX)));
    }

    #[test]
    fn skew_is_per_node_and_loss_per_plan() {
        let plan = FaultPlan::none().with_loss(0.25).with_skew(1, 2);
        assert_eq!(plan.skew_slots(1), 2);
        assert_eq!(plan.skew_slots(0), 0, "node 0 is on time");
        assert_eq!(plan.loss_p(), 0.25);
    }

    #[test]
    fn loss_coins_toss_one_bernoulli_per_reception() {
        // No plan: no stream is split off, and nothing is ever lost.
        let mut rng = RcbRng::new(8);
        let mut none = LossCoins::new(&FaultPlan::none(), &mut rng);
        assert_eq!(rng, RcbRng::new(8), "the trial stream is untouched");
        assert!(!none.lost());
        assert_eq!(none.kept(5), 5);
        // A plan without loss splits the stream but never tosses.
        let mut skew_only = LossCoins::new(&FaultPlan::none().with_skew(0, 3), &mut rng);
        let before = skew_only.clone();
        assert_eq!(skew_only.kept(7), 7);
        assert_eq!(skew_only, before);
        // With loss, `kept(k)` is `k` single tosses, outcome and stream.
        let mut batch = LossCoins::new(&FaultPlan::none().with_loss(0.4), &mut rng);
        let mut single = batch.clone();
        let mut reference = batch.rng.clone().unwrap();
        let kept = batch.kept(1000);
        assert_eq!(kept, (0..1000).filter(|_| !single.lost()).count() as u64);
        let survivors = (0..1000)
            .filter(|_| !bernoulli(&mut reference, 0.4))
            .count();
        assert_eq!(kept, survivors as u64);
        assert_eq!(batch, single);
        assert_eq!(batch.rng, Some(reference));
        assert!((500..700).contains(&kept), "kept {kept} of 1000 at p = 0.4");
    }

    #[test]
    fn display_is_compact_and_complete() {
        let plan = FaultPlan::none()
            .with_loss(0.1)
            .with_crash(1, 4, 8, true)
            .with_skew(0, 2)
            .with_battery(500);
        assert_eq!(
            plan.to_string(),
            "loss=0.1 crash=n1@4+8:lose skew=n0+2 battery=500"
        );
    }
}
