//! Property tests for the fault-injection layer.
//!
//! Two invariants the whole subsystem leans on:
//!
//! 1. Fault-injected runs are deterministic under seed replay: the same
//!    `(seed, plan)` always produces the same outcome.
//! 2. Loss and skew only ever *remove* information: a receiver condition
//!    can turn a decoded payload into noise, never conjure a payload out
//!    of a clear or noisy slot.
//!
//! (That `FaultPlan::none()` leaves a run byte-identical, RNG position
//! included, is pinned against a spec run by the empty-plan property
//! tests in `scenario_equivalence.rs`.)

use proptest::prelude::*;
use rcb_adversary::rep_strategies::{BudgetedRepBlocker, NoJamRep};
use rcb_channel::fault::ReceiverCondition;
use rcb_channel::slot::Reception;
use rcb_channel::Payload;
use rcb_core::one_to_n::OneToNParams;
use rcb_core::one_to_one::Fig1Profile;
use rcb_mathkit::rng::RcbRng;
use rcb_sim::deadline::Deadline;
use rcb_sim::duel::{run_duel, DuelConfig};
use rcb_sim::fast::{run_broadcast, FastConfig};
use rcb_sim::faults::FaultPlan;

/// Assembles a plan from flat primitives (the vendored proptest stub has
/// no `prop_map`/`option` combinators). Each component is present iff its
/// flag is set; all values are in their validated ranges.
#[allow(clippy::too_many_arguments)]
fn plan_from(
    use_loss: bool,
    loss_p: f64,
    use_crash: bool,
    crash: (usize, u64, u64, bool),
    use_skew: bool,
    skew: (usize, u64),
    use_battery: bool,
    battery: u64,
) -> FaultPlan {
    let mut plan = FaultPlan::none();
    if use_loss {
        plan = plan.with_loss(loss_p);
    }
    if use_crash {
        plan = plan.with_crash(crash.0, crash.1, crash.2, crash.3);
    }
    if use_skew {
        plan = plan.with_skew(skew.0, skew.1);
    }
    if use_battery {
        plan = plan.with_battery(battery);
    }
    plan
}

proptest! {
    /// Invariant 1, duel engine: identical `(seed, plan)` → identical run.
    #[test]
    fn faulted_duel_is_deterministic_under_seed_replay(
        seed in any::<u64>(),
        use_loss in any::<bool>(),
        loss_p in 0.0f64..=1.0,
        use_crash in any::<bool>(),
        crash in (0usize..2, 0u64..8, 1u64..8, any::<bool>()),
        use_skew in any::<bool>(),
        skew in (0usize..2, 0u64..4),
        use_battery in any::<bool>(),
        battery in 1u64..500,
    ) {
        let plan = plan_from(
            use_loss, loss_p, use_crash, crash, use_skew, skew, use_battery, battery,
        );
        plan.validate().expect("generated plans are in range");
        let profile = Fig1Profile::with_start_epoch(0.1, 6);
        // Keep pathological plans (total loss) cheap to replay.
        let config = DuelConfig { max_slots: 1 << 16 };
        let run = || {
            let mut rng = RcbRng::new(seed);
            let mut adv = BudgetedRepBlocker::new(512, 1.0);
            run_duel(&profile, &mut adv, &mut rng, config, &plan, &Deadline::NONE).0
        };
        prop_assert_eq!(run(), run());
    }

    /// Invariant 1, fast broadcast engine.
    #[test]
    fn faulted_broadcast_is_deterministic_under_seed_replay(
        seed in any::<u64>(),
        use_loss in any::<bool>(),
        loss_p in 0.0f64..=0.5,
        use_crash in any::<bool>(),
        crash in (0usize..4, 0u64..8, 1u64..8, any::<bool>()),
        use_battery in any::<bool>(),
        battery in 50u64..500,
    ) {
        let plan = plan_from(
            use_loss, loss_p, use_crash, crash, false, (0, 0), use_battery, battery,
        );
        let params = OneToNParams::practical();
        let run = || {
            let mut rng = RcbRng::new(seed);
            let mut adv = NoJamRep;
            run_broadcast(&params, 6, &[0], &mut adv, &mut rng, FastConfig::default(), &mut (), &plan, &Deadline::NONE).0
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.node_costs, b.node_costs);
        prop_assert_eq!(a.informed, b.informed);
        prop_assert_eq!(a.slots, b.slots);
        prop_assert_eq!(a.truncated, b.truncated);
    }

    /// Invariant 2: a receiver condition never creates a reception. Loss
    /// and skew map payloads to noise (and clear slots stay clear unless
    /// skewed); nothing maps *to* a decoded payload.
    #[test]
    fn faults_never_create_receptions(
        skewed in any::<bool>(),
        loss_p in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let cond = ReceiverCondition { skewed, loss_p };
        let mut rng = RcbRng::new(seed);
        for heard in [Reception::Clear, Reception::Noise] {
            let out = cond.apply(heard.clone(), &mut rng);
            prop_assert!(
                !matches!(out, Reception::Received(_)),
                "{:?} must not become a payload, got {:?}", heard, out
            );
        }
        let out = cond.apply(Reception::Received(Payload::message()), &mut rng);
        prop_assert!(
            matches!(out, Reception::Received(_) | Reception::Noise),
            "a payload either survives or degrades to noise, got {:?}", out
        );
        if skewed {
            prop_assert_eq!(
                cond.apply(Reception::Received(Payload::message()), &mut rng),
                Reception::Noise,
                "skewed boundary slots are never decodable"
            );
        }
    }
}
