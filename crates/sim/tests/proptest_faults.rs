//! Property tests for the fault-injection layer.
//!
//! The invariant the whole subsystem leans on: fault-injected runs are
//! deterministic under seed replay, so the same `(seed, plan)` always
//! produces the same outcome. (That loss and skew only ever *remove*
//! information is checked on the receiver rule itself, in `exact.rs`.)
//!
//! A narrower relation: a state-losing crash (`:lose`) is a no-op
//! on a duel, bit for bit, on the duel and exact engines alike. Figure 1
//! keeps no volatile state: the epoch is re-synced from the clock, and
//! `done` and `got_message` are stable storage.
//!
//! (That `FaultPlan::none()` leaves a run byte-identical, RNG position
//! included, is pinned against a spec run by the empty-plan property
//! tests in `scenario_equivalence.rs`.)

use proptest::prelude::*;
use rcb_adversary::rep_strategies::{BudgetedRepBlocker, NoJamRep};
use rcb_core::one_to_n::OneToNParams;
use rcb_core::one_to_one::Fig1Profile;
use rcb_sim::deadline::Deadline;
use rcb_sim::duel::{DuelConfig, DuelSession};
use rcb_sim::fast::{BroadcastSession, FastConfig};
use rcb_sim::faults::FaultPlan;
use rcb_sim::runner::Parallelism;
use rcb_sim::scenario::{AdversarySpec, DuelProtocol, Engine, ScenarioSpec};
use rcb_sim::session::Session;

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
    /// Duel engine: identical `(seed, plan)` → identical run.
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
        plan.validate(2).expect("generated plans are in range");
        let profile = Fig1Profile::with_start_epoch(0.1, 6);
        // Keep pathological plans (total loss) cheap to replay.
        let config = DuelConfig { max_slots: 1 << 16 };
        let run = || {
            let mut adv = BudgetedRepBlocker::new(512, 1.0);
            DuelSession::new(profile, config, plan, seed).run(&mut adv, &Deadline::NONE).0
        };
        prop_assert_eq!(run(), run());
    }

    /// Figure 1 loses nothing at a reboot: on the duel and exact engines,
    /// a crash window with `:lose` replays the same window without it.
    #[test]
    fn state_losing_crash_is_a_no_op_on_duels(
        seed in any::<u64>(),
        crash in (0usize..2, 0u64..8, 1u64..8),
        use_battery in any::<bool>(),
        battery in 1u64..500,
    ) {
        let (node, start, periods) = crash;
        let plan = |lose| {
            plan_from(
                false, 0.0, true, (node, start, periods, lose), false, (0, 0), use_battery, battery,
            )
        };
        for engine in [Engine::Fast, Engine::Exact] {
            let run = |lose| {
                ScenarioSpec::duel(DuelProtocol::fig1(0.1, 6))
                    .with_engine(engine)
                    .with_adversary(AdversarySpec::Budgeted { budget: 512, fraction: 1.0 })
                    .with_faults(plan(lose))
                    .with_seed(seed)
                    .with_parallelism(Parallelism::Fixed(1))
                    .run_batch_raw()
            };
            prop_assert_eq!(run(true), run(false), "{:?}", engine);
        }
    }

    /// Fast broadcast engine: identical `(seed, plan)` → identical run.
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
            BroadcastSession::new(params, 6, vec![0], FastConfig::default(), plan, seed)
                .run(&mut NoJamRep, &Deadline::NONE)
                .0
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.node_costs, b.node_costs);
        prop_assert_eq!(a.informed, b.informed);
        prop_assert_eq!(a.slots, b.slots);
        prop_assert_eq!(a.truncated, b.truncated);
    }
}
