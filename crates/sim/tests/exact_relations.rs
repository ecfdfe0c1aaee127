//! Exact relations between runs: pairs of specs, or of directly driven
//! sessions where no spec can name the jammer, that must give the same
//! outcomes bit for bit, on every engine. They need no trial counts or
//! margins, since a relation that holds does so on every trial.

use rcb_adversary::traits::{JamPlan, RepetitionAdversary, RepetitionContext};
use rcb_adversary::RepAsSlotAdversary;
use rcb_channel::partition::Partition;
use rcb_core::one_to_n::OneToNParams;
use rcb_core::one_to_one::{AliceProtocol, BobProtocol, DuelProfile, DuelSchedule, Fig1Profile};
use rcb_core::protocol::SlotProtocol;
use rcb_mathkit::rng::RcbRng;
use rcb_sim::cohort::{CohortConfig, CohortSession};
use rcb_sim::deadline::Deadline;
use rcb_sim::duel::{DuelConfig, DuelSession};
use rcb_sim::exact::{run_exact, ExactConfig};
use rcb_sim::fast::{BroadcastSession, FastConfig};
use rcb_sim::faults::FaultPlan;
use rcb_sim::scenario::{AdversarySpec, DuelProtocol, Engine, ScenarioSpec};
use rcb_sim::session::{ExactBroadcastSession, Session};

/// The engine shapes a relation is checked on: the duel (fast and exact),
/// the fast broadcast at n = 8 and 64, the exact broadcast at n = 8, and
/// the cohort engine all-tracked at n = 64 and in aggregate mode at
/// n = 512. The exact engine walks every slot, so it runs fewer trials.
fn shapes() -> Vec<(&'static str, ScenarioSpec)> {
    let duel = || ScenarioSpec::duel(DuelProtocol::fig1(0.1, 6));
    let cases = [
        ("duel fast", duel().with_engine(Engine::Fast), 8),
        ("duel exact", duel().with_engine(Engine::Exact), 3),
        ("broadcast fast n=8", ScenarioSpec::broadcast(8), 8),
        ("broadcast fast n=64", ScenarioSpec::broadcast(64), 8),
        (
            "broadcast exact n=8",
            ScenarioSpec::broadcast(8).with_engine(Engine::Exact),
            3,
        ),
        (
            "cohort n=64",
            ScenarioSpec::broadcast(64).with_engine(Engine::CohortFast),
            8,
        ),
        (
            "cohort n=512",
            ScenarioSpec::broadcast(512).with_engine(Engine::CohortFast),
            8,
        ),
    ];
    cases
        .into_iter()
        .map(|(label, spec, trials)| (label, spec.with_trials(trials).with_seed(7)))
        .collect()
}

/// A jammer with no budget jams nothing, so it equals no jammer at all:
/// same costs, slots, informed set and errors, trial by trial.
#[test]
fn a_zero_budget_attack_equals_no_attack() {
    let zero = [
        AdversarySpec::Budgeted {
            budget: 0,
            fraction: 1.0,
        },
        AdversarySpec::KeepAlive {
            budget: 0,
            fraction: 1.0,
        },
        AdversarySpec::Random {
            budget: 0,
            rate: 0.5,
        },
    ];
    for (label, spec) in shapes() {
        assert_eq!(
            spec.pools_costs(),
            label == "cohort n=512",
            "{label}: only n = 512 runs aggregate"
        );
        let none = spec
            .clone()
            .with_adversary(AdversarySpec::NoJam)
            .run_batch_raw();
        for adversary in zero {
            let attacked = spec.clone().with_adversary(adversary).run_batch_raw();
            assert_eq!(attacked, none, "{label}: {adversary} differs from none");
        }
        // The relation is not vacuous: the same jammer with a budget moves
        // the run.
        let funded = spec
            .clone()
            .with_adversary(zero[0].with_budget(4096))
            .run_batch_raw();
        assert_ne!(funded, none, "{label}: a funded jammer changed nothing");
    }
}

/// Inert non-empty plans, whose faults never fire, give the same run: a
/// loss of 0, a skew of 0 slots, a crash from period 10^9 and a battery
/// of 10^12 units. They are not compared with the empty plan: the exact,
/// duel and fast engines split a fault stream only for a non-empty one.
///
/// Declared non-relation: in aggregate mode (cohort n = 512) a crash or
/// skew target becomes a tracked singleton and a battery forces
/// all-tracked mode, so plans that track different nodes run different
/// populations. There only plans that track the same nodes agree: skew
/// and crash of node 1, alone or together.
#[test]
fn inert_faults_equal_each_other() {
    const NEVER: u64 = 1_000_000_000;
    let skew = FaultPlan::none().with_skew(1, 0);
    let crash = FaultPlan::none().with_crash(1, NEVER, 1, false);
    let inert = [
        FaultPlan::none().with_loss(0.0),
        skew,
        crash,
        FaultPlan::none().with_battery(NEVER * 1000),
    ];
    let tracked_alike = [skew, crash, skew.with_crash(1, NEVER, 1, false)];
    for (label, spec) in shapes() {
        let plans: &[FaultPlan] = if spec.pools_costs() {
            &tracked_alike
        } else {
            &inert
        };
        let spec = spec.with_adversary(AdversarySpec::Budgeted {
            budget: 4096,
            fraction: 0.5,
        });
        let run = |plan| spec.clone().with_faults(plan).run_batch_raw();
        let first = run(plans[0]);
        for &plan in &plans[1..] {
            assert_eq!(
                run(plan),
                first,
                "{label}: {plan} differs from {}",
                plans[0]
            );
        }
        // Not vacuous: a live fault moves the run.
        let live = plans[0].with_loss(0.5);
        assert_ne!(run(live), first, "{label}: {live} changed nothing");
    }
}

/// Jams the first `s` slots of every period.
struct JamPrefix(u64);

impl RepetitionAdversary for JamPrefix {
    fn plan(&mut self, _: &RepetitionContext) -> JamPlan {
        JamPlan::Slots((0..self.0).collect())
    }
}

/// Asserts that `run(skew, jam, seed)` with a skew of `s` slots under a
/// jammer of `s` slots equals a skew of 0 under the same jammer on each
/// of `seeds`. Returns how many of those seeds the skew moves without the
/// jammer, which shows the relation is not vacuous.
fn check_skew<T: PartialEq + std::fmt::Debug>(
    label: &str,
    s: u64,
    seeds: u64,
    run: impl Fn(u64, u64, u64) -> T,
) -> usize {
    for seed in 0..seeds {
        assert_eq!(run(s, s, seed), run(0, s, seed), "{label}, seed {seed}");
    }
    (0..seeds)
        .filter(|&seed| run(s, 0, seed) != run(0, 0, seed))
        .count()
}

/// A skew of `s` slots under a jammer of every period's first `s` slots
/// equals a skew of 0 slots: the skewed slots are jammed anyway, and
/// neither draws a loss coin. Both sides carry a non-empty plan, so both
/// split a fault stream. Specs cannot name a prefix jammer, so this drives
/// the sessions (and the exact duel's `run_exact`) directly: the duel with
/// the skew on Alice or on Bob, the fast and cohort engines at n = 16 and
/// the exact broadcast at n = 6, each with and without a loss.
///
/// Unjammed, a skew moves every broadcast run but few duels: a duel's
/// rates at epoch 6 make a send or nack in the first slots rare, and Bob
/// nacks little unjammed, so Alice's skew moved none of these seeds. Each
/// engine must show at least one moved run.
#[test]
fn a_skew_under_a_jammed_prefix_equals_no_skew() {
    let profile = Fig1Profile::with_start_epoch(0.1, 6);
    let params = OneToNParams::practical();
    let mut moved = [
        ("fast duel", 0),
        ("exact duel", 0),
        ("fast", 0),
        ("cohort", 0),
        ("exact", 0),
    ];
    for s in [1, 3] {
        for base in [FaultPlan::none(), FaultPlan::none().with_loss(0.2)] {
            for u in [0, 1] {
                let label = format!("duel, {base} skew=n{u}+{s}");
                moved[0].1 += check_skew(&format!("fast {label}"), s, 8, |skew, jam, seed| {
                    let plan = base.with_skew(u, skew);
                    DuelSession::new(profile, DuelConfig::default(), plan, seed)
                        .run(&mut JamPrefix(jam), &Deadline::NONE)
                });
                moved[1].1 += check_skew(&format!("exact {label}"), s, 8, |skew, jam, seed| {
                    let (mut alice, mut bob) =
                        (AliceProtocol::new(profile), BobProtocol::new(profile));
                    let (out, err) = run_exact(
                        &mut [&mut alice, &mut bob],
                        &mut RepAsSlotAdversary::duel(JamPrefix(jam)),
                        &DuelSchedule::new(profile.start_epoch()),
                        &Partition::pair(),
                        &mut RcbRng::new(seed),
                        ExactConfig::default(),
                        None,
                        &base.with_skew(u, skew),
                        &Deadline::NONE,
                    );
                    let bob = (bob.received_message(), bob.is_done());
                    (out.ledger, out.slots, out.completed, err, bob)
                });
            }
            let label = format!("n = 16, {base} skew=n15+{s}");
            moved[2].1 += check_skew(&format!("fast {label}"), s, 8, |skew, jam, seed| {
                let plan = base.with_skew(15, skew);
                BroadcastSession::new(params, 16, vec![0], FastConfig::default(), plan, seed)
                    .run(&mut JamPrefix(jam), &Deadline::NONE)
            });
            moved[3].1 += check_skew(&format!("cohort {label}"), s, 8, |skew, jam, seed| {
                let plan = base.with_skew(15, skew);
                CohortSession::new(params, 16, vec![0], CohortConfig::default(), plan, seed)
                    .run(&mut JamPrefix(jam), &Deadline::NONE)
            });
            let label = format!("exact n = 6, {base} skew=n5+{s}");
            moved[4].1 += check_skew(&label, s, 2, |skew, jam, seed| {
                let plan = base.with_skew(5, skew);
                ExactBroadcastSession::new(params, 6, vec![0], ExactConfig::default(), plan, seed)
                    .run(&mut JamPrefix(jam), &Deadline::NONE)
            });
        }
    }
    for (engine, runs) in moved {
        assert!(runs > 0, "{engine}: the skew moved no unjammed run");
    }
}
