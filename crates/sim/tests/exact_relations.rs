//! Exact relations between runs: pairs of specs that must give the same
//! outcomes bit for bit, on every engine. They need no trial counts or
//! margins, since a relation that holds does so on every trial.

use rcb_sim::scenario::{AdversarySpec, DuelProtocol, Engine, ScenarioSpec};

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
