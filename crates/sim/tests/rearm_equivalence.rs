//! Golden re-arm equivalence suite: for every engine session,
//! `rearm(seed)` followed by a run must be **bit-identical** to a freshly
//! constructed session at `seed` — same outcome fields, same FNV-1a fold
//! over the batch. The "used" session is deliberately dirtied first (a
//! full run at a different seed, with a different adversary), so the test
//! certifies the reset covers protocol state, epoch position, cost
//! ledgers, fault flags, and the RNG stream — not just a lucky overlap.
//!
//! The streaming workload leans on exactly this contract (one session,
//! re-armed per message), so a regression here silently corrupts every
//! stream baseline.

use rcb_adversary::rep_strategies::{BudgetedRepBlocker, KeepAliveBlocker};
use rcb_adversary::traits::RepetitionAdversary;
use rcb_core::one_to_n::OneToNParams;
use rcb_core::one_to_one::profile::Fig1Profile;
use rcb_sim::cohort::{CohortConfig, CohortSession};
use rcb_sim::deadline::Deadline;
use rcb_sim::duel::{DuelConfig, DuelSession};
use rcb_sim::exact::ExactConfig;
use rcb_sim::fast::{BroadcastSession, FastConfig};
use rcb_sim::faults::FaultPlan;
use rcb_sim::scenario::{fnv1a_bytes, FNV_OFFSET};
use rcb_sim::session::{ExactBroadcastSession, Session};

/// FNV-1a over the outcome's full debug rendering: every field
/// participates, so two folds agree iff the outcomes are identical.
fn checksum<T: std::fmt::Debug>(h: u64, out: &T) -> u64 {
    fnv1a_bytes(h, format!("{out:?}").as_bytes())
}

/// Runs `session` fresh-vs-rearmed across `seeds` and asserts the folds
/// match. `fresh` builds a new session at a seed; `adversary` builds the
/// per-run strategy (same construction both sides, so any divergence is
/// the session's fault).
fn assert_rearm_equivalent<S, F, A>(label: &str, seeds: &[u64], mut fresh: F, mut adversary: A)
where
    S: Session,
    S::Outcome: std::fmt::Debug + PartialEq,
    F: FnMut(u64) -> S,
    A: FnMut() -> Box<dyn RepetitionAdversary>,
{
    // The reused session: constructed once at a sacrificial seed and
    // dirtied with a full run under a different adversary, then re-armed
    // for every golden seed.
    let mut used = fresh(0xDEAD_BEEF);
    let mut dirty_adv = KeepAliveBlocker::new(10_000, 1.0);
    let _ = used.run(&mut dirty_adv, &Deadline::NONE);

    let mut fold_fresh = FNV_OFFSET;
    let mut fold_rearm = FNV_OFFSET;
    for &seed in seeds {
        let mut a = fresh(seed);
        let mut adv_a = adversary();
        let (out_fresh, err_fresh) = a.run(adv_a.as_mut(), &Deadline::NONE);

        used.rearm(seed);
        let mut adv_b = adversary();
        let (out_rearm, err_rearm) = used.run(adv_b.as_mut(), &Deadline::NONE);

        assert_eq!(
            out_fresh, out_rearm,
            "{label}: seed {seed} diverged after rearm"
        );
        assert_eq!(
            err_fresh.is_some(),
            err_rearm.is_some(),
            "{label}: seed {seed} truncation flag diverged"
        );
        fold_fresh = checksum(fold_fresh, &out_fresh);
        fold_rearm = checksum(fold_rearm, &out_rearm);
    }
    assert_eq!(fold_fresh, fold_rearm, "{label}: batch checksum diverged");
}

const SEEDS: [u64; 6] = [0, 1, 2, 7, 2014, 0xFFFF_FFFF_FFFF_FFFE];

#[test]
fn duel_fast_session_rearm_is_bit_identical() {
    assert_rearm_equivalent(
        "duel-fast",
        &SEEDS,
        |seed| {
            DuelSession::new(
                Fig1Profile::with_start_epoch(0.1, 8),
                DuelConfig::default(),
                FaultPlan::none(),
                seed,
            )
        },
        || Box::new(BudgetedRepBlocker::new(4096, 1.0)),
    );
}

#[test]
fn duel_fast_session_rearm_with_faults() {
    let faults = FaultPlan::none().with_loss(0.1).with_skew(1, 1);
    assert_rearm_equivalent(
        "duel-fast+faults",
        &SEEDS,
        move |seed| {
            DuelSession::new(
                Fig1Profile::with_start_epoch(0.1, 8),
                DuelConfig::default(),
                faults,
                seed,
            )
        },
        || Box::new(BudgetedRepBlocker::new(2048, 1.0)),
    );
}

#[test]
fn broadcast_fast_session_rearm_is_bit_identical() {
    assert_rearm_equivalent(
        "broadcast-fast",
        &SEEDS,
        |seed| {
            BroadcastSession::new(
                OneToNParams::practical(),
                12,
                vec![0],
                FastConfig::default(),
                FaultPlan::none(),
                seed,
            )
        },
        || Box::new(BudgetedRepBlocker::new(50_000, 1.0)),
    );
}

#[test]
fn exact_broadcast_session_rearm_is_bit_identical() {
    assert_rearm_equivalent(
        "exact",
        &SEEDS[..3],
        |seed| {
            ExactBroadcastSession::new(
                OneToNParams::practical(),
                4,
                vec![0],
                ExactConfig::default(),
                FaultPlan::none(),
                seed,
            )
        },
        || Box::new(BudgetedRepBlocker::new(2_000, 1.0)),
    );
}

#[test]
fn cohort_session_rearm_collapses_materialized_nodes() {
    // n = 600 sits above the exact-member threshold (384), so the run
    // materializes tracked singletons out of anonymous cohorts; the
    // re-arm must collapse them back into the single initial cohort.
    assert_rearm_equivalent(
        "broadcast-cohort",
        &SEEDS,
        |seed| {
            CohortSession::new(
                OneToNParams::practical(),
                600,
                vec![0],
                CohortConfig::default(),
                FaultPlan::none(),
                seed,
            )
        },
        || Box::new(BudgetedRepBlocker::new(100_000, 1.0)),
    );
}

#[test]
fn cohort_session_rearm_all_tracked_regime() {
    assert_rearm_equivalent(
        "broadcast-cohort/all-tracked",
        &SEEDS,
        |seed| {
            CohortSession::new(
                OneToNParams::practical(),
                24,
                vec![0],
                CohortConfig::default(),
                FaultPlan::none(),
                seed,
            )
        },
        || Box::new(BudgetedRepBlocker::new(50_000, 1.0)),
    );
}
