//! Golden equivalence: `ScenarioSpec::run_*` against direct calls of the
//! engine entry points it subsumes.
//!
//! The scenario layer promises *bit-identical* behavior — same outcomes,
//! same slot counts, same FNV-1a checksum folds — for every (workload,
//! engine, adversary, faults) combination the repo ships. This suite pins
//! that promise on the two shipped catalogs:
//!
//! * every cell of the conformance differ's default grid, on both engines;
//! * every named registry entry behind `rcbsim scenario run`;
//!
//! plus the fast-engine jamming paths the registry never reaches
//! (`FAST_PATH_CHECKSUMS`).
//!
//! Each spec is replayed through a hand-built legacy harness — the
//! pre-scenario construction for each (workload, engine) — that calls
//! `run_duel` / `run_broadcast` / `run_cohort` / `run_exact` directly,
//! mirroring the constructions `ScenarioSpec` performs. A drift in either
//! direction — the spec layer or the legacy harness — fails here.
//!
//! A property test additionally pins that a spec with an empty `FaultPlan`
//! replays a direct fault-free engine call with a hand-built adversary
//! byte for byte, including the caller's RNG stream position afterwards.

use proptest::prelude::*;
use rcb_adversary::rep_strategies::{BudgetedRepBlocker, KeepAliveBlocker, NoJamRep, RandomRep};
use rcb_adversary::traits::RepetitionAdversary;
use rcb_adversary::RepAsSlotAdversary;
use rcb_baselines::ksy::KsyProfile;
use rcb_channel::partition::Partition;
use rcb_core::one_to_n::{OneToNSchedule, OneToNSlotNode};
use rcb_core::one_to_one::profile::{DuelProfile, Fig1Profile};
use rcb_core::one_to_one::schedule::DuelSchedule;
use rcb_core::one_to_one::slot::{AliceProtocol, BobProtocol};
use rcb_core::protocol::SlotProtocol;
use rcb_mathkit::rng::RcbRng;
use rcb_sim::cohort::{run_cohort, CohortConfig};
use rcb_sim::conformance::default_grid;
use rcb_sim::deadline::Deadline;
use rcb_sim::duel::{run_duel, DuelConfig};
use rcb_sim::exact::{run_exact, ExactConfig};
use rcb_sim::fast::{run_broadcast, FastConfig};
use rcb_sim::faults::FaultPlan;
use rcb_sim::outcome::{BroadcastOutcome, DuelOutcome};
use rcb_sim::runner::run_trials;
use rcb_sim::scenario::{
    fnv1a, registry, AdversarySpec, BroadcastWorkload, DuelProtocol, DuelWorkload, Engine, Outcome,
    ScenarioSpec, Workload, FNV_OFFSET,
};

// ---------------------------------------------------------------------------
// Legacy harness: the pre-scenario construction for each (workload, engine)
// ---------------------------------------------------------------------------

/// The adversary construction `AdversarySpec::build` replaced, spelled out
/// the way call sites used to write it.
fn legacy_adversary(spec: &AdversarySpec, seed: u64) -> Box<dyn RepetitionAdversary> {
    match *spec {
        AdversarySpec::NoJam => Box::new(NoJamRep),
        AdversarySpec::Budgeted { budget, fraction } => {
            Box::new(BudgetedRepBlocker::new(budget, fraction))
        }
        AdversarySpec::KeepAlive { budget, fraction } => {
            Box::new(KeepAliveBlocker::new(budget, fraction))
        }
        AdversarySpec::Random { budget, rate } => Box::new(RandomRep::new(rate, budget, seed)),
    }
}

fn legacy_fast_duel(
    w: &DuelWorkload,
    adv: &mut dyn RepetitionAdversary,
    rng: &mut RcbRng,
    faults: &FaultPlan,
) -> DuelOutcome {
    let config = DuelConfig {
        max_slots: w.max_slots,
    };
    match w.protocol {
        DuelProtocol::Fig1 {
            epsilon,
            start_epoch,
        } => {
            run_duel(
                &Fig1Profile::with_start_epoch(epsilon, start_epoch),
                adv,
                rng,
                config,
                faults,
                &Deadline::NONE,
            )
            .0
        }
        DuelProtocol::Ksy { start_epoch } => {
            run_duel(
                &KsyProfile::with_start_epoch(start_epoch),
                adv,
                rng,
                config,
                faults,
                &Deadline::NONE,
            )
            .0
        }
    }
}

fn legacy_exact_duel<P: DuelProfile + Copy>(
    profile: P,
    w: &DuelWorkload,
    adversary: Box<dyn RepetitionAdversary>,
    rng: &mut RcbRng,
    faults: &FaultPlan,
) -> DuelOutcome {
    let mut alice = AliceProtocol::new(profile);
    let mut bob = BobProtocol::new(profile);
    let schedule = DuelSchedule::new(profile.start_epoch());
    let partition = Partition::pair();
    let mut adv = RepAsSlotAdversary::duel(adversary);
    let out = run_exact(
        &mut [&mut alice, &mut bob],
        &mut adv,
        &schedule,
        &partition,
        rng,
        ExactConfig {
            max_slots: w.exact_max_slots,
        },
        None,
        faults,
        &Deadline::NONE,
    )
    .0;
    let delivered = bob.received_message();
    DuelOutcome {
        delivered,
        bob_premature: !delivered && out.completed,
        alice_cost: out.ledger.node_cost(0),
        bob_cost: out.ledger.node_cost(1),
        adversary_cost: out.ledger.adversary_cost(),
        slots: out.slots,
        delivery_slot: None,
        last_epoch: 0,
        truncated: !out.completed,
    }
}

fn legacy_exact_broadcast(
    w: &BroadcastWorkload,
    adversary: Box<dyn RepetitionAdversary>,
    rng: &mut RcbRng,
    faults: &FaultPlan,
) -> BroadcastOutcome {
    let mut nodes: Vec<OneToNSlotNode> = (0..w.n)
        .map(|u| OneToNSlotNode::new(w.params, w.sources.contains(&u)))
        .collect();
    let mut refs: Vec<&mut dyn SlotProtocol> = Vec::new();
    for node in nodes.iter_mut() {
        refs.push(node);
    }
    let schedule = OneToNSchedule::new(w.params);
    let partition = Partition::uniform(w.n);
    let mut adv = RepAsSlotAdversary::broadcast(adversary, w.n);
    let out = run_exact(
        &mut refs,
        &mut adv,
        &schedule,
        &partition,
        rng,
        ExactConfig {
            max_slots: w.exact_max_slots,
        },
        None,
        faults,
        &Deadline::NONE,
    )
    .0;
    let informed = nodes.iter().filter(|v| v.received_message()).count();
    BroadcastOutcome {
        n: w.n,
        informed,
        all_informed: informed == w.n,
        all_terminated: out.completed,
        safety_terminations: 0,
        node_costs: (0..w.n).map(|u| out.ledger.node_cost(u)).collect(),
        adversary_cost: out.ledger.adversary_cost(),
        slots: out.slots,
        last_epoch: 0,
        truncated: !out.completed,
    }
}

/// One legacy trial for a spec: the dispatch `run_trial_raw` replaced.
fn legacy_trial(spec: &ScenarioSpec, trial: u64, rng: &mut RcbRng) -> Outcome {
    let seed = spec.seeds.adversary_seed(trial);
    match (&spec.workload, spec.engine) {
        (Workload::Duel(w), Engine::Fast) => {
            let mut adv = legacy_adversary(&spec.adversary, seed);
            Outcome::Duel(legacy_fast_duel(w, adv.as_mut(), rng, &spec.faults))
        }
        (Workload::Duel(w), Engine::Exact) => {
            let adv = legacy_adversary(&spec.adversary, seed);
            let out = match w.protocol {
                DuelProtocol::Fig1 {
                    epsilon,
                    start_epoch,
                } => legacy_exact_duel(
                    Fig1Profile::with_start_epoch(epsilon, start_epoch),
                    w,
                    adv,
                    rng,
                    &spec.faults,
                ),
                DuelProtocol::Ksy { start_epoch } => legacy_exact_duel(
                    KsyProfile::with_start_epoch(start_epoch),
                    w,
                    adv,
                    rng,
                    &spec.faults,
                ),
            };
            Outcome::Duel(out)
        }
        (Workload::Broadcast(w), Engine::Fast) => {
            let mut adv = legacy_adversary(&spec.adversary, seed);
            Outcome::Broadcast(
                run_broadcast(
                    &w.params,
                    w.n,
                    &w.sources,
                    adv.as_mut(),
                    rng,
                    FastConfig {
                        max_epoch: w.max_epoch,
                    },
                    &mut (),
                    &spec.faults,
                    &Deadline::NONE,
                )
                .0,
            )
        }
        (Workload::Broadcast(w), Engine::Exact) => {
            let adv = legacy_adversary(&spec.adversary, seed);
            Outcome::Broadcast(legacy_exact_broadcast(w, adv, rng, &spec.faults))
        }
        (Workload::Broadcast(w), Engine::CohortFast) => {
            let mut adv = legacy_adversary(&spec.adversary, seed);
            Outcome::Broadcast(
                run_cohort(
                    &w.params,
                    w.n,
                    &w.sources,
                    adv.as_mut(),
                    rng,
                    CohortConfig {
                        max_epoch: w.max_epoch,
                        ..CohortConfig::default()
                    },
                    &spec.faults,
                    &Deadline::NONE,
                )
                .0,
            )
        }
        (Workload::Duel(_), Engine::CohortFast) => {
            unreachable!("validate() rejects duel workloads on the cohort engine")
        }
        (Workload::Stream(_), _) => {
            unreachable!("streams have no legacy entry point to compare against")
        }
    }
}

/// Runs `spec` through both paths and asserts outcome equality, slot
/// equality, and identical FNV-1a checksum folds over the whole batch.
/// Returns the batch checksum both paths folded.
fn assert_spec_matches_legacy(spec: &ScenarioSpec, label: &str) -> u64 {
    spec.validate().unwrap_or_else(|e| panic!("{label}: {e}"));
    let via_spec = spec.run_batch_raw();
    let via_legacy = run_trials(
        spec.trials,
        spec.seeds.master,
        spec.parallelism,
        |i, rng| legacy_trial(spec, i, rng),
    );
    assert_eq!(via_spec.len(), via_legacy.len(), "{label}: trial counts");

    let mut checksum_spec = FNV_OFFSET;
    let mut checksum_legacy = FNV_OFFSET;
    for (i, ((spec_out, err), legacy_out)) in via_spec.iter().zip(&via_legacy).enumerate() {
        assert_eq!(spec_out, legacy_out, "{label}: trial {i} outcome diverged");
        assert_eq!(
            spec_out.slots(),
            legacy_out.slots(),
            "{label}: trial {i} slot count diverged"
        );
        // A surfaced engine cap must agree with the outcome's own flag —
        // the typed error adds information, never changes the numbers.
        let truncated = spec_out.truncated();
        assert_eq!(
            err.is_some(),
            truncated,
            "{label}: trial {i} error/truncation mismatch"
        );
        checksum_spec = fnv1a(checksum_spec, &[spec.outcome_checksum(spec_out)]);
        checksum_legacy = fnv1a(checksum_legacy, &[spec.outcome_checksum(legacy_out)]);
    }
    assert_eq!(
        checksum_spec, checksum_legacy,
        "{label}: batch checksum diverged"
    );
    checksum_spec
}

// ---------------------------------------------------------------------------
// Catalog sweeps
// ---------------------------------------------------------------------------

/// The default grid's cells of one workload kind, in grid order.
fn grid_cells(kind: fn(&Workload) -> bool) -> Vec<rcb_sim::conformance::Cell> {
    default_grid()
        .into_iter()
        .filter(|cell| kind(&cell.spec.workload))
        .collect()
}

#[test]
fn default_grid_duel_cells_match_legacy() {
    let duel_cells = grid_cells(|w| matches!(w, Workload::Duel(_)));
    assert!(!duel_cells.is_empty(), "grid must have duel cells");
    for (i, cell) in duel_cells.iter().enumerate() {
        assert_eq!(cell.engines, (Engine::Exact, Engine::Fast));
        for engine in [Engine::Fast, Engine::Exact] {
            let trials = if engine == Engine::Fast { 4 } else { 2 };
            let spec = cell
                .spec
                .clone()
                .with_engine(engine)
                .with_trials(trials)
                .with_seed(0xC0FFEE ^ i as u64);
            assert_spec_matches_legacy(&spec, &format!("duel grid cell {i} ({engine:?})"));
        }
    }
}

#[test]
fn default_grid_broadcast_cells_match_legacy() {
    let broadcast_cells = grid_cells(|w| matches!(w, Workload::Broadcast(_)));
    assert!(
        !broadcast_cells.is_empty(),
        "grid must have broadcast cells"
    );
    for (i, cell) in broadcast_cells.iter().enumerate() {
        // Sweep the engines the differ actually runs for this cell: the
        // historical cells pin both slot-level engines; the cohort cells
        // pin their own (reference, candidate) pair, which keeps the
        // exact engine away from populations it was never sized for.
        for engine in [cell.engines.0, cell.engines.1] {
            let trials = if engine == Engine::Exact { 2 } else { 4 };
            let spec = cell
                .spec
                .clone()
                .with_engine(engine)
                .with_trials(trials)
                .with_seed(0xBCA57 ^ i as u64);
            assert_spec_matches_legacy(&spec, &format!("broadcast grid cell {i} ({engine:?})"));
        }
    }
}

/// Each registry entry's batch checksum at its pinned seed and a trial
/// count kept small so the suite stays cheap (8 fast, 4 exact, 2 cohort or
/// stream trials) while still folding a multi-trial checksum. Equal to what
/// `rcbsim scenario run NAME --trials N` prints; a change here is a
/// behaviour change and must be declared.
const REGISTRY_CHECKSUMS: [(&str, u64, u64); 11] = [
    ("duel_clean", 8, 0x2e0b_dcc5_9927_6e72),
    ("duel_jammed", 8, 0xa38e_32ef_65af_3072),
    ("duel_jammed_faulted", 8, 0xa43d_e131_a14e_d53f),
    ("exact_duel_jammed", 4, 0xada9_5718_607f_9235),
    ("bcast_n8_jammed", 8, 0x31c9_8e3e_00b5_7734),
    ("bcast_n64_jammed", 8, 0xe10d_7c22_b4e6_b125),
    ("bcast_n256_jammed", 8, 0x4c8a_e33c_049c_ea53),
    ("bcast_n64_faulted", 8, 0xa31b_4f27_3aa2_563d),
    ("stream_n8_poisson", 2, 0x714e_e71a_2e46_dde7),
    ("stream_n4_exact_burst", 2, 0x9a0d_a48f_61ce_134c),
    ("bcast_n65536", 2, 0x135c_3798_5676_283b),
];

#[test]
fn registry_entries_match_legacy() {
    let entries = registry();
    let mut unpinned = Vec::new();
    for entry in &entries {
        let Some(&(name, trials, expected)) =
            REGISTRY_CHECKSUMS.iter().find(|pin| pin.0 == entry.name)
        else {
            unpinned.push(entry.name);
            continue;
        };
        assert!(trials <= entry.spec.trials, "{name}: pin exceeds the entry");
        let spec = entry.spec.clone().with_trials(trials);
        let checksum = if matches!(spec.workload, Workload::Stream(_)) {
            // Streams predate no legacy entry point — there is nothing to
            // replay, so only the checksum is pinned. Their re-arm
            // equivalence is certified by `rearm_equivalence.rs`.
            spec.run_batch_raw().iter().fold(FNV_OFFSET, |h, (out, _)| {
                fnv1a(h, &[spec.outcome_checksum(out)])
            })
        } else {
            assert_spec_matches_legacy(&spec, name)
        };
        assert_eq!(
            checksum, expected,
            "{name}: checksum {checksum:016x} at {trials} trials moved from the pinned \
             {expected:016x}"
        );
    }
    // The n = 4096 cohort stream is left to the re-arm suite, and the 10^6
    // scale-ceiling entry takes over a minute per trial; its engine
    // dispatch is the code path the n = 65536 entry certifies above.
    assert_eq!(
        unpinned,
        ["stream_n4096_cohort", "bcast_n1e6"],
        "a new registry entry needs a pinned checksum"
    );
}

/// Fast-engine paths the registry's full-suffix blockers leave unpinned:
/// `Random` is the only policy that emits `JamPlan::Slots`; the half-suffix
/// and keep-alive blockers leave partly jammed repetitions, whose listens
/// resolve against the channel contents; the last case adds
/// `bcast_n64_faulted`'s loss + skew plan under the half-suffix blocker.
/// Batch checksums at 4 trials; a change here is a behaviour change and
/// must be declared.
const FAST_PATH_CHECKSUMS: [(&str, usize, u64); 8] = [
    ("random", 8, 0xbb76_a6f6_6bf9_e778),
    ("random", 64, 0x98dc_41f6_e776_1fe5),
    ("half_suffix", 8, 0x3de2_68f7_1025_a278),
    ("half_suffix", 64, 0x777a_208c_e8ad_ead8),
    ("keep_alive", 8, 0x57c4_204a_07ea_7ccb),
    ("keep_alive", 64, 0x27c6_587a_5455_a45c),
    ("half_suffix_loss_skew", 8, 0x5027_dab2_518f_82a5),
    ("half_suffix_loss_skew", 64, 0x72d2_cde7_c66a_5667),
];

fn fast_path_spec(case: &str, n: usize) -> ScenarioSpec {
    let budget = if n == 8 { 100_000 } else { 200_000 };
    let half = AdversarySpec::Budgeted {
        budget,
        fraction: 0.5,
    };
    let (adversary, faults) = match case {
        "random" => (
            AdversarySpec::Random { budget, rate: 0.25 },
            FaultPlan::none(),
        ),
        "half_suffix" => (half, FaultPlan::none()),
        "keep_alive" => (
            AdversarySpec::KeepAlive {
                budget,
                fraction: 0.5,
            },
            FaultPlan::none(),
        ),
        "half_suffix_loss_skew" => (half, FaultPlan::none().with_loss(0.1).with_skew(5, 1)),
        _ => unreachable!("unknown fast-path case {case}"),
    };
    ScenarioSpec::broadcast(n)
        .with_adversary(adversary)
        .with_faults(faults)
        .with_trials(4)
        .with_seed(0xFA57 ^ n as u64)
}

#[test]
fn fast_engine_partial_jam_paths_match_pins() {
    let moved: Vec<String> = FAST_PATH_CHECKSUMS
        .iter()
        .filter_map(|&(case, n, expected)| {
            let label = format!("{case} n={n}");
            let checksum = assert_spec_matches_legacy(&fast_path_spec(case, n), &label);
            (checksum != expected).then(|| {
                format!("{label}: {checksum:#018x} moved from the pinned {expected:#018x}")
            })
        })
        .collect();
    assert!(moved.is_empty(), "{}", moved.join("\n"));
}

// ---------------------------------------------------------------------------
// Empty fault plan ≡ clean path
// ---------------------------------------------------------------------------

proptest! {
    /// A duel spec carrying `FaultPlan::none()` replays a direct fault-free
    /// `run_duel` bit for bit, and leaves the caller's RNG in the
    /// identical stream position.
    #[test]
    fn empty_fault_plan_spec_is_byte_identical_to_clean_duel(
        seed in any::<u64>(),
        budget in 0u64..4096,
    ) {
        let spec = ScenarioSpec::duel(DuelProtocol::fig1(0.1, 6))
            .with_adversary(AdversarySpec::Budgeted { budget, fraction: 1.0 })
            .with_faults(FaultPlan::none())
            .with_seed(seed);

        let mut rng_spec = RcbRng::new(seed);
        let (via_spec, spec_err) = spec.run_trial_raw(0, &mut rng_spec);

        let mut rng_clean = RcbRng::new(seed);
        let mut adv = BudgetedRepBlocker::new(budget, 1.0);
        let (clean, clean_err) = run_duel(
            &Fig1Profile::with_start_epoch(0.1, 6),
            &mut adv,
            &mut rng_clean,
            DuelConfig::default(),
            &FaultPlan::none(),
            &Deadline::NONE,
        );

        prop_assert_eq!(via_spec.into_duel(), clean);
        prop_assert_eq!(spec_err, clean_err);
        prop_assert_eq!(rng_spec, rng_clean, "RNG stream position must match");
    }

    /// Broadcast flavor of the same invariant, at a small fixed `n`.
    #[test]
    fn empty_fault_plan_spec_is_byte_identical_to_clean_broadcast(
        seed in any::<u64>(),
        budget in 0u64..2048,
    ) {
        let spec = ScenarioSpec::broadcast(5)
            .with_adversary(AdversarySpec::Budgeted { budget, fraction: 1.0 })
            .with_faults(FaultPlan::none())
            .with_seed(seed);
        let params = match &spec.workload {
            Workload::Broadcast(w) => w.params,
            _ => unreachable!(),
        };

        let mut rng_spec = RcbRng::new(seed);
        let (via_spec, spec_err) = spec.run_trial_raw(0, &mut rng_spec);

        let mut rng_clean = RcbRng::new(seed);
        let mut adv = BudgetedRepBlocker::new(budget, 1.0);
        let (clean, clean_err) = run_broadcast(
            &params,
            5,
            &[0],
            &mut adv,
            &mut rng_clean,
            FastConfig::default(),
            &mut (),
            &FaultPlan::none(),
            &Deadline::NONE,
        );

        prop_assert_eq!(via_spec.into_broadcast(), clean);
        prop_assert_eq!(spec_err, clean_err);
        prop_assert_eq!(rng_spec, rng_clean, "RNG stream position must match");
    }
}
