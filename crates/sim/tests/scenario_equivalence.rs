//! Golden equivalence: `ScenarioSpec::run_*` against hand-driven engine
//! sessions and the exact engine's `run_exact`.
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
//! (`FAST_PATH_CHECKSUMS`), the repetition summaries the fast and cohort
//! engines hand their adversary (`SUMMARY_CHECKSUMS`), and the repetition
//! loop's fault and truncation branches on both (`LOOP_CHECKSUMS`).
//!
//! Each spec is replayed through a hand-built legacy harness — the
//! pre-scenario construction for each (workload, engine) — that drives
//! `DuelSession` / `BroadcastSession` / `CohortSession` at the trial's
//! child seed, and builds the exact engine's slot-level nodes by hand for
//! `run_exact` on the trial's RNG. A drift in either direction — the spec
//! layer or the legacy harness — fails here.
//!
//! Property tests additionally pin that a spec with an empty `FaultPlan`
//! replays a hand-driven fault-free run with a hand-built adversary byte
//! for byte on every engine, including the caller's RNG stream position
//! afterwards — the one-shot RNG hand-off a spec trial runs through.

use proptest::prelude::*;
use rcb_adversary::rep_strategies::{BudgetedRepBlocker, KeepAliveBlocker, NoJamRep, RandomRep};
use rcb_adversary::traits::{JamPlan, RepetitionAdversary, RepetitionContext, RepetitionSummary};
use rcb_adversary::RepAsSlotAdversary;
use rcb_baselines::ksy::KsyProfile;
use rcb_channel::partition::Partition;
use rcb_core::one_to_n::{OneToNSchedule, OneToNSlotNode};
use rcb_core::one_to_one::profile::{DuelProfile, Fig1Profile};
use rcb_core::one_to_one::schedule::DuelSchedule;
use rcb_core::one_to_one::slot::{AliceProtocol, BobProtocol};
use rcb_core::protocol::SlotProtocol;
use rcb_mathkit::rng::{RcbRng, SeedSequence};
use rcb_sim::cohort::{CohortConfig, CohortSession};
use rcb_sim::conformance::default_grid;
use rcb_sim::deadline::Deadline;
use rcb_sim::duel::{DuelConfig, DuelSession};
use rcb_sim::error::SimError;
use rcb_sim::exact::{run_exact, ExactConfig};
use rcb_sim::fast::{BroadcastSession, FastConfig};
use rcb_sim::faults::FaultPlan;
use rcb_sim::outcome::{BroadcastOutcome, DuelOutcome};
use rcb_sim::runner::run_trials;
use rcb_sim::scenario::{
    fnv1a, registry, AdversarySpec, BroadcastWorkload, DuelProtocol, DuelWorkload, Engine, Outcome,
    ScenarioSpec, Workload, FNV_OFFSET,
};
use rcb_sim::session::Session;

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
    seed: u64,
    faults: &FaultPlan,
) -> (DuelOutcome, Option<SimError>) {
    let config = DuelConfig {
        max_slots: w.max_slots,
    };
    match w.protocol {
        DuelProtocol::Fig1 {
            epsilon,
            start_epoch,
        } => DuelSession::new(
            Fig1Profile::with_start_epoch(epsilon, start_epoch),
            config,
            *faults,
            seed,
        )
        .run(adv, &Deadline::NONE),
        DuelProtocol::Ksy { start_epoch } => DuelSession::new(
            KsyProfile::with_start_epoch(start_epoch),
            config,
            *faults,
            seed,
        )
        .run(adv, &Deadline::NONE),
    }
}

fn legacy_exact_duel<P: DuelProfile + Copy>(
    profile: P,
    w: &DuelWorkload,
    adversary: Box<dyn RepetitionAdversary>,
    rng: &mut RcbRng,
    faults: &FaultPlan,
) -> (DuelOutcome, Option<SimError>) {
    let mut alice = AliceProtocol::new(profile);
    let mut bob = BobProtocol::new(profile);
    let schedule = DuelSchedule::new(profile.start_epoch());
    let partition = Partition::pair();
    let mut adv = RepAsSlotAdversary::duel(adversary);
    let (out, err) = run_exact(
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
    );
    let delivered = bob.received_message();
    let out = DuelOutcome {
        delivered,
        bob_premature: !delivered && out.completed,
        alice_cost: out.ledger.node_cost(0),
        bob_cost: out.ledger.node_cost(1),
        adversary_cost: out.ledger.adversary_cost(),
        slots: out.slots,
        delivery_slot: None,
        last_epoch: 0,
        truncated: !out.completed,
    };
    (out, err)
}

fn legacy_exact_broadcast(
    w: &BroadcastWorkload,
    adversary: Box<dyn RepetitionAdversary>,
    rng: &mut RcbRng,
    faults: &FaultPlan,
) -> (BroadcastOutcome, Option<SimError>) {
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
    let (out, err) = run_exact(
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
    );
    let informed = nodes.iter().filter(|v| v.received_message()).count();
    let out = BroadcastOutcome {
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
    };
    (out, err)
}

/// One legacy trial for a spec: the dispatch `run_trial_raw` replaced.
/// Sessions start at the trial's child seed, which is exactly the stream
/// `rng` carries.
fn legacy_trial(spec: &ScenarioSpec, trial: u64, rng: &mut RcbRng) -> Outcome {
    let seed = spec.seeds.adversary_seed(trial);
    let child = SeedSequence::new(spec.seeds.master).child(trial);
    match (&spec.workload, spec.engine) {
        (Workload::Duel(w), Engine::Fast) => {
            let mut adv = legacy_adversary(&spec.adversary, seed);
            Outcome::Duel(legacy_fast_duel(w, adv.as_mut(), child, &spec.faults).0)
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
            Outcome::Duel(out.0)
        }
        (Workload::Broadcast(w), Engine::Fast) => {
            let mut adv = legacy_adversary(&spec.adversary, seed);
            let config = FastConfig {
                max_epoch: w.max_epoch,
            };
            let mut session =
                BroadcastSession::new(w.params, w.n, w.sources.clone(), config, spec.faults, child);
            Outcome::Broadcast(session.run(adv.as_mut(), &Deadline::NONE).0)
        }
        (Workload::Broadcast(w), Engine::Exact) => {
            let adv = legacy_adversary(&spec.adversary, seed);
            Outcome::Broadcast(legacy_exact_broadcast(w, adv, rng, &spec.faults).0)
        }
        (Workload::Broadcast(w), Engine::CohortFast) => {
            let mut adv = legacy_adversary(&spec.adversary, seed);
            let config = CohortConfig {
                max_epoch: w.max_epoch,
                ..CohortConfig::default()
            };
            let mut session =
                CohortSession::new(w.params, w.n, w.sources.clone(), config, spec.faults, child);
            Outcome::Broadcast(session.run(adv.as_mut(), &Deadline::NONE).0)
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
/// and keep-alive blockers leave partly jammed repetitions, whose open
/// slots are heard through the channel state; `half_suffix_loss_skew` adds
/// `bcast_n64_faulted`'s loss + skew plan under the half-suffix blocker;
/// `sparse` (n = 2 under a 10^6-slot full-suffix budget) runs into epochs
/// whose repetitions are far longer than their send count.
/// Batch checksums at 4 trials; a change here is a behaviour change and
/// must be declared.
const FAST_PATH_CHECKSUMS: [(&str, usize, u64); 9] = [
    ("random", 8, 0xbb76_a6f6_6bf9_e778),
    ("random", 64, 0x98dc_41f6_e776_1fe5),
    ("half_suffix", 8, 0x3de2_68f7_1025_a278),
    ("half_suffix", 64, 0x777a_208c_e8ad_ead8),
    ("keep_alive", 8, 0x57c4_204a_07ea_7ccb),
    ("keep_alive", 64, 0x27c6_587a_5455_a45c),
    ("half_suffix_loss_skew", 8, 0x5027_dab2_518f_82a5),
    ("half_suffix_loss_skew", 64, 0x72d2_cde7_c66a_5667),
    ("sparse", 2, 0xe6cc_385c_a38c_9496),
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
        "sparse" => (
            AdversarySpec::Budgeted {
                budget: 1_000_000,
                fraction: 1.0,
            },
            FaultPlan::none(),
        ),
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

#[cfg(debug_assertions)]
#[test]
fn fast_path_skips_are_mostly_decided_by_the_table_bracket() {
    // A witness that the geometric skip's table bracket fires on an engine
    // run (the sampler's debug-build census): the `random` n = 64 pin's
    // skips, from the fast engine's send and listen draws and the random
    // jammer's slot draws, decided by the bracket and straddled by it (and
    // so taken by the exact expression). Both give the same values, so a
    // change that silently stops the bracket from deciding moves no
    // checksum, but it fails here.
    use rcb_mathkit::sample::census;
    let spec = fast_path_spec("random", 64);
    let seeds = SeedSequence::new(spec.seeds.master);
    census::take();
    let mut checksum = FNV_OFFSET;
    for trial in 0..spec.trials {
        let (outcome, _) = spec.run_trial_raw(trial, &mut seeds.rng(trial));
        checksum = fnv1a(checksum, &[spec.outcome_checksum(&outcome)]);
    }
    assert_eq!(checksum, FAST_PATH_CHECKSUMS[1].2);
    // 1.15% of the 13.9M skips take the exact expression.
    assert_eq!(census::take(), [13_788_937, 160_370]);
}

/// Wraps a strategy and folds every field of every repetition summary the
/// engine hands it into an FNV-1a checksum.
struct SummaryRecorder {
    inner: Box<dyn RepetitionAdversary>,
    fold: u64,
}

impl RepetitionAdversary for SummaryRecorder {
    fn plan(&mut self, ctx: &RepetitionContext) -> JamPlan {
        self.inner.plan(ctx)
    }

    fn observe(&mut self, ctx: &RepetitionContext, summary: &RepetitionSummary) {
        let RepetitionSummary {
            message_slots,
            busy_slots,
            jammed_slots,
            listen_actions,
            send_actions,
        } = *summary;
        self.fold = fnv1a(
            self.fold,
            &[
                message_slots,
                busy_slots,
                jammed_slots,
                listen_actions,
                send_actions,
            ],
        );
        self.inner.observe(ctx, summary);
    }

    fn remaining_budget(&self) -> Option<u64> {
        self.inner.remaining_budget()
    }
}

/// The summaries an engine hands its adversary, folded over every
/// repetition of 4 trials. No shipped strategy reads `message_slots` or
/// `busy_slots`, so outcome checksums cannot see a miscount there; these
/// pins can. The cohort rows run all-tracked at n = 64 and in aggregate
/// mode at n = 512. A change here is a behaviour change and must be
/// declared.
const SUMMARY_CHECKSUMS: [(&str, Engine, usize, u64); 9] = [
    ("random", Engine::Fast, 8, 0x0a15_5fef_fc7e_3015),
    ("random", Engine::Fast, 64, 0x90ed_5d10_f132_78c5),
    ("half_suffix", Engine::Fast, 8, 0xf388_dcd9_d9bc_d893),
    ("half_suffix", Engine::Fast, 64, 0xea38_20cd_aaad_42b3),
    ("sparse", Engine::Fast, 2, 0xe8f6_45e1_6bf0_1234),
    ("random", Engine::CohortFast, 64, 0x112b_140d_c521_54de),
    ("half_suffix", Engine::CohortFast, 64, 0x7026_f96c_a84a_956d),
    ("random", Engine::CohortFast, 512, 0xd6db_fe87_f2a4_ca42),
    (
        "half_suffix",
        Engine::CohortFast,
        512,
        0x9fa0_2573_1659_5ee5,
    ),
];

#[test]
fn repetition_summaries_match_pins() {
    let moved: Vec<String> = SUMMARY_CHECKSUMS
        .iter()
        .filter_map(|&(case, engine, n, expected)| {
            let spec = fast_path_spec(case, n);
            let Workload::Broadcast(w) = &spec.workload else {
                unreachable!("fast-path specs are broadcasts")
            };
            let mut fold = FNV_OFFSET;
            for trial in 0..spec.trials {
                let mut recorder = SummaryRecorder {
                    inner: legacy_adversary(&spec.adversary, spec.seeds.adversary_seed(trial)),
                    fold,
                };
                let child = SeedSequence::new(spec.seeds.master).child(trial);
                let sources = w.sources.clone();
                if engine == Engine::Fast {
                    let config = FastConfig {
                        max_epoch: w.max_epoch,
                    };
                    BroadcastSession::new(w.params, n, sources, config, spec.faults, child)
                        .run(&mut recorder, &Deadline::NONE);
                } else {
                    let config = CohortConfig {
                        max_epoch: w.max_epoch,
                        ..CohortConfig::default()
                    };
                    CohortSession::new(w.params, n, sources, config, spec.faults, child)
                        .run(&mut recorder, &Deadline::NONE);
                }
                fold = recorder.fold;
            }
            (fold != expected).then(|| {
                format!(
                    "{case} {engine:?} n={n}: summaries {fold:#018x} moved from the pinned \
                     {expected:#018x}"
                )
            })
        })
        .collect();
    assert!(moved.is_empty(), "{}", moved.join("\n"));
}

/// The branches of the broadcast engines' repetition loop that the other
/// pins leave to one engine or to none: a battery cap (nodes go dead at a
/// repetition boundary), `bcast_n64_faulted`'s plan (a crash window with a
/// state-losing reboot, plus skew and loss) and an epoch cap that
/// truncates every trial. Each runs on the fast engine at n = 64, on the
/// cohort engine all-tracked at n = 64 and in aggregate mode at n = 512,
/// except the battery case, whose fault forces all-tracked mode. Batch
/// checksums at 4 trials; a change here is a behaviour change and must be
/// declared.
const LOOP_CHECKSUMS: [(&str, Engine, usize, u64); 8] = [
    ("battery", Engine::Fast, 64, 0x72c3_2742_5864_6981),
    ("battery", Engine::CohortFast, 64, 0x8e57_0448_2a72_8bd7),
    ("faulted", Engine::Fast, 64, 0x5225_b6ed_3b69_aa96),
    ("faulted", Engine::CohortFast, 64, 0x7fac_8655_bcc4_fdd1),
    ("faulted", Engine::CohortFast, 512, 0x857c_4c96_8b76_adf6),
    ("epoch_cap", Engine::Fast, 64, 0x90e7_8588_75eb_1e98),
    ("epoch_cap", Engine::CohortFast, 64, 0x1ba2_f3a6_8c3d_3189),
    ("epoch_cap", Engine::CohortFast, 512, 0xa1b6_738f_72fd_c954),
];

/// Epoch cap of the `epoch_cap` case, below the epoch every trial needs.
const LOOP_MAX_EPOCH: u32 = 12;

fn loop_spec(case: &str, engine: Engine, n: usize) -> ScenarioSpec {
    let faults = match case {
        "battery" => FaultPlan::none().with_battery(16_000),
        "faulted" => FaultPlan::none()
            .with_loss(0.1)
            .with_crash(3, 2, 6, true)
            .with_skew(5, 1),
        "epoch_cap" => FaultPlan::none(),
        _ => unreachable!("unknown loop case {case}"),
    };
    let mut spec = ScenarioSpec::broadcast(n)
        .with_engine(engine)
        .with_adversary(AdversarySpec::Budgeted {
            budget: 200_000,
            fraction: 1.0,
        })
        .with_faults(faults)
        .with_trials(4)
        .with_seed(0xD21E ^ n as u64);
    if case == "epoch_cap" {
        let Workload::Broadcast(w) = &mut spec.workload else {
            unreachable!("loop specs are broadcasts")
        };
        w.max_epoch = LOOP_MAX_EPOCH;
    }
    spec
}

#[test]
fn repetition_loop_branches_match_pins() {
    let moved: Vec<String> = LOOP_CHECKSUMS
        .iter()
        .filter_map(|&(case, engine, n, expected)| {
            let label = format!("{case} {engine:?} n={n}");
            let spec = loop_spec(case, engine, n);
            assert_eq!(
                spec.pools_costs(),
                n == 512,
                "{label}: n = 512 runs aggregate, n = 64 all-tracked"
            );
            let checksum = assert_spec_matches_legacy(&spec, &label);
            if case == "epoch_cap" {
                for (out, err) in spec.run_batch_raw() {
                    assert!(
                        out.truncated()
                            && err
                                == Some(SimError::EpochBudgetExhausted {
                                    max_epoch: LOOP_MAX_EPOCH,
                                    slots: out.slots(),
                                }),
                        "{label}: every trial must hit the epoch cap, got {err:?}"
                    );
                }
            }
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

/// Whether `session`'s own generator sits exactly where `rng` does. A
/// session's `Debug` rendering includes its RNG state, so this pins the
/// stream position without an accessor.
fn session_rng_is(session: &impl std::fmt::Debug, rng: &RcbRng) -> bool {
    format!("{session:?}").contains(&format!("{rng:?}"))
}

proptest! {
    /// A duel spec carrying `FaultPlan::none()` replays a hand-driven
    /// fault-free run bit for bit — a `DuelSession` at `seed` on the fast
    /// engine, `run_exact` on `RcbRng::new(seed)` on the exact one — and
    /// leaves the caller's RNG in the identical stream position.
    #[test]
    fn empty_fault_plan_spec_is_byte_identical_to_clean_duel(
        seed in any::<u64>(),
        budget in 0u64..4096,
        exact in any::<bool>(),
    ) {
        let engine = if exact { Engine::Exact } else { Engine::Fast };
        let spec = ScenarioSpec::duel(DuelProtocol::fig1(0.1, 6))
            .with_engine(engine)
            .with_adversary(AdversarySpec::Budgeted { budget, fraction: 1.0 })
            .with_faults(FaultPlan::none())
            .with_seed(seed);
        let Workload::Duel(w) = &spec.workload else { unreachable!() };

        let mut rng_spec = RcbRng::new(seed);
        let (via_spec, spec_err) = spec.run_trial_raw(0, &mut rng_spec);

        let profile = Fig1Profile::with_start_epoch(0.1, 6);
        let mut adv = BudgetedRepBlocker::new(budget, 1.0);
        let (clean, clean_err, rng_matches) = if exact {
            let mut rng_clean = RcbRng::new(seed);
            let (clean, err) =
                legacy_exact_duel(profile, w, Box::new(adv), &mut rng_clean, &FaultPlan::none());
            (clean, err, rng_spec == rng_clean)
        } else {
            let mut session =
                DuelSession::new(profile, DuelConfig::default(), FaultPlan::none(), seed);
            let (clean, err) = session.run(&mut adv, &Deadline::NONE);
            (clean, err, session_rng_is(&session, &rng_spec))
        };

        prop_assert_eq!(via_spec.into_duel(), clean);
        prop_assert_eq!(spec_err, clean_err);
        prop_assert!(rng_matches, "RNG stream position must match");
    }

    /// Broadcast flavor of the same invariant, at a small fixed `n`, on the
    /// fast, cohort and exact engines.
    #[test]
    fn empty_fault_plan_spec_is_byte_identical_to_clean_broadcast(
        seed in any::<u64>(),
        budget in 0u64..2048,
        engine_ix in 0usize..3,
    ) {
        let engine = [Engine::Fast, Engine::CohortFast, Engine::Exact][engine_ix];
        let spec = ScenarioSpec::broadcast(5)
            .with_engine(engine)
            .with_adversary(AdversarySpec::Budgeted { budget, fraction: 1.0 })
            .with_faults(FaultPlan::none())
            .with_seed(seed);
        let Workload::Broadcast(w) = &spec.workload else { unreachable!() };

        let mut rng_spec = RcbRng::new(seed);
        let (via_spec, spec_err) = spec.run_trial_raw(0, &mut rng_spec);

        let mut adv = BudgetedRepBlocker::new(budget, 1.0);
        let (clean, clean_err, rng_matches) = match engine {
            Engine::Fast => {
                let mut session = BroadcastSession::new(
                    w.params, 5, vec![0], FastConfig::default(), FaultPlan::none(), seed,
                );
                let (clean, err) = session.run(&mut adv, &Deadline::NONE);
                (clean, err, session_rng_is(&session, &rng_spec))
            }
            Engine::CohortFast => {
                let mut session = CohortSession::new(
                    w.params, 5, vec![0], CohortConfig::default(), FaultPlan::none(), seed,
                );
                let (clean, err) = session.run(&mut adv, &Deadline::NONE);
                (clean, err, session_rng_is(&session, &rng_spec))
            }
            Engine::Exact => {
                let mut rng_clean = RcbRng::new(seed);
                let (clean, err) =
                    legacy_exact_broadcast(w, Box::new(adv), &mut rng_clean, &FaultPlan::none());
                (clean, err, rng_spec == rng_clean)
            }
        };

        prop_assert_eq!(via_spec.into_broadcast(), clean);
        prop_assert_eq!(spec_err, clean_err);
        prop_assert!(rng_matches, "RNG stream position must match");
    }
}
