//! Deterministic work-stealing scenario executor.
//!
//! One worker pool serves every parallel consumer — experiment sweeps, the
//! conformance grid, the perf grid, and
//! [`run_trials`](crate::runner::run_trials) for a single batch. Workers
//! claim one work unit at a time from an atomic cursor, so heterogeneous
//! units balance across workers, and results merge back in work-list
//! order whatever the thread count or scheduling:
//!
//! * [`run_cells`] — cell-granular: a deterministic parallel map over any
//!   slice. The shard unit is one list element.
//! * [`run_specs_ctl`] — trial-granular: flattens a `ScenarioSpec` list
//!   into one global trial work list (prefix sums over per-spec trial
//!   counts), so stealing crosses cell boundaries and a long tail cell
//!   cannot serialise the sweep, and even a batch of a few trials spreads
//!   over every worker.
//!
//! ## Seed-fold invariant
//!
//! Trial `i` of spec `s` always runs on
//! `SeedSequence::new(s.seeds.master).rng(i)` — byte-identical to
//! [`ScenarioSpec::run_batch_raw`]'s derivation — and seeded adversaries
//! still receive `master ^ i`. Work distribution therefore only reorders
//! *wall-clock execution*, never any RNG stream: results are bit-identical
//! across `Fixed(1)`, `Fixed(8)`, and `Auto` (certified by the tests
//! below).
//!
//! ## Nested parallelism
//!
//! Pool workers mark their thread with the runner's `IN_WORKER` flag, so
//! `Parallelism::Auto` *inside* a unit (e.g. a conformance cell's
//! `run_batch_raw`) degrades to sequential instead of spawning cores²
//! threads. `Fixed(n > 1)` at both tiers is honoured by name and therefore
//! oversubscribes — callers that nest must pick one parallel tier
//! (DESIGN.md §11).
//!
//! ## Crash-safe control ([`run_cells_ctl`] / [`run_specs_ctl`])
//!
//! The `_ctl` functions accept a deadline and a resume-skip predicate (for
//! specs, a [`SpecsControl`] that adds a same-seed retry budget) and report
//! **partial** results: every completed unit is `Some`, everything the
//! deadline cut off or the skip predicate elided is `None`, and the run's
//! `deadline_hit` flag says why. The run-level deadline is checked
//! *between* work units — an in-flight trial or cell always finishes, so
//! every `Some` is a deterministic, journal-safe result. A panicking trial
//! is retried on its **same** derived seed up to `max_attempts` times,
//! then quarantined ([`QuarantinedTrial`]) instead of aborting the sweep;
//! the seed streams of every other trial are untouched either way.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

use rcb_mathkit::rng::{RcbRng, SeedSequence};

use crate::deadline::Deadline;
use crate::error::{SimError, TrialFailure};
use crate::runner::{enter_worker, panic_payload, Parallelism};
use crate::scenario::{Outcome, ScenarioSpec};

/// One spec's per-trial slots: `None` for skipped/never-started trials,
/// `Some` for completed deterministic results.
pub type TrialSlots = Vec<Option<(Outcome, Option<SimError>)>>;

/// Crash-safety knobs for [`run_specs_ctl`]. [`SpecsControl::DEFAULT`]
/// runs every trial once, with no deadline.
pub struct SpecsControl<'a> {
    /// Run-level wall-clock budget / cancellation token, checked *between*
    /// trials: in-flight trials finish, so partial results stay
    /// deterministic and journal-safe.
    pub deadline: Deadline,
    /// Optional per-trial wall budget: each trial (and each retry attempt)
    /// gets a fresh [`Deadline::after`] this long, threaded into the
    /// engine slot loops. Deadline-cut trials report
    /// [`SimError::DeadlineExceeded`] and are wall-clock dependent —
    /// resume paths must re-run them, never journal them.
    pub trial_deadline: Option<Duration>,
    /// Same-seed attempts before a panicking trial is quarantined
    /// (`1` = no retry; `0` is treated as `1`).
    pub max_attempts: u32,
    /// Resume predicate: `skip(spec, trial) == true` elides the trial
    /// (its result slot stays `None`). Seed derivation for every other
    /// trial is untouched, so a resumed run is bit-identical to an
    /// uninterrupted one.
    pub skip: Option<&'a (dyn Fn(usize, u64) -> bool + Sync)>,
}

impl SpecsControl<'static> {
    /// No deadline, no retries, no skips.
    pub const DEFAULT: SpecsControl<'static> = SpecsControl {
        deadline: Deadline::NONE,
        trial_deadline: None,
        max_attempts: 1,
        skip: None,
    };
}

impl Default for SpecsControl<'static> {
    fn default() -> Self {
        SpecsControl::DEFAULT
    }
}

/// A trial that kept panicking on its own seed and was set aside so the
/// rest of the sweep could finish.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedTrial {
    /// Index into the spec list passed to [`run_specs_ctl`].
    pub spec: usize,
    /// The trial index within that spec.
    pub trial: u64,
    /// The recorded failure (message + attempt count).
    pub failure: TrialFailure,
}

/// Partial, typed result of [`run_specs_ctl`].
#[derive(Debug)]
pub struct SpecsRun {
    /// Per-spec, per-trial results in spec/trial order. `None` means the
    /// trial was skipped (resume) or never started (deadline/quarantine);
    /// every `Some` is a completed, deterministic result.
    pub results: Vec<TrialSlots>,
    /// Trials that exhausted their same-seed retry budget, in
    /// (spec, trial) order.
    pub quarantined: Vec<QuarantinedTrial>,
    /// The run-level deadline (or cancellation flag) fired and cut the
    /// sweep short. Partial results were reported, never silently clipped.
    pub deadline_hit: bool,
}

/// Partial, typed result of [`run_cells_ctl`].
#[derive(Debug)]
pub struct CellsRun<T> {
    /// Per-cell results in list order; `None` = skipped or cut off.
    pub results: Vec<Option<T>>,
    /// The deadline (or cancellation flag) fired before all cells ran.
    pub deadline_hit: bool,
}

/// The worker pool: applies `f` to every index in `0..total` and returns
/// the results in index order — `None` where `f` declined the index or the
/// deadline stopped the pool before running it — plus whether the deadline
/// fired.
///
/// Workers claim one index at a time from an atomic cursor and keep
/// `(index, value)` pairs locally, merged once at the end: no shared
/// results lock, and the output is independent of thread count and
/// scheduling. The deadline is checked after each claim, before the index
/// runs, so an in-flight unit always finishes. Spawned workers set the
/// runner's `IN_WORKER` flag; with one thread `f` runs on the caller's
/// thread. A panic in `f` propagates.
pub(crate) fn run_pool<T, F>(
    total: usize,
    parallelism: Parallelism,
    deadline: &Deadline,
    f: F,
) -> (Vec<Option<T>>, bool)
where
    T: Send,
    F: Fn(usize) -> Option<T> + Sync,
{
    let threads = parallelism.threads().min(total.max(1));
    let bounded = !deadline.is_unbounded();
    let hit = AtomicBool::new(false);
    let cursor = AtomicUsize::new(0);
    let work = |collected: &mut Vec<(usize, T)>| loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= total {
            return;
        }
        if bounded && (hit.load(Ordering::Relaxed) || deadline.exceeded()) {
            hit.store(true, Ordering::Relaxed);
            return;
        }
        if let Some(value) = f(i) {
            collected.push((i, value));
        }
    };

    let mut per_worker: Vec<Vec<(usize, T)>> = Vec::with_capacity(threads);
    per_worker.resize_with(threads, Vec::new);
    if threads == 1 {
        work(&mut per_worker[0]);
    } else {
        std::thread::scope(|scope| {
            for collected in &mut per_worker {
                scope.spawn(|| {
                    enter_worker();
                    work(collected)
                });
            }
        });
    }

    let mut slots: Vec<Option<T>> = Vec::with_capacity(total);
    slots.resize_with(total, || None);
    for (i, value) in per_worker.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "index {i} claimed twice");
        slots[i] = Some(value);
    }
    (slots, hit.load(Ordering::Relaxed))
}

/// Deterministic parallel map over a heterogeneous work list: applies `f`
/// to every element of `items` and returns the results **in list order**,
/// independent of thread count or scheduling.
///
/// The shard unit is one element (a conformance cell, a perf scenario);
/// distribution is dynamic, so expensive cells next to cheap ones balance
/// across workers. Workers set the runner's `IN_WORKER` flag, so
/// `Parallelism::Auto` inside `f` degrades to sequential. A panic in `f`
/// propagates and aborts the map.
pub fn run_cells<I, T, F>(items: &[I], parallelism: Parallelism, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    run_cells_ctl(items, parallelism, &Deadline::NONE, None, f)
        .results
        .into_iter()
        .map(|v| v.expect("unbounded, skip-free run: every cell completed"))
        .collect()
}

/// [`run_cells`] with a cooperative deadline and a resume-skip predicate.
///
/// The deadline is checked before *starting* each cell — an in-flight
/// cell always finishes, so every `Some` in the result is a complete,
/// deterministic value safe to journal. `skip(i) == true` elides cell `i`
/// entirely (its slot stays `None`); remaining cells are unperturbed.
pub fn run_cells_ctl<I, T, F>(
    items: &[I],
    parallelism: Parallelism,
    deadline: &Deadline,
    skip: Option<&(dyn Fn(usize) -> bool + Sync)>,
    f: F,
) -> CellsRun<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    let (results, deadline_hit) = run_pool(items.len(), parallelism, deadline, |i| {
        (!skip.is_some_and(|s| s(i))).then(|| f(i, &items[i]))
    });
    CellsRun {
        results,
        deadline_hit,
    }
}

/// Runs every trial of every spec through one global work-stealing pool
/// under a [`SpecsControl`] — cooperative deadlines, resume skips, and a
/// bounded same-seed retry-then-quarantine policy for panicking trials —
/// and returns the tolerant per-trial results grouped by spec, in spec
/// and trial order, with **partial results reported**, never a silent
/// clip.
///
/// The work list is the disjoint union of all specs' trial ranges (prefix
/// sums map a global index back to `(spec, trial)`), so workers steal
/// across cell boundaries: a sweep whose last cell is 10× the others keeps
/// every core busy until the true end of the work, which cell-granular
/// sharding cannot. Every trial runs on the exact
/// [`run_batch_raw`](ScenarioSpec::run_batch_raw) seed derivation
/// (retries re-create the RNG from the *same* child seed), so whatever
/// subset completes is bit-identical to the corresponding trials of a
/// per-spec `run_batch_raw` at any thread count.
pub fn run_specs_ctl(
    specs: &[ScenarioSpec],
    parallelism: Parallelism,
    ctl: &SpecsControl<'_>,
) -> SpecsRun {
    // offsets[k] = first global index of spec k; offsets[len] = total.
    let mut offsets: Vec<u64> = Vec::with_capacity(specs.len() + 1);
    let mut total = 0u64;
    for spec in specs {
        offsets.push(total);
        total += spec.trials;
    }
    offsets.push(total);
    let locate = |g: u64| {
        let cell = offsets.partition_point(|&o| o <= g) - 1;
        (cell, g - offsets[cell])
    };

    let total = usize::try_from(total).expect("trial count fits in usize");
    let (flat, deadline_hit) = run_pool(total, parallelism, &ctl.deadline, |g| {
        let (cell, trial) = locate(g as u64);
        if ctl.skip.is_some_and(|s| s(cell, trial)) {
            return None;
        }
        let spec = &specs[cell];
        let seed = SeedSequence::new(spec.seeds.master).child(trial);
        Some(run_with_retries(seed, trial, ctl.max_attempts, |rng| {
            let trial_dl = ctl
                .trial_deadline
                .map(Deadline::after)
                .unwrap_or(Deadline::NONE);
            spec.run_trial_ctl(trial, rng, &trial_dl)
        }))
    });

    let mut results: Vec<TrialSlots> = specs
        .iter()
        .map(|spec| Vec::with_capacity(spec.trials as usize))
        .collect();
    let mut quarantined = Vec::new();
    for (g, slot) in flat.into_iter().enumerate() {
        let (spec, trial) = locate(g as u64);
        results[spec].push(match slot {
            Some(Ok(result)) => Some(result),
            Some(Err(failure)) => {
                quarantined.push(QuarantinedTrial {
                    spec,
                    trial,
                    failure,
                });
                None
            }
            None => None,
        });
    }
    SpecsRun {
        results,
        quarantined,
        deadline_hit,
    }
}

/// Runs one trial with a bounded **same-seed** retry policy: each attempt
/// re-creates the RNG from the same derived child seed, so a success on
/// any attempt is byte-identical to a first-try success and no other
/// trial's stream moves. After `max_attempts` panics (`0` treated as
/// `1`), the trial is given up with the attempt count recorded.
fn run_with_retries<T>(
    seed: u64,
    trial: u64,
    max_attempts: u32,
    run: impl Fn(&mut RcbRng) -> T,
) -> Result<T, TrialFailure> {
    let max_attempts = max_attempts.max(1);
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let mut rng = RcbRng::new(seed);
        match catch_unwind(AssertUnwindSafe(|| run(&mut rng))) {
            Ok(value) => return Ok(value),
            Err(payload) if attempt >= max_attempts => {
                let mut failure = TrialFailure::new(trial, panic_payload(payload));
                failure.attempts = attempt;
                return Err(failure);
            }
            Err(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::scenario::{fnv1a, AdversarySpec, DuelProtocol, Engine, Workload, FNV_OFFSET};

    /// A heterogeneous spec list: jammed fast duel, faulted duel, fast
    /// broadcast, exact-engine duel — mixed workloads, engines, fault
    /// plans, trial counts, and masters.
    fn mixed_specs() -> Vec<ScenarioSpec> {
        let jammed = AdversarySpec::Budgeted {
            budget: 1024,
            fraction: 1.0,
        };
        vec![
            ScenarioSpec::duel(DuelProtocol::fig1(0.1, 7))
                .with_adversary(jammed)
                .with_trials(19)
                .with_seed(11),
            ScenarioSpec::duel(DuelProtocol::fig1(0.1, 7))
                .with_adversary(jammed)
                .with_faults(FaultPlan::none().with_loss(0.1).with_skew(1, 1))
                .with_trials(7)
                .with_seed(12),
            ScenarioSpec::broadcast(5)
                .with_adversary(AdversarySpec::Budgeted {
                    budget: 256,
                    fraction: 1.0,
                })
                .with_trials(6)
                .with_seed(13),
            ScenarioSpec::duel(DuelProtocol::fig1(0.05, 6))
                .with_engine(Engine::Exact)
                .with_adversary(AdversarySpec::Budgeted {
                    budget: 512,
                    fraction: 1.0,
                })
                .with_trials(3)
                .with_seed(14),
        ]
    }

    /// Every trial of every spec: no deadline, no skips, no quarantine.
    fn run_all(specs: &[ScenarioSpec], parallelism: Parallelism) -> Vec<TrialSlots> {
        let run = run_specs_ctl(specs, parallelism, &SpecsControl::DEFAULT);
        assert!(!run.deadline_hit && run.quarantined.is_empty());
        run.results
    }

    #[test]
    fn run_specs_is_bit_identical_across_parallelism() {
        let specs = mixed_specs();
        let one = run_all(&specs, Parallelism::Fixed(1));
        let eight = run_all(&specs, Parallelism::Fixed(8));
        let auto = run_all(&specs, Parallelism::Auto);
        assert_eq!(one, eight, "Fixed(8) diverged from Fixed(1)");
        assert_eq!(one, auto, "Auto diverged from Fixed(1)");
        // Distinct cells folded distinct outcomes (the perf grid's fold).
        let sums: Vec<u64> = specs
            .iter()
            .zip(&one)
            .map(|(spec, batch)| {
                batch.iter().fold(FNV_OFFSET, |h, trial| {
                    let (outcome, _) = trial.as_ref().expect("every trial ran");
                    fnv1a(h, &[spec.outcome_checksum(outcome)])
                })
            })
            .collect();
        let mut dedup = sums.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(
            dedup.len(),
            sums.len(),
            "cell checksums collided: {sums:x?}"
        );
    }

    #[test]
    fn run_specs_matches_per_spec_run_batch_raw() {
        let specs = mixed_specs();
        let stolen = run_all(&specs, Parallelism::Fixed(4));
        for (spec, batch) in specs.iter().zip(&stolen) {
            let direct: TrialSlots = spec
                .clone()
                .with_parallelism(Parallelism::Fixed(1))
                .run_batch_raw()
                .into_iter()
                .map(Some)
                .collect();
            assert_eq!(batch, &direct, "executor perturbed a trial stream");
        }
    }

    #[test]
    fn run_specs_handles_empty_and_zero_trial_specs() {
        assert!(run_all(&[], Parallelism::Fixed(4)).is_empty());
        let specs = vec![
            ScenarioSpec::duel(DuelProtocol::fig1(0.1, 7)).with_trials(0),
            ScenarioSpec::duel(DuelProtocol::fig1(0.1, 7))
                .with_trials(2)
                .with_seed(5),
        ];
        let out = run_all(&specs, Parallelism::Fixed(4));
        assert_eq!(out.len(), 2);
        assert!(out[0].is_empty());
        assert_eq!(out[1].len(), 2);
    }

    #[test]
    fn run_cells_preserves_order_and_thread_count_independence() {
        let items: Vec<u64> = (0..37).collect();
        let square = |_, &x: &u64| x * x;
        let seq = run_cells(&items, Parallelism::Fixed(1), square);
        let par = run_cells(&items, Parallelism::Fixed(8), square);
        let auto = run_cells(&items, Parallelism::Auto, square);
        assert_eq!(seq, (0..37).map(|x| x * x).collect::<Vec<u64>>());
        assert_eq!(seq, par);
        assert_eq!(seq, auto);
    }

    #[test]
    fn run_cells_on_empty_list_is_empty() {
        let out = run_cells(&[] as &[u64], Parallelism::Auto, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn nested_auto_degrades_inside_cell_workers() {
        // A cell body that runs an Auto batch must stay on the worker's own
        // thread — the executor's workers carry the runner's IN_WORKER flag.
        let spec = ScenarioSpec::duel(DuelProtocol::fig1(0.1, 7))
            .with_trials(4)
            .with_seed(3)
            .with_parallelism(Parallelism::Auto);
        let cells = [0u64, 1, 2, 3];
        let ok = run_cells(&cells, Parallelism::Fixed(2), |_, _| {
            let outer = std::thread::current().id();
            let batch = crate::runner::run_trials(4, 9, Parallelism::Auto, |_, _| {
                std::thread::current().id()
            });
            let inner_stayed = batch.into_iter().all(|id| id == outer);
            // And the batch result itself is unperturbed by the degrade.
            let degraded = spec.run_batch_raw();
            let reference = spec
                .clone()
                .with_parallelism(Parallelism::Fixed(1))
                .run_batch_raw();
            inner_stayed && degraded == reference
        });
        assert!(ok.into_iter().all(|b| b));
    }

    #[test]
    fn uneven_cells_still_merge_in_order() {
        let items: Vec<u64> = (0..24).collect();
        let out = run_cells(&items, Parallelism::Fixed(4), |i, &x| {
            if i % 5 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn an_elapsed_run_deadline_reports_partials_not_a_clip() {
        let specs = mixed_specs();
        let ctl = SpecsControl {
            deadline: Deadline::after(Duration::ZERO),
            trial_deadline: None,
            max_attempts: 1,
            skip: None,
        };
        let run = run_specs_ctl(&specs, Parallelism::Fixed(1), &ctl);
        assert!(run.deadline_hit, "the elapsed deadline must be reported");
        assert!(run.quarantined.is_empty());
        assert_eq!(run.results.len(), specs.len(), "shape is preserved");
        assert!(
            run.results.iter().flatten().all(|t| t.is_none()),
            "no trial starts after an already-elapsed deadline"
        );
    }

    #[test]
    fn a_latched_cancel_flag_stops_the_sweep_between_trials() {
        static FLAG: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
        FLAG.store(true, Ordering::Relaxed);
        let specs = mixed_specs();
        let ctl = SpecsControl {
            deadline: Deadline::NONE.with_cancel(&FLAG),
            trial_deadline: None,
            max_attempts: 1,
            skip: None,
        };
        let run = run_specs_ctl(&specs, Parallelism::Fixed(2), &ctl);
        assert!(run.deadline_hit);
        assert!(run.results.iter().flatten().all(|t| t.is_none()));
    }

    #[test]
    fn skip_predicate_resumes_bit_identically_to_a_straight_run() {
        let specs = mixed_specs();
        let straight = run_all(&specs, Parallelism::Fixed(2));
        // Simulate a resume where every even trial is already journaled.
        let skip = |_spec: usize, trial: u64| trial.is_multiple_of(2);
        let ctl = SpecsControl {
            deadline: Deadline::NONE,
            trial_deadline: None,
            max_attempts: 1,
            skip: Some(&skip),
        };
        let run = run_specs_ctl(&specs, Parallelism::Fixed(2), &ctl);
        assert!(!run.deadline_hit);
        for (s, batch) in run.results.iter().enumerate() {
            for (t, slot) in batch.iter().enumerate() {
                if t % 2 == 0 {
                    assert!(slot.is_none(), "spec {s} trial {t} was journaled");
                } else {
                    assert_eq!(
                        slot, &straight[s][t],
                        "spec {s} trial {t}: resume perturbed the seed fold"
                    );
                }
            }
        }
    }

    #[test]
    fn a_small_batch_spreads_over_every_worker() {
        // Eight trials on two workers: while one worker holds trial 0, the
        // other must claim trial 1. The skip predicate runs on the worker
        // that claimed the trial, so it records which threads ran trials;
        // trial 0 waits (bounded) until a second thread shows up.
        use std::collections::HashSet;
        use std::sync::{Condvar, Mutex};
        let specs = vec![ScenarioSpec::duel(DuelProtocol::fig1(0.1, 7))
            .with_trials(8)
            .with_seed(21)];
        let seen = Mutex::new(HashSet::new());
        let arrived = Condvar::new();
        let skip = |_spec: usize, trial: u64| {
            let mut threads = seen.lock().expect("no test thread panics");
            threads.insert(std::thread::current().id());
            arrived.notify_all();
            if trial == 0 {
                let _ = arrived
                    .wait_timeout_while(threads, Duration::from_secs(10), |t| t.len() < 2)
                    .expect("no test thread panics");
            }
            false
        };
        let ctl = SpecsControl {
            skip: Some(&skip),
            ..SpecsControl::DEFAULT
        };
        let run = run_specs_ctl(&specs, Parallelism::Fixed(2), &ctl);
        assert!(run.results[0].iter().all(Option::is_some));
        let threads = seen.lock().expect("no test thread panics").len();
        assert_eq!(threads, 2, "an 8-trial batch ran on {threads} worker(s)");
    }

    #[test]
    fn a_trial_deadline_yields_typed_deadline_errors() {
        let specs = vec![ScenarioSpec::duel(DuelProtocol::fig1(0.1, 7))
            .with_trials(3)
            .with_seed(1)];
        let ctl = SpecsControl {
            deadline: Deadline::NONE,
            trial_deadline: Some(Duration::ZERO),
            max_attempts: 1,
            skip: None,
        };
        let run = run_specs_ctl(&specs, Parallelism::Fixed(1), &ctl);
        assert!(!run.deadline_hit, "the run-level deadline never fired");
        for slot in &run.results[0] {
            let (_, err) = slot.as_ref().expect("deadline-cut trials still report");
            assert!(
                matches!(err, Some(SimError::DeadlineExceeded { .. })),
                "expected a typed deadline error, got {err:?}"
            );
        }
    }

    #[test]
    fn retries_rerun_the_same_seed_then_quarantine() {
        use std::sync::atomic::AtomicU32;
        // Flaky once: the second attempt must replay the identical stream.
        let calls = AtomicU32::new(0);
        let ok = run_with_retries(77, 3, 3, |rng| {
            if calls.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("flaky once");
            }
            rng.below(1 << 30)
        })
        .expect("the second same-seed attempt succeeds");
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        assert_eq!(
            ok,
            RcbRng::new(77).below(1 << 30),
            "a retry must not advance the trial's RNG stream"
        );

        // Deterministic panic: exhaust the budget, then quarantine.
        let always: Result<u64, TrialFailure> =
            run_with_retries(77, 3, 3, |_| panic!("always broken"));
        let failure = always.expect_err("every attempt panicked");
        assert_eq!(failure.trial, 3);
        assert_eq!(failure.attempts, 3);
        assert!(failure.payload.contains("always broken"));
        assert!(failure.to_string().contains("3 same-seed attempts"));
    }

    #[test]
    fn a_panicking_spec_is_quarantined_and_its_neighbours_run_clean() {
        // The middle spec names a source outside the population, so every
        // one of its trials panics (`run_specs_ctl` does not call
        // `validate`; the debug assertion in `run_trial_ctl` or, in release
        // builds, the engine rejects it). Its trials are retried, then
        // quarantined; the specs on either side are untouched.
        let broken = {
            let mut s = ScenarioSpec::broadcast(4).with_trials(3).with_seed(8);
            if let Workload::Broadcast(w) = &mut s.workload {
                w.sources = vec![4];
            }
            s
        };
        let specs = vec![
            ScenarioSpec::duel(DuelProtocol::fig1(0.1, 7))
                .with_trials(5)
                .with_seed(7),
            broken,
            ScenarioSpec::broadcast(5).with_trials(4).with_seed(9),
        ];
        let ctl = SpecsControl {
            max_attempts: 2,
            ..SpecsControl::DEFAULT
        };
        let run = run_specs_ctl(&specs, Parallelism::Fixed(2), &ctl);
        assert!(!run.deadline_hit);

        let quarantined: Vec<(usize, u64)> =
            run.quarantined.iter().map(|q| (q.spec, q.trial)).collect();
        assert_eq!(quarantined, vec![(1, 0), (1, 1), (1, 2)]);
        for q in &run.quarantined {
            assert_eq!(q.failure.trial, q.trial);
            assert_eq!(q.failure.attempts, 2, "retried on its own seed first");
        }
        assert_eq!(run.results[1], vec![None, None, None]);

        for s in [0, 2] {
            let direct: TrialSlots = specs[s]
                .clone()
                .with_parallelism(Parallelism::Fixed(1))
                .run_batch_raw()
                .into_iter()
                .map(Some)
                .collect();
            assert_eq!(run.results[s], direct, "spec {s} was perturbed");
        }
    }

    #[test]
    fn run_cells_ctl_skips_and_deadlines_report_partials() {
        let items: Vec<u64> = (0..8).collect();
        let skip = |i: usize| i.is_multiple_of(3);
        let run = run_cells_ctl(
            &items,
            Parallelism::Fixed(2),
            &Deadline::NONE,
            Some(&skip),
            |_, &x| x * 10,
        );
        assert!(!run.deadline_hit);
        for (i, slot) in run.results.iter().enumerate() {
            if i.is_multiple_of(3) {
                assert!(slot.is_none());
            } else {
                assert_eq!(*slot, Some(i as u64 * 10));
            }
        }

        let cut = run_cells_ctl(
            &items,
            Parallelism::Fixed(2),
            &Deadline::after(Duration::ZERO),
            None,
            |_, &x| x,
        );
        assert!(cut.deadline_hit);
        assert!(cut.results.iter().all(|s| s.is_none()));
    }

    #[test]
    fn cell_panics_propagate() {
        let items = [0u64, 1, 2];
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_cells(&items, Parallelism::Fixed(1), |i, _| {
                if i == 1 {
                    panic!("boom in cell {i}");
                }
                i
            })
        }));
        let payload = caught.expect_err("the panic must propagate");
        let msg = panic_payload(payload);
        assert!(msg.contains("boom in cell 1"), "got: {msg}");
    }
}
