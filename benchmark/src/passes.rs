//! Untraced passes over one batch through the production entry points:
//! the front door (`ScenarioSpec::run_trial_raw`, one trial at a time) and
//! the executor's worker pool (`run_specs_ctl`, the pool under the
//! experiments' sweeps).

use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use rcb_mathkit::rng::SeedSequence;
use rcb_sim::deadline::Deadline;
use rcb_sim::executor::{run_specs_ctl, SpecsControl};
use rcb_sim::runner::Parallelism;
use rcb_sim::scenario::{fnv1a, Outcome, ScenarioSpec, FNV_OFFSET};

use crate::stats::Tally;

/// Same-seed attempts per trial before quarantine, as in the experiments'
/// sweeps.
const SWEEP_MAX_ATTEMPTS: u32 = 2;

/// One pass over a batch.
#[derive(Debug, Clone)]
pub struct Batch {
    /// FNV-1a fold of every trial's `outcome_checksum`, in spec and trial
    /// order.
    pub fold: u64,
    /// Simulated slots over all trials.
    pub slots: u64,
    pub wall: Duration,
    pub tally: Tally,
}

/// Folds one trial's outcome into a batch checksum.
pub fn fold_trial(h: u64, spec: &ScenarioSpec, outcome: &Outcome) -> u64 {
    fnv1a(h, &[spec.outcome_checksum(outcome)])
}

/// Number of trials in a batch.
pub fn batch_trials(specs: &[ScenarioSpec]) -> usize {
    specs.iter().map(|s| s.trials as usize).sum()
}

/// Runs trial `trial` of `spec` through the front door on its own stream.
pub fn front_door_trial(spec: &ScenarioSpec, trial: u64) -> (Outcome, bool) {
    let mut rng = SeedSequence::new(spec.seeds.master).rng(trial);
    let (outcome, err) = spec.run_trial_raw(trial, &mut rng);
    (outcome, err.is_none())
}

/// Serial front-door pass. Writes each trial's host time, in nanoseconds,
/// to `trial_ns` (indexed in batch order).
pub fn front_door(specs: &[ScenarioSpec], trial_ns: &mut [u64]) -> Batch {
    let mut fold = FNV_OFFSET;
    let mut slots = 0;
    let mut tally = Tally::default();
    let start = Instant::now();
    let mut last = start;
    let mut k = 0;
    for spec in specs {
        for trial in 0..spec.trials {
            let (outcome, ok) = front_door_trial(spec, trial);
            fold = fold_trial(fold, spec, &outcome);
            slots += outcome.slots();
            tally.record(ok);
            let now = Instant::now();
            trial_ns[k] = (now - last).as_nanos() as u64;
            last = now;
            k += 1;
        }
    }
    Batch {
        fold,
        slots,
        wall: last - start,
        tally,
    }
}

/// Executor pass on `threads` workers. Per-trial host times are read from
/// outside the pool: the executor calls its resume predicate on the worker
/// thread immediately before each trial, so a predicate that records the
/// time and never skips marks every trial's start. A trial ends where the
/// next one on the same thread starts; the last trial on each thread ends
/// when the pool returns, so it also absorbs the other workers' tail.
pub fn pool(specs: &[ScenarioSpec], threads: usize, trial_ns: &mut [u64]) -> Batch {
    let starts: Mutex<Vec<(ThreadId, usize, u64, Instant)>> =
        Mutex::new(Vec::with_capacity(batch_trials(specs)));
    let probe = |spec: usize, trial: u64| {
        let now = Instant::now();
        starts
            .lock()
            .expect("no code panics while holding the probe lock")
            .push((std::thread::current().id(), spec, trial, now));
        false
    };
    let ctl = SpecsControl {
        deadline: Deadline::NONE,
        trial_deadline: None,
        max_attempts: SWEEP_MAX_ATTEMPTS,
        skip: Some(&probe),
    };
    let start = Instant::now();
    let run = run_specs_ctl(specs, Parallelism::Fixed(threads), &ctl);
    let end = Instant::now();

    let offsets: Vec<usize> = specs
        .iter()
        .scan(0, |acc, s| {
            let first = *acc;
            *acc += s.trials as usize;
            Some(first)
        })
        .collect();
    let mut workers: Vec<ThreadId> = Vec::new();
    let mut starts: Vec<(usize, Instant, usize, u64)> = starts
        .into_inner()
        .expect("probe lock is never poisoned")
        .into_iter()
        .map(|(thread, spec, trial, at)| {
            let worker = workers
                .iter()
                .position(|&w| w == thread)
                .unwrap_or_else(|| {
                    workers.push(thread);
                    workers.len() - 1
                });
            (worker, at, spec, trial)
        })
        .collect();
    starts.sort_unstable_by_key(|&(worker, at, _, _)| (worker, at));
    for (i, &(worker, at, spec, trial)) in starts.iter().enumerate() {
        let next = starts
            .get(i + 1)
            .filter(|n| n.0 == worker)
            .map_or(end, |n| n.1);
        trial_ns[offsets[spec] + trial as usize] = (next - at).as_nanos() as u64;
    }

    let mut fold = FNV_OFFSET;
    let mut slots = 0;
    for (spec, results) in specs.iter().zip(&run.results) {
        for (outcome, _) in results.iter().flatten() {
            fold = fold_trial(fold, spec, outcome);
            slots += outcome.slots();
        }
    }
    Batch {
        fold,
        slots,
        wall: end - start,
        tally: Tally::of_pool_run(&run),
    }
}
