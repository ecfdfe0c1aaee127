//! Parallel Monte-Carlo trial runner.
//!
//! Expected-cost estimates need hundreds of independent executions per
//! parameter cell. [`run_trials`] fans trial indices out over the
//! executor's worker pool ([`crate::executor`]); every trial gets its own
//! deterministic RNG stream derived from `(master_seed, trial_index)` via
//! [`SeedSequence`], so results are bit-identical regardless of thread
//! count or scheduling. This module also owns the thread-count policy
//! ([`Parallelism`]) and the worker flag that makes nested `Auto`
//! parallelism degrade to sequential.

use rcb_mathkit::rng::{RcbRng, SeedSequence};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::deadline::Deadline;
use crate::error::TrialFailure;
use crate::executor::run_pool;

thread_local! {
    /// Set while this OS thread is executing trials as a `run_trials`
    /// worker. Nested runners consult it so that `Parallelism::Auto`
    /// inside a trial closure (the conformance grid does this per cell)
    /// degrades to sequential instead of spawning cores² threads.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as a worker for the rest of its lifetime.
/// Worker threads are short-lived scoped threads, so there is no paired
/// exit: the flag dies with the thread.
pub(crate) fn enter_worker() {
    IN_WORKER.with(|w| w.set(true));
}

/// Whether the current thread is a runner/executor worker.
pub(crate) fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Thread-count policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// One worker per available CPU — or sequential when the caller is
    /// itself a `run_trials` worker (every core is already busy running
    /// sibling trials, so fanning out again only oversubscribes).
    Auto,
    /// Exactly this many workers (1 = sequential). Unlike
    /// [`Auto`](Parallelism::Auto), a
    /// nested `Fixed(n)` is honoured: the caller asked for `n` by name.
    Fixed(usize),
}

impl Parallelism {
    pub(crate) fn threads(self) -> usize {
        match self {
            Parallelism::Auto => {
                if in_worker() {
                    1
                } else {
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1)
                }
            }
            Parallelism::Fixed(n) => n.max(1),
        }
    }
}

/// Runs `trials` independent executions of `f` and returns the results in
/// trial order. `f` receives the trial index and a private RNG.
///
/// Work is distributed dynamically (one trial per claim), so heterogeneous
/// trial durations — long jammed runs next to short clean ones — balance
/// across workers, and the output is a pure function of
/// `(trials, master_seed, f)`. A panicking trial does not stop the others;
/// once all have run, the first failure is re-raised as a panic naming its
/// trial index.
pub fn run_trials<T, F>(trials: u64, master_seed: u64, parallelism: Parallelism, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64, &mut RcbRng) -> T + Sync,
{
    let seeds = SeedSequence::new(master_seed);
    let total = usize::try_from(trials).expect("trial count fits in usize");
    let (results, _) = run_pool(total, parallelism, &Deadline::NONE, |i| {
        let i = i as u64;
        let mut rng = seeds.rng(i);
        Some(
            catch_unwind(AssertUnwindSafe(|| f(i, &mut rng)))
                .map_err(|payload| TrialFailure::new(i, panic_payload(payload))),
        )
    });
    results
        .into_iter()
        .map(|r| match r.expect("an unbounded pool runs every trial") {
            Ok(v) => v,
            Err(failure) => panic!("{failure}"),
        })
        .collect()
}

/// Renders a panic payload the way the default hook does: `&str` and
/// `String` payloads verbatim. Non-string payloads are probed against the
/// types a simulation harness plausibly throws — [`SimError`], I/O
/// errors, numbers — and rendered as `TypeName: value` so the failure
/// report names *what* was thrown instead of collapsing every typed
/// payload to the same opaque line.
pub(crate) fn panic_payload(payload: Box<dyn std::any::Any + Send>) -> String {
    let payload = match payload.downcast::<String>() {
        Ok(s) => return *s,
        Err(p) => p,
    };
    let payload = match payload.downcast::<&'static str>() {
        Ok(s) => return (*s).to_string(),
        Err(p) => p,
    };
    macro_rules! probe {
        ($p:expr, $($ty:ty),+ $(,)?) => {{
            let p = $p;
            $(let p = match p.downcast::<$ty>() {
                Ok(v) => return format!("{}: {}", stringify!($ty), *v),
                Err(p) => p,
            };)+
            p
        }};
    }
    use crate::error::SimError;
    use std::io::Error as IoError;
    let _ = probe!(
        payload,
        SimError,
        TrialFailure,
        IoError,
        i32,
        u32,
        i64,
        u64,
        usize,
        f64,
        bool,
        char,
    );
    "non-string panic payload".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_trial_order() {
        let out = run_trials(100, 7, Parallelism::Fixed(4), |i, _rng| i * 2);
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u64 * 2);
        }
    }

    #[test]
    fn parallel_equals_sequential_for_fixed_seed() {
        let seq = run_trials(64, 99, Parallelism::Fixed(1), |i, rng| {
            (i, rng.f64(), rng.below(1000))
        });
        let par = run_trials(64, 99, Parallelism::Fixed(8), |i, rng| {
            (i, rng.f64(), rng.below(1000))
        });
        assert_eq!(seq, par, "determinism must not depend on thread count");
    }

    #[test]
    fn auto_equals_fixed_for_fixed_seed() {
        let auto = run_trials(48, 2014, Parallelism::Auto, |i, rng| {
            (i, rng.below(1 << 20))
        });
        let one = run_trials(48, 2014, Parallelism::Fixed(1), |i, rng| {
            (i, rng.below(1 << 20))
        });
        let eight = run_trials(48, 2014, Parallelism::Fixed(8), |i, rng| {
            (i, rng.below(1 << 20))
        });
        assert_eq!(auto, one);
        assert_eq!(auto, eight);
    }

    #[test]
    fn different_trials_get_different_streams() {
        let out = run_trials(50, 1, Parallelism::Fixed(2), |_, rng| rng.below(u64::MAX));
        let mut dedup = out.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), out.len());
    }

    #[test]
    fn zero_trials_is_empty() {
        let out = run_trials(0, 1, Parallelism::Auto, |i, _| i);
        assert!(out.is_empty());
    }

    #[test]
    fn auto_parallelism_runs() {
        let out = run_trials(10, 3, Parallelism::Auto, |i, _| i + 1);
        assert_eq!(out.iter().sum::<u64>(), 55);
    }

    #[test]
    fn nested_auto_degrades_to_sequential() {
        // A trial closure that itself calls run_trials with Auto must not
        // fan out again: the nested run stays on the worker's own thread.
        let all_inner_on_worker = run_trials(4, 1, Parallelism::Fixed(2), |_, _| {
            let outer_thread = std::thread::current().id();
            let inner_threads =
                run_trials(8, 2, Parallelism::Auto, |_, _| std::thread::current().id());
            inner_threads.into_iter().all(|id| id == outer_thread)
        });
        assert!(all_inner_on_worker.into_iter().all(|b| b));
    }

    #[test]
    fn nested_auto_results_match_top_level() {
        // Degrading to sequential must not change results (each trial's
        // RNG stream is index-derived, so it cannot) — pin it anyway.
        let nested = run_trials(3, 7, Parallelism::Fixed(2), |_, _| {
            run_trials(16, 11, Parallelism::Auto, |i, rng| (i, rng.f64()))
        });
        let top = run_trials(16, 11, Parallelism::Auto, |i, rng| (i, rng.f64()));
        for inner in nested {
            assert_eq!(inner, top);
        }
    }

    #[test]
    fn run_trials_propagates_trial_panics() {
        let caught = std::panic::catch_unwind(|| {
            run_trials(4, 1, Parallelism::Fixed(1), |i, _rng| {
                if i == 2 {
                    panic!("boom");
                }
                i
            })
        });
        let payload = caught.expect_err("the panic must propagate");
        let msg = super::panic_payload(payload);
        assert!(msg.contains("trial 2"), "got: {msg}");
        assert!(msg.contains("boom"), "got: {msg}");
    }

    #[test]
    fn a_panicking_trial_does_not_stop_or_perturb_the_others() {
        // Four workers, trial 5 panics: every other trial still runs, on
        // the same stream as in a clean run, before the panic is re-raised.
        use std::sync::Mutex;
        let recorded = Mutex::new(Vec::new());
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_trials(16, 42, Parallelism::Fixed(4), |i, rng| {
                if i == 5 {
                    panic!("trial five is broken");
                }
                recorded
                    .lock()
                    .expect("no recording thread panics")
                    .push((i, rng.f64()));
            })
        }));
        let msg = panic_payload(caught.expect_err("the panic must propagate"));
        assert!(msg.contains("trial 5"), "got: {msg}");
        assert!(msg.contains("trial five is broken"), "got: {msg}");

        let mut survivors = recorded.into_inner().expect("no recording thread panics");
        survivors.sort_by_key(|&(i, _)| i);
        let clean: Vec<(u64, f64)> =
            run_trials(16, 42, Parallelism::Fixed(1), |i, rng| (i, rng.f64()))
                .into_iter()
                .filter(|&(i, _)| i != 5)
                .collect();
        assert_eq!(
            survivors, clean,
            "the other 15 trials must match a clean run"
        );
    }

    #[test]
    fn typed_panic_payloads_keep_their_type_names() {
        use crate::error::SimError;
        let payload = |f: fn()| panic_payload(catch_unwind(f).expect_err("f panics"));
        let sim = payload(|| {
            std::panic::panic_any(SimError::SlotBudgetExhausted {
                max_slots: 8,
                slots: 8,
            })
        });
        assert!(
            sim.starts_with("SimError: slot budget exhausted"),
            "got: {sim}"
        );
        assert_eq!(payload(|| std::panic::panic_any(42u64)), "u64: 42");
        // An unprobed type stays opaque.
        assert_eq!(
            payload(|| std::panic::panic_any(vec![1u8])),
            "non-string panic payload"
        );
    }

    #[test]
    fn uneven_workloads_still_order_results() {
        // Long trials next to instant ones: dynamic distribution must not
        // perturb output order.
        let out = run_trials(32, 5, Parallelism::Fixed(4), |i, _| {
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i
        });
        assert_eq!(out, (0..32).collect::<Vec<_>>());
    }
}
