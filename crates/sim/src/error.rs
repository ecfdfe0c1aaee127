//! Typed harness failures: budget exhaustion and poisoned trials.
//!
//! An outcome's `truncated` flag alone is easy to average over silently.
//! Every run path ([`Session::run`](crate::session::Session::run),
//! [`ScenarioSpec::run_trial_raw`](crate::scenario::ScenarioSpec::run_trial_raw)
//! and the executor built on them) returns the outcome next to an optional
//! [`SimError`], so sweeps can route a runaway cell to an error column
//! instead of folding a truncated run into a cost mean.

use std::fmt;

/// An engine hit a hard resource cap before every node halted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// The slot cap was reached with at least one node still running.
    SlotBudgetExhausted {
        /// The configured cap.
        max_slots: u64,
        /// Slots actually executed (= `max_slots` for the exact engine;
        /// the fast engines stop at the end of the period that crossed it).
        slots: u64,
    },
    /// The epoch cap was reached with at least one node still running. The
    /// fast engines bound epochs rather than raw slots (a single epoch-62
    /// phase already exceeds 2^62 slots).
    EpochBudgetExhausted {
        /// The configured cap (the fixed 62 for the duel engine).
        max_epoch: u32,
        /// Slots executed before giving up.
        slots: u64,
    },
    /// A cooperative wall-clock deadline fired before the run finished.
    /// Unlike the budget variants this is *not* deterministic — where the
    /// cut lands depends on machine speed — so results carrying it are
    /// reported but never journaled; a resumed run re-executes them from
    /// the seed fold.
    DeadlineExceeded {
        /// Slots executed before the cancellation checkpoint fired (0 when
        /// the deadline was already exceeded between trials, i.e. the
        /// trial never started).
        slots: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::SlotBudgetExhausted { max_slots, slots } => write!(
                f,
                "slot budget exhausted: {slots} slots executed against a cap of {max_slots} \
                 with nodes still running"
            ),
            SimError::EpochBudgetExhausted { max_epoch, slots } => write!(
                f,
                "epoch budget exhausted: reached epoch cap {max_epoch} after {slots} slots \
                 with nodes still running"
            ),
            SimError::DeadlineExceeded { slots } => write!(
                f,
                "deadline exceeded: cooperative cancellation after {slots} slots \
                 with nodes still running"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// A trial whose closure panicked: re-raised by
/// [`run_trials`](crate::runner::run_trials), quarantined by
/// [`run_specs_ctl`](crate::executor::run_specs_ctl).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialFailure {
    /// The trial index whose closure panicked.
    pub trial: u64,
    /// The stringified panic payload; non-string payloads are rendered as
    /// `TypeName: value` for the probed types (see `runner::panic_payload`).
    pub payload: String,
    /// Same-seed attempts made before giving up (1 = no retry policy).
    pub attempts: u32,
}

impl TrialFailure {
    /// A failure recorded on the first and only attempt.
    pub fn new(trial: u64, payload: String) -> TrialFailure {
        TrialFailure {
            trial,
            payload,
            attempts: 1,
        }
    }
}

impl fmt::Display for TrialFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trial {} panicked: {}", self.trial, self.payload)?;
        if self.attempts > 1 {
            write!(f, " ({} same-seed attempts)", self.attempts)?;
        }
        Ok(())
    }
}

impl std::error::Error for TrialFailure {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_the_caps() {
        let e = SimError::SlotBudgetExhausted {
            max_slots: 10,
            slots: 10,
        };
        assert!(e.to_string().contains("cap of 10"));
        let e = SimError::EpochBudgetExhausted {
            max_epoch: 62,
            slots: 99,
        };
        assert!(e.to_string().contains("62"));
        let e = SimError::DeadlineExceeded { slots: 7 };
        assert!(e.to_string().contains("deadline"));
        let t = TrialFailure::new(3, "boom".into());
        assert!(t.to_string().contains("trial 3"));
        assert!(t.to_string().contains("boom"));
        assert!(!t.to_string().contains("attempts"), "no retry note at 1");
        let t = TrialFailure {
            attempts: 3,
            ..TrialFailure::new(3, "boom".into())
        };
        assert!(t.to_string().contains("3 same-seed attempts"));
    }
}
