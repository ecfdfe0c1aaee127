//! Cooperative deadlines.
//!
//! A [`Deadline`] is an optional wall-clock expiry. It is threaded *by
//! reference* through the executor work loops and the engine slot loops;
//! each checkpoint calls [`Deadline::exceeded`], which consumes **no RNG**
//! — so an unbounded deadline is a byte-identical no-op on every seeded
//! code path, and a bounded one only changes *where* a run stops, never
//! what any completed trial computes.
//!
//! Two granularities exist, with different determinism contracts:
//!
//! * **Run-level** (executor): checked *between* trials/cells. Work in
//!   flight finishes normally, so every completed result is bit-identical
//!   to the same trial in an uninterrupted run and safe to journal.
//! * **Trial-level** (engine slot loops): checked inside the hot loop at a
//!   coarse cadence. A trial cut off mid-flight reports
//!   `SimError::DeadlineExceeded` with its partial outcome; where it stops
//!   depends on wall-clock speed, so such results are *never* journaled —
//!   a resume re-runs them from the seed fold.
//!
//! Signals are not a deadline: the journal appends each trial as it
//! finishes, so a run killed by any signal keeps every finished trial.

use std::time::{Duration, Instant};

/// A cooperative wall-clock expiry, or none. `Copy`, cheap to pass by
/// value or reference.
#[derive(Debug, Clone, Copy, Default)]
pub struct Deadline {
    expires_at: Option<Instant>,
}

impl Deadline {
    /// The unbounded deadline: never expires.
    pub const NONE: Deadline = Deadline { expires_at: None };

    /// Expires `budget` from now. A budget past the clock's range never
    /// expires.
    pub fn after(budget: Duration) -> Deadline {
        Deadline {
            expires_at: Instant::now().checked_add(budget),
        }
    }

    /// `true` when no expiry is set — callers use this to skip checkpoint
    /// overhead entirely on the default path.
    pub fn is_unbounded(&self) -> bool {
        self.expires_at.is_none()
    }

    /// Has the deadline passed?
    #[inline]
    pub fn exceeded(&self) -> bool {
        self.expires_at.is_some_and(|t| Instant::now() >= t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_deadline_never_fires() {
        let d = Deadline::NONE;
        assert!(d.is_unbounded());
        assert!(!d.exceeded());
    }

    #[test]
    fn elapsed_deadline_fires() {
        let d = Deadline::after(Duration::ZERO);
        assert!(!d.is_unbounded());
        assert!(d.exceeded());
        let far = Deadline::after(Duration::from_secs(3600));
        assert!(!far.exceeded());
    }

    #[test]
    fn a_budget_past_the_clock_never_expires() {
        let d = Deadline::after(Duration::MAX);
        assert!(d.is_unbounded());
        assert!(!d.exceeded());
    }
}
