//! Cooperative deadlines and graceful interruption.
//!
//! A [`Deadline`] bundles an optional wall-clock expiry with an optional
//! cancellation flag. It is threaded *by reference* through the executor
//! work loops and the engine slot loops; each checkpoint calls
//! [`Deadline::exceeded`], which consumes **no RNG** — so an unbounded
//! deadline is a byte-identical no-op on every seeded code path, and a
//! bounded one only changes *where* a run stops, never what any completed
//! trial computes.
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
//! [`install_sigint_handler`] latches a process-global flag on the first
//! Ctrl-C (and re-arms the default disposition so a second Ctrl-C
//! force-kills); binaries fold that flag into their run deadline with
//! [`Deadline::with_cancel`] to get finish-in-flight-then-flush semantics.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// A cooperative cancellation token: wall-clock expiry, a shared cancel
/// flag, neither, or both. `Copy`, cheap to pass by value or reference.
#[derive(Debug, Clone, Copy, Default)]
pub struct Deadline {
    expires_at: Option<Instant>,
    cancel: Option<&'static AtomicBool>,
}

impl Deadline {
    /// The unbounded deadline: never expires, never cancelled.
    pub const NONE: Deadline = Deadline {
        expires_at: None,
        cancel: None,
    };

    /// Expires `budget` from now.
    pub fn after(budget: Duration) -> Deadline {
        Deadline {
            expires_at: Some(Instant::now() + budget),
            cancel: None,
        }
    }

    /// Adds a cancellation flag (e.g. the SIGINT latch) to this deadline.
    pub fn with_cancel(mut self, flag: &'static AtomicBool) -> Deadline {
        self.cancel = Some(flag);
        self
    }

    /// `true` when no expiry and no cancel flag are set — callers use this
    /// to skip checkpoint overhead entirely on the default path.
    pub fn is_unbounded(&self) -> bool {
        self.expires_at.is_none() && self.cancel.is_none()
    }

    /// Has the deadline passed or the cancel flag been raised?
    #[inline]
    pub fn exceeded(&self) -> bool {
        if let Some(flag) = self.cancel {
            if flag.load(Ordering::Relaxed) {
                return true;
            }
        }
        match self.expires_at {
            Some(t) => Instant::now() >= t,
            None => false,
        }
    }
}

/// Process-global latch set by the first SIGINT.
static INTERRUPTED: AtomicBool = AtomicBool::new(false);

/// `true` once SIGINT has been received (after
/// [`install_sigint_handler`]).
pub fn interrupted() -> bool {
    INTERRUPTED.load(Ordering::Relaxed)
}

/// Test/driver hook: raise or clear the interrupt latch by hand.
pub fn set_interrupted(value: bool) {
    INTERRUPTED.store(value, Ordering::Relaxed);
}

#[cfg(unix)]
mod sigint {
    use std::sync::atomic::Ordering;

    // std already links libc on unix; declaring `signal` here avoids a
    // dependency on the `libc` crate (the container has no registry
    // access and the vendor tree carries no such stub).
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    const SIGINT: i32 = 2;
    const SIG_DFL: usize = 0;
    const SIG_ERR: usize = usize::MAX;

    extern "C" fn on_sigint(_signum: i32) {
        super::INTERRUPTED.store(true, Ordering::Relaxed);
        // Re-arm the default disposition: the first Ctrl-C requests a
        // graceful finish-and-flush, a second one force-kills. Both calls
        // here are async-signal-safe (an atomic store and `signal`).
        unsafe {
            signal(SIGINT, SIG_DFL);
        }
    }

    pub fn install() -> bool {
        let handler = on_sigint as extern "C" fn(i32) as *const () as usize;
        unsafe { signal(SIGINT, handler) != SIG_ERR }
    }
}

/// Installs the graceful-interrupt handler and returns the latch to fold
/// into a [`Deadline`] via [`Deadline::with_cancel`]. Idempotent. Returns
/// the flag even where no handler can be installed (non-unix), so callers
/// need no platform branches; the flag simply never trips there.
pub fn install_sigint_handler() -> &'static AtomicBool {
    #[cfg(unix)]
    {
        let _ = sigint::install();
    }
    &INTERRUPTED
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
    fn cancel_flag_fires_independent_of_clock() {
        static FLAG: AtomicBool = AtomicBool::new(false);
        let d = Deadline::NONE.with_cancel(&FLAG);
        assert!(!d.is_unbounded());
        assert!(!d.exceeded());
        FLAG.store(true, Ordering::Relaxed);
        assert!(d.exceeded());
        FLAG.store(false, Ordering::Relaxed);
    }

    #[test]
    fn interrupt_latch_reads_back() {
        // Serialise with any other test touching the latch via set/reset.
        set_interrupted(false);
        assert!(!interrupted());
        set_interrupted(true);
        assert!(interrupted());
        set_interrupted(false);
    }
}
