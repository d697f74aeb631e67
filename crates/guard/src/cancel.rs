//! Cooperative cancellation: [`CancelToken`] and the [`GuardError`] it
//! (and [`crate::trap`]) surface.
//!
//! A token is checked at coarse boundaries — miner cells, exec chunks,
//! sweep grid points — never per candidate, so the live-token fast path
//! (one relaxed atomic load) is unmeasurable next to the work it bounds.
//! Deadlines read [`Instant`]; tokens therefore never influence *what* a
//! run computes, only *whether it finishes* — results from a completed
//! guarded run are byte-identical to a run without a token.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a guarded operation stopped early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GuardError {
    /// [`CancelToken::cancel`] was called.
    Cancelled,
    /// The token's deadline passed.
    TimedOut,
    /// A panic was trapped by [`crate::trap`] and converted.
    Panicked {
        /// The trap site (e.g. `"mine"`, `"sweep"`).
        site: String,
        /// The panic payload's message.
        message: String,
    },
}

impl fmt::Display for GuardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GuardError::Cancelled => write!(f, "operation cancelled"),
            GuardError::TimedOut => write!(f, "operation deadline exceeded"),
            GuardError::Panicked { site, message } => {
                write!(f, "panic trapped at {site}: {message}")
            }
        }
    }
}

impl std::error::Error for GuardError {}

const LIVE: u8 = 0;
const CANCELLED: u8 = 1;
const TIMED_OUT: u8 = 2;

struct Inner {
    state: AtomicU8,
    deadline: Option<Instant>,
    /// Test tooling: remaining [`CancelToken::check`] calls before the
    /// token cancels itself (deterministic mid-run cancellation).
    budget: Option<AtomicU64>,
}

/// Cloneable cooperative-cancellation handle: an atomic flag plus an
/// optional deadline. All clones share one state — cancelling any clone
/// interrupts every holder at its next [`CancelToken::check`].
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CancelToken")
            .field("state", &self.inner.state.load(Ordering::Relaxed))
            .field("deadline", &self.inner.deadline)
            .finish()
    }
}

impl CancelToken {
    fn with_inner(deadline: Option<Instant>, budget: Option<u64>) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                state: AtomicU8::new(LIVE),
                deadline,
                budget: budget.map(AtomicU64::new),
            }),
        }
    }

    /// A live token with no deadline; interrupts only via
    /// [`CancelToken::cancel`].
    pub fn new() -> Self {
        Self::with_inner(None, None)
    }

    /// A token that times out `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Self {
        Self::with_inner(Instant::now().checked_add(timeout), None)
    }

    /// Test tooling: a token that cancels itself on its `checks`-th
    /// [`CancelToken::check`] call — deterministic mid-run cancellation
    /// without clocks or races (run single-threaded for a reproducible
    /// interruption point).
    pub fn cancel_after(checks: u64) -> Self {
        Self::with_inner(None, Some(checks))
    }

    /// Cancel: every subsequent [`CancelToken::check`] on any clone fails
    /// with [`GuardError::Cancelled`]. Idempotent; never upgrades an
    /// already-timed-out token back to plain cancellation.
    pub fn cancel(&self) {
        let _ = self.inner.state.compare_exchange(
            LIVE,
            CANCELLED,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// Has the token been cancelled or timed out? (Does not probe the
    /// deadline; only [`CancelToken::check`] does.)
    pub fn is_interrupted(&self) -> bool {
        self.inner.state.load(Ordering::Relaxed) != LIVE
    }

    /// The boundary check: `Ok(())` while live, [`GuardError::Cancelled`] /
    /// [`GuardError::TimedOut`] once interrupted. The live fast path is one
    /// relaxed atomic load (plus one `Instant` read when a deadline is
    /// set).
    pub fn check(&self) -> Result<(), GuardError> {
        match self.inner.state.load(Ordering::Relaxed) {
            CANCELLED => return Err(GuardError::Cancelled),
            TIMED_OUT => return Err(GuardError::TimedOut),
            _ => {}
        }
        if let Some(budget) = &self.inner.budget {
            // Saturating countdown: the transition to zero cancels.
            let before = budget
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                    Some(v.saturating_sub(1))
                })
                .unwrap_or(0);
            if before <= 1 {
                self.inner.state.store(CANCELLED, Ordering::Relaxed);
                return Err(GuardError::Cancelled);
            }
        }
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                self.inner.state.store(TIMED_OUT, Ordering::Relaxed);
                return Err(GuardError::TimedOut);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_token_checks_ok() {
        let t = CancelToken::new();
        for _ in 0..1000 {
            assert!(t.check().is_ok());
        }
        assert!(!t.is_interrupted());
    }

    #[test]
    fn cancel_interrupts_every_clone() {
        let t = CancelToken::new();
        let clone = t.clone();
        t.cancel();
        assert_eq!(clone.check(), Err(GuardError::Cancelled));
        assert!(t.is_interrupted());
        // Idempotent.
        t.cancel();
        assert_eq!(t.check(), Err(GuardError::Cancelled));
    }

    #[test]
    fn deadline_times_out() {
        let t = CancelToken::with_timeout(Duration::from_nanos(1));
        // The deadline is in the past by the time we check.
        std::hint::spin_loop();
        while t.check().is_ok() {}
        assert_eq!(t.check(), Err(GuardError::TimedOut));
        // Cancelling after a timeout keeps the timeout verdict.
        t.cancel();
        assert_eq!(t.check(), Err(GuardError::TimedOut));
    }

    #[test]
    fn generous_deadline_stays_live() {
        let t = CancelToken::with_timeout(Duration::from_secs(3600));
        assert!(t.check().is_ok());
    }

    #[test]
    fn cancel_after_counts_checks() {
        let t = CancelToken::cancel_after(3);
        assert!(t.check().is_ok());
        assert!(t.check().is_ok());
        assert_eq!(t.check(), Err(GuardError::Cancelled));
        assert_eq!(t.check(), Err(GuardError::Cancelled));
    }

    #[test]
    fn errors_render() {
        assert_eq!(GuardError::Cancelled.to_string(), "operation cancelled");
        assert_eq!(
            GuardError::TimedOut.to_string(),
            "operation deadline exceeded"
        );
        let p = GuardError::Panicked {
            site: "mine".into(),
            message: "boom".into(),
        };
        assert_eq!(p.to_string(), "panic trapped at mine: boom");
    }
}
