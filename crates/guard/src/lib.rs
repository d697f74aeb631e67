//! # flipper-guard
//!
//! The robustness substrate threaded through storage, the exec pool, the
//! miner and sweeps, so that one bit-rotted chunk, one runaway sweep or
//! one panicking worker cannot take the process down. Three primitives, all dependency-free:
//!
//! * [`CancelToken`] — a cloneable cooperative-cancellation handle (atomic
//!   flag + optional deadline) checked at cell/chunk boundaries. Checking
//!   an inert token is one relaxed atomic load, so guarded and unguarded
//!   runs produce byte-identical `flipper-results/v1` output.
//! * [`trap`] — run a closure under `catch_unwind` and convert a panic
//!   into a typed [`GuardError::Panicked`] instead of aborting the caller.
//!   The exec pool joins every worker before the first panic propagates,
//!   so flipper-obs thread-local sheets always flush; `trap` then turns
//!   the resumed panic into an error the session facade can surface.
//! * [`fault`] — deterministic fault injection: a seeded [`FaultPlan`]
//!   armed on one thread (and inherited by the exec workers it
//!   dispatches) injects I/O errors, payload bit-flips,
//!   truncations, worker panics and latency at named sites
//!   (`store.read.section`, `store.write.section`, `exec.chunk`). Every
//!   failure path the release-gated `fault_injection` suite exercises is
//!   reproducible from the plan's seed. Disarmed cost: one relaxed atomic
//!   load per site visit.
//!
//! This crate reads the wall clock ([`std::time::Instant`]) for deadlines —
//! like `flipper_core::stats::Stopwatch` and `flipper_obs::clock` it is a
//! sanctioned timer outside the `flipper-lint` determinism scope; nothing
//! here ever flows into result bytes.
//!
//! ```
//! use flipper_guard::{CancelToken, GuardError};
//!
//! let token = CancelToken::new();
//! assert!(token.check().is_ok());
//! token.cancel();
//! assert_eq!(token.check(), Err(GuardError::Cancelled));
//! ```

pub mod cancel;
pub mod fault;

pub use cancel::{CancelToken, GuardError};
pub use fault::{ArmedPlan, Fault, FaultKind, FaultPlan};

/// Run `f` trapping panics: a panic unwinding out of `f` becomes a typed
/// [`GuardError::Panicked`] carrying `site` and the panic message, instead
/// of unwinding into (and aborting) the caller's pool or server loop.
pub fn trap<T>(site: &str, f: impl FnOnce() -> T) -> Result<T, GuardError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        GuardError::Panicked {
            site: site.to_string(),
            message: panic_message(payload.as_ref()),
        }
    })
}

/// Best-effort extraction of a panic payload's message (`&str` and `String`
/// payloads cover `panic!`/`assert!`; anything else is opaque).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trap_passes_values_through() {
        assert_eq!(trap("t", || 41 + 1), Ok(42));
    }

    #[test]
    fn trap_converts_panics_to_typed_errors() {
        let err = trap("mine", || -> u32 { panic!("boom {}", 7) }).unwrap_err();
        match err {
            GuardError::Panicked { site, message } => {
                assert_eq!(site, "mine");
                assert_eq!(message, "boom 7");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn trap_reports_opaque_payloads() {
        let err = trap("x", || std::panic::panic_any(17u64)).unwrap_err();
        match err {
            GuardError::Panicked { message, .. } => {
                assert_eq!(message, "non-string panic payload");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }
}
