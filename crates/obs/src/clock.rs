//! The recorder's monotonic clock.
//!
//! This is the **only** module in `flipper-obs` allowed to touch
//! `std::time::Instant`, mirroring `flipper_core::stats::Stopwatch`: both
//! are sanctioned timers that live outside the determinism lint scope
//! because they measure work without ever feeding back into mining
//! results. Every other `flipper-obs` module is covered by the
//! `determinism` rule in `flipper-lint` and must route timestamps through
//! [`now_ns`].
//!
//! Timestamps are nanoseconds since a process-wide epoch pinned by the
//! first reading, which is never taken before a capture is open, so a
//! trace starts near zero. The epoch is the one thing captures share: it
//! keeps every span of a trace on one timeline regardless of which thread
//! recorded it.

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds elapsed since the recorder epoch.
///
/// The first call pins the epoch, so the very first timestamp is 0. The
/// value is monotonic and saturates at `u64::MAX` (~584 years), which is
/// unreachable in practice.
pub fn now_ns() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    let nanos = epoch.elapsed().as_nanos();
    u64::try_from(nanos).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
