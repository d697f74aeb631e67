//! # flipper-obs
//!
//! Zero-dependency observability substrate for the flipper mining
//! pipeline: structured **spans** recorded into a **capture** that belongs
//! to the thread that opened it (exec workers join the capture of the
//! thread that dispatched them), and one exporter, `flipper-trace/v1` —
//! Chrome trace-event JSON (load in `chrome://tracing` or Perfetto),
//! rendered by [`Capture::render_trace`] and validated by
//! [`validate_trace`]. [`Capture::phase_rows`] sums the same spans per
//! name for `flipper mine --timings`.
//!
//! No capture is open by default. Every instrumentation entry point starts
//! with one thread-local read, so the cost on a thread without a capture
//! is a branch, and two callers tracing on two threads never see each
//! other's spans; the determinism suite proves `flipper-results/v1` bytes
//! are identical with a capture open or not at every thread count. The
//! only module allowed to read wall-clock time is [`mod@clock`], which
//! joins `flipper_core::stats::Stopwatch` as a sanctioned timer outside the
//! `flipper-lint` determinism scope; everything else in this crate is
//! inside that scope.
//!
//! ```
//! flipper_obs::enable(); // opens a capture on this thread
//! {
//!     let _run = flipper_obs::span("demo.run").arg("items", 3);
//!     let _inner = flipper_obs::span("demo.step");
//! }
//! let capture = flipper_obs::drain();
//! flipper_obs::disable();
//! assert_eq!(capture.events.len(), 2);
//! let trace = capture.render_trace();
//! flipper_obs::validate_trace(&trace).unwrap();
//! ```

pub mod clock;
pub mod recorder;
pub mod span;
pub mod trace;

pub use recorder::{
    current_capture, disable, drain, enable, enabled, run_shard, Capture, CaptureRef, PhaseRow,
};
pub use span::{span, span_labeled, Span, SpanEvent};
pub use trace::{render_chrome_trace, validate_trace, TraceError, TraceStats, TRACE_SCHEMA};

#[cfg(test)]
mod tests {
    fn names(capture: &crate::Capture) -> Vec<&'static str> {
        capture.events.iter().map(|e| e.name).collect()
    }

    /// A capture is the opening thread's alone: a thread with no capture,
    /// or a closed one, records nothing while another thread's is open.
    #[test]
    fn disabled_recorder_records_nothing() {
        crate::enable();
        std::thread::scope(|s| {
            s.spawn(|| {
                drop(crate::span("elsewhere"));
                crate::enable();
                crate::disable();
                drop(crate::span("closed"));
                assert!(!crate::enabled() && crate::drain().events.is_empty());
            });
        });
        drop(crate::span("here"));
        let capture = crate::drain();
        crate::disable();
        assert_eq!(names(&capture), ["here"]);
    }

    #[test]
    fn spans_nest_and_drain_in_start_order() {
        crate::enable();
        {
            let _outer = crate::span("outer");
            {
                let _inner = crate::span_labeled("inner", "first");
            }
            {
                let _inner = crate::span("inner");
            }
        }
        let capture = crate::drain();
        crate::disable();
        assert_eq!(capture.events.len(), 3);
        // Sorted by start: outer first even though it closed last.
        assert_eq!(capture.events[0].name, "outer");
        assert_eq!(capture.events[1].name, "inner");
        assert_eq!(capture.events[1].label.as_deref(), Some("first"));
        let outer = &capture.events[0];
        for inner in &capture.events[1..3] {
            assert!(inner.start_ns >= outer.start_ns);
            assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
        }
        // And the rendered trace passes its own validator.
        crate::validate_trace(&capture.render_trace()).unwrap();
    }

    /// A chunk run on the capture's own thread keeps its lane, tags its
    /// spans with the slot, records the queue wait and restores the
    /// thread's untagged sheet afterwards.
    #[test]
    fn run_shard_tags_spans_and_restores() {
        crate::enable();
        let handle = crate::current_capture();
        crate::run_shard(handle.as_ref(), 3, || {
            let _sp = crate::span("work");
        });
        {
            let _sp = crate::span("after");
        }
        let capture = crate::drain();
        crate::disable();
        let event = |name| capture.events.iter().find(|e| e.name == name).unwrap();
        assert!(event("work").args.contains(&("shard", 3)));
        assert!(event("after").args.iter().all(|(k, _)| *k != "shard"));
        let shard = event("exec.shard");
        assert!(shard.args.contains(&("slot", 3)));
        assert!(shard.args.iter().any(|(k, _)| *k == "queue_ns"));
        assert!(capture.events.iter().all(|e| e.lane == 0));
    }

    /// A worker joins its dispatcher's capture on a fresh lane and hands
    /// its events over even when its chunk unwinds; the worker thread is
    /// left without a capture of its own.
    #[test]
    fn a_worker_hands_its_events_to_the_dispatchers_capture_when_it_unwinds() {
        crate::enable();
        {
            let _sp = crate::span("dispatch");
        }
        let handle = crate::current_capture();
        std::thread::scope(|s| {
            s.spawn(|| {
                let caught = std::panic::catch_unwind(|| {
                    crate::run_shard(handle.as_ref(), 1, || {
                        let _sp = crate::span("doomed");
                        panic!("injected worker panic");
                    })
                });
                assert!(caught.is_err());
                assert!(!crate::enabled());
            });
        });
        let capture = crate::drain();
        crate::disable();
        let lanes: Vec<(&str, u32)> = capture.events.iter().map(|e| (e.name, e.lane)).collect();
        assert_eq!(lanes, [("dispatch", 0), ("exec.shard", 1), ("doomed", 1)]);
        crate::validate_trace(&capture.render_trace()).unwrap();
    }

    #[test]
    fn spans_survive_a_caught_panic_and_keep_recording() {
        crate::enable();
        // flipper-guard traps worker panics with catch_unwind; any spans
        // open at the panic site must close during the unwind and leave the
        // thread's sheet usable afterwards.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _outer = crate::span("guarded");
            let _inner = crate::span_labeled("doomed", "unwinds");
            panic!("injected worker panic");
        }));
        assert!(caught.is_err());
        {
            let _sp = crate::span("after");
        }
        let capture = crate::drain();
        crate::disable();
        let names = names(&capture);
        for name in ["guarded", "doomed", "after"] {
            assert!(names.contains(&name), "missing span {name}: {names:?}");
        }
        // The unwound spans still nest properly in the rendered trace.
        crate::validate_trace(&capture.render_trace()).unwrap();
    }

    #[test]
    fn phase_rows_aggregate_by_name() {
        crate::enable();
        for _ in 0..3 {
            let _sp = crate::span("phase.a");
        }
        {
            let _sp = crate::span("phase.b");
        }
        let capture = crate::drain();
        crate::disable();
        let rows = capture.phase_rows();
        assert_eq!(rows.len(), 2);
        let a = rows.iter().find(|r| r.name == "phase.a").unwrap();
        assert_eq!(a.calls, 3);
    }
}
