//! # flipper-obs
//!
//! Zero-dependency observability substrate for the flipper mining
//! pipeline: a runtime-toggleable recorder with structured **spans**
//! (thread-local sheets, merged lock-free when exec worker scopes exit)
//! and a **metrics registry** (named counters, gauges and log-bucketed
//! integer histograms), with two exporters:
//!
//! * `flipper-trace/v1` — Chrome trace-event JSON (load in
//!   `chrome://tracing` or Perfetto), rendered by
//!   [`Capture::render_trace`] and validated by [`validate_trace`];
//! * `flipper-metrics/v1` — Prometheus-style text exposition, rendered by
//!   [`Capture::render_metrics`].
//!
//! The recorder is **off by default**. Every instrumentation entry point
//! starts with one relaxed atomic load, so the disabled cost is a branch;
//! the determinism suite proves `flipper-results/v1` bytes are identical
//! with the recorder on or off at every thread count. The only module
//! allowed to read wall-clock time is [`mod@clock`], which joins
//! `flipper_core::stats::Stopwatch` as a sanctioned timer outside the
//! `flipper-lint` determinism scope; everything else in this crate is
//! inside that scope.
//!
//! ```
//! flipper_obs::enable();
//! {
//!     let _run = flipper_obs::span("demo.run").arg("items", 3);
//!     let _inner = flipper_obs::span("demo.step");
//!     flipper_obs::counter_add("demo_steps_total", 1);
//! }
//! let capture = flipper_obs::drain();
//! flipper_obs::disable();
//! assert_eq!(capture.events.len(), 2);
//! let trace = capture.render_trace();
//! flipper_obs::validate_trace(&trace).unwrap();
//! ```

pub mod clock;
pub mod metrics;
pub mod recorder;
pub mod span;
pub mod trace;

pub use metrics::{Histogram, MetricsRegistry, HIST_BUCKETS};
pub use recorder::{
    counter_add, disable, drain, enable, enabled, gauge_set, observe, Capture, PhaseRow,
};
pub use span::{event, shard_span, span, span_labeled, stamp, with_shard, Span, SpanEvent};
pub use trace::{
    parse_json, render_chrome_trace, validate_trace, Json, TraceError, TraceStats, TRACE_SCHEMA,
};

#[cfg(test)]
mod tests {
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// The recorder is process-global, so tests that toggle it must not
    /// interleave.
    pub fn recorder_lock() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(Mutex::default)
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let _guard = recorder_lock();
        crate::disable();
        let _ = crate::drain();
        {
            let _sp = crate::span("x");
            crate::counter_add("c", 1);
            crate::observe("h", 2);
            crate::event("e", &[]);
        }
        let capture = crate::drain();
        assert!(capture.events.is_empty());
        assert!(capture.metrics.is_empty());
    }

    #[test]
    fn spans_nest_and_drain_in_start_order() {
        let _guard = recorder_lock();
        crate::enable();
        let _ = crate::drain();
        {
            let _outer = crate::span("outer");
            {
                let _inner = crate::span_labeled("inner", "first");
            }
            {
                let _inner = crate::span("inner");
            }
        }
        crate::event("mark", &[("k", 7)]);
        let capture = crate::drain();
        crate::disable();
        assert_eq!(capture.events.len(), 4);
        // Sorted by start: outer first even though it closed last.
        assert_eq!(capture.events[0].name, "outer");
        assert_eq!(capture.events[1].name, "inner");
        assert_eq!(capture.events[1].label.as_deref(), Some("first"));
        let outer = &capture.events[0];
        for inner in &capture.events[1..3] {
            assert!(inner.start_ns >= outer.start_ns);
            assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
        }
        assert_eq!(capture.events[3].name, "mark");
        assert_eq!(capture.events[3].dur_ns, 0);
        // And the rendered trace passes its own validator.
        crate::validate_trace(&capture.render_trace()).unwrap();
    }

    #[test]
    fn with_shard_tags_spans_and_restores() {
        let _guard = recorder_lock();
        crate::enable();
        let _ = crate::drain();
        crate::with_shard(3, || {
            let _sp = crate::span("work");
        });
        {
            let _sp = crate::span("after");
        }
        let capture = crate::drain();
        crate::disable();
        let work = capture.events.iter().find(|e| e.name == "work").unwrap();
        assert!(work.args.contains(&("shard", 3)));
        let after = capture.events.iter().find(|e| e.name == "after").unwrap();
        assert!(after.args.iter().all(|(k, _)| *k != "shard"));
    }

    #[test]
    fn spans_survive_a_caught_panic_and_keep_recording() {
        let _guard = recorder_lock();
        crate::enable();
        let _ = crate::drain();
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
        let names: Vec<&str> = capture.events.iter().map(|e| e.name).collect();
        for name in ["guarded", "doomed", "after"] {
            assert!(names.contains(&name), "missing span {name}: {names:?}");
        }
        // The unwound spans still nest properly in the rendered trace.
        crate::validate_trace(&capture.render_trace()).unwrap();
    }

    #[test]
    fn metrics_flow_through_drain() {
        let _guard = recorder_lock();
        crate::enable();
        let _ = crate::drain();
        crate::counter_add("flipper_demo_total", 2);
        crate::counter_add("flipper_demo_total", 3);
        crate::gauge_set("flipper_demo_gauge", -1);
        crate::observe("flipper_demo_hist", 9);
        let capture = crate::drain();
        crate::disable();
        assert_eq!(capture.metrics.counter("flipper_demo_total"), Some(5));
        assert_eq!(capture.metrics.gauge("flipper_demo_gauge"), Some(-1));
        assert_eq!(
            capture
                .metrics
                .histogram("flipper_demo_hist")
                .unwrap()
                .count(),
            1
        );
        let text = capture.render_metrics();
        assert!(text.starts_with("# flipper-metrics/v1\n"));
        assert!(text.contains("flipper_demo_total 5"));
        // Drain resets.
        assert!(crate::drain().metrics.is_empty());
    }

    #[test]
    fn phase_rows_aggregate_by_name() {
        let _guard = recorder_lock();
        crate::enable();
        let _ = crate::drain();
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

    #[test]
    fn shard_span_records_queue_wait() {
        let _guard = recorder_lock();
        crate::enable();
        let _ = crate::drain();
        let stamp = crate::stamp();
        {
            let _sp = crate::shard_span(2, stamp);
        }
        let capture = crate::drain();
        crate::disable();
        let ev = &capture.events[0];
        assert_eq!(ev.name, "exec.shard");
        assert!(ev.args.iter().any(|(k, _)| *k == "slot"));
        assert!(ev.args.iter().any(|(k, _)| *k == "queue_ns"));
    }
}
