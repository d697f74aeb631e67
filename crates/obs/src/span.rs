//! Structured spans.
//!
//! A span is an RAII guard: opening one reads whether the calling thread
//! has a capture open ([`crate::enabled`], one thread-local read) and, if
//! so, the clock; closing it reads the clock again and pushes the event
//! onto the thread's sheet, which belongs to that capture (see
//! [`mod@crate::recorder`]). No lock is taken on either path. A thread
//! executes sequentially, so the spans of one lane are properly nested by
//! construction, which is what the trace validator checks.

use crate::{clock, recorder};

/// One completed span or instant event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Static event name, e.g. `mine.count`.
    pub name: &'static str,
    /// Optional dynamic label (sweep grid point, dataset name, …).
    pub label: Option<String>,
    /// Lane (Chrome trace `tid`): unique per recording thread within a
    /// capture; 0 is the thread that opened it.
    pub lane: u32,
    /// Start timestamp, nanoseconds since the recorder epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds; 0 for instant events.
    pub dur_ns: u64,
    /// Small integer arguments (`shard`, `queue_ns`, counts, …).
    pub args: Vec<(&'static str, u64)>,
}

/// An RAII span guard: records a complete event from creation to drop.
///
/// Obtained from [`span`] or [`span_labeled`]. On a thread with no capture
/// open the guard is inert — no clock reads, no allocation, no event.
#[must_use = "a span measures the scope it is alive in"]
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    label: Option<String>,
    pub(crate) start_ns: u64,
    args: Vec<(&'static str, u64)>,
    armed: bool,
}

impl Span {
    /// Attach a small integer argument to the span (no-op when inert).
    pub fn arg(mut self, key: &'static str, value: u64) -> Span {
        self.add_arg(key, value);
        self
    }

    /// Attach a small integer argument through a mutable reference.
    pub fn add_arg(&mut self, key: &'static str, value: u64) {
        if self.armed {
            self.args.push((key, value));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let end = clock::now_ns();
        recorder::record(SpanEvent {
            name: self.name,
            label: self.label.take(),
            lane: 0,
            start_ns: self.start_ns,
            dur_ns: end.saturating_sub(self.start_ns),
            args: std::mem::take(&mut self.args),
        });
    }
}

fn open(name: &'static str, label: Option<&str>) -> Span {
    let armed = recorder::enabled();
    Span {
        name,
        label: label.filter(|_| armed).map(str::to_string),
        start_ns: if armed { clock::now_ns() } else { 0 },
        args: Vec::new(),
        armed,
    }
}

/// Open a span named `name`; it closes (and records) when dropped.
pub fn span(name: &'static str) -> Span {
    open(name, None)
}

/// Open a span with a dynamic label. The label is only cloned when the
/// calling thread has a capture open.
pub fn span_labeled(name: &'static str, label: &str) -> Span {
    open(name, Some(label))
}
