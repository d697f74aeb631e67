//! Structured spans with thread-local event sheets.
//!
//! Each thread that records spans owns a private *sheet* — an append-only
//! event buffer plus its lane id — so the hot path never takes a lock:
//! opening a span is one relaxed atomic load (is the recorder enabled?)
//! and one clock read; closing it is a second clock read and a push onto
//! the thread-local sheet. Sheets merge into the global recorder store
//! when their thread exits, which for the scoped worker threads spawned
//! by `flipper_data::exec` means at scope exit. The calling thread's
//! sheet is flushed explicitly by [`crate::recorder::drain`].
//!
//! Lanes: every recording thread gets a unique lane id from a global
//! counter (the thread that enables the recorder — normally `main` —
//! claims lane 0). Because a thread executes sequentially, spans within a
//! lane are properly nested by construction, which is what the trace
//! validator checks. Worker closures run under [`with_shard`], which tags
//! every span they record with the exec worker slot.

use crate::clock;
use crate::recorder;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, Ordering};

/// One completed span or instant event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Static event name, e.g. `mine.count`.
    pub name: &'static str,
    /// Optional dynamic label (sweep grid point, dataset name, …).
    pub label: Option<String>,
    /// Lane (Chrome trace `tid`): unique per recording thread.
    pub lane: u32,
    /// Start timestamp, nanoseconds since the recorder epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds; 0 for instant events.
    pub dur_ns: u64,
    /// Small integer arguments (`shard`, `queue_ns`, counts, …).
    pub args: Vec<(&'static str, u64)>,
}

static NEXT_LANE: AtomicU32 = AtomicU32::new(0);

struct LocalSheet {
    lane: u32,
    shard: Option<u32>,
    events: Vec<SpanEvent>,
}

impl Drop for LocalSheet {
    fn drop(&mut self) {
        if !self.events.is_empty() {
            recorder::merge_events(std::mem::take(&mut self.events));
        }
    }
}

thread_local! {
    static SHEET: RefCell<LocalSheet> = RefCell::new(LocalSheet {
        lane: NEXT_LANE.fetch_add(1, Ordering::Relaxed),
        shard: None,
        events: Vec::new(),
    });
}

/// Claim a lane for the calling thread (called from `enable` so the
/// enabling thread gets the first lane).
pub(crate) fn touch_current_thread() {
    SHEET.with(|s| {
        let _ = s.borrow().lane;
    });
}

/// Flush the calling thread's sheet into the global store.
pub(crate) fn flush_current_thread() {
    SHEET.with(|s| {
        let mut sheet = s.borrow_mut();
        if !sheet.events.is_empty() {
            recorder::merge_events(std::mem::take(&mut sheet.events));
        }
    });
}

fn push_event(mut ev: SpanEvent) {
    // TLS destructors may have already run during thread shutdown; in that
    // case `with` panics, so use `try_with` and drop the event instead.
    let _ = SHEET.try_with(|s| {
        if let Ok(mut sheet) = s.try_borrow_mut() {
            ev.lane = sheet.lane;
            if let Some(shard) = sheet.shard {
                ev.args.push(("shard", u64::from(shard)));
            }
            sheet.events.push(ev);
        }
    });
}

/// An RAII span guard: records a complete event from creation to drop.
///
/// Obtained from [`span`] or [`span_labeled`]. When the recorder is
/// disabled the guard is inert — no clock reads, no allocation, no event.
#[must_use = "a span measures the scope it is alive in"]
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    label: Option<String>,
    start_ns: u64,
    args: Vec<(&'static str, u64)>,
    armed: bool,
}

impl Span {
    /// Attach a small integer argument to the span (no-op when inert).
    pub fn arg(mut self, key: &'static str, value: u64) -> Span {
        if self.armed {
            self.args.push((key, value));
        }
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
        push_event(SpanEvent {
            name: self.name,
            label: self.label.take(),
            lane: 0,
            start_ns: self.start_ns,
            dur_ns: end.saturating_sub(self.start_ns),
            args: std::mem::take(&mut self.args),
        });
    }
}

fn open(name: &'static str, label: Option<String>) -> Span {
    if !recorder::enabled() {
        return Span {
            name,
            label: None,
            start_ns: 0,
            args: Vec::new(),
            armed: false,
        };
    }
    Span {
        name,
        label,
        start_ns: clock::now_ns(),
        args: Vec::new(),
        armed: true,
    }
}

/// Open a span named `name`; it closes (and records) when dropped.
pub fn span(name: &'static str) -> Span {
    open(name, None)
}

/// Open a span with a dynamic label. The label is only cloned when the
/// recorder is enabled.
pub fn span_labeled(name: &'static str, label: &str) -> Span {
    if !recorder::enabled() {
        return open(name, None);
    }
    open(name, Some(label.to_string()))
}

/// A timestamp for queue-wait measurement: nanoseconds since the epoch
/// when the recorder is enabled, 0 otherwise. Capture one before handing
/// work to a pool, then pass it to [`shard_span`] inside the worker.
pub fn stamp() -> u64 {
    if recorder::enabled() {
        clock::now_ns()
    } else {
        0
    }
}

/// Open an `exec.shard` span for worker slot `slot`.
///
/// `spawn_stamp` is a [`stamp`] captured just before the work was queued;
/// the difference to the span's start is recorded as `queue_ns` (the time
/// the chunk waited for its worker to start running).
pub fn shard_span(slot: u64, spawn_stamp: u64) -> Span {
    let mut sp = open("exec.shard", None);
    if sp.armed {
        sp.args.push(("slot", slot));
        if spawn_stamp != 0 {
            sp.args
                .push(("queue_ns", sp.start_ns.saturating_sub(spawn_stamp)));
        }
    }
    sp
}

/// Run `f` with all spans recorded by this thread tagged with exec worker
/// slot `slot` (a `shard` argument on every event). Restores the previous
/// tag on exit, so nested exec pools keep their own slots.
pub fn with_shard<T>(slot: u32, f: impl FnOnce() -> T) -> T {
    let prev = SHEET
        .try_with(|s| {
            if let Ok(mut sheet) = s.try_borrow_mut() {
                let prev = sheet.shard;
                sheet.shard = Some(slot);
                prev
            } else {
                None
            }
        })
        .unwrap_or(None);
    let out = f();
    let _ = SHEET.try_with(|s| {
        if let Ok(mut sheet) = s.try_borrow_mut() {
            sheet.shard = prev;
        }
    });
    out
}
