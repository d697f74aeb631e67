//! Captures: who records, and where the events go.
//!
//! A capture belongs to the thread that opened it with [`enable`]: the
//! thread's *sheet* (its lane, shard tag and event buffer) points at the
//! capture, and [`enabled`] is one thread-local read of whether a sheet
//! is open. Nothing is process-wide, so two callers tracing at once on
//! two threads each drain only their own spans, and a thread with no
//! capture records nothing even while another thread's capture is open.
//!
//! Exec workers join the capture of the thread that dispatched them: the
//! pool takes a [`CaptureRef`] with [`current_capture`] next to its fault
//! plan and runs each chunk under [`run_shard`], which gives the worker a
//! sheet on a fresh lane of that capture and hands the chunk's events to
//! it when the chunk returns or unwinds. Lanes are numbered per capture;
//! lane 0 is the opening thread.

use crate::span::{self, SpanEvent};
use crate::{clock, trace};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// What the threads of one capture share: the events exec workers handed
/// back, and the next free lane.
#[derive(Debug)]
struct Shared {
    events: Mutex<Vec<SpanEvent>>,
    next_lane: AtomicU32,
}

impl Shared {
    /// The handed-back events. Holders only ever append or take, so a
    /// panic under the lock leaves nothing inconsistent: poisoning is
    /// ignored.
    fn lock(&self) -> MutexGuard<'_, Vec<SpanEvent>> {
        self.events.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One thread's part of an open capture.
struct Sheet {
    capture: Arc<Shared>,
    lane: u32,
    shard: Option<u32>,
    events: Vec<SpanEvent>,
}

thread_local! {
    static SHEET: RefCell<Option<Sheet>> = const { RefCell::new(None) };
}

/// Is a capture open on the calling thread? One thread-local read.
#[inline]
pub fn enabled() -> bool {
    SHEET.with_borrow(Option::is_some)
}

/// Open a fresh capture on the calling thread, replacing any capture open
/// there.
pub fn enable() {
    let capture = Arc::new(Shared {
        events: Mutex::default(),
        next_lane: AtomicU32::new(1),
    });
    let sheet = Sheet {
        capture,
        lane: 0,
        shard: None,
        events: Vec::new(),
    };
    SHEET.replace(Some(sheet));
}

/// Close the calling thread's capture. Events not yet drained are dropped
/// with it.
pub fn disable() {
    SHEET.take();
}

/// Record a completed event on the calling thread's sheet, tagged with its
/// lane and shard; dropped when no capture is open (or during thread
/// shutdown, when the sheet is already gone).
pub(crate) fn record(mut ev: SpanEvent) {
    let _ = SHEET.try_with(|s| {
        if let Ok(mut sheet) = s.try_borrow_mut() {
            if let Some(sheet) = sheet.as_mut() {
                ev.lane = sheet.lane;
                if let Some(shard) = sheet.shard {
                    ev.args.push(("shard", u64::from(shard)));
                }
                sheet.events.push(ev);
            }
        }
    });
}

/// A handle on the capture open on a dispatching thread, taken by
/// [`current_capture`] and handed to the exec workers it dispatches. It
/// remembers when it was taken, so a chunk can tell how long it queued.
#[derive(Debug, Clone)]
pub struct CaptureRef {
    capture: Arc<Shared>,
    taken_ns: u64,
}

/// The capture open on the calling thread, for a pool to hand to its
/// workers; `None` (one thread-local read) when there is none.
pub fn current_capture() -> Option<CaptureRef> {
    SHEET.with_borrow(|sheet| {
        sheet.as_ref().map(|sheet| CaptureRef {
            capture: Arc::clone(&sheet.capture),
            taken_ns: clock::now_ns(),
        })
    })
}

/// Run one exec chunk as worker slot `slot` of `capture` (the dispatching
/// thread's, from [`current_capture`]); without a capture, just run `f`.
///
/// The chunk records an `exec.shard` span with its `slot` and `queue_ns`
/// (from the handle being taken to the chunk starting), and every event it
/// records carries a `shard` argument. On the thread that owns the capture
/// the chunk keeps that thread's lane; any other thread gets a fresh lane
/// of the capture. The chunk's events go to the capture when it returns or
/// unwinds, and the thread's own sheet (if any) is restored, so nested
/// pools keep their own slots.
pub fn run_shard<R>(capture: Option<&CaptureRef>, slot: u32, f: impl FnOnce() -> R) -> R {
    /// Hands the chunk's sheet back and restores the thread's own.
    struct Restore(Option<Sheet>);
    impl Drop for Restore {
        fn drop(&mut self) {
            if let Some(chunk) = SHEET.replace(self.0.take()) {
                chunk.capture.lock().extend(chunk.events);
            }
        }
    }
    let Some(handle) = capture else {
        return f();
    };
    let restore = Restore(SHEET.take());
    let lane = match &restore.0 {
        Some(sheet) if Arc::ptr_eq(&sheet.capture, &handle.capture) => sheet.lane,
        _ => handle.capture.next_lane.fetch_add(1, Ordering::Relaxed),
    };
    let chunk = Sheet {
        capture: Arc::clone(&handle.capture),
        lane,
        shard: Some(slot),
        events: Vec::new(),
    };
    SHEET.replace(Some(chunk));
    let shard = span::span("exec.shard");
    let queued = shard.start_ns.saturating_sub(handle.taken_ns);
    let _shard = shard.arg("slot", u64::from(slot)).arg("queue_ns", queued);
    f()
}

/// Everything a capture recorded since its last drain.
///
/// Events are sorted by start time (ties: longer span first, then lane,
/// then name) so parents precede children within a lane.
#[derive(Debug, Default, Clone)]
pub struct Capture {
    /// Completed span and instant events.
    pub events: Vec<SpanEvent>,
}

/// One row of the per-phase summary: an event name with call count and
/// total duration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseRow {
    /// Event name (`mine.count`, `exec.shard`, …).
    pub name: String,
    /// Number of events with this name.
    pub calls: u64,
    /// Summed duration in nanoseconds.
    pub total_ns: u64,
}

impl Capture {
    /// Render the capture as `flipper-trace/v1` Chrome trace-event JSON.
    pub fn render_trace(&self) -> String {
        trace::render_chrome_trace(&self.events)
    }

    /// Aggregate events by name into per-phase totals, longest first
    /// (ties broken by name so the order is reproducible).
    pub fn phase_rows(&self) -> Vec<PhaseRow> {
        let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for ev in &self.events {
            let slot = by_name.entry(ev.name).or_insert((0, 0));
            slot.0 += 1;
            slot.1 += ev.dur_ns;
        }
        let mut rows: Vec<PhaseRow> = by_name
            .into_iter()
            .map(|(name, (calls, total_ns))| PhaseRow {
                name: name.to_string(),
                calls,
                total_ns,
            })
            .collect();
        rows.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));
        rows
    }
}

/// Take everything the calling thread's capture recorded so far, leaving
/// it open and empty; an empty [`Capture`] when none is open.
///
/// Exec workers hand their events to the capture as each chunk ends, so
/// once a mining call has returned this sees every event it recorded.
pub fn drain() -> Capture {
    let mut events = SHEET.with_borrow_mut(|sheet| {
        let Some(sheet) = sheet.as_mut() else {
            return Vec::new();
        };
        let mut events = std::mem::take(&mut sheet.events);
        events.append(&mut sheet.capture.lock());
        events
    });
    events.sort_by(|a, b| {
        a.start_ns
            .cmp(&b.start_ns)
            .then(b.dur_ns.cmp(&a.dur_ns))
            .then(a.lane.cmp(&b.lane))
            .then(a.name.cmp(b.name))
    });
    Capture { events }
}
