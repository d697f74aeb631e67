//! The global recorder: runtime toggle and event store.
//!
//! The recorder is a process-wide singleton. When disabled (the default)
//! every entry point reduces to one relaxed atomic load and a branch —
//! nothing is measured, allocated or locked, which is what lets the
//! instrumented binary prove byte-identical `flipper-results/v1` output
//! with tracing on or off. When enabled, spans accumulate in thread-local
//! sheets (see [`mod@crate::span`]) that merge into the store under a
//! mutex only when a thread's sheet is flushed.

use crate::span::{self, SpanEvent};
use crate::{clock, trace};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

static ENABLED: AtomicBool = AtomicBool::new(false);
static STORE: Mutex<Vec<SpanEvent>> = Mutex::new(Vec::new());

fn store() -> MutexGuard<'static, Vec<SpanEvent>> {
    // A panic while holding this lock cannot leave the store logically
    // corrupt (it only ever appends), so poisoning is ignored.
    STORE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Is the recorder currently enabled? One relaxed load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enable the recorder. Pins the clock epoch on first use and claims the
/// first span lane for the calling thread.
pub fn enable() {
    clock::init_epoch();
    span::touch_current_thread();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Disable the recorder. Events already sitting in thread-local sheets
/// stay there and are picked up by the next [`drain`].
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Merge a batch of events from a dying thread sheet into the store.
pub(crate) fn merge_events(events: Vec<SpanEvent>) {
    store().extend(events);
}

/// Everything the recorder captured since the last drain.
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

/// Take everything recorded so far, leaving the recorder empty (but still
/// enabled if it was enabled).
///
/// Flushes the calling thread's sheet first; worker threads spawned by
/// `flipper_data::exec` have already merged their sheets when their scope
/// exited, so after the pipeline joins its workers this sees every event.
pub fn drain() -> Capture {
    span::flush_current_thread();
    let mut events = std::mem::take(&mut *store());
    events.sort_by(|a, b| {
        a.start_ns
            .cmp(&b.start_ns)
            .then(b.dur_ns.cmp(&a.dur_ns))
            .then(a.lane.cmp(&b.lane))
            .then(a.name.cmp(b.name))
    });
    Capture { events }
}
