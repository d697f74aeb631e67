//! Dependency-free parallel execution helpers.
//!
//! Support counting (the miner's per-level candidate batches) and the
//! brute-force verifier are the only parts of the pipeline that run in
//! parallel, both at `FlipperConfig::threads`; ingest and sweeps run on the
//! calling thread. Each shards its work over contiguous chunks handled by a
//! [`std::thread::scope`] pool. No work-stealing, no channels, no external
//! crates: each chunk is spawned on its own scoped worker and results are
//! joined back **in chunk order**, so any fold over them is deterministic
//! regardless of how the OS schedules the workers.
//!
//! The thread-count convention used across the workspace: `0` means
//! "auto-detect" ([`available_threads`]), `1` means sequential (no threads
//! are spawned), `n ≥ 2` means exactly `n` workers.
//!
//! A pool runs its chunks in the `flipper-obs` capture (if any) of the
//! thread that dispatched it: every chunk runs under an `exec.shard` span
//! that records its worker slot and the queue wait (time between the pool
//! taking the capture handle and the chunk starting to run) next to the
//! run time, and each worker hands its events to that capture as its chunk
//! returns or unwinds. With no capture open the only cost is one
//! thread-local read per batch.
//!
//! # Panic isolation
//!
//! Every chunk closure runs under `catch_unwind`: a panicking shard no
//! longer aborts the pool mid-scope. All workers are joined first, and
//! only then is the first panic (in **chunk order**, not wall-clock order)
//! resumed on the calling thread, where `flipper_guard::trap` can convert
//! it into a typed error at the API boundary. Each chunk is also a named
//! `flipper-guard` fault-injection site (`exec.chunk`), honouring `Panic`
//! and `Latency` faults from an armed plan. Fault plans and captures both
//! belong to a thread, so every worker runs under the plan and capture (if
//! any) of the thread that dispatched it, never under those of an
//! unrelated caller.

use flipper_obs::CaptureRef;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Run one chunk as worker slot `slot` of the dispatcher's `capture`
/// (`flipper_obs::run_shard`). Slot 0 is the calling thread; spawned
/// workers are 1-based in spawn order. Also the `exec.chunk`
/// fault-injection site.
#[inline]
fn traced_chunk<R>(capture: Option<&CaptureRef>, slot: usize, f: impl FnOnce() -> R) -> R {
    match flipper_guard::fault::injected(flipper_guard::fault::SITE_EXEC_CHUNK) {
        // lint:allow(panic-hygiene) deterministic fault injection: the pool's catch_unwind converts this into a typed error
        Some(flipper_guard::Fault::Panic) => panic!("injected fault: worker panic"),
        Some(flipper_guard::Fault::Latency { spins }) => flipper_guard::fault::spin(spins),
        _ => {}
    }
    flipper_obs::run_shard(capture, slot as u32, f)
}

/// Join caught chunk results, resuming the first panic **in chunk order**
/// only after every chunk has completed.
fn unwrap_chunks<R>(results: Vec<std::thread::Result<R>>) -> Vec<R> {
    let mut out = Vec::with_capacity(results.len());
    let mut first_panic = None;
    for r in results {
        match r {
            Ok(v) => out.push(v),
            Err(p) => {
                if first_panic.is_none() {
                    first_panic = Some(p);
                }
            }
        }
    }
    if let Some(p) = first_panic {
        resume_unwind(p);
    }
    out
}

/// Number of hardware threads available to this process (at least 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Hard ceiling on worker threads. More workers than this never helps these
/// workloads, and the clamp protects against a runaway `--threads` request
/// spawning unbounded OS threads per batch (thread-spawn failure would
/// abort the scope).
pub const MAX_THREADS: usize = 256;

/// Resolve a `threads` knob: `0` = auto-detect, anything else is literal,
/// clamped to [`MAX_THREADS`].
pub fn effective_threads(requested: usize) -> usize {
    let n = match requested {
        0 => available_threads(),
        n => n,
    };
    n.min(MAX_THREADS)
}

/// Split `0..n` into at most `chunks` contiguous ranges whose lengths differ
/// by at most one. Returns fewer ranges when `n < chunks`; never returns an
/// empty range.
pub fn chunk_ranges(n: usize, chunks: usize) -> Vec<Range<usize>> {
    let chunks = chunks.max(1).min(n);
    if chunks == 0 {
        return Vec::new();
    }
    let base = n / chunks;
    let extra = n % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    for i in 0..chunks {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, n);
    out
}

/// Run `f` over the given ranges and return one result per range, **in
/// range order**. The first range runs on the calling thread while the
/// remaining ranges each get a scoped worker.
fn run_parts<R, F>(mut parts: Vec<Range<usize>>, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let capture = &flipper_obs::current_capture();
    if parts.len() <= 1 {
        return parts
            .into_iter()
            .map(|r| traced_chunk(capture.as_ref(), 0, || f(r)))
            .collect();
    }
    let first = parts.remove(0);
    let f = &f;
    let plan = &flipper_guard::fault::current_plan();
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = parts
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                s.spawn(move || {
                    catch_unwind(AssertUnwindSafe(|| {
                        flipper_guard::fault::with_plan(plan.as_ref(), || {
                            traced_chunk(capture.as_ref(), i + 1, || f(r))
                        })
                    }))
                })
            })
            .collect();
        let mut out = Vec::with_capacity(handles.len() + 1);
        out.push(catch_unwind(AssertUnwindSafe(|| {
            traced_chunk(capture.as_ref(), 0, || f(first))
        })));
        // A worker can only fail its join by panicking *outside* the
        // catch_unwind above (thread-runtime trouble); fold that payload in
        // with the chunk panics instead of aborting the scope.
        out.extend(handles.into_iter().map(|h| h.join().and_then(|r| r)));
        out
    });
    unwrap_chunks(results)
}

/// Run `f` over the chunk ranges of `0..n` and return one result per chunk,
/// **in chunk order**. With one chunk (or `threads <= 1`) everything runs on
/// the calling thread; otherwise the first chunk runs on the calling thread
/// while the remaining chunks each get a scoped worker — exactly `threads`
/// runnable threads, no oversubscription by the blocked caller.
///
/// # Panics
/// Propagates panics from worker threads.
pub fn map_chunks<R, F>(threads: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let threads = effective_threads(threads);
    run_parts(chunk_ranges(n, threads), f)
}

/// Split `0..n` into at most `chunks` contiguous ranges like
/// [`chunk_ranges`], but only ever cutting **between groups**: positions `i`
/// where `same_group(i - 1, i)` is false. Each proposed even cut is snapped
/// forward to the next group boundary, so a group of adjacent equivalent
/// items is never split across two ranges (ranges may collapse when groups
/// are large; fewer, bigger ranges are returned then). Never returns an
/// empty range, and the ranges always cover `0..n` exactly.
pub fn group_chunk_ranges<B>(n: usize, chunks: usize, same_group: B) -> Vec<Range<usize>>
where
    B: Fn(usize, usize) -> bool,
{
    let mut out = Vec::new();
    let mut start = 0usize;
    for r in chunk_ranges(n, chunks) {
        let mut end = r.end;
        while end < n && same_group(end - 1, end) {
            end += 1;
        }
        if end > start {
            out.push(start..end);
            start = end;
        }
    }
    debug_assert_eq!(start, n);
    out
}

/// Run `f` over the ranges of `0..n` that [`group_chunk_ranges`] cuts for
/// `threads` workers — contiguous chunks that never split a group of
/// adjacent positions for which `same_group(i - 1, i)` holds — and return
/// one result per chunk, **in chunk order**.
///
/// This is the sharding primitive behind support counting: candidate rows
/// sharing a `(k−1)`-prefix stay in one shard, so a kernel that
/// materializes per-group state (a prefix intersection) does exactly the
/// same work — and reports exactly the same statistics — at every thread
/// count.
///
/// # Panics
/// Propagates panics from worker threads.
pub fn map_group_chunks<R, F, B>(threads: usize, n: usize, same_group: B, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
    B: Fn(usize, usize) -> bool,
{
    let threads = effective_threads(threads);
    run_parts(group_chunk_ranges(n, threads, same_group), f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_exactly() {
        for n in [0usize, 1, 5, 7, 64, 100] {
            for c in [1usize, 2, 3, 4, 9, 200] {
                let ranges = chunk_ranges(n, c);
                assert!(ranges.len() <= c.max(1));
                assert!(ranges.iter().all(|r| !r.is_empty()), "n={n} c={c}");
                let total: usize = ranges.iter().map(ExactSizeIterator::len).sum();
                assert_eq!(total, n, "n={n} c={c}");
                // Contiguous and in order.
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    next = r.end;
                }
                // Balanced within one item.
                if let (Some(min), Some(max)) = (
                    ranges.iter().map(ExactSizeIterator::len).min(),
                    ranges.iter().map(ExactSizeIterator::len).max(),
                ) {
                    assert!(max - min <= 1, "n={n} c={c}");
                }
            }
        }
    }

    #[test]
    fn map_chunks_preserves_order() {
        for threads in [1usize, 2, 4, 7] {
            let per_chunk = map_chunks(threads, 100, |r| r.collect::<Vec<usize>>());
            let flat: Vec<usize> = per_chunk.into_iter().flatten().collect();
            assert_eq!(flat, (0..100).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn group_chunk_ranges_never_split_groups() {
        // Items with group keys; groups are runs of equal keys.
        let keys = [0u32, 0, 0, 1, 1, 2, 3, 3, 3, 3, 4, 5, 5, 6];
        let same = |a: usize, b: usize| keys[a] == keys[b];
        for chunks in [1usize, 2, 3, 5, 14, 40] {
            let ranges = group_chunk_ranges(keys.len(), chunks, same);
            // Cover exactly, in order, never empty.
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next);
                assert!(!r.is_empty());
                next = r.end;
            }
            assert_eq!(next, keys.len());
            assert!(ranges.len() <= chunks.max(1));
            // No cut falls inside a group.
            for r in &ranges {
                if r.end < keys.len() {
                    assert_ne!(keys[r.end - 1], keys[r.end], "chunks={chunks}: split group");
                }
            }
        }
    }

    #[test]
    fn group_chunk_ranges_degenerate_groups() {
        // One giant group: a single range regardless of the chunk request.
        let ranges = group_chunk_ranges(100, 8, |_, _| true);
        assert_eq!(ranges, vec![0..100]);
        // All-distinct groups: identical to the plain even split.
        let ranges = group_chunk_ranges(100, 8, |_, _| false);
        assert_eq!(ranges, chunk_ranges(100, 8));
        // Empty input.
        assert!(group_chunk_ranges(0, 4, |_, _| true).is_empty());
    }

    #[test]
    fn map_group_chunks_preserves_order_and_groups() {
        let items: Vec<u32> = (0..200).map(|i| i / 7).collect(); // groups of 7
        for threads in [1usize, 2, 4, 7] {
            let per_chunk = map_group_chunks(
                threads,
                items.len(),
                |a, b| items[a] == items[b],
                |r| items[r].to_vec(),
            );
            // Concatenation is the identity.
            let flat: Vec<u32> = per_chunk.iter().flatten().copied().collect();
            assert_eq!(flat, items, "threads={threads}");
            // Chunk edges coincide with group edges.
            for chunk in &per_chunk {
                assert!(!chunk.is_empty());
            }
            for w in per_chunk.windows(2) {
                assert_ne!(w[0].last(), w[1].first(), "threads={threads}: split group");
            }
        }
    }

    #[test]
    fn zero_items_is_fine() {
        let r: Vec<u64> = map_chunks(4, 0, |_| unreachable!("no chunks for n=0"));
        assert!(r.is_empty());
    }

    #[test]
    fn effective_threads_resolves_auto_and_clamps() {
        assert!(effective_threads(0) >= 1);
        assert!(effective_threads(0) <= MAX_THREADS);
        assert_eq!(effective_threads(1), 1);
        assert_eq!(effective_threads(6), 6);
        assert_eq!(effective_threads(100_000), MAX_THREADS);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates_with_its_original_payload() {
        let _ = map_chunks(2, 10, |r| {
            if r.start > 0 {
                panic!("boom");
            }
            r.len()
        });
    }

    #[test]
    fn all_chunks_complete_before_a_panic_resumes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let finished = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = map_chunks(4, 8, |r| {
                if r.start == 2 {
                    panic!("chunk 2 dies");
                }
                finished.fetch_add(1, Ordering::SeqCst);
                r.len()
            });
        }));
        assert!(caught.is_err(), "the panic must still propagate");
        assert_eq!(
            finished.load(Ordering::SeqCst),
            3,
            "the surviving chunks all ran to completion first"
        );
    }

    #[test]
    fn first_panic_in_chunk_order_wins() {
        // Chunks 1 and 3 both panic; the resumed payload must be chunk 1's
        // regardless of scheduling.
        for _ in 0..8 {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = map_chunks(4, 4, |r| {
                    if r.start == 1 {
                        panic!("first");
                    }
                    if r.start == 3 {
                        panic!("second");
                    }
                    r.len()
                });
            }));
            let payload = caught.unwrap_err();
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"first"));
        }
    }

    /// An armed plan reaches the workers its own thread dispatches and no
    /// one else's: an unarmed caller running the pool at the same time
    /// never sees the armed caller's injected panics.
    #[test]
    fn armed_and_unarmed_callers_run_concurrently_without_interference() {
        use flipper_guard::fault::{arm, FaultKind, FaultPlan, SITE_EXEC_CHUNK};
        std::thread::scope(|s| {
            let armed = s.spawn(|| {
                (0..20)
                    .filter(|_| {
                        let _armed =
                            arm(FaultPlan::new(9).inject(SITE_EXEC_CHUNK, 2, FaultKind::Panic));
                        std::panic::catch_unwind(|| map_chunks(4, 100, |r| r.len())).is_err()
                    })
                    .count()
            });
            let unarmed = s.spawn(|| {
                for _ in 0..200 {
                    let total: usize = map_chunks(4, 100, |r| r.len()).into_iter().sum();
                    assert_eq!(total, 100);
                }
            });
            assert!(
                unarmed.join().is_ok(),
                "an unarmed caller saw an injected fault"
            );
            assert_eq!(armed.join().ok(), Some(20), "every armed run must fire");
        });
    }

    #[test]
    fn injected_exec_faults_are_deterministic_and_contained() {
        use flipper_guard::fault::{arm, FaultKind, FaultPlan, SITE_EXEC_CHUNK};
        // Latency: injected stall, identical results.
        {
            let _armed = arm(FaultPlan::new(3).inject(SITE_EXEC_CHUNK, 2, FaultKind::Latency));
            let sums = map_chunks(4, 100, |r| r.sum::<usize>());
            assert_eq!(sums.iter().sum::<usize>(), (0..100).sum::<usize>());
        }
        // Panic: injected worker death propagates with the injection label
        // after all chunks complete.
        {
            let _armed = arm(FaultPlan::new(3).inject(SITE_EXEC_CHUNK, 2, FaultKind::Panic));
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = map_chunks(4, 100, |r| r.sum::<usize>());
            }));
            let payload = caught.unwrap_err();
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"injected fault: worker panic")
            );
        }
    }
}
