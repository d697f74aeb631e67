//! Release-gated deterministic fault-injection suite.
//!
//! `scripts/verify.sh` re-runs this suite under `--release`. It arms seeded
//! [`flipper_guard::fault::FaultPlan`]s at every instrumented site —
//! `store.read.section`, `store.write.section`, `exec.chunk` — across
//! threads {1, 4}, and proves the robustness invariant end to end:
//!
//! * every injected fault surfaces as a **typed error** or a
//!   **quarantine-flagged degraded result** — never a panic escaping the
//!   library, never silent corruption;
//! * with the guard machinery engaged but inert (armed plan whose triggers
//!   never fire, live cancel token), `flipper-results/v1` bytes on
//!   undamaged data are **byte-identical** to an unguarded run.
//!
//! Fault parameters derive from the plan seed, so any failure here
//! reproduces from the `(seed, site, hit, kind)` tuple in the assertion
//! message alone.

use flipper_api::{
    CancelToken, FlipperConfig, FlipperError, JsonWriter, MinSupports, PruningConfig, ResultSink,
    Session, Thresholds,
};
use flipper_core::MiningResult;
use flipper_datagen::planted::PlantedParams;
use flipper_guard::fault::{
    arm, FaultKind, FaultPlan, SITE_EXEC_CHUNK, SITE_STORE_READ, SITE_STORE_WRITE,
};
use flipper_store::{salvage_view, stream_view, write_fbin, FbinReader, FbinWriter, StoreError};
use flipper_taxonomy::Taxonomy;
use std::io::Cursor;
use std::panic::{catch_unwind, AssertUnwindSafe};

const SEED: u64 = 0xFA17_1A6E;
const THREADS: [usize; 2] = [1, 4];

fn planted() -> flipper_data::format::Dataset {
    flipper_api::Generator::Planted(PlantedParams::default()).dataset()
}

fn fbin_bytes() -> Vec<u8> {
    let ds = planted();
    let mut out = Vec::new();
    write_fbin(&mut out, &ds).expect("serialize planted dataset");
    out
}

/// The planted dataset as a *multi-chunk* FBIN file, so quarantining one
/// chunk section still leaves a mineable remainder.
fn fbin_bytes_chunked() -> Vec<u8> {
    let ds = planted();
    let mut out = Vec::new();
    let mut w = FbinWriter::with_chunk_size(&mut out, &ds.taxonomy, 512).expect("writer");
    for row in ds.db.iter() {
        w.write_transaction(row).expect("write transaction");
    }
    w.finish().expect("finish");
    out
}

/// The planted calibration the façade tests mine with.
fn cfg(threads: usize) -> FlipperConfig {
    FlipperConfig {
        thresholds: Thresholds::new(0.6, 0.35),
        min_support: MinSupports::Counts(vec![5]),
        threads,
        ..Default::default()
    }
}

/// Render one result as `flipper-results/v1` bytes — the byte-identity
/// currency of the whole suite.
fn report_bytes(tax: &Taxonomy, config: &FlipperConfig, result: &MiningResult) -> Vec<u8> {
    let mut sink = JsonWriter::new(Vec::new());
    sink.consume("mine", tax, config, result).expect("consume");
    sink.finish().expect("finish");
    sink.into_inner()
}

/// Strict FBIN ingestion of in-memory bytes.
fn read_strict(
    bytes: &[u8],
    threads: usize,
) -> Result<(Taxonomy, flipper_data::MultiLevelView), StoreError> {
    let reader = FbinReader::new(Cursor::new(bytes))?;
    stream_view(reader, threads)
}

/// Every store-read fault, strict and salvage, across thread counts: typed
/// error or degraded-flagged result, never a panic, never silent loss.
#[test]
fn store_read_faults_are_typed_or_quarantined_never_silent() {
    let bytes = fbin_bytes_chunked();
    let baseline = read_strict(&bytes, 1).expect("intact file reads");
    // Section hit 3 is the second chunk section of the multi-chunk file:
    // dict = 1, chunks = 2.., end last. Quarantining it leaves a remainder.
    let kinds = [
        FaultKind::Io,
        FaultKind::BitFlip,
        FaultKind::Truncate,
        FaultKind::Panic, // store sites demote Panic to Io: storage never panics
    ];
    for threads in THREADS {
        for kind in kinds {
            let label = format!(
                "site=store.read hit=3 kind={} threads={threads}",
                kind.name()
            );
            // Strict reads refuse the fault with a typed StoreError.
            let strict = catch_unwind(AssertUnwindSafe(|| {
                let _armed = arm(FaultPlan::new(SEED).inject(SITE_STORE_READ, 3, kind));
                read_strict(&bytes, threads)
            }))
            .unwrap_or_else(|_| panic!("{label}: strict read panicked"));
            assert!(strict.is_err(), "{label}: strict read must fail typed");

            // Salvage reads either quarantine (corruption) or still fail
            // typed (I/O faults are never salvaged away) — and whatever
            // survives must be flagged degraded, not passed off as whole.
            let salvage = catch_unwind(AssertUnwindSafe(|| {
                let _armed = arm(FaultPlan::new(SEED).inject(SITE_STORE_READ, 3, kind));
                salvage_view(Cursor::new(&bytes[..]), threads)
            }))
            .unwrap_or_else(|_| panic!("{label}: salvage read panicked"));
            match (kind, salvage) {
                (FaultKind::Io | FaultKind::Panic, Err(StoreError::Io(_))) => {}
                (FaultKind::Io | FaultKind::Panic, other) => {
                    panic!("{label}: salvage must surface injected I/O, got {other:?}")
                }
                (_, Ok((_, view, report))) => {
                    assert!(
                        report.is_degraded(),
                        "{label}: salvage of corrupted bytes must be flagged: {report:?}"
                    );
                    assert!(
                        view.num_transactions() < baseline.1.num_transactions(),
                        "{label}: the quarantined chunk's rows must be dropped, not invented"
                    );
                }
                (_, Err(e)) => panic!("{label}: salvage should quarantine, got {e}"),
            }
        }

        // Latency stalls but corrupts nothing: bytes decode identically.
        let _armed = arm(FaultPlan::new(SEED).inject(SITE_STORE_READ, 3, FaultKind::Latency));
        let (tax, view) = read_strict(&bytes, threads).expect("latency fault is benign");
        assert_eq!(tax, baseline.0, "latency must not perturb the taxonomy");
        assert_eq!(
            view.num_transactions(),
            baseline.1.num_transactions(),
            "latency must not perturb the view"
        );
    }
}

/// Every store-write fault: typed error (or, for latency, byte-identical
/// output), never a panic, never a silently short file.
#[test]
fn store_write_faults_fail_typed() {
    let ds = planted();
    let clean = fbin_bytes();
    for kind in [FaultKind::Io, FaultKind::Panic] {
        for hit in [1u64, 2] {
            let label = format!("site=store.write hit={hit} kind={}", kind.name());
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let _armed = arm(FaultPlan::new(SEED).inject(SITE_STORE_WRITE, hit, kind));
                let mut out = Vec::new();
                write_fbin(&mut out, &ds)
            }))
            .unwrap_or_else(|_| panic!("{label}: writer panicked"));
            assert!(
                matches!(outcome, Err(StoreError::Io(_))),
                "{label}: write must fail with a typed I/O error, got {outcome:?}"
            );
        }
    }
    let _armed = arm(FaultPlan::new(SEED).inject(SITE_STORE_WRITE, 1, FaultKind::Latency));
    let mut out = Vec::new();
    write_fbin(&mut out, &ds).expect("latency fault is benign");
    assert_eq!(out, clean, "latency must not perturb written bytes");
}

/// Injected worker panics at the exec.chunk site surface as
/// `FlipperError::Panicked` through the guarded mining path — at 1 and 4
/// threads — and latency faults change nothing. Runs that never shard
/// (sequential runs, sub-threshold batches) legitimately never visit the
/// site; they must then produce bytes identical to the unguarded baseline,
/// proven via the plan's fire log.
#[test]
fn exec_chunk_faults_surface_typed_across_threads() {
    let session = Session::open(flipper_api::Generator::Planted(PlantedParams::default()))
        .expect("open planted session");
    let token = CancelToken::new();
    let mut fired_somewhere = false;
    for threads in THREADS {
        // BASIC counts every frequent itemset, so its batches are large
        // enough to shard at threads > 1.
        let config = FlipperConfig {
            pruning: PruningConfig::BASIC,
            ..cfg(threads)
        };
        let label = format!("site=exec.chunk threads={threads}");
        let baseline = session.mine(&config).expect("unguarded baseline");
        let baseline_bytes = report_bytes(session.taxonomy(), &config, &baseline);

        // A panic on the first worker chunk becomes a typed error; the
        // pool joins every shard before the panic is rethrown, so the
        // trap at the API boundary is the only place it surfaces.
        let armed = arm(FaultPlan::new(SEED).inject(SITE_EXEC_CHUNK, 1, FaultKind::Panic));
        let outcome = catch_unwind(AssertUnwindSafe(|| session.mine_guarded(&config, &token)))
            .unwrap_or_else(|_| panic!("{label}: panic escaped the guard"));
        let fired = !armed.fired().is_empty();
        drop(armed);
        fired_somewhere |= fired;
        match outcome {
            Err(FlipperError::Panicked { message, .. }) => {
                assert!(fired, "{label}: Panicked surfaced without a fired fault");
                assert!(
                    message.contains("injected fault"),
                    "{label}: panic message should carry the injection label: {message:?}"
                );
            }
            Ok(result) => {
                assert!(
                    !fired,
                    "{label}: the injected panic fired yet mining succeeded"
                );
                assert_eq!(
                    report_bytes(session.taxonomy(), &config, &result),
                    baseline_bytes,
                    "{label}: unfired guard must be byte-invisible"
                );
            }
            Err(other) => panic!("{label}: expected Panicked, got {other}"),
        }

        // A latency stall at the same site perturbs nothing: the
        // guarded run's report bytes match the unguarded baseline.
        let _armed = arm(FaultPlan::new(SEED).inject(SITE_EXEC_CHUNK, 1, FaultKind::Latency));
        let stalled = session
            .mine_guarded(&config, &token)
            .expect("latency fault is benign");
        assert_eq!(
            report_bytes(session.taxonomy(), &config, &stalled),
            baseline_bytes,
            "{label}: latency fault must not perturb result bytes"
        );
    }
    assert!(
        fired_somewhere,
        "no thread count ever visited exec.chunk — the site is dead"
    );
}

/// The whole guard apparatus engaged but inert — armed plan whose triggers
/// never fire, live cancel token, salvage-capable reader on an intact file
/// — produces `flipper-results/v1` bytes identical to a plain run.
#[test]
fn inert_guard_is_byte_invisible() {
    let bytes = fbin_bytes();
    let token = CancelToken::new();
    for threads in THREADS {
        let config = cfg(threads);

        // Plain path: strict read, unguarded mine.
        let (tax, view) = read_strict(&bytes, threads).expect("strict read");
        let plain = flipper_core::mine_with_view(&tax, &view, &config);
        let plain_bytes = report_bytes(&tax, &config, &plain);

        // Guarded path: salvage read of the intact file, armed-but-inert
        // plan, live token.
        let _armed = arm(FaultPlan::new(SEED)
            .inject(SITE_STORE_READ, u64::MAX, FaultKind::Io)
            .inject(SITE_EXEC_CHUNK, u64::MAX, FaultKind::Panic));
        let (gtax, gview, report) =
            salvage_view(Cursor::new(&bytes[..]), threads).expect("salvage read");
        assert!(
            !report.is_degraded(),
            "intact file must not be flagged: {report:?}"
        );
        let guarded = flipper_core::mine_with_view_guarded(&gtax, &gview, &config, &token)
            .expect("guarded mine");
        assert_eq!(
            report_bytes(&gtax, &config, &guarded),
            plain_bytes,
            "threads={threads}: inert guard must be byte-invisible in flipper-results/v1"
        );
    }
}
