//! Observability invariants: the flipper-obs recorder must never perturb
//! `flipper-results/v1` bytes, and the traces it emits must be valid
//! `flipper-trace/v1` documents covering the whole pipeline.
//!
//! The recorder is process-global, so every test here serializes on one
//! mutex; this file is its own test binary, so no other tests can record
//! concurrently.

use flipper_api::{
    FlipperConfig, Generator, JsonWriter, MinSupports, PlantedParams, ResultSink, Session,
    Thresholds,
};
use std::sync::{Mutex, MutexGuard, OnceLock};

fn recorder_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn planted_session() -> Session {
    Session::open(Generator::Planted(PlantedParams::default())).expect("planted ingests")
}

fn config(threads: usize) -> FlipperConfig {
    FlipperConfig {
        thresholds: Thresholds {
            gamma: 0.6,
            epsilon: 0.35,
        },
        min_support: MinSupports::uniform_fraction(0.001),
        threads,
        ..FlipperConfig::default()
    }
}

/// Mine and serialize to `flipper-results/v1` bytes.
fn results_bytes(session: &Session, cfg: &FlipperConfig) -> Vec<u8> {
    let result = session.mine(cfg).expect("mine succeeds");
    let mut sink = JsonWriter::new(Vec::new());
    sink.consume("obs", session.taxonomy(), cfg, &result)
        .expect("serialize");
    sink.finish().expect("finish");
    sink.into_inner()
}

/// The tentpole invariant: result bytes are identical with the recorder
/// off and on, at threads 1 and 4.
#[test]
fn results_bytes_identical_with_tracing_on_and_off() {
    let _guard = recorder_lock();
    let session = planted_session();
    for threads in [1usize, 4] {
        let cfg = config(threads);
        flipper_obs::disable();
        let _ = flipper_obs::drain();
        let bare = results_bytes(&session, &cfg);
        flipper_obs::enable();
        let traced = results_bytes(&session, &cfg);
        let capture = flipper_obs::drain();
        flipper_obs::disable();
        assert_eq!(
            bare, traced,
            "recorder changed flipper-results/v1 bytes (t{threads})"
        );
        assert!(
            !capture.events.is_empty(),
            "recorder was enabled but captured nothing (t{threads})"
        );
    }
}

/// A traced mine renders a valid `flipper-trace/v1` document that covers
/// ingest, view build, per-level generation and counting — and spans
/// recorded inside exec worker shards still nest within their lanes.
#[test]
fn traced_mine_emits_valid_covering_trace() {
    let _guard = recorder_lock();
    flipper_obs::disable();
    let _ = flipper_obs::drain();
    flipper_obs::enable();
    // Sharded ingestion: the view build fans out over workers, so the
    // trace exercises multiple lanes even though the planted dataset is
    // too small for counting itself to shard.
    let session = Session::open_with_threads(Generator::Planted(PlantedParams::default()), 4)
        .expect("planted ingests");
    let cfg = config(4);
    let result = session.mine(&cfg).expect("mine succeeds");
    assert!(result.stats.cells_evaluated > 0);
    let capture = flipper_obs::drain();
    flipper_obs::disable();

    let trace = capture.render_trace();
    let stats = flipper_obs::validate_trace(&trace).expect("trace parses and nests");
    for name in [
        "session.ingest",
        "view.build",
        "mine.run",
        "mine.cell",
        "mine.gen",
        "mine.count",
        "exec.shard",
    ] {
        assert!(stats.names.contains(name), "missing span {name}");
    }
    // Worker lanes exist beyond the main lane (threads=4 sharded at least
    // one batch), and the metrics side carries the run's counters.
    assert!(
        stats.lanes > 1,
        "expected worker lanes, got {}",
        stats.lanes
    );
    let metrics = capture.render_metrics();
    assert!(metrics.starts_with("# flipper-metrics/v1\n"));
    for metric in [
        "flipper_cells_evaluated_total",
        "flipper_candidates_counted_total",
        "flipper_prefix_reuses_total",
        "flipper_batch_candidates_count",
    ] {
        assert!(metrics.contains(metric), "missing metric {metric}");
    }
}

/// Span nesting across shard boundaries: spans opened inside exec worker
/// closures land on per-thread lanes and stay properly nested even when
/// the same thread runs nested pools (sweep jobs over counting shards).
#[test]
fn spans_nest_across_shard_boundaries() {
    let _guard = recorder_lock();
    flipper_obs::disable();
    let _ = flipper_obs::drain();
    flipper_obs::enable();
    let outer = flipper_obs::span("test.outer");
    let sums = flipper_data::exec::map_chunks(4, 64, |r| {
        let _chunk_span = flipper_obs::span("test.chunk").arg("len", r.len() as u64);
        // A nested pool from inside a worker: its chunks' spans must not
        // corrupt the outer lanes.
        flipper_data::exec::map_chunks(2, r.len(), |inner| {
            let _inner_span = flipper_obs::span("test.inner");
            inner.len()
        })
        .into_iter()
        .sum::<usize>()
    });
    drop(outer);
    let capture = flipper_obs::drain();
    flipper_obs::disable();
    assert_eq!(sums.iter().sum::<usize>(), 64);

    let trace = capture.render_trace();
    let stats = flipper_obs::validate_trace(&trace).expect("shard spans nest per lane");
    assert!(stats.names.contains("test.outer"));
    assert!(stats.names.contains("test.chunk"));
    assert!(stats.names.contains("test.inner"));
    assert!(stats.names.contains("exec.shard"));
    // Exec tagged worker-shard events with their slot.
    assert!(capture
        .events
        .iter()
        .any(|e| e.name == "exec.shard" && e.args.iter().any(|(k, _)| *k == "slot")));
    // test.chunk spans recorded under with_shard carry the shard tag.
    assert!(capture
        .events
        .iter()
        .filter(|e| e.name == "test.chunk")
        .all(|e| e.args.iter().any(|(k, _)| *k == "shard")));
}

/// Sweeps record per-point spans, and seeded sweeps keep the byte
/// invariant under the recorder too.
#[test]
fn sweep_trace_covers_grid_points() {
    let _guard = recorder_lock();
    let run_sweep = |record: bool| {
        let session = planted_session();
        flipper_obs::disable();
        let _ = flipper_obs::drain();
        if record {
            flipper_obs::enable();
        }
        let runs = session
            .sweep()
            .with_jobs(2)
            .thresholds_grid(&config(2), &[0.6, 0.5], &[0.35])
            .run()
            .expect("sweep runs");
        let capture = flipper_obs::drain();
        flipper_obs::disable();
        let mut sink = JsonWriter::new(Vec::new());
        flipper_api::emit_runs(&mut sink, session.taxonomy(), &runs).expect("emit");
        (sink.into_inner(), capture)
    };
    let (bare, _) = run_sweep(false);
    let (traced, capture) = run_sweep(true);
    assert_eq!(bare, traced, "recorder changed sweep results");
    let stats = flipper_obs::validate_trace(&capture.render_trace()).expect("sweep trace valid");
    assert!(stats.names.contains("sweep.run"));
    assert!(stats.names.contains("sweep.point"));
    let labeled = capture
        .events
        .iter()
        .filter(|e| e.name == "sweep.point")
        .filter_map(|e| e.label.as_deref())
        .collect::<Vec<_>>();
    assert!(
        labeled.contains(&"g0.6/e0.35") && labeled.contains(&"g0.5/e0.35"),
        "sweep.point labels missing: {labeled:?}"
    );
}
