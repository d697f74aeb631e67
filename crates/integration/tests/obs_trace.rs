//! Observability invariants: a flipper-obs capture must never perturb
//! `flipper-results/v1` bytes, and the traces it records must be valid
//! `flipper-trace/v1` documents covering the whole pipeline.
//!
//! A capture belongs to the thread that opened it (and the exec workers
//! that thread dispatches), so these tests record concurrently without
//! any lock, and one of them pins that two concurrent captures hold only
//! their own spans.

use flipper_api::{
    FlipperConfig, JsonWriter, MinSupports, PlantedParams, PruningConfig, QuestParams, ResultSink,
    Session, Thresholds,
};
use flipper_datagen::{planted, quest};
use std::collections::BTreeSet;
use std::sync::Barrier;

fn planted_session() -> Session {
    let data = planted::generate(&PlantedParams::default());
    Session::from_db(&data.taxonomy, &data.db).expect("planted ingests")
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

/// Run `f` with a capture open on this thread; return its result and
/// everything the capture recorded.
fn captured<T>(f: impl FnOnce() -> T) -> (T, flipper_obs::Capture) {
    flipper_obs::enable();
    let out = f();
    let capture = flipper_obs::drain();
    flipper_obs::disable();
    (out, capture)
}

/// The integer argument `key` of span event `e`.
fn arg(e: &flipper_obs::SpanEvent, key: &str) -> Option<u64> {
    e.args.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
}

/// The integer argument `key` that every `e.name` span carries.
fn must_arg(e: &flipper_obs::SpanEvent, key: &str) -> u64 {
    arg(e, key).unwrap_or_else(|| panic!("{} span without `{key}`", e.name))
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
    let session = planted_session();
    for threads in [1usize, 4] {
        let cfg = config(threads);
        let bare = results_bytes(&session, &cfg);
        let (traced, capture) = captured(|| results_bytes(&session, &cfg));
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

/// Two callers tracing at once on two threads each drain only their own
/// spans: with a capture open, this thread mines an in-memory planted
/// session while a second thread, its own capture opened at the same time,
/// mines the same data from FBIN, drains and ends before this one drains.
/// Each capture holds one `mine.run` on lane 0 (its opening thread), every
/// other lane is one of its own exec workers, and only the streamed one
/// has store spans.
#[test]
fn concurrent_captures_hold_only_their_own_spans() {
    let ds = flipper_api::io::Generator::Planted(PlantedParams::default()).dataset();
    let dir = std::env::temp_dir().join(format!("flipper-obs-concurrent-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("planted.fbin");
    flipper_api::io::write_path(&path, &ds, flipper_api::io::FileFormat::Fbin).unwrap();
    let cfg = FlipperConfig {
        pruning: PruningConfig::BASIC,
        ..config(4)
    };
    // Both captures are open before either thread mines; nothing can fail
    // before the barrier, so a failing mine fails the test, not hangs it.
    let both_open = Barrier::new(2);
    let mine = |session: Session| session.mine(&cfg).expect("mine succeeds");
    let (streamed, memory) = captured(|| {
        std::thread::scope(|s| {
            let streamed = s.spawn(|| {
                let ((), capture) = captured(|| {
                    both_open.wait();
                    mine(Session::open_path(&path).unwrap());
                });
                capture
            });
            both_open.wait();
            mine(Session::from_db(&ds.taxonomy, &ds.db).unwrap());
            streamed.join().unwrap()
        })
    });
    let _ = std::fs::remove_dir_all(&dir);
    for (capture, is_streamed) in [(&memory, false), (&streamed, true)] {
        let stats = flipper_obs::validate_trace(&capture.render_trace()).expect("trace valid");
        let lanes = |name: &str| -> Vec<u32> {
            let named = capture.events.iter().filter(|e| e.name == name);
            named.map(|e| e.lane).collect()
        };
        assert_eq!(
            lanes("mine.run"),
            [0],
            "one mine.run, on the opening thread's lane"
        );
        let mut own: BTreeSet<u32> = lanes("exec.shard").into_iter().collect();
        own.insert(0);
        assert!(own.len() > 1, "the mine shards over exec workers");
        let all: BTreeSet<u32> = capture.events.iter().map(|e| e.lane).collect();
        assert_eq!(all, own, "the opener and its own workers only");
        for name in ["store.decode", "store.chunk"] {
            assert_eq!(
                stats.names.contains(name),
                is_streamed,
                "span {name} belongs to the streamed capture only"
            );
        }
    }
}

/// The sparse Quest session of the projection tests and a BASIC
/// configuration over it: every level's batches hold at least
/// `MIN_SHARD_CANDIDATES` candidates, so counting at `threads` > 1 shards.
fn quest_basic(threads: usize) -> (Session, FlipperConfig) {
    let data = quest::generate(&QuestParams::default().with_transactions(1_000).with_seed(7));
    let session = Session::from_db(&data.taxonomy, &data.db).expect("quest ingests");
    let cfg = FlipperConfig {
        min_support: MinSupports::Fractions(vec![0.02, 0.008, 0.004, 0.003]),
        pruning: PruningConfig::BASIC,
        ..config(threads)
    };
    (session, cfg)
}

/// A traced mine renders a valid `flipper-trace/v1` document that covers
/// ingest, view build, per-level generation and counting — and spans
/// recorded inside exec worker shards still nest within their lanes.
#[test]
fn traced_mine_emits_valid_covering_trace() {
    // Sharded counting: the Quest batches fan out over four workers, so
    // the trace exercises multiple lanes.
    let (result, capture) = captured(|| {
        let (session, cfg) = quest_basic(4);
        session.mine(&cfg).expect("mine succeeds")
    });
    assert!(result.stats.cells_evaluated > 0);
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
    // one counting batch).
    assert!(
        stats.lanes > 1,
        "expected worker lanes, got {}",
        stats.lanes
    );
}

/// Candidate provenance per cell: every `mine.gen` span says how many
/// candidates each source produced, how many supports the vertical DFS
/// fused in, and how many joins the subset check and the SIBP bans
/// pruned; those pruned counts sum over the spans to the run's own. A
/// FULL mine fuses some below level 1; BASIC never does.
#[test]
fn gen_spans_record_candidate_provenance() {
    let gen_args = |session: &Session, cfg: &FlipperConfig| {
        let (result, capture) = captured(|| session.mine(cfg).expect("mine succeeds"));
        let name = cfg.pruning.name();
        let keys = [
            "h",
            "pairs",
            "horizontal",
            "vertical",
            "fused",
            "support_pruned",
            "sibp_pruned",
        ];
        let rows: Vec<[u64; 7]> = capture
            .events
            .iter()
            .filter(|e| e.name == "mine.gen")
            .map(|e| keys.map(|key| must_arg(e, key)))
            .collect();
        assert!(!rows.is_empty(), "no mine.gen spans ({name})");
        let sum = |col: usize| rows.iter().map(|r| r[col]).sum::<u64>();
        assert_eq!(
            (sum(5), sum(6)),
            (result.stats.pruned_by_support, result.stats.pruned_by_sibp),
            "{name}: the spans' pruned counts sum to the run's"
        );
        rows
    };
    let planted = planted_session();
    let with = |pruning: PruningConfig, cfg: &FlipperConfig| FlipperConfig {
        pruning,
        ..cfg.clone()
    };
    let full = gen_args(&planted, &with(PruningConfig::FULL, &config(1)));
    assert!(
        full.iter()
            .any(|&[h, _, _, _, fused, ..]| h >= 2 && fused > 0),
        "FULL fused no supports: {full:?}"
    );
    assert!(full
        .iter()
        .all(|&[h, _, _, _, fused, ..]| h >= 2 || fused == 0));
    let basic = gen_args(&planted, &with(PruningConfig::BASIC, &config(1)));
    assert!(
        basic
            .iter()
            .all(|&[_, _, _, vertical, fused, ..]| vertical == 0 && fused == 0),
        "BASIC has no vertical source: {basic:?}"
    );
    // The planted data prunes nothing; on Quest the subset check bites in
    // both variants, so the sums above compare non-zero counts.
    let (quest, quest_cfg) = quest_basic(1);
    for pruning in [PruningConfig::FULL, PruningConfig::BASIC] {
        let rows = gen_args(&quest, &with(pruning, &quest_cfg));
        assert!(
            rows.iter().any(|r| r[5] > 0),
            "{}: the subset check pruned nothing",
            pruning.name()
        );
    }
}

/// Span nesting across shard boundaries: spans opened inside exec worker
/// closures land on per-thread lanes and stay properly nested even when
/// the same thread runs nested pools.
#[test]
fn spans_nest_across_shard_boundaries() {
    let (sums, capture) = captured(|| {
        let _outer = flipper_obs::span("test.outer");
        flipper_data::exec::map_chunks(4, 64, |r| {
            let _chunk_span = flipper_obs::span("test.chunk").arg("len", r.len() as u64);
            // A nested pool from inside a worker: its chunks' spans must not
            // corrupt the outer lanes.
            flipper_data::exec::map_chunks(2, r.len(), |inner| {
                let _inner_span = flipper_obs::span("test.inner");
                inner.len()
            })
            .into_iter()
            .sum::<usize>()
        })
    });
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
    // test.chunk spans recorded inside a shard carry the shard tag.
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
    let run_sweep = || {
        let session = planted_session();
        let runs = session
            .sweep()
            .thresholds_grid(&config(2), &[0.6, 0.5], &[0.35])
            .run()
            .expect("sweep runs");
        let mut sink = JsonWriter::new(Vec::new());
        flipper_api::emit_runs(&mut sink, session.taxonomy(), &runs).expect("emit");
        sink.into_inner()
    };
    let bare = run_sweep();
    let (traced, capture) = captured(run_sweep);
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

/// The view's bitmaps are built once per level per view, however many
/// mining calls share it: a sweep over a fresh session
/// records one `view.dense` span per level, each with its promoted `items`
/// and their `bytes`, and a second sweep over the same session records none.
#[test]
fn sweep_builds_view_bitmaps_once_per_level() {
    let session = planted_session();
    let dense_spans = || {
        let (runs, capture) = captured(|| {
            session
                .sweep()
                .thresholds_grid(&config(1), &[0.6, 0.5], &[0.35, 0.2])
                .run()
        });
        runs.expect("sweep runs");
        let mut levels: Vec<[u64; 3]> = capture
            .events
            .iter()
            .filter(|e| e.name == "view.dense")
            .map(|e| ["h", "items", "bytes"].map(|key| must_arg(e, key)))
            .collect();
        levels.sort_unstable();
        levels
    };
    let first = dense_spans();
    let height = session.taxonomy().height() as u64;
    let built: Vec<u64> = first.iter().map(|&[h, ..]| h).collect();
    assert_eq!(
        built,
        (1..=height).collect::<Vec<_>>(),
        "one build per level"
    );
    assert!(
        first
            .iter()
            .any(|&[_, items, bytes]| items > 0 && bytes > 0),
        "some level promotes items: {first:?}"
    );
    assert!(dense_spans().is_empty(), "a second sweep rebuilt bitmaps");
}

/// The view's rows are built once per level they are projected at: on a
/// sparse Quest session, a first BASIC mine records one `view.rows` span per
/// such level, with the level `h`, one row per transaction and their
/// `bytes` (`N + 1` offsets plus at least one item per row), and the
/// `projected` args of its `mine.count` spans add up to the run's
/// `CounterStats::projected`. A second mine on the session projects the
/// same members and records no `view.rows` span.
#[test]
fn basic_mines_build_view_rows_once_per_level() {
    let (session, cfg) = quest_basic(2);
    let n = session.view().num_transactions() as u64;
    let traced_mine = || {
        let (result, capture) = captured(|| session.mine(&cfg).expect("mine succeeds"));
        let mut rows: Vec<[u64; 3]> = capture
            .events
            .iter()
            .filter(|e| e.name == "view.rows")
            .map(|e| ["h", "rows", "bytes"].map(|key| must_arg(e, key)))
            .collect();
        rows.sort_unstable();
        let projected: u64 = capture
            .events
            .iter()
            .filter(|e| e.name == "mine.count")
            .map(|e| must_arg(e, "projected"))
            .sum();
        (result.stats.counter.projected, projected, rows)
    };
    let (first, first_spans, built) = traced_mine();
    assert!(first > 0, "the BASIC mine projects");
    assert_eq!(first_spans, first, "mine.count spans account for it");
    assert!(!built.is_empty(), "projecting builds rows");
    let height = session.taxonomy().height() as u64;
    for (i, &[h, rows, bytes]) in built.iter().enumerate() {
        assert!(h >= 1 && h <= height, "level {h}");
        assert!(
            i == 0 || built[i - 1][0] < h,
            "one build per level: {built:?}"
        );
        assert_eq!(rows, n, "one row per transaction at h {h}");
        assert!(bytes >= 4 * (n + 1) + 4 * n, "h {h}: {bytes} bytes");
    }
    let (second, second_spans, rebuilt) = traced_mine();
    assert_eq!(
        second, first,
        "projection never depends on the rows being built"
    );
    assert_eq!(second_spans, second);
    assert!(
        rebuilt.is_empty(),
        "a second mine rebuilt rows: {rebuilt:?}"
    );
}

/// Vertical replay per cell: every `mine.gen` span with a vertical source
/// says how many parent sets it replayed from the session memo
/// (`memo_hits`) and enumerated (`memo_misses`). The two points of this
/// seeded sweep resolve to different θ, so the first sweep replays
/// nothing; a repeat of the same sweep replays every alive parent set.
#[test]
fn gen_spans_record_memo_replays() {
    let session = planted_session();
    let base = FlipperConfig {
        min_support: MinSupports::Counts(vec![5]),
        ..config(1)
    };
    let other = FlipperConfig {
        min_support: MinSupports::Counts(vec![4]),
        ..base.clone()
    };
    let sweep = || {
        let (runs, capture) = captured(|| {
            let sweep = session.sweep().add("s5", base.clone());
            sweep.add("s4", other.clone()).run().expect("sweep runs")
        });
        let (mut hits, mut misses) = (0, 0);
        for e in capture.events.iter().filter(|e| e.name == "mine.gen") {
            let h = must_arg(e, "h");
            match (arg(e, "memo_hits"), arg(e, "memo_misses")) {
                (Some(hit), Some(miss)) => {
                    assert!(h >= 2, "a level-1 cell has no vertical source");
                    hits += hit;
                    misses += miss;
                }
                (None, None) => assert_eq!(h, 1, "a FULL row below 1 is vertical"),
                other => panic!("memo args come in pairs: {other:?}"),
            }
        }
        // The alive parent sets behind every vertical cell `Q(h,k)`: the
        // alive itemsets of `Q(h−1,k)`.
        let alive_parents: u64 = runs
            .iter()
            .map(|run| {
                let cells = &run.result.cells;
                cells
                    .iter()
                    .filter(|c| c.level >= 2)
                    .filter_map(|c| {
                        cells
                            .iter()
                            .find(|p| p.level + 1 == c.level && p.k == c.k)
                            .map(|p| p.alive as u64)
                    })
                    .sum::<u64>()
            })
            .sum();
        (hits, misses, alive_parents)
    };
    let (hits, misses, alive) = sweep();
    assert!(
        alive > 0,
        "the sweep must extend some parent set vertically"
    );
    assert_eq!((hits, misses), (0, alive), "first sweep: all enumerated");
    let (hits, misses, alive_again) = sweep();
    assert_eq!(alive_again, alive);
    assert_eq!((hits, misses), (alive, 0), "repeat: all replayed");
}
