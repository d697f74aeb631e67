//! Façade acceptance tests: the `flipper-api` session surface must be a
//! zero-cost relabeling of the one mining call, `mine_with_view`, and its
//! machine-readable output must be byte-stable.
//!
//! * `session_equals_single_shot_paths` — `Session::mine` on a fresh
//!   session == `mine_with_view` over a fresh memo, on a shared view and on
//!   a freshly built one (patterns, cell summaries, deterministic
//!   statistics) on quest + planted datasets, for every pruning variant ×
//!   thread count; a session whose memo is warm mines the same results at
//!   no more intersections.
//! * `sweep_points_equal_solo_runs` — every labeled sweep point equals the
//!   same configuration run alone, at every job count.
//! * `results_v1_golden` — the `flipper-results/v1` JSON document is
//!   byte-identical across thread counts {1, 4} and matches the committed
//!   golden file (set `UPDATE_GOLDEN=1` to re-bless after an intentional
//!   schema change).

use flipper_api::io::{FileFormat, Generator};
use flipper_api::{
    Dataset, FlipperConfig, JsonWriter, MinSupports, PruningConfig, ResultSink, Session, Thresholds,
};
use flipper_core::{mine_with_view, MiningResult};
use flipper_data::{MultiLevelView, VerticalMemo};
use flipper_datagen::planted::PlantedParams;
use flipper_datagen::quest::QuestParams;
use flipper_taxonomy::Taxonomy;

/// Equality of everything a run's result determines: patterns, cell
/// summaries and the search counters, not what it cost to get there.
fn assert_same_search(a: &MiningResult, b: &MiningResult, ctx: &str) {
    assert_eq!(a.patterns, b.patterns, "{ctx}: patterns");
    assert_eq!(a.cells, b.cells, "{ctx}: cell summaries");
    let search = |s: &flipper_api::RunStats| {
        [
            s.candidates_generated,
            s.pruned_by_sibp,
            s.pruned_by_support,
            s.dead_parent_cells,
            s.frequent_found,
            s.positive_found,
            s.negative_found,
            s.cells_evaluated,
            s.tpg_cap,
            s.sibp_banned_items,
            s.peak_resident_itemsets,
            s.total_stored_itemsets,
        ]
    };
    assert_eq!(search(&a.stats), search(&b.stats), "{ctx}: search counters");
}

/// Equality of everything deterministic in two runs over cold memos
/// (elapsed wall-clock is the one legitimately varying field).
fn assert_results_equal(a: &MiningResult, b: &MiningResult, ctx: &str) {
    assert_same_search(a, b, ctx);
    assert_eq!(a.stats.counter, b.stats.counter, "{ctx}: counter stats");
    assert_eq!(
        (a.stats.seeded_supports, b.stats.seeded_supports),
        (0, 0),
        "{ctx}: a cold memo replays nothing"
    );
}

/// `warm` ran on a session whose memo already held its enumerations,
/// `cold` on a fresh one: the same search, at no more intersections, and
/// with supports replayed wherever a vertical source ran.
fn assert_replays(warm: &MiningResult, cold: &MiningResult, cfg: &FlipperConfig, ctx: &str) {
    assert_same_search(warm, cold, ctx);
    assert!(
        warm.stats.counter.intersections <= cold.stats.counter.intersections,
        "{ctx}: replay never costs intersections"
    );
    if cfg.pruning.flipping() {
        assert!(warm.stats.seeded_supports > 0, "{ctx}: nothing replayed");
    }
}

fn cases() -> Vec<(&'static str, Dataset, FlipperConfig)> {
    let quest =
        Generator::Quest(QuestParams::default().with_transactions(300).with_seed(11)).dataset();
    let planted = Generator::Planted(PlantedParams::default()).dataset();
    vec![
        (
            "quest",
            quest,
            FlipperConfig::new(
                Thresholds::new(0.5, 0.25),
                MinSupports::Counts(vec![6, 3, 2, 1]),
            ),
        ),
        (
            "planted",
            planted,
            FlipperConfig::new(Thresholds::new(0.6, 0.35), MinSupports::Counts(vec![5])),
        ),
    ]
}

#[test]
fn session_equals_single_shot_paths() {
    for (name, ds, base) in cases() {
        let view = MultiLevelView::build(&ds.db, &ds.taxonomy).unwrap();
        // Mined under every variant once, so every call below replays.
        let warm = Session::from_db(&ds.taxonomy, &ds.db).unwrap();
        warm.sweep().pruning_variants(&base).run().unwrap();
        for pruning in PruningConfig::VARIANTS {
            for threads in [1usize, 4] {
                let cfg = base.clone().with_pruning(pruning).with_threads(threads);
                let ctx = format!("{name} {} threads={threads}", pruning.name());
                let via_session = Session::from_db(&ds.taxonomy, &ds.db)
                    .unwrap()
                    .mine(&cfg)
                    .unwrap();
                let via_view =
                    mine_with_view(&ds.taxonomy, &view, &cfg, &VerticalMemo::new(), None).unwrap();
                let fresh_view = MultiLevelView::build(&ds.db, &ds.taxonomy).unwrap();
                let via_mine =
                    mine_with_view(&ds.taxonomy, &fresh_view, &cfg, &VerticalMemo::new(), None)
                        .unwrap();
                assert_results_equal(&via_session, &via_view, &ctx);
                assert_results_equal(&via_session, &via_mine, &ctx);
                assert_replays(&warm.mine(&cfg).unwrap(), &via_session, &cfg, &ctx);
            }
        }
    }
}

#[test]
fn sweep_points_equal_solo_runs() {
    for (name, ds, base) in cases() {
        let solo = |cfg: &FlipperConfig| {
            Session::from_db(&ds.taxonomy, &ds.db)
                .unwrap()
                .mine(cfg)
                .unwrap()
        };
        // A point swept alone on a fresh session matches the solo run
        // on another in every deterministic statistic, kernel counters
        // included.
        for pruning in PruningConfig::VARIANTS {
            let cfg = base.clone().with_pruning(pruning);
            let fresh = Session::from_db(&ds.taxonomy, &ds.db).unwrap();
            let point = fresh.sweep().add("p", cfg.clone());
            let ctx = format!("{name} {}", pruning.name());
            assert_results_equal(&point.run().unwrap()[0].result, &solo(&cfg), &ctx);
        }
        // Swept twice on one session, the second sweep replays what the
        // first recorded: same search, no more intersections.
        let session = Session::from_db(&ds.taxonomy, &ds.db).unwrap();
        session.sweep().pruning_variants(&base).run().unwrap();
        let warm = session.sweep().pruning_variants(&base).run().unwrap();
        assert_eq!(warm.len(), 4);
        for run in &warm {
            assert_eq!(run.duplicate_of, None, "{name}: distinct configs");
            let ctx = format!("{name} {}", run.label);
            assert_replays(&run.result, &solo(&run.config), &run.config, &ctx);
        }
        // A thread-count tail: those points only differ in an execution
        // knob, so they are served as duplicates — and every point's
        // *results* still equal the solo run (replay and dedup change
        // counting cost, never patterns or cells).
        let runs = session
            .sweep()
            .pruning_variants(&base)
            .add("t1", base.clone().with_threads(1))
            .add("t2", base.clone().with_threads(2))
            .run()
            .unwrap();
        assert_eq!(runs.len(), 6);
        for run in &runs[4..] {
            assert_eq!(
                run.duplicate_of.as_deref(),
                Some(base.pruning.name()),
                "{name}: thread-count points repeat the base config"
            );
        }
        for run in &runs {
            let alone = solo(&run.config);
            let ctx = format!("{name} {}", run.label);
            assert_eq!(run.result.patterns, alone.patterns, "{ctx}: patterns");
            assert_eq!(run.result.cells, alone.cells, "{ctx}: cell summaries");
        }
    }
}

/// The Fig. 4 toy dataset of the paper — ten transactions, fully
/// deterministic, small enough for a readable golden file.
fn fig4_dataset() -> Dataset {
    let taxonomy = Taxonomy::from_edges([
        ("a", ""),
        ("b", ""),
        ("a1", "a"),
        ("a2", "a"),
        ("b1", "b"),
        ("b2", "b"),
        ("a11", "a1"),
        ("a12", "a1"),
        ("a21", "a2"),
        ("a22", "a2"),
        ("b11", "b1"),
        ("b12", "b1"),
        ("b21", "b2"),
        ("b22", "b2"),
    ])
    .unwrap();
    let g = |s: &str| taxonomy.node_by_name(s).unwrap();
    let db = flipper_data::TransactionDb::new(vec![
        vec![g("a11"), g("a22"), g("b11"), g("b22")],
        vec![g("a11"), g("a21"), g("b11")],
        vec![g("a12"), g("a21")],
        vec![g("a12"), g("a22"), g("b21")],
        vec![g("a12"), g("a22"), g("b21")],
        vec![g("a12"), g("a21"), g("b22")],
        vec![g("a21"), g("b12")],
        vec![g("b12"), g("b21"), g("b22")],
        vec![g("b12"), g("b21")],
        vec![g("a22"), g("b12"), g("b22")],
    ])
    .unwrap();
    Dataset { taxonomy, db }
}

/// Render the two-run (full + basic pruning) report at a given thread
/// count.
fn render_fig4_report(threads: usize) -> Vec<u8> {
    let ds = fig4_dataset();
    let session = Session::from_db(&ds.taxonomy, &ds.db).unwrap();
    let base = FlipperConfig::new(Thresholds::new(0.6, 0.35), MinSupports::Counts(vec![1]))
        .with_threads(threads);
    let mut json = JsonWriter::new(Vec::new());
    for pruning in [PruningConfig::FULL, PruningConfig::BASIC] {
        let cfg = base.clone().with_pruning(pruning);
        let result = session.mine(&cfg).unwrap();
        json.consume(pruning.name(), session.taxonomy(), &cfg, &result)
            .unwrap();
    }
    json.finish().unwrap();
    json.into_inner()
}

#[test]
fn results_v1_golden() {
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/results_v1.json");
    let rendered = render_fig4_report(1);

    // Byte-identical across thread counts: the schema excludes execution
    // knobs and timings by design.
    assert_eq!(
        rendered,
        render_fig4_report(4),
        "flipper-results/v1 must not depend on the thread count"
    );

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read(golden_path).unwrap_or_else(|e| {
        panic!("golden file missing ({e}); run with UPDATE_GOLDEN=1 to create it")
    });
    assert_eq!(
        String::from_utf8(rendered).unwrap(),
        String::from_utf8(golden).unwrap(),
        "flipper-results/v1 output drifted from the golden file; if the \
         change is intentional, re-bless with UPDATE_GOLDEN=1"
    );
}

#[test]
fn streamed_session_mines_identically_to_loaded() {
    let ds = Generator::Planted(PlantedParams::default()).dataset();
    let dir = std::env::temp_dir().join(format!("flipper-facade-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("planted.fbin");
    flipper_api::io::write_path(&path, &ds, FileFormat::Fbin).unwrap();
    let loaded = Session::from_db(&ds.taxonomy, &ds.db).unwrap();
    let cfg = FlipperConfig::new(Thresholds::new(0.6, 0.35), MinSupports::Counts(vec![5]));
    let want = loaded.mine(&cfg).unwrap();
    let streamed = Session::open_path(&path).unwrap();
    let got = streamed.mine(&cfg).unwrap();
    assert_results_equal(&got, &want, "streamed");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Repeated-run determinism: the same configuration rendered five times at
/// each thread count must produce byte-identical `flipper-results/v1`
/// documents — the end-to-end guarantee behind `flipper-lint`'s
/// `determinism` rule (no hash-ordered iteration anywhere on the result
/// path).
#[test]
fn results_v1_bytes_identical_across_repeated_runs() {
    for (name, ds, base) in cases() {
        let session = Session::from_db(&ds.taxonomy, &ds.db).unwrap();
        let mut reference: Option<Vec<u8>> = None;
        for threads in [1usize, 4] {
            let cfg = base.clone().with_threads(threads);
            for run in 0..5 {
                let result = session.mine(&cfg).unwrap();
                let mut json = JsonWriter::new(Vec::new());
                json.consume("repeat", session.taxonomy(), &cfg, &result)
                    .unwrap();
                json.finish().unwrap();
                let bytes = json.into_inner();
                match &reference {
                    None => reference = Some(bytes),
                    Some(want) => assert_eq!(
                        String::from_utf8_lossy(&bytes),
                        String::from_utf8_lossy(want),
                        "{name} threads={threads} run={run}: result bytes drifted"
                    ),
                }
            }
        }
    }
}
