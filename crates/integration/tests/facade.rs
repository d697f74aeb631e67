//! Façade acceptance tests: the `flipper-api` session surface must be a
//! zero-cost relabeling of the single-shot mining paths, and its
//! machine-readable output must be byte-stable.
//!
//! * `session_equals_single_shot_paths` — `Session::mine` ==
//!   `mine_with_view` == `mine` (patterns, cell summaries, deterministic
//!   statistics) on quest + planted datasets, for every pruning variant ×
//!   thread count.
//! * `sweep_points_equal_solo_runs` — every labeled sweep point equals the
//!   same configuration run alone, at every job count.
//! * `results_v1_golden` — the `flipper-results/v1` JSON document is
//!   byte-identical across thread counts {1, 4} and matches the committed
//!   golden file (set `UPDATE_GOLDEN=1` to re-bless after an intentional
//!   schema change).

use flipper_api::{
    Dataset, FlipperConfig, Generator, JsonWriter, MinSupports, PruningConfig, ResultSink, Session,
    Thresholds,
};
use flipper_core::{mine, mine_with_view, MiningResult};
use flipper_data::MultiLevelView;
use flipper_datagen::planted::PlantedParams;
use flipper_datagen::quest::QuestParams;
use flipper_taxonomy::{RebalancePolicy, Taxonomy};

/// Equality of everything deterministic in a result (elapsed wall-clock is
/// the one legitimately varying field).
fn assert_results_equal(a: &MiningResult, b: &MiningResult, ctx: &str) {
    assert_eq!(a.patterns, b.patterns, "{ctx}: patterns");
    assert_eq!(a.cells, b.cells, "{ctx}: cell summaries");
    assert_eq!(
        a.stats.candidates_generated, b.stats.candidates_generated,
        "{ctx}: candidates"
    );
    assert_eq!(
        a.stats.frequent_found, b.stats.frequent_found,
        "{ctx}: frequent"
    );
    assert_eq!(
        a.stats.peak_resident_itemsets, b.stats.peak_resident_itemsets,
        "{ctx}: memory proxy"
    );
    assert_eq!(a.stats.counter, b.stats.counter, "{ctx}: counter stats");
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
        let session = Session::open(&ds).unwrap();
        let view = MultiLevelView::build(&ds.db, &ds.taxonomy);
        for pruning in PruningConfig::VARIANTS {
            for threads in [1usize, 4] {
                let cfg = base.clone().with_pruning(pruning).with_threads(threads);
                let ctx = format!("{name} {} threads={threads}", pruning.name());
                let via_session = session.mine(&cfg).unwrap();
                let via_view = mine_with_view(&ds.taxonomy, &view, &cfg);
                let via_mine = mine(&ds.taxonomy, &ds.db, &cfg);
                assert_results_equal(&via_session, &via_view, &ctx);
                assert_results_equal(&via_session, &via_mine, &ctx);
            }
        }
    }
}

#[test]
fn sweep_points_equal_solo_runs() {
    for (name, ds, base) in cases() {
        let session = Session::open(&ds).unwrap();
        for jobs in [1usize, 4] {
            // Unseeded, duplicate-free sweep: every deterministic statistic
            // (including kernel counters) matches the solo run exactly.
            let strict = session
                .sweep()
                .with_jobs(jobs)
                .with_seeding(false)
                .pruning_variants(&base)
                .run()
                .unwrap();
            assert_eq!(strict.len(), 4);
            for run in &strict {
                assert_eq!(run.duplicate_of, None, "{name}: distinct configs");
                let solo = session.mine(&run.config).unwrap();
                assert_results_equal(
                    &run.result,
                    &solo,
                    &format!("{name} jobs={jobs} {}", run.label),
                );
            }
            // Seeded sweep with a thread-count tail: those points only
            // differ in an execution knob, so they are served as duplicates —
            // and every point's *results* still equal the solo run (seeding
            // and dedup change counting cost, never patterns or cells).
            let runs = session
                .sweep()
                .with_jobs(jobs)
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
                let solo = session.mine(&run.config).unwrap();
                let ctx = format!("{name} jobs={jobs} {}", run.label);
                assert_eq!(run.result.patterns, solo.patterns, "{ctx}: patterns");
                assert_eq!(run.result.cells, solo.cells, "{ctx}: cell summaries");
            }
        }
    }
}

/// The Fig. 4 toy dataset of the paper — ten transactions, fully
/// deterministic, small enough for a readable golden file.
fn fig4_dataset() -> Dataset {
    let taxonomy = Taxonomy::from_edges(
        [
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
        ],
        RebalancePolicy::RequireBalanced,
    )
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
    let session = Session::open(fig4_dataset()).unwrap();
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
    let fbin = flipper_store::to_fbin_bytes(&ds).unwrap();
    let loaded = Session::open(&ds).unwrap();
    let cfg = FlipperConfig::new(Thresholds::new(0.6, 0.35), MinSupports::Counts(vec![5]));
    let want = loaded.mine(&cfg).unwrap();
    for threads in [1usize, 4] {
        let streamed =
            Session::open_with_threads(flipper_api::FbinSource::new(&fbin[..]), threads).unwrap();
        assert!(streamed.database().is_none());
        let got = streamed.mine(&cfg).unwrap();
        assert_results_equal(&got, &want, &format!("streamed threads={threads}"));
    }
}

/// Repeated-run determinism: the same configuration rendered five times at
/// each thread count must produce byte-identical `flipper-results/v1`
/// documents — the end-to-end guarantee behind `flipper-lint`'s
/// `determinism` rule (no hash-ordered iteration anywhere on the result
/// path).
#[test]
fn results_v1_bytes_identical_across_repeated_runs() {
    for (name, ds, base) in cases() {
        let session = Session::open(&ds).unwrap();
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
