//! Memo equivalence: replaying vertical enumerations from the session memo
//! is a pure cost lever — the labeled results and their
//! `flipper-results/v1` bytes are identical to mining on a fresh session,
//! whose memo is cold.

use flipper_api::io::Generator;
use flipper_api::{
    FlipperConfig, JsonWriter, MinSupports, MiningResult, PruningConfig, ResultSink, Session,
};
use flipper_data::rng::{Rng, Xoshiro256pp};
use flipper_datagen::quest::QuestParams;
use flipper_measures::Thresholds;

fn quest_dataset() -> flipper_api::Dataset {
    Generator::Quest(QuestParams::default().with_transactions(300).with_seed(11)).dataset()
}

fn quest_config() -> FlipperConfig {
    FlipperConfig::new(
        Thresholds::new(0.5, 0.25),
        MinSupports::Counts(vec![6, 3, 2, 1]),
    )
}

/// A sweep that replays recorded enumerations from the session memo
/// renders the same `flipper-results/v1` bytes as the same grid with every
/// point swept alone on a fresh session, whose memo is cold.
#[test]
fn replayed_sweep_is_byte_identical_to_cold_points() {
    let dataset = quest_dataset();
    let base = quest_config();
    let session = Session::from_db(&dataset.taxonomy, &dataset.db).unwrap();
    let render = |runs: &[flipper_api::SweepRun]| {
        let mut json = JsonWriter::new(Vec::new());
        flipper_api::emit_runs(&mut json, session.taxonomy(), runs).unwrap();
        json.into_inner()
    };
    let grid = || {
        session
            .sweep()
            .thresholds_grid(&base, &[0.5, 0.4, 0.3], &[0.1, 0.25])
            .run()
            .unwrap()
    };
    let warmup = grid();
    assert!(!warmup.is_empty());
    let warm_before = session.support_cache_stats();
    assert!(
        warm_before.entries > 0,
        "sweep must record enumerations in the session memo"
    );
    let replayed = grid();
    assert!(
        session.support_cache_stats().seed_hits > warm_before.seed_hits,
        "warm sweep must hit the memo"
    );
    let cold: Vec<flipper_api::SweepRun> = replayed
        .iter()
        .map(|run| {
            let fresh = Session::from_db(&dataset.taxonomy, &dataset.db).unwrap();
            let point = fresh.sweep().add(run.label.clone(), run.config.clone());
            let alone = point.run().unwrap().remove(0);
            assert_eq!(alone.result.stats.seeded_supports, 0, "{}", run.label);
            alone
        })
        .collect();
    assert_eq!(
        String::from_utf8_lossy(&render(&replayed)),
        String::from_utf8_lossy(&render(&cold)),
        "replay changes counting cost, never results"
    );
}

/// The search counters a run's result determines: everything in
/// [`flipper_api::RunStats`] except the cost of getting there (kernel
/// counters, seeded supports, wall time).
fn search_counters(s: &flipper_api::RunStats) -> [u64; 12] {
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
}

/// Random γ/ε points under every pruning variant and two minimum-support
/// profiles, shuffled, so memo entries recorded under one θ sit next to
/// points mined under another and must never be replayed there.
fn random_points(rng: &mut Xoshiro256pp, round: usize) -> Vec<(String, FlipperConfig)> {
    let supports = [
        MinSupports::Counts(vec![6, 3, 2, 1]),
        MinSupports::Counts(vec![8, 4, 3, 2]),
    ];
    let mut points = Vec::new();
    for (s, min_support) in supports.iter().enumerate() {
        for pruning in PruningConfig::VARIANTS {
            for _ in 0..2 {
                let gamma = 0.3 + 0.05 * rng.gen_range(0..8u32) as f64;
                let epsilon = gamma * 0.1 * rng.gen_range(1..9u32) as f64;
                let mut cfg =
                    FlipperConfig::new(Thresholds::new(gamma, epsilon), min_support.clone());
                cfg.pruning = pruning;
                let label = format!("r{round}/s{s}/{}/g{gamma}/e{epsilon}", pruning.name());
                points.push((label, cfg));
            }
        }
    }
    for i in (1..points.len()).rev() {
        points.swap(i, rng.gen_range(0..=i));
    }
    points
}

/// Sweeps replay vertical enumerations from the session memo; every
/// point's `flipper-results/v1` bytes equal a mine of the same
/// configuration on a fresh session, over random grids in random order, and
/// no replay costs an intersection.
#[test]
fn memoized_sweeps_are_byte_identical_to_fresh_mines() {
    let dataset = quest_dataset();
    let bytes = |session: &Session, label: &str, cfg: &FlipperConfig, r: &MiningResult| {
        let mut json = JsonWriter::new(Vec::new());
        json.consume(label, session.taxonomy(), cfg, r).unwrap();
        json.finish().unwrap();
        json.into_inner()
    };
    let mut rng = Xoshiro256pp::seed_from_u64(24);
    let session = Session::from_db(&dataset.taxonomy, &dataset.db).unwrap();
    for round in 0..2 {
        let before = session.support_cache_stats();
        let runs = random_points(&mut rng, round)
            .into_iter()
            .fold(session.sweep(), |sweep, (label, cfg)| sweep.add(label, cfg))
            .run()
            .unwrap();
        let memo = session.support_cache_stats();
        for run in &runs {
            let fresh = Session::from_db(&dataset.taxonomy, &dataset.db)
                .unwrap()
                .mine(&run.config)
                .unwrap();
            let ctx = &run.label;
            assert_eq!(
                String::from_utf8_lossy(&bytes(&session, &run.label, &run.config, &run.result)),
                String::from_utf8_lossy(&bytes(&session, &run.label, &run.config, &fresh)),
                "{ctx}"
            );
            assert_eq!(
                search_counters(&run.result.stats),
                search_counters(&fresh.stats),
                "{ctx}"
            );
            assert!(
                run.result.stats.counter.intersections <= fresh.stats.counter.intersections,
                "{ctx}: replay never costs intersections"
            );
        }
        assert!(
            memo.seed_hits > before.seed_hits,
            "round {round}: nothing replayed"
        );
        assert_eq!(
            memo.seed_lookups - memo.seed_hits,
            memo.entries,
            "a sweep records each miss once"
        );
    }
}

/// Every per-run counter the benchmark compares between iterations: the
/// search counters, the supports replayed from the memo, and the kernel
/// and cache counters.
fn work_counters(
    s: &flipper_api::RunStats,
) -> (
    [u64; 12],
    u64,
    flipper_data::CounterStats,
    flipper_api::CacheStats,
) {
    (search_counters(s), s.seeded_supports, s.counter, s.cache)
}

/// The benchmark's `quest-sweep` iteration — sweep A, then sweep B, on one
/// fresh session — repeats its counters exactly: two fresh
/// sessions report identical per-point [`flipper_api::RunStats`] and
/// identical memo stats deltas per sweep. A cold first point replays
/// nothing; a point sweep B repeats from sweep A replays supports.
#[test]
fn fresh_session_sweep_counters_repeat_exactly() {
    const SWEEP_A: (&[f64], &[f64]) = (&[0.5, 0.4, 0.3], &[0.25, 0.1]);
    const SWEEP_B: (&[f64], &[f64]) = (&[0.3], &[0.25, 0.2, 0.15, 0.1, 0.05]);
    let dataset = quest_dataset();
    let base = quest_config();
    let iteration = || {
        let session = Session::from_db(&dataset.taxonomy, &dataset.db).unwrap();
        let mut points = Vec::new();
        let mut deltas = Vec::new();
        for (gammas, epsilons) in [SWEEP_A, SWEEP_B] {
            let before = session.support_cache_stats();
            let runs = session
                .sweep()
                .thresholds_grid(&base, gammas, epsilons)
                .run()
                .unwrap();
            let after = session.support_cache_stats();
            deltas.push((
                after.seed_hits - before.seed_hits,
                after.seed_lookups - before.seed_lookups,
            ));
            for run in runs {
                points.push((run.label, work_counters(&run.result.stats)));
            }
        }
        (points, deltas)
    };
    let (points, deltas) = iteration();
    assert_eq!(iteration(), (points.clone(), deltas));
    assert_eq!(points[0].1 .1, 0, "the cold first point replays nothing");
    for label in ["g0.3/e0.25", "g0.3/e0.1"] {
        let replayed: Vec<u64> = points
            .iter()
            .filter(|(l, _)| l == label)
            .map(|(_, c)| c.1)
            .collect();
        assert_eq!(replayed.len(), 2, "{label}: mined by sweeps A and B");
        assert!(replayed[1] > 0, "{label}: sweep B replays its supports");
    }
}

/// A session shared across threads: two threads mine one session at once,
/// at the same θ and different γ. Each result renders its solo run's
/// `flipper-results/v1` bytes, and the memo ends up holding exactly the
/// entries a sequential pair records — whichever thread enumerates a
/// parent set first, it is recorded once.
#[test]
fn concurrent_mines_on_one_session_match_solo_runs() {
    let dataset = quest_dataset();
    let configs = [0.5, 0.3].map(|gamma| FlipperConfig {
        thresholds: Thresholds::new(gamma, 0.25),
        ..quest_config()
    });
    let bytes = |session: &Session, cfg: &FlipperConfig, r: &MiningResult| {
        let mut json = JsonWriter::new(Vec::new());
        json.consume("shared", session.taxonomy(), cfg, r).unwrap();
        json.finish().unwrap();
        json.into_inner()
    };
    let shared = Session::from_db(&dataset.taxonomy, &dataset.db).unwrap();
    let results = std::thread::scope(|scope| {
        configs
            .each_ref()
            .map(|cfg| scope.spawn(|| shared.mine(cfg).unwrap()))
            .map(|handle| handle.join().unwrap())
    });
    let sequential = Session::from_db(&dataset.taxonomy, &dataset.db).unwrap();
    for (cfg, result) in configs.iter().zip(&results) {
        let solo = Session::from_db(&dataset.taxonomy, &dataset.db)
            .unwrap()
            .mine(cfg)
            .unwrap();
        assert_eq!(
            String::from_utf8_lossy(&bytes(&shared, cfg, result)),
            String::from_utf8_lossy(&bytes(&shared, cfg, &solo)),
            "gamma {}",
            cfg.thresholds.gamma
        );
        sequential.mine(cfg).unwrap();
    }
    let entries = sequential.support_cache_stats().entries;
    assert!(entries > 0, "the pair records enumerations");
    assert_eq!(shared.support_cache_stats().entries, entries);
}
