//! Memo equivalence: replaying vertical enumerations from the session memo
//! is a pure cost lever — the labeled results and their
//! `flipper-results/v1` bytes are identical to unseeded mining.

use flipper_api::{
    FlipperConfig, Generator, JsonWriter, MinSupports, MiningResult, PruningConfig, ResultSink,
    Session,
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

/// Seeded sweeps replay recorded enumerations from the session memo; the
/// labeled results — and their serialized bytes — are identical to an
/// unseeded sweep of the same grid.
#[test]
fn seeded_sweep_is_byte_identical_to_unseeded() {
    let dataset = quest_dataset();
    let base = quest_config();
    let render = |runs: &[flipper_api::SweepRun], session: &Session| {
        let mut json = JsonWriter::new(Vec::new());
        flipper_api::emit_runs(&mut json, session.taxonomy(), runs).unwrap();
        json.into_inner()
    };
    // Fresh session per mode so the seeded one owns a warm memo and the
    // unseeded one never builds any.
    let seeded_session = Session::open(&dataset).unwrap();
    let grid = |session: &Session, seed: bool| {
        session
            .sweep()
            .with_seeding(seed)
            .thresholds_grid(&base, &[0.5, 0.4, 0.3], &[0.1, 0.25])
            .run()
            .unwrap()
    };
    let warmup = grid(&seeded_session, true);
    assert!(!warmup.is_empty());
    let warm_before = seeded_session.support_cache_stats();
    assert!(
        warm_before.entries > 0,
        "sweep must record enumerations in the session memo"
    );
    let seeded = grid(&seeded_session, true);
    assert!(
        seeded_session.support_cache_stats().seed_hits > warm_before.seed_hits,
        "warm sweep must hit the memo"
    );
    let unseeded_session = Session::open(&dataset).unwrap();
    let unseeded = grid(&unseeded_session, false);
    assert_eq!(
        unseeded_session.support_cache_stats(),
        Default::default(),
        "an unseeded sweep never touches the memo"
    );
    assert_eq!(
        String::from_utf8_lossy(&render(&seeded, &seeded_session)),
        String::from_utf8_lossy(&render(&unseeded, &unseeded_session)),
        "seeding changes counting cost, never results"
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

/// Seeded sweeps replay vertical enumerations from the session memo; every
/// point's `flipper-results/v1` bytes equal a fresh unseeded mine of the
/// same configuration, over random grids in random order, at 1 and 2 jobs.
/// Work counters are only asserted at 1 job: at 2, which job records an
/// entry first depends on scheduling.
#[test]
fn memoized_sweeps_are_byte_identical_to_fresh_mines() {
    let dataset = quest_dataset();
    let solo = Session::open(&dataset).unwrap();
    let bytes = |session: &Session, label: &str, cfg: &FlipperConfig, r: &MiningResult| {
        let mut json = JsonWriter::new(Vec::new());
        json.consume(label, session.taxonomy(), cfg, r).unwrap();
        json.finish().unwrap();
        json.into_inner()
    };
    for jobs in [1usize, 2] {
        let mut rng = Xoshiro256pp::seed_from_u64(23 + jobs as u64);
        let session = Session::open(&dataset).unwrap();
        for round in 0..2 {
            let before = session.support_cache_stats();
            let runs = random_points(&mut rng, round)
                .into_iter()
                .fold(session.sweep().with_jobs(jobs), |sweep, (label, cfg)| {
                    sweep.add(label, cfg)
                })
                .run()
                .unwrap();
            let memo = session.support_cache_stats();
            for run in &runs {
                let fresh = solo.mine(&run.config).unwrap();
                let ctx = format!("jobs={jobs} {}", run.label);
                assert_eq!(
                    String::from_utf8_lossy(&bytes(&session, &run.label, &run.config, &run.result)),
                    String::from_utf8_lossy(&bytes(&solo, &run.label, &run.config, &fresh)),
                    "{ctx}"
                );
                if jobs == 1 {
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
            }
            if jobs == 1 {
                assert!(
                    memo.seed_hits > before.seed_hits,
                    "round {round}: nothing replayed"
                );
                assert_eq!(
                    memo.seed_lookups - memo.seed_hits,
                    memo.entries,
                    "one job records each miss once"
                );
            }
        }
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
/// fresh session at one job — repeats its counters exactly: two fresh
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
        let session = Session::open(&dataset).unwrap();
        let mut points = Vec::new();
        let mut deltas = Vec::new();
        for (gammas, epsilons) in [SWEEP_A, SWEEP_B] {
            let before = session.support_cache_stats();
            let runs = session
                .sweep()
                .with_jobs(1)
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
