//! Differential tests: every pruning variant of Flipper must produce
//! exactly the brute-force set of flipping patterns.
//!
//! This is the strongest correctness guarantee in the repository: the
//! paper's pruning theorems are exercised against exhaustive enumeration on
//! randomized databases, taxonomy shapes, thresholds and measures.

use flipper_core::{verify::brute_force, FlipperConfig, MinSupports, PruningConfig};
use flipper_data::rng::{Rng, Xoshiro256pp};
use flipper_data::TransactionDb;
use flipper_measures::{Measure, Thresholds};
use flipper_taxonomy::{NodeId, Taxonomy};

/// Mine `db` under `tax` on a fresh session.
fn mine(
    tax: &flipper_taxonomy::Taxonomy,
    db: &flipper_data::TransactionDb,
    cfg: &FlipperConfig,
) -> flipper_core::MiningResult {
    flipper_api::Session::from_db(tax, db)
        .unwrap()
        .mine(cfg)
        .unwrap()
}

/// Random database over a uniform taxonomy.
fn random_db(tax: &Taxonomy, n: usize, max_w: usize, seed: u64) -> TransactionDb {
    let leaves = tax.leaves();
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let rows: Vec<Vec<NodeId>> = (0..n)
        .map(|_| {
            let w = rng.gen_range(1..=max_w);
            (0..w)
                .map(|_| leaves[rng.gen_range(0..leaves.len())])
                .collect()
        })
        .collect();
    TransactionDb::new(rows).expect("rows non-empty")
}

fn leaf_sets(patterns: &[flipper_core::FlippingPattern]) -> Vec<String> {
    let mut v: Vec<String> = patterns
        .iter()
        .map(|p| format!("{}", p.leaf_itemset))
        .collect();
    v.sort();
    v
}

fn check_all_variants(tax: &Taxonomy, db: &TransactionDb, cfg: &FlipperConfig) {
    let expected = leaf_sets(&brute_force(tax, db, cfg).unwrap());
    for pruning in PruningConfig::VARIANTS {
        let got = leaf_sets(&mine(tax, db, &cfg.clone().with_pruning(pruning)).patterns);
        assert_eq!(
            got,
            expected,
            "variant {} disagrees with brute force (measure {:?}, γ={}, ε={})",
            pruning.name(),
            cfg.measure,
            cfg.thresholds.gamma,
            cfg.thresholds.epsilon,
        );
    }
}

#[test]
fn equivalence_small_grid() {
    // A deterministic grid of shapes × thresholds; fast enough for CI.
    for (roots, fanout, height) in [(2usize, 2usize, 2usize), (3, 2, 3), (2, 3, 2)] {
        let tax = Taxonomy::uniform(roots, fanout, height).unwrap();
        for seed in 0..4u64 {
            let db = random_db(&tax, 60, 4, seed);
            for (gamma, eps) in [(0.5, 0.2), (0.7, 0.4), (0.3, 0.1)] {
                let cfg = FlipperConfig::new(
                    Thresholds::new(gamma, eps),
                    MinSupports::Counts(vec![2, 1, 1]),
                );
                check_all_variants(&tax, &db, &cfg);
            }
        }
    }
}

#[test]
fn equivalence_all_measures() {
    let tax = Taxonomy::uniform(3, 2, 3).unwrap();
    let db = random_db(&tax, 80, 5, 99);
    for measure in Measure::ALL {
        let cfg = FlipperConfig::new(
            Thresholds::new(0.55, 0.25),
            MinSupports::Counts(vec![2, 1, 1]),
        )
        .with_measure(measure);
        check_all_variants(&tax, &db, &cfg);
    }
}

#[test]
fn equivalence_with_higher_min_support() {
    let tax = Taxonomy::uniform(3, 2, 3).unwrap();
    for seed in 0..3u64 {
        let db = random_db(&tax, 120, 5, 1000 + seed);
        let cfg = FlipperConfig::new(
            Thresholds::new(0.6, 0.3),
            MinSupports::Fractions(vec![0.2, 0.1, 0.05]),
        );
        check_all_variants(&tax, &db, &cfg);
    }
}

/// Theorem 3: SIBP removes no flip. The grids above almost never trigger
/// SIBP's item bans, so these cases — found by a seeded search over
/// `random_db` — are pinned because on each of them FULL's SIBP prunes
/// candidates *and* brute force finds a flip of three items, which a ban
/// set after `Q(h,2)` could remove. Both facts are asserted so the check
/// cannot silently go vacuous.
#[test]
fn sibp_prunes_without_losing_flips() {
    // (roots, fanout, height, transactions, max width, seed, γ, ε)
    let cases = [
        (3, 3, 3, 62, 5, 5756, 0.36, 0.21),
        (4, 3, 3, 35, 7, 91, 0.4, 0.34),
        (4, 2, 2, 106, 5, 3779, 0.36, 0.29),
        (4, 3, 2, 60, 8, 7422, 0.46, 0.27),
    ];
    for (roots, fanout, height, n, max_w, seed, gamma, eps) in cases {
        let tax = Taxonomy::uniform(roots, fanout, height).unwrap();
        let db = random_db(&tax, n, max_w, seed);
        let cfg = FlipperConfig::new(
            Thresholds::new(gamma, eps),
            MinSupports::Counts(vec![2, 1, 1]),
        );
        let full = mine(&tax, &db, &cfg.clone().with_pruning(PruningConfig::FULL));
        assert!(
            full.stats.pruned_by_sibp > 0,
            "seed {seed}: SIBP pruned nothing"
        );
        assert!(
            brute_force(&tax, &db, &cfg)
                .unwrap()
                .iter()
                .any(|p| p.leaf_itemset.len() >= 3),
            "seed {seed}: brute force found no flip of three items"
        );
        check_all_variants(&tax, &db, &cfg);
    }
}

/// A known SIBP defect, pinned so it stays visible until it is fixed. The
/// removal prefix `R_h(k)` takes each item's max correlation over the
/// k-itemsets the miner *generated* in `Q(h,k)`, not over every frequent
/// k-itemset containing it. Here no level-3 pair with n14, n29 or n37 is
/// generated (their parents are not chain-alive), although their best pairs
/// have Kulc 0.75, 0.625 and 0.583 ≥ γ. All three enter `R_3(2)`, n29 is
/// banned, and FULL loses the flip {n14, n29, n37} that brute force and
/// flipping+tpg find. It was 1 of 3 000 seeded `random_db` cases. A sound
/// SIBP turns this test into a plain `check_all_variants` call.
#[test]
fn sibp_known_defect_removes_one_flip() {
    let tax = Taxonomy::uniform(3, 3, 3).unwrap();
    let db = random_db(&tax, 45, 6, 4998);
    let cfg = FlipperConfig::new(
        Thresholds::new(0.41, 0.19),
        MinSupports::Counts(vec![2, 1, 1]),
    );
    let both = ["{n14, n29, n37}", "{n20, n26, n35}"];
    assert_eq!(leaf_sets(&brute_force(&tax, &db, &cfg).unwrap()), both);
    let tpg = mine(
        &tax,
        &db,
        &cfg.clone().with_pruning(PruningConfig::FLIPPING_TPG),
    );
    assert_eq!(leaf_sets(&tpg.patterns), both);
    let full = mine(&tax, &db, &cfg.with_pruning(PruningConfig::FULL));
    assert!(full.stats.pruned_by_sibp > 0);
    assert_eq!(leaf_sets(&full.patterns), ["{n20, n26, n35}"]);
}

/// Randomized equivalence: shapes, sizes, thresholds and seeds drawn by a
/// fixed meta-RNG (ported from a 48-case proptest); every variant must match
/// brute force exactly.
#[test]
fn equivalence_randomized() {
    let mut meta = Xoshiro256pp::seed_from_u64(0xE901_44A7);
    let mut cases = 0;
    while cases < 48 {
        let roots = meta.gen_range(2usize..4);
        let fanout = meta.gen_range(1usize..3);
        let height = meta.gen_range(2usize..4);
        let n = meta.gen_range(20usize..100);
        let max_w = meta.gen_range(2usize..6);
        let seed = meta.gen_range(0u64..10_000);
        let gamma_pct = meta.gen_range(35u32..85);
        let eps_gap_pct = meta.gen_range(5u32..30);
        let theta = meta.gen_range(1u64..4);
        let gamma = gamma_pct as f64 / 100.0;
        let eps = gamma - (eps_gap_pct as f64 / 100.0);
        if eps < 0.0 {
            continue;
        }
        cases += 1;
        let tax = Taxonomy::uniform(roots, fanout, height).unwrap();
        let db = random_db(&tax, n, max_w, seed);
        let cfg = FlipperConfig::new(
            Thresholds::new(gamma, eps),
            MinSupports::Counts(vec![theta * 2, theta, 1]),
        );
        let expected = leaf_sets(&brute_force(&tax, &db, &cfg).unwrap());
        for pruning in PruningConfig::VARIANTS {
            let got = leaf_sets(&mine(&tax, &db, &cfg.clone().with_pruning(pruning)).patterns);
            assert_eq!(
                got,
                expected,
                "variant {} diverged (roots={}, fanout={}, height={}, seed={})",
                pruning.name(),
                roots,
                fanout,
                height,
                seed
            );
        }
    }
}

/// Execution-layer differential sweep: 2 and 4 worker threads must produce
/// `MiningResult`s identical to the sequential baseline — same patterns,
/// same per-cell summaries, same run statistics, counter stats included —
/// on both sparse and dense seeded datasets.
#[test]
fn equivalence_threads() {
    // (name, taxonomy, transactions, max width): a sparse shape (narrow
    // txns over many leaves) and a dense one (wide txns over few leaves).
    let sparse_tax = Taxonomy::uniform(3, 3, 3).unwrap();
    let dense_tax = Taxonomy::uniform(2, 2, 2).unwrap();
    let cases = [
        ("sparse", &sparse_tax, 300usize, 3usize, 0x5EED_0001u64),
        ("dense", &dense_tax, 200, 6, 0x5EED_0002u64),
    ];
    for (name, tax, n, max_w, seed) in cases {
        let db = random_db(tax, n, max_w, seed);
        let cfg = FlipperConfig::new(
            Thresholds::new(0.5, 0.25),
            MinSupports::Counts(vec![4, 2, 1]),
        );
        let baseline = mine(tax, &db, &cfg); // sequential
        for threads in [2usize, 4] {
            let r = mine(tax, &db, &cfg.clone().with_threads(threads));
            let ctx = format!("{name} threads={threads}");
            assert_eq!(r.patterns, baseline.patterns, "{ctx}: patterns");
            assert_eq!(r.cells, baseline.cells, "{ctx}: cell summaries");
            let (s, b) = (&r.stats, &baseline.stats);
            assert_eq!(s.candidates_generated, b.candidates_generated, "{ctx}");
            assert_eq!(s.frequent_found, b.frequent_found, "{ctx}");
            assert_eq!(s.positive_found, b.positive_found, "{ctx}");
            assert_eq!(s.negative_found, b.negative_found, "{ctx}");
            assert_eq!(s.pruned_by_sibp, b.pruned_by_sibp, "{ctx}");
            assert_eq!(s.pruned_by_support, b.pruned_by_support, "{ctx}");
            assert_eq!(s.cells_evaluated, b.cells_evaluated, "{ctx}");
            assert_eq!(s.tpg_cap, b.tpg_cap, "{ctx}");
            assert_eq!(s.peak_resident_itemsets, b.peak_resident_itemsets, "{ctx}");
            // Kernel work stats must not depend on the thread count.
            assert_eq!(s.counter, b.counter, "{ctx}: counter stats");
        }
    }
}

/// Chains reported by the miner carry the exact supports and
/// correlations a direct recount produces.
#[test]
fn reported_chains_are_exact() {
    for seed in 0..64u64 {
        let tax = Taxonomy::uniform(2, 2, 3).unwrap();
        let db = random_db(&tax, 50, 4, seed);
        let cfg = FlipperConfig::new(Thresholds::new(0.5, 0.25), MinSupports::Counts(vec![1]));
        let result = mine(&tax, &db, &cfg);
        for p in &result.patterns {
            assert_eq!(p.validate(), Ok(()), "seed {seed}");
            for lv in &p.chain {
                // Recount on the raw rows: a row supports the level's
                // itemset when each item generalizes one of its leaves.
                let recount = db
                    .iter()
                    .filter(|t| {
                        lv.itemset.items().iter().all(|&it| {
                            t.iter()
                                .any(|&l| tax.ancestor_at_level(l, lv.level).unwrap() == it)
                        })
                    })
                    .count() as u64;
                assert_eq!(lv.support, recount, "seed {seed}");
            }
        }
    }
}
