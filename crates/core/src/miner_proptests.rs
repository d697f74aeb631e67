//! Property tests of miner-level invariants that hold for every input —
//! complementing the brute-force differential tests in the integration
//! crate with faster, structural checks.
//!
//! Ported from `proptest` to deterministic seed sweeps for the offline
//! (dependency-free) build: each retired strategy drew scalar seeds, so a
//! fixed range loop reproduces the same coverage reproducibly.

#![cfg(test)]

use crate::config::{FlipperConfig, MinSupports, PruningConfig};
use crate::miner::mine;
use crate::results::MiningResult;
use flipper_data::rng::{Rng, Xoshiro256pp};
use flipper_data::TransactionDb;
use flipper_measures::Thresholds;
use flipper_taxonomy::{NodeId, Taxonomy};

fn random_input(
    roots: usize,
    fanout: usize,
    height: usize,
    n: usize,
    seed: u64,
) -> (Taxonomy, TransactionDb) {
    let tax = Taxonomy::uniform(roots, fanout, height).unwrap();
    let leaves = tax.leaves().to_vec();
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let rows: Vec<Vec<NodeId>> = (0..n)
        .map(|_| {
            let w = rng.gen_range(1..=4);
            (0..w)
                .map(|_| leaves[rng.gen_range(0..leaves.len())])
                .collect()
        })
        .collect();
    (tax, TransactionDb::new(rows).unwrap())
}

/// Every reported pattern validates (alternating, correlated chain of
/// consecutive levels ending at the leaf itemset).
#[test]
fn all_patterns_validate() {
    for seed in 0..32u64 {
        let (tax, db) = random_input(2, 2, 3, 60, seed);
        let cfg = FlipperConfig::new(Thresholds::new(0.5, 0.25), MinSupports::Counts(vec![1]));
        let r = mine(&tax, &db, &cfg);
        for p in &r.patterns {
            assert_eq!(p.validate(), Ok(()), "seed {seed}");
            assert_eq!(p.chain.len(), tax.height(), "seed {seed}");
        }
    }
}

/// Cell summaries are internally consistent: per-label counts bound the
/// evaluated count. Per itemset, `eval_cell` debug-asserts that alive
/// itemsets are correlated and frequent ones have a correlation in
/// `[0, 1]`; unit tests build in debug, so this run checks every one.
#[test]
fn cell_summaries_consistent() {
    for seed in 0..32u64 {
        let (tax, db) = random_input(3, 2, 2, 50, seed);
        let cfg = FlipperConfig::new(Thresholds::new(0.6, 0.3), MinSupports::Counts(vec![2, 1]));
        let r = mine(&tax, &db, &cfg);
        for c in &r.cells {
            assert!(c.positive + c.negative <= c.frequent, "seed {seed}");
            assert!(c.frequent <= c.evaluated, "seed {seed}");
            assert!(c.alive <= c.positive + c.negative, "seed {seed}");
        }
    }
}

/// On a two-level run with `max_k = 3`, the rows of `Q(2,3)` the kernel
/// counted and the ones the vertical pass fused, when the run had a
/// vertical source. Every other cell has one source side only: row 1 is
/// counted (pairs and the join), and `Q(2,2)` is all vertical — so the
/// kernel's count minus row 1 is what `Q(2,3)` counted.
fn top_cell_sides(r: &MiningResult) -> (u64, u64) {
    let evaluated = |level: usize, k: Option<usize>| -> u64 {
        r.cells
            .iter()
            .filter(|c| c.level == level && k.is_none_or(|k| c.k == k))
            .map(|c| c.evaluated as u64)
            .sum()
    };
    let counted = r.stats.counter.candidates_counted - evaluated(1, None);
    (counted, evaluated(2, Some(3)) - counted)
}

/// Every pruning variant stores only well-formed flat tables: `Cell::push`
/// debug-asserts that each evaluated row is exactly `k` items wide and
/// strictly increasing (a canonical itemset) and comes after the cell's
/// last row, so the rows are strictly ascending, hence distinct. Unit
/// tests build in debug, so this run checks every row of every cell —
/// including cells that merge counted (horizontal) and fused (vertical)
/// rows, which the three-category inputs must produce.
#[test]
fn every_variant_pushes_canonical_ascending_rows() {
    let mut merged_cells = 0;
    for seed in 0..24u64 {
        let inputs = [
            (random_input(2, 3, 3, 80, seed), 0.5, None),
            (random_input(4, 3, 2, 80, seed), 0.3, Some(3)),
        ];
        for ((tax, db), gamma, max_k) in inputs {
            let mut cfg =
                FlipperConfig::new(Thresholds::new(gamma, 0.2), MinSupports::Counts(vec![2, 1]));
            cfg.max_k = max_k;
            for pruning in PruningConfig::VARIANTS {
                let r = mine(&tax, &db, &cfg.clone().with_pruning(pruning));
                let stored: usize = r.cells.iter().map(|c| c.evaluated).sum();
                assert!(stored > 0, "seed {seed} {}", pruning.name());
                assert_eq!(
                    stored as u64,
                    r.stats.total_stored_itemsets,
                    "seed {seed} {}",
                    pruning.name()
                );
                if max_k.is_some() && pruning.flipping() {
                    let (counted, fused) = top_cell_sides(&r);
                    merged_cells += usize::from(counted > 0 && fused > 0);
                }
            }
        }
    }
    assert!(merged_cells > 0, "no cell took both counted and fused rows");
}

/// Monotonicity of the pruning stack: each additional technique never
/// *increases* generated candidates, and never changes the answer.
#[test]
fn pruning_stack_is_monotone_in_work() {
    for seed in 0..32u64 {
        let (tax, db) = random_input(2, 2, 3, 80, seed);
        let cfg = FlipperConfig::new(
            Thresholds::new(0.5, 0.2),
            MinSupports::Counts(vec![2, 1, 1]),
        );
        let runs: Vec<_> = PruningConfig::VARIANTS
            .iter()
            .map(|&p| mine(&tax, &db, &cfg.clone().with_pruning(p)))
            .collect();
        // Identical answers.
        for w in runs.windows(2) {
            assert_eq!(&w[0].patterns, &w[1].patterns, "seed {seed}");
        }
        // BASIC does at least as much candidate work as the full stack.
        assert!(
            runs[0].stats.candidates_generated >= runs[3].stats.candidates_generated,
            "seed {seed}"
        );
        // TPG and SIBP never add work over plain flipping.
        assert!(
            runs[1].stats.candidates_generated >= runs[2].stats.candidates_generated,
            "seed {seed}"
        );
        assert!(
            runs[2].stats.candidates_generated >= runs[3].stats.candidates_generated,
            "seed {seed}"
        );
    }
}

/// Raising minimum supports can only shrink the pattern set (flipping
/// patterns require frequency at every level).
#[test]
fn min_support_monotonicity() {
    for seed in 0..16u64 {
        let (tax, db) = random_input(2, 2, 2, 60, seed);
        for theta in 1..4u64 {
            let loose =
                FlipperConfig::new(Thresholds::new(0.5, 0.25), MinSupports::Counts(vec![theta]));
            let tight = FlipperConfig::new(
                Thresholds::new(0.5, 0.25),
                MinSupports::Counts(vec![theta + 2]),
            );
            let many = mine(&tax, &db, &loose).patterns;
            let few = mine(&tax, &db, &tight).patterns;
            for p in &few {
                assert!(
                    many.iter().any(|q| q.leaf_itemset == p.leaf_itemset),
                    "tightening θ must not create new patterns (seed {seed}, θ {theta})"
                );
            }
        }
    }
}

/// Widening the (γ, ε) gap can only shrink the pattern set: a chain
/// that is positive at γ' ≥ γ and negative at ε' ≤ ε also qualifies at
/// the looser thresholds.
#[test]
fn threshold_gap_monotonicity() {
    for seed in 0..32u64 {
        let (tax, db) = random_input(2, 2, 2, 60, seed);
        let loose = FlipperConfig::new(Thresholds::new(0.5, 0.3), MinSupports::Counts(vec![1]));
        let tight = FlipperConfig::new(Thresholds::new(0.6, 0.2), MinSupports::Counts(vec![1]));
        let many = mine(&tax, &db, &loose).patterns;
        let few = mine(&tax, &db, &tight).patterns;
        for p in &few {
            assert!(
                many.iter().any(|q| q.leaf_itemset == p.leaf_itemset),
                "tightening (γ, ε) must not create new patterns (seed {seed})"
            );
        }
    }
}
