//! Brute-force reference miner, used to differential-test Flipper.
//!
//! Enumerates every cross-category leaf itemset up to a size bound and
//! checks Definition 2 directly against full database scans. Exponential —
//! strictly for tests and tiny datasets. With `cfg.threads != 1` the
//! enumeration shards over the first leaf of each combination, strided
//! across workers for load balance ([`flipper_data::exec`]); the merged
//! results are sorted by a total key, so the output is bit-identical at
//! every thread count.

use crate::config::FlipperConfig;
use crate::results::{ChainLevel, FlippingPattern};
use flipper_data::{exec, DataError, Itemset, TransactionDb};
use flipper_measures::CorrelationMeasure;
use flipper_taxonomy::{NodeId, Taxonomy};

/// Find all flipping patterns by exhaustive enumeration.
///
/// Honors `cfg.measure`, `cfg.thresholds`, `cfg.min_support`, `cfg.max_k`
/// and `cfg.threads`; ignores the pruning settings (it scans everything).
///
/// # Errors
/// [`DataError::NonLeafItem`] when a row holds an item that is not a leaf
/// of `tax`, as [`MultiLevelView::build`](flipper_data::MultiLevelView::build)
/// reports it.
pub fn brute_force(
    tax: &Taxonomy,
    db: &TransactionDb,
    cfg: &FlipperConfig,
) -> Result<Vec<FlippingPattern>, DataError> {
    db.validate_against(tax)?;
    let height = tax.height();
    if height < 2 {
        return Ok(Vec::new());
    }
    // The verifier projects the rows itself rather than reading a
    // `MultiLevelView`, so it stays independent of the code it checks.
    // `projected[h - 1]` holds every transaction at level `h`, sorted and
    // deduplicated; `item_sups[h - 1]` the support of every node there.
    let projected: Vec<Vec<Vec<NodeId>>> = (1..=height)
        .map(|h| {
            db.iter()
                .map(|txn| {
                    let mut row: Vec<NodeId> = txn
                        .iter()
                        // lint:allow(panic-hygiene) the database was validated against `tax` above: every item is a leaf with ancestors at every level
                        .map(|&it| tax.ancestor_at_level(it, h).expect("leaf"))
                        .collect();
                    row.sort_unstable();
                    row.dedup();
                    row
                })
                .collect()
        })
        .collect();
    let item_sups: Vec<Vec<u64>> = projected
        .iter()
        .map(|rows| {
            let mut sup = vec![0u64; tax.node_count()];
            for &it in rows.iter().flatten() {
                sup[it.index()] += 1;
            }
            sup
        })
        .collect();
    let thetas = cfg.min_support.resolve(db.len() as u64, height);

    // Leaf items actually present, and the column bound.
    let leaves: Vec<NodeId> = db.distinct_items();
    // lint:allow(panic-hygiene) height ≥ 2 was checked above, so level 1 exists
    let cats = tax.nodes_at_level(1).expect("level 1 exists").len();
    let max_width = db.max_width();
    let mut k_max = cats.min(max_width).min(leaves.len());
    if let Some(mk) = cfg.max_k {
        k_max = k_max.min(mk);
    }
    if k_max < 2 {
        // No itemset of size ≥ 2 can qualify; the enumeration below pushes
        // a first leaf before recursing, so it must not run with k_max < 2
        // (a direct `cfg.max_k = Some(0)` would otherwise enumerate the
        // full powerset).
        return Ok(Vec::new());
    }

    // Depth-first enumeration of index combinations of every size 2..=k_max.
    fn rec(
        leaves: &[NodeId],
        combo: &mut Vec<usize>,
        start: usize,
        k_max: usize,
        check: &mut dyn FnMut(&[usize]),
    ) {
        if combo.len() >= 2 {
            check(combo);
        }
        if combo.len() == k_max {
            return;
        }
        for i in start..leaves.len() {
            combo.push(i);
            rec(leaves, combo, i + 1, k_max, check);
            combo.pop();
        }
    }

    // Evaluate one index combination; pushes the pattern if the chain flips.
    let check = |idxs: &[usize], patterns: &mut Vec<FlippingPattern>| {
        let set = Itemset::from_sorted(idxs.iter().map(|&i| leaves[i]).collect());
        // Distinct level-1 ancestors.
        let mut cats: Vec<NodeId> = set
            .items()
            .iter()
            // lint:allow(panic-hygiene) leaves sit at the bottom level, so every ancestor level exists
            .map(|&it| tax.ancestor_at_level(it, 1).expect("leaf"))
            .collect();
        cats.sort_unstable();
        cats.dedup();
        if cats.len() != set.len() {
            return;
        }
        // Evaluate the chain at every level.
        let mut chain = Vec::with_capacity(height);
        for h in 1..=height {
            // lint:allow(panic-hygiene) leaves sit at the bottom level, so every ancestor level exists
            let gen = set.map(|it| tax.ancestor_at_level(it, h).expect("leaf"));
            let sup = count_support(&projected[h - 1], &gen);
            if sup < thetas[h - 1] {
                return;
            }
            let sups: Vec<u64> = gen
                .items()
                .iter()
                .map(|&it| item_sups[h - 1][it.index()])
                .collect();
            let corr = cfg.measure.value(sup, &sups);
            let label = cfg.thresholds.label_frequent(corr);
            if !label.is_correlated() {
                return;
            }
            chain.push(ChainLevel {
                level: h,
                itemset: gen,
                support: sup,
                corr,
                label,
            });
        }
        if chain.windows(2).all(|w| w[0].label.flips_to(w[1].label)) {
            patterns.push(FlippingPattern {
                leaf_itemset: set,
                chain,
            });
        }
    };

    // Shard the enumeration over the first leaf of each combination. The
    // subtree below first-leaf `i` shrinks steeply as `i` grows, so the
    // indices are STRIDED across workers (worker `w` takes `i ≡ w mod W`)
    // rather than split into contiguous ranges, which would leave nearly
    // all the work in the first chunk. Worker-local results are merged and
    // then sorted by a total key, so the output is identical for every
    // thread count.
    let workers = exec::effective_threads(cfg.threads)
        .min(leaves.len())
        .max(1);
    let per_chunk = exec::map_chunks(workers, workers, |range| {
        let mut local = Vec::new();
        let mut combo = Vec::with_capacity(k_max);
        for w in range {
            let mut i = w;
            while i < leaves.len() {
                combo.push(i);
                rec(&leaves, &mut combo, i + 1, k_max, &mut |idxs| {
                    check(idxs, &mut local)
                });
                combo.pop();
                i += workers;
            }
        }
        local
    });
    let mut patterns: Vec<FlippingPattern> = per_chunk.into_iter().flatten().collect();

    patterns.sort_by(|a, b| {
        (a.leaf_itemset.len(), &a.leaf_itemset).cmp(&(b.leaf_itemset.len(), &b.leaf_itemset))
    });
    Ok(patterns)
}

fn count_support(txns: &[Vec<NodeId>], set: &Itemset) -> u64 {
    txns.iter()
        .filter(|t| set.items().iter().all(|it| t.contains(it)))
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FlipperConfig, MinSupports};
    use flipper_measures::Thresholds;

    #[test]
    fn brute_force_on_the_toy_example() {
        let tax = Taxonomy::from_edges([
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
        let g = |s: &str| tax.node_by_name(s).unwrap();
        let db = TransactionDb::new(vec![
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
        let cfg = FlipperConfig::new(Thresholds::new(0.6, 0.35), MinSupports::Counts(vec![1]));
        let pats = brute_force(&tax, &db, &cfg).unwrap();
        assert_eq!(pats.len(), 1);
        assert_eq!(pats[0].leaf_itemset.display(&tax).to_string(), "{a11, b11}");
        assert_eq!(pats[0].validate(), Ok(()));
    }

    /// A hand-built `max_k` below 2 (bypassing `with_max_k`'s assert) must
    /// yield no patterns, not a full powerset enumeration.
    #[test]
    fn degenerate_max_k_yields_nothing() {
        let tax = Taxonomy::uniform(2, 2, 2).unwrap();
        let leaves = tax.leaves().to_vec();
        let db = TransactionDb::new(vec![vec![leaves[0], leaves[3]]; 4]).unwrap();
        for mk in [0usize, 1] {
            let cfg = FlipperConfig {
                max_k: Some(mk),
                ..FlipperConfig::new(Thresholds::new(0.5, 0.2), MinSupports::Counts(vec![1]))
            };
            assert!(
                brute_force(&tax, &db, &cfg).unwrap().is_empty(),
                "max_k={mk}"
            );
        }
    }

    /// Sharded enumeration returns exactly the sequential result.
    #[test]
    fn brute_force_is_thread_invariant() {
        use flipper_data::rng::{Rng, Xoshiro256pp};
        let tax = Taxonomy::uniform(3, 2, 3).unwrap();
        let leaves = tax.leaves().to_vec();
        let mut rng = Xoshiro256pp::seed_from_u64(77);
        let rows: Vec<Vec<NodeId>> = (0..80)
            .map(|_| {
                let w = rng.gen_range(1..=5);
                (0..w)
                    .map(|_| leaves[rng.gen_range(0..leaves.len())])
                    .collect()
            })
            .collect();
        let db = TransactionDb::new(rows).unwrap();
        let cfg = FlipperConfig::new(Thresholds::new(0.5, 0.25), MinSupports::Counts(vec![1]));
        let sequential = brute_force(&tax, &db, &cfg).unwrap();
        for threads in [2usize, 4, 0] {
            let parallel = brute_force(&tax, &db, &cfg.clone().with_threads(threads)).unwrap();
            assert_eq!(parallel, sequential, "threads={threads}");
        }
    }

    #[test]
    fn single_level_has_no_patterns() {
        let tax = Taxonomy::from_edges([("x", ""), ("y", "")]).unwrap();
        let x = tax.node_by_name("x").unwrap();
        let y = tax.node_by_name("y").unwrap();
        let db = TransactionDb::new(vec![vec![x, y]]).unwrap();
        let cfg = FlipperConfig::new(Thresholds::new(0.5, 0.1), MinSupports::Counts(vec![1]));
        assert!(brute_force(&tax, &db, &cfg).unwrap().is_empty());
    }

    /// A row holding a non-leaf item is a typed error, never a panic.
    #[test]
    fn non_leaf_row_is_a_typed_error() {
        let tax = Taxonomy::from_edges([("a", ""), ("b", ""), ("a1", "a"), ("b1", "b")]).unwrap();
        let id = |name| tax.node_by_name(name).unwrap();
        let db = TransactionDb::new(vec![vec![id("a"), id("b1")]]).unwrap();
        let cfg = FlipperConfig::new(Thresholds::new(0.5, 0.1), MinSupports::Counts(vec![1]));
        assert_eq!(
            brute_force(&tax, &db, &cfg).unwrap_err(),
            DataError::NonLeafItem {
                txn: 0,
                item: id("a")
            }
        );
    }
}
