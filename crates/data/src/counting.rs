//! Support-counting vocabulary shared by the kernel and its callers.
//!
//! The miner asks one question per search-table cell: *what are the supports
//! of this batch of candidate `(h,k)`-itemsets?* [`crate::BitsetCounter`]
//! answers it. This module holds what the kernel and its callers share:
//! the [`CounterStats`] work counters and [`naive_tidset_counts`], the
//! per-candidate reference the tests check the kernel against.
//!
//! # Prefix groups
//!
//! The miner hands every cell a batch of **ascending, distinct** candidate
//! rows in one fixed-stride table ([`ItemsetRows`]), so candidates sharing
//! their `(k−1)`-prefix are adjacent ([`ItemsetRows::prefix_groups`]). The
//! kernel reads each candidate in place and materializes each group's
//! prefix intersection **once**. It then answers the members one of two
//! ways:
//!
//! * **per member**: one intersection of the prefix against each member's
//!   last item;
//! * **by projection**, when the prefix is a tid-list `T` and reading its
//!   transactions is cheaper than probing it once per member: every row
//!   `t ∈ T` of the level's horizontal layout is read once, and each
//!   member found in it is tallied (Han, Pei & Yin's projected database
//!   over Zaki's vertical layout).
//!
//! [`CounterStats::prefix_reuses`] counts the members answered from a
//! shared prefix, and [`CounterStats::projected`] those answered by
//! projection. Every other counter charges both ways alike. Sharding splits
//! a batch only between groups ([`crate::exec::map_group_chunks`]), and
//! whether a batch may project is decided before it is sharded, so prefix
//! reuse survives parallelism and a sharded run reports bit-identical
//! counts *and stats* at every thread count.

use crate::itemset::ItemsetRows;
use crate::projection::MultiLevelView;
use crate::tidset::intersect_size_many;

/// Counters accumulate work statistics so experiments can report
/// hardware-independent costs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterStats {
    /// Number of pairwise tid-list/bitmap intersection operations charged:
    /// by batch counting, and by the depth-first enumeration of
    /// [`crate::BitsetCounter::co_occurring`] (one per AND, bitmap filter
    /// or list intersection it runs). With prefix groups batch counting
    /// charges *less* than the naive `Σ (k−1)` per candidate — the gap is
    /// the work the shared prefixes saved.
    pub intersections: u64,
    /// Total candidates counted by batch counting. Combinations the
    /// depth-first enumeration hands out with their supports are not
    /// included.
    pub candidates_counted: u64,
    /// Candidates answered from a shared `(k−1)`-prefix intersection
    /// (members of a `k ≥ 3` prefix group beyond its first). Shard-invariant
    /// by construction: sharding never splits a prefix group.
    pub prefix_reuses: u64,
    /// Candidates answered by projection: members of a group whose prefix
    /// tid-list was read row by row instead of probed once per member. Each
    /// is still charged one intersection, so this is the one counter that
    /// depends on storage: which items are bitmaps decides which prefixes
    /// are tid-lists. It never depends on the thread count, nor on what an
    /// earlier mining call over the same view built.
    pub projected: u64,
}

impl CounterStats {
    /// Fold `other` into `self`. All counters are sums, so the merge is
    /// associative and commutative with [`CounterStats::default`] as the
    /// identity — sharded runs can fold per-shard stats in any grouping and
    /// still report totals identical to a sequential run.
    pub fn merge(&mut self, other: &CounterStats) {
        self.intersections += other.intersections;
        self.candidates_counted += other.candidates_counted;
        self.prefix_reuses += other.prefix_reuses;
        self.projected += other.projected;
    }
}

/// Batches smaller than this are counted inline: spawning scoped workers
/// costs more than counting a handful of candidates.
pub const MIN_SHARD_CANDIDATES: usize = 64;

/// Reference kernel: the naive per-candidate k-way intersection — every
/// candidate row collects its full tid-lists and intersects them from
/// scratch. Kept as the ground truth the kernel's equivalence tests check
/// against.
pub fn naive_tidset_counts(view: &MultiLevelView, h: usize, candidates: &ItemsetRows) -> Vec<u64> {
    let lv = view.level(h);
    candidates
        .iter()
        .map(|row| {
            let lists: Vec<&[u32]> = row.iter().map(|&it| lv.tidset(it)).collect();
            intersect_size_many(&lists)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitset::BitsetCounter;
    use crate::itemset::Itemset;
    use crate::rng::{Rng, Xoshiro256pp};
    use crate::transaction::TransactionDb;
    use flipper_taxonomy::{NodeId, Taxonomy};

    /// The kernel's three storage mixes: `Some(0.0)` promotes every item to
    /// a bitmap, `None` is the storage rule's mix, `Some(2.0)` keeps every
    /// item a tid-list.
    const DENSITIES: [Option<f64>; 3] = [Some(0.0), None, Some(2.0)];

    /// A counter over `view` at one of [`DENSITIES`].
    fn counter_at(view: &MultiLevelView, density: Option<f64>) -> BitsetCounter<'_> {
        density.map_or_else(
            || BitsetCounter::new(view),
            |d| BitsetCounter::with_density(view, d),
        )
    }

    /// `sets` (all of one size, at least one) as a flat batch.
    fn batch_of(sets: &[Itemset]) -> ItemsetRows {
        let mut rows = ItemsetRows::new(sets[0].len());
        rows.extend(sets.iter().map(Itemset::items));
        rows
    }

    fn toy() -> (Taxonomy, TransactionDb) {
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
        (tax, db)
    }

    /// A random database of `n` transactions, `widths` items each, over the
    /// leaves of a uniform 3-level taxonomy (fanout 3, 2 roots).
    fn random_view_input(
        seed: u64,
        n: usize,
        widths: std::ops::RangeInclusive<usize>,
    ) -> (Taxonomy, TransactionDb) {
        let tax = Taxonomy::uniform(3, 3, 2).unwrap();
        let leaves = tax.leaves().to_vec();
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let rows: Vec<Vec<NodeId>> = (0..n)
            .map(|_| {
                let w = rng.gen_range(widths.clone());
                (0..w)
                    .map(|_| leaves[rng.gen_range(0..leaves.len())])
                    .collect()
            })
            .collect();
        (tax, TransactionDb::new(rows).unwrap())
    }

    #[test]
    fn kernel_counts_the_toy_example_at_every_density() {
        let (tax, db) = toy();
        let view = MultiLevelView::build(&db, &tax).unwrap();
        let g = |s: &str| tax.node_by_name(s).unwrap();
        // The paper's flipping pattern {a11, b11}: sup=2 at leaf level;
        // {a1, b1} sup=2 at level 2; {a, b} sup=7 at level 1.
        let cases = [
            (3usize, Itemset::pair(g("a11"), g("b11")), 2u64),
            (2, Itemset::pair(g("a1"), g("b1")), 2),
            (1, Itemset::pair(g("a"), g("b")), 7),
        ];
        for density in DENSITIES {
            let mut c = counter_at(&view, density);
            for (h, set, expect) in cases.iter() {
                let got = c.count_batch(*h, &batch_of(std::slice::from_ref(set)), 1);
                assert_eq!(got, vec![*expect], "density {density:?} level {h} {set}");
            }
        }
    }

    #[test]
    fn batch_order_is_preserved() {
        let (tax, db) = toy();
        let view = MultiLevelView::build(&db, &tax).unwrap();
        let g = |s: &str| tax.node_by_name(s).unwrap();
        let batch = batch_of(&[
            Itemset::pair(g("a12"), g("a22")),
            Itemset::pair(g("a11"), g("b11")),
            Itemset::pair(g("b21"), g("b22")),
        ]);
        let mut c = BitsetCounter::new(&view);
        assert_eq!(c.count_batch(3, &batch, 1), vec![2, 2, 1]);
    }

    #[test]
    fn stats_accumulate() {
        let (tax, db) = toy();
        let view = MultiLevelView::build(&db, &tax).unwrap();
        let g = |s: &str| tax.node_by_name(s).unwrap();
        let batch = batch_of(&[Itemset::pair(g("a11"), g("b11"))]);
        let mut c = BitsetCounter::new(&view);
        c.count_batch(3, &batch, 1);
        assert_eq!(c.stats().intersections, 1);
        c.count_batch(3, &batch, 1);
        assert_eq!(c.stats().candidates_counted, 2);
        assert_eq!(c.stats().intersections, 2);
        // Empty batches cost nothing.
        let before = c.stats();
        c.count_batch(3, &ItemsetRows::new(2), 1);
        assert_eq!(c.stats(), before);
    }

    #[test]
    fn counter_stats_merge_is_associative_with_identity() {
        let a = CounterStats {
            intersections: 3,
            candidates_counted: 7,
            prefix_reuses: 5,
            projected: 4,
        };
        let b = CounterStats {
            intersections: 11,
            candidates_counted: 13,
            prefix_reuses: 0,
            projected: 0,
        };
        let c = CounterStats {
            intersections: 0,
            candidates_counted: 2,
            prefix_reuses: 9,
            projected: 1,
        };
        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
        let mut left = a;
        left.merge(&b);
        left.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        assert_eq!(left, right);
        // Identity.
        let mut with_id = a;
        with_id.merge(&CounterStats::default());
        assert_eq!(with_id, a);
        // Totals are sums.
        assert_eq!(left.intersections, 14);
        assert_eq!(left.candidates_counted, 22);
        assert_eq!(left.prefix_reuses, 14);
        assert_eq!(left.projected, 5);
    }

    /// Sharded counting is bit-identical to sequential counting — counts
    /// AND stats — at every density and thread count.
    #[test]
    fn sharded_counting_matches_sequential() {
        let (tax, db) = random_view_input(0x5AAD, 150, 1..=6);
        let view = MultiLevelView::build(&db, &tax).unwrap();
        // A batch well above MIN_SHARD_CANDIDATES.
        let nodes = tax.nodes_at_level(2).unwrap();
        let mut cands = Vec::new();
        for i in 0..nodes.len() {
            for j in (i + 1)..nodes.len() {
                cands.push(Itemset::pair(nodes[i], nodes[j]));
            }
        }
        while cands.len() < 4 * MIN_SHARD_CANDIDATES {
            let extra = cands.clone();
            cands.extend(extra);
        }
        let cands = batch_of(&cands);
        for density in DENSITIES {
            let mut seq = counter_at(&view, density);
            let expect = seq.count_batch(2, &cands, 1);
            for threads in [2usize, 3, 7] {
                let mut par = counter_at(&view, density);
                let got = par.count_batch(2, &cands, threads);
                assert_eq!(got, expect, "density={density:?} threads={threads}");
                assert_eq!(
                    par.stats(),
                    seq.stats(),
                    "density={density:?}: stats diverge at threads={threads}"
                );
            }
        }
    }

    #[test]
    fn sharded_small_batches_fall_back_inline() {
        let (tax, db) = toy();
        let view = MultiLevelView::build(&db, &tax).unwrap();
        let g = |s: &str| tax.node_by_name(s).unwrap();
        let batch = batch_of(&[Itemset::pair(g("a11"), g("b11"))]);
        let mut c = BitsetCounter::new(&view);
        assert_eq!(c.count_batch(3, &batch, 8), vec![2]);
        assert_eq!(c.stats().candidates_counted, 1);
        let mut c = BitsetCounter::new(&view);
        assert!(c.count_batch(3, &ItemsetRows::new(2), 8).is_empty());
        assert_eq!(c.stats(), CounterStats::default());
    }

    #[test]
    fn prefix_groups_split_on_prefix_and_length() {
        let s = |v: &[usize]| Itemset::new(v.iter().map(|&i| NodeId::from_index(i)).collect());
        // Three k=3 candidates sharing {1,2}, one with prefix {1,3}, two
        // with prefix {7,8}.
        let batch = batch_of(&[
            s(&[1, 2, 4]),
            s(&[1, 2, 5]),
            s(&[1, 2, 9]),
            s(&[1, 3, 4]),
            s(&[7, 8, 9]),
            s(&[7, 8, 11]),
        ]);
        let groups: Vec<_> = batch.prefix_groups(0..batch.len()).collect();
        assert_eq!(groups, vec![0..3, 3..4, 4..6]);
        // Pairs group on their first item.
        let pairs = batch_of(&[s(&[7, 8]), s(&[7, 9]), s(&[8, 9])]);
        assert_eq!(pairs.prefix_groups(0..3).count(), 2);
        // Singleton k<2 groups never merge, even when "prefixes" agree.
        let singles = batch_of(&[s(&[1]), s(&[1]), s(&[2])]);
        assert_eq!(singles.prefix_groups(0..3).count(), 3);
        // Empty batch: no groups.
        assert_eq!(ItemsetRows::new(3).prefix_groups(0..0).count(), 0);
    }

    /// The kernel agrees with the naive per-candidate reference on batches
    /// with degenerate group shapes: all-same-prefix, all-distinct
    /// prefixes, k = 2, k = 1, and long groups among singletons.
    #[test]
    fn grouped_kernels_match_naive_on_degenerate_groups() {
        let (tax, db) = random_view_input(0x9F0F, 180, 2..=7);
        let view = MultiLevelView::build(&db, &tax).unwrap();
        let nodes = tax.nodes_at_level(2).unwrap().to_vec();
        // All-same-prefix: {n0, n1, x} for every other x.
        let same_prefix: Vec<Itemset> = nodes[2..]
            .iter()
            .map(|&x| Itemset::new(vec![nodes[0], nodes[1], x]))
            .collect();
        // All-distinct prefixes: consecutive triples.
        let distinct: Vec<Itemset> = (0..nodes.len() - 2)
            .map(|i| Itemset::new(vec![nodes[i], nodes[i + 1], nodes[i + 2]]))
            .collect();
        // k = 2 and mixed-size batches.
        let pairs: Vec<Itemset> = (0..nodes.len() - 1)
            .map(|i| Itemset::pair(nodes[i], nodes[i + 1]))
            .collect();
        let singles: Vec<Itemset> = nodes.iter().map(|&x| Itemset::single(x)).collect();
        // Mixed group shapes of one size: one long group among singletons.
        let mut mixed: Vec<Itemset> = same_prefix.iter().chain(&distinct).cloned().collect();
        mixed.sort_unstable();
        mixed.dedup();
        for batch in [&same_prefix, &distinct, &pairs, &singles, &mixed] {
            let batch = &batch_of(batch);
            let expect = naive_tidset_counts(&view, 2, batch);
            for density in DENSITIES {
                let mut c = counter_at(&view, density);
                assert_eq!(
                    c.count_batch(2, batch, 1),
                    expect,
                    "density {density:?} disagrees with the naive reference"
                );
            }
        }
    }

    /// Prefix-reuse accounting: one group of g same-prefix k=3 candidates costs
    /// one materialized prefix (k−2 = 1 intersection) plus one intersection
    /// per member, and reports g−1 prefix reuses; the naive kernel would
    /// have charged g·(k−1).
    #[test]
    fn prefix_reuse_stats_accounting() {
        let (tax, db) = random_view_input(0xACC1, 120, 3..=6);
        let view = MultiLevelView::build(&db, &tax).unwrap();
        let nodes = tax.nodes_at_level(2).unwrap().to_vec();
        let batch = batch_of(
            &nodes[2..]
                .iter()
                .map(|&x| Itemset::new(vec![nodes[0], nodes[1], x]))
                .collect::<Vec<_>>(),
        );
        let g = batch.len() as u64;
        for density in DENSITIES {
            let mut c = counter_at(&view, density);
            c.count_batch(2, &batch, 1);
            assert_eq!(c.stats().prefix_reuses, g - 1, "density {density:?}");
            assert_eq!(c.stats().intersections, 1 + g, "density {density:?}");
        }
        // Pairs share nothing: zero reuses, one intersection per pair.
        let mut pairs = ItemsetRows::new(2);
        pairs.extend(batch.iter().map(|c| &c[..2]));
        let mut c = BitsetCounter::new(&view);
        c.count_batch(2, &pairs, 1);
        assert_eq!(c.stats().prefix_reuses, 0);
        assert_eq!(c.stats().intersections, pairs.len() as u64);
    }

    /// Group-boundary sharding: stats (not just counts) are identical at
    /// every thread count even when the batch is dominated by one giant
    /// prefix group that an even candidate split would tear apart.
    #[test]
    fn group_sharding_keeps_stats_invariant_across_threads() {
        let (tax, db) = random_view_input(0x51AB, 150, 2..=6);
        let view = MultiLevelView::build(&db, &tax).unwrap();
        let nodes = tax.nodes_at_level(2).unwrap().to_vec();
        // One giant same-prefix group followed by distinct-prefix filler,
        // repeated until well past the sharding cutoff.
        let mut batch: Vec<Itemset> = Vec::new();
        while batch.len() < 4 * MIN_SHARD_CANDIDATES {
            for &x in &nodes[2..] {
                batch.push(Itemset::new(vec![nodes[0], nodes[1], x]));
            }
            for i in 0..nodes.len() - 2 {
                batch.push(Itemset::new(vec![nodes[i], nodes[i + 1], nodes[i + 2]]));
            }
        }
        let batch = batch_of(&batch);
        let mut seq = BitsetCounter::new(&view);
        let expect = seq.count_batch(2, &batch, 1);
        assert_eq!(expect, naive_tidset_counts(&view, 2, &batch));
        for threads in [2usize, 3, 5, 7] {
            let mut par = BitsetCounter::new(&view);
            assert_eq!(par.count_batch(2, &batch, threads), expect);
            assert_eq!(
                par.stats(),
                seq.stats(),
                "stats diverge at threads={threads}"
            );
        }
    }

    #[test]
    fn item_queries_delegate_to_view() {
        let (tax, db) = toy();
        let view = MultiLevelView::build(&db, &tax).unwrap();
        let c = BitsetCounter::new(&view);
        let a = tax.node_by_name("a").unwrap();
        assert_eq!(c.item_support(1, a), 8);
        assert_eq!(c.num_transactions(), 10);
        assert_eq!(c.present_items(1).len(), 2);
    }

    /// Random DBs over a uniform taxonomy: the kernel must agree with a
    /// transaction-scan reference for random candidate itemsets at every
    /// level and density.
    #[test]
    fn kernel_agrees_with_reference_on_random_dbs() {
        let tax = Taxonomy::uniform(3, 2, 3).unwrap();
        let leaves = tax.leaves().to_vec();
        let mut rng = Xoshiro256pp::seed_from_u64(42);
        for _ in 0..10 {
            let rows: Vec<Vec<NodeId>> = (0..50)
                .map(|_| {
                    let w = rng.gen_range(1..=5);
                    (0..w)
                        .map(|_| leaves[rng.gen_range(0..leaves.len())])
                        .collect()
                })
                .collect();
            let db = TransactionDb::new(rows).unwrap();
            let view = MultiLevelView::build(&db, &tax).unwrap();
            for h in 1..=3 {
                let nodes = tax.nodes_at_level(h).unwrap();
                let mut cands = Vec::new();
                for i in 0..nodes.len().min(4) {
                    for j in (i + 1)..nodes.len().min(5) {
                        cands.push(Itemset::pair(nodes[i], nodes[j]));
                    }
                }
                let batch = batch_of(&cands);
                for density in DENSITIES {
                    let got = counter_at(&view, density).count_batch(h, &batch, 1);
                    for (c, &sup) in cands.iter().zip(&got) {
                        // A row supports `c` when every item of `c` is
                        // the level-`h` ancestor of one of its leaves.
                        let reference = db
                            .iter()
                            .filter(|txn| {
                                c.items().iter().all(|&it| {
                                    txn.iter()
                                        .any(|&l| tax.ancestor_at_level(l, h).unwrap() == it)
                                })
                            })
                            .count() as u64;
                        assert_eq!(sup, reference, "level {h} density {density:?} {c}");
                    }
                }
            }
        }
    }

    /// Support of any pair is bounded by the min of item supports, and
    /// monotone under generalization (an ancestor pair's support
    /// dominates the leaf pair's support).
    ///
    /// Ported from a 256-case proptest drawing `seed in 0u64..500`; a fixed
    /// sweep of 256 seeds keeps the case count deterministically. (The
    /// retired `prop_assume!(p0 != p1)` is now an assert: the first and last
    /// leaves of a 2-root uniform taxonomy always sit under different roots.)
    #[test]
    fn generalization_monotonicity() {
        for seed in 0..256u64 {
            let tax = Taxonomy::uniform(2, 2, 2).unwrap();
            let leaves = tax.leaves().to_vec();
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            let rows: Vec<Vec<NodeId>> = (0..30)
                .map(|_| {
                    let w = rng.gen_range(1..=4);
                    (0..w)
                        .map(|_| leaves[rng.gen_range(0..leaves.len())])
                        .collect()
                })
                .collect();
            let db = TransactionDb::new(rows).unwrap();
            let view = MultiLevelView::build(&db, &tax).unwrap();
            let mut c = BitsetCounter::new(&view);
            // A cross-category leaf pair and its level-1 generalization.
            let l0 = leaves[0];
            let l1 = *leaves.last().unwrap();
            let p0 = tax.ancestor_at_level(l0, 1).unwrap();
            let p1 = tax.ancestor_at_level(l1, 1).unwrap();
            assert_ne!(p0, p1, "cross-root leaves must generalize differently");
            let leaf_sup = c.count_batch(2, &batch_of(&[Itemset::pair(l0, l1)]), 1)[0];
            let gen_sup = c.count_batch(1, &batch_of(&[Itemset::pair(p0, p1)]), 1)[0];
            assert!(gen_sup >= leaf_sup, "seed {seed}");
            assert!(leaf_sup <= view.level(2).item_support(l0), "seed {seed}");
        }
    }
}
