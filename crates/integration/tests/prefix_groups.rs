//! Seeded property sweep for the support-counting kernel: prefix-group
//! counting must be **bit-identical** — counts *and* stats — to the naive
//! per-candidate reference and to itself at every thread count, at every
//! storage density (all-bitmap, the default mix, all-tid-list), on random
//! dense and sparse databases and on Quest data, including batches with
//! degenerate group shapes (all-same-prefix, all-distinct-prefix, k = 2).
//!
//! `scripts/verify.sh` re-runs this suite under `--release`, where the
//! optimizer has historically surfaced bugs debug builds miss.

use flipper_core::{mine, FlipperConfig, MinSupports, PruningConfig};
use flipper_data::rng::{Rng, Xoshiro256pp};
use flipper_data::{
    naive_tidset_counts, prefix_groups, BitsetCounter, Itemset, MultiLevelView, TransactionDb,
};
use flipper_datagen::quest::QuestParams;
use flipper_measures::Thresholds;
use flipper_taxonomy::{NodeId, Taxonomy};

/// The kernel's three storage mixes: `0.0` promotes every item to a bitmap,
/// the default 1/16 mixes bitmaps and tid-lists, `2.0` keeps every item a
/// tid-list.
const DENSITIES: [f64; 3] = [0.0, BitsetCounter::DEFAULT_DENSITY, 2.0];

/// Thread counts every batch is counted at.
const THREADS: [usize; 3] = [1, 2, 7];

/// Count `batch` at every density and thread count; counts must equal the
/// naive reference, and counts *and* stats must match across threads.
fn assert_kernel_matches_naive(view: &MultiLevelView, h: usize, batch: &[Itemset], ctx: &str) {
    let reference = naive_tidset_counts(view, h, batch);
    for density in DENSITIES {
        let mut seq = BitsetCounter::with_density(view, density);
        let counts = seq.count_batch(h, batch, 1);
        assert_eq!(
            counts, reference,
            "{ctx} density={density}: counts vs naive"
        );
        for threads in THREADS {
            let mut par = BitsetCounter::with_density(view, density);
            let got = par.count_batch(h, batch, threads);
            let ctx = format!("{ctx} density={density} threads={threads}");
            assert_eq!(got, reference, "{ctx}: counts");
            assert_eq!(par.stats(), seq.stats(), "{ctx}: stats");
        }
    }
}

/// Random database over `tax`: `n` transactions of width `1..=max_w`.
fn random_db(tax: &Taxonomy, n: usize, max_w: usize, seed: u64) -> TransactionDb {
    let leaves = tax.leaves().to_vec();
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

/// Dense setup: few leaves, wide transactions (mostly bitmaps); sparse
/// setup: many leaves, narrow transactions (mostly tid-lists).
fn setups(seed: u64) -> Vec<(&'static str, Taxonomy, TransactionDb)> {
    let dense_tax = Taxonomy::uniform(2, 2, 2).unwrap();
    let dense_db = random_db(&dense_tax, 220, 6, seed);
    let sparse_tax = Taxonomy::uniform(3, 4, 3).unwrap();
    let sparse_db = random_db(&sparse_tax, 400, 3, seed ^ 0xD15EA5E);
    vec![
        ("dense", dense_tax, dense_db),
        ("sparse", sparse_tax, sparse_db),
    ]
}

/// Candidate batches covering the group shapes the kernels special-case:
/// one giant all-same-prefix group, all-distinct prefixes, pure k = 2, and
/// a sorted mix of all of them (the miner's real batch shape).
fn batches(tax: &Taxonomy, h: usize) -> Vec<(&'static str, Vec<Itemset>)> {
    let nodes = tax.nodes_at_level(h).unwrap().to_vec();
    assert!(nodes.len() >= 4, "level {h} too small for batch shapes");
    let same_prefix: Vec<Itemset> = nodes[2..]
        .iter()
        .map(|&x| Itemset::new(vec![nodes[0], nodes[1], x]))
        .collect();
    let distinct_prefix: Vec<Itemset> = (0..nodes.len() - 2)
        .map(|i| Itemset::new(vec![nodes[i], nodes[i + 1], nodes[i + 2]]))
        .collect();
    let mut pairs: Vec<Itemset> = Vec::new();
    for (i, &x) in nodes.iter().enumerate() {
        for &y in &nodes[i + 1..] {
            pairs.push(Itemset::pair(x, y));
        }
    }
    let mut mixed: Vec<Itemset> = Vec::new();
    mixed.extend(nodes.iter().map(|&x| Itemset::single(x)));
    mixed.extend(pairs.iter().cloned());
    mixed.extend(same_prefix.iter().cloned());
    mixed.extend(distinct_prefix.iter().cloned());
    mixed.sort_unstable();
    mixed.dedup();
    // Repeat the mixed batch well past the sharding cutoff so the
    // group-boundary chunker actually engages at threads > 1.
    let mut big = mixed.clone();
    while big.len() < 4 * flipper_data::MIN_SHARD_CANDIDATES {
        big.extend(mixed.iter().cloned());
    }
    vec![
        ("all-same-prefix", same_prefix),
        ("all-distinct-prefix", distinct_prefix),
        ("k2", pairs),
        ("mixed-large", big),
    ]
}

/// Counts match the naive per-candidate reference at every density, and
/// counts *and stats* are identical at threads {1, 2, 7} for every batch
/// shape.
#[test]
fn grouped_counting_is_bit_identical_to_naive() {
    for seed in [3u64, 1117] {
        for (setup, tax, db) in setups(seed) {
            let view = MultiLevelView::build(&db, &tax);
            for h in 1..=tax.height() {
                if tax.nodes_at_level(h).unwrap().len() < 4 {
                    continue;
                }
                for (shape, batch) in batches(&tax, h) {
                    let ctx = format!("{setup} seed={seed} h={h} {shape}");
                    assert_kernel_matches_naive(&view, h, &batch, &ctx);
                }
            }
        }
    }
}

/// All `k`-subsets of `items` (ascending), as sorted itemsets.
fn k_subsets(items: &[NodeId], k: usize) -> Vec<Itemset> {
    fn walk(
        items: &[NodeId],
        k: usize,
        from: usize,
        cur: &mut Vec<NodeId>,
        out: &mut Vec<Itemset>,
    ) {
        if cur.len() == k {
            out.push(Itemset::new(cur.clone()));
            return;
        }
        for i in from..items.len() {
            cur.push(items[i]);
            walk(items, k, i + 1, cur, out);
            cur.pop();
        }
    }
    let mut out = Vec::new();
    walk(items, k, 0, &mut Vec::new(), &mut out);
    out.sort_unstable();
    out
}

/// Chained batches the way the miner walks `Q(h,2) → Q(h,3) → Q(h,4)` on
/// Quest data: sorted k = 2/3/4 batches over a shrinking set of frequent
/// items, each holding both singleton and multi-member prefix groups, at
/// every level — checked at every density and thread count. The default
/// density must really mix bitmaps and tid-lists on at least one level.
#[test]
fn chained_batches_match_naive_at_every_density() {
    let ds = flipper_datagen::quest::generate(
        &QuestParams::default().with_transactions(300).with_seed(11),
    );
    let (tax, db) = (ds.taxonomy, ds.db);
    let view = MultiLevelView::build(&db, &tax);
    let mut mixed_levels = 0;
    for h in 1..=tax.height() {
        let lv = view.level(h);
        let items: Vec<NodeId> = lv
            .present_items()
            .iter()
            .copied()
            .filter(|&it| lv.item_support(it) >= 2)
            .take(14)
            .collect();
        if items.len() < 7 {
            continue;
        }
        let present = lv.present_items().len();
        assert_eq!(
            BitsetCounter::with_density(&view, 0.0).dense_items(h),
            present
        );
        assert_eq!(BitsetCounter::with_density(&view, 2.0).dense_items(h), 0);
        let dense = BitsetCounter::new(&view).dense_items(h);
        mixed_levels += usize::from(dense > 0 && dense < present);
        for (k, pool) in [(2usize, 14usize), (3, 10), (4, 7)] {
            let batch = k_subsets(&items[..pool.min(items.len())], k);
            let sizes: Vec<usize> = prefix_groups(&batch).map(|g| g.len()).collect();
            assert!(
                sizes.contains(&1) && sizes.iter().any(|&n| n > 1),
                "h={h} k={k}: batch needs singleton and multi-member groups: {sizes:?}"
            );
            assert_kernel_matches_naive(&view, h, &batch, &format!("quest h={h} k={k}"));
        }
    }
    assert!(mixed_levels > 0, "no level mixes bitmaps and tid-lists");
}

/// End-to-end: full mining runs are fully bit-identical — patterns, cell
/// summaries and counter stats — across thread counts {1, 2, 4, 7}.
#[test]
fn mining_results_invariant_across_threads() {
    for seed in [7u64, 4242] {
        for (setup, tax, db) in setups(seed) {
            let cfg = FlipperConfig::new(
                Thresholds::new(0.45, 0.2),
                MinSupports::Counts(vec![2, 1, 1]),
            )
            .with_pruning(PruningConfig::FULL);
            let baseline = mine(&tax, &db, &cfg);
            for threads in [2usize, 4, 7] {
                let r = mine(&tax, &db, &cfg.clone().with_threads(threads));
                let ctx = format!("{setup} seed={seed} threads={threads}");
                assert_eq!(r.patterns, baseline.patterns, "{ctx}: patterns");
                assert_eq!(r.cells, baseline.cells, "{ctx}: cell summaries");
                // Prefix groups are never torn apart, so the kernel's work
                // stats do not depend on the thread count.
                assert_eq!(
                    r.stats.counter, baseline.stats.counter,
                    "{ctx}: counter stats"
                );
            }
        }
    }
}
