//! The support-counting kernel and its packed bitmaps.
//!
//! Tid-lists win when items are sparse; when an item appears in a large
//! fraction of transactions (common at shallow taxonomy levels, where a
//! category may cover half the database), a packed bitmap with word-wise
//! AND + popcount is both smaller and faster. [`BitsetCounter`] uses
//! bitmaps for dense items and falls back to tid-lists for sparse ones.

use crate::counting::{prefix_groups, same_prefix_group, CounterStats, MIN_SHARD_CANDIDATES};
use crate::exec;
use crate::itemset::Itemset;
use crate::projection::MultiLevelView;
use crate::tidset::{intersect_size, intersect_size_many};
use flipper_taxonomy::NodeId;
use std::collections::HashMap;

/// A fixed-width packed bitmap over transaction ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// All-zeros bitmap over `len` transactions.
    pub fn zeros(len: usize) -> Self {
        Bitmap {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Build from a sorted tid-list.
    pub fn from_tids(tids: &[u32], len: usize) -> Self {
        let mut b = Bitmap::zeros(len);
        for &t in tids {
            b.set(t as usize);
        }
        b
    }

    /// Number of transactions covered (bit capacity).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap covers zero transactions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Test bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Popcount of the AND of all `maps` (must share the same length).
    ///
    /// The two-map case — the prefix-kernel hot path — and the general fold
    /// both run in fixed-width 4×u64 blocks with a scalar tail and no
    /// data-dependent early exit, so LLVM autovectorizes the AND+popcount
    /// without any explicit SIMD.
    pub fn and_count(maps: &[&Bitmap]) -> u64 {
        match maps {
            [] => 0,
            [a] => a.count_ones(),
            [a, b] => {
                debug_assert_eq!(a.len, b.len);
                let mut n = 0u64;
                let mut ca = a.words.chunks_exact(4);
                let mut cb = b.words.chunks_exact(4);
                for (wa, wb) in ca.by_ref().zip(cb.by_ref()) {
                    n += (wa[0] & wb[0]).count_ones() as u64
                        + (wa[1] & wb[1]).count_ones() as u64
                        + (wa[2] & wb[2]).count_ones() as u64
                        + (wa[3] & wb[3]).count_ones() as u64;
                }
                for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
                    n += (x & y).count_ones() as u64;
                }
                n
            }
            maps => {
                let first = maps[0];
                debug_assert!(maps.iter().all(|m| m.len == first.len));
                let words = first.words.len();
                let mut n = 0u64;
                let mut w = 0;
                while w + 4 <= words {
                    let mut acc = [
                        first.words[w],
                        first.words[w + 1],
                        first.words[w + 2],
                        first.words[w + 3],
                    ];
                    for m in &maps[1..] {
                        acc[0] &= m.words[w];
                        acc[1] &= m.words[w + 1];
                        acc[2] &= m.words[w + 2];
                        acc[3] &= m.words[w + 3];
                    }
                    n += acc[0].count_ones() as u64
                        + acc[1].count_ones() as u64
                        + acc[2].count_ones() as u64
                        + acc[3].count_ones() as u64;
                    w += 4;
                }
                while w < words {
                    let mut acc = first.words[w];
                    for m in &maps[1..] {
                        acc &= m.words[w];
                    }
                    n += acc.count_ones() as u64;
                    w += 1;
                }
                n
            }
        }
    }

    /// Popcount of AND between a bitmap and a sorted tid-list (hybrid path).
    ///
    /// Probes four tids per iteration with branchless bit tests; the one
    /// up-front bounds check on the largest tid replaces a per-probe assert.
    pub fn and_tids_count(&self, tids: &[u32]) -> u64 {
        if let Some(&max) = tids.last() {
            assert!(
                (max as usize) < self.len,
                "bit {max} out of range {}",
                self.len
            );
        }
        let bit = |t: u32| (self.words[t as usize / 64] >> (t % 64)) & 1;
        let mut n = 0u64;
        let mut chunks = tids.chunks_exact(4);
        for c in chunks.by_ref() {
            n += bit(c[0]) + bit(c[1]) + bit(c[2]) + bit(c[3]);
        }
        for &t in chunks.remainder() {
            n += bit(t);
        }
        n
    }

    /// Overwrite this bitmap with a copy of `other`, reusing the existing
    /// word allocation — the scratch-buffer primitive behind prefix-group
    /// counting.
    pub fn copy_from(&mut self, other: &Bitmap) {
        self.words.clear();
        self.words.extend_from_slice(&other.words);
        self.len = other.len;
    }

    /// Word-wise `self &= other`.
    ///
    /// # Panics
    /// Panics when the bitmaps cover different transaction counts.
    pub fn and_assign(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap lengths must match");
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= o;
        }
    }
}

/// The support-counting kernel: hybrid dense-bitmap / sparse-tid-list
/// prefix-group counting, the one counter the miner uses.
///
/// Items whose support reaches `density × N` (by default
/// [`Self::DEFAULT_DENSITY`] = 1/16 of the transactions) get a packed bitmap
/// at their level; everything else stays a tid-list. Candidates arrive as
/// sorted batches, so the members of a `(k−1)`-prefix group are adjacent
/// ([`crate::prefix_groups`]) and each group's prefix is materialized once:
/// a word-wise AND into scratch when every prefix item is dense, otherwise
/// the sparsest prefix tid-list filtered through the rest. Every member is
/// then one AND-popcount, bitmap filter or galloping intersection against
/// its last item.
///
/// [`Self::count_batch`] shards a batch over scoped workers at prefix-group
/// boundaries ([`crate::exec::map_group_chunks`]), so counts and
/// [`CounterStats`] are bit-identical at every thread count.
pub struct BitsetCounter<'v> {
    view: &'v MultiLevelView,
    /// Bitmaps per level (index `h-1`), for dense items only.
    bitmaps: Vec<HashMap<NodeId, Bitmap>>,
    stats: CounterStats,
}

impl<'v> BitsetCounter<'v> {
    /// Density threshold: items covering ≥ 1/16 of transactions are
    /// promoted to bitmaps.
    pub const DEFAULT_DENSITY: f64 = 1.0 / 16.0;

    /// Build the counter over `view` with the default density threshold.
    pub fn new(view: &'v MultiLevelView) -> Self {
        Self::with_density(view, Self::DEFAULT_DENSITY)
    }

    /// Build with an explicit density threshold. `0.0` promotes every item
    /// (all-bitmap); anything above `1.0` promotes none (all-tid-list).
    /// Counts never depend on it; tests use it to force each path.
    pub fn with_density(view: &'v MultiLevelView, density: f64) -> Self {
        assert!(density >= 0.0, "density threshold must be non-negative");
        let n = view.num_transactions();
        let cutoff = ((density * n as f64) as u64).max(1);
        let bitmaps = (1..=view.height())
            .map(|h| {
                let lv = view.level(h);
                lv.present_items()
                    .iter()
                    .filter(|&&item| lv.item_support(item) >= cutoff)
                    .map(|&item| (item, Bitmap::from_tids(lv.tidset(item), n)))
                    .collect()
            })
            .collect();
        BitsetCounter {
            view,
            bitmaps,
            stats: CounterStats::default(),
        }
    }

    /// How many items are bitmap-backed at level `h` (diagnostics).
    pub fn dense_items(&self, h: usize) -> usize {
        self.bitmaps[h - 1].len()
    }

    /// Number of transactions `N` (identical at every level).
    pub fn num_transactions(&self) -> u64 {
        self.view.num_transactions() as u64
    }

    /// Support of a single node at level `h`.
    pub fn item_support(&self, h: usize, item: NodeId) -> u64 {
        self.view.level(h).item_support(item)
    }

    /// Nodes present (support > 0) at level `h`, ascending by id.
    pub fn present_items(&self, h: usize) -> &[NodeId] {
        self.view.level(h).present_items()
    }

    /// Work statistics accumulated by [`Self::count_batch`] so far.
    pub fn stats(&self) -> CounterStats {
        self.stats
    }

    /// Supports of `candidates` (each a sorted itemset of level-`h` nodes),
    /// in input order, accumulating [`Self::stats`]. The batch is sharded
    /// over `threads` scoped workers (`0` = auto-detect, `1` = inline) in
    /// chunks that split only between prefix groups; batches smaller than
    /// [`MIN_SHARD_CANDIDATES`] are counted inline. Counts and stats are
    /// bit-identical at every thread count.
    pub fn count_batch(&mut self, h: usize, candidates: &[Itemset], threads: usize) -> Vec<u64> {
        let threads = exec::effective_threads(threads);
        if threads <= 1 || candidates.len() < MIN_SHARD_CANDIDATES {
            let (counts, delta) = self.count_shard(h, candidates);
            self.stats.merge(&delta);
            return counts;
        }
        let shared = &*self;
        let shards = exec::map_group_chunks(threads, candidates, same_prefix_group, |chunk| {
            shared.count_shard(h, chunk)
        });
        let mut counts = Vec::with_capacity(candidates.len());
        for (shard_counts, delta) in shards {
            counts.extend(shard_counts);
            self.stats.merge(&delta);
        }
        counts
    }

    /// One shard of [`Self::count_batch`]: the supports of `candidates` in
    /// input order plus the work stats of exactly this shard. Immutable, so
    /// shards run concurrently. Nothing allocates per candidate;
    /// `intersections` charges `k−2` combines per materialized prefix plus
    /// one per member, and `k−1` for a singleton `k ≥ 3` group.
    fn count_shard(&self, h: usize, candidates: &[Itemset]) -> (Vec<u64>, CounterStats) {
        /// The group's shared prefix, in whichever representation its
        /// density mix produced.
        enum Prefix<'a> {
            Bits(&'a Bitmap),
            Tids(&'a [u32]),
        }
        let lv = self.view.level(h);
        let maps = &self.bitmaps[h - 1];
        let mut stats = CounterStats {
            candidates_counted: candidates.len() as u64,
            ..CounterStats::default()
        };
        let mut counts = vec![0u64; candidates.len()];
        // Scratch reused across groups: the dense/sparse partition of the
        // current prefix and the two materialization targets.
        let mut dense: Vec<&Bitmap> = Vec::new();
        let mut sparse: Vec<&[u32]> = Vec::new();
        let mut prefix_bm = Bitmap::zeros(0);
        let mut prefix_tids: Vec<u32> = Vec::new();
        for group in prefix_groups(candidates) {
            let items = candidates[group.start].items();
            let k = items.len();
            if k == 0 {
                continue; // empty itemsets count 0 transactions
            }
            if k == 1 {
                for i in group {
                    counts[i] = lv.item_support(candidates[i].items()[0]);
                }
                continue;
            }
            dense.clear();
            sparse.clear();
            for &it in &items[..k - 1] {
                match maps.get(&it) {
                    Some(m) => dense.push(m),
                    None => sparse.push(lv.tidset(it)),
                }
            }
            // A singleton k ≥ 3 group has nothing to reuse: skip the prefix
            // materialization (a scratch-bitmap copy / filtered list would
            // double the memory traffic) and answer it with one fused
            // early-exit pass over all k items. Same `k−1` intersections
            // charge, zero reuses — stats stay group-structure-invariant.
            if k >= 3 && group.len() == 1 {
                stats.intersections += (k - 1) as u64;
                let last = items[k - 1];
                match maps.get(&last) {
                    Some(m) => dense.push(m),
                    None => sparse.push(lv.tidset(last)),
                }
                counts[group.start] = match (dense.is_empty(), sparse.is_empty()) {
                    (true, _) => intersect_size_many(&sparse),
                    (false, true) => Bitmap::and_count(&dense),
                    (false, false) => {
                        // Filter the smallest sparse list through everything.
                        sparse.sort_by_key(|s| s.len());
                        sparse[0]
                            .iter()
                            .filter(|&&t| {
                                dense.iter().all(|m| m.get(t as usize))
                                    && sparse[1..].iter().all(|s| s.binary_search(&t).is_ok())
                            })
                            .count() as u64
                    }
                };
                continue;
            }
            let prefix = if k == 2 {
                match maps.get(&items[0]) {
                    Some(m) => Prefix::Bits(m),
                    None => Prefix::Tids(lv.tidset(items[0])),
                }
            } else {
                stats.prefix_reuses += (group.len() - 1) as u64;
                stats.intersections += (k - 2) as u64;
                if sparse.is_empty() {
                    prefix_bm.copy_from(dense[0]);
                    for m in &dense[1..] {
                        prefix_bm.and_assign(m);
                    }
                    Prefix::Bits(&prefix_bm)
                } else {
                    // Filter the smallest sparse list through everything.
                    sparse.sort_by_key(|s| s.len());
                    let base = sparse[0];
                    prefix_tids.clear();
                    prefix_tids.extend(base.iter().copied().filter(|&t| {
                        dense.iter().all(|m| m.get(t as usize))
                            && sparse[1..].iter().all(|s| s.binary_search(&t).is_ok())
                    }));
                    Prefix::Tids(&prefix_tids)
                }
            };
            for i in group {
                stats.intersections += 1;
                let last = candidates[i].items()[k - 1];
                counts[i] = match (&prefix, maps.get(&last)) {
                    (Prefix::Bits(p), Some(m)) => Bitmap::and_count(&[p, m]),
                    (Prefix::Bits(p), None) => p.and_tids_count(lv.tidset(last)),
                    (Prefix::Tids(p), Some(m)) => m.and_tids_count(p),
                    (Prefix::Tids(p), None) => intersect_size(p, lv.tidset(last)),
                };
            }
        }
        (counts, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, Xoshiro256pp};
    use crate::transaction::TransactionDb;
    use flipper_taxonomy::Taxonomy;

    #[test]
    fn bitmap_basics() {
        let mut b = Bitmap::zeros(130);
        assert_eq!(b.len(), 130);
        assert!(!b.is_empty());
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1));
        assert_eq!(b.count_ones(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bitmap_bounds_checked() {
        let mut b = Bitmap::zeros(10);
        b.set(10);
    }

    #[test]
    fn bitmap_from_tids_roundtrip() {
        let tids = vec![1u32, 5, 63, 64, 99];
        let b = Bitmap::from_tids(&tids, 100);
        assert_eq!(b.count_ones(), 5);
        for &t in &tids {
            assert!(b.get(t as usize));
        }
    }

    #[test]
    fn and_count_matches_manual() {
        let a = Bitmap::from_tids(&[1, 2, 3, 70], 100);
        let b = Bitmap::from_tids(&[2, 3, 70, 99], 100);
        let c = Bitmap::from_tids(&[3, 70], 100);
        assert_eq!(Bitmap::and_count(&[&a, &b]), 3);
        assert_eq!(Bitmap::and_count(&[&a, &b, &c]), 2);
        assert_eq!(Bitmap::and_count(&[]), 0);
        assert_eq!(Bitmap::and_count(&[&a]), 4);
    }

    #[test]
    fn and_tids_count_matches() {
        let a = Bitmap::from_tids(&[1, 2, 3, 70], 100);
        assert_eq!(a.and_tids_count(&[2, 50, 70]), 2);
        assert_eq!(a.and_tids_count(&[]), 0);
    }

    fn random_setup(seed: u64) -> (Taxonomy, TransactionDb) {
        let tax = Taxonomy::uniform(3, 3, 2).unwrap();
        let leaves = tax.leaves().to_vec();
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let rows: Vec<Vec<NodeId>> = (0..200)
            .map(|_| {
                let w = rng.gen_range(1..=6);
                (0..w)
                    .map(|_| leaves[rng.gen_range(0..leaves.len())])
                    .collect()
            })
            .collect();
        (tax, TransactionDb::new(rows).unwrap())
    }

    #[test]
    fn density_zero_promotes_everything() {
        let (tax, db) = random_setup(1);
        let view = MultiLevelView::build(&db, &tax);
        let bc = BitsetCounter::with_density(&view, 0.0);
        assert_eq!(bc.dense_items(1), view.level(1).present_items().len());
        let bc = BitsetCounter::with_density(&view, 2.0);
        assert_eq!(bc.dense_items(1), 0);
    }
}
