//! The support-counting kernel and its packed bitmaps.
//!
//! Tid-lists win when items are sparse; when an item appears in a large
//! enough fraction of transactions, a packed bitmap with word-wise AND +
//! popcount is faster. [`BitsetCounter`] uses bitmaps for the items the
//! storage rule ([`BitsetCounter::BITMAP_RATIO`]) promotes and tid-lists for
//! the rest. The promoted items' bitmaps depend only on the view, so the
//! [`MultiLevelView`] owns them: each level's table is built on first use
//! and every counter over that view borrows it from then on.
//!
//! The counter answers two questions. The first is the supports of a sorted
//! candidate batch ([`BitsetCounter::count_batch`]). A prefix group is
//! answered either one intersection per member, or by projection: the
//! transactions of a sparse prefix are read once, as rows of the view's
//! horizontal layout, and every member in them is tallied. The second is
//! which combinations of one item per slot co-occur at all, with their
//! supports ([`BitsetCounter::co_occurring`]).

use crate::counting::{CounterStats, MIN_SHARD_CANDIDATES};
use crate::exec;
use crate::itemset::ItemsetRows;
use crate::projection::{LevelRows, LevelView, MultiLevelView};
use crate::tidset::{intersect_into, intersect_many_into, intersect_size};
use flipper_taxonomy::NodeId;
use std::borrow::Cow;
use std::ops::Range;

/// A fixed-width packed bitmap over transaction ids.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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

    /// Overwrite this bitmap with `a AND b`, reusing its word allocation,
    /// and report whether any bit is set.
    ///
    /// # Panics
    /// Panics when `a` and `b` cover different transaction counts.
    pub(crate) fn assign_and(&mut self, a: &Bitmap, b: &Bitmap) -> bool {
        assert_eq!(a.len, b.len, "bitmap lengths must match");
        let mut any = 0u64;
        self.words.clear();
        self.words
            .extend(a.words.iter().zip(&b.words).map(|(x, y)| {
                let w = x & y;
                any |= w;
                w
            }));
        self.len = a.len;
        any != 0
    }

    /// The tids of the sorted list `tids` whose bit is set, written into
    /// `out` (cleared first): the materializing twin of
    /// [`Self::and_tids_count`].
    pub(crate) fn filter_tids_into(&self, tids: &[u32], out: &mut Vec<u32>) {
        if let Some(&max) = tids.last() {
            assert!(
                (max as usize) < self.len,
                "bit {max} out of range {}",
                self.len
            );
        }
        out.clear();
        out.extend(
            tids.iter()
                .copied()
                .filter(|&t| (self.words[t as usize / 64] >> (t % 64)) & 1 != 0),
        );
    }
}

/// One item's transactions, or an intersection of several, in whichever
/// representation the items' densities produced.
#[derive(Clone, Copy)]
enum TidSet<'a> {
    Bits(&'a Bitmap),
    Tids(&'a [u32]),
}

impl<'a> TidSet<'a> {
    /// `|self ∩ other|`: one AND-popcount, bitmap filter or galloping
    /// intersection.
    fn and_count(self, other: TidSet<'_>) -> u64 {
        match (self, other) {
            (TidSet::Bits(a), TidSet::Bits(b)) => Bitmap::and_count(&[a, b]),
            (TidSet::Bits(m), TidSet::Tids(t)) | (TidSet::Tids(t), TidSet::Bits(m)) => {
                m.and_tids_count(t)
            }
            (TidSet::Tids(a), TidSet::Tids(b)) => intersect_size(a, b),
        }
    }

    /// `self ∩ other`, materialized into `out`: a word-wise AND when both
    /// are bitmaps, otherwise a tid-list. `None` when it is empty.
    fn and_into<'s>(self, other: TidSet<'_>, out: &'s mut Scratch) -> Option<TidSet<'s>> {
        match (self, other) {
            (TidSet::Bits(a), TidSet::Bits(b)) => {
                out.bits.assign_and(a, b).then_some(TidSet::Bits(&out.bits))
            }
            (TidSet::Bits(m), TidSet::Tids(t)) | (TidSet::Tids(t), TidSet::Bits(m)) => {
                m.filter_tids_into(t, &mut out.tids);
                (!out.tids.is_empty()).then_some(TidSet::Tids(&out.tids))
            }
            (TidSet::Tids(a), TidSet::Tids(b)) => {
                intersect_into(a, b, &mut out.tids);
                (!out.tids.is_empty()).then_some(TidSet::Tids(&out.tids))
            }
        }
    }
}

/// One depth's materialization targets in [`BitsetCounter::co_occurring`].
#[derive(Debug, Default)]
struct Scratch {
    bits: Bitmap,
    tids: Vec<u32>,
}

/// The support-counting kernel: hybrid dense-bitmap / sparse-tid-list
/// prefix-group counting, the one counter the miner uses.
///
/// Items that the storage rule ([`Self::BITMAP_RATIO`]) promotes get a
/// packed bitmap at their level; everything else stays a tid-list. The
/// bitmaps belong to the view: [`Self::new`] borrows each level's table,
/// building it on the view's first use, so every counter over one view —
/// every mining call of a session, every sweep point and job, every top-k
/// probe — shares one build. Candidates arrive as
/// ascending rows of one flat table, so the members of a `(k−1)`-prefix
/// group are adjacent ([`ItemsetRows::prefix_groups`]) and each group's
/// prefix is materialized once:
/// a word-wise AND into scratch when every prefix item is dense, otherwise
/// the sparse prefix tid-lists intersected shortest-first and filtered
/// through the dense ones. The members are then answered one of two ways:
///
/// * **per member**: one AND-popcount, bitmap filter or galloping
///   intersection of the prefix against each member's last item;
/// * **by projection**, for a tid-list prefix `T`: each row `t ∈ T` of the
///   level's horizontal layout is read once, and every member in it is
///   tallied through a slot table indexed by node id. It is chosen when
///   reading the rows, about `|T| · w̄_h + m` items for `m` members and the
///   level's mean projected width `w̄_h`, is cheaper than probing `T` once
///   per member, at least `m · |T|`. Bitmap prefixes always take the
///   per-member path.
///
/// The rows belong to the view, like the bitmaps, but they are built only
/// for a batch whose savings pay for them (see [`Self::count_batch`]).
/// [`Self::count_batch`] shards a batch over scoped workers at prefix-group
/// boundaries ([`crate::exec::map_group_chunks`]) after that decision, so
/// counts and [`CounterStats`] are bit-identical at every thread count.
///
/// [`Self::co_occurring`] enumerates combinations depth-first instead: it
/// extends one running intersection a slot at a time, in the same two
/// representations, and gets every combination's support on the way.
///
/// Counts never depend on which items are bitmaps, and neither does any
/// stat but [`CounterStats::projected`].
pub struct BitsetCounter<'v> {
    view: &'v MultiLevelView,
    /// Bitmaps per level (index `h-1`) and node id; `Some` for dense items
    /// only. Borrowed from the view, or private under
    /// [`Self::with_density`].
    bitmaps: Vec<Cow<'v, [Option<Bitmap>]>>,
    stats: CounterStats,
    /// Per-depth buffers of [`Self::co_occurring`], reused across calls.
    scratch: Vec<Scratch>,
}

impl<'v> BitsetCounter<'v> {
    /// The storage rule: an item gets a bitmap at its level iff
    /// `BITMAP_RATIO · support ≥ N`, i.e. iff its `N`-bit bitmap is at most
    /// twice its `32 · support`-bit tid-list.
    ///
    /// * **Memory.** A promoted item's bitmap takes `8 · ⌈N/64⌉ ≤ 8 ·
    ///   support` bytes, at most twice its tid-list's `4 · support`. So each
    ///   level's bitmaps take at most twice that level's tid-list bytes,
    ///   however many items qualify. Per level, supports sum to `N · W̄`
    ///   (`W̄` the mean projected width), so at most `64 · W̄` items qualify.
    /// * **Speed.** At the cutoff, intersecting two promoted items is one
    ///   4-word-blocked AND-popcount over `N/64` words with no
    ///   data-dependent branch, where merging their tid-lists steps through
    ///   at least `2 · N/64` tids, one branch each. Above the cutoff the
    ///   bitmap only gets cheaper relative to the merge.
    /// * **Measured.** `perfbench` medians of 5 runs on a 2-vCPU container,
    ///   bitmaps built once per view, `mine_s` on quest-basic / quest-sweep:
    ///   0.298 / 0.109 s at 1/16 (Roaring's memory rule), 0.257 / 0.075 s at
    ///   1/32 (bitmap no larger than the tid-list), 0.189 / 0.071 s at 1/64.
    ///   1/256 was no faster than 1/64 and took 0.7 MB more peak memory.
    pub const BITMAP_RATIO: u64 = 64;

    /// Build the counter over `view` under the storage rule
    /// ([`Self::BITMAP_RATIO`]), borrowing the view's bitmaps. The first
    /// counter over a view builds them, one level at a time.
    pub fn new(view: &'v MultiLevelView) -> Self {
        let bitmaps = (1..=view.height())
            .map(|h| Cow::Borrowed(view.bitmaps(h)))
            .collect();
        Self::with_bitmaps(view, bitmaps)
    }

    /// Build with an explicit density threshold and a private bitmap table:
    /// items covering at least `density × N` transactions are promoted.
    /// `0.0` promotes every item (all-bitmap); anything above `1.0`
    /// promotes none (all-tid-list). Counts never depend on it; tests use
    /// it to force each path.
    pub fn with_density(view: &'v MultiLevelView, density: f64) -> Self {
        assert!(density >= 0.0, "density threshold must be non-negative");
        let n = view.num_transactions();
        let cutoff = ((density * n as f64) as u64).max(1);
        let bitmaps = (1..=view.height())
            .map(|h| Cow::Owned(level_bitmaps(view.level(h), n, |support| support >= cutoff)))
            .collect();
        Self::with_bitmaps(view, bitmaps)
    }

    fn with_bitmaps(view: &'v MultiLevelView, bitmaps: Vec<Cow<'v, [Option<Bitmap>]>>) -> Self {
        BitsetCounter {
            view,
            bitmaps,
            stats: CounterStats::default(),
            scratch: Vec::new(),
        }
    }

    /// How many items are bitmap-backed at level `h` (diagnostics).
    pub fn dense_items(&self, h: usize) -> usize {
        self.bitmaps[h - 1].iter().flatten().count()
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

    /// Work statistics accumulated by [`Self::count_batch`] and
    /// [`Self::co_occurring`] so far.
    pub fn stats(&self) -> CounterStats {
        self.stats
    }

    /// Every combination of one level-`h` item per slot whose items
    /// co-occur in at least one transaction, passed to `emit` as a sorted
    /// itemset together with its support. Items must be distinct across
    /// slots.
    ///
    /// The combinations are enumerated depth-first, sparsest slot first,
    /// and the running intersection of the items chosen so far grows one
    /// slot at a time into a per-depth buffer: a word-wise AND while it and
    /// the next item are both bitmaps, a bitmap filter or list intersection
    /// once either is a tid-list. A branch stops as soon as its
    /// intersection is empty, and the last slot is only counted, never
    /// materialized. Each AND, filter or intersection is charged to
    /// [`CounterStats::intersections`]; nothing is charged to
    /// `candidates_counted`.
    pub fn co_occurring(
        &mut self,
        h: usize,
        slots: &[&[NodeId]],
        mut emit: impl FnMut(&[NodeId], u64),
    ) {
        let Self {
            view,
            bitmaps,
            stats,
            scratch,
        } = self;
        if slots.iter().any(|slot| slot.is_empty()) {
            return;
        }
        if scratch.len() < slots.len() {
            scratch.resize_with(slots.len(), Scratch::default);
        }
        let level = Level {
            view: view.level(h),
            maps: &bitmaps[h - 1],
        };
        // The sparsest slot first: its intersections shrink fastest, so
        // more branches die before the leaf.
        let mut order = slots.to_vec();
        order.sort_by_key(|slot| {
            slot.iter()
                .map(|&item| level.view.item_support(item))
                .sum::<u64>()
        });
        let mut walk = Walk {
            path: Vec::with_capacity(slots.len()),
            sorted: Vec::with_capacity(slots.len()),
            intersections: 0,
            emit: &mut emit,
        };
        level.extend(&order, None, scratch, &mut walk);
        stats.intersections += walk.intersections;
    }

    /// Supports of the rows of `candidates` (each a sorted itemset of
    /// level-`h` nodes), in row order, accumulating [`Self::stats`]. The
    /// rows are sharded over `threads` scoped workers (`0` = auto-detect,
    /// `1` = inline) in chunks that split only between prefix groups;
    /// batches smaller than [`MIN_SHARD_CANDIDATES`] are counted inline.
    /// Whether the batch may project is decided first, on the calling
    /// thread: only when its groups promise to save more than building
    /// level `h`'s rows costs, `N · w̄_h`. So counts and stats are
    /// bit-identical at every thread count.
    pub fn count_batch(&mut self, h: usize, candidates: &ItemsetRows, threads: usize) -> Vec<u64> {
        let threads = exec::effective_threads(threads);
        let n = candidates.len();
        let projection = self.projection(h, candidates);
        if threads <= 1 || n < MIN_SHARD_CANDIDATES {
            let (counts, delta) = self.count_shard(h, candidates, 0..n, projection);
            self.stats.merge(&delta);
            return counts;
        }
        let shared = &*self;
        let shards = exec::map_group_chunks(
            threads,
            n,
            |a, b| candidates.same_prefix(a, b),
            |shard| shared.count_shard(h, candidates, shard, projection),
        );
        let mut counts = Vec::with_capacity(n);
        for (shard_counts, delta) in shards {
            counts.extend(shard_counts);
            self.stats.merge(&delta);
        }
        counts
    }

    /// The batch gate: level `h`'s rows and cost model when counting
    /// `candidates` may use them, the rows built on the view's first such
    /// batch at `h`; `None` when no group may project.
    ///
    /// The batch may project when the savings its groups promise
    /// ([`ProjectionCost::saving`]) exceed the rows' one-off build. A
    /// group's prefix tid-list is not materialized yet, so its length is
    /// taken as that of the shortest tid-list among the prefix items, the
    /// most it can be. The decision reads only the view and the batch,
    /// never whether the rows are already built, so a batch projects the
    /// same groups on a fresh view and on one an earlier call has used.
    fn projection(
        &self,
        h: usize,
        candidates: &ItemsetRows,
    ) -> Option<(&'v LevelRows, ProjectionCost)> {
        let k = candidates.k();
        if k < 2 {
            return None;
        }
        let level = self.level(h);
        let cost = ProjectionCost::of(level.view, self.view.num_transactions())?;
        let mut saving = 0u128;
        for group in candidates.prefix_groups(0..candidates.len()) {
            let shortest = candidates.row(group.start)[..k - 1]
                .iter()
                .filter_map(|&it| match level.set(it) {
                    TidSet::Tids(t) => Some(t.len()),
                    TidSet::Bits(_) => None,
                })
                .min();
            if let Some(len) = shortest {
                saving += cost.saving(group.len(), len);
            }
        }
        (saving > cost.build()).then(|| (self.view.rows(h), cost))
    }

    /// One level's items as the kernel reads them.
    fn level(&self, h: usize) -> Level<'_> {
        Level {
            view: self.view.level(h),
            maps: &self.bitmaps[h - 1],
        }
    }

    /// One shard of [`Self::count_batch`]: the supports of the `shard` rows
    /// of `candidates` in row order plus the work stats of exactly this
    /// shard. Immutable, so shards run concurrently. Candidates are read in
    /// place and nothing allocates per candidate; `intersections` charges
    /// `k−2` combines per materialized prefix plus one per member, and `k−1`
    /// for a singleton `k ≥ 3` group. Given a `projection`, a group whose
    /// prefix is a tid-list is projected through its rows when its
    /// [`ProjectionCost`] says that is cheaper, and charged the same.
    fn count_shard(
        &self,
        h: usize,
        candidates: &ItemsetRows,
        shard: Range<usize>,
        projection: Option<(&LevelRows, ProjectionCost)>,
    ) -> (Vec<u64>, CounterStats) {
        let level = self.level(h);
        let k = candidates.k();
        let mut stats = CounterStats {
            candidates_counted: shard.len() as u64,
            ..CounterStats::default()
        };
        // `counts[i − base]` is the support of row `i`.
        let base = shard.start;
        let mut counts = vec![0u64; shard.len()];
        // Scratch reused across groups: the dense/sparse partition of the
        // current prefix, the materialization targets and the projection's
        // tally.
        let mut dense: Vec<&Bitmap> = Vec::new();
        let mut sparse: Vec<&[u32]> = Vec::new();
        let mut prefix_bm = Bitmap::zeros(0);
        let mut prefix_tids: Vec<u32> = Vec::new();
        let mut spare: Vec<u32> = Vec::new();
        let mut tally = Tally::default();
        for group in candidates.prefix_groups(shard) {
            let items = candidates.row(group.start);
            if k == 1 {
                counts[group.start - base] = level.view.item_support(items[0]);
                continue;
            }
            dense.clear();
            sparse.clear();
            let mut partition = |it: NodeId| match level.set(it) {
                TidSet::Bits(m) => dense.push(m),
                TidSet::Tids(t) => sparse.push(t),
            };
            for &it in &items[..k - 1] {
                partition(it);
            }
            // A singleton k ≥ 3 group has nothing to reuse: skip the prefix
            // materialization (a scratch-bitmap copy would double the memory
            // traffic) and answer it in one pass over all k items. Same
            // `k−1` intersections charge, zero reuses — stats stay
            // group-structure-invariant.
            if k >= 3 && group.len() == 1 {
                stats.intersections += (k - 1) as u64;
                partition(items[k - 1]);
                counts[group.start - base] = if sparse.is_empty() {
                    Bitmap::and_count(&dense)
                } else if dense.is_empty() {
                    // Materialize all but the longest list; count that one.
                    sparse.sort_by_key(|s| s.len());
                    let longest = sparse.len() - 1;
                    intersect_many_into(&mut sparse[..longest], &mut prefix_tids, &mut spare);
                    intersect_size(&prefix_tids, sparse[longest])
                } else {
                    intersect_many_into(&mut sparse, &mut prefix_tids, &mut spare);
                    prefix_tids
                        .iter()
                        .filter(|&&t| dense.iter().all(|m| m.get(t as usize)))
                        .count() as u64
                };
                continue;
            }
            let prefix = if k == 2 {
                level.set(items[0])
            } else {
                stats.prefix_reuses += (group.len() - 1) as u64;
                stats.intersections += (k - 2) as u64;
                if sparse.is_empty() {
                    prefix_bm.copy_from(dense[0]);
                    for m in &dense[1..] {
                        prefix_bm.and_assign(m);
                    }
                    TidSet::Bits(&prefix_bm)
                } else {
                    intersect_many_into(&mut sparse, &mut prefix_tids, &mut spare);
                    prefix_tids.retain(|&t| dense.iter().all(|m| m.get(t as usize)));
                    TidSet::Tids(&prefix_tids)
                }
            };
            stats.intersections += group.len() as u64;
            let out = &mut counts[group.start - base..group.end - base];
            let last = |i: usize| candidates.row(i)[k - 1];
            match (prefix, projection) {
                (TidSet::Tids(tids), Some((rows, cost)))
                    if cost.saving(group.len(), tids.len()) > 0 =>
                {
                    stats.projected += group.len() as u64;
                    tally.count(level.view, rows, tids, group.map(last), out);
                }
                _ => {
                    for (n, i) in out.iter_mut().zip(group) {
                        *n = prefix.and_count(level.set(last(i)));
                    }
                }
            }
        }
        (counts, stats)
    }
}

/// The cost model that chooses how a prefix group is answered, in units of
/// one tid or item touched. Take a group of `m` members whose materialized
/// prefix is the tid-list `T`, at a level of `N` transactions holding `S`
/// item occurrences, so `w̄_h = S / N` is the mean projected width.
///
/// * **Per member.** Each member intersects `T` with its own transactions:
///   a merge, a gallop or a bit probe per prefix tid. Each touches every
///   tid of `T` at least once, so the group costs at least `m · |T|`.
/// * **Projection.** Reading the rows of `T` touches `|T| · w̄_h` items on
///   average, one slot lookup and one increment each. Setting and clearing
///   the members' slots adds `m`.
///
/// So a group is projected iff `m · |T| > |T| · w̄_h + m`, which needs at
/// least `w̄_h` members, and the per-member cost is a lower bound: the rule
/// never projects a group that probing would answer faster by this count.
/// Building a level's rows costs one write per occurrence, `S = N · w̄_h`,
/// so a batch may build them only when its groups promise more savings.
///
/// **Measured.** Release build on a 2-vCPU container, Quest `N = 20 000`,
/// seed 7, BASIC at one thread, timing only the groups the rule projects:
/// one projected row item costs 5–12 ns, and answering the same groups per
/// member costs 7–17 ns per unit of `m · |T|`, which undercounts its work.
/// So the two units are taken as equal. Those groups' count fell from 47 to
/// 1.3 ms in `Q(4,2)`, from 50 to 6.5 ms in `Q(4,3)` and from 0.55 to
/// 0.30 ms in `Q(4,4)`. Level 4's rows (`w̄_4 = 4.42`, 88 k occurrences,
/// 431 KB) build in about 0.9 ms, some 10 ns per occurrence, which is the
/// same unit again.
#[derive(Clone, Copy)]
struct ProjectionCost {
    /// `N`, the level's transactions.
    transactions: u128,
    /// `S`, the level's (transaction, item) occurrences.
    occurrences: u128,
}

impl ProjectionCost {
    /// The model for `lv` over `n` transactions; `None` when the level's
    /// occurrences overflow the rows' `u32` offsets, which rules
    /// projection out.
    fn of(lv: &LevelView, n: usize) -> Option<Self> {
        let occurrences = lv.occurrences();
        (occurrences <= u64::from(u32::MAX)).then_some(ProjectionCost {
            transactions: n as u128,
            occurrences: u128::from(occurrences),
        })
    }

    /// What projecting a group of `members` over a prefix of `prefix` tids
    /// saves over answering it per member, times `N`; `0` when it saves
    /// nothing.
    fn saving(self, members: usize, prefix: usize) -> u128 {
        let (m, t) = (members as u128, prefix as u128);
        let per_member = m * t * self.transactions;
        let projected = t * self.occurrences + m * self.transactions;
        per_member.saturating_sub(projected)
    }

    /// The rows' one-off build, `S`, times `N` like [`Self::saving`].
    fn build(self) -> u128 {
        self.occurrences * self.transactions
    }
}

/// The reused tables of one shard's projections.
#[derive(Default)]
struct Tally {
    /// By node id: a member's position plus one, or `0` (the sink) for
    /// every other item. All zeros between groups.
    slot: Vec<u32>,
    /// Per position: the rows holding that member; `hits[0]` is the sink.
    hits: Vec<u32>,
}

impl Tally {
    /// The supports of `prefix ∪ {x}` for each member `x` of `members`
    /// (distinct), written to `out` in order: every row `t ∈ prefix` is
    /// read once, and each of its items bumps its slot's tally, a member's
    /// or the sink's, with no branch.
    fn count(
        &mut self,
        lv: &LevelView,
        rows: &LevelRows,
        prefix: &[u32],
        members: impl Iterator<Item = NodeId> + Clone,
        out: &mut [u64],
    ) {
        // Every row item is a present item; a member need not be.
        let present = lv.present_items().last().map_or(0, |m| m.index() + 1);
        if self.slot.len() < present {
            self.slot.resize(present, 0);
        }
        self.hits.clear();
        self.hits.resize(out.len() + 1, 0);
        for (pos, x) in (1..).zip(members.clone()) {
            if x.index() >= self.slot.len() {
                self.slot.resize(x.index() + 1, 0);
            }
            self.slot[x.index()] = pos;
        }
        for &t in prefix {
            for x in rows.row(t) {
                self.hits[self.slot[x.index()] as usize] += 1;
            }
        }
        for ((n, &hits), x) in out.iter_mut().zip(&self.hits[1..]).zip(members) {
            *n = u64::from(hits);
            self.slot[x.index()] = 0;
        }
    }
}

/// One level's bitmap table, by node id: a bitmap for every present item
/// whose support satisfies `promote`, `None` for the rest.
fn level_bitmaps(lv: &LevelView, n: usize, promote: impl Fn(u64) -> bool) -> Vec<Option<Bitmap>> {
    let mut maps = vec![None; lv.present_items().last().map_or(0, |m| m.index() + 1)];
    for &item in lv.present_items() {
        if promote(lv.item_support(item)) {
            maps[item.index()] = Some(Bitmap::from_tids(lv.tidset(item), n));
        }
    }
    maps
}

/// The view's own bitmap table for `lv`, under the storage rule
/// ([`BitsetCounter::BITMAP_RATIO`]), built inside a `view.dense` span that
/// records the level `h`, the `items` promoted and their bitmaps' `bytes`.
pub(crate) fn view_bitmaps(lv: &LevelView, n: usize) -> Vec<Option<Bitmap>> {
    let mut span = flipper_obs::span("view.dense").arg("h", lv.level as u64);
    let maps = level_bitmaps(lv, n, |support| {
        BitsetCounter::BITMAP_RATIO * support >= n as u64
    });
    let items = maps.iter().flatten().count();
    span.add_arg("items", items as u64);
    span.add_arg("bytes", (items * n.div_ceil(64) * 8) as u64);
    maps
}

/// One level's items as the kernel reads them.
#[derive(Clone, Copy)]
struct Level<'a> {
    view: &'a LevelView,
    /// The level's dense items' bitmaps, by node id.
    maps: &'a [Option<Bitmap>],
}

impl<'a> Level<'a> {
    /// `item`'s transactions: its bitmap when dense, its tid-list otherwise.
    fn set(self, item: NodeId) -> TidSet<'a> {
        match self.maps.get(item.index()) {
            Some(Some(m)) => TidSet::Bits(m),
            _ => TidSet::Tids(self.view.tidset(item)),
        }
    }

    /// One depth of [`BitsetCounter::co_occurring`]: extend `acc`, the
    /// intersection of the items chosen so far (`None` before the first
    /// slot), by each item of `slots[0]`, writing into `scratch[0]`.
    fn extend<F: FnMut(&[NodeId], u64)>(
        self,
        slots: &[&[NodeId]],
        acc: Option<TidSet<'_>>,
        scratch: &mut [Scratch],
        walk: &mut Walk<'_, F>,
    ) {
        let (Some((&slot, deeper)), Some((out, scratch))) =
            (slots.split_first(), scratch.split_first_mut())
        else {
            return;
        };
        for &item in slot {
            let set = self.set(item);
            walk.path.push(item);
            match acc {
                // The first slot: the item's own transactions.
                None => {
                    let n = self.view.item_support(item);
                    if n > 0 && deeper.is_empty() {
                        walk.found(n);
                    } else if n > 0 {
                        self.extend(deeper, Some(set), scratch, walk);
                    }
                }
                Some(acc) => {
                    walk.intersections += 1;
                    if deeper.is_empty() {
                        let n = acc.and_count(set);
                        if n > 0 {
                            walk.found(n);
                        }
                    } else if let Some(next) = acc.and_into(set, out) {
                        self.extend(deeper, Some(next), scratch, walk);
                    }
                }
            }
            walk.path.pop();
        }
    }
}

/// The state of one [`BitsetCounter::co_occurring`] enumeration.
struct Walk<'e, F> {
    /// The items chosen so far, in visiting order.
    path: Vec<NodeId>,
    /// `path` sorted, as handed to `emit`.
    sorted: Vec<NodeId>,
    intersections: u64,
    emit: &'e mut F,
}

impl<F: FnMut(&[NodeId], u64)> Walk<'_, F> {
    /// Hand the current path to `emit` with its support.
    fn found(&mut self, support: u64) {
        self.sorted.clear();
        self.sorted.extend_from_slice(&self.path);
        self.sorted.sort_unstable();
        (self.emit)(&self.sorted, support);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting::naive_tidset_counts;
    use crate::itemset::Itemset;
    use crate::rng::{Rng, Xoshiro256pp};
    use crate::transaction::TransactionDb;
    use flipper_taxonomy::Taxonomy;

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

    #[test]
    fn materialized_and_and_filter_match_counts() {
        let a = Bitmap::from_tids(&[1, 2, 3, 70, 99], 100);
        let b = Bitmap::from_tids(&[2, 3, 70], 100);
        let mut out = Bitmap::default();
        assert!(out.assign_and(&a, &b));
        assert_eq!(out, Bitmap::from_tids(&[2, 3, 70], 100));
        assert!(!out.assign_and(&a, &Bitmap::from_tids(&[0, 50], 100)));
        assert_eq!(out.count_ones(), 0);
        let mut tids = vec![7];
        a.filter_tids_into(&[0, 2, 50, 70, 99], &mut tids);
        assert_eq!(tids, vec![2, 70, 99]);
    }

    /// Every combination of one item per slot with its naive support, kept
    /// when that support is positive; ascending.
    fn brute_co_occurring(
        view: &MultiLevelView,
        h: usize,
        slots: &[&[NodeId]],
    ) -> Vec<(Itemset, u64)> {
        let mut combos: Vec<Vec<NodeId>> = vec![Vec::new()];
        for slot in slots {
            combos = combos
                .iter()
                .flat_map(|c| {
                    slot.iter().map(move |&x| {
                        let mut c = c.clone();
                        c.push(x);
                        c
                    })
                })
                .collect();
        }
        let sets: Vec<Itemset> = combos.into_iter().map(Itemset::new).collect();
        let mut rows = ItemsetRows::new(slots.len());
        rows.extend(sets.iter().map(Itemset::items));
        let counts = naive_tidset_counts(view, h, &rows);
        let mut out: Vec<(Itemset, u64)> = sets
            .into_iter()
            .zip(counts)
            .filter(|&(_, n)| n > 0)
            .collect();
        out.sort_unstable();
        out
    }

    /// What `co_occurring` emits, ascending.
    fn co_occurring(
        c: &mut BitsetCounter<'_>,
        h: usize,
        slots: &[&[NodeId]],
    ) -> Vec<(Itemset, u64)> {
        let mut out = Vec::new();
        c.co_occurring(h, slots, |combo, n| {
            assert!(combo.windows(2).all(|w| w[0] < w[1]), "sorted");
            out.push((Itemset::from_sorted(combo.to_vec()), n));
        });
        out.sort_unstable();
        out
    }

    /// The DFS against brute-force enumeration on skewed random views, at
    /// every storage mix (all-bitmap, mixed, all-tid-list) and 1–4 slots:
    /// exactly the combinations with positive support, each once, with
    /// their exact supports.
    #[test]
    fn co_occurring_matches_brute_force_at_every_density() {
        let tax = Taxonomy::uniform(4, 4, 2).unwrap();
        let leaves = tax.leaves().to_vec();
        for seed in 0..6u64 {
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            // The first half of the leaves is common, the second half rare
            // (one draw in 32 is uniform over all leaves): a mixed view
            // whose rare half sits far below the bitmap cutoff.
            let rows: Vec<Vec<NodeId>> = (0..400)
                .map(|_| {
                    let w = rng.gen_range(1..=5);
                    (0..w)
                        .map(|_| {
                            let range = if rng.gen_range(0..32u32) == 0 {
                                leaves.len()
                            } else {
                                leaves.len() / 2
                            };
                            leaves[rng.gen_range(0..range)]
                        })
                        .collect()
                })
                .collect();
            let db = TransactionDb::new(rows).unwrap();
            let view = MultiLevelView::build(&db, &tax).unwrap();
            let mixed = BitsetCounter::new(&view).dense_items(2);
            assert!(mixed > 0 && mixed < view.level(2).present_items().len());
            for n_slots in 1..=4usize {
                // Disjoint random slots of 1–3 items each.
                let mut pool = leaves.clone();
                for i in (1..pool.len()).rev() {
                    pool.swap(i, rng.gen_range(0..=i));
                }
                let mut slots: Vec<&[NodeId]> = Vec::new();
                let mut rest = pool.as_slice();
                for _ in 0..n_slots {
                    let (slot, tail) = rest.split_at(rng.gen_range(1..=3));
                    slots.push(slot);
                    rest = tail;
                }
                let expect = brute_co_occurring(&view, 2, &slots);
                for density in DENSITIES {
                    let mut c = counter_at(&view, density);
                    let got = co_occurring(&mut c, 2, &slots);
                    assert_eq!(
                        got, expect,
                        "seed {seed} slots {n_slots} density {density:?}"
                    );
                    assert_eq!(c.stats().candidates_counted, 0);
                }
            }
        }
    }

    /// A slot with no items, and items that never co-occur, emit nothing.
    #[test]
    fn co_occurring_emits_nothing_without_co_occurrence() {
        let tax = Taxonomy::uniform(2, 2, 2).unwrap();
        let tops = tax.nodes_at_level(1).unwrap().to_vec();
        let (x1, x2) = (tax.children(tops[0])[0], tax.children(tops[0])[1]);
        let (y1, y2) = (tax.children(tops[1])[0], tax.children(tops[1])[1]);
        let db = TransactionDb::new(vec![vec![x1, y1], vec![x2], vec![y2], vec![x1, y1]]).unwrap();
        let view = MultiLevelView::build(&db, &tax).unwrap();
        for density in DENSITIES {
            let mut c = counter_at(&view, density);
            assert_eq!(
                co_occurring(&mut c, 2, &[&[x1, x2], &[y1, y2]]),
                vec![(Itemset::pair(x1, y1), 2)]
            );
            assert_eq!(c.stats().intersections, 4, "one count per pair");
            assert!(co_occurring(&mut c, 2, &[&[x2], &[y2]]).is_empty());
            assert!(co_occurring(&mut c, 2, &[&[x1, x2], &[]]).is_empty());
            assert!(co_occurring(&mut c, 2, &[&[], &[y1]]).is_empty());
            assert_eq!(c.stats().intersections, 5, "an empty slot costs nothing");
        }
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

    /// The storage rule on seeded random views of 1–2 000 transactions over
    /// skewed item frequencies: at every level, exactly the present items
    /// with `64 · support ≥ N` have a bitmap, each holds the item's
    /// tid-list, and the level's bitmaps take at most twice its tid-lists'
    /// bytes. At least half the levels mix bitmaps and tid-lists.
    #[test]
    fn storage_rule_promotes_by_cost_and_bounds_memory() {
        let (mut mixed_levels, mut levels) = (0, 0);
        for seed in 0..24u64 {
            let mut rng = Xoshiro256pp::seed_from_u64(0xD5E ^ seed);
            let tax = Taxonomy::uniform(rng.gen_range(1..=6), rng.gen_range(2..=6), 3).unwrap();
            let leaves = tax.leaves().to_vec();
            let n = rng.gen_range(1..=2_000usize);
            // The lowest of three draws: low leaf indices common, high rare.
            let draw = |rng: &mut Xoshiro256pp| rng.gen_range(0..leaves.len());
            let rows: Vec<Vec<NodeId>> = (0..n)
                .map(|_| {
                    (0..rng.gen_range(1..=6))
                        .map(|_| leaves[draw(&mut rng).min(draw(&mut rng)).min(draw(&mut rng))])
                        .collect()
                })
                .collect();
            let view = MultiLevelView::build(&TransactionDb::new(rows).unwrap(), &tax).unwrap();
            for h in 1..=view.height() {
                let lv = view.level(h);
                let maps = view.bitmaps(h);
                let (mut promoted, mut bitmap_bytes, mut tid_bytes) = (0, 0, 0);
                for i in 0..tax.node_count() {
                    let item = NodeId::from_index(i);
                    let support = lv.item_support(item);
                    tid_bytes += 4 * support;
                    let map = maps.get(i).and_then(Option::as_ref);
                    let by_cost = support > 0 && 64 * support >= n as u64;
                    assert_eq!(
                        map.is_some(),
                        by_cost,
                        "seed {seed} h {h} {item}: {support}/{n}"
                    );
                    if let Some(map) = map {
                        assert_eq!(*map, Bitmap::from_tids(lv.tidset(item), n));
                        promoted += 1;
                        bitmap_bytes += 8 * map.words.len() as u64;
                    }
                }
                assert!(bitmap_bytes <= 2 * tid_bytes, "seed {seed} h {h}");
                assert_eq!(BitsetCounter::new(&view).dense_items(h), promoted);
                levels += 1;
                mixed_levels += usize::from(promoted > 0 && promoted < lv.present_items().len());
            }
        }
        assert!(
            mixed_levels * 2 >= levels,
            "{mixed_levels} of {levels} levels mix"
        );
    }

    /// Every counter over one view borrows the view's one table per level,
    /// and `with_density` builds its own.
    #[test]
    fn counters_over_one_view_share_its_bitmaps() {
        let (tax, db) = random_setup(3);
        let view = MultiLevelView::build(&db, &tax).unwrap();
        let (a, b) = (BitsetCounter::new(&view), BitsetCounter::new(&view));
        let private = BitsetCounter::with_density(&view, 1.0 / 64.0);
        for h in 1..=view.height() {
            let shared = view.bitmaps(h);
            assert!(std::ptr::eq(&*a.bitmaps[h - 1], shared), "h {h}");
            assert!(std::ptr::eq(&*b.bitmaps[h - 1], shared), "h {h}");
            assert!(!std::ptr::eq(&*private.bitmaps[h - 1], shared), "h {h}");
        }
    }

    /// A group the rule projects, whose members include items absent at the
    /// level with ids past every present one: each member's support equals
    /// the naive count, and the group is charged as the per-member path
    /// charges it. Bitmap prefixes (the storage rule, at `N = 10`) never
    /// project.
    #[test]
    fn projection_counts_every_member_including_absent_ones() {
        let tax = Taxonomy::uniform(1, 12, 2).unwrap();
        let leaves = tax.leaves().to_vec();
        let rows: Vec<Vec<NodeId>> = (0..10)
            .map(|t| vec![leaves[0], leaves[1 + t % 5]])
            .collect();
        let view = MultiLevelView::build(&TransactionDb::new(rows).unwrap(), &tax).unwrap();
        let mut batch = ItemsetRows::new(2);
        for &y in &leaves[1..] {
            batch.push(&[leaves[0], y]);
        }
        let expect = naive_tidset_counts(&view, 2, &batch);
        assert_eq!(expect, [2, 2, 2, 2, 2, 0, 0, 0, 0, 0, 0]);
        for (density, projected) in [(Some(2.0), 11), (None, 0)] {
            let mut c = counter_at(&view, density);
            assert_eq!(c.count_batch(2, &batch, 1), expect, "density {density:?}");
            assert_eq!(c.stats().projected, projected, "density {density:?}");
            assert_eq!(c.stats().intersections, 11, "density {density:?}");
        }
    }

    #[test]
    fn density_zero_promotes_everything() {
        let (tax, db) = random_setup(1);
        let view = MultiLevelView::build(&db, &tax).unwrap();
        let bc = BitsetCounter::with_density(&view, 0.0);
        assert_eq!(bc.dense_items(1), view.level(1).present_items().len());
        let bc = BitsetCounter::with_density(&view, 2.0);
        assert_eq!(bc.dense_items(1), 0);
    }
}
