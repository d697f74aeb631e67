//! Candidate generation for one cell `Q(h,k)` of the search table.
//!
//! A cell is fed by up to three sources (the miner's module docs say which
//! applies where): level pairs ([`pairs`]), the horizontal Apriori join of
//! `Q(h,k−1)` ([`horizontal`]) and the vertical children-combinations of the
//! chain-alive itemsets of `Q(h−1,k)` ([`vertical`]).
//!
//! The vertical source is fused with support counting: the counting
//! kernel's depth-first enumeration ([`BitsetCounter::co_occurring`])
//! yields each children-combination that occurs at all together with its
//! exact support, so vertical candidates reach the miner already counted.
//! Only the pairs and horizontal candidates go to the counting pass.
//!
//! # Allocation
//!
//! Every candidate is a row of a fixed-stride table ([`ItemsetRows`]), and
//! every source emits its survivors ascending, so [`Batch::union`] only
//! appends them and removes the overlap between the fused and the counted
//! side, and no candidate is ever allocated on its own or sorted after the
//! fact. After counting, [`Batch::into_rows`] merges the fused rows into
//! the counted table in place, and that table becomes the cell's rows.
//!
//! The join reads only the frequent rows of `Q(h,k−1)`, gathered into one
//! table per pass, so it never steps over an infrequent row. The vertical
//! pass selects its parent sets' recorded combinations from the
//! [`VerticalMemo`]'s ascending table, sorts only the rows it had to
//! enumerate, and merges the two. Both sources answer their subset probes
//! with the same cursors into the prefix groups of the table they probe
//! ([`SubsetCursors`]): a probe is amortized O(1), and a cursor finds its
//! next group by galloping forward from its last one, restarting from the
//! top only when the probed prefix changes. Probes work in buffers reused
//! across the pass.

use crate::cell::Cell;
use flipper_data::{BitsetCounter, ItemsetRows, VerticalMemo};
use flipper_measures::Label;
use flipper_taxonomy::{NodeId, Taxonomy};
use std::ops::Range;

/// What every generation pass reads, borrowed from the miner.
pub(crate) struct GenCtx<'a> {
    pub(crate) tax: &'a Taxonomy,
    /// Level-1 ancestor of every node, by `NodeId::index()`.
    pub(crate) top_cat: &'a [NodeId],
    /// SIBP bans in force for this cell, by `NodeId::index()`; empty when
    /// no item is banned.
    pub(crate) banned: &'a [bool],
}

impl GenCtx<'_> {
    #[inline]
    fn cat(&self, item: NodeId) -> NodeId {
        self.top_cat[item.index()]
    }

    #[inline]
    fn is_banned(&self, item: NodeId) -> bool {
        self.banned.get(item.index()).copied().unwrap_or(false)
    }
}

/// The candidates of one source and what its prunes removed.
#[derive(Debug, PartialEq)]
pub(crate) struct Generated {
    /// Surviving candidates, ascending.
    pub(crate) cands: ItemsetRows,
    /// The vertical source's supports, aligned with `cands`; empty for the
    /// other sources, whose candidates still need counting.
    pub(crate) supports: Vec<u64>,
    /// Removed by the Apriori / known-infrequent subset check.
    pub(crate) support_pruned: u64,
    /// Removed because they contain a SIBP-banned item.
    pub(crate) sibp_pruned: u64,
}

impl Generated {
    /// No `k`-item candidates yet.
    fn new(k: usize) -> Self {
        Generated {
            cands: ItemsetRows::new(k),
            supports: Vec::new(),
            support_pruned: 0,
            sibp_pruned: 0,
        }
    }
}

/// One cell's candidates, each once, split by whether a source already
/// established its support. A batch without a vertical source has no fused
/// candidates.
#[derive(Debug, PartialEq)]
pub(crate) struct Batch {
    /// Vertical candidates, ascending, ...
    pub(crate) fused: ItemsetRows,
    /// ... with the supports the kernel's DFS produced, row by row.
    pub(crate) fused_supports: Vec<u64>,
    /// Every other candidate, ascending: the counting kernel answers
    /// these.
    pub(crate) to_count: ItemsetRows,
}

impl Batch {
    /// The union of the `k`-item candidates of `sources`. A candidate the
    /// vertical source produced keeps its fused support even when another
    /// source produced it too.
    ///
    /// Every source emits ascending, distinct rows, and no two sources of
    /// one side meet in a cell: the pairs feed `k = 2` and the join `k ≥ 3`,
    /// and there is one vertical source. So each side is ascending as
    /// appended, and only the overlap between the sides needs removing.
    pub(crate) fn union(k: usize, sources: impl IntoIterator<Item = Generated>) -> Batch {
        let (mut to_count, mut fused) = (ItemsetRows::new(k), ItemsetRows::new(k));
        let mut fused_supports = Vec::new();
        let append = |rows: &mut ItemsetRows, more: ItemsetRows| {
            if rows.is_empty() {
                *rows = more;
            } else {
                rows.extend(more.iter());
            }
        };
        for g in sources {
            if g.supports.is_empty() {
                append(&mut to_count, g.cands);
            } else {
                append(&mut fused, g.cands);
                fused_supports.extend(g.supports);
            }
        }
        debug_assert!(ascending(&to_count) && ascending(&fused));
        let to_count = if fused.is_empty() || to_count.is_empty() {
            to_count
        } else {
            // Room for the fused rows too, so that merging them in after
            // counting ([`Self::into_rows`]) never moves the table.
            let mut rest = ItemsetRows::with_capacity(k, to_count.len() + fused.len());
            let mut f = 0;
            for row in to_count.iter() {
                while f < fused.len() && fused.row(f) < row {
                    f += 1;
                }
                if f == fused.len() || fused.row(f) != row {
                    rest.push(row);
                }
            }
            rest
        };
        Batch {
            fused,
            fused_supports,
            to_count,
        }
    }

    /// The cell's rows and their supports, given the `counted` supports of
    /// [`Self::to_count`]: the counted table with the fused rows merged in
    /// place ([`ItemsetRows::merge_with`]). A batch without fused rows
    /// hands its counted table over as it is.
    pub(crate) fn into_rows(self, counted: Vec<u64>) -> (ItemsetRows, Vec<u64>) {
        let (mut rows, mut supports) = (self.to_count, counted);
        rows.merge_with(&mut supports, self.fused, self.fused_supports);
        (rows, supports)
    }
}

/// Whether the rows are strictly ascending.
fn ascending(rows: &ItemsetRows) -> bool {
    (1..rows.len()).all(|i| rows.row(i - 1) < rows.row(i))
}

/// All pairs of the frequent level items `items` (ascending) from distinct
/// categories. Pairs are generated only on row 1 and in the non-flipping
/// variants, where SIBP bans nothing, so no pair is SIBP-pruned.
pub(crate) fn pairs(ctx: &GenCtx<'_>, items: &[NodeId]) -> Generated {
    let mut g = Generated::new(2);
    for (i, &x) in items.iter().enumerate() {
        for &y in &items[i + 1..] {
            if ctx.cat(x) != ctx.cat(y) {
                g.cands.push(&[x, y]);
            }
        }
    }
    g
}

/// Subset probes into ascending `(k−1)`-item rows for `k`-item candidates
/// that share the `(k−1)`-item head `base` and arrive in ascending order of
/// their last item `last`.
///
/// Dropping item `i` of `base` gives the subset `base − i + last`: it lies
/// in the rows' prefix group of `base − i`, and as `last` ascends so does its
/// place in that group. One cursor per dropped position therefore walks its
/// group once per `base`, and a probe costs amortized O(1) instead of a
/// search.
///
/// The groups are found by galloping, not by binary search. Bases arrive
/// ascending, and for as long as consecutive bases keep the same
/// `base[..=i]` the key `base − i` ascends with them, so cursor `i` gallops
/// forward from where its previous group started, at a cost logarithmic in
/// the distance moved. It restarts from the first row only when that prefix
/// changes. Both the join and the vertical pass probe this way.
struct SubsetCursors {
    /// The base the cursors were last aimed for.
    base: Vec<NodeId>,
    /// The `(k−2)`-item key `base − i` being located.
    key: Vec<NodeId>,
    /// Per dropped position: where its prefix group starts, ...
    starts: Vec<usize>,
    /// ... and what is left of that group.
    cursors: Vec<Range<usize>>,
}

impl SubsetCursors {
    fn new(k: usize) -> Self {
        SubsetCursors {
            base: Vec::with_capacity(k),
            key: Vec::with_capacity(k),
            starts: Vec::with_capacity(k),
            cursors: Vec::with_capacity(k),
        }
    }

    /// Aim one cursor at the prefix group of `base − i` in `rows`, for each
    /// dropped position `i < drops`. Over one table, `drops` must stay the
    /// same and bases must not descend between calls.
    fn start(&mut self, rows: &ItemsetRows, base: &[NodeId], drops: usize) {
        debug_assert!(self.base.as_slice() <= base, "bases must ascend");
        let kept = self
            .base
            .iter()
            .zip(base)
            .take_while(|(a, b)| a == b)
            .count();
        self.starts.resize(drops, 0);
        self.cursors.resize(drops, 0..0);
        let m = base.len() - 1;
        for i in 0..drops {
            self.key.clear();
            self.key.extend_from_slice(&base[..i]);
            self.key.extend_from_slice(&base[i + 1..]);
            let key = self.key.as_slice();
            let from = if i < kept { self.starts[i] } else { 0 };
            let lo = gallop(rows, from, |row| &row[..m] < key);
            let hi = gallop(rows, lo, |row| &row[..m] == key);
            self.starts[i] = lo;
            self.cursors[i] = lo..hi;
        }
        self.base.clear();
        self.base.extend_from_slice(base);
    }

    /// Whether `accept` holds for every subset `base − i + last`: it gets
    /// the subset's row in `rows`, or `None` when the subset is absent.
    /// Stops at the first rejection; `last` must not descend between calls
    /// for one `base`.
    fn all(
        &mut self,
        rows: &ItemsetRows,
        last: NodeId,
        mut accept: impl FnMut(Option<usize>) -> bool,
    ) -> bool {
        let j = rows.k() - 1;
        self.cursors.iter_mut().all(|cur| {
            while cur.start < cur.end && rows.row(cur.start)[j] < last {
                cur.start += 1;
            }
            let found = cur.start < cur.end && rows.row(cur.start)[j] == last;
            accept(found.then_some(cur.start))
        })
    }
}

/// The first index at or after `from` whose row fails `below`; the rows
/// from `from` on must be partitioned by it. Steps of doubling length
/// bracket the answer and a binary search inside the last step ends it.
fn gallop(rows: &ItemsetRows, from: usize, below: impl Fn(&[NodeId]) -> bool) -> usize {
    let n = rows.len();
    // Every row in `from..lo` is below; `hi` is the next row tested.
    let (mut lo, mut hi, mut step) = (from, from, 1);
    while hi < n && below(rows.row(hi)) {
        lo = hi + 1;
        hi = lo + step;
        step *= 2;
    }
    let mut hi = hi.min(n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if below(rows.row(mid)) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The horizontal Apriori join over the frequent itemsets of
/// `prev = Q(h,k−1)` (`k ≥ 3`), with the classic prune: a joined candidate
/// survives only if every `(k−1)`-subset is frequent in `prev`. (Cells can
/// be unions wider than the pure join closure, so membership is checked
/// explicitly.)
///
/// The join reads only `prev`'s frequent rows, gathered into one table, so
/// a join group is exactly its frequent members and no cursor walks past an
/// infrequent row. Rows sharing their `(k−2)`-prefix are joined pairwise,
/// `p < q`, into `row(p) + last(q)`, which come out ascending. Dropping
/// either of the last two items gives back `row(q)` or `row(p)`, both
/// frequent, so only the subsets that drop one of the first `k − 2` items
/// are probed, with [`SubsetCursors`] on `base = row(p)`; every row a
/// cursor finds is frequent.
pub(crate) fn horizontal(ctx: &GenCtx<'_>, prev: &Cell, k: usize) -> Generated {
    debug_assert!(k >= 3, "pairs come from `pairs` or `vertical`");
    let mut rows = ItemsetRows::with_capacity(k - 1, prev.frequent().count());
    rows.extend(prev.frequent().map(|(row, _)| row));
    let mut g = Generated::new(k);
    let mut cursors = SubsetCursors::new(k);
    let mut cand: Vec<NodeId> = Vec::with_capacity(k);
    for grp in rows.prefix_groups(0..rows.len()) {
        for p in grp.clone() {
            let rp = rows.row(p);
            let cat_p = ctx.cat(rp[k - 2]);
            cursors.start(&rows, rp, k - 2);
            for q in p + 1..grp.end {
                let last = rows.row(q)[k - 2];
                if ctx.cat(last) == cat_p {
                    continue;
                }
                if cursors.all(&rows, last, |found| found.is_some()) {
                    cand.clear();
                    cand.extend_from_slice(rp);
                    cand.push(last);
                    g.cands.push(&cand);
                } else {
                    g.support_pruned += 1;
                }
            }
        }
    }
    g
}

/// The level a vertical pass extends into.
pub(crate) struct VerticalLevel<'a, 'v> {
    /// The counting kernel, which enumerates the children-combinations.
    pub(crate) counter: &'a mut BitsetCounter<'v>,
    /// The children's level.
    pub(crate) h: usize,
    /// Absolute minimum support at level `h`.
    pub(crate) theta: u64,
    /// Memo of earlier enumerations at this view, the one the caller of
    /// [`crate::mine_with_view`] passed.
    pub(crate) memo: &'a VerticalMemo,
    /// Parent sets answered from `memo`.
    pub(crate) replayed: u64,
    /// Supports copied out of `memo`: one per replayed combination.
    pub(crate) replayed_supports: u64,
    /// Parent sets the kernel enumerated.
    pub(crate) enumerated: u64,
}

impl<'a, 'v> VerticalLevel<'a, 'v> {
    pub(crate) fn new(
        counter: &'a mut BitsetCounter<'v>,
        h: usize,
        theta: u64,
        memo: &'a VerticalMemo,
    ) -> Self {
        VerticalLevel {
            counter,
            h,
            theta,
            memo,
            replayed: 0,
            replayed_supports: 0,
            enumerated: 0,
        }
    }
}

/// Vertical candidates for `Q(h,k)` (`k ≥ 2`): combinations of frequent
/// level-`h` children of the chain-alive itemsets of `above = Q(h−1,k)`,
/// ascending, with their supports in [`Generated::supports`].
///
/// Instead of a blind cartesian product of children lists, the kernel
/// enumerates each parent set's combinations depth-first
/// ([`BitsetCounter::co_occurring`]), intersecting the children's level-`h`
/// transactions slot by slot and abandoning a branch once its intersection
/// is empty. A child's transactions are a subset of its parent's, so the
/// combinations it yields are exactly those that occur together in some
/// transaction covering the parent set; any other has support 0 < θ (θ ≥ 1
/// by [`crate::config::MinSupports::resolve`]), so it could never become
/// frequent — skipping it changes no labels, no chains and no patterns.
/// The support of every combination falls out of the same intersections.
/// Each child has one parent, so distinct parent sets never yield the same
/// combination.
///
/// That enumeration depends only on the view, `h`, θ_h and the parent set.
/// The alive parent sets an earlier run recorded in the [`VerticalMemo`]
/// are selected from it in one pass, already ascending; only the others are
/// enumerated (under a `mine.enumerate` span), their rows sorted once and
/// recorded. The selected and fresh rows then merge into one ascending
/// stream.
///
/// That stream goes through the prunes: combinations containing a
/// SIBP-banned item are dropped, and so are combinations with a
/// `(k−1)`-subset *present* in `prev = Q(h,k−1)` and labeled infrequent.
/// (Absent subsets carry no information — they may simply never have been
/// candidates.) The subset that drops the last item is the combination's
/// `(k−1)`-prefix, probed once per prefix group of the stream; every other
/// subset is found with [`SubsetCursors`] on that prefix.
pub(crate) fn vertical(
    ctx: &GenCtx<'_>,
    level: &mut VerticalLevel<'_, '_>,
    above: &Cell,
    prev: Option<&Cell>,
    k: usize,
) -> Generated {
    let (h, theta, memo) = (level.h, level.theta, level.memo);
    let mut parents = ItemsetRows::new(k);
    parents.extend(above.alive().map(|(parent, _)| parent));
    let mut recorded = ItemsetRows::new(k);
    let mut recorded_supports = Vec::new();
    let hits = memo.select(h, theta, &parents, &mut recorded, &mut recorded_supports);
    let mut missed = ItemsetRows::new(k);
    for (parent, &hit) in parents.iter().zip(&hits) {
        if !hit {
            missed.push(parent);
        }
    }
    level.replayed += (parents.len() - missed.len()) as u64;
    level.replayed_supports += recorded.len() as u64;
    level.enumerated += missed.len() as u64;
    let (fresh, fresh_supports) = enumerate(ctx, level, &missed);
    let mut g = Generated::new(k);
    let mut prune = VerticalPrune::new(ctx, prev, k);
    let (mut a, mut b) = (0, 0);
    while a < recorded.len() || b < fresh.len() {
        if b == fresh.len() || (a < recorded.len() && recorded.row(a) < fresh.row(b)) {
            prune.offer(&mut g, recorded.row(a), recorded_supports[a]);
            a += 1;
        } else {
            prune.offer(&mut g, fresh.row(b), fresh_supports[b]);
            b += 1;
        }
    }
    g
}

/// The combinations of the `missed` parent sets and their supports,
/// ascending; recorded in the level's memo.
fn enumerate(
    ctx: &GenCtx<'_>,
    level: &mut VerticalLevel<'_, '_>,
    missed: &ItemsetRows,
) -> (ItemsetRows, Vec<u64>) {
    let (h, theta, k, memo) = (level.h, level.theta, missed.k(), level.memo);
    let mut span = flipper_obs::span("mine.enumerate").arg("parents", missed.len() as u64);
    let mut rows = ItemsetRows::new(k);
    let mut supports = Vec::new();
    let mut owner: Vec<u32> = Vec::new();
    // Per parent slot, the parent's frequent children.
    let mut kids: Vec<Vec<NodeId>> = vec![Vec::new(); k];
    for (i, parent) in missed.iter().enumerate() {
        for (slot, &p) in kids.iter_mut().zip(parent) {
            slot.clear();
            slot.extend(
                ctx.tax
                    .children(p)
                    .iter()
                    .copied()
                    .filter(|&c| level.counter.item_support(h, c) >= theta),
            );
        }
        let slots: Vec<&[NodeId]> = kids.iter().map(Vec::as_slice).collect();
        level.counter.co_occurring(h, &slots, |combo, support| {
            rows.push(combo);
            supports.push(support);
            owner.push(i as u32);
        });
    }
    span.add_arg("rows", rows.len() as u64);
    drop(span);
    let mut order: Vec<usize> = (0..rows.len()).collect();
    order.sort_unstable_by(|&x, &y| rows.row(x).cmp(rows.row(y)));
    let mut sorted = ItemsetRows::with_capacity(k, order.len());
    sorted.extend(order.iter().map(|&i| rows.row(i)));
    let supports: Vec<u64> = order.iter().map(|&i| supports[i]).collect();
    if !missed.is_empty() {
        let owner: Vec<u32> = order.iter().map(|&i| owner[i]).collect();
        memo.record(h, theta, missed, &sorted, &supports, &owner);
    }
    (sorted, supports)
}

/// The vertical pass's prunes over its ascending stream of combinations.
struct VerticalPrune<'c, 'g> {
    ctx: &'c GenCtx<'g>,
    prev: Option<&'c Cell>,
    k: usize,
    /// The `(k−1)`-prefix of the current prefix group.
    head: Vec<NodeId>,
    /// Whether the current group's prefix was probed and its cursors aimed.
    armed: bool,
    /// Whether the current group's prefix is known infrequent.
    head_doomed: bool,
    cursors: SubsetCursors,
}

impl<'c, 'g> VerticalPrune<'c, 'g> {
    fn new(ctx: &'c GenCtx<'g>, prev: Option<&'c Cell>, k: usize) -> Self {
        VerticalPrune {
            ctx,
            prev,
            k,
            head: Vec::with_capacity(k),
            armed: false,
            head_doomed: false,
            cursors: SubsetCursors::new(k),
        }
    }

    /// Prune `combo` (the next row of the ascending stream) into `g`.
    fn offer(&mut self, g: &mut Generated, combo: &[NodeId], support: u64) {
        let (head, last) = (&combo[..self.k - 1], combo[self.k - 1]);
        if head != self.head.as_slice() {
            self.head.clear();
            self.head.extend_from_slice(head);
            self.armed = false;
        }
        if combo.iter().any(|&it| self.ctx.is_banned(it)) {
            g.sibp_pruned += 1;
            return;
        }
        let doomed = self.prev.is_some_and(|prev| {
            let infrequent = |i: usize| prev.info(i).label == Label::Infrequent;
            if !self.armed {
                self.armed = true;
                self.head_doomed = prev
                    .get_items(head)
                    .is_some_and(|info| info.label == Label::Infrequent);
                if !self.head_doomed {
                    self.cursors.start(prev.rows(), head, self.k - 1);
                }
            }
            self.head_doomed
                || !self
                    .cursors
                    .all(prev.rows(), last, |found| !found.is_some_and(infrequent))
        });
        if doomed {
            g.support_pruned += 1;
        } else {
            g.cands.push(combo);
            g.supports.push(support);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::ItemsetInfo;
    use flipper_data::rng::{Rng, Xoshiro256pp};
    use flipper_data::{naive_tidset_counts, Itemset, MultiLevelView, TransactionDb};
    use std::collections::{BTreeMap, BTreeSet};

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

    fn n(i: u32) -> NodeId {
        NodeId::from_index(i as usize)
    }

    fn info(label: Label) -> ItemsetInfo {
        ItemsetInfo {
            support: 3,
            corr: 0.5,
            label,
            chain_alive: label.is_correlated(),
        }
    }

    /// A cell of `rows` given in any order; a later duplicate replaces an
    /// earlier one.
    fn cell_of(k: usize, rows: BTreeMap<Itemset, ItemsetInfo>) -> Cell {
        let mut cell = Cell::new(k);
        for (set, info) in &rows {
            cell.push(set.items(), *info);
        }
        cell
    }

    fn ctx<'a>(tax: &'a Taxonomy, top_cat: &'a [NodeId]) -> GenCtx<'a> {
        GenCtx {
            tax,
            top_cat,
            banned: &[],
        }
    }

    /// A cell of up to `draws` random `k`-itemsets over items `1..=items`,
    /// with random labels.
    fn random_cell(rng: &mut Xoshiro256pp, items: u32, k: usize, draws: usize) -> Cell {
        let mut sets = BTreeSet::new();
        for _ in 0..draws {
            let set = Itemset::new((0..k).map(|_| n(rng.gen_range(1..=items))).collect());
            if set.len() == k {
                sets.insert(set);
            }
        }
        let mut cell = Cell::new(k);
        for set in sets {
            let label = match rng.gen_range(0..4u32) {
                0 => Label::Infrequent,
                1 => Label::NonCorrelated,
                2 => Label::Negative,
                _ => Label::Positive,
            };
            cell.push(set.items(), info(label));
        }
        cell
    }

    /// `sets` as `k`-item rows, in the order given.
    fn rows_of<'a>(k: usize, sets: impl IntoIterator<Item = &'a Itemset>) -> ItemsetRows {
        let mut rows = ItemsetRows::new(k);
        rows.extend(sets.into_iter().map(Itemset::items));
        rows
    }

    /// The rows of `rows` as owned itemsets.
    fn itemsets(rows: &ItemsetRows) -> Vec<Itemset> {
        rows.iter()
            .map(|r| Itemset::from_sorted(r.to_vec()))
            .collect()
    }

    /// The join as literally specified: every same-prefix pair of frequent
    /// itemsets from distinct categories, kept iff all `k` of its
    /// `(k−1)`-subsets are frequent in `prev`.
    fn reference_horizontal(prev: &Cell, k: usize, top_cat: &[NodeId]) -> Generated {
        let freq: Vec<Itemset> = prev
            .frequent()
            .map(|(s, _)| Itemset::from_sorted(s.to_vec()))
            .collect();
        let mut g = Generated::new(k);
        let mut cands = Vec::new();
        for (p, a) in freq.iter().enumerate() {
            for b in &freq[p + 1..] {
                let Some(joined) = a.apriori_join(b) else {
                    continue;
                };
                if top_cat[a.items()[k - 2].index()] == top_cat[b.items()[k - 2].index()] {
                    continue;
                }
                let ok = joined.subsets_k_minus_1().all(|s| {
                    prev.get_items(s.items())
                        .is_some_and(|i| i.label != Label::Infrequent)
                });
                if ok {
                    cands.push(joined);
                } else {
                    g.support_pruned += 1;
                }
            }
        }
        cands.sort_unstable();
        g.cands = rows_of(k, &cands);
        g
    }

    /// A cell of `w`-itemsets over items `1..=items` of which at least nine
    /// in ten are infrequent. The frequent ones are every `w`-subset of a
    /// few random `(w+2)`-item seeds, so they join and pass the subset
    /// check, plus a few strays, whose joins the check prunes. The seeds
    /// spread over the items, so consecutive join bases change a leading
    /// item often.
    fn mostly_infrequent_cell(rng: &mut Xoshiro256pp, items: u32, w: usize) -> Cell {
        let random_set = |rng: &mut Xoshiro256pp, len: usize| loop {
            let set = Itemset::new((0..len).map(|_| n(rng.gen_range(1..=items))).collect());
            if set.len() == len {
                return set;
            }
        };
        let frequent = |rng: &mut Xoshiro256pp| {
            info([Label::NonCorrelated, Label::Positive][rng.gen_range(0..2usize)])
        };
        let mut rows = BTreeMap::new();
        for _ in 0..3 {
            let seed = random_set(rng, w + 2);
            for (a, b) in (0..w + 2).flat_map(|a| (a + 1..w + 2).map(move |b| (a, b))) {
                let sub = seed.without_index(b).without_index(a);
                rows.insert(sub, frequent(rng));
            }
        }
        for _ in 0..3 {
            rows.insert(random_set(rng, w), frequent(rng));
        }
        let n_frequent = rows.len();
        while rows.len() < 10 * n_frequent {
            rows.entry(random_set(rng, w))
                .or_insert(info(Label::Infrequent));
        }
        cell_of(w, rows)
    }

    /// The cursor-probed flat join equals the literal Itemset join on
    /// random cells: ones with labels drawn evenly, and ones where at least
    /// nine rows in ten are infrequent, at `k = 3..=6`.
    #[test]
    fn horizontal_matches_reference_join() {
        let tax = Taxonomy::uniform(2, 2, 2).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        for round in 0..48 {
            let items = 8 + (round % 4) as u32 * 4;
            let k = 3 + round % 3;
            // Four categories over the item ids, so the category check bites.
            let top_cat: Vec<NodeId> = (0..=items).map(|i| n(i % 4)).collect();
            let prev = random_cell(&mut rng, items, k - 1, 20 + round * 4);
            let expect = reference_horizontal(&prev, k, &top_cat);
            let got = horizontal(&ctx(&tax, &top_cat), &prev, k);
            assert_eq!(got, expect, "round={round} k={k}");
        }
        let (mut joined, mut pruned) = (0, 0);
        for round in 0..32 {
            let k = 3 + round % 4;
            let items = 30;
            let top_cat: Vec<NodeId> = (0..=items).map(|i| n(i % 4)).collect();
            let prev = mostly_infrequent_cell(&mut rng, items, k - 1);
            assert!(prev.frequent().count() * 10 <= prev.len());
            let expect = reference_horizontal(&prev, k, &top_cat);
            let got = horizontal(&ctx(&tax, &top_cat), &prev, k);
            assert_eq!(got, expect, "sparse round={round} k={k}");
            joined += got.cands.len();
            pruned += got.support_pruned;
        }
        assert!(
            joined > 0 && pruned > 0,
            "the sparse rounds must join and prune"
        );
    }

    /// Merge two ascending `(row, support)` streams with no row in common
    /// into one ascending stream.
    fn merge_ascending<'r>(
        a: impl Iterator<Item = (&'r [NodeId], u64)>,
        b: impl Iterator<Item = (&'r [NodeId], u64)>,
    ) -> impl Iterator<Item = (&'r [NodeId], u64)> {
        let (mut a, mut b) = (a.peekable(), b.peekable());
        std::iter::from_fn(move || match (a.peek(), b.peek()) {
            (Some(x), Some(y)) if y.0 < x.0 => b.next(),
            (Some(_), _) => a.next(),
            (None, _) => b.next(),
        })
    }

    /// Merging the fused rows into the counted table in place gives the
    /// rows and supports of the streamed reference merge, wherever the
    /// fused rows fall (before, among or after the counted ones) and with
    /// either side empty.
    #[test]
    fn fused_rows_merge_into_the_counted_table() {
        let mut rng = Xoshiro256pp::seed_from_u64(29);
        let k = 3;
        // Every 3-subset of items 1..=12, ascending: 220 rows.
        let mut all: Vec<Vec<NodeId>> = Vec::new();
        for a in 1..=10u32 {
            for b in a + 1..=11 {
                for c in b + 1..=12 {
                    all.push(vec![n(a), n(b), n(c)]);
                }
            }
        }
        let table = |rows: &[&Vec<NodeId>]| {
            let mut t = ItemsetRows::new(k);
            t.extend(rows.iter().map(|r| r.as_slice()));
            t
        };
        let len = all.len();
        assert_eq!(len, 220);
        let splits = [
            "fused first",
            "fused last",
            "fused in the middle",
            "interleaved",
            "nothing fused",
            "nothing counted",
        ];
        for name in splits {
            // Whether row `i` is counted rather than fused.
            let counted = |i: usize| match name {
                "fused first" => i >= 40,
                "fused last" => i < 180,
                "fused in the middle" => !(100..140).contains(&i),
                "interleaved" => i % 3 != 1,
                "nothing fused" => true,
                _ => false,
            };
            let (mut c_rows, mut f_rows) = (Vec::new(), Vec::new());
            for (i, row) in all.iter().enumerate() {
                if counted(i) {
                    c_rows.push(row);
                } else {
                    f_rows.push(row);
                }
            }
            let c_sup: Vec<u64> = c_rows.iter().map(|_| rng.gen_range(0..100u64)).collect();
            let f_sup: Vec<u64> = f_rows.iter().map(|_| rng.gen_range(0..100u64)).collect();
            let batch = Batch {
                fused: table(&f_rows),
                fused_supports: f_sup.clone(),
                to_count: table(&c_rows),
            };
            let expect: Vec<(&[NodeId], u64)> = merge_ascending(
                c_rows
                    .iter()
                    .map(|r| r.as_slice())
                    .zip(c_sup.iter().copied()),
                f_rows
                    .iter()
                    .map(|r| r.as_slice())
                    .zip(f_sup.iter().copied()),
            )
            .collect();
            let (rows, supports) = batch.into_rows(c_sup.clone());
            let got: Vec<(&[NodeId], u64)> = rows.iter().zip(supports.iter().copied()).collect();
            assert_eq!(got, expect, "{name}");
            assert_eq!(got.len(), len, "{name}");
        }
    }

    /// Pairs: every cross-category pair, ascending, and nothing else.
    #[test]
    fn pairs_are_every_cross_category_pair() {
        let tax = Taxonomy::uniform(2, 2, 2).unwrap();
        let items: Vec<NodeId> = (1..60).map(n).collect();
        let top_cat: Vec<NodeId> = (0..60).map(|i| n(i % 5)).collect();
        let got = pairs(&ctx(&tax, &top_cat), &items);
        let mut expect = Generated::new(2);
        for (i, &x) in items.iter().enumerate() {
            for &y in &items[i + 1..] {
                if top_cat[x.index()] != top_cat[y.index()] {
                    expect.cands.push(&[x, y]);
                }
            }
        }
        assert!(!expect.cands.is_empty());
        let got_sets = itemsets(&got.cands);
        assert!(got_sets.windows(2).all(|w| w[0] < w[1]), "ascending");
        assert_eq!(got, expect);
    }

    /// Vertical generation on random data: every candidate co-occurs in a
    /// covering transaction, every co-occurring frequent combination is
    /// generated once or accounted for by a prune, and every candidate's
    /// fused support is its exact support — at every storage density.
    #[test]
    fn vertical_is_complete_and_duplicate_free() {
        let tax = Taxonomy::uniform(4, 3, 3).unwrap();
        let leaves = tax.leaves().to_vec();
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let rows: Vec<Vec<NodeId>> = (0..300)
            .map(|_| {
                let w = rng.gen_range(1..=6usize);
                (0..w)
                    .map(|_| leaves[rng.gen_range(0..leaves.len())])
                    .collect()
            })
            .collect();
        let db = TransactionDb::new(rows).unwrap();
        let view = MultiLevelView::build(&db, &tax).unwrap();
        let mut top_cat = vec![NodeId::ROOT; tax.node_count()];
        for node in tax.node_ids().skip(1) {
            top_cat[node.index()] = tax.ancestor_at_level(node, 1).unwrap();
        }
        let theta = 2;
        let mids = tax.nodes_at_level(2).unwrap().to_vec();
        for k in [2usize, 3] {
            // Random parent sets over distinct categories, all alive.
            let mut parents = BTreeSet::new();
            for _ in 0..60 {
                let set =
                    Itemset::new((0..k).map(|_| mids[rng.gen_range(0..mids.len())]).collect());
                let cats: BTreeSet<NodeId> =
                    set.items().iter().map(|it| top_cat[it.index()]).collect();
                if cats.len() == k {
                    parents.insert(set);
                }
            }
            let mut above = Cell::new(k);
            for p in &parents {
                above.push(p.items(), info(Label::Positive));
            }
            // Known-infrequent pairs prune the triples that contain them.
            let mut prev = BTreeMap::new();
            for a in leaves.iter().step_by(7) {
                for b in leaves.iter().step_by(5) {
                    if top_cat[a.index()] != top_cat[b.index()] {
                        prev.insert(Itemset::pair(*a, *b), info(Label::Infrequent));
                    }
                }
            }
            let prev = cell_of(2, prev);
            let prev = (k == 3).then_some(&prev);
            let by_density = DENSITIES.map(|density| {
                let mut counter = counter_at(&view, density);
                let memo = VerticalMemo::new();
                let mut level = VerticalLevel::new(&mut counter, 3, theta, &memo);
                vertical(&ctx(&tax, &top_cat), &mut level, &above, prev, k)
            });
            let base = &by_density[0];
            for other in &by_density[1..] {
                assert_eq!(other, base, "k={k}: density changed the candidates");
            }
            assert!(!base.cands.is_empty(), "k={k}");
            if k == 3 {
                assert!(base.support_pruned > 0, "the infrequent pairs must bite");
            }
            assert_eq!(
                base.supports,
                naive_tidset_counts(&view, 3, &base.cands),
                "k={k}: fused supports are exact"
            );
            // Brute force: per parent and covering transaction, the product
            // of each slot's frequent children in that transaction. Level 3
            // is the leaf level, so the rows are the database's own; a
            // parent covers a row when one of its leaves sits under it.
            let mut expect = BTreeSet::new();
            for p in &parents {
                for txn3 in db.iter() {
                    let covers = |x: &NodeId| {
                        txn3.iter()
                            .any(|&l| tax.ancestor_at_level(l, 2).unwrap() == *x)
                    };
                    if !p.items().iter().all(covers) {
                        continue;
                    }
                    let mut combos: Vec<Vec<NodeId>> = vec![Vec::new()];
                    for &par in p.items() {
                        let slot: Vec<NodeId> = txn3
                            .iter()
                            .copied()
                            .filter(|&c| tax.parent(c) == Some(par))
                            .filter(|&c| view.level(3).item_support(c) >= theta)
                            .collect();
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
                    expect.extend(combos.into_iter().map(Itemset::new));
                }
            }
            let got: BTreeSet<Itemset> = itemsets(&base.cands).into_iter().collect();
            assert_eq!(got.len(), base.cands.len(), "k={k}: no duplicates");
            assert!(
                got.is_subset(&expect),
                "k={k}: only co-occurring combinations"
            );
            assert_eq!(
                expect.len() as u64,
                got.len() as u64 + base.support_pruned + base.sibp_pruned,
                "k={k}: every combination is generated or pruned"
            );
        }
    }

    /// A warm memo replays what a cold one recorded: under any bans and any
    /// `prev` cell, the replayed pass yields the `Generated` a pass over a
    /// fresh memo does, without a single intersection.
    #[test]
    fn memoized_vertical_replays_identically_under_any_bans_and_prev() {
        let tax = Taxonomy::uniform(3, 3, 3).unwrap();
        let leaves = tax.leaves().to_vec();
        let mut rng = Xoshiro256pp::seed_from_u64(17);
        let rows: Vec<Vec<NodeId>> = (0..400)
            .map(|_| {
                let w = rng.gen_range(2..=7usize);
                (0..w)
                    .map(|_| leaves[rng.gen_range(0..leaves.len())])
                    .collect()
            })
            .collect();
        let db = TransactionDb::new(rows).unwrap();
        let view = MultiLevelView::build(&db, &tax).unwrap();
        let top_cat: Vec<NodeId> = tax
            .node_ids()
            .map(|x| tax.ancestor_at_level(x, 1).unwrap_or(x))
            .collect();
        let (h, theta, k) = (3, 2, 3);
        let mids = tax.nodes_at_level(2).unwrap().to_vec();
        let mut above = BTreeMap::new();
        for _ in 0..40 {
            let set = Itemset::new((0..k).map(|_| mids[rng.gen_range(0..mids.len())]).collect());
            let cats: BTreeSet<NodeId> = set.items().iter().map(|it| top_cat[it.index()]).collect();
            if cats.len() == k {
                above.insert(set, info(Label::Positive));
            }
        }
        let above = cell_of(k, above);
        // `prev` cells of leaf pairs, every `every`-th one infrequent.
        let prev_cell = |every: usize| {
            let mut cell = Cell::new(2);
            let mut i = 0;
            for (p, &a) in leaves.iter().enumerate() {
                for &b in &leaves[p + 1..] {
                    if top_cat[a.index()] != top_cat[b.index()] {
                        i += 1;
                        let label = if i % every == 0 {
                            Label::Infrequent
                        } else {
                            Label::Positive
                        };
                        cell.push(Itemset::pair(a, b).items(), info(label));
                    }
                }
            }
            cell
        };
        let prevs = [None, Some(prev_cell(7)), Some(prev_cell(3))];
        // Bans on every `every`-th leaf; none in the first round.
        let bans: Vec<Vec<bool>> = [0usize, 5, 4]
            .into_iter()
            .map(|every| {
                let mut b = vec![false; tax.node_count()];
                for it in leaves.iter().skip(1).step_by(every.max(1)) {
                    b[it.index()] = every > 0;
                }
                b
            })
            .collect();
        let (mut sibp_bit, mut support_bit) = (false, false);
        let memo = VerticalMemo::new();
        let mut counter = BitsetCounter::new(&view);
        for (round, (banned, prev)) in bans.iter().zip(&prevs).enumerate() {
            let mut c = ctx(&tax, &top_cat);
            c.banned = banned;
            let mut fresh_counter = BitsetCounter::new(&view);
            let fresh_memo = VerticalMemo::new();
            let mut plain = VerticalLevel::new(&mut fresh_counter, h, theta, &fresh_memo);
            let expect = vertical(&c, &mut plain, &above, prev.as_ref(), k);
            sibp_bit |= expect.sibp_pruned > 0;
            support_bit |= expect.support_pruned > 0;
            let before = counter.stats().intersections;
            let mut level = VerticalLevel::new(&mut counter, h, theta, &memo);
            let got = vertical(&c, &mut level, &above, prev.as_ref(), k);
            let (replayed, enumerated) = (level.replayed, level.enumerated);
            assert_eq!(got, expect, "round {round}");
            assert_eq!(replayed + enumerated, above.alive().count() as u64);
            if round == 0 {
                assert_eq!((replayed, enumerated), (0, plain.enumerated), "cold");
                assert_eq!(
                    counter.stats().intersections - before,
                    fresh_counter.stats().intersections,
                    "a cold memo enumerates like a fresh one"
                );
            } else {
                assert_eq!(enumerated, 0, "round {round}: warm");
                assert_eq!(counter.stats().intersections, before, "round {round}");
            }
        }
        assert!(sibp_bit && support_bit, "the bans and prev cells must bite");
    }

    /// The vertical pass as literally specified: each alive parent set's
    /// combinations straight from the kernel, each pruned by its own `k`
    /// subset probes into `prev`, then sorted.
    fn reference_vertical(
        ctx: &GenCtx<'_>,
        counter: &mut BitsetCounter<'_>,
        (h, theta): (usize, u64),
        above: &Cell,
        prev: Option<&Cell>,
    ) -> Generated {
        let mut all: Vec<(Itemset, u64)> = Vec::new();
        for (parent, _) in above.alive() {
            let kids: Vec<Vec<NodeId>> = parent
                .iter()
                .map(|&p| {
                    ctx.tax
                        .children(p)
                        .iter()
                        .copied()
                        .filter(|&c| counter.item_support(h, c) >= theta)
                        .collect()
                })
                .collect();
            let slots: Vec<&[NodeId]> = kids.iter().map(Vec::as_slice).collect();
            counter.co_occurring(h, &slots, |combo, support| {
                all.push((Itemset::from_sorted(combo.to_vec()), support));
            });
        }
        all.sort_unstable();
        let mut g = Generated::new(above.k());
        for (set, support) in all {
            if set.items().iter().any(|&it| ctx.is_banned(it)) {
                g.sibp_pruned += 1;
                continue;
            }
            let doomed = prev.is_some_and(|prev| {
                set.subsets_k_minus_1().any(|sub| {
                    prev.get_items(sub.items())
                        .is_some_and(|info| info.label == Label::Infrequent)
                })
            });
            if doomed {
                g.support_pruned += 1;
            } else {
                g.cands.push(set.items());
                g.supports.push(support);
            }
        }
        g
    }

    /// On random parent cells, bans and `prev` cells, `vertical` equals the
    /// literal reference and emits strictly ascending rows — with a cold
    /// memo, a partially warm one (recorded from a different alive-parent
    /// subset, so selected and fresh rows merge) and a warm one.
    #[test]
    fn vertical_matches_reference_prune_at_every_memo_state() {
        let tax = Taxonomy::uniform(3, 3, 3).unwrap();
        let leaves = tax.leaves().to_vec();
        let mids = tax.nodes_at_level(2).unwrap().to_vec();
        let top_cat: Vec<NodeId> = tax
            .node_ids()
            .map(|x| tax.ancestor_at_level(x, 1).unwrap_or(x))
            .collect();
        let mut rng = Xoshiro256pp::seed_from_u64(23);
        let rows: Vec<Vec<NodeId>> = (0..300)
            .map(|_| {
                let w = rng.gen_range(2..=8usize);
                (0..w)
                    .map(|_| leaves[rng.gen_range(0..leaves.len())])
                    .collect()
            })
            .collect();
        let db = TransactionDb::new(rows).unwrap();
        let view = MultiLevelView::build(&db, &tax).unwrap();
        let (h, theta) = (3, 2);
        let alive = |alive: bool| ItemsetInfo {
            chain_alive: alive,
            ..info(Label::Positive)
        };
        let (mut sibp_bit, mut support_bit, mut merged) = (false, false, false);
        for round in 0..16 {
            let k = 2 + round % 2;
            // Parent sets over distinct categories. `above` keeps two in
            // three alive; `earlier` is another random subset of them.
            let (mut above, mut earlier) = (BTreeMap::new(), BTreeMap::new());
            for _ in 0..30 {
                let set =
                    Itemset::new((0..k).map(|_| mids[rng.gen_range(0..mids.len())]).collect());
                let cats: BTreeSet<NodeId> =
                    set.items().iter().map(|it| top_cat[it.index()]).collect();
                if cats.len() == k {
                    above.insert(set.clone(), alive(rng.gen_range(0..3u32) > 0));
                    earlier.insert(set, alive(rng.gen_range(0..2u32) == 0));
                }
            }
            let (above, earlier) = (cell_of(k, above), cell_of(k, earlier));
            // Random `(k−1)`-itemsets of leaves, one in three infrequent;
            // every fourth round has no `prev` cell.
            let mut prev = BTreeMap::new();
            for _ in 0..150 {
                let set = Itemset::new(
                    (0..k - 1)
                        .map(|_| leaves[rng.gen_range(0..leaves.len())])
                        .collect(),
                );
                if set.len() == k - 1 {
                    let label = if rng.gen_range(0..3u32) == 0 {
                        Label::Infrequent
                    } else {
                        Label::Positive
                    };
                    prev.insert(set, info(label));
                }
            }
            let prev = cell_of(k - 1, prev);
            let prev = (round % 4 != 3).then_some(&prev);
            // Bans on about one leaf in ten; none in every third round.
            let banned: Vec<bool> = tax
                .node_ids()
                .map(|x| round % 3 != 0 && tax.is_leaf(x) && rng.gen_range(0..10u32) == 0)
                .collect();
            let mut c = ctx(&tax, &top_cat);
            c.banned = &banned;
            let mut counter = BitsetCounter::new(&view);
            let expect = reference_vertical(&c, &mut counter, (h, theta), &above, prev);
            sibp_bit |= expect.sibp_pruned > 0;
            support_bit |= expect.support_pruned > 0;
            let mut run = |above: &Cell, memo: &VerticalMemo| {
                let mut level = VerticalLevel::new(&mut counter, h, theta, memo);
                let got = vertical(&c, &mut level, above, prev, k);
                assert!(ascending(&got.cands), "round {round}: strictly ascending");
                (got, level.replayed, level.enumerated)
            };
            let alive_count = above.alive().count() as u64;
            let memo = VerticalMemo::new();
            let (got, replayed, enumerated) = run(&above, &memo);
            assert_eq!(got, expect, "round {round}: cold");
            assert_eq!((replayed, enumerated), (0, alive_count));
            let memo = VerticalMemo::new();
            run(&earlier, &memo);
            let (got, replayed, enumerated) = run(&above, &memo);
            assert_eq!(got, expect, "round {round}: partially warm");
            assert_eq!(replayed + enumerated, alive_count);
            merged |= replayed > 0 && enumerated > 0 && !got.cands.is_empty();
            let (got, replayed, _) = run(&above, &memo);
            assert_eq!(got, expect, "round {round}: warm");
            assert_eq!(replayed, alive_count);
        }
        assert!(sibp_bit && support_bit && merged, "every path must bite");
    }

    /// A parent set whose every children-combination occurs (the first
    /// transaction holds all of them) yields the whole space, each
    /// combination once with its support.
    #[test]
    fn vertical_full_space_from_the_first_transaction() {
        let tax = Taxonomy::uniform(2, 2, 2).unwrap();
        let mids = tax.nodes_at_level(1).unwrap().to_vec();
        let kids: Vec<NodeId> = mids
            .iter()
            .flat_map(|&m| tax.children(m).iter().copied())
            .collect();
        // Transaction 0 holds all four leaves; the rest one leaf per parent.
        let mut rows = vec![kids.clone()];
        rows.extend((0..6).map(|i| vec![kids[i % 2], kids[2 + i % 2]]));
        let db = TransactionDb::new(rows).unwrap();
        let view = MultiLevelView::build(&db, &tax).unwrap();
        let top_cat: Vec<NodeId> = tax
            .node_ids()
            .map(|x| tax.ancestor_at_level(x, 1).unwrap_or(x))
            .collect();
        let mut above = Cell::new(2);
        above.push(
            Itemset::pair(mids[0], mids[1]).items(),
            info(Label::Positive),
        );
        let mut counter = BitsetCounter::new(&view);
        let memo = VerticalMemo::new();
        let mut level = VerticalLevel::new(&mut counter, 2, 1, &memo);
        let got = vertical(&ctx(&tax, &top_cat), &mut level, &above, None, 2);
        let batch = Batch::union(2, [got]);
        let expect: Vec<(Itemset, u64)> = [(0, 2, 4), (0, 3, 1), (1, 2, 1), (1, 3, 4)]
            .into_iter()
            .map(|(a, b, sup)| (Itemset::pair(kids[a], kids[b]), sup))
            .collect();
        let fused: Vec<(Itemset, u64)> = itemsets(&batch.fused)
            .into_iter()
            .zip(batch.fused_supports)
            .collect();
        assert_eq!(fused, expect);
        assert!(batch.to_count.is_empty());
        assert_eq!(counter.stats().candidates_counted, 0, "nothing counted");
        assert_eq!(counter.stats().intersections, 4, "one AND per pair");
    }

    /// A `k = 3` cell fed by both sources: a candidate of both appears once,
    /// with its fused support; a horizontal-only candidate (its items never
    /// co-occur) still goes to counting.
    #[test]
    fn candidate_of_both_sources_appears_once_with_its_support() {
        let tax = Taxonomy::uniform(3, 2, 2).unwrap();
        let tops = tax.nodes_at_level(1).unwrap().to_vec();
        let kid = |top: usize, i: usize| tax.children(tops[top])[i];
        let (a1, b1, c1) = (kid(0, 0), kid(1, 0), kid(2, 0));
        let (a2, b2, c2) = (kid(0, 1), kid(1, 1), kid(2, 1));
        let mut rows = vec![vec![a1, b1, c1]; 3];
        rows.extend([vec![a2, b2], vec![c2], vec![a1, b2, c2]]);
        let db = TransactionDb::new(rows).unwrap();
        let view = MultiLevelView::build(&db, &tax).unwrap();
        let top_cat: Vec<NodeId> = tax
            .node_ids()
            .map(|x| tax.ancestor_at_level(x, 1).unwrap_or(x))
            .collect();
        let c = ctx(&tax, &top_cat);
        // Q(2,2): the pairs of {a1,b1,c1} and of {a2,b2,c2}, all frequent.
        let mut prev = BTreeMap::new();
        for [x, y, z] in [[a1, b1, c1], [a2, b2, c2]] {
            for (p, q) in [(x, y), (x, z), (y, z)] {
                prev.insert(Itemset::pair(p, q), info(Label::Positive));
            }
        }
        let prev = cell_of(2, prev);
        // Q(1,3): the one parent set, alive.
        let mut above = Cell::new(3);
        above.push(Itemset::new(tops.clone()).items(), info(Label::Positive));
        let joined = horizontal(&c, &prev, 3);
        let mut counter = BitsetCounter::new(&view);
        let memo = VerticalMemo::new();
        let mut level = VerticalLevel::new(&mut counter, 2, 1, &memo);
        let fused = vertical(&c, &mut level, &above, Some(&prev), 3);
        let both = Itemset::new(vec![a1, b1, c1]);
        let horizontal_only = Itemset::new(vec![a2, b2, c2]);
        assert!(itemsets(&joined.cands).contains(&both) && itemsets(&fused.cands).contains(&both));
        let batch = Batch::union(3, [joined, fused]);
        assert_eq!(
            batch.fused,
            rows_of(3, [&both, &Itemset::new(vec![a1, b2, c2])])
        );
        assert_eq!(batch.fused_supports, vec![3, 1]);
        assert_eq!(batch.to_count, rows_of(3, [&horizontal_only]));
    }
}
