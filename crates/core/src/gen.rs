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
//! Joins and `(k−1)`-subset probes work on item slices held in buffers
//! reused across the whole pass. The join copies the frequent
//! `(k−1)`-itemsets into one fixed-stride [`Rows`] table and answers its
//! subset probes with cursors into that table's prefix groups; the
//! vertical pass probes `Q(h,k−1)` by slice ([`Cell::get_items`]). Only a
//! candidate that survives every prune is allocated, once, as the
//! [`Itemset`] its cell will store.

use crate::cell::Cell;
use flipper_data::{BitsetCounter, Itemset, VerticalMemo};
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
#[derive(Debug, Default, PartialEq)]
pub(crate) struct Generated {
    /// Surviving candidates, in generation order.
    pub(crate) cands: Vec<Itemset>,
    /// The vertical source's supports, aligned with `cands`; empty for the
    /// other sources, whose candidates still need counting.
    pub(crate) supports: Vec<u64>,
    /// Removed by the Apriori / known-infrequent subset check.
    pub(crate) support_pruned: u64,
    /// Removed because they contain a SIBP-banned item.
    pub(crate) sibp_pruned: u64,
}

/// One cell's candidates, each once, split by whether a source already
/// established its support. A batch without a vertical source has no fused
/// candidates, so it is a plain itemset list.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct Batch {
    /// Vertical candidates with the supports the kernel's DFS produced,
    /// ascending by itemset.
    pub(crate) fused: Vec<(Itemset, u64)>,
    /// Every other candidate, ascending: the counting kernel answers
    /// these.
    pub(crate) to_count: Vec<Itemset>,
}

impl Batch {
    /// The union of the candidates of `sources`. A candidate the vertical
    /// source produced keeps its fused support even when another source
    /// produced it too.
    pub(crate) fn union(sources: impl IntoIterator<Item = Generated>) -> Batch {
        let mut batch = Batch::default();
        for g in sources {
            if g.supports.is_empty() {
                batch.to_count.extend(g.cands);
            } else {
                batch.fused.extend(g.cands.into_iter().zip(g.supports));
            }
        }
        batch.to_count.sort_unstable();
        batch.to_count.dedup();
        // The vertical pass emits each combination once, for its one
        // parent set, so the fused side holds no duplicates.
        batch.fused.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        if !batch.fused.is_empty() {
            let mut fused = batch.fused.iter().map(|(set, _)| set).peekable();
            batch.to_count.retain(|set| {
                while fused.next_if(|f| *f < set).is_some() {}
                fused.peek() != Some(&set)
            });
        }
        batch
    }
}

/// Fixed-stride itemset rows: row `i` is `items[i·k .. (i+1)·k]`. One
/// allocation holds a whole cell's worth of itemsets, probed by slice.
#[derive(Debug)]
struct Rows {
    k: usize,
    items: Vec<NodeId>,
}

impl Rows {
    /// Empty table of `k`-item rows (`k ≥ 1`).
    fn new(k: usize) -> Self {
        debug_assert!(k >= 1, "rows need at least one item");
        Rows {
            k,
            items: Vec::new(),
        }
    }

    /// Number of rows.
    fn len(&self) -> usize {
        self.items.len().checked_div(self.k).unwrap_or(0)
    }

    /// Row `i`.
    #[inline]
    fn row(&self, i: usize) -> &[NodeId] {
        &self.items[i * self.k..(i + 1) * self.k]
    }

    /// Append a row of exactly `k` items.
    fn push(&mut self, row: &[NodeId]) {
        debug_assert_eq!(row.len(), self.k);
        self.items.extend_from_slice(row);
    }

    /// The rows whose first `key.len()` items equal `key`, as an index
    /// range. Rows must be ascending.
    fn prefix_range(&self, key: &[NodeId]) -> Range<usize> {
        let m = key.len();
        let lo = self.partition_point(0, |row| &row[..m] < key);
        let hi = self.partition_point(lo, |row| &row[..m] == key);
        lo..hi
    }

    /// First row index at or after `start` at which `pred` turns false;
    /// rows from `start` on must be partitioned by it.
    fn partition_point(&self, start: usize, pred: impl Fn(&[NodeId]) -> bool) -> usize {
        let (mut lo, mut hi) = (start, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(self.row(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Maximal runs of adjacent rows sharing their first `k − 1` items.
    fn prefix_groups(&self) -> Vec<Range<usize>> {
        let n = self.len();
        let p = self.k - 1;
        let mut out = Vec::new();
        let mut start = 0;
        for i in 1..=n {
            if i == n || self.row(i)[..p] != self.row(start)[..p] {
                out.push(start..i);
                start = i;
            }
        }
        out
    }
}

/// All pairs of the frequent level items `items` (ascending) from distinct
/// categories. An item banned at `k = 2` never starts a pair; a pair whose
/// second item is banned counts as SIBP-pruned.
pub(crate) fn pairs(ctx: &GenCtx<'_>, items: &[NodeId]) -> Generated {
    let mut g = Generated::default();
    for (i, &x) in items.iter().enumerate() {
        if ctx.is_banned(x) {
            continue;
        }
        for &y in &items[i + 1..] {
            if ctx.cat(x) == ctx.cat(y) {
                continue;
            }
            if ctx.is_banned(y) {
                g.sibp_pruned += 1;
                continue;
            }
            g.cands.push(Itemset::from_sorted(vec![x, y]));
        }
    }
    g
}

/// The horizontal Apriori join over the frequent itemsets of
/// `prev = Q(h,k−1)` (`k ≥ 3`), with the classic prune: a joined candidate
/// survives only if every `(k−1)`-subset is frequent in `prev`. (Cells can
/// be unions wider than the pure join closure, so membership is checked
/// explicitly.)
///
/// Rows sharing their `(k−2)`-prefix are joined pairwise, `p < q`, into
/// `row(p) + last(q)`. Dropping either of the last two items gives back
/// `row(q)` or `row(p)`, both frequent, so only the subsets that drop one
/// of the first `k − 2` items are probed. For a fixed `p`, the subset that
/// drops item `i` is `row(p) − i` extended by `last(q)`: it lies in the
/// prefix group of `row(p) − i`, and as `q` ascends so does `last(q)`. One
/// cursor per dropped position therefore walks that group once per `p`,
/// and a probe costs amortized O(1) instead of a search.
pub(crate) fn horizontal(ctx: &GenCtx<'_>, prev: &Cell, k: usize) -> Generated {
    debug_assert!(k >= 3, "pairs come from `pairs` or `vertical`");
    let mut freq = Rows::new(k - 1);
    for (set, _) in prev.frequent() {
        freq.push(set.items());
    }
    let mut g = Generated::default();
    let mut key: Vec<NodeId> = Vec::with_capacity(k - 2);
    // Per dropped position `i < k − 2`: (cursor, end) into its group.
    let mut cursors: Vec<(usize, usize)> = Vec::with_capacity(k - 2);
    let mut cand: Vec<NodeId> = Vec::with_capacity(k);
    for grp in freq.prefix_groups() {
        for p in grp.clone() {
            let rp = freq.row(p);
            let cat_p = ctx.cat(rp[k - 2]);
            cursors.clear();
            for i in 0..k - 2 {
                key.clear();
                key.extend_from_slice(&rp[..i]);
                key.extend_from_slice(&rp[i + 1..]);
                let r = freq.prefix_range(&key);
                cursors.push((r.start, r.end));
            }
            for q in p + 1..grp.end {
                let last = freq.row(q)[k - 2];
                if ctx.cat(last) == cat_p {
                    continue;
                }
                let mut ok = true;
                for (cur, end) in cursors.iter_mut() {
                    while *cur < *end && freq.row(*cur)[k - 2] < last {
                        *cur += 1;
                    }
                    if *cur == *end || freq.row(*cur)[k - 2] != last {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    cand.clear();
                    cand.extend_from_slice(rp);
                    cand.push(last);
                    g.cands.push(Itemset::from_sorted(cand.clone()));
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
    /// Session memo of earlier enumerations at this view; `None` for
    /// unseeded runs.
    pub(crate) memo: Option<&'a VerticalMemo>,
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
        memo: Option<&'a VerticalMemo>,
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
/// with their supports in [`Generated::supports`].
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
///
/// That enumeration depends only on the view, `h`, θ_h and the parent set.
/// With a [`VerticalMemo`], a parent set recorded by an earlier run is
/// replayed instead, in the order the kernel emitted it, and a parent set
/// enumerated here is recorded.
///
/// Every combination, enumerated or replayed, then goes through the same
/// prunes: combinations containing a SIBP-banned item are dropped, and so
/// are combinations with a `(k−1)`-subset *present* in `prev = Q(h,k−1)` and
/// labeled infrequent. (Absent subsets carry no information — they may
/// simply never have been candidates.)
pub(crate) fn vertical(
    ctx: &GenCtx<'_>,
    level: &mut VerticalLevel<'_, '_>,
    above: &Cell,
    prev: Option<&Cell>,
    k: usize,
) -> Generated {
    let mut g = Generated::default();
    // A `(k−1)`-subset being probed.
    let mut sub: Vec<NodeId> = Vec::with_capacity(k);
    let mut keep = |combo: &[NodeId], support: u64| {
        if combo.iter().any(|&it| ctx.is_banned(it)) {
            g.sibp_pruned += 1;
            return;
        }
        let doomed = prev.is_some_and(|prev| {
            (0..k).any(|i| {
                sub.clear();
                sub.extend_from_slice(&combo[..i]);
                sub.extend_from_slice(&combo[i + 1..]);
                prev.get_items(&sub)
                    .is_some_and(|info| info.label == Label::Infrequent)
            })
        });
        if doomed {
            g.support_pruned += 1;
        } else {
            g.cands.push(Itemset::from_sorted(combo.to_vec()));
            g.supports.push(support);
        }
    };
    // Per parent slot, the parent's frequent children.
    let mut kids: Vec<Vec<NodeId>> = vec![Vec::new(); k];
    // One parent set's combinations (rows of `k` items) and supports, as
    // the memo stores them.
    let mut combos: Vec<NodeId> = Vec::new();
    let mut supports: Vec<u64> = Vec::new();
    let (h, theta, memo) = (level.h, level.theta, level.memo);
    for (pset, _) in above.alive() {
        let parent = pset.items();
        if memo.is_some_and(|m| m.replay_into(h, theta, parent, &mut combos, &mut supports)) {
            level.replayed += 1;
            level.replayed_supports += supports.len() as u64;
            for (combo, &support) in combos.chunks_exact(k).zip(&supports) {
                keep(combo, support);
            }
            continue;
        }
        level.enumerated += 1;
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
        combos.clear();
        supports.clear();
        level.counter.co_occurring(h, &slots, |combo, support| {
            if memo.is_some() {
                combos.extend_from_slice(combo);
                supports.push(support);
            }
            keep(combo, support);
        });
        if let Some(memo) = memo {
            memo.record(h, theta, parent, &combos, &supports);
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::ItemsetInfo;
    use flipper_data::rng::{Rng, Xoshiro256pp};
    use flipper_data::{naive_tidset_counts, MultiLevelView, TransactionDb};
    use std::collections::BTreeSet;

    /// The kernel's three storage mixes: all-bitmap, the default mixed
    /// threshold, all-tid-list.
    const DENSITIES: [f64; 3] = [0.0, BitsetCounter::DEFAULT_DENSITY, 2.0];

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
        let mut cell = Cell::new();
        for set in sets {
            let label = match rng.gen_range(0..4u32) {
                0 => Label::Infrequent,
                1 => Label::NonCorrelated,
                2 => Label::Negative,
                _ => Label::Positive,
            };
            cell.insert(set, info(label));
        }
        cell
    }

    /// The join as literally specified: every same-prefix pair of frequent
    /// itemsets from distinct categories, kept iff all `k` of its
    /// `(k−1)`-subsets are frequent in `prev`.
    fn reference_horizontal(prev: &Cell, k: usize, top_cat: &[NodeId]) -> Generated {
        let freq: Vec<&Itemset> = prev.frequent().map(|(s, _)| s).collect();
        let mut g = Generated::default();
        for (p, a) in freq.iter().enumerate() {
            for b in &freq[p + 1..] {
                let Some(joined) = a.apriori_join(b) else {
                    continue;
                };
                if top_cat[a.items()[k - 2].index()] == top_cat[b.items()[k - 2].index()] {
                    continue;
                }
                let ok = joined
                    .subsets_k_minus_1()
                    .all(|s| prev.get(&s).is_some_and(|i| i.label != Label::Infrequent));
                if ok {
                    g.cands.push(joined);
                } else {
                    g.support_pruned += 1;
                }
            }
        }
        g.cands.sort_unstable();
        g
    }

    #[test]
    fn rows_probe_by_prefix() {
        let mut rows = Rows::new(2);
        for (a, b) in [(1, 2), (1, 5), (2, 3), (2, 4), (2, 9), (7, 8)] {
            rows.push(&[n(a), n(b)]);
        }
        assert_eq!(rows.len(), 6);
        assert_eq!(rows.prefix_range(&[n(2)]), 2..5);
        assert_eq!(rows.prefix_range(&[n(3)]), 5..5);
        assert_eq!(rows.prefix_range(&[n(7)]), 5..6);
        assert_eq!(rows.prefix_range(&[n(9)]), 6..6);
        assert_eq!(rows.prefix_range(&[n(2), n(4)]), 3..4);
        assert_eq!(rows.prefix_groups(), vec![0..2, 2..5, 5..6]);
    }

    /// The cursor-probed flat join equals the literal Itemset join on
    /// random cells.
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
    }

    /// Pairs: every cross-category pair, an item banned at `k = 2` never
    /// starts one, a banned second item counts as SIBP-pruned.
    #[test]
    fn pairs_cross_categories_and_honour_bans() {
        let tax = Taxonomy::uniform(2, 2, 2).unwrap();
        let items: Vec<NodeId> = (1..60).map(n).collect();
        let top_cat: Vec<NodeId> = (0..60).map(|i| n(i % 5)).collect();
        let mut banned = vec![false; 60];
        for i in [3usize, 17, 41] {
            banned[i] = true;
        }
        let mut c = ctx(&tax, &top_cat);
        c.banned = &banned;
        let got = pairs(&c, &items);
        let mut expect = Generated::default();
        for (i, &x) in items.iter().enumerate() {
            for &y in &items[i + 1..] {
                if banned[x.index()] || top_cat[x.index()] == top_cat[y.index()] {
                    continue;
                }
                if banned[y.index()] {
                    expect.sibp_pruned += 1;
                } else {
                    expect.cands.push(Itemset::pair(x, y));
                }
            }
        }
        assert!(expect.sibp_pruned > 0);
        assert!(got.cands.windows(2).all(|w| w[0] < w[1]), "ascending");
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
        let view = MultiLevelView::build(&db, &tax);
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
            let mut above = Cell::new();
            for p in &parents {
                above.insert(p.clone(), info(Label::Positive));
            }
            // Known-infrequent pairs prune the triples that contain them.
            let mut prev = Cell::new();
            for a in leaves.iter().step_by(7) {
                for b in leaves.iter().step_by(5) {
                    if top_cat[a.index()] != top_cat[b.index()] {
                        prev.insert(Itemset::pair(*a, *b), info(Label::Infrequent));
                    }
                }
            }
            let prev = (k == 3).then_some(&prev);
            let by_density = DENSITIES.map(|density| {
                let mut counter = BitsetCounter::with_density(&view, density);
                let mut level = VerticalLevel::new(&mut counter, 3, theta, None);
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
            let got: BTreeSet<Itemset> = base.cands.iter().cloned().collect();
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
    /// `prev` cell, the replayed pass yields the `Generated` an unmemoized
    /// pass does, without a single intersection.
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
        let view = MultiLevelView::build(&db, &tax);
        let top_cat: Vec<NodeId> = tax
            .node_ids()
            .map(|x| tax.ancestor_at_level(x, 1).unwrap_or(x))
            .collect();
        let (h, theta, k) = (3, 2, 3);
        let mids = tax.nodes_at_level(2).unwrap().to_vec();
        let mut above = Cell::new();
        for _ in 0..40 {
            let set = Itemset::new((0..k).map(|_| mids[rng.gen_range(0..mids.len())]).collect());
            let cats: BTreeSet<NodeId> = set.items().iter().map(|it| top_cat[it.index()]).collect();
            if cats.len() == k {
                above.insert(set, info(Label::Positive));
            }
        }
        // `prev` cells of leaf pairs, every `every`-th one infrequent.
        let prev_cell = |every: usize| {
            let mut cell = Cell::new();
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
                        cell.insert(Itemset::pair(a, b), info(label));
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
            let mut plain = VerticalLevel::new(&mut fresh_counter, h, theta, None);
            let expect = vertical(&c, &mut plain, &above, prev.as_ref(), k);
            sibp_bit |= expect.sibp_pruned > 0;
            support_bit |= expect.support_pruned > 0;
            let before = counter.stats().intersections;
            let mut level = VerticalLevel::new(&mut counter, h, theta, Some(&memo));
            let got = vertical(&c, &mut level, &above, prev.as_ref(), k);
            let (replayed, enumerated) = (level.replayed, level.enumerated);
            assert_eq!(got, expect, "round {round}");
            assert_eq!(replayed + enumerated, above.alive().count() as u64);
            if round == 0 {
                assert_eq!((replayed, enumerated), (0, plain.enumerated), "cold");
                assert_eq!(
                    counter.stats().intersections - before,
                    fresh_counter.stats().intersections,
                    "a cold memo enumerates like no memo"
                );
            } else {
                assert_eq!(enumerated, 0, "round {round}: warm");
                assert_eq!(counter.stats().intersections, before, "round {round}");
            }
        }
        assert!(sibp_bit && support_bit, "the bans and prev cells must bite");
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
        let view = MultiLevelView::build(&db, &tax);
        let top_cat: Vec<NodeId> = tax
            .node_ids()
            .map(|x| tax.ancestor_at_level(x, 1).unwrap_or(x))
            .collect();
        let mut above = Cell::new();
        above.insert(Itemset::pair(mids[0], mids[1]), info(Label::Positive));
        let mut counter = BitsetCounter::new(&view);
        let mut level = VerticalLevel::new(&mut counter, 2, 1, None);
        let got = vertical(&ctx(&tax, &top_cat), &mut level, &above, None, 2);
        let batch = Batch::union([got]);
        let expect: Vec<(Itemset, u64)> = [(0, 2, 4), (0, 3, 1), (1, 2, 1), (1, 3, 4)]
            .into_iter()
            .map(|(a, b, sup)| (Itemset::pair(kids[a], kids[b]), sup))
            .collect();
        assert_eq!(batch.fused, expect);
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
        let view = MultiLevelView::build(&db, &tax);
        let top_cat: Vec<NodeId> = tax
            .node_ids()
            .map(|x| tax.ancestor_at_level(x, 1).unwrap_or(x))
            .collect();
        let c = ctx(&tax, &top_cat);
        // Q(2,2): the pairs of {a1,b1,c1} and of {a2,b2,c2}, all frequent.
        let mut prev = Cell::new();
        for [x, y, z] in [[a1, b1, c1], [a2, b2, c2]] {
            for (p, q) in [(x, y), (x, z), (y, z)] {
                prev.insert(Itemset::pair(p, q), info(Label::Positive));
            }
        }
        // Q(1,3): the one parent set, alive.
        let mut above = Cell::new();
        above.insert(Itemset::new(tops.clone()), info(Label::Positive));
        let joined = horizontal(&c, &prev, 3);
        let mut counter = BitsetCounter::new(&view);
        let mut level = VerticalLevel::new(&mut counter, 2, 1, None);
        let fused = vertical(&c, &mut level, &above, Some(&prev), 3);
        let both = Itemset::new(vec![a1, b1, c1]);
        let horizontal_only = Itemset::new(vec![a2, b2, c2]);
        assert!(joined.cands.contains(&both) && fused.cands.contains(&both));
        let batch = Batch::union([joined, fused]);
        assert_eq!(
            batch.fused,
            vec![(both, 3), (Itemset::new(vec![a1, b2, c2]), 1)]
        );
        assert_eq!(batch.to_count, vec![horizontal_only]);
    }
}
