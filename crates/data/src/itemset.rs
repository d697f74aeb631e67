//! Sorted, duplicate-free itemsets and the Apriori-style operations on them.

use flipper_taxonomy::NodeId;
use std::fmt;
use std::ops::Range;

/// A set of items (taxonomy nodes), stored sorted and duplicate-free.
///
/// The sorted representation makes equality, hashing, subset tests and the
/// Apriori prefix-join cheap, and gives every itemset a canonical form so
/// result sets are deterministic.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Itemset(Vec<NodeId>);

impl Itemset {
    /// Build from an arbitrary item collection: sorts and deduplicates.
    pub fn new(mut items: Vec<NodeId>) -> Self {
        items.sort_unstable();
        items.dedup();
        Itemset(items)
    }

    /// Build from items already sorted and unique.
    ///
    /// # Panics
    /// Debug-panics if the input is not strictly increasing.
    pub fn from_sorted(items: Vec<NodeId>) -> Self {
        debug_assert!(
            items.windows(2).all(|w| w[0] < w[1]),
            "items must be strictly increasing"
        );
        Itemset(items)
    }

    /// A 1-itemset.
    pub fn single(item: NodeId) -> Self {
        Itemset(vec![item])
    }

    /// A 2-itemset from two distinct items.
    pub fn pair(a: NodeId, b: NodeId) -> Self {
        assert_ne!(a, b, "a pair needs two distinct items");
        if a < b {
            Itemset(vec![a, b])
        } else {
            Itemset(vec![b, a])
        }
    }

    /// Number of items, `k`.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the itemset has no items.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The items, sorted ascending.
    #[inline]
    pub fn items(&self) -> &[NodeId] {
        &self.0
    }

    /// Whether `item` is a member (binary search).
    #[inline]
    pub fn contains(&self, item: NodeId) -> bool {
        self.0.binary_search(&item).is_ok()
    }

    /// The `(k−1)`-subset omitting position `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn without_index(&self, i: usize) -> Itemset {
        let mut v = self.0.clone();
        v.remove(i);
        Itemset(v)
    }

    /// All `(k−1)`-subsets, in omitted-position order.
    pub fn subsets_k_minus_1(&self) -> impl Iterator<Item = Itemset> + '_ {
        (0..self.0.len()).map(|i| self.without_index(i))
    }

    /// Apriori prefix join: if `self` and `other` are k-itemsets sharing
    /// their first `k−1` items, returns the `(k+1)`-itemset uniting them.
    ///
    /// Both inputs must have equal length ≥ 1. Returns `None` when the
    /// prefixes differ or the last items are equal.
    pub fn apriori_join(&self, other: &Itemset) -> Option<Itemset> {
        let k = self.0.len();
        if k == 0 || other.0.len() != k {
            return None;
        }
        if self.0[..k - 1] != other.0[..k - 1] {
            return None;
        }
        let (a, b) = (self.0[k - 1], other.0[k - 1]);
        if a == b {
            return None;
        }
        let mut v = self.0.clone();
        if a < b {
            v.push(b);
        } else {
            v.insert(k - 1, b);
        }
        Some(Itemset(v))
    }

    /// Map each item through `f`, re-canonicalizing (useful for
    /// generalization: items may collapse, shrinking the set).
    pub fn map<F: FnMut(NodeId) -> NodeId>(&self, f: F) -> Itemset {
        Itemset::new(self.0.iter().copied().map(f).collect())
    }

    /// Render with node names from `tax`, e.g. `{beer, diapers}`.
    pub fn display<'a>(&'a self, tax: &'a flipper_taxonomy::Taxonomy) -> DisplayItemset<'a> {
        DisplayItemset { set: self, tax }
    }
}

impl FromIterator<NodeId> for Itemset {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        Itemset::new(iter.into_iter().collect())
    }
}

impl fmt::Display for Itemset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, item) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{item}")?;
        }
        f.write_str("}")
    }
}

/// Named rendering of an itemset (see [`Itemset::display`]).
pub struct DisplayItemset<'a> {
    set: &'a Itemset,
    tax: &'a flipper_taxonomy::Taxonomy,
}

impl fmt::Display for DisplayItemset<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, &item) in self.set.items().iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            f.write_str(self.tax.name(item))?;
        }
        f.write_str("}")
    }
}

/// Fixed-stride itemset rows: row `i` is `items[i·k .. (i+1)·k]`.
///
/// One allocation holds a whole candidate batch or search-table cell of
/// `k`-itemsets, so a stored itemset costs its `k` items and nothing else:
/// no heap block and no vector header per itemset (the candidate layout of
/// Bodon, "A fast APRIORI implementation", FIMI 2003). Each row is a sorted
/// itemset, and rows compare as slices, so they order exactly like the
/// matching [`Itemset`]s. [`Self::binary_search`] and
/// [`Self::merge_with`] need ascending rows; nothing checks that.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemsetRows {
    k: usize,
    items: Vec<NodeId>,
}

impl ItemsetRows {
    /// Empty table of `k`-item rows.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        Self::with_capacity(k, 0)
    }

    /// Empty table of `k`-item rows with room for `rows` rows.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn with_capacity(k: usize, rows: usize) -> Self {
        assert!(k >= 1, "a row needs at least one item");
        ItemsetRows {
            k,
            items: Vec::with_capacity(k * rows),
        }
    }

    /// Items per row.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len() / self.k
    }

    /// True if the table has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Row `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn row(&self, i: usize) -> &[NodeId] {
        &self.items[i * self.k..(i + 1) * self.k]
    }

    /// The rows in order.
    pub fn iter(&self) -> std::slice::ChunksExact<'_, NodeId> {
        self.items.chunks_exact(self.k)
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if `row` does not hold exactly `k` items.
    #[inline]
    pub fn push(&mut self, row: &[NodeId]) {
        assert_eq!(row.len(), self.k, "row width");
        self.items.extend_from_slice(row);
    }

    /// Merge the ascending rows of `other`, none of which `self` holds, into
    /// `self`'s ascending rows, carrying one value per row along: `vals[i]`
    /// belongs to row `i` of `self`, `other_vals[j]` to row `j` of `other`.
    ///
    /// The merge runs back to front in place, so a row of `self` moves at
    /// most once and the rows before `other`'s first row not at all; with
    /// `other` empty nothing is copied, and with `self` empty `other` is
    /// adopted whole. A table created with room for `other`'s rows is not
    /// reallocated. The table is left without spare capacity.
    ///
    /// # Panics
    /// Panics if the widths differ or a value column's length is not its
    /// table's row count.
    pub fn merge_with<T: Copy>(
        &mut self,
        vals: &mut Vec<T>,
        other: ItemsetRows,
        other_vals: Vec<T>,
    ) {
        let (k, n, m) = (self.k, self.len(), other.len());
        assert_eq!(other.k, k, "row width");
        assert!(
            vals.len() == n && other_vals.len() == m,
            "one value per row"
        );
        if n == 0 {
            *self = other;
            *vals = other_vals;
        } else if m > 0 {
            self.items.reserve_exact(m * k);
            self.items.resize((n + m) * k, NodeId::ROOT);
            vals.resize(n + m, other_vals[0]);
            let (mut a, mut b) = (n, m);
            while b > 0 {
                let to = a + b - 1;
                let theirs = other.row(b - 1);
                debug_assert_ne!(a.checked_sub(1).map(|i| self.row(i)), Some(theirs));
                if a > 0 && self.row(a - 1) > theirs {
                    a -= 1;
                    self.items.copy_within(a * k..(a + 1) * k, to * k);
                    vals[to] = vals[a];
                } else {
                    b -= 1;
                    self.items[to * k..(to + 1) * k].copy_from_slice(theirs);
                    vals[to] = other_vals[b];
                }
            }
        }
        self.items.shrink_to_fit();
    }

    /// Binary search for `row` in ascending rows: `Ok` with its index, or
    /// `Err` with the index where it would be inserted. A probe of the
    /// wrong width is never found.
    pub fn binary_search(&self, row: &[NodeId]) -> Result<usize, usize> {
        let i = self.partition_point(|r| r < row);
        if i < self.len() && self.row(i) == row {
            Ok(i)
        } else {
            Err(i)
        }
    }

    /// First row index at which `pred` turns false; the rows must be
    /// partitioned by it.
    fn partition_point(&self, pred: impl Fn(&[NodeId]) -> bool) -> usize {
        let (mut lo, mut hi) = (0, self.len());
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

    /// Whether rows `a` and `b` belong to one prefix group: `k ≥ 2` and the
    /// same first `k − 1` items.
    #[inline]
    pub(crate) fn same_prefix(&self, a: usize, b: usize) -> bool {
        let p = self.k - 1;
        p > 0 && self.row(a)[..p] == self.row(b)[..p]
    }

    /// Split the rows `within` into maximal runs of adjacent rows that share
    /// their first `k − 1` items; with `k = 1` every row is its own group.
    /// In ascending rows, the runs are exactly the prefix groups.
    pub fn prefix_groups(&self, within: Range<usize>) -> impl Iterator<Item = Range<usize>> + '_ {
        let mut start = within.start;
        std::iter::from_fn(move || {
            if start >= within.end {
                return None;
            }
            let mut end = start + 1;
            while end < within.end && self.same_prefix(end - 1, end) {
                end += 1;
            }
            let group = start..end;
            start = end;
            Some(group)
        })
    }
}

impl<'a> Extend<&'a [NodeId]> for ItemsetRows {
    /// Append every row of `rows` ([`Self::push`]).
    fn extend<I: IntoIterator<Item = &'a [NodeId]>>(&mut self, rows: I) {
        for row in rows {
            self.push(row);
        }
    }
}

/// Subset test on two sorted slices.
pub(crate) fn is_sorted_subset(sub: &[NodeId], sup: &[NodeId]) -> bool {
    if sub.len() > sup.len() {
        return false;
    }
    let mut j = 0;
    for &x in sub {
        loop {
            if j == sup.len() {
                return false;
            }
            match sup[j].cmp(&x) {
                std::cmp::Ordering::Less => j += 1,
                std::cmp::Ordering::Equal => {
                    j += 1;
                    break;
                }
                std::cmp::Ordering::Greater => return false,
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::from_index(i as usize)
    }

    #[test]
    fn new_sorts_and_dedups() {
        let s = Itemset::new(vec![n(3), n(1), n(3), n(2)]);
        assert_eq!(s.items(), &[n(1), n(2), n(3)]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn pair_orders_and_rejects_equal() {
        assert_eq!(Itemset::pair(n(5), n(2)).items(), &[n(2), n(5)]);
        let r = std::panic::catch_unwind(|| Itemset::pair(n(5), n(5)));
        assert!(r.is_err());
    }

    #[test]
    fn contains_and_subset() {
        let s = Itemset::new(vec![n(1), n(3), n(5)]);
        assert!(s.contains(n(3)));
        assert!(!s.contains(n(2)));
        let big = Itemset::new(vec![n(1), n(2), n(3), n(4), n(5)]);
        assert!(is_sorted_subset(s.items(), big.items()));
        assert!(!is_sorted_subset(big.items(), s.items()));
        assert!(is_sorted_subset(s.items(), s.items()));
        assert!(is_sorted_subset(&[], s.items()));
    }

    #[test]
    fn k_minus_1_subsets() {
        let s = Itemset::new(vec![n(1), n(2), n(3)]);
        let subs: Vec<Itemset> = s.subsets_k_minus_1().collect();
        assert_eq!(subs.len(), 3);
        assert!(subs.contains(&Itemset::new(vec![n(2), n(3)])));
        assert!(subs.contains(&Itemset::new(vec![n(1), n(3)])));
        assert!(subs.contains(&Itemset::new(vec![n(1), n(2)])));
    }

    #[test]
    fn apriori_join_rules() {
        let ab = Itemset::new(vec![n(1), n(2)]);
        let ac = Itemset::new(vec![n(1), n(3)]);
        let bc = Itemset::new(vec![n(2), n(3)]);
        assert_eq!(ab.apriori_join(&ac).unwrap().items(), &[n(1), n(2), n(3)]);
        // Reversed order still canonical.
        assert_eq!(ac.apriori_join(&ab).unwrap().items(), &[n(1), n(2), n(3)]);
        // Different prefixes don't join.
        assert!(ab.apriori_join(&bc).is_none());
        // Identical last items don't join.
        assert!(ab.apriori_join(&ab).is_none());
        // Length mismatch.
        assert!(ab.apriori_join(&Itemset::single(n(9))).is_none());
    }

    #[test]
    fn map_collapses_duplicates() {
        // Generalizing sibling leaves to a shared parent shrinks the set.
        let s = Itemset::new(vec![n(10), n(11)]);
        let g = s.map(|_| n(2));
        assert_eq!(g.items(), &[n(2)]);
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn display_plain() {
        let s = Itemset::new(vec![n(1), n(2)]);
        assert_eq!(s.to_string(), "{n1, n2}");
    }

    #[test]
    fn from_iterator() {
        let s: Itemset = [n(4), n(1), n(4)].into_iter().collect();
        assert_eq!(s.items(), &[n(1), n(4)]);
    }

    #[test]
    fn rows_probe_by_prefix() {
        let mut rows = ItemsetRows::new(2);
        for (a, b) in [(1, 2), (1, 5), (2, 3), (2, 4), (2, 9), (7, 8)] {
            rows.push(&[n(a), n(b)]);
        }
        assert_eq!(rows.len(), 6);
        let groups: Vec<_> = rows.prefix_groups(0..rows.len()).collect();
        assert_eq!(groups, vec![0..2, 2..5, 5..6]);
        let groups: Vec<_> = rows.prefix_groups(1..4).collect();
        assert_eq!(groups, vec![1..2, 2..4], "groups stay inside the range");
        assert_eq!(rows.binary_search(&[n(2), n(4)]), Ok(3));
        assert_eq!(rows.binary_search(&[n(2), n(5)]), Err(4));
        assert_eq!(rows.binary_search(&[n(2)]), Err(2), "a prefix is not a row");
        assert_eq!(
            rows.binary_search(&[n(2), n(4), n(5)]),
            Err(4),
            "nor a wider probe"
        );
    }

    #[test]
    fn rows_push_and_iterate() {
        let mut rows = ItemsetRows::with_capacity(3, 2);
        assert!(rows.is_empty());
        rows.extend([&[n(1), n(2), n(3)][..], &[n(1), n(2), n(4)]]);
        rows.push(&[n(1), n(4), n(5)]);
        rows.push(&[n(2), n(3), n(4)]);
        let got: Vec<&[NodeId]> = rows.iter().collect();
        assert_eq!(
            got,
            vec![
                &[n(1), n(2), n(3)][..],
                &[n(1), n(2), n(4)],
                &[n(1), n(4), n(5)],
                &[n(2), n(3), n(4)]
            ]
        );
        assert_eq!((rows.k(), rows.len()), (3, 4));
        assert!(rows.same_prefix(0, 1) && !rows.same_prefix(1, 2));
        // Singletons never share a prefix.
        let mut singles = ItemsetRows::new(1);
        singles.extend([&[n(1)][..], &[n(1)], &[n(2)]]);
        assert_eq!(singles.prefix_groups(0..3).count(), 3);
        assert_eq!(singles.prefix_groups(0..0).count(), 0);
        let wrong = std::panic::catch_unwind(|| ItemsetRows::new(2).push(&[n(1)]));
        assert!(wrong.is_err(), "a row of the wrong width is rejected");
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a = Itemset::new(vec![n(1), n(2)]);
        let b = Itemset::new(vec![n(1), n(3)]);
        let c = Itemset::new(vec![n(2)]);
        assert!(a < b);
        assert!(a < c); // n1 < n2 decides before length
    }
}
