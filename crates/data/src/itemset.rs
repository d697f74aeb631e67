//! Sorted, duplicate-free itemsets and the Apriori-style operations on them.

use flipper_taxonomy::NodeId;
use std::fmt;

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

    /// Whether `self ⊆ other`, both sorted (linear merge).
    pub fn is_subset_of(&self, other: &Itemset) -> bool {
        is_sorted_subset(&self.0, &other.0)
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

    /// Itemset with `item` inserted (no-op clone if already present).
    pub fn with_item(&self, item: NodeId) -> Itemset {
        match self.0.binary_search(&item) {
            Ok(_) => self.clone(),
            Err(pos) => {
                let mut v = self.0.clone();
                v.insert(pos, item);
                Itemset(v)
            }
        }
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
        assert!(s.is_subset_of(&big));
        assert!(!big.is_subset_of(&s));
        assert!(s.is_subset_of(&s));
        assert!(Itemset::new(vec![]).is_subset_of(&s));
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
    fn with_item_inserts_in_place() {
        let s = Itemset::new(vec![n(1), n(5)]);
        assert_eq!(s.with_item(n(3)).items(), &[n(1), n(3), n(5)]);
        assert_eq!(s.with_item(n(5)).items(), &[n(1), n(5)]);
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
    fn ordering_is_lexicographic() {
        let a = Itemset::new(vec![n(1), n(2)]);
        let b = Itemset::new(vec![n(1), n(3)]);
        let c = Itemset::new(vec![n(2)]);
        assert!(a < b);
        assert!(a < c); // n1 < n2 decides before length
    }
}
