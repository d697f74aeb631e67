//! Cells of the two-dimensional search-space table `M` (Fig. 6 of the
//! paper): each cell `Q(h,k)` holds the evaluated `(h,k)`-itemsets.
//!
//! A cell is flat: one fixed-stride items table ([`ItemsetRows`], `k`
//! items per row) and a parallel [`ItemsetInfo`] array, so storing an
//! evaluated itemset costs `4k` bytes of items plus its info, and no heap
//! allocation of its own. Rows are kept ascending, so iteration order —
//! and therefore everything downstream that walks a cell, up to the
//! `flipper-results/v1` bytes — is deterministic by construction, and a
//! probe ([`Cell::get_items`]) is a binary search over the rows. The miner
//! evaluates candidates in ascending order (every source emits its rows
//! ascending and distinct) into one table, and the cell adopts that table
//! as its rows ([`Cell::adopt`]) instead of copying them.

use flipper_data::ItemsetRows;
use flipper_measures::Label;
use flipper_taxonomy::NodeId;

/// Everything known about one evaluated `(h,k)`-itemset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ItemsetInfo {
    /// Support in the level-`h` projection.
    pub support: u64,
    /// Correlation value under the configured measure (0 for infrequent
    /// itemsets whose correlation is never consulted).
    pub corr: f64,
    /// Label under Definition 1.
    pub label: Label,
    /// Whether the flipping chain from level 1 down to this itemset is
    /// unbroken: every ancestor slice is frequent, correlated, and the
    /// labels alternate. Level-1 itemsets are alive iff correlated.
    pub chain_alive: bool,
}

/// One cell `Q(h,k)` of the search table. Its rows are the table its
/// candidates were counted in, adopted whole, with no spare capacity.
#[derive(Debug, Clone)]
pub(crate) struct Cell {
    /// Ascending and distinct.
    rows: ItemsetRows,
    /// `infos[i]` describes row `i`.
    infos: Vec<ItemsetInfo>,
}

impl Cell {
    /// Empty cell of `k`-itemsets.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    #[cfg(test)]
    pub fn new(k: usize) -> Self {
        Cell::adopt(ItemsetRows::new(k), Vec::new())
    }

    /// The cell of the evaluated `rows`, ascending and distinct, taking the
    /// table as it is: `infos[i]` describes row `i`.
    ///
    /// # Panics
    /// Panics if `infos` does not hold one info per row. Debug builds also
    /// check that the rows are strictly ascending.
    pub(crate) fn adopt(rows: ItemsetRows, infos: Vec<ItemsetInfo>) -> Self {
        assert_eq!(rows.len(), infos.len(), "one info per row");
        debug_assert!(
            (1..rows.len()).all(|i| rows.row(i - 1) < rows.row(i)),
            "rows are not strictly ascending"
        );
        Cell { rows, infos }
    }

    /// Items per itemset.
    pub fn k(&self) -> usize {
        self.rows.k()
    }

    /// Number of evaluated itemsets (frequent or not).
    pub fn len(&self) -> usize {
        self.infos.len()
    }

    /// Whether the cell holds no itemsets.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.infos.is_empty()
    }

    /// The itemsets, one ascending row each.
    pub(crate) fn rows(&self) -> &ItemsetRows {
        &self.rows
    }

    /// The info of row `i`.
    pub(crate) fn info(&self, i: usize) -> &ItemsetInfo {
        &self.infos[i]
    }

    /// Append an evaluated itemset, given as its sorted items, after every
    /// row the cell holds.
    ///
    /// # Panics
    /// Panics if `items` does not hold exactly `k` items. Debug builds also
    /// check that `items` is strictly increasing and above the last row.
    #[cfg(test)]
    pub(crate) fn push(&mut self, items: &[NodeId], info: ItemsetInfo) {
        debug_assert!(
            items.windows(2).all(|w| w[0] < w[1]),
            "row {items:?} is not strictly increasing"
        );
        debug_assert!(
            self.is_empty() || self.rows.row(self.len() - 1) < items,
            "row {items:?} does not come after the cell's last row"
        );
        self.rows.push(items);
        self.infos.push(info);
    }

    /// Look up an itemset given as its sorted items. A probe of the wrong
    /// width, such as a prefix of a row, is never found.
    pub fn get_items(&self, items: &[NodeId]) -> Option<&ItemsetInfo> {
        if items.len() != self.k() {
            return None;
        }
        self.rows.binary_search(items).ok().map(|i| &self.infos[i])
    }

    /// Iterate `(items, info)` pairs in ascending itemset order.
    pub fn iter(&self) -> impl Iterator<Item = (&[NodeId], &ItemsetInfo)> {
        self.rows.iter().zip(&self.infos)
    }

    /// Iterate itemsets with `support ≥ θ` (label ≠ infrequent).
    pub fn frequent(&self) -> impl Iterator<Item = (&[NodeId], &ItemsetInfo)> {
        self.iter().filter(|(_, i)| i.label != Label::Infrequent)
    }

    /// Iterate chain-alive itemsets — the ones extended vertically.
    pub fn alive(&self) -> impl Iterator<Item = (&[NodeId], &ItemsetInfo)> {
        self.iter().filter(|(_, i)| i.chain_alive)
    }

    /// Whether no itemset in this cell is labeled positive — the TPG
    /// condition of Theorem 3. Vacuously true for empty cells.
    pub fn all_non_positive(&self) -> bool {
        self.infos.iter().all(|i| i.label != Label::Positive)
    }

    /// Count of itemsets per label `(positive, negative, non-correlated,
    /// infrequent)`.
    #[cfg(test)]
    pub fn label_counts(&self) -> (usize, usize, usize, usize) {
        let mut counts = (0, 0, 0, 0);
        for info in &self.infos {
            match info.label {
                Label::Positive => counts.0 += 1,
                Label::Negative => counts.1 += 1,
                Label::NonCorrelated => counts.2 += 1,
                Label::Infrequent => counts.3 += 1,
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flipper_data::rng::{Rng, Xoshiro256pp};
    use std::collections::BTreeMap;

    fn n(i: u32) -> NodeId {
        NodeId::from_index(i as usize)
    }

    fn info(label: Label, alive: bool) -> ItemsetInfo {
        ItemsetInfo {
            support: 10,
            corr: 0.5,
            label,
            chain_alive: alive,
        }
    }

    #[test]
    fn insert_get_len() {
        let mut c = Cell::new(2);
        assert!(c.is_empty());
        c.push(&[n(1), n(2)], info(Label::Positive, true));
        assert_eq!((c.len(), c.k()), (1, 2));
        assert_eq!(c.get_items(&[n(1), n(2)]).unwrap().label, Label::Positive);
        assert!(c.get_items(&[n(1), n(3)]).is_none());
        assert!(c.get_items(&[n(1)]).is_none(), "a prefix is not a member");
        assert!(
            c.get_items(&[n(1), n(2), n(3)]).is_none(),
            "nor a wider row"
        );
        assert!(c.get_items(&[]).is_none());
    }

    #[test]
    fn filtered_iterators() {
        let mut c = Cell::new(2);
        c.push(&[n(1), n(2)], info(Label::Positive, true));
        c.push(&[n(1), n(3)], info(Label::Negative, false));
        c.push(&[n(2), n(3)], info(Label::Infrequent, false));
        c.push(&[n(2), n(4)], info(Label::NonCorrelated, false));
        assert_eq!(c.frequent().count(), 3);
        assert_eq!(c.alive().count(), 1);
        assert_eq!(c.label_counts(), (1, 1, 1, 1));
        assert!(!c.all_non_positive());
    }

    #[test]
    fn tpg_condition() {
        let mut c = Cell::new(2);
        assert!(c.all_non_positive(), "vacuously true when empty");
        c.push(&[n(1), n(2)], info(Label::Negative, true));
        c.push(&[n(1), n(3)], info(Label::Infrequent, false));
        assert!(c.all_non_positive());
        c.push(&[n(2), n(3)], info(Label::Positive, true));
        assert!(!c.all_non_positive());
    }

    /// The flat cell against an ordered-map reference on seeded random
    /// rows at `k = 1..=4`, the cell holding the reference's rows pushed in
    /// order: the same rows in the same ascending order, the same lookups
    /// (present, absent, a prefix, the wrong width), filters, label counts
    /// and TPG condition.
    #[test]
    fn matches_a_map_reference_on_random_inserts() {
        const LABELS: [Label; 4] = [
            Label::Positive,
            Label::Negative,
            Label::NonCorrelated,
            Label::Infrequent,
        ];
        let mut rng = Xoshiro256pp::seed_from_u64(23);
        for round in 0..64u64 {
            let k = 1 + (round % 4) as usize;
            let universe = 4 + (round % 5) as u32 * 2;
            let random_row = |rng: &mut Xoshiro256pp| loop {
                let mut row: Vec<NodeId> = (0..k).map(|_| n(rng.gen_range(0..universe))).collect();
                row.sort_unstable();
                row.dedup();
                if row.len() == k {
                    return row;
                }
            };
            let mut reference: BTreeMap<Vec<NodeId>, ItemsetInfo> = BTreeMap::new();
            for step in 0..(8 + round * 3) {
                let row = random_row(&mut rng);
                let label = LABELS[rng.gen_range(0..4usize)];
                let got = ItemsetInfo {
                    support: step,
                    corr: step as f64 / 100.0,
                    label,
                    chain_alive: label.is_correlated() && rng.gen_range(0..2u32) == 0,
                };
                reference.insert(row, got);
            }
            let mut cell = Cell::new(k);
            for (row, info) in &reference {
                cell.push(row, *info);
            }
            let ctx = format!("round {round} k={k}");
            assert_eq!(cell.len(), reference.len(), "{ctx}");
            let rows: Vec<(&[NodeId], &ItemsetInfo)> = cell.iter().collect();
            let expect: Vec<(&[NodeId], &ItemsetInfo)> =
                reference.iter().map(|(r, i)| (r.as_slice(), i)).collect();
            assert_eq!(rows, expect, "{ctx}: ascending rows");
            let frequent: Vec<_> = cell.frequent().collect();
            let expect_frequent: Vec<_> = expect
                .iter()
                .copied()
                .filter(|(_, i)| i.label != Label::Infrequent)
                .collect();
            assert_eq!(frequent, expect_frequent, "{ctx}: frequent");
            let alive: Vec<_> = cell.alive().collect();
            let expect_alive: Vec<_> = expect
                .iter()
                .copied()
                .filter(|(_, i)| i.chain_alive)
                .collect();
            assert_eq!(alive, expect_alive, "{ctx}: alive");
            let count = |l: Label| reference.values().filter(|i| i.label == l).count();
            assert_eq!(
                cell.label_counts(),
                (
                    count(Label::Positive),
                    count(Label::Negative),
                    count(Label::NonCorrelated),
                    count(Label::Infrequent)
                ),
                "{ctx}: label counts"
            );
            assert_eq!(
                cell.all_non_positive(),
                count(Label::Positive) == 0,
                "{ctx}: TPG condition"
            );
            for _ in 0..16 {
                let probe = random_row(&mut rng);
                assert_eq!(cell.get_items(&probe), reference.get(&probe), "{ctx}");
                assert_eq!(cell.get_items(&probe[..k - 1]), None, "{ctx}: a prefix");
                let mut wide = probe.clone();
                wide.push(n(universe));
                assert_eq!(cell.get_items(&wide), None, "{ctx}: too wide");
            }
        }
    }
}
