//! Transaction databases over taxonomy leaf items.

use crate::itemset::is_sorted_subset;
use flipper_taxonomy::{NodeId, Taxonomy};

/// Errors raised when constructing or validating a [`TransactionDb`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataError {
    /// A transaction contains an item that is not a leaf of the taxonomy.
    NonLeafItem {
        /// Index of the offending transaction.
        txn: usize,
        /// The offending item.
        item: NodeId,
    },
    /// A transaction is empty (carries no information; rejected to keep
    /// statistics honest).
    EmptyTransaction {
        /// Index of the offending transaction.
        txn: usize,
    },
    /// The database itself contains no transactions.
    EmptyDatabase,
    /// More transactions than `u32` transaction ids can number.
    TooManyTransactions {
        /// The most transactions one view can hold.
        limit: usize,
    },
}

impl std::fmt::Display for DataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataError::NonLeafItem { txn, item } => {
                write!(f, "transaction {txn} contains non-leaf item {item}")
            }
            DataError::EmptyTransaction { txn } => write!(f, "transaction {txn} is empty"),
            DataError::EmptyDatabase => write!(f, "database has no transactions"),
            DataError::TooManyTransactions { limit } => {
                write!(f, "more than {limit} transactions")
            }
        }
    }
}

impl std::error::Error for DataError {}

/// An immutable transaction database: every transaction is a sorted,
/// duplicate-free set of taxonomy **leaf** items.
///
/// Construct with [`TransactionDb::new`] (which canonicalizes rows) and
/// optionally validate leaf membership against a taxonomy with
/// [`TransactionDb::validate_against`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransactionDb {
    txns: Vec<Vec<NodeId>>,
}

impl TransactionDb {
    /// Build a database, sorting and deduplicating each transaction.
    ///
    /// # Errors
    /// Rejects empty databases and empty transactions.
    pub fn new(rows: Vec<Vec<NodeId>>) -> Result<Self, DataError> {
        if rows.is_empty() {
            return Err(DataError::EmptyDatabase);
        }
        let mut txns = Vec::with_capacity(rows.len());
        for (i, mut row) in rows.into_iter().enumerate() {
            row.sort_unstable();
            row.dedup();
            if row.is_empty() {
                return Err(DataError::EmptyTransaction { txn: i });
            }
            txns.push(row);
        }
        Ok(TransactionDb { txns })
    }

    /// Check that every item of every transaction is a leaf of `tax`.
    pub fn validate_against(&self, tax: &Taxonomy) -> Result<(), DataError> {
        for (i, txn) in self.txns.iter().enumerate() {
            for &item in txn {
                if item.index() >= tax.node_count()
                    || tax.level_of(item) != tax.height()
                    || !tax.is_leaf(item)
                {
                    return Err(DataError::NonLeafItem { txn: i, item });
                }
            }
        }
        Ok(())
    }

    /// Number of transactions, `N`.
    #[inline]
    pub fn len(&self) -> usize {
        self.txns.len()
    }

    /// True when the database holds no transactions (cannot happen for
    /// successfully constructed values; useful for the `len`/`is_empty`
    /// convention).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.txns.is_empty()
    }

    /// Transaction at `idx` (sorted items).
    #[inline]
    pub fn transaction(&self, idx: usize) -> &[NodeId] {
        &self.txns[idx]
    }

    /// Iterate over all transactions.
    pub fn iter(&self) -> impl Iterator<Item = &[NodeId]> {
        self.txns.iter().map(Vec::as_slice)
    }

    /// Support of the itemset `items` (must be sorted ascending) by a full
    /// scan. This is the reference implementation the optimized counters are
    /// tested against.
    pub fn support_of_sorted(&self, items: &[NodeId]) -> u64 {
        debug_assert!(items.windows(2).all(|w| w[0] < w[1]));
        self.txns
            .iter()
            .filter(|t| is_sorted_subset(items, t))
            .count() as u64
    }

    /// Average transaction width.
    pub fn avg_width(&self) -> f64 {
        let total: usize = self.txns.iter().map(Vec::len).sum();
        total as f64 / self.txns.len() as f64
    }

    /// Maximum transaction width (the paper's bound on the number of columns
    /// of the search table).
    pub fn max_width(&self) -> usize {
        self.txns.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// The distinct items appearing anywhere in the database, sorted.
    pub fn distinct_items(&self) -> Vec<NodeId> {
        let mut all: Vec<NodeId> = self.txns.iter().flatten().copied().collect();
        all.sort_unstable();
        all.dedup();
        all
    }
}

/// A chunk of transactions stored flat: every row's items back to back,
/// plus the end offset of each row. One allocation pair per chunk instead
/// of one `Vec` per row; this is what the FBIN chunk decoder produces.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowChunk {
    items: Vec<NodeId>,
    /// `usize`, not `u32`: only a chunk's row count is bounded by the tid
    /// limit, not its item count.
    ends: Vec<usize>,
}

impl RowChunk {
    /// An empty chunk with room for `rows` rows holding `items` items in
    /// total.
    pub fn with_capacity(rows: usize, items: usize) -> Self {
        RowChunk {
            items: Vec::with_capacity(items),
            ends: Vec::with_capacity(rows),
        }
    }

    /// Append `item` to the row under construction.
    #[inline]
    pub fn push_item(&mut self, item: NodeId) {
        self.items.push(item);
    }

    /// Close the row under construction (possibly empty).
    #[inline]
    pub fn end_row(&mut self) {
        self.ends.push(self.items.len());
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the chunk holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The rows in order, as slices into the flat item buffer.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[NodeId]> + Clone + '_ {
        (0..self.ends.len()).map(move |i| {
            let start = if i == 0 { 0 } else { self.ends[i - 1] };
            &self.items[start..self.ends[i]]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::from_index(i as usize)
    }

    #[test]
    fn canonicalizes_rows() {
        let db = TransactionDb::new(vec![vec![n(3), n(1), n(3)], vec![n(2)]]).unwrap();
        assert_eq!(db.transaction(0), &[n(1), n(3)]);
        assert_eq!(db.len(), 2);
        assert!(!db.is_empty());
    }

    #[test]
    fn rejects_empty_db_and_txn() {
        assert_eq!(
            TransactionDb::new(vec![]).unwrap_err(),
            DataError::EmptyDatabase
        );
        assert_eq!(
            TransactionDb::new(vec![vec![n(1)], vec![]]).unwrap_err(),
            DataError::EmptyTransaction { txn: 1 }
        );
    }

    #[test]
    fn support_by_scan() {
        let db = TransactionDb::new(vec![
            vec![n(1), n(2), n(3)],
            vec![n(1), n(2)],
            vec![n(2), n(3)],
            vec![n(1)],
        ])
        .unwrap();
        assert_eq!(db.support_of_sorted(&[n(1), n(2)]), 2);
        assert_eq!(db.support_of_sorted(&[n(2)]), 3);
        assert_eq!(db.support_of_sorted(&[n(1), n(3)]), 1);
        assert_eq!(db.support_of_sorted(&[n(1), n(2), n(3)]), 1);
        assert_eq!(db.support_of_sorted(&[n(9)]), 0);
        assert_eq!(db.support_of_sorted(&[]), 4);
    }

    #[test]
    fn widths_and_items() {
        let db =
            TransactionDb::new(vec![vec![n(1), n(2), n(3)], vec![n(5)], vec![n(2), n(5)]]).unwrap();
        assert!((db.avg_width() - 2.0).abs() < 1e-12);
        assert_eq!(db.max_width(), 3);
        assert_eq!(db.distinct_items(), vec![n(1), n(2), n(3), n(5)]);
    }

    #[test]
    fn validation_against_taxonomy() {
        let tax = Taxonomy::from_edges([("cat", ""), ("x", "cat"), ("y", "cat")]).unwrap();
        let x = tax.node_by_name("x").unwrap();
        let cat = tax.node_by_name("cat").unwrap();
        let ok = TransactionDb::new(vec![vec![x]]).unwrap();
        assert!(ok.validate_against(&tax).is_ok());
        // An internal node in a transaction is rejected.
        let bad = TransactionDb::new(vec![vec![cat]]).unwrap();
        assert_eq!(
            bad.validate_against(&tax).unwrap_err(),
            DataError::NonLeafItem { txn: 0, item: cat }
        );
        // An out-of-range id is rejected, not a panic.
        let bad = TransactionDb::new(vec![vec![n(99)]]).unwrap();
        assert!(matches!(
            bad.validate_against(&tax).unwrap_err(),
            DataError::NonLeafItem { .. }
        ));
    }

    #[test]
    fn clone_roundtrip() {
        // Cloning exercises the full deep-copy + equality surface.
        let db = TransactionDb::new(vec![vec![n(1), n(2)], vec![n(3)]]).unwrap();
        let back = db.clone();
        assert_eq!(db, back);
    }

    #[test]
    fn error_display() {
        assert!(DataError::EmptyDatabase
            .to_string()
            .contains("no transactions"));
        assert!(DataError::EmptyTransaction { txn: 7 }
            .to_string()
            .contains('7'));
    }
}
