//! Descriptive statistics of transaction databases — used by the CLI's
//! `stats` subcommand and by experiment reports.

use crate::projection::MultiLevelView;
use crate::transaction::TransactionDb;
use flipper_taxonomy::NodeId;
use std::collections::HashMap;

/// Summary statistics of a database (optionally cross-referenced with its
/// taxonomy).
#[derive(Debug, Clone, PartialEq)]
pub struct DbStats {
    /// Number of transactions `N`.
    pub num_transactions: usize,
    /// Number of distinct leaf items appearing in the data.
    pub distinct_items: usize,
    /// Mean transaction width.
    pub avg_width: f64,
    /// Maximum transaction width.
    pub max_width: usize,
    /// Minimum transaction width.
    pub min_width: usize,
    /// Density: avg width divided by distinct item count.
    pub density: f64,
    /// Support of the most frequent item.
    pub max_item_support: u64,
    /// Support of the least frequent (but present) item.
    pub min_item_support: u64,
    /// Median item support.
    pub median_item_support: u64,
}

impl DbStats {
    /// Compute statistics for `db`.
    pub fn compute(db: &TransactionDb) -> Self {
        let mut support: HashMap<NodeId, u64> = HashMap::new();
        let mut min_width = usize::MAX;
        let mut max_width = 0usize;
        let mut total = 0usize;
        for txn in db.iter() {
            min_width = min_width.min(txn.len());
            max_width = max_width.max(txn.len());
            total += txn.len();
            for &it in txn {
                *support.entry(it).or_insert(0) += 1;
            }
        }
        let mut sups: Vec<u64> = support.values().copied().collect();
        sups.sort_unstable();
        let distinct = sups.len();
        DbStats {
            num_transactions: db.len(),
            distinct_items: distinct,
            avg_width: total as f64 / db.len() as f64,
            max_width,
            min_width,
            density: (total as f64 / db.len() as f64) / distinct.max(1) as f64,
            max_item_support: sups.last().copied().unwrap_or(0),
            min_item_support: sups.first().copied().unwrap_or(0),
            median_item_support: sups.get(distinct / 2).copied().unwrap_or(0),
        }
    }

    /// Render a compact multi-line report.
    pub fn report(&self) -> String {
        format!(
            "transactions: {}\ndistinct items: {}\nwidth avg/min/max: {:.2}/{}/{}\n\
             density: {:.5}\nitem support min/median/max: {}/{}/{}",
            self.num_transactions,
            self.distinct_items,
            self.avg_width,
            self.min_width,
            self.max_width,
            self.density,
            self.min_item_support,
            self.median_item_support,
            self.max_item_support,
        )
    }
}

/// Per-level item-support distribution of a database under a taxonomy —
/// the data behind the paper's advice to use level-wise minimum supports.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelStats {
    /// Abstraction level.
    pub level: usize,
    /// Number of distinct nodes present at this level.
    pub distinct_nodes: usize,
    /// Mean relative support (fraction of N) of present nodes.
    pub mean_rel_support: f64,
    /// Max relative support.
    pub max_rel_support: f64,
}

/// Compute [`LevelStats`] for each level `1..=height` of `view`.
pub fn level_stats(view: &MultiLevelView) -> Vec<LevelStats> {
    let n = view.num_transactions() as f64;
    (1..=view.height())
        .map(|h| {
            let lv = view.level(h);
            let sups: Vec<u64> = lv
                .present_items()
                .iter()
                .map(|&it| lv.item_support(it))
                .collect();
            let distinct = sups.len();
            let mean = sups.iter().sum::<u64>() as f64 / distinct.max(1) as f64 / n;
            let max = sups.iter().copied().max().unwrap_or(0) as f64 / n;
            LevelStats {
                level: h,
                distinct_nodes: distinct,
                mean_rel_support: mean,
                max_rel_support: max,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flipper_taxonomy::Taxonomy;

    fn n(i: u32) -> NodeId {
        NodeId::from_index(i as usize)
    }

    #[test]
    fn stats_on_small_db() {
        let db =
            TransactionDb::new(vec![vec![n(1), n(2), n(3)], vec![n(1), n(2)], vec![n(1)]]).unwrap();
        let s = DbStats::compute(&db);
        assert_eq!(s.num_transactions, 3);
        assert_eq!(s.distinct_items, 3);
        assert_eq!(s.max_width, 3);
        assert_eq!(s.min_width, 1);
        assert!((s.avg_width - 2.0).abs() < 1e-12);
        assert_eq!(s.max_item_support, 3); // item 1
        assert_eq!(s.min_item_support, 1); // item 3
        assert_eq!(s.median_item_support, 2); // item 2
        assert!((s.density - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn report_contains_key_numbers() {
        let db = TransactionDb::new(vec![vec![n(1)], vec![n(1), n(2)]]).unwrap();
        let r = DbStats::compute(&db).report();
        assert!(r.contains("transactions: 2"));
        assert!(r.contains("distinct items: 2"));
    }

    #[test]
    fn level_stats_shrink_with_depth() {
        // Deeper levels have more distinct nodes and lower mean support —
        // the premise behind decreasing per-level minimum supports.
        let tax = Taxonomy::uniform(2, 3, 2).unwrap();
        let leaves = tax.leaves().to_vec();
        let rows: Vec<Vec<NodeId>> = (0..30)
            .map(|i| vec![leaves[i % leaves.len()], leaves[(i + 1) % leaves.len()]])
            .collect();
        let db = TransactionDb::new(rows).unwrap();
        let ls = level_stats(&MultiLevelView::build(&db, &tax).unwrap());
        assert_eq!(ls.len(), 2);
        assert!(ls[0].distinct_nodes <= ls[1].distinct_nodes);
        assert!(ls[0].mean_rel_support >= ls[1].mean_rel_support);
        assert!(ls[0].level == 1 && ls[1].level == 2);
    }

    #[test]
    fn level_stats_respects_rebalanced_trees() {
        let tax =
            Taxonomy::from_edges([("a", ""), ("deep", "a"), ("leaf", "deep"), ("b", "")]).unwrap();
        let leaf = tax.node_by_name("leaf").unwrap();
        let b_leaf = tax.node_by_name("b#2").unwrap(); // b padded twice
        let db = TransactionDb::new(vec![vec![leaf, b_leaf], vec![leaf]]).unwrap();
        db.validate_against(&tax).unwrap();
        let ls = level_stats(&MultiLevelView::build(&db, &tax).unwrap());
        assert_eq!(ls.len(), 3);
        assert_eq!(ls[0].distinct_nodes, 2); // a and b
    }
}
