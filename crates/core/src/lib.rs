//! # flipper-core
//!
//! The **Flipper** algorithm of Barsky, Kim, Weninger & Han, *Mining
//! Flipping Correlations from Large Datasets with Taxonomies* (PVLDB 5(4),
//! 2011): direct mining of *flipping correlation patterns* — itemsets whose
//! correlation alternates between positive and negative as the items are
//! generalized level by level through a taxonomy.
//!
//! The miner explores the two-dimensional search table `M[h][k]`
//! (abstraction level × itemset size) with four cumulative pruning stages,
//! matching the paper's benchmarked variants:
//!
//! 1. [`PruningConfig::BASIC`] — support-only level-wise Apriori
//!    (the baseline: mine every frequent itemset, post-filter flips);
//! 2. [`PruningConfig::FLIPPING`] — chain-broken itemsets are never
//!    extended vertically (§4.2.2);
//! 3. [`PruningConfig::FLIPPING_TPG`] — plus termination of pattern growth
//!    (Theorem 3);
//! 4. [`PruningConfig::FULL`] — plus single-item-based pruning
//!    (Theorem 2 / Corollary 2).
//!
//! ```
//! use flipper_core::{mine, FlipperConfig, MinSupports};
//! use flipper_measures::Thresholds;
//! use flipper_taxonomy::{Taxonomy, RebalancePolicy};
//! use flipper_data::TransactionDb;
//!
//! // Two categories, two leaves each.
//! let tax = Taxonomy::from_edges(
//!     [("food", ""), ("drink", ""),
//!      ("bread", "food"), ("cheese", "food"),
//!      ("beer", "drink"), ("milk", "drink")],
//!     RebalancePolicy::RequireBalanced).unwrap();
//! let g = |s: &str| tax.node_by_name(s).unwrap();
//! // bread+beer always together; cheese+milk never; categories uncorrelated.
//! let db = TransactionDb::new(vec![
//!     vec![g("bread"), g("beer")], vec![g("bread"), g("beer")],
//!     vec![g("cheese")], vec![g("milk")],
//!     vec![g("cheese")], vec![g("milk")],
//! ]).unwrap();
//!
//! let cfg = FlipperConfig::new(Thresholds::new(0.9, 0.4), MinSupports::Counts(vec![1]));
//! let result = mine(&tax, &db, &cfg);
//! for p in &result.patterns {
//!     println!("{}", p.display(&tax));
//! }
//! ```

mod cell;
mod config;
mod gen;
mod miner;
#[cfg(test)]
mod miner_proptests;
pub mod ranking;
mod results;
pub mod stability;
mod stats;
pub mod topk;
pub mod verify;

pub use cell::{Cell, ItemsetInfo};
pub use config::{ConfigError, FlipperConfig, MinSupports, PruningConfig};
pub use miner::{mine, mine_with_view, mine_with_view_guarded, mine_with_view_seeded};
pub use results::{CellSummary, ChainError, ChainLevel, FlippingPattern, MiningResult};
pub use stats::RunStats;
