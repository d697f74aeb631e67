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
//! [`mine_with_view`] is the one mining call. It takes the database
//! projected through the taxonomy to every level (a
//! [`MultiLevelView`](flipper_data::MultiLevelView)), the
//! [`VerticalMemo`](flipper_data::VerticalMemo) the run reads and records,
//! and an optional [`CancelToken`](flipper_guard::CancelToken).
//! [`topk::top_k_with_view`] searches thresholds through it. Applications mine through
//! `flipper_api::Session`, which owns the view and the memo.
//!
//! ```
//! use flipper_core::{mine_with_view, FlipperConfig, MinSupports};
//! use flipper_measures::Thresholds;
//! use flipper_taxonomy::Taxonomy;
//! use flipper_data::{MultiLevelView, TransactionDb, VerticalMemo};
//!
//! // Two categories, two leaves each.
//! let tax = Taxonomy::from_edges(
//!     [("food", ""), ("drink", ""),
//!      ("bread", "food"), ("cheese", "food"),
//!      ("beer", "drink"), ("milk", "drink")]).unwrap();
//! let g = |s: &str| tax.node_by_name(s).unwrap();
//! // bread+beer always together; cheese+milk never; categories uncorrelated.
//! let db = TransactionDb::new(vec![
//!     vec![g("bread"), g("beer")], vec![g("bread"), g("beer")],
//!     vec![g("cheese")], vec![g("milk")],
//!     vec![g("cheese")], vec![g("milk")],
//! ]).unwrap();
//!
//! // A row holding a non-leaf item is a typed error, not a panic.
//! let view = MultiLevelView::build(&db, &tax)?;
//! let cfg = FlipperConfig::new(Thresholds::new(0.9, 0.4), MinSupports::Counts(vec![1]));
//! let result = mine_with_view(&tax, &view, &cfg, &VerticalMemo::new(), None)?;
//! for p in &result.patterns {
//!     println!("{}", p.display(&tax));
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod cell;
mod config;
mod gen;
mod miner;
#[cfg(test)]
mod miner_proptests;
mod results;
mod stats;
pub mod topk;
pub mod verify;

pub use config::{ConfigError, FlipperConfig, MinSupports, PruningConfig};
pub use miner::mine_with_view;
pub use results::{CellSummary, ChainError, ChainLevel, FlippingPattern, MiningResult};
pub use stats::RunStats;
