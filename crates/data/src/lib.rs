//! # flipper-data
//!
//! Transaction databases, multi-level taxonomy projections and support
//! counting for flipping-correlation mining (Barsky et al., PVLDB 5(4),
//! 2011).
//!
//! The mining algorithm evaluates `(h, k)`-itemsets: `k`-itemsets whose
//! items have been generalized to taxonomy level `h`. This crate supplies
//! everything below the algorithm:
//!
//! * [`Itemset`] — canonical sorted itemsets with Apriori joins;
//! * [`TransactionDb`] — validated, canonicalized transactions over leaves;
//!   [`RowChunk`] — a chunk of rows stored flat, as the FBIN reader decodes
//!   them;
//! * [`MultiLevelView`] — the database projected to every abstraction level,
//!   as per-item supports and tid-lists;
//! * [`BitsetCounter`] — the support-counting kernel: hybrid
//!   bitmap/tid-list prefix-group counting of sorted candidate batches;
//! * [`mod@exec`] — dependency-free scoped-thread sharding;
//!   [`BitsetCounter::count_batch`] counts a batch over a worker pool with
//!   bit-identical counts and stats at every thread count;
//! * [`mod@cache`] — the session-level [`VerticalMemo`] that replays
//!   vertical enumerations across repeated runs;
//! * [`mod@format`] — a text interchange format bundling taxonomy + data;
//! * [`stats`] — dataset statistics.
//!
//! ```
//! use flipper_taxonomy::{Taxonomy, RebalancePolicy};
//! use flipper_data::{TransactionDb, MultiLevelView, BitsetCounter, Itemset};
//!
//! let tax = Taxonomy::from_edges(
//!     [("drinks", ""), ("food", ""), ("beer", "drinks"), ("bread", "food")],
//!     RebalancePolicy::RequireBalanced).unwrap();
//! let beer = tax.node_by_name("beer").unwrap();
//! let bread = tax.node_by_name("bread").unwrap();
//! let db = TransactionDb::new(vec![vec![beer, bread], vec![beer]]).unwrap();
//!
//! let view = MultiLevelView::build(&db, &tax);
//! let mut counter = BitsetCounter::new(&view);
//! let sup = counter.count_batch(2, &[Itemset::pair(beer, bread)], 1);
//! assert_eq!(sup, vec![1]);
//! ```

pub mod bitset;
pub mod cache;
mod counting;
pub mod exec;
pub mod format;
mod itemset;
mod projection;
/// Seedable PRNG, re-exported from the `flipper-rng` micro-crate under its
/// historical path so existing callers keep working unchanged.
pub use flipper_rng as rng;
pub mod stats;
pub mod tidset;
mod transaction;

pub use bitset::{Bitmap, BitsetCounter};
pub use cache::{CacheStats, VerticalMemo};
pub use counting::{
    naive_tidset_counts, prefix_groups, same_prefix_group, CounterStats, MIN_SHARD_CANDIDATES,
};
pub use itemset::Itemset;
pub use projection::{LevelView, MultiLevelView, MultiLevelViewBuilder};
pub use transaction::{DataError, RowChunk, TransactionDb};
