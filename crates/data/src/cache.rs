//! The session-level reuse state that speeds up repeated mining runs.
//!
//! The children-combinations a parent set yields at level `h`
//! ([`crate::BitsetCounter::co_occurring`]) depend only on the view, `h`,
//! θ_h and the parent set. [`VerticalMemo`] records each enumeration once,
//! so later runs replay it instead of re-intersecting.
//!
//! Everything here sits on the `flipper-results/v1` result path, so only
//! ordered containers are used (`flipper-lint`'s determinism rule holds
//! this module to the same rules as the miner).

use flipper_taxonomy::NodeId;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Fixed per-entry bookkeeping estimate (keys, tree nodes, vec headers).
const ENTRY_OVERHEAD: usize = 64;

/// What a [`VerticalMemo`] holds and how often it answered. All counters
/// are sums, so stats merge associatively; none of them feed
/// `flipper-results/v1` bytes — they exist for benches and diagnostics
/// only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Always 0: nothing probes a prefix cache. Kept because the
    /// benchmark (`perfbench/`) still reads it from `RunStats::cache`.
    pub lookups: u64,
    /// Always 0, like [`CacheStats::lookups`].
    pub exact_hits: u64,
    /// Always 0, like [`CacheStats::lookups`].
    pub parent_hits: u64,
    /// Parent sets whose enumeration is recorded.
    pub entries: u64,
    /// Bytes resident (estimate).
    pub bytes_resident: u64,
    /// Memo lookups, one per parent set a run looked up.
    pub seed_lookups: u64,
    /// Memo lookups answered from a recorded enumeration; the rest missed.
    pub seed_hits: u64,
}

impl CacheStats {
    /// Fold `other` into `self` (all fields are sums).
    pub fn merge(&mut self, other: &CacheStats) {
        self.lookups += other.lookups;
        self.exact_hits += other.exact_hits;
        self.parent_hits += other.parent_hits;
        self.entries += other.entries;
        self.bytes_resident += other.bytes_resident;
        self.seed_lookups += other.seed_lookups;
        self.seed_hits += other.seed_hits;
    }
}

/// Where one parent set's recorded combinations sit in its table.
#[derive(Debug, Clone, Copy)]
struct Recorded {
    /// First item in [`MemoTable::items`].
    items_at: usize,
    /// First support in [`MemoTable::supports`].
    supports_at: usize,
    /// Number of combinations.
    len: usize,
}

/// One `(h, θ_h)` table: the recorded enumerations of every parent set,
/// flat. A parent set of `k` items yields `k`-item combinations, stored as
/// fixed-stride rows of `items`.
#[derive(Debug, Default)]
struct MemoTable {
    index: BTreeMap<Box<[NodeId]>, Recorded>,
    items: Vec<NodeId>,
    supports: Vec<u64>,
}

#[derive(Debug, Default)]
struct MemoTables {
    by_level: BTreeMap<(usize, u64), MemoTable>,
    stats: CacheStats,
}

/// Session-level memo of the vertical enumeration: `(h, θ_h, parent set) →`
/// the parent set's children-combinations with their supports, in the
/// order [`crate::BitsetCounter::co_occurring`] emitted them.
///
/// The enumeration does not depend on γ, ε or the pruning variant, so any
/// run over the same view may replay an entry any other run recorded.
/// Entries hold exact DFS output and are never evicted, so a replay is
/// always what the DFS would have produced.
///
/// The memo locks internally, once per lookup or record and never across an
/// enumeration, so concurrent sweep jobs share it through `&self`. Lock
/// poisoning is ignored: a recorded entry is complete, so every state the
/// tables can be left in is valid.
#[derive(Debug, Default)]
pub struct VerticalMemo {
    tables: Mutex<MemoTables>,
}

impl VerticalMemo {
    /// An empty memo.
    pub fn new() -> Self {
        VerticalMemo::default()
    }

    fn tables(&self) -> MutexGuard<'_, MemoTables> {
        self.tables.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Copy the recorded enumeration of `parent` at level `h` under θ_h =
    /// `theta` into `combos` (rows of `parent.len()` items) and `supports`,
    /// replacing their contents. Returns false, leaving both untouched,
    /// when nothing is recorded. The probe allocates nothing beyond the
    /// buffers' growth.
    pub fn replay_into(
        &self,
        h: usize,
        theta: u64,
        parent: &[NodeId],
        combos: &mut Vec<NodeId>,
        supports: &mut Vec<u64>,
    ) -> bool {
        let mut guard = self.tables();
        let tables = &mut *guard;
        tables.stats.seed_lookups += 1;
        let found = tables
            .by_level
            .get(&(h, theta))
            .and_then(|table| table.index.get(parent).map(|rec| (table, *rec)));
        let Some((table, rec)) = found else {
            return false;
        };
        let k = parent.len();
        combos.clear();
        combos.extend_from_slice(&table.items[rec.items_at..rec.items_at + rec.len * k]);
        supports.clear();
        supports.extend_from_slice(&table.supports[rec.supports_at..rec.supports_at + rec.len]);
        tables.stats.seed_hits += 1;
        true
    }

    /// Record the enumeration of `parent` at level `h` under θ_h = `theta`:
    /// `combos` holds one row of `parent.len()` items per entry of
    /// `supports`. A parent set already recorded keeps its entry.
    pub fn record(
        &self,
        h: usize,
        theta: u64,
        parent: &[NodeId],
        combos: &[NodeId],
        supports: &[u64],
    ) {
        debug_assert_eq!(combos.len(), supports.len() * parent.len());
        let mut guard = self.tables();
        let tables = &mut *guard;
        let table = tables.by_level.entry((h, theta)).or_default();
        if table.index.contains_key(parent) {
            return;
        }
        let rec = Recorded {
            items_at: table.items.len(),
            supports_at: table.supports.len(),
            len: supports.len(),
        };
        table.items.extend_from_slice(combos);
        table.supports.extend_from_slice(supports);
        table.index.insert(parent.into(), rec);
        let size = std::mem::size_of_val(parent)
            + std::mem::size_of_val(combos)
            + std::mem::size_of_val(supports)
            + ENTRY_OVERHEAD;
        tables.stats.entries += 1;
        tables.stats.bytes_resident += size as u64;
    }

    /// Resident entries and bytes, plus lookup counters since the memo was
    /// created or last cleared.
    pub fn stats(&self) -> CacheStats {
        self.tables().stats
    }

    /// Drop every recorded enumeration and reset the counters.
    pub fn clear(&self) {
        *self.tables() = MemoTables::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memo_replays_what_it_recorded_keyed_by_level_and_theta() {
        let n = NodeId::from_index;
        let memo = VerticalMemo::new();
        let parent = [n(1), n(2)];
        let combos = [n(10), n(20), n(11), n(20)];
        let (mut got, mut sups) = (vec![n(99)], vec![99]);
        assert!(!memo.replay_into(2, 5, &parent, &mut got, &mut sups));
        assert_eq!((got.as_slice(), sups.as_slice()), (&[n(99)][..], &[99][..]));
        memo.record(2, 5, &parent, &combos, &[7, 6]);
        // A second record of the same key keeps the first entry.
        memo.record(2, 5, &parent, &[], &[]);
        assert!(memo.replay_into(2, 5, &parent, &mut got, &mut sups));
        assert_eq!(
            (got.as_slice(), sups.as_slice()),
            (&combos[..], &[7, 6][..])
        );
        assert!(
            !memo.replay_into(2, 6, &parent, &mut got, &mut sups),
            "θ is keyed"
        );
        assert!(
            !memo.replay_into(3, 5, &parent, &mut got, &mut sups),
            "h is keyed"
        );
        // An empty enumeration is an entry too.
        memo.record(2, 5, &[n(1), n(3)], &[], &[]);
        assert!(memo.replay_into(2, 5, &[n(1), n(3)], &mut got, &mut sups));
        assert!(got.is_empty() && sups.is_empty());
        let stats = memo.stats();
        assert_eq!(
            (stats.entries, stats.seed_hits, stats.seed_lookups),
            (2, 2, 5)
        );
        assert!(stats.bytes_resident > 2 * ENTRY_OVERHEAD as u64);
        memo.clear();
        assert_eq!(memo.stats(), CacheStats::default());
        assert!(!memo.replay_into(2, 5, &parent, &mut got, &mut sups));
    }

    #[test]
    fn cache_stats_merge_sums() {
        let mut a = CacheStats {
            lookups: 10,
            exact_hits: 4,
            parent_hits: 2,
            entries: 3,
            bytes_resident: 100,
            seed_lookups: 9,
            seed_hits: 5,
        };
        a.merge(&a.clone());
        assert_eq!(a.lookups, 20);
        assert_eq!(a.exact_hits, 8);
        assert_eq!(a.bytes_resident, 200);
        assert_eq!(a.seed_hits, 10);
    }
}
