//! The session-level reuse state that speeds up repeated mining runs.
//!
//! The children-combinations a parent set yields at level `h`
//! ([`crate::BitsetCounter::co_occurring`]) depend only on the view, `h`,
//! θ_h and the parent set. [`VerticalMemo`] records each enumeration once,
//! merged into one ascending table per `(h, θ_h, k)`, so a later run
//! selects its parent sets' combinations in one linear pass, already in the
//! order the miner needs, instead of re-intersecting and re-sorting them.
//!
//! Everything here sits on the `flipper-results/v1` result path, so only
//! ordered containers are used (`flipper-lint`'s determinism rule holds
//! this module to the same rules as the miner).

use crate::itemset::ItemsetRows;
use flipper_taxonomy::NodeId;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Fixed per-parent-set bookkeeping estimate (tree node, key header).
const ENTRY_OVERHEAD: usize = 64;
/// Bytes of one parent tag.
const TAG: usize = std::mem::size_of::<u32>();
/// Bytes a recorded row carries besides its items: its support and tag.
const ROW_PAYLOAD: usize = std::mem::size_of::<u64>() + TAG;

/// What a [`VerticalMemo`] holds and how often it answered. None of the
/// counters feed `flipper-results/v1` bytes — they exist for benches and
/// diagnostics only.
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

/// One `(h, θ_h, k)` table: the recorded enumerations of every `k`-item
/// parent set, merged into one ascending table of `k`-item combinations.
/// Each child has one parent, so the combinations of distinct parent sets
/// are distinct and a row's parent set is unique; `tags[i]` names it.
#[derive(Debug)]
struct MemoTable {
    /// Recorded parent set → its tag. A parent set with no combinations
    /// has a tag and no rows.
    index: BTreeMap<Box<[NodeId]>, u32>,
    /// Every recorded combination, ascending.
    rows: ItemsetRows,
    /// `supports[i]` is the support of row `i`.
    supports: Vec<u64>,
    /// `tags[i]` is the tag of row `i`'s parent set.
    tags: Vec<u32>,
}

impl MemoTable {
    fn with_capacity(k: usize, rows: usize) -> Self {
        MemoTable {
            index: BTreeMap::new(),
            rows: ItemsetRows::with_capacity(k, rows),
            supports: Vec::with_capacity(rows),
            tags: Vec::with_capacity(rows),
        }
    }

    fn push(&mut self, row: &[NodeId], support: u64, tag: u32) {
        self.rows.push(row);
        self.supports.push(support);
        self.tags.push(tag);
    }
}

#[derive(Debug, Default)]
struct MemoTables {
    by_level: BTreeMap<(usize, u64, usize), MemoTable>,
    stats: CacheStats,
}

/// Session-level memo of the vertical enumeration: `(h, θ_h, parent set) →`
/// the parent set's children-combinations with their supports.
///
/// The enumeration does not depend on γ, ε or the pruning variant, so any
/// run over the same view may select an entry any other run recorded.
/// Entries hold exact DFS output and are never evicted, so a selection is
/// always what the DFS would have produced.
///
/// Per `(h, θ_h, k)`, the combinations of every recorded parent set sit in
/// one ascending table, each row tagged with its parent set. A vertical pass
/// [`select`](Self::select)s its alive parents' rows in one linear pass,
/// already ascending, and [`record`](Self::record)s the parent sets it had to
/// enumerate by merging their sorted rows in.
///
/// The memo locks internally, once per selection or record and never across
/// an enumeration, so concurrent callers of one session share it through
/// `&self`. Lock poisoning is ignored: a record builds its merged rows
/// before it touches the table, so every state the tables can be left in is
/// valid.
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

    /// Append to `out` and `out_supports` the recorded combinations of the
    /// rows of `parents` at level `h` under θ_h = `theta`, ascending, with
    /// their supports. Returns one flag per parent set: whether it is
    /// recorded (its combinations, possibly none, were appended). `out` must
    /// be as wide as `parents`.
    pub fn select(
        &self,
        h: usize,
        theta: u64,
        parents: &ItemsetRows,
        out: &mut ItemsetRows,
        out_supports: &mut Vec<u64>,
    ) -> Vec<bool> {
        let mut guard = self.tables();
        let tables = &mut *guard;
        tables.stats.seed_lookups += parents.len() as u64;
        let Some(table) = tables.by_level.get(&(h, theta, parents.k())) else {
            return vec![false; parents.len()];
        };
        let mut wanted = vec![false; table.index.len()];
        let hits: Vec<bool> = parents
            .iter()
            .map(|parent| {
                let tag = table.index.get(parent);
                if let Some(&tag) = tag {
                    wanted[tag as usize] = true;
                }
                tag.is_some()
            })
            .collect();
        tables.stats.seed_hits += hits.iter().filter(|&&hit| hit).count() as u64;
        for ((row, &support), &tag) in table.rows.iter().zip(&table.supports).zip(&table.tags) {
            if wanted[tag as usize] {
                out.push(row);
                out_supports.push(support);
            }
        }
        hits
    }

    /// Record the enumerations of the distinct rows of `parents` at level
    /// `h` under θ_h = `theta`: `rows` holds their combinations, ascending,
    /// with `supports` and, per row, the index in `parents` of the parent
    /// set it came from (`owner`). A parent set already recorded keeps its
    /// entry.
    pub fn record(
        &self,
        h: usize,
        theta: u64,
        parents: &ItemsetRows,
        rows: &ItemsetRows,
        supports: &[u64],
        owner: &[u32],
    ) {
        debug_assert!(rows.len() == supports.len() && rows.len() == owner.len());
        let k = parents.k();
        let mut guard = self.tables();
        let tables = &mut *guard;
        let table = tables
            .by_level
            .entry((h, theta, k))
            .or_insert_with(|| MemoTable::with_capacity(k, 0));
        // Per parent set: its new tag, or `None` if it is already recorded.
        let mut next = table.index.len() as u32;
        let tag_of: Vec<Option<u32>> = parents
            .iter()
            .map(|parent| {
                (!table.index.contains_key(parent)).then(|| {
                    next += 1;
                    next - 1
                })
            })
            .collect();
        let mut fresh = (0..rows.len())
            .filter_map(|i| tag_of[owner[i] as usize].map(|tag| (i, tag)))
            .peekable();
        let mut bytes = 0;
        let merged = fresh.peek().is_some().then(|| {
            let mut merged = MemoTable::with_capacity(k, table.rows.len() + rows.len());
            let mut old = 0;
            for (i, tag) in fresh {
                let row = rows.row(i);
                while old < table.rows.len() && table.rows.row(old) < row {
                    merged.push(table.rows.row(old), table.supports[old], table.tags[old]);
                    old += 1;
                }
                merged.push(row, supports[i], tag);
                bytes += std::mem::size_of_val(row) + ROW_PAYLOAD;
            }
            for i in old..table.rows.len() {
                merged.push(table.rows.row(i), table.supports[i], table.tags[i]);
            }
            merged
        });
        // The table changes only from here on.
        for (parent, tag) in parents.iter().zip(tag_of) {
            if let Some(tag) = tag {
                table.index.insert(parent.into(), tag);
                bytes += std::mem::size_of_val(parent) + TAG + ENTRY_OVERHEAD;
                tables.stats.entries += 1;
            }
        }
        if let Some(merged) = merged {
            table.rows = merged.rows;
            table.supports = merged.supports;
            table.tags = merged.tags;
        }
        tables.stats.bytes_resident += bytes as u64;
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

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    /// `k`-item rows of the given node ids.
    fn rows(k: usize, ids: &[usize]) -> ItemsetRows {
        let items: Vec<NodeId> = ids.iter().map(|&i| n(i)).collect();
        let mut rows = ItemsetRows::new(k);
        rows.extend(items.chunks(k));
        rows
    }

    /// What one selection of `parents` returned: hit flags, rows, supports.
    fn select(
        memo: &VerticalMemo,
        h: usize,
        theta: u64,
        parents: &ItemsetRows,
    ) -> (Vec<bool>, ItemsetRows, Vec<u64>) {
        let (mut out, mut sups) = (ItemsetRows::new(parents.k()), Vec::new());
        let hits = memo.select(h, theta, parents, &mut out, &mut sups);
        (hits, out, sups)
    }

    /// Selection returns the recorded rows of exactly the selected parent
    /// sets, ascending, keyed by `h`, θ and the parent width `k`; a
    /// re-record changes nothing; the byte count charges every part.
    #[test]
    fn memo_replays_what_it_recorded_keyed_by_level_and_theta() {
        let memo = VerticalMemo::new();
        // Parent sets {1,2} and {1,3}; {1,3} has no combinations.
        let parents = rows(2, &[1, 2, 1, 3]);
        let cold = select(&memo, 2, 5, &parents);
        assert_eq!(cold, (vec![false, false], ItemsetRows::new(2), vec![]));
        memo.record(
            2,
            5,
            &parents,
            &rows(2, &[10, 20, 11, 20]),
            &[7, 6],
            &[0, 0],
        );
        // {4,5}'s combinations interleave with {1,2}'s: the table merges.
        let other = rows(2, &[4, 5]);
        memo.record(2, 5, &other, &rows(2, &[10, 21, 12, 22]), &[3, 2], &[0, 0]);
        let bytes = memo.stats().bytes_resident;
        assert_eq!(
            select(&memo, 2, 5, &rows(2, &[1, 2, 1, 3, 4, 5])),
            (
                vec![true; 3],
                rows(2, &[10, 20, 10, 21, 11, 20, 12, 22]),
                vec![7, 3, 6, 2]
            ),
            "the merged selection is ascending"
        );
        // A partial selection keeps only the selected parents' rows; an
        // unrecorded parent set misses.
        assert_eq!(
            select(&memo, 2, 5, &rows(2, &[1, 3, 2, 9, 4, 5])),
            (
                vec![true, false, true],
                rows(2, &[10, 21, 12, 22]),
                vec![3, 2]
            )
        );
        // A re-record of recorded parent sets changes neither the rows nor
        // the byte count.
        memo.record(2, 5, &parents, &rows(2, &[10, 30]), &[1], &[0]);
        assert_eq!(memo.stats().bytes_resident, bytes);
        assert_eq!(
            select(&memo, 2, 5, &parents),
            (vec![true, true], rows(2, &[10, 20, 11, 20]), vec![7, 6])
        );
        // h, θ and k are all keyed.
        assert_eq!(select(&memo, 2, 6, &parents).0, vec![false, false], "θ");
        assert_eq!(select(&memo, 3, 5, &parents).0, vec![false, false], "h");
        let wide = rows(3, &[1, 2, 3]);
        assert_eq!(select(&memo, 2, 5, &wide).0, vec![false], "k");
        memo.record(2, 5, &wide, &rows(3, &[10, 20, 30]), &[4], &[0]);
        assert_eq!(
            select(&memo, 2, 5, &wide),
            (vec![true], rows(3, &[10, 20, 30]), vec![4])
        );
        let stats = memo.stats();
        // Parent sets: {1,2}, {1,3}, {4,5} and {1,2,3}.
        assert_eq!(stats.entries, 4);
        assert_eq!((stats.seed_lookups, stats.seed_hits), (16, 8));
        // Every row charges its items, support and tag; every parent set its
        // key, tag and bookkeeping.
        let keys = 3 * (2 * 4 + TAG + ENTRY_OVERHEAD) + (3 * 4 + TAG + ENTRY_OVERHEAD);
        let rows_bytes = 4 * (2 * 4 + ROW_PAYLOAD) + (3 * 4 + ROW_PAYLOAD);
        assert_eq!(stats.bytes_resident, (keys + rows_bytes) as u64);
        memo.clear();
        assert_eq!(memo.stats(), CacheStats::default());
        assert_eq!(select(&memo, 2, 5, &parents).0, vec![false, false]);
    }

    /// Two threads record overlapping parent sets into one memo, one record
    /// per parent set, in opposite orders: every combination is in the
    /// table exactly once, whichever record won.
    #[test]
    fn concurrent_overlapping_records_keep_each_combination_once() {
        let memo = VerticalMemo::new();
        // Parent set `p` = {p, 100 + p} yields the combinations
        // {10p + j, 1000 + 10p + j}, j < 3, with support p + j.
        let parent = |p: usize| rows(2, &[p, 100 + p]);
        let combos = |p: usize| {
            let ids: Vec<usize> = (0..3)
                .flat_map(|j| [10 * p + j, 1000 + 10 * p + j])
                .collect();
            (
                rows(2, &ids),
                (0..3).map(|j| (p + j) as u64).collect::<Vec<_>>(),
            )
        };
        let record = |order: &[usize]| {
            for &p in order {
                let (r, s) = combos(p);
                memo.record(2, 1, &parent(p), &r, &s, &[0; 3]);
            }
        };
        let forward: Vec<usize> = (0..40).collect();
        let backward: Vec<usize> = (20..60).rev().collect();
        std::thread::scope(|scope| {
            scope.spawn(|| record(&forward));
            scope.spawn(|| record(&backward));
        });
        let all = rows(2, &(0..60).flat_map(|p| [p, 100 + p]).collect::<Vec<_>>());
        let (hits, got, sups) = select(&memo, 2, 1, &all);
        assert!(hits.iter().all(|&hit| hit));
        let (mut expect, mut expect_sups) = (ItemsetRows::new(2), Vec::new());
        for p in 0..60 {
            let (r, s) = combos(p);
            expect.extend(r.iter());
            expect_sups.extend(s);
        }
        assert_eq!((got, sups), (expect, expect_sups));
        assert_eq!(memo.stats().entries, 60);
    }
}
