//! The session-level support cache that seeds repeated mining runs.
//!
//! Supports are properties of the data alone — no threshold, pruning
//! variant or thread count changes them. [`SupportCache`] is a
//! `(h, itemset) → support` map a session fills from completed runs and
//! consults before counting, so sweep grid points that differ only in γ/ε
//! (or pruning) never recount itemsets an earlier run already counted.
//!
//! Everything here sits on the `flipper-results/v1` result path, so only
//! ordered containers are used (`flipper-lint`'s determinism rule holds
//! this module to the same rules as the miner).

use crate::itemset::Itemset;
use flipper_taxonomy::NodeId;
use std::collections::BTreeMap;

/// Fixed per-entry bookkeeping estimate (keys, tree nodes, vec headers).
const ENTRY_OVERHEAD: usize = 64;

/// Consecutive non-matching resident entries [`SupportCache::seed_batch`]
/// walks past before re-anchoring its cursor with a fresh seek.
const SEED_SKIP_RESTART: usize = 32;

/// Cache efficiency counters. All counters are sums, so stats merge
/// associatively; none of them feed `flipper-results/v1` bytes — they
/// exist for benches and diagnostics only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Always 0: nothing probes a prefix cache. Kept because the
    /// benchmark (`perfbench/`) still reads it from `RunStats::cache`.
    pub lookups: u64,
    /// Always 0, like [`CacheStats::lookups`].
    pub exact_hits: u64,
    /// Always 0, like [`CacheStats::lookups`].
    pub parent_hits: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Bytes resident (estimate).
    pub bytes_resident: u64,
    /// Support-cache probes.
    pub seed_lookups: u64,
    /// Support-cache probes answered without counting.
    pub seed_hits: u64,
}

impl CacheStats {
    /// Fold `other` into `self` (all fields are sums).
    pub fn merge(&mut self, other: &CacheStats) {
        self.lookups += other.lookups;
        self.exact_hits += other.exact_hits;
        self.parent_hits += other.parent_hits;
        self.insertions += other.insertions;
        self.bytes_resident += other.bytes_resident;
        self.seed_lookups += other.seed_lookups;
        self.seed_hits += other.seed_hits;
    }
}

/// Session-level `(h, itemset) → support` cache.
///
/// Supports are threshold- and thread-independent facts about the data, so any completed run may seed any later run over the same view.
/// The optional byte cap is a soft stop: once exceeded, further inserts are
/// dropped (deterministically) rather than evicting — the map only ever
/// holds exact counted values, so staleness cannot occur.
#[derive(Debug, Default)]
pub struct SupportCache {
    map: BTreeMap<(usize, Itemset), u64>,
    bytes: usize,
    cap: Option<usize>,
    stats: CacheStats,
}

impl SupportCache {
    /// An unbounded support cache.
    pub fn new() -> Self {
        SupportCache::default()
    }

    /// A support cache that stops absorbing entries once `cap` bytes
    /// (estimated) are resident.
    pub fn with_cap(cap: usize) -> Self {
        SupportCache {
            cap: Some(cap),
            ..SupportCache::default()
        }
    }

    /// Known support of `set` at level `h`, if any run counted it before.
    /// Immutable so a read-locked cache can seed concurrent sweep jobs.
    pub fn get(&self, h: usize, set: &Itemset) -> Option<u64> {
        self.map.get(&(h, set.clone())).copied()
    }

    /// Answer a whole candidate batch from the cache in one ordered merge.
    ///
    /// `candidates` must be sorted ascending (the miner's candidate batches
    /// are — Apriori joins emit them in order). Instead of one `BTreeMap`
    /// probe (and one `Itemset` clone for the probe key) per candidate,
    /// this walks a single range cursor over the `(h, …)` key span in
    /// lockstep with the batch: `O(C + R)` comparisons for `C` candidates
    /// against `R` resident entries in the level, with zero per-candidate
    /// allocations. When the resident span is much larger than the batch,
    /// a skip-restart heuristic re-anchors the cursor with a fresh
    /// `range()` seek after `SEED_SKIP_RESTART` consecutive non-matching
    /// entries, bounding the walk at `O(C log R)`.
    ///
    /// Calls `found(i, support)` for every candidate `i` whose support is
    /// cached, in ascending `i`, and returns the number of hits. Like
    /// [`SupportCache::get`] this is `&self`, so a read-locked cache can
    /// seed concurrent sweep jobs.
    ///
    /// # Panics
    /// Debug-asserts that `candidates` is sorted.
    pub fn seed_batch<F>(&self, h: usize, candidates: &[Itemset], mut found: F) -> u64
    where
        F: FnMut(usize, u64),
    {
        debug_assert!(candidates.windows(2).all(|w| w[0] < w[1]));
        let Some(first) = candidates.first() else {
            return 0;
        };
        if self.map.is_empty() {
            return 0;
        }
        let mut hits = 0u64;
        let mut cursor = self.map.range((h, first.clone())..).peekable();
        let mut skipped = 0usize;
        for (i, cand) in candidates.iter().enumerate() {
            let hit = loop {
                match cursor.peek() {
                    // Resident entries for this level exhausted: no later
                    // candidate can hit either.
                    None => return hits,
                    Some(((eh, _), _)) if *eh != h => return hits,
                    Some(((_, set), &sup)) => match set.cmp(cand) {
                        std::cmp::Ordering::Less => {
                            if skipped >= SEED_SKIP_RESTART {
                                // Long resident run between candidates:
                                // seek instead of walking entry by entry.
                                cursor = self.map.range((h, cand.clone())..).peekable();
                                skipped = 0;
                            } else {
                                cursor.next();
                                skipped += 1;
                            }
                        }
                        std::cmp::Ordering::Equal => break Some(sup),
                        std::cmp::Ordering::Greater => break None,
                    },
                }
            };
            skipped = 0;
            if let Some(sup) = hit {
                found(i, sup);
                hits += 1;
                cursor.next();
            }
        }
        hits
    }

    /// Record a counted support. Drops the insert once the byte cap is hit.
    pub fn insert(&mut self, h: usize, set: &Itemset, support: u64) {
        if self.cap.is_some_and(|cap| self.bytes >= cap) {
            return;
        }
        let cost = set.len() * std::mem::size_of::<NodeId>() + ENTRY_OVERHEAD;
        if self.map.insert((h, set.clone()), support).is_none() {
            self.bytes += cost;
            self.stats.insertions += 1;
        }
    }

    /// Credit one seeded counting round to the stats. [`SupportCache::get`]
    /// is deliberately `&self` (a read-locked cache can seed concurrent
    /// jobs), so probe counters are reported back in bulk by the caller
    /// that drove the round.
    pub fn record_seed_round(&mut self, lookups: u64, hits: u64) {
        self.stats.seed_lookups += lookups;
        self.stats.seed_hits += hits;
        flipper_obs::counter_add("flipper_seed_lookups_total", lookups);
        flipper_obs::counter_add("flipper_seed_hits_total", hits);
    }

    /// Number of cached supports.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no supports are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Estimated resident bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Insertion counters plus resident bytes.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            bytes_resident: self.bytes as u64,
            ..self.stats
        }
    }

    /// Drop every cached support.
    pub fn clear(&mut self) {
        self.map.clear();
        self.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn support_cache_roundtrip() {
        let mut sc = SupportCache::new();
        let set = Itemset::pair(NodeId::from_index(1), NodeId::from_index(4));
        assert!(sc.get(2, &set).is_none());
        sc.insert(2, &set, 17);
        assert_eq!(sc.get(2, &set), Some(17));
        assert!(sc.get(1, &set).is_none(), "level is part of the key");
        assert_eq!(sc.len(), 1);
        assert!(sc.bytes() > 0);
        sc.clear();
        assert!(sc.is_empty());
    }

    #[test]
    fn support_cache_cap_stops_absorbing() {
        let mut sc = SupportCache::with_cap(ENTRY_OVERHEAD + 1);
        let a = Itemset::single(NodeId::from_index(1));
        let b = Itemset::single(NodeId::from_index(2));
        sc.insert(1, &a, 5);
        sc.insert(1, &b, 6);
        assert_eq!(sc.get(1, &a), Some(5));
        assert!(sc.get(1, &b).is_none(), "cap reached: insert dropped");
        assert_eq!(sc.len(), 1);
    }

    fn set3(a: usize, b: usize, c: usize) -> Itemset {
        Itemset::new(vec![
            NodeId::from_index(a),
            NodeId::from_index(b),
            NodeId::from_index(c),
        ])
    }

    /// `seed_batch` must agree exactly with per-candidate `get` probes.
    fn assert_batch_matches_get(sc: &SupportCache, h: usize, candidates: &[Itemset]) {
        let mut batch: Vec<Option<u64>> = vec![None; candidates.len()];
        let hits = sc.seed_batch(h, candidates, |i, sup| batch[i] = Some(sup));
        let individual: Vec<Option<u64>> = candidates.iter().map(|c| sc.get(h, c)).collect();
        assert_eq!(batch, individual);
        assert_eq!(hits, individual.iter().flatten().count() as u64);
    }

    #[test]
    fn seed_batch_matches_individual_probes() {
        let mut sc = SupportCache::new();
        // Resident: every third triple at h=2, plus noise at other levels.
        let all: Vec<Itemset> = (0..120).map(|i| set3(i, i + 200, i + 400)).collect();
        for (i, set) in all.iter().enumerate() {
            if i % 3 == 0 {
                sc.insert(2, set, 1000 + i as u64);
            }
            if i % 5 == 0 {
                sc.insert(1, set, 7);
                sc.insert(3, set, 9);
            }
        }
        assert_batch_matches_get(&sc, 2, &all);
        assert_batch_matches_get(&sc, 1, &all);
        assert_batch_matches_get(&sc, 4, &all);
        // Sparse batch over a dense residency (exercises skip-restart).
        let sparse: Vec<Itemset> = (0..120)
            .step_by(40)
            .map(|i| set3(i, i + 200, i + 400))
            .collect();
        assert_batch_matches_get(&sc, 2, &sparse);
    }

    #[test]
    fn seed_batch_skip_restart_crosses_long_resident_runs() {
        let mut sc = SupportCache::new();
        // A long run of resident entries between the two candidates forces
        // the cursor past SEED_SKIP_RESTART and into the re-anchor path.
        for i in 0..500 {
            sc.insert(2, &set3(i, i + 1000, i + 2000), i as u64);
        }
        let candidates = vec![set3(0, 1000, 2000), set3(499, 1499, 2499)];
        assert_batch_matches_get(&sc, 2, &candidates);
    }

    #[test]
    fn seed_batch_edge_cases() {
        let sc = SupportCache::new();
        assert_eq!(sc.seed_batch(1, &[], |_, _| panic!("no hits")), 0);
        assert_eq!(
            sc.seed_batch(1, &[set3(1, 2, 3)], |_, _| panic!("empty cache")),
            0
        );
        let mut sc = SupportCache::new();
        sc.insert(9, &set3(1, 2, 3), 4);
        assert_eq!(
            sc.seed_batch(1, &[set3(1, 2, 3)], |_, _| panic!("wrong level")),
            0
        );
        assert_batch_matches_get(&sc, 9, &[set3(1, 2, 3)]);
    }

    #[test]
    fn cache_stats_merge_sums() {
        let mut a = CacheStats {
            lookups: 10,
            exact_hits: 4,
            parent_hits: 2,
            insertions: 3,
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
