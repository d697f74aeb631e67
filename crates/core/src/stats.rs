//! Run statistics: hardware-independent cost counters backing the paper's
//! performance figures.

use flipper_data::{CacheStats, CounterStats};
use std::time::{Duration, Instant};

/// The one sanctioned wall-clock in the result path.
///
/// `flipper-lint`'s determinism rule bans `Instant`/`SystemTime` from every
/// module that feeds `flipper-results/v1` bytes; this module is deliberately
/// outside that list because [`RunStats::elapsed`] is excluded from the
/// serialized results (the sink never writes it).
/// Timing code in result-path modules goes through this wrapper so the
/// exemption stays in exactly one place.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Wall-clock time since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }
}

/// Counters accumulated over a mining run.
///
/// The paper's Fig. 8/9 report wall-clock seconds and resident memory; both
/// are hardware-bound, so we additionally expose candidate counts and the
/// peak number of simultaneously stored itemsets (the paper's memory
/// driver) — those carry the ratios between pruning variants on any
/// machine.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    /// Candidates generated before counting (after all generation-time
    /// filters).
    pub candidates_generated: u64,
    /// Candidates dropped at generation time by the SIBP item bans.
    pub pruned_by_sibp: u64,
    /// Candidates dropped at generation time because a known subset was
    /// infrequent (support-based / Apriori pruning).
    pub pruned_by_support: u64,
    /// Always 0: no code writes this counter, so every report carries 0
    /// here. It stays only because the `flipper-results/v1` `stats` object
    /// carries the field, and removing it would change those bytes.
    pub dead_parent_cells: u64,
    /// Frequent itemsets found.
    pub frequent_found: u64,
    /// Positive itemsets found.
    pub positive_found: u64,
    /// Negative itemsets found.
    pub negative_found: u64,
    /// Cells evaluated.
    pub cells_evaluated: u64,
    /// Column cap imposed by TPG (0 = never triggered).
    pub tpg_cap: u64,
    /// Items banned by SIBP across all rows.
    pub sibp_banned_items: u64,
    /// Peak number of itemsets resident in the table at once — the memory
    /// proxy for Fig. 9(b).
    pub peak_resident_itemsets: u64,
    /// Total itemsets ever stored (BASIC keeps everything; Flipper far
    /// less).
    pub total_stored_itemsets: u64,
    /// Supports replayed from the run's vertical memo instead of being
    /// enumerated ([`crate::mine_with_view`]'s `memo`): one per combination
    /// of every replayed parent set. `0` on a run over a fresh memo and on
    /// a run whose memo held nothing it could use. Excluded from serialized
    /// results: replaying never changes them, only how much they cost.
    pub seeded_supports: u64,
    /// Support-counting kernel statistics.
    pub counter: CounterStats,
    /// Always zero, every field: the miner keeps no per-run cache, and the
    /// session's memo reports through its own stats. `lookups`,
    /// `exact_hits` and `parent_hits` stay because the benchmark
    /// (`perfbench/`) reads them. Excluded from serialized results, like
    /// `counter`.
    pub cache: CacheStats,
    /// Wall-clock duration of the mining run.
    pub elapsed: Duration,
}

impl RunStats {
    /// One-line summary for logs and experiment tables.
    pub fn summary(&self) -> String {
        format!(
            "cells={} candidates={} frequent={} pos={} neg={} peak_resident={} \
             sibp_pruned={} support_pruned={} tpg_cap={} elapsed={:.3}s",
            self.cells_evaluated,
            self.candidates_generated,
            self.frequent_found,
            self.positive_found,
            self.negative_found,
            self.peak_resident_itemsets,
            self.pruned_by_sibp,
            self.pruned_by_support,
            self.tpg_cap,
            self.elapsed.as_secs_f64(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_contains_counters() {
        let s = RunStats {
            candidates_generated: 42,
            tpg_cap: 3,
            ..Default::default()
        };
        let line = s.summary();
        assert!(line.contains("candidates=42"));
        assert!(line.contains("tpg_cap=3"));
    }

    #[test]
    fn default_is_zeroed() {
        let s = RunStats::default();
        assert_eq!(s.candidates_generated, 0);
        assert_eq!(s.elapsed, Duration::ZERO);
    }
}
