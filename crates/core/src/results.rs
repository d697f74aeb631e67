//! Mining results: flipping patterns with their full per-level chains.

use flipper_data::Itemset;
use flipper_measures::Label;
use flipper_taxonomy::Taxonomy;
use std::fmt;

/// One level of a flipping pattern's correlation chain.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainLevel {
    /// Abstraction level (1 = most general).
    pub level: usize,
    /// The `(h,k)`-itemset at this level.
    pub itemset: Itemset,
    /// Its support in the level-`h` projection.
    pub support: u64,
    /// Its correlation value.
    pub corr: f64,
    /// Its label (always `Positive` or `Negative` in a valid chain).
    pub label: Label,
}

/// A violated invariant of a [`FlippingPattern`] chain, reported by
/// [`FlippingPattern::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum ChainError {
    /// The chain holds no levels at all.
    Empty,
    /// Levels are not consecutive `1..=H`: position `position` (0-based)
    /// holds `found` instead of `expected`.
    LevelOutOfOrder {
        /// 0-based position in the chain.
        position: usize,
        /// The level that should sit there (`position + 1`).
        expected: usize,
        /// The level actually recorded.
        found: usize,
    },
    /// A chain level carries a non-correlated label.
    NotCorrelated {
        /// The offending level.
        level: usize,
        /// Its label.
        label: Label,
    },
    /// Two consecutive levels do not flip sign.
    NoFlip {
        /// The upper level.
        upper: usize,
        /// The lower level.
        lower: usize,
    },
    /// The chain's last itemset differs from the pattern's leaf itemset.
    LeafMismatch,
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::Empty => write!(f, "empty chain"),
            ChainError::LevelOutOfOrder {
                position,
                expected,
                found,
            } => write!(
                f,
                "chain level {found} at position {position} (expected {expected})"
            ),
            ChainError::NotCorrelated { level, label } => {
                write!(f, "level {level} is {label}")
            }
            ChainError::NoFlip { upper, lower } => {
                write!(f, "labels do not flip between levels {upper} and {lower}")
            }
            ChainError::LeafMismatch => write!(f, "chain leaf differs from leaf_itemset"),
        }
    }
}

impl std::error::Error for ChainError {}

/// A flipping correlation pattern (Definition 2): a leaf itemset whose
/// generalization chain alternates between positive and negative correlation
/// at every abstraction level.
#[derive(Debug, Clone, PartialEq)]
pub struct FlippingPattern {
    /// The leaf-level itemset (the chain's last entry repeats it).
    pub leaf_itemset: Itemset,
    /// The chain from level 1 (index 0) down to the leaf level.
    pub chain: Vec<ChainLevel>,
}

impl FlippingPattern {
    /// Number of items `k`.
    pub fn size(&self) -> usize {
        self.leaf_itemset.len()
    }

    /// The "flip gap": the largest absolute correlation difference between
    /// consecutive levels — the paper's suggested top-K ranking criterion
    /// for "most flipping" patterns (§7).
    pub fn flip_gap(&self) -> f64 {
        self.chain
            .windows(2)
            .map(|w| (w[0].corr - w[1].corr).abs())
            .fold(0.0, f64::max)
    }

    /// Validate the chain invariants: labels alternate, levels are
    /// `1..=H` consecutive, and every label is correlated.
    pub fn validate(&self) -> Result<(), ChainError> {
        if self.chain.is_empty() {
            return Err(ChainError::Empty);
        }
        for (i, lv) in self.chain.iter().enumerate() {
            if lv.level != i + 1 {
                return Err(ChainError::LevelOutOfOrder {
                    position: i,
                    expected: i + 1,
                    found: lv.level,
                });
            }
            if !lv.label.is_correlated() {
                return Err(ChainError::NotCorrelated {
                    level: lv.level,
                    label: lv.label,
                });
            }
        }
        for w in self.chain.windows(2) {
            if !w[0].label.flips_to(w[1].label) {
                return Err(ChainError::NoFlip {
                    upper: w[0].level,
                    lower: w[1].level,
                });
            }
        }
        // Emptiness was rejected above, so a missing last element can only
        // mean LeafMismatch-grade corruption anyway.
        if self.chain.last().map(|lv| &lv.itemset) != Some(&self.leaf_itemset) {
            return Err(ChainError::LeafMismatch);
        }
        Ok(())
    }

    /// Human-readable rendering with node names from `tax`.
    pub fn display<'a>(&'a self, tax: &'a Taxonomy) -> DisplayPattern<'a> {
        DisplayPattern { pattern: self, tax }
    }
}

/// Pretty-printer for [`FlippingPattern`] (see [`FlippingPattern::display`]).
pub struct DisplayPattern<'a> {
    pattern: &'a FlippingPattern,
    tax: &'a Taxonomy,
}

impl fmt::Display for DisplayPattern<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, lv) in self.pattern.chain.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(
                f,
                "  L{} {} {}  sup={} corr={:.4}",
                lv.level,
                lv.label.sigil(),
                lv.itemset.display(self.tax),
                lv.support,
                lv.corr
            )?;
        }
        Ok(())
    }
}

/// Summary of one evaluated search-table cell, for reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellSummary {
    /// Abstraction level.
    pub level: usize,
    /// Itemset size.
    pub k: usize,
    /// Candidates evaluated.
    pub evaluated: usize,
    /// Frequent itemsets.
    pub frequent: usize,
    /// Positive itemsets.
    pub positive: usize,
    /// Negative itemsets.
    pub negative: usize,
    /// Chain-alive itemsets.
    pub alive: usize,
}

/// The complete outcome of a mining run: the patterns, the run's
/// statistics and one summary per evaluated cell. The evaluated itemsets
/// themselves are the miner's working state and are dropped when the run
/// finishes.
#[derive(Debug, Clone)]
pub struct MiningResult {
    /// All flipping patterns, sorted by (size, leaf itemset) for
    /// deterministic output.
    pub patterns: Vec<FlippingPattern>,
    /// Run statistics.
    pub stats: crate::stats::RunStats,
    /// Per-cell summaries in evaluation order.
    pub cells: Vec<CellSummary>,
}

impl MiningResult {
    /// Total number of positive frequent itemsets found across all
    /// evaluated cells (Table 4's "Pos" column when run with BASIC pruning).
    pub fn total_positive(&self) -> usize {
        self.cells.iter().map(|c| c.positive).sum()
    }

    /// Total number of negative frequent itemsets across all cells.
    pub fn total_negative(&self) -> usize {
        self.cells.iter().map(|c| c.negative).sum()
    }

    /// Patterns ranked by descending flip gap — the paper's proposed
    /// "top-K most flipping" ordering.
    pub fn top_k_by_gap(&self, k: usize) -> Vec<&FlippingPattern> {
        let mut v: Vec<&FlippingPattern> = self.patterns.iter().collect();
        v.sort_by(|a, b| b.flip_gap().total_cmp(&a.flip_gap()));
        v.truncate(k);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flipper_taxonomy::NodeId;

    fn n(i: u32) -> NodeId {
        NodeId::from_index(i as usize)
    }

    fn lv(level: usize, items: &[u32], corr: f64, label: Label) -> ChainLevel {
        ChainLevel {
            level,
            itemset: Itemset::new(items.iter().map(|&i| n(i)).collect()),
            support: 5,
            corr,
            label,
        }
    }

    fn valid_pattern() -> FlippingPattern {
        FlippingPattern {
            leaf_itemset: Itemset::new(vec![n(7), n(11)]),
            chain: vec![
                lv(1, &[1, 2], 0.8, Label::Positive),
                lv(2, &[3, 5], 0.05, Label::Negative),
                lv(3, &[7, 11], 0.9, Label::Positive),
            ],
        }
    }

    #[test]
    fn validate_accepts_alternating_chain() {
        assert_eq!(valid_pattern().validate(), Ok(()));
        assert_eq!(valid_pattern().size(), 2);
    }

    #[test]
    fn validate_rejects_broken_chains() {
        let mut p = valid_pattern();
        p.chain[1].label = Label::Positive;
        assert_eq!(p.validate(), Err(ChainError::NoFlip { upper: 1, lower: 2 }));

        let mut p = valid_pattern();
        p.chain[1].label = Label::NonCorrelated;
        assert_eq!(
            p.validate(),
            Err(ChainError::NotCorrelated {
                level: 2,
                label: Label::NonCorrelated
            })
        );

        let mut p = valid_pattern();
        p.chain.remove(0);
        assert_eq!(
            p.validate(),
            Err(ChainError::LevelOutOfOrder {
                position: 0,
                expected: 1,
                found: 2
            })
        );

        let mut p = valid_pattern();
        p.leaf_itemset = Itemset::single(n(1));
        assert_eq!(p.validate(), Err(ChainError::LeafMismatch));

        let p = FlippingPattern {
            leaf_itemset: Itemset::single(n(1)),
            chain: vec![],
        };
        assert_eq!(p.validate(), Err(ChainError::Empty));
    }

    #[test]
    fn chain_error_displays_are_descriptive() {
        assert_eq!(ChainError::Empty.to_string(), "empty chain");
        assert!(ChainError::NoFlip { upper: 1, lower: 2 }
            .to_string()
            .contains("do not flip"));
        assert!(ChainError::NotCorrelated {
            level: 2,
            label: Label::NonCorrelated
        }
        .to_string()
        .contains("non-correlated"));
        assert!(ChainError::LevelOutOfOrder {
            position: 0,
            expected: 1,
            found: 2
        }
        .to_string()
        .contains("chain level 2"));
        assert!(ChainError::LeafMismatch.to_string().contains("differs"));
    }

    #[test]
    fn flip_gap_is_max_consecutive_difference() {
        let p = valid_pattern();
        // |0.8-0.05| = 0.75, |0.05-0.9| = 0.85.
        assert!((p.flip_gap() - 0.85).abs() < 1e-12);
    }

    #[test]
    fn top_k_sorts_by_gap() {
        let p1 = valid_pattern(); // gap 0.85
        let mut p2 = valid_pattern();
        p2.chain[2].corr = 0.3; // gaps 0.75, 0.25 → 0.75
        let r = MiningResult {
            patterns: vec![p2.clone(), p1.clone()],
            stats: Default::default(),
            cells: vec![],
        };
        let top = r.top_k_by_gap(1);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0], &p1);
    }

    #[test]
    fn totals_sum_cells() {
        let r = MiningResult {
            patterns: vec![],
            stats: Default::default(),
            cells: vec![
                CellSummary {
                    level: 1,
                    k: 2,
                    evaluated: 10,
                    frequent: 8,
                    positive: 3,
                    negative: 2,
                    alive: 5,
                },
                CellSummary {
                    level: 2,
                    k: 2,
                    evaluated: 20,
                    frequent: 15,
                    positive: 1,
                    negative: 7,
                    alive: 4,
                },
            ],
        };
        assert_eq!(r.total_positive(), 4);
        assert_eq!(r.total_negative(), 9);
    }
}
