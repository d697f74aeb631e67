//! Miner configuration: measure, thresholds, per-level minimum supports and
//! the pruning stack.

use flipper_measures::{Measure, Thresholds};

/// Per-level minimum support thresholds `θ_1 ≥ θ_2 ≥ … ≥ θ_H`.
///
/// The paper recommends non-increasing thresholds (deep levels hold many
/// rare items). Values may be given as fractions of `N` or absolute counts;
/// if fewer values than levels are supplied, the last value is repeated.
#[derive(Debug, Clone, PartialEq)]
pub enum MinSupports {
    /// Relative thresholds, each in `(0, 1]`, one per level starting at 1.
    Fractions(Vec<f64>),
    /// Absolute transaction counts, one per level starting at 1.
    Counts(Vec<u64>),
}

impl MinSupports {
    /// A single fraction applied to every level.
    pub fn uniform_fraction(f: f64) -> Self {
        MinSupports::Fractions(vec![f])
    }

    /// Resolve to absolute counts for a database of `n` transactions and a
    /// taxonomy of height `height`. Every count is at least 1.
    ///
    /// # Panics
    /// Panics on empty specs or non-positive fractions.
    pub fn resolve(&self, n: u64, height: usize) -> Vec<u64> {
        let counts: Vec<u64> = match self {
            MinSupports::Fractions(fs) => {
                assert!(!fs.is_empty(), "at least one support threshold is required");
                assert!(
                    fs.iter().all(|&f| f > 0.0 && f <= 1.0),
                    "fractions must be in (0,1]"
                );
                fs.iter()
                    .map(|&f| ((f * n as f64).ceil() as u64).max(1))
                    .collect()
            }
            MinSupports::Counts(cs) => {
                assert!(!cs.is_empty(), "at least one support threshold is required");
                cs.iter().map(|&c| c.max(1)).collect()
            }
        };
        (0..height)
            .map(|h| counts[h.min(counts.len() - 1)])
            .collect()
    }
}

impl Default for MinSupports {
    /// The paper's default synthetic profile: θ₁=1%, θ₂=0.1%, θ₃=0.05%,
    /// θ₄=0.01%.
    fn default() -> Self {
        MinSupports::Fractions(vec![0.01, 0.001, 0.0005, 0.0001])
    }
}

/// Which pruning techniques are active — one of the four cumulative
/// variants the paper benchmarks in Fig. 8.
///
/// The fields are private, so [`BASIC`](Self::BASIC),
/// [`FLIPPING`](Self::FLIPPING), [`FLIPPING_TPG`](Self::FLIPPING_TPG) and
/// [`FULL`](Self::FULL) are the only values there are; a struct literal
/// does not compile:
///
/// ```compile_fail
/// use flipper_core::PruningConfig;
/// let sibp_without_tpg = PruningConfig { flipping: true, tpg: false, sibp: true };
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PruningConfig {
    flipping: bool,
    tpg: bool,
    sibp: bool,
}

impl PruningConfig {
    /// BASIC: support-only pruning (the paper's baseline).
    pub const BASIC: PruningConfig = PruningConfig {
        flipping: false,
        tpg: false,
        sibp: false,
    };
    /// FLIPPING: + flipping-based vertical pruning.
    pub const FLIPPING: PruningConfig = PruningConfig {
        flipping: true,
        tpg: false,
        sibp: false,
    };
    /// FLIPPING+TPG.
    pub const FLIPPING_TPG: PruningConfig = PruningConfig {
        flipping: true,
        tpg: true,
        sibp: false,
    };
    /// FLIPPING+TPG+SIBP — the full Flipper.
    pub const FULL: PruningConfig = PruningConfig {
        flipping: true,
        tpg: true,
        sibp: true,
    };

    /// The four cumulative variants in benchmark order.
    pub const VARIANTS: [PruningConfig; 4] =
        [Self::BASIC, Self::FLIPPING, Self::FLIPPING_TPG, Self::FULL];

    /// Flipping-based pruning (§4.2.2): only chain-alive itemsets are
    /// extended vertically. Off = the BASIC level-wise Apriori baseline,
    /// which mines all frequent itemsets per level and post-filters flips.
    pub const fn flipping(&self) -> bool {
        self.flipping
    }

    /// Termination of pattern growth (Theorem 3): cap the column bound when
    /// two vertically adjacent cells are all-non-positive.
    pub const fn tpg(&self) -> bool {
        self.tpg
    }

    /// Single-item-based pruning (Theorem 2 / Corollary 2): ban minimal
    /// support items whose per-cell max correlation stays below γ.
    pub const fn sibp(&self) -> bool {
        self.sibp
    }

    /// Short display name matching the paper's legend.
    pub fn name(&self) -> &'static str {
        match (self.flipping, self.tpg, self.sibp) {
            (false, _, _) => "basic",
            (true, false, _) => "flipping",
            (true, true, false) => "flipping+tpg",
            (true, true, true) => "flipping+tpg+sibp",
        }
    }
}

impl Default for PruningConfig {
    fn default() -> Self {
        PruningConfig::FULL
    }
}

/// A rejected [`FlipperConfig`], reported by [`FlipperConfig::validate`].
///
/// The struct-literal escape hatch (`FlipperConfig { .. }`) can produce
/// configurations the builder methods would have refused; `validate`
/// re-checks every invariant and reports the first violation as a typed
/// value instead of a panic, so services and CLIs can refuse a bad request
/// gracefully.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The minimum-support spec holds no thresholds at all.
    EmptySupports,
    /// A relative support fraction falls outside `(0, 1]`.
    BadSupportFraction(f64),
    /// The thresholds violate `0 ≤ ε < γ ≤ 1`.
    BadThresholds {
        /// Positive threshold γ.
        gamma: f64,
        /// Negative threshold ε.
        epsilon: f64,
    },
    /// `max_k` caps itemsets below the minimum meaningful size of 2.
    BadMaxK(usize),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::EmptySupports => {
                write!(f, "at least one minimum-support threshold is required")
            }
            ConfigError::BadSupportFraction(v) => {
                write!(f, "support fraction {v} is outside (0, 1]")
            }
            ConfigError::BadThresholds { gamma, epsilon } => write!(
                f,
                "thresholds must satisfy 0 <= epsilon < gamma <= 1 \
                 (got gamma={gamma}, epsilon={epsilon})"
            ),
            ConfigError::BadMaxK(k) => {
                write!(f, "max_k is {k} but itemsets have at least two items")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Full miner configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FlipperConfig {
    /// Null-invariant correlation measure (default Kulczynski, as in the
    /// paper's experiments).
    pub measure: Measure,
    /// Correlation thresholds `(γ, ε)`.
    pub thresholds: Thresholds,
    /// Per-level minimum supports.
    pub min_support: MinSupports,
    /// Active pruning techniques.
    pub pruning: PruningConfig,
    /// Optional hard cap on itemset size `k` (None = bounded only by the
    /// data and pruning).
    pub max_k: Option<usize>,
    /// Worker threads for the sharded execution layer: candidate batches
    /// and brute-force verification. `1` = sequential
    /// (the default), `0` = auto-detect the hardware parallelism, `n ≥ 2` =
    /// exactly `n`. Results and statistics are bit-identical at every
    /// setting.
    pub threads: usize,
}

impl Default for FlipperConfig {
    fn default() -> Self {
        FlipperConfig {
            measure: Measure::default(),
            thresholds: Thresholds::default(),
            min_support: MinSupports::default(),
            pruning: PruningConfig::default(),
            max_k: None,
            threads: 1,
        }
    }
}

impl FlipperConfig {
    /// Convenience constructor with the most common knobs.
    pub fn new(thresholds: Thresholds, min_support: MinSupports) -> Self {
        FlipperConfig {
            thresholds,
            min_support,
            ..Default::default()
        }
    }

    /// Replace the pruning stack.
    pub fn with_pruning(mut self, pruning: PruningConfig) -> Self {
        self.pruning = pruning;
        self
    }

    /// Replace the measure.
    pub fn with_measure(mut self, measure: Measure) -> Self {
        self.measure = measure;
        self
    }

    /// Cap the maximum itemset size.
    pub fn with_max_k(mut self, max_k: usize) -> Self {
        assert!(max_k >= 2, "itemsets have at least two items");
        self.max_k = Some(max_k);
        self
    }

    /// Set the worker-thread count (`0` = auto-detect, `1` = sequential).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Check every invariant [`MinSupports::resolve`], [`Thresholds::new`]
    /// and [`FlipperConfig::with_max_k`] would enforce by panicking, and
    /// report the first violation as a typed [`ConfigError`] instead.
    ///
    /// A configuration that passes `validate` never panics inside the miner
    /// for configuration reasons.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let t = &self.thresholds;
        if !((0.0..=1.0).contains(&t.gamma)
            && (0.0..=1.0).contains(&t.epsilon)
            && t.epsilon < t.gamma)
        {
            return Err(ConfigError::BadThresholds {
                gamma: t.gamma,
                epsilon: t.epsilon,
            });
        }
        match &self.min_support {
            MinSupports::Fractions(fs) => {
                if fs.is_empty() {
                    return Err(ConfigError::EmptySupports);
                }
                if let Some(&bad) = fs.iter().find(|&&f| !(f > 0.0 && f <= 1.0)) {
                    return Err(ConfigError::BadSupportFraction(bad));
                }
            }
            MinSupports::Counts(cs) => {
                if cs.is_empty() {
                    return Err(ConfigError::EmptySupports);
                }
            }
        }
        if let Some(k) = self.max_k {
            if k < 2 {
                return Err(ConfigError::BadMaxK(k));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_repeats_last_threshold() {
        let ms = MinSupports::Fractions(vec![0.5, 0.1]);
        assert_eq!(ms.resolve(100, 4), vec![50, 10, 10, 10]);
    }

    #[test]
    fn resolve_rounds_up_and_floors_at_one() {
        let ms = MinSupports::Fractions(vec![0.015]);
        assert_eq!(ms.resolve(1000, 1), vec![15]);
        let ms = MinSupports::Fractions(vec![0.0001]);
        assert_eq!(ms.resolve(100, 2), vec![1, 1]);
        let ms = MinSupports::Counts(vec![0, 5]);
        assert_eq!(ms.resolve(100, 3), vec![1, 5, 5]);
    }

    #[test]
    fn default_matches_paper_profile() {
        let ms = MinSupports::default();
        assert_eq!(ms.resolve(100_000, 4), vec![1000, 100, 50, 10]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_spec_panics() {
        let _ = MinSupports::Fractions(vec![]).resolve(10, 1);
    }

    #[test]
    #[should_panic(expected = "fractions must be in")]
    fn bad_fraction_panics() {
        let _ = MinSupports::Fractions(vec![1.5]).resolve(10, 1);
    }

    #[test]
    fn variant_names() {
        assert_eq!(PruningConfig::BASIC.name(), "basic");
        assert_eq!(PruningConfig::FLIPPING.name(), "flipping");
        assert_eq!(PruningConfig::FLIPPING_TPG.name(), "flipping+tpg");
        assert_eq!(PruningConfig::FULL.name(), "flipping+tpg+sibp");
        assert_eq!(PruningConfig::default(), PruningConfig::FULL);
    }

    #[test]
    fn builder_methods_chain() {
        let cfg = FlipperConfig::new(
            Thresholds::new(0.6, 0.2),
            MinSupports::uniform_fraction(0.1),
        )
        .with_pruning(PruningConfig::BASIC)
        .with_measure(flipper_measures::Measure::Cosine)
        .with_max_k(3)
        .with_threads(4);
        assert_eq!(cfg.pruning, PruningConfig::BASIC);
        assert_eq!(cfg.measure, flipper_measures::Measure::Cosine);
        assert_eq!(cfg.max_k, Some(3));
        assert_eq!(cfg.threads, 4);
    }

    #[test]
    fn default_is_sequential() {
        assert_eq!(FlipperConfig::default().threads, 1);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn max_k_one_rejected() {
        let _ = FlipperConfig::default().with_max_k(1);
    }

    #[test]
    fn validate_accepts_defaults_and_builder_output() {
        assert_eq!(FlipperConfig::default().validate(), Ok(()));
        let cfg = FlipperConfig::new(Thresholds::new(0.6, 0.2), MinSupports::Counts(vec![10, 5]))
            .with_max_k(3);
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn validate_reports_typed_violations() {
        let cfg = FlipperConfig {
            thresholds: Thresholds {
                gamma: 0.1,
                epsilon: 0.4,
            },
            ..Default::default()
        };
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::BadThresholds {
                gamma: 0.1,
                epsilon: 0.4
            })
        );

        let mut cfg = FlipperConfig {
            min_support: MinSupports::Fractions(vec![]),
            ..Default::default()
        };
        assert_eq!(cfg.validate(), Err(ConfigError::EmptySupports));
        cfg.min_support = MinSupports::Counts(vec![]);
        assert_eq!(cfg.validate(), Err(ConfigError::EmptySupports));
        cfg.min_support = MinSupports::Fractions(vec![0.5, 1.5]);
        assert_eq!(cfg.validate(), Err(ConfigError::BadSupportFraction(1.5)));

        let cfg = FlipperConfig {
            max_k: Some(1),
            ..Default::default()
        };
        assert_eq!(cfg.validate(), Err(ConfigError::BadMaxK(1)));
    }

    #[test]
    fn config_error_displays_are_descriptive() {
        assert!(ConfigError::EmptySupports.to_string().contains("at least"));
        assert!(ConfigError::BadSupportFraction(2.0)
            .to_string()
            .contains("(0, 1]"));
        assert!(ConfigError::BadThresholds {
            gamma: 0.1,
            epsilon: 0.4
        }
        .to_string()
        .contains("epsilon < gamma"));
        assert!(ConfigError::BadMaxK(1).to_string().contains("two items"));
    }
}
