//! Top-K "most flipping" pattern mining — the extension proposed in the
//! paper's conclusions (§7) for users who cannot pick `(γ, ε)` a priori.
//!
//! The paper suggests defining the *most flipping* patterns as those with
//! the largest gap between correlation values at different hierarchy
//! levels. This module implements that as an automatic threshold search:
//! starting from a wide `(γ, ε)` pair, the thresholds are relaxed along the
//! paper's own tuning recipe (§5.1: fix γ, lower ε; then lower γ) until at
//! least `k` patterns exist, and the best `k` by flip gap are returned.

use crate::config::FlipperConfig;
use crate::miner::mine_with_view;
use crate::results::FlippingPattern;
use flipper_data::{MultiLevelView, VerticalMemo};
use flipper_guard::GuardError;
use flipper_measures::Thresholds;
use flipper_taxonomy::Taxonomy;

/// Configuration of the top-K search.
#[derive(Debug, Clone)]
pub struct TopKConfig {
    /// How many patterns to return (at most).
    pub k: usize,
    /// Starting positive threshold γ₀ (strictest).
    pub gamma_start: f64,
    /// Lowest γ to try before giving up.
    pub gamma_floor: f64,
    /// Multiplicative step applied to γ when a sweep exhausts ε.
    pub gamma_step: f64,
    /// Additive step by which ε climbs from 0 toward γ in each sweep.
    pub epsilon_step: f64,
    /// Base mining configuration (its thresholds are overridden).
    pub base: FlipperConfig,
}

impl Default for TopKConfig {
    fn default() -> Self {
        TopKConfig {
            k: 10,
            gamma_start: 0.7,
            gamma_floor: 0.2,
            gamma_step: 0.8,
            epsilon_step: 0.05,
            base: FlipperConfig::default(),
        }
    }
}

/// A rejected [`TopKConfig`] search knob, reported by
/// [`TopKConfig::validate`]. The single source of truth for the search
/// invariants: [`top_k_with_view`] rejects through it, and frontends
/// surface it as a typed error.
#[derive(Debug, Clone, PartialEq)]
pub enum SearchConfigError {
    /// `k` is zero.
    ZeroK,
    /// The γ schedule is not a decreasing positive range.
    BadGammaRange {
        /// Starting γ.
        start: f64,
        /// Floor γ.
        floor: f64,
    },
    /// The multiplicative γ step does not shrink γ.
    BadGammaStep(f64),
}

impl std::fmt::Display for SearchConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchConfigError::ZeroK => write!(f, "k must be positive"),
            SearchConfigError::BadGammaRange { start, floor } => write!(
                f,
                "need gamma_start > gamma_floor > 0 (got start={start}, floor={floor})"
            ),
            SearchConfigError::BadGammaStep(step) => {
                write!(f, "gamma_step must shrink gamma (0 < step < 1, got {step})")
            }
        }
    }
}

impl std::error::Error for SearchConfigError {}

/// Why [`top_k_with_view`] returned no result.
#[derive(Debug, Clone, PartialEq)]
pub enum TopKError {
    /// The search knobs fail [`TopKConfig::validate`]; nothing was mined.
    Config(SearchConfigError),
    /// A probe's mining run stopped (see [`mine_with_view`]).
    Guard(GuardError),
}

impl std::fmt::Display for TopKError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopKError::Config(e) => write!(f, "top-k search: {e}"),
            TopKError::Guard(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for TopKError {}

impl From<GuardError> for TopKError {
    fn from(e: GuardError) -> Self {
        TopKError::Guard(e)
    }
}

impl TopKConfig {
    /// Check the search-knob invariants (the base mining configuration has
    /// its own [`FlipperConfig::validate`]). [`top_k_with_view`] checks
    /// these on entry and returns a violation as [`TopKError::Config`].
    pub fn validate(&self) -> Result<(), SearchConfigError> {
        if self.k == 0 {
            return Err(SearchConfigError::ZeroK);
        }
        if !(self.gamma_start > self.gamma_floor && self.gamma_floor > 0.0) {
            return Err(SearchConfigError::BadGammaRange {
                start: self.gamma_start,
                floor: self.gamma_floor,
            });
        }
        // Strict on both ends (rejects 0, 1 and NaN): step 0 would probe
        // only gamma_start instead of sweeping down to the floor.
        if !(self.gamma_step > 0.0 && self.gamma_step < 1.0) {
            return Err(SearchConfigError::BadGammaStep(self.gamma_step));
        }
        Ok(())
    }
}

/// Outcome of the top-K search.
#[derive(Debug, Clone)]
pub struct TopKResult {
    /// Up to `k` patterns, descending by flip gap (ties: ascending itemset).
    pub patterns: Vec<FlippingPattern>,
    /// The `(γ, ε)` pair that produced them.
    pub thresholds: Thresholds,
    /// Number of mining runs performed by the search.
    pub runs: usize,
}

/// Find the top-K most-flipping patterns over a prebuilt
/// [`MultiLevelView`] without a user-supplied `(γ, ε)`.
///
/// Strategy (mirroring the paper's recipe): for γ from `gamma_start`
/// downwards, sweep ε from just below γ *downwards* is what a user would do
/// to restrict; to *find* patterns we instead start from the most
/// permissive ε (just below γ) — the very first sweep position already
/// yields the largest pattern set for that γ, so each γ needs exactly one
/// mining run, with ε = γ − `epsilon_step`.
///
/// Patterns found at stricter thresholds have larger guaranteed gaps
/// (`corr ≥ γ` on positive levels, `corr ≤ ε` on negative ones), so the
/// first γ that yields ≥ k patterns gives the best-separated top-K.
///
/// A `cfg` failing [`TopKConfig::validate`] returns [`TopKError::Config`]
/// before any mining. Each probe is one [`mine_with_view`] run over `memo`,
/// so a panic inside one returns as [`GuardError::Panicked`] in
/// [`TopKError::Guard`]. The probes differ only in γ and ε, so every probe
/// after the first replays the vertical enumerations the first recorded.
pub fn top_k_with_view(
    tax: &Taxonomy,
    view: &MultiLevelView,
    cfg: &TopKConfig,
    memo: &VerticalMemo,
) -> Result<TopKResult, TopKError> {
    cfg.validate().map_err(TopKError::Config)?;
    let mut runs = 0;
    let mut best: Option<TopKResult> = None;

    let mut gamma = cfg.gamma_start;
    while gamma >= cfg.gamma_floor {
        let epsilon = (gamma - cfg.epsilon_step)
            .max(gamma / 2.0)
            .min(gamma * 0.99);
        let thresholds = Thresholds::new(gamma, epsilon);
        let mut mining_cfg = cfg.base.clone();
        mining_cfg.thresholds = thresholds;
        let result = mine_with_view(tax, view, &mining_cfg, memo, None)?;
        runs += 1;

        let mut patterns = result.patterns;
        patterns.sort_by(|a, b| {
            b.flip_gap()
                .total_cmp(&a.flip_gap())
                .then_with(|| a.leaf_itemset.cmp(&b.leaf_itemset))
        });
        patterns.truncate(cfg.k);
        let found = patterns.len();
        let candidate = TopKResult {
            patterns,
            thresholds,
            runs,
        };
        if found >= cfg.k {
            return Ok(candidate);
        }
        // Keep the best partial answer in case nothing reaches k.
        if best
            .as_ref()
            .is_none_or(|b| candidate.patterns.len() > b.patterns.len())
        {
            best = Some(candidate);
        }
        gamma *= cfg.gamma_step;
    }
    // lint:allow(panic-hygiene) validate() guarantees gamma_start ≥ gamma_floor, so the loop ran
    let mut out = best.expect("at least one run performed");
    out.runs = runs;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MinSupports;
    use flipper_datagen::planted::{self, PlantedParams};

    /// The search over a fresh view and memo of `d`.
    fn top_k(d: &planted::PlantedData, cfg: &TopKConfig) -> Result<TopKResult, TopKError> {
        let view = MultiLevelView::build(&d.db, &d.taxonomy).unwrap();
        top_k_with_view(&d.taxonomy, &view, cfg, &VerticalMemo::new())
    }

    fn planted_base() -> FlipperConfig {
        FlipperConfig {
            min_support: MinSupports::Counts(vec![5]),
            ..Default::default()
        }
    }

    #[test]
    fn finds_planted_patterns_without_thresholds() {
        let d = planted::generate(&PlantedParams {
            background_txns: 0,
            ..Default::default()
        });
        let cfg = TopKConfig {
            k: 2,
            base: planted_base(),
            ..Default::default()
        };
        let r = top_k(&d, &cfg).unwrap();
        assert_eq!(r.patterns.len(), 2, "both planted pairs surface");
        let mut found: Vec<_> = r
            .patterns
            .iter()
            .map(|p| (p.leaf_itemset.items()[0], p.leaf_itemset.items()[1]))
            .collect();
        found.sort();
        assert_eq!(found, d.planted_pairs);
        assert!(r.runs >= 1);
        // Each returned pattern is a valid chain with the search thresholds.
        for p in &r.patterns {
            assert_eq!(p.validate(), Ok(()));
        }
    }

    #[test]
    fn k_one_returns_single_best_gap() {
        let d = planted::generate(&PlantedParams {
            background_txns: 0,
            ..Default::default()
        });
        let cfg = TopKConfig {
            k: 1,
            base: planted_base(),
            ..Default::default()
        };
        let r = top_k(&d, &cfg).unwrap();
        assert_eq!(r.patterns.len(), 1);
        // Both planted patterns have identical construction, so the winner
        // must carry the maximal gap among all patterns at the final γ.
        let winner_gap = r.patterns[0].flip_gap();
        assert!(winner_gap > 0.5);
    }

    #[test]
    fn ordering_is_descending_by_gap() {
        let d = planted::generate(&PlantedParams::default());
        let cfg = TopKConfig {
            k: 10,
            base: planted_base(),
            ..Default::default()
        };
        let r = top_k(&d, &cfg).unwrap();
        for w in r.patterns.windows(2) {
            assert!(w[0].flip_gap() >= w[1].flip_gap() - 1e-12);
        }
    }

    #[test]
    fn returns_partial_result_when_data_has_few_patterns() {
        // An all-noise dataset: the search exhausts gamma and reports what
        // little (usually nothing) it found, without panicking.
        let d = planted::generate(&PlantedParams {
            num_patterns: 1,
            pair_txns: 1,
            dilute_txns: 1,
            boost_txns: 1,
            background_txns: 300,
            ..Default::default()
        });
        let cfg = TopKConfig {
            k: 50,
            base: planted_base(),
            ..Default::default()
        };
        let r = top_k(&d, &cfg).unwrap();
        assert!(r.patterns.len() < 50);
        assert!(r.runs > 1, "search explored multiple gammas");
    }

    #[test]
    fn validate_reports_typed_search_errors() {
        assert_eq!(TopKConfig::default().validate(), Ok(()));
        let cfg = TopKConfig {
            k: 0,
            ..Default::default()
        };
        assert_eq!(cfg.validate(), Err(SearchConfigError::ZeroK));
        let cfg = TopKConfig {
            gamma_start: 0.1,
            gamma_floor: 0.5,
            ..Default::default()
        };
        assert_eq!(
            cfg.validate(),
            Err(SearchConfigError::BadGammaRange {
                start: 0.1,
                floor: 0.5
            })
        );
        let cfg = TopKConfig {
            gamma_step: 1.5,
            ..Default::default()
        };
        assert_eq!(cfg.validate(), Err(SearchConfigError::BadGammaStep(1.5)));
        let cfg = TopKConfig {
            gamma_step: 0.0,
            ..Default::default()
        };
        assert_eq!(
            cfg.validate(),
            Err(SearchConfigError::BadGammaStep(0.0)),
            "step 0 would never sweep below gamma_start"
        );
        // Displays carry the historical assert messages.
        assert_eq!(SearchConfigError::ZeroK.to_string(), "k must be positive");
        assert!(SearchConfigError::BadGammaStep(1.5)
            .to_string()
            .contains("shrink gamma"));
        assert!(SearchConfigError::BadGammaRange {
            start: 0.1,
            floor: 0.5
        }
        .to_string()
        .contains("gamma_start > gamma_floor"));
    }

    #[test]
    fn zero_k_rejected() {
        let d = planted::generate(&PlantedParams::default());
        let cfg = TopKConfig {
            k: 0,
            base: planted_base(),
            ..Default::default()
        };
        let err = top_k(&d, &cfg).unwrap_err();
        assert_eq!(err, TopKError::Config(SearchConfigError::ZeroK));
        assert!(err.to_string().contains("k must be positive"), "{err}");
    }

    #[test]
    fn bad_gamma_step_rejected() {
        let d = planted::generate(&PlantedParams::default());
        let cfg = TopKConfig {
            gamma_step: 1.5,
            base: planted_base(),
            ..Default::default()
        };
        let err = top_k(&d, &cfg).unwrap_err();
        assert_eq!(err, TopKError::Config(SearchConfigError::BadGammaStep(1.5)));
        assert!(err.to_string().contains("gamma_step"), "{err}");
    }
}
