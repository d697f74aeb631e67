//! Surprisingness ranking baselines from the paper's related work (§6).
//!
//! Before flipping patterns, taxonomies were used to *rank* already-mined
//! positive correlations: Hamani & Maamri \[6\] score a pattern by the
//! taxonomy distance between its items (farther apart ⇒ more surprising),
//! and Srikant & Agrawal \[17\] prune rules whose ancestors already imply
//! them. This module implements the distance-ranking baseline so the
//! qualitative comparison of the paper's §6 can be reproduced: distance
//! ranking surfaces *cross-category* positives but cannot express the
//! level-contrast ("flip") requirement.

use crate::cell::ItemsetInfo;
use crate::config::FlipperConfig;
use crate::miner::mine;
use crate::results::MiningResult;
use flipper_data::{Itemset, TransactionDb};
use flipper_measures::Label;
use flipper_taxonomy::{NodeId, Taxonomy};

/// A positive itemset scored by taxonomy distance.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedPattern {
    /// The itemset (at whatever level it was found).
    pub itemset: Itemset,
    /// Its abstraction level.
    pub level: usize,
    /// Correlation value.
    pub corr: f64,
    /// Surprisingness: the maximum pairwise taxonomy distance between the
    /// itemset's members (edges on the tree path).
    pub distance: usize,
}

/// Mine all positive itemsets with the BASIC variant and rank them by
/// taxonomy distance, descending (ties: higher correlation first).
///
/// This reproduces the related-work baseline the paper contrasts with: the
/// output is a ranking of positives only — flips are invisible to it.
pub fn rank_by_distance(
    tax: &Taxonomy,
    db: &TransactionDb,
    cfg: &FlipperConfig,
) -> Vec<RankedPattern> {
    let basic = cfg
        .clone()
        .with_pruning(crate::config::PruningConfig::BASIC);
    let result = mine(tax, db, &basic);
    rank_result_by_distance(tax, &result)
}

/// Rank the positive itemsets of an existing mining result.
///
/// Works with any variant's result, but only itemsets that were evaluated
/// (and labeled positive) appear — use BASIC for the complete ranking.
pub fn rank_result_by_distance(tax: &Taxonomy, result: &MiningResult) -> Vec<RankedPattern> {
    let mut out: Vec<RankedPattern> = result
        .positive_itemsets()
        .map(|(level, set, info)| RankedPattern {
            itemset: Itemset::from_sorted(set.to_vec()),
            level,
            corr: info.corr,
            distance: max_pairwise_distance(tax, set),
        })
        .collect();
    out.sort_by(|a, b| {
        b.distance
            .cmp(&a.distance)
            .then_with(|| b.corr.total_cmp(&a.corr))
            .then_with(|| a.itemset.cmp(&b.itemset))
    });
    out
}

fn max_pairwise_distance(tax: &Taxonomy, items: &[NodeId]) -> usize {
    let mut best = 0;
    for (i, &a) in items.iter().enumerate() {
        for &b in &items[i + 1..] {
            best = best.max(tax.distance(a, b));
        }
    }
    best
}

impl MiningResult {
    /// Iterate `(level, items, info)` for every positively labeled
    /// itemset across all evaluated cells.
    pub fn positive_itemsets(&self) -> impl Iterator<Item = (usize, &[NodeId], &ItemsetInfo)> + '_ {
        self.evaluated.iter().flat_map(|(level, cell)| {
            cell.iter()
                .filter(|(_, info)| info.label == Label::Positive)
                .map(move |(set, info)| (*level, set, info))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MinSupports;
    use flipper_datagen::planted::{self, PlantedParams};
    use flipper_measures::Thresholds;

    fn setup() -> (flipper_taxonomy::Taxonomy, TransactionDb, FlipperConfig) {
        let d = planted::generate(&PlantedParams {
            background_txns: 0,
            ..Default::default()
        });
        let (g, e) = planted::recommended_thresholds();
        let cfg = FlipperConfig::new(Thresholds::new(g, e), MinSupports::Counts(vec![5]));
        (d.taxonomy, d.db, cfg)
    }

    #[test]
    fn ranking_is_sorted_by_distance_then_corr() {
        let (tax, db, cfg) = setup();
        let ranked = rank_by_distance(&tax, &db, &cfg);
        assert!(!ranked.is_empty());
        for w in ranked.windows(2) {
            assert!(
                w[0].distance > w[1].distance
                    || (w[0].distance == w[1].distance && w[0].corr >= w[1].corr - 1e-12)
            );
        }
    }

    #[test]
    fn cross_category_positives_have_max_distance() {
        let (tax, db, cfg) = setup();
        let ranked = rank_by_distance(&tax, &db, &cfg);
        // The planted leaf pairs (cross-category, perfectly correlated)
        // sit at the top band: two leaves under different level-1 roots are
        // 2 × height edges apart.
        assert_eq!(ranked[0].distance, 2 * tax.height());
    }

    #[test]
    fn ranking_contains_planted_leaf_pairs() {
        let d = planted::generate(&PlantedParams {
            background_txns: 0,
            ..Default::default()
        });
        let (g, e) = planted::recommended_thresholds();
        let cfg = FlipperConfig::new(Thresholds::new(g, e), MinSupports::Counts(vec![5]));
        let ranked = rank_by_distance(&d.taxonomy, &d.db, &cfg);
        for &(a, b) in &d.planted_pairs {
            let set = Itemset::pair(a, b);
            assert!(
                ranked.iter().any(|r| r.itemset == set),
                "planted positive pair must be ranked"
            );
        }
    }

    #[test]
    fn distance_ranking_cannot_see_flips() {
        // The baseline's blind spot, per the paper's §6: a negatively
        // correlated leaf pair under positively correlated parents (a
        // down-flip) never appears in a positives-only ranking.
        let (tax, db, cfg) = setup();
        let ranked = rank_by_distance(&tax, &db, &cfg);
        let flips = mine(&tax, &db, &cfg);
        // The planted up-flip leaf pairs are positive, so they DO appear —
        // but their defining property (the flip) is not what ranks them:
        // equal-distance non-flipping pairs rank alongside them.
        let flip_sets: Vec<&Itemset> = flips.patterns.iter().map(|p| &p.leaf_itemset).collect();
        let top_band: Vec<&RankedPattern> = ranked
            .iter()
            .filter(|r| r.distance == ranked[0].distance)
            .collect();
        assert!(
            top_band.len() > flip_sets.len(),
            "distance ranking cannot separate flips from ordinary \
             cross-category positives ({} vs {})",
            top_band.len(),
            flip_sets.len()
        );
    }
}
