//! Reality-check tests (paper §5.2): each surrogate dataset must yield the
//! qualitative flipping patterns the paper reports for the corresponding
//! real dataset (Figs. 10–12), under the Table-4 thresholds.

use flipper_core::{FlipperConfig, MinSupports, PruningConfig};
use flipper_datagen::surrogate::{census, groceries, medline, SurrogateData};
use flipper_measures::Thresholds;

/// Mine `db` under `tax` on a fresh session.
fn mine(
    tax: &flipper_taxonomy::Taxonomy,
    db: &flipper_data::TransactionDb,
    cfg: &FlipperConfig,
) -> flipper_core::MiningResult {
    flipper_api::Session::from_db(tax, db)
        .unwrap()
        .mine(cfg)
        .unwrap()
}

fn config_for(d: &SurrogateData) -> FlipperConfig {
    FlipperConfig::new(
        Thresholds::new(d.thresholds.0, d.thresholds.1),
        MinSupports::Fractions(d.min_support.clone()),
    )
}

fn assert_expected_flips_found(d: &SurrogateData, name: &str) {
    let result = mine(&d.taxonomy, &d.db, &config_for(d));
    let found: Vec<Vec<&str>> = result
        .patterns
        .iter()
        .map(|p| {
            p.leaf_itemset
                .items()
                .iter()
                .map(|&i| d.taxonomy.name(i))
                .collect()
        })
        .collect();
    for (a, b) in d.expected_flip_ids() {
        let pair = [a, b];
        assert!(
            result
                .patterns
                .iter()
                .any(|p| p.leaf_itemset.items() == pair),
            "{name}: expected flip ({}, {}) not found; found {found:?}",
            d.taxonomy.name(a),
            d.taxonomy.name(b),
        );
    }
    for p in &result.patterns {
        assert_eq!(p.validate(), Ok(()), "{name}: invalid chain reported");
    }
}

#[test]
fn groceries_reports_fig10_patterns() {
    assert_expected_flips_found(&groceries(42), "groceries");
}

#[test]
fn census_reports_fig11_patterns() {
    assert_expected_flips_found(&census(42), "census");
}

#[test]
fn medline_reports_fig12_patterns() {
    // Scale 0.02 (~13K citations) keeps the test fast; planting scales with
    // the dataset so the chains are preserved.
    assert_expected_flips_found(&medline(0.02, 42), "medline");
}

#[test]
fn all_variants_agree_on_groceries() {
    let d = groceries(11);
    let cfg = config_for(&d);
    let reference: Vec<String> = mine(&d.taxonomy, &d.db, &cfg)
        .patterns
        .iter()
        .map(|p| p.leaf_itemset.to_string())
        .collect();
    assert!(!reference.is_empty());
    for pruning in PruningConfig::VARIANTS {
        let got: Vec<String> = mine(&d.taxonomy, &d.db, &cfg.clone().with_pruning(pruning))
            .patterns
            .iter()
            .map(|p| p.leaf_itemset.to_string())
            .collect();
        assert_eq!(got, reference, "variant {}", pruning.name());
    }
}

#[test]
fn pruned_variants_do_less_work_on_surrogates() {
    let d = groceries(3);
    let cfg = config_for(&d);
    let basic = mine(
        &d.taxonomy,
        &d.db,
        &cfg.clone().with_pruning(PruningConfig::BASIC),
    );
    let full = mine(&d.taxonomy, &d.db, &cfg.with_pruning(PruningConfig::FULL));
    assert!(
        full.stats.candidates_generated <= basic.stats.candidates_generated,
        "full pruning generated more candidates ({}) than basic ({})",
        full.stats.candidates_generated,
        basic.stats.candidates_generated,
    );
    assert!(
        full.stats.peak_resident_itemsets <= basic.stats.peak_resident_itemsets,
        "full pruning used more memory proxy than basic"
    );
}

#[test]
fn census_flip_direction_matches_paper() {
    // Fig. 11: craft-repair × income>=50K negative at the top, positive for
    // the bachelor subgroup.
    let d = census(42);
    let result = mine(&d.taxonomy, &d.db, &config_for(&d));
    let (a, b) = d.expected_flip_ids()[0];
    let p = result
        .patterns
        .iter()
        .find(|p| p.leaf_itemset.items() == [a, b])
        .expect("census pattern present");
    use flipper_measures::Label::*;
    let labels: Vec<_> = p.chain.iter().map(|c| c.label).collect();
    assert_eq!(labels, vec![Negative, Positive]);
}

/// Table 4: per surrogate, the flipping patterns against all positive and
/// negative frequent itemsets. BASIC enumerates every frequent itemset per
/// level, so it supplies Pos/Neg; the full Flipper supplies the flips.
#[test]
fn table4_counts_match_paper() {
    // (name, surrogate, Pos, Neg, flips)
    let rows = [
        ("groceries", groceries(42), 61, 284, 12),
        ("census", census(42), 63, 59, 4),
        ("medline", medline(0.1, 42), 7, 3, 2),
    ];
    for (name, d, pos, neg, flips) in rows {
        let cfg = config_for(&d);
        let basic = mine(
            &d.taxonomy,
            &d.db,
            &cfg.clone().with_pruning(PruningConfig::BASIC),
        );
        let full = mine(&d.taxonomy, &d.db, &cfg.with_pruning(PruningConfig::FULL));
        assert_eq!(
            (basic.total_positive(), basic.total_negative()),
            (pos, neg),
            "{name}: Pos/Neg"
        );
        assert_eq!(full.patterns.len(), flips, "{name}: flips");
        assert_eq!(basic.patterns, full.patterns, "{name}: variants disagree");
    }
}
