//! Ground-truth tests: datasets with *planted* flipping patterns must
//! yield exactly those patterns — non-trivially exercising the miner
//! (random data almost never flips, as the paper also observed for its
//! synthetic experiments).

use flipper_core::{verify::brute_force, FlipperConfig, MinSupports, PruningConfig};
use flipper_datagen::planted::{self, PlantedParams};
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

fn planted_cfg() -> FlipperConfig {
    let (gamma, eps) = planted::recommended_thresholds();
    FlipperConfig::new(
        Thresholds::new(gamma, eps),
        MinSupports::Counts(vec![5, 5, 5]),
    )
}

#[test]
fn planted_pairs_are_found_by_all_variants() {
    let data = planted::generate(&PlantedParams::default());
    let expected: Vec<(String, String)> = data
        .planted_pairs
        .iter()
        .map(|&(a, b)| {
            (
                data.taxonomy.name(a).to_string(),
                data.taxonomy.name(b).to_string(),
            )
        })
        .collect();
    assert_eq!(expected.len(), 2);

    for pruning in PruningConfig::VARIANTS {
        let result = mine(
            &data.taxonomy,
            &data.db,
            &planted_cfg().with_pruning(pruning),
        );
        let mut found: Vec<(String, String)> = result
            .patterns
            .iter()
            .filter(|p| p.size() == 2)
            .map(|p| {
                let items = p.leaf_itemset.items();
                (
                    data.taxonomy.name(items[0]).to_string(),
                    data.taxonomy.name(items[1]).to_string(),
                )
            })
            .collect();
        found.sort();
        for pair in &expected {
            assert!(
                found.contains(pair),
                "variant {} missed planted pair {:?} (found {:?})",
                pruning.name(),
                pair,
                found
            );
        }
        // Every reported pattern must be a valid alternating chain.
        for p in &result.patterns {
            assert_eq!(p.validate(), Ok(()));
        }
    }
}

#[test]
fn planted_matches_brute_force_with_noise() {
    // Background noise can create or destroy incidental patterns; whatever
    // the truth is, miner and brute force must agree exactly.
    for seed in [7u64, 13, 99] {
        let data = planted::generate(&PlantedParams {
            background_txns: 400,
            seed,
            ..Default::default()
        });
        let cfg = planted_cfg();
        let expected: Vec<String> = brute_force(&data.taxonomy, &data.db, &cfg)
            .unwrap()
            .iter()
            .map(|p| p.leaf_itemset.to_string())
            .collect();
        assert!(
            !expected.is_empty(),
            "planted data must contain at least the planted patterns"
        );
        for pruning in PruningConfig::VARIANTS {
            let got: Vec<String> =
                mine(&data.taxonomy, &data.db, &cfg.clone().with_pruning(pruning))
                    .patterns
                    .iter()
                    .map(|p| p.leaf_itemset.to_string())
                    .collect();
            assert_eq!(got, expected, "variant {} (seed {seed})", pruning.name());
        }
    }
}

#[test]
fn planted_chain_has_expected_signs() {
    let data = planted::generate(&PlantedParams {
        background_txns: 0,
        ..Default::default()
    });
    let result = mine(&data.taxonomy, &data.db, &planted_cfg());
    let (x, y) = data.planted_pairs[0];
    let p = result
        .patterns
        .iter()
        .find(|p| p.leaf_itemset.items() == [x, y])
        .expect("planted pattern found");
    use flipper_measures::Label::*;
    let labels: Vec<_> = p.chain.iter().map(|c| c.label).collect();
    assert_eq!(labels, vec![Positive, Negative, Positive]);
    // The construction's exact Kulc values.
    assert!((p.chain[2].corr - 1.0).abs() < 1e-12);
    assert!((p.chain[1].corr - 30.0 / 150.0).abs() < 1e-12);
    assert!((p.chain[0].corr - 330.0 / 450.0).abs() < 1e-12);
}

#[test]
fn more_noise_still_agrees_with_brute_force() {
    let data = planted::generate(&PlantedParams {
        background_txns: 2_000,
        num_patterns: 1,
        roots: 2,
        ..Default::default()
    });
    let cfg = planted_cfg();
    let expected: Vec<String> = brute_force(&data.taxonomy, &data.db, &cfg)
        .unwrap()
        .iter()
        .map(|p| p.leaf_itemset.to_string())
        .collect();
    for pruning in PruningConfig::VARIANTS {
        let got: Vec<String> = mine(&data.taxonomy, &data.db, &cfg.clone().with_pruning(pruning))
            .patterns
            .iter()
            .map(|p| p.leaf_itemset.to_string())
            .collect();
        assert_eq!(got, expected, "variant {}", pruning.name());
    }
}
