//! End-to-end interchange test: every generator's output survives a
//! write → read round-trip through the text format, and mining the re-read
//! dataset yields identical patterns.

use flipper_core::{FlipperConfig, MinSupports};
use flipper_data::format::{read_dataset, write_dataset, Dataset};
use flipper_datagen::{planted, quest, surrogate};
use flipper_measures::Thresholds;
use std::io::Cursor;

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

fn roundtrip(ds: &Dataset) -> Dataset {
    let mut buf = Vec::new();
    write_dataset(&mut buf, ds).expect("serialization succeeds");
    read_dataset(Cursor::new(&buf[..])).expect("parse succeeds")
}

fn mine_names(ds: &Dataset, cfg: &FlipperConfig) -> Vec<Vec<String>> {
    mine(&ds.taxonomy, &ds.db, cfg)
        .patterns
        .iter()
        .map(|p| {
            p.leaf_itemset
                .items()
                .iter()
                .map(|&i| ds.taxonomy.name(i).to_string())
                .collect()
        })
        .collect()
}

#[test]
fn planted_roundtrip_preserves_mining() {
    let d = planted::generate(&planted::PlantedParams::default());
    let ds = Dataset {
        taxonomy: d.taxonomy,
        db: d.db,
    };
    let back = roundtrip(&ds);
    assert_eq!(ds.taxonomy, back.taxonomy);
    assert_eq!(ds.db, back.db);
    let (g, e) = planted::recommended_thresholds();
    let cfg = FlipperConfig::new(Thresholds::new(g, e), MinSupports::Counts(vec![5]));
    assert_eq!(mine_names(&ds, &cfg), mine_names(&back, &cfg));
}

#[test]
fn quest_roundtrip_is_lossless() {
    let q = quest::generate(&quest::QuestParams {
        num_transactions: 500,
        roots: 3,
        fanout: 2,
        levels: 3,
        num_patterns: 20,
        ..Default::default()
    });
    let ds = Dataset {
        taxonomy: q.taxonomy,
        db: q.db,
    };
    let back = roundtrip(&ds);
    assert_eq!(ds.taxonomy, back.taxonomy);
    assert_eq!(ds.db, back.db);
}

#[test]
fn census_roundtrip_preserves_padded_leaves() {
    // The census taxonomy contains leaf-copy padding; the format writes
    // original names and the reader re-pads — the dataset must survive.
    let d = surrogate::census(9);
    let ds = Dataset {
        taxonomy: d.taxonomy.clone(),
        db: d.db.clone(),
    };
    let back = roundtrip(&ds);
    assert_eq!(ds.taxonomy, back.taxonomy);
    assert_eq!(ds.db, back.db);
    let cfg = FlipperConfig::new(
        Thresholds::new(d.thresholds.0, d.thresholds.1),
        MinSupports::Fractions(d.min_support.clone()),
    );
    let names = mine_names(&back, &cfg);
    assert!(
        names
            .iter()
            .any(|p| p.contains(&"occ:craft-repair+edu:bachelor".to_string())),
        "paper pattern survives the round-trip: {names:?}"
    );
}

#[test]
fn groceries_roundtrip_preserves_mining() {
    let d = surrogate::groceries(3);
    let ds = Dataset {
        taxonomy: d.taxonomy,
        db: d.db,
    };
    let back = roundtrip(&ds);
    let cfg = FlipperConfig::new(
        Thresholds::new(0.15, 0.10),
        MinSupports::Fractions(vec![0.001, 0.0005, 0.0002]),
    );
    assert_eq!(mine_names(&ds, &cfg), mine_names(&back, &cfg));
}
