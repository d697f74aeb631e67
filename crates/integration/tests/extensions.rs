//! Tests for level-restricted mining (§2.2), an extension feature.

use flipper_core::{mine, verify::brute_force, FlipperConfig, MinSupports};
use flipper_datagen::planted::{self, PlantedParams};
use flipper_measures::Thresholds;
use flipper_taxonomy::NodeId;

fn planted_cfg() -> FlipperConfig {
    let (g, e) = planted::recommended_thresholds();
    FlipperConfig::new(Thresholds::new(g, e), MinSupports::Counts(vec![5]))
}

/// Restricting to levels {1, 3} must equal brute force on the restricted
/// tree — and drops the middle-level flip requirement, so patterns whose
/// level-2 slice broke the chain can now appear.
#[test]
fn restricted_levels_mine_correctly() {
    let d = planted::generate(&PlantedParams {
        background_txns: 150,
        ..Default::default()
    });
    let restricted = d.taxonomy.restrict_levels(&[1, 3]).unwrap();
    assert_eq!(restricted.height(), 2);

    // Remap the database: leaf names are preserved by the restriction.
    let remap: Vec<NodeId> = {
        let mut m = vec![NodeId::ROOT; d.taxonomy.node_count()];
        for &leaf in d.taxonomy.leaves() {
            m[leaf.index()] = restricted
                .node_by_name(d.taxonomy.name(leaf))
                .expect("leaf survives");
        }
        m
    };
    let rows: Vec<Vec<NodeId>> =
        d.db.iter()
            .map(|t| t.iter().map(|&it| remap[it.index()]).collect())
            .collect();
    let rdb = flipper_data::TransactionDb::new(rows).unwrap();
    rdb.validate_against(&restricted).unwrap();

    let cfg = planted_cfg();
    let got: Vec<String> = mine(&restricted, &rdb, &cfg)
        .patterns
        .iter()
        .map(|p| p.leaf_itemset.to_string())
        .collect();
    let expected: Vec<String> = brute_force(&restricted, &rdb, &cfg)
        .iter()
        .map(|p| p.leaf_itemset.to_string())
        .collect();
    assert_eq!(got, expected);

    // The planted chain is (+, −, +): restricted to levels {1, 3} it reads
    // (+, +) — NOT a flip — so the planted pairs must disappear.
    for &(a, _b) in &d.planted_pairs {
        let name_a = d.taxonomy.name(a);
        let pattern_present = mine(&restricted, &rdb, &cfg).patterns.iter().any(|p| {
            p.leaf_itemset
                .items()
                .iter()
                .any(|&i| restricted.name(i) == name_a)
        });
        assert!(
            !pattern_present,
            "(+,+) chains must not be reported as flips after restriction"
        );
    }
}

/// Restricting to levels {2, 3} keeps the planted (−, +) tail alive.
#[test]
fn restricted_levels_keep_bottom_flip() {
    let d = planted::generate(&PlantedParams {
        background_txns: 0,
        ..Default::default()
    });
    let restricted = d.taxonomy.restrict_levels(&[2, 3]).unwrap();
    let remap = |t: &[NodeId]| -> Vec<NodeId> {
        t.iter()
            .map(|&it| restricted.node_by_name(d.taxonomy.name(it)).unwrap())
            .collect()
    };
    let rows: Vec<Vec<NodeId>> = d.db.iter().map(remap).collect();
    let rdb = flipper_data::TransactionDb::new(rows).unwrap();
    let result = mine(&restricted, &rdb, &planted_cfg());
    for &(a, b) in &d.planted_pairs {
        let ra = restricted.node_by_name(d.taxonomy.name(a)).unwrap();
        let rb = restricted.node_by_name(d.taxonomy.name(b)).unwrap();
        let pair = if ra < rb { [ra, rb] } else { [rb, ra] };
        assert!(
            result
                .patterns
                .iter()
                .any(|p| p.leaf_itemset.items() == pair),
            "planted (−,+) tail must survive the {{2,3}} restriction"
        );
    }
}
