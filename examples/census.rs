//! Demographics scenario: the CENSUS surrogate (paper §5.2, Fig. 11),
//! mined through the `flipper-api` session façade.
//!
//! 32,000 person records become transactions over attribute items with a
//! 2-level hierarchy (attribute group → attribute ∧ qualifier subgroup).
//! Flipping patterns expose sub-populations that contradict their group's
//! trend: craft-repair workers correlate negatively with income ≥ 50K —
//! unless they hold a bachelor's degree.
//!
//! Run with: `cargo run --example census`

use flipper_api::{FlipperConfig, FlipperError, MinSupports, PruningConfig, Session, Thresholds};
use flipper_datagen::surrogate::census;

fn main() -> Result<(), FlipperError> {
    let data = census(42);
    println!(
        "CENSUS surrogate: {} records, {} attribute items, height {}",
        data.db.len(),
        data.taxonomy.leaf_count(),
        data.taxonomy.height()
    );
    // `income>=50K` has no refinement of its own; the taxonomy was balanced
    // with leaf-copy padding (Fig. 3 [B]) — show it.
    let padded = data
        .taxonomy
        .node_by_name("income>=50K#1")
        .expect("padded leaf");
    println!(
        "note: {:?} is a synthetic copy of {:?} (Fig. 3 [B] rebalancing)",
        data.taxonomy.name(padded),
        "income>=50K",
    );

    let session = Session::from_db(&data.taxonomy, &data.db)?;
    let cfg = FlipperConfig::new(
        Thresholds::new(data.thresholds.0, data.thresholds.1),
        MinSupports::Fractions(data.min_support.clone()),
    )
    .with_pruning(PruningConfig::FULL);
    let result = session.mine(&cfg)?;

    println!("\nflipping patterns: {}", result.patterns.len());
    for p in &result.patterns {
        println!("{}\n", p.display(session.taxonomy()));
    }

    for (a, b) in data.expected_flip_ids() {
        let found = result
            .patterns
            .iter()
            .any(|p| p.leaf_itemset.items() == [a, b]);
        println!(
            "paper pattern ({}, {}): {}",
            data.taxonomy.name(a),
            data.taxonomy.name(b),
            if found { "FOUND" } else { "missing!" }
        );
        assert!(found);
    }
    println!("\nstats: {}", result.stats.summary());
    Ok(())
}
