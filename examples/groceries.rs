//! Market-basket scenario: the GROCERIES surrogate (paper §5.2, Fig. 10),
//! mined through the `flipper-api` session façade.
//!
//! Generates ~9,800 point-of-sale baskets over a 3-level store taxonomy,
//! mines with the Table-4 thresholds (γ = 0.15, ε = 0.10) and prints the
//! discovered flips — including the paper's famous beer × baby-cosmetics
//! pattern and the actionable pork × salad-dressing store-layout hint.
//!
//! Run with: `cargo run --example groceries`

use flipper_api::{FlipperConfig, FlipperError, MinSupports, Session, Thresholds};
use flipper_datagen::surrogate::groceries;

fn main() -> Result<(), FlipperError> {
    let data = groceries(42);
    println!(
        "GROCERIES surrogate: {} baskets, {} products, taxonomy height {}",
        data.db.len(),
        data.taxonomy.leaf_count(),
        data.taxonomy.height()
    );

    let session = Session::from_db(&data.taxonomy, &data.db)?;
    let cfg = FlipperConfig::new(
        Thresholds::new(data.thresholds.0, data.thresholds.1),
        MinSupports::Fractions(data.min_support.clone()),
    );
    let result = session.mine(&cfg)?;

    println!("\nflipping patterns: {}", result.patterns.len());
    println!("top 5 by flip gap:");
    for p in result.top_k_by_gap(5) {
        println!("{}\n", p.display(session.taxonomy()));
    }

    // The planted paper patterns must be among the results.
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

    println!("stats: {}", result.stats.summary());
    Ok(())
}
