//! Literature-mining scenario: the MEDLINE surrogate (paper §5.2, Fig. 12),
//! mined through the `flipper-api` session façade.
//!
//! Citations are transactions over MeSH-style topics. Flipping patterns
//! suggest under-explored topic combinations: substance-related disorders
//! and temperance are often studied together, yet the specific pair
//! (withdrawal syndrome, alcohol abstinence) is underrepresented — a
//! candidate research gap.
//!
//! Run with: `cargo run --example medline` (add `--release` for full scale)

use flipper_api::{FlipperConfig, FlipperError, MinSupports, Session, Thresholds};
use flipper_datagen::surrogate::medline;

fn main() -> Result<(), FlipperError> {
    // Scale 0.1 ≈ 64K citations (the paper's working set is 640K; pass
    // scale 1.0 for the full size — the planted chains are scale-free).
    let scale = std::env::args()
        .nth(1)
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(0.1);
    let data = medline(scale, 42);
    println!(
        "MEDLINE surrogate: {} citations (scale {scale}), {} topics, height {}",
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
