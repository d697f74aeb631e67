//! Threshold-free mining: the top-K most-flipping search (the paper's §7
//! proposal) on the CENSUS surrogate, through one `flipper-api`
//! [`Session`]. It answers the question the paper leaves to the data
//! expert — *which thresholds?* — without manual tuning: every probe run
//! reuses the session's one ingestion.
//!
//! Run with: `cargo run --example topk`

use flipper_api::{FlipperConfig, FlipperError, MinSupports, Session, TopKConfig};
use flipper_datagen::surrogate::census;

fn main() -> Result<(), FlipperError> {
    let data = census(42);
    println!("CENSUS surrogate: {} records", data.db.len());

    let session = Session::from_db(&data.taxonomy, &data.db)?;

    // No (γ, ε) supplied: the search relaxes thresholds along the paper's
    // tuning recipe until k patterns emerge.
    let base = FlipperConfig {
        min_support: MinSupports::Fractions(data.min_support.clone()),
        ..Default::default()
    };
    let topk = session.top_k(&TopKConfig {
        k: 5,
        base,
        ..Default::default()
    })?;
    println!(
        "\ntop-{} patterns at auto-selected (γ, ε) = ({:.3}, {:.3}) after {} runs:",
        topk.patterns.len(),
        topk.thresholds.gamma,
        topk.thresholds.epsilon,
        topk.runs
    );
    for p in &topk.patterns {
        println!(
            "gap {:.3}:\n{}\n",
            p.flip_gap(),
            p.display(session.taxonomy())
        );
    }
    Ok(())
}
