//! Threshold tuning walkthrough (paper §5.1 guidance and §7 future work),
//! as a real parameter [`Sweep`] over one cached ingestion.
//!
//! The paper advises: pick γ first, then start ε just below γ and lower it
//! until a satisfactory number of flipping patterns emerges; per-level
//! minimum supports should decrease with depth. Before the façade this was
//! a hand-rolled loop; now it is a γ × ε thresholds grid the session runs
//! against its one cached view — each point bit-identical to
//! `Session::mine` on a fresh session. The top-K "most flipping" ranking merges each run's
//! [`MiningResult::top_k_by_gap`](flipper_api::MiningResult::top_k_by_gap).
//!
//! Run with: `cargo run --example threshold_tuning`

use flipper_api::{FlipperConfig, FlipperError, FlippingPattern, MinSupports, Session, Thresholds};
use flipper_datagen::surrogate::groceries;

fn main() -> Result<(), FlipperError> {
    let data = groceries(42);
    // Ingest once; every sweep point below reuses this projection.
    let session = Session::from_db(&data.taxonomy, &data.db)?;

    let gamma = 0.15;
    let base = FlipperConfig {
        thresholds: Thresholds::new(gamma, 0.10),
        min_support: MinSupports::Fractions(data.min_support.clone()),
        ..Default::default()
    };

    println!("γ fixed at {gamma}; lowering ε (paper's tuning recipe):");
    let epsilons: Vec<f64> = [14, 12, 10, 8, 6, 4, 2]
        .iter()
        .map(|&pct| pct as f64 / 100.0)
        .collect();
    let runs = session
        .sweep()
        .thresholds_grid(&base, &[gamma], &epsilons)
        .run()?;

    println!(
        "{:>12} {:>10} {:>12} {:>12}",
        "point", "flips", "candidates", "time(ms)"
    );
    for run in &runs {
        println!(
            "{:>12} {:>10} {:>12} {:>12.1}",
            run.label,
            run.result.patterns.len(),
            run.result.stats.candidates_generated,
            run.result.stats.elapsed.as_secs_f64() * 1e3,
        );
    }

    // Per-level support guidance: decreasing thresholds matter because item
    // supports shrink with depth.
    println!("\nper-level item-support profile (mean relative support):");
    for ls in flipper_api::stats::level_stats(session.view()) {
        println!(
            "  level {}: {} nodes, mean support {:.4}, max {:.4}",
            ls.level, ls.distinct_nodes, ls.mean_rel_support, ls.max_rel_support
        );
    }

    // Top-K most-flipping ranking (the paper's §7 proposal) across the
    // whole sweep: each run's best 3 by flip gap, merged.
    let mut leaderboard: Vec<(&str, &FlippingPattern)> = runs
        .iter()
        .flat_map(|run| {
            let label = run.label.as_str();
            run.result
                .top_k_by_gap(3)
                .into_iter()
                .map(move |p| (label, p))
        })
        .collect();
    leaderboard.sort_by(|a, b| {
        b.1.flip_gap()
            .total_cmp(&a.1.flip_gap())
            .then_with(|| a.0.cmp(b.0))
    });
    leaderboard.truncate(3);
    println!("\ntop-3 patterns by flip gap across the sweep:");
    for (label, p) in &leaderboard {
        println!(
            "{:.3}  [{label}]  {}",
            p.flip_gap(),
            p.leaf_itemset.display(session.taxonomy())
        );
    }

    assert_eq!(runs.len(), epsilons.len(), "one run per ε");
    assert!(!leaderboard.is_empty());
    Ok(())
}
