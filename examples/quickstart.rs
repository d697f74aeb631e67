//! Quickstart: mine the paper's toy example (Fig. 4/5) through the
//! `flipper-api` session façade.
//!
//! Builds the 10-transaction database and 3-level taxonomy from Figure 4 of
//! the paper, opens a [`Session`] on it with [`Session::from_db`] (which
//! borrows the database and checks every row against the taxonomy's
//! leaves), and mines with γ = 0.6, ε = 0.35 — recovering the single
//! flipping pattern `{a11, b11}` highlighted in Figure 5. The result flows
//! through a [`TextReport`] sink, exactly as `flipper mine` prints it.
//!
//! Run with: `cargo run --example quickstart`

use flipper_api::{
    FlipperConfig, FlipperError, MinSupports, PruningConfig, ResultSink, Session, TextReport,
    Thresholds,
};
use flipper_data::TransactionDb;
use flipper_taxonomy::Taxonomy;

fn main() -> Result<(), FlipperError> {
    // The taxonomy of Fig. 4: two categories (a, b), two sub-categories
    // each, two leaves per sub-category.
    let tax = Taxonomy::from_edges([
        ("a", ""),
        ("b", ""),
        ("a1", "a"),
        ("a2", "a"),
        ("b1", "b"),
        ("b2", "b"),
        ("a11", "a1"),
        ("a12", "a1"),
        ("a21", "a2"),
        ("a22", "a2"),
        ("b11", "b1"),
        ("b12", "b1"),
        ("b21", "b2"),
        ("b22", "b2"),
    ])?;

    // The 10 transactions D1..D10 of Fig. 4.
    let g = |s: &str| tax.node_by_name(s).expect("item exists");
    let db = TransactionDb::new(vec![
        vec![g("a11"), g("a22"), g("b11"), g("b22")],
        vec![g("a11"), g("a21"), g("b11")],
        vec![g("a12"), g("a21")],
        vec![g("a12"), g("a22"), g("b21")],
        vec![g("a12"), g("a22"), g("b21")],
        vec![g("a12"), g("a21"), g("b22")],
        vec![g("a21"), g("b12")],
        vec![g("b12"), g("b21"), g("b22")],
        vec![g("b12"), g("b21")],
        vec![g("a22"), g("b12"), g("b22")],
    ])?;

    // Ingest once; the session caches the multi-level projection.
    let session = Session::from_db(&tax, &db)?;

    // Example 3 of the paper: γ = 0.6, ε = 0.35, minimum support 1 count.
    let cfg = FlipperConfig::new(Thresholds::new(0.6, 0.35), MinSupports::Counts(vec![1]))
        .with_pruning(PruningConfig::FULL);
    let result = session.mine(&cfg)?;

    let mut report = TextReport::new(std::io::stdout().lock());
    report.consume("quickstart", session.taxonomy(), &cfg, &result)?;
    report.finish()?;

    assert_eq!(
        result.patterns.len(),
        1,
        "the toy example has exactly one flipping pattern"
    );
    assert_eq!(
        result.patterns[0]
            .leaf_itemset
            .display(session.taxonomy())
            .to_string(),
        "{a11, b11}"
    );
    Ok(())
}
