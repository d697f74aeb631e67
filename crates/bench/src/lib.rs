//! Shared experiment harness for regenerating every table and figure of the
//! paper's evaluation (§5). The `src/bin/*` targets print the tables, timed
//! with the dependency-free [`timing`] module. The repository's benchmark
//! proper is the standalone `perfbench/` package.

pub mod timing;

use flipper_core::{mine_with_view, FlipperConfig, MinSupports, PruningConfig};
use flipper_data::{MultiLevelView, TransactionDb};
use flipper_measures::Thresholds;
use flipper_taxonomy::Taxonomy;
use std::time::Duration;

/// One row of a variant-comparison experiment.
#[derive(Debug, Clone)]
pub struct VariantRow {
    /// Pruning-variant name (paper legend).
    pub variant: &'static str,
    /// Wall-clock mining time.
    pub elapsed: Duration,
    /// Candidates generated.
    pub candidates: u64,
    /// Peak resident itemsets (memory proxy, Fig. 9b).
    pub peak_resident: u64,
    /// Flipping patterns found.
    pub flips: usize,
    /// Positive itemsets across all cells.
    pub pos: usize,
    /// Negative itemsets across all cells.
    pub neg: usize,
}

/// Run all four pruning variants on one dataset and configuration.
pub fn run_variants(tax: &Taxonomy, db: &TransactionDb, base: &FlipperConfig) -> Vec<VariantRow> {
    run_selected(tax, db, base, &PruningConfig::VARIANTS)
}

/// Run a subset of variants (for heavy sweeps where BASIC is prohibitive at
/// paper scale — exactly the situation the paper reports in §5.2).
pub fn run_selected(
    tax: &Taxonomy,
    db: &TransactionDb,
    base: &FlipperConfig,
    variants: &[PruningConfig],
) -> Vec<VariantRow> {
    let view = MultiLevelView::build(db, tax);
    variants
        .iter()
        .map(|&pruning| {
            let cfg = base.clone().with_pruning(pruning);
            let r = mine_with_view(tax, &view, &cfg);
            VariantRow {
                variant: pruning.name(),
                elapsed: r.stats.elapsed,
                candidates: r.stats.candidates_generated,
                peak_resident: r.stats.peak_resident_itemsets,
                flips: r.patterns.len(),
                pos: r.total_positive(),
                neg: r.total_negative(),
            }
        })
        .collect()
}

/// The ten minimum-support profiles of Table 3 `(θ₁, θ₂, θ₃, θ₄)`.
pub fn minsup_profiles() -> Vec<(&'static str, [f64; 4])> {
    vec![
        ("thr1", [0.05, 0.05, 0.05, 0.05]),
        ("thr2", [0.05, 0.001, 0.0005, 0.0001]),
        ("thr3", [0.01, 0.001, 0.0005, 0.0001]),
        ("thr4", [0.01, 0.0005, 0.0005, 0.0001]),
        ("thr5", [0.01, 0.0005, 0.0001, 0.0001]),
        ("thr6", [0.01, 0.0005, 0.0001, 0.00005]),
        ("thr7", [0.001, 0.0005, 0.0001, 0.00005]),
        ("thr8", [0.001, 0.0001, 0.0001, 0.00005]),
        ("thr9", [0.001, 0.0001, 0.00006, 0.00005]),
        ("thr10", [0.001, 0.0001, 0.00006, 0.00003]),
    ]
}

/// The seven correlation-threshold profiles of Fig. 8(d) `(γ, ε)`.
pub fn corr_profiles() -> Vec<(f64, f64)> {
    vec![
        (0.2, 0.1),
        (0.3, 0.1),
        (0.4, 0.1),
        (0.5, 0.1),
        (0.6, 0.1),
        (0.6, 0.3),
        (0.6, 0.5),
    ]
}

/// The paper's default synthetic configuration (§5.1): γ=0.3, ε=0.1,
/// θ = (1%, 0.1%, 0.05%, 0.01%).
pub fn default_synthetic_config() -> FlipperConfig {
    FlipperConfig::new(
        Thresholds::new(0.3, 0.1),
        MinSupports::Fractions(vec![0.01, 0.001, 0.0005, 0.0001]),
    )
}

/// Render rows as a fixed-width table with the given headers.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title}");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, c) in row.iter().enumerate() {
            widths[i] = widths[i].max(c.len());
        }
    }
    let line = |cols: &[String]| {
        let cells: Vec<String> = cols
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect();
        println!("  {}", cells.join("  "));
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Format a [`VariantRow`] for the standard variant-comparison tables.
pub fn variant_cells(r: &VariantRow) -> Vec<String> {
    vec![
        r.variant.to_string(),
        format!("{:.3}", r.elapsed.as_secs_f64()),
        r.candidates.to_string(),
        r.peak_resident.to_string(),
        r.flips.to_string(),
    ]
}

/// Scale factor from the `--scale` CLI flag (default `default_scale`).
pub fn scale_from_args(default_scale: f64) -> f64 {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2)
        .find(|w| w[0] == "--scale")
        .and_then(|w| w[1].parse().ok())
        .unwrap_or(default_scale)
}

/// Whether a bare boolean flag (e.g. `--smoke`) was passed on the CLI.
pub fn flag_from_args(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Value of a `--name <value>` CLI option, when present.
pub fn opt_from_args(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2).find(|w| w[0] == name).map(|w| w[1].clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flipper_datagen::planted::{self, PlantedParams};

    #[test]
    fn profiles_match_table3() {
        let p = minsup_profiles();
        assert_eq!(p.len(), 10);
        assert_eq!(p[0].0, "thr1");
        assert_eq!(p[0].1, [0.05; 4]);
        assert_eq!(p[9].1[3], 0.00003);
        // Profiles are value-decreasing at the bottom level.
        for w in p.windows(2) {
            assert!(w[1].1[3] <= w[0].1[3]);
        }
    }

    #[test]
    fn corr_profiles_match_fig8d() {
        let p = corr_profiles();
        assert_eq!(p.len(), 7);
        assert_eq!(p[0], (0.2, 0.1));
        assert_eq!(p[6], (0.6, 0.5));
    }

    #[test]
    fn run_variants_produces_four_rows() {
        let d = planted::generate(&PlantedParams::default());
        let (g, e) = planted::recommended_thresholds();
        let cfg = FlipperConfig::new(Thresholds::new(g, e), MinSupports::Counts(vec![5]));
        let rows = run_variants(&d.taxonomy, &d.db, &cfg);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].variant, "basic");
        assert_eq!(rows[3].variant, "flipping+tpg+sibp");
        // All variants agree on the number of flips.
        assert!(rows.windows(2).all(|w| w[0].flips == w[1].flips));
        // Pruning never generates more candidates than BASIC here.
        assert!(rows[3].candidates <= rows[0].candidates);
    }

    #[test]
    fn variant_cells_format() {
        let r = VariantRow {
            variant: "basic",
            elapsed: Duration::from_millis(1500),
            candidates: 10,
            peak_resident: 7,
            flips: 2,
            pos: 1,
            neg: 1,
        };
        assert_eq!(variant_cells(&r), vec!["basic", "1.500", "10", "7", "2"]);
    }

    #[test]
    fn default_config_matches_paper() {
        let cfg = default_synthetic_config();
        assert_eq!(cfg.thresholds.gamma, 0.3);
        assert_eq!(cfg.thresholds.epsilon, 0.1);
    }
}
