//! Generator with *planted* flipping patterns — ground truth for
//! correctness tests and for the reality-check experiments.
//!
//! The construction plants, for chosen category pairs, a leaf pair whose
//! Kulczynski chain provably alternates:
//!
//! * **up-flip** (`− → +` downwards is the paper's Movies example shape;
//!   here: level 1 positive, level 2 negative, level 3 positive):
//!   `P` transactions `{x, y}` make the leaf pair perfectly correlated;
//!   `Q` singleton transactions over siblings of `x` and of `y` dilute the
//!   *parents* (`Kulc(px,py) = P/(P+Q)`); `R` transactions pairing other
//!   branches of the same categories re-inflate the *category* correlation
//!   (`Kulc(A,B) = (P+R)/(P+Q+R)`).
//!
//! With the default counts `(P, Q, R) = (30, 120, 300)` and thresholds
//! `γ = 0.6`, `ε = 0.35` the chain is `+ − +` with comfortable margins:
//! `Kulc₁ = 330/450 ≈ 0.733`, `Kulc₂ = 30/150 = 0.2`, `Kulc₃ = 1.0`.

use flipper_data::rng::{Rng, Xoshiro256pp};
use flipper_data::TransactionDb;
use flipper_taxonomy::{NodeId, Taxonomy};

/// Parameters of the planted-pattern generator.
#[derive(Debug, Clone, PartialEq)]
pub struct PlantedParams {
    /// Level-1 categories (must be ≥ 2 × `num_patterns`).
    pub roots: usize,
    /// Children per internal node (must be ≥ 2).
    pub fanout: usize,
    /// Number of planted flipping pairs; pattern `i` spans categories
    /// `2i` and `2i+1`.
    pub num_patterns: usize,
    /// Transactions containing the planted leaf pair (`P`).
    pub pair_txns: usize,
    /// Dilution singleton transactions per side (`Q`).
    pub dilute_txns: usize,
    /// Category re-inflation transactions (`R`).
    pub boost_txns: usize,
    /// Uniform random background transactions appended after the planted
    /// structure (width 1–3). Moderate noise keeps the flips intact.
    pub background_txns: usize,
    /// PRNG seed for the background noise.
    pub seed: u64,
}

impl Default for PlantedParams {
    fn default() -> Self {
        PlantedParams {
            roots: 4,
            fanout: 2,
            num_patterns: 2,
            pair_txns: 30,
            dilute_txns: 120,
            boost_txns: 300,
            background_txns: 200,
            seed: 7,
        }
    }
}

/// A planted dataset with its ground truth.
#[derive(Debug, Clone)]
pub struct PlantedData {
    /// Height-3 uniform taxonomy.
    pub taxonomy: Taxonomy,
    /// The transactions.
    pub db: TransactionDb,
    /// The planted flipping leaf pairs, sorted.
    pub planted_pairs: Vec<(NodeId, NodeId)>,
}

impl PlantedData {
    /// Repackage as an interchange [`Dataset`](flipper_data::format::Dataset)
    /// ready for the text or FBIN writers, dropping the ground truth.
    pub fn into_dataset(self) -> flipper_data::format::Dataset {
        flipper_data::format::Dataset {
            taxonomy: self.taxonomy,
            db: self.db,
        }
    }
}

/// Generate a height-3 dataset with `num_patterns` planted flipping pairs.
///
/// # Panics
/// Panics when the taxonomy is too small to host the requested patterns.
pub fn generate(params: &PlantedParams) -> PlantedData {
    assert!(
        params.fanout >= 2,
        "fanout must be at least 2 for dilution siblings"
    );
    assert!(
        params.roots >= 2 * params.num_patterns.max(1),
        "need two categories per planted pattern"
    );
    assert!(
        params.pair_txns > 0,
        "planted pairs need at least one supporting transaction"
    );
    let taxonomy = Taxonomy::uniform(params.roots, params.fanout, 3)
        .expect("uniform parameters validated above");
    let mut rng = Xoshiro256pp::seed_from_u64(params.seed);
    let mut rows: Vec<Vec<NodeId>> = Vec::new();
    let mut planted_pairs = Vec::new();

    let cats = taxonomy.nodes_at_level(1).expect("level 1").to_vec();
    for i in 0..params.num_patterns {
        let cat_a = cats[2 * i];
        let cat_b = cats[2 * i + 1];
        // Branch 0 of each category hosts the pattern; branch 1 hosts the
        // category-level boost.
        let pa = taxonomy.children(cat_a)[0];
        let pb = taxonomy.children(cat_b)[0];
        let x = taxonomy.children(pa)[0];
        let x_sibling = taxonomy.children(pa)[1];
        let y = taxonomy.children(pb)[0];
        let y_sibling = taxonomy.children(pb)[1];
        let boost_a = taxonomy.children(taxonomy.children(cat_a)[1])[0];
        let boost_b = taxonomy.children(taxonomy.children(cat_b)[1])[0];

        for _ in 0..params.pair_txns {
            rows.push(vec![x, y]);
        }
        for _ in 0..params.dilute_txns {
            rows.push(vec![x_sibling]);
            rows.push(vec![y_sibling]);
        }
        for _ in 0..params.boost_txns {
            rows.push(vec![boost_a, boost_b]);
        }
        planted_pairs.push(if x < y { (x, y) } else { (y, x) });
    }

    // Background noise: random 1–3 item baskets over the leaves *not*
    // participating in a planted pair. Noise on the pair leaves themselves
    // would dilute the leaf-level correlation (their support comes entirely
    // from the planted block), so they are modeled as niche items.
    let planted: std::collections::HashSet<NodeId> =
        planted_pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
    let leaves: Vec<NodeId> = taxonomy
        .leaves()
        .iter()
        .copied()
        .filter(|l| !planted.contains(l))
        .collect();
    for _ in 0..params.background_txns {
        let w = rng.gen_range(1..=3);
        let mut t: Vec<NodeId> = (0..w)
            .map(|_| leaves[rng.gen_range(0..leaves.len())])
            .collect();
        t.sort_unstable();
        t.dedup();
        rows.push(t);
    }

    let db = TransactionDb::new(rows).expect("all rows non-empty");
    planted_pairs.sort_unstable();
    PlantedData {
        taxonomy,
        db,
        planted_pairs,
    }
}

/// The `(γ, ε)` thresholds the default construction is calibrated for.
pub fn recommended_thresholds() -> (f64, f64) {
    (0.6, 0.35)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planted_counts_are_exact_without_noise() {
        let p = PlantedParams {
            background_txns: 0,
            num_patterns: 1,
            ..Default::default()
        };
        let d = generate(&p);
        let (x, y) = d.planted_pairs[0];
        // Leaf pair: exactly P co-occurrences and P occurrences each.
        let co = d.db.support_of_sorted(&[x, y]);
        assert_eq!(co, 30);
        assert_eq!(d.db.support_of_sorted(&[x]), 30);
        // Parent dilution: P + Q occurrences each.
        let tax = &d.taxonomy;
        let px = tax.parent(x).unwrap();
        let view = flipper_data::MultiLevelView::build(&d.db, tax).unwrap();
        assert_eq!(view.level(2).item_support(px), 150);
        // Category-level: co-occurrence P + R, support P + Q + R.
        let ca = tax.ancestor_at_level(x, 1).unwrap();
        assert_eq!(view.level(1).item_support(ca), 450);
    }

    #[test]
    fn kulc_chain_flips_by_construction() {
        let p = PlantedParams {
            background_txns: 0,
            num_patterns: 1,
            ..Default::default()
        };
        let d = generate(&p);
        let (x, y) = d.planted_pairs[0];
        let tax = &d.taxonomy;
        let view = flipper_data::MultiLevelView::build(&d.db, tax).unwrap();
        let kulc = |h: usize, a: NodeId, b: NodeId| {
            let (ga, gb) = (
                tax.ancestor_at_level(a, h).unwrap(),
                tax.ancestor_at_level(b, h).unwrap(),
            );
            let lv = view.level(h);
            // Co-occurrence from the raw rows: a row holds `ga` when one of
            // its leaves generalizes to it.
            let holds = |t: &[NodeId], g: NodeId| {
                t.iter().any(|&l| tax.ancestor_at_level(l, h).unwrap() == g)
            };
            let co = d.db.iter().filter(|t| holds(t, ga) && holds(t, gb)).count() as f64;
            (co / lv.item_support(ga) as f64 + co / lv.item_support(gb) as f64) / 2.0
        };
        let (k1, k2, k3) = (kulc(1, x, y), kulc(2, x, y), kulc(3, x, y));
        assert!(k1 >= 0.6, "level 1 Kulc {k1} should be positive");
        assert!(k2 <= 0.35, "level 2 Kulc {k2} should be negative");
        assert!((k3 - 1.0).abs() < 1e-12, "level 3 Kulc {k3} should be 1");
    }

    #[test]
    fn multiple_patterns_do_not_interfere() {
        let p = PlantedParams {
            num_patterns: 2,
            background_txns: 0,
            ..Default::default()
        };
        let d = generate(&p);
        assert_eq!(d.planted_pairs.len(), 2);
        let (x0, _) = d.planted_pairs[0];
        let (x1, _) = d.planted_pairs[1];
        let c0 = d.taxonomy.ancestor_at_level(x0, 1).unwrap();
        let c1 = d.taxonomy.ancestor_at_level(x1, 1).unwrap();
        assert_ne!(c0, c1, "patterns live in disjoint categories");
    }

    #[test]
    fn deterministic_background() {
        let a = generate(&PlantedParams::default());
        let b = generate(&PlantedParams::default());
        assert_eq!(a.db, b.db);
    }

    #[test]
    #[should_panic(expected = "two categories per planted pattern")]
    fn too_many_patterns_rejected() {
        let _ = generate(&PlantedParams {
            roots: 2,
            num_patterns: 2,
            ..Default::default()
        });
    }
}
