//! Surrogates for the paper's three real datasets (§5.2): GROCERIES,
//! CENSUS and MEDLINE.
//!
//! The originals are not redistributable here, so each surrogate simulates
//! the corresponding data source at the paper's scale and taxonomy shape,
//! and *plants* the qualitative flipping patterns the paper reports
//! (Figs. 10–12) so that the reality-check experiments regenerate them.
//!
//! Two planting primitives cover every reported pattern:
//!
//! * **up-flip** `+ − +`: leaf pair strongly together, their parents
//!   diluted apart, their categories re-linked through other branches
//!   (beer & baby cosmetics; pork & salad dressing; biofeedback &
//!   behavior therapy);
//! * **down-flip** `− + −`: leaf pair rarely together, their parents
//!   strongly linked through sibling leaves, their categories diluted
//!   (eggs & fish; withdrawal syndrome & temperance).

use flipper_data::rng::{Rng, Xoshiro256pp};
use flipper_data::TransactionDb;
use flipper_taxonomy::{NodeId, RebalancePolicy, Taxonomy, TaxonomyBuilder};

/// A generated surrogate dataset with its ground-truth planted flips.
#[derive(Debug, Clone)]
pub struct SurrogateData {
    /// The dataset taxonomy (balanced; census uses leaf-copy padding).
    pub taxonomy: Taxonomy,
    /// The transactions.
    pub db: TransactionDb,
    /// Leaf-name pairs planted as flipping patterns.
    pub expected_flips: Vec<(String, String)>,
    /// Thresholds `(γ, ε)` the construction is calibrated for (Table 4).
    pub thresholds: (f64, f64),
    /// Per-level minimum-support fractions (Table 4).
    pub min_support: Vec<f64>,
}

impl SurrogateData {
    /// Repackage as an interchange [`Dataset`](flipper_data::format::Dataset)
    /// ready for the text or FBIN writers, dropping the ground truth and
    /// calibration metadata.
    pub fn into_dataset(self) -> flipper_data::format::Dataset {
        flipper_data::format::Dataset {
            taxonomy: self.taxonomy,
            db: self.db,
        }
    }

    /// Node ids of the expected flips.
    pub fn expected_flip_ids(&self) -> Vec<(NodeId, NodeId)> {
        self.expected_flips
            .iter()
            .map(|(a, b)| {
                let a = self.taxonomy.node_by_name(a).expect("planted leaf exists");
                let b = self.taxonomy.node_by_name(b).expect("planted leaf exists");
                if a < b {
                    (a, b)
                } else {
                    (b, a)
                }
            })
            .collect()
    }
}

/// Counts driving an up-flip `+ − +`: `pair` transactions `{x,y}`,
/// `dilute` singleton transactions for one sibling on each side, `boost`
/// transactions linking other branches of the two categories.
struct UpFlip<'a> {
    x: &'a str,
    y: &'a str,
    x_sib: &'a str,
    y_sib: &'a str,
    boost_a: &'a str,
    boost_b: &'a str,
    pair: usize,
    dilute: usize,
    boost: usize,
}

/// Counts driving a down-flip `− + −`: `pair` rare transactions `{x,y}`,
/// `solo` singleton transactions for `x` and `y` each, `link` transactions
/// `{x_sib, y_sib}` making the parents positively correlated, and `dilute`
/// singleton transactions over other branches of each category.
struct DownFlip<'a> {
    x: &'a str,
    y: &'a str,
    x_sib: &'a str,
    y_sib: &'a str,
    cat_fill_a: &'a str,
    cat_fill_b: &'a str,
    pair: usize,
    solo: usize,
    link: usize,
    dilute: usize,
}

/// Nested literal spec: category → (group → products).
type TreeSpec<'a> = &'a [(&'a str, &'a [(&'a str, &'a [&'a str])])];

fn push_n(rows: &mut Vec<Vec<NodeId>>, n: usize, items: &[NodeId]) {
    for _ in 0..n {
        rows.push(items.to_vec());
    }
}

fn ids(tax: &Taxonomy, names: &[&str]) -> Vec<NodeId> {
    names
        .iter()
        .map(|n| {
            tax.node_by_name(n)
                .unwrap_or_else(|| panic!("unknown node {n:?}"))
        })
        .collect()
}

fn apply_up_flip(rows: &mut Vec<Vec<NodeId>>, tax: &Taxonomy, f: &UpFlip<'_>) {
    let v = ids(tax, &[f.x, f.y, f.x_sib, f.y_sib, f.boost_a, f.boost_b]);
    push_n(rows, f.pair, &[v[0].min(v[1]), v[0].max(v[1])]);
    push_n(rows, f.dilute, &[v[2]]);
    push_n(rows, f.dilute, &[v[3]]);
    push_n(rows, f.boost, &[v[4].min(v[5]), v[4].max(v[5])]);
}

fn apply_down_flip(rows: &mut Vec<Vec<NodeId>>, tax: &Taxonomy, f: &DownFlip<'_>) {
    let v = ids(
        tax,
        &[f.x, f.y, f.x_sib, f.y_sib, f.cat_fill_a, f.cat_fill_b],
    );
    push_n(rows, f.pair, &[v[0].min(v[1]), v[0].max(v[1])]);
    push_n(rows, f.solo, &[v[0]]);
    push_n(rows, f.solo, &[v[1]]);
    push_n(rows, f.link, &[v[2].min(v[3]), v[2].max(v[3])]);
    push_n(rows, f.dilute, &[v[4]]);
    push_n(rows, f.dilute, &[v[5]]);
}

// ---------------------------------------------------------------------------
// GROCERIES
// ---------------------------------------------------------------------------

/// GROCERIES surrogate: ~9,800 point-of-sale baskets over a 3-level store
/// taxonomy (department → product group → product), with the paper's
/// Fig. 10 flips planted:
///
/// * canned beer × baby cosmetics (up-flip: drinks & non-food link
///   positively overall, beer & cosmetics repel, the famous pair attracts);
/// * pork × salad dressing (up-flip against meat × delicatessen);
/// * eggs × fish (down-flip: fresh produce & meat-and-fish correlate, egg
///   products & fish products correlate, the specific pair repels).
pub fn groceries(seed: u64) -> SurrogateData {
    let mut b = TaxonomyBuilder::new();
    // department → product-group → product
    let spec: TreeSpec = &[
        (
            "drinks",
            &[
                ("beer", &["canned beer", "bottled beer"]),
                ("soda", &["cola", "lemonade"]),
                ("juice", &["orange juice", "apple juice"]),
            ],
        ),
        (
            "non-food",
            &[
                ("cosmetics", &["baby cosmetics", "skin cream"]),
                ("cleaning", &["detergent", "sponges"]),
                ("kitchenware", &["napkins", "foil"]),
            ],
        ),
        (
            "meat",
            &[
                ("pork products", &["pork", "ham"]),
                ("beef products", &["beef", "steak"]),
                ("poultry", &["chicken", "turkey"]),
            ],
        ),
        (
            "delicatessen",
            &[
                ("dressings", &["salad dressing", "mayonnaise"]),
                ("spreads", &["hummus", "pate"]),
                ("olives", &["green olives", "black olives"]),
            ],
        ),
        (
            "fresh produce",
            &[
                ("egg products", &["eggs", "quail eggs"]),
                ("vegetables", &["lettuce", "tomatoes"]),
                ("fruit", &["apples", "bananas"]),
            ],
        ),
        (
            "meat and fish",
            &[
                ("fish products", &["fresh fish", "canned fish"]),
                ("shellfish", &["shrimp", "mussels"]),
                ("smoked", &["smoked salmon", "smoked mackerel"]),
            ],
        ),
        (
            "bakery",
            &[
                ("bread", &["white bread", "rye bread"]),
                ("pastry", &["croissant", "muffin"]),
                ("biscuits", &["cookies", "crackers"]),
            ],
        ),
        (
            "dairy",
            &[
                ("milk products", &["whole milk", "skim milk"]),
                ("cheese", &["brie", "cheddar"]),
                ("yogurt", &["plain yogurt", "fruit yogurt"]),
            ],
        ),
    ];
    for (dep, groups) in spec {
        b.add_root_child(dep).unwrap();
        for (grp, products) in *groups {
            b.add_child(grp, dep).unwrap();
            for p in *products {
                b.add_child(p, grp).unwrap();
            }
        }
    }
    let tax = b.build(RebalancePolicy::RequireBalanced).unwrap();

    let mut rows: Vec<Vec<NodeId>> = Vec::new();
    // Calibrated for (γ, ε) = (0.15, 0.10), θ = (0.001, 0.0005, 0.0002)·N.
    // Up-flip margins: Kulc₂ = 20/220 ≈ 0.091 ≤ ε; Kulc₁ ≥ (20+300)/520.
    apply_up_flip(
        &mut rows,
        &tax,
        &UpFlip {
            x: "canned beer",
            y: "baby cosmetics",
            x_sib: "bottled beer",
            y_sib: "skin cream",
            boost_a: "cola",
            boost_b: "detergent",
            pair: 20,
            dilute: 200,
            boost: 300,
        },
    );
    apply_up_flip(
        &mut rows,
        &tax,
        &UpFlip {
            x: "pork",
            y: "salad dressing",
            x_sib: "ham",
            y_sib: "mayonnaise",
            boost_a: "chicken",
            boost_b: "hummus",
            pair: 20,
            dilute: 200,
            boost: 300,
        },
    );
    // Down-flip: Kulc₃ = 4/44 ≈ 0.091 ≤ ε; Kulc₂ = (300+4)/(344+…) ≥ γ;
    // Kulc₁ diluted below ε by the category filler.
    apply_down_flip(
        &mut rows,
        &tax,
        &DownFlip {
            x: "eggs",
            y: "fresh fish",
            x_sib: "quail eggs",
            y_sib: "canned fish",
            cat_fill_a: "lettuce",
            cat_fill_b: "shrimp",
            pair: 4,
            solo: 40,
            link: 300,
            dilute: 3500,
        },
    );

    // Background shoppers over departments *not* hosting planted structure
    // (bakery, dairy) plus fillers inside drinks / non-food / meat /
    // delicatessen that avoid the planted product groups. Fresh produce and
    // meat-and-fish are excluded entirely: the eggs × fish down-flip needs
    // its category-level correlation fully determined by the construction.
    let filler: Vec<NodeId> = ids(
        &tax,
        &[
            "white bread",
            "rye bread",
            "croissant",
            "muffin",
            "cookies",
            "crackers",
            "whole milk",
            "skim milk",
            "brie",
            "cheddar",
            "plain yogurt",
            "fruit yogurt",
            "orange juice",
            "apple juice",
            "napkins",
            "foil",
            "beef",
            "steak",
            "green olives",
            "black olives",
        ],
    );
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let background = 9_800usize.saturating_sub(rows.len());
    for _ in 0..background {
        let w = rng.gen_range(1..=4);
        let mut t: Vec<NodeId> = (0..w)
            .map(|_| filler[rng.gen_range(0..filler.len())])
            .collect();
        t.sort_unstable();
        t.dedup();
        rows.push(t);
    }

    let db = TransactionDb::new(rows).expect("rows non-empty");
    SurrogateData {
        taxonomy: tax,
        db,
        expected_flips: vec![
            ("canned beer".into(), "baby cosmetics".into()),
            ("pork".into(), "salad dressing".into()),
            ("eggs".into(), "fresh fish".into()),
        ],
        thresholds: (0.15, 0.10),
        min_support: vec![0.001, 0.0005, 0.0002],
    }
}

// ---------------------------------------------------------------------------
// CENSUS
// ---------------------------------------------------------------------------

/// CENSUS surrogate: 32,000 person records as transactions over attribute
/// items with a 2-level hierarchy (attribute group → attribute∧qualifier
/// subgroup), reproducing the paper's Fig. 11 flips:
///
/// * occupation craft-repair × income ≥ 50K is negative, but flips positive
///   for the bachelor-degree subgroup;
/// * age 60–65 × income ≥ 50K is negative, but flips positive for
///   executives of that age.
///
/// `income>=50K` has no deeper refinement; leaf-copy rebalancing pads it,
/// exactly the situation of the paper's Fig. 3 \[B\].
pub fn census(seed: u64) -> SurrogateData {
    let mut b = TaxonomyBuilder::new();
    for (group, subs) in [
        (
            "occ:craft-repair",
            vec!["occ:craft-repair+edu:bachelor", "occ:craft-repair+edu:hs"],
        ),
        (
            "occ:executive",
            vec!["occ:executive+edu:bachelor", "occ:executive+edu:hs"],
        ),
        (
            "occ:clerical",
            vec!["occ:clerical+edu:bachelor", "occ:clerical+edu:hs"],
        ),
        (
            "occ:service",
            vec!["occ:service+edu:bachelor", "occ:service+edu:hs"],
        ),
        (
            "age:60-65",
            vec!["age:60-65+occ:executive", "age:60-65+occ:other"],
        ),
        (
            "age:30-40",
            vec!["age:30-40+occ:executive", "age:30-40+occ:other"],
        ),
        ("income>=50K", vec![]),
        ("income<50K", vec![]),
        ("sex:female", vec![]),
        ("sex:male", vec![]),
    ] {
        b.add_root_child(group).unwrap();
        for s in subs {
            b.add_child(s, group).unwrap();
        }
    }
    let tax = b.build(RebalancePolicy::LeafCopy).unwrap();
    let g = |n: &str| tax.node_by_name(n).expect("census node");
    // Leaf-level names of padded attributes.
    let hi = g("income>=50K#1");
    let lo = g("income<50K#1");
    let female = g("sex:female#1");
    let male = g("sex:male#1");

    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut rows: Vec<Vec<NodeId>> = Vec::new();
    let n = 32_000usize;

    // Sub-populations: (occupation-subgroup leaf, size, P(income >= 50K)).
    // Calibrated for (γ, ε) = (0.25, 0.15):
    //   craft-repair: 600·0.8 + 2400·0.05 = 600 high earners of 3000
    //     → Kulc₁(craft, inc) = (600/3000 + 600/|inc|)/2 ≈ 0.14 ≤ ε
    //     → Kulc₂(craft∧bachelor, inc) = (480/600 + 480/|inc|)/2 ≈ 0.43 ≥ γ
    let blocks: Vec<(&str, usize, f64)> = vec![
        ("occ:craft-repair+edu:bachelor", 600, 0.80),
        ("occ:craft-repair+edu:hs", 2_400, 0.05),
        ("occ:executive+edu:bachelor", 2_000, 0.55),
        ("occ:executive+edu:hs", 1_200, 0.35),
        ("occ:clerical+edu:bachelor", 2_000, 0.22),
        ("occ:clerical+edu:hs", 4_800, 0.12),
        ("occ:service+edu:bachelor", 1_000, 0.18),
        ("occ:service+edu:hs", 6_000, 0.08),
    ];
    // Age blocks are sampled independently of occupation blocks; each person
    // carries an occupation item OR an age item (mirroring how attribute
    // combinations become items), keeping the planted chains decoupled.
    let age_blocks: Vec<(&str, usize, f64)> = vec![
        ("age:60-65+occ:executive", 700, 0.75),
        ("age:60-65+occ:other", 3_500, 0.06),
        ("age:30-40+occ:executive", 2_500, 0.30),
        ("age:30-40+occ:other", 5_300, 0.20),
    ];

    for (leaf, size, p_inc) in blocks.iter().chain(age_blocks.iter()) {
        let leaf = g(leaf);
        for _ in 0..*size {
            let income = if rng.gen::<f64>() < *p_inc { hi } else { lo };
            let sex = if rng.gen::<f64>() < 0.47 {
                female
            } else {
                male
            };
            let mut t = vec![leaf, income, sex];
            t.sort_unstable();
            rows.push(t);
        }
    }
    // Fill to N with records carrying only income + sex (other occupations).
    while rows.len() < n {
        let income = if rng.gen::<f64>() < 0.18 { hi } else { lo };
        let sex = if rng.gen::<f64>() < 0.5 { female } else { male };
        let mut t = vec![income, sex];
        t.sort_unstable();
        rows.push(t);
    }

    let db = TransactionDb::new(rows).expect("rows non-empty");
    SurrogateData {
        taxonomy: tax,
        db,
        expected_flips: vec![
            (
                "occ:craft-repair+edu:bachelor".into(),
                "income>=50K#1".into(),
            ),
            ("age:60-65+occ:executive".into(), "income>=50K#1".into()),
        ],
        thresholds: (0.25, 0.15),
        min_support: vec![0.002, 0.001],
    }
}

// ---------------------------------------------------------------------------
// MEDLINE
// ---------------------------------------------------------------------------

/// MEDLINE surrogate: topic baskets over a 3-level MeSH-like tree at a
/// configurable scale (`scale = 1.0` ≈ the paper's 640K citations; the
/// default experiments use 0.1 → 64K). Plants the Fig. 12 flips:
///
/// * withdrawal syndrome × temperance (down-flip: substance-related
///   disorders and temperance are studied together, this refinement is
///   underrepresented);
/// * biofeedback × behavior therapy (up-flip: psychophysiology and
///   psychotherapy rarely meet, this pair does).
pub fn medline(scale: f64, seed: u64) -> SurrogateData {
    assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
    let mut b = TaxonomyBuilder::new();
    let spec: TreeSpec = &[
        (
            "mental disorders",
            &[
                (
                    "substance-related disorders",
                    &["withdrawal syndrome", "substance abuse"],
                ),
                ("mood disorders", &["depression", "bipolar disorder"]),
                ("anxiety disorders", &["panic disorder", "phobias"]),
            ],
        ),
        (
            "human activities",
            &[
                ("temperance", &["alcohol abstinence", "tobacco abstinence"]),
                ("exercise", &["running", "swimming"]),
                ("leisure", &["reading", "travel"]),
            ],
        ),
        (
            "psychological phenomena",
            &[
                ("psychophysiology", &["biofeedback", "arousal"]),
                ("cognition", &["memory", "attention"]),
                ("emotion", &["affect", "mood"]),
            ],
        ),
        (
            "behavioral disciplines",
            &[
                ("psychotherapy", &["behavior therapy", "psychoanalysis"]),
                ("counseling", &["group counseling", "family counseling"]),
                ("assessment", &["personality tests", "iq tests"]),
            ],
        ),
        (
            "diseases",
            &[
                ("cardiovascular", &["hypertension", "arrhythmia"]),
                ("metabolic", &["diabetes", "obesity"]),
                ("respiratory", &["asthma", "copd"]),
            ],
        ),
        (
            "chemicals and drugs",
            &[
                ("analgesics", &["aspirin", "ibuprofen"]),
                ("antibiotics", &["penicillin", "tetracycline"]),
                ("hormones", &["insulin", "cortisol"]),
            ],
        ),
    ];
    for (cat, subs) in spec {
        b.add_root_child(cat).unwrap();
        for (sub, topics) in *subs {
            b.add_child(sub, cat).unwrap();
            for t in *topics {
                b.add_child(t, sub).unwrap();
            }
        }
    }
    let tax = b.build(RebalancePolicy::RequireBalanced).unwrap();

    // Counts are specified at the paper's full scale (640K citations); e.g.
    // `s(3)` is 30 pair-transactions at scale 0.1 (64K).
    let s = |x: usize| ((x as f64) * scale * 100.0).round().max(1.0) as usize;
    let mut rows: Vec<Vec<NodeId>> = Vec::new();
    // Calibrated for (γ, ε) = (0.40, 0.10), θ = (0.001, 0.0005, 0.0001)·N.
    // Down-flip (withdrawal × temperance), per 64K-scale counts:
    //   pair 30, solo 300 → Kulc₃ = 30/330 ≈ 0.091 ≤ ε
    //   link 400 (substance abuse × alcohol abstinence)
    //     → Kulc₂ ≈ 430/730 ≈ 0.59 ≥ γ
    //   dilute 4000 per category → Kulc₁ ≈ 430/4730 ≈ 0.091 ≤ ε.
    apply_down_flip(
        &mut rows,
        &tax,
        &DownFlip {
            x: "withdrawal syndrome",
            y: "alcohol abstinence",
            x_sib: "substance abuse",
            y_sib: "tobacco abstinence",
            cat_fill_a: "depression",
            cat_fill_b: "running",
            pair: s(3),
            solo: s(30),
            link: s(40),
            dilute: s(400),
        },
    );
    // Up-flip (biofeedback × behavior therapy):
    //   pair 80, dilute 800 → Kulc₂ = 80/880 ≈ 0.091 ≤ ε
    //   boost 900 → Kulc₁ = 980/1780 ≈ 0.55 ≥ γ.
    apply_up_flip(
        &mut rows,
        &tax,
        &UpFlip {
            x: "biofeedback",
            y: "behavior therapy",
            x_sib: "arousal",
            y_sib: "psychoanalysis",
            boost_a: "memory",
            boost_b: "group counseling",
            pair: s(8),
            dilute: s(80),
            boost: s(90),
        },
    );

    // Background citations over the two filler categories.
    let filler: Vec<NodeId> = ids(
        &tax,
        &[
            "hypertension",
            "arrhythmia",
            "diabetes",
            "obesity",
            "asthma",
            "copd",
            "aspirin",
            "ibuprofen",
            "penicillin",
            "tetracycline",
            "insulin",
            "cortisol",
        ],
    );
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let target = ((640_000.0 * scale).round() as usize).max(rows.len() + 1);
    let background = target - rows.len();
    for _ in 0..background {
        let w = rng.gen_range(1..=5);
        let mut t: Vec<NodeId> = (0..w)
            .map(|_| filler[rng.gen_range(0..filler.len())])
            .collect();
        t.sort_unstable();
        t.dedup();
        rows.push(t);
    }

    let db = TransactionDb::new(rows).expect("rows non-empty");
    SurrogateData {
        taxonomy: tax,
        db,
        expected_flips: vec![
            ("withdrawal syndrome".into(), "alcohol abstinence".into()),
            ("biofeedback".into(), "behavior therapy".into()),
        ],
        thresholds: (0.40, 0.10),
        min_support: vec![0.001, 0.0005, 0.0001],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groceries_shape() {
        let d = groceries(1);
        assert_eq!(d.db.len(), 9_800);
        assert_eq!(d.taxonomy.height(), 3);
        d.db.validate_against(&d.taxonomy).unwrap();
        assert_eq!(d.expected_flips.len(), 3);
        assert_eq!(d.expected_flip_ids().len(), 3);
    }

    #[test]
    fn census_shape_and_padding() {
        let d = census(2);
        assert_eq!(d.db.len(), 32_000);
        assert_eq!(d.taxonomy.height(), 2);
        d.db.validate_against(&d.taxonomy).unwrap();
        // Income is a padded leaf (Fig. 3 [B] in action).
        let inc = d.taxonomy.node_by_name("income>=50K#1").unwrap();
        assert!(d.taxonomy.is_synthetic(inc));
    }

    #[test]
    fn medline_scales() {
        let d = medline(0.01, 3);
        assert!((5_000..=7_000).contains(&d.db.len()), "N = {}", d.db.len());
        assert_eq!(d.taxonomy.height(), 3);
        d.db.validate_against(&d.taxonomy).unwrap();
    }

    #[test]
    #[should_panic(expected = "scale must be in")]
    fn medline_rejects_zero_scale() {
        let _ = medline(0.0, 0);
    }

    #[test]
    fn surrogates_are_deterministic() {
        assert_eq!(groceries(5).db, groceries(5).db);
        assert_eq!(census(5).db, census(5).db);
        assert_eq!(medline(0.01, 5).db, medline(0.01, 5).db);
    }
}
