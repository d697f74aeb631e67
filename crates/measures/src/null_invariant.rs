//! The five null-invariant correlation measures (Table 2 of the paper).
//!
//! All five are *generalized means* of the conditional probabilities
//! `P(A | a_i) = sup(A) / sup(a_i)`:
//!
//! | measure        | mean       |
//! |----------------|------------|
//! | All-Confidence | minimum    |
//! | Coherence      | harmonic   |
//! | Cosine         | geometric  |
//! | Kulczynski     | arithmetic |
//! | Max-Confidence | maximum    |
//!
//! which yields the fixed ordering `AllConf ≤ Coherence ≤ Cosine ≤ Kulc ≤
//! MaxConf` on any input. **Null-invariance** is structural here: the value
//! depends only on `sup(A)` and the single-item supports, never on the total
//! transaction count `N` — so transactions containing none of the items
//! cannot disturb the score.

use std::fmt;

/// A correlation measure computable from the support of an itemset and the
/// supports of its single items.
///
/// Implementations must be *null-invariant*: the result may depend only on
/// the arguments, never on any notion of total database size.
pub trait CorrelationMeasure {
    /// Short lowercase identifier (e.g. `"kulc"`).
    fn name(&self) -> &'static str;

    /// Correlation of a k-itemset `A` given `sup(A)` and the supports of its
    /// k single items. `item_sups` must be non-empty and each entry must be
    /// `≥ sup_a` (an item occurs at least as often as any itemset containing
    /// it).
    fn value(&self, sup_a: u64, item_sups: &[u64]) -> f64;

    /// Whether the measure is anti-monotone (adding an item can never raise
    /// the value). True only for All-Confidence here. The paper calls
    /// Coherence anti-monotonic too, but that holds for the *original*
    /// intersection-over-union (Jaccard) form; the harmonic-mean
    /// re-definition in its Table 2 — which we implement — is not
    /// anti-monotone (see `coherence_harmonic_not_anti_monotone` in the
    /// tests for a 4-item counterexample). Theorems 1 and 2 hold for it
    /// regardless, so no pruning logic depends on this flag.
    fn is_anti_monotone(&self) -> bool;

    /// Convenience for pairs: `Corr({a, b})`.
    fn pair(&self, sup_ab: u64, sup_a: u64, sup_b: u64) -> f64 {
        self.value(sup_ab, &[sup_a, sup_b])
    }
}

/// The five null-invariant measures of Table 2, as a copyable enum so the
/// mining configuration stays `Copy` and serializable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Measure {
    /// `min_i P(A|a_i)` — minimum of the conditional probabilities.
    AllConfidence,
    /// `k / Σ_i P(A|a_i)^{-1}` — harmonic mean (the paper's re-definition of
    /// Coherence, order-equivalent to Jaccard).
    Coherence,
    /// `(Π_i P(A|a_i))^{1/k}` — geometric mean.
    Cosine,
    /// `(Σ_i P(A|a_i)) / k` — arithmetic mean. The paper's default: tolerant
    /// of unbalanced supports, not anti-monotone.
    #[default]
    Kulczynski,
    /// `max_i P(A|a_i)` — maximum of the conditional probabilities.
    MaxConfidence,
}

impl Measure {
    /// All five measures, in their generalized-mean order.
    pub const ALL: [Measure; 5] = [
        Measure::AllConfidence,
        Measure::Coherence,
        Measure::Cosine,
        Measure::Kulczynski,
        Measure::MaxConfidence,
    ];

    /// Parse from the short name produced by [`CorrelationMeasure::name`].
    pub fn parse(s: &str) -> Option<Measure> {
        match s.to_ascii_lowercase().as_str() {
            "allconf" | "all_confidence" | "all-confidence" => Some(Measure::AllConfidence),
            "coherence" | "jaccard" => Some(Measure::Coherence),
            "cosine" => Some(Measure::Cosine),
            "kulc" | "kulczynski" => Some(Measure::Kulczynski),
            "maxconf" | "max_confidence" | "max-confidence" => Some(Measure::MaxConfidence),
            _ => None,
        }
    }
}

impl fmt::Display for Measure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl CorrelationMeasure for Measure {
    fn name(&self) -> &'static str {
        match self {
            Measure::AllConfidence => "allconf",
            Measure::Coherence => "coherence",
            Measure::Cosine => "cosine",
            Measure::Kulczynski => "kulc",
            Measure::MaxConfidence => "maxconf",
        }
    }

    fn value(&self, sup_a: u64, item_sups: &[u64]) -> f64 {
        assert!(!item_sups.is_empty(), "an itemset has at least one item");
        debug_assert!(
            item_sups.iter().all(|&s| s >= sup_a),
            "item supports must dominate the itemset support (sup_a={sup_a}, items={item_sups:?})"
        );
        if sup_a == 0 {
            // All conditional probabilities are 0 (0/0 for never-seen items
            // is also taken as 0: an item with no occurrences supports no
            // correlation evidence).
            return 0.0;
        }
        let k = item_sups.len() as f64;
        let sup_a = sup_a as f64;
        match self {
            Measure::AllConfidence => {
                // min of sup(A)/sup(ai) = sup(A) / max(sup(ai))
                let max = item_sups.iter().copied().fold(0, u64::max) as f64;
                sup_a / max
            }
            Measure::MaxConfidence => {
                let min = item_sups.iter().copied().fold(u64::MAX, u64::min) as f64;
                sup_a / min
            }
            Measure::Kulczynski => item_sups.iter().map(|&s| sup_a / s as f64).sum::<f64>() / k,
            Measure::Cosine => {
                // Geometric mean, computed in log space for robustness with
                // large k and large supports.
                let log_sum: f64 = item_sups.iter().map(|&s| (sup_a / s as f64).ln()).sum();
                (log_sum / k).exp()
            }
            Measure::Coherence => {
                // Harmonic mean: k / Σ (sup(ai)/sup(A)).
                let inv_sum: f64 = item_sups.iter().map(|&s| s as f64 / sup_a).sum();
                k / inv_sum
            }
        }
    }

    fn is_anti_monotone(&self) -> bool {
        matches!(self, Measure::AllConfidence)
    }
}

/// Classic 2-item Coherence (Jaccard): `sup(AB) / (sup(A)+sup(B)−sup(AB))` —
/// support of the intersection over support of the union. The paper's
/// harmonic-mean Coherence is a monotone transform of this, preserving all
/// comparisons; we expose the classic form for reference and tests.
pub fn jaccard_pair(sup_ab: u64, sup_a: u64, sup_b: u64) -> f64 {
    let union = sup_a + sup_b - sup_ab;
    if union == 0 {
        0.0
    } else {
        sup_ab as f64 / union as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn pair_values_match_closed_forms() {
        // sup(A)=8, sup(a1)=10, sup(a2)=40.
        let (s, a, b) = (8u64, 10u64, 40u64);
        let p1 = 0.8;
        let p2 = 0.2;
        assert!((Measure::AllConfidence.pair(s, a, b) - p2).abs() < EPS);
        assert!((Measure::MaxConfidence.pair(s, a, b) - p1).abs() < EPS);
        assert!((Measure::Kulczynski.pair(s, a, b) - (p1 + p2) / 2.0).abs() < EPS);
        assert!((Measure::Cosine.pair(s, a, b) - (p1 * p2_f64(p2)).sqrt()).abs() < EPS);
        let harmonic = 2.0 / (1.0 / p1 + 1.0 / p2);
        assert!((Measure::Coherence.pair(s, a, b) - harmonic).abs() < EPS);
    }

    fn p2_f64(x: f64) -> f64 {
        x
    }

    #[test]
    fn kulc_matches_paper_table1() {
        // Table 1: sup(A)=sup(B)=1000, sup(AB)=400 → Kulc = 0.40,
        // independent of N (that is the whole point).
        let v = Measure::Kulczynski.pair(400, 1000, 1000);
        assert!((v - 0.40).abs() < EPS);
        // sup(C)=sup(D)=200, sup(CD)=4 → Kulc = 0.02.
        let v = Measure::Kulczynski.pair(4, 200, 200);
        assert!((v - 0.02).abs() < EPS);
    }

    #[test]
    fn zero_support_itemset_scores_zero() {
        for m in Measure::ALL {
            assert_eq!(m.value(0, &[5, 9]), 0.0, "{m:?}");
            assert_eq!(m.value(0, &[0, 0]), 0.0, "{m:?}");
        }
    }

    #[test]
    fn identical_items_score_one() {
        // sup(A) equal to every item support ⇒ every conditional
        // probability is 1 ⇒ every generalized mean is 1.
        for m in Measure::ALL {
            let v = m.value(7, &[7, 7, 7]);
            assert!((v - 1.0).abs() < EPS, "{m:?} gave {v}");
        }
    }

    #[test]
    fn singleton_itemset_scores_one() {
        for m in Measure::ALL {
            assert!((m.value(3, &[3]) - 1.0).abs() < EPS);
        }
    }

    #[test]
    fn generalized_mean_ordering() {
        let cases: &[(u64, &[u64])] = &[
            (8, &[10, 40]),
            (5, &[5, 100]),
            (3, &[4, 5, 6]),
            (1, &[1, 1000, 5]),
            (100, &[100, 200, 400, 800]),
        ];
        for &(s, items) in cases {
            let all = Measure::AllConfidence.value(s, items);
            let coh = Measure::Coherence.value(s, items);
            let cos = Measure::Cosine.value(s, items);
            let kul = Measure::Kulczynski.value(s, items);
            let max = Measure::MaxConfidence.value(s, items);
            assert!(
                all <= coh + EPS && coh <= cos + EPS && cos <= kul + EPS && kul <= max + EPS,
                "ordering violated for ({s}, {items:?}): {all} {coh} {cos} {kul} {max}"
            );
        }
    }

    #[test]
    fn values_bounded_by_unit_interval() {
        for m in Measure::ALL {
            let v = m.value(3, &[3, 9, 27]);
            assert!((0.0..=1.0).contains(&v), "{m:?} gave {v}");
        }
    }

    #[test]
    fn anti_monotone_flags() {
        assert!(Measure::AllConfidence.is_anti_monotone());
        assert!(!Measure::Coherence.is_anti_monotone());
        assert!(!Measure::Cosine.is_anti_monotone());
        assert!(!Measure::Kulczynski.is_anti_monotone());
        assert!(!Measure::MaxConfidence.is_anti_monotone());
    }

    /// Counterexample showing the harmonic-mean Coherence of Table 2 is not
    /// anti-monotone, contrary to the blanket claim in the paper's proofs
    /// (which holds for classic Jaccard but not this re-definition).
    ///
    /// Database over items {0,1,2,3}: one transaction with all four items,
    /// two extra with item 0 alone, one extra each with items 1, 2, 3 alone.
    /// sup = [3,2,2,2], sup(full) = 1, sup({1,2,3}) = 1.
    #[test]
    fn coherence_harmonic_not_anti_monotone() {
        let sub = Measure::Coherence.value(1, &[3, 2, 2]); // {0,2,3}: 3/7
        let full = Measure::Coherence.value(1, &[3, 2, 2, 2]); // 4/9
        assert!(
            full > sub,
            "adding an item increased harmonic Coherence: {sub} -> {full}"
        );
        // Classic Jaccard IS anti-monotone on the same configuration: the
        // union grows 5 -> 6 while the intersection stays 1, so its value
        // drops from 1/5 to 1/6.
        assert!(jaccard_pair(1, 3, 3) > 0.0);
    }

    #[test]
    fn names_and_parse_roundtrip() {
        for m in Measure::ALL {
            assert_eq!(Measure::parse(m.name()), Some(m));
            assert_eq!(m.to_string(), m.name());
        }
        assert_eq!(Measure::parse("Kulczynski"), Some(Measure::Kulczynski));
        assert_eq!(Measure::parse("jaccard"), Some(Measure::Coherence));
        assert_eq!(Measure::parse("nope"), None);
    }

    #[test]
    fn default_is_kulc() {
        assert_eq!(Measure::default(), Measure::Kulczynski);
    }

    #[test]
    fn jaccard_pair_basics() {
        assert!((jaccard_pair(5, 10, 10) - 5.0 / 15.0).abs() < EPS);
        assert_eq!(jaccard_pair(0, 0, 0), 0.0);
        // Jaccard and harmonic-mean Coherence agree on pairs:
        // 2/(sup_a/s + sup_b/s) = 2s/(sup_a+sup_b); Jaccard = s/(sup_a+sup_b-s).
        // They are order-equivalent, not equal; check a known monotone pair.
        let j1 = jaccard_pair(5, 10, 10);
        let j2 = jaccard_pair(2, 10, 10);
        let c1 = Measure::Coherence.pair(5, 10, 10);
        let c2 = Measure::Coherence.pair(2, 10, 10);
        assert!((j1 > j2) == (c1 > c2));
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn empty_item_list_panics() {
        let _ = Measure::Kulczynski.value(1, &[]);
    }
}
