//! Expectation-based correlation measures (Lift, χ², φ, support deviation).
//!
//! These are **not** null-invariant: they depend on the total transaction
//! count `N`, and the paper's Table 1 / Example 2 demonstrates how that makes
//! them flip sign with `N` while the actual item relationship is unchanged.
//! We implement them solely to reproduce that demonstration and for users who
//! want to compare; the mining algorithm itself only accepts null-invariant
//! measures.

/// Sign of an expectation-based correlation judgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpectationSign {
    /// Observed support exceeds the independence expectation.
    Positive,
    /// Observed support falls short of the independence expectation.
    Negative,
    /// Observed support equals the expectation exactly.
    Independent,
}

/// Expected support of `{A, B}` under independence:
/// `E[sup(AB)] = sup(A)·sup(B)/N`.
pub fn expected_support(sup_a: u64, sup_b: u64, n: u64) -> f64 {
    assert!(n > 0, "database must contain at least one transaction");
    (sup_a as f64) * (sup_b as f64) / (n as f64)
}

/// Lift: `P(AB) / (P(A)·P(B)) = sup(AB)·N / (sup(A)·sup(B))`.
///
/// Lift > 1 reads as positive correlation, < 1 as negative — but the value
/// scales with `N` (see [`crate::expectation`] module docs).
pub fn lift(sup_ab: u64, sup_a: u64, sup_b: u64, n: u64) -> f64 {
    assert!(n > 0, "database must contain at least one transaction");
    if sup_a == 0 || sup_b == 0 {
        return 0.0;
    }
    (sup_ab as f64) * (n as f64) / ((sup_a as f64) * (sup_b as f64))
}

/// Classify the pair by comparing observed support to its expectation —
/// exactly the judgement criticized in Table 1 of the paper.
pub fn expectation_sign(sup_ab: u64, sup_a: u64, sup_b: u64, n: u64) -> ExpectationSign {
    let e = expected_support(sup_a, sup_b, n);
    let o = sup_ab as f64;
    if o > e {
        ExpectationSign::Positive
    } else if o < e {
        ExpectationSign::Negative
    } else {
        ExpectationSign::Independent
    }
}

/// Full 2×2 contingency table for a pair of items.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Contingency {
    /// Transactions containing both A and B.
    pub both: u64,
    /// Transactions containing A but not B.
    pub a_only: u64,
    /// Transactions containing B but not A.
    pub b_only: u64,
    /// Null transactions: neither A nor B.
    pub neither: u64,
}

impl Contingency {
    /// Build from supports: `sup(A)`, `sup(B)`, `sup(AB)` and total `N`.
    ///
    /// # Panics
    /// Panics if the supports are inconsistent (e.g. `sup(AB) > sup(A)` or
    /// the union exceeds `N`).
    pub fn from_supports(sup_ab: u64, sup_a: u64, sup_b: u64, n: u64) -> Self {
        assert!(
            sup_ab <= sup_a && sup_ab <= sup_b,
            "sup(AB) cannot exceed a member support"
        );
        let union = sup_a + sup_b - sup_ab;
        assert!(union <= n, "sup(A∪B)={union} exceeds N={n}");
        Contingency {
            both: sup_ab,
            a_only: sup_a - sup_ab,
            b_only: sup_b - sup_ab,
            neither: n - union,
        }
    }

    /// Total number of transactions.
    pub fn n(&self) -> u64 {
        self.both + self.a_only + self.b_only + self.neither
    }

    /// Pearson χ² statistic of the 2×2 table (1 degree of freedom).
    pub fn chi_squared(&self) -> f64 {
        let n = self.n() as f64;
        if n == 0.0 {
            return 0.0;
        }
        let row_a = (self.both + self.a_only) as f64;
        let row_na = (self.b_only + self.neither) as f64;
        let col_b = (self.both + self.b_only) as f64;
        let col_nb = (self.a_only + self.neither) as f64;
        let cells = [
            (self.both as f64, row_a * col_b / n),
            (self.a_only as f64, row_a * col_nb / n),
            (self.b_only as f64, row_na * col_b / n),
            (self.neither as f64, row_na * col_nb / n),
        ];
        cells
            .iter()
            .map(|&(o, e)| if e == 0.0 { 0.0 } else { (o - e).powi(2) / e })
            .sum()
    }

    /// φ coefficient (signed, in `[-1, 1]`): the Pearson correlation of the
    /// two indicator variables.
    pub fn phi(&self) -> f64 {
        let (a, b, c, d) = (
            self.both as f64,
            self.a_only as f64,
            self.b_only as f64,
            self.neither as f64,
        );
        let denom = ((a + b) * (c + d) * (a + c) * (b + d)).sqrt();
        if denom == 0.0 {
            0.0
        } else {
            (a * d - b * c) / denom
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reproduces Table 1 of the paper: the expectation-based judgement flips
    /// between DB1 (N=20,000) and DB2 (N=2,000) for identical supports, while
    /// Kulc (tested in `null_invariant`) is 0.40 / 0.02 in both.
    #[test]
    fn table1_expectation_flips_with_n() {
        // Itemset {A, B}: sup 1000/1000, sup(AB)=400.
        assert_eq!(expected_support(1000, 1000, 20_000), 50.0);
        assert_eq!(
            expectation_sign(400, 1000, 1000, 20_000),
            ExpectationSign::Positive
        );
        assert_eq!(expected_support(1000, 1000, 2_000), 500.0);
        assert_eq!(
            expectation_sign(400, 1000, 1000, 2_000),
            ExpectationSign::Negative
        );
        // Itemset {C, D}: sup 200/200, sup(CD)=4 — "intuitively clearly
        // negative", judged positive in DB1.
        assert_eq!(expected_support(200, 200, 20_000), 2.0);
        assert_eq!(
            expectation_sign(4, 200, 200, 20_000),
            ExpectationSign::Positive
        );
        assert_eq!(expected_support(200, 200, 2_000), 20.0);
        assert_eq!(
            expectation_sign(4, 200, 200, 2_000),
            ExpectationSign::Negative
        );
    }

    #[test]
    fn lift_scales_with_n() {
        let l1 = lift(400, 1000, 1000, 20_000);
        let l2 = lift(400, 1000, 1000, 2_000);
        assert!(l1 > 1.0 && l2 < 1.0);
        assert!((l1 / l2 - 10.0).abs() < 1e-9, "lift is proportional to N");
    }

    #[test]
    fn lift_zero_supports() {
        assert_eq!(lift(0, 0, 10, 100), 0.0);
        assert_eq!(lift(0, 10, 10, 100), 0.0);
    }

    #[test]
    fn independent_sign() {
        // sup(A)=sup(B)=10, N=100 → E=1; observed 1 → independent.
        assert_eq!(
            expectation_sign(1, 10, 10, 100),
            ExpectationSign::Independent
        );
    }

    #[test]
    fn contingency_construction() {
        let c = Contingency::from_supports(4, 10, 8, 100);
        assert_eq!(c.both, 4);
        assert_eq!(c.a_only, 6);
        assert_eq!(c.b_only, 4);
        assert_eq!(c.neither, 86);
        assert_eq!(c.n(), 100);
    }

    #[test]
    #[should_panic(expected = "exceeds N")]
    fn contingency_rejects_inconsistent_totals() {
        let _ = Contingency::from_supports(0, 8, 8, 10);
    }

    #[test]
    #[should_panic(expected = "cannot exceed")]
    fn contingency_rejects_oversized_intersection() {
        let _ = Contingency::from_supports(9, 8, 10, 100);
    }

    #[test]
    fn chi_squared_zero_for_independence() {
        // Perfect independence: P(A)=0.5, P(B)=0.5, P(AB)=0.25 with N=100.
        let c = Contingency::from_supports(25, 50, 50, 100);
        assert!(c.chi_squared().abs() < 1e-9);
        assert!(c.phi().abs() < 1e-9);
    }

    #[test]
    fn chi_squared_positive_for_association() {
        let c = Contingency::from_supports(50, 50, 50, 100);
        // Perfect association: χ² = N, φ = 1.
        assert!((c.chi_squared() - 100.0).abs() < 1e-9);
        assert!((c.phi() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn phi_negative_for_disjoint_items() {
        let c = Contingency::from_supports(0, 50, 50, 100);
        assert!((c.phi() + 1.0).abs() < 1e-9);
    }

    #[test]
    fn phi_sensitive_to_null_transactions() {
        // The same co-occurrence counts with more null transactions changes
        // φ — the very defect null-invariant measures avoid.
        let c1 = Contingency::from_supports(10, 20, 20, 100);
        let c2 = Contingency::from_supports(10, 20, 20, 10_000);
        assert!((c1.phi() - c2.phi()).abs() > 0.05);
    }
}
