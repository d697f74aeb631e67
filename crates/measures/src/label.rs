//! Correlation labels and thresholds (Definition 1 of the paper).

use std::fmt;

/// The label an itemset receives once its support and correlation are known.
///
/// Per Definition 1: an itemset is **positive** if it is frequent and
/// `Corr ≥ γ`, **negative** if frequent and `Corr ≤ ε`, **non-correlated**
/// if frequent but strictly between the thresholds, and **infrequent**
/// otherwise (infrequent itemsets carry no correlation label at all).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Label {
    /// Frequent and `Corr ≥ γ`.
    Positive,
    /// Frequent and `Corr ≤ ε`.
    Negative,
    /// Frequent but neither positive nor negative — "not interesting".
    NonCorrelated,
    /// Support below the level's minimum support threshold.
    Infrequent,
}

impl Label {
    /// Whether this label is exactly [`Label::Positive`].
    #[inline]
    pub fn is_positive(self) -> bool {
        self == Label::Positive
    }

    /// Whether this label is exactly [`Label::Negative`].
    #[inline]
    pub fn is_negative(self) -> bool {
        self == Label::Negative
    }

    /// Whether this label can sit inside a flipping chain (positive or
    /// negative — non-correlated and infrequent itemsets break chains).
    #[inline]
    pub fn is_correlated(self) -> bool {
        matches!(self, Label::Positive | Label::Negative)
    }

    /// Whether `self` followed by `next` constitutes a *flip*
    /// (positive → negative or negative → positive).
    #[inline]
    pub fn flips_to(self, next: Label) -> bool {
        matches!(
            (self, next),
            (Label::Positive, Label::Negative) | (Label::Negative, Label::Positive)
        )
    }

    /// Sign char used in compact renderings: `+`, `-`, `.` or `!`.
    pub fn sigil(self) -> char {
        match self {
            Label::Positive => '+',
            Label::Negative => '-',
            Label::NonCorrelated => '.',
            Label::Infrequent => '!',
        }
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Label::Positive => "positive",
            Label::Negative => "negative",
            Label::NonCorrelated => "non-correlated",
            Label::Infrequent => "infrequent",
        };
        f.write_str(s)
    }
}

/// The `(γ, ε)` correlation threshold pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Thresholds {
    /// Positive threshold γ: `Corr ≥ γ` ⇒ positive.
    pub gamma: f64,
    /// Negative threshold ε: `Corr ≤ ε` ⇒ negative.
    pub epsilon: f64,
}

impl Thresholds {
    /// Create a threshold pair, checking `0 ≤ ε < γ ≤ 1`.
    ///
    /// # Panics
    /// Panics if the ordering constraint is violated — threshold mistakes
    /// silently produce empty or nonsensical pattern sets, so we fail fast.
    pub fn new(gamma: f64, epsilon: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&gamma) && (0.0..=1.0).contains(&epsilon) && epsilon < gamma,
            "thresholds must satisfy 0 <= epsilon < gamma <= 1 (got gamma={gamma}, epsilon={epsilon})"
        );
        Thresholds { gamma, epsilon }
    }

    /// Label a *frequent* itemset from its correlation value.
    #[inline]
    pub fn label_frequent(&self, corr: f64) -> Label {
        if corr >= self.gamma {
            Label::Positive
        } else if corr <= self.epsilon {
            Label::Negative
        } else {
            Label::NonCorrelated
        }
    }

    /// Label an itemset from its correlation value and frequency status.
    #[inline]
    pub fn label(&self, corr: f64, frequent: bool) -> Label {
        if frequent {
            self.label_frequent(corr)
        } else {
            Label::Infrequent
        }
    }
}

impl Default for Thresholds {
    /// The paper's default synthetic-experiment thresholds: γ=0.3, ε=0.1.
    fn default() -> Self {
        Thresholds::new(0.3, 0.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labeling_boundaries_are_inclusive() {
        let t = Thresholds::new(0.6, 0.35);
        assert_eq!(t.label_frequent(0.6), Label::Positive);
        assert_eq!(t.label_frequent(0.61), Label::Positive);
        assert_eq!(t.label_frequent(0.35), Label::Negative);
        assert_eq!(t.label_frequent(0.34), Label::Negative);
        assert_eq!(t.label_frequent(0.5), Label::NonCorrelated);
        assert_eq!(t.label(0.9, false), Label::Infrequent);
    }

    #[test]
    #[should_panic(expected = "thresholds must satisfy")]
    fn inverted_thresholds_panic() {
        let _ = Thresholds::new(0.1, 0.3);
    }

    #[test]
    #[should_panic(expected = "thresholds must satisfy")]
    fn out_of_range_threshold_panics() {
        let _ = Thresholds::new(1.5, 0.1);
    }

    #[test]
    fn flips() {
        use Label::*;
        assert!(Positive.flips_to(Negative));
        assert!(Negative.flips_to(Positive));
        assert!(!Positive.flips_to(Positive));
        assert!(!Positive.flips_to(NonCorrelated));
        assert!(!NonCorrelated.flips_to(Negative));
        assert!(!Infrequent.flips_to(Positive));
    }

    #[test]
    fn predicates_and_sigils() {
        use Label::*;
        assert!(Positive.is_positive() && !Positive.is_negative());
        assert!(Negative.is_negative());
        assert!(Positive.is_correlated() && Negative.is_correlated());
        assert!(!NonCorrelated.is_correlated() && !Infrequent.is_correlated());
        assert_eq!(Positive.sigil(), '+');
        assert_eq!(Negative.sigil(), '-');
        assert_eq!(NonCorrelated.sigil(), '.');
        assert_eq!(Infrequent.sigil(), '!');
    }

    #[test]
    fn display_names() {
        assert_eq!(Label::Positive.to_string(), "positive");
        assert_eq!(Label::Infrequent.to_string(), "infrequent");
    }

    #[test]
    fn default_matches_paper() {
        let t = Thresholds::default();
        assert_eq!(t.gamma, 0.3);
        assert_eq!(t.epsilon, 0.1);
    }
}
