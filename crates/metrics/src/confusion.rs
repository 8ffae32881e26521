//! Classification bookkeeping: TP/FP/FN/TN, sensitivity, precision, F1.
//!
//! The paper scores matchers with the F1 score (Eq. 3–4): *sensitivity* =
//! TP/(TP+FN), *precision* = TP/(TP+FP), F1 = their harmonic mean, where a
//! "positive" is a (read, segment) pair whose matching result is `match`.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign};

/// Counts of classification outcomes over a set of binary decisions.
///
/// # Examples
///
/// ```
/// use asmcap_metrics::ConfusionMatrix;
/// let mut cm = ConfusionMatrix::new();
/// cm.record(true, true);   // TP
/// cm.record(false, true);  // FP
/// cm.record(true, false);  // FN
/// cm.record(false, false); // TN
/// assert_eq!(cm.sensitivity(), 0.5);
/// assert_eq!(cm.precision(), 0.5);
/// assert_eq!(cm.f1(), 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConfusionMatrix {
    /// Predicted match, truly a match.
    pub true_positives: u64,
    /// Predicted match, truly not a match.
    pub false_positives: u64,
    /// Predicted no-match, truly a match.
    pub false_negatives: u64,
    /// Predicted no-match, truly not a match.
    pub true_negatives: u64,
}

impl ConfusionMatrix {
    /// Creates an empty matrix.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one decision: `truth` is the ground-truth label, `predicted`
    /// the matcher's output.
    pub fn record(&mut self, truth: bool, predicted: bool) {
        match (truth, predicted) {
            (true, true) => self.true_positives += 1,
            (false, true) => self.false_positives += 1,
            (true, false) => self.false_negatives += 1,
            (false, false) => self.true_negatives += 1,
        }
    }

    /// Total number of recorded decisions.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.true_positives + self.false_positives + self.false_negatives + self.true_negatives
    }

    /// Sensitivity (recall): TP / (TP + FN). Returns 1 when there are no
    /// ground-truth positives (a matcher cannot miss what does not exist).
    #[must_use]
    pub fn sensitivity(&self) -> f64 {
        ratio(
            self.true_positives,
            self.true_positives + self.false_negatives,
        )
    }

    /// Precision: TP / (TP + FP). Returns 1 when nothing was predicted
    /// positive.
    #[must_use]
    pub fn precision(&self) -> f64 {
        ratio(
            self.true_positives,
            self.true_positives + self.false_positives,
        )
    }

    /// F1 score (paper Eq. 4): harmonic mean of sensitivity and precision.
    ///
    /// Returns 0 when both are 0.
    #[must_use]
    pub fn f1(&self) -> f64 {
        let s = self.sensitivity();
        let p = self.precision();
        if s + p == 0.0 {
            0.0
        } else {
            2.0 * s * p / (s + p)
        }
    }

    /// Plain accuracy: (TP + TN) / total. Returns 1 on an empty matrix.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        ratio(self.true_positives + self.true_negatives, self.total())
    }
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        1.0
    } else {
        numerator as f64 / denominator as f64
    }
}

impl Add for ConfusionMatrix {
    type Output = ConfusionMatrix;

    fn add(mut self, rhs: ConfusionMatrix) -> ConfusionMatrix {
        self += rhs;
        self
    }
}

impl AddAssign for ConfusionMatrix {
    fn add_assign(&mut self, rhs: ConfusionMatrix) {
        self.true_positives += rhs.true_positives;
        self.false_positives += rhs.false_positives;
        self.false_negatives += rhs.false_negatives;
        self.true_negatives += rhs.true_negatives;
    }
}

impl Sum for ConfusionMatrix {
    fn sum<I: Iterator<Item = ConfusionMatrix>>(iter: I) -> ConfusionMatrix {
        iter.fold(ConfusionMatrix::new(), Add::add)
    }
}

impl fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TP={} FP={} FN={} TN={} (F1={:.2}%)",
            self.true_positives,
            self.false_positives,
            self.false_negatives,
            self.true_negatives,
            self.f1() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn perfect_classifier_scores_one() {
        let mut cm = ConfusionMatrix::new();
        for _ in 0..10 {
            cm.record(true, true);
            cm.record(false, false);
        }
        assert_eq!(cm.f1(), 1.0);
        assert_eq!(cm.accuracy(), 1.0);
    }

    #[test]
    fn all_wrong_scores_zero() {
        let mut cm = ConfusionMatrix::new();
        cm.record(true, false);
        cm.record(false, true);
        assert_eq!(cm.f1(), 0.0);
        assert_eq!(cm.accuracy(), 0.0);
    }

    #[test]
    fn empty_matrix_is_degenerate_but_defined() {
        let cm = ConfusionMatrix::new();
        assert_eq!(cm.sensitivity(), 1.0);
        assert_eq!(cm.precision(), 1.0);
        assert_eq!(cm.f1(), 1.0);
        assert_eq!(cm.total(), 0);
    }

    #[test]
    fn matrices_sum_componentwise() {
        let mut a = ConfusionMatrix::new();
        a.record(true, true);
        let mut b = ConfusionMatrix::new();
        b.record(false, true);
        let c = a + b;
        assert_eq!(c.true_positives, 1);
        assert_eq!(c.false_positives, 1);
        assert_eq!(c.total(), 2);
        let summed: ConfusionMatrix = [a, b].into_iter().sum();
        assert_eq!(summed, c);
    }

    #[test]
    fn display_is_informative() {
        let mut cm = ConfusionMatrix::new();
        cm.record(true, true);
        let rendered = cm.to_string();
        assert!(rendered.contains("TP=1"));
        assert!(rendered.contains("F1=100.00%"));
    }

    proptest! {
        #[test]
        fn prop_scores_in_unit_interval(
            outcomes in proptest::collection::vec((any::<bool>(), any::<bool>()), 0..100)
        ) {
            let mut cm = ConfusionMatrix::new();
            for (truth, predicted) in outcomes {
                cm.record(truth, predicted);
            }
            for score in [cm.sensitivity(), cm.precision(), cm.f1(), cm.accuracy()] {
                prop_assert!((0.0..=1.0).contains(&score));
            }
        }

        #[test]
        fn prop_f1_below_max_component(
            tp in 0u64..50, fp in 0u64..50, fn_ in 0u64..50, tn in 0u64..50
        ) {
            let cm = ConfusionMatrix {
                true_positives: tp,
                false_positives: fp,
                false_negatives: fn_,
                true_negatives: tn,
            };
            let f1 = cm.f1();
            prop_assert!(f1 <= cm.sensitivity().max(cm.precision()) + 1e-12);
            prop_assert!(f1 + 1e-12 >= cm.sensitivity().min(cm.precision()).min(f1));
        }
    }
}
