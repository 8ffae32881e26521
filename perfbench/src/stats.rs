//! The arithmetic every workload shares: quantiles under the tail rule,
//! F1 against planted origins, and safe ratios.

/// Samples that must lie beyond a reported tail quantile.
pub const TAIL_SAMPLES: usize = 10;

/// The highest quantile, in per-mille and capped at p99, that still has at
/// least [`TAIL_SAMPLES`] of `n` samples beyond it under the nearest-rank
/// rule of [`quantile`]. `None` when even the median would not qualify.
#[must_use]
pub fn tail_per_mille(n: usize) -> Option<usize> {
    if n < 2 * TAIL_SAMPLES {
        return None;
    }
    let q = 1000 - (TAIL_SAMPLES * 1000).div_ceil(n);
    Some(q.min(990))
}

/// Nearest-rank quantile at `per_mille`/1000 of `sorted` (ascending):
/// the sample of 1-based rank `ceil(q·n)`.
///
/// # Panics
///
/// Panics if `sorted` is empty.
#[must_use]
pub fn quantile(sorted: &[f64], per_mille: usize) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (per_mille * sorted.len()).div_ceil(1000).max(1);
    sorted[rank - 1]
}

/// A latency sample set reduced to its median and its tail under the
/// [`TAIL_SAMPLES`] rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    pub samples: usize,
    pub p50: f64,
    pub tail_per_mille: usize,
    pub tail: f64,
}

impl Latency {
    /// `None` when there are too few samples for any tail.
    #[must_use]
    pub fn of(mut samples: Vec<f64>) -> Option<Latency> {
        let tail_per_mille = tail_per_mille(samples.len())?;
        samples.sort_unstable_by(f64::total_cmp);
        Some(Latency {
            samples: samples.len(),
            p50: quantile(&samples, 500),
            tail_per_mille,
            tail: quantile(&samples, tail_per_mille),
        })
    }
}

/// The run is cut into this many equal spans of wall time, and each timing
/// metric is the median of its value over the spans: a burst of
/// interference from another tenant of the host that covers fewer than
/// half of them cannot move it.
pub const SPANS: usize = 5;

/// The span of a sample taken `at_s` seconds into a run of `run_s`
/// seconds; samples at or past the end (the drain) join the last span.
#[must_use]
pub fn span_of(at_s: f64, run_s: f64) -> usize {
    ((at_s / run_s * SPANS as f64) as usize).min(SPANS - 1)
}

/// The median of `values` (lower median for even counts).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    quantile(&sorted, 500)
}

/// `num / den`, or 0 when nothing was counted.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Reported positions scored against planted origins.
///
/// A read from the reference is a true positive when its planted origin
/// is reported, and a false negative otherwise; every other position it
/// reports is a false positive. A foreign read has no origin, so all of
/// its positions are false positives.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Score {
    pub tp: u64,
    pub fp: u64,
    pub fn_: u64,
}

impl Score {
    pub fn add(&mut self, planted: Option<usize>, reported: &[usize]) {
        let reported_len = reported.len() as u64;
        match planted {
            Some(origin) if reported.contains(&origin) => {
                self.tp += 1;
                self.fp += reported_len - 1;
            }
            Some(_) => {
                self.fn_ += 1;
                self.fp += reported_len;
            }
            None => self.fp += reported_len,
        }
    }

    #[must_use]
    pub fn f1(&self) -> f64 {
        let tp = 2.0 * self.tp as f64;
        ratio(tp, tp + (self.fp + self.fn_) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rule: report the highest quantile with at least ten samples
    /// beyond it, never above p99.
    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_per_mille(19), None);
        assert_eq!(tail_per_mille(20), Some(500));
        assert_eq!(tail_per_mille(100), Some(900));
        assert_eq!(tail_per_mille(1_000), Some(990));
        assert_eq!(tail_per_mille(100_000), Some(990));
        for n in 20..3_000 {
            let q = tail_per_mille(n).unwrap();
            let rank = (q * n).div_ceil(1000);
            assert!(n - rank >= TAIL_SAMPLES, "n={n} q={q} rank={rank}");
            // One step higher would leave fewer than ten beyond (or pass p99).
            let higher = q + 1;
            assert!(
                higher > 990 || n - (higher * n).div_ceil(1000) < TAIL_SAMPLES,
                "n={n} q={q} is not the highest"
            );
        }
    }

    #[test]
    fn samples_fall_in_equal_spans_and_the_drain_joins_the_last() {
        assert_eq!(span_of(0.0, 10.0), 0);
        assert_eq!(span_of(1.99, 10.0), 0);
        assert_eq!(span_of(2.0, 10.0), 1);
        assert_eq!(span_of(9.99, 10.0), SPANS - 1);
        assert_eq!(span_of(12.5, 10.0), SPANS - 1);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&sorted, 500), 50.0);
        assert_eq!(quantile(&sorted, 900), 90.0);
        assert_eq!(quantile(&sorted, 990), 99.0);
        assert_eq!(quantile(&[7.0], 990), 7.0);
        let latency = Latency::of((1..=100).rev().map(f64::from).collect()).unwrap();
        assert_eq!(latency.samples, 100);
        assert_eq!(latency.p50, 50.0);
        assert_eq!((latency.tail_per_mille, latency.tail), (900, 90.0));
        assert!(Latency::of(vec![1.0; 5]).is_none());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    /// A hand-built case: two planted hits (one with an extra neighbour),
    /// one miss, and one foreign read reporting two positions.
    #[test]
    fn f1_on_a_hand_built_case() {
        let mut score = Score::default();
        score.add(Some(800), &[800]);
        score.add(Some(64), &[56, 64]);
        score.add(Some(1_024), &[]);
        score.add(None, &[8, 16]);
        score.add(None, &[]);
        assert_eq!(
            score,
            Score {
                tp: 2,
                fp: 3,
                fn_: 1
            }
        );
        // 2·2 / (2·2 + 3 + 1)
        assert!((score.f1() - 0.5).abs() < 1e-12);
        assert_eq!(Score::default().f1(), 0.0);
    }
}
