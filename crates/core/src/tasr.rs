//! Threshold-Aware Sequence Rotation (paper §IV-B, Algorithm 2).
//!
//! Consecutive insertions or deletions shift the read's tail by two or more
//! bases — beyond the ±1 window ED\* tolerates — so ED\* blows up while the
//! true edit distance stays small: a false negative whenever
//! `ED ≤ T < ED*`. Rotating the read base-by-base re-aligns the tail and
//! lets one of the rotated searches match.
//!
//! Plain sequence rotation (SR, inherited from EDAM) rotates
//! unconditionally, which *creates* false positives at small `T` (a rotated
//! read may fluke below a tight threshold). TASR adds the threshold gate:
//! rotations run only when `T ≥ T_l` with
//!
//! ```text
//! T_l = ⌈ γ/e_id · m ⌉
//! ```
//!
//! so rotation activates exactly where consecutive indels are plausible
//! (`e_id` high) or the threshold is loose enough to be safe.

use asmcap_genome::{ErrorProfile, PackedSeq};

/// Direction of one rotation step of the read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RotateDirection {
    /// Towards lower indices (base 1 moves to position 0).
    Left,
    /// Towards higher indices (base 0 moves to position 1).
    Right,
}

/// Which directions the rotated searches try.
///
/// Algorithm 2 says "rotate left (right) `i` bases" without fixing the
/// direction. Deletions in the read need *right* rotations to re-align,
/// insertions need *left* rotations, so the default alternates to cover
/// both (see `DESIGN.md` §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RotationSchedule {
    /// right 1, left 1, right 2, left 2, …
    #[default]
    Alternate,
    /// left 1, left 2, left 3, …
    LeftOnly,
    /// right 1, right 2, right 3, …
    RightOnly,
}

impl RotationSchedule {
    /// The `i`-th rotation (1-based): direction and amount.
    ///
    /// # Panics
    ///
    /// Panics if `i` is zero (rotation 0 is the original read).
    #[must_use]
    pub fn step(&self, i: usize) -> (RotateDirection, usize) {
        assert!(i > 0, "rotation steps are 1-based");
        match self {
            RotationSchedule::Alternate => {
                let amount = i.div_ceil(2);
                if i % 2 == 1 {
                    (RotateDirection::Right, amount)
                } else {
                    (RotateDirection::Left, amount)
                }
            }
            RotationSchedule::LeftOnly => (RotateDirection::Left, i),
            RotationSchedule::RightOnly => (RotateDirection::Right, i),
        }
    }

    /// Applies the `i`-th rotation to a packed read, word-parallel: the
    /// read the hardware's shift registers present after `amount`
    /// single-position rotations in `direction`.
    #[must_use]
    pub fn rotated_packed(&self, read: &PackedSeq, i: usize) -> PackedSeq {
        let (direction, amount) = self.step(i);
        match direction {
            RotateDirection::Left => read.rotated_left(amount),
            RotateDirection::Right => read.rotated_right(amount),
        }
    }
}

/// Tunable constants of TASR.
///
/// # Examples
///
/// ```
/// use asmcap::TasrParams;
/// use asmcap_genome::ErrorProfile;
///
/// let params = TasrParams::paper();
/// // Condition A (few indels): T_l = ceil(2e-4/1e-3 * 256) = 52 — rotation
/// // never triggers in the paper's T = 1..8 sweep.
/// assert_eq!(params.lower_bound(&ErrorProfile::condition_a(), 256), 52);
/// // Condition B (indel-dominant): T_l = ceil(2e-4/1e-2 * 256) = 6.
/// assert_eq!(params.lower_bound(&ErrorProfile::condition_b(), 256), 6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TasrParams {
    /// Lower-bound constant `γ` (paper: 2 × 10⁻⁴).
    pub gamma: f64,
    /// Total rotation count `N_R` (paper: 2).
    pub rotations: usize,
    /// Rotation direction schedule.
    pub schedule: RotationSchedule,
    /// When `false`, the `T_l` gate is bypassed — plain SR, the EDAM
    /// behaviour TASR improves on.
    pub threshold_aware: bool,
}

impl TasrParams {
    /// The paper's constants: `γ = 2e-4`, `N_R = 2`, alternating schedule.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            gamma: 2e-4,
            rotations: 2,
            schedule: RotationSchedule::Alternate,
            threshold_aware: true,
        }
    }

    /// Plain (non-threshold-aware) sequence rotation with `rotations` steps.
    #[must_use]
    pub fn plain_sr(rotations: usize) -> Self {
        Self {
            gamma: 0.0,
            rotations,
            schedule: RotationSchedule::Alternate,
            threshold_aware: false,
        }
    }

    /// The rotation gate `T_l = ⌈γ/e_id · m⌉` for read length `m`.
    ///
    /// An error-free profile (no indels) returns `usize::MAX`: rotation can
    /// never help and is permanently gated off.
    #[must_use]
    pub fn lower_bound(&self, profile: &ErrorProfile, read_len: usize) -> usize {
        let eid = profile.indel_rate();
        if eid == 0.0 {
            return usize::MAX;
        }
        (self.gamma / eid * read_len as f64).ceil() as usize
    }

    /// Whether rotated searches run at this threshold.
    #[must_use]
    pub fn active(&self, profile: &ErrorProfile, read_len: usize, threshold: usize) -> bool {
        if self.rotations == 0 {
            return false;
        }
        !self.threshold_aware || threshold >= self.lower_bound(profile, read_len)
    }
}

impl Default for TasrParams {
    fn default() -> Self {
        Self::paper()
    }
}

/// The TASR stage (Algorithm 2), bound to an error profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tasr {
    params: TasrParams,
    profile: ErrorProfile,
}

impl Tasr {
    /// Creates the stage for a known (or profiled) error model.
    #[must_use]
    pub fn new(params: TasrParams, profile: ErrorProfile) -> Self {
        Self { params, profile }
    }

    /// The configured parameters.
    #[must_use]
    pub fn params(&self) -> &TasrParams {
        &self.params
    }

    /// Whether rotations run for this read length and threshold.
    #[must_use]
    pub fn active(&self, read_len: usize, threshold: usize) -> bool {
        self.params.active(&self.profile, read_len, threshold)
    }

    /// Algorithm 2's rotation loop: runs `decide` on each rotated read
    /// (rotations `1..=N_R`), OR-ing the results, with early exit on the
    /// first match. Returns `(matched, rotations_issued)`.
    ///
    /// The caller supplies the original read's decision as `base` (the
    /// `i = 0` iteration of the paper's loop) and a `decide` closure that
    /// performs one search — on the pair engine or on the real device.
    /// Rotations apply word-parallel to the packed read.
    pub fn run_packed(
        &self,
        base: bool,
        read: &PackedSeq,
        threshold: usize,
        mut decide: impl FnMut(&PackedSeq) -> bool,
    ) -> (bool, u32) {
        if base || !self.active(read.len(), threshold) {
            return (base, 0);
        }
        let mut issued = 0u32;
        for i in 1..=self.params.rotations {
            let rotated = self.params.schedule.rotated_packed(read, i);
            issued += 1;
            if decide(&rotated) {
                return (true, issued);
            }
        }
        (false, issued)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asmcap_genome::{DnaSeq, GenomeModel};
    use asmcap_metrics::ed_star_packed;

    #[test]
    fn paper_constants() {
        let p = TasrParams::paper();
        assert_eq!(p.gamma, 2e-4);
        assert_eq!(p.rotations, 2);
        assert!(p.threshold_aware);
    }

    #[test]
    fn lower_bound_scales_inversely_with_indel_rate() {
        let p = TasrParams::paper();
        let high_indel = ErrorProfile::new(0.001, 0.01, 0.01);
        let low_indel = ErrorProfile::new(0.001, 0.0005, 0.0005);
        assert!(p.lower_bound(&high_indel, 256) < p.lower_bound(&low_indel, 256));
        assert_eq!(p.lower_bound(&ErrorProfile::error_free(), 256), usize::MAX);
    }

    #[test]
    fn plain_sr_ignores_the_gate() {
        let sr = TasrParams::plain_sr(2);
        let a = ErrorProfile::condition_a();
        assert!(sr.active(&a, 256, 1));
        let tasr = TasrParams::paper();
        assert!(!tasr.active(&a, 256, 1)); // T_l = 52 in Condition A
    }

    #[test]
    fn alternate_schedule_covers_both_directions() {
        let s = RotationSchedule::Alternate;
        assert_eq!(s.step(1), (RotateDirection::Right, 1));
        assert_eq!(s.step(2), (RotateDirection::Left, 1));
        assert_eq!(s.step(3), (RotateDirection::Right, 2));
        assert_eq!(s.step(4), (RotateDirection::Left, 2));
        assert_eq!(
            RotationSchedule::LeftOnly.step(3),
            (RotateDirection::Left, 3)
        );
        assert_eq!(
            RotationSchedule::RightOnly.step(2),
            (RotateDirection::Right, 2)
        );
    }

    #[test]
    fn rotation_fixes_consecutive_deletions() {
        // Fig. 6 scenario: the read lost two consecutive bases, ED* explodes
        // on the original read but collapses on a right-rotated one.
        let stored = GenomeModel::uniform().generate(64, 123);
        let mut read_bases = stored.clone().into_bases();
        read_bases.drain(10..12);
        read_bases.extend([asmcap_genome::Base::A, asmcap_genome::Base::A]);
        let stored = PackedSeq::from_seq(&stored);
        let read = PackedSeq::from_seq(&DnaSeq::from_bases(read_bases));
        let original = ed_star_packed(&stored, &read);
        assert!(original > 10, "expected a blown-up ED*, got {original}");
        let schedule = RotationSchedule::Alternate;
        let best_rotated = (1..=2)
            .map(|i| ed_star_packed(&stored, &schedule.rotated_packed(&read, i)))
            .min()
            .unwrap();
        assert!(
            best_rotated <= 6,
            "rotation should re-align the tail, got ED* {best_rotated}"
        );
    }

    #[test]
    fn run_early_exits_and_counts_cycles() {
        let tasr = Tasr::new(TasrParams::paper(), ErrorProfile::condition_b());
        let read = PackedSeq::from_seq(&"ACGTACGTACGTACGT".parse().unwrap());
        // Base already matched: no rotations issued.
        let (matched, issued) = tasr.run_packed(true, &read, 16, |_| false);
        assert!(matched);
        assert_eq!(issued, 0);
        // Gate passes (T=16 >= T_l for 16-base read in condition B? T_l =
        // ceil(2e-4/0.01*16) = 1); first rotation matches -> 1 cycle.
        let (matched, issued) = tasr.run_packed(false, &read, 16, |_| true);
        assert!(matched);
        assert_eq!(issued, 1);
        // Nothing matches -> N_R cycles.
        let (matched, issued) = tasr.run_packed(false, &read, 16, |_| false);
        assert!(!matched);
        assert_eq!(issued, 2);
    }

    #[test]
    fn run_respects_the_gate() {
        let tasr = Tasr::new(TasrParams::paper(), ErrorProfile::condition_a());
        let read = PackedSeq::from_seq(&"ACGT".repeat(64).parse().unwrap());
        // Condition A, T=1 < T_l=52: the decide closure must never be called.
        let (matched, issued) =
            tasr.run_packed(false, &read, 1, |_| panic!("rotation ran despite the gate"));
        assert!(!matched);
        assert_eq!(issued, 0);
    }
}
