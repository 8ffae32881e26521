//! Hamming-Distance Aid Correction (paper §IV-A, Algorithm 1).
//!
//! When edits are mostly substitutions, ED\* hides a large fraction of them
//! (a substituted base often still matches a neighbor by coincidence), so
//! ED\* understates the distance and the matcher produces false positives
//! whenever `ED* ≤ T < ED`. HDAC runs a second, HD-mode search (the `S = 0`
//! MUX setting) and, when the two results disagree, adopts the HD result
//! with probability
//!
//! ```text
//! p = e_s/(e_s + e_id) · exp(−(α·e_id + β·T))
//! ```
//!
//! The three factors implement the paper's design intent: favour HD when
//! substitutions dominate, back off exponentially as indels grow (HD
//! over-counts indels badly), and back off with larger `T` (at large `T`
//! indel-inflated HD causes false negatives instead). The strategy is
//! disabled entirely — saving its extra cycle — when `p` falls below a
//! cutoff (the paper suggests 1 %).

use crate::Rng;
use rand::Rng as _;

/// Tunable constants of the HDAC probability function.
///
/// # Examples
///
/// ```
/// use asmcap::HdacParams;
/// use asmcap_genome::ErrorProfile;
///
/// let params = HdacParams::paper();
/// let a = ErrorProfile::condition_a();
/// // Substitution-dominant: HDAC is active at small T...
/// assert!(params.probability(&a, 1) > 0.4);
/// // ...and backs off at large T.
/// assert!(params.probability(&a, 8) < 0.02);
/// // Indel-dominant Condition B disables HDAC outright.
/// let b = ErrorProfile::condition_b();
/// assert!(!params.enabled(&b, 2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HdacParams {
    /// Indel back-off constant `α` (paper: 200).
    pub alpha: f64,
    /// Threshold back-off constant `β` (paper: 0.5).
    pub beta: f64,
    /// Probability below which the strategy is disabled and its extra cycle
    /// skipped (paper: 1 %).
    pub min_probability: f64,
}

impl HdacParams {
    /// The paper's constants: `α = 200`, `β = 0.5`, 1 % disable cutoff.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            alpha: 200.0,
            beta: 0.5,
            min_probability: 0.01,
        }
    }

    /// The selection probability `p = e_s/(e_s+e_id) · e^(−(α·e_id + β·T))`.
    ///
    /// Returns 0 when the profile has no edits at all (nothing to correct).
    /// The paper notes `p` "can be pre-processed off-line": it depends only
    /// on the error profile and threshold, not on the data.
    #[must_use]
    pub fn probability(&self, profile: &asmcap_genome::ErrorProfile, threshold: usize) -> f64 {
        let es = profile.substitution;
        let eid = profile.indel_rate();
        if es + eid == 0.0 {
            return 0.0;
        }
        es / (es + eid) * (-(self.alpha * eid + self.beta * threshold as f64)).exp()
    }

    /// Whether HDAC should run (and spend its extra cycle) at all.
    #[must_use]
    pub fn enabled(&self, profile: &asmcap_genome::ErrorProfile, threshold: usize) -> bool {
        self.probability(profile, threshold) >= self.min_probability
    }
}

impl Default for HdacParams {
    fn default() -> Self {
        Self::paper()
    }
}

/// The HDAC decision stage (Algorithm 1), bound to an error profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hdac {
    params: HdacParams,
    profile: asmcap_genome::ErrorProfile,
}

impl Hdac {
    /// Creates the stage for a known (or profiled) error model.
    #[must_use]
    pub fn new(params: HdacParams, profile: asmcap_genome::ErrorProfile) -> Self {
        Self { params, profile }
    }

    /// The configured parameters.
    #[must_use]
    pub fn params(&self) -> &HdacParams {
        &self.params
    }

    /// Whether the stage will issue an HD search at this threshold.
    #[must_use]
    pub fn active(&self, threshold: usize) -> bool {
        self.params.enabled(&self.profile, threshold)
    }

    /// Algorithm 1: combines the two matching results. `o_hd`/`o_ed_star`
    /// are the HD-mode and ED\*-mode sense-amplifier outputs.
    ///
    /// Only meaningful when [`Hdac::active`]; callers skip the HD search —
    /// and this call — otherwise.
    #[must_use]
    pub fn select(&self, o_hd: bool, o_ed_star: bool, threshold: usize, rng: &mut Rng) -> bool {
        if o_hd == o_ed_star {
            return o_ed_star;
        }
        let p = self.params.probability(&self.profile, threshold);
        let x: f64 = rng.gen();
        if x < p {
            o_hd
        } else {
            o_ed_star
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asmcap_genome::ErrorProfile;

    #[test]
    fn paper_constants() {
        let p = HdacParams::paper();
        assert_eq!(p.alpha, 200.0);
        assert_eq!(p.beta, 0.5);
        assert_eq!(p.min_probability, 0.01);
    }

    #[test]
    fn probability_values_condition_a() {
        // Condition A: es=1%, eid=0.1% -> p(T) = 0.909 * e^-0.2 * e^-0.5T.
        let params = HdacParams::paper();
        let a = ErrorProfile::condition_a();
        let expected_t1 = 0.01 / 0.011 * (-0.2f64 - 0.5).exp();
        assert!((params.probability(&a, 1) - expected_t1).abs() < 1e-12);
        // Monotonically decreasing in T.
        for t in 1..8 {
            assert!(params.probability(&a, t + 1) < params.probability(&a, t));
        }
    }

    #[test]
    fn condition_b_is_disabled_everywhere() {
        // Condition B: es=0.1%, eid=1% -> the e^-α·eid = e^-2 factor and the
        // small substitution share push p below 1% for every threshold in
        // the paper's sweep (T = 2..16; at T=0, outside the sweep, p is a
        // hair above the cutoff).
        let params = HdacParams::paper();
        let b = ErrorProfile::condition_b();
        for t in 1..=16 {
            assert!(!params.enabled(&b, t), "HDAC unexpectedly enabled at T={t}");
        }
    }

    #[test]
    fn condition_a_enabled_at_small_t() {
        let params = HdacParams::paper();
        let a = ErrorProfile::condition_a();
        assert!(params.enabled(&a, 1));
        assert!(params.enabled(&a, 4));
        // p(8) = 0.744 * e^-4 = 0.0136 — still above the 1% cutoff.
        assert!(params.enabled(&a, 8));
        assert!(!params.enabled(&a, 12));
    }

    #[test]
    fn error_free_profile_yields_zero_probability() {
        let params = HdacParams::paper();
        assert_eq!(params.probability(&ErrorProfile::error_free(), 1), 0.0);
    }

    #[test]
    fn select_agreement_passes_through() {
        let hdac = Hdac::new(HdacParams::paper(), ErrorProfile::condition_a());
        let mut rng = crate::rng(1);
        assert!(hdac.select(true, true, 1, &mut rng));
        assert!(!hdac.select(false, false, 1, &mut rng));
    }

    #[test]
    fn select_disagreement_follows_probability() {
        let profile = ErrorProfile::condition_a();
        let hdac = Hdac::new(HdacParams::paper(), profile);
        let mut rng = crate::rng(2);
        let trials = 20_000usize;
        let t = 1usize;
        let hd_chosen = (0..trials)
            .filter(|_| hdac.select(true, false, t, &mut rng))
            .count();
        let empirical = hd_chosen as f64 / trials as f64;
        let expected = HdacParams::paper().probability(&profile, t);
        assert!(
            (empirical - expected).abs() < 0.01,
            "empirical {empirical} vs expected {expected}"
        );
    }
}
