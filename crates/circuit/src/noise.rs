//! Gaussian sampling for the variation models.
//!
//! `rand` 0.8 ships only uniform-family distributions; the normal draws the
//! variation models need are generated here with the Box–Muller transform,
//! avoiding an extra dependency for one function.
//!
//! Two facts about [`standard_normal`] make a sense decision skippable
//! without changing any output:
//!
//! * it always consumes exactly [`STANDARD_NORMAL_WORDS`] stream words
//!   (two `next_u64`), whatever it returns;
//! * its `u1` is at least `f64::EPSILON` = 2⁻⁵², so every draw satisfies
//!   `|z| ≤ √(−2 ln 2⁻⁵²) ≈ 8.4904`, inside [`STANDARD_NORMAL_BOUND`].
//!
//! So a decision `mean + σ·z + offset ≤ boundary` that comes out the same
//! at `z = ±STANDARD_NORMAL_BOUND` comes out the same for every draw, and
//! [`skip_standard_normals`] moves the stream to where drawing would have
//! left it (see [`crate::SenseAmp::certain`]).

use crate::Rng;
use rand::Rng as _;

/// Stream words one [`standard_normal`] draw consumes (two `next_u64`).
pub const STANDARD_NORMAL_WORDS: u64 = 4;

/// A bound on `|z|` for every [`standard_normal`] draw: the largest
/// possible value is `√(−2 ln f64::EPSILON)` ≈ 8.4904, and the gap up to
/// 8.5 absorbs the rounding of `ln`, `sqrt` and `cos`.
pub const STANDARD_NORMAL_BOUND: f64 = 8.5;

/// Draws one standard-normal sample (`N(0, 1)`).
///
/// # Examples
///
/// ```
/// let mut rng = asmcap_circuit::rng(1);
/// let x = asmcap_circuit::noise::standard_normal(&mut rng);
/// assert!(x.is_finite());
/// ```
#[must_use]
pub fn standard_normal(rng: &mut Rng) -> f64 {
    // Box–Muller; u1 bounded away from 0 so ln() is finite.
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen();
    box_muller(u1, u2)
}

fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Moves `rng` past `count` [`standard_normal`] draws without computing
/// them: the stream ends where drawing them would have left it.
pub fn skip_standard_normals(rng: &mut Rng, count: u64) {
    rng.set_word_pos(rng.get_word_pos() + u128::from(count * STANDARD_NORMAL_WORDS));
}

/// Draws one `N(mean, sigma²)` sample.
///
/// # Panics
///
/// Panics if `sigma` is negative.
#[must_use]
pub fn normal(mean: f64, sigma: f64, rng: &mut Rng) -> f64 {
    assert!(sigma >= 0.0, "sigma must be non-negative");
    mean + sigma * standard_normal(rng)
}

/// Draws one uniform sample in `[0, 1)` — the Bernoulli primitive the
/// fault-injection models use for per-cell and per-sense event draws.
#[must_use]
pub fn uniform(rng: &mut Rng) -> f64 {
    rng.gen()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;

    #[test]
    fn moments_are_plausible() {
        let mut rng = rng(11);
        let n = 50_000usize;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "variance {var}");
    }

    #[test]
    fn tail_mass_is_gaussian() {
        let mut rng = rng(13);
        let n = 100_000usize;
        let beyond_2sigma = (0..n)
            .filter(|_| standard_normal(&mut rng).abs() > 2.0)
            .count();
        let rate = beyond_2sigma as f64 / n as f64;
        // True mass beyond 2 sigma is ~4.55%.
        assert!((rate - 0.0455).abs() < 0.005, "2-sigma tail rate {rate}");
    }

    #[test]
    fn normal_scales_and_shifts() {
        let mut rng = rng(17);
        let samples: Vec<f64> = (0..20_000).map(|_| normal(5.0, 2.0, &mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - 5.0).abs() < 0.05);
        assert_eq!(normal(3.0, 0.0, &mut rng), 3.0);
    }

    #[test]
    fn a_draw_consumes_exactly_the_exported_word_count() {
        let mut rng = rng(23);
        for _ in 0..1_000 {
            let before = rng.get_word_pos();
            let _ = standard_normal(&mut rng);
            assert_eq!(
                rng.get_word_pos() - before,
                u128::from(STANDARD_NORMAL_WORDS)
            );
        }
    }

    #[test]
    fn the_largest_possible_draw_is_within_the_exported_bound() {
        // u1 = EPSILON is the smallest value gen_range can return, and
        // u2 = 0 makes the cosine exactly 1: the extreme of |z|.
        let extreme = box_muller(f64::EPSILON, 0.0);
        assert!((extreme - 8.4904).abs() < 1e-4, "extreme draw {extreme}");
        assert!(extreme.abs() <= STANDARD_NORMAL_BOUND);
        assert!(box_muller(f64::EPSILON, 0.5).abs() <= STANDARD_NORMAL_BOUND);
    }

    #[test]
    fn skipping_equals_drawing() {
        let mut drawn = rng(29);
        let mut skipped = rng(29);
        for count in 0..20u64 {
            for _ in 0..count {
                let _ = standard_normal(&mut drawn);
            }
            skip_standard_normals(&mut skipped, count);
            assert_eq!(standard_normal(&mut skipped), standard_normal(&mut drawn));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(standard_normal(&mut rng(19)), standard_normal(&mut rng(19)));
    }
}
