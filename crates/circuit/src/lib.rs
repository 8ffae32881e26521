//! Behavioural circuit models for the ASMCap reproduction.
//!
//! The paper's accuracy and efficiency claims rest on the difference between
//! two multi-level CAM sensing schemes (paper Fig. 3):
//!
//! * [`charge`] — ASMCap's **charge-domain** ML-CAM: every cell drives the
//!   bottom plate of a capacitor and the matchline settles at
//!   `V_ML = n_mis/N · V_DD`, time-independent and with variance given by
//!   the paper's Eq. 2;
//! * [`current`] — EDAM's **current-domain** ML-CAM: mismatched cells
//!   discharge a pre-charged matchline and `V_ML(t_s)` is sampled, which
//!   makes the result sensitive to device *and* timing variation.
//!
//! [`params`] collects every technology constant (65 nm, 1.2 V, Table I)
//! plus the small set of assumptions the paper leaves implicit, [`sense`]
//! models the sense amplifiers, [`energy`]/[`area`] the paper's Eq. 1 energy
//! and area/power breakdowns, and [`montecarlo`] runs seeded variation
//! experiments (reproducing §V-D: 44 distinguishable states for EDAM vs 566
//! for ASMCap).
//!
//! This is a behavioural substitute for the paper's Cadence Virtuoso
//! simulations; see `DESIGN.md` §2 for why it preserves every reported
//! quantity.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod charge;
pub mod corners;
pub mod current;
pub mod energy;
pub mod montecarlo;
pub mod noise;
pub mod params;
pub mod sense;

pub use charge::ChargeDomainCam;
pub use current::CurrentDomainCam;
pub use params::{AsmcapParams, EdamParams};
pub use sense::{SenseAmp, VrefPolicy};

/// Deterministic RNG used by all Monte-Carlo circuit models (ChaCha8; same
/// rationale as `asmcap_genome::Rng`).
pub type Rng = rand_chacha::ChaCha8Rng;

/// Creates the workspace-standard deterministic RNG from a `u64` seed.
pub fn rng(seed: u64) -> Rng {
    use rand::SeedableRng;
    Rng::seed_from_u64(seed)
}

/// A multi-level CAM sensing model: maps a mismatch count to a (noisy)
/// measured matchline value, expressed in *state units* — multiples of the
/// per-state separation `V_DD/N`.
///
/// Implemented by [`ChargeDomainCam`] (ASMCap) and [`CurrentDomainCam`]
/// (EDAM). The trait is object-safe so engines can hold `Box<dyn MlCam>`.
pub trait MlCam {
    /// Draws one noisy measurement of a row with `n_mis` mismatched cells
    /// out of `n`, in state units (the noiseless value is `n_mis` itself,
    /// up to any systematic gain error the model carries).
    fn measure(&self, n_mis: usize, n: usize, rng: &mut Rng) -> f64;

    /// Analytic mean of [`MlCam::measure`] in state units. `n_mis` at the
    /// nominal corner; models with a systematic gain error override this.
    fn mean_states(&self, n_mis: usize, n: usize) -> f64 {
        let _ = n;
        n_mis as f64
    }

    /// Analytic standard deviation of [`MlCam::measure`] in state units.
    fn sigma_states(&self, n_mis: usize, n: usize) -> f64;

    /// Whether one [`MlCam::measure`] is exactly
    /// `noise::normal(self.mean_states(..), self.sigma_states(..), rng)`:
    /// a single standard normal, so [`SenseAmp::certain`] can settle a
    /// decision far from `V_ref` without drawing. `false` (the default)
    /// makes every decision draw; [`CurrentDomainCam`] keeps it, since its
    /// product form draws two or three normals per measurement.
    fn is_single_normal(&self) -> bool {
        false
    }

    /// Search latency in seconds for one in-array search operation.
    fn search_time_s(&self) -> f64;

    /// Human-readable model name for reports.
    fn name(&self) -> &'static str;
}
