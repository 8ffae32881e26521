//! Builders for the ASMCap and EDAM engines, and the per-read matching
//! configuration the mapping backends share.

use crate::engine::{AsmcapEngine, EdamEngine};
use crate::hdac::{Hdac, HdacParams};
use crate::tasr::{Tasr, TasrParams};
use asmcap_circuit::params::{AsmcapParams, EdamParams};
use asmcap_circuit::{ChargeDomainCam, CurrentDomainCam, SenseAmp, VrefPolicy};
use asmcap_genome::ErrorProfile;

/// Non-consuming builder for [`AsmcapEngine`].
///
/// Defaults to the paper's configuration: published circuit parameters,
/// HDAC and TASR with paper constants, centred `V_ref`, seed 0.
///
/// # Examples
///
/// ```
/// use asmcap::{AsmcapConfig, HdacParams};
/// use asmcap_genome::ErrorProfile;
///
/// let engine = AsmcapConfig::new(ErrorProfile::condition_a())
///     .hdac(Some(HdacParams { alpha: 100.0, ..HdacParams::paper() }))
///     .tasr(None)
///     .seed(7)
///     .build();
/// assert_eq!(asmcap::AsmMatcher::name(&engine), "ASMCap w/ HDAC");
/// ```
#[derive(Debug, Clone)]
pub struct AsmcapConfig {
    profile: ErrorProfile,
    hdac: Option<HdacParams>,
    tasr: Option<TasrParams>,
    vref: VrefPolicy,
    params: AsmcapParams,
    seed: u64,
}

impl AsmcapConfig {
    /// Starts from the paper's defaults for an expected error profile. The
    /// profile parameterises the strategies (HDAC's `p`, TASR's `T_l`); in
    /// deployment it comes from sequencer specifications or error profiling.
    #[must_use]
    pub fn new(profile: ErrorProfile) -> Self {
        Self {
            profile,
            hdac: Some(HdacParams::paper()),
            tasr: Some(TasrParams::paper()),
            vref: VrefPolicy::Centered,
            params: AsmcapParams::paper(),
            seed: 0,
        }
    }

    /// Enables/disables HDAC (with parameters).
    pub fn hdac(&mut self, hdac: Option<HdacParams>) -> &mut Self {
        self.hdac = hdac;
        self
    }

    /// Enables/disables TASR (with parameters).
    pub fn tasr(&mut self, tasr: Option<TasrParams>) -> &mut Self {
        self.tasr = tasr;
        self
    }

    /// Overrides the `V_ref` placement policy.
    pub fn vref(&mut self, vref: VrefPolicy) -> &mut Self {
        self.vref = vref;
        self
    }

    /// Overrides the circuit parameters (e.g. for variation sweeps).
    pub fn circuit_params(&mut self, params: AsmcapParams) -> &mut Self {
        self.params = params;
        self
    }

    /// Sets the sensing-noise RNG seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Builds the engine.
    #[must_use]
    pub fn build(&self) -> AsmcapEngine {
        let sense = SenseAmp::new(ChargeDomainCam::new(self.params.clone()), self.vref);
        let hdac = self.hdac.map(|p| Hdac::new(p, self.profile));
        let tasr = self.tasr.map(|p| Tasr::new(p, self.profile));
        AsmcapEngine::assemble(sense, hdac, tasr, self.seed)
    }
}

/// Non-consuming builder for [`EdamEngine`].
///
/// Defaults to the paper's EDAM baseline: published parameters, no sequence
/// rotation.
#[derive(Debug, Clone)]
pub struct EdamConfig {
    sr_rotations: Option<usize>,
    vref: VrefPolicy,
    params: EdamParams,
    seed: u64,
}

impl EdamConfig {
    /// Starts from the paper's EDAM baseline.
    #[must_use]
    pub fn new() -> Self {
        Self {
            sr_rotations: None,
            vref: VrefPolicy::Centered,
            params: EdamParams::paper(),
            seed: 0,
        }
    }

    /// Enables EDAM's plain (non-threshold-aware) sequence rotation.
    pub fn sequence_rotation(&mut self, rotations: Option<usize>) -> &mut Self {
        self.sr_rotations = rotations;
        self
    }

    /// Overrides the `V_ref` placement policy.
    pub fn vref(&mut self, vref: VrefPolicy) -> &mut Self {
        self.vref = vref;
        self
    }

    /// Overrides the circuit parameters.
    pub fn circuit_params(&mut self, params: EdamParams) -> &mut Self {
        self.params = params;
        self
    }

    /// Sets the sensing-noise RNG seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Builds the engine.
    #[must_use]
    pub fn build(&self) -> EdamEngine {
        let sense = SenseAmp::new(CurrentDomainCam::new(self.params.clone()), self.vref);
        let sr = self.sr_rotations.map(|n| {
            Tasr::new(
                TasrParams::plain_sr(n),
                ErrorProfile::error_free(), // plain SR ignores the profile
            )
        });
        EdamEngine::assemble(sense, sr, self.seed)
    }
}

impl Default for EdamConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// The per-read matching configuration every mapping backend shares:
/// the threshold and which correction strategies run.
#[derive(Debug, Clone)]
pub struct MapperConfig {
    /// Edit-distance threshold `T`.
    pub threshold: usize,
    /// Expected error profile (parameterises HDAC and TASR).
    pub profile: ErrorProfile,
    /// HDAC parameters, or `None` to disable.
    pub hdac: Option<HdacParams>,
    /// TASR parameters, or `None` to disable.
    pub tasr: Option<TasrParams>,
}

impl MapperConfig {
    /// The paper's full configuration at a given threshold.
    #[must_use]
    pub fn paper(threshold: usize, profile: ErrorProfile) -> Self {
        Self {
            threshold,
            profile,
            hdac: Some(HdacParams::paper()),
            tasr: Some(TasrParams::paper()),
        }
    }

    /// Plain ED\* matching at a given threshold (no strategies).
    #[must_use]
    pub fn plain(threshold: usize) -> Self {
        Self {
            threshold,
            profile: ErrorProfile::error_free(),
            hdac: None,
            tasr: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::AsmMatcher;

    #[test]
    fn defaults_build_the_paper_engine() {
        let engine = AsmcapConfig::new(ErrorProfile::condition_a()).build();
        assert_eq!(engine.name(), "ASMCap w/ H&T");
        assert!(engine.hdac_active(1));
        let edam = EdamConfig::new().build();
        assert_eq!(edam.name(), "EDAM");
    }

    #[test]
    fn builder_is_chainable_and_reusable() {
        let mut config = AsmcapConfig::new(ErrorProfile::condition_b());
        config.hdac(None).seed(3);
        let a = config.build();
        let b = config.build();
        assert_eq!(a.name(), b.name());
        assert_eq!(a.name(), "ASMCap w/ TASR");
    }

    #[test]
    fn edam_with_sr_is_labelled() {
        let mut config = EdamConfig::new();
        config.sequence_rotation(Some(2));
        assert_eq!(config.build().name(), "EDAM w/ SR");
    }
}
