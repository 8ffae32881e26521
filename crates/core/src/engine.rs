//! The per-pair accelerator engines: ASMCap and the EDAM baseline.
//!
//! An engine decides (read, segment, T) matches exactly as the hardware
//! would — ED\* matching semantics, analog sensing noise from the circuit
//! models, and the HDAC/TASR correction strategies — but without
//! materialising a full array, which makes it the right tool for the Fig. 7
//! accuracy sweeps (hundreds of thousands of pair decisions). The
//! array-level path with identical semantics is [`crate::DeviceBackend`].

use crate::hdac::Hdac;
use crate::matcher::{AsmMatcher, MatchOutcome};
use crate::tasr::Tasr;
use crate::Rng;
use asmcap_circuit::{ChargeDomainCam, CurrentDomainCam, SenseAmp};
use asmcap_genome::{Base, ErrorProfile, PackedSeq, PackedWords};
use asmcap_metrics::{ed_star_hamming_packed, ed_star_packed};

/// The ASMCap engine: charge-domain sensing plus the HDAC and TASR
/// misjudgment-correction strategies.
///
/// # Examples
///
/// ```
/// use asmcap::{AsmcapEngine, AsmMatcher};
/// use asmcap_genome::{DnaSeq, ErrorProfile};
///
/// let mut engine = AsmcapEngine::paper(ErrorProfile::condition_a(), 1);
/// let segment: DnaSeq = "ACGTACGTACGTACGT".parse()?;
/// let outcome = engine.matches(segment.as_slice(), segment.as_slice(), 0);
/// assert!(outcome.matched);
/// # Ok::<(), asmcap_genome::base::ParseBaseError>(())
/// ```
#[derive(Debug)]
pub struct AsmcapEngine {
    sense: SenseAmp<ChargeDomainCam>,
    hdac: Option<Hdac>,
    tasr: Option<Tasr>,
    rng: Rng,
    label: String,
}

impl AsmcapEngine {
    /// The paper's full configuration: published circuit parameters, HDAC
    /// and TASR with paper constants, centred `V_ref`.
    #[must_use]
    pub fn paper(profile: ErrorProfile, seed: u64) -> Self {
        crate::config::AsmcapConfig::new(profile).seed(seed).build()
    }

    pub(crate) fn assemble(
        sense: SenseAmp<ChargeDomainCam>,
        hdac: Option<Hdac>,
        tasr: Option<Tasr>,
        seed: u64,
    ) -> Self {
        let label = match (&hdac, &tasr) {
            (Some(_), Some(_)) => "ASMCap w/ H&T",
            (Some(_), None) => "ASMCap w/ HDAC",
            (None, Some(_)) => "ASMCap w/ TASR",
            (None, None) => "ASMCap w/o H&T",
        }
        .to_owned();
        Self {
            sense,
            hdac,
            tasr,
            rng: crate::rng(seed),
            label,
        }
    }

    /// The sense amplifier (and through it the charge-domain model).
    #[must_use]
    pub fn sense(&self) -> &SenseAmp<ChargeDomainCam> {
        &self.sense
    }

    /// One (segment, read, T) decision over packed operands — the
    /// word-parallel fast path [`crate::PairBackend`] loops over segment
    /// views with. Identical semantics, noise model, and RNG draw order to
    /// [`AsmMatcher::matches`]; the scalar entry point delegates here, so
    /// there is exactly one decision procedure.
    ///
    /// # Panics
    ///
    /// Panics if `segment` and `read` lengths differ.
    pub fn matches_packed<S: PackedWords>(
        &mut self,
        segment: &S,
        read: &PackedSeq,
        threshold: usize,
    ) -> MatchOutcome {
        assert_eq!(
            segment.len(),
            read.len(),
            "segment and read must be equally long"
        );
        let n = read.len();

        // When HDAC is armed both mismatch counts are needed, so the fused
        // kernel computes them in one pass over the words; otherwise only
        // the ED* count is evaluated.
        let hdac_armed = self.hdac.is_some_and(|h| h.active(threshold));

        // Cycle 1: the ED* search.
        let (n_mis, hd) = if hdac_armed {
            ed_star_hamming_packed(segment, read)
        } else {
            (ed_star_packed(segment, read), 0)
        };
        let o_star = self.sense.decide(n_mis, n, threshold, &mut self.rng);
        let mut cycles = 1u32;
        let mut decision = o_star;
        let mut used_hd = false;

        // HDAC (Algorithm 1): one extra HD-mode search when armed.
        if let Some(hdac) = self.hdac {
            if hdac_armed {
                let o_hd = self.sense.decide(hd, n, threshold, &mut self.rng);
                cycles += 1;
                used_hd = true;
                decision = hdac.select(o_hd, o_star, threshold, &mut self.rng);
            }
        }

        // TASR (Algorithm 2): rotated searches when armed; each costs a
        // cycle; early exit on the first rotated match.
        let mut rotations = 0u32;
        if let Some(tasr) = self.tasr {
            let sense = &self.sense;
            let rng = &mut self.rng;
            let (matched, issued) = tasr.run_packed(decision, read, threshold, |rotated| {
                sense.decide(ed_star_packed(segment, rotated), n, threshold, rng)
            });
            decision = matched;
            rotations = issued;
            cycles += issued;
        }

        MatchOutcome {
            matched: decision,
            cycles,
            used_hd,
            rotations,
        }
    }
}

impl AsmMatcher for AsmcapEngine {
    fn matches(&mut self, segment: &[Base], read: &[Base], threshold: usize) -> MatchOutcome {
        self.matches_packed(
            &PackedSeq::from_bases(segment),
            &PackedSeq::from_bases(read),
            threshold,
        )
    }

    fn matches_packed(
        &mut self,
        segment: &PackedSeq,
        read: &PackedSeq,
        threshold: usize,
    ) -> MatchOutcome {
        AsmcapEngine::matches_packed(self, segment, read, threshold)
    }

    fn name(&self) -> &str {
        &self.label
    }
}

/// The EDAM baseline engine: identical ED\* matching semantics but
/// current-domain sensing, with no sequence rotation (the paper's Fig. 7
/// baseline).
#[derive(Debug)]
pub struct EdamEngine {
    sense: SenseAmp<CurrentDomainCam>,
    rng: Rng,
}

impl EdamEngine {
    /// The paper's EDAM baseline: published parameters, no rotation.
    #[must_use]
    pub fn paper(seed: u64) -> Self {
        crate::config::EdamConfig::new().seed(seed).build()
    }

    pub(crate) fn assemble(sense: SenseAmp<CurrentDomainCam>, seed: u64) -> Self {
        Self {
            sense,
            rng: crate::rng(seed),
        }
    }

    /// The sense amplifier (and through it the current-domain model).
    #[must_use]
    pub fn sense(&self) -> &SenseAmp<CurrentDomainCam> {
        &self.sense
    }

    /// One (segment, read, T) decision over packed operands — the
    /// word-parallel fast path the evaluation sweeps call via
    /// [`AsmMatcher::matches_packed`]. Identical semantics, noise model,
    /// and RNG draw order to [`AsmMatcher::matches`]; the scalar entry
    /// point delegates here, so there is exactly one decision procedure
    /// (the same single-procedure rule [`AsmcapEngine`] follows).
    ///
    /// # Panics
    ///
    /// Panics if `segment` and `read` lengths differ.
    pub fn matches_packed<S: PackedWords>(
        &mut self,
        segment: &S,
        read: &PackedSeq,
        threshold: usize,
    ) -> MatchOutcome {
        assert_eq!(
            segment.len(),
            read.len(),
            "segment and read must be equally long"
        );
        let n = read.len();
        let n_mis = ed_star_packed(segment, read);
        MatchOutcome {
            matched: self.sense.decide(n_mis, n, threshold, &mut self.rng),
            cycles: 1,
            used_hd: false,
            rotations: 0,
        }
    }
}

impl AsmMatcher for EdamEngine {
    fn matches(&mut self, segment: &[Base], read: &[Base], threshold: usize) -> MatchOutcome {
        self.matches_packed(
            &PackedSeq::from_bases(segment),
            &PackedSeq::from_bases(read),
            threshold,
        )
    }

    fn matches_packed(
        &mut self,
        segment: &PackedSeq,
        read: &PackedSeq,
        threshold: usize,
    ) -> MatchOutcome {
        EdamEngine::matches_packed(self, segment, read, threshold)
    }

    fn name(&self) -> &str {
        "EDAM"
    }
}

/// Convenience for building all three Fig. 7 series at once:
/// `(EDAM, ASMCap w/o strategies, ASMCap w/ strategies)`.
#[must_use]
pub fn fig7_engines(profile: ErrorProfile, seed: u64) -> (EdamEngine, AsmcapEngine, AsmcapEngine) {
    let edam = EdamEngine::paper(seed);
    let without = crate::config::AsmcapConfig::new(profile)
        .hdac(None)
        .tasr(None)
        .seed(seed.wrapping_add(1))
        .build();
    let with = crate::config::AsmcapConfig::new(profile)
        .seed(seed.wrapping_add(2))
        .build();
    (edam, without, with)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asmcap_genome::{DnaSeq, GenomeModel, ReadSampler};

    fn seq(s: &str) -> DnaSeq {
        s.parse().expect("valid test sequence")
    }

    #[test]
    fn identical_pair_always_matches() {
        let mut engine = AsmcapEngine::paper(ErrorProfile::condition_a(), 3);
        let s = GenomeModel::uniform().generate(256, 1);
        for t in 0..8 {
            assert!(engine.matches(s.as_slice(), s.as_slice(), t).matched);
        }
    }

    #[test]
    fn random_pair_never_matches_at_small_t() {
        let mut engine = AsmcapEngine::paper(ErrorProfile::condition_a(), 4);
        let a = GenomeModel::uniform().generate(256, 2);
        let b = GenomeModel::uniform().generate(256, 3);
        for t in 0..8 {
            assert!(!engine.matches(a.as_slice(), b.as_slice(), t).matched);
        }
    }

    #[test]
    fn cycle_accounting_reflects_strategies() {
        let profile = ErrorProfile::condition_a();
        let mut engine = AsmcapEngine::paper(profile, 5);
        let s = GenomeModel::uniform().generate(256, 4);
        // Condition A, T=1: HDAC armed (+1 cycle), TASR gated off (T_l=52).
        let outcome = engine.matches(s.as_slice(), s.as_slice(), 1);
        assert_eq!(outcome.cycles, 2);
        assert!(outcome.used_hd);
        assert_eq!(outcome.rotations, 0);

        // Condition B, matching pair: TASR armed but base matched -> no
        // rotations; HDAC disabled -> 1 cycle total.
        let profile_b = ErrorProfile::condition_b();
        let mut engine_b = AsmcapEngine::paper(profile_b, 6);
        let outcome = engine_b.matches(s.as_slice(), s.as_slice(), 8);
        assert_eq!(outcome.cycles, 1);
        assert!(!outcome.used_hd);
    }

    #[test]
    fn tasr_rotations_cost_cycles_on_mismatch() {
        // Condition B, T >= T_l = 6, decoy pair: base misses, both rotations
        // issued and miss -> 3 cycles.
        let mut engine = AsmcapEngine::paper(ErrorProfile::condition_b(), 7);
        let a = GenomeModel::uniform().generate(256, 5);
        let b = GenomeModel::uniform().generate(256, 6);
        let outcome = engine.matches(a.as_slice(), b.as_slice(), 8);
        assert!(!outcome.matched);
        assert_eq!(outcome.rotations, 2);
        assert_eq!(outcome.cycles, 3);
    }

    #[test]
    fn hdac_corrects_substitution_false_positives() {
        // A deterministic Fig. 5 scenario: 5 substitutions, no indels, T=2.
        // ED* hides enough substitutions to fake a match; HD sees all 5.
        let profile = ErrorProfile::condition_a();
        let segment = seq("CCCCAAATTTGCTTAA");
        let read = seq("CGCCATATTGTCATAA"); // Fig. 5's read
        let t = 2usize;
        let ed = asmcap_metrics::edit_distance(segment.as_slice(), read.as_slice());
        assert!(ed > t, "ground truth must be negative, ED={ed}");
        // Run many trials: with HDAC the false-positive rate must drop well
        // below the no-strategy engine's rate.
        let mut with = AsmcapEngine::paper(profile, 8);
        let mut without = crate::config::AsmcapConfig::new(profile)
            .hdac(None)
            .tasr(None)
            .seed(9)
            .build();
        let trials = 2000;
        let fp_with = (0..trials)
            .filter(|_| with.matches(segment.as_slice(), read.as_slice(), t).matched)
            .count();
        let fp_without = (0..trials)
            .filter(|_| {
                without
                    .matches(segment.as_slice(), read.as_slice(), t)
                    .matched
            })
            .count();
        assert!(
            (fp_with as f64) < 0.8 * fp_without as f64,
            "HDAC did not reduce FPs: {fp_with} vs {fp_without}"
        );
    }

    #[test]
    fn tasr_recovers_consecutive_deletion_false_negatives() {
        // Condition B scenario: two consecutive deletions blow up ED*.
        let profile = ErrorProfile::condition_b();
        let genome = GenomeModel::uniform().generate(1000, 7);
        let segment = genome.window(100..356);
        let mut read_bases = segment.clone().into_bases();
        read_bases.drain(40..42);
        read_bases.extend_from_slice(&genome.as_slice()[356..358]);
        let read = DnaSeq::from_bases(read_bases);
        let t = 8usize;
        let ed = asmcap_metrics::edit::anchored_semi_global(
            read.as_slice(),
            genome.window(100..360).as_slice(),
        );
        assert!(ed <= t, "ground truth should be positive, ED={ed}");

        let mut with = AsmcapEngine::paper(profile, 10);
        let mut without = crate::config::AsmcapConfig::new(profile)
            .hdac(None)
            .tasr(None)
            .seed(11)
            .build();
        assert!(with.matches(segment.as_slice(), read.as_slice(), t).matched);
        assert!(
            !without
                .matches(segment.as_slice(), read.as_slice(), t)
                .matched
        );
    }

    #[test]
    fn edam_engine_matches_clean_pairs() {
        let mut edam = EdamEngine::paper(12);
        let s = GenomeModel::uniform().generate(256, 8);
        assert!(edam.matches(s.as_slice(), s.as_slice(), 4).matched);
        let decoy = GenomeModel::uniform().generate(256, 9);
        assert!(!edam.matches(s.as_slice(), decoy.as_slice(), 4).matched);
    }

    #[test]
    fn edam_sensing_is_noisier_near_threshold() {
        // A pair sitting 2 states above threshold: EDAM should false-match
        // noticeably more often than ASMCap w/o strategies.
        let genome = GenomeModel::uniform().generate(2000, 10);
        let sampler = ReadSampler::new(256, ErrorProfile::error_free());
        let mut rng = asmcap_genome::rng(1);
        let read = sampler.sample_at(&genome, 100, &mut rng);
        let segment = read.aligned_segment(&genome);
        // Fabricate n_mis = T + 2 by substituting bases far apart (each
        // substitution adds at most 1 to ED*; verify).
        let mut bases = read.bases.clone().into_bases();
        let mut changed = 0;
        let mut i = 3;
        while changed < 10 && i < bases.len() {
            let original = bases[i];
            bases[i] = original.substituted(0);
            if asmcap_metrics::ed_star(segment.as_slice(), &bases) > changed {
                changed += 1;
            } else {
                bases[i] = original;
            }
            i += 7;
        }
        let noisy_read = DnaSeq::from_bases(bases);
        let star = asmcap_metrics::ed_star(segment.as_slice(), noisy_read.as_slice());
        let t = star.saturating_sub(2);
        let mut edam = EdamEngine::paper(13);
        let mut asmcap = crate::config::AsmcapConfig::new(ErrorProfile::error_free())
            .hdac(None)
            .tasr(None)
            .seed(14)
            .build();
        let trials = 3000;
        let edam_fp = (0..trials)
            .filter(|_| {
                edam.matches(segment.as_slice(), noisy_read.as_slice(), t)
                    .matched
            })
            .count();
        let asmcap_fp = (0..trials)
            .filter(|_| {
                asmcap
                    .matches(segment.as_slice(), noisy_read.as_slice(), t)
                    .matched
            })
            .count();
        assert!(
            edam_fp > asmcap_fp + trials / 50,
            "EDAM {edam_fp} vs ASMCap {asmcap_fp} false positives"
        );
    }

    #[test]
    fn noiseless_engine_equals_pure_edstar_decision() {
        // Ideal sensing: no capacitor mismatch, no SA offset.
        let mut params = asmcap_circuit::params::AsmcapParams::paper();
        params.cap_sigma_rel = 0.0;
        params.sa_offset_states = 0.0;
        let mut engine = crate::config::AsmcapConfig::new(ErrorProfile::error_free())
            .circuit_params(params)
            .seed(15)
            .build();
        let genome = GenomeModel::uniform().generate(600, 11);
        let a = genome.window(0..256);
        let b = genome.window(300..556);
        for t in [0usize, 4, 16, 64, 200] {
            let star = asmcap_metrics::ed_star(a.as_slice(), b.as_slice());
            assert_eq!(
                engine.matches(a.as_slice(), b.as_slice(), t).matched,
                star <= t
            );
        }
    }

    #[test]
    fn fig7_engine_labels() {
        let (edam, without, with) = fig7_engines(ErrorProfile::condition_a(), 0);
        assert_eq!(edam.name(), "EDAM");
        assert_eq!(without.name(), "ASMCap w/o H&T");
        assert_eq!(with.name(), "ASMCap w/ H&T");
    }
}
