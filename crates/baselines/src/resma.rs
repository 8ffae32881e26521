//! ReSMA (DAC 2022): RRAM-based comparison-matrix acceleration.
//!
//! ReSMA couples two ReRAM structures: CAMs that *filter* candidate
//! (read, segment) pairs by exact substring match, and crossbars that
//! compute the comparison matrix along anti-diagonal wavefronts for the
//! survivors. This module re-implements both stages functionally:
//!
//! * the filter passes a pair iff the read and segment share at least one
//!   exact `k`-mer at an alignment offset compatible with the threshold
//!   (|offset difference| ≤ T);
//! * the wavefront stage evaluates the DP matrix anti-diagonal by
//!   anti-diagonal — the exact computation a crossbar performs in
//!   `2m − 1` steps — restricted to the Ukkonen band.
//!
//! The per-step latency/energy model for Fig. 8 lives in [`crate::perf`].

use asmcap::{AsmMatcher, MatchOutcome};
use asmcap_genome::kmer::{kmers, packed_kmers, KmerIndex};
use asmcap_genome::{Base, PackedSeq, PackedWords};

/// The ReSMA functional model.
///
/// # Examples
///
/// ```
/// use asmcap::AsmMatcher;
/// use asmcap_baselines::ResmaAccelerator;
/// use asmcap_genome::GenomeModel;
///
/// let genome = GenomeModel::uniform().generate(300, 1);
/// let segment = genome.window(0..128);
/// let mut resma = ResmaAccelerator::paper();
/// let outcome = resma.matches(segment.as_slice(), segment.as_slice(), 0);
/// assert!(outcome.matched);
/// // Filter hit + full wavefront over the 2·128 non-trivial anti-diagonals.
/// assert_eq!(outcome.cycles, 1 + 2 * 128);
/// ```
#[derive(Debug, Clone)]
pub struct ResmaAccelerator {
    filter_k: usize,
}

impl ResmaAccelerator {
    /// The configuration used in the comparison: 16-base filter CAM words.
    #[must_use]
    pub fn paper() -> Self {
        Self { filter_k: 16 }
    }

    /// Custom filter `k`-mer length.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or greater than 32 (the filter compares
    /// packed k-mer codes).
    #[must_use]
    pub fn with_filter_k(filter_k: usize) -> Self {
        assert!(
            asmcap_genome::kmer::check_k(filter_k).is_ok(),
            "filter k-mer length must be in 1..=32"
        );
        Self { filter_k }
    }

    /// The CAM filter: do read and segment share an exact `k`-mer whose
    /// alignment offsets differ by at most `threshold`?
    #[must_use]
    pub fn filter_passes(&self, segment: &[Base], read: &[Base], threshold: usize) -> bool {
        let k = self.filter_k;
        if read.len() < k || segment.len() < k {
            // Degenerate rows: fall through to the exact stage.
            return true;
        }
        let index = KmerIndex::build(segment, k).expect("filter k validated at construction");
        kmers(read, k).any(|(read_pos, code)| {
            index
                .positions_of_code(code)
                .any(|p| p.abs_diff(read_pos) <= threshold)
        })
    }

    /// [`ResmaAccelerator::filter_passes`] over 2-bit packed operands: the
    /// CAM words are rolled straight out of the packed words on both sides,
    /// so the filter — which rejects the overwhelming majority of decoy
    /// pairs — never unpacks anything.
    #[must_use]
    pub fn filter_passes_packed<S: PackedWords, R: PackedWords>(
        &self,
        segment: &S,
        read: &R,
        threshold: usize,
    ) -> bool {
        let k = self.filter_k;
        if read.len() < k || segment.len() < k {
            // Degenerate rows: fall through to the exact stage.
            return true;
        }
        let index =
            KmerIndex::build_packed(segment, k).expect("filter k validated at construction");
        packed_kmers(read, k).any(|(read_pos, code)| {
            index
                .positions_of_code(code)
                .any(|p| p.abs_diff(read_pos) <= threshold)
        })
    }

    /// The crossbar wavefront: evaluates the banded comparison matrix
    /// anti-diagonal by anti-diagonal, returning `(distance ≤ threshold,
    /// wavefront steps executed)`.
    ///
    /// Each anti-diagonal `d` holds the cells `M[i][j]` with `i + j = d`;
    /// all of them depend only on diagonals `d−1` and `d−2`, which is the
    /// parallelism the RRAM crossbar exploits. Early exit fires when every
    /// in-band cell of a diagonal exceeds the threshold.
    #[must_use]
    pub fn wavefront_within(
        &self,
        segment: &[Base],
        read: &[Base],
        threshold: usize,
    ) -> (bool, u32) {
        let m = read.len();
        let n = segment.len();
        if m.abs_diff(n) > threshold {
            return (false, 0);
        }
        const INF: usize = usize::MAX / 2;
        // rows i: read, cols j: segment; M[i][0] = i, M[0][j] = j.
        let mut prev2: Vec<usize> = Vec::new(); // diagonal d-2, indexed by i
        let mut prev1: Vec<usize> = vec![0]; // diagonal d = 0: M[0][0] = 0
        let mut prev_best = 0usize; // best in-band value of diagonal d-1
        let mut steps = 0u32;
        if m == 0 || n == 0 {
            let d = m.max(n);
            return (d <= threshold, 0);
        }
        for d in 1..=(m + n) {
            steps += 1;
            let i_lo = d.saturating_sub(n);
            let i_hi = d.min(m);
            let mut current = vec![INF; i_hi - i_lo + 1];
            let mut best = INF;
            for (idx, i) in (i_lo..=i_hi).enumerate() {
                let j = d - i;
                if i.abs_diff(j) > threshold {
                    continue;
                }
                let mut value = INF;
                if i == 0 {
                    value = j;
                } else if j == 0 {
                    value = i;
                } else {
                    // Deletion: M[i-1][j] on diagonal d-1 at row i-1.
                    let d1_lo = (d - 1).saturating_sub(n);
                    if let Some(&v) = prev1.get((i - 1).wrapping_sub(d1_lo)) {
                        value = value.min(v.saturating_add(1));
                    }
                    // Insertion: M[i][j-1] on diagonal d-1 at row i.
                    if let Some(&v) = prev1.get(i.wrapping_sub(d1_lo)) {
                        value = value.min(v.saturating_add(1));
                    }
                    // Substitution/match: M[i-1][j-1] on diagonal d-2.
                    let d2_lo = (d - 2).saturating_sub(n);
                    if let Some(&v) = prev2.get((i - 1).wrapping_sub(d2_lo)) {
                        let cost = usize::from(read[i - 1] != segment[j - 1]);
                        value = value.min(v.saturating_add(cost));
                    }
                }
                current[idx] = value;
                best = best.min(value);
            }
            if d == m + n {
                let final_value = current[0]; // only cell: i = m, j = n
                return (final_value <= threshold, steps);
            }
            // Sound early exit: diagonal d+1 depends only on d and d−1, so
            // once both hold no in-band cell at or below the threshold, no
            // later cell can either. (A single diagonal is not enough: with
            // a tight band, odd diagonals can be legitimately empty.)
            if best > threshold && prev_best > threshold {
                return (false, steps);
            }
            prev_best = best;
            prev2 = prev1;
            prev1 = current;
        }
        unreachable!("loop returns at d = m + n");
    }
}

impl AsmMatcher for ResmaAccelerator {
    fn matches(&mut self, segment: &[Base], read: &[Base], threshold: usize) -> MatchOutcome {
        // Stage 1: one CAM filter cycle.
        let mut cycles = 1u32;
        if !self.filter_passes(segment, read, threshold) {
            return MatchOutcome {
                matched: false,
                cycles,
                used_hd: false,
                rotations: 0,
            };
        }
        // Stage 2: crossbar wavefront.
        let (matched, steps) = self.wavefront_within(segment, read, threshold);
        cycles += steps;
        MatchOutcome {
            matched,
            cycles,
            used_hd: false,
            rotations: 0,
        }
    }

    fn matches_packed(
        &mut self,
        segment: &PackedSeq,
        read: &PackedSeq,
        threshold: usize,
    ) -> MatchOutcome {
        // Stage 1 runs fully packed; only filter survivors (true pairs and
        // near-misses, a small minority of a decoy-heavy sweep) pay the
        // unpack for the base-indexed wavefront DP.
        let mut cycles = 1u32;
        if !self.filter_passes_packed(segment, read, threshold) {
            return MatchOutcome {
                matched: false,
                cycles,
                used_hd: false,
                rotations: 0,
            };
        }
        let (matched, steps) = self.wavefront_within(
            segment.to_seq().as_slice(),
            read.to_seq().as_slice(),
            threshold,
        );
        cycles += steps;
        MatchOutcome {
            matched,
            cycles,
            used_hd: false,
            rotations: 0,
        }
    }

    fn name(&self) -> &str {
        "ReSMA"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asmcap_genome::{DnaSeq, GenomeModel};
    use asmcap_metrics::edit_distance;
    use proptest::prelude::*;

    #[test]
    fn wavefront_agrees_with_edit_distance() {
        let genome = GenomeModel::uniform().generate(600, 2);
        let resma = ResmaAccelerator::paper();
        let a = genome.window(0..100);
        for (start, t) in [(0usize, 0usize), (5, 3), (200, 8), (300, 16)] {
            let b = genome.window(start..start + 100);
            let ed = edit_distance(b.as_slice(), a.as_slice());
            let (within, _) = resma.wavefront_within(a.as_slice(), b.as_slice(), t);
            assert_eq!(within, ed <= t, "start={start} t={t} ed={ed}");
        }
    }

    #[test]
    fn filter_passes_identical_and_blocks_random() {
        let resma = ResmaAccelerator::paper();
        let a = GenomeModel::uniform().generate(128, 3);
        let b = GenomeModel::uniform().generate(128, 4);
        assert!(resma.filter_passes(a.as_slice(), a.as_slice(), 0));
        assert!(!resma.filter_passes(a.as_slice(), b.as_slice(), 8));
    }

    #[test]
    fn filter_tolerates_scattered_edits() {
        // A read with a couple of substitutions still shares error-free
        // 16-mers with its segment.
        let genome = GenomeModel::uniform().generate(400, 5);
        let segment = genome.window(0..128);
        let mut bases = segment.clone().into_bases();
        bases[20] = bases[20].substituted(0);
        bases[90] = bases[90].substituted(1);
        let read = DnaSeq::from_bases(bases);
        assert!(ResmaAccelerator::paper().filter_passes(segment.as_slice(), read.as_slice(), 2));
    }

    #[test]
    fn early_exit_reduces_wavefront_steps() {
        let resma = ResmaAccelerator::paper();
        let a = GenomeModel::uniform().generate(128, 6);
        let b = GenomeModel::uniform().generate(128, 7);
        let (matched, steps) = resma.wavefront_within(a.as_slice(), b.as_slice(), 2);
        assert!(!matched);
        assert!(steps < 50, "expected early exit, took {steps} steps");
        let (matched, steps) = resma.wavefront_within(a.as_slice(), a.as_slice(), 2);
        assert!(matched);
        assert_eq!(steps, 256); // all 2m non-trivial anti-diagonals
    }

    #[test]
    fn matcher_is_exact_when_filter_passes() {
        let genome = GenomeModel::uniform().generate(400, 8);
        let segment = genome.window(50..178);
        let mut bases = segment.clone().into_bases();
        bases.remove(60);
        bases.push(asmcap_genome::Base::A);
        let read = DnaSeq::from_bases(bases);
        let ed = edit_distance(segment.as_slice(), read.as_slice());
        let mut resma = ResmaAccelerator::paper();
        assert!(
            resma
                .matches(segment.as_slice(), read.as_slice(), ed)
                .matched
        );
        assert!(
            !resma
                .matches(segment.as_slice(), read.as_slice(), ed - 1)
                .matched
        );
    }

    #[test]
    fn packed_matcher_agrees_with_slice_matcher() {
        let genome = GenomeModel::uniform().generate(2_000, 11);
        let mut resma = ResmaAccelerator::paper();
        let segment = genome.window(100..356);
        let mut bases = segment.clone().into_bases();
        bases.remove(30);
        bases.push(asmcap_genome::Base::C);
        bases[200] = bases[200].substituted(1);
        let near = DnaSeq::from_bases(bases);
        let decoy = GenomeModel::uniform().generate(256, 12);
        for read in [&segment, &near, &decoy] {
            for t in [0usize, 2, 8] {
                let scalar = resma.matches(segment.as_slice(), read.as_slice(), t);
                let packed = resma.matches_packed(
                    &asmcap_genome::PackedSeq::from_seq(&segment),
                    &asmcap_genome::PackedSeq::from_seq(read),
                    t,
                );
                assert_eq!(scalar, packed, "T={t}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_wavefront_matches_dp(
            seed in 0u64..1000,
            edits in 0usize..6,
            t in 0usize..8
        ) {
            let genome = GenomeModel::uniform().generate(200, seed);
            let a = genome.window(0..80);
            let mut bases = a.clone().into_bases();
            let mut rng_state = seed;
            for _ in 0..edits {
                rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let pos = (rng_state >> 33) as usize % bases.len();
                bases[pos] = bases[pos].substituted((rng_state >> 7) as u8);
            }
            let b = DnaSeq::from_bases(bases);
            let ed = edit_distance(a.as_slice(), b.as_slice());
            let (within, _) = ResmaAccelerator::paper().wavefront_within(a.as_slice(), b.as_slice(), t);
            prop_assert_eq!(within, ed <= t);
        }
    }
}
