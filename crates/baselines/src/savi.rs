//! SaVI (ICCAD 2020): the TCAM-based seed-and-vote baseline.
//!
//! The seed-and-vote strategy (Subread/Liao et al.) splits the read into
//! `k`-mers, looks each up in the reference by exact match, and lets every
//! hit vote for the alignment offset it implies; the read maps where the
//! votes pile up. SaVI executes the exact-match lookups on TCAMs.
//!
//! For the pair-decision task the vote rule is: a pair matches at threshold
//! `T` iff the largest group of offset-consistent votes (offsets within
//! `±T`, since each indel shifts downstream seeds by one) loses at most
//! `T` of the read's seeds — each edit can corrupt at most one
//! non-overlapping seed. This reproduces seed-and-vote's characteristic
//! accuracy loss (the paper quotes ~93.8 % on average) without any analog
//! modelling: the losses are algorithmic.

use asmcap::{AsmMatcher, MatchOutcome};
use asmcap_genome::kmer::{pack_kmer, packed_kmers, KmerIndex};
use asmcap_genome::{Base, PackedSeq, PackedWords};
use std::collections::HashMap;

/// The SaVI functional model.
///
/// # Examples
///
/// ```
/// use asmcap::AsmMatcher;
/// use asmcap_baselines::SaviAccelerator;
/// use asmcap_genome::GenomeModel;
///
/// let genome = GenomeModel::uniform().generate(300, 1);
/// let segment = genome.window(0..128);
/// let mut savi = SaviAccelerator::paper();
/// assert!(savi.matches(segment.as_slice(), segment.as_slice(), 0).matched);
/// let decoy = genome.window(150..278);
/// assert!(!savi.matches(decoy.as_slice(), segment.as_slice(), 4).matched);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct SaviAccelerator {
    seed_len: usize,
}

impl SaviAccelerator {
    /// The configuration used in the comparison: 16-base seeds.
    #[must_use]
    pub fn paper() -> Self {
        Self { seed_len: 16 }
    }

    /// Custom seed length.
    ///
    /// # Panics
    ///
    /// Panics if `seed_len` is zero or greater than 32 (seeds are packed
    /// k-mer codes).
    #[must_use]
    pub fn with_seed_len(seed_len: usize) -> Self {
        assert!(
            asmcap_genome::kmer::check_k(seed_len).is_ok(),
            "seed length must be in 1..=32"
        );
        Self { seed_len }
    }

    /// The configured seed length.
    #[must_use]
    pub fn seed_len(&self) -> usize {
        self.seed_len
    }

    /// Number of non-overlapping seeds a read of `len` bases contributes.
    #[must_use]
    pub fn seed_count(&self, len: usize) -> usize {
        len / self.seed_len
    }

    /// The vote profile of a pair: for every non-overlapping read seed that
    /// occurs exactly in the segment, the alignment offsets it votes for.
    /// Returns the vote count of the best `±tolerance` offset window.
    #[must_use]
    pub fn best_vote_count(&self, segment: &[Base], read: &[Base], tolerance: usize) -> usize {
        let k = self.seed_len;
        if read.len() < k || segment.len() < k {
            return 0;
        }
        let index = KmerIndex::build(segment, k).expect("seed length validated at construction");
        // One vote per (seed, supported offset); a repeated seed votes for
        // each hit (the TCAM reports all matching rows).
        let mut votes: HashMap<isize, usize> = HashMap::new();
        for seed_idx in 0..self.seed_count(read.len()) {
            let read_pos = seed_idx * k;
            let seed = pack_kmer(&read[read_pos..read_pos + k]);
            for segment_pos in index.positions_of_code(seed) {
                let offset = segment_pos as isize - read_pos as isize;
                *votes.entry(offset).or_insert(0) += 1;
            }
        }
        // Best window of offsets within ±tolerance.
        Self::best_window(&votes, tolerance)
    }

    /// [`SaviAccelerator::best_vote_count`] over 2-bit packed operands: the
    /// segment is indexed through the packed k-mer roller and the read's
    /// non-overlapping seeds are packed codes read straight out of the
    /// words — identical votes, no byte-per-base walk.
    #[must_use]
    pub fn best_vote_count_packed<S: PackedWords, R: PackedWords>(
        &self,
        segment: &S,
        read: &R,
        tolerance: usize,
    ) -> usize {
        let k = self.seed_len;
        if read.len() < k || segment.len() < k {
            return 0;
        }
        let index =
            KmerIndex::build_packed(segment, k).expect("seed length validated at construction");
        let mut votes: HashMap<isize, usize> = HashMap::new();
        // Non-overlapping seeds sit at read positions 0, k, 2k, …: keep
        // exactly those codes from the rolling packed scan.
        for (read_pos, seed) in packed_kmers(read, k).filter(|(pos, _)| pos % k == 0) {
            for segment_pos in index.positions_of_code(seed) {
                let offset = segment_pos as isize - read_pos as isize;
                *votes.entry(offset).or_insert(0) += 1;
            }
        }
        Self::best_window(&votes, tolerance)
    }

    /// Vote count of the best `±tolerance` offset window.
    fn best_window(votes: &HashMap<isize, usize>, tolerance: usize) -> usize {
        let mut best = 0usize;
        // lint: order-insensitive — max over every center; visiting order
        // cannot change which window wins.
        for &center in votes.keys() {
            let total: usize = votes // lint: order-insensitive — commutative sum
                .iter()
                .filter(|(&o, _)| (o - center).unsigned_abs() <= tolerance)
                .map(|(_, &c)| c)
                .sum();
            best = best.max(total);
        }
        best
    }
}

impl AsmMatcher for SaviAccelerator {
    fn matches(&mut self, segment: &[Base], read: &[Base], threshold: usize) -> MatchOutcome {
        let seeds = self.seed_count(read.len());
        let required = seeds.saturating_sub(threshold).max(1);
        let votes = self.best_vote_count(segment, read, threshold);
        MatchOutcome {
            matched: votes >= required,
            // One TCAM lookup cycle per seed plus one voting cycle.
            cycles: seeds as u32 + 1,
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
        let seeds = self.seed_count(read.len());
        let required = seeds.saturating_sub(threshold).max(1);
        let votes = self.best_vote_count_packed(segment, read, threshold);
        MatchOutcome {
            matched: votes >= required,
            cycles: seeds as u32 + 1,
            used_hd: false,
            rotations: 0,
        }
    }

    fn name(&self) -> &str {
        "SaVI"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asmcap_genome::{DnaSeq, ErrorProfile, GenomeModel, ReadSampler};

    #[test]
    fn identical_pair_gets_all_votes() {
        let savi = SaviAccelerator::paper();
        let s = GenomeModel::uniform().generate(256, 1);
        assert_eq!(savi.best_vote_count(s.as_slice(), s.as_slice(), 0), 16);
    }

    #[test]
    fn substitutions_corrupt_bounded_seeds() {
        let savi = SaviAccelerator::paper();
        let s = GenomeModel::uniform().generate(256, 2);
        let mut bases = s.clone().into_bases();
        bases[10] = bases[10].substituted(0); // seed 0
        bases[100] = bases[100].substituted(1); // seed 6
        let read = DnaSeq::from_bases(bases);
        let votes = savi.best_vote_count(s.as_slice(), read.as_slice(), 2);
        assert_eq!(votes, 14); // exactly two seeds lost
    }

    #[test]
    fn indel_shifts_split_votes_but_window_recovers() {
        let genome = GenomeModel::uniform().generate(400, 3);
        let segment = genome.window(0..256);
        // Read with one deletion at base 50: downstream seeds vote offset +1.
        let mut bases = segment.clone().into_bases();
        bases.remove(50);
        bases.push(genome.as_slice()[256]);
        let read = DnaSeq::from_bases(bases);
        let savi = SaviAccelerator::paper();
        let strict = savi.best_vote_count(segment.as_slice(), read.as_slice(), 0);
        let tolerant = savi.best_vote_count(segment.as_slice(), read.as_slice(), 1);
        assert!(tolerant > strict, "offset window should merge split votes");
        assert!(tolerant >= 14);
    }

    #[test]
    fn matcher_accepts_condition_a_reads_at_loose_threshold() {
        let genome = GenomeModel::uniform().generate(20_000, 4);
        let sampler = ReadSampler::new(256, ErrorProfile::condition_a());
        let mut savi = SaviAccelerator::paper();
        let reads = sampler.sample_many(&genome, 30, 5);
        let accepted = reads
            .iter()
            .filter(|r| {
                let segment = r.aligned_segment(&genome);
                savi.matches(segment.as_slice(), r.bases.as_slice(), 8)
                    .matched
            })
            .count();
        assert!(
            accepted >= 27,
            "SaVI accepted only {accepted}/30 true reads"
        );
    }

    #[test]
    fn matcher_rejects_decoys() {
        let mut savi = SaviAccelerator::paper();
        let a = GenomeModel::uniform().generate(256, 6);
        let b = GenomeModel::uniform().generate(256, 7);
        for t in [0usize, 4, 8, 16] {
            assert!(!savi.matches(a.as_slice(), b.as_slice(), t).matched);
        }
    }

    #[test]
    fn packed_matcher_agrees_with_slice_matcher() {
        let genome = GenomeModel::uniform().generate(20_000, 9);
        let sampler = ReadSampler::new(256, ErrorProfile::condition_a());
        let mut savi = SaviAccelerator::paper();
        for (i, read) in sampler.sample_many(&genome, 12, 10).into_iter().enumerate() {
            let segment = read.aligned_segment(&genome);
            let decoy = genome.window(5_000 + i * 300..5_256 + i * 300);
            for (seg, r) in [(&segment, &read.bases), (&decoy, &read.bases)] {
                for t in [0usize, 4, 8] {
                    let scalar = savi.matches(seg.as_slice(), r.as_slice(), t);
                    let packed = savi.matches_packed(
                        &asmcap_genome::PackedSeq::from_seq(seg),
                        &asmcap_genome::PackedSeq::from_seq(r),
                        t,
                    );
                    assert_eq!(scalar, packed, "pair {i} diverged at T={t}");
                }
            }
        }
    }

    #[test]
    fn cycle_model_counts_seed_lookups() {
        let mut savi = SaviAccelerator::paper();
        let s = GenomeModel::uniform().generate(256, 8);
        let outcome = savi.matches(s.as_slice(), s.as_slice(), 0);
        assert_eq!(outcome.cycles, 17); // 16 lookups + 1 vote
    }
}
