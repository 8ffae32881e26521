//! Read sampling from a reference genome.

use crate::errors::{EditLog, ErrorModel, ErrorProfile};
use crate::seq::DnaSeq;
use crate::Rng;
use rand::Rng as _;

/// A read sampled from a reference, together with its provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampledRead {
    /// The (possibly erroneous) read bases.
    pub bases: DnaSeq,
    /// Start position of the read's origin in the reference.
    pub origin: usize,
    /// The alignment script relating the read to the reference.
    pub edits: EditLog,
}

impl SampledRead {
    /// The reference segment of the same length as the read, aligned at the
    /// read's origin — the row an ASMCap array would store for this
    /// position.
    ///
    /// # Panics
    ///
    /// Panics if the reference is shorter than `origin + read length`.
    #[must_use]
    pub fn aligned_segment(&self, reference: &DnaSeq) -> DnaSeq {
        reference.window(self.origin..self.origin + self.bases.len())
    }
}

/// Samples fixed-length reads from random reference positions, injecting
/// errors according to an [`ErrorProfile`].
///
/// This reproduces the paper's dataset construction (§V-A): "The reads are
/// set to 256-base length … and extracted from random positions in human DNA
/// sequences. Then, edits are randomly injected."
///
/// # Examples
///
/// ```
/// use asmcap_genome::{GenomeModel, ErrorProfile, ReadSampler};
/// let genome = GenomeModel::uniform().generate(10_000, 1);
/// let sampler = ReadSampler::new(256, ErrorProfile::condition_b());
/// let reads = sampler.sample_many(&genome, 10, 99);
/// assert_eq!(reads.len(), 10);
/// assert!(reads.iter().all(|r| r.bases.len() == 256));
/// ```
#[derive(Debug, Clone)]
pub struct ReadSampler {
    read_len: usize,
    model: ErrorModel,
    headroom: usize,
}

impl ReadSampler {
    /// Creates a sampler for `read_len`-base reads with i.i.d. errors.
    ///
    /// # Panics
    ///
    /// Panics if `read_len` is zero.
    #[must_use]
    pub fn new(read_len: usize, profile: ErrorProfile) -> Self {
        Self::with_model(read_len, ErrorModel::Iid(profile))
    }

    /// Creates a sampler with an explicit [`ErrorModel`] (e.g. bursty
    /// indels).
    ///
    /// # Panics
    ///
    /// Panics if `read_len` is zero.
    #[must_use]
    pub fn with_model(read_len: usize, model: ErrorModel) -> Self {
        assert!(read_len > 0, "read length must be positive");
        // Headroom past `origin + read_len` absorbs deletions: the expected
        // number is e_d * read_len; 8 sigma (inflated by burst clustering)
        // plus a constant is effectively always enough and is checked by an
        // assertion in the injector.
        let burst = match model {
            ErrorModel::Iid(_) => 1.0,
            ErrorModel::Bursty { mean_burst_len, .. } => mean_burst_len,
        };
        let expected_del = model.profile().deletion * read_len as f64;
        let headroom = (expected_del + 8.0 * (expected_del * burst).sqrt()).ceil() as usize
            + 16
            + burst as usize;
        Self {
            read_len,
            model,
            headroom,
        }
    }

    /// The configured read length.
    #[must_use]
    pub fn read_len(&self) -> usize {
        self.read_len
    }

    /// The configured error profile.
    #[must_use]
    pub fn profile(&self) -> &ErrorProfile {
        self.model.profile()
    }

    /// The configured error model.
    #[must_use]
    pub fn model(&self) -> &ErrorModel {
        &self.model
    }

    /// Largest valid origin for the given reference length, or `None` if the
    /// reference is too short to sample from at all.
    #[must_use]
    pub fn max_origin(&self, reference_len: usize) -> Option<usize> {
        reference_len.checked_sub(self.read_len + self.headroom)
    }

    /// Samples one read from a random origin.
    ///
    /// # Panics
    ///
    /// Panics if the reference is shorter than read length plus headroom.
    #[must_use]
    pub fn sample(&self, reference: &DnaSeq, seed: u64) -> SampledRead {
        let mut rng = crate::rng(seed);
        self.sample_with(reference, &mut rng)
    }

    /// Samples one read using the caller's RNG.
    ///
    /// # Panics
    ///
    /// Panics if the reference is shorter than read length plus headroom.
    #[must_use]
    pub fn sample_with(&self, reference: &DnaSeq, rng: &mut Rng) -> SampledRead {
        let max_origin = self.max_origin(reference.len()).unwrap_or_else(|| {
            // lint: panic-ok — the documented `# Panics` contract above
            panic!(
                "reference of {} bases is too short for {}-base reads (+{} headroom)",
                reference.len(),
                self.read_len,
                self.headroom
            )
        });
        let origin = rng.gen_range(0..=max_origin);
        self.sample_at(reference, origin, rng)
    }

    /// Samples one read anchored at a specific origin.
    ///
    /// # Panics
    ///
    /// Panics if `origin` exceeds [`ReadSampler::max_origin`].
    #[must_use]
    pub fn sample_at(&self, reference: &DnaSeq, origin: usize, rng: &mut Rng) -> SampledRead {
        let (bases, edits) = self
            .model
            .inject(reference.as_slice(), origin, self.read_len, rng);
        SampledRead {
            bases,
            origin,
            edits,
        }
    }

    /// Samples `count` reads deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the reference is shorter than read length plus headroom.
    #[must_use]
    pub fn sample_many(&self, reference: &DnaSeq, count: usize, seed: u64) -> Vec<SampledRead> {
        let mut rng = crate::rng(seed);
        (0..count)
            .map(|_| self.sample_with(reference, &mut rng))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::GenomeModel;

    #[test]
    fn sampled_reads_have_requested_length() {
        let genome = GenomeModel::uniform().generate(5_000, 1);
        let sampler = ReadSampler::new(128, ErrorProfile::condition_a());
        for read in sampler.sample_many(&genome, 20, 7) {
            assert_eq!(read.bases.len(), 128);
            assert!(read.origin <= sampler.max_origin(genome.len()).unwrap());
        }
    }

    #[test]
    fn error_free_read_equals_aligned_segment() {
        let genome = GenomeModel::uniform().generate(5_000, 2);
        let sampler = ReadSampler::new(256, ErrorProfile::error_free());
        let read = sampler.sample(&genome, 3);
        assert_eq!(read.bases, read.aligned_segment(&genome));
        assert_eq!(read.edits.total(), 0);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let genome = GenomeModel::uniform().generate(5_000, 4);
        let sampler = ReadSampler::new(256, ErrorProfile::condition_b());
        assert_eq!(
            sampler.sample_many(&genome, 5, 10),
            sampler.sample_many(&genome, 5, 10)
        );
    }

    #[test]
    fn edit_log_is_consistent_with_reference() {
        let genome = GenomeModel::human_like().generate(8_000, 5);
        let sampler = ReadSampler::new(256, ErrorProfile::condition_b());
        for read in sampler.sample_many(&genome, 30, 11) {
            let span = read.edits.reference_span();
            let window = &genome.as_slice()[read.origin..read.origin + span];
            assert_eq!(read.edits.apply(window), read.bases);
        }
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn short_reference_panics() {
        let genome = GenomeModel::uniform().generate(100, 1);
        let sampler = ReadSampler::new(256, ErrorProfile::condition_a());
        let _ = sampler.sample(&genome, 1);
    }

    #[test]
    fn max_origin_accounts_for_headroom() {
        let sampler = ReadSampler::new(256, ErrorProfile::condition_a());
        assert!(sampler.max_origin(200).is_none());
        let genome_len = 1000;
        let max = sampler.max_origin(genome_len).unwrap();
        assert!(max < genome_len - 256);
    }
}
