//! Synthetic reference genomes.
//!
//! The paper evaluates on reads extracted from the NCBI human genome. This
//! reproduction has no access to that data, so references are synthesised
//! instead (see `DESIGN.md` §2): the matching statistics that drive every
//! reported number depend on base composition and local base-to-base
//! correlation, both of which the models below control explicitly.

use crate::base::BASES;
use crate::seq::DnaSeq;
use rand::distributions::{Distribution, WeightedIndex};
use rand::Rng as _;

/// A generative model for reference genomes.
///
/// Construct one with [`GenomeModel::uniform`], [`GenomeModel::gc_biased`],
/// or [`GenomeModel::markov`], then call [`GenomeModel::generate`].
///
/// # Examples
///
/// ```
/// use asmcap_genome::GenomeModel;
///
/// let genome = GenomeModel::gc_biased(0.41).generate(50_000, 1); // human-like GC content
/// assert_eq!(genome.len(), 50_000);
/// let gc = genome.gc_content();
/// assert!((gc - 0.41).abs() < 0.05, "gc content {gc} too far from target");
/// ```
#[derive(Debug, Clone)]
pub struct GenomeModel {
    composition: Composition,
}

#[derive(Debug, Clone)]
enum Composition {
    /// Independent draws with the given per-base weights (A, C, G, T).
    Iid([f64; 4]),
    /// Order-1 Markov chain with a 4x4 transition matrix (rows sum to 1).
    Markov([[f64; 4]; 4]),
}

impl GenomeModel {
    /// A genome with independent, uniformly distributed bases.
    #[must_use]
    pub fn uniform() -> Self {
        Self {
            composition: Composition::Iid([0.25; 4]),
        }
    }

    /// A genome with independent bases at the given GC fraction.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < gc < 1.0`.
    #[must_use]
    pub fn gc_biased(gc: f64) -> Self {
        assert!(gc > 0.0 && gc < 1.0, "gc fraction must lie in (0, 1)");
        let at = (1.0 - gc) / 2.0;
        let gc_half = gc / 2.0;
        Self {
            composition: Composition::Iid([at, gc_half, gc_half, at]),
        }
    }

    /// A genome following an order-1 Markov chain over bases.
    ///
    /// `transition[i][j]` is the probability of base `j` following base `i`
    /// (indexed by [`crate::Base::code`]); each row must sum to
    /// approximately 1.
    ///
    /// # Panics
    ///
    /// Panics if a row's weights do not sum to within 1e-6 of 1, or if any
    /// weight is negative.
    #[must_use]
    pub fn markov(transition: [[f64; 4]; 4]) -> Self {
        for row in &transition {
            let sum: f64 = row.iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-6,
                "markov row must sum to 1, got {sum}"
            );
            assert!(
                row.iter().all(|&w| w >= 0.0),
                "weights must be non-negative"
            );
        }
        Self {
            composition: Composition::Markov(transition),
        }
    }

    /// A mildly auto-correlated Markov model that mimics the dinucleotide
    /// skew of mammalian genomes (CpG depletion, AT richness).
    #[must_use]
    pub fn human_like() -> Self {
        // Rows/cols in A, C, G, T order. CpG (C followed by G) is depleted.
        Self::markov([
            [0.33, 0.18, 0.26, 0.23],
            [0.31, 0.27, 0.06, 0.36],
            [0.27, 0.23, 0.26, 0.24],
            [0.22, 0.20, 0.27, 0.31],
        ])
    }

    /// Generates a genome of `len` bases from the model, deterministically
    /// for a given `seed`.
    #[must_use]
    pub fn generate(&self, len: usize, seed: u64) -> DnaSeq {
        let rng = &mut crate::rng(seed);
        match &self.composition {
            Composition::Iid(weights) => {
                let dist = WeightedIndex::new(weights).expect("validated weights");
                (0..len).map(|_| BASES[dist.sample(rng)]).collect()
            }
            Composition::Markov(transition) => {
                let mut out = DnaSeq::with_capacity(len);
                if len == 0 {
                    return out;
                }
                let rows: Vec<WeightedIndex<f64>> = transition
                    .iter()
                    .map(|row| WeightedIndex::new(row).expect("validated weights"))
                    .collect();
                let mut current = BASES[rng.gen_range(0..4)];
                out.push(current);
                for _ in 1..len {
                    current = BASES[rows[current.code() as usize].sample(rng)];
                    out.push(current);
                }
                out
            }
        }
    }
}

/// Generates a coronavirus-scale genome (SARS-CoV-2 is ~29.9 kb).
///
/// The paper's Fig. 8 configuration notes that 512 ASMCap arrays (64 Mb)
/// "can entirely store some small virus sequences (e.g., SARS-CoV-2)". This
/// helper produces a genome of that scale for the virus-screening example.
///
/// # Examples
///
/// ```
/// let virus = asmcap_genome::synth::sars_cov_2_like(3);
/// assert_eq!(virus.len(), 29_903);
/// ```
#[must_use]
pub fn sars_cov_2_like(seed: u64) -> DnaSeq {
    // SARS-CoV-2 reference NC_045512.2 length and approximate GC content.
    GenomeModel::gc_biased(0.38).generate(29_903, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::Base;

    #[test]
    fn uniform_generation_is_deterministic_per_seed() {
        let model = GenomeModel::uniform();
        assert_eq!(model.generate(1000, 1), model.generate(1000, 1));
        assert_ne!(model.generate(1000, 1), model.generate(1000, 2));
    }

    #[test]
    fn uniform_composition_is_balanced() {
        let genome = GenomeModel::uniform().generate(40_000, 11);
        for base in BASES {
            let count = genome.iter().filter(|&b| b == base).count();
            let frac = count as f64 / genome.len() as f64;
            assert!((frac - 0.25).abs() < 0.02, "fraction {frac} off balance");
        }
    }

    #[test]
    fn gc_bias_hits_target() {
        let genome = GenomeModel::gc_biased(0.6).generate(40_000, 5);
        assert!((genome.gc_content() - 0.6).abs() < 0.02);
    }

    #[test]
    #[should_panic(expected = "gc fraction")]
    fn gc_bias_rejects_degenerate_fraction() {
        let _ = GenomeModel::gc_biased(1.0);
    }

    #[test]
    fn markov_rows_must_sum_to_one() {
        let bad = [[0.5, 0.5, 0.5, 0.5]; 4];
        let result = std::panic::catch_unwind(|| GenomeModel::markov(bad));
        assert!(result.is_err());
    }

    #[test]
    fn human_like_depletes_cpg() {
        let genome = GenomeModel::human_like().generate(60_000, 9);
        let bases = genome.as_slice();
        let mut cg = 0usize;
        let mut c_total = 0usize;
        for pair in bases.windows(2) {
            if pair[0] == Base::C {
                c_total += 1;
                if pair[1] == Base::G {
                    cg += 1;
                }
            }
        }
        let cpg_rate = cg as f64 / c_total as f64;
        assert!(
            cpg_rate < 0.12,
            "expected CpG depletion, got rate {cpg_rate}"
        );
    }

    #[test]
    fn zero_length_genome_is_empty() {
        assert!(GenomeModel::uniform().generate(0, 1).is_empty());
        assert!(GenomeModel::human_like().generate(0, 1).is_empty());
    }

    #[test]
    fn sars_cov_2_like_scale_and_composition() {
        let virus = sars_cov_2_like(1);
        assert_eq!(virus.len(), 29_903);
        assert!((virus.gc_content() - 0.38).abs() < 0.02);
    }
}
