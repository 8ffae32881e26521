//! k-mer extraction and indexing.
//!
//! Several systems in the reproduction are built on exact k-mer lookup: the
//! SaVI seed-and-vote baseline, ReSMA's CAM pre-filter, the Kraken2-style
//! classifier, and the long-read fragment voter. They share this index.
//!
//! k-mers are packed into a `u64` (2 bits/base, `k ≤ 32`). [`KmerIndex`]
//! keeps every `(code, position)` pair in one flat array sorted by code, so
//! a lookup is one directory probe plus a binary search inside a bucket of
//! about one entry — no hashing, no per-code allocation.

use crate::base::Base;
use crate::packed::{PackedWords, BASES_PER_WORD};
use std::fmt;

/// A 2-bit-packed k-mer code. Only meaningful together with its length.
pub type KmerCode = u64;

/// A k-mer length outside the supported `1..=32` range (codes are packed
/// into a `u64` at 2 bits per base, so 32 is the hard ceiling).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KmerError {
    /// The rejected k-mer length.
    pub k: usize,
}

impl fmt::Display for KmerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "k-mer length {} is unsupported (k must be in 1..=32)",
            self.k
        )
    }
}

impl std::error::Error for KmerError {}

/// Validates a k-mer length.
///
/// # Errors
///
/// Returns [`KmerError`] unless `k` is in `1..=32`.
pub fn check_k(k: usize) -> Result<(), KmerError> {
    if (1..=32).contains(&k) {
        Ok(())
    } else {
        Err(KmerError { k })
    }
}

/// Packs `bases` (length ≤ 32) into a [`KmerCode`].
///
/// # Panics
///
/// Panics if `bases` is longer than 32.
#[must_use]
pub fn pack_kmer(bases: &[Base]) -> KmerCode {
    assert!(bases.len() <= 32, "k-mers are limited to 32 bases");
    bases
        .iter()
        .fold(0u64, |acc, &b| (acc << 2) | u64::from(b.code()))
}

/// Iterates the packed codes of every overlapping k-mer of `seq`, paired
/// with its start position.
///
/// Rolling implementation: each step shifts in one base, so the whole scan
/// is `O(len)` regardless of `k`.
///
/// # Panics
///
/// Panics if `k` is zero or greater than 32.
pub fn kmers(seq: &[Base], k: usize) -> impl Iterator<Item = (usize, KmerCode)> + '_ {
    assert!(k > 0 && k <= 32, "k must be in 1..=32");
    let mask: u64 = if k == 32 {
        u64::MAX
    } else {
        (1u64 << (2 * k)) - 1
    };
    let mut code: u64 = 0;
    let mut filled = 0usize;
    seq.iter().enumerate().filter_map(move |(i, &b)| {
        code = ((code << 2) | u64::from(b.code())) & mask;
        filled += 1;
        if filled >= k {
            Some((i + 1 - k, code))
        } else {
            None
        }
    })
}

/// [`kmers`] over a 2-bit packed sequence: the same rolling scan, but each
/// base lane is read straight out of the packed words (one word fetch per
/// 32 bases) — no byte-per-base unpacking anywhere.
///
/// Yields exactly what `kmers(seq.to_packed().to_seq().as_slice(), k)`
/// would, pinned by property tests in `tests/properties.rs`.
///
/// # Panics
///
/// Panics if `k` is zero or greater than 32 (use [`check_k`] to validate
/// first when the length is untrusted).
pub fn packed_kmers<S: PackedWords + ?Sized>(
    seq: &S,
    k: usize,
) -> impl Iterator<Item = (usize, KmerCode)> + '_ {
    assert!(check_k(k).is_ok(), "k must be in 1..=32");
    let mask: u64 = if k == 32 {
        u64::MAX
    } else {
        (1u64 << (2 * k)) - 1
    };
    let mut code: u64 = 0;
    let mut word: u64 = 0;
    (0..seq.len()).filter_map(move |i| {
        let lane = i % BASES_PER_WORD;
        if lane == 0 {
            word = seq.word(i / BASES_PER_WORD);
        }
        code = ((code << 2) | ((word >> (2 * lane)) & 0b11)) & mask;
        if i + 1 >= k {
            Some((i + 1 - k, code))
        } else {
            None
        }
    })
}

/// An exact-match k-mer index over one sequence.
///
/// One flat array of k-mer codes sorted ascending (ties in position
/// order) with a parallel array of start positions, fronted by a radix
/// directory over the codes' top bits. The directory has about one slot
/// per indexed k-mer — never `4^k` — so a short segment indexed at
/// `k = 32` stays as small as its k-mer count.
///
/// # Examples
///
/// ```
/// use asmcap_genome::{kmer::KmerIndex, DnaSeq};
/// let reference: DnaSeq = "ACGTACGTAC".parse()?;
/// let index = KmerIndex::build(reference.as_slice(), 4)?;
/// let query: DnaSeq = "GTAC".parse()?;
/// assert_eq!(index.positions_of(query.as_slice()), &[2, 6]);
/// assert!(index.contains(query.as_slice()));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct KmerIndex {
    k: usize,
    /// Every indexed k-mer's code, ascending.
    codes: Vec<KmerCode>,
    /// The start position of `codes[i]`, ascending within one code.
    positions: Vec<usize>,
    /// `directory[b]..directory[b + 1]` is the run of `codes` whose top
    /// bits (`code >> shift`) equal `b`.
    directory: Vec<usize>,
    shift: u32,
    distinct: usize,
}

impl KmerIndex {
    /// Indexes every overlapping k-mer of `seq`.
    ///
    /// # Errors
    ///
    /// Returns [`KmerError`] if `k` is zero or greater than 32 (it used to
    /// panic; the pipeline's prefilter takes `k` from user configuration,
    /// so the failure must be reportable).
    pub fn build(seq: &[Base], k: usize) -> Result<Self, KmerError> {
        check_k(k)?;
        Ok(Self::from_scan(k, || kmers(seq, k)))
    }

    /// [`KmerIndex::build`] over a 2-bit packed sequence, extracting every
    /// k-mer through [`packed_kmers`] — the zero-unpack path the mapping
    /// prefilter uses to index a [`crate::PackedRef`].
    ///
    /// # Errors
    ///
    /// Returns [`KmerError`] if `k` is zero or greater than 32.
    pub fn build_packed<S: PackedWords + ?Sized>(seq: &S, k: usize) -> Result<Self, KmerError> {
        check_k(k)?;
        Ok(Self::from_scan(k, || packed_kmers(seq, k)))
    }

    /// Builds the index from a rolling k-mer scan, run twice: once to
    /// count each directory bucket, once to scatter the pairs into place
    /// (a counting sort on the top code bits). The scan yields positions
    /// ascending, so each bucket is already in position order; a bucket
    /// holding several codes is then sorted by `(code, position)`.
    fn from_scan<I: Iterator<Item = (usize, KmerCode)>>(k: usize, scan: impl Fn() -> I) -> Self {
        let n = scan().count();
        let code_bits = 2 * k as u32;
        let bits = n.checked_ilog2().unwrap_or(0).min(code_bits);
        let shift = code_bits - bits;
        let mut directory = vec![0usize; (1usize << bits) + 1];
        for (_, code) in scan() {
            directory[bucket(code, shift) + 1] += 1;
        }
        for b in 1..directory.len() {
            directory[b] += directory[b - 1];
        }
        let mut cursor = directory.clone();
        let mut codes = vec![0; n];
        let mut positions = vec![0; n];
        for (pos, code) in scan() {
            let slot = &mut cursor[bucket(code, shift)];
            codes[*slot] = code;
            positions[*slot] = pos;
            *slot += 1;
        }
        let mut run: Vec<(KmerCode, usize)> = Vec::new();
        for b in 1..directory.len() {
            let (lo, hi) = (directory[b - 1], directory[b]);
            if codes[lo..hi].is_sorted() {
                continue;
            }
            run.clear();
            run.extend(
                codes[lo..hi]
                    .iter()
                    .copied()
                    .zip(positions[lo..hi].iter().copied()),
            );
            run.sort_unstable();
            for (i, &(code, pos)) in run.iter().enumerate() {
                codes[lo + i] = code;
                positions[lo + i] = pos;
            }
        }
        let distinct = codes.chunk_by(|a, b| a == b).count();
        Self {
            k,
            codes,
            positions,
            directory,
            shift,
            distinct,
        }
    }

    /// The indexed k-mer length.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of k-mers indexed (with multiplicity).
    #[must_use]
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the index is empty (sequence shorter than `k`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Number of *distinct* k-mers.
    #[must_use]
    pub fn distinct(&self) -> usize {
        self.distinct
    }

    /// All start positions of an exact k-mer, ascending, empty if absent.
    ///
    /// # Panics
    ///
    /// Panics if `kmer.len() != k`.
    #[must_use]
    pub fn positions_of(&self, kmer: &[Base]) -> &[usize] {
        assert_eq!(kmer.len(), self.k, "query length must equal the indexed k");
        self.positions_of_code(pack_kmer(kmer))
    }

    /// All start positions of a packed k-mer code, ascending (empty if
    /// absent, including for codes wider than `2k` bits).
    #[must_use]
    pub fn positions_of_code(&self, code: KmerCode) -> &[usize] {
        let b = bucket(code, self.shift);
        let (Some(&lo), Some(&hi)) = (
            self.directory.get(b),
            self.directory.get(b.saturating_add(1)),
        ) else {
            return &[];
        };
        let run = &self.codes[lo..hi];
        let start = lo + run.partition_point(|&c| c < code);
        let end = lo + run.partition_point(|&c| c <= code);
        &self.positions[start..end]
    }

    /// Whether the exact k-mer occurs at least once.
    ///
    /// # Panics
    ///
    /// Panics if `kmer.len() != k`.
    #[must_use]
    pub fn contains(&self, kmer: &[Base]) -> bool {
        !self.positions_of(kmer).is_empty()
    }

    /// Slots in the radix directory (one more than its bucket count).
    #[cfg(test)]
    fn directory_len(&self) -> usize {
        self.directory.len()
    }
}

/// The directory bucket of `code`: its bits above `shift` (bucket 0 when
/// the shift spans the whole word, i.e. a one-bucket directory at `k = 32`).
fn bucket(code: KmerCode, shift: u32) -> usize {
    usize::try_from(code.checked_shr(shift).unwrap_or(0)).unwrap_or(usize::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::DnaSeq;
    use crate::synth::GenomeModel;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn seq(s: &str) -> DnaSeq {
        s.parse().expect("valid test sequence")
    }

    #[test]
    fn pack_is_injective_for_fixed_k() {
        let a = pack_kmer(seq("ACGT").as_slice());
        let b = pack_kmer(seq("ACGA").as_slice());
        let c = pack_kmer(seq("ACGT").as_slice());
        assert_ne!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn kmers_yield_all_windows() {
        let s = seq("ACGTA");
        let collected: Vec<(usize, KmerCode)> = kmers(s.as_slice(), 3).collect();
        assert_eq!(collected.len(), 3);
        assert_eq!(collected[0], (0, pack_kmer(seq("ACG").as_slice())));
        assert_eq!(collected[2], (2, pack_kmer(seq("GTA").as_slice())));
    }

    #[test]
    fn kmers_shorter_than_k_yield_nothing() {
        let s = seq("AC");
        assert_eq!(kmers(s.as_slice(), 3).count(), 0);
        let index = KmerIndex::build(s.as_slice(), 3).unwrap();
        assert!(index.is_empty());
    }

    #[test]
    fn index_reports_positions_in_order() {
        let s = seq("ACGTACGTAC");
        let index = KmerIndex::build(s.as_slice(), 4).unwrap();
        assert_eq!(index.positions_of(seq("ACGT").as_slice()), &[0, 4]);
        assert_eq!(index.positions_of(seq("GTAC").as_slice()), &[2, 6]);
        assert!(!index.contains(seq("TTTT").as_slice()));
        assert_eq!(index.len(), 7);
    }

    #[test]
    fn k32_boundary_works() {
        let genome = GenomeModel::uniform().generate(100, 1);
        let index = KmerIndex::build(genome.as_slice(), 32).unwrap();
        let window = &genome.as_slice()[10..42];
        assert!(index.positions_of(window).contains(&10));
        // The packed builder agrees at the boundary too.
        let packed = crate::PackedSeq::from_seq(&genome);
        let via_packed = KmerIndex::build_packed(&packed, 32).unwrap();
        assert!(via_packed.positions_of(window).contains(&10));
        assert_eq!(via_packed.len(), index.len());
    }

    #[test]
    fn bad_k_is_a_typed_error_not_a_panic() {
        let genome = GenomeModel::uniform().generate(100, 2);
        for k in [0usize, 33, 64] {
            assert_eq!(
                KmerIndex::build(genome.as_slice(), k).unwrap_err(),
                KmerError { k }
            );
            let packed = crate::PackedSeq::from_seq(&genome);
            assert_eq!(
                KmerIndex::build_packed(&packed, k).unwrap_err(),
                KmerError { k }
            );
        }
        assert!(KmerError { k: 33 }.to_string().contains("1..=32"));
        assert!(check_k(32).is_ok());
        assert!(check_k(1).is_ok());
    }

    /// A hash-map index: the reference for [`KmerIndex`] lookups.
    fn hashmap_oracle(seq: &[Base], k: usize) -> HashMap<KmerCode, Vec<usize>> {
        let mut by_code: HashMap<KmerCode, Vec<usize>> = HashMap::new();
        for (pos, code) in kmers(seq, k) {
            by_code.entry(code).or_default().push(pos);
        }
        by_code
    }

    /// Every lookup the oracle can answer, plus absent codes, agrees.
    fn assert_matches_oracle(seq: &[Base], k: usize) {
        let index = KmerIndex::build(seq, k).unwrap();
        let oracle = hashmap_oracle(seq, k);
        assert_eq!(index.len(), (seq.len() + 1).saturating_sub(k), "k={k}");
        assert_eq!(index.distinct(), oracle.len(), "k={k}");
        assert_eq!(index.is_empty(), oracle.is_empty());
        for (&code, positions) in &oracle {
            assert_eq!(index.positions_of_code(code), positions.as_slice(), "k={k}");
        }
        // Absent codes: neighbours of present ones, and codes wider than 2k.
        for probe in [0, 1, 2, 3, 0x5555, u64::MAX, u64::MAX - 1, 1 << 40] {
            let expected = oracle.get(&probe).map_or(&[][..], Vec::as_slice);
            assert_eq!(
                index.positions_of_code(probe),
                expected,
                "k={k} probe={probe:#x}"
            );
        }
        for &code in oracle.keys() {
            for probe in [code.wrapping_add(1), code.wrapping_sub(1)] {
                let expected = oracle.get(&probe).map_or(&[][..], Vec::as_slice);
                assert_eq!(index.positions_of_code(probe), expected);
            }
        }
        let packed = crate::PackedSeq::from_seq(&seq.iter().copied().collect::<DnaSeq>());
        let via_packed = KmerIndex::build_packed(&packed, k).unwrap();
        assert_eq!(via_packed.codes, index.codes);
        assert_eq!(via_packed.positions, index.positions);
    }

    #[test]
    fn flat_index_matches_the_hashmap_oracle() {
        let random = GenomeModel::uniform().generate(3_000, 11);
        let homopolymer = seq(&"A".repeat(300));
        let dinucleotide = seq(&"CA".repeat(200));
        let repeats = GenomeModel::uniform()
            .generate(64, 12)
            .as_slice()
            .repeat(20);
        for k in [1usize, 4, 12, 31, 32] {
            assert_matches_oracle(random.as_slice(), k);
            assert_matches_oracle(homopolymer.as_slice(), k);
            assert_matches_oracle(dinucleotide.as_slice(), k);
            assert_matches_oracle(&repeats, k);
            assert_matches_oracle(&[], k);
            assert_matches_oracle(&random.as_slice()[..k], k);
        }
    }

    #[test]
    fn empty_input_indexes_nothing_and_finds_nothing() {
        for k in [1usize, 12, 32] {
            let index = KmerIndex::build(&[], k).unwrap();
            assert!(index.is_empty());
            assert_eq!((index.len(), index.distinct()), (0, 0));
            assert!(index.positions_of_code(0).is_empty());
            assert!(index.positions_of_code(u64::MAX).is_empty());
            assert_eq!(index.directory_len(), 2);
        }
    }

    #[test]
    fn directory_is_sized_by_kmer_count_not_k() {
        // A 128-base segment at k = 32 — the SaVI/ReSMA per-pair shape —
        // must not allocate a directory anywhere near 4^k (or 2^20) slots.
        let segment = GenomeModel::uniform().generate(128, 13);
        for k in [1usize, 8, 12, 20, 32] {
            let index = KmerIndex::build(segment.as_slice(), k).unwrap();
            assert!(
                index.directory_len() <= index.len() + 1,
                "k={k}: {} directory slots for {} k-mers",
                index.directory_len(),
                index.len()
            );
        }
        // k = 1 caps the directory at 4 buckets however long the input.
        let long = GenomeModel::uniform().generate(10_000, 14);
        assert_eq!(
            KmerIndex::build(long.as_slice(), 1)
                .unwrap()
                .directory_len(),
            5
        );
        let index = KmerIndex::build(long.as_slice(), 16).unwrap();
        assert!(index.directory_len() <= index.len() + 1);
        assert!(index.directory_len() > index.len() / 2);
    }

    #[test]
    fn positions_come_back_ascending() {
        let s = seq(&"ACGT".repeat(50));
        let index = KmerIndex::build(s.as_slice(), 4).unwrap();
        assert_eq!(index.distinct(), 4);
        let hits = index.positions_of(seq("GTAC").as_slice());
        assert_eq!(hits, (2..197).step_by(4).collect::<Vec<_>>());
    }

    proptest! {
        #[test]
        fn prop_flat_index_matches_hashmap_oracle(
            codes in proptest::collection::vec(0u8..4, 0..300),
            k in 1usize..=32
        ) {
            let s: DnaSeq = codes.into_iter().map(Base::from_code).collect();
            assert_matches_oracle(s.as_slice(), k);
        }

        #[test]
        fn prop_rolling_matches_naive_pack(
            codes in proptest::collection::vec(0u8..4, 1..80),
            k in 1usize..=16
        ) {
            let s: DnaSeq = codes.into_iter().map(Base::from_code).collect();
            if s.len() >= k {
                let rolled: Vec<(usize, KmerCode)> = kmers(s.as_slice(), k).collect();
                for (pos, code) in &rolled {
                    prop_assert_eq!(*code, pack_kmer(&s.as_slice()[*pos..*pos + k]));
                }
                prop_assert_eq!(rolled.len(), s.len() - k + 1);
            }
        }

        #[test]
        fn prop_every_indexed_kmer_is_found(
            codes in proptest::collection::vec(0u8..4, 8..60),
            k in 2usize..=8
        ) {
            let s: DnaSeq = codes.into_iter().map(Base::from_code).collect();
            let index = KmerIndex::build(s.as_slice(), k).unwrap();
            for start in 0..=(s.len() - k) {
                let window = &s.as_slice()[start..start + k];
                prop_assert!(index.positions_of(window).contains(&start));
            }
        }
    }
}
