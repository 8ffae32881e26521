//! k-mer extraction and indexing.
//!
//! Several systems in the reproduction are built on exact k-mer lookup: the
//! mapping prefilter, the SaVI seed-and-vote baseline, ReSMA's CAM
//! pre-filter, and the Kraken2-style classifier. They share this index.
//!
//! k-mers are packed into a `u64` (2 bits/base, `k ≤ 32`). [`KmerIndex`]
//! is one radix directory of `u32` offsets over one flat array of 8-byte
//! entries sorted ascending, so a lookup costs two memory accesses — a
//! directory slot, then a bucket of about one entry — with no hashing and
//! no per-code allocation.
//!
//! # Entry layout
//!
//! For `n` indexed k-mers, positions take `pos_bits = ⌈log2 n⌉` bits. The
//! top `b` bits of a `2k`-bit code pick a directory bucket, with
//!
//! ```text
//! b = min(2k, max(⌊log2 n⌋, 2k + pos_bits − 64))
//! ```
//!
//! and each entry stores the rest of the code above the position:
//! `entry = code_suffix << pos_bits | position`, where `code_suffix` is the
//! code's low `2k − b` bits. The bucket plus the suffix give back the whole
//! code, so the index is exact. The sizing rule keeps both fields in 64
//! bits for every `k` in `1..=32`: `b ≥ 2k + pos_bits − 64` means
//! `(2k − b) + pos_bits ≤ 64`, and `b ≤ 2k` always holds because
//! `pos_bits ≤ 32`. The `⌊log2 n⌋` term gives about one directory slot per
//! k-mer (a bucket of about one entry). Since `pos_bits ≤ ⌊log2 n⌋ + 1`,
//! the `2k + pos_bits − 64` term binds only at `k = 32`, where it sets
//! `b = ⌈log2 n⌉`: one more bit when `n` is not a power of two, so the
//! directory never exceeds `2n + 2` slots. Sorting the entries as plain
//! `u64`s sorts each bucket by `(code, position)`.
//!
//! Offsets and positions are 32-bit, so a sequence of 2^32 or more bases
//! is rejected with [`KmerError::TooLong`] before anything is allocated.

use crate::base::Base;
use crate::packed::{PackedWords, BASES_PER_WORD};
use std::fmt;
use std::ops::Range;

/// A 2-bit-packed k-mer code. Only meaningful together with its length.
pub type KmerCode = u64;

/// Why a k-mer length or a [`KmerIndex`] was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KmerError {
    /// A k-mer length outside the supported `1..=32` range (codes are
    /// packed into a `u64` at 2 bits per base, so 32 is the hard ceiling).
    BadK {
        /// The rejected k-mer length.
        k: usize,
    },
    /// A sequence of 2^32 or more bases: [`KmerIndex`] offsets and
    /// positions are 32-bit.
    TooLong {
        /// The rejected sequence length in bases.
        len: u64,
    },
}

impl fmt::Display for KmerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KmerError::BadK { k } => write!(
                f,
                "k-mer length {k} is unsupported (k must be in 1..=32)"
            ),
            KmerError::TooLong { len } => write!(
                f,
                "a {len}-base sequence is too long to index (the k-mer index holds under 2^32 bases)"
            ),
        }
    }
}

impl std::error::Error for KmerError {}

/// Validates a k-mer length.
///
/// # Errors
///
/// Returns [`KmerError::BadK`] unless `k` is in `1..=32`.
pub fn check_k(k: usize) -> Result<(), KmerError> {
    if (1..=32).contains(&k) {
        Ok(())
    } else {
        Err(KmerError::BadK { k })
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

/// How a [`KmerIndex`] splits each code between its directory and its
/// entries (see the [module docs](self) for the sizing rule).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Layout {
    /// Code bits the directory consumes: `b`.
    dir_bits: u32,
    /// Code bits each entry keeps above its position: `2k − b`.
    suffix_bits: u32,
    /// Position bits at the bottom of each entry: `⌈log2 n⌉`.
    pos_bits: u32,
}

impl Layout {
    /// The layout of an index over every k-mer of a `len`-base sequence.
    /// Pure arithmetic: nothing is allocated, so the limits can be checked
    /// (and tested) for sequences far larger than memory.
    fn new(k: usize, len: u64) -> Result<Self, KmerError> {
        check_k(k)?;
        if len > u64::from(u32::MAX) {
            return Err(KmerError::TooLong { len });
        }
        let code_bits = 2 * k as u32;
        let n = (len + 1).saturating_sub(k as u64);
        let pos_bits = match n {
            0 | 1 => 0,
            n => (n - 1).ilog2() + 1,
        };
        let floor_log = n.checked_ilog2().unwrap_or(0);
        let dir_bits = code_bits.min(floor_log.max((code_bits + pos_bits).saturating_sub(64)));
        Ok(Self {
            dir_bits,
            suffix_bits: code_bits - dir_bits,
            pos_bits,
        })
    }

    /// The directory bucket of `code`: its top `dir_bits` code bits
    /// (bucket 0 when the suffix spans the whole word, i.e. a one-bucket
    /// directory at `k = 32`).
    fn bucket(self, code: KmerCode) -> usize {
        usize::try_from(code.checked_shr(self.suffix_bits).unwrap_or(0)).unwrap_or(usize::MAX)
    }

    /// The code bits an entry keeps: everything below the bucket.
    fn suffix(self, code: KmerCode) -> u64 {
        code & u64::MAX.checked_shr(64 - self.suffix_bits).unwrap_or(0)
    }

    /// Mask of an entry's position field.
    fn pos_mask(self) -> u64 {
        (1u64 << self.pos_bits) - 1
    }
}

/// An exact-match k-mer index over one sequence.
///
/// One flat array of 8-byte entries, `code_suffix << pos_bits | position`,
/// sorted ascending, fronted by a `u32` radix directory over the codes' top
/// bits (layout and sizing in the [module docs](self)). The directory has
/// about one slot per indexed k-mer — never `4^k` — so a short segment
/// indexed at `k = 32` stays as small as its k-mer count, and a lookup is
/// one directory slot plus one entry run.
///
/// # Examples
///
/// ```
/// use asmcap_genome::{kmer::KmerIndex, DnaSeq};
/// let reference: DnaSeq = "ACGTACGTAC".parse()?;
/// let index = KmerIndex::build(reference.as_slice(), 4)?;
/// let query: DnaSeq = "GTAC".parse()?;
/// assert!(index.positions_of(query.as_slice()).eq([2, 6]));
/// assert!(index.contains(query.as_slice()));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct KmerIndex {
    k: usize,
    layout: Layout,
    /// `code_suffix << pos_bits | position` for every indexed k-mer,
    /// ascending: by bucket, then code, then position.
    entries: Vec<u64>,
    /// `directory[b]..directory[b + 1]` is the run of `entries` whose
    /// code's top bits equal `b`.
    directory: Vec<u32>,
    distinct: usize,
}

/// The start positions of one k-mer in a [`KmerIndex`], ascending.
#[derive(Debug, Clone)]
pub struct Positions<'a> {
    entries: std::slice::Iter<'a, u64>,
    pos_mask: u64,
}

impl Iterator for Positions<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        // A position field is at most 32 bits wide, so it always fits.
        self.entries.next().map(|&e| (e & self.pos_mask) as usize)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.entries.size_hint()
    }
}

impl ExactSizeIterator for Positions<'_> {}

impl KmerIndex {
    /// Indexes every overlapping k-mer of `seq`.
    ///
    /// # Errors
    ///
    /// Returns [`KmerError::BadK`] if `k` is zero or greater than 32, and
    /// [`KmerError::TooLong`] for a sequence of 2^32 or more bases.
    pub fn build(seq: &[Base], k: usize) -> Result<Self, KmerError> {
        let layout = Layout::new(k, seq.len() as u64)?;
        Ok(Self::from_scan(k, layout, || kmers(seq, k)))
    }

    /// [`KmerIndex::build`] over a 2-bit packed sequence, extracting every
    /// k-mer through [`packed_kmers`] — the zero-unpack path the mapping
    /// prefilter uses to index a [`crate::PackedRef`].
    ///
    /// # Errors
    ///
    /// As [`KmerIndex::build`].
    pub fn build_packed<S: PackedWords + ?Sized>(seq: &S, k: usize) -> Result<Self, KmerError> {
        let layout = Layout::new(k, seq.len() as u64)?;
        Ok(Self::from_scan(k, layout, || packed_kmers(seq, k)))
    }

    /// Builds the index from a rolling k-mer scan, run twice: once to
    /// count each directory bucket, once to scatter the entries into place
    /// (a counting sort on the top code bits). A bucket holding several
    /// codes is then sorted as plain `u64`s, which is `(code, position)`
    /// order.
    fn from_scan<I: Iterator<Item = (usize, KmerCode)>>(
        k: usize,
        layout: Layout,
        scan: impl Fn() -> I,
    ) -> Self {
        let mut directory = vec![0u32; (1usize << layout.dir_bits) + 1];
        for (_, code) in scan() {
            directory[layout.bucket(code) + 1] += 1;
        }
        for b in 1..directory.len() {
            directory[b] += directory[b - 1];
        }
        let n = directory.last().map_or(0, |&n| n as usize);
        let mut cursor = directory.clone();
        let mut entries = vec![0u64; n];
        for (pos, code) in scan() {
            let slot = &mut cursor[layout.bucket(code)];
            entries[*slot as usize] = (layout.suffix(code) << layout.pos_bits) | pos as u64;
            *slot += 1;
        }
        let mut distinct = 0;
        for b in 1..directory.len() {
            let run = &mut entries[directory[b - 1] as usize..directory[b] as usize];
            if !run.is_sorted() {
                run.sort_unstable();
            }
            distinct += run
                .chunk_by(|a, b| a >> layout.pos_bits == b >> layout.pos_bits)
                .count();
        }
        Self {
            k,
            layout,
            entries,
            directory,
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
        self.entries.len()
    }

    /// Whether the index is empty (sequence shorter than `k`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
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
    pub fn positions_of(&self, kmer: &[Base]) -> Positions<'_> {
        assert_eq!(kmer.len(), self.k, "query length must equal the indexed k");
        self.positions_of_code(pack_kmer(kmer))
    }

    /// All start positions of a packed k-mer code, ascending (empty if
    /// absent, including for codes wider than `2k` bits).
    #[must_use]
    pub fn positions_of_code(&self, code: KmerCode) -> Positions<'_> {
        let bucket = self.bucket_run(code);
        self.positions_in(self.narrow(bucket, code))
    }

    /// Looks up many codes at once, in two phases: every code's directory
    /// slot is read first, then every entry run is searched. The accesses
    /// inside a phase are independent, so their cache misses overlap
    /// instead of chaining slot → entries → next slot.
    ///
    /// Leaves `runs[i]` holding the entries of `codes[i]`; read them back
    /// with [`KmerIndex::positions_in`].
    pub(crate) fn runs_of_codes(&self, codes: &[KmerCode], runs: &mut Vec<Range<usize>>) {
        runs.clear();
        runs.extend(codes.iter().map(|&code| self.bucket_run(code)));
        for (run, &code) in runs.iter_mut().zip(codes) {
            *run = self.narrow(run.clone(), code);
        }
    }

    /// The start positions held by a run of entries from
    /// [`KmerIndex::runs_of_codes`], ascending.
    ///
    /// # Panics
    ///
    /// Panics if `run` is out of bounds.
    #[must_use]
    pub(crate) fn positions_in(&self, run: Range<usize>) -> Positions<'_> {
        Positions {
            entries: self.entries[run].iter(),
            pos_mask: self.layout.pos_mask(),
        }
    }

    /// The directory bucket of `code` as a range of entries (empty for a
    /// code wider than `2k` bits). Reads the directory only.
    fn bucket_run(&self, code: KmerCode) -> Range<usize> {
        let code_bits = self.layout.dir_bits + self.layout.suffix_bits;
        if code.checked_shr(code_bits).unwrap_or(0) != 0 {
            return 0..0;
        }
        let b = self.layout.bucket(code);
        self.directory[b] as usize..self.directory[b + 1] as usize
    }

    /// The entries of `code` inside its bucket's run. Reads the entries
    /// only.
    fn narrow(&self, bucket: Range<usize>, code: KmerCode) -> Range<usize> {
        let suffix = self.layout.suffix(code);
        let pos_bits = self.layout.pos_bits;
        let run = &self.entries[bucket.clone()];
        let lo = run.partition_point(|&e| e >> pos_bits < suffix);
        let hi = lo + run[lo..].partition_point(|&e| e >> pos_bits == suffix);
        bucket.start + lo..bucket.start + hi
    }

    /// Whether the exact k-mer occurs at least once.
    ///
    /// # Panics
    ///
    /// Panics if `kmer.len() != k`.
    #[must_use]
    pub fn contains(&self, kmer: &[Base]) -> bool {
        self.positions_of(kmer).next().is_some()
    }

    /// Slots in the radix directory (one more than its bucket count).
    #[cfg(test)]
    fn directory_len(&self) -> usize {
        self.directory.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::DnaSeq;
    use crate::synth::GenomeModel;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn seq(s: &str) -> DnaSeq {
        s.parse().expect("valid test sequence")
    }

    fn positions(index: &KmerIndex, code: KmerCode) -> Vec<usize> {
        index.positions_of_code(code).collect()
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
        assert!(index.positions_of(seq("ACGT").as_slice()).eq([0, 4]));
        assert!(index.positions_of(seq("GTAC").as_slice()).eq([2, 6]));
        assert_eq!(index.positions_of(seq("GTAC").as_slice()).len(), 2);
        assert!(!index.contains(seq("TTTT").as_slice()));
        assert_eq!(index.len(), 7);
    }

    #[test]
    fn k32_boundary_works() {
        let genome = GenomeModel::uniform().generate(100, 1);
        let index = KmerIndex::build(genome.as_slice(), 32).unwrap();
        let window = &genome.as_slice()[10..42];
        assert!(index.positions_of(window).any(|p| p == 10));
        // The packed builder agrees at the boundary too.
        let packed = crate::PackedSeq::from_seq(&genome);
        let via_packed = KmerIndex::build_packed(&packed, 32).unwrap();
        assert!(via_packed.positions_of(window).any(|p| p == 10));
        assert_eq!(via_packed.len(), index.len());
    }

    #[test]
    fn bad_k_is_a_typed_error_not_a_panic() {
        let genome = GenomeModel::uniform().generate(100, 2);
        for k in [0usize, 33, 64] {
            assert_eq!(
                KmerIndex::build(genome.as_slice(), k).unwrap_err(),
                KmerError::BadK { k }
            );
            let packed = crate::PackedSeq::from_seq(&genome);
            assert_eq!(
                KmerIndex::build_packed(&packed, k).unwrap_err(),
                KmerError::BadK { k }
            );
        }
        assert!(KmerError::BadK { k: 33 }.to_string().contains("1..=32"));
        assert!(check_k(32).is_ok());
        assert!(check_k(1).is_ok());
    }

    #[test]
    fn layout_rejects_sequences_of_2_pow_32_bases() {
        let limit = 1u64 << 32;
        for k in 1..=32usize {
            assert!(Layout::new(k, limit - 1).is_ok(), "k={k}");
            assert_eq!(
                Layout::new(k, limit),
                Err(KmerError::TooLong { len: limit }),
                "k={k}"
            );
            assert_eq!(
                Layout::new(k, u64::MAX),
                Err(KmerError::TooLong { len: u64::MAX })
            );
        }
        // A bad k is reported first, however long the sequence.
        assert_eq!(Layout::new(33, u64::MAX), Err(KmerError::BadK { k: 33 }));
        assert!(KmerError::TooLong { len: limit }
            .to_string()
            .contains("too long"));
    }

    #[test]
    fn layout_boundary_values() {
        let layout = |k, len| Layout::new(k, len).unwrap();
        let fields = |l: Layout| (l.dir_bits, l.suffix_bits, l.pos_bits);
        // Empty, one and two k-mers.
        assert_eq!(fields(layout(12, 0)), (0, 24, 0));
        assert_eq!(fields(layout(12, 12)), (0, 24, 0));
        assert_eq!(fields(layout(12, 13)), (1, 23, 1));
        assert_eq!(fields(layout(32, 32)), (0, 64, 0));
        // 2^20 k-mers at k = 12: one slot per k-mer, 4 suffix bits.
        assert_eq!(fields(layout(12, (1 << 20) + 11)), (20, 4, 20));
        assert_eq!(fields(layout(12, (1 << 20) + 12)), (20, 4, 21));
        // The largest index: the 64-bit budget, not ⌊log2 n⌋, sets b at k = 32.
        assert_eq!(fields(layout(32, u64::from(u32::MAX))), (32, 32, 32));
        assert_eq!(fields(layout(32, (1 << 31) + 32)), (32, 32, 32));
        assert_eq!(fields(layout(32, (1 << 31) + 31)), (31, 33, 31));
        assert_eq!(fields(layout(16, u64::from(u32::MAX))), (31, 1, 32));
        assert_eq!(fields(layout(1, u64::from(u32::MAX))), (2, 0, 32));
    }

    #[test]
    fn layout_fits_64_bits_and_is_exact_for_every_k() {
        let mut lens: Vec<u64> = vec![0, 1, 2, 3, u64::from(u32::MAX)];
        for m in 0..32 {
            for delta in [-1i64, 0, 1] {
                lens.push((1u64 << m).saturating_add_signed(delta));
            }
        }
        for k in 1..=32usize {
            for &len in &lens {
                for len in [len, len + k as u64 - 1] {
                    let Ok(l) = Layout::new(k, len) else {
                        assert!(len > u64::from(u32::MAX));
                        continue;
                    };
                    let n = (len + 1).saturating_sub(k as u64);
                    let ctx = format!("k={k} len={len}");
                    // The bucket and the suffix together hold the whole code.
                    assert_eq!(l.dir_bits + l.suffix_bits, 2 * k as u32, "{ctx}");
                    // Both entry fields fit one u64.
                    assert!(l.suffix_bits + l.pos_bits <= 64, "{ctx}");
                    // Every position fits its field, and the field is minimal.
                    assert!(n <= 1u64 << l.pos_bits, "{ctx}");
                    assert!(l.pos_bits == 0 || n > 1u64 << (l.pos_bits - 1), "{ctx}");
                    // The directory stays under two slots per k-mer, and
                    // only k = 32 needs more than one.
                    assert!((1u64 << l.dir_bits) <= (2 * n).max(1), "{ctx}");
                    if k < 32 {
                        let floor_log = n.checked_ilog2().unwrap_or(0);
                        assert_eq!(l.dir_bits, floor_log.min(2 * k as u32), "{ctx}");
                    }
                }
            }
        }
    }

    /// A naive ordered index: the reference for [`KmerIndex`] lookups.
    fn btreemap_oracle(seq: &[Base], k: usize) -> BTreeMap<KmerCode, Vec<usize>> {
        let mut by_code: BTreeMap<KmerCode, Vec<usize>> = BTreeMap::new();
        for pos in 0..(seq.len() + 1).saturating_sub(k) {
            by_code
                .entry(pack_kmer(&seq[pos..pos + k]))
                .or_default()
                .push(pos);
        }
        by_code
    }

    /// Every lookup the oracle can answer, plus absent codes, agrees — one
    /// code at a time and through the phased batch lookup.
    fn assert_matches_oracle(seq: &[Base], k: usize) {
        let index = KmerIndex::build(seq, k).unwrap();
        let oracle = btreemap_oracle(seq, k);
        assert_eq!(index.len(), (seq.len() + 1).saturating_sub(k), "k={k}");
        assert_eq!(index.distinct(), oracle.len(), "k={k}");
        assert_eq!(index.is_empty(), oracle.is_empty());
        let mut probes: Vec<KmerCode> = vec![0, 1, 2, 3, 0x5555, u64::MAX, u64::MAX - 1, 1 << 40];
        for &code in oracle.keys() {
            probes.extend([code, code.wrapping_add(1), code.wrapping_sub(1)]);
        }
        let mut runs = Vec::new();
        index.runs_of_codes(&probes, &mut runs);
        assert_eq!(runs.len(), probes.len());
        for (&probe, run) in probes.iter().zip(runs) {
            let expected = oracle.get(&probe).map_or(&[][..], Vec::as_slice);
            assert_eq!(positions(&index, probe), expected, "k={k} probe={probe:#x}");
            assert!(index.positions_in(run).eq(expected.iter().copied()));
        }
        let packed = crate::PackedSeq::from_seq(&seq.iter().copied().collect::<DnaSeq>());
        let via_packed = KmerIndex::build_packed(&packed, k).unwrap();
        assert_eq!(via_packed.entries, index.entries);
        assert_eq!(via_packed.directory, index.directory);
    }

    #[test]
    fn flat_index_matches_the_btreemap_oracle() {
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
    fn index_is_exact_where_the_field_widths_change() {
        // k-mer counts of 2^m − 1, 2^m and 2^m + 1: the directory width
        // and the position width each step at one of them.
        let genome = GenomeModel::uniform().generate(1_100, 15);
        for k in 1..=32usize {
            for m in 0..=10u32 {
                for n in [(1usize << m) - 1, 1 << m, (1 << m) + 1] {
                    assert_matches_oracle(&genome.as_slice()[..n + k - 1], k);
                }
            }
        }
    }

    #[test]
    fn empty_input_indexes_nothing_and_finds_nothing() {
        for k in [1usize, 12, 32] {
            let index = KmerIndex::build(&[], k).unwrap();
            assert!(index.is_empty());
            assert_eq!((index.len(), index.distinct()), (0, 0));
            assert_eq!(index.positions_of_code(0).len(), 0);
            assert_eq!(index.positions_of_code(u64::MAX).len(), 0);
            assert_eq!(index.directory_len(), 2);
        }
    }

    #[test]
    fn directory_is_sized_by_kmer_count_not_k() {
        // A 128-base segment at k = 32 — the SaVI/ReSMA per-pair shape —
        // must not allocate a directory anywhere near 4^k (or 2^20) slots.
        // Below k = 32 the directory has at most one slot per k-mer; at
        // k = 32 the 64-bit entry budget can take one more directory bit
        // (b = ⌈log2 n⌉), so at most two.
        let segment = GenomeModel::uniform().generate(128, 13);
        for k in [1usize, 8, 12, 20, 32] {
            let index = KmerIndex::build(segment.as_slice(), k).unwrap();
            let per_kmer = if k == 32 { 2 } else { 1 };
            assert!(
                index.directory_len() <= per_kmer * index.len() + 1,
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
        let hits: Vec<usize> = index.positions_of(seq("GTAC").as_slice()).collect();
        assert_eq!(hits, (2..197).step_by(4).collect::<Vec<_>>());
    }

    proptest! {
        #[test]
        fn prop_flat_index_matches_btreemap_oracle(
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
                prop_assert!(index.positions_of(window).any(|p| p == start));
            }
        }
    }
}
