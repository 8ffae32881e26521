//! Seed-and-extend k-mer prefilter: shortlist candidate segment offsets
//! before the packed matching kernels run.
//!
//! The packed matchplane made each segment/read comparison cheap (~15 ns at
//! width 128), so the cost of mapping one read is dominated by *how many*
//! segments get compared: every backend scanned the full segment list,
//! `O(reference)` per read. The paper's CaCAM array is only economical
//! because the controller narrows which rows a search touches; software ASM
//! accelerators make the same move (GenASM's pre-kernel filter, FindeR's
//! index-then-verify shortlist). This module is that move for the
//! reproduction: a [`PrefilterIndex`] built **once** over a [`PackedRef`]
//! answers, per read, "which segment offsets could plausibly match" — and
//! only those offsets reach the ED\*/HD kernels (or, on the device, only
//! those rows are sensed).
//!
//! # How a shortlist is produced
//!
//! 1. **Index**: every overlapping k-mer of the reference is indexed by
//!    [`KmerIndex::build_packed`] — codes roll straight out of the packed
//!    words, no byte-per-base rescan — into one flat array of 8-byte
//!    entries behind a `u32` directory (layout in [`crate::kmer`]).
//! 2. **Seed**: the read is sparsified to its *minimizers* (the
//!    minimum-hash k-mer of each window of [`PrefilterConfig::window`]
//!    consecutive k-mers). The read's k-mer codes and their hashes are
//!    written to a per-read buffer first; one sliding-minimum pass over
//!    the hash buffer then picks the seeds.
//! 3. **Probe, in phases**: every seed's directory slot is read before any
//!    entry run is searched (`KmerIndex::runs_of_codes`). The reads
//!    within a phase are independent, so a read's ~25 lookups cost about
//!    two overlapped cache misses each instead of a chain of three.
//! 4. **Diagonal binning**: a hit at reference position `r` for read
//!    position `p` implies an alignment start near the diagonal `r - p`;
//!    every stored segment start within [`PrefilterConfig::diag_slack`]
//!    bases of that diagonal receives one vote (the slack absorbs the
//!    positional drift that indels — and TASR's rotations — introduce).
//! 5. **Rank**: starts with at least [`PrefilterConfig::min_seed_hits`]
//!    votes are ranked (votes descending, then offset ascending) and capped
//!    at [`PrefilterConfig::max_candidates`].
//!
//! The buffers of steps 2–4 (codes, hashes, seeds, entry runs, and the
//! `u32` voted starts) are per-thread scratch reused from read to read, so
//! a lookup allocates only the shortlist it returns.
//!
//! A read whose shortlist comes up empty falls back to a full scan when
//! [`PrefilterConfig::full_scan_fallback`] is set (the default) — the
//! explicit escape hatch that lets recall be pinned rather than hoped for.
//! Correctness of the prefilter is *statistical* (recall), not
//! byte-identical; `tests/prefilter_equivalence.rs` pins both regimes.

use crate::kmer::{packed_kmers, KmerCode, KmerError, KmerIndex};
use crate::packed::PackedWords;
use crate::packedref::PackedRef;
use std::cell::RefCell;
use std::fmt;
use std::ops::Range;

/// Why a [`PrefilterIndex`] could not be built: every way a
/// [`PrefilterConfig`] can be degenerate, as a typed error (the pipeline
/// surfaces it as `PipelineError::BadPrefilter`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefilterError {
    /// The reference cannot be k-mer indexed: the seed length is outside
    /// `1..=32`, or the reference has 2^32 or more bases.
    Index(KmerError),
    /// The minimizer window is zero (no seeds could ever be picked).
    ZeroWindow,
    /// The shortlist cap is zero (no candidate could ever survive).
    ZeroCandidateCap,
}

impl fmt::Display for PrefilterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrefilterError::Index(e) => write!(f, "{e}"),
            PrefilterError::ZeroWindow => write!(f, "minimizer window must be positive"),
            PrefilterError::ZeroCandidateCap => write!(f, "candidate cap must be positive"),
        }
    }
}

impl std::error::Error for PrefilterError {}

impl From<KmerError> for PrefilterError {
    fn from(e: KmerError) -> Self {
        PrefilterError::Index(e)
    }
}

/// Tuning knobs of the seed-and-extend prefilter.
///
/// The defaults trade a little index size for recall: small-ish `k` (12)
/// so condition-B indel reads still carry exact seeds, a dense minimizer
/// window (8), and a 2-hit floor so one chance k-mer collision cannot
/// shortlist a random offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefilterConfig {
    /// Seed k-mer length (`1..=32`).
    pub k: usize,
    /// Minimizer window in k-mers: one seed is kept per `window`
    /// consecutive read k-mers (1 = every k-mer is a seed).
    pub window: usize,
    /// Minimum seed votes a segment offset needs to enter the shortlist.
    pub min_seed_hits: usize,
    /// Shortlist cap: at most this many ranked candidates per read.
    pub max_candidates: usize,
    /// Diagonal tolerance in bases: a hit on diagonal `d` votes for every
    /// stored segment start within `diag_slack` of `d` (absorbs indel
    /// drift and TASR rotations).
    pub diag_slack: usize,
    /// When no offset reaches the vote floor, scan the full segment list
    /// instead of returning an empty shortlist.
    pub full_scan_fallback: bool,
}

impl Default for PrefilterConfig {
    fn default() -> Self {
        Self {
            k: 12,
            window: 8,
            min_seed_hits: 2,
            max_candidates: 64,
            diag_slack: 8,
            full_scan_fallback: true,
        }
    }
}

/// The per-read verdict of the prefilter.
///
/// Either a ranked shortlist of candidate segment starts, or the explicit
/// instruction to scan everything (the fallback escape hatch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shortlist {
    ranked: Vec<(usize, usize)>,
    full_scan: bool,
}

impl Shortlist {
    /// Whether the caller must scan the full segment list (no seeds, or no
    /// offset reached the vote floor, with the fallback enabled).
    #[must_use]
    pub fn is_full_scan(&self) -> bool {
        self.full_scan
    }

    /// Candidates as `(segment start, seed votes)`, best first (votes
    /// descending, then start ascending). Empty when
    /// [`Shortlist::is_full_scan`] is set — or when the fallback is
    /// disabled and nothing reached the floor.
    #[must_use]
    pub fn ranked(&self) -> &[(usize, usize)] {
        &self.ranked
    }

    /// Candidate segment starts in ascending offset order — the shape the
    /// mapping backends consume (they preserve their full-scan iteration
    /// order over the shortlist).
    #[must_use]
    pub fn starts_ascending(&self) -> Vec<usize> {
        let mut starts: Vec<usize> = self.ranked.iter().map(|&(start, _)| start).collect();
        starts.sort_unstable();
        starts
    }

    /// Number of shortlisted candidates.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ranked.len()
    }

    /// Whether no candidate made the shortlist.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ranked.is_empty()
    }
}

/// A seed-and-extend prefilter over one segmented, packed reference.
///
/// Built once per pipeline (like the reference packing itself); each
/// [`PrefilterIndex::shortlist`] call is `O(read minimizers × hits)` instead
/// of the full scan's `O(segments)`.
///
/// # Examples
///
/// ```
/// use asmcap_genome::{GenomeModel, PackedRef, PackedSeq, PrefilterConfig, PrefilterIndex};
///
/// let genome = GenomeModel::uniform().generate(4_096, 7);
/// let reference = PackedRef::new(&genome);
/// // Segments of width 128 at every offset (stride 1).
/// let prefilter = PrefilterIndex::new(&reference, 128, 1, PrefilterConfig::default())?;
///
/// // A read taken verbatim from offset 900 shortlists its own origin.
/// let read = PackedSeq::from_seq(&genome.window(900..1_028));
/// let shortlist = prefilter.shortlist(&read);
/// assert!(!shortlist.is_full_scan());
/// assert!(shortlist.starts_ascending().contains(&900));
/// assert!(shortlist.len() < 100); // a shortlist, not a scan
/// # Ok::<(), asmcap_genome::prefilter::PrefilterError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PrefilterIndex {
    index: KmerIndex,
    config: PrefilterConfig,
    stride: usize,
    last_start: usize,
}

/// Per-thread buffers a lookup reuses from read to read.
#[derive(Debug, Default)]
struct Scratch {
    /// The read's k-mer codes, indexed by read position.
    codes: Vec<KmerCode>,
    /// `seed_hash` of each code.
    hashes: Vec<u64>,
    /// `(hash, position)` of the minimum hash from each position to the
    /// end of its window-sized block.
    suffix_min: Vec<(u64, usize)>,
    /// Minimizer read positions, ascending, and their codes.
    seed_pos: Vec<usize>,
    seed_codes: Vec<KmerCode>,
    /// Each seed's run of index entries.
    runs: Vec<Range<usize>>,
    /// Every voted stride-grid start, once per vote.
    starts: Vec<u32>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Runs `f` on this thread's [`Scratch`].
fn with_scratch<T>(f: impl FnOnce(&mut Scratch) -> T) -> T {
    SCRATCH.with(|scratch| f(&mut scratch.borrow_mut()))
}

impl PrefilterIndex {
    /// Indexes `reference` for segments of `width` bases every `stride`
    /// bases — the same segmentation rule the mapping backends share — so
    /// every shortlisted offset is a stored segment start.
    ///
    /// # Errors
    ///
    /// Returns [`PrefilterError`] for any degenerate configuration: a
    /// k-mer length outside `1..=32`, a zero minimizer window, or a zero
    /// candidate cap — and for a reference of 2^32 or more bases, which
    /// the index's 32-bit positions cannot address.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero or the reference is shorter than one
    /// `width`-base segment (geometry the pipeline validates first).
    pub fn new(
        reference: &PackedRef,
        width: usize,
        stride: usize,
        config: PrefilterConfig,
    ) -> Result<Self, PrefilterError> {
        assert!(stride > 0, "stride must be positive");
        assert!(
            reference.len() >= width,
            "reference shorter than one segment"
        );
        if config.window == 0 {
            return Err(PrefilterError::ZeroWindow);
        }
        if config.max_candidates == 0 {
            return Err(PrefilterError::ZeroCandidateCap);
        }
        let index = KmerIndex::build_packed(reference.as_packed(), config.k)?;
        // Under 2^32 once the index is built, so every start fits a `u32`.
        let last_start = (reference.len() - width) / stride * stride;
        Ok(Self {
            index,
            config,
            stride,
            last_start,
        })
    }

    /// The seed k-mer length.
    #[must_use]
    pub fn k(&self) -> usize {
        self.config.k
    }

    /// The configuration the index was built with.
    #[must_use]
    pub fn config(&self) -> &PrefilterConfig {
        &self.config
    }

    /// The read's minimizer seeds as `(read position, k-mer code)`: the
    /// minimum-hash k-mer of each window of [`PrefilterConfig::window`]
    /// consecutive k-mers (ties to the lowest position), deduplicated.
    #[must_use]
    pub fn minimizers<S: PackedWords + ?Sized>(&self, read: &S) -> Vec<(usize, KmerCode)> {
        with_scratch(|s| {
            self.seed(read, s);
            s.seed_pos
                .iter()
                .copied()
                .zip(s.seed_codes.iter().copied())
                .collect()
        })
    }

    /// Fills `s.seed_pos`/`s.seed_codes` with the read's minimizers.
    ///
    /// A sliding minimum over the hash buffer, `O(read)` whatever the
    /// window `w` (van Herk / Gil-Werman): cut the buffer into blocks of
    /// `w` k-mers; a window then spans the tail of one block and the head
    /// of the next, so its minimum is the better of a suffix minimum (one
    /// right-to-left pass) and a prefix minimum (kept while sliding right).
    /// Ties go to the lowest position: each side keeps its leftmost equal
    /// hash and the suffix side (lower positions) wins a tie. The seed hash
    /// is a bijection, so an equal hash is the same code again. Every step
    /// is a select rather than a data-dependent branch, so random hashes
    /// cost no mispredictions.
    fn seed<S: PackedWords + ?Sized>(&self, read: &S, s: &mut Scratch) {
        s.codes.clear();
        s.codes
            .extend(packed_kmers(read, self.config.k).map(|(_, code)| code));
        s.hashes.clear();
        s.hashes.extend(s.codes.iter().map(|&code| seed_hash(code)));
        s.seed_pos.clear();
        s.seed_codes.clear();
        let n = s.hashes.len();
        if n == 0 {
            return;
        }
        // `window >= 1` is checked in `new`.
        let w = self.config.window.min(n);
        const NONE: (u64, usize) = (u64::MAX, usize::MAX);
        s.suffix_min.clear();
        s.suffix_min.resize(n, NONE);
        let mut best = NONE;
        // K-mers left in the current block, walking right to left.
        let mut left = (n - 1) % w + 1;
        for (i, &hash) in s.hashes.iter().enumerate().rev() {
            best = if hash <= best.0 { (hash, i) } else { best };
            s.suffix_min[i] = best;
            left -= 1;
            if left == 0 {
                left = w;
                best = NONE;
            }
        }
        // Seeds are written unconditionally and kept only when they differ
        // from the previous window's.
        s.seed_pos.resize(n, 0);
        let mut kept = 0;
        let mut prefix = NONE;
        let mut in_block = 0;
        for (end, &hash) in s.hashes.iter().enumerate() {
            if in_block == w {
                in_block = 0;
                prefix = NONE;
            }
            in_block += 1;
            prefix = if hash < prefix.0 { (hash, end) } else { prefix };
            let Some(start) = (end + 1).checked_sub(w) else {
                continue;
            };
            let suffix = s.suffix_min[start];
            let best = if suffix.0 <= prefix.0 {
                suffix.1
            } else {
                prefix.1
            };
            let fresh = kept == 0 || s.seed_pos[kept - 1] != best;
            s.seed_pos[kept] = best;
            kept += usize::from(fresh);
        }
        s.seed_pos.truncate(kept);
        s.seed_codes
            .extend(s.seed_pos.iter().map(|&pos| s.codes[pos]));
    }

    /// Seed votes per segment start for one read, ascending by start —
    /// the full (uncapped, unfloored) support map [`PrefilterIndex::shortlist`]
    /// ranks. Exposed so tests can pin the recall property against the
    /// exact vote counts.
    #[must_use]
    pub fn votes<S: PackedWords + ?Sized>(&self, read: &S) -> Vec<(usize, usize)> {
        with_scratch(|s| {
            self.vote(read, s);
            runs(&s.starts).collect()
        })
    }

    /// Fills `s.starts` with every stride-grid start a seed hit votes
    /// for, once per vote, sorted: a start's vote count is the length of
    /// its run. The seeds are probed in phases (directory slots, then
    /// entry runs, then the hits) so their cache misses overlap.
    fn vote<S: PackedWords + ?Sized>(&self, read: &S, s: &mut Scratch) {
        self.seed(read, s);
        self.index.runs_of_codes(&s.seed_codes, &mut s.runs);
        let slack = self.config.diag_slack;
        s.starts.clear();
        for (&p, run) in s.seed_pos.iter().zip(&s.runs) {
            for r in self.index.positions_in(run.clone()) {
                // Starts within `slack` of the diagonal `r - p`, clamped
                // to `0..=last_start`.
                let Some(hi) = (r + slack).checked_sub(p) else {
                    continue;
                };
                let hi = hi.min(self.last_start);
                let lo = r.saturating_sub(p + slack);
                // Stride-grid starts from the first at or above `lo`.
                let mut start = lo.div_ceil(self.stride) * self.stride;
                while start <= hi {
                    // `start <= last_start < 2^32` (see `new`).
                    s.starts.push(start as u32);
                    start += self.stride;
                }
            }
        }
        s.starts.sort_unstable();
    }

    /// Seed votes supporting one specific segment start (0 if none) —
    /// the quantity [`PrefilterConfig::min_seed_hits`] thresholds.
    #[must_use]
    pub fn support<S: PackedWords + ?Sized>(&self, read: &S, start: usize) -> usize {
        let votes = self.votes(read);
        votes
            .binary_search_by_key(&start, |&(s, _)| s)
            .map_or(0, |i| votes[i].1)
    }

    /// The ranked candidate shortlist for one read (see the
    /// [module docs](self) for the full recipe).
    #[must_use]
    pub fn shortlist<S: PackedWords + ?Sized>(&self, read: &S) -> Shortlist {
        with_scratch(|s| {
            self.vote(read, s);
            self.rank(runs(&s.starts))
        })
    }

    /// Floors, ranks, and caps a [`PrefilterIndex::votes`] map.
    fn rank(&self, votes: impl Iterator<Item = (usize, usize)>) -> Shortlist {
        let mut ranked: Vec<(usize, usize)> = votes
            .filter(|&(_, votes)| votes >= self.config.min_seed_hits)
            .collect();
        if ranked.is_empty() {
            return Shortlist {
                ranked: Vec::new(),
                full_scan: self.config.full_scan_fallback,
            };
        }
        // Votes descending, then start ascending: deterministic rank order.
        ranked.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(self.config.max_candidates);
        Shortlist {
            ranked,
            full_scan: false,
        }
    }
}

/// `(start, votes)` for each run of equal starts in a sorted list.
fn runs(sorted: &[u32]) -> impl Iterator<Item = (usize, usize)> + '_ {
    sorted
        .chunk_by(|a, b| a == b)
        .filter_map(|run| run.first().map(|&start| (start as usize, run.len())))
}

/// SplitMix64-style mixer ordering k-mer codes for minimizer selection
/// (a fixed, seedless permutation: the same read always picks the same
/// seeds, which the pipeline's determinism rule relies on).
fn seed_hash(code: KmerCode) -> u64 {
    let mut z = code.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::Base;
    use crate::kmer::kmers;
    use crate::packed::PackedSeq;
    use crate::synth::GenomeModel;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// Reference for [`PrefilterIndex::minimizers`]: the `O(n·w)` rescan
    /// of every window.
    fn minimizers_oracle(index: &PrefilterIndex, read: &PackedSeq) -> Vec<(usize, KmerCode)> {
        let codes: Vec<(usize, KmerCode)> = packed_kmers(read, index.config.k).collect();
        if codes.is_empty() {
            return Vec::new();
        }
        let w = index.config.window.min(codes.len());
        let mut picked = Vec::new();
        let mut last: Option<usize> = None;
        for window in codes.windows(w) {
            let best = window
                .iter()
                .min_by_key(|&&(pos, code)| (seed_hash(code), pos))
                .expect("window is non-empty");
            if last != Some(best.0) {
                picked.push(*best);
                last = Some(best.0);
            }
        }
        picked
    }

    /// Reference for [`PrefilterIndex::votes`]: a hash-map vote count
    /// over hits found by a naive k-mer scan of the reference itself, so a
    /// broken [`KmerIndex`] cannot also break its own oracle.
    fn votes_oracle(
        index: &PrefilterIndex,
        reference: &crate::DnaSeq,
        read: &PackedSeq,
    ) -> Vec<(usize, usize)> {
        let mut counts: HashMap<usize, usize> = HashMap::new();
        let slack = index.config.diag_slack as isize;
        for (p, code) in minimizers_oracle(index, read) {
            let hits = kmers(reference.as_slice(), index.config.k).filter(|&(_, c)| c == code);
            for (r, _) in hits {
                let diag = r as isize - p as isize;
                let lo = (diag - slack).max(0);
                let hi = (diag + slack).min(index.last_start as isize);
                if lo > hi {
                    continue;
                }
                let mut s = (lo as usize).div_ceil(index.stride) * index.stride;
                while s as isize <= hi {
                    *counts.entry(s).or_insert(0) += 1;
                    s += index.stride;
                }
            }
        }
        let mut votes: Vec<(usize, usize)> = counts.into_iter().collect();
        votes.sort_unstable();
        votes
    }

    fn dna(codes: impl IntoIterator<Item = u8>) -> crate::DnaSeq {
        codes.into_iter().map(Base::from_code).collect()
    }

    /// A reference that carries `read` verbatim between two random
    /// flanks, so every read shape — random, repetitive — has true hits.
    fn reference_around(read: &crate::DnaSeq, seed: u64) -> crate::DnaSeq {
        let flank = GenomeModel::uniform().generate(300, seed);
        let tail = GenomeModel::uniform().generate(300, seed ^ 0x5A5A);
        flank
            .as_slice()
            .iter()
            .chain(read.as_slice())
            .chain(tail.as_slice())
            .copied()
            .collect()
    }

    /// Reads of every shape the deque must agree on: random bases,
    /// homopolymers and dinucleotide repeats (repeated codes, so hash
    /// ties), and lengths from zero up — shorter than `k`, shorter than
    /// one window, and long.
    fn any_read() -> impl Strategy<Value = crate::DnaSeq> {
        (
            0u8..3,
            proptest::collection::vec(0u8..4, 0..160),
            (0u8..4, 0u8..4, 0usize..160),
        )
            .prop_map(|(shape, random, (a, b, len))| match shape {
                0 => dna(random),
                1 => dna((0..len).map(|i| if i % 2 == 0 { a } else { b })),
                _ => dna(std::iter::repeat_n(a, len / 4).chain(random)),
            })
    }

    fn any_config() -> impl Strategy<Value = PrefilterConfig> {
        (
            1usize..=14,
            1usize..=40,
            1usize..=3,
            1usize..=64,
            0usize..=12,
        )
            .prop_map(|(k, window, min_seed_hits, max_candidates, diag_slack)| {
                PrefilterConfig {
                    k,
                    window,
                    min_seed_hits,
                    max_candidates,
                    diag_slack,
                    full_scan_fallback: true,
                }
            })
    }

    proptest! {
        #[test]
        fn prop_sliding_minimum_and_run_length_match_the_oracles(
            read in any_read(),
            config in any_config(),
            stride in 1usize..=8,
            seed in any::<u64>(),
        ) {
            let reference = reference_around(&read, seed);
            let index = PrefilterIndex::new(&PackedRef::new(&reference), 64, stride, config).unwrap();
            let packed = PackedSeq::from_seq(&read);
            let seeds = index.minimizers(&packed);
            prop_assert_eq!(&seeds, &minimizers_oracle(&index, &packed));
            let oracle_votes = votes_oracle(&index, &reference, &packed);
            prop_assert_eq!(&index.votes(&packed), &oracle_votes);
            prop_assert_eq!(index.shortlist(&packed), index.rank(oracle_votes.into_iter()));
        }
    }

    #[test]
    fn low_complexity_ties_go_to_the_lowest_position() {
        // A homopolymer has one code: every window's minimizer is its first
        // k-mer, so the seeds are 0, 1, 2, … — one per window, each the
        // earliest surviving copy of the tied code.
        let read = dna(std::iter::repeat_n(2u8, 40));
        let config = PrefilterConfig {
            k: 5,
            window: 4,
            ..PrefilterConfig::default()
        };
        let index =
            PrefilterIndex::new(&PackedRef::new(&reference_around(&read, 3)), 64, 1, config)
                .unwrap();
        let packed = PackedSeq::from_seq(&read);
        let seeds = index.minimizers(&packed);
        let positions: Vec<usize> = seeds.iter().map(|&(p, _)| p).collect();
        assert_eq!(positions, (0..=36 - 4).collect::<Vec<_>>());
        assert_eq!(seeds, minimizers_oracle(&index, &packed));
        // A window wider than the read collapses to one seed.
        let wide = PrefilterIndex::new(
            &PackedRef::new(&reference_around(&read, 3)),
            64,
            1,
            PrefilterConfig {
                window: 1_000,
                ..config
            },
        )
        .unwrap();
        assert_eq!(wide.minimizers(&packed).len(), 1);
        assert_eq!(wide.minimizers(&packed), minimizers_oracle(&wide, &packed));
    }

    fn index_on(
        genome_len: usize,
        seed: u64,
        width: usize,
        stride: usize,
        config: PrefilterConfig,
    ) -> (PrefilterIndex, crate::DnaSeq) {
        let genome = GenomeModel::uniform().generate(genome_len, seed);
        let reference = PackedRef::new(&genome);
        let index = PrefilterIndex::new(&reference, width, stride, config).unwrap();
        (index, genome)
    }

    #[test]
    fn exact_read_shortlists_its_origin_first() {
        let (index, genome) = index_on(8_192, 3, 128, 1, PrefilterConfig::default());
        let read = PackedSeq::from_seq(&genome.window(2_000..2_128));
        let shortlist = index.shortlist(&read);
        assert!(!shortlist.is_full_scan());
        // Every start within diag_slack of the true diagonal collects the
        // same votes (stride 1), so the top rank is the origin up to slack.
        let top = shortlist.ranked()[0].0;
        assert!(
            top.abs_diff(2_000) <= index.config().diag_slack,
            "top candidate {top} too far from the origin"
        );
        assert!(shortlist.starts_ascending().contains(&2_000));
        assert!(shortlist.len() <= index.config().max_candidates);
    }

    #[test]
    fn shortlist_respects_the_stride_grid() {
        let stride = 8;
        let (index, genome) = index_on(8_192, 4, 128, stride, PrefilterConfig::default());
        let read = PackedSeq::from_seq(&genome.window(1_016..1_144)); // on-grid origin
        let shortlist = index.shortlist(&read);
        assert!(!shortlist.is_full_scan());
        for &(start, _) in shortlist.ranked() {
            assert_eq!(start % stride, 0, "off-grid candidate {start}");
            assert!(start <= 8_192 - 128);
        }
        assert!(shortlist.starts_ascending().contains(&1_016));
    }

    #[test]
    fn foreign_read_falls_back_or_comes_up_empty() {
        let (index, _) = index_on(4_096, 5, 128, 1, PrefilterConfig::default());
        let foreign = GenomeModel::uniform().generate(128, 999);
        let shortlist = index.shortlist(&PackedSeq::from_seq(&foreign));
        // A random 128-mer against a 4k reference: either nothing reaches
        // the 2-vote floor (fallback fires) or a couple of chance
        // collisions make a short shortlist — never a wide one.
        assert!(shortlist.is_full_scan() || shortlist.len() < 16);

        let no_fallback = PrefilterConfig {
            full_scan_fallback: false,
            min_seed_hits: 1_000, // unreachable floor
            ..PrefilterConfig::default()
        };
        let (index, genome) = index_on(4_096, 5, 128, 1, no_fallback);
        let read = PackedSeq::from_seq(&genome.window(0..128));
        let shortlist = index.shortlist(&read);
        assert!(!shortlist.is_full_scan(), "escape hatch explicitly closed");
        assert!(shortlist.is_empty());
    }

    #[test]
    fn support_matches_votes() {
        let (index, genome) = index_on(4_096, 6, 128, 1, PrefilterConfig::default());
        let read = PackedSeq::from_seq(&genome.window(512..640));
        let votes = index.votes(&read);
        assert!(!votes.is_empty());
        for &(start, n) in &votes {
            assert_eq!(index.support(&read, start), n);
        }
        assert_eq!(index.support(&read, 4_096 - 128), 0);
        assert!(index.support(&read, 512) >= index.config().min_seed_hits);
    }

    #[test]
    fn minimizers_are_sparse_and_deterministic() {
        let (index, genome) = index_on(4_096, 7, 128, 1, PrefilterConfig::default());
        let read = PackedSeq::from_seq(&genome.window(100..228));
        let a = index.minimizers(&read);
        let b = index.minimizers(&read);
        assert_eq!(a, b);
        let total_kmers = 128 - index.k() + 1;
        assert!(a.len() < total_kmers, "minimizers must sparsify");
        assert!(!a.is_empty());
        // Too-short reads yield no seeds at all.
        let tiny = PackedSeq::from_seq(&genome.window(0..index.k() - 1));
        assert!(index.minimizers(&tiny).is_empty());
        assert!(index.shortlist(&tiny).is_full_scan());
    }

    #[test]
    fn degenerate_configs_surface_typed_errors() {
        let genome = GenomeModel::uniform().generate(1_024, 8);
        let reference = PackedRef::new(&genome);
        let build = |config: PrefilterConfig| PrefilterIndex::new(&reference, 128, 1, config);
        assert_eq!(
            build(PrefilterConfig {
                k: 33,
                ..PrefilterConfig::default()
            })
            .unwrap_err(),
            PrefilterError::Index(KmerError::BadK { k: 33 })
        );
        assert_eq!(
            build(PrefilterConfig {
                window: 0,
                ..PrefilterConfig::default()
            })
            .unwrap_err(),
            PrefilterError::ZeroWindow
        );
        assert_eq!(
            build(PrefilterConfig {
                max_candidates: 0,
                ..PrefilterConfig::default()
            })
            .unwrap_err(),
            PrefilterError::ZeroCandidateCap
        );
        assert!(PrefilterError::from(KmerError::BadK { k: 0 })
            .to_string()
            .contains("1..=32"));
    }
}
