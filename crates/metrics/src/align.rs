//! Bit-vector global alignment **with traceback** over 2-bit packed
//! operands.
//!
//! [`edit_distance_banded_packed`](crate::edit_distance_banded_packed)
//! answers *how far* a read is from a segment; this module answers *how the
//! read aligns*: [`align_packed`] runs one Myers/Hyyrö bit-parallel pass
//! over [`PackedWords`] operands (no byte-per-base unpacking anywhere) and
//! walks the stored bit-vectors back into an exact edit transcript — a
//! [`Cigar`] whose cost equals the Levenshtein distance, with global
//! semantics (the whole read against the whole segment, matching
//! [`edit_distance`](crate::edit_distance)).
//!
//! # The delta representation
//!
//! Write `D(i, j)` for the distance between the length-`i` read prefix and
//! the length-`j` reference prefix. Adjacent cells differ by at most one,
//! so column `j` is fully described by its deltas, one bit per row `i` in
//! four words per 64 rows:
//!
//! * `Pv`/`Mv`: bit `i-1` set iff `D(i, j) − D(i−1, j)` is `+1`/`−1`;
//! * `Ph`/`Mh`: bit `i-1` set iff `D(i, j) − D(i, j−1)` is `+1`/`−1` (the
//!   horizontal words *before* the step shifts them down a row).
//!
//! The column step is [`edit`](crate::edit)'s Myers/Hyyrö core, the same
//! one [`edit_distance_myers`](crate::edit_distance_myers) runs; it tracks
//! `D(m, j)` on the last row, so the score is `D(m, n)` after one pass, and
//! a score past the band returns `None`. Column 0 (`D(i, 0) = i`) is all
//! `Pv`, and row 0 (`D(0, j) = j`) is the `+1` the step shifts in.
//!
//! # The traceback
//!
//! The walk is GenASM's (Senol Cali et al., MICRO 2020): from `(m, n)` with
//! budget `d = D(m, n)`, take the first of match (equal bases,
//! `D(i−1, j−1) ≤ d`), substitution (`D(i−1, j−1) ≤ d − 1`), deletion
//! (`D(i, j−1) ≤ d − 1`) and insertion (`D(i−1, j) ≤ d − 1`), spending one
//! budget unit per edit. GenASM asks each predicate of a stored bit-vector
//! per budget level; here the same predicates, in the same order, are
//! answered from the deltas, so every transcript is the one the level
//! formulation emits. The invariant is `D(i, j) = d` exactly: a passed
//! predicate bounds the next cell's distance by the next budget, and it
//! cannot be lower, because a gap or a substitution lowers the distance by
//! at most one and a match over equal bases not at all (below). So
//! `D(i−1, j−1) = d − Δh(i, j) − Δv(i, j−1)`, `D(i, j−1) = d − Δh(i, j)` and
//! `D(i−1, j) = d − Δv(i, j)`: each predicate is one or two delta bits, with
//! no popcount.
//!
//! # Run skipping
//!
//! Along a diagonal `D(i, j) − D(i−1, j−1) ∈ {0, 1}` (Ukkonen), and when
//! the bases at `i` and `j` are equal the recurrence gives
//! `D(i, j) ≤ D(i−1, j−1)`, so the two are equal. Equal bases therefore
//! always pass the match test and leave `d` unchanged: a run of them is
//! one `=` run, found by XOR-ing 32 bases of each operand at a time, with
//! no delta read. Only the edits — about 1.5 per condition-A read — read
//! the stored deltas.
//!
//! Tests pin the kernel against the level formulation (score and CIGAR
//! string) and against the scalar DP (score, exact replay) on lengths up
//! to 300, including word-boundary-straddling segment views.

use crate::edit::{build_peq, myers_step, AlignOp, ColumnDeltas};
use asmcap_genome::PackedWords;
use std::borrow::Cow;
use std::fmt;

/// Base code at lane `i` of a packing (two bits, no unpack).
#[inline]
fn lane<S: PackedWords>(seq: &S, i: usize) -> u8 {
    ((seq.word(i / 32) >> (2 * (i % 32))) & 0b11) as u8
}

/// A run-length-encoded edit transcript (`=`, `X`, `I`, `D` runs).
///
/// Operations read `a → b` as in [`AlignOp`]: for the extension stage, `a`
/// is the read and `b` the reference segment, so `I` is a read base absent
/// from the reference and `D` a reference base absent from the read.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Cigar {
    runs: Vec<(AlignOp, u32)>,
}

impl Cigar {
    /// An empty transcript.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a transcript from an explicit op sequence.
    #[must_use]
    pub fn from_ops(ops: &[AlignOp]) -> Self {
        let mut cigar = Self::new();
        for &op in ops {
            cigar.push(op);
        }
        cigar
    }

    /// Appends one operation, extending the trailing run when it matches.
    pub fn push(&mut self, op: AlignOp) {
        match self.runs.last_mut() {
            Some((last, count)) if *last == op => *count += 1,
            _ => self.runs.push((op, 1)),
        }
    }

    /// Builds a transcript from runs given last-to-first (the order a
    /// traceback finds them in), skipping empty runs and merging equal
    /// neighbours.
    fn from_runs_reversed(runs: &[(AlignOp, usize)]) -> Self {
        let mut cigar = Self::new();
        for &(op, count) in runs.iter().rev().filter(|&&(_, count)| count > 0) {
            let count = u32::try_from(count).expect("a run is no longer than its operands");
            match cigar.runs.last_mut() {
                Some((last, total)) if *last == op => *total += count,
                _ => cigar.runs.push((op, count)),
            }
        }
        cigar
    }

    /// The run-length-encoded view.
    #[must_use]
    pub fn runs(&self) -> &[(AlignOp, u32)] {
        &self.runs
    }

    /// Whether the transcript is empty (both sequences were empty).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Total operation count across all runs.
    #[must_use]
    pub fn ops_len(&self) -> usize {
        self.runs.iter().map(|&(_, n)| n as usize).sum()
    }

    /// Edit cost: every non-`Match` operation counts one.
    #[must_use]
    pub fn cost(&self) -> usize {
        self.runs
            .iter()
            .filter(|(op, _)| *op != AlignOp::Match)
            .map(|&(_, n)| n as usize)
            .sum()
    }

    /// Read bases consumed (`=`, `X`, and `I` runs).
    #[must_use]
    pub fn read_len(&self) -> usize {
        self.runs
            .iter()
            .filter(|(op, _)| *op != AlignOp::Delete)
            .map(|&(_, n)| n as usize)
            .sum()
    }

    /// Reference bases consumed (`=`, `X`, and `D` runs).
    #[must_use]
    pub fn ref_len(&self) -> usize {
        self.runs
            .iter()
            .filter(|(op, _)| *op != AlignOp::Insert)
            .map(|&(_, n)| n as usize)
            .sum()
    }

    /// Replays the transcript against packed operands, verifying every
    /// claim it makes: `=` runs cover equal bases, `X` runs unequal bases,
    /// and the walk consumes `read` and `reference` exactly. Returns the
    /// replayed edit cost, or `None` if the transcript does not reconstruct
    /// the pair — the property the traceback suite pins for every emitted
    /// alignment.
    #[must_use]
    pub fn check_replay<A: PackedWords, B: PackedWords>(
        &self,
        read: &A,
        reference: &B,
    ) -> Option<usize> {
        let (mut i, mut j, mut cost) = (0usize, 0usize, 0usize);
        for &(op, count) in &self.runs {
            for _ in 0..count {
                match op {
                    AlignOp::Match | AlignOp::Substitute => {
                        if i >= read.len() || j >= reference.len() {
                            return None;
                        }
                        let same = lane(read, i) == lane(reference, j);
                        if same != (op == AlignOp::Match) {
                            return None;
                        }
                        i += 1;
                        j += 1;
                    }
                    AlignOp::Insert => {
                        if i >= read.len() {
                            return None;
                        }
                        i += 1;
                    }
                    AlignOp::Delete => {
                        if j >= reference.len() {
                            return None;
                        }
                        j += 1;
                    }
                }
                if op != AlignOp::Match {
                    cost += 1;
                }
            }
        }
        (i == read.len() && j == reference.len()).then_some(cost)
    }
}

impl fmt::Display for Cigar {
    /// SAM-style extended CIGAR (`3=1X2D…`); an empty transcript renders
    /// `*`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.runs.is_empty() {
            return write!(f, "*");
        }
        for &(op, count) in &self.runs {
            let symbol = match op {
                AlignOp::Match => '=',
                AlignOp::Substitute => 'X',
                AlignOp::Insert => 'I',
                AlignOp::Delete => 'D',
            };
            write!(f, "{count}{symbol}")?;
        }
        Ok(())
    }
}

/// A read-to-reference alignment produced by the extension stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alignment {
    /// Reference position the aligned segment starts at.
    pub origin: usize,
    /// Levenshtein distance between the read and the segment.
    pub score: usize,
    /// The edit transcript; `cigar.cost() == score` always holds.
    pub cigar: Cigar,
}

impl fmt::Display for Alignment {
    /// `origin<tab>score<tab>cigar` — the SAM-ish column triple the CLI
    /// appends in extension mode.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}\t{}\t{}", self.origin, self.score, self.cigar)
    }
}

/// Banded global alignment of `read` against `reference` over packed words.
///
/// Returns `Some((score, cigar))` when the Levenshtein distance is within
/// `limit` (score equal to [`edit_distance`](crate::edit_distance), CIGAR
/// replaying at exactly that cost), `None` otherwise — mirroring
/// [`edit_distance_banded_packed`](crate::edit_distance_banded_packed)'s
/// contract, but with the transcript attached. Runtime is
/// `O(n · ⌈m/64⌉)` word operations whatever the distance, storing
/// `4 · (n + 1) · ⌈m/64⌉` words of deltas; the traceback then costs
/// `O(m / 32)` per run of matches plus `O(1)` per edit.
///
/// # Examples
///
/// ```
/// use asmcap_genome::{DnaSeq, PackedSeq};
/// let read = PackedSeq::from_seq(&"ACGTACGT".parse::<DnaSeq>()?);
/// let segment = PackedSeq::from_seq(&"ACGAACGT".parse::<DnaSeq>()?);
/// let (score, cigar) = asmcap_metrics::align_packed(&read, &segment, 3)
///     .expect("within the band");
/// assert_eq!(score, 1);
/// assert_eq!(cigar.to_string(), "3=1X4=");
/// assert_eq!(asmcap_metrics::align_packed(&read, &segment, 0), None);
/// # Ok::<(), asmcap_genome::base::ParseBaseError>(())
/// ```
#[must_use]
pub fn align_packed<A: PackedWords, B: PackedWords>(
    read: &A,
    reference: &B,
    limit: usize,
) -> Option<(usize, Cigar)> {
    let (m, n) = (read.len(), reference.len());
    // The distance never exceeds max(m, n), so a wider band buys nothing.
    let band = limit.min(m.max(n));
    if m.abs_diff(n) > band {
        return None;
    }
    if m == 0 || n == 0 {
        // One sequence is empty: the alignment is a single gap run.
        let gaps = [(AlignOp::Insert, m), (AlignOp::Delete, n)];
        return Some((m.max(n), Cigar::from_runs_reversed(&gaps)));
    }
    let (read, reference) = (words_of(read), words_of(reference));
    let peq = build_peq((0..m).map(|i| code_at(&read, i)));
    let words = peq.len();
    let mut deltas = vec![ColumnDeltas::FIRST; (n + 1) * words];
    let mut score = m;
    for j in 1..=n {
        let (prev, next) = deltas[(j - 1) * words..(j + 1) * words].split_at_mut(words);
        let code = code_at(&reference, j - 1);
        score = score.wrapping_add_signed(myers_step(&peq, m, code, prev, next));
    }
    if score > band {
        return None;
    }
    // Greedy traceback from (m, n), runs emitted end first. Invariant:
    // D(i, j) = d exactly (see the module docs), so each predicate of the
    // walk is one or two stored delta bits.
    let column = |j: usize, i: usize| &deltas[j * words + (i - 1) / 64];
    let delta = |plus: u64, minus: u64, i: usize| {
        let bit = |word: u64| i32::from((word >> ((i - 1) % 64)) & 1 == 1);
        bit(plus) - bit(minus)
    };
    let mut runs = Vec::new();
    let (mut i, mut j, mut d) = (m, n, score);
    while i > 0 && j > 0 {
        let same = common_suffix(&read, i, &reference, j);
        if same > 0 {
            runs.push((AlignOp::Match, same));
            i -= same;
            j -= same;
            continue;
        }
        let (here, left) = (column(j, i), column(j - 1, i));
        let horizontal = delta(here.ph, here.mh, i);
        // D(i−1, j−1) = d − Δh(i, j) − Δv(i, j−1); D(i, j−1) = d − Δh(i, j);
        // D(i−1, j) = d − Δv(i, j).
        let op = if horizontal + delta(left.pv, left.mv, i) > 0 {
            i -= 1;
            j -= 1;
            AlignOp::Substitute
        } else if horizontal > 0 {
            j -= 1;
            AlignOp::Delete
        } else if delta(here.pv, here.mv, i) > 0 {
            i -= 1;
            AlignOp::Insert
        } else {
            // lint: panic-ok — D(i, j) = d > 0 guarantees one predecessor
            // term of the DP recurrence holds; reaching here is a kernel bug.
            unreachable!("traceback stuck at i={i} j={j} d={d}");
        };
        runs.push((op, 1));
        d -= 1;
    }
    // One operand is used up: the rest is a single gap run.
    runs.extend([(AlignOp::Delete, j), (AlignOp::Insert, i)]);
    debug_assert_eq!(d, i + j, "greedy traceback must spend the whole budget");
    Some((score, Cigar::from_runs_reversed(&runs)))
}

/// An operand's words, borrowed when they are already one slice and
/// materialised once otherwise (a word-straddling [`SegmentView`]
/// reassembles each word on every `word` call).
///
/// [`SegmentView`]: asmcap_genome::SegmentView
fn words_of<S: PackedWords>(seq: &S) -> Cow<'_, [u64]> {
    seq.as_word_slice().map_or_else(
        || Cow::Owned((0..seq.n_words()).map(|w| seq.word(w)).collect()),
        Cow::Borrowed,
    )
}

/// Base code at lane `i` of materialised words.
#[inline]
fn code_at(words: &[u64], i: usize) -> u8 {
    ((words[i / 32] >> (2 * (i % 32))) & 0b11) as u8
}

/// The 32 lanes ending just before lane `end ≥ 1`, lane `end - 1` in the
/// top two bits; lanes before lane 0 read as zero.
#[inline]
fn lanes_before(words: &[u64], end: usize) -> u64 {
    let (word, top) = ((end - 1) / 32, (end - 1) % 32);
    let shift = 2 * (31 - top);
    let high = words[word] << shift;
    if shift == 0 || word == 0 {
        high
    } else {
        high | (words[word - 1] >> (64 - shift))
    }
}

/// How many bases `a[..i]` and `b[..j]` share as a common suffix: one XOR
/// per 32 bases.
fn common_suffix(a: &[u64], i: usize, b: &[u64], j: usize) -> usize {
    let limit = i.min(j);
    let mut run = 0;
    while run < limit {
        let diff = lanes_before(a, i - run) ^ lanes_before(b, j - run);
        let same = diff.leading_zeros() as usize / 2;
        run += same;
        if same < 32 {
            break;
        }
    }
    run.min(limit)
}

/// Scalar reference alignment: the full-matrix traceback of
/// [`edit::align`](crate::edit::align) re-encoded as a [`Cigar`]. This is
/// the naive DP the packed kernel is property-tested against.
#[must_use]
pub fn align_bases(a: &[asmcap_genome::Base], b: &[asmcap_genome::Base]) -> (usize, Cigar) {
    let alignment = crate::edit::align(a, b);
    (alignment.distance, Cigar::from_ops(&alignment.ops))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edit_distance;
    use asmcap_genome::{
        Base, DnaSeq, ErrorProfile, GenomeModel, PackedRef, PackedSeq, ReadSampler,
    };
    use proptest::prelude::*;

    /// GenASM's per-budget status bit-vectors, kept as the oracle the
    /// delta kernel must match byte for byte: level `d` holds `n + 1`
    /// column-major bit-vectors of `words` machine words, and bit `i - 1`
    /// of column `j` is **0** ("active") iff `D(i, j) ≤ d`.
    struct Levels {
        words: usize,
        per_level: usize,
        levels: Vec<Vec<u64>>,
    }

    impl Levels {
        fn new(words: usize, columns: usize) -> Self {
            Self {
                words,
                per_level: words * columns,
                levels: Vec::new(),
            }
        }

        /// Allocates level `d` with every column's boundary initialised:
        /// column 0 of level `d` has bits `0..d` active (`D(i, 0) = i ≤ d`),
        /// all other bits dead; columns `1..=n` start all-dead and are
        /// filled by the recurrence.
        fn open_level(&mut self, d: usize) {
            let mut level = vec![!0u64; self.per_level];
            for (w, word) in level.iter_mut().enumerate().take(self.words) {
                let cleared = d.saturating_sub(w * 64).min(64);
                *word = if cleared == 64 { 0 } else { !0u64 << cleared };
            }
            self.levels.push(level);
        }

        /// Whether bit `i - 1` of `S[d][j]` is active, i.e. `D(i, j) ≤ d`;
        /// `i = 0` is the boundary row `D(0, j) = j`.
        fn active(&self, d: usize, j: usize, i: usize) -> bool {
            if i == 0 {
                return j <= d;
            }
            let bit = i - 1;
            let word = self.levels[d][j * self.words + bit / 64];
            (word >> (bit % 64)) & 1 == 0
        }
    }

    /// The level kernel: levels `0..=d*` of GenASM's recurrence (match,
    /// substitution, deletion and insertion terms ANDed, 0 = active), then
    /// a greedy walk over the stored levels, match → substitution →
    /// deletion → insertion, each step one `active` lookup.
    fn level_oracle<A: PackedWords, B: PackedWords>(
        read: &A,
        reference: &B,
        limit: usize,
    ) -> Option<(usize, Cigar)> {
        let (m, n) = (read.len(), reference.len());
        let band = limit.min(m.max(n));
        if m.abs_diff(n) > band {
            return None;
        }
        if m == 0 || n == 0 {
            let mut ops = vec![AlignOp::Delete; n];
            ops.extend(vec![AlignOp::Insert; m]);
            return Some((m.max(n), Cigar::from_ops(&ops)));
        }
        let words = m.div_ceil(64);
        let mut peq = vec![[0u64; 4]; words];
        for i in 0..m {
            peq[i / 64][lane(read, i) as usize] |= 1u64 << (i % 64);
        }
        let mut state = Levels::new(words, n + 1);
        let mut score = None;
        for d in 0..=band {
            let level = state.levels.len();
            state.open_level(d);
            for j in 1..=n {
                let code = lane(reference, j - 1) as usize;
                let mut carry_match = u64::from(j - 1 > d);
                let mut carry_subst = u64::from(j > d);
                let mut carry_ins = u64::from(j >= d);
                for (w, masks) in peq.iter().enumerate() {
                    let same_prev = state.levels[level][(j - 1) * words + w];
                    let match_term = ((same_prev << 1) | carry_match) | !masks[code];
                    carry_match = same_prev >> 63;
                    let cell = if d == 0 {
                        match_term
                    } else {
                        let lower_prev = state.levels[level - 1][(j - 1) * words + w];
                        let lower_cur = state.levels[level - 1][j * words + w];
                        let subst_term = (lower_prev << 1) | carry_subst;
                        let ins_term = (lower_cur << 1) | carry_ins;
                        carry_subst = lower_prev >> 63;
                        carry_ins = lower_cur >> 63;
                        match_term & subst_term & lower_prev & ins_term
                    };
                    state.levels[level][j * words + w] = cell;
                }
            }
            if state.active(d, n, m) {
                score = Some(d);
                break;
            }
        }
        let score = score?;
        let mut ops = Vec::with_capacity(m.max(n));
        let (mut i, mut j, mut d) = (m, n, score);
        while i > 0 || j > 0 {
            if i > 0
                && j > 0
                && lane(read, i - 1) == lane(reference, j - 1)
                && state.active(d, j - 1, i - 1)
            {
                ops.push(AlignOp::Match);
                i -= 1;
                j -= 1;
            } else if d > 0 && i > 0 && j > 0 && state.active(d - 1, j - 1, i - 1) {
                ops.push(AlignOp::Substitute);
                i -= 1;
                j -= 1;
                d -= 1;
            } else if d > 0 && j > 0 && state.active(d - 1, j - 1, i) {
                ops.push(AlignOp::Delete);
                j -= 1;
                d -= 1;
            } else if d > 0 && i > 0 && state.active(d - 1, j, i - 1) {
                ops.push(AlignOp::Insert);
                i -= 1;
                d -= 1;
            } else {
                unreachable!("oracle traceback stuck at i={i} j={j} d={d}");
            }
        }
        ops.reverse();
        Some((score, Cigar::from_ops(&ops)))
    }

    /// `align_packed` and the level oracle on one pair, as comparable
    /// `(score, CIGAR string)` results.
    fn against_oracle<A: PackedWords, B: PackedWords>(
        read: &A,
        reference: &B,
        limit: usize,
    ) -> [Option<(usize, String)>; 2] {
        let render = |result: Option<(usize, Cigar)>| {
            result.map(|(score, cigar)| (score, cigar.to_string()))
        };
        [
            render(align_packed(read, reference, limit)),
            render(level_oracle(read, reference, limit)),
        ]
    }

    /// SplitMix64: a seeded, dependency-free stream for the case generator.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, bound: usize) -> usize {
            (self.next() % bound as u64) as usize
        }

        fn bases(&mut self, len: usize) -> Vec<Base> {
            (0..len)
                .map(|_| Base::from_code(self.below(4) as u8))
                .collect()
        }
    }

    /// Packs `bases` at offset `pad` of a larger packing and returns it
    /// with the offset, so `segment(pad, bases.len())` is a view whose
    /// words straddle the packing's (for `pad % 32 != 0`).
    fn padded(rng: &mut SplitMix, bases: &[Base]) -> (PackedRef, usize) {
        let pad = rng.below(64);
        let mut all = rng.bases(pad);
        all.extend_from_slice(bases);
        let tail = rng.below(40);
        all.extend(rng.bases(tail));
        (PackedRef::new(&DnaSeq::from_bases(all)), pad)
    }

    /// `cases` seeded random pairs, lengths 0..=300: half are a read plus
    /// up to `limit + 4` random substitutions, insertions and deletions (so
    /// lengths usually differ), half are unrelated decoys of a nearby
    /// length. Limits run 0..40. Each reference is a word-straddling
    /// [`SegmentView`](asmcap_genome::SegmentView); every other read is
    /// one too, the rest are owned packings. Asserts the kernel equals the
    /// level oracle on score and CIGAR string, `None`s included.
    fn check_random_pairs(seed: u64, cases: usize) {
        let mut rng = SplitMix(seed);
        for case in 0..cases {
            let read_len = rng.below(301);
            let read = rng.bases(read_len);
            let limit = rng.below(40);
            let reference = if case % 2 == 0 {
                let mut edited = read.clone();
                for _ in 0..rng.below(limit + 5) {
                    let at = rng.below(edited.len() + 1);
                    match rng.below(3) {
                        0 if at < edited.len() => {
                            edited[at] = edited[at].substituted(rng.below(3) as u8 + 1);
                        }
                        1 if at < edited.len() => {
                            edited.remove(at);
                        }
                        _ if edited.len() < 300 => {
                            edited.insert(at, Base::from_code(rng.below(4) as u8))
                        }
                        _ => {}
                    }
                }
                edited
            } else {
                let len = (read.len() + rng.below(9)).saturating_sub(4).min(300);
                rng.bases(len)
            };
            let (ref_pack, ref_pad) = padded(&mut rng, &reference);
            let ref_view = ref_pack.segment(ref_pad, reference.len());
            let [kernel, oracle] = if case % 4 < 2 {
                against_oracle(&PackedSeq::from_bases(&read), &ref_view, limit)
            } else {
                let (read_pack, read_pad) = padded(&mut rng, &read);
                against_oracle(&read_pack.segment(read_pad, read.len()), &ref_view, limit)
            };
            assert_eq!(
                kernel,
                oracle,
                "case {case} (seed {seed}): m={} n={} limit={limit}",
                read.len(),
                reference.len()
            );
        }
    }

    #[test]
    fn random_pairs_match_the_level_oracle() {
        check_random_pairs(0xA11C_E5ED, 2_000);
    }

    /// The slow job's scale of [`random_pairs_match_the_level_oracle`].
    #[test]
    #[ignore = "200k oracle cases; run in release with --ignored"]
    fn random_pairs_match_the_level_oracle_at_scale() {
        check_random_pairs(0x5CA1_AB1E, 200_000);
    }

    /// Sampled reads at widths 64/128/256 under conditions A and B against
    /// word-straddling segment views at their origins, plus the same reads
    /// against a foreign segment (decoys), at the extension stage's
    /// default band `2·T + 2`: the kernel equals the level oracle on score
    /// and CIGAR string.
    #[test]
    fn sampled_reads_match_the_level_oracle() {
        let genome = GenomeModel::uniform().generate(8_192, 41);
        let packed_ref = PackedRef::new(&genome);
        for width in [64usize, 128, 256] {
            for (profile, band) in [
                (ErrorProfile::condition_a(), 14usize),
                (ErrorProfile::condition_b(), 18),
            ] {
                let reads = ReadSampler::new(width, profile).sample_many(&genome, 48, width as u64);
                let mut aligned = 0;
                for (k, read) in reads.iter().enumerate() {
                    let packed = PackedSeq::from_seq(&read.bases);
                    let at = read.origin.min(genome.len() - width);
                    let [kernel, oracle] =
                        against_oracle(&packed, &packed_ref.segment(at, width), band);
                    assert_eq!(kernel, oracle, "width {width}, read {k} at {at}");
                    aligned += usize::from(kernel.is_some());
                    let decoy =
                        packed_ref.segment((at + 2_011 + k) % (genome.len() - width), width);
                    let [kernel, oracle] = against_oracle(&packed, &decoy, band);
                    assert_eq!(kernel, oracle, "width {width}, decoy {k}");
                }
                assert!(
                    aligned >= 40,
                    "width {width}: only {aligned} of 48 reads aligned"
                );
            }
        }
    }

    fn seq(s: &str) -> PackedSeq {
        PackedSeq::from_seq(&s.parse::<DnaSeq>().expect("valid test sequence"))
    }

    fn check(a: &str, b: &str, limit: usize) -> Option<(usize, String)> {
        let (pa, pb) = (seq(a), seq(b));
        align_packed(&pa, &pb, limit).map(|(score, cigar)| {
            assert_eq!(
                cigar.check_replay(&pa, &pb),
                Some(score),
                "cigar {cigar} does not replay {a} vs {b} at cost {score}"
            );
            (score, cigar.to_string())
        })
    }

    #[test]
    fn identical_reads_are_all_match() {
        assert_eq!(check("ACGTACGT", "ACGTACGT", 0), Some((0, "8=".into())));
    }

    #[test]
    fn single_edits_have_exact_transcripts() {
        assert_eq!(check("ACGT", "AGGT", 2), Some((1, "1=1X2=".into())));
        assert_eq!(check("ACGT", "ACGGT", 2), Some((1, "2=1D2=".into())));
        assert_eq!(check("ACGT", "AGT", 2), Some((1, "1=1I2=".into())));
    }

    #[test]
    fn band_rejection_mirrors_the_banded_distance() {
        assert_eq!(check("AAAA", "TTTT", 3), None);
        assert_eq!(check("AAAA", "TTTT", 4), Some((4, "4X".into())));
        // Length-difference pruning fires before any DP work.
        assert_eq!(check("AAAA", "AAAAAAAAAA", 3), None);
    }

    #[test]
    fn empty_operands_are_pure_gap_runs() {
        assert_eq!(check("", "", 0), Some((0, "*".into())));
        assert_eq!(check("ACG", "", 3), Some((3, "3I".into())));
        assert_eq!(check("", "ACG", 3), Some((3, "3D".into())));
        assert_eq!(check("ACG", "", 2), None);
    }

    #[test]
    fn oversized_limit_is_clamped_not_overallocated() {
        assert_eq!(check("ACGT", "TGCA", usize::MAX), Some((4, "4X".into())));
    }

    #[test]
    fn cigar_accessors_agree_with_the_transcript() {
        let (pa, pb) = (seq("ACGTACGT"), seq("ACGAAACGT"));
        let (score, cigar) = align_packed(&pa, &pb, 4).expect("within band");
        assert_eq!(cigar.cost(), score);
        assert_eq!(cigar.read_len(), 8);
        assert_eq!(cigar.ref_len(), 9);
        assert_eq!(
            cigar.ops_len(),
            cigar.runs().iter().map(|&(_, n)| n as usize).sum()
        );
        assert!(!cigar.is_empty());
    }

    #[test]
    fn replay_rejects_forged_transcripts() {
        let (pa, pb) = (seq("ACGT"), seq("ACGT"));
        // Wrong op kind: claims a substitution where bases match.
        let forged = Cigar::from_ops(&[
            AlignOp::Substitute,
            AlignOp::Match,
            AlignOp::Match,
            AlignOp::Match,
        ]);
        assert_eq!(forged.check_replay(&pa, &pb), None);
        // Wrong length: leaves a reference base unconsumed.
        let short = Cigar::from_ops(&[AlignOp::Match; 3]);
        assert_eq!(short.check_replay(&pa, &pb), None);
        // Overruns the read.
        let long = Cigar::from_ops(&[AlignOp::Match; 5]);
        assert_eq!(long.check_replay(&pa, &pb), None);
    }

    /// Deterministic sweep of every length 1..=256: mutate a window of the
    /// genome, align packed, and pin score == scalar DP + exact replay.
    /// Word-straddling reference views are covered via `PackedRef::segment`
    /// at odd offsets.
    #[test]
    fn packed_matches_scalar_dp_on_all_lengths_to_256() {
        let genome = GenomeModel::uniform().generate(1_024, 77);
        let packed_ref = PackedRef::new(&genome);
        for len in 1..=256usize {
            let offset = (len * 7) % 96 + 1; // odd, word-straddling offsets
            let read_bases: Vec<Base> = genome.as_slice()[offset..offset + len]
                .iter()
                .enumerate()
                .map(|(i, &b)| if i % 37 == 5 { b.substituted(1) } else { b })
                .collect();
            let read = PackedSeq::from_bases(&read_bases);
            let view = packed_ref.segment(offset, len);
            let expected = edit_distance(&read_bases, &genome.as_slice()[offset..offset + len]);
            let (score, cigar) = align_packed(&read, &view, len).expect("distance is within len");
            assert_eq!(score, expected, "len={len} offset={offset}");
            assert_eq!(
                cigar.check_replay(&read, &view),
                Some(score),
                "len={len} offset={offset}: {cigar}"
            );
        }
    }

    fn arbitrary_bases(max_len: usize) -> impl Strategy<Value = Vec<Base>> {
        proptest::collection::vec(0u8..4, 0..max_len)
            .prop_map(|codes| codes.into_iter().map(Base::from_code).collect())
    }

    proptest! {
        /// Score equals the scalar DP (None exactly when beyond the limit)
        /// and every emitted CIGAR replays at exactly the claimed cost.
        #[test]
        fn prop_score_and_replay_match_scalar(
            a in arbitrary_bases(96),
            b in arbitrary_bases(96),
            limit in 0usize..24,
        ) {
            let pa = PackedSeq::from_bases(&a);
            let pb = PackedSeq::from_bases(&b);
            let full = edit_distance(&a, &b);
            match align_packed(&pa, &pb, limit) {
                Some((score, cigar)) => {
                    prop_assert!(full <= limit);
                    prop_assert_eq!(score, full);
                    prop_assert_eq!(cigar.check_replay(&pa, &pb), Some(score));
                    prop_assert_eq!(cigar.read_len(), a.len());
                    prop_assert_eq!(cigar.ref_len(), b.len());
                }
                None => prop_assert!(full > limit),
            }
        }

        /// Word-straddling `SegmentView` operands behave exactly like owned
        /// packings of the same bases.
        #[test]
        fn prop_straddling_views_equal_owned_packings(
            start in 0usize..192,
            width in 1usize..200,
            edits in 0usize..6,
        ) {
            let genome = GenomeModel::uniform().generate(512, 11);
            let packed_ref = PackedRef::new(&genome);
            let mut read_bases: Vec<Base> =
                genome.as_slice()[start..start + width].to_vec();
            for e in 0..edits.min(width) {
                let at = (e * 31) % width;
                read_bases[at] = read_bases[at].substituted((e % 3) as u8 + 1);
            }
            let read = PackedSeq::from_bases(&read_bases);
            let view = packed_ref.segment(start, width);
            let owned = PackedSeq::from_bases(&genome.as_slice()[start..start + width]);
            let via_view = align_packed(&read, &view, width);
            let via_owned = align_packed(&read, &owned, width);
            prop_assert_eq!(via_view.clone(), via_owned);
            let (score, cigar) = via_view.expect("distance bounded by width");
            prop_assert_eq!(score, edit_distance(&read_bases, &genome.as_slice()[start..start + width]));
            prop_assert_eq!(cigar.check_replay(&read, &view), Some(score));
        }

        /// The packed traceback agrees with the scalar full-matrix
        /// traceback on cost, and both replay (op scripts may differ in
        /// tie-breaking, costs may not).
        #[test]
        fn prop_packed_and_scalar_tracebacks_cost_the_same(
            a in arbitrary_bases(64),
            b in arbitrary_bases(64),
        ) {
            let (scalar_score, scalar_cigar) = align_bases(&a, &b);
            let pa = PackedSeq::from_bases(&a);
            let pb = PackedSeq::from_bases(&b);
            let (packed_score, packed_cigar) =
                align_packed(&pa, &pb, a.len().max(b.len()))
                    .expect("distance bounded by max length");
            prop_assert_eq!(packed_score, scalar_score);
            prop_assert_eq!(scalar_cigar.check_replay(&pa, &pb), Some(scalar_score));
            prop_assert_eq!(packed_cigar.check_replay(&pa, &pb), Some(packed_score));
        }
    }
}
