//! Levenshtein edit distance — the paper's ground-truth metric.
//!
//! Three interchangeable implementations are provided and cross-checked by
//! property tests:
//!
//! * [`edit_distance`] — textbook two-row dynamic programming, `O(mn)`;
//! * [`edit_distance_banded`] — Ukkonen's threshold-banded DP, `O(m·T)`,
//!   which is what the CM-CPU baseline runs;
//! * [`edit_distance_myers`] — Myers/Hyyrö bit-parallel DP, `O(n·⌈m/64⌉)`.
//!
//! The paper compares a read against a reference *segment in context*: end
//! gaps on the reference are free (Fig. 2's third example has ED = 1, which
//! only holds if the reference continues past the stored segment). The
//! [`anchored_semi_global`] family implements exactly that convention and is
//! used as ground truth by the evaluation harness.

use asmcap_genome::{Base, PackedWords};

/// Global Levenshtein distance between `a` and `b` (two-row DP).
///
/// # Examples
///
/// ```
/// use asmcap_genome::DnaSeq;
/// let a: DnaSeq = "AGCTGAGA".parse()?;
/// let b: DnaSeq = "ATCTGCGA".parse()?;
/// assert_eq!(asmcap_metrics::edit_distance(a.as_slice(), b.as_slice()), 2);
/// # Ok::<(), asmcap_genome::base::ParseBaseError>(())
/// ```
#[must_use]
pub fn edit_distance(a: &[Base], b: &[Base]) -> usize {
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut previous: Vec<usize> = (0..=b.len()).collect();
    let mut current = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        current[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let substitution = previous[j] + usize::from(ca != cb);
            let deletion = previous[j + 1] + 1;
            let insertion = current[j] + 1;
            current[j + 1] = substitution.min(deletion).min(insertion);
        }
        std::mem::swap(&mut previous, &mut current);
    }
    previous[b.len()]
}

/// Banded Levenshtein distance with early exit: returns `Some(d)` if
/// `d ≤ limit`, `None` otherwise, in `O(max(m, n) · limit)` time.
///
/// This is Ukkonen's band restriction: only diagonals within `limit` of the
/// main diagonal can contribute to a distance `≤ limit`.
///
/// # Examples
///
/// ```
/// use asmcap_genome::DnaSeq;
/// let a: DnaSeq = "ACGTACGT".parse()?;
/// let b: DnaSeq = "ACGAACGT".parse()?;
/// assert_eq!(asmcap_metrics::edit_distance_banded(a.as_slice(), b.as_slice(), 3), Some(1));
/// assert_eq!(asmcap_metrics::edit_distance_banded(a.as_slice(), b.as_slice(), 0), None);
/// # Ok::<(), asmcap_genome::base::ParseBaseError>(())
/// ```
#[must_use]
pub fn edit_distance_banded(a: &[Base], b: &[Base], limit: usize) -> Option<usize> {
    banded_core(a.len(), b.len(), limit, |i| a[i].code(), |j| b[j].code())
}

/// The one banded-DP core both representations share: Ukkonen's band with
/// early exit over base codes produced by the two accessors (`a_code(i)` =
/// row base `i`, `b_code(j)` = column base `j`). The accessors inline, so
/// the slice and packed entry points compile to the same loop.
fn banded_core(
    m: usize,
    n: usize,
    limit: usize,
    a_code: impl Fn(usize) -> u8,
    b_code: impl Fn(usize) -> u8,
) -> Option<usize> {
    if m.abs_diff(n) > limit {
        return None;
    }
    if m == 0 || n == 0 {
        let d = m.max(n);
        return (d <= limit).then_some(d);
    }
    const INF: usize = usize::MAX / 2;
    let mut previous = vec![INF; n + 1];
    let mut current = vec![INF; n + 1];
    for (j, cell) in previous.iter_mut().enumerate().take(limit.min(n) + 1) {
        *cell = j;
    }
    for i in 0..m {
        let ca = a_code(i);
        let row = i + 1;
        let lo = row.saturating_sub(limit);
        let hi = (row + limit).min(n);
        if lo > hi {
            return None;
        }
        current[lo.saturating_sub(1)] = INF;
        let mut row_min = INF;
        for j in lo..=hi {
            let value = if j == 0 {
                row
            } else {
                let cb = b_code(j - 1);
                let substitution = previous[j - 1].saturating_add(usize::from(ca != cb));
                let deletion = previous[j].saturating_add(1);
                let insertion = current[j - 1].saturating_add(1);
                substitution.min(deletion).min(insertion)
            };
            current[j] = value;
            row_min = row_min.min(value);
        }
        if hi < n {
            current[hi + 1] = INF;
        }
        if row_min > limit {
            return None;
        }
        std::mem::swap(&mut previous, &mut current);
    }
    let d = previous[n];
    (d <= limit).then_some(d)
}

/// [`edit_distance_banded`] over 2-bit packed operands: identical band,
/// early exit, and result, with each base code read straight out of the
/// packed words — no byte-per-base unpacking anywhere. This is what lets
/// the CM-CPU baseline score pre-packed evaluation pairs without a decode
/// pass (see `asmcap-baselines`).
///
/// # Examples
///
/// ```
/// use asmcap_genome::{DnaSeq, PackedSeq};
/// let a = PackedSeq::from_seq(&"ACGTACGT".parse::<DnaSeq>()?);
/// let b = PackedSeq::from_seq(&"ACGAACGT".parse::<DnaSeq>()?);
/// assert_eq!(asmcap_metrics::edit::edit_distance_banded_packed(&a, &b, 3), Some(1));
/// assert_eq!(asmcap_metrics::edit::edit_distance_banded_packed(&a, &b, 0), None);
/// # Ok::<(), asmcap_genome::base::ParseBaseError>(())
/// ```
#[must_use]
pub fn edit_distance_banded_packed<A: PackedWords, B: PackedWords>(
    a: &A,
    b: &B,
    limit: usize,
) -> Option<usize> {
    // Base code at lane `i` of a packing (two bits, no unpack).
    #[inline]
    fn lane<S: PackedWords>(seq: &S, i: usize) -> u8 {
        ((seq.word(i / 32) >> (2 * (i % 32))) & 0b11) as u8
    }
    banded_core(a.len(), b.len(), limit, |i| lane(a, i), |j| lane(b, j))
}

/// Per-base match masks for the bit-parallel kernels: `peq[word][code]` has
/// bit `i % 64` set iff pattern base `i` has that 2-bit code.
pub(crate) fn build_peq(codes: impl IntoIterator<Item = u8>) -> Vec<[u64; 4]> {
    let mut peq: Vec<[u64; 4]> = Vec::new();
    for (i, code) in codes.into_iter().enumerate() {
        if i % 64 == 0 {
            peq.push([0; 4]);
        }
        peq[i / 64][usize::from(code)] |= 1u64 << (i % 64);
    }
    peq
}

/// One pattern word of a Myers/Hyyrö DP column: bit `r` of each field
/// describes row `i = 64·w + r + 1` of text column `j`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ColumnDeltas {
    /// `D(i, j) − D(i−1, j) = +1`.
    pub(crate) pv: u64,
    /// `D(i, j) − D(i−1, j) = −1`.
    pub(crate) mv: u64,
    /// `D(i, j) − D(i, j−1) = +1` (the horizontal word before its shift).
    pub(crate) ph: u64,
    /// `D(i, j) − D(i, j−1) = −1`.
    pub(crate) mh: u64,
}

impl ColumnDeltas {
    /// Column 0, `D(i, 0) = i`: every vertical delta is +1, and there is no
    /// column to its left.
    pub(crate) const FIRST: Self = Self {
        pv: !0,
        mv: 0,
        ph: 0,
        mh: 0,
    };
}

/// The Myers/Hyyrö bit-parallel column step, the one core every
/// bit-parallel kernel here shares: from column `j − 1`'s deltas in `prev`
/// to column `j`'s in `next`, for an `m`-base pattern with match masks
/// `peq` (see [`build_peq`]) against text base `code`. Returns
/// `D(m, j) − D(m, j−1)`.
#[inline]
pub(crate) fn myers_step(
    peq: &[[u64; 4]],
    m: usize,
    code: u8,
    prev: &[ColumnDeltas],
    next: &mut [ColumnDeltas],
) -> isize {
    debug_assert!(m > 0 && peq.len() == m.div_ceil(64));
    let last_bit = (m - 1) % 64;
    let mut last_delta = 0;
    // Horizontal delta entering the top row; +1 because the first row of
    // the global matrix is 0,1,2,... (this is what distinguishes the
    // distance variant from Myers' search variant).
    let mut hin: i32 = 1;
    for ((masks, from), to) in peq.iter().zip(prev).zip(next.iter_mut()) {
        let (pv, mv) = (from.pv, from.mv);
        let eq0 = masks[usize::from(code)];
        let xv = eq0 | mv;
        let eq = eq0 | u64::from(hin < 0);
        let xh = (((eq & pv).wrapping_add(pv)) ^ pv) | eq;
        let ph = mv | !(xh | pv);
        let mh = pv & xh;
        last_delta = ((ph >> last_bit) & 1) as isize - ((mh >> last_bit) & 1) as isize;
        let hout: i32 = i32::from((ph >> 63) & 1 == 1) - i32::from((mh >> 63) & 1 == 1);
        let ph_in = (ph << 1) | u64::from(hin > 0);
        let mh_in = (mh << 1) | u64::from(hin < 0);
        *to = ColumnDeltas {
            pv: mh_in | !(xv | ph_in),
            mv: ph_in & xv,
            ph,
            mh,
        };
        hin = hout;
    }
    last_delta
}

/// Runs [`myers_step`] over the whole text for pattern `a`, invoking
/// `visit` with `D[m][j]` after every text position `j` (1-based). Returns
/// the final score `D[m][n]`.
fn myers_columns(a: &[Base], b: &[Base], mut visit: impl FnMut(usize)) -> usize {
    let peq = build_peq(codes(a));
    let mut prev = vec![ColumnDeltas::FIRST; peq.len()];
    let mut next = prev.clone();
    let mut score = a.len();
    for code in codes(b) {
        score = score.wrapping_add_signed(myers_step(&peq, a.len(), code, &prev, &mut next));
        std::mem::swap(&mut prev, &mut next);
        visit(score);
    }
    score
}

/// Global Levenshtein distance via the Myers/Hyyrö bit-parallel algorithm.
///
/// Identical results to [`edit_distance`] at roughly 64 DP cells per machine
/// word; this is the kernel the CM-CPU baseline's throughput model is
/// calibrated against.
#[must_use]
pub fn edit_distance_myers(a: &[Base], b: &[Base]) -> usize {
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    myers_columns(a, b, |_| {})
}

/// The 2-bit codes of a base slice.
fn codes(bases: &[Base]) -> impl Iterator<Item = u8> + '_ {
    bases.iter().map(|base| base.code())
}

/// Anchored semi-global distance: `read` must align end-to-end, starting at
/// `reference[0]`, but any unconsumed reference suffix is free.
///
/// Formally `min_j D[m][j]` of the global DP matrix. This is the paper's ED
/// convention for read-vs-segment comparison (Fig. 2) and the ground truth
/// used by the Fig. 7 evaluation: pass the stored segment *plus* a few
/// context bases as `reference`.
///
/// # Examples
///
/// ```
/// use asmcap_genome::DnaSeq;
/// // Fig. 2, third example: reference AGCTGAGA followed by context base A.
/// let read: DnaSeq = "AGTGAGAA".parse()?;
/// let reference: DnaSeq = "AGCTGAGAA".parse()?;
/// assert_eq!(
///     asmcap_metrics::edit::anchored_semi_global(read.as_slice(), reference.as_slice()),
///     1,
/// );
/// # Ok::<(), asmcap_genome::base::ParseBaseError>(())
/// ```
#[must_use]
pub fn anchored_semi_global(read: &[Base], reference: &[Base]) -> usize {
    if read.is_empty() {
        return 0; // empty read aligns for free anywhere
    }
    let mut best = read.len(); // D[m][0]
    myers_columns(read, reference, |score| best = best.min(score));
    best
}

/// One operation of a pairwise alignment, from `a` (rows) to `b` (columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlignOp {
    /// `a[i] == b[j]`.
    Match,
    /// `a[i] != b[j]`, substituted.
    Substitute,
    /// Base present in `a` but not `b`.
    Insert,
    /// Base present in `b` but not `a`.
    Delete,
}

/// A full global alignment: distance plus operation script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alignment {
    /// The Levenshtein distance.
    pub distance: usize,
    /// Alignment operations from the start of both sequences to the end.
    pub ops: Vec<AlignOp>,
}

impl Alignment {
    /// Renders the script as a CIGAR-like string (`=`, `X`, `I`, `D`).
    #[must_use]
    pub fn cigar(&self) -> String {
        let mut out = String::new();
        let mut iter = self.ops.iter().peekable();
        while let Some(op) = iter.next() {
            let mut count = 1usize;
            while iter.peek() == Some(&op) {
                iter.next();
                count += 1;
            }
            let symbol = match op {
                AlignOp::Match => '=',
                AlignOp::Substitute => 'X',
                AlignOp::Insert => 'I',
                AlignOp::Delete => 'D',
            };
            out.push_str(&count.to_string());
            out.push(symbol);
        }
        out
    }
}

/// Computes a full global alignment with traceback (`O(mn)` space).
///
/// Used by the CM-CPU/ReSMA baselines and the read-mapping example to report
/// how a read aligns, not just how far it is.
///
/// # Examples
///
/// ```
/// use asmcap_genome::DnaSeq;
/// let a: DnaSeq = "ACGT".parse()?;
/// let b: DnaSeq = "AGGT".parse()?;
/// let alignment = asmcap_metrics::edit::align(a.as_slice(), b.as_slice());
/// assert_eq!(alignment.distance, 1);
/// assert_eq!(alignment.cigar(), "1=1X2=");
/// # Ok::<(), asmcap_genome::base::ParseBaseError>(())
/// ```
#[must_use]
pub fn align(a: &[Base], b: &[Base]) -> Alignment {
    let m = a.len();
    let n = b.len();
    let width = n + 1;
    let mut table = vec![0usize; (m + 1) * width];
    for (j, cell) in table.iter_mut().enumerate().take(width) {
        *cell = j;
    }
    for i in 1..=m {
        table[i * width] = i;
        for j in 1..=n {
            let substitution = table[(i - 1) * width + j - 1] + usize::from(a[i - 1] != b[j - 1]);
            let deletion = table[(i - 1) * width + j] + 1;
            let insertion = table[i * width + j - 1] + 1;
            table[i * width + j] = substitution.min(deletion).min(insertion);
        }
    }
    let mut ops = Vec::with_capacity(m.max(n));
    let (mut i, mut j) = (m, n);
    while i > 0 || j > 0 {
        let here = table[i * width + j];
        if i > 0 && j > 0 {
            let diag = table[(i - 1) * width + j - 1];
            let matched = a[i - 1] == b[j - 1];
            if here == diag + usize::from(!matched) {
                ops.push(if matched {
                    AlignOp::Match
                } else {
                    AlignOp::Substitute
                });
                i -= 1;
                j -= 1;
                continue;
            }
        }
        if i > 0 && here == table[(i - 1) * width + j] + 1 {
            ops.push(AlignOp::Insert);
            i -= 1;
        } else {
            ops.push(AlignOp::Delete);
            j -= 1;
        }
    }
    ops.reverse();
    Alignment {
        distance: table[m * width + n],
        ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asmcap_genome::DnaSeq;
    use proptest::prelude::*;

    fn seq(s: &str) -> DnaSeq {
        s.parse().expect("valid test sequence")
    }

    fn ed(a: &str, b: &str) -> usize {
        edit_distance(seq(a).as_slice(), seq(b).as_slice())
    }

    #[test]
    fn identical_is_zero() {
        assert_eq!(ed("ACGTACGT", "ACGTACGT"), 0);
    }

    #[test]
    fn empty_cases() {
        assert_eq!(ed("", "ACGT"), 4);
        assert_eq!(ed("ACGT", ""), 4);
        assert_eq!(ed("", ""), 0);
    }

    #[test]
    fn single_edits() {
        assert_eq!(ed("ACGT", "AGGT"), 1); // substitution
        assert_eq!(ed("ACGT", "ACGGT"), 1); // insertion
        assert_eq!(ed("ACGT", "AGT"), 1); // deletion
    }

    #[test]
    fn fig2_global_distances() {
        // Fig. 2 examples computed as global distances.
        assert_eq!(ed("AGCTGAGA", "ATCTGCGA"), 2);
    }

    #[test]
    fn fig2_semi_global_distances() {
        // Second example: read AGCATGAG vs reference AGCTGAGA; the trailing
        // reference base is unconsumed and free -> ED = 1.
        assert_eq!(
            anchored_semi_global(seq("AGCATGAG").as_slice(), seq("AGCTGAGA").as_slice()),
            1
        );
        // Third example: read AGTGAGAA vs reference AGCTGAGA plus one context
        // base 'A' -> a single deletion, ED = 1.
        assert_eq!(
            anchored_semi_global(seq("AGTGAGAA").as_slice(), seq("AGCTGAGAA").as_slice()),
            1
        );
        // First example is substitution-only, so the conventions agree.
        assert_eq!(
            anchored_semi_global(seq("ATCTGCGA").as_slice(), seq("AGCTGAGA").as_slice()),
            2
        );
    }

    #[test]
    fn banded_matches_full_within_limit() {
        let a = seq("ACGTACGTTTAGCAT");
        let b = seq("ACGAACGTTTGGCAT");
        let full = edit_distance(a.as_slice(), b.as_slice());
        assert_eq!(
            edit_distance_banded(a.as_slice(), b.as_slice(), 10),
            Some(full)
        );
    }

    #[test]
    fn banded_rejects_beyond_limit() {
        let a = seq("AAAAAAAA");
        let b = seq("TTTTTTTT");
        assert_eq!(edit_distance_banded(a.as_slice(), b.as_slice(), 3), None);
    }

    #[test]
    fn banded_length_difference_pruning() {
        let a = seq("AAAA");
        let b = seq("AAAAAAAAAA");
        assert_eq!(edit_distance_banded(a.as_slice(), b.as_slice(), 3), None);
        assert_eq!(edit_distance_banded(a.as_slice(), b.as_slice(), 6), Some(6));
    }

    #[test]
    fn banded_packed_matches_banded_on_slices() {
        use asmcap_genome::{PackedRef, PackedSeq};
        let genome = asmcap_genome::GenomeModel::uniform().generate(500, 9);
        let packed_ref = PackedRef::new(&genome);
        for (a_start, b_start, width, limit) in [
            (0usize, 0usize, 100usize, 5usize),
            (0, 5, 100, 8),
            (17, 221, 128, 4),
            (33, 33, 64, 0),
            (1, 300, 97, 16),
        ] {
            let a_slice = &genome.as_slice()[a_start..a_start + width];
            let b_slice = &genome.as_slice()[b_start..b_start + width];
            // Both an owned packing and a word-straddling view.
            let a_packed = PackedSeq::from_bases(a_slice);
            let b_view = packed_ref.segment(b_start, width);
            assert_eq!(
                edit_distance_banded_packed(&a_packed, &b_view, limit),
                edit_distance_banded(a_slice, b_slice, limit),
                "a={a_start} b={b_start} w={width} T={limit}"
            );
        }
        // Degenerate shapes.
        let empty = PackedSeq::default();
        assert_eq!(edit_distance_banded_packed(&empty, &empty, 0), Some(0));
        let four = PackedSeq::from_seq(&seq("ACGT"));
        assert_eq!(edit_distance_banded_packed(&empty, &four, 3), None);
        assert_eq!(edit_distance_banded_packed(&empty, &four, 4), Some(4));
    }

    #[test]
    fn myers_handles_multiword_patterns() {
        // 200-base pattern spans four 64-bit words.
        let a = asmcap_genome::GenomeModel::uniform().generate(200, 1);
        let mut bases = a.clone().into_bases();
        bases[50] = bases[50].substituted(0);
        bases.remove(120);
        bases.push(asmcap_genome::Base::A);
        let b = DnaSeq::from_bases(bases);
        assert_eq!(
            edit_distance_myers(a.as_slice(), b.as_slice()),
            edit_distance(a.as_slice(), b.as_slice())
        );
    }

    #[test]
    fn anchored_semi_global_is_bounded_by_global() {
        let read = seq("ACGTACGT");
        let reference = seq("ACGTACGTTTTT");
        let semi = anchored_semi_global(read.as_slice(), reference.as_slice());
        let global = edit_distance(read.as_slice(), reference.as_slice());
        assert!(semi <= global);
        assert_eq!(semi, 0);
    }

    #[test]
    fn align_reports_script() {
        let alignment = align(seq("ACGT").as_slice(), seq("ACT").as_slice());
        assert_eq!(alignment.distance, 1);
        assert_eq!(
            alignment
                .ops
                .iter()
                .filter(|o| **o == AlignOp::Insert)
                .count(),
            1
        );
        let alignment = align(seq("ACT").as_slice(), seq("ACGT").as_slice());
        assert_eq!(alignment.cigar(), "2=1D1=");
    }

    #[test]
    fn align_distance_matches_edit_distance() {
        let a = seq("GATTACAGATTACA");
        let b = seq("GCTTACAGATTAA");
        let alignment = align(a.as_slice(), b.as_slice());
        assert_eq!(
            alignment.distance,
            edit_distance(a.as_slice(), b.as_slice())
        );
    }

    fn arbitrary_seq(max_len: usize) -> impl Strategy<Value = DnaSeq> {
        proptest::collection::vec(0u8..4, 0..max_len)
            .prop_map(|codes| codes.into_iter().map(Base::from_code).collect())
    }

    use asmcap_genome::Base;

    proptest! {
        #[test]
        fn prop_myers_matches_dp(a in arbitrary_seq(180), b in arbitrary_seq(180)) {
            prop_assert_eq!(
                edit_distance_myers(a.as_slice(), b.as_slice()),
                edit_distance(a.as_slice(), b.as_slice())
            );
        }

        #[test]
        fn prop_banded_matches_dp(a in arbitrary_seq(60), b in arbitrary_seq(60), limit in 0usize..20) {
            let full = edit_distance(a.as_slice(), b.as_slice());
            let banded = edit_distance_banded(a.as_slice(), b.as_slice(), limit);
            if full <= limit {
                prop_assert_eq!(banded, Some(full));
            } else {
                prop_assert_eq!(banded, None);
            }
        }

        #[test]
        fn prop_triangle_inequality(
            a in arbitrary_seq(40),
            b in arbitrary_seq(40),
            c in arbitrary_seq(40)
        ) {
            let ab = edit_distance(a.as_slice(), b.as_slice());
            let bc = edit_distance(b.as_slice(), c.as_slice());
            let ac = edit_distance(a.as_slice(), c.as_slice());
            prop_assert!(ac <= ab + bc);
        }

        #[test]
        fn prop_symmetry_and_identity(a in arbitrary_seq(60), b in arbitrary_seq(60)) {
            prop_assert_eq!(
                edit_distance(a.as_slice(), b.as_slice()),
                edit_distance(b.as_slice(), a.as_slice())
            );
            prop_assert_eq!(edit_distance(a.as_slice(), a.as_slice()), 0);
        }

        #[test]
        fn prop_ed_bounded_by_hamming(pairs in proptest::collection::vec((0u8..4, 0u8..4), 0..120)) {
            let a: DnaSeq = pairs.iter().map(|&(x, _)| Base::from_code(x)).collect();
            let b: DnaSeq = pairs.iter().map(|&(_, y)| Base::from_code(y)).collect();
            let hd = crate::hamming(a.as_slice(), b.as_slice());
            prop_assert!(edit_distance(a.as_slice(), b.as_slice()) <= hd);
        }

        #[test]
        fn prop_align_ops_replay(a in arbitrary_seq(50), b in arbitrary_seq(50)) {
            let alignment = align(a.as_slice(), b.as_slice());
            // Ops must consume exactly |a| rows and |b| columns.
            let rows: usize = alignment.ops.iter()
                .filter(|o| !matches!(o, AlignOp::Delete)).count();
            let cols: usize = alignment.ops.iter()
                .filter(|o| !matches!(o, AlignOp::Insert)).count();
            prop_assert_eq!(rows, a.len());
            prop_assert_eq!(cols, b.len());
            let cost = alignment.ops.iter()
                .filter(|o| !matches!(o, AlignOp::Match)).count();
            prop_assert_eq!(cost, alignment.distance);
        }
    }
}
