//! Word-parallel ED\* and Hamming kernels over 2-bit packed sequences.
//!
//! An ASMCap cell compares its stored base against the co-located read base
//! and the two neighbours (paper Fig. 4c). On a 2-bit packing that is three
//! lane-wise comparisons per 64-bit word — the centre XOR plus the read
//! shifted one lane up (left neighbour) and one lane down (right
//! neighbour) — so one loop iteration evaluates 32 cells:
//!
//! ```text
//! lane mismatch(x, y) = ((x ^ y) | ((x ^ y) >> 1)) & 0x5555…   (per 2-bit lane)
//! ED*  cell mismatch  = centre ∧ left ∧ right                  (no partial match)
//! HD   cell mismatch  = centre
//! n_mis               = Σ popcount
//! ```
//!
//! # Lane dispatch
//!
//! Since PR 5 the kernels are **multi-lane**: every public kernel resolves
//! its operands to contiguous word slices (zero-copy through
//! [`PackedWords::as_word_slice`] for owned packings and word-aligned
//! views; a one-time stack gather for shifted segment views) and hands them
//! to one of two interchangeable inner loops that both produce the shifted
//! neighbour words in registers:
//!
//! * **SWAR** — a portable 4×u64 unroll, the always-on baseline on every
//!   architecture;
//! * **AVX2** — 4 words (128 cells) per 256-bit vector iteration, with the
//!   cross-word neighbour carries routed by `vpermq` and popcount by the
//!   nibble-LUT `vpshufb` + `vpsadbw` reduction. Compiled behind the `simd`
//!   cargo feature (default on) and selected at runtime via
//!   `is_x86_feature_detected!`.
//!
//! Both loops compute exact integer popcounts, so dispatch never changes a
//! result: SIMD on/off is **byte-identical**, pinned by the property tests
//! below and by `tests/properties.rs`. The pre-PR 5 single-word loop is
//! retained as [`ed_star_packed_scalar`] / [`hamming_packed_scalar`] /
//! [`ed_star_hamming_packed_scalar`] — the readable reference the lane
//! paths are pinned against (and the benchmark baseline).
//!
//! Boundary cells keep the paper's semantics: cell 0 has no left searchline
//! pair and cell `N−1` no right pair, so those comparisons are forced to
//! mismatch. All kernels return the exact `n_mis` the scalar
//! [`crate::ed_star`] / [`crate::hamming()`] walks produce — pinned by
//! property tests here and by the backend-equivalence suite — and run on
//! anything implementing [`PackedWords`]: owned [`asmcap_genome::PackedSeq`]s or zero-copy
//! [`asmcap_genome::SegmentView`]s of a packed reference.

use asmcap_genome::PackedWords;

/// The 2-bit lane mask (low bit of every lane).
const LANE_LOW: u64 = 0x5555_5555_5555_5555;

/// Words gathered on the stack before spilling to the heap: 16 words =
/// 512 bases, comfortably above the 256-base CAM rows the backends search.
const INLINE_WORDS: usize = 16;

/// Per-lane mismatch mask: bit `2i` is set iff lane `i` of `x` and `y`
/// differ in either bit.
#[inline]
fn lane_neq(x: u64, y: u64) -> u64 {
    let d = x ^ y;
    (d | (d >> 1)) & LANE_LOW
}

/// Bit marking the last occupied lane of the final word — the cell `N−1`
/// whose right comparison is forced to mismatch.
#[inline]
fn last_lane_bit(n: usize) -> u64 {
    1u64 << (2 * ((n - 1) % 32))
}

/// Runs `f` on the operand's words as one contiguous slice: zero-copy for
/// contiguous packings ([`PackedWords::as_word_slice`]), a one-time gather
/// into a stack (or, beyond [`INLINE_WORDS`], heap) buffer for shifted
/// segment views.
#[inline]
fn with_words<S: PackedWords, T>(seq: &S, f: impl FnOnce(&[u64]) -> T) -> T {
    if let Some(words) = seq.as_word_slice() {
        return f(words);
    }
    let n_words = seq.n_words();
    if n_words <= INLINE_WORDS {
        let mut buf = [0u64; INLINE_WORDS];
        for (i, slot) in buf[..n_words].iter_mut().enumerate() {
            *slot = seq.word(i);
        }
        f(&buf[..n_words])
    } else {
        let buf: Vec<u64> = (0..n_words).map(|i| seq.word(i)).collect();
        f(&buf)
    }
}

/// One word of the ED\* cell-mismatch mask, with the read's neighbour words
/// supplied by the caller and the boundary fix-ups already applied to
/// `left_fix` / `right_fix` (OR-ed into the respective comparison masks).
#[inline]
fn cell_mis(s: u64, r: u64, prev: u64, next: u64, left_fix: u64, right_fix: u64) -> u64 {
    let centre = lane_neq(s, r);
    let left = lane_neq(s, (r << 2) | (prev >> 62)) | left_fix;
    let right = lane_neq(s, (r >> 2) | (next << 62)) | right_fix;
    centre & left & right
}

/// The portable SWAR lane loops: 4 × u64 per unrolled iteration with the
/// neighbour words kept in registers, exact integer popcounts, no
/// architecture requirements. This is the always-on baseline the AVX2 path
/// must agree with bit for bit.
mod swar {
    use super::{cell_mis, lane_neq, last_lane_bit};

    pub(super) fn ed_star(s: &[u64], r: &[u64], n: usize) -> u32 {
        let n_words = s.len();
        let last_bit = last_lane_bit(n);
        if n_words == 1 {
            return cell_mis(s[0], r[0], 0, 0, 1, last_bit).count_ones();
        }
        // Both boundary words are peeled, so the interior loop is fully
        // branch-free and the 4×u64 unroll carries no fix-up state.
        let last = n_words - 1;
        let mut star = cell_mis(s[0], r[0], 0, r[1], 1, 0).count_ones();
        let mut i = 1;
        while i + 4 <= last {
            star += cell_mis(s[i], r[i], r[i - 1], r[i + 1], 0, 0).count_ones()
                + cell_mis(s[i + 1], r[i + 1], r[i], r[i + 2], 0, 0).count_ones()
                + cell_mis(s[i + 2], r[i + 2], r[i + 1], r[i + 3], 0, 0).count_ones()
                + cell_mis(s[i + 3], r[i + 3], r[i + 2], r[i + 4], 0, 0).count_ones();
            i += 4;
        }
        while i < last {
            star += cell_mis(s[i], r[i], r[i - 1], r[i + 1], 0, 0).count_ones();
            i += 1;
        }
        star + cell_mis(s[last], r[last], r[last - 1], 0, 0, last_bit).count_ones()
    }

    pub(super) fn ed_star_hamming(s: &[u64], r: &[u64], n: usize) -> (u32, u32) {
        let n_words = s.len();
        let last_bit = last_lane_bit(n);
        let mut star = 0u32;
        let mut hd = 0u32;
        let mut fused = |i: usize, prev: u64, next: u64, left_fix: u64, right_fix: u64| {
            let centre = lane_neq(s[i], r[i]);
            let left = lane_neq(s[i], (r[i] << 2) | (prev >> 62)) | left_fix;
            let right = lane_neq(s[i], (r[i] >> 2) | (next << 62)) | right_fix;
            hd += centre.count_ones();
            star += (centre & left & right).count_ones();
        };
        if n_words == 1 {
            fused(0, 0, 0, 1, last_bit);
            return (star, hd);
        }
        let last = n_words - 1;
        fused(0, 0, r[1], 1, 0);
        for i in 1..last {
            fused(i, r[i - 1], r[i + 1], 0, 0);
        }
        fused(last, r[last - 1], 0, 0, last_bit);
        (star, hd)
    }

    pub(super) fn hamming(a: &[u64], b: &[u64]) -> u32 {
        let n = a.len();
        let mut hd = 0u32;
        let mut i = 0;
        while i + 4 <= n {
            hd += lane_neq(a[i], b[i]).count_ones()
                + lane_neq(a[i + 1], b[i + 1]).count_ones()
                + lane_neq(a[i + 2], b[i + 2]).count_ones()
                + lane_neq(a[i + 3], b[i + 3]).count_ones();
            i += 4;
        }
        while i < n {
            hd += lane_neq(a[i], b[i]).count_ones();
            i += 1;
        }
        hd
    }
}

/// The AVX2 lane loops: 4 words (128 cells) per vector iteration. The
/// read's ±1-lane neighbour words are produced in-register — `vpermq`
/// rotates the four words and a blend splices in the carry word from the
/// adjacent block — and popcount is the classic nibble-LUT `vpshufb` +
/// `vpsadbw` reduction. Compiled only with the `simd` feature on x86-64 and
/// entered only after `is_x86_feature_detected!("avx2")` — the sole unsafe
/// code in the crate, confined to this module.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[allow(unsafe_code)]
mod avx2 {
    use super::{last_lane_bit, LANE_LOW};
    use core::arch::x86_64::{
        __m256i, _mm256_add_epi64, _mm256_add_epi8, _mm256_and_si256, _mm256_blend_epi32,
        _mm256_loadu_si256, _mm256_or_si256, _mm256_permute4x64_epi64, _mm256_sad_epu8,
        _mm256_set1_epi64x, _mm256_set1_epi8, _mm256_set_epi64x, _mm256_setr_epi8,
        _mm256_setzero_si256, _mm256_shuffle_epi8, _mm256_slli_epi64, _mm256_srli_epi64,
        _mm256_storeu_si256, _mm256_xor_si256,
    };

    /// # Safety
    ///
    /// `words[i..i + 4]` must be in bounds (unaligned load).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn loadu(words: &[u64], i: usize) -> __m256i {
        debug_assert!(i + 4 <= words.len());
        _mm256_loadu_si256(words.as_ptr().add(i).cast())
    }

    /// Vector [`super::lane_neq`]: per-2-bit-lane mismatch mask in each of
    /// the four 64-bit lanes.
    ///
    /// # Safety
    ///
    /// AVX2 must be available (all callers are reached only through the
    /// runtime-verified dispatch in [`super::vector_features_detected`]).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn lane_neq(x: __m256i, y: __m256i) -> __m256i {
        let d = _mm256_xor_si256(x, y);
        let low = _mm256_set1_epi64x(LANE_LOW as i64);
        _mm256_and_si256(_mm256_or_si256(d, _mm256_srli_epi64::<1>(d)), low)
    }

    /// Adds the per-64-bit-lane popcount of `v` onto `acc` (nibble LUT +
    /// `vpsadbw`). Exact — the reduction is integer throughout.
    ///
    /// # Safety
    ///
    /// AVX2 must be available (runtime-verified by the dispatch gate).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn popcount_acc(acc: __m256i, v: __m256i) -> __m256i {
        #[rustfmt::skip]
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );
        let low_nibble = _mm256_set1_epi8(0x0f);
        let lo = _mm256_shuffle_epi8(lut, _mm256_and_si256(v, low_nibble));
        let hi = _mm256_shuffle_epi8(lut, _mm256_and_si256(_mm256_srli_epi64::<4>(v), low_nibble));
        let per_byte = _mm256_add_epi8(lo, hi);
        _mm256_add_epi64(acc, _mm256_sad_epu8(per_byte, _mm256_setzero_si256()))
    }

    /// Horizontal sum of the four 64-bit accumulator lanes.
    ///
    /// # Safety
    ///
    /// AVX2 must be available (runtime-verified by the dispatch gate).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn horizontal_sum(v: __m256i) -> u64 {
        let mut lanes = [0u64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast(), v);
        lanes[0]
            .wrapping_add(lanes[1])
            .wrapping_add(lanes[2])
            .wrapping_add(lanes[3])
    }

    /// The read word one lane *down* per 64-bit lane: `[carry, r0, r1, r2]`
    /// — `vpermq` rotation with the previous block's last word spliced into
    /// lane 0.
    ///
    /// # Safety
    ///
    /// AVX2 must be available (runtime-verified by the dispatch gate).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn lanes_prev(r: __m256i, carry: u64) -> __m256i {
        let rotated = _mm256_permute4x64_epi64::<0b10_01_00_00>(r);
        _mm256_blend_epi32::<0b0000_0011>(rotated, _mm256_set1_epi64x(carry as i64))
    }

    /// The read word one lane *up* per 64-bit lane: `[r1, r2, r3, carry]`.
    ///
    /// # Safety
    ///
    /// AVX2 must be available (runtime-verified by the dispatch gate).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn lanes_next(r: __m256i, carry: u64) -> __m256i {
        let rotated = _mm256_permute4x64_epi64::<0b11_11_10_01>(r);
        _mm256_blend_epi32::<0b1100_0000>(rotated, _mm256_set1_epi64x(carry as i64))
    }

    /// The three comparison masks of one 4-word block: `(centre, left ∧
    /// right)` with the boundary fix-ups OR-ed in.
    ///
    /// # Safety
    ///
    /// AVX2 must be available (runtime-verified by the dispatch gate).
    #[inline]
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn block_masks(
        sv: __m256i,
        rv: __m256i,
        prev_carry: u64,
        next_carry: u64,
        first_block: bool,
        last_block: bool,
        last_bit: u64,
    ) -> (__m256i, __m256i) {
        let rl = _mm256_or_si256(
            _mm256_slli_epi64::<2>(rv),
            _mm256_srli_epi64::<62>(lanes_prev(rv, prev_carry)),
        );
        let rr = _mm256_or_si256(
            _mm256_srli_epi64::<2>(rv),
            _mm256_slli_epi64::<62>(lanes_next(rv, next_carry)),
        );
        let centre = lane_neq(sv, rv);
        let mut left = lane_neq(sv, rl);
        if first_block {
            // Cell 0 has no left searchline pair.
            left = _mm256_or_si256(left, _mm256_set_epi64x(0, 0, 0, 1));
        }
        let mut right = lane_neq(sv, rr);
        if last_block {
            // Cell N−1 has no right pair (always in lane 3 here: the vector
            // loop only runs on whole 4-word blocks).
            right = _mm256_or_si256(right, _mm256_set_epi64x(last_bit as i64, 0, 0, 0));
        }
        (centre, _mm256_and_si256(left, right))
    }

    /// Popcount of one 256-bit mask through four hardware `popcnt`s — lower
    /// latency than the LUT reduction when there is exactly one block, so
    /// the single-block fast paths (width ≤ 128) use it.
    ///
    /// # Safety
    ///
    /// AVX2 and POPCNT must be available (runtime-verified by the
    /// dispatch gate — both CPUID bits, see `vector_features_detected`).
    #[inline]
    #[target_feature(enable = "avx2,popcnt")]
    unsafe fn popcount_once(v: __m256i) -> u32 {
        let mut lanes = [0u64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast(), v);
        lanes[0].count_ones()
            + lanes[1].count_ones()
            + lanes[2].count_ones()
            + lanes[3].count_ones()
    }

    /// # Safety
    ///
    /// Caller must have verified AVX2 and POPCNT support; `s` and `r` share one length.
    #[target_feature(enable = "avx2,popcnt")]
    pub(super) unsafe fn ed_star(s: &[u64], r: &[u64], n: usize) -> u32 {
        let n_words = s.len();
        let last_bit = last_lane_bit(n);
        if n_words == 4 {
            // One whole block (the 128-base CAM row): skip the loop and the
            // LUT accumulator entirely.
            let (centre, sides) = block_masks(loadu(s, 0), loadu(r, 0), 0, 0, true, true, last_bit);
            return popcount_once(_mm256_and_si256(centre, sides));
        }
        let mut acc = _mm256_setzero_si256();
        let mut i = 0;
        while i + 4 <= n_words {
            let rv = loadu(r, i);
            let prev_carry = if i == 0 { 0 } else { r[i - 1] };
            let next_carry = if i + 4 < n_words { r[i + 4] } else { 0 };
            let (centre, sides) = block_masks(
                loadu(s, i),
                rv,
                prev_carry,
                next_carry,
                i == 0,
                i + 4 == n_words,
                last_bit,
            );
            acc = popcount_acc(acc, _mm256_and_si256(centre, sides));
            i += 4;
        }
        let mut star = horizontal_sum(acc) as u32;
        // Word tail (n_words % 4 ≠ 0): the scalar per-word form.
        while i < n_words {
            let prev = if i == 0 { 0 } else { r[i - 1] };
            let next = if i + 1 < n_words { r[i + 1] } else { 0 };
            let first_fix = u64::from(i == 0);
            let last_fix = if i + 1 == n_words { last_bit } else { 0 };
            star += super::cell_mis(s[i], r[i], prev, next, first_fix, last_fix).count_ones();
            i += 1;
        }
        star
    }

    /// # Safety
    ///
    /// Caller must have verified AVX2 and POPCNT support; `s` and `r` share one length.
    #[target_feature(enable = "avx2,popcnt")]
    pub(super) unsafe fn ed_star_hamming(s: &[u64], r: &[u64], n: usize) -> (u32, u32) {
        let n_words = s.len();
        let last_bit = last_lane_bit(n);
        if n_words == 4 {
            let (centre, sides) = block_masks(loadu(s, 0), loadu(r, 0), 0, 0, true, true, last_bit);
            return (
                popcount_once(_mm256_and_si256(centre, sides)),
                popcount_once(centre),
            );
        }
        let mut star_acc = _mm256_setzero_si256();
        let mut hd_acc = _mm256_setzero_si256();
        let mut i = 0;
        while i + 4 <= n_words {
            let rv = loadu(r, i);
            let prev_carry = if i == 0 { 0 } else { r[i - 1] };
            let next_carry = if i + 4 < n_words { r[i + 4] } else { 0 };
            let (centre, sides) = block_masks(
                loadu(s, i),
                rv,
                prev_carry,
                next_carry,
                i == 0,
                i + 4 == n_words,
                last_bit,
            );
            hd_acc = popcount_acc(hd_acc, centre);
            star_acc = popcount_acc(star_acc, _mm256_and_si256(centre, sides));
            i += 4;
        }
        let mut star = horizontal_sum(star_acc) as u32;
        let mut hd = horizontal_sum(hd_acc) as u32;
        while i < n_words {
            let prev = if i == 0 { 0 } else { r[i - 1] };
            let next = if i + 1 < n_words { r[i + 1] } else { 0 };
            let centre = super::lane_neq(s[i], r[i]);
            let left = super::lane_neq(s[i], (r[i] << 2) | (prev >> 62)) | u64::from(i == 0);
            let right_fix = if i + 1 == n_words { last_bit } else { 0 };
            let right = super::lane_neq(s[i], (r[i] >> 2) | (next << 62)) | right_fix;
            hd += centre.count_ones();
            star += (centre & left & right).count_ones();
            i += 1;
        }
        (star, hd)
    }

    /// # Safety
    ///
    /// Caller must have verified AVX2 and POPCNT support; `a` and `b` share one length.
    #[target_feature(enable = "avx2,popcnt")]
    pub(super) unsafe fn hamming(a: &[u64], b: &[u64]) -> u32 {
        let n = a.len();
        if n == 4 {
            return popcount_once(lane_neq(loadu(a, 0), loadu(b, 0)));
        }
        let mut acc = _mm256_setzero_si256();
        let mut i = 0;
        while i + 4 <= n {
            acc = popcount_acc(acc, lane_neq(loadu(a, i), loadu(b, i)));
            i += 4;
        }
        let mut hd = horizontal_sum(acc) as u32;
        while i < n {
            hd += super::lane_neq(a[i], b[i]).count_ones();
            i += 1;
        }
        hd
    }
}

/// Whether kernel dispatch takes the AVX2 lane path in this process
/// (`simd` feature compiled in **and** the CPU reports AVX2). Purely
/// informational — results are byte-identical either way.
#[must_use]
pub fn simd_available() -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        vector_features_detected()
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        false
    }
}

/// Runtime check of **every** feature the `avx2` module's
/// `#[target_feature(enable = "avx2,popcnt")]` functions require. The two
/// CPUID bits are independent, so checking AVX2 alone would leave the
/// `popcnt` precondition unverified (undefined behavior on a CPU or
/// hypervisor that masks POPCNT while exposing AVX2).
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[inline]
fn vector_features_detected() -> bool {
    is_x86_feature_detected!("avx2") && is_x86_feature_detected!("popcnt")
}

/// Operands shorter than one vector block never enter the AVX2 loop, so
/// routing them straight to SWAR skips a pointless cross-feature call.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
const MIN_VECTOR_WORDS: usize = 4;

#[inline]
fn ed_star_words(s: &[u64], r: &[u64], n: usize) -> u32 {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if s.len() >= MIN_VECTOR_WORDS && vector_features_detected() {
        // SAFETY: AVX2 + POPCNT support verified at runtime on this line.
        #[allow(unsafe_code)]
        return unsafe { avx2::ed_star(s, r, n) };
    }
    swar::ed_star(s, r, n)
}

#[inline]
fn ed_star_hamming_words(s: &[u64], r: &[u64], n: usize) -> (u32, u32) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if s.len() >= MIN_VECTOR_WORDS && vector_features_detected() {
        // SAFETY: AVX2 + POPCNT support verified at runtime on this line.
        #[allow(unsafe_code)]
        return unsafe { avx2::ed_star_hamming(s, r, n) };
    }
    swar::ed_star_hamming(s, r, n)
}

#[inline]
fn hamming_words(a: &[u64], b: &[u64]) -> u32 {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if a.len() >= MIN_VECTOR_WORDS && vector_features_detected() {
        // SAFETY: AVX2 + POPCNT support verified at runtime on this line.
        #[allow(unsafe_code)]
        return unsafe { avx2::hamming(a, b) };
    }
    swar::hamming(a, b)
}

/// The one word loop the retained scalar kernels share: for every word,
/// computes the centre-comparison mismatch mask and the ED\* cell-mismatch
/// mask (centre ∧ left ∧ right, with the boundary comparisons forced to
/// mismatch) and hands them to `fold`. This is the pre-PR 5 single-word
/// reference path the lane kernels are property-pinned against.
///
/// # Panics
///
/// Panics if the sequences have different lengths.
#[inline]
fn fold_cell_masks<S: PackedWords, R: PackedWords>(
    stored: &S,
    read: &R,
    mut fold: impl FnMut(u64, u64),
) {
    let n = stored.len();
    assert_eq!(
        n,
        read.len(),
        "ED* compares a read against an equally wide stored row"
    );
    if n == 0 {
        return;
    }
    let n_words = stored.n_words();
    let last_lane_word = (n - 1) / 32;
    let last_bit = last_lane_bit(n);
    let mut prev_read = 0u64;
    let mut cur_read = read.word(0);
    for k in 0..n_words {
        let s = stored.word(k);
        let next_read = if k + 1 < n_words { read.word(k + 1) } else { 0 };
        let centre = lane_neq(s, cur_read);
        // Lane i of the shifted word holds read[i−1] / read[i+1]; the lane
        // shifted in from beyond the row is irrelevant because the boundary
        // comparison is forced to mismatch below.
        let mut left = lane_neq(s, (cur_read << 2) | (prev_read >> 62));
        if k == 0 {
            left |= 1; // cell 0 has no left searchline pair
        }
        let mut right = lane_neq(s, (cur_read >> 2) | (next_read << 62));
        if k == last_lane_word {
            right |= last_bit; // cell N−1 has no right pair
        }
        // Tail lanes beyond n hold zero in both operands, so their centre
        // comparison matches and they never count as mismatches.
        fold(centre, centre & left & right);
        prev_read = cur_read;
        cur_read = next_read;
    }
}

/// Word-parallel ED\*: the mismatched-cell count `n_mis` of searching
/// `read` against a row storing `stored`, identical to
/// [`crate::ed_star`]`(stored, read)` on the unpacked sequences. Dispatches
/// to the AVX2 lane loop when available, the 4×u64 SWAR unroll otherwise —
/// byte-identical either way (see the [module docs](self)).
///
/// # Panics
///
/// Panics if the sequences have different lengths.
///
/// # Examples
///
/// ```
/// use asmcap_genome::{DnaSeq, PackedRef, PackedSeq};
/// // Paper Fig. 2, second example: stored = AGCATGAG, read = AGCTGAGA.
/// let stored = PackedRef::new(&"AGCATGAG".parse::<DnaSeq>()?);
/// let read = PackedSeq::from_seq(&"AGCTGAGA".parse::<DnaSeq>()?);
/// assert_eq!(asmcap_metrics::ed_star_packed(&stored.segment(0, 8), &read), 1);
/// # Ok::<(), asmcap_genome::base::ParseBaseError>(())
/// ```
#[must_use]
pub fn ed_star_packed<S: PackedWords, R: PackedWords>(stored: &S, read: &R) -> usize {
    let n = stored.len();
    assert_eq!(
        n,
        read.len(),
        "ED* compares a read against an equally wide stored row"
    );
    if n == 0 {
        return 0;
    }
    with_words(stored, |s| {
        with_words(read, |r| ed_star_words(s, r, n) as usize)
    })
}

/// The retained single-word scalar ED\* kernel (the pre-PR 5
/// implementation): the simd-off oracle of `tests/properties.rs`, which
/// pins [`ed_star_packed`]'s lane paths equal to it, and the baseline the
/// `kernels` benchmark compares to.
///
/// # Panics
///
/// Panics if the sequences have different lengths.
#[must_use]
pub fn ed_star_packed_scalar<S: PackedWords, R: PackedWords>(stored: &S, read: &R) -> usize {
    let mut mismatches = 0u32;
    fold_cell_masks(stored, read, |_centre, mis| {
        mismatches += mis.count_ones();
    });
    mismatches as usize
}

/// Word-parallel Hamming distance, identical to [`crate::hamming()`] on the
/// unpacked sequences (HD mode, MUX select `S = 0`): XOR, fold each lane's
/// two bitplanes, popcount — lane-dispatched like [`ed_star_packed`].
///
/// # Panics
///
/// Panics if the sequences have different lengths.
///
/// # Examples
///
/// ```
/// use asmcap_genome::{DnaSeq, PackedSeq};
/// let a = PackedSeq::from_seq(&"AGCTGAGA".parse::<DnaSeq>()?);
/// let b = PackedSeq::from_seq(&"ATCTGCGA".parse::<DnaSeq>()?);
/// assert_eq!(asmcap_metrics::hamming_packed(&a, &b), 2);
/// # Ok::<(), asmcap_genome::base::ParseBaseError>(())
/// ```
#[must_use]
pub fn hamming_packed<A: PackedWords, B: PackedWords>(a: &A, b: &B) -> usize {
    assert_eq!(
        a.len(),
        b.len(),
        "hamming distance requires equal-length sequences"
    );
    with_words(a, |aw| with_words(b, |bw| hamming_words(aw, bw) as usize))
}

/// The retained single-word scalar Hamming kernel (the pre-PR 5
/// implementation): the simd-off oracle of `tests/properties.rs` for
/// [`hamming_packed`] — see [`ed_star_packed_scalar`].
///
/// # Panics
///
/// Panics if the sequences have different lengths.
#[must_use]
pub fn hamming_packed_scalar<A: PackedWords, B: PackedWords>(a: &A, b: &B) -> usize {
    assert_eq!(
        a.len(),
        b.len(),
        "hamming distance requires equal-length sequences"
    );
    (0..a.n_words())
        .map(|k| lane_neq(a.word(k), b.word(k)).count_ones() as usize)
        .sum()
}

/// Word-parallel `(ED*, HD)` in one pass — what one matchline-encoding
/// prepass of an ASMCap array row produces for both MUX settings. Cheaper
/// than two kernel calls when both distances are needed: the engine's
/// per-pair decision uses it whenever HDAC has armed its HD-mode search.
/// Lane-dispatched like [`ed_star_packed`].
#[must_use]
pub fn ed_star_hamming_packed<S: PackedWords, R: PackedWords>(
    stored: &S,
    read: &R,
) -> (usize, usize) {
    let n = stored.len();
    assert_eq!(
        n,
        read.len(),
        "ED* compares a read against an equally wide stored row"
    );
    if n == 0 {
        return (0, 0);
    }
    with_words(stored, |s| {
        with_words(read, |r| {
            let (star, hd) = ed_star_hamming_words(s, r, n);
            (star as usize, hd as usize)
        })
    })
}

/// The retained single-word scalar fused kernel (the pre-PR 5
/// implementation): the simd-off oracle of `tests/properties.rs` for
/// [`ed_star_hamming_packed`] — see [`ed_star_packed_scalar`].
#[must_use]
pub fn ed_star_hamming_packed_scalar<S: PackedWords, R: PackedWords>(
    stored: &S,
    read: &R,
) -> (usize, usize) {
    let mut star = 0u32;
    let mut hd = 0u32;
    fold_cell_masks(stored, read, |centre, mis| {
        hd += centre.count_ones();
        star += mis.count_ones();
    });
    (star as usize, hd as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edstar::ed_star;
    use crate::hamming::hamming;
    use asmcap_genome::{Base, DnaSeq, PackedRef, PackedSeq};
    use proptest::prelude::*;

    fn seq(s: &str) -> DnaSeq {
        s.parse().expect("valid test sequence")
    }

    fn packed(s: &str) -> PackedSeq {
        PackedSeq::from_seq(&seq(s))
    }

    #[test]
    fn fig2_numeric_examples() {
        // Same three Fig. 2 pairs the scalar tests pin.
        assert_eq!(ed_star_packed(&packed("ATCTGCGA"), &packed("AGCTGAGA")), 2);
        assert_eq!(hamming_packed(&packed("ATCTGCGA"), &packed("AGCTGAGA")), 2);
        assert_eq!(ed_star_packed(&packed("AGCATGAG"), &packed("AGCTGAGA")), 1);
        assert_eq!(hamming_packed(&packed("AGCATGAG"), &packed("AGCTGAGA")), 5);
        assert_eq!(ed_star_packed(&packed("AGTGAGAA"), &packed("AGCTGAGA")), 0);
        assert_eq!(hamming_packed(&packed("AGTGAGAA"), &packed("AGCTGAGA")), 5);
    }

    #[test]
    fn boundary_cells_have_truncated_windows() {
        // Stored AC vs read CA: both cells rescued by their one neighbour.
        assert_eq!(ed_star_packed(&packed("AC"), &packed("CA")), 0);
        assert_eq!(hamming_packed(&packed("AC"), &packed("CA")), 2);
        // Single-cell row: only the centre comparison exists.
        assert_eq!(ed_star_packed(&packed("A"), &packed("C")), 1);
        assert_eq!(ed_star_packed(&packed("A"), &packed("A")), 0);
    }

    #[test]
    fn empty_rows_have_zero_distance() {
        let empty = PackedSeq::default();
        assert_eq!(ed_star_packed(&empty, &empty), 0);
        assert_eq!(hamming_packed(&empty, &empty), 0);
        assert_eq!(ed_star_hamming_packed(&empty, &empty), (0, 0));
        assert_eq!(ed_star_packed_scalar(&empty, &empty), 0);
        assert_eq!(hamming_packed_scalar(&empty, &empty), 0);
        assert_eq!(ed_star_hamming_packed_scalar(&empty, &empty), (0, 0));
    }

    #[test]
    #[should_panic(expected = "equally wide")]
    fn length_mismatch_panics() {
        let _ = ed_star_packed(&packed("ACG"), &packed("AC"));
    }

    #[test]
    fn word_boundary_widths_match_scalar() {
        // Exercise every width in 1..=256 (the satellite sweep: covers the
        // 32-base word boundaries AND the 128-base vector-block boundary),
        // plus a few long rows that hit the heap-gather path.
        for len in (1usize..=256).chain([300, 511, 512, 513, 1024]) {
            let stored: DnaSeq = (0..len)
                .map(|i| Base::from_code(((i * 3 + 1) % 4) as u8))
                .collect();
            let read: DnaSeq = (0..len)
                .map(|i| Base::from_code(((i * 5 + i / 9) % 4) as u8))
                .collect();
            let (ps, pr) = (PackedSeq::from_seq(&stored), PackedSeq::from_seq(&read));
            let star = ed_star(stored.as_slice(), read.as_slice());
            let hd = hamming(stored.as_slice(), read.as_slice());
            assert_eq!(ed_star_packed(&ps, &pr), star, "ED* at width {len}");
            assert_eq!(ed_star_packed_scalar(&ps, &pr), star, "scalar ED* at {len}");
            assert_eq!(hamming_packed(&ps, &pr), hd, "HD at width {len}");
            assert_eq!(hamming_packed_scalar(&ps, &pr), hd, "scalar HD at {len}");
            assert_eq!(
                ed_star_hamming_packed(&ps, &pr),
                (star, hd),
                "fused at width {len}"
            );
        }
    }

    #[test]
    fn segment_views_straddling_word_boundaries_match_scalar() {
        let reference: DnaSeq = (0..400)
            .map(|i| Base::from_code(((i * 7 + i / 13) % 4) as u8))
            .collect();
        let packed_ref = PackedRef::new(&reference);
        let read: DnaSeq = (0..100)
            .map(|i| Base::from_code(((i * 11 + 2) % 4) as u8))
            .collect();
        let packed_read = PackedSeq::from_seq(&read);
        for offset in [0usize, 1, 17, 31, 32, 33, 63, 64, 100, 300] {
            let view = packed_ref.segment(offset, 100);
            let slice = &reference.as_slice()[offset..offset + 100];
            assert_eq!(
                ed_star_packed(&view, &packed_read),
                ed_star(slice, read.as_slice()),
                "ED* at offset {offset}"
            );
            assert_eq!(
                hamming_packed(&view, &packed_read),
                hamming(slice, read.as_slice()),
                "HD at offset {offset}"
            );
        }
    }

    #[test]
    fn word_aligned_views_take_the_zero_copy_path() {
        // Aligned full-word views expose a direct word slice; shifted or
        // partial-tail views do not — and both produce identical kernel
        // results.
        let reference: DnaSeq = (0..320)
            .map(|i| Base::from_code(((i * 3 + i / 5) % 4) as u8))
            .collect();
        let packed_ref = PackedRef::new(&reference);
        assert!(packed_ref.segment(64, 128).as_word_slice().is_some());
        assert!(packed_ref.segment(63, 128).as_word_slice().is_none());
        assert!(packed_ref.segment(64, 100).as_word_slice().is_none());
        let read: DnaSeq = (0..128).map(|i| Base::from_code((i % 4) as u8)).collect();
        let packed_read = PackedSeq::from_seq(&read);
        for offset in [63usize, 64] {
            let view = packed_ref.segment(offset, 128);
            assert_eq!(
                ed_star_packed(&view, &packed_read),
                ed_star(&reference.as_slice()[offset..offset + 128], read.as_slice()),
                "offset {offset}"
            );
        }
    }

    fn arbitrary_pair(max_len: usize) -> impl Strategy<Value = (DnaSeq, DnaSeq)> {
        proptest::collection::vec((0u8..4, 0u8..4), 1..=max_len).prop_map(|pairs| {
            let a = pairs.iter().map(|&(x, _)| Base::from_code(x)).collect();
            let b = pairs.iter().map(|&(_, y)| Base::from_code(y)).collect();
            (a, b)
        })
    }

    proptest! {
        #[test]
        fn prop_packed_ed_star_equals_scalar((stored, read) in arbitrary_pair(256)) {
            let (ps, pr) = (PackedSeq::from_seq(&stored), PackedSeq::from_seq(&read));
            let reference = ed_star(stored.as_slice(), read.as_slice());
            prop_assert_eq!(ed_star_packed(&ps, &pr), reference);
            prop_assert_eq!(ed_star_packed_scalar(&ps, &pr), reference);
        }

        #[test]
        fn prop_packed_hamming_equals_scalar((stored, read) in arbitrary_pair(256)) {
            let (ps, pr) = (PackedSeq::from_seq(&stored), PackedSeq::from_seq(&read));
            let reference = hamming(stored.as_slice(), read.as_slice());
            prop_assert_eq!(hamming_packed(&ps, &pr), reference);
            prop_assert_eq!(hamming_packed_scalar(&ps, &pr), reference);
        }

        #[test]
        fn prop_fused_kernel_equals_both((stored, read) in arbitrary_pair(256)) {
            let (ps, pr) = (PackedSeq::from_seq(&stored), PackedSeq::from_seq(&read));
            let expected = (
                ed_star(stored.as_slice(), read.as_slice()),
                hamming(stored.as_slice(), read.as_slice()),
            );
            prop_assert_eq!(ed_star_hamming_packed(&ps, &pr), expected);
            prop_assert_eq!(ed_star_hamming_packed_scalar(&ps, &pr), expected);
        }

        #[test]
        fn prop_views_at_any_offset_equal_scalar(
            codes in proptest::collection::vec(0u8..4, 2..400),
            read_codes in proptest::collection::vec(0u8..4, 1..=256),
            offset_frac in 0.0f64..1.0
        ) {
            let reference: DnaSeq = codes.into_iter().map(Base::from_code).collect();
            let width = read_codes.len().min(reference.len());
            let read: DnaSeq = read_codes.into_iter().take(width).map(Base::from_code).collect();
            let offset = (((reference.len() - width) as f64) * offset_frac) as usize;
            let packed_ref = PackedRef::new(&reference);
            let view = packed_ref.segment(offset, width);
            let slice = &reference.as_slice()[offset..offset + width];
            prop_assert_eq!(
                ed_star_packed(&view, &PackedSeq::from_seq(&read)),
                ed_star(slice, read.as_slice())
            );
            prop_assert_eq!(
                hamming_packed(&view, &PackedSeq::from_seq(&read)),
                hamming(slice, read.as_slice())
            );
        }
    }
}
