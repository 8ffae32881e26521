//! String distance metrics for the ASMCap reproduction.
//!
//! Approximate string matching in the paper revolves around three distances
//! over DNA sequences (paper Fig. 2):
//!
//! * **HD** — [`mod@hamming`]: position-wise mismatches;
//! * **ED** — [`edit`]: Levenshtein edit distance, the ground truth. Three
//!   implementations with identical results: full dynamic programming,
//!   threshold-banded (Ukkonen), and Myers' bit-parallel algorithm;
//! * **ED\*** — [`edstar`]: the neighbor-tolerant distance an EDAM/ASMCap
//!   CAM array evaluates in one shot, where each stored base also matches
//!   the read base's left and right neighbors.
//!
//! [`kernels`] holds the word-parallel variants of HD and ED\* over 2-bit
//! packed sequences ([`ed_star_packed`], [`hamming_packed`]) — the hot path
//! every mapping backend runs on; the scalar walks above remain as the
//! readable reference implementations the kernels are property-tested
//! against.
//!
//! [`align`] goes one step beyond distances: a GenASM-style banded
//! bit-vector DP **with traceback** over the same packed operands, emitting
//! [`Cigar`] edit transcripts for the pipeline's extension stage.
//!
//! [`confusion`] provides the TP/FP/FN/TN bookkeeping and the F1 score used
//! throughout the evaluation (paper Eq. 3–4).

// Unsafe is denied crate-wide and allowed back in exactly one place: the
// AVX2 lane loops in `kernels::avx2`, entered only behind a runtime
// `is_x86_feature_detected!` check (the `simd` feature compiles them out
// entirely).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod align;
pub mod confusion;
pub mod edit;
pub mod edstar;
pub mod hamming;
pub mod kernels;

pub use align::{align_bases, align_packed, Alignment, Cigar};
pub use confusion::ConfusionMatrix;
pub use edit::{
    edit_distance, edit_distance_banded, edit_distance_banded_packed, edit_distance_myers,
};
pub use edstar::{ed_star, ed_star_profile, CellMatch, EdStarProfile};
pub use hamming::hamming;
pub use kernels::{
    ed_star_hamming_packed, ed_star_hamming_packed_scalar, ed_star_packed, ed_star_packed_scalar,
    hamming_packed, hamming_packed_scalar, simd_available,
};
