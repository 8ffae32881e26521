//! Owned DNA sequences.

use crate::base::{Base, ParseBaseError};
use std::fmt;
use std::ops::{Index, Range};
use std::str::FromStr;

/// An owned DNA sequence: a thin, validated wrapper around `Vec<Base>`.
///
/// `DnaSeq` is the common currency between the genome generators, the error
/// injector, the distance metrics, and the array simulators. It derefs to
/// `&[Base]` via [`DnaSeq::as_slice`] and implements the usual collection
/// traits.
///
/// # Examples
///
/// ```
/// use asmcap_genome::DnaSeq;
/// let seq: DnaSeq = "GATTACA".parse()?;
/// assert_eq!(seq.len(), 7);
/// assert_eq!(seq.to_string(), "GATTACA");
/// # Ok::<(), asmcap_genome::base::ParseBaseError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct DnaSeq {
    bases: Vec<Base>,
}

impl DnaSeq {
    /// Creates an empty sequence.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty sequence with room for `capacity` bases.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            bases: Vec::with_capacity(capacity),
        }
    }

    /// Wraps an existing base vector.
    #[must_use]
    pub fn from_bases(bases: Vec<Base>) -> Self {
        Self { bases }
    }

    /// Parses a byte string of `ACGTacgt` characters.
    ///
    /// # Errors
    ///
    /// Returns [`ParseBaseError`] on the first byte outside the alphabet.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ParseBaseError> {
        bytes
            .iter()
            .map(|&b| Base::try_from(b))
            .collect::<Result<Vec<_>, _>>()
            .map(Self::from_bases)
    }

    /// Number of bases.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bases.len()
    }

    /// Whether the sequence is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bases.is_empty()
    }

    /// Borrows the bases as a slice.
    #[must_use]
    pub fn as_slice(&self) -> &[Base] {
        &self.bases
    }

    /// Consumes the sequence and returns the underlying vector.
    #[must_use]
    pub fn into_bases(self) -> Vec<Base> {
        self.bases
    }

    /// Appends one base.
    pub fn push(&mut self, base: Base) {
        self.bases.push(base);
    }

    /// Returns the base at `index`, or `None` past the end.
    #[must_use]
    pub fn get(&self, index: usize) -> Option<Base> {
        self.bases.get(index).copied()
    }

    /// Copies the half-open window `range` into a new sequence.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds.
    #[must_use]
    pub fn window(&self, range: Range<usize>) -> DnaSeq {
        DnaSeq::from_bases(self.bases[range].to_vec())
    }

    /// Iterates over the bases.
    pub fn iter(&self) -> std::iter::Copied<std::slice::Iter<'_, Base>> {
        self.bases.iter().copied()
    }

    /// Rotates the sequence left by `amount` bases (wrapping), in place.
    ///
    /// This mirrors the shift registers with enable signal in the ASMCap
    /// array (paper Fig. 4b) that implement the TASR strategy.
    pub fn rotate_left(&mut self, amount: usize) {
        if !self.bases.is_empty() {
            let amount = amount % self.bases.len();
            self.bases.rotate_left(amount);
        }
    }

    /// Rotates the sequence right by `amount` bases (wrapping), in place.
    pub fn rotate_right(&mut self, amount: usize) {
        if !self.bases.is_empty() {
            let amount = amount % self.bases.len();
            self.bases.rotate_right(amount);
        }
    }

    /// Returns a copy rotated left by `amount` bases.
    #[must_use]
    pub fn rotated_left(&self, amount: usize) -> DnaSeq {
        let mut out = self.clone();
        out.rotate_left(amount);
        out
    }

    /// Returns a copy rotated right by `amount` bases.
    #[must_use]
    pub fn rotated_right(&self, amount: usize) -> DnaSeq {
        let mut out = self.clone();
        out.rotate_right(amount);
        out
    }

    /// Fraction of G/C bases, in `[0, 1]`; `0` for the empty sequence.
    #[must_use]
    pub fn gc_content(&self) -> f64 {
        if self.bases.is_empty() {
            return 0.0;
        }
        let gc = self
            .bases
            .iter()
            .filter(|b| matches!(b, Base::G | Base::C))
            .count();
        gc as f64 / self.bases.len() as f64
    }
}

impl Index<usize> for DnaSeq {
    type Output = Base;

    fn index(&self, index: usize) -> &Base {
        &self.bases[index]
    }
}

impl AsRef<[Base]> for DnaSeq {
    fn as_ref(&self) -> &[Base] {
        &self.bases
    }
}

impl FromIterator<Base> for DnaSeq {
    fn from_iter<I: IntoIterator<Item = Base>>(iter: I) -> Self {
        Self::from_bases(iter.into_iter().collect())
    }
}

impl Extend<Base> for DnaSeq {
    fn extend<I: IntoIterator<Item = Base>>(&mut self, iter: I) {
        self.bases.extend(iter);
    }
}

impl IntoIterator for DnaSeq {
    type Item = Base;
    type IntoIter = std::vec::IntoIter<Base>;

    fn into_iter(self) -> Self::IntoIter {
        self.bases.into_iter()
    }
}

impl<'a> IntoIterator for &'a DnaSeq {
    type Item = &'a Base;
    type IntoIter = std::slice::Iter<'a, Base>;

    fn into_iter(self) -> Self::IntoIter {
        self.bases.iter()
    }
}

impl FromStr for DnaSeq {
    type Err = ParseBaseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::from_bytes(s.as_bytes())
    }
}

impl fmt::Display for DnaSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for base in &self.bases {
            write!(f, "{base}")?;
        }
        Ok(())
    }
}

impl From<Vec<Base>> for DnaSeq {
    fn from(bases: Vec<Base>) -> Self {
        Self::from_bases(bases)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(s: &str) -> DnaSeq {
        s.parse().expect("valid test sequence")
    }

    #[test]
    fn parse_and_display_roundtrip() {
        let s = "ACGTACGTTTAGC";
        assert_eq!(seq(s).to_string(), s);
    }

    #[test]
    fn parse_rejects_invalid() {
        assert!("ACGN".parse::<DnaSeq>().is_err());
        assert!("AC GT".parse::<DnaSeq>().is_err());
    }

    #[test]
    fn window_extracts_subrange() {
        let s = seq("ACGTACGT");
        assert_eq!(s.window(2..6).to_string(), "GTAC");
        assert_eq!(s.window(0..0).len(), 0);
    }

    #[test]
    fn rotate_left_then_right_is_identity() {
        let s = seq("ACGTTGCA");
        let mut r = s.clone();
        r.rotate_left(3);
        r.rotate_right(3);
        assert_eq!(r, s);
    }

    #[test]
    fn rotate_wraps_bases() {
        assert_eq!(seq("ACGT").rotated_left(1).to_string(), "CGTA");
        assert_eq!(seq("ACGT").rotated_right(1).to_string(), "TACG");
        assert_eq!(seq("ACGT").rotated_left(4), seq("ACGT"));
        assert_eq!(seq("ACGT").rotated_left(5), seq("ACGT").rotated_left(1));
    }

    #[test]
    fn rotate_empty_is_noop() {
        let mut empty = DnaSeq::new();
        empty.rotate_left(10);
        empty.rotate_right(10);
        assert!(empty.is_empty());
    }

    #[test]
    fn gc_content_counts_g_and_c() {
        assert_eq!(seq("GGCC").gc_content(), 1.0);
        assert_eq!(seq("AATT").gc_content(), 0.0);
        assert_eq!(seq("ACGT").gc_content(), 0.5);
        assert_eq!(DnaSeq::new().gc_content(), 0.0);
    }

    #[test]
    fn collects_from_iterator() {
        let s: DnaSeq = [Base::A, Base::C].into_iter().collect();
        assert_eq!(s.to_string(), "AC");
        let mut t = s;
        t.extend([Base::G, Base::T]);
        assert_eq!(t.to_string(), "ACGT");
    }
}
