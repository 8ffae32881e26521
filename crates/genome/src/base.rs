//! The four-letter DNA alphabet.

use std::fmt;

/// A single DNA base: Adenine, Cytosine, Guanine, or Thymine.
///
/// The discriminant is the 2-bit code stored in the two 6T SRAM cells of an
/// ASMCap cell (paper Fig. 4c), so `Base as u8` is also the hardware
/// encoding.
///
/// # Examples
///
/// ```
/// use asmcap_genome::Base;
/// assert_eq!(Base::A.complement(), Base::T);
/// assert_eq!(Base::try_from(b'g').unwrap(), Base::G);
/// assert_eq!(Base::C.to_char(), 'C');
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Base {
    /// Adenine.
    A = 0b00,
    /// Cytosine.
    C = 0b01,
    /// Guanine.
    G = 0b10,
    /// Thymine.
    T = 0b11,
}

/// All four bases in encoding order; handy for iteration and sampling.
pub const BASES: [Base; 4] = [Base::A, Base::C, Base::G, Base::T];

impl Base {
    /// Returns the Watson-Crick complement (A↔T, C↔G).
    ///
    /// # Examples
    ///
    /// ```
    /// use asmcap_genome::Base;
    /// assert_eq!(Base::G.complement(), Base::C);
    /// ```
    #[must_use]
    pub const fn complement(self) -> Base {
        match self {
            Base::A => Base::T,
            Base::C => Base::G,
            Base::G => Base::C,
            Base::T => Base::A,
        }
    }

    /// Returns the 2-bit hardware code for this base.
    ///
    /// # Examples
    ///
    /// ```
    /// use asmcap_genome::Base;
    /// assert_eq!(Base::T.code(), 0b11);
    /// ```
    #[must_use]
    pub const fn code(self) -> u8 {
        self as u8
    }

    /// Decodes a 2-bit code produced by [`Base::code`].
    ///
    /// Only the low two bits are inspected, mirroring the SRAM cell pair that
    /// physically cannot hold anything wider.
    ///
    /// # Examples
    ///
    /// ```
    /// use asmcap_genome::Base;
    /// assert_eq!(Base::from_code(0b10), Base::G);
    /// assert_eq!(Base::from_code(0b110), Base::G); // high bits ignored
    /// ```
    #[must_use]
    pub const fn from_code(code: u8) -> Base {
        match code & 0b11 {
            0b00 => Base::A,
            0b01 => Base::C,
            0b10 => Base::G,
            _ => Base::T,
        }
    }

    /// Returns the upper-case ASCII character for this base.
    #[must_use]
    pub const fn to_char(self) -> char {
        match self {
            Base::A => 'A',
            Base::C => 'C',
            Base::G => 'G',
            Base::T => 'T',
        }
    }

    /// Picks one of the three bases different from `self`, selected by
    /// `choice % 3`.
    ///
    /// This is how the error injector realises a substitution: a substituted
    /// base is always different from the original, matching the paper's edit
    /// definition.
    ///
    /// # Examples
    ///
    /// ```
    /// use asmcap_genome::Base;
    /// for choice in 0..6 {
    ///     assert_ne!(Base::A.substituted(choice), Base::A);
    /// }
    /// ```
    #[must_use]
    pub const fn substituted(self, choice: u8) -> Base {
        let offset = (choice % 3) + 1;
        Base::from_code(self.code().wrapping_add(offset))
    }
}

impl fmt::Display for Base {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_char())
    }
}

/// Error returned when a byte is not one of `ACGTacgt`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseBaseError {
    byte: u8,
}

impl ParseBaseError {
    /// The offending byte.
    #[must_use]
    pub fn byte(&self) -> u8 {
        self.byte
    }
}

impl fmt::Display for ParseBaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid DNA base byte 0x{:02x}", self.byte)
    }
}

impl std::error::Error for ParseBaseError {}

impl TryFrom<u8> for Base {
    type Error = ParseBaseError;

    fn try_from(byte: u8) -> Result<Self, Self::Error> {
        match byte {
            b'A' | b'a' => Ok(Base::A),
            b'C' | b'c' => Ok(Base::C),
            b'G' | b'g' => Ok(Base::G),
            b'T' | b't' => Ok(Base::T),
            _ => Err(ParseBaseError { byte }),
        }
    }
}

impl TryFrom<char> for Base {
    type Error = ParseBaseError;

    fn try_from(c: char) -> Result<Self, Self::Error> {
        u8::try_from(c)
            .map_err(|_| ParseBaseError { byte: b'?' })
            .and_then(Base::try_from)
    }
}

impl From<Base> for char {
    fn from(base: Base) -> char {
        base.to_char()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_roundtrip() {
        for base in BASES {
            assert_eq!(Base::from_code(base.code()), base);
        }
    }

    #[test]
    fn complement_is_involution() {
        for base in BASES {
            assert_eq!(base.complement().complement(), base);
        }
    }

    #[test]
    fn complement_pairs() {
        assert_eq!(Base::A.complement(), Base::T);
        assert_eq!(Base::T.complement(), Base::A);
        assert_eq!(Base::C.complement(), Base::G);
        assert_eq!(Base::G.complement(), Base::C);
    }

    #[test]
    fn parse_accepts_both_cases() {
        assert_eq!(Base::try_from(b'a').unwrap(), Base::A);
        assert_eq!(Base::try_from(b'T').unwrap(), Base::T);
        assert_eq!(Base::try_from('c').unwrap(), Base::C);
    }

    #[test]
    fn parse_rejects_ambiguity_codes() {
        assert!(Base::try_from(b'N').is_err());
        assert!(Base::try_from(b'-').is_err());
        let err = Base::try_from(b'N').unwrap_err();
        assert_eq!(err.byte(), b'N');
        assert!(err.to_string().contains("0x4e"));
    }

    #[test]
    fn substituted_never_returns_self() {
        for base in BASES {
            for choice in 0..12 {
                assert_ne!(base.substituted(choice), base);
            }
        }
    }

    #[test]
    fn substituted_covers_all_other_bases() {
        for base in BASES {
            let mut seen = std::collections::BTreeSet::new();
            for choice in 0..3 {
                seen.insert(base.substituted(choice));
            }
            assert_eq!(seen.len(), 3);
        }
    }

    #[test]
    fn display_matches_char() {
        for base in BASES {
            assert_eq!(base.to_string(), base.to_char().to_string());
        }
    }
}
