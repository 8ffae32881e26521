//! Shift registers with enable signal (paper Fig. 4b).
//!
//! The register file holds the incoming read and can rotate it left or
//! right base-by-base while the enable signal is asserted — the hardware
//! that implements the TASR strategy's rotated searches without re-fetching
//! the read from the global buffer.

use asmcap_genome::Base;
use std::fmt;

/// Direction of one base-by-base rotation step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RotateDirection {
    /// Towards lower indices (base 1 moves to position 0).
    Left,
    /// Towards higher indices (base 0 moves to position 1).
    Right,
}

impl fmt::Display for RotateDirection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RotateDirection::Left => write!(f, "left"),
            RotateDirection::Right => write!(f, "right"),
        }
    }
}

/// The read-holding shift register file.
///
/// # Examples
///
/// ```
/// use asmcap_arch::ShiftRegisterFile;
/// use asmcap_arch::registers::RotateDirection;
/// use asmcap_genome::DnaSeq;
///
/// let read: DnaSeq = "ACGT".parse()?;
/// let mut regs = ShiftRegisterFile::load(read.as_slice());
/// regs.set_enable(true);
/// regs.rotate(RotateDirection::Left);
/// assert_eq!(regs.contents(), "CGTA".parse::<DnaSeq>()?.as_slice());
/// # Ok::<(), asmcap_genome::base::ParseBaseError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShiftRegisterFile {
    bits: Vec<Base>,
    enabled: bool,
    rotations: usize,
}

impl ShiftRegisterFile {
    /// Loads a read into the registers (enable deasserted).
    #[must_use]
    pub fn load(read: &[Base]) -> Self {
        Self {
            bits: read.to_vec(),
            enabled: false,
            rotations: 0,
        }
    }

    /// Asserts or deasserts the enable signal.
    pub fn set_enable(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether the enable signal is asserted.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Current register contents.
    #[must_use]
    pub fn contents(&self) -> &[Base] {
        &self.bits
    }

    /// Number of rotation steps performed since load.
    #[must_use]
    pub fn rotations(&self) -> usize {
        self.rotations
    }

    /// Rotates one base in `direction`. A rotation with enable deasserted is
    /// a no-op, exactly like the hardware.
    pub fn rotate(&mut self, direction: RotateDirection) {
        if !self.enabled || self.bits.is_empty() {
            return;
        }
        match direction {
            RotateDirection::Left => self.bits.rotate_left(1),
            RotateDirection::Right => self.bits.rotate_right(1),
        }
        self.rotations += 1;
    }

    /// Reloads the original read (models re-latching from the buffer).
    pub fn reload(&mut self, read: &[Base]) {
        self.bits.clear();
        self.bits.extend_from_slice(read);
        self.rotations = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asmcap_genome::DnaSeq;

    fn seq(s: &str) -> DnaSeq {
        s.parse().expect("valid test sequence")
    }

    #[test]
    fn rotation_requires_enable() {
        let mut regs = ShiftRegisterFile::load(seq("ACGT").as_slice());
        regs.rotate(RotateDirection::Left);
        assert_eq!(regs.contents(), seq("ACGT").as_slice());
        assert_eq!(regs.rotations(), 0);
        regs.set_enable(true);
        regs.rotate(RotateDirection::Left);
        assert_eq!(regs.contents(), seq("CGTA").as_slice());
        assert_eq!(regs.rotations(), 1);
    }

    #[test]
    fn left_then_right_restores() {
        let mut regs = ShiftRegisterFile::load(seq("ACGTTG").as_slice());
        regs.set_enable(true);
        regs.rotate(RotateDirection::Left);
        regs.rotate(RotateDirection::Right);
        assert_eq!(regs.contents(), seq("ACGTTG").as_slice());
        assert_eq!(regs.rotations(), 2);
    }

    #[test]
    fn reload_resets_rotation_count() {
        let mut regs = ShiftRegisterFile::load(seq("ACGT").as_slice());
        regs.set_enable(true);
        regs.rotate(RotateDirection::Right);
        regs.reload(seq("TTTT").as_slice());
        assert_eq!(regs.rotations(), 0);
        assert_eq!(regs.contents(), seq("TTTT").as_slice());
    }

    #[test]
    fn empty_register_file_is_harmless() {
        let mut regs = ShiftRegisterFile::load(&[]);
        regs.set_enable(true);
        regs.rotate(RotateDirection::Left);
        assert!(regs.contents().is_empty());
    }
}
