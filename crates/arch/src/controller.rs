//! The device controller: instruction sequencing and cycle accounting.
//!
//! The controller receives instructions from the host CPU (paper Fig. 4a)
//! and drives the shift registers, mode MUX, and array searches. Its cycle
//! model follows the paper's overhead analysis: every search — original or
//! rotated — costs one cycle (§IV-B: "the rotation-and-comparison process
//! also induces N_R more cycles"), the HD-mode search of HDAC costs one
//! extra cycle (§IV-A), and rotations/mode switches themselves are free.

use crate::array::{MatchMode, SearchEnergy};
use crate::registers::{RotateDirection, ShiftRegisterFile};
use crate::top::{AsmcapDevice, DeviceSearchResult};
use crate::trace::{Trace, TraceEvent};
use asmcap_circuit::{MlCam, Rng};
use asmcap_genome::{DnaSeq, PackedSeq};

/// One controller instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Instruction {
    /// Fetch a read from the global buffer into the shift registers.
    LatchRead(DnaSeq),
    /// Search the latched (possibly rotated) read against all arrays.
    Search {
        /// Threshold `T` encoded on `V_ref`.
        threshold: usize,
        /// Distance mode (the shared MUX signal `S`).
        mode: MatchMode,
    },
    /// Rotate the latched read one base (TASR path).
    Rotate(RotateDirection),
    /// Restore the originally latched read.
    ReloadRead,
}

/// Accumulated execution statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunStats {
    /// Cycles consumed (1 per latch, 1 per search).
    pub cycles: u64,
    /// Search operations issued.
    pub searches: u64,
    /// Reads latched.
    pub latches: u64,
    /// Rotation steps performed.
    pub rotations: u64,
    /// Total energy in joules.
    pub energy_j: f64,
    /// Total latency in seconds (cycles × search time).
    pub latency_s: f64,
}

/// The instruction-driven controller wrapping a device.
///
/// # Examples
///
/// ```
/// use asmcap_arch::{Controller, DeviceBuilder, Instruction, MatchMode};
/// use asmcap_genome::GenomeModel;
///
/// let mut device = DeviceBuilder::new()
///     .arrays(1).rows_per_array(4).row_width(32)
///     .build_asmcap();
/// let genome = GenomeModel::uniform().generate(4 * 32, 1);
/// device.store_reference(&genome, 32)?;
/// let mut controller = Controller::new(device, 7);
/// let read = genome.window(32..64);
/// let results = controller.run(&[
///     Instruction::LatchRead(read),
///     Instruction::Search { threshold: 0, mode: MatchMode::EdStar },
/// ]);
/// assert_eq!(results.len(), 1);
/// assert_eq!(controller.stats().cycles, 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Controller<M> {
    device: AsmcapDevice<M>,
    registers: ShiftRegisterFile,
    original: DnaSeq,
    stats: RunStats,
    rng: Rng,
    trace: Trace,
}

impl<M: MlCam + SearchEnergy> Controller<M> {
    /// Wraps a device; `seed` makes every sensing decision reproducible.
    #[must_use]
    pub fn new(device: AsmcapDevice<M>, seed: u64) -> Self {
        Self {
            device,
            registers: ShiftRegisterFile::load(&[]),
            original: DnaSeq::new(),
            stats: RunStats::default(),
            rng: asmcap_circuit::rng(seed),
            trace: Trace::new(),
        }
    }

    /// Enables/disables instruction tracing (disabled by default).
    pub fn set_trace_enabled(&mut self, enabled: bool) {
        self.trace.set_enabled(enabled);
    }

    /// The recorded instruction trace.
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The wrapped device.
    #[must_use]
    pub fn device(&self) -> &AsmcapDevice<M> {
        &self.device
    }

    /// Mutable access to the wrapped device (e.g. to store references).
    pub fn device_mut(&mut self) -> &mut AsmcapDevice<M> {
        &mut self.device
    }

    /// Statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// Resets the accumulated statistics.
    pub fn reset_stats(&mut self) {
        self.stats = RunStats::default();
    }

    /// Executes instructions in order, returning every search's result.
    ///
    /// # Panics
    ///
    /// Panics if a search is issued before any read was latched, or on the
    /// width/mode violations documented on [`AsmcapDevice::search`].
    pub fn run(&mut self, instructions: &[Instruction]) -> Vec<DeviceSearchResult> {
        let mut results = Vec::new();
        for instruction in instructions {
            match instruction {
                Instruction::LatchRead(read) => {
                    self.original = read.clone();
                    self.registers.reload(read.as_slice());
                    self.stats.latches += 1;
                    self.stats.cycles += 1;
                    self.trace.record(TraceEvent::Latch {
                        cycle: self.stats.cycles,
                        read_len: read.len(),
                    });
                }
                Instruction::Search { threshold, mode } => {
                    assert!(
                        !self.registers.contents().is_empty(),
                        "search issued before any read was latched"
                    );
                    let read = PackedSeq::from_bases(self.registers.contents());
                    let result =
                        self.device
                            .search(&read, *threshold, *mode, None, &mut self.rng, None);
                    self.stats.searches += 1;
                    self.stats.cycles += 1;
                    self.stats.energy_j += result.stats.energy_j;
                    self.stats.latency_s += result.stats.latency_s;
                    self.trace.record(TraceEvent::Search {
                        cycle: self.stats.cycles,
                        threshold: *threshold,
                        mode: *mode,
                        matches: result.matches.len(),
                        energy_j: result.stats.energy_j,
                    });
                    results.push(result);
                }
                Instruction::Rotate(direction) => {
                    self.registers.set_enable(true);
                    self.registers.rotate(*direction);
                    self.registers.set_enable(false);
                    self.stats.rotations += 1;
                    self.trace.record(TraceEvent::Rotate {
                        cycle: self.stats.cycles,
                        direction: *direction,
                    });
                }
                Instruction::ReloadRead => {
                    let original = self.original.clone();
                    self.registers.reload(original.as_slice());
                    self.trace.record(TraceEvent::Reload {
                        cycle: self.stats.cycles,
                    });
                }
            }
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::top::DeviceBuilder;
    use asmcap_genome::GenomeModel;

    fn setup() -> (Controller<asmcap_circuit::ChargeDomainCam>, DnaSeq) {
        let mut device = DeviceBuilder::new()
            .arrays(2)
            .rows_per_array(8)
            .row_width(32)
            .build_asmcap();
        let genome = GenomeModel::uniform().generate(16 * 32, 21);
        device.store_reference(&genome, 32).unwrap();
        (Controller::new(device, 99), genome)
    }

    #[test]
    fn cycle_accounting_matches_paper_model() {
        let (mut controller, genome) = setup();
        let read = genome.window(64..96);
        // TASR-style: 1 latch + original search + 2 rotated searches.
        controller.run(&[
            Instruction::LatchRead(read),
            Instruction::Search {
                threshold: 2,
                mode: MatchMode::EdStar,
            },
            Instruction::Rotate(RotateDirection::Right),
            Instruction::Search {
                threshold: 2,
                mode: MatchMode::EdStar,
            },
            Instruction::ReloadRead,
            Instruction::Rotate(RotateDirection::Left),
            Instruction::Search {
                threshold: 2,
                mode: MatchMode::EdStar,
            },
        ]);
        let stats = controller.stats();
        assert_eq!(stats.cycles, 4); // 1 latch + 3 searches
        assert_eq!(stats.searches, 3);
        assert_eq!(stats.rotations, 2);
        assert!(stats.energy_j > 0.0);
    }

    #[test]
    fn rotation_changes_search_input() {
        let (mut controller, genome) = setup();
        let read = genome.window(0..32);
        let results = controller.run(&[
            Instruction::LatchRead(read.clone()),
            Instruction::Search {
                threshold: 0,
                mode: MatchMode::EdStar,
            },
            Instruction::Rotate(RotateDirection::Left),
            Instruction::Search {
                threshold: 0,
                mode: MatchMode::EdStar,
            },
            Instruction::ReloadRead,
            Instruction::Search {
                threshold: 0,
                mode: MatchMode::EdStar,
            },
        ]);
        // Original read matches row 0 exactly; the rotated read does not.
        assert!(results[0].matches.iter().any(|m| m.origin == 0));
        assert!(results[1].matches.iter().all(|m| m.origin != 0));
        assert!(results[2].matches.iter().any(|m| m.origin == 0));
    }

    #[test]
    #[should_panic(expected = "before any read")]
    fn search_without_latch_panics() {
        let (mut controller, _) = setup();
        let _ = controller.run(&[Instruction::Search {
            threshold: 1,
            mode: MatchMode::EdStar,
        }]);
    }

    #[test]
    fn trace_records_instruction_stream() {
        let (mut controller, genome) = setup();
        controller.set_trace_enabled(true);
        let read = genome.window(0..32);
        controller.run(&[
            Instruction::LatchRead(read),
            Instruction::Search {
                threshold: 1,
                mode: MatchMode::EdStar,
            },
            Instruction::Rotate(RotateDirection::Right),
            Instruction::Search {
                threshold: 1,
                mode: MatchMode::EdStar,
            },
            Instruction::ReloadRead,
        ]);
        let events = controller.trace().events();
        assert_eq!(events.len(), 5);
        assert!(matches!(
            events[0],
            crate::trace::TraceEvent::Latch { read_len: 32, .. }
        ));
        assert!(matches!(
            events[1],
            crate::trace::TraceEvent::Search { threshold: 1, .. }
        ));
        let rendered = controller.trace().to_string();
        assert!(rendered.contains("rotate right"));
        assert!(rendered.contains("reload read"));
    }

    #[test]
    fn reset_clears_stats() {
        let (mut controller, genome) = setup();
        controller.run(&[Instruction::LatchRead(genome.window(0..32))]);
        assert!(controller.stats().cycles > 0);
        controller.reset_stats();
        assert_eq!(controller.stats(), RunStats::default());
    }
}
