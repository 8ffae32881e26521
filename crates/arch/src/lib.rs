//! Architecture simulator for the ASMCap reproduction (paper Fig. 4).
//!
//! Bottom-up, the simulated hierarchy is:
//!
//! * [`cell`] — one ASMCap cell: two 6T SRAM cells holding a base, the
//!   three-way comparison logic (`O_L`/`O_C`/`O_R`), and the HDAC mode MUX;
//! * [`driver`] — the searchline buffer/driver that turns a read into the
//!   per-cell three-base windows;
//! * [`mod@array`] — an `M×N` CAM array with charge-domain matchline
//!   sensing ([`asmcap_circuit::ChargeDomainCam`]) and sense amplifiers;
//! * [`fault`] — seeded device fault injection ([`FaultPlan`]): stuck
//!   cells, dead rows, capacitance drift, transient sense flips, plus the
//!   re-sense voting and row-quarantine mitigations;
//! * [`top`] — the full device: 512 arrays behind a global buffer and
//!   H-tree, storing a segmented reference and searching reads against all
//!   rows in one operation.
//!
//! The device is sequenced per read by `asmcap::DeviceBackend`, which
//! issues the ED\*, HD-mode and rotated searches and accounts their cycles.
//! The functional matching results are bit-exact with
//! [`asmcap_metrics::ed_star`]; an integration test pins that equivalence.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod cell;
pub mod driver;
pub mod fault;
pub mod top;

pub use array::{CamArray, MatchMode, RowSearchOutcome, SearchOutcome};
pub use cell::AsmcapCell;
pub use driver::SlDriver;
pub use fault::{ArrayFaults, FaultPlan, FaultTally, RowFaults, StuckCell};
pub use top::{
    AsmcapDevice, CapacityError, DeviceBuilder, DeviceMatch, DeviceSearchResult, RowId, RowMask,
    SearchStats,
};
