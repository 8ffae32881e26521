//! Evaluation harness for the ASMCap reproduction.
//!
//! Every table and figure of the paper's evaluation (§V) has a module here
//! and an artefact of the `asmcap_eval` binary that prints it
//! (`cargo run --release -p asmcap-eval --bin asmcap_eval -- <artefact>`):
//!
//! | artefact | module | `asmcap_eval` artefact |
//! |---|---|---|
//! | Fig. 2 matching examples | [`fig2`] | `fig2` |
//! | Fig. 3 V_ML behaviour | [`fig3`] | `fig3` |
//! | Table I circuit comparison | [`table1`] | `table1` |
//! | §V-B area/power breakdown | [`breakdown`] | `breakdown` |
//! | §V-D distinguishable states | [`states`] | `states [--trials N]` |
//! | Fig. 7 accuracy (4 subplots) | [`fig7`] | `fig7 [--smoke] [--csv DIR]` |
//! | Fig. 8 speedup & energy efficiency | [`fig8`] | `fig8 [--smoke] [--csv DIR]` |
//! | Fig. 1(b) accuracy-vs-efficiency | [`fig1b`] | `fig1b [--smoke]` |
//! | HDAC/TASR design-space ablations | [`ablation`] | `ablation [--smoke] [--part P]` |
//! | Array-size/read-length scaling | [`scaling`] | `scaling` |
//! | Supply-corner study | [`corners`] | `corners [--smoke]` |
//!
//! [`dataset`] builds the metagenomic pair datasets with exact ground
//! truth, and [`report`] renders markdown/CSV tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod breakdown;
pub mod cli;
pub mod corners;
pub mod dataset;
pub mod fig1b;
pub mod fig2;
pub mod fig3;
pub mod fig7;
pub mod fig8;
pub mod report;
pub mod scaling;
pub mod states;
pub mod table1;

pub use dataset::{Condition, EvalDataset, MappingRecovery};
pub use fig7::{Fig7Config, Fig7Result};
pub use report::Table;
