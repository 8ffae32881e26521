//! Mapping-as-a-service over the ASMCap batch core.
//!
//! `asmcap-serve` turns an [`asmcap::AsmcapPipeline`] into a network
//! service: many concurrent clients send reads over a length-prefixed
//! binary TCP protocol, the server coalesces them into dense batches,
//! drains each batch through the pipeline's indexed batch entry point,
//! and streams per-request results (positions, cycles, searches, energy,
//! queue/service latency) back. Zero dependencies beyond the workspace —
//! std TCP and threads only.
//!
//! The crate splits along the data path:
//!
//! - [`protocol`] — the wire format: framing, opcodes, typed
//!   [`protocol::WireError`]s. Decoding is total; hostile bytes produce
//!   errors, never panics.
//! - [`coalescer`] — admission control (bounded queue), graceful
//!   degradation (shed full-scan reads first under load), per-client
//!   round-robin fairness, and partial-batch flush timeouts.
//! - [`server`] — the accept/reader/executor thread model and shutdown
//!   choreography.
//! - [`client`] — a small blocking client used by the load generator
//!   and the loopback tests.
//! - [`perf`] — latency histograms and the crate's one timing-allowed
//!   path.
//!
//! # Determinism
//!
//! The serving layer inherits the pipeline's determinism rule and keys
//! it off the **client-supplied request id**: request `r`'s sensing seed
//! is [`asmcap::read_seed`]`(pipeline_seed, r)` via
//! [`asmcap::AsmcapPipeline::map_batch_packed_indexed`]. Arrival order,
//! batch assembly, flush timing, and worker count therefore change
//! throughput and latency but never a single reply byte
//! (`tests/coalescer_determinism.rs` pins this).
//!
//! # Quickstart
//!
//! ```
//! use asmcap::{AsmcapPipeline, PipelineConfig};
//! use asmcap_genome::GenomeModel;
//! use asmcap_serve::{MapClient, Response, Server, ServerConfig, WireStatus};
//!
//! // A small pipeline and a loopback server on an ephemeral port.
//! let genome = GenomeModel::uniform().generate(2_048, 7);
//! let pipeline = AsmcapPipeline::builder()
//!     .reference(genome.clone())
//!     .config(PipelineConfig {
//!         threshold: 2,
//!         row_width: 64,
//!         stride: 16,
//!         ..PipelineConfig::default()
//!     })
//!     .build()
//!     .expect("valid demo pipeline");
//! let server = Server::spawn(pipeline, ServerConfig::default()).expect("loopback bind");
//!
//! // Map one read drawn straight from the reference.
//! let bases: String = genome.window(320..384).to_string();
//! let mut client = MapClient::connect(server.local_addr()).expect("loopback connect");
//! let reply = client.map_one(42, bases.as_bytes()).expect("server reply");
//! match reply {
//!     Response::Map(reply) => {
//!         assert_eq!(reply.req_id, 42);
//!         assert_eq!(reply.status, WireStatus::Mapped);
//!         assert!(reply.positions.contains(&320));
//!     }
//!     other => panic!("unexpected response: {other:?}"),
//! }
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]

pub mod client;
pub mod coalescer;
pub mod perf;
pub mod protocol;
pub mod server;

pub use client::{MapClient, RecvHalf, SendHalf};
pub use coalescer::{Admission, Coalescer, CoalescerConfig, Drain, Pending};
pub use perf::{LatencyHistogram, LatencySummary};
pub use protocol::{
    error_code, read_frame, write_frame, HealthReply, MapReply, OverloadReason, Request, Response,
    ServerCounters, WireError, WireStatus, MAX_FRAME,
};
pub use server::{Server, ServerConfig};
