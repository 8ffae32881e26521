//! A served reply equals the pipeline's record for the same read and
//! request id.
//!
//! The server maps every coalesced batch with
//! `AsmcapPipeline::map_batch_packed_indexed`, keyed on request ids. This
//! suite drives a loopback server with the prefilter on and foreign reads
//! in the pool, so coalesced batches mix shortlisted reads with
//! full-scan fallbacks. It compares every mapping field a `MapReply`
//! carries (status, cycles, searches, energy, positions) against an
//! independently built pipeline's record for the same read and index.
//! `queue_us` and `service_us` are the server's own timings, which no
//! record carries. The suite runs with faults off and under the
//! paper-corner fault plan, at one and at four concurrent clients.

use std::sync::Barrier;
use std::time::Duration;

use asmcap::{AsmcapPipeline, BackendKind, FaultPlan, MapRecord, PipelineConfig, PrefilterConfig};
use asmcap_genome::{DnaSeq, ErrorProfile, GenomeModel, PackedSeq, ReadSampler};
use asmcap_serve::{
    CoalescerConfig, MapClient, MapReply, Request, Response, Server, ServerConfig, WireStatus,
};

const WIDTH: usize = 128;

fn pipeline(genome: &DnaSeq, fault: Option<FaultPlan>) -> AsmcapPipeline {
    AsmcapPipeline::builder()
        .reference(genome.clone())
        .config(PipelineConfig {
            threshold: 6,
            stride: 8,
            row_width: WIDTH,
            prefilter: Some(PrefilterConfig::default()),
            fault,
            ..PipelineConfig::default()
        })
        .backend(BackendKind::Device)
        .workers(2)
        .build()
        .expect("test pipeline builds")
}

/// Reads sampled off the reference, foreign reads (prefilter fallback:
/// full scan), one read longer than a row and one shorter, each with a
/// distinct request id.
fn request_pool(genome: &DnaSeq) -> Vec<(u64, DnaSeq)> {
    let sampler = ReadSampler::new(WIDTH, ErrorProfile::condition_a());
    let mut reads: Vec<DnaSeq> = sampler
        .sample_many(genome, 40, 17)
        .into_iter()
        .map(|read| read.bases)
        .collect();
    let foreign = GenomeModel::uniform().generate(8 * WIDTH, 4_242);
    reads.extend((0..8).map(|i| foreign.window(i * WIDTH..(i + 1) * WIDTH)));
    reads.push(genome.window(1_000..1_000 + WIDTH + 40));
    reads.push(genome.window(2_000..2_000 + WIDTH / 2));
    reads
        .into_iter()
        .enumerate()
        .map(|(i, read)| (0x5EED_0000 + 7 * i as u64, read))
        .collect()
}

/// Sends `requests` over `clients` concurrent connections (request `i`
/// on connection `i % clients`, each connection pipelining all of its
/// requests before reading replies) and returns the replies by request
/// id.
fn serve(server: &Server, requests: &[(u64, DnaSeq)], clients: usize) -> Vec<MapReply> {
    let addr = server.local_addr();
    let start = Barrier::new(clients);
    let mut replies: Vec<MapReply> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let start = &start;
                scope.spawn(move || {
                    let mut client = MapClient::connect(addr).expect("client connects");
                    client
                        .set_read_timeout(Some(Duration::from_secs(60)))
                        .expect("timeout set");
                    let mine: Vec<&(u64, DnaSeq)> =
                        requests.iter().skip(c).step_by(clients).collect();
                    start.wait();
                    for (req_id, read) in &mine {
                        client
                            .send(&Request::Map {
                                req_id: *req_id,
                                bases: read.to_string().into_bytes(),
                            })
                            .expect("request sent");
                    }
                    (0..mine.len())
                        .map(|_| match client.recv().expect("reply received") {
                            Response::Map(reply) => reply,
                            other => panic!("expected a map reply, got {other:?}"),
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("client thread"))
            .collect()
    });
    replies.sort_by_key(|reply| reply.req_id);
    replies
}

fn check_replies(requests: &[(u64, DnaSeq)], replies: &[MapReply], records: &[MapRecord]) {
    let mut ids: Vec<u64> = requests.iter().map(|(id, _)| *id).collect();
    ids.sort_unstable();
    let answered: Vec<u64> = replies.iter().map(|reply| reply.req_id).collect();
    assert_eq!(answered, ids, "every request answered exactly once");
    for reply in replies {
        let at = requests
            .iter()
            .position(|(id, _)| *id == reply.req_id)
            .expect("reply to a sent request");
        let record = &records[at];
        assert_eq!(record.index, reply.req_id);
        let id = reply.req_id;
        assert_eq!(
            reply.status,
            WireStatus::from(record.status),
            "request {id}"
        );
        assert_eq!(reply.cycles, record.cycles, "request {id}");
        assert_eq!(reply.searches, record.searches, "request {id}");
        assert_eq!(
            reply.energy_j.to_bits(),
            record.energy_j.to_bits(),
            "request {id}"
        );
        let positions: Vec<usize> = reply.positions.iter().map(|&p| p as usize).collect();
        assert_eq!(positions, record.positions, "request {id}");
    }
}

#[test]
fn served_replies_equal_pipeline_records() {
    let genome = GenomeModel::uniform().generate(16_384, 23);
    let requests = request_pool(&genome);
    let packed: Vec<PackedSeq> = requests
        .iter()
        .map(|(_, read)| PackedSeq::from_seq(read))
        .collect();
    let ids: Vec<u64> = requests.iter().map(|(id, _)| *id).collect();
    for fault in [None, Some(FaultPlan::paper_corner(0xFA17))] {
        let verify = pipeline(&genome, fault.clone());
        // The pool mixes both device paths: shortlisted reads walk a row
        // mask, prefilter fallbacks scan every row.
        let prefilter = verify.prefilter().expect("prefilter armed");
        let full_scans = packed
            .iter()
            .filter(|read| read.len() == WIDTH && prefilter.shortlist(*read).is_full_scan())
            .count();
        assert!(full_scans > 0 && full_scans < packed.len() - 2);
        let records = verify.map_batch_packed_indexed(&packed, &ids);
        if fault.is_some() {
            assert!(records.iter().any(|record| record.degraded));
        }
        for clients in [1usize, 4] {
            let server = Server::spawn(
                pipeline(&genome, fault.clone()),
                ServerConfig {
                    coalescer: CoalescerConfig {
                        batch_max: 16,
                        flush_timeout: Duration::from_millis(2),
                        ..CoalescerConfig::default()
                    },
                    ..ServerConfig::default()
                },
            )
            .expect("server spawns");
            let replies = serve(&server, &requests, clients);
            check_replies(&requests, &replies, &records);
            let counters = server.counters();
            assert_eq!(counters.batched_reads, requests.len() as u64);
            assert_eq!(counters.dropped_connections, 0);
        }
    }
}
