//! The serving path: an in-process `Server` on loopback, driven by two
//! closed-loop connections that each keep a fixed window in flight.
//!
//! Client `c`'s request `s` carries read `(c·P/2 + s) mod P` of the pool
//! (`P` reads) under request id `c << 32 | s`. Requests `s < P/2` of both
//! clients therefore cover the pool exactly once: that fixed set gives
//! `f1` and the `sim_*` metrics, and every one of its replies must equal
//! `map_batch_packed_indexed` for the same read and request id.

use crate::offline::{decompose, finish_untraced, quality, timed_setup, timing_metrics, Op};
use crate::report::Report;
use crate::stats::{ratio, Latency};
use crate::workload::{Inputs, Workload};
use asmcap_genome::PackedSeq;
use asmcap_serve::{
    MapClient, MapReply, Request, Response, SendHalf, Server, ServerConfig, WireStatus,
};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Load connections (and load threads): one per core of the reference host.
const CLIENTS: u64 = 2;
/// Requests each connection keeps in flight; all of them together stay far
/// below the coalescer's shed watermark.
const WINDOW: usize = 32;
/// How long a client waits for a reply before counting the rest missing.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);
/// Replies per second of load each connection reserves room for up front,
/// well above what it can reach: growing the log mid-run would stall the
/// client thread on a copy and show up as latency.
const REPLY_RESERVE_PER_S: f64 = 100_000.0;
/// How long set-up waits for Health to report ready.
const READY_TIMEOUT: Duration = Duration::from_secs(30);

/// The serving layer's per-layer metrics, by name and unit.
pub const SERVE_METRICS: [(&str, &str); 8] = [
    ("serve.coalescer.queue_us_p50", "us"),
    ("serve.coalescer.queue_us_p99", "us"),
    ("serve.coalescer.batch_size", "count"),
    ("serve.server.service_us_p50", "us"),
    ("serve.server.service_us_p99", "us"),
    ("serve.wire_us_p50", "us"),
    ("serve.server.overloads", "count"),
    ("serve.server.dropped_connections", "count"),
];

/// One reply's timings: when it arrived (seconds into the load), its round
/// trip, and the queue wait and service time the server reported.
#[derive(Debug, Clone, Copy)]
struct Timing {
    end_s: f32,
    rtt_us: f32,
    queue_us: u32,
    service_us: u32,
}

/// What one closed-loop connection saw.
#[derive(Debug, Default)]
struct Tally {
    sent: u64,
    /// Typed refusals: queue full, shed, or deadline.
    overloads: u64,
    protocol_errors: u64,
    send_failures: u64,
    /// Requests still in flight when the connection failed or timed out.
    missing: u64,
    /// Replies to requests this client did not have in flight.
    unexpected: u64,
    replies: Vec<Timing>,
    /// `(pool read, reply)` for the fixed quality set.
    quality: Vec<(usize, MapReply)>,
}

impl Tally {
    fn absorb(&mut self, other: Tally) {
        self.sent += other.sent;
        self.overloads += other.overloads;
        self.protocol_errors += other.protocol_errors;
        self.send_failures += other.send_failures;
        self.missing += other.missing;
        self.unexpected += other.unexpected;
        self.replies.extend(other.replies);
        self.quality.extend(other.quality);
    }

    fn failed(&self) -> u64 {
        self.overloads + self.protocol_errors + self.send_failures + self.missing + self.unexpected
    }
}

/// One connection's request stream.
struct Stream<'a> {
    client: u64,
    bases: &'a [Vec<u8>],
    tx: SendHalf,
    next: u64,
    in_flight: HashMap<u64, (Instant, usize)>,
}

impl Stream<'_> {
    fn read_of(&self, seq: u64) -> usize {
        let pool = self.bases.len();
        (self.client as usize * (pool / 2) + seq as usize) % pool
    }

    /// Sends the next request; `false` once the connection refuses.
    fn send_next(&mut self, tally: &mut Tally) -> bool {
        let seq = self.next;
        let read = self.read_of(seq);
        let frame = Request::Map {
            req_id: (self.client << 32) | seq,
            bases: self.bases[read].clone(),
        }
        .encode_framed();
        let sent_at = Instant::now();
        match self.tx.send_framed(&frame).and_then(|()| self.tx.flush()) {
            Ok(()) => {
                self.in_flight.insert(seq, (sent_at, read));
                self.next += 1;
                tally.sent += 1;
                true
            }
            Err(_) => {
                tally.send_failures += 1;
                false
            }
        }
    }
}

/// Drives one connection: [`WINDOW`] requests in flight until `deadline`,
/// then drains what is owed.
fn closed_loop(
    addr: SocketAddr,
    client: u64,
    bases: &[Vec<u8>],
    start: Instant,
    deadline: Instant,
) -> Tally {
    let mut tally = Tally {
        replies: Vec::with_capacity(
            (deadline.duration_since(start).as_secs_f64() * REPLY_RESERVE_PER_S) as usize,
        ),
        ..Tally::default()
    };
    let split = MapClient::connect(addr).and_then(|c| {
        c.set_read_timeout(Some(REPLY_TIMEOUT))?;
        c.into_split()
    });
    let Ok((tx, mut rx)) = split else {
        tally.send_failures += 1;
        return tally;
    };
    let quality_set = (bases.len() / 2) as u64;
    let mut stream = Stream {
        client,
        bases,
        tx,
        next: 0,
        in_flight: HashMap::with_capacity(WINDOW),
    };
    let mut sending = (0..WINDOW).all(|_| stream.send_next(&mut tally));
    while !stream.in_flight.is_empty() {
        let Ok(response) = rx.recv() else {
            break;
        };
        let now = Instant::now();
        match response {
            Response::Map(reply) => match stream.in_flight.remove(&(reply.req_id & 0xFFFF_FFFF)) {
                Some((sent_at, read)) => {
                    tally.replies.push(Timing {
                        end_s: now.duration_since(start).as_secs_f32(),
                        rtt_us: now.duration_since(sent_at).as_secs_f32() * 1e6,
                        queue_us: reply.queue_us,
                        service_us: reply.service_us,
                    });
                    if (reply.req_id & 0xFFFF_FFFF) < quality_set {
                        tally.quality.push((read, reply));
                    }
                }
                None => tally.unexpected += 1,
            },
            Response::Overload { req_id, .. } => {
                stream.in_flight.remove(&(req_id & 0xFFFF_FFFF));
                tally.overloads += 1;
            }
            _ => {
                // A protocol error closes the connection; nothing else owed.
                tally.protocol_errors += 1;
                break;
            }
        }
        sending = sending && now < deadline && stream.send_next(&mut tally);
    }
    tally.missing += stream.in_flight.len() as u64;
    let _ = stream.tx.finish();
    tally
}

/// Spawns the server and waits until Health reports ready; returns it
/// with the control connection that asked.
fn spawn_ready(workload: &Workload, inputs: &Inputs) -> (Server, MapClient) {
    let pipeline = workload.build_pipeline(inputs.reference.clone());
    let server = Server::spawn(pipeline, ServerConfig::default()).expect("loopback server binds");
    let mut control = MapClient::connect(server.local_addr()).expect("control connection opens");
    let start = Instant::now();
    while !control.health().expect("health request answered").ready {
        assert!(
            start.elapsed() < READY_TIMEOUT,
            "server never reported ready"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    (server, control)
}

/// `serve_mixed`: the closed loop for the end-to-end metrics, or (traced)
/// the serving layer's numbers plus the ladder over coalesced batches.
pub fn run(workload: &Workload, seed: u64, budget: Duration, trace: bool) -> Report {
    let mut report = Report::default();
    let inputs = Inputs::generate(workload, seed);
    let bases: Vec<Vec<u8>> = inputs
        .reads
        .iter()
        .map(|r| r.to_seq().to_string().into_bytes())
        .collect();
    let ((server, mut control), setup_s) = timed_setup(|| spawn_ready(workload, &inputs));
    let load_budget = if trace { budget / 2 } else { budget };

    let start = Instant::now();
    let deadline = start + load_budget;
    let addr = server.local_addr();
    let mut tally = Tally::default();
    let bases = &bases;
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| scope.spawn(move || closed_loop(addr, c, bases, start, deadline)))
            .collect();
        for client in clients {
            tally.absorb(client.join().expect("load thread panicked"));
        }
    });
    let elapsed = start.elapsed();
    let counters = control.stats().expect("stats request answered");
    drop(control);
    let final_counters = server.shutdown();
    report.attempted += tally.sent + tally.send_failures;
    if tally.failed() > 0 {
        report.fail(
            tally.failed(),
            format!(
                "{} overloads, {} protocol errors, {} send failures, {} missing replies, {} unexpected replies",
                tally.overloads, tally.protocol_errors, tally.send_failures, tally.missing, tally.unexpected
            ),
        );
    }
    report.check(final_counters.dropped_connections == 0, || {
        format!(
            "server dropped {} connections",
            final_counters.dropped_connections
        )
    });

    // The quality set: every pool read once, each reply equal to the
    // pipeline's record for the same read and request id.
    tally.quality.sort_by_key(|(read, _)| *read);
    let covered = tally.quality.len() == inputs.reads.len()
        && tally
            .quality
            .iter()
            .enumerate()
            .all(|(i, (read, _))| *read == i);
    report.check(covered, || {
        format!(
            "quality set incomplete: {} of {} reads answered",
            tally.quality.len(),
            inputs.reads.len()
        )
    });
    let verify = workload.build_pipeline(inputs.reference.clone());
    let reads: Vec<PackedSeq> = tally
        .quality
        .iter()
        .map(|(read, _)| inputs.reads[*read].clone())
        .collect();
    let ids: Vec<u64> = tally
        .quality
        .iter()
        .map(|(_, reply)| reply.req_id)
        .collect();
    let records = verify.map_batch_packed_indexed(&reads, &ids);
    let differing = tally
        .quality
        .iter()
        .zip(&records)
        .filter(|((_, reply), record)| {
            reply.status != WireStatus::from(record.status)
                || reply
                    .positions
                    .iter()
                    .map(|&p| p as usize)
                    .ne(record.positions.iter().copied())
                || reply.cycles != record.cycles
                || reply.searches != record.searches
                || reply.energy_j.to_bits() != record.energy_j.to_bits()
        })
        .count() as u64;
    if differing > 0 {
        report.fail(
            differing,
            format!("{differing} served replies differ from the pipeline's records"),
        );
    }

    report.note(
        "closed_loop",
        format!(
            "{CLIENTS} connections x window {WINDOW}; {} sent, {} answered in {:.3}s",
            tally.sent,
            tally.replies.len(),
            elapsed.as_secs_f64()
        ),
    );
    if trace {
        serve_layers(&mut report, &tally, counters);
        let batch = ratio(counters.batched_reads as f64, counters.batches as f64)
            .round()
            .max(1.0) as usize;
        decompose(&mut report, workload, &inputs, &verify, batch, budget / 2);
        return report;
    }
    report.metric("setup_s", setup_s, "s");
    let ops = tally.replies.iter().map(|r| Op {
        end_s: f64::from(r.end_s),
        ms: f64::from(r.rtt_us) / 1e3,
        reads: 1,
    });
    timing_metrics(
        &mut report,
        "client send to reply",
        ops,
        load_budget.as_secs_f64(),
        true,
    );
    // The served replies equal these records (checked above).
    let pass = tally.quality.iter().map(|(read, _)| *read).zip(&records);
    quality(&mut report, &inputs.origins, pass);
    finish_untraced(&mut report);
    report
}

/// The serving layer's metrics, from the replies' own timings and the
/// server's Stats counters.
fn serve_layers(report: &mut Report, tally: &Tally, counters: asmcap_serve::ServerCounters) {
    let p50_tail = |us: &dyn Fn(&Timing) -> f64| {
        Latency::of(tally.replies.iter().map(us).collect()).map_or((0.0, 0.0), |l| (l.p50, l.tail))
    };
    let (queue_p50, queue_tail) = p50_tail(&|r| f64::from(r.queue_us));
    let (service_p50, service_tail) = p50_tail(&|r| f64::from(r.service_us));
    let (wire_p50, _) =
        p50_tail(&|r| f64::from(r.rtt_us) - f64::from(r.queue_us) - f64::from(r.service_us));
    let values = [
        queue_p50,
        queue_tail,
        ratio(counters.batched_reads as f64, counters.batches as f64),
        service_p50,
        service_tail,
        wire_p50,
        (counters.overloaded + counters.shed + counters.deadline_expired) as f64,
        counters.dropped_connections as f64,
    ];
    for ((name, unit), value) in SERVE_METRICS.iter().zip(values) {
        report.metric(name, value, unit);
    }
}
