//! The TCP server: accept loop, per-connection readers, and the single
//! batch-executor thread that drains the [`Coalescer`] through
//! [`AsmcapPipeline::map_batch_packed_indexed`].
//!
//! # Thread model
//!
//! - **Accept thread** — polls a non-blocking listener, enforces the
//!   connection cap, and spawns one reader per connection.
//! - **Reader threads** (one per connection) — block on frame reads,
//!   decode requests, and [`Coalescer::offer`] map requests. Admission
//!   refusals are answered inline with [`Response::Overload`]; malformed
//!   frames with [`Response::ProtocolError`] followed by a close. A
//!   reader never panics on hostile input (the workspace lint polices
//!   this crate's panic surface).
//! - **Executor thread** (exactly one) — blocks in
//!   [`Coalescer::next_batch`], maps each batch in one
//!   [`AsmcapPipeline::map_batch_packed_indexed`] call (one batched
//!   backend call per executor tile), and writes each reply to its
//!   connection.
//!
//! Replies to one connection are serialized by a per-connection writer
//! mutex; a **slow reader** whose socket stays unwritable past
//! [`ServerConfig::write_timeout`] is dropped (both halves shut down) so
//! it cannot stall the executor behind a full kernel buffer.
//!
//! # Shutdown
//!
//! [`Server::shutdown`] (or a remote [`Request::Shutdown`], when allowed)
//! stops the accept loop, shuts the **read** half of every connection
//! (readers exit at EOF, write halves stay open), then closes the
//! coalescer — the executor drains every admitted request and answers it
//! before exiting. Nothing admitted is dropped. The drain itself is
//! bounded by [`ServerConfig::drain_timeout`]: a watchdog force-closes
//! any connection still open past it (counted in
//! [`ServerCounters::force_closed`]) so a stalled peer cannot wedge
//! shutdown.

use std::collections::BTreeMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use asmcap::AsmcapPipeline;
use asmcap_genome::{DnaSeq, PackedSeq};

use crate::coalescer::{Admission, Coalescer, CoalescerConfig, Pending};
use crate::perf;
use crate::protocol::{
    error_code, error_response, read_frame, write_frame, HealthReply, MapReply, OverloadReason,
    Request, Response, ServerCounters, WireError,
};

/// Everything [`Server::spawn`] needs beyond the pipeline.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`127.0.0.1:0` binds an ephemeral loopback port;
    /// read it back with [`Server::local_addr`]).
    pub addr: String,
    /// Concurrent-connection cap; further connects are answered with a
    /// [`error_code::TOO_MANY_CONNECTIONS`] protocol error and closed.
    pub max_connections: usize,
    /// Admission/batching policy (see [`CoalescerConfig`]).
    pub coalescer: CoalescerConfig,
    /// How long one reply write may block before the connection is
    /// declared a slow reader and dropped.
    pub write_timeout: Duration,
    /// Whether a client [`Request::Shutdown`] stops the server. Keep off
    /// unless the client is trusted (the loopback CI harness and the
    /// load generator use it).
    pub allow_remote_shutdown: bool,
    /// Upper bound on the drain-then-close shutdown phase. If the
    /// executor has not finished answering admitted requests within this
    /// window, every remaining connection is force-closed (counted in
    /// [`ServerCounters::force_closed`]) so shutdown cannot hang behind a
    /// stalled peer.
    pub drain_timeout: Duration,
}

impl Default for ServerConfig {
    /// Ephemeral loopback port, 64 connections, default coalescer, 5 s
    /// write timeout, remote shutdown off, 10 s drain bound.
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 64,
            coalescer: CoalescerConfig::default(),
            write_timeout: Duration::from_secs(5),
            allow_remote_shutdown: false,
            drain_timeout: Duration::from_secs(10),
        }
    }
}

/// Lock-free counter block behind [`Server::counters`].
#[derive(Debug, Default)]
struct Counters {
    accepted: AtomicU64,
    mapped: AtomicU64,
    unmapped: AtomicU64,
    truncated: AtomicU64,
    rejected: AtomicU64,
    overloaded: AtomicU64,
    shed: AtomicU64,
    batches: AtomicU64,
    batched_reads: AtomicU64,
    dropped_connections: AtomicU64,
    deadline_expired: AtomicU64,
    force_closed: AtomicU64,
}

impl Counters {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok — monotonic stats counter
    }

    fn snapshot(&self) -> ServerCounters {
        // lint: relaxed-ok — monotonic stats counters; snapshot need not
        // be a consistent cut.
        let read = |c: &AtomicU64| c.load(Ordering::Relaxed);
        ServerCounters {
            accepted: read(&self.accepted),
            mapped: read(&self.mapped),
            unmapped: read(&self.unmapped),
            truncated: read(&self.truncated),
            rejected: read(&self.rejected),
            overloaded: read(&self.overloaded),
            shed: read(&self.shed),
            batches: read(&self.batches),
            batched_reads: read(&self.batched_reads),
            dropped_connections: read(&self.dropped_connections),
            deadline_expired: read(&self.deadline_expired),
            force_closed: read(&self.force_closed),
        }
    }
}

/// Per-connection state shared between its reader thread and the
/// executor (via the coalescer tag).
#[derive(Debug)]
struct Conn {
    /// The accepted stream; kept for half-close at shutdown.
    stream: TcpStream,
    /// Serialized reply writer (a `try_clone` of `stream` with the write
    /// timeout armed).
    writer: Mutex<TcpStream>,
    /// Set once, when the connection is dropped for cause (protocol
    /// error or slow reader).
    dropped: AtomicBool,
}

impl Conn {
    /// Writes one response frame. On any write failure the connection is
    /// dropped for cause: both halves shut down, `dropped_connections`
    /// bumped once. Returns whether the write landed.
    fn send(&self, response: &Response, counters: &Counters) -> bool {
        let payload = response.encode();
        let mut buf = Vec::with_capacity(4 + payload.len());
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&payload);
        self.send_raw(&buf, counters)
    }

    /// Writes pre-framed bytes (one or more whole frames) in a single
    /// syscall, with [`Conn::send`]'s drop-for-cause semantics.
    fn send_raw(&self, framed: &[u8], counters: &Counters) -> bool {
        use std::io::Write;
        let mut writer = self.writer.lock().expect("connection writer lock poisoned");
        match writer.write_all(framed) {
            Ok(()) => true,
            Err(_) => {
                drop(writer);
                self.drop_for_cause(counters);
                false
            }
        }
    }

    /// Shuts both socket halves and counts the drop exactly once.
    fn drop_for_cause(&self, counters: &Counters) {
        // lint: relaxed-ok — idempotence flag for a stats counter
        if !self.dropped.swap(true, Ordering::Relaxed) {
            Counters::bump(&counters.dropped_connections);
            let _ = self.stream.shutdown(Shutdown::Both);
        }
    }
}

/// State shared by every server thread.
#[derive(Debug)]
struct Shared {
    pipeline: AsmcapPipeline,
    coalescer: Coalescer<Arc<Conn>>,
    counters: Counters,
    stop: AtomicBool,
    /// Set by the executor once the coalescer is drained; the shutdown
    /// watchdog polls it to decide whether force-closing is needed.
    drained: AtomicBool,
    /// Live connections, for read-half shutdown at stop time. Weak so a
    /// finished connection frees itself.
    conns: Mutex<Vec<Weak<Conn>>>,
    allow_remote_shutdown: bool,
    drain_timeout: Duration,
    /// The drain watchdog spawned by `trigger_shutdown`, joined by
    /// `Server::join_all` so `force_closed` is final when shutdown
    /// returns.
    watchdog: Mutex<Option<JoinHandle<()>>>,
}

impl Shared {
    /// Idempotent stop: end the accept loop, EOF every reader, close the
    /// coalescer so the executor drains and exits, and arm the
    /// drain-timeout watchdog that bounds that drain.
    fn trigger_shutdown(self: &Arc<Self>) {
        // lint: relaxed-ok — one-way flag; the accept loop polls it
        if self.stop.swap(true, Ordering::Relaxed) {
            return;
        }
        let conns = self
            .conns
            .lock()
            .expect("connection registry lock poisoned");
        for conn in conns.iter().filter_map(Weak::upgrade) {
            // Read half only: queued replies still go out.
            let _ = conn.stream.shutdown(Shutdown::Read);
        }
        drop(conns);
        self.coalescer.close();
        let shared = Arc::clone(self);
        let watchdog = std::thread::Builder::new()
            .name("asmcap-serve-drain-watchdog".to_string())
            .spawn(move || run_drain_watchdog(&shared));
        if let Ok(handle) = watchdog {
            *self.watchdog.lock().expect("watchdog lock poisoned") = Some(handle);
        }
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Relaxed) // lint: relaxed-ok — advisory poll of a one-way flag
    }

    /// The readiness/degradation snapshot a [`Request::Health`] gets.
    fn health(&self) -> HealthReply {
        HealthReply {
            ready: !self.stopping(),
            fault_armed: self.pipeline.fault_armed(),
            quarantined_rows: self.pipeline.quarantined_rows() as u64,
            queue_depth: self.coalescer.len() as u64,
            queue_cap: self.coalescer.config().queue_cap as u64,
        }
    }
}

/// Bounds the drain-then-close phase: once `drain_timeout` elapses with
/// the executor still draining, every remaining connection is shut down
/// (failing the executor's pending writes, which unblocks it) and counted
/// in `force_closed`.
fn run_drain_watchdog(shared: &Arc<Shared>) {
    // lint: timing-ok — shutdown pacing only; cannot reach a mapping
    // decision.
    let start = perf::now();
    // lint: relaxed-ok — advisory poll of a one-way flag
    while !shared.drained.load(Ordering::Relaxed) {
        if start.elapsed() >= shared.drain_timeout {
            let conns = shared
                .conns
                .lock()
                .expect("connection registry lock poisoned");
            let mut closed = 0u64;
            for conn in conns.iter().filter_map(Weak::upgrade) {
                // lint: relaxed-ok — idempotence flag for a stats counter
                if !conn.dropped.swap(true, Ordering::Relaxed) {
                    let _ = conn.stream.shutdown(Shutdown::Both);
                    Counters::bump(&shared.counters.force_closed);
                    closed += 1;
                }
            }
            drop(conns);
            if closed > 0 {
                eprintln!(
                    "asmcap-serve: shutdown drain exceeded {:?}; force-closed {closed} connection(s)",
                    shared.drain_timeout
                );
            }
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Whether mapping `read` would scan the full reference — the expensive
/// class the shed policy refuses first. Too-short reads are "cheap"
/// (they reject without searching); too-long reads are classified by the
/// row-width prefix that would actually be searched.
fn needs_full_scan(pipeline: &AsmcapPipeline, read: &PackedSeq) -> bool {
    let width = pipeline.row_width();
    if read.len() < width {
        return false;
    }
    let Some(prefilter) = pipeline.prefilter() else {
        // No prefilter: every searched read is a full scan.
        return true;
    };
    let query = if read.len() > width {
        read.window(0..width)
    } else {
        read.clone()
    };
    prefilter.shortlist(&query).is_full_scan()
}

/// A running mapping server. Construct with [`Server::spawn`]; stop with
/// [`Server::shutdown`] (or [`Server::wait`] if a remote shutdown will
/// arrive).
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    executor: Option<JoinHandle<()>>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds `config.addr` and starts the accept + executor threads.
    ///
    /// # Errors
    ///
    /// I/O errors from binding or configuring the listener.
    pub fn spawn(pipeline: AsmcapPipeline, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            pipeline,
            coalescer: Coalescer::new(config.coalescer),
            counters: Counters::default(),
            stop: AtomicBool::new(false),
            drained: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            allow_remote_shutdown: config.allow_remote_shutdown,
            drain_timeout: config.drain_timeout,
            watchdog: Mutex::new(None),
        });
        let readers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let executor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("asmcap-serve-executor".to_string())
                .spawn(move || run_executor(&shared))?
        };
        let accept = {
            let shared = Arc::clone(&shared);
            let readers = Arc::clone(&readers);
            let write_timeout = config.write_timeout;
            let max_connections = config.max_connections;
            std::thread::Builder::new()
                .name("asmcap-serve-accept".to_string())
                .spawn(move || {
                    run_accept(&listener, &shared, &readers, write_timeout, max_connections);
                })?
        };
        Ok(Server {
            shared,
            addr,
            accept: Some(accept),
            executor: Some(executor),
            readers,
        })
    }

    /// The bound address (useful with an ephemeral `:0` port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the aggregate counters.
    #[must_use]
    pub fn counters(&self) -> ServerCounters {
        self.shared.counters.snapshot()
    }

    /// The served pipeline's aggregated mapping statistics.
    #[must_use]
    pub fn pipeline_stats(&self) -> asmcap::PipelineStats {
        self.shared.pipeline.stats()
    }

    /// Stops the server and joins every thread. Admitted requests are
    /// drained and answered first; the queue refuses new work
    /// immediately. Returns the final counter totals.
    pub fn shutdown(mut self) -> ServerCounters {
        self.shared.trigger_shutdown();
        self.join_all();
        self.shared.counters.snapshot()
    }

    /// Blocks until the server stops **on its own** — i.e. a remote
    /// [`Request::Shutdown`] arrives (so only meaningful with
    /// [`ServerConfig::allow_remote_shutdown`]). Joins every thread and
    /// returns the final counter totals.
    pub fn wait(mut self) -> ServerCounters {
        self.join_all();
        self.shared.counters.snapshot()
    }

    fn join_all(&mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.executor.take() {
            let _ = handle.join();
        }
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.readers.lock().expect("reader registry lock poisoned"));
        for handle in handles {
            let _ = handle.join();
        }
        let watchdog = self
            .shared
            .watchdog
            .lock()
            .expect("watchdog lock poisoned")
            .take();
        if let Some(handle) = watchdog {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    /// Safety net for early returns in tests: trigger shutdown and join
    /// whatever is still running.
    fn drop(&mut self) {
        self.shared.trigger_shutdown();
        self.join_all();
    }
}

/// The accept loop: poll, cap, spawn readers.
fn run_accept(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    readers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
    write_timeout: Duration,
    max_connections: usize,
) {
    let active = Arc::new(AtomicUsize::new(0));
    let mut next_client: u64 = 0;
    while !shared.stopping() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // lint: relaxed-ok — approximate admission cap; an off-by-one
                // connection under a race is harmless.
                if active.load(Ordering::Relaxed) >= max_connections {
                    refuse_connection(&stream);
                    continue;
                }
                let Ok(conn) = make_conn(stream, write_timeout) else {
                    continue;
                };
                let conn = Arc::new(conn);
                shared
                    .conns
                    .lock()
                    .expect("connection registry lock poisoned")
                    .push(Arc::downgrade(&conn));
                active.fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok — approximate cap
                let client = next_client;
                next_client += 1;
                let shared = Arc::clone(shared);
                let reader_active = Arc::clone(&active);
                let spawned = std::thread::Builder::new()
                    .name(format!("asmcap-serve-reader-{client}"))
                    .spawn(move || {
                        run_reader(&shared, &conn, client);
                        // lint: relaxed-ok — approximate cap
                        reader_active.fetch_sub(1, Ordering::Relaxed);
                    });
                match spawned {
                    Ok(handle) => readers
                        .lock()
                        .expect("reader registry lock poisoned")
                        .push(handle),
                    Err(_) => {
                        active.fetch_sub(1, Ordering::Relaxed); // lint: relaxed-ok — approximate cap
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(500));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Answers an over-cap connect with a typed error and closes it.
fn refuse_connection(stream: &TcpStream) {
    let response = Response::ProtocolError {
        code: error_code::TOO_MANY_CONNECTIONS,
        detail: "server connection cap reached".to_string(),
    };
    let mut writer = stream;
    let _ = write_frame(&mut writer, &response.encode());
    let _ = stream.shutdown(Shutdown::Both);
}

/// Configures the accepted stream: nodelay for small frames, a cloned
/// write half with the slow-reader timeout armed.
fn make_conn(stream: TcpStream, write_timeout: Duration) -> io::Result<Conn> {
    stream.set_nodelay(true)?;
    let writer = stream.try_clone()?;
    writer.set_write_timeout(Some(write_timeout.max(Duration::from_millis(1))))?;
    Ok(Conn {
        stream,
        writer: Mutex::new(writer),
        dropped: AtomicBool::new(false),
    })
}

/// One connection's read loop. Exits on clean disconnect, on the first
/// protocol error (after answering it), or at server shutdown (EOF via
/// read-half shutdown).
fn run_reader(shared: &Arc<Shared>, conn: &Arc<Conn>, client: u64) {
    let mut reader = match conn.stream.try_clone() {
        Ok(stream) => std::io::BufReader::new(stream),
        Err(_) => {
            conn.drop_for_cause(&shared.counters);
            return;
        }
    };
    loop {
        match read_frame(&mut reader) {
            Ok(payload) => match Request::decode(&payload) {
                Ok(request) => {
                    if !handle_request(shared, conn, client, request) {
                        break;
                    }
                }
                Err(error) => {
                    answer_wire_error(shared, conn, &error);
                    break;
                }
            },
            Err(WireError::Disconnected) => break,
            Err(error) => {
                answer_wire_error(shared, conn, &error);
                break;
            }
        }
    }
}

/// Sends the typed response for a client-fault error (if any) and drops
/// the connection for cause.
fn answer_wire_error(shared: &Arc<Shared>, conn: &Arc<Conn>, error: &WireError) {
    if let Some(response) = error_response(error) {
        let _ = conn.send(&response, &shared.counters);
    }
    conn.drop_for_cause(&shared.counters);
}

/// Dispatches one decoded request. Returns whether the reader should
/// keep going.
fn handle_request(shared: &Arc<Shared>, conn: &Arc<Conn>, client: u64, request: Request) -> bool {
    match request {
        Request::Map { req_id, bases } => {
            let seq = DnaSeq::from_bytes(&bases).expect("protocol decode validated ACGT");
            let read = PackedSeq::from_seq(&seq);
            let pending = Pending {
                client,
                req_id,
                read: read.clone(),
                enqueued: perf::now(),
                tag: Arc::clone(conn),
            };
            let admission = shared
                .coalescer
                .offer(pending, || needs_full_scan(&shared.pipeline, &read));
            match admission {
                Admission::Enqueued => {
                    Counters::bump(&shared.counters.accepted);
                    true
                }
                Admission::QueueFull | Admission::Closed => {
                    Counters::bump(&shared.counters.overloaded);
                    conn.send(
                        &Response::Overload {
                            req_id,
                            reason: OverloadReason::QueueFull,
                        },
                        &shared.counters,
                    )
                }
                Admission::Shed => {
                    Counters::bump(&shared.counters.shed);
                    conn.send(
                        &Response::Overload {
                            req_id,
                            reason: OverloadReason::Shed,
                        },
                        &shared.counters,
                    )
                }
            }
        }
        Request::Stats => conn.send(
            &Response::Stats(shared.counters.snapshot()),
            &shared.counters,
        ),
        Request::Health => conn.send(&Response::Health(shared.health()), &shared.counters),
        Request::Shutdown => {
            if shared.allow_remote_shutdown {
                let _ = conn.send(&Response::ShutdownAck, &shared.counters);
                shared.trigger_shutdown();
                false
            } else {
                conn.send(
                    &Response::ProtocolError {
                        code: error_code::SHUTDOWN_FORBIDDEN,
                        detail: "this server does not accept remote shutdown".to_string(),
                    },
                    &shared.counters,
                )
            }
        }
    }
}

/// The executor loop: drain batches until the coalescer closes and
/// empties. Deadline-expired requests are answered with a typed overload
/// before the live batch is mapped.
fn run_executor(shared: &Arc<Shared>) {
    while let Some(drain) = shared.coalescer.next_drain() {
        for pending in &drain.expired {
            Counters::bump(&shared.counters.deadline_expired);
            let _ = pending.tag.send(
                &Response::Overload {
                    req_id: pending.req_id,
                    reason: OverloadReason::Deadline,
                },
                &shared.counters,
            );
        }
        let batch = drain.batch;
        if batch.is_empty() {
            continue;
        }
        let drain_start = perf::now();
        let reads: Vec<PackedSeq> = batch.iter().map(|p| p.read.clone()).collect();
        // The request id IS the read index: seeds derive from it, so the
        // reply to a request is independent of batching and arrival order.
        let indices: Vec<u64> = batch.iter().map(|p| p.req_id).collect();
        let records = shared.pipeline.map_batch_packed_indexed(&reads, &indices);
        let service_us = perf::micros_between(drain_start, perf::now());
        Counters::bump(&shared.counters.batches);
        shared
            .counters
            .batched_reads
            // lint: relaxed-ok — monotonic stats counter
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        // Group this batch's replies per connection and write each
        // connection's frames in one syscall — at saturation this turns
        // `batch_max` tiny writes into one write per active client.
        let mut outboxes: BTreeMap<u64, (&Arc<Conn>, Vec<u8>)> = BTreeMap::new();
        for (pending, record) in batch.iter().zip(records) {
            match record.status {
                asmcap::MapStatus::Mapped => Counters::bump(&shared.counters.mapped),
                asmcap::MapStatus::Unmapped => Counters::bump(&shared.counters.unmapped),
                asmcap::MapStatus::Truncated => Counters::bump(&shared.counters.truncated),
                asmcap::MapStatus::Rejected => Counters::bump(&shared.counters.rejected),
            }
            let reply = MapReply {
                req_id: pending.req_id,
                status: record.status.into(),
                queue_us: perf::micros_between(pending.enqueued, drain_start),
                service_us,
                cycles: record.cycles,
                searches: record.searches,
                energy_j: record.energy_j,
                positions: record.positions.iter().map(|&p| p as u64).collect(),
            };
            let payload = Response::Map(reply).encode();
            let (_, framed) = outboxes
                .entry(pending.client)
                .or_insert_with(|| (&pending.tag, Vec::new()));
            framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            framed.extend_from_slice(&payload);
        }
        for (conn, framed) in outboxes.into_values() {
            let _ = conn.send_raw(&framed, &shared.counters);
        }
    }
    // lint: relaxed-ok — one-way flag; the drain watchdog polls it
    shared.drained.store(true, Ordering::Relaxed);
}
