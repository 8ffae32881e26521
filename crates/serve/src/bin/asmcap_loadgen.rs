//! `asmcap-loadgen` — open-loop load generator for `asmcap_serve`; usage
//! in `--help`.
//!
//! Each client runs a paced sender thread and a receiver thread;
//! round-trip latency is measured per request id. Every **successfully
//! sent** map request gets exactly one response (map reply or typed
//! overload), so a run is complete when that many responses have arrived
//! per client; a failed send is counted in `send_errors`, never as a
//! completed request.
//!
//! Reads are sampled from the same generated reference the server
//! stores (Condition-A error profile), so the mapped fraction is high
//! and stable; request ids are globally unique, so replies are
//! deterministic regardless of pacing.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use asmcap::args::Args;
use asmcap_genome::{ErrorProfile, GenomeModel, ReadSampler};
use asmcap_serve::perf::{self, LatencyHistogram, LatencySummary};
use asmcap_serve::{MapClient, OverloadReason, Request, Response, WireError};
use rand::Rng as _;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("asmcap-loadgen: {message}");
            ExitCode::FAILURE
        }
    }
}

/// One offered-load point's outcome.
struct RunResult {
    offered_rate: u64,
    window: u64,
    clients: usize,
    requests: u64,
    mapped: u64,
    unmapped: u64,
    truncated: u64,
    rejected: u64,
    queue_full: u64,
    shed: u64,
    deadline: u64,
    send_errors: u64,
    chaos_resets: u64,
    chaos_stalls: u64,
    elapsed_s: f64,
    latency: Option<LatencySummary>,
}

impl RunResult {
    fn achieved_rps(&self) -> f64 {
        let completed = self.mapped + self.unmapped + self.truncated + self.rejected;
        if self.elapsed_s > 0.0 {
            #[allow(clippy::cast_precision_loss)]
            {
                completed as f64 / self.elapsed_s
            }
        } else {
            0.0
        }
    }
}

fn run() -> Result<(), String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&raw, VALUE_FLAGS, SWITCHES)?;
    if args.has("--help") {
        print!("{HELP}");
        return Ok(());
    }
    let addr = args.value("--addr").ok_or("missing --addr HOST:PORT")?;
    let clients: usize = args.parsed("--clients")?.unwrap_or(8);
    let requests: u64 = args.parsed("--requests")?.unwrap_or(4_096);
    let ref_len: usize = args.parsed("--ref-len")?.unwrap_or(8_192);
    let ref_seed: u64 = args.parsed("--ref-seed")?.unwrap_or(7);
    let row_width: usize = args.parsed("--row-width")?.unwrap_or(128);
    let read_seed: u64 = args.parsed("--read-seed")?.unwrap_or(11);
    let rates: Vec<u64> = match args.value("--sweep") {
        Some(list) => list
            .split(',')
            .map(|r| {
                r.trim()
                    .parse()
                    .map_err(|_| format!("bad sweep rate '{r}'"))
            })
            .collect::<Result<_, _>>()?,
        None => vec![args.parsed("--rate")?.unwrap_or(100_000)],
    };
    let window: u64 = args.parsed("--window")?.unwrap_or(0);
    let chaos: Option<u64> = if args.has("--chaos") {
        Some(args.parsed("--chaos-seed")?.unwrap_or(13))
    } else {
        None
    };
    if clients == 0 || requests == 0 || rates.is_empty() {
        return Err("need at least one client, one request, and one rate".to_string());
    }

    // Sample every client's read set up front, from the server's
    // reference. Origins land on the server's segmentation grid by
    // default (`--stride`, 0 = unaligned): a serving workload is reads
    // that *can* map, and off-grid reads mostly cannot under strided
    // segmentation — they would measure the HDAC/TASR miss path instead
    // of serving capacity.
    let stride: usize = args.parsed("--stride")?.unwrap_or(8);
    let genome = GenomeModel::uniform().generate(ref_len, ref_seed);
    let sampler = ReadSampler::new(row_width, ErrorProfile::condition_a());
    // Cap origins at the sampler's own limit: error injection reads a
    // little past origin + read_len, so the grid stops short of the end.
    let max_origin = sampler
        .max_origin(ref_len)
        .ok_or("reference too short for the requested read width")?;
    let n_origins = max_origin / stride.max(1) + 1;
    let per_client = usize::try_from(requests).unwrap_or(usize::MAX);
    let reads_per_client: Vec<Vec<Vec<u8>>> = (0..clients)
        .map(|client| {
            let mut rng = asmcap_genome::rng(read_seed.wrapping_add(client as u64));
            if stride == 0 {
                sampler
                    .sample_many(&genome, per_client, read_seed.wrapping_add(client as u64))
                    .into_iter()
                    .map(|r| r.bases.to_string().into_bytes())
                    .collect()
            } else {
                (0..per_client)
                    .map(|_| {
                        let origin = (rng.gen::<u64>() as usize % n_origins) * stride;
                        sampler
                            .sample_at(&genome, origin, &mut rng)
                            .bases
                            .to_string()
                            .into_bytes()
                    })
                    .collect()
            }
        })
        .collect();

    let mut results = Vec::with_capacity(rates.len());
    for (round, &rate) in rates.iter().enumerate() {
        let result = run_once(
            addr,
            clients,
            requests,
            rate,
            window,
            round as u64,
            &reads_per_client,
            chaos,
        )?;
        print_result(&result);
        results.push(result);
    }

    if let Some(path) = args.value("--out") {
        std::fs::write(path, to_json(&results)).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("asmcap-loadgen: wrote {path}");
    }

    if args.has("--shutdown") {
        let mut client = MapClient::connect(addr).map_err(|e| format!("shutdown connect: {e}"))?;
        client
            .shutdown_server()
            .map_err(|e| format!("shutdown request: {e}"))?;
        eprintln!("asmcap-loadgen: server acknowledged shutdown");
    }
    Ok(())
}

/// How one chaos client misbehaves (drawn deterministically from the
/// chaos seed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChaosMode {
    /// Well-behaved: the normal paced sender/receiver pair.
    Normal,
    /// Sends part of the stream, then a torn half-frame, then shuts the
    /// socket — the server must answer with a drop-for-cause, not a
    /// panic.
    MidFrameAbort,
    /// Sends everything but stops reading replies for a while — the
    /// server's slow-reader policy must keep the executor unblocked.
    StalledReader,
}

/// SplitMix64 finalizer for the chaos behavior draw (seeded; a chaos
/// run's misbehavior pattern reproduces).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Drives one offered-load point: `clients` connections, `requests` map
/// requests each, paced to `rate` reads/s aggregate (0 = unpaced), with
/// at most `window` requests in flight per client (0 = uncapped). With
/// `chaos` set, roughly two thirds of the clients turn hostile.
#[allow(clippy::too_many_arguments)]
fn run_once(
    addr: &str,
    clients: usize,
    requests: u64,
    rate: u64,
    window: u64,
    round: u64,
    reads_per_client: &[Vec<Vec<u8>>],
    chaos: Option<u64>,
) -> Result<RunResult, String> {
    let interval = if rate == 0 {
        Duration::ZERO
    } else {
        Duration::from_secs_f64(clients as f64 / rate as f64)
    };
    // Pre-encode every request frame before the clock starts: the send
    // path then writes bytes verbatim, keeping encode cost off the timed
    // path (and off the core the server is sharing).
    let mut frames_per_client = Vec::with_capacity(clients);
    for client_idx in 0..clients {
        let reads = reads_per_client
            .get(client_idx)
            .ok_or("read set indexing out of range")?;
        let id_base = (round << 48) | ((client_idx as u64) << 32);
        let frames: Vec<Vec<u8>> = (0..requests)
            .map(|i| {
                let slot = usize::try_from(i).unwrap_or(usize::MAX);
                let bases = reads
                    .get(slot % reads.len().max(1))
                    .cloned()
                    .unwrap_or_default();
                Request::Map {
                    req_id: id_base | i,
                    bases,
                }
                .encode_framed()
            })
            .collect();
        frames_per_client.push(frames);
    }
    let start = perf::now();
    let mut workers = Vec::with_capacity(clients);
    for (client_idx, frames) in frames_per_client.into_iter().enumerate() {
        let addr = addr.to_string();
        let mode = match chaos {
            None => ChaosMode::Normal,
            Some(seed) => match mix(seed ^ (round << 32) ^ client_idx as u64) % 3 {
                0 => ChaosMode::Normal,
                1 => ChaosMode::MidFrameAbort,
                _ => ChaosMode::StalledReader,
            },
        };
        let handle = std::thread::Builder::new()
            .name(format!("loadgen-client-{client_idx}"))
            .spawn(move || match mode {
                ChaosMode::Normal => {
                    client_thread(&addr, client_idx as u64, requests, interval, window, frames)
                }
                hostile => chaos_client_thread(&addr, hostile, &frames),
            })
            .map_err(|e| format!("spawning client thread: {e}"))?;
        workers.push(handle);
    }
    let mut total = ClientTally::default();
    for handle in workers {
        let tally = handle
            .join()
            .map_err(|_| "client thread panicked".to_string())??;
        total.absorb(&tally);
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    Ok(RunResult {
        offered_rate: rate,
        window,
        clients,
        requests: requests * clients as u64,
        mapped: total.mapped,
        unmapped: total.unmapped,
        truncated: total.truncated,
        rejected: total.rejected,
        queue_full: total.queue_full,
        shed: total.shed,
        deadline: total.deadline,
        send_errors: total.send_errors,
        chaos_resets: total.chaos_resets,
        chaos_stalls: total.chaos_stalls,
        elapsed_s,
        latency: total.latency.summary(),
    })
}

/// What one client connection saw.
#[derive(Default)]
struct ClientTally {
    mapped: u64,
    unmapped: u64,
    truncated: u64,
    rejected: u64,
    queue_full: u64,
    shed: u64,
    deadline: u64,
    send_errors: u64,
    chaos_resets: u64,
    chaos_stalls: u64,
    latency: LatencyHistogram,
}

impl ClientTally {
    fn absorb(&mut self, other: &ClientTally) {
        self.mapped += other.mapped;
        self.unmapped += other.unmapped;
        self.truncated += other.truncated;
        self.rejected += other.rejected;
        self.queue_full += other.queue_full;
        self.shed += other.shed;
        self.deadline += other.deadline;
        self.send_errors += other.send_errors;
        self.chaos_resets += other.chaos_resets;
        self.chaos_stalls += other.chaos_stalls;
        self.latency.merge(&other.latency);
    }
}

/// One connection: a paced sender thread plus this (receiver) thread.
/// `frames` holds the client's pre-encoded request stream; request ids
/// are globally unique across rounds and clients (they are the server's
/// determinism key AND our RTT correlation key — the low 32 bits index
/// the send-timestamp table directly).
fn client_thread(
    addr: &str,
    client_idx: u64,
    requests: u64,
    interval: Duration,
    window: u64,
    frames: Vec<Vec<u8>>,
) -> Result<ClientTally, String> {
    if interval.is_zero() && window > 0 {
        // Unpaced closed loop: a single thread per client is cheaper
        // than a sender/receiver pair on a shared core.
        return closed_loop_thread(addr, requests, window, &frames);
    }
    let client = MapClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let (mut tx, mut rx) = client
        .into_split()
        .map_err(|e| format!("splitting client stream: {e}"))?;
    rx.set_read_timeout(Some(Duration::from_millis(500)))
        .map_err(|e| format!("arming receive timeout: {e}"))?;
    let slots = usize::try_from(requests).unwrap_or(usize::MAX);
    let in_flight: Arc<Mutex<Vec<Option<Instant>>>> = Arc::new(Mutex::new(vec![None; slots]));
    // Closed-loop credits: the sender spends one per request, the
    // receiver returns one per response. Zero window = open loop.
    let credits: Arc<(Mutex<u64>, Condvar)> = Arc::new((Mutex::new(window), Condvar::new()));
    // Send-side truth shared with the receiver: how many requests
    // actually went out, and whether the sender is finished. A failed
    // send is counted in `send_errors` and NEVER as a completed request
    // — the receiver only waits for replies to what was really sent.
    let sent = Arc::new(AtomicU64::new(0));
    let send_errors = Arc::new(AtomicU64::new(0));
    let sender_done = Arc::new(AtomicBool::new(false));
    let sender_failed = Arc::new(AtomicBool::new(false));

    let sender = {
        let in_flight = Arc::clone(&in_flight);
        let credits = Arc::clone(&credits);
        let sent = Arc::clone(&sent);
        let send_errors = Arc::clone(&send_errors);
        let sender_done = Arc::clone(&sender_done);
        let sender_failed = Arc::clone(&sender_failed);
        std::thread::Builder::new()
            .name(format!("loadgen-send-{client_idx}"))
            .spawn(move || -> Result<(), String> {
                // Pace in ~2ms bursts rather than per request: a sleep
                // per request is a timer wakeup per request, which on a
                // small host costs more than the requests themselves.
                let pace_burst = if interval.is_zero() {
                    u64::MAX
                } else {
                    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                    {
                        (0.002 / interval.as_secs_f64()).round().max(1.0) as u64
                    }
                };
                let mut next_send = perf::now();
                // A send/flush failure stops the sender: the unsent
                // remainder is tallied as send errors, and `sent` stays
                // the receiver's reply target.
                let mut result = Ok(());
                for i in 0..requests {
                    if !interval.is_zero() && i % pace_burst == 0 {
                        let now = perf::now();
                        if next_send > now {
                            std::thread::sleep(next_send - now);
                        }
                        next_send += interval
                            * u32::try_from(pace_burst.min(u64::from(u32::MAX)))
                                .unwrap_or(u32::MAX);
                    }
                    if window > 0 {
                        let (avail, returned) = &*credits;
                        let mut avail = avail.lock().expect("credit lock poisoned");
                        if *avail == 0 {
                            // Push buffered frames out before sleeping:
                            // their replies are the only credit source.
                            drop(avail);
                            if let Err(e) = tx.flush() {
                                result = Err(format!("send flush: {e}"));
                                // lint: relaxed-ok — summary counter, read after join
                                send_errors.fetch_add(requests - i, Ordering::Relaxed);
                                break;
                            }
                            avail = credits.0.lock().expect("credit lock poisoned");
                            while *avail == 0 {
                                avail = returned.wait(avail).expect("credit lock poisoned");
                            }
                        }
                        *avail -= 1;
                    }
                    let slot = usize::try_from(i).unwrap_or(usize::MAX);
                    let frame = frames.get(slot).ok_or("frame indexing out of range")?;
                    if let Some(entry) = in_flight
                        .lock()
                        .expect("in-flight table lock poisoned")
                        .get_mut(slot)
                    {
                        *entry = Some(perf::now());
                    }
                    if let Err(e) = tx.send_framed(frame) {
                        result = Err(format!("send: {e}"));
                        // lint: relaxed-ok — summary counter, read after join
                        send_errors.fetch_add(requests - i, Ordering::Relaxed);
                        break;
                    }
                    // lint: relaxed-ok — receiver re-reads it every poll tick
                    sent.fetch_add(1, Ordering::Relaxed);
                    // Flush at burst boundaries so frames go out on
                    // schedule, and periodically in between so no block
                    // of frames outlives the buffer.
                    if i % 64 == 63 || (!interval.is_zero() && (i + 1) % pace_burst == 0) {
                        if let Err(e) = tx.flush() {
                            result = Err(format!("send flush: {e}"));
                            // lint: relaxed-ok — summary counter, read after join
                            send_errors.fetch_add(requests - i - 1, Ordering::Relaxed);
                            break;
                        }
                    }
                }
                if result.is_ok() {
                    if let Err(e) = tx.flush() {
                        result = Err(format!("send flush: {e}"));
                    }
                }
                if result.is_err() {
                    // lint: relaxed-ok — advisory one-way flag, polled
                    sender_failed.store(true, Ordering::Relaxed);
                }
                // lint: relaxed-ok — advisory one-way flag, polled
                sender_done.store(true, Ordering::Relaxed);
                result
            })
            .map_err(|e| format!("spawning sender thread: {e}"))?
    };

    let return_credit = || {
        if window > 0 {
            let (avail, returned) = &*credits;
            *avail.lock().expect("credit lock poisoned") += 1;
            returned.notify_one();
        }
    };
    let mut tally = ClientTally::default();
    let mut received = 0u64;
    // Wait only for replies to requests that actually went out; the
    // 500 ms receive timeout turns the blocking read into a poll so the
    // exit condition is re-checked even when the stream idles.
    loop {
        // lint: relaxed-ok — `sent` only grows; a stale read just loops once more
        if sender_done.load(Ordering::Relaxed) && received >= sent.load(Ordering::Relaxed) {
            break;
        }
        match rx.recv() {
            Ok(response) => {
                return_credit();
                tally_response(
                    response,
                    &mut in_flight.lock().expect("in-flight table lock poisoned"),
                    &mut tally,
                )?;
                received += 1;
            }
            Err(WireError::Io(std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock)) => {
                // Idle poll tick. A failed sender may have lost frames in
                // its buffer — their replies will never come, so stop
                // once the stream goes quiet.
                // lint: relaxed-ok — one-way flags; a stale read retries the poll
                if sender_failed.load(Ordering::Relaxed) && sender_done.load(Ordering::Relaxed) {
                    break;
                }
            }
            Err(e) => {
                // lint: relaxed-ok — one-way flag; a stale read falls to the retry
                if sender_done.load(Ordering::Relaxed) {
                    // The tail of replies is lost with the connection;
                    // what was received still counts.
                    break;
                }
                // Give the sender a beat to notice the same breakage,
                // then fail the run loudly — a healthy-server loadgen run
                // should never lose its reply stream mid-send.
                std::thread::sleep(Duration::from_millis(50));
                // lint: relaxed-ok — one-way flag, re-checked after the grace beat
                if sender_done.load(Ordering::Relaxed) {
                    break;
                }
                return Err(format!("recv: {e}"));
            }
        }
    }
    // Unblock a sender still parked on closed-loop credits (possible if
    // the receiver broke out early), then collect its verdict.
    if window > 0 {
        let (avail, returned) = &*credits;
        *avail.lock().expect("credit lock poisoned") += requests;
        returned.notify_all();
    }
    if let Err(e) = sender
        .join()
        .map_err(|_| "sender thread panicked".to_string())?
    {
        eprintln!("asmcap-loadgen: client {client_idx} sender stopped early: {e}");
    }
    // lint: relaxed-ok — read after the sender thread is joined
    tally.send_errors += send_errors.load(Ordering::Relaxed);
    Ok(tally)
}

/// Unpaced closed-loop drive on one thread: prime `window` requests,
/// then trade blocks of replies for fresh sends, keeping the window
/// topped up until every request is answered.
fn closed_loop_thread(
    addr: &str,
    requests: u64,
    window: u64,
    frames: &[Vec<u8>],
) -> Result<ClientTally, String> {
    let client = MapClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let (mut tx, mut rx) = client
        .into_split()
        .map_err(|e| format!("splitting client stream: {e}"))?;
    let slots = usize::try_from(requests).unwrap_or(usize::MAX);
    let mut sent_at: Vec<Option<Instant>> = vec![None; slots];
    let mut tally = ClientTally::default();
    let mut next: u64 = 0;
    let mut received: u64 = 0;

    let send_one = |tx: &mut asmcap_serve::SendHalf,
                    sent_at: &mut Vec<Option<Instant>>,
                    i: u64|
     -> Result<(), String> {
        let slot = usize::try_from(i).unwrap_or(usize::MAX);
        if let Some(entry) = sent_at.get_mut(slot) {
            *entry = Some(perf::now());
        }
        let frame = frames.get(slot).ok_or("frame indexing out of range")?;
        tx.send_framed(frame).map_err(|e| format!("send: {e}"))
    };

    // A send/flush failure ends the sending side: the unsent remainder
    // becomes `send_errors` (never counted as completed), and the drain
    // below settles for the replies already owed.
    let mut send_failed = false;
    while next < window.min(requests) {
        if send_one(&mut tx, &mut sent_at, next).is_err() {
            tally.send_errors += requests - next;
            send_failed = true;
            break;
        }
        next += 1;
    }
    if !send_failed && tx.flush().is_err() {
        tally.send_errors += requests - next;
        send_failed = true;
    }

    // Trade half-window blocks: small enough to keep the server fed,
    // large enough to amortize the flush syscall.
    let block = (window / 2).clamp(1, 64);
    'drain: while received < next {
        let burst = block.min(next - received);
        for _ in 0..burst {
            match rx.recv() {
                Ok(response) => {
                    tally_response(response, &mut sent_at, &mut tally)?;
                    received += 1;
                }
                Err(e) if send_failed => {
                    // The connection died with the send side; whatever
                    // replies are missing are already accounted as send
                    // errors' counterparts.
                    let _ = e;
                    break 'drain;
                }
                Err(e) => return Err(format!("recv: {e}")),
            }
        }
        if send_failed {
            continue;
        }
        let refill = burst.min(requests - next);
        for _ in 0..refill {
            if send_one(&mut tx, &mut sent_at, next).is_err() {
                tally.send_errors += requests - next;
                send_failed = true;
                break;
            }
            next += 1;
        }
        if refill > 0 && !send_failed && tx.flush().is_err() {
            tally.send_errors += requests - next;
            send_failed = true;
        }
    }
    Ok(tally)
}

/// One hostile connection. Failures here are the point — everything is
/// best-effort and the tally records what the server managed to answer;
/// the real assertion (made by the chaos CI job) is that the server
/// neither panics nor wedges.
fn chaos_client_thread(
    addr: &str,
    mode: ChaosMode,
    frames: &[Vec<u8>],
) -> Result<ClientTally, String> {
    let mut tally = ClientTally::default();
    let Ok(client) = MapClient::connect(addr) else {
        // A refused connect under chaos load is a valid outcome.
        return Ok(tally);
    };
    let Ok((mut tx, mut rx)) = client.into_split() else {
        return Ok(tally);
    };
    let _ = rx.set_read_timeout(Some(Duration::from_millis(200)));
    match mode {
        ChaosMode::Normal => unreachable!("normal clients use client_thread"),
        ChaosMode::MidFrameAbort => {
            let half = frames.len() / 2;
            for frame in frames.iter().take(half) {
                if tx.send_framed(frame).is_err() {
                    break;
                }
            }
            // A torn frame — half the bytes of the next request — then
            // the socket slams shut. The server must classify this as a
            // truncated frame and drop the connection for cause.
            if let Some(frame) = frames.get(half) {
                // lint: index-ok — half of the frame's own length
                let _ = tx.send_framed(&frame[..frame.len() / 2]);
            }
            let _ = tx.flush();
            let _ = tx.abort();
            tally.chaos_resets = 1;
        }
        ChaosMode::StalledReader => {
            for frame in frames {
                if tx.send_framed(frame).is_err() {
                    break;
                }
            }
            let _ = tx.flush();
            let _ = tx.finish();
            tally.chaos_stalls = 1;
            // Stop reading long enough for the reply stream to back up
            // against the server's write timeout, then drain whatever
            // survives until the stream idles or dies.
            std::thread::sleep(Duration::from_millis(400));
            let mut empty: [Option<Instant>; 0] = [];
            while let Ok(response) = rx.recv() {
                let _ = tally_response(response, &mut empty, &mut tally);
            }
        }
    }
    Ok(tally)
}

/// Accounts one response against the send-timestamp table.
fn tally_response(
    response: Response,
    sent_at: &mut [Option<Instant>],
    tally: &mut ClientTally,
) -> Result<(), String> {
    let mut take = |req_id: u64| -> Option<Instant> {
        let slot = usize::try_from(req_id & 0xFFFF_FFFF).unwrap_or(usize::MAX);
        sent_at.get_mut(slot).and_then(Option::take)
    };
    match response {
        Response::Map(reply) => {
            if let Some(at) = take(reply.req_id) {
                tally
                    .latency
                    .record_us(u64::from(perf::micros_between(at, perf::now())));
            }
            match reply.status {
                asmcap_serve::WireStatus::Mapped => tally.mapped += 1,
                asmcap_serve::WireStatus::Unmapped => tally.unmapped += 1,
                asmcap_serve::WireStatus::Truncated => tally.truncated += 1,
                asmcap_serve::WireStatus::Rejected => tally.rejected += 1,
            }
        }
        Response::Overload { req_id, reason } => {
            take(req_id);
            match reason {
                OverloadReason::QueueFull => tally.queue_full += 1,
                OverloadReason::Shed => tally.shed += 1,
                OverloadReason::Deadline => tally.deadline += 1,
            }
        }
        Response::ProtocolError { code, detail } => {
            return Err(format!("server protocol error {code}: {detail}"));
        }
        Response::Stats(_) | Response::ShutdownAck | Response::Health(_) => {
            return Err("unexpected response type during load run".to_string());
        }
    }
    Ok(())
}

fn print_result(result: &RunResult) {
    let rate = if result.offered_rate == 0 {
        "unpaced".to_string()
    } else {
        format!("{}/s", result.offered_rate)
    };
    let window = if result.window == 0 {
        "open".to_string()
    } else {
        result.window.to_string()
    };
    println!(
        "offered {rate}  window {window}  clients {}  requests {}  achieved {:.0} reads/s  elapsed {:.3}s",
        result.clients,
        result.requests,
        result.achieved_rps(),
        result.elapsed_s
    );
    println!(
        "  mapped {}  unmapped {}  truncated {}  rejected {}  queue_full {}  shed {}  \
         deadline {}  send_errors {}",
        result.mapped,
        result.unmapped,
        result.truncated,
        result.rejected,
        result.queue_full,
        result.shed,
        result.deadline,
        result.send_errors
    );
    if result.chaos_resets + result.chaos_stalls > 0 {
        println!(
            "  chaos: mid-frame aborts {}  stalled readers {}",
            result.chaos_resets, result.chaos_stalls
        );
    }
    match &result.latency {
        Some(latency) => println!(
            "  latency_us  p50 {}  p90 {}  p99 {}  max {}  mean {:.0}  (n={})",
            latency.p50_us,
            latency.p90_us,
            latency.p99_us,
            latency.max_us,
            latency.mean_us,
            latency.count
        ),
        None => println!("  latency: no successful map replies"),
    }
}

/// Hand-rolled JSON (no serde in the offline workspace).
fn to_json(results: &[RunResult]) -> String {
    let mut out = String::from("{\n  \"runs\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!("\"offered_rate\": {}, ", r.offered_rate));
        out.push_str(&format!("\"window\": {}, ", r.window));
        out.push_str(&format!("\"clients\": {}, ", r.clients));
        out.push_str(&format!("\"requests\": {}, ", r.requests));
        out.push_str(&format!("\"mapped\": {}, ", r.mapped));
        out.push_str(&format!("\"unmapped\": {}, ", r.unmapped));
        out.push_str(&format!("\"truncated\": {}, ", r.truncated));
        out.push_str(&format!("\"rejected\": {}, ", r.rejected));
        out.push_str(&format!("\"queue_full\": {}, ", r.queue_full));
        out.push_str(&format!("\"shed\": {}, ", r.shed));
        out.push_str(&format!("\"deadline\": {}, ", r.deadline));
        out.push_str(&format!("\"send_errors\": {}, ", r.send_errors));
        out.push_str(&format!("\"chaos_resets\": {}, ", r.chaos_resets));
        out.push_str(&format!("\"chaos_stalls\": {}, ", r.chaos_stalls));
        out.push_str(&format!("\"elapsed_s\": {:.6}, ", r.elapsed_s));
        out.push_str(&format!("\"achieved_rps\": {:.1}", r.achieved_rps()));
        if let Some(latency) = &r.latency {
            out.push_str(&format!(
                ", \"latency_us\": {{\"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}, \
                 \"mean\": {:.1}, \"count\": {}}}",
                latency.p50_us,
                latency.p90_us,
                latency.p99_us,
                latency.max_us,
                latency.mean_us,
                latency.count
            ));
        }
        out.push('}');
        if i + 1 < results.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// Flags that take a value (the next argument).
const VALUE_FLAGS: &str = "--addr --clients --requests --rate --window --sweep \
    --stride --ref-len --ref-seed --row-width --read-seed --out --chaos-seed";

/// Flags that stand alone.
const SWITCHES: &str = "--shutdown --chaos";

const HELP: &str = "\
asmcap-loadgen: open-loop load generator for asmcap_serve.

usage:
  asmcap_loadgen --addr HOST:PORT [options]

options:
  --clients N       concurrent client connections (default 8)
  --requests N      map requests per client (default 4096)
  --rate R          aggregate offered load in reads/s (default 100000;
                    0 = unpaced)
  --window W        closed-loop cap on in-flight requests per client
                    (default 0 = open loop)
  --sweep R1,R2,..  run once per offered rate (overrides --rate)
  --stride N        align read origins to the server's segmentation grid
                    (default 8; 0 = unaligned random origins)
  --ref-len N       reference length, must match the server (default 8192)
  --ref-seed N      reference seed, must match the server (default 7)
  --row-width W     read length, must match the server (default 128)
  --read-seed N     read sampling seed (default 11)
  --out PATH        write the sweep summary as JSON
  --shutdown        send a shutdown request after the last run
  --chaos           make ~2/3 of clients hostile (mid-frame aborts and
                    stalled readers) to soak the server's fault handling
  --chaos-seed N    seed for the chaos behavior draw (default 13)
";
