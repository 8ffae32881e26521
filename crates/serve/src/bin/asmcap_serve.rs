//! `asmcap-serve` — boot a mapping server over a generated reference;
//! usage in `--help`.

use std::process::ExitCode;
use std::time::Duration;

use asmcap::args::Args;
use asmcap::{AsmcapPipeline, BackendKind, FaultPlan, PipelineConfig, PrefilterConfig};
use asmcap_genome::GenomeModel;
use asmcap_serve::{CoalescerConfig, Server, ServerConfig};

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("asmcap-serve: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Flags that take a value (the next argument).
const VALUE_FLAGS: &str = "--addr --ref-len --ref-seed --row-width --stride \
    --threshold --seed --backend --workers --queue-cap --shed-at --batch-max \
    --flush-us --max-conns --deadline-us --drain-timeout-ms --fault-preset \
    --fault-seed";

/// Flags that stand alone.
const SWITCHES: &str = "--no-prefilter --no-remote-shutdown";

fn run() -> Result<(), String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&raw, VALUE_FLAGS, SWITCHES)?;
    if args.has("--help") {
        print!("{HELP}");
        return Ok(());
    }
    // Zero here would boot a server that refuses every connection or
    // admits nothing, so it is an error rather than a silent clamp.
    let positive = |flag: &str, default: usize| match args.parsed(flag)?.unwrap_or(default) {
        0 => Err(format!("{flag} must be positive")),
        n => Ok(n),
    };
    let max_connections = positive("--max-conns", 64)?;
    let queue_cap = positive("--queue-cap", 4_096)?;
    let batch_max = positive("--batch-max", 256)?;
    let shed_watermark = args.parsed("--shed-at")?.unwrap_or(queue_cap / 4 * 3);
    let flush_us = args.parsed("--flush-us")?.unwrap_or(500);
    let deadline_us = args.parsed("--deadline-us")?.unwrap_or(0);
    let drain_timeout_ms = args.parsed("--drain-timeout-ms")?.unwrap_or(10_000);

    let mut config = PipelineConfig {
        threshold: 6,
        stride: 8,
        row_width: 128,
        prefilter: Some(PrefilterConfig::default()),
        ..PipelineConfig::default()
    };
    config.threshold = args.parsed("--threshold")?.unwrap_or(config.threshold);
    config.stride = args.parsed("--stride")?.unwrap_or(config.stride);
    config.row_width = args.parsed("--row-width")?.unwrap_or(config.row_width);
    config.seed = args.parsed("--seed")?.unwrap_or(config.seed);
    if args.has("--no-prefilter") {
        config.prefilter = None;
    }
    let backend = match args.value("--backend") {
        Some(name) => BackendKind::parse(name)?,
        None => BackendKind::Device,
    };
    let ref_len = args.parsed("--ref-len")?.unwrap_or(8_192);
    let ref_seed = args.parsed("--ref-seed")?.unwrap_or(7);
    let fault_seed = args.parsed("--fault-seed")?.unwrap_or(0xFA17);
    let fault = match args.value("--fault-preset") {
        None | Some("none") => None,
        Some("paper-corner") => Some(FaultPlan::paper_corner(fault_seed)),
        Some(other) => return Err(format!("bad fault preset '{other}' (none|paper-corner)")),
    };
    let workers = args.parsed("--workers")?;

    let mut builder = AsmcapPipeline::builder()
        .reference(GenomeModel::uniform().generate(ref_len, ref_seed))
        .config(config)
        .backend(backend);
    if let Some(plan) = fault {
        builder = builder.fault(plan);
    }
    if let Some(n) = workers {
        builder = builder.workers(n);
    }
    let pipeline = builder.build().map_err(|e| e.to_string())?;
    if pipeline.fault_armed() {
        eprintln!(
            "asmcap-serve: fault plan armed — {} row(s) quarantined at install",
            pipeline.quarantined_rows()
        );
    }

    let server_config = ServerConfig {
        addr: args.value("--addr").unwrap_or("127.0.0.1:4321").to_string(),
        max_connections,
        coalescer: CoalescerConfig {
            queue_cap,
            shed_watermark,
            batch_max,
            flush_timeout: Duration::from_micros(flush_us),
            deadline: (deadline_us > 0).then(|| Duration::from_micros(deadline_us)),
        },
        write_timeout: Duration::from_secs(5),
        drain_timeout: Duration::from_millis(drain_timeout_ms),
        allow_remote_shutdown: !args.has("--no-remote-shutdown"),
    };

    let server = Server::spawn(pipeline, server_config).map_err(|e| e.to_string())?;
    println!("listening on {}", server.local_addr());
    let counters_at_exit = server.wait();
    eprintln!(
        "asmcap-serve: done — accepted {} mapped {} unmapped {} truncated {} rejected {} \
         overloaded {} shed {} deadline_expired {} batches {} batched_reads {} \
         dropped_conns {} force_closed {}",
        counters_at_exit.accepted,
        counters_at_exit.mapped,
        counters_at_exit.unmapped,
        counters_at_exit.truncated,
        counters_at_exit.rejected,
        counters_at_exit.overloaded,
        counters_at_exit.shed,
        counters_at_exit.deadline_expired,
        counters_at_exit.batches,
        counters_at_exit.batched_reads,
        counters_at_exit.dropped_connections,
        counters_at_exit.force_closed,
    );
    Ok(())
}

const HELP: &str = "\
asmcap-serve: mapping-as-a-service over the simulated ASMCap accelerator.
Boots a pipeline over a generated reference and serves the length-prefixed
binary map protocol on TCP (see asmcap-serve's crate docs for the format).

usage:
  asmcap_serve [options]

options:
  --addr A          listen address (default 127.0.0.1:4321; :0 = ephemeral)
  --ref-len N       generated reference length in bases (default 8192)
  --ref-seed N      reference generation seed (default 7)
  --row-width W     CAM row width = read length (default 128)
  --stride S        reference segmentation stride (default 8)
  --threshold T     edit-distance threshold (default 6)
  --seed N          pipeline sensing seed (default 0)
  --backend B       device|pair|software (default device)
  --workers N       pipeline worker threads (default: auto)
  --no-prefilter    disable the k-mer prefilter (default: armed)
  --queue-cap N     admission queue depth (default 4096)
  --shed-at N       shed watermark (default 3/4 of the queue cap)
  --batch-max N     largest coalesced batch (default 256)
  --flush-us N      partial-batch flush timeout in microseconds (default 500)
  --max-conns N     concurrent connection cap (default 64)
  --deadline-us N   per-request queue deadline in microseconds (default 0 = off)
  --drain-timeout-ms N  shutdown drain bound before force-close (default 10000)
  --fault-preset P  none|paper-corner device fault model (default none)
  --fault-seed N    fault-plan seed for the preset (default 0xFA17)
  --no-remote-shutdown  refuse client shutdown requests
";
