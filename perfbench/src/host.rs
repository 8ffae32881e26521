//! Facts about the host every result records, and its peak memory.

use crate::report::Report;
use crate::workload::WORKERS;

/// Which kernel path the packed matchplane dispatches to on this host.
#[must_use]
pub fn simd_path() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if asmcap_metrics::kernels::simd_available()
            && std::arch::is_x86_feature_detected!("popcnt")
        {
            return "avx2+popcnt";
        }
    }
    "portable"
}

/// Records the host facts a result depends on.
pub fn record(report: &mut Report, workload: &str, seed: u64) {
    let parallelism = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    report.note("workload", workload);
    report.note("seed", seed);
    report.note("available_parallelism", parallelism);
    report.note("simd_path", simd_path());
    report.note("rustc", env!("PERFBENCH_RUSTC"));
    report.note("workers", WORKERS);
}

/// The host's CPU time counters from `/proc/stat`: `(all ticks, steal
/// ticks)`. Steal is time the hypervisor gave this machine's CPUs to
/// someone else; a run with much of it reads slower through no change of
/// its own.
#[must_use]
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    Some((fields.iter().sum(), *fields.get(7)?))
}

/// The share of the host's CPU time stolen between two [`cpu_ticks`]
/// readings.
#[must_use]
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.0.saturating_sub(before.0);
    let steal = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        steal as f64 / total as f64
    }
}

/// The process's peak resident set (`VmHWM`) in MiB, where the kernel
/// reports it.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
