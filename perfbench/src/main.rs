//! The repository's benchmark: runs one named workload over the mapping
//! or serving path and prints its metrics as the last line of JSON.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload shortlist_1m --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics from untraced runs; `--trace 1`
//! prints the per-layer ladder from the traced decomposition. A failed
//! output check prints `"correct": false` and exits 1. See README.md.

mod host;
mod offline;
mod report;
mod serve;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::Duration;
use workload::Mode;

struct Args {
    workload: &'static workload::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let slot_taken = match flag.as_str() {
            "--workload" => workload
                .replace(
                    workload::by_name(value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
                .is_some(),
            "--seed" => seed
                .replace(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
                .is_some(),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds.replace(s).is_some()
            }
            "--trace" => trace
                .replace(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
                .is_some(),
            _ => return Err(format!("unknown flag {flag}")),
        };
        if slot_taken {
            return Err(format!("{flag} given twice"));
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                workload::WORKLOADS.map(|w| w.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let w = args.workload;
    let ticks = host::cpu_ticks();
    let mut report = match w.mode {
        Mode::Offline => {
            let mut report = offline::run(w, args.seed, budget, args.trace);
            if args.trace {
                // No server runs on this workload: its layer does no work.
                for (name, unit) in serve::SERVE_METRICS {
                    report.metric(name, 0.0, unit);
                }
            }
            report
        }
        Mode::Serve => serve::run(w, args.seed, budget, args.trace),
    };
    host::record(&mut report, w.name, args.seed);
    if let (Some(before), Some(after)) = (ticks, host::cpu_ticks()) {
        report.note("host_steal_share", host::steal_share(before, after));
    }
    report.note("trace", args.trace);
    println!("{}", report.notes_json());
    println!("{}", report.result_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload fullscan_b --seed 42 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("fullscan_b", 42, 10.0, true)
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--seed 1",
            "--workload nope",
            "--workload fullscan_b --seed",
            "--workload fullscan_b --bogus 1",
            "--workload fullscan_b --trace 2",
            "--workload fullscan_b --seconds 0",
            "--workload fullscan_b --seed 1 --seed 2",
        ] {
            assert!(args(bad).is_err(), "accepted: {bad}");
        }
    }
}
