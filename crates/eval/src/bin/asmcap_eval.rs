//! `asmcap_eval` — print one table or figure of the paper's evaluation
//! (§V); usage in `--help`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use asmcap::args::Args;
use asmcap_eval::report::{self, Table};
use asmcap_eval::{Condition, EvalDataset, Fig7Config};

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(&raw) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("asmcap-eval: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Prints one artefact; reads only the flags that artefact accepts.
type Artefact = fn(&Args) -> Result<(), String>;

fn run(raw: &[String]) -> Result<(), String> {
    let (artefact, rest) = raw.split_first().ok_or("missing artefact (see --help)")?;
    let (values, switches, print): (&str, &str, Artefact) = match artefact.as_str() {
        "fig2" => ("", "", fig2),
        "fig3" => ("", "", fig3),
        "table1" => ("", "", table1),
        "breakdown" => ("", "", breakdown),
        "states" => ("--trials", "", states),
        "fig7" => ("--csv", "--smoke", fig7),
        "fig8" => ("--csv", "--smoke", fig8),
        "fig1b" => ("", "--smoke", fig1b),
        "ablation" => ("--part", "--smoke", ablation),
        "scaling" => ("", "", scaling),
        "corners" => ("", "--smoke", corners),
        "--help" | "-h" => {
            print!("{HELP}");
            return Ok(());
        }
        other => return Err(format!("unknown artefact '{other}' (see --help)")),
    };
    let args = Args::parse(rest, values, switches)?;
    if args.has("--help") {
        print!("{HELP}");
        return Ok(());
    }
    print(&args)
}

/// The Fig. 7 sweep configuration: reduced under `--smoke`.
fn sweep_config(args: &Args) -> Fig7Config {
    if args.has("--smoke") {
        Fig7Config::smoke()
    } else {
        Fig7Config::paper()
    }
}

/// `(reads, decoys, genome length)` of the ablation and corner datasets.
fn dataset_size(args: &Args) -> (usize, usize, usize) {
    if args.has("--smoke") {
        (40, 6, 60_000)
    } else {
        (150, 12, 200_000)
    }
}

/// Writes `table` as `<dir>/<name>.csv`; the error names the file.
fn write_csv(dir: &Path, name: &str, table: &Table) -> Result<PathBuf, String> {
    report::write_csv(dir, name, table).map_err(|e| {
        let path = dir.join(format!("{name}.csv"));
        format!("cannot write CSV {}: {e}", path.display())
    })
}

fn fig2(_: &Args) -> Result<(), String> {
    println!("Fig. 2 — the adopted matching method (paper examples)\n");
    println!("{}", asmcap_eval::fig2::table());
    println!("ED is the anchored semi-global distance (reference end gaps free);");
    println!("the second printed sequence acts as the stored CAM row.");
    Ok(())
}

fn fig3(_: &Args) -> Result<(), String> {
    println!("Fig. 3(a) — current-domain (EDAM) V_ML(t), time-dependent\n");
    println!("{}", asmcap_eval::fig3::current_domain_traces(256, 13));
    println!("\nFig. 3(b) — charge-domain (ASMCap) V_ML vs n_mis, time-independent\n");
    println!("{}", asmcap_eval::fig3::charge_domain_levels(256, 8));
    println!("\nSensing variation comparison (state units, N = 256)\n");
    println!("{}", asmcap_eval::fig3::variation_comparison(256));
    Ok(())
}

fn table1(_: &Args) -> Result<(), String> {
    println!("Table I — circuit-level comparison (65 nm, 256x256 array)\n");
    println!("{}", asmcap_eval::table1::table());
    println!("Paper ratios: cell area 1.4x, search time 2.6x, power 8.5x.");
    Ok(())
}

fn breakdown(_: &Args) -> Result<(), String> {
    println!("Section V-B — area breakdown (paper: 1.58 mm^2, cells > 99%)\n");
    println!("{}", asmcap_eval::breakdown::area_table());
    println!("\nSection V-B — power breakdown (paper: 7.67 mW, 75/19/6%)\n");
    println!("{}", asmcap_eval::breakdown::power_table());
    Ok(())
}

fn states(args: &Args) -> Result<(), String> {
    let trials = args.parsed("--trials")?.unwrap_or(10_000);
    println!("Section V-D — distinguishable states under device variation\n");
    println!("{}", asmcap_eval::states::table(256, trials, 0xD15C));
    println!("Empirical counts use {trials} Monte-Carlo trials per state and a");
    println!("3-sigma error budget; the charge domain resolves every state of a");
    println!("256-wide row, the current domain collapses near its analytic bound.");
    Ok(())
}

fn fig7(args: &Args) -> Result<(), String> {
    let config = sweep_config(args);
    println!(
        "Fig. 7 — accuracy comparison ({} reads x {} pairs per condition)\n",
        config.reads,
        config.decoys + 1
    );
    let mut mean_with = Vec::new();
    let mut mean_without = Vec::new();
    let mut mean_edam = Vec::new();
    for condition in [Condition::A, Condition::B] {
        let result = asmcap_eval::fig7::run(condition, &config);
        println!("== {} ==\n", condition.label());
        println!("F1 (%):\n{}", result.f1_table());
        println!(
            "Normalized F1 (vs Kraken2 exact matching):\n{}",
            result.normalized_table()
        );
        if let Some(dir) = args.value("--csv").map(Path::new) {
            let tag = match condition {
                Condition::A => "a",
                Condition::B => "b",
            };
            write_csv(dir, &format!("fig7_condition_{tag}_f1"), &result.f1_table())?;
            let path = write_csv(
                dir,
                &format!("fig7_condition_{tag}_normalized"),
                &result.normalized_table(),
            )?;
            println!("(CSV written next to {})\n", path.display());
        }
        let edam = result.series("EDAM").expect("series").mean_f1();
        let without = result.series("ASMCap w/o H&T").expect("series").mean_f1();
        let with = result.series("ASMCap w/ H&T").expect("series").mean_f1();
        println!(
            "means: EDAM {:.1}% | ASMCap w/o {:.1}% ({:.2}x) | ASMCap w/ {:.1}% ({:.2}x)\n",
            edam * 100.0,
            without * 100.0,
            without / edam,
            with * 100.0,
            with / edam
        );
        mean_edam.push(edam);
        mean_without.push(without);
        mean_with.push(with);
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "Across conditions: ASMCap w/ H&T {:.1}% vs EDAM {:.1}% -> {:.2}x (paper: 87.6% vs 74.7% -> 1.2x)",
        avg(&mean_with) * 100.0,
        avg(&mean_edam) * 100.0,
        avg(&mean_with) / avg(&mean_edam)
    );
    println!(
        "ASMCap w/o strategies vs EDAM: {:.2}x (paper: 1.12x)",
        avg(&mean_without) / avg(&mean_edam)
    );
    Ok(())
}

fn fig8(args: &Args) -> Result<(), String> {
    println!("Fig. 8 — speedup & energy efficiency (512 arrays x 256x256, 256-base reads)\n");
    let (report, inputs) = asmcap_eval::fig8::run(&sweep_config(args));
    println!(
        "measured strategy overhead: {:.2} extra cycles/read; mean n_mis: {:.1}\n",
        inputs.extra_cycles, inputs.mean_n_mis
    );
    let table = asmcap_eval::fig8::table(&report);
    if let Some(dir) = args.value("--csv").map(Path::new) {
        let path = write_csv(dir, "fig8", &table)?;
        println!("(CSV written to {})\n", path.display());
    }
    println!("{table}");
    println!("Model mechanics: cycles from the functional engines; per-op");
    println!("latency/energy from each paper (calibrated constants documented");
    println!("in asmcap_baselines::perf::calib).");
    Ok(())
}

fn fig1b(args: &Args) -> Result<(), String> {
    println!("Fig. 1(b) — ASM accelerators: accuracy vs energy efficiency\n");
    let points = asmcap_eval::fig1b::run(&sweep_config(args));
    println!("{}", asmcap_eval::fig1b::table(&points));
    println!("(ReSMA computes exact distances -> top accuracy, bottom efficiency;");
    println!(" ASMCap w/ H&T recovers most of the accuracy at CAM-class efficiency.)");
    Ok(())
}

fn ablation(args: &Args) -> Result<(), String> {
    let part = args.value("--part").unwrap_or("all");
    if !["hdac", "tasr", "schedule", "burst", "all"].contains(&part) {
        return Err(format!(
            "unknown ablation part '{part}' (hdac|tasr|schedule|burst)"
        ));
    }
    let runs = |name: &str| part == name || part == "all";
    let (reads, decoys, genome) = dataset_size(args);
    if runs("hdac") {
        let ds = EvalDataset::build(Condition::A, reads, decoys, 256, genome, 0xAB1A);
        println!("HDAC ablation — mean F1 (%) over T=1..8, Condition A\n");
        println!(
            "{}",
            asmcap_eval::ablation::hdac_sweep(
                &ds,
                &[50.0, 100.0, 200.0, 400.0],
                &[0.1, 0.25, 0.5, 1.0],
                1
            )
        );
        println!("(paper constants: alpha=200, beta=0.5)\n");
    }
    if runs("tasr") {
        let ds = EvalDataset::build(Condition::B, reads, decoys, 256, genome, 0xAB1B);
        println!("TASR ablation — mean F1 (%) over T=2..16, Condition B\n");
        println!(
            "{}",
            asmcap_eval::ablation::tasr_sweep(
                &ds,
                &[0.5e-4, 1e-4, 2e-4, 4e-4, 8e-4],
                &[0, 1, 2, 4],
                2
            )
        );
        println!(
            "(paper constants: gamma=2e-4, N_R=2; 'plain SR' = EDAM-style ungated rotation)\n"
        );
    }
    if runs("schedule") {
        let ds = EvalDataset::build(Condition::B, reads, decoys, 256, genome, 0xAB1C);
        println!("TASR rotation-schedule comparison, Condition B\n");
        println!("{}", asmcap_eval::ablation::schedule_sweep(&ds, 3));
        println!();
    }
    if runs("burst") {
        println!("TASR vs indel burstiness — mean F1 (%) over T=2..16, Condition-B rates\n");
        println!(
            "{}",
            asmcap_eval::ablation::burst_sweep(
                &[1.0, 2.0, 3.0, 4.0],
                reads,
                decoys,
                256,
                genome,
                4
            )
        );
        println!("(constant indel mass; longer runs are exactly the Fig. 6 misjudgment)");
    }
    Ok(())
}

fn scaling(_: &Args) -> Result<(), String> {
    let widths = [64usize, 128, 256, 512, 1024];
    println!("Row-width scaling — sensing reliability and Eq. 1 energy\n");
    println!("{}", asmcap_eval::scaling::width_table(&widths));
    println!("\nNear-threshold misjudgment probability (analytic)\n");
    println!("{}", asmcap_eval::scaling::misjudgment_table(&widths));
    println!("EDAM's current-domain sensing resolves only 44 states, so its");
    println!("reliable row width (= read length) is capped; ASMCap's 566-state");
    println!("charge domain covers every width in the sweep.");
    Ok(())
}

fn corners(args: &Args) -> Result<(), String> {
    let vdds = [1.2, 1.1, 1.0, 0.9];
    println!("Supply-corner study — misjudgment vs V_DD (N=256, T=8, analytic)\n");
    println!("{}", asmcap_eval::corners::misjudgment_table(&vdds, 256, 8));
    let (reads, decoys, genome) = dataset_size(args);
    let ds = EvalDataset::build(Condition::A, reads, decoys, 256, genome, 0xC0);
    println!("\nEnd-to-end F1 across corners (Condition A, strategies off)\n");
    println!("{}", asmcap_eval::corners::f1_table(&ds, &vdds, 1));
    println!("The charge domain is ratiometric in V_DD, so ASMCap holds its");
    println!("accuracy under droop while EDAM's fixed-time sampling acquires a");
    println!("systematic gain error and collapses.");
    Ok(())
}

const HELP: &str = "\
asmcap-eval: print one table or figure of the ASMCap paper's evaluation (§V).

usage:
  asmcap_eval <artefact> [flags]

artefacts (and the flags each accepts):
  fig2        Fig. 2: HD vs ED* vs ED on the paper's example pairs
  fig3        Fig. 3: current- vs charge-domain matchline behaviour
  table1      Table I: circuit-level comparison with EDAM
  breakdown   §V-B: area and power breakdown of a 256x256 array
  states      §V-D: distinguishable matchline states (44 vs 566)
              --trials N  Monte-Carlo trials per state (default 10000)
  fig7        Fig. 7: F1 accuracy under Conditions A and B  [--smoke] [--csv DIR]
  fig8        Fig. 8: speedup and energy efficiency  [--smoke] [--csv DIR]
  fig1b       Fig. 1(b): accuracy vs energy efficiency  [--smoke]
  ablation    HDAC/TASR design-space ablations  [--smoke]
              --part hdac|tasr|schedule|burst  one part only (default: all)
  scaling     row-width scaling of sensing reliability and energy
  corners     supply-corner study: V_DD droop vs sensing  [--smoke]

flags:
  --smoke     run a reduced dataset for quick iteration
  --csv DIR   also write the tables as CSV files under DIR
";
