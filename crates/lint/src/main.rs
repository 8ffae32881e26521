//! CLI for the workspace invariant analyzer.
//!
//! ```text
//! cargo run -p asmcap-lint                        # lint the workspace, text output
//! cargo run -p asmcap-lint -- --format json      # machine-readable report (CI artifact)
//! cargo run -p asmcap-lint -- --out report.json --format json
//! cargo run -p asmcap-lint -- --check-fixtures   # bad fixtures must flag, good must pass
//! cargo run -p asmcap-lint -- path/to/file.rs    # strict-context lint of ad-hoc files
//! ```
//!
//! Exit codes: 0 clean (or `--help`, which prints the usage on stdout),
//! 1 findings (or fixture mismatch), 2 usage/IO error.

#![deny(unsafe_code)]

use asmcap_lint::{
    check_source, find_root, load_baseline, run_workspace, FileContext, Report, RULE_IDS,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    root: Option<PathBuf>,
    format_json: bool,
    baseline: Option<PathBuf>,
    no_baseline: bool,
    out: Option<PathBuf>,
    check_fixtures: bool,
    list_rules: bool,
    help: bool,
    files: Vec<PathBuf>,
}

fn usage() -> &'static str {
    "usage: asmcap-lint [--root DIR] [--format text|json] [--baseline PATH | --no-baseline]\n\
     \x20                 [--out PATH] [--check-fixtures] [--list-rules] [FILE.rs ...]"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        format_json: false,
        baseline: None,
        no_baseline: false,
        out: None,
        check_fixtures: false,
        list_rules: false,
        help: false,
        files: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => args.root = Some(PathBuf::from(it.next().ok_or("--root needs a DIR")?)),
            "--format" => match it.next().as_deref() {
                Some("json") => args.format_json = true,
                Some("text") => args.format_json = false,
                _ => return Err("--format needs `text` or `json`".to_string()),
            },
            "--baseline" => {
                args.baseline = Some(PathBuf::from(it.next().ok_or("--baseline needs a PATH")?));
            }
            "--no-baseline" => args.no_baseline = true,
            "--out" => args.out = Some(PathBuf::from(it.next().ok_or("--out needs a PATH")?)),
            "--check-fixtures" => args.check_fixtures = true,
            "--list-rules" => args.list_rules = true,
            "--help" | "-h" => args.help = true,
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`\n{}", usage()));
            }
            file => args.files.push(PathBuf::from(file)),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if args.help {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    if args.list_rules {
        for id in RULE_IDS {
            println!("{id}");
        }
        return ExitCode::SUCCESS;
    }
    if args.check_fixtures {
        return check_fixtures();
    }
    if !args.files.is_empty() {
        return lint_files(&args.files);
    }
    lint_workspace(&args)
}

fn resolve_root(args: &Args) -> Result<PathBuf, String> {
    if let Some(root) = &args.root {
        return Ok(root.clone());
    }
    let cwd = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
    find_root(&cwd)
        .or_else(|| {
            // Fallback for runs outside the tree: the compile-time
            // manifest location (crates/lint → two levels up).
            let baked = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
            baked.canonicalize().ok()
        })
        .ok_or_else(|| "cannot locate the workspace root; pass --root".to_string())
}

fn lint_workspace(args: &Args) -> ExitCode {
    let run = || -> Result<Report, String> {
        let root = resolve_root(args)?;
        let entries = if args.no_baseline {
            Vec::new()
        } else {
            let path = args
                .baseline
                .clone()
                .unwrap_or_else(|| root.join("lint-baseline.toml"));
            load_baseline(&path)?
        };
        run_workspace(&root, &entries)
    };
    match run() {
        Ok(report) => {
            let rendered = if args.format_json {
                report.to_json()
            } else {
                report.to_text()
            };
            if let Some(out) = &args.out {
                if let Err(e) = std::fs::write(out, &rendered) {
                    eprintln!("writing {}: {e}", out.display());
                    return ExitCode::from(2);
                }
            }
            print!("{rendered}");
            if report.clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

/// Lints ad-hoc files under the strict (fixture) context: every rule
/// family on, no baseline.
fn lint_files(files: &[PathBuf]) -> ExitCode {
    let mut any = false;
    for path in files {
        let src = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("reading {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        for d in check_source(&path.display().to_string(), &src, &FileContext::strict()) {
            println!("{}:{}: {}: {}", d.file, d.line, d.rule, d.message);
            any = true;
        }
    }
    if any {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Runs the fixture matrix: every `fixtures/bad/<rule>_*.rs` must flag
/// its rule (named by the filename prefix), every `fixtures/good/*.rs`
/// must lint clean.
fn check_fixtures() -> ExitCode {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let mut failures = 0usize;
    let mut checked = 0usize;
    for (sub, want_bad) in [("bad", true), ("good", false)] {
        let sub_dir = dir.join(sub);
        let mut entries: Vec<PathBuf> = match std::fs::read_dir(&sub_dir) {
            Ok(rd) => rd.filter_map(Result::ok).map(|e| e.path()).collect(),
            Err(e) => {
                eprintln!("listing {}: {e}", sub_dir.display());
                return ExitCode::from(2);
            }
        };
        entries.sort();
        for path in entries {
            if path.extension().is_none_or(|e| e != "rs") {
                continue;
            }
            checked += 1;
            let name = path
                .file_stem()
                .map(|s| s.to_string_lossy().to_string())
                .unwrap_or_default();
            let src = match std::fs::read_to_string(&path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("reading {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            };
            let diags = check_source(&name, &src, &FileContext::strict());
            if want_bad {
                let rule = name
                    .split('_')
                    .next()
                    .unwrap_or_default()
                    .to_ascii_uppercase();
                if !RULE_IDS.contains(&rule.as_str()) {
                    eprintln!("FAIL {sub}/{name}: prefix `{rule}` is not a rule ID");
                    failures += 1;
                } else if diags.iter().any(|d| d.rule == rule) {
                    println!("ok   {sub}/{name} flags {rule}");
                } else {
                    eprintln!(
                        "FAIL {sub}/{name}: expected {rule}, got {:?}",
                        diags.iter().map(|d| d.rule).collect::<Vec<_>>()
                    );
                    failures += 1;
                }
            } else if diags.is_empty() {
                println!("ok   {sub}/{name} is clean");
            } else {
                eprintln!("FAIL {sub}/{name}: expected clean, got:");
                for d in &diags {
                    eprintln!("  {}:{}: {}: {}", d.file, d.line, d.rule, d.message);
                }
                failures += 1;
            }
        }
    }
    println!("{checked} fixtures checked, {failures} failure(s)");
    if failures == 0 && checked > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
