//! The `asmcap-lint` binary's usage contract: `--help` is a successful
//! run that prints the usage on stdout, while an unknown flag is a usage
//! error (exit 2) with the usage on stderr.

use std::process::{Command, Output};

fn lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_asmcap-lint"))
        .args(args)
        .output()
        .expect("asmcap-lint runs")
}

#[test]
fn help_prints_usage_on_stdout_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = lint(&[flag]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        assert!(stdout.starts_with("usage: asmcap-lint"), "{flag}: {stdout}");
        assert!(out.stderr.is_empty(), "{flag} wrote to stderr");
    }
}

#[test]
fn unknown_flag_exits_two_with_usage_on_stderr() {
    let out = lint(&["--bogus"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr.contains("unknown flag `--bogus`"), "{stderr}");
    assert!(stderr.contains("usage: asmcap-lint"), "{stderr}");
    assert!(out.stdout.is_empty(), "a usage error wrote to stdout");
}
