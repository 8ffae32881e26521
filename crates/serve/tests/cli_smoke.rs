//! Command-line smoke tests for `asmcap_serve` and `asmcap_loadgen`: a bad
//! command line exits 1 with a message naming the flag, before the server
//! binds or the load generator connects.

use std::process::Command;

/// Runs `binary` on `args` and returns `(exit code, stderr)`.
fn run(binary: &str, args: &[&str]) -> (Option<i32>, String) {
    let output = Command::new(binary)
        .args(args)
        .output()
        .expect("spawn binary");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

/// Asserts each `(args, expected message)` case exits 1 naming the flag.
fn assert_rejected(binary: &str, cases: &[(&[&str], &str)]) {
    for (args, message) in cases {
        let (code, stderr) = run(binary, args);
        assert_eq!(code, Some(1), "{args:?} did not exit 1:\n{stderr}");
        assert!(
            stderr.contains(message),
            "{args:?}: stderr lacks {message:?}:\n{stderr}"
        );
    }
}

#[test]
fn serve_rejects_a_bad_command_line_before_binding() {
    // Every case stops at the command line, so none builds a pipeline or
    // binds the default address.
    assert_rejected(
        env!("CARGO_BIN_EXE_asmcap_serve"),
        &[
            (&["--max-con", "8"], "unknown flag '--max-con'"),
            (&["--addr", "127.0.0.1:0", "stray"], "unknown flag 'stray'"),
            (
                &["--addr", "127.0.0.1:0", "--threshold"],
                "flag --threshold needs a value",
            ),
            (&["--seed", "--no-prefilter"], "flag --seed needs a value"),
            (
                &["--stride", "4", "--stride", "8"],
                "flag --stride given twice",
            ),
            (
                &["--no-prefilter", "--no-prefilter"],
                "flag --no-prefilter given twice",
            ),
            (&["--workers", "x"], "bad value 'x' for --workers"),
        ],
    );
}

#[test]
fn serve_rejects_zero_capacities() {
    assert_rejected(
        env!("CARGO_BIN_EXE_asmcap_serve"),
        &[
            (&["--max-conns", "0"], "--max-conns must be positive"),
            (&["--queue-cap", "0"], "--queue-cap must be positive"),
            (&["--batch-max", "0"], "--batch-max must be positive"),
        ],
    );
}

#[test]
fn loadgen_rejects_a_bad_command_line_before_connecting() {
    // Port 1 on loopback: a connect would fail with a different message.
    let addr = "127.0.0.1:1";
    assert_rejected(
        env!("CARGO_BIN_EXE_asmcap_loadgen"),
        &[
            (
                &["--addr", addr, "--clinets", "2"],
                "unknown flag '--clinets'",
            ),
            (
                &["--addr", addr, "--requests"],
                "flag --requests needs a value",
            ),
            (&["--addr", "--shutdown"], "flag --addr needs a value"),
            (
                &["--addr", addr, "--rate", "1", "--rate", "2"],
                "flag --rate given twice",
            ),
            (
                &["--addr", addr, "--clients", "two"],
                "bad value 'two' for --clients",
            ),
            (&["--clients", "2"], "missing --addr"),
        ],
    );
}

#[test]
fn help_prints_the_usage_text() {
    for binary in [
        env!("CARGO_BIN_EXE_asmcap_serve"),
        env!("CARGO_BIN_EXE_asmcap_loadgen"),
    ] {
        let output = Command::new(binary)
            .arg("--help")
            .output()
            .expect("spawn binary");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(output.status.success(), "{binary} --help failed");
        assert!(stdout.contains("usage:"), "{binary} --help:\n{stdout}");
    }
}
