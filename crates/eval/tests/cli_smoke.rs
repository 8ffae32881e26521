//! Workspace smoke test: build the `asmcap_map` CLI and run it end-to-end
//! on a tiny synthetic FASTA/FASTQ round-trip.
//!
//! This is the fastest whole-stack check the workspace has: it exercises
//! genome synthesis, FASTA/FASTQ writing *and* re-parsing (through the
//! binary), device construction, and the full mapping path — and asserts
//! the mapper recovers every read's true origin from the files on disk.

use asmcap_genome::{fasta, fastq, ErrorProfile, GenomeModel, ReadSampler};
use std::process::Command;

/// Length of the synthetic reference; small so the device stays tiny.
const GENOME_LEN: usize = 2_048;
/// CAM row width = read length for the smoke run.
const ROW_WIDTH: usize = 64;
/// How many erroneous reads to push through the binary.
const READS: usize = 4;

#[test]
#[allow(clippy::disallowed_methods)] // wall clock only names the temp dir
fn asmcap_map_runs_on_synthetic_fasta_fastq() {
    let dir = std::env::temp_dir().join(format!(
        "asmcap_cli_smoke_{}_{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock after epoch")
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let ref_path = dir.join("reference.fasta");
    let reads_path = dir.join("reads.fastq");

    // Synthesise a reference and sample erroneous reads from it.
    let genome = GenomeModel::uniform().generate(GENOME_LEN, 99);
    let sampler = ReadSampler::new(ROW_WIDTH, ErrorProfile::condition_a());
    let reads = sampler.sample_many(&genome, READS, 7);

    // FASTA/FASTQ round-trip: write with the library, let the CLI re-parse.
    let ref_record = fasta::FastaRecord {
        id: "smoke_ref".to_owned(),
        seq: genome.clone(),
    };
    let mut ref_bytes = Vec::new();
    fasta::write_fasta(&mut ref_bytes, std::slice::from_ref(&ref_record), 70)
        .expect("render FASTA");
    std::fs::write(&ref_path, &ref_bytes).expect("write FASTA");

    let records: Vec<fastq::FastqRecord> = reads
        .iter()
        .enumerate()
        .map(|(i, r)| fastq::FastqRecord {
            id: format!("read_{i}_origin_{}", r.origin),
            seq: r.bases.clone(),
            quals: vec![40; r.bases.len()],
        })
        .collect();
    let mut read_bytes = Vec::new();
    fastq::write_fastq(&mut read_bytes, &records).expect("render FASTQ");
    std::fs::write(&reads_path, &read_bytes).expect("write FASTQ");

    // Sanity-check the library half of the round-trip before involving the
    // binary, so a parser regression fails here with a clearer message.
    let reparsed = fasta::read_fasta(&ref_bytes[..]).expect("re-parse FASTA");
    assert_eq!(reparsed.len(), 1);
    assert_eq!(reparsed[0].seq, genome);
    let reparsed_reads = fastq::read_fastq(&read_bytes[..]).expect("re-parse FASTQ");
    assert_eq!(reparsed_reads.len(), READS);

    // Run the real binary the way a user would.
    let output = Command::new(env!("CARGO_BIN_EXE_asmcap_map"))
        .args([
            "--reference",
            ref_path.to_str().expect("utf-8 path"),
            "--reads",
            reads_path.to_str().expect("utf-8 path"),
            "--row-width",
            "64",
            "--threshold",
            "6",
            "--seed",
            "3",
        ])
        .output()
        .expect("spawn asmcap_map");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert!(
        output.status.success(),
        "asmcap_map failed: {stderr}\n{stdout}"
    );

    // TSV shape: header plus one row per read.
    let mut lines = stdout.lines();
    assert_eq!(
        lines.next(),
        Some("#read_id\tn_candidates\tpositions\tcycles\tstatus"),
        "unexpected header in:\n{stdout}"
    );
    let rows: Vec<&str> = lines.collect();
    assert_eq!(rows.len(), READS, "one TSV row per read in:\n{stdout}");

    // Every read must be mapped back to (at least) its true origin.
    for (row, read) in rows.iter().zip(&reads) {
        let fields: Vec<&str> = row.split('\t').collect();
        assert_eq!(fields.len(), 5, "malformed row: {row}");
        let positions: Vec<usize> = fields[2]
            .split(';')
            .map(|p| p.parse().expect("numeric position"))
            .collect();
        assert!(
            positions.contains(&read.origin),
            "origin {} missing from row: {row}",
            read.origin
        );
        assert_eq!(fields[4], "mapped", "unexpected status in row: {row}");
    }

    // The run summary (with truncation accounting) goes to stderr.
    assert!(
        stderr.contains(&format!("reads: {READS} (mapped {READS}")),
        "missing summary in stderr:\n{stderr}"
    );

    // Same run with the k-mer prefilter armed: every origin must survive
    // the shortlist (recall), through the same CLI surface.
    let output = Command::new(env!("CARGO_BIN_EXE_asmcap_map"))
        .args([
            "--reference",
            ref_path.to_str().expect("utf-8 path"),
            "--reads",
            reads_path.to_str().expect("utf-8 path"),
            "--row-width",
            "64",
            "--threshold",
            "6",
            "--seed",
            "3",
            "--prefilter",
            "--prefilter-k",
            "11",
        ])
        .output()
        .expect("spawn asmcap_map with --prefilter");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    assert!(
        output.status.success(),
        "asmcap_map --prefilter failed:\n{stdout}"
    );
    for (row, read) in stdout.lines().skip(1).zip(&reads) {
        let fields: Vec<&str> = row.split('\t').collect();
        let positions: Vec<usize> = fields[2]
            .split(';')
            .map(|p| p.parse().expect("numeric position"))
            .collect();
        assert!(
            positions.contains(&read.origin),
            "prefilter lost origin {} in row: {row}",
            read.origin
        );
    }

    // Same run with the extension stage armed: three SAM-ish columns are
    // appended, and every mapped read carries a CIGAR whose cost matches
    // its score column.
    let output = Command::new(env!("CARGO_BIN_EXE_asmcap_map"))
        .args([
            "--reference",
            ref_path.to_str().expect("utf-8 path"),
            "--reads",
            reads_path.to_str().expect("utf-8 path"),
            "--row-width",
            "64",
            "--threshold",
            "6",
            "--seed",
            "3",
            "--extension",
        ])
        .output()
        .expect("spawn asmcap_map with --extension");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert!(
        output.status.success(),
        "asmcap_map --extension failed:\n{stdout}"
    );
    let mut lines = stdout.lines();
    assert_eq!(
        lines.next(),
        Some("#read_id\tn_candidates\tpositions\tcycles\tstatus\taln_pos\taln_score\tcigar"),
        "unexpected extended header in:\n{stdout}"
    );
    for (row, read) in lines.zip(&reads) {
        let fields: Vec<&str> = row.split('\t').collect();
        assert_eq!(fields.len(), 8, "malformed extended row: {row}");
        let aln_pos: usize = fields[5].parse().expect("aligned position");
        let aln_score: usize = fields[6].parse().expect("alignment score");
        let cigar = fields[7];
        assert_eq!(
            aln_pos, read.origin,
            "alignment origin mismatch in row: {row}"
        );
        // The CIGAR's claimed edit cost (X/I/D run lengths) must equal the
        // score column — the transcript is self-consistent on the wire.
        let mut cost = 0usize;
        let mut run = 0usize;
        for c in cigar.chars() {
            if let Some(digit) = c.to_digit(10) {
                run = run * 10 + digit as usize;
            } else {
                if matches!(c, 'X' | 'I' | 'D') {
                    cost += run;
                }
                run = 0;
            }
        }
        assert_eq!(cost, aln_score, "CIGAR cost != score in row: {row}");
    }
    assert!(
        stderr.contains("reads aligned"),
        "missing alignment summary in stderr:\n{stderr}"
    );

    // A zero row width over real files is the same typed error.
    let (code, stderr) = run_map(&[
        "--reference",
        ref_path.to_str().expect("utf-8 path"),
        "--reads",
        reads_path.to_str().expect("utf-8 path"),
        "--row-width",
        "0",
    ]);
    assert_eq!(code, Some(1), "zero row width did not exit 1:\n{stderr}");
    assert!(stderr.contains("row width must be positive"), "{stderr}");

    std::fs::remove_dir_all(&dir).expect("clean temp dir");
}

/// Runs `asmcap_map` on `args` and returns `(exit code, stderr)`.
fn run_map(args: &[&str]) -> (Option<i32>, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_asmcap_map"))
        .args(args)
        .output()
        .expect("spawn asmcap_map");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

/// A misspelled flag, or a stray argument, is an error naming it — never
/// silently ignored.
#[test]
fn unknown_flag_exits_nonzero_naming_the_flag() {
    for (args, named) in [
        (
            &["--demo", "--row-width", "64", "--prefiltr"][..],
            "--prefiltr",
        ),
        (&["--demo", "--treshold", "6"][..], "--treshold"),
        (&["--demo", "stray"][..], "stray"),
    ] {
        let (code, stderr) = run_map(args);
        assert_eq!(code, Some(1), "{args:?} did not exit 1");
        assert!(
            stderr.contains("unknown flag") && stderr.contains(named),
            "{args:?}: stderr does not name {named}:\n{stderr}"
        );
    }
    // A zero geometry is a typed pipeline error, caught before any demo
    // read is sampled.
    for (args, named) in [
        (
            &["--demo", "--row-width", "0"][..],
            "row width must be positive",
        ),
        (&["--demo", "--stride", "0"][..], "stride must be positive"),
    ] {
        let (code, stderr) = run_map(args);
        assert_eq!(code, Some(1), "{args:?} did not exit 1:\n{stderr}");
        assert!(
            stderr.contains(named),
            "{args:?}: stderr does not name {named}:\n{stderr}"
        );
    }
}

/// A value flag with no value — last on the line, or followed straight
/// by another flag — is an error naming the flag, not a silent default.
#[test]
fn valueless_flag_exits_nonzero_naming_the_flag() {
    for (args, named) in [
        (
            &["--demo", "--row-width", "64", "--prefilter-k"][..],
            "--prefilter-k",
        ),
        (&["--demo", "--threshold"][..], "--threshold"),
        (&["--demo", "--seed", "--prefilter"][..], "--seed"),
    ] {
        let (code, stderr) = run_map(args);
        assert_eq!(code, Some(1), "{args:?} did not exit 1");
        assert!(
            stderr.contains(&format!("flag {named} needs a value")),
            "{args:?}: stderr does not name {named}:\n{stderr}"
        );
    }
    // The same flags with their values run.
    let (code, stderr) = run_map(&["--demo", "--row-width", "64", "--prefilter-k", "12"]);
    assert_eq!(code, Some(0), "valid flags rejected:\n{stderr}");
}

/// Runs `asmcap_eval` on `args` and returns `(exit code, stdout, stderr)`.
fn run_eval(args: &[&str]) -> (Option<i32>, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_asmcap_eval"))
        .args(args)
        .output()
        .expect("spawn asmcap_eval");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

/// The fast artefacts run and print their headings.
#[test]
fn eval_artefacts_print_their_headings() {
    for (args, heading) in [
        (&["fig2"][..], "Fig. 2 — the adopted matching method"),
        (&["table1"][..], "Table I — circuit-level comparison"),
        (&["breakdown"][..], "Section V-B — area breakdown"),
        (
            &["states", "--trials", "100"][..],
            "Section V-D — distinguishable states",
        ),
    ] {
        let (code, stdout, stderr) = run_eval(args);
        assert_eq!(code, Some(0), "{args:?} failed:\n{stderr}");
        assert!(stdout.starts_with(heading), "{args:?}:\n{stdout}");
    }
    let (_, stdout, _) = run_eval(&["states", "--trials", "100"]);
    assert!(stdout.contains("100 Monte-Carlo trials"), "{stdout}");
}

/// An unknown artefact, a flag the artefact does not take, a bad value
/// and an unknown ablation part each exit 1 naming the bad input, before
/// any work is done.
#[test]
fn eval_rejects_bad_input_by_name() {
    for (args, named) in [
        (&["fig9"][..], "unknown artefact 'fig9'"),
        (&[][..], "missing artefact"),
        (&["table1", "--smoke"][..], "unknown flag '--smoke'"),
        (&["fig7", "--smok"][..], "unknown flag '--smok'"),
        (&["states", "100"][..], "unknown flag '100'"),
        (
            &["states", "--trials", "x"][..],
            "bad value 'x' for --trials",
        ),
        (&["fig8", "--csv"][..], "flag --csv needs a value"),
        (
            &["fig1b", "--smoke", "--smoke"][..],
            "flag --smoke given twice",
        ),
        (
            &["ablation", "--part", "nope"][..],
            "unknown ablation part 'nope'",
        ),
    ] {
        let (code, stdout, stderr) = run_eval(args);
        assert_eq!(code, Some(1), "{args:?} did not exit 1:\n{stdout}");
        assert!(stdout.is_empty(), "{args:?} printed:\n{stdout}");
        assert!(
            stderr.contains(named),
            "{args:?}: stderr lacks {named}:\n{stderr}"
        );
    }
}

/// A CSV directory that cannot be created fails the run, naming the file.
#[test]
fn eval_exits_nonzero_when_a_csv_write_fails() {
    let file = std::env::temp_dir().join(format!("asmcap_eval_csv_{}", std::process::id()));
    std::fs::write(&file, "not a directory").expect("write blocker file");
    let dir = file.join("csv");
    let (code, _, stderr) = run_eval(&["fig8", "--smoke", "--csv", dir.to_str().expect("utf-8")]);
    std::fs::remove_file(&file).expect("clean blocker file");
    assert_eq!(code, Some(1), "failed CSV write exited {code:?}:\n{stderr}");
    assert!(
        stderr.contains(&format!(
            "cannot write CSV {}",
            dir.join("fig8.csv").display()
        )),
        "stderr does not name the CSV path:\n{stderr}"
    );
}
