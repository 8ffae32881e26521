//! `asmcap-map` — map FASTQ reads against a FASTA reference through the
//! batch-first [`asmcap::AsmcapPipeline`], emitting TSV.
//!
//! ```text
//! asmcap-map --reference ref.fasta --reads reads.fastq [options]
//! asmcap-map --demo                      # run on generated data
//!
//! options:
//!   --threshold T     edit-distance threshold (default 8)
//!   --profile a|b     expected error mix, Condition A or B (default a)
//!   --no-hdac         disable Hamming-Distance Aid Correction
//!   --no-tasr         disable Threshold-Aware Sequence Rotation
//!   --stride S        reference segmentation stride (default 1)
//!   --row-width W     CAM row width = read length (default 256)
//!   --seed N          sensing seed (default 0)
//!   --backend B       execution backend: device|pair|software (default device)
//!   --workers N       worker threads for the batch (default: auto)
//!   --prefilter       arm the seed-and-extend k-mer prefilter
//!   --prefilter-k K   seed k-mer length (default 12, implies --prefilter)
//!   --min-seed-hits N shortlist vote floor (default 2, implies --prefilter)
//!   --max-candidates N  shortlist cap (default 64, implies --prefilter)
//!   --no-prefilter-fallback  unmatched reads are NOT full-scanned
//!   --extension       arm the alignment/extension stage (CIGAR traceback)
//!   --ext-band B      traceback edit budget (default 2*T+2, implies
//!                     --extension)
//!   --ext-candidates N  origins aligned per read (default 4, implies
//!                     --extension)
//!   --fault-preset P  none|paper-corner — arm the device fault model
//!                     (default none; requires --backend device)
//!   --fault-seed N    fault-plan seed (default 0xFA17, implies
//!                     --fault-preset paper-corner)
//! ```
//!
//! Output columns: `read_id  n_candidates  positions(;)  cycles  status`;
//! with `--extension` three SAM-ish columns follow: `aln_pos  aln_score
//! cigar` (extended CIGAR with `=`/`X`/`I`/`D` runs, `*` when nothing
//! aligned within the band). Reads longer than the row width are truncated
//! and flagged `truncated`; shorter reads are flagged `rejected`; a run
//! summary (including truncation and alignment counts) goes to stderr.

use asmcap::{BackendKind, PipelineConfig};
use asmcap_eval::cli::{map_records, TSV_HEADER, TSV_HEADER_EXTENDED};
use asmcap_genome::{fasta, fastq, DnaSeq, ErrorProfile};
use std::io::BufReader;
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("asmcap-map: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", HELP);
        return Ok(());
    }
    let args = Args::parse(&raw)?;
    let mut config = PipelineConfig::default();
    if let Some(t) = args.value("--threshold") {
        config.threshold = t.parse().map_err(|_| format!("bad threshold '{t}'"))?;
    }
    if let Some(p) = args.value("--profile") {
        config.profile = match p {
            "a" | "A" => ErrorProfile::condition_a(),
            "b" | "B" => ErrorProfile::condition_b(),
            other => return Err(format!("unknown profile '{other}' (use a or b)")),
        };
    }
    if args.has("--no-hdac") {
        config.hdac = None;
    }
    if args.has("--no-tasr") {
        config.tasr = None;
    }
    if let Some(s) = args.value("--stride") {
        config.stride = s.parse().map_err(|_| format!("bad stride '{s}'"))?;
    }
    if let Some(w) = args.value("--row-width") {
        config.row_width = w.parse().map_err(|_| format!("bad row width '{w}'"))?;
    }
    if let Some(n) = args.value("--seed") {
        config.seed = n.parse().map_err(|_| format!("bad seed '{n}'"))?;
    }
    config.prefilter = parse_prefilter(&args)?;
    config.extension = parse_extension(&args)?;
    config.fault = parse_fault(&args)?;
    let backend = match args.value("--backend") {
        Some(name) => BackendKind::parse(name)?,
        None => BackendKind::Device,
    };
    let workers = match args.value("--workers") {
        Some(n) => Some(n.parse().map_err(|_| format!("bad worker count '{n}'"))?),
        None => None,
    };

    let (reference, reads) = if args.has("--demo") {
        demo_data(config.row_width)
    } else {
        let ref_path = args
            .value("--reference")
            .ok_or("missing --reference (or use --demo)")?;
        let reads_path = args
            .value("--reads")
            .ok_or("missing --reads (or use --demo)")?;
        let ref_file =
            std::fs::File::open(ref_path).map_err(|e| format!("cannot open {ref_path}: {e}"))?;
        let records = fasta::read_fasta(BufReader::new(ref_file)).map_err(|e| e.to_string())?;
        let reference = records
            .into_iter()
            .next()
            .ok_or("reference FASTA contains no records")?
            .seq;
        let reads_file = std::fs::File::open(reads_path)
            .map_err(|e| format!("cannot open {reads_path}: {e}"))?;
        let reads = fastq::read_fastq(BufReader::new(reads_file)).map_err(|e| e.to_string())?;
        (reference, reads)
    };

    let extended = config.extension.is_some();
    let run =
        map_records(&reference, &reads, &config, backend, workers).map_err(|e| e.to_string())?;
    println!(
        "{}",
        if extended {
            TSV_HEADER_EXTENDED
        } else {
            TSV_HEADER
        }
    );
    for row in &run.rows {
        println!("{}", row.to_tsv(extended));
    }
    eprintln!("{}", run.summary());
    Ok(())
}

/// Flags that take a value (the next argument).
const VALUE_FLAGS: [&str; 16] = [
    "--reference",
    "--reads",
    "--threshold",
    "--profile",
    "--stride",
    "--row-width",
    "--seed",
    "--backend",
    "--workers",
    "--prefilter-k",
    "--min-seed-hits",
    "--max-candidates",
    "--ext-band",
    "--ext-candidates",
    "--fault-preset",
    "--fault-seed",
];

/// Flags that stand alone.
const SWITCHES: [&str; 6] = [
    "--no-hdac",
    "--no-tasr",
    "--prefilter",
    "--no-prefilter-fallback",
    "--extension",
    "--demo",
];

/// The command line, checked: every argument is a known flag, and every
/// value flag is followed by its value.
struct Args {
    /// Each flag in command-line order, with its value if it takes one.
    flags: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Parses `raw`, rejecting an unknown flag (or a stray argument) and a
    /// value flag whose value is missing — at the end of the line, or
    /// followed straight by another flag.
    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut flags = Vec::new();
        let mut raw = raw.iter();
        while let Some(arg) = raw.next() {
            if let Some(&flag) = VALUE_FLAGS.iter().find(|&&f| f == arg) {
                match raw.next() {
                    Some(value) if !value.starts_with("--") => {
                        flags.push((flag, Some(value.clone())));
                    }
                    _ => return Err(format!("flag {flag} needs a value")),
                }
            } else if let Some(&flag) = SWITCHES.iter().find(|&&f| f == arg) {
                flags.push((flag, None));
            } else {
                return Err(format!("unknown flag '{arg}' (see --help)"));
            }
        }
        Ok(Self { flags })
    }

    /// The value of the first occurrence of a value flag.
    fn value(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| *f == flag)
            .and_then(|(_, value)| value.as_deref())
    }

    /// Whether `flag` was given.
    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }
}

/// Parses the prefilter flag family. Any prefilter-tuning flag arms the
/// prefilter; plain `--prefilter` arms it with the default knobs.
fn parse_prefilter(args: &Args) -> Result<Option<asmcap::PrefilterConfig>, String> {
    let tuning = [
        "--prefilter-k",
        "--min-seed-hits",
        "--max-candidates",
        "--no-prefilter-fallback",
    ];
    let armed = args.has("--prefilter") || tuning.iter().any(|flag| args.has(flag));
    if !armed {
        return Ok(None);
    }
    let mut prefilter = asmcap::PrefilterConfig::default();
    if let Some(k) = args.value("--prefilter-k") {
        prefilter.k = k.parse().map_err(|_| format!("bad prefilter k '{k}'"))?;
    }
    if let Some(n) = args.value("--min-seed-hits") {
        prefilter.min_seed_hits = n.parse().map_err(|_| format!("bad seed-hit floor '{n}'"))?;
    }
    if let Some(n) = args.value("--max-candidates") {
        prefilter.max_candidates = n.parse().map_err(|_| format!("bad candidate cap '{n}'"))?;
        if prefilter.max_candidates == 0 {
            return Err("candidate cap must be positive".into());
        }
    }
    if args.has("--no-prefilter-fallback") {
        prefilter.full_scan_fallback = false;
    }
    Ok(Some(prefilter))
}

/// Parses the extension flag family. Any tuning flag arms the stage;
/// plain `--extension` arms it with the default knobs.
fn parse_extension(args: &Args) -> Result<Option<asmcap::ExtensionConfig>, String> {
    let tuning = ["--ext-band", "--ext-candidates"];
    let armed = args.has("--extension") || tuning.iter().any(|flag| args.has(flag));
    if !armed {
        return Ok(None);
    }
    let mut extension = asmcap::ExtensionConfig::default();
    if let Some(b) = args.value("--ext-band") {
        extension.band = Some(b.parse().map_err(|_| format!("bad extension band '{b}'"))?);
    }
    if let Some(n) = args.value("--ext-candidates") {
        extension.max_candidates = n
            .parse()
            .map_err(|_| format!("bad extension candidate cap '{n}'"))?;
        if extension.max_candidates == 0 {
            return Err("extension candidate cap must be positive".into());
        }
    }
    Ok(Some(extension))
}

/// Parses the fault-injection flag family. `--fault-seed` implies the
/// paper-corner preset; `--fault-preset none` (the default) leaves the
/// device pristine.
fn parse_fault(args: &Args) -> Result<Option<asmcap::FaultPlan>, String> {
    let seed: u64 = match args.value("--fault-seed") {
        Some(n) => n.parse().map_err(|_| format!("bad fault seed '{n}'"))?,
        None => 0xFA17,
    };
    match args.value("--fault-preset") {
        Some("paper-corner") => Ok(Some(asmcap::FaultPlan::paper_corner(seed))),
        Some("none") => Ok(None),
        Some(other) => Err(format!("bad fault preset '{other}' (none|paper-corner)")),
        None if args.has("--fault-seed") => Ok(Some(asmcap::FaultPlan::paper_corner(seed))),
        None => Ok(None),
    }
}

fn demo_data(row_width: usize) -> (DnaSeq, Vec<fastq::FastqRecord>) {
    use asmcap_genome::{ErrorProfile, GenomeModel, ReadSampler};
    let genome = GenomeModel::human_like().generate(20_000, 7);
    let sampler = ReadSampler::new(row_width, ErrorProfile::condition_a());
    let reads = sampler
        .sample_many(&genome, 10, 11)
        .into_iter()
        .enumerate()
        .map(|(i, r)| fastq::FastqRecord {
            id: format!("demo_read_{i}_origin_{}", r.origin),
            quals: vec![38; r.bases.len()],
            seq: r.bases,
        })
        .collect();
    (genome, reads)
}

const HELP: &str = "\
asmcap-map: map FASTQ reads against a FASTA reference on the simulated
ASMCap accelerator (batch-first AsmcapPipeline).

usage:
  asmcap-map --reference ref.fasta --reads reads.fastq [options]
  asmcap-map --demo [options]

options:
  --threshold T     edit-distance threshold (default 8)
  --profile a|b     expected error mix, Condition A or B (default a)
  --no-hdac         disable Hamming-Distance Aid Correction
  --no-tasr         disable Threshold-Aware Sequence Rotation
  --stride S        reference segmentation stride (default 1)
  --row-width W     CAM row width = read length (default 256)
  --seed N          sensing seed (default 0)
  --backend B       execution backend: device|pair|software (default device)
  --workers N       worker threads for the batch (default: auto; results
                    are identical for every worker count)
  --prefilter       arm the seed-and-extend k-mer prefilter: each read is
                    shortlisted by minimizer seed hits and only shortlisted
                    segments are searched (O(hits) instead of O(reference))
  --prefilter-k K   seed k-mer length, 1..=32 (default 12; implies
                    --prefilter)
  --min-seed-hits N vote floor a segment offset needs to be shortlisted
                    (default 2; implies --prefilter)
  --max-candidates N  shortlist cap per read (default 64; implies
                    --prefilter)
  --no-prefilter-fallback
                    close the escape hatch: reads with an empty shortlist
                    come back unmapped instead of falling back to a full
                    scan
  --extension       arm the extension/alignment stage: the best candidate
                    origins are re-visited with a GenASM-style banded
                    bit-vector traceback and the winning CIGAR transcript
                    is emitted alongside the match columns
  --ext-band B      edit budget for the banded traceback (default 2*T+2;
                    implies --extension)
  --ext-candidates N  candidate origins aligned per read (default 4;
                    implies --extension)
  --fault-preset P  none|paper-corner — arm the seeded device fault model:
                    stuck cells, dead rows, capacitance drift, transient
                    sense flips, with re-sense voting and install-time row
                    quarantine (default none; requires --backend device)
  --fault-seed N    fault-plan seed (default 0xFA17; implies
                    --fault-preset paper-corner)
  --demo            generate a reference and reads instead of reading files

output (TSV): read_id  n_candidates  positions(;-separated, * if none)
              cycles  status(mapped|unmapped|truncated|rejected)
with --extension, three more columns: aln_pos  aln_score  cigar
              (extended CIGAR of =/X/I/D runs; * * * when nothing aligned)
a run summary, including truncated/rejected/aligned counts, goes to stderr
";
