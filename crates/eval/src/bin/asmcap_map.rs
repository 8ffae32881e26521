//! `asmcap-map` — map FASTQ reads against a FASTA reference through the
//! batch-first [`asmcap::AsmcapPipeline`], emitting TSV; usage in `--help`.

use asmcap::args::Args;
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
    let args = Args::parse(&raw, VALUE_FLAGS, SWITCHES)?;
    if args.has("--help") {
        print!("{HELP}");
        return Ok(());
    }
    let mut config = PipelineConfig::default();
    config.threshold = args.parsed("--threshold")?.unwrap_or(config.threshold);
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
    config.stride = args.parsed("--stride")?.unwrap_or(config.stride);
    config.row_width = args.parsed("--row-width")?.unwrap_or(config.row_width);
    config.seed = args.parsed("--seed")?.unwrap_or(config.seed);
    config.prefilter = parse_prefilter(&args)?;
    config.extension = parse_extension(&args)?;
    config.fault = parse_fault(&args)?;
    let backend = match args.value("--backend") {
        Some(name) => BackendKind::parse(name)?,
        None => BackendKind::Device,
    };
    let workers = args.parsed("--workers")?;

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
const VALUE_FLAGS: &str = "--reference --reads --threshold --profile --stride \
    --row-width --seed --backend --workers --prefilter-k --min-seed-hits \
    --max-candidates --ext-band --ext-candidates --fault-preset --fault-seed";

/// Flags that stand alone.
const SWITCHES: &str = "--no-hdac --no-tasr --prefilter --no-prefilter-fallback --extension --demo";

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
    prefilter.k = args.parsed("--prefilter-k")?.unwrap_or(prefilter.k);
    prefilter.min_seed_hits = args
        .parsed("--min-seed-hits")?
        .unwrap_or(prefilter.min_seed_hits);
    prefilter.max_candidates = args
        .parsed("--max-candidates")?
        .unwrap_or(prefilter.max_candidates);
    if prefilter.max_candidates == 0 {
        return Err("candidate cap must be positive".into());
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
    extension.band = args.parsed("--ext-band")?.or(extension.band);
    extension.max_candidates = args
        .parsed("--ext-candidates")?
        .unwrap_or(extension.max_candidates);
    if extension.max_candidates == 0 {
        return Err("extension candidate cap must be positive".into());
    }
    Ok(Some(extension))
}

/// Parses the fault-injection flag family. `--fault-seed` implies the
/// paper-corner preset; `--fault-preset none` (the default) leaves the
/// device pristine.
fn parse_fault(args: &Args) -> Result<Option<asmcap::FaultPlan>, String> {
    let seed = args.parsed("--fault-seed")?.unwrap_or(0xFA17);
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
