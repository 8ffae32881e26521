//! Integration test: the full user path — write a reference as FASTA and
//! reads as FASTQ, read both back, and map through the simulated device.

use asmcap::{AsmcapPipeline, PipelineConfig};
use asmcap_eval::cli::map_records;
use asmcap_genome::{fasta, fastq, ErrorProfile, GenomeModel, ReadSampler};

#[test]
fn fasta_fastq_to_mapping_roundtrip() {
    // 1. Reference genome, serialised as FASTA and parsed back.
    let genome = GenomeModel::human_like().generate(10_000, 21);
    let mut fasta_bytes = Vec::new();
    fasta::write_fasta(
        &mut fasta_bytes,
        &[fasta::FastaRecord {
            id: "ref1 synthetic".to_owned(),
            seq: genome.clone(),
        }],
        70,
    )
    .unwrap();
    let parsed = fasta::read_fasta(&fasta_bytes[..]).unwrap();
    assert_eq!(parsed[0].seq, genome);

    // 2. Reads with condition-A errors, serialised as FASTQ and parsed back.
    let sampler = ReadSampler::new(128, ErrorProfile::condition_a());
    let sampled = sampler.sample_many(&genome, 8, 31);
    let records: Vec<fastq::FastqRecord> = sampled
        .iter()
        .enumerate()
        .map(|(i, r)| fastq::FastqRecord {
            id: format!("r{i}_origin_{}", r.origin),
            seq: r.bases.clone(),
            quals: vec![37; r.bases.len()],
        })
        .collect();
    let mut fastq_bytes = Vec::new();
    fastq::write_fastq(&mut fastq_bytes, &records).unwrap();
    let parsed_reads = fastq::read_fastq(&fastq_bytes[..]).unwrap();
    assert_eq!(parsed_reads, records);

    // 3. Map the parsed reads against the parsed reference.
    let config = PipelineConfig {
        row_width: 128,
        threshold: 8,
        ..PipelineConfig::default()
    };
    let pipeline = AsmcapPipeline::builder()
        .reference(parsed[0].seq.clone())
        .config(config)
        .build()
        .unwrap();
    let run = map_records(&pipeline, &parsed_reads);
    assert_eq!(run.rows.len(), records.len());
    assert_eq!(run.stats.mapped, records.len() as u64);
    for (row, read) in run.rows.iter().zip(&sampled) {
        assert!(
            row.positions.contains(&read.origin),
            "{} did not map to origin {}: {:?}",
            row.read_id,
            read.origin,
            row.positions
        );
    }
}

#[test]
fn sanitized_real_world_reference_loads() {
    // References with ambiguity codes must be loadable after sanitising.
    let dirty = b">chrN\nACGTNNNNRYACGT\n";
    assert!(fasta::read_fasta(&dirty[..]).is_err());
    let mut clean_bytes = Vec::new();
    // Sanitise sequence lines one at a time, threading the running record
    // offset so the replacement bases match whole-record sanitising.
    let text = String::from_utf8_lossy(dirty);
    let mut record_offset = 0usize;
    for line in text.lines() {
        if line.starts_with('>') {
            clean_bytes.extend_from_slice(line.as_bytes());
            record_offset = 0;
        } else {
            clean_bytes.extend_from_slice(&fasta::sanitize_at(line.as_bytes(), record_offset));
            record_offset += line.len();
        }
        clean_bytes.push(b'\n');
    }
    let parsed = fasta::read_fasta(&clean_bytes[..]).unwrap();
    assert_eq!(parsed[0].seq.len(), 14);
    // Line-by-line with offsets equals sanitising the record in one call.
    assert_eq!(
        parsed[0].seq,
        fasta::read_fasta(
            format!(
                ">chrN\n{}\n",
                String::from_utf8(fasta::sanitize(b"ACGTNNNNRYACGT")).unwrap()
            )
            .as_bytes()
        )
        .unwrap()[0]
            .seq
    );
}
