//! The `asmcap-map` command-line mapper: FASTA reference + FASTQ reads in,
//! TSV mappings out — the adoption path for running the simulated
//! accelerator on real data.
//!
//! [`map_records`] is the library entry point the binary uses: it maps the
//! whole FASTQ batch across an [`AsmcapPipeline`]'s workers and returns
//! per-read [`MappingRow`]s (including truncated/rejected statuses —
//! nothing is dropped silently) plus the aggregated [`PipelineStats`] for
//! the run summary.

use asmcap::{AsmcapPipeline, MapStatus, PipelineStats};
use asmcap_genome::fastq::FastqRecord;
use asmcap_genome::DnaSeq;
use std::fmt;

/// One output row of the mapper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MappingRow {
    /// Read identifier from the FASTQ header.
    pub read_id: String,
    /// Per-read outcome (mapped / unmapped / truncated / rejected).
    pub status: MapStatus,
    /// Candidate reference positions (ascending). Empty = no candidates.
    pub positions: Vec<usize>,
    /// Search cycles spent on this read.
    pub cycles: u64,
    /// Best candidate alignment from the extension stage (`None` when the
    /// stage is off or nothing aligned within the band).
    pub alignment: Option<asmcap::Alignment>,
}

impl fmt::Display for MappingRow {
    /// TSV: `read_id <tab> n_candidates <tab> positions(;) <tab> cycles
    /// <tab> status`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let positions = if self.positions.is_empty() {
            "*".to_owned()
        } else {
            self.positions
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(";")
        };
        write!(
            f,
            "{}\t{}\t{}\t{}\t{}",
            self.read_id,
            self.positions.len(),
            positions,
            self.cycles,
            self.status
        )
    }
}

/// The TSV header matching [`MappingRow`]'s `Display`.
pub const TSV_HEADER: &str = "#read_id\tn_candidates\tpositions\tcycles\tstatus";

/// The extended TSV header matching [`MappingRow::to_tsv`] with the
/// extension stage armed: the base columns plus the SAM-ish alignment
/// triple (`aln_pos`, `aln_score`, `cigar` — `*` when nothing aligned).
pub const TSV_HEADER_EXTENDED: &str =
    "#read_id\tn_candidates\tpositions\tcycles\tstatus\taln_pos\taln_score\tcigar";

impl MappingRow {
    /// Renders the row as TSV. With `extended` the base columns are
    /// followed by `aln_pos`, `aln_score`, and the extended CIGAR
    /// (`=`/`X`/`I`/`D` runs), or `*\t*\t*` when no alignment was
    /// produced — pair with [`TSV_HEADER_EXTENDED`].
    #[must_use]
    pub fn to_tsv(&self, extended: bool) -> String {
        if !extended {
            return self.to_string();
        }
        match &self.alignment {
            Some(alignment) => format!("{self}\t{alignment}"),
            None => format!("{self}\t*\t*\t*"),
        }
    }
}

/// A whole mapping run: per-read rows plus the aggregated statistics.
#[derive(Debug, Clone)]
pub struct MapRun {
    /// One row per input read, in input order.
    pub rows: Vec<MappingRow>,
    /// Aggregated pipeline statistics for the run.
    pub stats: PipelineStats,
}

impl MapRun {
    /// A human-readable multi-line summary (for the CLI's stderr report).
    #[must_use]
    pub fn summary(&self) -> String {
        let s = &self.stats;
        let throughput = if s.wall_s > 0.0 {
            s.reads as f64 / s.wall_s
        } else {
            0.0
        };
        let mut summary = format!(
            "reads: {} (mapped {}, unmapped {}, truncated {}, rejected {})\n\
             device: {} cycles, {} searches, {:.2} uJ\n\
             host: {:.3} s wall, {:.0} reads/s",
            s.reads,
            s.mapped,
            s.unmapped,
            s.truncated,
            s.rejected,
            s.cycles,
            s.searches,
            s.energy_j * 1e6,
            s.wall_s,
            throughput
        );
        if s.aligned > 0 {
            summary.push_str(&format!("\nextension: {} reads aligned", s.aligned));
        }
        if s.degraded > 0 || s.resensed > 0 || s.requarried > 0 {
            summary.push_str(&format!(
                "\nfaults: {} reads degraded ({} re-senses, {} quarantined-row hits)",
                s.degraded, s.resensed, s.requarried
            ));
        }
        summary
    }
}

/// Maps FASTQ reads through an [`AsmcapPipeline`] in one batch.
///
/// Reads longer than the row width are truncated to it and surfaced with
/// [`MapStatus::Truncated`]; shorter reads come back [`MapStatus::Rejected`]
/// instead of aborting the run.
#[must_use]
pub fn map_records(pipeline: &AsmcapPipeline, reads: &[FastqRecord]) -> MapRun {
    let seqs: Vec<DnaSeq> = reads.iter().map(|r| r.seq.clone()).collect();
    let rows = pipeline
        .map_batch(&seqs)
        .into_iter()
        .zip(reads)
        .map(|(record, read)| MappingRow {
            read_id: read.id.clone(),
            status: record.status,
            positions: record.positions,
            cycles: record.cycles,
            alignment: record.alignment,
        })
        .collect();
    MapRun {
        rows,
        stats: pipeline.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asmcap::{BackendKind, PipelineConfig};
    use asmcap_genome::{ErrorProfile, GenomeModel, ReadSampler};

    /// Builds a device pipeline over `genome` and maps `reads` through it.
    fn map_on_device(genome: &DnaSeq, reads: &[FastqRecord], config: &PipelineConfig) -> MapRun {
        let pipeline = AsmcapPipeline::builder()
            .reference(genome.clone())
            .config(config.clone())
            .build()
            .unwrap();
        map_records(&pipeline, reads)
    }

    fn fastq_reads(genome: &DnaSeq, count: usize, len: usize) -> Vec<FastqRecord> {
        let sampler = ReadSampler::new(len, ErrorProfile::condition_a());
        sampler
            .sample_many(genome, count, 5)
            .into_iter()
            .enumerate()
            .map(|(i, r)| FastqRecord {
                id: format!("read{}@{}", i, r.origin),
                quals: vec![40; r.bases.len()],
                seq: r.bases,
            })
            .collect()
    }

    fn config(row_width: usize, threshold: usize) -> PipelineConfig {
        PipelineConfig {
            row_width,
            threshold,
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn maps_synthetic_fastq_against_reference() {
        let genome = GenomeModel::uniform().generate(8_000, 1);
        let reads = fastq_reads(&genome, 6, 128);
        let run = map_on_device(&genome, &reads, &config(128, 8));
        assert_eq!(run.rows.len(), 6);
        assert_eq!(run.stats.mapped, 6);
        for row in &run.rows {
            let origin: usize = row.read_id.split('@').nth(1).unwrap().parse().unwrap();
            assert!(
                row.positions.contains(&origin),
                "{} missing origin {origin}: {:?}",
                row.read_id,
                row.positions
            );
            let rendered = row.to_string();
            assert!(rendered.contains('\t'));
            assert!(rendered.ends_with("mapped"));
        }
        assert!(run.summary().contains("mapped 6"));
    }

    #[test]
    fn short_and_long_reads_get_statuses_not_errors() {
        let genome = GenomeModel::uniform().generate(8_000, 3);
        let reads = vec![
            FastqRecord {
                id: "tiny".into(),
                seq: genome.window(0..50),
                quals: vec![40; 50],
            },
            FastqRecord {
                id: "long".into(),
                seq: genome.window(100..500),
                quals: vec![40; 400],
            },
        ];
        let run = map_on_device(&genome, &reads, &config(256, 8));
        assert_eq!(run.rows[0].status, MapStatus::Rejected);
        assert_eq!(run.rows[1].status, MapStatus::Truncated);
        assert!(
            run.rows[1].positions.contains(&100),
            "truncated prefix maps at its origin"
        );
        assert_eq!(run.stats.truncated, 1);
        assert_eq!(run.stats.rejected, 1);
    }

    #[test]
    fn unmapped_reads_render_star() {
        let genome = GenomeModel::uniform().generate(8_000, 4);
        let foreign = GenomeModel::uniform().generate(8_000, 99);
        let reads = fastq_reads(&foreign, 2, 128);
        let run = map_on_device(&genome, &reads, &config(128, 4));
        for row in run.rows {
            assert!(row.positions.is_empty());
            assert_eq!(row.status, MapStatus::Unmapped);
            assert!(row.to_string().contains("\t*\t"));
        }
    }

    #[test]
    fn extension_rows_carry_the_alignment_triple() {
        use asmcap::ExtensionConfig;
        let genome = GenomeModel::uniform().generate(8_000, 6);
        let reads = fastq_reads(&genome, 4, 128);
        let config = PipelineConfig {
            extension: Some(ExtensionConfig::default()),
            ..config(128, 8)
        };
        let run = map_on_device(&genome, &reads, &config);
        assert!(run.stats.aligned > 0);
        assert!(run.summary().contains("reads aligned"));
        for row in &run.rows {
            // Base rendering is untouched; extended rendering appends the
            // SAM-ish triple.
            assert_eq!(row.to_tsv(false), row.to_string());
            let extended = row.to_tsv(true);
            assert_eq!(extended.split('\t').count(), 8);
            match &row.alignment {
                Some(alignment) => {
                    assert!(row.positions.contains(&alignment.origin));
                    assert_eq!(alignment.cigar.cost(), alignment.score);
                    assert!(extended.ends_with(&alignment.cigar.to_string()));
                }
                None => assert!(extended.ends_with("*\t*\t*")),
            }
        }
        // Off by default: the plain config never populates the field.
        let plain = map_on_device(&genome, &reads, &config_plain());
        assert!(plain.rows.iter().all(|r| r.alignment.is_none()));
        assert_eq!(plain.stats.aligned, 0);
    }

    fn config_plain() -> PipelineConfig {
        config(128, 8)
    }

    #[test]
    fn backends_are_selectable() {
        let genome = GenomeModel::uniform().generate(2_000, 5);
        let reads = fastq_reads(&genome, 2, 128);
        for backend in [
            BackendKind::Device,
            BackendKind::Pair,
            BackendKind::Software,
        ] {
            let pipeline = AsmcapPipeline::builder()
                .reference(genome.clone())
                .config(config(128, 8))
                .backend(backend)
                .workers(2)
                .build()
                .unwrap();
            let run = map_records(&pipeline, &reads);
            assert_eq!(run.rows.len(), 2, "{backend:?}");
            assert!(run.rows.iter().all(|r| r.status == MapStatus::Mapped));
        }
    }
}
