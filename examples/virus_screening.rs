//! Virus screening: the paper's motivating "fast testing" scenario (§V-E).
//!
//! A SARS-CoV-2-scale genome is stored *entirely* in the device (the paper
//! notes 512 arrays = 64 Mb "can entirely store some small virus
//! sequences"); a metagenomic stream of reads — some viral, some host
//! background — is screened through the pipeline as one parallel batch.
//!
//! Run with: `cargo run --release -p asmcap-workspace --example virus_screening`

use asmcap::{AsmcapPipeline, PipelineConfig};
use asmcap_genome::{synth, DnaSeq, ErrorProfile, GenomeModel, ReadSampler};
use asmcap_metrics::ConfusionMatrix;

fn main() {
    // The target: a 29.9 kb coronavirus-like genome, stored at stride 1 so
    // every alignment offset is a row.
    let virus = synth::sars_cov_2_like(2024);
    let profile = ErrorProfile::condition_b();
    let pipeline = AsmcapPipeline::builder()
        .reference(virus.clone())
        .config(PipelineConfig {
            seed: 3,
            ..PipelineConfig::paper(12, profile)
        })
        .build()
        .expect("virus fits the device");
    println!(
        "stored {}-base viral reference at stride 1 ({} backend, {} workers)",
        virus.len(),
        pipeline.backend_name(),
        pipeline.workers()
    );

    // The sample: viral reads (TGS-like, indel-heavy Condition B) mixed
    // with human-like background reads.
    let sampler = ReadSampler::new(256, profile);
    let viral_reads = sampler.sample_many(&virus, 60, 11);
    let host = GenomeModel::human_like().generate(200_000, 99);
    let host_reads = sampler.sample_many(&host, 60, 13);
    let labels: Vec<bool> = viral_reads
        .iter()
        .map(|_| true)
        .chain(host_reads.iter().map(|_| false))
        .collect();
    let reads: Vec<DnaSeq> = viral_reads
        .into_iter()
        .chain(host_reads)
        .map(|r| r.bases)
        .collect();

    // Screen the metagenomic sample: one parallel batch, records in input
    // order.
    let mut cm = ConfusionMatrix::new();
    for (&is_viral, record) in labels.iter().zip(pipeline.map_batch(&reads)) {
        cm.record(is_viral, record.status.is_mapped());
    }

    println!("screening result at T=12: {cm}");
    println!(
        "sensitivity {:.1}%, precision {:.1}%, F1 {:.1}%",
        cm.sensitivity() * 100.0,
        cm.precision() * 100.0,
        cm.f1() * 100.0
    );

    let stats = pipeline.stats();
    println!(
        "pipeline activity: {} reads, {} searches, {} cycles, {:.2} uJ total ({:.1} nJ/read)",
        stats.reads,
        stats.searches,
        stats.cycles,
        stats.energy_j * 1e6,
        stats.energy_j * 1e9 / stats.reads as f64
    );
    assert!(cm.f1() > 0.8, "screening F1 unexpectedly low");
    println!("virus screening OK");
}
