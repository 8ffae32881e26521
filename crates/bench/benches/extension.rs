//! The extension/alignment stage: the raw bit-vector alignment kernel
//! (one Myers/Hyyrö pass plus a run-skipping traceback) at the CAM row widths the backends search (64/128/256),
//! and the end-to-end price of arming `--extension` on a prefiltered
//! pipeline at two reference sizes.
//!
//! The structural claim the second group pins: with the prefilter on, the
//! extension stage aligns each read against a handful of *shortlisted*
//! origins, so its cost scales with the shortlist — growing the reference
//! 4× must not grow the extension overhead (on minus off) anywhere near 4×.

use asmcap::{AsmcapPipeline, BackendKind, ExtensionConfig, PipelineConfig, PrefilterConfig};
use asmcap_bench::pair;
use asmcap_genome::{DnaSeq, ErrorProfile, GenomeModel, PackedSeq, ReadSampler};
use asmcap_metrics::align_packed;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

const WIDTHS: [usize; 3] = [64, 128, 256];
const WIDTH: usize = 128;

fn bench_align_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("extension_align_packed");
    for width in WIDTHS {
        let (segment, read) = pair(width, ErrorProfile::condition_a());
        let ps = PackedSeq::from_seq(&segment);
        let pr = PackedSeq::from_seq(&read);
        let band = 2 * 8 + 2; // the default derived band at T = 8
        group.throughput(Throughput::Elements(width as u64));
        // Condition-A pair: a few edits, the only traceback steps that read
        // the stored deltas.
        group.bench_with_input(
            BenchmarkId::new("condition_a", width),
            &width,
            |bencher, _| {
                bencher.iter(|| align_packed(black_box(&pr), black_box(&ps), black_box(band)));
            },
        );
        // Identical pair: the best case (the traceback is one `=` run).
        group.bench_with_input(BenchmarkId::new("exact", width), &width, |bencher, _| {
            bencher.iter(|| align_packed(black_box(&ps), black_box(&ps), black_box(band)));
        });
        // Foreign pair: the same DP pass, then `None` without a traceback.
        let decoy = PackedSeq::from_seq(&GenomeModel::uniform().generate(width, 4_242));
        group.bench_with_input(BenchmarkId::new("decoy", width), &width, |bencher, _| {
            bencher.iter(|| align_packed(black_box(&decoy), black_box(&ps), black_box(band)));
        });
    }
    group.finish();
}

fn pipeline_with(reference: &DnaSeq, extension: Option<ExtensionConfig>) -> AsmcapPipeline {
    AsmcapPipeline::builder()
        .reference(reference.clone())
        .config(PipelineConfig {
            row_width: WIDTH,
            stride: 8, // keep the device small enough to bench both sizes
            seed: 0xBE,
            prefilter: Some(PrefilterConfig::default()),
            extension,
            ..PipelineConfig::paper(6, ErrorProfile::condition_a())
        })
        .backend(BackendKind::Device)
        .workers(2)
        .build()
        .expect("pipeline builds")
}

fn bench_extension_stage(c: &mut Criterion) {
    let mut group = c.benchmark_group("extension_stage");
    group.sample_size(10);
    for ref_len in [16_384usize, 65_536] {
        let reference = GenomeModel::uniform().generate(ref_len, 0xBEBC);
        let sampler = ReadSampler::new(WIDTH, ErrorProfile::condition_a());
        let reads: Vec<DnaSeq> = sampler
            .sample_many(&reference, 256, 0x77)
            .into_iter()
            .map(|r| r.bases)
            .collect();
        group.throughput(Throughput::Elements(reads.len() as u64));
        for (label, extension) in [("off", None), ("on", Some(ExtensionConfig::default()))] {
            let pipeline = pipeline_with(&reference, extension);
            group.bench_with_input(BenchmarkId::new(label, ref_len), &ref_len, |bencher, _| {
                bencher.iter(|| pipeline.map_batch(black_box(&reads)));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_align_kernel, bench_extension_stage);
criterion_main!(benches);
