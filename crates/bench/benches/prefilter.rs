//! The k-mer prefilter as a measured kernel: one-time index build cost and
//! per-read shortlist lookup cost across reference scales (64k/256k/1M
//! bases, stride 1, plus 1M at the mapping pipeline's stride-8 geometry),
//! plus the packed k-mer extraction the index is built from.
//!
//! The point being measured: shortlist lookup is `O(read minimizers ×
//! hits)` and essentially flat in the reference size, while the full scan
//! it replaces is `O(reference)` — that gap is the pipeline speedup the
//! `pipeline_prefilter` group measures end to end.

use asmcap_bench::genome;
use asmcap_genome::kmer::packed_kmers;
use asmcap_genome::{
    ErrorProfile, PackedRef, PackedSeq, PrefilterConfig, PrefilterIndex, ReadSampler,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

const WIDTH: usize = 128;
const REF_LENS: [usize; 3] = [65_536, 262_144, 1_048_576];
/// `(reference length, segment stride)` of each lookup case.
const LOOKUPS: [(usize, usize); 4] = [(65_536, 1), (262_144, 1), (1_048_576, 1), (1_048_576, 8)];

fn bench_index_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("prefilter_index_build");
    group.sample_size(10);
    for ref_len in REF_LENS {
        let reference = PackedRef::new(&genome(ref_len));
        group.throughput(Throughput::Elements(ref_len as u64));
        group.bench_with_input(BenchmarkId::from_parameter(ref_len), &ref_len, |b, _| {
            b.iter(|| {
                PrefilterIndex::new(black_box(&reference), WIDTH, 1, PrefilterConfig::default())
                    .expect("valid k")
            });
        });
    }
    group.finish();
}

fn bench_shortlist_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("prefilter_shortlist_lookup");
    group.sample_size(10);
    for (ref_len, stride) in LOOKUPS {
        let raw = genome(ref_len);
        let reference = PackedRef::new(&raw);
        let index = PrefilterIndex::new(&reference, WIDTH, stride, PrefilterConfig::default())
            .expect("valid k");
        let sampler = ReadSampler::new(WIDTH, ErrorProfile::condition_a());
        let reads: Vec<PackedSeq> = sampler
            .sample_many(&raw, 64, 0x5EED)
            .into_iter()
            .map(|r| PackedSeq::from_seq(&r.bases))
            .collect();
        group.throughput(Throughput::Elements(reads.len() as u64));
        let id = if stride == 1 {
            BenchmarkId::from_parameter(ref_len)
        } else {
            BenchmarkId::new(&format!("stride{stride}"), ref_len)
        };
        group.bench_with_input(id, &ref_len, |b, _| {
            b.iter(|| {
                reads
                    .iter()
                    .map(|read| index.shortlist(black_box(read)).len())
                    .sum::<usize>()
            });
        });
    }
    group.finish();
}

fn bench_packed_kmer_extraction(c: &mut Criterion) {
    let mut group = c.benchmark_group("packed_kmer_extraction");
    group.sample_size(10);
    let reference = PackedSeq::from_seq(&genome(262_144));
    for k in [12usize, 20, 32] {
        group.throughput(Throughput::Elements(reference.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| {
                packed_kmers(black_box(&reference), k)
                    .map(|(_, code)| code)
                    .fold(0u64, u64::wrapping_add)
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_index_build,
    bench_shortlist_lookup,
    bench_packed_kmer_extraction
);
criterion_main!(benches);
