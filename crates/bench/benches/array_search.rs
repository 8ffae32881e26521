//! Architecture-layer benchmarks: in-array search across array sizes and
//! the device walk (the operation Fig. 8's throughput model counts), as a
//! full scan and under a prefilter-sized row mask.

use asmcap_arch::{CamArray, DeviceBuilder, MatchMode};
use asmcap_bench::genome;
use asmcap_circuit::rng;
use asmcap_genome::PackedSeq;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn bench_array_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("array_search");
    for (rows, width) in [(64usize, 64usize), (256, 256)] {
        let reference = genome(rows * width + width);
        let mut array = CamArray::asmcap(rows, width);
        for i in 0..rows {
            array
                .store_row(&reference.as_slice()[i * width..(i + 1) * width])
                .unwrap();
        }
        let read = PackedSeq::from_seq(&reference.window(32..32 + width));
        let mut r = rng(4);
        group.throughput(Throughput::Elements((rows * width) as u64));
        for (name, mode) in [
            ("ed_star", MatchMode::EdStar),
            ("hamming", MatchMode::Hamming),
        ] {
            group.bench_with_input(
                BenchmarkId::new(name, format!("{rows}x{width}")),
                &rows,
                |bencher, _| {
                    bencher.iter(|| array.search(black_box(&read), 8, mode, None, &mut r, None));
                },
            );
        }
    }
    group.finish();
}

fn bench_device_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("device_search");
    group.sample_size(10);
    let width = 256usize;
    let arrays = 16usize;
    // 16 arrays x 256 rows hold exactly 4096 stride-1 windows.
    let reference = genome(arrays * 256 + width - 1);
    let mut device = DeviceBuilder::new()
        .arrays(arrays)
        .rows_per_array(256)
        .row_width(width)
        .build_asmcap();
    device.store_reference(&reference, 1).unwrap();
    let read = PackedSeq::from_seq(&reference.window(1000..1000 + width));
    let mut r = rng(5);
    group.throughput(Throughput::Elements(device.stored_rows() as u64));
    group.bench_function("asmcap_16_arrays_stride1", |bencher| {
        bencher.iter(|| device.search(black_box(&read), 8, MatchMode::EdStar, None, &mut r, None));
    });
    // A prefilter-sized shortlist: 64 candidate origins spread over every
    // array, so the walk visits each array but senses 4 rows in each.
    let origins: Vec<usize> = (0..64).map(|i| i * 64).collect();
    let mask = device.mask_for_origins(&origins);
    group.bench_function("asmcap_16_arrays_masked_64_rows", |bencher| {
        bencher.iter(|| {
            device.search(
                black_box(&read),
                8,
                MatchMode::EdStar,
                Some(&mask),
                &mut r,
                None,
            )
        });
    });
    group.finish();
}

criterion_group!(benches, bench_array_search, bench_device_search);
criterion_main!(benches);
