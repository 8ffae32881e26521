//! Integration tests for the batch-first `AsmcapPipeline` API: the
//! determinism rule (results independent of worker count and batching
//! shape) and backend equivalence (device vs per-pair engine agree on
//! match/no-match over a seeded dataset).

use asmcap::{AsmcapPipeline, BackendKind, MapRecord, MapStatus, PipelineConfig};
use asmcap_genome::{DnaSeq, ErrorProfile, GenomeModel, ReadSampler};

const WIDTH: usize = 128;

fn config(threshold: usize) -> PipelineConfig {
    PipelineConfig {
        row_width: WIDTH,
        seed: 0xA5,
        ..PipelineConfig::paper(threshold, ErrorProfile::condition_a())
    }
}

fn pipeline(genome: &DnaSeq, backend: BackendKind, workers: usize) -> AsmcapPipeline {
    AsmcapPipeline::builder()
        .reference(genome.clone())
        .config(config(6))
        .backend(backend)
        .workers(workers)
        .build()
        .expect("pipeline builds")
}

/// A mixed workload: erroneous reads from the reference plus foreign decoys.
fn workload(genome: &DnaSeq) -> Vec<DnaSeq> {
    let sampler = ReadSampler::new(WIDTH, ErrorProfile::condition_a());
    let mut reads: Vec<DnaSeq> = sampler
        .sample_many(genome, 12, 31)
        .into_iter()
        .map(|r| r.bases)
        .collect();
    let foreign = GenomeModel::uniform().generate(4 * WIDTH, 777);
    for i in 0..4 {
        reads.push(foreign.window(i * WIDTH..(i + 1) * WIDTH));
    }
    reads
}

#[test]
fn map_batch_is_worker_count_independent() {
    let genome = GenomeModel::uniform().generate(16_384, 21);
    let reads = workload(&genome);

    // Sequential reference: read-by-read through `map` on a fresh pipeline.
    let sequential_pipeline = pipeline(&genome, BackendKind::Device, 1);
    let sequential: Vec<MapRecord> = reads
        .iter()
        .map(|read| sequential_pipeline.map(read))
        .collect();

    for workers in [1usize, 2, 8] {
        let batched = pipeline(&genome, BackendKind::Device, workers).map_batch(&reads);
        assert_eq!(
            batched, sequential,
            "map_batch with {workers} workers diverged from sequential map"
        );
    }
    // Cutting the stream into consecutive `map_batch` calls on one
    // pipeline changes nothing either: the read-index counter continues
    // across calls.
    let cut = pipeline(&genome, BackendKind::Device, 4);
    let (head, tail) = reads.split_at(reads.len() / 2 - 1);
    let mut streamed = cut.map_batch(head);
    streamed.extend(cut.map_batch(tail));
    assert_eq!(streamed, sequential, "consecutive batches diverged");
}

#[test]
fn prefiltered_map_batch_is_worker_count_independent() {
    // The prefilter's shortlist is computed per read from the read alone
    // (seedless minimizer hash), so arming it must not perturb the
    // determinism rule: identical records AND identical aggregated stats
    // at every worker count, on every backend, through the packed batch
    // entry point.
    use asmcap_genome::{PackedSeq, PrefilterConfig};
    let genome = GenomeModel::uniform().generate(16_384, 25);
    let reads = workload(&genome);
    let packed: Vec<PackedSeq> = reads.iter().map(PackedSeq::from_seq).collect();
    let build = |backend: BackendKind, workers: usize| {
        AsmcapPipeline::builder()
            .reference(genome.clone())
            .config(config(6))
            .prefilter(PrefilterConfig::default())
            .backend(backend)
            .workers(workers)
            .build()
            .expect("pipeline builds")
    };
    for backend in [
        BackendKind::Device,
        BackendKind::Pair,
        BackendKind::Software,
    ] {
        let reference_pipeline = build(backend, 1);
        let reference_records = reference_pipeline.map_batch_packed(&packed);
        let reference_stats = reference_pipeline.stats();
        for workers in [2usize, 8] {
            let pipeline = build(backend, workers);
            let records = pipeline.map_batch_packed(&packed);
            assert_eq!(
                records, reference_records,
                "{backend:?} records diverged at {workers} workers with prefilter on"
            );
            let mut stats = pipeline.stats();
            // Wall-clock is the one legitimately worker-dependent field.
            stats.wall_s = reference_stats.wall_s;
            assert_eq!(
                stats, reference_stats,
                "{backend:?} stats diverged at {workers} workers with prefilter on"
            );
        }
    }
}

#[test]
fn extended_map_batch_is_worker_count_independent() {
    // The extension stage is pure DP over the packed reference — no RNG, no
    // accounting — so arming it must preserve the determinism rule:
    // identical records (alignments included) AND identical aggregated
    // stats at workers 1, 2, and 8, on every backend.
    use asmcap::ExtensionConfig;
    use asmcap_genome::PackedSeq;
    let genome = GenomeModel::uniform().generate(16_384, 25);
    let reads = workload(&genome);
    let packed: Vec<PackedSeq> = reads.iter().map(PackedSeq::from_seq).collect();
    let build = |backend: BackendKind, workers: usize| {
        AsmcapPipeline::builder()
            .reference(genome.clone())
            .config(config(6))
            .extension(ExtensionConfig::default())
            .backend(backend)
            .workers(workers)
            .build()
            .expect("pipeline builds")
    };
    for backend in [
        BackendKind::Device,
        BackendKind::Pair,
        BackendKind::Software,
    ] {
        let reference_pipeline = build(backend, 1);
        let reference_records = reference_pipeline.map_batch_packed(&packed);
        let reference_stats = reference_pipeline.stats();
        assert!(
            reference_stats.aligned > 0,
            "{backend:?}: extension armed but nothing aligned"
        );
        for workers in [2usize, 8] {
            let pipeline = build(backend, workers);
            let records = pipeline.map_batch_packed(&packed);
            assert_eq!(
                records, reference_records,
                "{backend:?} records diverged at {workers} workers with extension on"
            );
            let mut stats = pipeline.stats();
            // Wall-clock is the one legitimately worker-dependent field.
            stats.wall_s = reference_stats.wall_s;
            assert_eq!(
                stats, reference_stats,
                "{backend:?} stats diverged at {workers} workers with extension on"
            );
        }
    }
}

#[test]
fn skewed_shortlists_stay_worker_count_invariant() {
    // Adversarial skew for the work-stealing executor: the batch front-loads
    // a block of foreign reads whose shortlists come up empty, so (with the
    // fallback open) each takes a full O(reference) scan, while the
    // remaining reads shortlist to a handful of segments. Under PR 2's
    // fixed equal chunking all the expensive reads landed on worker 0; the
    // tile queue spreads them — and either way the records AND aggregated
    // stats must be byte-identical at every worker count, on every backend.
    use asmcap_genome::{PackedSeq, PrefilterConfig};
    let genome = GenomeModel::uniform().generate(16_384, 77);
    let sampler = ReadSampler::new(WIDTH, ErrorProfile::condition_a());
    let foreign = GenomeModel::uniform().generate(16 * WIDTH, 4_242);
    let mut reads: Vec<DnaSeq> = (0..16)
        .map(|i| foreign.window(i * WIDTH..(i + 1) * WIDTH))
        .collect();
    reads.extend(
        sampler
            .sample_many(&genome, 48, 31)
            .into_iter()
            .map(|r| r.bases),
    );
    let packed: Vec<PackedSeq> = reads.iter().map(PackedSeq::from_seq).collect();
    let build = |backend: BackendKind, workers: usize| {
        AsmcapPipeline::builder()
            .reference(genome.clone())
            .config(config(6))
            .prefilter(PrefilterConfig::default())
            .backend(backend)
            .workers(workers)
            .build()
            .expect("pipeline builds")
    };
    for backend in [
        BackendKind::Device,
        BackendKind::Pair,
        BackendKind::Software,
    ] {
        let reference_pipeline = build(backend, 1);
        let reference_records = reference_pipeline.map_batch_packed(&packed);
        let reference_stats = reference_pipeline.stats();
        for workers in [2usize, 8] {
            let pipeline = build(backend, workers);
            let records = pipeline.map_batch_packed(&packed);
            assert_eq!(
                records, reference_records,
                "{backend:?} records diverged at {workers} workers under skew"
            );
            let mut stats = pipeline.stats();
            stats.wall_s = reference_stats.wall_s;
            assert_eq!(
                stats, reference_stats,
                "{backend:?} stats diverged at {workers} workers under skew"
            );
        }
    }
}

#[test]
fn indexed_batch_with_sequential_indices_matches_counter_dispatch() {
    // `map_batch_packed_indexed` with indices 0..n is exactly what the
    // running counter hands a fresh pipeline's first batch — records and
    // stats must agree at every worker count.
    use asmcap_genome::{PackedSeq, PrefilterConfig};
    let genome = GenomeModel::uniform().generate(16_384, 33);
    let packed: Vec<PackedSeq> = workload(&genome).iter().map(PackedSeq::from_seq).collect();
    let indices: Vec<u64> = (0..packed.len() as u64).collect();
    let build = |workers: usize| {
        AsmcapPipeline::builder()
            .reference(genome.clone())
            .config(config(6))
            .prefilter(PrefilterConfig::default())
            .backend(BackendKind::Device)
            .workers(workers)
            .build()
            .expect("pipeline builds")
    };
    let counter_pipeline = build(1);
    let counter_records = counter_pipeline.map_batch_packed(&packed);
    let counter_stats = counter_pipeline.stats();
    for workers in [1usize, 2, 8] {
        let indexed_pipeline = build(workers);
        let indexed = indexed_pipeline.map_batch_packed_indexed(&packed, &indices);
        assert_eq!(
            indexed, counter_records,
            "explicit indices 0..n diverged from counter dispatch at {workers} workers"
        );
        let mut stats = indexed_pipeline.stats();
        stats.wall_s = counter_stats.wall_s;
        assert_eq!(stats, counter_stats);
        // The running counter was not consumed: the next counter-indexed
        // read still starts at index 0.
        let next = indexed_pipeline.map_packed(&packed[0]);
        assert_eq!(next.index, 0, "indexed dispatch consumed the counter");
    }
}

#[test]
fn indexed_batch_records_depend_only_on_read_and_index() {
    // The serving determinism rule: a record is a function of (read,
    // index) alone — not of batch composition, position within the
    // batch, or worker count. Map a workload in arrival order, then
    // remap it reversed and split across two batches with the same
    // indices, and compare record-by-record.
    use asmcap_genome::{PackedSeq, PrefilterConfig};
    let genome = GenomeModel::uniform().generate(16_384, 37);
    let packed: Vec<PackedSeq> = workload(&genome).iter().map(PackedSeq::from_seq).collect();
    // Sparse, out-of-order indices, as client request ids would be.
    let indices: Vec<u64> = (0..packed.len() as u64).map(|i| 1_000 + 7 * i).collect();
    let build = |workers: usize| {
        AsmcapPipeline::builder()
            .reference(genome.clone())
            .config(config(6))
            .prefilter(PrefilterConfig::default())
            .backend(BackendKind::Device)
            .workers(workers)
            .build()
            .expect("pipeline builds")
    };
    let forward = build(1).map_batch_packed_indexed(&packed, &indices);
    for workers in [1usize, 2, 8] {
        let pipeline = build(workers);
        let reversed_reads: Vec<PackedSeq> = packed.iter().rev().cloned().collect();
        let reversed_indices: Vec<u64> = indices.iter().rev().copied().collect();
        let split = reversed_reads.len() / 3;
        let mut reordered =
            pipeline.map_batch_packed_indexed(&reversed_reads[..split], &reversed_indices[..split]);
        reordered.extend(
            pipeline.map_batch_packed_indexed(&reversed_reads[split..], &reversed_indices[split..]),
        );
        reordered.reverse();
        assert_eq!(
            reordered, forward,
            "records changed with batch composition at {workers} workers"
        );
    }
}

#[test]
fn device_and_pair_backends_agree_on_match_no_match() {
    // Clear-margin dataset: exact-copy reads (must map at their origin) and
    // unrelated decoys (must not map at all) — far enough from the decision
    // boundary that sensing noise cannot flip either backend.
    let genome = GenomeModel::uniform().generate(8_192, 23);
    let mut reads = Vec::new();
    let mut origins = Vec::new();
    for i in 0..8 {
        let start = 97 + i * 731;
        reads.push(genome.window(start..start + WIDTH));
        origins.push(Some(start));
    }
    let foreign = GenomeModel::uniform().generate(8 * WIDTH, 555);
    for i in 0..8 {
        reads.push(foreign.window(i * WIDTH..(i + 1) * WIDTH));
        origins.push(None);
    }

    let device = pipeline(&genome, BackendKind::Device, 2).map_batch(&reads);
    let pair = pipeline(&genome, BackendKind::Pair, 2).map_batch(&reads);
    let software = pipeline(&genome, BackendKind::Software, 2).map_batch(&reads);

    for (i, origin) in origins.iter().enumerate() {
        for (name, records) in [
            ("device", &device),
            ("pair", &pair),
            ("software", &software),
        ] {
            let record = &records[i];
            match origin {
                Some(start) => {
                    assert_eq!(
                        record.status,
                        MapStatus::Mapped,
                        "{name} backend missed exact read {i}"
                    );
                    assert!(
                        record.positions.contains(start),
                        "{name} backend lost origin {start} for read {i}: {:?}",
                        record.positions
                    );
                }
                None => assert_eq!(
                    record.status,
                    MapStatus::Unmapped,
                    "{name} backend hallucinated a match for decoy {i}: {:?}",
                    record.positions
                ),
            }
        }
    }
}

#[test]
fn pipeline_stats_aggregate_the_batch() {
    let genome = GenomeModel::uniform().generate(4_096, 24);
    let p = pipeline(&genome, BackendKind::Device, 2);
    let mut reads = workload(&genome);
    reads.push(genome.window(0..WIDTH + 40)); // truncated
    reads.push(genome.window(0..WIDTH / 2)); // rejected
    let records = p.map_batch(&reads);
    let stats = p.stats();
    assert_eq!(stats.reads, reads.len() as u64);
    assert_eq!(stats.truncated, 1);
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.cycles, records.iter().map(|r| r.cycles).sum::<u64>());
    assert_eq!(
        stats.searches,
        records.iter().map(|r| r.searches).sum::<u64>()
    );
    assert!(stats.energy_j > 0.0);
    assert!(stats.wall_s > 0.0);
    // Indices are the batch order.
    assert!(records.iter().enumerate().all(|(i, r)| r.index == i as u64));
}
