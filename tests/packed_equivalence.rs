//! The packed matchplane is a pure representation change: every path that
//! runs on 2-bit packed words must produce **byte-identical** results — same
//! candidate positions, same cycle/energy accounting, same RNG draw order —
//! as the byte-per-base walk it replaced. These tests pin that contract
//! across the pipeline, the backends, the engine, and the array.

use asmcap::AsmMatcher as _;
use asmcap::{
    AsmcapPipeline, BackendKind, ExtensionConfig, FaultPlan, MapRecord, MapStatus, PipelineConfig,
};
use asmcap_arch::{CamArray, MatchMode};
use asmcap_genome::{DnaSeq, ErrorProfile, GenomeModel, PackedRef, PackedSeq, ReadSampler};

const WIDTH: usize = 128;

/// Golden fingerprints of `map_batch` over the canonical equivalence
/// workload, captured from the PR 7 tree before the extension stage landed
/// (same constants `tests/prefilter_equivalence.rs` pins for the prefilter).
const GOLDEN: [(BackendKind, &str, u64); 6] = [
    (BackendKind::Device, "A", 0x111F_C2D0_7E2B_41E9),
    (BackendKind::Pair, "A", 0xE448_E745_FEF2_98CE),
    (BackendKind::Software, "A", 0xA122_42E8_F8A1_40C9),
    (BackendKind::Device, "B", 0xAFB6_E0B4_4D6A_517B),
    (BackendKind::Pair, "B", 0x6B96_3025_4F05_D529),
    (BackendKind::Software, "B", 0x633A_8911_6649_4693),
];

/// Golden fingerprints of the extension-on alignments ([`alignment_fingerprint`])
/// over the same workload, in [`GOLDEN`]'s order. Captured before the
/// Myers/Hyyrö extension kernel replaced the per-level GenASM sweep: the
/// kernel is a pure speed change, so every CIGAR byte must survive it.
const ALIGNMENT_GOLDEN: [u64; 6] = [
    0x2B87_63A5_0C9A_70D5,
    0x2B87_63A5_0C9A_70D5,
    0x2B87_63A5_0C9A_70D5,
    0x2523_6E31_0620_8566,
    0x2523_6E31_0620_8566,
    0x2523_6E31_0620_8566,
];

/// FNV-1a over every *matching* field of every record. The enumeration is
/// deliberately explicit — adding the `alignment` field to `MapRecord` must
/// not perturb the hash of a run that never arms the extension stage.
fn fingerprint(records: &[MapRecord]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for r in records {
        mix(r.index);
        mix(match r.status {
            MapStatus::Mapped => 1,
            MapStatus::Unmapped => 2,
            MapStatus::Truncated => 3,
            MapStatus::Rejected => 4,
        });
        mix(r.positions.len() as u64);
        for &p in &r.positions {
            mix(p as u64);
        }
        mix(r.cycles);
        mix(r.searches);
        mix(r.energy_j.to_bits());
    }
    h
}

/// FNV-1a over every record's alignment: `(origin, score, CIGAR string)`,
/// or a marker for a record without one.
fn alignment_fingerprint(records: &[MapRecord]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for r in records {
        mix(r.index);
        match &r.alignment {
            None => mix(u64::MAX),
            Some(alignment) => {
                mix(alignment.origin as u64);
                mix(alignment.score as u64);
                for byte in alignment.cigar.to_string().bytes() {
                    mix(u64::from(byte));
                }
            }
        }
    }
    h
}

fn workload(genome: &DnaSeq, profile: ErrorProfile) -> Vec<DnaSeq> {
    let sampler = ReadSampler::new(WIDTH, profile);
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

fn pipeline(
    genome: &DnaSeq,
    backend: BackendKind,
    profile: ErrorProfile,
    threshold: usize,
) -> AsmcapPipeline {
    AsmcapPipeline::builder()
        .reference(genome.clone())
        .config(PipelineConfig {
            row_width: WIDTH,
            seed: 0xA5,
            ..PipelineConfig::paper(threshold, profile)
        })
        .backend(backend)
        .workers(2)
        .build()
        .expect("pipeline builds")
}

/// `map_batch` (packs internally) and `map_batch_packed` (caller packs)
/// yield byte-identical records on every backend, in both error regimes —
/// condition A arms HDAC, condition B arms TASR's rotated searches.
#[test]
fn packed_batch_entry_point_is_byte_identical() {
    let genome = GenomeModel::uniform().generate(16_384, 21);
    for (profile, threshold) in [
        (ErrorProfile::condition_a(), 6usize),
        (ErrorProfile::condition_b(), 8usize),
    ] {
        let reads = workload(&genome, profile);
        let packed: Vec<PackedSeq> = reads.iter().map(PackedSeq::from_seq).collect();
        for kind in [
            BackendKind::Device,
            BackendKind::Pair,
            BackendKind::Software,
        ] {
            let unpacked_records = pipeline(&genome, kind, profile, threshold).map_batch(&reads);
            let packed_records =
                pipeline(&genome, kind, profile, threshold).map_batch_packed(&packed);
            assert_eq!(
                unpacked_records, packed_records,
                "{kind:?} diverged between packed and unpacked batch entry points"
            );
        }
    }
}

/// Batch dispatch is the default device path: a whole tile drains
/// through `MappingBackend::map_batch_shortlisted` and the device's
/// array-by-array batch kernel. This pins it byte-identical to per-read
/// dispatch — same records, same aggregated stats, same RNG draw order —
/// at workers 1, 2, and 8, with and without the prefilter.
#[test]
fn batch_dispatch_matches_per_read_dispatch() {
    use asmcap_genome::PrefilterConfig;
    let genome = GenomeModel::uniform().generate(16_384, 29);
    let reads = workload(&genome, ErrorProfile::condition_a());
    let packed: Vec<PackedSeq> = reads.iter().map(PackedSeq::from_seq).collect();
    for prefilter in [None, Some(PrefilterConfig::default())] {
        let build = |workers: usize| {
            let mut builder = AsmcapPipeline::builder()
                .reference(genome.clone())
                .config(PipelineConfig {
                    row_width: WIDTH,
                    seed: 0xA5,
                    ..PipelineConfig::paper(6, ErrorProfile::condition_a())
                })
                .backend(BackendKind::Device)
                .workers(workers);
            if let Some(config) = prefilter {
                builder = builder.prefilter(config);
            }
            builder.build().expect("pipeline builds")
        };
        // Per-read dispatch on a fresh pipeline: the running counter
        // hands out indices 0..n exactly as one batch would.
        let per_read_pipeline = build(1);
        let per_read: Vec<MapRecord> = packed
            .iter()
            .map(|read| per_read_pipeline.map_packed(read))
            .collect();
        let per_read_stats = per_read_pipeline.stats();
        for workers in [1usize, 2, 8] {
            let batch_pipeline = build(workers);
            let batched = batch_pipeline.map_batch_packed(&packed);
            assert_eq!(
                batched,
                per_read,
                "batch dispatch diverged from per-read dispatch at \
                 {workers} workers (prefilter: {})",
                prefilter.is_some()
            );
            let mut stats = batch_pipeline.stats();
            // Wall-clock is the one legitimately dispatch-dependent field.
            stats.wall_s = per_read_stats.wall_s;
            assert_eq!(
                stats,
                per_read_stats,
                "batch stats diverged from per-read stats at {workers} \
                 workers (prefilter: {})",
                prefilter.is_some()
            );
        }
    }
}

/// Extension off (the default) ⇒ byte-identical to the PR 7 golden capture,
/// across all three backends and both error conditions. The config spells
/// `extension: None` out so the pin survives a future default change.
#[test]
fn extension_off_matches_pr7_golden_capture() {
    let genome = GenomeModel::uniform().generate(16_384, 21);
    for (kind, condition, golden) in GOLDEN {
        let (profile, threshold) = match condition {
            "A" => (ErrorProfile::condition_a(), 6),
            _ => (ErrorProfile::condition_b(), 8),
        };
        let reads = workload(&genome, profile);
        let p = AsmcapPipeline::builder()
            .reference(genome.clone())
            .config(PipelineConfig {
                row_width: WIDTH,
                seed: 0xA5,
                extension: None,
                ..PipelineConfig::paper(threshold, profile)
            })
            .backend(kind)
            .workers(2)
            .build()
            .expect("pipeline builds");
        assert!(!p.extension_armed());
        assert_eq!(
            fingerprint(&p.map_batch(&reads)),
            golden,
            "{kind:?}/condition {condition} drifted from the PR 7 capture"
        );
    }
}

/// Arming the extension stage changes **only** the `alignment` field:
/// stripping it restores records byte-identical to an extension-off run
/// (whose matching fields still hash to the PR 7 golden capture), the
/// alignments land on reported positions, every transcript replays at
/// exactly its claimed cost against the packed reference segment, and the
/// alignments themselves — origins, scores and CIGAR bytes — hash to
/// [`ALIGNMENT_GOLDEN`].
#[test]
fn extension_changes_only_the_alignment_field_and_replays_exactly() {
    let genome = GenomeModel::uniform().generate(16_384, 21);
    let packed_ref = PackedRef::new(&genome);
    for ((kind, condition, golden), alignment_golden) in GOLDEN.into_iter().zip(ALIGNMENT_GOLDEN) {
        let (profile, threshold) = match condition {
            "A" => (ErrorProfile::condition_a(), 6),
            _ => (ErrorProfile::condition_b(), 8),
        };
        let reads = workload(&genome, profile);
        let plain = pipeline(&genome, kind, profile, threshold).map_batch(&reads);
        let extended = AsmcapPipeline::builder()
            .reference(genome.clone())
            .config(PipelineConfig {
                row_width: WIDTH,
                seed: 0xA5,
                ..PipelineConfig::paper(threshold, profile)
            })
            .backend(kind)
            .workers(2)
            .extension(ExtensionConfig::default())
            .build()
            .expect("pipeline builds")
            .map_batch(&reads);
        assert_eq!(
            fingerprint(&extended),
            golden,
            "{kind:?}/condition {condition}: extension perturbed a matching field"
        );
        assert_eq!(
            alignment_fingerprint(&extended),
            alignment_golden,
            "{kind:?}/condition {condition}: alignments drifted from the golden capture \
             ({:#018X})",
            alignment_fingerprint(&extended)
        );
        let mut aligned = 0usize;
        for ((read, p), e) in reads.iter().zip(&plain).zip(&extended) {
            let mut stripped = e.clone();
            stripped.alignment = None;
            assert_eq!(
                &stripped, p,
                "{kind:?}/condition {condition}: extension changed more than `alignment`"
            );
            if let Some(alignment) = &e.alignment {
                aligned += 1;
                assert!(
                    e.positions.contains(&alignment.origin),
                    "{kind:?}/condition {condition}: aligned at unreported origin {}",
                    alignment.origin
                );
                let segment = packed_ref.segment(alignment.origin, WIDTH);
                assert_eq!(
                    alignment
                        .cigar
                        .check_replay(&PackedSeq::from_seq(read), &segment),
                    Some(alignment.score),
                    "{kind:?}/condition {condition}: CIGAR does not replay at origin {}",
                    alignment.origin
                );
            }
        }
        assert!(
            aligned >= 12,
            "{kind:?}/condition {condition}: only {aligned} of the planted reads aligned"
        );
    }
}

/// `FaultPlan::none()` is a true no-op: carrying an empty plan through the
/// builder produces records byte-identical to the PR 7 golden capture on
/// all three backends and both error conditions — the fault hooks on the
/// sense path cost zero draws and zero decisions when the plan is inert.
#[test]
fn fault_off_matches_pr7_golden_capture() {
    let genome = GenomeModel::uniform().generate(16_384, 21);
    for (kind, condition, golden) in GOLDEN {
        let (profile, threshold) = match condition {
            "A" => (ErrorProfile::condition_a(), 6),
            _ => (ErrorProfile::condition_b(), 8),
        };
        let reads = workload(&genome, profile);
        let p = AsmcapPipeline::builder()
            .reference(genome.clone())
            .config(PipelineConfig {
                row_width: WIDTH,
                seed: 0xA5,
                ..PipelineConfig::paper(threshold, profile)
            })
            .backend(kind)
            .workers(2)
            .fault(FaultPlan::none())
            .build()
            .expect("an inert fault plan builds on every backend");
        assert!(!p.fault_armed());
        assert_eq!(
            fingerprint(&p.map_batch(&reads)),
            golden,
            "{kind:?}/condition {condition}: FaultPlan::none() perturbed results"
        );
    }
}

/// Faults on: the same seed and plan reproduce identical records at
/// workers 1, 2, and 8 — fault draws key off the per-read seed, never off
/// scheduling — and a different fault seed really does change the fabric.
#[test]
fn fault_on_is_deterministic_across_worker_counts() {
    let genome = GenomeModel::uniform().generate(16_384, 21);
    let reads = workload(&genome, ErrorProfile::condition_a());
    let run = |workers: usize, fault_seed: u64| {
        let p = AsmcapPipeline::builder()
            .reference(genome.clone())
            .config(PipelineConfig {
                row_width: WIDTH,
                seed: 0xA5,
                ..PipelineConfig::paper(6, ErrorProfile::condition_a())
            })
            .backend(BackendKind::Device)
            .workers(workers)
            .fault(FaultPlan::paper_corner(fault_seed))
            .build()
            .expect("pipeline builds");
        assert!(p.fault_armed());
        p.map_batch(&reads)
    };
    let baseline = run(1, 0xFA17);
    for workers in [2usize, 8] {
        assert_eq!(
            run(workers, 0xFA17),
            baseline,
            "faulted records diverged at {workers} workers"
        );
    }
    assert_ne!(
        run(1, 0xFA17 + 1),
        baseline,
        "a different fault seed left every record untouched — the plan is not landing"
    );
}

/// The engine's scalar `matches` delegates to `matches_packed`; a fresh
/// engine fed slices and a fresh engine fed packed segment views of the
/// same reference walk identical RNG streams and return identical outcomes.
#[test]
fn engine_scalar_and_packed_paths_are_interchangeable() {
    let genome = GenomeModel::uniform().generate(4_096, 7);
    let packed_ref = PackedRef::new(&genome);
    let sampler = ReadSampler::new(WIDTH, ErrorProfile::condition_b());
    for (i, read) in sampler.sample_many(&genome, 6, 13).into_iter().enumerate() {
        let seed = 1000 + i as u64;
        let mut scalar = asmcap::AsmcapEngine::paper(ErrorProfile::condition_b(), seed);
        let mut packed = asmcap::AsmcapEngine::paper(ErrorProfile::condition_b(), seed);
        let packed_read = PackedSeq::from_seq(&read.bases);
        for start in (0..=genome.len() - WIDTH).step_by(197) {
            let slice = &genome.as_slice()[start..start + WIDTH];
            let view = packed_ref.segment(start, WIDTH);
            for t in [2usize, 8] {
                assert_eq!(
                    scalar.matches(slice, read.bases.as_slice(), t),
                    packed.matches_packed(&view, &packed_read, t),
                    "engine diverged at segment {start}, T={t}"
                );
            }
        }
    }
}

/// `CamArray::search` over all rows and the `search_packed_rows` wrapper
/// over every row index: same rows, same n_mis, same sense decisions, same
/// energy.
#[test]
fn array_search_entry_points_agree() {
    let genome = GenomeModel::uniform().generate(4_096, 3);
    let mut array = CamArray::asmcap(16, WIDTH);
    for i in 0..16 {
        array
            .store_row(&genome.as_slice()[i * 200..i * 200 + WIDTH])
            .unwrap();
    }
    let read = PackedSeq::from_seq(&genome.window(1_000..1_000 + WIDTH));
    let all_rows: Vec<usize> = (0..array.rows()).collect();
    for mode in [MatchMode::EdStar, MatchMode::Hamming] {
        let mut rng_a = asmcap_circuit::rng(11);
        let mut rng_b = asmcap_circuit::rng(11);
        assert_eq!(
            array.search(&read, 4, mode, None, &mut rng_a, None),
            array.search_packed_rows(&read, 4, mode, &all_rows, &mut rng_b),
            "array diverged in {mode} mode"
        );
    }
}

/// Truncation and rejection statuses are decided on packed lengths exactly
/// as they were on sequence lengths.
#[test]
fn statuses_survive_the_packed_path() {
    let genome = GenomeModel::uniform().generate(4_096, 24);
    let p = pipeline(
        &genome,
        BackendKind::Software,
        ErrorProfile::condition_a(),
        2,
    );
    let long = PackedSeq::from_seq(&genome.window(200..200 + WIDTH + 40));
    let short = PackedSeq::from_seq(&genome.window(0..WIDTH / 2));
    let long_record = p.map_packed(&long);
    assert_eq!(long_record.status, asmcap::MapStatus::Truncated);
    assert!(
        long_record.positions.contains(&200),
        "truncated prefix still maps"
    );
    let short_record = p.map_packed(&short);
    assert_eq!(short_record.status, asmcap::MapStatus::Rejected);
}

/// The long-read mapper's packed fragment extraction sees exactly the
/// windows `fragments()` reports, so voting is unchanged.
#[test]
fn long_read_mapper_votes_identically_over_packed_fragments() {
    let genome = GenomeModel::uniform().generate(8_192, 2);
    let make = || {
        asmcap::LongReadMapper::new(
            AsmcapPipeline::builder()
                .reference(genome.clone())
                .config(PipelineConfig {
                    row_width: WIDTH,
                    seed: 7,
                    ..PipelineConfig::plain(2)
                })
                .build()
                .unwrap(),
            asmcap::FragmentConfig::new(WIDTH),
        )
    };
    let read = genome.window(2_345..2_345 + 500); // non-multiple of the width
    let mapper = make();
    let mapping = mapper.map_long_read(&read).expect("maps");
    assert_eq!(mapping.origin, 2_345);
    // Replaying the unpacked fragments through a fresh pipeline produces
    // the same records the packed path voted over.
    let replay = make();
    let fragments = replay.fragments(&read);
    let records: Vec<MapRecord> = replay
        .pipeline()
        .map_batch(&fragments.iter().map(|(_, f)| f.clone()).collect::<Vec<_>>());
    assert_eq!(mapping.fragments, fragments.len());
    assert!(records.iter().all(|r| r.status.is_mapped()));
}
