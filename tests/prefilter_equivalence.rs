//! The k-mer prefilter contract, pinned from both sides:
//!
//! * **Off** — a pipeline with `prefilter: None` (the default) is
//!   byte-identical to the pre-prefilter stack: the fingerprints below were
//!   captured from the PR 3 matchplane (device/pair/software × condition
//!   A/B, TASR armed) *before* the shortlist plumbing landed, and the
//!   refactored backends must still reproduce them bit for bit.
//! * **On** — correctness becomes statistical (recall), so the pin is a
//!   property: every read the full scan maps at an offset the seed-hit
//!   floor supports is still mapped at that offset, over synthetic genomes
//!   with planted mutations at the paper's condition-A/B error rates. The
//!   noiseless software backend is held to the exact property; the noisy
//!   device/pair backends are held to it on clear-margin reads (sensing
//!   noise only matters at the decision boundary).

use asmcap::{AsmcapPipeline, BackendKind, MapRecord, MapStatus, PipelineConfig, PrefilterConfig};
use asmcap_genome::{
    DnaSeq, ErrorProfile, GenomeModel, PackedRef, PackedSeq, PrefilterIndex, ReadSampler,
};

const WIDTH: usize = 128;

/// Golden fingerprints of `map_batch` over the canonical equivalence
/// workload (same genome/reads/config as `tests/packed_equivalence.rs`),
/// captured from the PR 3 tree before the prefilter refactor.
const GOLDEN: [(BackendKind, &str, u64); 6] = [
    (BackendKind::Device, "A", 0x111F_C2D0_7E2B_41E9),
    (BackendKind::Pair, "A", 0xE448_E745_FEF2_98CE),
    (BackendKind::Software, "A", 0xA122_42E8_F8A1_40C9),
    (BackendKind::Device, "B", 0xAFB6_E0B4_4D6A_517B),
    (BackendKind::Pair, "B", 0x6B96_3025_4F05_D529),
    (BackendKind::Software, "B", 0x633A_8911_6649_4693),
];

fn profile_for(name: &str) -> (ErrorProfile, usize) {
    match name {
        "A" => (ErrorProfile::condition_a(), 6),
        "B" => (ErrorProfile::condition_b(), 8),
        other => panic!("unknown condition {other}"),
    }
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

/// FNV-1a over every field of every record — any drift in positions,
/// statuses, cycle/search counts, or energy flips the fingerprint.
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

fn pipeline(
    genome: &DnaSeq,
    backend: BackendKind,
    condition: &str,
    prefilter: Option<PrefilterConfig>,
) -> AsmcapPipeline {
    let (profile, threshold) = profile_for(condition);
    AsmcapPipeline::builder()
        .reference(genome.clone())
        .config(PipelineConfig {
            row_width: WIDTH,
            seed: 0xA5,
            prefilter,
            ..PipelineConfig::paper(threshold, profile)
        })
        .backend(backend)
        .workers(2)
        .build()
        .expect("pipeline builds")
}

/// Prefilter off ⇒ byte-identical to the PR 3 golden capture, across all
/// three backends and both error conditions.
#[test]
fn prefilter_off_matches_pr3_golden_capture() {
    let genome = GenomeModel::uniform().generate(16_384, 21);
    for (kind, condition, golden) in GOLDEN {
        let (profile, _) = profile_for(condition);
        let reads = workload(&genome, profile);
        let records = pipeline(&genome, kind, condition, None).map_batch(&reads);
        assert_eq!(
            fingerprint(&records),
            golden,
            "{kind:?}/condition {condition} drifted from the PR 3 capture"
        );
    }
}

/// Golden fingerprints of prefilter-on `map_batch` on the device backend
/// over the canonical workload (default prefilter knobs), captured before
/// the k-mer index moved to packed 8-byte entries: the index layout must
/// not move a single record.
const PREFILTER_ON_GOLDEN: [(&str, u64); 2] =
    [("A", 0x97C7_F474_B71F_5040), ("B", 0x41EE_4C70_A6C3_858C)];

/// Golden [`shortlist_fingerprint`]s per `(k, stride)`, captured before the
/// k-mer index moved to packed 8-byte entries.
const SHORTLIST_GOLDEN: [(usize, usize, u64); 6] = [
    (12, 1, 0xB112_A9B4_3BBB_4C78),
    (12, 8, 0xDEE5_6908_AFAC_470A),
    (16, 1, 0xE196_91F3_490B_CB59),
    (16, 8, 0xBE7E_FC9E_F5D9_A8CE),
    (32, 1, 0x4829_5543_C415_234F),
    (32, 8, 0x681C_383A_53C0_6460),
];

/// FNV-1a over every read's shortlist: each ranked `(start, votes)` pair
/// in rank order, the list length, and the full-scan flag.
fn shortlist_fingerprint(index: &PrefilterIndex, reads: &[PackedSeq]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for read in reads {
        let shortlist = index.shortlist(read);
        mix(u64::from(shortlist.is_full_scan()));
        mix(shortlist.len() as u64);
        for &(start, votes) in shortlist.ranked() {
            mix(start as u64);
            mix(votes as u64);
        }
    }
    h
}

/// Every shortlist on a 64 kbase reference — condition-A reads,
/// condition-B reads and foreign reads, at stride 1 and at the pipeline's
/// stride-8 geometry, for k ∈ {12, 16, 32} — is byte-identical to the
/// golden capture.
#[test]
fn shortlists_match_golden_capture() {
    let genome = GenomeModel::uniform().generate(65_536, 19);
    let reference = PackedRef::new(&genome);
    let mut reads: Vec<PackedSeq> = Vec::new();
    for (profile, seed) in [
        (ErrorProfile::condition_a(), 61),
        (ErrorProfile::condition_b(), 62),
    ] {
        let sampler = ReadSampler::new(WIDTH, profile);
        reads.extend(
            sampler
                .sample_many(&genome, 48, seed)
                .iter()
                .map(|r| PackedSeq::from_seq(&r.bases)),
        );
    }
    let foreign = GenomeModel::uniform().generate(16 * WIDTH, 63);
    reads.extend((0..16).map(|i| PackedSeq::from_seq(&foreign.window(i * WIDTH..(i + 1) * WIDTH))));
    let mut drifted = Vec::new();
    for (k, stride, golden) in SHORTLIST_GOLDEN {
        let config = PrefilterConfig {
            k,
            ..PrefilterConfig::default()
        };
        let index = PrefilterIndex::new(&reference, WIDTH, stride, config).expect("valid config");
        let got = shortlist_fingerprint(&index, &reads);
        if got != golden {
            drifted.push(format!("(k {k}, stride {stride}): {got:#018X}"));
        }
    }
    assert!(drifted.is_empty(), "shortlists drifted: {drifted:?}");
}

/// Prefilter on ⇒ the device backend's records are byte-identical to the
/// golden capture, for both error conditions.
#[test]
fn prefilter_on_device_records_match_golden_capture() {
    let genome = GenomeModel::uniform().generate(16_384, 21);
    for (condition, golden) in PREFILTER_ON_GOLDEN {
        let (profile, _) = profile_for(condition);
        let reads = workload(&genome, profile);
        let pre = pipeline(
            &genome,
            BackendKind::Device,
            condition,
            Some(PrefilterConfig::default()),
        );
        let got = fingerprint(&pre.map_batch(&reads));
        assert_eq!(
            got, golden,
            "condition {condition}: prefilter-on device records drifted ({got:#018X})"
        );
    }
}

/// A shortlist naming every stored segment start degenerates to the full
/// scan, byte-identically — RNG draws included — on all three backends.
#[test]
fn full_shortlist_is_byte_identical_to_full_scan() {
    let genome = GenomeModel::uniform().generate(4_096, 33);
    let all_starts: Vec<usize> = (0..=genome.len() - WIDTH).collect();
    let config = asmcap::MapperConfig::paper(6, ErrorProfile::condition_a());

    let device = {
        let rows = all_starts.len();
        let mut device = asmcap_arch::DeviceBuilder::new()
            .arrays(rows.div_ceil(256))
            .rows_per_array(256)
            .row_width(WIDTH)
            .build_asmcap();
        device.store_reference(&genome, 1).unwrap();
        asmcap::DeviceBackend::new(device, config.clone())
    };
    let pair = asmcap::PairBackend::new(genome.clone(), 1, WIDTH, config);
    let software = asmcap::SoftwareBackend::new(genome.clone(), 1, WIDTH, 6);

    let backends: [&dyn asmcap::MappingBackend; 3] = [&device, &pair, &software];
    let sampler = ReadSampler::new(WIDTH, ErrorProfile::condition_a());
    for (i, read) in sampler.sample_many(&genome, 4, 91).into_iter().enumerate() {
        let packed = [PackedSeq::from_seq(&read.bases)];
        let seed = [400 + i as u64];
        for backend in backends {
            assert_eq!(
                backend.map_batch_shortlisted(&packed, &seed, &[None]),
                backend.map_batch_shortlisted(&packed, &seed, &[Some(all_starts.clone())]),
                "{} diverged under a full shortlist",
                backend.name()
            );
        }
    }
}

/// On the noiseless software backend the prefilter property is exact, for
/// both error conditions: prefilter-on positions are a subset of the full
/// scan's, and every full-scan position supported by at least
/// `min_seed_hits` seed votes survives (unless the candidate cap pushed it
/// out — ruled out here by an effectively unbounded cap).
#[test]
fn software_prefilter_loses_no_supported_mapping() {
    let genome = GenomeModel::uniform().generate(16_384, 55);
    let prefilter = PrefilterConfig {
        max_candidates: usize::MAX >> 1,
        ..PrefilterConfig::default()
    };
    for condition in ["A", "B"] {
        let (profile, _) = profile_for(condition);
        let reads = workload(&genome, profile);
        let full = pipeline(&genome, BackendKind::Software, condition, None);
        let pre = pipeline(&genome, BackendKind::Software, condition, Some(prefilter));
        let index = pre.prefilter().expect("prefilter armed").clone();
        let full_records = full.map_batch(&reads);
        let pre_records = pre.map_batch(&reads);
        for (read, (f, p)) in reads.iter().zip(full_records.iter().zip(&pre_records)) {
            // Never hallucinate: shortlisting can only remove candidates.
            for pos in &p.positions {
                assert!(
                    f.positions.contains(pos),
                    "condition {condition}: prefilter invented position {pos}"
                );
            }
            // Never lose a supported mapping.
            let packed = PackedSeq::from_seq(read);
            for pos in &f.positions {
                if index.support(&packed, *pos) >= index.config().min_seed_hits {
                    assert!(
                        p.positions.contains(pos),
                        "condition {condition}: lost supported offset {pos} \
                         (support {})",
                        index.support(&packed, *pos)
                    );
                }
            }
        }
    }
}

/// The noisy backends keep every clear-margin mapping: reads planted with
/// condition-A/B errors whose noiseless ED* sits well inside the threshold
/// must still map at their origin with the prefilter on, and foreign
/// decoys must stay unmapped.
#[test]
fn noisy_backends_keep_clear_margin_reads_with_prefilter_on() {
    let genome = GenomeModel::uniform().generate(16_384, 68);
    for condition in ["A", "B"] {
        let (profile, threshold) = profile_for(condition);
        let sampler = ReadSampler::new(WIDTH, profile);
        // Keep planted reads whose noiseless ED* distance to their origin
        // segment leaves ≥3 of margin under the threshold: sensing noise
        // cannot flip those, so the assertion is deterministic in spirit
        // and reproducible in fact (fixed seeds).
        let planted: Vec<(usize, DnaSeq)> = sampler
            .sample_many(&genome, 24, 101)
            .into_iter()
            .filter(|r| {
                let segment = genome.window(r.origin..r.origin + WIDTH);
                asmcap_metrics::ed_star(segment.as_slice(), r.bases.as_slice()) + 3 <= threshold
            })
            .map(|r| (r.origin, r.bases))
            .collect();
        assert!(
            planted.len() >= 8,
            "condition {condition}: margin filter left too few reads"
        );
        let decoys: Vec<DnaSeq> = {
            let foreign = GenomeModel::uniform().generate(4 * WIDTH, 912);
            (0..4)
                .map(|i| foreign.window(i * WIDTH..(i + 1) * WIDTH))
                .collect()
        };
        for kind in [BackendKind::Device, BackendKind::Pair] {
            let pre = pipeline(&genome, kind, condition, Some(PrefilterConfig::default()));
            let reads: Vec<DnaSeq> = planted
                .iter()
                .map(|(_, r)| r.clone())
                .chain(decoys.iter().cloned())
                .collect();
            let records = pre.map_batch(&reads);
            for ((origin, _), record) in planted.iter().zip(&records) {
                assert_eq!(
                    record.status,
                    MapStatus::Mapped,
                    "{kind:?}/condition {condition}: lost planted read at {origin}"
                );
                assert!(
                    record.positions.contains(origin),
                    "{kind:?}/condition {condition}: origin {origin} missing from {:?}",
                    record.positions
                );
            }
            for record in &records[planted.len()..] {
                assert_eq!(
                    record.status,
                    MapStatus::Unmapped,
                    "{kind:?}/condition {condition}: decoy mapped at {:?}",
                    record.positions
                );
            }
        }
    }
}

/// The escape hatch is explicit: with the fallback disabled and an
/// unreachable seed floor, nothing is scanned and every read comes back
/// unmapped; with the fallback enabled the same configuration degenerates
/// to the full scan and loses nothing.
#[test]
fn fallback_escape_hatch_is_explicit() {
    let genome = GenomeModel::uniform().generate(8_192, 77);
    let read = genome.window(3_000..3_000 + WIDTH);
    let unreachable = PrefilterConfig {
        min_seed_hits: 1_000_000,
        ..PrefilterConfig::default()
    };
    let closed = pipeline(
        &genome,
        BackendKind::Software,
        "A",
        Some(PrefilterConfig {
            full_scan_fallback: false,
            ..unreachable
        }),
    );
    let record = closed.map(&read);
    assert_eq!(record.status, MapStatus::Unmapped, "hatch closed: no scan");

    let open = pipeline(&genome, BackendKind::Software, "A", Some(unreachable));
    let record = open.map(&read);
    assert_eq!(record.status, MapStatus::Mapped, "hatch open: full scan");
    assert!(record.positions.contains(&3_000));
}

/// Statistical recall at condition A (the CI `--ignored` job runs this in
/// release): among planted-mutation reads the full scan maps at their true
/// origin, the default prefilter configuration must keep ≥ 99%.
#[test]
#[ignore = "statistical recall sweep; run via cargo test --release -- --ignored"]
fn planted_mutation_recall_at_condition_a_is_high() {
    let genome = GenomeModel::uniform().generate(131_072, 424_242);
    let sampler = ReadSampler::new(WIDTH, ErrorProfile::condition_a());
    let reads: Vec<(usize, DnaSeq)> = sampler
        .sample_many(&genome, 400, 7_331)
        .into_iter()
        .map(|r| (r.origin, r.bases))
        .collect();
    let full = pipeline(&genome, BackendKind::Software, "A", None);
    let pre = pipeline(
        &genome,
        BackendKind::Software,
        "A",
        Some(PrefilterConfig::default()),
    );
    let bases: Vec<DnaSeq> = reads.iter().map(|(_, r)| r.clone()).collect();
    let full_records = full.map_batch(&bases);
    let pre_records = pre.map_batch(&bases);
    let mut eligible = 0usize;
    let mut kept = 0usize;
    for ((origin, _), (f, p)) in reads.iter().zip(full_records.iter().zip(&pre_records)) {
        if f.positions.contains(origin) {
            eligible += 1;
            if p.positions.contains(origin) {
                kept += 1;
            }
        }
    }
    assert!(eligible >= 300, "workload too easy: {eligible} eligible");
    let recall = kept as f64 / eligible as f64;
    assert!(
        recall >= 0.99,
        "prefilter recall {recall:.4} below 0.99 ({kept}/{eligible})"
    );
}
