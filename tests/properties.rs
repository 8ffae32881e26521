//! Cross-crate property tests: invariants that must hold across the whole
//! stack, from random inputs.

use asmcap::{AsmMatcher, AsmcapEngine, ExactEdMatcher, NoiselessEdStarMatcher};
use asmcap_arch::{CamArray, MatchMode};
use asmcap_genome::{Base, DnaSeq, ErrorProfile};
use proptest::prelude::*;

fn arbitrary_seq(len: std::ops::Range<usize>) -> impl Strategy<Value = DnaSeq> {
    proptest::collection::vec(0u8..4, len)
        .prop_map(|codes| codes.into_iter().map(Base::from_code).collect())
}

fn equal_length_pair(max_len: usize) -> impl Strategy<Value = (DnaSeq, DnaSeq)> {
    proptest::collection::vec((0u8..4, 0u8..4), 8..max_len).prop_map(|pairs| {
        (
            pairs.iter().map(|&(a, _)| Base::from_code(a)).collect(),
            pairs.iter().map(|&(_, b)| Base::from_code(b)).collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The CAM array's mismatch counts are bit-exact with the metrics
    /// crate, in both MUX modes, for arbitrary stored/read pairs.
    #[test]
    fn array_counts_equal_metrics((stored, read) in equal_length_pair(120)) {
        let mut array = CamArray::asmcap(1, stored.len());
        array.store_row(stored.as_slice()).unwrap();
        prop_assert_eq!(
            array.row_mismatches(0, read.as_slice(), MatchMode::EdStar),
            asmcap_metrics::ed_star(stored.as_slice(), read.as_slice())
        );
        prop_assert_eq!(
            array.row_mismatches(0, read.as_slice(), MatchMode::Hamming),
            asmcap_metrics::hamming(stored.as_slice(), read.as_slice())
        );
    }

    /// Engine cycle accounting: cycles = 1 + HD search + rotations, always.
    #[test]
    fn engine_cycles_decompose(
        (segment, read) in equal_length_pair(120),
        t in 0usize..16,
        seed in 0u64..100
    ) {
        let mut engine = AsmcapEngine::paper(ErrorProfile::condition_a(), seed);
        let outcome = engine.matches(segment.as_slice(), read.as_slice(), t);
        prop_assert_eq!(
            u64::from(outcome.cycles),
            1 + u64::from(outcome.used_hd) + u64::from(outcome.rotations)
        );
        let mut engine_b = AsmcapEngine::paper(ErrorProfile::condition_b(), seed);
        let outcome = engine_b.matches(segment.as_slice(), read.as_slice(), t);
        prop_assert_eq!(
            u64::from(outcome.cycles),
            1 + u64::from(outcome.used_hd) + u64::from(outcome.rotations)
        );
    }

    /// The noiseless ED* matcher is monotone in the threshold: once a pair
    /// matches at T it matches at every T' >= T.
    #[test]
    fn noiseless_decisions_monotone_in_threshold((segment, read) in equal_length_pair(100)) {
        let mut matcher = NoiselessEdStarMatcher::new();
        let mut previous = false;
        for t in 0..segment.len() {
            let matched = matcher.matches(segment.as_slice(), read.as_slice(), t).matched;
            prop_assert!(!previous || matched, "match lost when raising T to {t}");
            previous = matched;
        }
        // At T = len the pair always matches (ED* <= len).
        prop_assert!(matcher.matches(segment.as_slice(), read.as_slice(), segment.len()).matched);
    }

    /// The exact-ED oracle agrees with the ReSMA wavefront and the CM-CPU
    /// banded DP on every pair and threshold.
    #[test]
    fn exact_matchers_agree((segment, read) in equal_length_pair(80), t in 0usize..12) {
        let mut oracle = ExactEdMatcher::new();
        let mut resma = asmcap_baselines::ResmaAccelerator::with_filter_k(4);
        let mut cpu = asmcap_baselines::CmCpuAligner::new();
        let expected = oracle.matches(segment.as_slice(), read.as_slice(), t).matched;
        prop_assert_eq!(
            cpu.matches(segment.as_slice(), read.as_slice(), t).matched,
            expected
        );
        // ReSMA's wavefront is exact whenever the filter passes; with a
        // 4-base filter at these lengths a filter miss implies a large
        // distance, so disagreement is only allowed in the no-match
        // direction.
        let resma_says = resma.matches(segment.as_slice(), read.as_slice(), t).matched;
        if resma_says != expected {
            prop_assert!(!resma_says, "ReSMA may only under-match via its filter");
            prop_assert!(
                !resma.filter_passes(segment.as_slice(), read.as_slice(), t),
                "wavefront disagreed with the oracle despite a filter hit"
            );
        }
    }

    /// Every matcher's packed entry point makes the same decision as its
    /// slice path: the baselines' overrides (SaVI's packed seed votes,
    /// ReSMA's packed filter, CM-CPU's packed banded DP, Kraken's word
    /// compare) and the reference matchers' overrides are all pure
    /// representation changes.
    #[test]
    fn packed_matcher_overrides_agree_with_slice_paths(
        (segment, read) in equal_length_pair(200),
        t in 0usize..10
    ) {
        let ps = asmcap_genome::PackedSeq::from_seq(&segment);
        let pr = asmcap_genome::PackedSeq::from_seq(&read);
        let mut matchers: Vec<Box<dyn AsmMatcher>> = vec![
            Box::new(ExactEdMatcher::new()),
            Box::new(NoiselessEdStarMatcher::new()),
            Box::new(asmcap_baselines::CmCpuAligner::new()),
            Box::new(asmcap_baselines::ResmaAccelerator::with_filter_k(4)),
            Box::new(asmcap_baselines::SaviAccelerator::with_seed_len(8)),
            Box::new(asmcap_baselines::KrakenClassifier::new(
                asmcap_baselines::KrakenMode::Exact,
            )),
        ];
        for matcher in &mut matchers {
            prop_assert_eq!(
                matcher.matches(segment.as_slice(), read.as_slice(), t),
                matcher.matches_packed(&ps, &pr, t),
                "{} diverged between slice and packed paths",
                matcher.name()
            );
        }
    }

    /// ED* is invariant under the engine's own rotation round-trip: rotating
    /// a read right then left restores the original decision inputs.
    #[test]
    fn rotation_round_trip(read in arbitrary_seq(8..100), amount in 1usize..5) {
        let rotated = read.rotated_right(amount).rotated_left(amount);
        prop_assert_eq!(rotated, read);
    }

    /// The word-parallel kernels equal the scalar walks on arbitrary pairs,
    /// at every length 1..=256 the generator produces — including the
    /// non-word-aligned ones — and the SIMD-dispatched lane kernels equal
    /// the retained single-word scalar kernels, so lane dispatch (AVX2 on
    /// or off) can never change a distance.
    #[test]
    fn packed_kernels_equal_scalar_metrics((stored, read) in equal_length_pair(256)) {
        let ps = asmcap_genome::PackedSeq::from_seq(&stored);
        let pr = asmcap_genome::PackedSeq::from_seq(&read);
        let star = asmcap_metrics::ed_star(stored.as_slice(), read.as_slice());
        let hd = asmcap_metrics::hamming(stored.as_slice(), read.as_slice());
        prop_assert_eq!(asmcap_metrics::ed_star_packed(&ps, &pr), star);
        prop_assert_eq!(asmcap_metrics::ed_star_packed_scalar(&ps, &pr), star);
        prop_assert_eq!(asmcap_metrics::hamming_packed(&ps, &pr), hd);
        prop_assert_eq!(asmcap_metrics::hamming_packed_scalar(&ps, &pr), hd);
        prop_assert_eq!(asmcap_metrics::ed_star_hamming_packed(&ps, &pr), (star, hd));
        prop_assert_eq!(
            asmcap_metrics::ed_star_hamming_packed_scalar(&ps, &pr),
            (star, hd)
        );
    }

    /// A zero-copy segment view at any offset — word-aligned or straddling
    /// word boundaries — feeds the kernels the same bases the reference
    /// slice holds, through both the dispatched lane kernels and the
    /// retained scalar kernels (widths up to 256 cover the vector-block
    /// boundary at 128 bases).
    #[test]
    fn segment_views_equal_reference_slices(
        reference in arbitrary_seq(260..600),
        read in arbitrary_seq(1..257),
        offset_frac in 0.0f64..1.0
    ) {
        let width = read.len();
        let offset = (((reference.len() - width) as f64) * offset_frac) as usize;
        let packed_ref = asmcap_genome::PackedRef::new(&reference);
        let view = packed_ref.segment(offset, width);
        let slice = &reference.as_slice()[offset..offset + width];
        let packed_read = asmcap_genome::PackedSeq::from_seq(&read);
        let star = asmcap_metrics::ed_star(slice, read.as_slice());
        let hd = asmcap_metrics::hamming(slice, read.as_slice());
        prop_assert_eq!(asmcap_metrics::ed_star_packed(&view, &packed_read), star);
        prop_assert_eq!(asmcap_metrics::ed_star_packed_scalar(&view, &packed_read), star);
        prop_assert_eq!(asmcap_metrics::hamming_packed(&view, &packed_read), hd);
        prop_assert_eq!(asmcap_metrics::hamming_packed_scalar(&view, &packed_read), hd);
        prop_assert_eq!(
            asmcap_metrics::ed_star_hamming_packed(&view, &packed_read),
            (star, hd)
        );
    }

    /// The single-cell functional model (`AsmcapCell` + `SlDriver`, paper
    /// Fig. 4b/4c) and the word-parallel kernels are the same comparison
    /// logic at different granularities: walking the searchline windows
    /// cell-by-cell must count exactly the mismatches the packed kernels
    /// report, in both MUX modes.
    #[test]
    fn cell_model_agrees_with_packed_kernels((stored, read) in equal_length_pair(150)) {
        let driver = asmcap_arch::SlDriver::latch(read.as_slice());
        let cells: Vec<asmcap_arch::AsmcapCell> = stored
            .iter()
            .map(asmcap_arch::AsmcapCell::new)
            .collect();
        let count = |mode: MatchMode| {
            cells
                .iter()
                .zip(driver.windows())
                .filter(|(cell, (left, centre, right))| {
                    !cell.output(cell.compare(*left, *centre, *right), mode)
                })
                .count()
        };
        let ps = asmcap_genome::PackedSeq::from_seq(&stored);
        let pr = asmcap_genome::PackedSeq::from_seq(&read);
        prop_assert_eq!(count(MatchMode::EdStar), asmcap_metrics::ed_star_packed(&ps, &pr));
        prop_assert_eq!(count(MatchMode::Hamming), asmcap_metrics::hamming_packed(&ps, &pr));
    }

    /// The engine makes the same noisy decision whether it is handed slices
    /// or packed operands: the packed path preserves the RNG draw order.
    #[test]
    fn engine_packed_path_preserves_decisions(
        (segment, read) in equal_length_pair(150),
        t in 0usize..12,
        seed in 0u64..50
    ) {
        let mut scalar = AsmcapEngine::paper(ErrorProfile::condition_b(), seed);
        let mut packed = AsmcapEngine::paper(ErrorProfile::condition_b(), seed);
        prop_assert_eq!(
            scalar.matches(segment.as_slice(), read.as_slice(), t),
            packed.matches_packed(
                &asmcap_genome::PackedSeq::from_seq(&segment),
                &asmcap_genome::PackedSeq::from_seq(&read),
                t
            )
        );
    }

    /// Packed k-mer extraction is a pure representation change: rolling the
    /// codes straight out of the 2-bit words yields exactly the scalar
    /// `kmers()` walk — every position, every code, every length 1..=200.
    #[test]
    fn packed_kmer_extraction_equals_scalar_walk(
        seq in arbitrary_seq(1..200),
        k in 1usize..=32
    ) {
        use asmcap_genome::kmer::{kmers, packed_kmers};
        let packed = asmcap_genome::PackedSeq::from_seq(&seq);
        let scalar: Vec<(usize, u64)> = kmers(seq.as_slice(), k).collect();
        let rolled: Vec<(usize, u64)> = packed_kmers(&packed, k).collect();
        prop_assert_eq!(&rolled, &scalar);
        // And the indexes built from each agree on every lookup shape.
        let a = asmcap_genome::KmerIndex::build(seq.as_slice(), k).unwrap();
        let b = asmcap_genome::KmerIndex::build_packed(&packed, k).unwrap();
        prop_assert_eq!(a.len(), b.len());
        prop_assert_eq!(a.distinct(), b.distinct());
        for &(pos, code) in &scalar {
            prop_assert!(b.positions_of_code(code).any(|p| p == pos));
        }
    }

    /// Packed k-mer extraction over zero-copy segment views: a view at any
    /// offset — word-aligned or straddling word boundaries — rolls the same
    /// k-mers as the unpacked reference window.
    #[test]
    fn packed_kmers_over_views_equal_window_walk(
        reference in arbitrary_seq(40..300),
        k in 1usize..=16,
        offset_frac in 0.0f64..1.0,
        width_frac in 0.0f64..1.0
    ) {
        use asmcap_genome::kmer::{kmers, packed_kmers};
        let offset = ((reference.len() as f64) * offset_frac) as usize;
        let width = 1 + (((reference.len() - offset - 1) as f64) * width_frac) as usize;
        let packed_ref = asmcap_genome::PackedRef::new(&reference);
        let view = packed_ref.segment(offset, width);
        let window = reference.window(offset..offset + width);
        let from_view: Vec<(usize, u64)> = packed_kmers(&view, k).collect();
        let from_window: Vec<(usize, u64)> = kmers(window.as_slice(), k).collect();
        prop_assert_eq!(from_view, from_window, "segment({}, {})", offset, width);
    }

    /// The banded bit-vector alignment over zero-copy segment views — at
    /// any offset, word-aligned or straddling word boundaries — scores
    /// exactly like the scalar DP over the unpacked window, and the CIGAR
    /// it traces back replays against the view at exactly that score.
    #[test]
    fn packed_alignment_over_views_equals_scalar_dp(
        reference in arbitrary_seq(140..400),
        read in arbitrary_seq(1..129),
        offset_frac in 0.0f64..1.0,
        limit in 0usize..20
    ) {
        let width = read.len();
        let offset = (((reference.len() - width) as f64) * offset_frac) as usize;
        let packed_ref = asmcap_genome::PackedRef::new(&reference);
        let view = packed_ref.segment(offset, width);
        let window = reference.window(offset..offset + width);
        let packed_read = asmcap_genome::PackedSeq::from_seq(&read);
        let (distance, _) = asmcap_metrics::align_bases(read.as_slice(), window.as_slice());
        match asmcap_metrics::align_packed(&packed_read, &view, limit) {
            Some((score, cigar)) => {
                prop_assert_eq!(score, distance, "segment({}, {})", offset, width);
                prop_assert_eq!(cigar.check_replay(&packed_read, &view), Some(score));
            }
            None => prop_assert!(distance > limit, "segment({}, {})", offset, width),
        }
    }

    /// Device search finds an exact stored row at T=1 regardless of where
    /// it lands across arrays. (T=0 is a knife-edge by design: the V_ref
    /// boundary sits only ~3.3σ of SA offset above a perfect row, so a
    /// ~4e-4 miss rate is *expected* there — searching at T ≥ 1 restores a
    /// 10σ margin.)
    #[test]
    fn device_always_finds_exact_rows(seed in 0u64..50, row in 0usize..24) {
        let width = 32usize;
        let genome = asmcap_genome::GenomeModel::uniform().generate(24 * width, seed);
        let mut device = asmcap_arch::DeviceBuilder::new()
            .arrays(3)
            .rows_per_array(8)
            .row_width(width)
            .build_asmcap();
        device.store_reference(&genome, width).unwrap();
        let mut rng = asmcap_circuit::rng(seed ^ 0xF00D);
        let read = asmcap_genome::PackedSeq::from_seq(&genome.window(row * width..(row + 1) * width));
        let result = device.search(&read, 1, MatchMode::EdStar, None, &mut rng, None);
        prop_assert!(
            result.matches.iter().any(|m| m.origin == row * width && m.n_mis == 0),
            "row {row} not found"
        );
    }
}
