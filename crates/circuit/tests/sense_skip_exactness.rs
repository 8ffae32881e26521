//! The far-row sense skip is exact: a decision [`SenseAmp::certain`]
//! settles, and the stream it leaves behind, equal drawing the measurement
//! every time.
//!
//! The oracle calls [`MlCam::measure`] directly, never `SenseAmp::decide`
//! (which skips). Cases span row widths, mismatch counts on and off the
//! threshold, both `V_ref` policies, drift offsets of either sign, and the
//! charge-domain model at the paper corner, at drooped supplies, and
//! noiseless.

use asmcap_circuit::corners::charge_cam_at;
use asmcap_circuit::{rng, AsmcapParams, ChargeDomainCam, MlCam, Rng, SenseAmp, VrefPolicy};
use rand::{Rng as _, RngCore};

fn cams() -> Vec<ChargeDomainCam> {
    let mut noiseless = AsmcapParams::paper();
    noiseless.sa_offset_states = 0.0;
    noiseless.cap_sigma_rel = 0.0;
    let mut cams = vec![ChargeDomainCam::paper(), ChargeDomainCam::new(noiseless)];
    cams.extend([1.2, 1.1, 1.0, 0.9].map(charge_cam_at));
    cams
}

fn next_words(rng: &mut Rng) -> [u32; 8] {
    std::array::from_fn(|_| rng.next_u32())
}

/// Checks `cases` random cases; returns how many the skip settled and how
/// many drew.
fn check_against_oracle(cases: usize, seed: u64) -> (usize, usize) {
    let cams = cams();
    let mut pick = rng(seed);
    let (mut settled, mut drawn) = (0, 0);
    for case in 0..cases {
        let cam = cams[pick.gen_range(0..cams.len())].clone();
        let policy = if pick.gen_bool(0.5) {
            VrefPolicy::Centered
        } else {
            VrefPolicy::Exact
        };
        let width = [32usize, 64, 128, 256][pick.gen_range(0..4)];
        let n_mis = pick.gen_range(0..=width);
        // Half the thresholds sit next to the count, where the draw matters.
        let threshold = if pick.gen_bool(0.5) {
            (n_mis + pick.gen_range(0..5)).saturating_sub(2)
        } else {
            pick.gen_range(0..=width)
        };
        let offset = match pick.gen_range(0..4) {
            0 => 0.0,
            1 => pick.gen_range(-1.5..1.5),
            2 => [-0.5, 0.5, -1.0, 1.0][pick.gen_range(0..4)],
            _ => pick.gen_range(-0.3..0.3),
        };
        let sense = SenseAmp::new(cam.clone(), policy);
        let mut skipping = rng(pick.next_u64());
        for _ in 0..pick.gen_range(0..40) {
            skipping.next_u32();
        }
        let mut oracle = skipping.clone();

        let boundary = policy.boundary_states(threshold);
        let expected = cam.measure(n_mis, width, &mut oracle) + offset <= boundary;
        let certain = sense.certain(n_mis, width, threshold, offset);
        let decided = sense.decide_with_offset(n_mis, width, threshold, offset, &mut skipping);
        let context = format!(
            "case {case}: cam {:?} policy {policy:?} width {width} n_mis {n_mis} \
             T {threshold} offset {offset}",
            cam.params()
        );
        assert_eq!(decided, expected, "{context}");
        if let Some(certain) = certain {
            assert_eq!(certain, expected, "{context}");
            settled += 1;
        } else {
            drawn += 1;
        }
        assert_eq!(
            next_words(&mut skipping),
            next_words(&mut oracle),
            "{context}"
        );
    }
    (settled, drawn)
}

#[test]
fn skipped_decisions_equal_an_always_drawing_oracle() {
    let (settled, drawn) = check_against_oracle(2_000, 1);
    // Both branches must be exercised for the comparison to mean anything.
    assert!(
        settled > 1_000,
        "only {settled} cases settled without a draw"
    );
    assert!(drawn > 50, "only {drawn} cases drew");
}

#[test]
#[ignore = "slow statistical suite: run with --release -- --ignored"]
fn skipped_decisions_equal_an_always_drawing_oracle_at_scale() {
    let (settled, drawn) = check_against_oracle(200_000, 2);
    assert!(
        settled > 100_000 && drawn > 5_000,
        "{settled} settled, {drawn} drawn"
    );
}

#[test]
fn noiseless_certain_decision_is_the_drawn_expression() {
    let mut params = AsmcapParams::paper();
    params.sa_offset_states = 0.0;
    params.cap_sigma_rel = 0.0;
    let sense = SenseAmp::new(ChargeDomainCam::new(params), VrefPolicy::Exact);
    // At σ = 0 a row on the reference is certain, and decides as drawn:
    // `mean + offset <= boundary`, ties matching.
    assert_eq!(sense.certain(4, 64, 4, 0.0), Some(true));
    assert_eq!(sense.certain(4, 64, 4, 1e-12), Some(false));
    assert_eq!(sense.certain(5, 64, 4, -1.0), Some(true));
}

#[test]
fn current_domain_always_draws() {
    let sense = SenseAmp::new(
        asmcap_circuit::CurrentDomainCam::paper(),
        VrefPolicy::Centered,
    );
    for n_mis in [0usize, 8, 200] {
        assert_eq!(sense.certain(n_mis, 256, 8, 0.0), None);
    }
}
