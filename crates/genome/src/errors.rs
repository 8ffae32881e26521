//! Sequencing-error model: substitutions, insertions, and deletions.
//!
//! The paper evaluates two mixed error profiles on 256-base reads (§V-A):
//!
//! * **Condition A** — substitution-dominant: `e_s = 1%`, `e_i = e_d = 0.05%`;
//! * **Condition B** — indel-dominant: `e_s = 0.1%`, `e_i = e_d = 0.5%`.
//!
//! Both are available as constructors on [`ErrorProfile`]. The injector
//! produces an explicit [`EditLog`] (an alignment script), so tests can
//! verify that replaying the log against the reference reproduces the read
//! exactly.

use crate::base::{Base, BASES};
use crate::seq::DnaSeq;
use crate::Rng;
use rand::Rng as _;
use std::fmt;

/// Per-base error rates for read generation.
///
/// # Examples
///
/// ```
/// use asmcap_genome::ErrorProfile;
/// let a = ErrorProfile::condition_a();
/// assert_eq!(a.substitution, 0.01);
/// assert_eq!(a.indel_rate(), 0.001);
/// let b = ErrorProfile::condition_b();
/// assert!(b.indel_rate() > b.substitution);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorProfile {
    /// Substitution rate `e_s` per emitted base.
    pub substitution: f64,
    /// Insertion rate `e_i` per emitted base.
    pub insertion: f64,
    /// Deletion rate `e_d` per emitted base.
    pub deletion: f64,
}

impl ErrorProfile {
    /// Builds a profile from the three rates.
    ///
    /// # Panics
    ///
    /// Panics if any rate is negative or the rates sum to 1 or more.
    #[must_use]
    pub fn new(substitution: f64, insertion: f64, deletion: f64) -> Self {
        assert!(
            substitution >= 0.0 && insertion >= 0.0 && deletion >= 0.0,
            "error rates must be non-negative"
        );
        assert!(
            substitution + insertion + deletion < 1.0,
            "error rates must sum to less than 1"
        );
        Self {
            substitution,
            insertion,
            deletion,
        }
    }

    /// The paper's Condition A: `e_s = 1%`, `e_i = e_d = 0.05%`.
    #[must_use]
    pub fn condition_a() -> Self {
        Self::new(0.01, 0.0005, 0.0005)
    }

    /// The paper's Condition B: `e_s = 0.1%`, `e_i = e_d = 0.5%`.
    #[must_use]
    pub fn condition_b() -> Self {
        Self::new(0.001, 0.005, 0.005)
    }

    /// An error-free profile; reads are exact copies of the reference.
    #[must_use]
    pub fn error_free() -> Self {
        Self::new(0.0, 0.0, 0.0)
    }

    /// Combined indel rate `e_id = e_i + e_d`, the quantity the HDAC and
    /// TASR strategies are parameterised on.
    #[must_use]
    pub fn indel_rate(&self) -> f64 {
        self.insertion + self.deletion
    }

    /// Total per-base edit rate.
    #[must_use]
    pub fn total_rate(&self) -> f64 {
        self.substitution + self.insertion + self.deletion
    }
}

impl Default for ErrorProfile {
    fn default() -> Self {
        Self::error_free()
    }
}

impl fmt::Display for ErrorProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "es={:.4}% ei={:.4}% ed={:.4}%",
            self.substitution * 100.0,
            self.insertion * 100.0,
            self.deletion * 100.0
        )
    }
}

/// The kind of a single edit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EditKind {
    /// A base emitted differently from the reference.
    Substitution,
    /// A base emitted without consuming a reference base.
    Insertion,
    /// A reference base skipped without emitting.
    Deletion,
}

/// One operation in the alignment script relating a read to its reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditOp {
    /// Emit the reference base unchanged.
    Match,
    /// Emit `0` in place of the consumed reference base.
    Substitute(Base),
    /// Emit `0` without consuming a reference base.
    Insert(Base),
    /// Consume a reference base without emitting.
    Delete,
}

/// The ordered alignment script produced by error injection.
///
/// Replaying the log against the consumed reference window reproduces the
/// read exactly ([`EditLog::apply`]), which pins down the injector's
/// semantics in tests.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EditLog {
    ops: Vec<EditOp>,
}

impl EditLog {
    /// Creates an empty log (an error-free read).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Borrows the ordered operations.
    #[must_use]
    pub fn ops(&self) -> &[EditOp] {
        &self.ops
    }

    /// Appends an operation.
    pub fn push(&mut self, op: EditOp) {
        self.ops.push(op);
    }

    /// Number of substitutions.
    #[must_use]
    pub fn substitutions(&self) -> usize {
        self.count(|op| matches!(op, EditOp::Substitute(_)))
    }

    /// Number of insertions.
    #[must_use]
    pub fn insertions(&self) -> usize {
        self.count(|op| matches!(op, EditOp::Insert(_)))
    }

    /// Number of deletions.
    #[must_use]
    pub fn deletions(&self) -> usize {
        self.count(|op| matches!(op, EditOp::Delete))
    }

    /// Total number of edits (everything except matches).
    #[must_use]
    pub fn total(&self) -> usize {
        self.count(|op| !matches!(op, EditOp::Match))
    }

    /// Number of reference bases this script consumes.
    #[must_use]
    pub fn reference_span(&self) -> usize {
        self.count(|op| !matches!(op, EditOp::Insert(_)))
    }

    /// Number of read bases this script emits.
    #[must_use]
    pub fn read_len(&self) -> usize {
        self.count(|op| !matches!(op, EditOp::Delete))
    }

    /// Replays the script against `reference`, returning the read it encodes.
    ///
    /// # Panics
    ///
    /// Panics if `reference` is shorter than [`EditLog::reference_span`].
    #[must_use]
    pub fn apply(&self, reference: &[Base]) -> DnaSeq {
        let mut read = DnaSeq::with_capacity(self.read_len());
        let mut cursor = 0usize;
        for op in &self.ops {
            match op {
                EditOp::Match => {
                    read.push(reference[cursor]);
                    cursor += 1;
                }
                EditOp::Substitute(base) => {
                    read.push(*base);
                    cursor += 1;
                }
                EditOp::Insert(base) => read.push(*base),
                EditOp::Delete => cursor += 1,
            }
        }
        read
    }

    fn count(&self, pred: impl Fn(&EditOp) -> bool) -> usize {
        self.ops.iter().filter(|op| pred(op)).count()
    }
}

impl fmt::Display for EditLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} subs, {} ins, {} del",
            self.substitutions(),
            self.insertions(),
            self.deletions()
        )
    }
}

/// How errors are distributed along a read.
///
/// The paper's datasets inject edits "randomly" (i.i.d. per base), but its
/// TASR strategy (§IV-B) specifically targets **consecutive** indels, which
/// real sequencers produce in homopolymer runs. [`ErrorModel::Bursty`]
/// stretches each indel event into a geometrically distributed run while
/// keeping the *expected number of edited bases* equal to the i.i.d. model,
/// so accuracy results remain comparable across burstiness levels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorModel {
    /// Independent per-base events (the paper's dataset construction).
    Iid(ErrorProfile),
    /// Indel events extend into runs with the given mean length (≥ 1);
    /// event rates are divided by the mean so the per-base indel rate is
    /// unchanged. Substitutions stay i.i.d.
    Bursty {
        /// Per-base error rates, interpreted as in the i.i.d. model.
        profile: ErrorProfile,
        /// Mean indel-run length; `1.0` degenerates to i.i.d.
        mean_burst_len: f64,
    },
}

impl ErrorModel {
    /// The underlying per-base error profile.
    #[must_use]
    pub fn profile(&self) -> &ErrorProfile {
        match self {
            ErrorModel::Iid(profile) | ErrorModel::Bursty { profile, .. } => profile,
        }
    }

    /// Generates a read of exactly `len` bases starting at
    /// `reference[start]` under this model.
    ///
    /// # Panics
    ///
    /// Panics if the reference window is too short (see [`inject_errors`])
    /// or a bursty model has `mean_burst_len < 1`.
    #[must_use]
    pub fn inject(
        &self,
        reference: &[Base],
        start: usize,
        len: usize,
        rng: &mut Rng,
    ) -> (DnaSeq, EditLog) {
        match *self {
            ErrorModel::Iid(ref profile) => inject_errors(reference, start, len, profile, rng),
            ErrorModel::Bursty {
                ref profile,
                mean_burst_len,
            } => inject_errors_bursty(reference, start, len, profile, mean_burst_len, rng),
        }
    }
}

/// Like [`inject_errors`] but indel events extend into geometric runs of
/// mean length `mean_burst_len`; event rates are scaled down by the mean so
/// the expected indel bases per read are unchanged.
///
/// # Panics
///
/// Panics if `mean_burst_len < 1` or the reference window is too short.
#[must_use]
pub fn inject_errors_bursty(
    reference: &[Base],
    start: usize,
    len: usize,
    profile: &ErrorProfile,
    mean_burst_len: f64,
    rng: &mut Rng,
) -> (DnaSeq, EditLog) {
    assert!(
        mean_burst_len >= 1.0,
        "mean burst length must be at least 1"
    );
    let continue_p = 1.0 - 1.0 / mean_burst_len;
    let ins_event = profile.insertion / mean_burst_len;
    let del_event = profile.deletion / mean_burst_len;
    let mut log = EditLog::new();
    let mut read = DnaSeq::with_capacity(len);
    let mut cursor = start;
    while read.len() < len {
        let u: f64 = rng.gen();
        if u < ins_event {
            // Insertion burst: at least one inserted base, geometric tail.
            loop {
                let base = BASES[rng.gen_range(0..4)];
                log.push(EditOp::Insert(base));
                read.push(base);
                if read.len() >= len || rng.gen::<f64>() >= continue_p {
                    break;
                }
            }
        } else if u < ins_event + del_event {
            loop {
                assert!(
                    cursor < reference.len(),
                    "reference exhausted at {cursor} while injecting errors"
                );
                log.push(EditOp::Delete);
                cursor += 1;
                if rng.gen::<f64>() >= continue_p {
                    break;
                }
            }
        } else {
            assert!(
                cursor < reference.len(),
                "reference exhausted at {cursor} while injecting errors"
            );
            let original = reference[cursor];
            cursor += 1;
            if rng.gen::<f64>() < profile.substitution {
                let substituted = original.substituted(rng.gen_range(0..3));
                log.push(EditOp::Substitute(substituted));
                read.push(substituted);
            } else {
                log.push(EditOp::Match);
                read.push(original);
            }
        }
    }
    (read, log)
}

/// Generates a read of exactly `len` bases starting at `reference[start]`,
/// injecting errors according to `profile`, and returns the read together
/// with its [`EditLog`].
///
/// At each emitted position the injector draws one event: insertion with
/// probability `e_i`, deletion with probability `e_d` (retrying the
/// emission), otherwise a reference copy that is substituted with
/// probability `e_s`. Substituted bases are always different from the
/// original, per the paper's definition of an edit.
///
/// # Panics
///
/// Panics if the reference window starting at `start` is too short to supply
/// `len` bases after deletions. Callers should leave headroom of a few bases
/// beyond `start + len` (see [`crate::reads::ReadSampler`]).
#[must_use]
pub fn inject_errors(
    reference: &[Base],
    start: usize,
    len: usize,
    profile: &ErrorProfile,
    rng: &mut Rng,
) -> (DnaSeq, EditLog) {
    let mut log = EditLog::new();
    let mut read = DnaSeq::with_capacity(len);
    let mut cursor = start;
    while read.len() < len {
        let u: f64 = rng.gen();
        if u < profile.insertion {
            let base = BASES[rng.gen_range(0..4)];
            log.push(EditOp::Insert(base));
            read.push(base);
        } else if u < profile.insertion + profile.deletion {
            assert!(
                cursor < reference.len(),
                "reference exhausted at {cursor} while injecting errors"
            );
            log.push(EditOp::Delete);
            cursor += 1;
        } else {
            assert!(
                cursor < reference.len(),
                "reference exhausted at {cursor} while injecting errors"
            );
            let original = reference[cursor];
            cursor += 1;
            if rng.gen::<f64>() < profile.substitution {
                let substituted = original.substituted(rng.gen_range(0..3));
                log.push(EditOp::Substitute(substituted));
                read.push(substituted);
            } else {
                log.push(EditOp::Match);
                read.push(original);
            }
        }
    }
    (read, log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::GenomeModel;
    use proptest::prelude::*;

    #[test]
    fn condition_constants_match_paper() {
        let a = ErrorProfile::condition_a();
        assert_eq!(
            (a.substitution, a.insertion, a.deletion),
            (0.01, 0.0005, 0.0005)
        );
        let b = ErrorProfile::condition_b();
        assert_eq!(
            (b.substitution, b.insertion, b.deletion),
            (0.001, 0.005, 0.005)
        );
    }

    #[test]
    #[should_panic(expected = "less than 1")]
    fn profile_rejects_rates_summing_to_one() {
        let _ = ErrorProfile::new(0.5, 0.3, 0.2);
    }

    #[test]
    fn error_free_reads_copy_reference() {
        let genome = GenomeModel::uniform().generate(1000, 1);
        let mut rng = crate::rng(2);
        let (read, log) = inject_errors(
            genome.as_slice(),
            100,
            256,
            &ErrorProfile::error_free(),
            &mut rng,
        );
        assert_eq!(read, genome.window(100..356));
        assert_eq!(log.total(), 0);
        assert_eq!(log.reference_span(), 256);
    }

    #[test]
    fn injection_rates_are_statistically_plausible() {
        let genome = GenomeModel::uniform().generate(400_000, 3);
        let mut rng = crate::rng(4);
        let profile = ErrorProfile::condition_b();
        let mut subs = 0usize;
        let mut ins = 0usize;
        let mut del = 0usize;
        let reads = 500usize;
        let len = 256usize;
        for i in 0..reads {
            let (_, log) = inject_errors(genome.as_slice(), i * 700, len, &profile, &mut rng);
            subs += log.substitutions();
            ins += log.insertions();
            del += log.deletions();
        }
        let per_base = (reads * len) as f64;
        let sub_rate = subs as f64 / per_base;
        let ins_rate = ins as f64 / per_base;
        let del_rate = del as f64 / per_base;
        assert!((sub_rate - 0.001).abs() < 0.0006, "sub rate {sub_rate}");
        assert!((ins_rate - 0.005).abs() < 0.0015, "ins rate {ins_rate}");
        assert!((del_rate - 0.005).abs() < 0.0015, "del rate {del_rate}");
    }

    #[test]
    fn log_replay_reconstructs_read() {
        let genome = GenomeModel::human_like().generate(10_000, 5);
        let mut rng = crate::rng(6);
        for start in [0usize, 512, 4096] {
            let (read, log) = inject_errors(
                genome.as_slice(),
                start,
                256,
                &ErrorProfile::condition_b(),
                &mut rng,
            );
            let span = log.reference_span();
            let replayed = log.apply(&genome.as_slice()[start..start + span]);
            assert_eq!(replayed, read);
            assert_eq!(log.read_len(), 256);
        }
    }

    /// Length of the longest run of consecutive insertions or deletions.
    fn longest_indel_run(log: &EditLog) -> usize {
        let mut best = 0usize;
        let mut run = 0usize;
        for op in log.ops() {
            match op {
                EditOp::Insert(_) | EditOp::Delete => {
                    run += 1;
                    best = best.max(run);
                }
                _ => run = 0,
            }
        }
        best
    }

    #[test]
    fn bursty_model_produces_longer_runs() {
        let genome = GenomeModel::uniform().generate(600_000, 8);
        let profile = ErrorProfile::condition_b();
        let mut rng_iid = crate::rng(9);
        let mut rng_burst = crate::rng(9);
        let reads = 400usize;
        let mut iid_runs = Vec::new();
        let mut burst_runs = Vec::new();
        let mut iid_indels = 0usize;
        let mut burst_indels = 0usize;
        for i in 0..reads {
            let start = i * 1200;
            let (_, log) = inject_errors(genome.as_slice(), start, 256, &profile, &mut rng_iid);
            iid_runs.push(longest_indel_run(&log));
            iid_indels += log.insertions() + log.deletions();
            let (_, log) =
                inject_errors_bursty(genome.as_slice(), start, 256, &profile, 3.0, &mut rng_burst);
            burst_runs.push(longest_indel_run(&log));
            burst_indels += log.insertions() + log.deletions();
        }
        let mean = |v: &[usize]| v.iter().sum::<usize>() as f64 / v.len() as f64;
        assert!(
            mean(&burst_runs) > mean(&iid_runs) + 0.3,
            "bursty runs {:.2} vs iid {:.2}",
            mean(&burst_runs),
            mean(&iid_runs)
        );
        // Total indel mass stays comparable (within 35%).
        let ratio = burst_indels as f64 / iid_indels as f64;
        assert!((0.65..1.35).contains(&ratio), "indel mass ratio {ratio}");
    }

    #[test]
    fn bursty_replay_reconstructs_read() {
        let genome = GenomeModel::uniform().generate(5_000, 10);
        let model = ErrorModel::Bursty {
            profile: ErrorProfile::condition_b(),
            mean_burst_len: 2.5,
        };
        let mut rng = crate::rng(11);
        let (read, log) = model.inject(genome.as_slice(), 50, 256, &mut rng);
        let span = log.reference_span();
        assert_eq!(log.apply(&genome.as_slice()[50..50 + span]), read);
        assert_eq!(read.len(), 256);
    }

    #[test]
    fn bursty_with_unit_mean_behaves_like_iid_statistically() {
        let genome = GenomeModel::uniform().generate(300_000, 12);
        let profile = ErrorProfile::condition_b();
        let mut rng = crate::rng(13);
        let mut indels = 0usize;
        let reads = 300usize;
        for i in 0..reads {
            let (_, log) =
                inject_errors_bursty(genome.as_slice(), i * 900, 256, &profile, 1.0, &mut rng);
            indels += log.insertions() + log.deletions();
        }
        let rate = indels as f64 / (reads * 256) as f64;
        assert!((rate - 0.01).abs() < 0.003, "indel rate {rate}");
    }

    proptest! {
        #[test]
        fn prop_replay_matches_read(seed in 0u64..500) {
            let genome = GenomeModel::uniform().generate(2_000, seed);
            let mut rng = crate::rng(seed.wrapping_mul(7919));
            let (read, log) = inject_errors(
                genome.as_slice(),
                10,
                128,
                &ErrorProfile::condition_b(),
                &mut rng,
            );
            let span = log.reference_span();
            prop_assert_eq!(log.apply(&genome.as_slice()[10..10 + span]), read);
            prop_assert_eq!(log.read_len(), 128);
            // substitutions + matches + deletions consume the span
            prop_assert_eq!(
                log.reference_span(),
                log.substitutions() + log.deletions()
                    + (log.ops().len() - log.total())
            );
        }
    }
}
