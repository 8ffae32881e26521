//! The offline path: `map_batch_packed_indexed` over fixed batches, untraced
//! for the end-to-end metrics and traced for the per-layer ladder.

use crate::report::Report;
use crate::stats::{median, ratio, span_of, Latency, Score, SPANS};
use crate::trace::{traced_tile, Ladder, Parts};
use crate::workload::{Inputs, Workload, WORKERS};
use asmcap::executor::run_tiled;
use asmcap::{AsmcapPipeline, MapRecord};
use std::ops::Range;
use std::time::{Duration, Instant};

/// Reads per `map_batch_packed_indexed` call on the offline workloads.
const BATCH: usize = 256;

/// Set-ups per run: at least `MIN_SETUPS`, and more until they span
/// `SETUP_SPAN` of wall time, up to `MAX_SETUPS`, so a cheap set-up is
/// sampled across enough time that a burst of interference on a shared
/// host cannot move it.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 1_000;
const SETUP_SPAN: Duration = Duration::from_secs(1);

/// Runs `build` repeatedly (see [`MIN_SETUPS`]) and returns the last
/// result with the median build time in seconds. Each earlier result is
/// dropped before the next build starts.
pub fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(MIN_SETUPS);
    let mut built = None;
    let began = Instant::now();
    while times.len() < MIN_SETUPS || (times.len() < MAX_SETUPS && began.elapsed() < SETUP_SPAN) {
        drop(built.take());
        let start = Instant::now();
        built = Some(build());
        times.push(start.elapsed().as_secs_f64());
    }
    (built.expect("at least one set-up"), median(&times))
}

/// One batch of the read pool, mapped as read indices `range`.
#[derive(Debug, Clone)]
pub struct Batch {
    pub range: Range<usize>,
    pub indices: Vec<u64>,
}

/// The pool cut into batches of `size` reads; read `i` maps as index `i`,
/// so every pass over the pool must reproduce the first one exactly.
#[must_use]
pub fn batches(pool: usize, size: usize) -> Vec<Batch> {
    (0..pool)
        .step_by(size)
        .map(|start| {
            let range = start..(start + size).min(pool);
            Batch {
                indices: range.clone().map(|i| i as u64).collect(),
                range,
            }
        })
        .collect()
}

/// One pass over the pool through the pipeline: the reference records.
#[must_use]
pub fn map_pool(
    pipeline: &AsmcapPipeline,
    inputs: &Inputs,
    batches: &[Batch],
) -> Vec<Vec<MapRecord>> {
    batches
        .iter()
        .map(|b| pipeline.map_batch_packed_indexed(&inputs.reads[b.range.clone()], &b.indices))
        .collect()
}

/// Accuracy and simulated cost over one pass of the pool, given as
/// `(pool read, record)` pairs. Both repeat exactly at one seed.
pub fn quality<'a>(
    report: &mut Report,
    origins: &[Option<usize>],
    records: impl IntoIterator<Item = (usize, &'a MapRecord)>,
) {
    let mut score = Score::default();
    let (mut reads, mut cycles, mut energy_j) = (0usize, 0u64, 0.0f64);
    for (read, record) in records {
        score.add(origins[read], &record.positions);
        reads += 1;
        cycles += record.cycles;
        energy_j += record.energy_j;
    }
    let reads = reads as f64;
    report.metric("f1", score.f1(), "1");
    report.metric("sim_cycles_per_read", ratio(cycles as f64, reads), "cycles");
    report.metric(
        "sim_energy_pj_per_read",
        ratio(energy_j * 1e12, reads),
        "pJ",
    );
    report.note(
        "f1_counts",
        format!(
            "tp={} fp={} fn={} over {reads} reads",
            score.tp, score.fp, score.fn_
        ),
    );
}

/// One timed operation: when it ended (seconds into the run), how long it
/// took, and how many reads it carried.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub end_s: f64,
    pub ms: f64,
    pub reads: u64,
}

/// Reads over the time spent inside the operations.
#[must_use]
pub fn busy_rate(ops: &[Op]) -> f64 {
    let reads: u64 = ops.iter().map(|op| op.reads).sum();
    ratio(reads as f64, ops.iter().map(|op| op.ms).sum::<f64>() / 1e3)
}

/// Maps the batches in turn for `budget`, timing each call, and checks
/// each result against the first pass.
pub fn timed_loop(
    report: &mut Report,
    mut map: impl FnMut(&Batch) -> Vec<MapRecord>,
    batches: &[Batch],
    expected: &[Vec<MapRecord>],
    budget: Duration,
) -> Vec<Op> {
    let mut ops = Vec::new();
    let start = Instant::now();
    let mut k = 0;
    while start.elapsed() < budget {
        let b = k % batches.len();
        let batch = &batches[b];
        let began = Instant::now();
        let records = map(batch);
        let took = began.elapsed();
        let n = batch.indices.len() as u64;
        ops.push(Op {
            end_s: start.elapsed().as_secs_f64(),
            ms: took.as_secs_f64() * 1e3,
            reads: n,
        });
        report.attempted += n;
        let differing = if records.len() == expected[b].len() {
            records
                .iter()
                .zip(&expected[b])
                .filter(|(a, e)| a != e)
                .count() as u64
        } else {
            n
        };
        if differing > 0 {
            report.fail(
                differing,
                format!("batch {b}: {differing} records differ from the first pass"),
            );
        }
        k += 1;
    }
    ops
}

/// Emits `reads_per_s`, `latency_p50_ms` and `latency_p99_ms`, each the
/// median over [`SPANS`] equal spans of the `run_s`-second run of its value
/// in that span. A span's throughput is its reads over its wall time when
/// `per_wall_second`, else over the time spent inside its operations; its
/// tail is the highest quantile with at least ten samples beyond it, at
/// most p99.
pub fn timing_metrics(
    report: &mut Report,
    what: &str,
    ops: impl IntoIterator<Item = Op>,
    run_s: f64,
    per_wall_second: bool,
) {
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); SPANS];
    let (mut reads, mut busy_s) = ([0u64; SPANS], [0f64; SPANS]);
    for op in ops {
        let span = span_of(op.end_s, run_s);
        latencies[span].push(op.ms);
        reads[span] += op.reads;
        busy_s[span] += op.ms / 1e3;
    }
    let samples: usize = latencies.iter().map(Vec::len).sum();
    let (mut rates, mut p50s, mut tails, mut quantiles) = (vec![], vec![], vec![], vec![]);
    for (span, latencies) in latencies.into_iter().enumerate() {
        let Some(latency) = Latency::of(latencies) else {
            report.fail(0, format!("{what}: a span has too few samples for a tail"));
            return;
        };
        let seconds = if per_wall_second {
            run_s / SPANS as f64
        } else {
            busy_s[span]
        };
        rates.push(ratio(reads[span] as f64, seconds));
        p50s.push(latency.p50);
        tails.push(latency.tail);
        quantiles.push(latency.tail_per_mille as f64 / 10.0);
    }
    report.metric("reads_per_s", median(&rates), "1/s");
    report.metric("latency_p50_ms", median(&p50s), "ms");
    report.metric("latency_p99_ms", median(&tails), "ms");
    report.note(
        "latency",
        format!(
            "{what}: {} samples in {SPANS} spans; tail quantile per span p{:?}; each timing metric is the median over spans",
            samples,
            quantiles
        ),
    );
}

/// The shared end of every untraced run: operation outcome and memory.
pub fn finish_untraced(report: &mut Report) {
    let error_rate = ratio(report.failed as f64, report.attempted.max(1) as f64);
    report.note("error_rate", error_rate);
    report.metric("success_rate", 1.0 - error_rate, "share");
    match crate::host::peak_rss_mb() {
        Some(mb) => report.metric("peak_rss_mb", mb, "MB"),
        None => report.fail(0, "peak RSS unreadable".to_string()),
    }
}

/// An offline workload: untraced end-to-end metrics, or the traced ladder.
pub fn run(workload: &Workload, seed: u64, budget: Duration, trace: bool) -> Report {
    let mut report = Report::default();
    let inputs = Inputs::generate(workload, seed);
    let reference = inputs.reference.clone();
    let (pipeline, setup_s) = timed_setup(|| workload.build_pipeline(reference.clone()));
    if trace {
        decompose(&mut report, workload, &inputs, &pipeline, BATCH, budget);
        return report;
    }
    let batches = batches(inputs.reads.len(), BATCH);
    let expected = map_pool(&pipeline, &inputs, &batches);
    let timed = timed_loop(
        &mut report,
        |b| pipeline.map_batch_packed_indexed(&inputs.reads[b.range.clone()], &b.indices),
        &batches,
        &expected,
        budget,
    );
    report.metric("setup_s", setup_s, "s");
    timing_metrics(
        &mut report,
        "per-batch map_batch_packed_indexed",
        timed,
        budget.as_secs_f64(),
        false,
    );
    let pass = expected.iter().flatten().map(|r| (r.index as usize, r));
    quality(&mut report, &inputs.origins, pass);
    finish_untraced(&mut report);
    report
}

/// The per-layer ladder for `pipeline`'s configuration: half of `budget`
/// maps the pool untraced, half maps it tile by tile through the traced
/// parts. The traced records must equal the pipeline's, and the gap
/// between the two throughputs is the tracing overhead.
pub fn decompose(
    report: &mut Report,
    workload: &Workload,
    inputs: &Inputs,
    pipeline: &AsmcapPipeline,
    batch: usize,
    budget: Duration,
) {
    let parts = Parts::build(workload, &inputs.reference);
    let batches = batches(inputs.reads.len(), batch);
    let expected = map_pool(pipeline, inputs, &batches);
    let half = budget / 2;
    let untraced = timed_loop(
        report,
        |b| pipeline.map_batch_packed_indexed(&inputs.reads[b.range.clone()], &b.indices),
        &batches,
        &expected,
        half,
    );
    let epoch = Instant::now();
    let mut tiles = Vec::new();
    let traced = timed_loop(
        report,
        |b| {
            let reads = &inputs.reads[b.range.clone()];
            let traced = run_tiled(reads.len(), WORKERS, |tile| {
                vec![traced_tile(
                    &parts,
                    &reads[tile.clone()],
                    &b.indices[tile],
                    epoch,
                )]
            });
            let records = traced
                .iter()
                .flat_map(|t| t.records.iter().cloned())
                .collect();
            tiles.extend(traced.into_iter().map(|t| (t.spans, t.counts)));
            records
        },
        &batches,
        &expected,
        half,
    );
    let mut ladder = Ladder::default();
    for (spans, counts) in &tiles {
        ladder.absorb(spans, counts);
    }
    let c = ladder.counts;
    report.check(c.searches == c.replayed_searches, || {
        format!(
            "replay issued {} searches, the backend reported {}",
            c.replayed_searches, c.searches
        )
    });
    report.metrics.extend(ladder.metrics());
    report.metric("genome.prefilter.build_s", parts.prefilter_build_s, "s");
    report.metric("arch.top.store_s", parts.store_s, "s");
    let overhead = 1.0 - ratio(busy_rate(&traced), busy_rate(&untraced));
    report.metric("trace.overhead_share", overhead, "share");
    report.note(
        "trace",
        format!(
            "{} spans over {} reads in batches of {batch}; untraced {:.0} reads/s, traced {:.0} reads/s",
            ladder.spans,
            c.reads,
            busy_rate(&untraced),
            busy_rate(&traced)
        ),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_cover_the_pool_once_in_order() {
        let b = batches(600, 256);
        assert_eq!(b.len(), 3);
        assert_eq!(b[2].range, 512..600);
        let all: Vec<u64> = b.iter().flat_map(|b| b.indices.clone()).collect();
        assert_eq!(all, (0..600).collect::<Vec<u64>>());
    }

    #[test]
    fn setup_reports_the_median_and_keeps_the_last_build() {
        let mut calls = 0;
        let (last, secs) = timed_setup(|| {
            calls += 1;
            calls
        });
        assert_eq!(last, calls);
        assert!((MIN_SETUPS..=MAX_SETUPS).contains(&calls));
        assert!(secs >= 0.0);
    }
}
