//! The traced decomposition: each tile rebuilt from the layers' public
//! parts, with a span around every call into a layer.
//!
//! A tile runs the calls `AsmcapPipeline::map_tile` makes, in its order:
//! `PrefilterIndex::shortlist` per read, `DeviceBackend::map_batch_shortlisted`
//! once, then `align_packed` on each read's first candidates. Its records
//! must equal the pipeline's. The layers below the backend are timed by
//! replaying their calls with the same inputs: the row masks
//! (`AsmcapDevice::mask_for_origins`) and the device searches inside the
//! tile, and, on a sample of tiles, the arrays' `CamArray::search_packed_rows`
//! and the bare kernels after it. Spans share the read (or tile) id and
//! stay in memory until the run ends.

use crate::stats::ratio;
use crate::workload::{Workload, PIPELINE_SEED, STRIDE, WIDTH};
use asmcap::backend::segment_count;
use asmcap::{read_seed, DeviceBackend, MapRecord, MapStatus, MappingBackend, PrefilterIndex};
use asmcap_arch::{DeviceBuilder, MatchMode, RowMask};
use asmcap_genome::{DnaSeq, PackedRef, PackedSeq};
use asmcap_metrics::{align_packed, ed_star_packed, hamming_packed, Alignment};
use std::hint::black_box;
use std::time::Instant;

/// The layer a span times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One tile through the pipeline's stages (`core::pipeline`).
    Tile,
    /// `PrefilterIndex::shortlist` (`genome::prefilter`).
    Shortlist,
    /// `AsmcapDevice::mask_for_origins`, replayed (`arch::top`).
    Mask,
    /// `DeviceBackend::map_batch_shortlisted` (`core::backend`).
    Backend,
    /// One batched device search, replayed (`arch::top`).
    Search,
    /// One read's candidate alignment (`core::extension`).
    Extension,
    /// One `align_packed` call (`metrics::align`).
    Align,
    /// `CamArray::search_packed_rows`, replayed (`arch::array`).
    Array,
    /// `ed_star_packed` over the same rows, replayed (`metrics::kernels`).
    EdStar,
    /// `hamming_packed` over the same rows, replayed (`metrics::kernels`).
    Hamming,
}

const LAYERS: usize = 10;

/// The array and kernel replay runs on the tiles whose first read index
/// is a multiple of this (one executor tile in four).
const REPLAY_EVERY: u64 = 4 * asmcap::executor::TILE as u64;

impl Layer {
    fn slot(self) -> usize {
        self as usize
    }
}

/// One timed call. `parent` indexes the span list it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub layer: Layer,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans against a shared epoch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    #[must_use]
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn open(&mut self, layer: Layer, id: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
#[must_use]
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, span) in spans.iter().enumerate() {
        if let Some(parent) = span.parent {
            children[parent].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(span, kids)| {
            let mut covered: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| {
                    (
                        spans[k].start_ns.max(span.start_ns),
                        spans[k].end_ns.min(span.end_ns),
                    )
                })
                .filter(|(lo, hi)| lo < hi)
                .collect();
            covered.sort_unstable();
            let mut total = 0;
            let mut reach = span.start_ns;
            for (lo, hi) in covered {
                let lo = lo.max(reach);
                if hi > lo {
                    total += hi - lo;
                    reach = hi;
                }
            }
            (span.end_ns - span.start_ns) - total
        })
        .collect()
}

/// Counts recorded at the same boundaries as the spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub reads: u64,
    pub shortlisted: u64,
    pub fallbacks: u64,
    pub shortlist_len: u64,
    /// Search operations the backend reported (sum of `searches`).
    pub searches: u64,
    /// Search operations the replay issued.
    pub replayed_searches: u64,
    pub rows_sensed: u64,
    pub matches: u64,
    pub align_calls: u64,
    pub aligned: u64,
    /// Read/row pairs the array and kernel replay covered.
    pub replayed_pairs: u64,
    /// Time and search operations of the ED\* searches the array replay
    /// repeats.
    pub sampled_search_ns: u64,
    pub sampled_searches: u64,
}

impl Counts {
    fn absorb(&mut self, o: &Counts) {
        self.reads += o.reads;
        self.shortlisted += o.shortlisted;
        self.fallbacks += o.fallbacks;
        self.shortlist_len += o.shortlist_len;
        self.searches += o.searches;
        self.replayed_searches += o.replayed_searches;
        self.rows_sensed += o.rows_sensed;
        self.matches += o.matches;
        self.align_calls += o.align_calls;
        self.aligned += o.aligned;
        self.replayed_pairs += o.replayed_pairs;
        self.sampled_search_ns += o.sampled_search_ns;
        self.sampled_searches += o.sampled_searches;
    }
}

/// The pipeline's layers assembled separately, the way
/// `PipelineBuilder::build` assembles them.
pub struct Parts {
    prefilter: Option<PrefilterIndex>,
    backend: DeviceBackend,
    extension: Option<Extension>,
    /// Seconds to build the prefilter index (0 with the prefilter off).
    pub prefilter_build_s: f64,
    /// Seconds to store the segmented reference on the device.
    pub store_s: f64,
}

struct Extension {
    reference: PackedRef,
    band: usize,
    max_candidates: usize,
}

impl Parts {
    /// # Panics
    ///
    /// Panics if the workload's fixed configuration is rejected.
    #[must_use]
    pub fn build(workload: &Workload, reference: &DnaSeq) -> Parts {
        let config = workload.config();
        let packed = PackedRef::new(reference);
        let start = Instant::now();
        let prefilter = config.prefilter.map(|prefilter| {
            PrefilterIndex::new(&packed, WIDTH, STRIDE, prefilter)
                .expect("default prefilter configuration is valid")
        });
        let prefilter_build_s = if prefilter.is_some() {
            start.elapsed().as_secs_f64()
        } else {
            0.0
        };
        let rows = segment_count(reference.len(), WIDTH, STRIDE);
        let mut device = DeviceBuilder::new()
            .arrays(rows.div_ceil(config.rows_per_array))
            .rows_per_array(config.rows_per_array)
            .row_width(WIDTH)
            .build_asmcap();
        let start = Instant::now();
        device
            .store_reference(reference, STRIDE)
            .expect("device is sized for the reference");
        let store_s = start.elapsed().as_secs_f64();
        let extension = config.extension.map(|extension| Extension {
            reference: packed,
            band: extension.effective_band(config.threshold),
            max_candidates: extension.max_candidates.max(1),
        });
        Parts {
            prefilter,
            backend: DeviceBackend::new(device, config.mapper()),
            extension,
            prefilter_build_s,
            store_s,
        }
    }
}

/// One traced tile: the records it produced plus its spans and counts.
pub struct TileTrace {
    pub records: Vec<MapRecord>,
    pub spans: Vec<Span>,
    pub counts: Counts,
}

/// Maps one tile of row-width reads through the parts, tracing each call.
///
/// # Panics
///
/// Panics if `reads` is empty or its length differs from `indices`.
#[must_use]
pub fn traced_tile(
    parts: &Parts,
    reads: &[PackedSeq],
    indices: &[u64],
    epoch: Instant,
) -> TileTrace {
    assert!(!reads.is_empty() && reads.len() == indices.len());
    let mut tr = Tracer::new(epoch);
    let mut counts = Counts {
        reads: reads.len() as u64,
        ..Counts::default()
    };
    let tile_id = indices[0];
    let tile = tr.open(Layer::Tile, tile_id, None);
    let seeds: Vec<u64> = indices
        .iter()
        .map(|&i| read_seed(PIPELINE_SEED, i))
        .collect();

    let mut shortlists: Vec<Option<Vec<usize>>> = Vec::with_capacity(reads.len());
    for (read, &index) in reads.iter().zip(indices) {
        let shortlist = parts.prefilter.as_ref().and_then(|prefilter| {
            let span = tr.open(Layer::Shortlist, index, Some(tile));
            let shortlist = prefilter.shortlist(read);
            let starts = (!shortlist.is_full_scan()).then(|| shortlist.starts_ascending());
            tr.close(span);
            counts.shortlisted += 1;
            match &starts {
                Some(starts) => counts.shortlist_len += starts.len() as u64,
                None => counts.fallbacks += 1,
            }
            starts
        });
        shortlists.push(shortlist);
    }

    // The backend builds these masks inside its batch call (all full-scan
    // queues drain unmasked); replay them to time that layer alone.
    let device = parts.backend.device();
    let masks: Option<Vec<RowMask>> = shortlists.iter().any(Option::is_some).then(|| {
        shortlists
            .iter()
            .zip(indices)
            .map(|(shortlist, &index)| {
                let span = tr.open(Layer::Mask, index, Some(tile));
                let mask = match shortlist {
                    None => RowMask::full(device.stored_rows()),
                    Some(starts) => device.mask_for_origins(starts),
                };
                tr.close(span);
                mask
            })
            .collect()
    });

    let span = tr.open(Layer::Backend, tile_id, Some(tile));
    let outcomes = parts
        .backend
        .map_batch_shortlisted(reads, &seeds, &shortlists);
    tr.close(span);
    counts.searches = outcomes.iter().map(|o| o.searches).sum();
    replay_searches(
        parts,
        reads,
        &seeds,
        masks.as_deref(),
        &mut tr,
        tile,
        &mut counts,
    );

    let records: Vec<MapRecord> = reads
        .iter()
        .zip(indices)
        .zip(outcomes)
        .map(|((read, &index), outcome)| {
            let alignment = parts.extension.as_ref().and_then(|extension| {
                let span = tr.open(Layer::Extension, index, Some(tile));
                let best = extend(
                    extension,
                    read,
                    &outcome.positions,
                    &mut tr,
                    span,
                    &mut counts,
                );
                tr.close(span);
                best
            });
            counts.aligned += u64::from(alignment.is_some());
            MapRecord {
                index,
                status: if outcome.positions.is_empty() {
                    MapStatus::Unmapped
                } else {
                    MapStatus::Mapped
                },
                positions: outcome.positions,
                cycles: outcome.cycles,
                searches: outcome.searches,
                energy_j: outcome.energy_j,
                alignment,
                resensed: outcome.resensed,
                requarried: outcome.requarried,
                degraded: outcome.resensed + outcome.requarried > 0,
            }
        })
        .collect();
    tr.close(tile);

    if tile_id.is_multiple_of(REPLAY_EVERY) {
        // The array replay repeats this tile's ED* search; what the device
        // spent beyond it is its own walk over arrays and masks.
        let base = tr
            .spans
            .iter()
            .find(|s| s.layer == Layer::Search)
            .expect("the ED* search ran");
        counts.sampled_search_ns += base.end_ns - base.start_ns;
        counts.sampled_searches += reads.len() as u64;
        replay_rows(
            parts,
            reads,
            &seeds,
            masks.as_deref(),
            tile_id,
            &mut tr,
            &mut counts,
        );
    }
    TileTrace {
        records,
        spans: tr.spans,
        counts,
    }
}

/// The extension stage's rule: align the first candidates, keep the lowest
/// score (ties to the lowest origin).
fn extend(
    extension: &Extension,
    read: &PackedSeq,
    positions: &[usize],
    tr: &mut Tracer,
    parent: usize,
    counts: &mut Counts,
) -> Option<Alignment> {
    let mut best: Option<Alignment> = None;
    for &origin in positions.iter().take(extension.max_candidates) {
        if origin + WIDTH > extension.reference.len() {
            continue;
        }
        let segment = extension.reference.segment(origin, WIDTH);
        let span = tr.open(Layer::Align, origin as u64, Some(parent));
        let aligned = align_packed(read, &segment, extension.band);
        tr.close(span);
        counts.align_calls += 1;
        if let Some((score, cigar)) = aligned {
            if best.as_ref().is_none_or(|b| score < b.score) {
                best = Some(Alignment {
                    origin,
                    score,
                    cigar,
                });
            }
        }
    }
    best
}

/// Replays the device searches the backend issued for this tile: the
/// ED\* search, the HD search when HDAC is on, and one ED\* search per
/// TASR rotation, each drawing from fresh per-read sensing streams.
fn replay_searches(
    parts: &Parts,
    reads: &[PackedSeq],
    seeds: &[u64],
    masks: Option<&[RowMask]>,
    tr: &mut Tracer,
    parent: usize,
    counts: &mut Counts,
) {
    let device = parts.backend.device();
    let config = parts.backend.config();
    let t = config.threshold;
    let rows_per_search: u64 = match masks {
        Some(masks) => masks.iter().map(|m| m.count_ones() as u64).sum(),
        None => (reads.len() * device.stored_rows()) as u64,
    };
    let mut rngs: Vec<asmcap::Rng> = seeds.iter().map(|&s| asmcap::rng(s)).collect();
    let mut search = |queue: &[PackedSeq], mode: MatchMode, tr: &mut Tracer| {
        let span = tr.open(Layer::Search, tr.spans[parent].id, Some(parent));
        let results = match masks {
            Some(masks) => device.search_packed_batch_masked(queue, t, mode, masks, &mut rngs),
            None => device.search_packed_batch(queue, t, mode, &mut rngs),
        };
        tr.close(span);
        counts.replayed_searches += queue.len() as u64;
        counts.rows_sensed += rows_per_search;
        counts.matches += results.iter().map(|r| r.matches.len() as u64).sum::<u64>();
    };
    search(reads, MatchMode::EdStar, tr);
    if let Some(hdac) = config.hdac {
        if hdac.enabled(&config.profile, t) {
            search(reads, MatchMode::Hamming, tr);
        }
    }
    if let Some(tasr) = config.tasr {
        if tasr.active(&config.profile, WIDTH, t) {
            for amount in 1..=tasr.rotations {
                let rotated: Vec<PackedSeq> = reads
                    .iter()
                    .map(|read| tasr.schedule.rotated_packed(read, amount))
                    .collect();
                search(&rotated, MatchMode::EdStar, tr);
            }
        }
    }
}

/// Replays a tile's ED\* search array by array through
/// `CamArray::search_packed_rows`, in the device's array-major order, then
/// the bare kernels over the same read/row pairs in the same order.
fn replay_rows(
    parts: &Parts,
    reads: &[PackedSeq],
    seeds: &[u64],
    masks: Option<&[RowMask]>,
    tile_id: u64,
    tr: &mut Tracer,
    counts: &mut Counts,
) {
    let device = parts.backend.device();
    let t = parts.backend.config().threshold;
    let mut rngs: Vec<asmcap::Rng> = seeds.iter().map(|&s| asmcap::rng(s)).collect();
    let mut flat_base = 0;
    for array in device.arrays() {
        let flat = flat_base..flat_base + array.rows();
        flat_base = flat.end;
        let rows: Vec<Vec<usize>> = (0..reads.len())
            .map(|i| match masks {
                Some(masks) => masks[i]
                    .ones_in(flat.clone())
                    .map(|f| f - flat.start)
                    .collect(),
                None => (0..array.rows()).collect(),
            })
            .collect();
        let pairs: usize = rows.iter().map(Vec::len).sum();
        if pairs == 0 {
            continue;
        }
        let span = tr.open(Layer::Array, tile_id, None);
        for ((read, rows), rng) in reads.iter().zip(&rows).zip(&mut rngs) {
            if !rows.is_empty() {
                black_box(array.search_packed_rows(read, t, MatchMode::EdStar, rows, rng));
            }
        }
        tr.close(span);

        let mut stored: Vec<Option<PackedSeq>> = vec![None; array.rows()];
        for &row in rows.iter().flatten() {
            stored[row].get_or_insert_with(|| {
                PackedSeq::from_bases(&array.stored_row(row).expect("row is occupied"))
            });
        }
        let stored = &stored;
        let pairs_of = || {
            reads.iter().zip(&rows).flat_map(move |(read, rows)| {
                rows.iter()
                    .map(move |&row| (stored[row].as_ref().expect("row unpacked above"), read))
            })
        };
        let span = tr.open(Layer::EdStar, tile_id, None);
        let total: usize = pairs_of()
            .map(|(s, read)| ed_star_packed(black_box(s), read))
            .sum();
        tr.close(span);
        black_box(total);
        let span = tr.open(Layer::Hamming, tile_id, None);
        let total: usize = pairs_of()
            .map(|(s, read)| hamming_packed(black_box(s), read))
            .sum();
        tr.close(span);
        black_box(total);
        counts.replayed_pairs += pairs as u64;
    }
}

/// Span totals and self times per layer, with the counts, over a run.
#[derive(Debug, Clone, Default)]
pub struct Ladder {
    total_ns: [u64; LAYERS],
    self_ns: [u64; LAYERS],
    pub counts: Counts,
    pub spans: usize,
}

impl Ladder {
    /// Adds one tile's spans and counts.
    pub fn absorb(&mut self, spans: &[Span], counts: &Counts) {
        for (span, own) in spans.iter().zip(self_ns(spans)) {
            self.total_ns[span.layer.slot()] += span.end_ns - span.start_ns;
            self.self_ns[span.layer.slot()] += own;
        }
        self.counts.absorb(counts);
        self.spans += spans.len();
    }

    fn total_us(&self, layer: Layer) -> f64 {
        self.total_ns[layer.slot()] as f64 / 1e3
    }

    fn total_ns(&self, layer: Layer) -> f64 {
        self.total_ns[layer.slot()] as f64
    }

    /// The per-layer metrics this ladder gives, by name and unit. Times
    /// are host time; `*_per_read` divides by reads mapped.
    #[must_use]
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let c = &self.counts;
        let reads = c.reads as f64;
        let searches = c.replayed_searches as f64;
        let row_ns = ratio(self.total_ns(Layer::Array), c.replayed_pairs as f64);
        let ed_star_ns = ratio(self.total_ns(Layer::EdStar), c.replayed_pairs as f64);
        let search_us = ratio(self.total_us(Layer::Search), searches);
        let below_backend = self.total_us(Layer::Mask) + self.total_us(Layer::Search);
        vec![
            (
                "genome.prefilter.lookup_us",
                ratio(self.total_us(Layer::Shortlist), reads),
                "us",
            ),
            (
                "genome.prefilter.shortlist_len",
                ratio(c.shortlist_len as f64, (c.shortlisted - c.fallbacks) as f64),
                "count",
            ),
            (
                "genome.prefilter.fallback_share",
                ratio(c.fallbacks as f64, c.shortlisted as f64),
                "share",
            ),
            (
                "arch.top.mask_us",
                ratio(self.total_us(Layer::Mask), reads),
                "us",
            ),
            ("arch.top.search_us", search_us, "us"),
            (
                "arch.top.walk_self_us",
                ratio(
                    (c.sampled_search_ns as f64 - self.total_ns(Layer::Array)) / 1e3,
                    c.sampled_searches as f64,
                ),
                "us",
            ),
            (
                "arch.top.rows_sensed_per_search",
                ratio(c.rows_sensed as f64, searches),
                "count",
            ),
            (
                "arch.top.match_share",
                ratio(c.matches as f64, c.rows_sensed as f64),
                "share",
            ),
            ("arch.array.row_ns", row_ns, "ns"),
            ("arch.array.sense_self_ns", row_ns - ed_star_ns, "ns"),
            ("metrics.kernels.ed_star_ns", ed_star_ns, "ns"),
            (
                "metrics.kernels.hamming_ns",
                ratio(self.total_ns(Layer::Hamming), c.replayed_pairs as f64),
                "ns",
            ),
            (
                "core.backend.batch_us_per_read",
                ratio(self.total_us(Layer::Backend), reads),
                "us",
            ),
            (
                "core.backend.self_us_per_read",
                ratio(self.total_us(Layer::Backend) - below_backend, reads),
                "us",
            ),
            (
                "core.backend.searches_per_read",
                ratio(c.searches as f64, reads),
                "count",
            ),
            (
                "metrics.align.us_per_call",
                ratio(self.total_us(Layer::Align), c.align_calls as f64),
                "us",
            ),
            (
                "core.extension.calls_per_read",
                ratio(c.align_calls as f64, reads),
                "count",
            ),
            (
                "core.extension.aligned_share",
                ratio(c.aligned as f64, reads),
                "share",
            ),
            (
                "core.pipeline.self_us_per_read",
                ratio(self.self_ns[Layer::Tile.slot()] as f64 / 1e3, reads),
                "us",
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer,
            id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = [
            span(Layer::Tile, None, 0, 100),
            span(Layer::Shortlist, Some(0), 10, 20),
            // Two overlapping children cover 30..60 once, not twice.
            span(Layer::Backend, Some(0), 30, 50),
            span(Layer::Mask, Some(0), 40, 60),
            // A child running past its parent counts only inside it.
            span(Layer::Extension, Some(0), 90, 130),
            // A grandchild is its parent's business, not the tile's.
            span(Layer::Align, Some(4), 95, 105),
            // A root replay span has no parent.
            span(Layer::Array, None, 200, 260),
        ];
        assert_eq!(
            self_ns(&spans),
            vec![100 - 10 - 30 - 10, 10, 20, 20, 30, 10, 60]
        );
    }

    #[test]
    fn ladder_sums_totals_and_self_times_per_layer() {
        let spans = vec![
            span(Layer::Tile, None, 0, 10_000),
            span(Layer::Backend, Some(0), 1_000, 7_000),
            span(Layer::Search, Some(0), 7_000, 9_000),
            span(Layer::Array, None, 10_000, 10_400),
            span(Layer::EdStar, None, 10_400, 10_500),
        ];
        let counts = Counts {
            reads: 2,
            searches: 2,
            replayed_searches: 2,
            rows_sensed: 8,
            replayed_pairs: 4,
            sampled_search_ns: 2_000,
            sampled_searches: 2,
            ..Counts::default()
        };
        let mut ladder = Ladder::default();
        ladder.absorb(&spans, &counts);
        ladder.absorb(&spans, &counts);
        let metrics: std::collections::BTreeMap<_, _> = ladder
            .metrics()
            .into_iter()
            .map(|(n, v, _)| (n, v))
            .collect();
        // Tile self = 10 µs − 6 µs − 2 µs = 2 µs per tile of 2 reads.
        assert!((metrics["core.pipeline.self_us_per_read"] - 1.0).abs() < 1e-9);
        assert!((metrics["core.backend.batch_us_per_read"] - 3.0).abs() < 1e-9);
        // Backend self = backend − replayed search (no masks here).
        assert!((metrics["core.backend.self_us_per_read"] - 2.0).abs() < 1e-9);
        assert!((metrics["arch.top.search_us"] - 1.0).abs() < 1e-9);
        assert!((metrics["arch.array.row_ns"] - 100.0).abs() < 1e-9);
        assert!((metrics["metrics.kernels.ed_star_ns"] - 25.0).abs() < 1e-9);
        assert!((metrics["arch.array.sense_self_ns"] - 75.0).abs() < 1e-9);
        // The sampled searches took 1 µs each, of which 0.2 µs were rows.
        assert!((metrics["arch.top.walk_self_us"] - 0.8).abs() < 1e-9);
        assert_eq!(ladder.spans, 10);
    }
}
