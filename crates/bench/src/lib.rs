//! Shared fixtures for the criterion benchmarks.
//!
//! The benches time the hot layers: `kernels` the packed ED\*/HD kernels,
//! `array_search` the architecture layer, `prefilter` the seed lookup,
//! `extension` the alignment stage and `pipeline_throughput` whole
//! batches. The paper's tables and figures come from `asmcap_eval`.

#![forbid(unsafe_code)]

use asmcap_genome::{DnaSeq, ErrorProfile, GenomeModel, ReadSampler, SampledRead};

/// A deterministic genome for benching.
#[must_use]
pub fn genome(len: usize) -> DnaSeq {
    GenomeModel::uniform().generate(len, 0xBEBC)
}

/// A deterministic (segment, erroneous read) pair of the given length.
#[must_use]
pub fn pair(len: usize, profile: ErrorProfile) -> (DnaSeq, DnaSeq) {
    let genome = genome(len * 8 + 64);
    let sampler = ReadSampler::new(len, profile);
    let read: SampledRead = sampler.sample(&genome, 0x9A12);
    let segment = read.aligned_segment(&genome);
    (segment, read.bases)
}
