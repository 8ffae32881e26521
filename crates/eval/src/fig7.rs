//! Fig. 7: accuracy (F1) comparison between ASMCap and EDAM.
//!
//! Four subplots: absolute F1 and Kraken2-normalised F1, each under
//! Condition A (T = 1..8) and Condition B (T = 2..16). Three series per
//! subplot: EDAM, ASMCap without strategies, ASMCap with HDAC + TASR.
//!
//! The whole sweep runs on the packed matchplane: the dataset packs every
//! (segment, read) pair once and [`EvalDataset::evaluate`] scores each
//! engine through `AsmMatcher::matches_packed`, so engines × thresholds ×
//! pairs costs no byte-per-base walks and no per-decision re-packing.

use crate::dataset::{Condition, CycleStats, EvalDataset};
use crate::report::Table;
use asmcap::engine::fig7_engines;
use asmcap::AsmMatcher;
use asmcap_baselines::{KrakenClassifier, KrakenMode};

/// Configuration of a Fig. 7 run.
#[derive(Debug, Clone, Copy)]
pub struct Fig7Config {
    /// Reads per condition.
    pub reads: usize,
    /// Decoy segments per read.
    pub decoys: usize,
    /// Read length in bases (paper: 256).
    pub read_len: usize,
    /// Reference genome length to sample from.
    pub genome_len: usize,
    /// Master seed.
    pub seed: u64,
}

impl Fig7Config {
    /// The full-scale configuration used by `asmcap_eval fig7`.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            reads: 300,
            decoys: 20,
            read_len: 256,
            genome_len: 400_000,
            seed: 0xF167,
        }
    }

    /// A reduced configuration for tests.
    #[must_use]
    pub fn smoke() -> Self {
        Self {
            reads: 60,
            decoys: 8,
            read_len: 128,
            genome_len: 60_000,
            seed: 0xF167,
        }
    }
}

/// One (threshold, scores) point of a series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct F1Point {
    /// Threshold `T`.
    pub threshold: usize,
    /// Absolute F1 in `[0, 1]`.
    pub f1: f64,
    /// Sensitivity (recall).
    pub sensitivity: f64,
    /// Precision.
    pub precision: f64,
    /// F1 normalised by Kraken2's F1 at the same threshold.
    pub normalized: f64,
    /// Cycle statistics at this threshold.
    pub cycles: CycleStats,
}

/// One system's F1-vs-threshold series.
#[derive(Debug, Clone, PartialEq)]
pub struct F1Series {
    /// System name.
    pub system: String,
    /// Points in threshold order.
    pub points: Vec<F1Point>,
}

impl F1Series {
    /// Mean F1 across the sweep.
    #[must_use]
    pub fn mean_f1(&self) -> f64 {
        self.points.iter().map(|p| p.f1).sum::<f64>() / self.points.len() as f64
    }

    /// Mean cycles per decision across the sweep.
    #[must_use]
    pub fn mean_cycles(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.cycles.mean_cycles)
            .sum::<f64>()
            / self.points.len() as f64
    }
}

/// The result of one condition's sweep.
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// Which condition was swept.
    pub condition: Condition,
    /// Series: EDAM, ASMCap w/o H&T, ASMCap w/ H&T (in that order).
    pub series: Vec<F1Series>,
    /// Kraken2 (exact) F1 per threshold — the normalisation denominator.
    pub kraken_f1: Vec<f64>,
    /// Mean ED\* of the workload (for the Fig. 8 energy model).
    pub mean_ed_star: f64,
}

impl Fig7Result {
    /// Looks a series up by name.
    #[must_use]
    pub fn series(&self, name: &str) -> Option<&F1Series> {
        self.series.iter().find(|s| s.system == name)
    }

    /// Renders the absolute-F1 subplot as a table.
    #[must_use]
    pub fn f1_table(&self) -> Table {
        let mut header = vec!["T".to_owned()];
        header.extend(self.series.iter().map(|s| s.system.clone()));
        header.push("Kraken2".to_owned());
        let mut table = Table::new(header.iter().map(String::as_str).collect());
        let thresholds = self.condition.thresholds();
        for (i, &t) in thresholds.iter().enumerate() {
            let mut row = vec![t.to_string()];
            for series in &self.series {
                row.push(format!("{:.1}", series.points[i].f1 * 100.0));
            }
            row.push(format!("{:.1}", self.kraken_f1[i] * 100.0));
            table.row(row);
        }
        table
    }

    /// Renders the normalised-F1 subplot as a table.
    #[must_use]
    pub fn normalized_table(&self) -> Table {
        let mut header = vec!["T".to_owned()];
        header.extend(self.series.iter().map(|s| s.system.clone()));
        let mut table = Table::new(header.iter().map(String::as_str).collect());
        let thresholds = self.condition.thresholds();
        for (i, &t) in thresholds.iter().enumerate() {
            let mut row = vec![t.to_string()];
            for series in &self.series {
                row.push(format!("{:.2}", series.points[i].normalized));
            }
            table.row(row);
        }
        table
    }
}

/// Runs the Fig. 7 sweep for one condition.
#[must_use]
pub fn run(condition: Condition, config: &Fig7Config) -> Fig7Result {
    let dataset = EvalDataset::build(
        condition,
        config.reads,
        config.decoys,
        config.read_len,
        config.genome_len,
        config.seed,
    );
    run_on(condition, config, &dataset)
}

/// Runs the sweep on a pre-built dataset (lets callers share datasets
/// across experiments).
#[must_use]
pub fn run_on(condition: Condition, config: &Fig7Config, dataset: &EvalDataset) -> Fig7Result {
    let thresholds = condition.thresholds();
    let (mut edam, mut without, mut with) = fig7_engines(condition.profile(), config.seed);
    let mut kraken = KrakenClassifier::new(KrakenMode::Exact);

    let mut kraken_f1 = Vec::with_capacity(thresholds.len());
    for &t in &thresholds {
        let (cm, _) = dataset.evaluate(&mut kraken, t);
        kraken_f1.push(cm.f1());
    }

    let mut series = Vec::new();
    for engine in [
        &mut edam as &mut dyn AsmMatcher,
        &mut without as &mut dyn AsmMatcher,
        &mut with as &mut dyn AsmMatcher,
    ] {
        let mut points = Vec::with_capacity(thresholds.len());
        for (i, &t) in thresholds.iter().enumerate() {
            let (cm, cycles) = dataset.evaluate(engine, t);
            let denominator = kraken_f1[i].max(1e-9);
            points.push(F1Point {
                threshold: t,
                f1: cm.f1(),
                sensitivity: cm.sensitivity(),
                precision: cm.precision(),
                normalized: cm.f1() / denominator,
                cycles,
            });
        }
        series.push(F1Series {
            system: engine.name().to_owned(),
            points,
        });
    }

    Fig7Result {
        condition,
        series,
        kraken_f1,
        mean_ed_star: dataset.mean_ed_star(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_all_series() {
        let result = run(Condition::A, &Fig7Config::smoke());
        assert_eq!(result.series.len(), 3);
        assert!(result.series("EDAM").is_some());
        assert!(result.series("ASMCap w/o H&T").is_some());
        assert!(result.series("ASMCap w/ H&T").is_some());
        for series in &result.series {
            assert_eq!(series.points.len(), 8);
            for point in &series.points {
                assert!((0.0..=1.0).contains(&point.f1));
            }
        }
    }

    #[test]
    fn tables_render() {
        let result = run(Condition::A, &Fig7Config::smoke());
        let rendered = result.f1_table().to_string();
        assert!(rendered.contains("EDAM"));
        assert!(rendered.contains("Kraken2"));
        let normalized = result.normalized_table().to_string();
        assert!(normalized.contains("ASMCap w/ H&T"));
    }
}
