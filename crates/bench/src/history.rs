//! Run-history glue: one compact [`RunRecord`] per repro artifact run.
//!
//! Each timing artifact (`repro trace`, `repro profile`, `repro bench-scale`,
//! `repro bench-som`) distills its full report into a flat record of
//! `(key, value, unit)` samples and appends it to the append-only store at
//! [`HISTORY_PATH`] under the kind `trace`, `profile`, `bench_scale` or
//! `bench_som`. `repro history` renders the trend table over the store, and
//! `repro history --gate` judges the latest run of each kind against the
//! rolling window of prior comparable runs (see
//! [`hiermeans_obs::history::gate`]).
//!
//! Keys are stable join points, not display strings: stage samples reuse
//! the span names from [`hiermeans_obs::stages`], bench samples encode the
//! curve coordinates (`algorithm/n=…`, `som/n=…/cold`) the gate must
//! compare across runs.

use std::path::Path;

use hiermeans_linalg::parallel;
use hiermeans_obs::history::{append_record, median, RunRecord};
use hiermeans_obs::{stages, TraceDocument};

use crate::scale::ScaleBenchReport;
use crate::som::SomBenchReport;

/// The on-disk history store, conventionally committed alongside the
/// `BENCH_scale.json` and `BENCH_som.json` baselines.
pub const HISTORY_PATH: &str = "OBS_history.jsonl";

/// Distills a `repro trace` document: per-stage median span durations,
/// per-stage memory high-water marks, convergence, and peak RSS.
#[must_use]
pub fn record_from_trace(document: &TraceDocument) -> RunRecord {
    record_from_document("trace", document)
}

/// Distills a `repro profile` document; same shape as a trace record plus
/// the per-stage parallel-efficiency ratios the lanes measured.
#[must_use]
pub fn record_from_profile(document: &TraceDocument) -> RunRecord {
    record_from_document("profile", document)
}

fn record_from_document(kind: &str, document: &TraceDocument) -> RunRecord {
    let mut record = RunRecord::new(kind, document.workers);
    // A verdict is claimed only when the run recorded convergence
    // telemetry at all: `repro profile` turns quality sampling off for
    // timing fidelity, and its missing verdict must read as "not
    // measured", not as a convergence failure the gate would fail on.
    record.converged = document
        .studies
        .iter()
        .any(|s| s.trace.convergence.is_some())
        .then(|| document.all_converged());
    // Median duration per stage across every study that ran the span: one
    // gated sample per stage name, robust to a single noisy study.
    for stage in stages::ALL {
        let durations: Vec<f64> = document
            .studies
            .iter()
            .flat_map(|s| s.trace.span_durations_us(stage))
            .map(|us| us as f64)
            .collect();
        if !durations.is_empty() {
            record.push(stage, median(&durations), "us");
        }
    }
    // Memory telemetry, when the run captured it: per-stage coordinator
    // high-water medians plus the worst process RSS over the studies.
    let mut peak_rss_kb: Option<u64> = None;
    for study in &document.studies {
        if let Some(memory) = &study.trace.memory {
            peak_rss_kb = Some(peak_rss_kb.unwrap_or(0).max(memory.peak_rss_kb));
        }
    }
    record.peak_rss_kb = peak_rss_kb;
    if let Some(kb) = peak_rss_kb {
        record.push("process/peak_rss", kb as f64, "kb");
    }
    for stage in stages::ALL {
        let peaks: Vec<f64> = document
            .studies
            .iter()
            .filter_map(|s| s.trace.memory.as_ref())
            .flat_map(|m| m.stages.iter())
            .filter(|s| s.stage == stage)
            .map(|s| s.peak_bytes as f64)
            .collect();
        if !peaks.is_empty() {
            record.push(format!("{stage}/peak_bytes"), median(&peaks), "bytes");
        }
    }
    // Lane analytics (profile runs): efficiency is a ratio, trend-only —
    // a scheduling hiccup should show in the table, not fail the gate.
    let mut lane_stages: Vec<&str> = document
        .studies
        .iter()
        .flat_map(|s| s.trace.lanes.iter())
        .map(|l| l.stage.as_str())
        .collect();
    lane_stages.sort_unstable();
    lane_stages.dedup();
    for stage in lane_stages {
        let ratios: Vec<f64> = document
            .studies
            .iter()
            .flat_map(|s| s.trace.lanes.iter())
            .filter(|l| l.stage == stage)
            .map(|l| l.parallel_efficiency)
            .collect();
        record.push(
            format!("{stage}/parallel_efficiency"),
            median(&ratios),
            "ratio",
        );
    }
    record
}

/// Distills a `repro bench-scale` report: one gated `ms` sample per
/// `(algorithm, n)` curve row.
#[must_use]
pub fn record_from_scale(report: &ScaleBenchReport) -> RunRecord {
    let mut record = RunRecord::new("bench_scale", parallel::worker_count());
    for t in &report.results {
        record.push(format!("{}/n={}", t.algorithm, t.n), t.ms, "ms");
    }
    record
}

/// Distills a `repro bench-som` report: one gated `ms` sample per curve
/// row plus the streaming row and its peak heap.
#[must_use]
pub fn record_from_som(report: &SomBenchReport) -> RunRecord {
    let mut record = RunRecord::new("bench_som", parallel::worker_count());
    for t in &report.results {
        record.push(format!("som/n={}/cold", t.n), t.cold_ms, "ms");
    }
    if let Some(s) = &report.stream {
        record.push(format!("stream/n={}", s.n), s.ms, "ms");
        if let Some(bytes) = s.peak_bytes {
            record.push(
                format!("stream/n={}/peak_bytes", s.n),
                bytes as f64,
                "bytes",
            );
        }
    }
    record
}

/// Appends `record` to the store at [`HISTORY_PATH`] and returns the
/// one-line confirmation `repro` prints.
///
/// # Errors
///
/// Propagates encode/IO failures from the store.
pub fn append(record: &RunRecord) -> Result<String, String> {
    append_record(Path::new(HISTORY_PATH), record)?;
    Ok(format!(
        "appended {} record ({} samples) to {HISTORY_PATH}",
        record.kind,
        record.samples.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::ScaleTiming;
    use hiermeans_obs::{Collector, ObsConfig, StudyTrace};

    fn tiny_document(memory: bool) -> TraceDocument {
        let collector = Collector::enabled_with(ObsConfig {
            memory,
            ..ObsConfig::default()
        });
        {
            let _root = collector.span(stages::PIPELINE);
            let _child = collector.span(stages::PIPELINE_SOM);
        }
        let trace = collector.report().unwrap();
        TraceDocument::new(
            3,
            vec![StudyTrace {
                label: "synthetic".into(),
                trace,
            }],
        )
    }

    #[test]
    fn trace_record_samples_every_recorded_stage() {
        let record = record_from_trace(&tiny_document(false));
        assert_eq!(record.kind, "trace");
        assert_eq!(record.workers, 3);
        // No convergence telemetry ran, so the record claims no verdict
        // (rather than a convergence failure the gate would act on).
        assert_eq!(record.converged, None);
        assert!(record.sample(stages::PIPELINE).is_some());
        assert!(record.sample(stages::PIPELINE_SOM).is_some());
        // Unrecorded stages must not produce phantom zero samples.
        assert!(record.sample(stages::SOM_TRAIN).is_none());
        // Memory was off: no memory-derived samples.
        assert!(record.peak_rss_kb.is_none());
        assert!(record.sample("process/peak_rss").is_none());
        assert!(record
            .samples
            .iter()
            .all(|s| !s.key.ends_with("/peak_bytes")));
    }

    #[test]
    fn memory_enabled_trace_record_carries_rss_and_stage_peaks() {
        let record = record_from_trace(&tiny_document(true));
        assert!(record.peak_rss_kb.is_some());
        assert!(record.sample("process/peak_rss").is_some());
        // Span attribution requires the tracking allocator hook, which the
        // test harness binary does not install — stage peak samples are
        // present only when the hook was live, never invented.
        let has_stage_peaks = record
            .samples
            .iter()
            .any(|s| s.key.ends_with("/peak_bytes"));
        let hooked = hiermeans_obs::memhook::hook_installed();
        assert_eq!(has_stage_peaks, hooked);
    }

    #[test]
    fn som_record_keys_every_row() {
        let report = SomBenchReport {
            meta: None,
            results: vec![crate::som::SomEpochTiming {
                n: 10_000,
                dim: 8,
                units: 484,
                epochs: 12,
                cold_ms: 2_000.0,
            }],
            stream: Some(crate::som::StreamTiming {
                n: 1_000_000,
                dim: 8,
                units: 256,
                epochs: 2,
                ms: 5_000.0,
                peak_bytes: Some(4 << 20),
            }),
        };
        let record = record_from_som(&report);
        assert_eq!(record.kind, "bench_som");
        assert_eq!(record.sample("som/n=10000/cold"), Some(2_000.0));
        assert_eq!(record.sample("stream/n=1000000"), Some(5_000.0));
        assert_eq!(
            record.sample("stream/n=1000000/peak_bytes"),
            Some((4 << 20) as f64)
        );
        let keys: Vec<_> = record.samples.iter().map(|s| s.key.as_str()).collect();
        assert_eq!(
            keys,
            [
                "som/n=10000/cold",
                "stream/n=1000000",
                "stream/n=1000000/peak_bytes"
            ]
        );
    }

    #[test]
    fn scale_record_encodes_algorithm_size_keys() {
        let report = ScaleBenchReport {
            meta: None,
            results: vec![ScaleTiming {
                algorithm: "nnchain_active".into(),
                n: 2_000,
                dim: 8,
                ms: 120.0,
            }],
        };
        let record = record_from_scale(&report);
        assert_eq!(record.kind, "bench_scale");
        assert_eq!(record.sample("nnchain_active/n=2000"), Some(120.0));
    }
}
