//! The `repro trace` artifact: the full paper study, traced.
//!
//! Runs each paper characterization with an enabled observability collector
//! (per-epoch SOM quality sampling on), bundles the three traces into one
//! [`TraceDocument`], and renders both the stable `OBS_trace.json` artifact
//! and a human-readable stage tree. The document doubles as a convergence
//! gate: CI fails the build when any study's SOM quality curve did not
//! plateau (see `hiermeans_obs::convergence`).

use hiermeans_core::analysis::SuiteAnalysis;
use hiermeans_linalg::parallel;
use hiermeans_obs::history::BenchMeta;
use hiermeans_obs::{Collector, ObsConfig, ProgressLog, StudyTrace, TraceDocument};
use hiermeans_workload::measurement::Characterization;
use hiermeans_workload::Machine;

/// The traced paper studies with their stable `OBS_trace.json` labels.
#[must_use]
pub fn paper_studies() -> Vec<(&'static str, Characterization)> {
    vec![
        ("sar_machine_a", Characterization::SarCounters(Machine::A)),
        ("sar_machine_b", Characterization::SarCounters(Machine::B)),
        ("method_utilization", Characterization::MethodUtilization),
    ]
}

/// Runs every paper study under a fresh enabled collector and bundles the
/// traces. With a progress log, each study's collector appends its epoch
/// lines there under the study's label; that changes no study output.
///
/// # Errors
///
/// Returns the first study's failure, labeled.
pub fn paper_trace_document(progress: Option<&ProgressLog>) -> Result<TraceDocument, String> {
    let mut studies = Vec::new();
    for (label, characterization) in paper_studies() {
        // Memory telemetry is on for repro runs; the `repro` binary
        // installs the tracking allocator, so spans carry attribution.
        // Memory never feeds the fingerprint, so determinism gates hold.
        let config = ObsConfig {
            memory: true,
            ..ObsConfig::default()
        };
        let collector = progress_collector(config, progress, label);
        SuiteAnalysis::paper_with(characterization, &collector)
            .map_err(|e| format!("{label}: {e}"))?;
        let trace = collector
            .report()
            .expect("enabled collector always yields a report");
        studies.push(StudyTrace {
            label: label.to_owned(),
            trace,
        });
    }
    Ok(TraceDocument::new(parallel::worker_count(), studies).with_meta(BenchMeta::capture()))
}

/// An enabled collector for one labeled run, publishing to `progress`
/// when a log is given.
pub(crate) fn progress_collector(
    config: ObsConfig,
    progress: Option<&ProgressLog>,
    label: &str,
) -> Collector {
    match progress {
        Some(log) => Collector::enabled_live(config, log.publisher(label)),
        None => Collector::enabled_with(config),
    }
}

/// Produces the `repro trace` output: the document, its pretty JSON, and
/// the rendered stage trees.
///
/// # Errors
///
/// Propagates study and serialization failures.
pub fn trace_artifact(
    progress: Option<&ProgressLog>,
) -> Result<(TraceDocument, String, String), String> {
    let document = paper_trace_document(progress)?;
    let json = serde_json::to_string_pretty(&document).map_err(|e| e.to_string())?;
    let rendered = document.render();
    Ok((document, json, rendered))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn study_labels_are_stable() {
        let labels: Vec<&str> = paper_studies().into_iter().map(|(l, _)| l).collect();
        assert_eq!(
            labels,
            ["sar_machine_a", "sar_machine_b", "method_utilization"]
        );
    }
}
