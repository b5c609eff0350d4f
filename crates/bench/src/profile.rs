//! The `repro profile` artifact: per-worker timeline profiles of the paper
//! studies.
//!
//! Runs each paper characterization with lane recording on (and per-epoch
//! quality sampling off, so lane intervals cover pipeline work only) and
//! renders two artifacts from one [`TraceDocument`]:
//!
//! * `OBS_profile.json` — the schema-v3 trace report with the `lanes`
//!   field populated: per-stage worker timelines, occupancy, chunk
//!   imbalance histograms, and parallel efficiency.
//! * `OBS_profile.trace.json` — the same timelines in Chrome trace-event
//!   format (`ph: "X"` duration events, one `tid` per worker lane, spans on
//!   the coordinator lane `tid 0`), loadable directly in Perfetto or
//!   `chrome://tracing`.

use hiermeans_core::analysis::SuiteAnalysis;
use hiermeans_linalg::parallel;
use hiermeans_obs::history::BenchMeta;
use hiermeans_obs::{chrome, ObsConfig, ProgressLog, StudyTrace, TraceDocument};

use crate::trace::{paper_studies, progress_collector};

/// Runs every paper study under a profiling collector (lanes on, quality
/// sampling off) and bundles the traces. With a progress log, each study
/// appends its epoch lines there.
///
/// # Errors
///
/// Returns the first study's failure, labeled.
pub fn paper_profile_document(progress: Option<&ProgressLog>) -> Result<TraceDocument, String> {
    let mut studies = Vec::new();
    for (label, characterization) in paper_studies() {
        let config = ObsConfig {
            epoch_quality_stride: 0,
            lanes: true,
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

/// Produces the `repro profile` outputs: the document, the pretty JSON for
/// `OBS_profile.json`, the Chrome trace-event JSON for
/// `OBS_profile.trace.json`, and the rendered stage trees.
///
/// # Errors
///
/// Propagates study and serialization failures.
pub fn profile_artifact(
    progress: Option<&ProgressLog>,
) -> Result<(TraceDocument, String, String, String), String> {
    let document = paper_profile_document(progress)?;
    let json = serde_json::to_string_pretty(&document).map_err(|e| e.to_string())?;
    let chrome_json = chrome::to_chrome_trace(&document);
    chrome::validate(&chrome_json).map_err(|e| format!("chrome trace self-check: {e}"))?;
    let rendered = document.render();
    Ok((document, json, chrome_json, rendered))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiermeans_obs::{stages, Collector};

    /// One cheap profiled study (shared by the assertions below): the full
    /// three-study artifact is exercised by `tests/lanes.rs` and CI.
    fn one_study() -> TraceDocument {
        let collector = Collector::enabled_with(ObsConfig {
            epoch_quality_stride: 0,
            lanes: true,
            memory: true,
            ..ObsConfig::default()
        });
        let (label, ch) = paper_studies().remove(0);
        SuiteAnalysis::paper_with(ch, &collector).unwrap();
        TraceDocument::new(
            parallel::worker_count(),
            vec![StudyTrace {
                label: label.to_owned(),
                trace: collector.report().unwrap(),
            }],
        )
    }

    #[test]
    fn profiled_study_has_lanes_and_valid_chrome_trace() {
        let doc = one_study();
        let trace = &doc.studies[0].trace;
        assert!(!trace.lanes.is_empty(), "profiled run recorded no lanes");
        let online = trace
            .lane(stages::LANE_SOM_ONLINE_EPOCHS)
            .expect("online SOM lane present");
        assert!(online.parallel_efficiency > 0.0);
        let chrome_json = chrome::to_chrome_trace(&doc);
        let events = chrome::validate(&chrome_json).unwrap();
        assert!(events > 0);
    }
}
