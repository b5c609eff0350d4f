//! The `repro faults` artifact: deterministic fault injection against the
//! three paper studies.
//!
//! Each study is attacked three ways, and every attack must be absorbed —
//! recovered from, or surfaced as the expected typed error — for the suite
//! to pass:
//!
//! * **`nan_cell`** — a NaN is written into one deterministic cell of the
//!   study's characteristic vectors. The stage guard must reject the matrix
//!   with a typed diagnostic naming the exact row/column, not a panic and
//!   not a silently-dropped counter.
//! * **`worker_panic`** — a worker closure panics on one deterministic
//!   chunk of a parallel map over the study's rows. The panic must be
//!   isolated into [`ParallelError::WorkerPanic`] carrying the chunk index,
//!   with no process abort.
//! * **`forced_non_convergence`** — the resilient driver runs with a gate
//!   no attempt can pass ([`RetryPolicy::forced_failure`]). It must retry
//!   deterministically, then degrade to raw-space clustering that still
//!   reproduces the paper's SciMark2 coagulation.
//!
//! The result store is attacked four more ways, each of which must land in
//! the exact typed diagnostic (a [`RejectReason`] or fsck finding), never a
//! failed batch or a panic:
//!
//! * **`torn_tail`** — a record is chopped mid-write (the crash signature
//!   of an interrupted append). `fsck` must classify it as the torn
//!   trailing line and `--repair` must restore a clean store.
//! * **`checksum_mismatch`** — a sealed record's payload is tampered.
//!   Ingestion must quarantine it with the expected/found digests.
//! * **`duplicate_submission`** — the same record is submitted twice. The
//!   second must quarantine as a duplicate carrying the content hash.
//! * **`schema_from_future`** — a record claims a schema version newer
//!   than this build supports. It must quarantine, not misparse.
//!
//! Every scenario runs under its own enabled collector; the injected
//! faults, retries, and degradations land in the `resilience` field of
//! each trace, and the bundle is written as `OBS_faults.json` (same
//! [`TraceDocument`] schema as `OBS_trace.json`).

use hiermeans_core::analysis::paper_vectors;
use hiermeans_core::pipeline::{run_pipeline, PipelineConfig};
use hiermeans_core::resilient::{run_pipeline_resilient, RetryPolicy};
use hiermeans_core::CoreError;
use hiermeans_linalg::parallel::{self, Chunking, ParallelError};
use hiermeans_linalg::validate;
use hiermeans_obs::{Collector, ResilienceEvent, StudyTrace, TraceDocument};
use hiermeans_som::SomError;
use hiermeans_store::{
    fsck, ingest_lines, ingest_submissions, Disposition, IngestConfig, RejectReason, ResultStore,
    Submission, STORE_SCHEMA_VERSION,
};
use hiermeans_workload::measurement::{Characterization, SCIMARK2};
use hiermeans_workload::Machine;

/// The paper-reference cluster count each study's raw-space fallback is
/// checked against for SciMark2 coagulation (A and B from Tables IV-V;
/// the method study coagulates at every k in the paper range).
const REFERENCE_K: [(&str, usize); 3] = [
    ("sar_machine_a", 6),
    ("sar_machine_b", 5),
    ("method_utilization", 4),
];

/// The deterministic cell poisoned by the `nan_cell` scenario.
const POISON_ROW: usize = 0;
const POISON_COL: usize = 3;

/// The chunk whose worker panics in the `worker_panic` scenario.
const PANIC_CHUNK: usize = 1;

/// The faulted studies with their stable `OBS_faults.json` labels.
#[must_use]
pub fn fault_studies() -> Vec<(&'static str, Characterization)> {
    vec![
        ("sar_machine_a", Characterization::SarCounters(Machine::A)),
        ("sar_machine_b", Characterization::SarCounters(Machine::B)),
        ("method_utilization", Characterization::MethodUtilization),
    ]
}

/// Injects a NaN into one cell of the study vectors and checks the stage
/// guard reports exactly that cell, as a typed error, through both the
/// validator and the full pipeline.
fn inject_nan(label: &str, characterization: Characterization) -> Result<StudyTrace, String> {
    let collector = Collector::enabled();
    let vectors = paper_vectors(characterization, &collector)
        .map_err(|e| format!("{label}/nan_cell: characterization failed: {e}"))?;
    let mut poisoned = vectors.matrix().clone();
    let col = POISON_COL.min(poisoned.ncols().saturating_sub(1));
    poisoned[(POISON_ROW, col)] = f64::NAN;
    collector.record_resilience(ResilienceEvent::FaultInjected {
        fault: "nan_cell".to_owned(),
        detail: format!("set cell ({POISON_ROW}, {col}) to NaN"),
    });
    let report = validate::validate(&poisoned);
    if report.non_finite_cells() != vec![(POISON_ROW, col)] {
        return Err(format!(
            "{label}/nan_cell: validator reported {:?}, expected [({POISON_ROW}, {col})]",
            report.non_finite_cells()
        ));
    }
    let config = PipelineConfig {
        collector: collector.clone(),
        ..PipelineConfig::default()
    };
    match run_pipeline(&poisoned, &config) {
        Err(CoreError::Som(SomError::InvalidData { report }))
            if report.non_finite_cells() == vec![(POISON_ROW, col)] =>
        {
            collector.record_resilience(ResilienceEvent::Recovered {
                fault: "nan_cell".to_owned(),
                detail: format!(
                    "pipeline rejected the matrix with a typed diagnostic at ({POISON_ROW}, {col})"
                ),
            });
        }
        Err(other) => {
            return Err(format!(
                "{label}/nan_cell: expected InvalidData naming ({POISON_ROW}, {col}), got {other}"
            ))
        }
        Ok(_) => {
            return Err(format!(
                "{label}/nan_cell: pipeline accepted a NaN-poisoned matrix"
            ))
        }
    }
    finish(label, "nan_cell", collector)
}

/// Panics a worker on one deterministic chunk of a parallel map over the
/// study's rows and checks the panic surfaces as a typed
/// [`ParallelError::WorkerPanic`] with the chunk index, in chunk order.
fn inject_worker_panic(
    label: &str,
    characterization: Characterization,
) -> Result<StudyTrace, String> {
    let collector = Collector::enabled();
    let vectors = paper_vectors(characterization, &collector)
        .map_err(|e| format!("{label}/worker_panic: characterization failed: {e}"))?;
    let rows = vectors.matrix().nrows();
    // One row per chunk: chunk index == row index, so the faulted chunk is
    // unambiguous for any worker count.
    let chunking = Chunking::new(1, 2);
    collector.record_resilience(ResilienceEvent::FaultInjected {
        fault: "worker_panic".to_owned(),
        detail: format!("worker panics on chunk {PANIC_CHUNK} of {rows}"),
    });
    let matrix = vectors.matrix();
    let result = parallel::try_map_chunks(rows, chunking, None, |range| {
        if range.contains(&PANIC_CHUNK) {
            panic!("injected fault in chunk {PANIC_CHUNK}");
        }
        let sum: f64 = range
            .clone()
            .map(|r| matrix.row(r).iter().sum::<f64>())
            .sum();
        Ok::<f64, CoreError>(sum)
    });
    match result {
        Err(ParallelError::WorkerPanic { chunk, payload }) if chunk == PANIC_CHUNK => {
            collector.record_resilience(ResilienceEvent::Recovered {
                fault: "worker_panic".to_owned(),
                detail: format!(
                    "panic isolated as WorkerPanic {{ chunk: {chunk} }} (payload: {payload})"
                ),
            });
        }
        Err(other) => {
            return Err(format!(
                "{label}/worker_panic: expected WorkerPanic on chunk {PANIC_CHUNK}, got {other}"
            ))
        }
        Ok(_) => return Err(format!("{label}/worker_panic: the injected panic vanished")),
    }
    finish(label, "worker_panic", collector)
}

/// Forces the convergence gate to fail every attempt and checks the driver
/// retries deterministically, degrades to raw-space clustering, and the
/// fallback still reproduces the paper's SciMark2 coagulation.
fn inject_non_convergence(
    label: &str,
    characterization: Characterization,
) -> Result<StudyTrace, String> {
    let collector = Collector::enabled();
    let vectors = paper_vectors(characterization, &collector)
        .map_err(|e| format!("{label}/forced_non_convergence: characterization failed: {e}"))?;
    let policy = RetryPolicy::forced_failure();
    collector.record_resilience(ResilienceEvent::FaultInjected {
        fault: "forced_non_convergence".to_owned(),
        detail: format!(
            "convergence tolerance forced negative; {} attempts available",
            policy.max_attempts
        ),
    });
    let config = PipelineConfig {
        collector: collector.clone(),
        ..PipelineConfig::default()
    };
    let run = run_pipeline_resilient(vectors.matrix(), &config, &policy)
        .map_err(|e| format!("{label}/forced_non_convergence: driver failed hard: {e}"))?;
    if !run.degraded() {
        return Err(format!(
            "{label}/forced_non_convergence: an attempt passed a gate that admits nothing"
        ));
    }
    if run.attempts < 2 {
        return Err(format!(
            "{label}/forced_non_convergence: expected at least one retry, got {} attempt(s)",
            run.attempts
        ));
    }
    let k = REFERENCE_K
        .iter()
        .find(|(l, _)| *l == label)
        .map_or(4, |(_, k)| *k);
    let assignment = run
        .clusters(k)
        .map_err(|e| format!("{label}/forced_non_convergence: cut at k={k} failed: {e}"))?;
    let fft = assignment.labels()[SCIMARK2[0]];
    if !SCIMARK2.iter().all(|&w| assignment.labels()[w] == fft) {
        return Err(format!(
            "{label}/forced_non_convergence: raw-space fallback lost SciMark2 coagulation at k={k}"
        ));
    }
    collector.record_resilience(ResilienceEvent::Recovered {
        fault: "forced_non_convergence".to_owned(),
        detail: format!(
            "degraded after {} attempts; SciMark2 coagulation holds at k={k}",
            run.attempts
        ),
    });
    finish(label, "forced_non_convergence", collector)
}

/// A scratch result store for one storage-fault scenario, cleared of any
/// residue from earlier runs.
fn fault_store(fault: &str) -> Result<ResultStore, String> {
    let dir = std::env::temp_dir().join(format!("hm_faults_{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let store = ResultStore::new(dir.join(format!("{fault}.jsonl")));
    for p in [
        store.path().to_path_buf(),
        store.quarantine_path(),
        store.lock_path(),
    ] {
        let _ = std::fs::remove_file(p);
    }
    Ok(store)
}

/// A small sealed submission for the storage scenarios.
fn store_submission(machine: &str) -> Result<Submission, String> {
    Submission::new(
        machine,
        "faults",
        vec!["w0".to_owned(), "w1".to_owned()],
        vec![2.0, 3.0],
        vec![vec![0.1, 0.2], vec![0.9, 0.8]],
    )
    .sealed()
}

/// Chops a record mid-write — the crash signature of an interrupted
/// append — and checks `fsck` classifies it as the torn trailing line and
/// repairs back to a clean store without touching the good record.
fn inject_torn_tail(label: &str) -> Result<StudyTrace, String> {
    let collector = Collector::enabled();
    let store = fault_store("torn_tail")?;
    let good = serde_json::to_string(&store_submission("survivor")?)
        .map_err(|e| format!("{label}/torn_tail: {e}"))?;
    let torn = serde_json::to_string(&store_submission("interrupted")?)
        .map_err(|e| format!("{label}/torn_tail: {e}"))?;
    let torn = &torn[..torn.len() / 2];
    std::fs::write(store.path(), format!("{good}\n{torn}"))
        .map_err(|e| format!("{label}/torn_tail: writing store: {e}"))?;
    collector.record_resilience(ResilienceEvent::FaultInjected {
        fault: "torn_tail".to_owned(),
        detail: format!("chopped the trailing record to {} bytes", torn.len()),
    });
    let report = fsck(&store, true, &collector)?;
    let diagnosed = report.problems.len() == 1
        && report.problems[0].torn_tail
        && report.problems[0].reason.kind() == "malformed"
        && report.problems[0].line == 2;
    if !diagnosed {
        return Err(format!(
            "{label}/torn_tail: expected one torn-tail malformed finding at line 2, got {:?}",
            report.problems
        ));
    }
    let after = store.load()?;
    if after.records.len() != 1 || after.torn.is_some() || !fsck(&store, false, &collector)?.clean()
    {
        return Err(format!(
            "{label}/torn_tail: repair did not restore a clean one-record store"
        ));
    }
    collector.record_resilience(ResilienceEvent::Recovered {
        fault: "torn_tail".to_owned(),
        detail: "fsck diagnosed the torn trailing line and repaired to a clean store".to_owned(),
    });
    finish(label, "torn_tail", collector)
}

/// Tampers a sealed record's payload and checks ingestion quarantines it
/// with the expected/found digests instead of failing the batch.
fn inject_checksum_mismatch(label: &str) -> Result<StudyTrace, String> {
    let collector = Collector::enabled();
    let store = fault_store("checksum_mismatch")?;
    let mut tampered = store_submission("tampered")?;
    tampered.speedups[0] *= 2.0; // payload changed after sealing
    let line =
        serde_json::to_string(&tampered).map_err(|e| format!("{label}/checksum_mismatch: {e}"))?;
    collector.record_resilience(ResilienceEvent::FaultInjected {
        fault: "checksum_mismatch".to_owned(),
        detail: "doubled a sealed record's first speedup".to_owned(),
    });
    let report = ingest_lines(
        &store,
        &format!("{line}\n"),
        &IngestConfig::default(),
        &collector,
    )?;
    match report.outcomes.as_slice() {
        [outcome] => match &outcome.disposition {
            Disposition::Quarantined {
                reason: RejectReason::ChecksumMismatch { expected, found },
            } if expected != found => {}
            other => {
                let what = format!("expected a checksum_mismatch quarantine, got {other:?}");
                return Err(format!("{label}/checksum_mismatch: {what}"));
            }
        },
        other => {
            return Err(format!(
                "{label}/checksum_mismatch: expected one outcome, got {other:?}"
            ))
        }
    }
    let quarantined = store.load_quarantine()?.records;
    if !store.load()?.records.is_empty() || quarantined.len() != 1 || quarantined[0].raw != line {
        return Err(format!(
            "{label}/checksum_mismatch: the tampered record must land in quarantine, verbatim"
        ));
    }
    collector.record_resilience(ResilienceEvent::Recovered {
        fault: "checksum_mismatch".to_owned(),
        detail: "quarantined with expected/found digests; batch unaffected".to_owned(),
    });
    finish(label, "checksum_mismatch", collector)
}

/// Submits the same record twice and checks the second copy quarantines as
/// a duplicate carrying the content hash.
fn inject_duplicate_submission(label: &str) -> Result<StudyTrace, String> {
    let collector = Collector::enabled();
    let store = fault_store("duplicate_submission")?;
    let sub = store_submission("echoed")?;
    collector.record_resilience(ResilienceEvent::FaultInjected {
        fault: "duplicate_submission".to_owned(),
        detail: "the same sealed record submitted twice in one batch".to_owned(),
    });
    let report = ingest_submissions(
        &store,
        &[sub.clone(), sub.clone()],
        &IngestConfig::default(),
        &collector,
    )?;
    let duplicate_caught = report.accepted() == 1
        && matches!(
            &report.outcomes[1].disposition,
            Disposition::Quarantined {
                reason: RejectReason::Duplicate { content_hash },
            } if *content_hash == sub.content_hash()
        );
    if !duplicate_caught {
        return Err(format!(
            "{label}/duplicate_submission: expected accept + duplicate quarantine, got {:?}",
            report.outcomes
        ));
    }
    if store.load()?.records.len() != 1 {
        return Err(format!(
            "{label}/duplicate_submission: the store must hold exactly one copy"
        ));
    }
    collector.record_resilience(ResilienceEvent::Recovered {
        fault: "duplicate_submission".to_owned(),
        detail: "second copy quarantined as duplicate with its content hash".to_owned(),
    });
    finish(label, "duplicate_submission", collector)
}

/// Submits a record claiming a schema version newer than this build
/// supports and checks it quarantines with both versions named.
fn inject_schema_future(label: &str) -> Result<StudyTrace, String> {
    let collector = Collector::enabled();
    let store = fault_store("schema_future")?;
    let mut futuristic = store_submission("time-traveler")?;
    futuristic.schema_version = STORE_SCHEMA_VERSION + 1;
    futuristic.seal()?; // a valid seal: only the version is from the future
    collector.record_resilience(ResilienceEvent::FaultInjected {
        fault: "schema_from_future".to_owned(),
        detail: format!(
            "record claims schema v{} (supported: v{STORE_SCHEMA_VERSION})",
            futuristic.schema_version
        ),
    });
    let report = ingest_submissions(&store, &[futuristic], &IngestConfig::default(), &collector)?;
    let rejected = matches!(
        report.outcomes.as_slice(),
        [outcome] if matches!(
            &outcome.disposition,
            Disposition::Quarantined {
                reason: RejectReason::SchemaFromFuture { version, supported },
            } if *version == STORE_SCHEMA_VERSION + 1 && *supported == STORE_SCHEMA_VERSION
        )
    );
    if !rejected || !store.load()?.records.is_empty() {
        return Err(format!(
            "{label}/schema_from_future: expected a schema_from_future quarantine, got {:?}",
            report.outcomes
        ));
    }
    collector.record_resilience(ResilienceEvent::Recovered {
        fault: "schema_from_future".to_owned(),
        detail: "quarantined with both versions named; nothing misparsed".to_owned(),
    });
    finish(label, "schema_from_future", collector)
}

/// Runs the four storage-fault scenarios against a scratch result store.
///
/// # Errors
///
/// Returns the first violated expectation, labeled `result_store/fault`.
pub fn store_fault_studies() -> Result<Vec<StudyTrace>, String> {
    let label = "result_store";
    Ok(vec![
        inject_torn_tail(label)?,
        inject_checksum_mismatch(label)?,
        inject_duplicate_submission(label)?,
        inject_schema_future(label)?,
    ])
}

/// Bundles a scenario's collector into a labeled study trace, checking the
/// trace actually recorded the injection.
fn finish(label: &str, fault: &str, collector: Collector) -> Result<StudyTrace, String> {
    let trace = collector
        .report()
        .ok_or_else(|| format!("{label}/{fault}: enabled collector yielded no report"))?;
    let injected = trace
        .resilience
        .iter()
        .any(|e| matches!(e, ResilienceEvent::FaultInjected { fault: f, .. } if f == fault));
    let recovered = trace
        .resilience
        .iter()
        .any(|e| matches!(e, ResilienceEvent::Recovered { fault: f, .. } if f == fault));
    if !injected || !recovered {
        return Err(format!(
            "{label}/{fault}: trace is missing the injection/recovery record"
        ));
    }
    Ok(StudyTrace {
        label: format!("{label}/{fault}"),
        trace,
    })
}

/// Runs the full fault suite: every scenario against every paper study.
///
/// # Errors
///
/// Returns the first violated expectation, labeled `study/fault`.
pub fn fault_suite_document() -> Result<TraceDocument, String> {
    let mut studies = Vec::new();
    for (label, characterization) in fault_studies() {
        studies.push(inject_nan(label, characterization)?);
        studies.push(inject_worker_panic(label, characterization)?);
        studies.push(inject_non_convergence(label, characterization)?);
    }
    studies.extend(store_fault_studies()?);
    Ok(TraceDocument::new(parallel::worker_count(), studies))
}

/// Produces the `repro faults` output: the document, its pretty JSON, and
/// a human-readable summary of every scenario.
///
/// # Errors
///
/// Propagates scenario and serialization failures.
pub fn faults_artifact() -> Result<(TraceDocument, String, String), String> {
    let document = fault_suite_document()?;
    let json = serde_json::to_string_pretty(&document).map_err(|e| e.to_string())?;
    let mut rendered = format!(
        "FAULT INJECTION (schema v{}, {} workers): {} scenarios absorbed\n",
        document.schema_version,
        document.workers,
        document.studies.len()
    );
    for study in &document.studies {
        rendered.push_str(&format!("\nscenario {}\n", study.label));
        for event in &study.trace.resilience {
            rendered.push_str(&format!("  {event}\n"));
        }
    }
    Ok((document, json, rendered))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_labels_are_stable() {
        let labels: Vec<&str> = fault_studies().into_iter().map(|(l, _)| l).collect();
        assert_eq!(
            labels,
            ["sar_machine_a", "sar_machine_b", "method_utilization"]
        );
    }

    #[test]
    fn nan_scenario_names_the_cell() {
        let study = inject_nan("sar_machine_a", Characterization::SarCounters(Machine::A))
            .expect("nan fault must be absorbed");
        assert!(study
            .trace
            .resilience
            .iter()
            .any(|e| matches!(e, ResilienceEvent::Recovered { .. })));
    }

    #[test]
    fn worker_panic_scenario_is_isolated() {
        let study = inject_worker_panic("method_utilization", Characterization::MethodUtilization)
            .expect("worker panic must be isolated");
        assert!(study.label.ends_with("/worker_panic"));
    }

    #[test]
    fn storage_faults_are_absorbed_with_typed_diagnostics() {
        let studies = store_fault_studies().expect("every storage fault must be absorbed");
        let labels: Vec<&str> = studies.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "result_store/torn_tail",
                "result_store/checksum_mismatch",
                "result_store/duplicate_submission",
                "result_store/schema_from_future",
            ]
        );
        // Each trace carries its injection, its recovery, and the store
        // events narrated by the ingest/fsck machinery.
        for study in &studies {
            assert!(
                study
                    .trace
                    .resilience
                    .iter()
                    .any(|e| matches!(e, ResilienceEvent::Recovered { .. })),
                "{}: no recovery recorded",
                study.label
            );
        }
        assert!(
            studies[0].trace.resilience.iter().any(
                |e| matches!(e, ResilienceEvent::Store { action, .. } if action == "fsck_repair")
            ),
            "torn-tail repair must narrate itself as a store event"
        );
    }
}
