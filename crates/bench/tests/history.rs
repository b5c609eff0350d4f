//! End-to-end run-history flow: glue records → JSONL store → trend table,
//! statistical gate, and dashboard, exactly as the `repro` subcommands
//! drive them.
//!
//! The gate scenarios mirror the acceptance criteria: a synthetic history
//! whose latest run doubled every stage timing must FAIL, while a history
//! of deterministic run-to-run jitter must PASS. Both use fixed LCG seeds
//! so the verdicts are reproducible. The records are `trace` records keyed
//! by the real span names, the same shape `repro trace` appends.

use std::path::PathBuf;

use hiermeans_bench::history::{record_from_trace, HISTORY_PATH};
use hiermeans_bench::trace::paper_trace_document;
use hiermeans_obs::dashboard;
use hiermeans_obs::history::{
    append_record, gate, load_history, trend_table, GateConfig, RunRecord,
};
use hiermeans_obs::stages;

/// The per-stage paper-study timings `history --gate` holds CI to, with a
/// typical duration in microseconds for the synthetic stores.
const GATED_STAGES: [(&str, f64); 3] = [
    (stages::PIPELINE, 80_000.0),
    (stages::SOM_TRAIN, 60_000.0),
    (stages::CLUSTER_PAIRWISE, 2_500.0),
];

/// ±4% deterministic jitter around `base`, varying per run index.
fn jittered(base: f64, state: &mut u64) -> f64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1);
    let unit = (*state >> 33) as f64 / (1u64 << 31) as f64; // [0, 1)
    base * (0.96 + 0.08 * unit)
}

/// A `trace` record with one `us` sample per gated stage, each scaled by
/// `factor`.
fn trace_record(factor: f64, state: &mut u64) -> RunRecord {
    let mut record = RunRecord::new("trace", 4);
    for (stage, base_us) in GATED_STAGES {
        record.push(stage, jittered(base_us, state) * factor, "us");
    }
    record
}

/// A store of `runs` jittered trace records, the last one scaled by
/// `last_factor`, written to a scratch JSONL file.
fn synthetic_store(name: &str, runs: usize, last_factor: f64, seed: u64) -> PathBuf {
    let path = std::env::temp_dir().join(format!("hiermeans_history_{name}_{seed}.jsonl"));
    let _ = std::fs::remove_file(&path);
    let mut state = seed;
    for i in 0..runs {
        let factor = if i == runs - 1 { last_factor } else { 1.0 };
        append_record(&path, &trace_record(factor, &mut state)).unwrap();
    }
    path
}

#[test]
fn doubled_latest_run_fails_the_statistical_gate() {
    let path = synthetic_store("doubled", 9, 2.0, 0x5EED_0001);
    let records = load_history(&path).unwrap().records;
    let outcome = gate(&records, &GateConfig::default());
    assert!(
        !outcome.passed,
        "a 2x slowdown must fail:\n{}",
        outcome.render()
    );
    assert!(outcome.render().contains("FAIL"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn jittered_stable_history_passes_the_statistical_gate() {
    let path = synthetic_store("stable", 9, 1.0, 0x5EED_0002);
    let records = load_history(&path).unwrap().records;
    let outcome = gate(&records, &GateConfig::default());
    assert!(
        outcome.passed,
        "normal jitter must pass:\n{}",
        outcome.render()
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn trend_table_names_every_gateable_metric() {
    let path = synthetic_store("trend", 6, 1.0, 0x5EED_0003);
    let records = load_history(&path).unwrap().records;
    let table = trend_table(&records);
    assert!(table.contains("trace"), "{table}");
    for (stage, _) in GATED_STAGES {
        assert!(table.contains(stage), "{stage} missing:\n{table}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn dashboard_payload_round_trips_through_run_records() {
    let path = synthetic_store("dashboard", 5, 1.0, 0x5EED_0004);
    let records = load_history(&path).unwrap().records;
    let html = dashboard::render_dashboard(&records).unwrap();
    // Self-contained single file: no external fetches of any kind.
    for needle in ["src=", "href=", "http://", "https://"] {
        assert!(
            !html.contains(needle),
            "dashboard must not reference {needle}"
        );
    }
    let back = dashboard::extract_payload(&html).unwrap();
    assert_eq!(back, records);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn glue_records_carry_provenance_meta() {
    let record = trace_record(1.0, &mut 0x5EED_0005);
    assert!(!record.meta.git_rev.is_empty());
    assert!(!record.meta.host.is_empty());
    assert!(!record.meta.cargo_profile.is_empty());
    assert_eq!(
        record.schema_version,
        hiermeans_obs::history::HISTORY_SCHEMA_VERSION
    );
}

/// The paper-study timing gate lives in `history --gate` over `repro
/// trace` records. A renamed or dropped span would silently take its stage
/// out of that gate, so the real traced studies must yield a gated `us`
/// sample for every stage it holds.
#[test]
fn paper_trace_record_carries_the_gated_stage_timings() {
    let document = paper_trace_document().unwrap();
    let record = record_from_trace(&document);
    assert_eq!(record.kind, "trace");
    for (stage, _) in GATED_STAGES {
        let sample = record
            .samples
            .iter()
            .find(|s| s.key == stage)
            .unwrap_or_else(|| panic!("no {stage} sample in {:?}", record.samples));
        assert_eq!(sample.unit, "us", "{stage} must be a gated timing");
        assert!(
            sample.value.is_finite() && sample.value >= 0.0,
            "{stage}: {}",
            sample.value
        );
    }
}

#[test]
fn history_path_is_the_documented_store_name() {
    assert_eq!(HISTORY_PATH, "OBS_history.jsonl");
}
