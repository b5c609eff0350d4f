//! End-to-end observability guarantees over the pipeline:
//!
//! * A no-op (disabled) collector changes no pipeline output.
//! * The deterministic trace projection is bitwise identical between
//!   serial and parallel executions — same span tree, same counter totals,
//!   same epoch telemetry and merge trajectory.
//! * The convergence verdict flags the under-trained configuration that
//!   once silently corrupted machine B's SAR clustering (100 epochs), and
//!   passes the paper's 200-epoch default.

use hiermeans_core::analysis::SuiteAnalysis;
use hiermeans_core::pipeline::{run_pipeline, PipelineConfig};
use hiermeans_linalg::{parallel, Matrix};
use hiermeans_obs::{stages, Collector};
use hiermeans_workload::charvec::CharacteristicVectors;
use hiermeans_workload::measurement::Characterization;
use hiermeans_workload::sar::SarCollector;
use hiermeans_workload::Machine;
use proptest::prelude::*;

fn machine_b_vectors() -> CharacteristicVectors {
    let dataset = SarCollector::paper().collect(Machine::B).unwrap();
    CharacteristicVectors::from_sar(&dataset).unwrap()
}

fn traced_config(epochs: usize) -> (PipelineConfig, Collector) {
    let collector = Collector::enabled();
    let config = PipelineConfig {
        epochs,
        collector: collector.clone(),
        ..PipelineConfig::default()
    };
    (config, collector)
}

#[test]
fn under_trained_run_flagged_and_default_passes() {
    let vectors = machine_b_vectors();
    // The PR-1 regression shape: 100 epochs silently under-converges
    // machine B's SAR map. The verdict must catch it.
    let (config, collector) = traced_config(100);
    run_pipeline(vectors.matrix(), &config).unwrap();
    let verdict = collector.report().unwrap().convergence.unwrap();
    assert!(
        !verdict.converged,
        "100 epochs must be flagged: {}",
        verdict.reason
    );
    assert!(
        verdict.reason.contains("under-converged"),
        "{}",
        verdict.reason
    );

    // The paper default (200 epochs) must pass the same gate.
    let (config, collector) = traced_config(PipelineConfig::default().epochs);
    run_pipeline(vectors.matrix(), &config).unwrap();
    let verdict = collector.report().unwrap().convergence.unwrap();
    assert!(
        verdict.converged,
        "default epochs must converge: {}",
        verdict.reason
    );
}

#[test]
fn noop_collector_changes_no_output() {
    let vectors = machine_b_vectors();
    let plain = run_pipeline(vectors.matrix(), &PipelineConfig::default()).unwrap();
    let (config, _collector) = traced_config(PipelineConfig::default().epochs);
    let traced = run_pipeline(vectors.matrix(), &config).unwrap();
    assert_eq!(plain.som().weights(), traced.som().weights());
    assert_eq!(plain.positions(), traced.positions());
    assert_eq!(plain.dendrogram(), traced.dendrogram());
}

#[test]
fn trace_fingerprint_identical_serial_vs_parallel() {
    let vectors = machine_b_vectors();
    let fingerprint = |workers: Option<usize>| {
        parallel::set_worker_override(workers);
        let (config, collector) = traced_config(60);
        run_pipeline(vectors.matrix(), &config).unwrap();
        parallel::set_worker_override(None);
        collector.report().unwrap().fingerprint()
    };
    let serial = fingerprint(Some(1));
    let parallel_run = fingerprint(None);
    let four = fingerprint(Some(4));
    assert_eq!(serial, parallel_run);
    assert_eq!(serial, four);
}

#[test]
fn every_stage_constant_appears_in_the_paper_trace() {
    // `stages::ALL` is the contract between `hiermeans_obs::stages` and the
    // instrumented pipeline: every constant must be a span the full paper
    // study actually emits, so consumers (run-history trace records, the
    // `history --gate` stage timings, dashboards) can never reference a
    // stage that silently drifted away.
    let collector = Collector::enabled();
    SuiteAnalysis::paper_with(Characterization::SarCounters(Machine::A), &collector).unwrap();
    let report = collector.report().unwrap();
    let names: std::collections::HashSet<&str> =
        report.spans.iter().map(|s| s.name.as_str()).collect();
    for stage in stages::ALL {
        assert!(
            names.contains(stage),
            "span {stage} missing from the paper trace; got {names:?}"
        );
    }
}

#[test]
fn lane_intervals_sit_inside_their_attaching_span() {
    let vectors = machine_b_vectors();
    let (config, collector) = traced_config(60);
    let result = run_pipeline(vectors.matrix(), &config).unwrap();
    result.clusters_sweep(2..=8).unwrap();
    let report = collector.report().unwrap();
    assert!(!report.lanes.is_empty(), "traced run recorded no lane sets");
    for lane in &report.lanes {
        let span_id = lane.span.expect("lane sets attach under an open span");
        let span = &report.spans[span_id];
        let span_end = span.start_us + span.duration_us;
        assert!(!lane.intervals.is_empty(), "{}: empty lane set", lane.stage);
        // Span stamps are whole microseconds, rounded down; lane stamps
        // keep the nanoseconds, so compare them rounded down too.
        for iv in &lane.intervals {
            assert!(
                iv.begin_us.floor() >= span.start_us as f64 && iv.end_us.floor() <= span_end as f64,
                "{}: interval [{}, {}] outside span {} [{}, {}]",
                lane.stage,
                iv.begin_us,
                iv.end_us,
                span.name,
                span.start_us,
                span_end
            );
        }
    }
}

fn synthetic(rows: usize, cols: usize, seed: u64) -> Matrix {
    // Small LCG so proptest only has to draw the shape and seed.
    let mut state = seed | 1;
    let data: Vec<f64> = (0..rows * cols)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        })
        .collect();
    Matrix::from_vec(rows, cols, data).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn pipeline_trace_deterministic_across_workers(
        rows in 6usize..20,
        cols in 2usize..6,
        seed in 1u64..1_000_000,
        workers in 2usize..8,
    ) {
        let data = synthetic(rows, cols, seed);
        let small = PipelineConfig {
            som_width: 4,
            som_height: 4,
            epochs: 15,
            ..PipelineConfig::default()
        };
        let run = |override_workers: Option<usize>| {
            parallel::set_worker_override(override_workers);
            let collector = Collector::enabled();
            let config = PipelineConfig {
                collector: collector.clone(),
                ..small.clone()
            };
            let result = run_pipeline(&data, &config).unwrap();
            parallel::set_worker_override(None);
            (result, collector.report().unwrap())
        };
        let (serial_result, serial_report) = run(Some(1));
        let (parallel_result, parallel_report) = run(Some(workers));
        // Same outputs and same deterministic trace projection.
        prop_assert_eq!(serial_result.positions(), parallel_result.positions());
        prop_assert_eq!(serial_result.dendrogram(), parallel_result.dendrogram());
        prop_assert_eq!(serial_report.fingerprint(), parallel_report.fingerprint());

        // And a disabled collector yields the same pipeline output.
        let plain = run_pipeline(&data, &small).unwrap();
        prop_assert_eq!(plain.positions(), serial_result.positions());
        prop_assert_eq!(plain.dendrogram(), serial_result.dendrogram());
    }
}
