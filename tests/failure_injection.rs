//! Failure injection: malformed inputs must surface as typed errors through
//! the public API — never panics.

use hiermeans::cluster::{agglomerative, ClusterError, KMeans, KMeansConfig, Linkage};
use hiermeans::core::hierarchical::hgm;
use hiermeans::core::means::{geometric_mean, Mean};
use hiermeans::core::pipeline::{run_pipeline, PipelineConfig};
use hiermeans::core::CoreError;
use hiermeans::linalg::distance::Metric;
use hiermeans::linalg::scale::Standardizer;
use hiermeans::linalg::{LinalgError, Matrix};
use hiermeans::obs::Collector;
use hiermeans::som::{SomBuilder, SomError};
use hiermeans::workload::execution::{ExecutionSimulator, SpeedupTable};
use hiermeans::workload::BenchmarkSuite;

#[test]
fn means_reject_bad_values() {
    assert!(matches!(
        geometric_mean(&[]).unwrap_err(),
        CoreError::EmptyInput
    ));
    for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let err = geometric_mean(&[1.0, bad]).unwrap_err();
        assert!(
            matches!(err, CoreError::InvalidValue { index: 1, .. }),
            "{bad}"
        );
    }
}

#[test]
fn hierarchical_means_reject_bad_partitions() {
    let v = [1.0, 2.0, 3.0];
    for clusters in [
        vec![],                       // no clusters
        vec![vec![0usize, 1]],        // missing index 2
        vec![vec![0, 1], vec![1, 2]], // duplicate
        vec![vec![0, 1, 2], vec![]],  // empty cluster
        vec![vec![0, 1, 2, 7]],       // out of range
    ] {
        assert!(matches!(
            hgm(&v, &clusters).unwrap_err(),
            CoreError::InvalidClusters { .. }
        ));
    }
}

#[test]
fn weighted_means_reject_bad_weights() {
    let v = [1.0, 2.0];
    for weights in [
        vec![1.0],
        vec![-1.0, 1.0],
        vec![0.0, 0.0],
        vec![f64::NAN, 1.0],
    ] {
        assert!(matches!(
            Mean::Geometric.compute_weighted(&v, &weights).unwrap_err(),
            CoreError::InvalidWeights { .. }
        ));
    }
}

#[test]
fn som_rejects_degenerate_inputs() {
    let data = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
    assert!(matches!(
        SomBuilder::new(0, 5).train(&data).unwrap_err(),
        SomError::InvalidConfig { .. }
    ));
    assert!(matches!(
        SomBuilder::new(3, 3).epochs(0).train(&data).unwrap_err(),
        SomError::InvalidConfig { .. }
    ));
    let empty = Matrix::zeros(0, 2);
    assert!(matches!(
        SomBuilder::new(3, 3).train(&empty).unwrap_err(),
        SomError::EmptyData
    ));
    let mut nan = data.clone();
    nan[(0, 0)] = f64::NAN;
    // Stage-boundary validation reports the exact offending cell.
    match SomBuilder::new(3, 3).train(&nan).unwrap_err() {
        SomError::InvalidData { report } => {
            assert_eq!(report.non_finite_cells(), vec![(0, 0)]);
        }
        other => panic!("expected InvalidData, got {other:?}"),
    }
}

#[test]
fn clustering_rejects_bad_distance_matrices() {
    let bad = Matrix::from_rows(&[vec![0.0, 1.0], vec![2.0, 0.0]]).unwrap();
    assert!(matches!(
        agglomerative::cluster_from_distances(&bad, Linkage::Complete, &Collector::disabled())
            .unwrap_err(),
        ClusterError::InvalidDistanceMatrix { .. }
    ));
    let nan_pts = Matrix::from_rows(&[vec![f64::NAN], vec![1.0]]).unwrap();
    assert!(agglomerative::cluster(
        &nan_pts,
        Metric::Euclidean,
        Linkage::Complete,
        &Collector::disabled()
    )
    .is_err());
}

#[test]
fn kmeans_rejects_bad_configs() {
    let pts = Matrix::from_rows(&[vec![0.0], vec![1.0]]).unwrap();
    assert!(matches!(
        KMeans::fit(&pts, KMeansConfig::new(0)).unwrap_err(),
        ClusterError::InvalidClusterCount { .. }
    ));
    assert!(KMeans::fit(&pts, KMeansConfig::new(3)).is_err());
}

#[test]
fn pipeline_propagates_stage_errors() {
    let empty = Matrix::zeros(0, 4);
    assert!(matches!(
        run_pipeline(&empty, &PipelineConfig::default()).unwrap_err(),
        CoreError::Som(_)
    ));
}

#[test]
fn simulator_rejects_bad_parameters() {
    assert!(ExecutionSimulator::paper().with_runs(0).is_err());
    assert!(ExecutionSimulator::paper().with_noise(-1.0).is_err());
    assert!(ExecutionSimulator::paper()
        .speedup_table()
        .unwrap()
        .geometric_mean(hiermeans::workload::Machine::A)
        .is_ok());
}

#[test]
fn speedup_table_rejects_nonpositive_scores() {
    let suite = BenchmarkSuite::paper();
    let mut a = vec![1.0; 13];
    a[3] = 0.0;
    assert!(SpeedupTable::new(suite, a, vec![1.0; 13]).is_err());
}

#[test]
fn standardizer_errors_are_typed() {
    let one_row = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
    assert!(matches!(
        Standardizer::fit(&one_row).unwrap_err(),
        LinalgError::InvalidParameter { .. }
    ));
}

#[test]
fn errors_format_and_chain() {
    // Every error type implements Display + Error with sources.
    let err = run_pipeline(&Matrix::zeros(0, 1), &PipelineConfig::default()).unwrap_err();
    let msg = err.to_string();
    assert!(!msg.is_empty());
    let mut source: Option<&dyn std::error::Error> = std::error::Error::source(&err);
    let mut depth = 0;
    while let Some(s) = source {
        depth += 1;
        source = s.source();
    }
    assert!(depth <= 4, "error chains stay shallow");
}
