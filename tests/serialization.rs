//! Serialization round-trips across the public data structures: trained
//! models and analysis artifacts must survive JSON persistence bit-exactly
//! (serde_json's `float_roundtrip` feature is enabled workspace-wide).

use hiermeans::cluster::{agglomerative, ClusterAssignment, Dendrogram, Linkage};
use hiermeans::core::analysis::SuiteAnalysis;
use hiermeans::core::report::StudyReport;
use hiermeans::linalg::Matrix;
use hiermeans::obs::Collector;
use hiermeans::som::{Som, SomBuilder};
use hiermeans::workload::execution::SpeedupTable;
use hiermeans::workload::measurement::Characterization;
use hiermeans::workload::{BenchmarkSuite, Machine};

fn points() -> Matrix {
    Matrix::from_rows(&[
        vec![0.0, 0.0],
        vec![0.5, 0.1],
        vec![5.0, 5.0],
        vec![5.5, 5.2],
        vec![9.0, 0.0],
    ])
    .unwrap()
}

#[test]
fn matrix_roundtrip() {
    let m = points();
    let json = serde_json::to_string(&m).unwrap();
    let back: Matrix = serde_json::from_str(&json).unwrap();
    assert_eq!(m, back);
}

#[test]
fn trained_som_roundtrip() {
    let som = SomBuilder::new(4, 4)
        .seed(11)
        .epochs(30)
        .train(&points())
        .unwrap();
    let json = serde_json::to_string(&som).unwrap();
    let back: Som = serde_json::from_str(&json).unwrap();
    assert_eq!(som.weights(), back.weights());
    assert_eq!(som.grid(), back.grid());
    // The deserialized map answers BMU queries identically.
    for row in points().rows_iter() {
        assert_eq!(som.bmu(row).unwrap(), back.bmu(row).unwrap());
    }
}

#[test]
fn dendrogram_roundtrip() {
    let d = agglomerative::cluster(&points(), Linkage::Complete, &Collector::disabled()).unwrap();
    let json = serde_json::to_string(&d).unwrap();
    let back: Dendrogram = serde_json::from_str(&json).unwrap();
    assert_eq!(d, back);
    for k in 1..=5 {
        assert_eq!(d.cut_into(k).unwrap(), back.cut_into(k).unwrap());
    }
}

#[test]
fn assignment_roundtrip() {
    let a = ClusterAssignment::from_labels(&[0, 1, 0, 2, 1]).unwrap();
    let json = serde_json::to_string(&a).unwrap();
    let back: ClusterAssignment = serde_json::from_str(&json).unwrap();
    assert_eq!(a, back);
}

#[test]
fn dendrogram_json_is_validated_on_parse() {
    let parse = |merges: &str, n_leaves: usize| {
        serde_json::from_str::<Dendrogram>(&format!(
            r#"{{"n_leaves":{n_leaves},"merges":[{merges}]}}"#
        ))
    };
    // An id no merge has created yet: without validation, `cut_into`
    // indexes out of bounds.
    assert!(parse(r#"{"left":0,"right":5,"distance":1.0,"size":2}"#, 2).is_err());
    // Leaf 0 merged twice.
    assert!(parse(
        r#"{"left":0,"right":1,"distance":1.0,"size":2},
           {"left":0,"right":2,"distance":2.0,"size":2}"#,
        3
    )
    .is_err());
    // Too few merges for the leaf count, and no leaves at all.
    assert!(parse(r#"{"left":0,"right":1,"distance":1.0,"size":2}"#, 3).is_err());
    assert!(parse("", 0).is_err());
    // A well-formed document parses into the tree it describes.
    let back = parse(
        r#"{"left":0,"right":1,"distance":1.0,"size":2},
           {"left":3,"right":2,"distance":2.0,"size":3}"#,
        3,
    )
    .unwrap();
    assert_eq!(back.merge_distances(), vec![1.0, 2.0]);
    assert_eq!(back.cut_into(1).unwrap().n_clusters(), 1);
    assert_eq!(back.cut_into(2).unwrap().labels(), &[0, 0, 1]);
}

#[test]
fn suite_and_speedups_roundtrip() {
    let suite = BenchmarkSuite::paper();
    let json = serde_json::to_string(&suite).unwrap();
    let back: BenchmarkSuite = serde_json::from_str(&json).unwrap();
    assert_eq!(suite, back);

    let table = SpeedupTable::paper_exact();
    let json = serde_json::to_string(&table).unwrap();
    let back: SpeedupTable = serde_json::from_str(&json).unwrap();
    assert_eq!(table, back);
    assert_eq!(
        table.geometric_mean(Machine::A).unwrap(),
        back.geometric_mean(Machine::A).unwrap()
    );
}

#[test]
fn study_report_roundtrip_all_characterizations() {
    for ch in Characterization::paper_set() {
        let analysis = SuiteAnalysis::paper(ch).unwrap();
        let report = StudyReport::from_analysis(&analysis).unwrap();
        let back = StudyReport::from_json(&report.to_json().unwrap()).unwrap();
        assert_eq!(report, back, "{ch}");
    }
}
