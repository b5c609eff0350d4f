//! The codebook sweep's BMU searches against an independent scalar scan.
//!
//! [`Som::bmu_batch`], [`Som::bmu`] and [`Som::bmu2`] compute every unit's
//! exact distance with one sweep over the unit-major codebook
//! (`kernels::exact_dists_wt_into`) and scan that row for the best two
//! units. Their observable results — best unit, runner-up and the best
//! distance's bits — must equal the scan written here: each unit's
//! [`euclidean`] distance to its codebook column, visited in ascending
//! index order, a unit replacing the best only when strictly closer.
//! Training and projection run on that sweep, so this equality is what
//! keeps trained maps and trace fingerprints equal to a plain scalar scan.

use hiermeans_linalg::distance::euclidean;
use hiermeans_linalg::{parallel, Matrix};
use hiermeans_som::{Som, SomBuilder, TrainingMode};
use proptest::prelude::*;

fn finite_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-1e2..1e2f64, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data).expect("len matches"))
}

/// The ascending scalar scan over the codebook's columns: the best and
/// second-best units with their distances. A unit replaces the best only
/// when strictly closer, and otherwise the second only when strictly
/// closer than that.
fn scalar_best_two(som: &Som, x: &[f64]) -> ((usize, f64), (usize, f64)) {
    let mut best = (0, f64::INFINITY);
    let mut second = (0, f64::INFINITY);
    for u in 0..som.grid().len() {
        let d = euclidean(x, &som.weights().col(u)).unwrap();
        if d < best.1 {
            second = best;
            best = (u, d);
        } else if d < second.1 {
            second = (u, d);
        }
    }
    (best, second)
}

/// Asserts that every batched hit, and every single-query [`Som::bmu`] and
/// [`Som::bmu2`], equals the scalar scan: unit indices, and the best
/// distance bit for bit.
fn assert_matches_scalar_scan(som: &Som, queries: &Matrix) {
    let hits = som.bmu_batch(queries).unwrap();
    assert_eq!(hits.len(), queries.nrows());
    for (r, hit) in hits.iter().enumerate() {
        let x = queries.row(r);
        let ((best, best_distance), (second, _)) = scalar_best_two(som, x);
        assert_eq!((hit.best, hit.second), (best, second), "row {r}");
        assert_eq!(
            hit.best_distance.to_bits(),
            best_distance.to_bits(),
            "row {r}"
        );
        assert_eq!(som.bmu(x).unwrap(), best, "row {r}");
        assert_eq!(som.bmu2(x).unwrap(), (best, second), "row {r}");
    }
}

proptest! {
    #[test]
    fn bmu_batch_matches_scalar_scan(
        data in finite_matrix(9, 4),
        queries in finite_matrix(17, 4),
        seed in 0u64..1000,
        variant in 0u8..2,
    ) {
        let mode = if variant == 0 { TrainingMode::Online } else { TrainingMode::Batch };
        let som = SomBuilder::new(4, 5)
            .seed(seed)
            .epochs(5)
            .mode(mode)
            .train(&data)
            .unwrap();
        assert_matches_scalar_scan(&som, &data);
        assert_matches_scalar_scan(&som, &queries);
    }
}

#[test]
fn bmu_batch_matches_scalar_scan_on_the_parallel_path() {
    // 300 rows cross the batched search's parallel threshold; four forced
    // workers run the chunked path even on a one-core machine.
    let rows: Vec<Vec<f64>> = (0..300)
        .map(|i| {
            let t = f64::from(i);
            vec![(t * 0.37).sin() * 9.0, (t * 0.11).cos() * 7.0, t % 13.0]
        })
        .collect();
    let data = Matrix::from_rows(&rows).unwrap();
    let som = SomBuilder::new(6, 5)
        .seed(3)
        .epochs(4)
        .mode(TrainingMode::Batch)
        .train(&data)
        .unwrap();
    parallel::set_worker_override(Some(4));
    assert_matches_scalar_scan(&som, &data);
    parallel::set_worker_override(None);
}

#[test]
fn documents_with_a_legacy_kernel_policy_field_load_and_map_identically() {
    let data = Matrix::from_rows(&[
        vec![0.0, 0.0],
        vec![1.0, 0.5],
        vec![0.5, 1.0],
        vec![1.0, 1.0],
    ])
    .unwrap();
    let som = SomBuilder::new(3, 3)
        .seed(1)
        .epochs(4)
        .train(&data)
        .unwrap();
    let json = serde_json::to_string(&som).unwrap();
    assert!(!json.contains("kernel_policy"), "{json}");
    let back: Som = serde_json::from_str(&json).unwrap();
    assert_eq!(back, som);
    // Maps written before the search path was fixed carry the retired
    // `kernel_policy` field; it is ignored on load.
    for legacy_value in ["Scalar", "Blocked"] {
        let mut value: serde::Value = serde_json::from_str(&json).unwrap();
        let serde::Value::Object(entries) = &mut value else {
            panic!("expected an object");
        };
        entries.push((
            "kernel_policy".to_string(),
            serde::Value::Str(legacy_value.to_string()),
        ));
        let legacy_json = serde_json::to_string(&value).unwrap();
        assert!(legacy_json.contains("kernel_policy"));
        let legacy: Som = serde_json::from_str(&legacy_json).unwrap();
        assert_eq!(legacy, som, "{legacy_value}");
        assert_eq!(
            legacy.map_rows(&data).unwrap(),
            som.map_rows(&data).unwrap()
        );
        assert_eq!(
            legacy.bmu_batch(&data).unwrap(),
            som.bmu_batch(&data).unwrap()
        );
    }
}
