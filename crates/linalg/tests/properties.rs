//! Property-based tests for the linear-algebra substrate.

use hiermeans_linalg::distance::{euclidean, pairwise, pairwise_serial};
use hiermeans_linalg::parallel;
use hiermeans_linalg::scale::{MinMaxScaler, Standardizer};
use hiermeans_linalg::{eigen, pca::Pca, stats, vector, Matrix};
use proptest::prelude::*;

fn finite_vec(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e3..1e3f64, len)
}

fn finite_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-1e3..1e3f64, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data).expect("len matches"))
}

proptest! {
    #[test]
    fn euclidean_metric_axioms(a in finite_vec(5), b in finite_vec(5), c in finite_vec(5)) {
        let dab = euclidean(&a, &b).unwrap();
        let dba = euclidean(&b, &a).unwrap();
        let dac = euclidean(&a, &c).unwrap();
        let dcb = euclidean(&c, &b).unwrap();
        // Symmetry, non-negativity, identity, triangle inequality.
        prop_assert!((dab - dba).abs() < 1e-9);
        prop_assert!(dab >= 0.0);
        prop_assert!(euclidean(&a, &a).unwrap() == 0.0);
        prop_assert!(dab <= dac + dcb + 1e-9);
    }

    #[test]
    fn transpose_is_involution(m in finite_matrix(4, 7)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_associates_with_identity(m in finite_matrix(3, 5)) {
        let left = Matrix::identity(3).matmul(&m).unwrap();
        let right = m.matmul(&Matrix::identity(5)).unwrap();
        prop_assert_eq!(&left, &m);
        prop_assert_eq!(&right, &m);
    }

    #[test]
    fn dot_is_bilinear(a in finite_vec(4), b in finite_vec(4), s in -10.0..10.0f64) {
        let lhs = vector::dot(&vector::scale(&a, s), &b).unwrap();
        let rhs = s * vector::dot(&a, &b).unwrap();
        prop_assert!((lhs - rhs).abs() < 1e-6 * (1.0 + rhs.abs()));
    }

    #[test]
    fn standardizer_roundtrips(m in finite_matrix(6, 4)) {
        let s = Standardizer::fit(&m).unwrap();
        let back = s.inverse_transform(&s.transform(&m).unwrap()).unwrap();
        for (x, y) in back.as_slice().iter().zip(m.as_slice()) {
            prop_assert!((x - y).abs() < 1e-6 * (1.0 + y.abs()));
        }
    }

    #[test]
    fn standardized_columns_are_zscored(m in finite_matrix(8, 3)) {
        let z = Standardizer::fit_transform(&m).unwrap();
        for c in 0..3 {
            let col = z.col(c);
            let mean = stats::mean(&col).unwrap();
            prop_assert!(mean.abs() < 1e-7);
            let sd = stats::std_dev(&col).unwrap();
            // Either the column was constant (sd == 0) or it is unit sd.
            prop_assert!(sd.abs() < 1e-7 || (sd - 1.0).abs() < 1e-7);
        }
    }

    #[test]
    fn minmax_in_unit_interval(m in finite_matrix(5, 3)) {
        let t = MinMaxScaler::fit_transform(&m).unwrap();
        for v in t.as_slice() {
            prop_assert!((-1e-9..=1.0 + 1e-9).contains(v));
        }
    }

    #[test]
    fn jacobi_eigen_reconstructs(m in finite_matrix(4, 4)) {
        // Symmetrize: A = (M + M^T) / 2.
        let a = m.add(&m.transpose()).unwrap().scaled(0.5);
        let e = eigen::jacobi_eigen(&a).unwrap();
        // Sum of eigenvalues equals the trace.
        let trace: f64 = (0..4).map(|i| a[(i, i)]).sum();
        let sum: f64 = e.values.iter().sum();
        prop_assert!((trace - sum).abs() < 1e-6 * (1.0 + trace.abs()));
        // Residual ||A v - lambda v|| is small for each eigenpair.
        for k in 0..4 {
            let v = e.vectors.col(k);
            let av = a.matvec(&v).unwrap();
            for i in 0..4 {
                let r = av[i] - e.values[k] * v[i];
                prop_assert!(r.abs() < 1e-6 * (1.0 + e.values[k].abs()));
            }
        }
    }

    #[test]
    fn pca_projection_preserves_pairwise_distance_full_rank(m in finite_matrix(6, 3)) {
        // Full-rank PCA is a rigid rotation + centering: pairwise Euclidean
        // distances between rows are preserved exactly.
        let pca = match Pca::fit(&m, 3) {
            Ok(p) => p,
            Err(_) => return Ok(()), // degenerate covariance; skip
        };
        let t = pca.transform(&m).unwrap();
        for i in 0..6 {
            for j in (i + 1)..6 {
                let d0 = euclidean(m.row(i), m.row(j)).unwrap();
                let d1 = euclidean(t.row(i), t.row(j)).unwrap();
                prop_assert!((d0 - d1).abs() < 1e-6 * (1.0 + d0));
            }
        }
    }

    #[test]
    fn percentile_monotone(xs in prop::collection::vec(-1e3..1e3f64, 1..30), p in 0.0..50.0f64) {
        let lo = stats::percentile(&xs, p).unwrap();
        let hi = stats::percentile(&xs, 100.0 - p).unwrap();
        prop_assert!(lo <= hi + 1e-9);
    }

    #[test]
    fn correlation_bounded(xs in finite_vec(10), ys in finite_vec(10)) {
        if let Ok(r) = stats::correlation(&xs, &ys) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
        }
    }

    #[test]
    fn parallel_pairwise_is_bitwise_serial(
        // Row counts straddle the parallelism threshold so both the serial
        // fallback and the threaded path are exercised.
        rows in 2usize..100,
        cols in 1usize..6,
        seed in 0u64..1000,
    ) {
        let data: Vec<f64> = {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            (0..rows * cols)
                .map(|_| {
                    state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
                })
                .collect()
        };
        let m = Matrix::from_vec(rows, cols, data).unwrap();
        // Force multiple workers so the threaded path is exercised even on
        // single-core machines (pairwise dispatches serially there).
        parallel::set_worker_override(Some(4));
        let par = pairwise(&m).unwrap();
        let ser = pairwise_serial(&m).unwrap();
        // Bit-for-bit: every entry is computed independently, so
        // scheduling cannot perturb a single ULP.
        prop_assert_eq!(par, ser);
        parallel::set_worker_override(None);
    }

    #[test]
    fn map_items_matches_direct_evaluation(len in 0usize..300, offset in 0u64..100) {
        // try_map_items must be a drop-in for a serial map at any length,
        // including the empty input and lengths below the serial threshold.
        let chunking = parallel::Chunking::new(16, 64);
        let got = parallel::try_map_items(len, chunking, None, |i| {
            Ok::<_, std::convert::Infallible>(i as u64 * 3 + offset)
        })
        .unwrap();
        let want: Vec<u64> = (0..len as u64).map(|i| i * 3 + offset).collect();
        prop_assert_eq!(got, want);
    }
}
