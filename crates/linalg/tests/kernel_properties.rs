//! Property-based tests for the blocked compute kernels.
//!
//! The kernel layer's contract is not "close enough": the blocked matmul
//! and syrk preserve the reference loop's accumulation order and are
//! therefore *bitwise* identical to it, while the norm-trick squared
//! distance is only used for candidate pruning and must stay inside the
//! documented error band.

use hiermeans_linalg::distance::{pairwise, pairwise_norm_trick, Metric};
use hiermeans_linalg::kernels;
use hiermeans_linalg::Matrix;
use proptest::prelude::*;

fn finite_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-1e3..1e3f64, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data).expect("len matches"))
}

/// A matrix whose shape itself is drawn from the strategy, so tile
/// boundaries (64) and remainders are both exercised.
fn any_shape_matrix(
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
) -> impl Strategy<Value = Matrix> {
    (rows, cols).prop_flat_map(|(r, c)| finite_matrix(r, c))
}

proptest! {
    #[test]
    fn blocked_matmul_is_bitwise_equal_to_reference(
        a in any_shape_matrix(1..20, 1..90),
        bcols in 1usize..20,
        seed in 0u64..u64::MAX,
    ) {
        // Build a compatible right-hand side from the seed so both
        // operand shapes vary independently.
        let k = a.ncols();
        let mut state = seed | 1;
        let data: Vec<f64> = (0..k * bcols)
            .map(|_| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
            })
            .collect();
        let b = Matrix::from_vec(k, bcols, data).expect("len matches");
        let blocked = kernels::matmul(&a, &b).unwrap();
        let reference = kernels::matmul_reference(&a, &b).unwrap();
        // Not approximate equality: identical accumulation order means
        // identical bits.
        prop_assert_eq!(blocked.as_slice(), reference.as_slice());
    }

    #[test]
    fn syrk_is_bitwise_equal_to_transpose_matmul(m in any_shape_matrix(1..80, 1..12)) {
        let syrk = kernels::syrk_rows(&m);
        // (MᵀM)[i][j] accumulates over rows in ascending order in both
        // implementations, so the Gram matrix matches bit for bit.
        let reference = kernels::matmul_reference(&m.transpose(), &m).unwrap();
        prop_assert_eq!(syrk.as_slice(), reference.as_slice());
    }

    #[test]
    fn norm_trick_stays_inside_candidate_band(
        x in prop::collection::vec(-1e3..1e3f64, 1..24),
        seed in 0u64..u64::MAX,
    ) {
        let mut state = seed | 1;
        let w: Vec<f64> = (0..x.len())
            .map(|_| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                ((state >> 33) as f64 / (1u64 << 31) as f64 - 0.5) * 2e3
            })
            .collect();
        let xn = kernels::sq_norm_fast(&x);
        let wn = kernels::sq_norm_fast(&w);
        let trick = (xn + wn - 2.0 * kernels::dot_fast(&x, &w)).max(0.0);
        let exact: f64 = x.iter().zip(&w).map(|(a, b)| (a - b) * (a - b)).sum();
        let band = kernels::candidate_band(x.len(), xn, wn);
        prop_assert!(
            (trick - exact).abs() <= band,
            "trick {trick} vs exact {exact} outside band {band}"
        );
    }

    #[test]
    fn blocked_pairwise_is_within_relative_ulp_budget(
        points in any_shape_matrix(2..24, 1..8),
    ) {
        let scalar = pairwise(&points, Metric::Euclidean).unwrap();
        let blocked = pairwise_norm_trick(&points, Metric::Euclidean, None).unwrap();
        let scale: f64 = scalar.as_slice().iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for (s, b) in scalar.as_slice().iter().zip(blocked.as_slice()) {
            prop_assert!(
                (s - b).abs() <= 1e-9 * scale,
                "scalar {s} vs blocked {b} (scale {scale})"
            );
        }
    }

    #[test]
    fn blocked_pairwise_is_exact_on_integer_coordinates(
        coords in prop::collection::vec(0i8..32, 4..40),
    ) {
        // Grid positions — the pipeline's actual clustering input — are
        // small integers, where every product and sum in the norm trick is
        // exactly representable: the blocked path must match bit for bit.
        let rows: Vec<Vec<f64>> = coords
            .chunks_exact(2)
            .map(|p| vec![f64::from(p[0]), f64::from(p[1])])
            .collect();
        let points = Matrix::from_rows(&rows).unwrap();
        for metric in [Metric::Euclidean, Metric::SquaredEuclidean] {
            let scalar = pairwise(&points, metric).unwrap();
            let blocked = pairwise_norm_trick(&points, metric, None).unwrap();
            prop_assert_eq!(scalar.as_slice(), blocked.as_slice());
        }
    }
}
