//! Property-based tests for the blocked compute kernels.
//!
//! The kernel layer's contract is not "close enough": syrk preserves the
//! plain matrix product's accumulation order, and the codebook sweep runs
//! the scalar distance formula's own operations, so each is *bitwise*
//! identical to its reference.

use hiermeans_linalg::distance::euclidean;
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
    fn syrk_is_bitwise_equal_to_transpose_matmul(m in any_shape_matrix(1..80, 1..12)) {
        let syrk = kernels::syrk_rows(&m);
        // (MᵀM)[i][j] accumulates over rows in ascending order in both
        // implementations, so the Gram matrix matches bit for bit.
        let reference = m.transpose().matmul(&m).unwrap();
        prop_assert_eq!(syrk.as_slice(), reference.as_slice());
    }

    #[test]
    fn codebook_sweep_is_bitwise_equal_to_metric_distance(
        w in any_shape_matrix(1..40, 1..20),
        seed in 0u64..u64::MAX,
    ) {
        // Rows of `w` are units; the sweep reads them transposed.
        let mut state = seed | 1;
        let x: Vec<f64> = (0..w.ncols())
            .map(|_| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                ((state >> 33) as f64 / (1u64 << 31) as f64 - 0.5) * 2e3
            })
            .collect();
        let wt = w.transpose();
        let mut dists = vec![f64::NAN; w.nrows()];
        kernels::exact_dists_wt_into(&x, &wt, &mut dists);
        for (u, &d) in dists.iter().enumerate() {
            let scalar = euclidean(&x, w.row(u)).unwrap();
            prop_assert_eq!(d.to_bits(), scalar.to_bits(), "unit {}", u);
        }
    }
}
