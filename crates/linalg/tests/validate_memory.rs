//! Peak-allocation ceiling for stage-boundary validation.
//!
//! [`validate`] groups rows by bit pattern to find duplicates. The index
//! must borrow each row from the matrix: a key that copies its row holds
//! all n·dim·8 bytes again when every row is distinct, as raw
//! characterization data is. [`memhook::global_window`] measures the peak
//! of new heap bytes while `validate` runs on a matrix allocated outside
//! the window, and that peak must stay below the matrix's own size.
//!
//! The file holds ONE `#[test]` so no sibling test's allocations leak into
//! the measurement window.

use hiermeans_linalg::validate::validate;
use hiermeans_linalg::Matrix;
use hiermeans_obs::memhook::{self, TrackingAlloc};

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

#[test]
fn validation_holds_no_copy_of_the_rows() {
    let (n, dim) = (4096, 16);
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let data: Vec<f64> = (0..n * dim)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 11) as f64 / (1u64 << 53) as f64
        })
        .collect();
    let m = Matrix::from_vec(n, dim, data).unwrap();
    let matrix_bytes = (n * dim * std::mem::size_of::<f64>()) as i64;

    let (report, peak) = memhook::global_window(|| validate(&m));
    assert!(report.is_clean(), "{report}");
    assert!(
        peak < matrix_bytes,
        "validate peaked at {peak} B, past the {matrix_bytes} B matrix: the row index copies rows"
    );
    println!("validate {n} x {dim}: peak {peak} B of {matrix_bytes} B");
}
