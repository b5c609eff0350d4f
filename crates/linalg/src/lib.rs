//! Dense linear algebra and statistics substrate for the `hiermeans` workspace.
//!
//! This crate provides the numerical building blocks that the rest of the
//! workspace — the self-organizing map, the hierarchical clustering, and the
//! workload characterization pipeline — are built on:
//!
//! * [`Matrix`] — a dense, row-major `f64` matrix with the operations the
//!   workspace needs (products, transposes, row/column views, covariance).
//! * [`distance`] — point-to-point metrics ([`distance::Metric`]) used by the
//!   SOM's best-matching-unit search and by the clustering linkage rules.
//! * [`stats`] — descriptive statistics (means, variance, correlation,
//!   percentiles) used throughout.
//! * [`scale`] — feature scalers ([`scale::Standardizer`] implements the
//!   paper's "subtract the mean and divide by standard deviation" step).
//! * [`eigen`] — a cyclic Jacobi eigensolver for symmetric matrices.
//! * [`pca`] — principal components analysis, used both to initialize the SOM
//!   (the paper initializes unit weights from the two major principal
//!   components) and as the dimension-reduction baseline the paper compares
//!   SOM against.
//! * [`kernels`] — cache-blocked compute kernels (matmul/syrk, norm-trick
//!   batched distances) behind the hot paths.
//!
//! # Example
//!
//! ```
//! use hiermeans_linalg::{Matrix, pca::Pca};
//!
//! # fn main() -> Result<(), hiermeans_linalg::LinalgError> {
//! let data = Matrix::from_rows(&[
//!     vec![1.0, 2.0, 3.0],
//!     vec![2.0, 4.1, 6.2],
//!     vec![3.0, 6.2, 9.1],
//!     vec![4.0, 7.9, 12.3],
//! ])?;
//! let pca = Pca::fit(&data, 2)?;
//! let reduced = pca.transform(&data)?;
//! assert_eq!(reduced.shape(), (4, 2));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(clippy::needless_range_loop, clippy::redundant_clone)]

mod error;
mod matrix;

pub mod distance;
pub mod eigen;
pub mod kernels;
pub mod parallel;
pub mod pca;
pub mod rows;
pub mod scale;
pub mod stats;
pub mod validate;
pub mod vector;

pub use error::LinalgError;
pub use matrix::Matrix;
pub use parallel::ParallelError;
