//! A from-scratch Self-Organizing Map (SOM), the dimension-reduction stage of
//! the hierarchical-means pipeline.
//!
//! The paper (Section III-A) reduces high-dimensional workload characteristic
//! vectors to a 2-D map with a SOM so that "two vectors that were close in the
//! original n-dimension appear closer, and those distant ones appear farther
//! apart". This crate implements:
//!
//! * [`grid`] — rectangular and hexagonal 2-D unit lattices.
//! * [`kernel`] — Gaussian (the paper's h_ci), bubble, and cut-Gaussian
//!   neighborhood kernels.
//! * [`schedule`] — monotonically decreasing learning-rate and radius
//!   schedules (linear, exponential, inverse-time), as required by the paper
//!   ("Both α(n) and σ(n) monotonically decrease").
//! * [`train`] — online (the paper's competitive-learning pseudo-code) and
//!   batch training, PCA-plane or random weight initialization.
//! * [`quality`] — quantization and topographic error.
//! * [`umatrix`] — the U-matrix for map visualization.
//!
//! # Example
//!
//! ```
//! use hiermeans_linalg::Matrix;
//! use hiermeans_som::{SomBuilder, SomError};
//!
//! # fn main() -> Result<(), SomError> {
//! // Two well-separated blobs in 3-D.
//! let data = Matrix::from_rows(&[
//!     vec![0.0, 0.0, 0.1], vec![0.1, 0.0, 0.0], vec![0.0, 0.1, 0.0],
//!     vec![5.0, 5.0, 5.1], vec![5.1, 5.0, 5.0], vec![5.0, 5.1, 5.0],
//! ])?;
//! let som = SomBuilder::new(4, 4).seed(7).epochs(40).train(&data)?;
//! let positions = som.map_rows(&data)?;
//! // Rows from the same blob land on nearby units.
//! let d_same = som.grid().unit_distance(positions[0], positions[1]);
//! let d_diff = som.grid().unit_distance(positions[0], positions[3]);
//! assert!(d_same <= d_diff);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(clippy::needless_range_loop, clippy::redundant_clone)]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod error;

pub mod grid;
pub mod kernel;
pub mod mapping;
pub mod quality;
pub mod schedule;
pub mod train;
pub mod umatrix;
pub mod warm;

pub use error::SomError;
pub use grid::{Grid, GridTopology};
pub use kernel::NeighborhoodKernel;
pub use schedule::{DecaySchedule, ScheduleError};
pub use train::{heuristic_map_size, Initializer, Som, SomBuilder, TrainingMode};
pub use warm::WarmStart;
