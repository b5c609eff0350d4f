//! Agglomerative hierarchical clustering — the cluster-detection stage of the
//! hierarchical-means pipeline — plus a k-means baseline and cluster-validity
//! indices.
//!
//! The paper (Section III-B) assigns each point its own cluster, repeatedly
//! merges the closest pair of clusters, and reads cluster formations off the
//! resulting *dendrogram* at a chosen merging distance. Its configuration is
//! **complete linkage** (cluster distance = "the distance of the furthest
//! pair of points from each cluster") over **Euclidean** point distances on
//! the SOM-reduced coordinates.
//!
//! * [`linkage`] — Lance–Williams linkage rules (single, complete, average,
//!   weighted, Ward, centroid, median).
//! * [`agglomerative`] — the clustering entry point, [`agglomerative::cluster`],
//!   and the naive merge loop producing a [`Dendrogram`]. `cluster` runs
//!   NN-chain from 128 points on when the linkage is reducible, and the
//!   naive loop otherwise.
//! * [`nnchain`] — the O(n²) NN-chain algorithm for reducible linkages.
//! * [`scalable`] — SLINK/CLINK single/complete linkage in O(n) memory
//!   for corpora whose distance matrix does not fit.
//! * [`dendrogram`] — cutting at a merging distance or into exactly `k`
//!   clusters, cophenetic distances, leaf ordering.
//! * [`assignment`] — normalized cluster label vectors.
//! * [`kmeans`] — k-means with k-means++ seeding, used as a baseline.
//! * [`validity`] — silhouette, Davies–Bouldin, Calinski–Harabasz, WCSS.
//!
//! # Example
//!
//! ```
//! use hiermeans_cluster::{agglomerative::cluster, Linkage};
//! use hiermeans_linalg::{distance::Metric, Matrix};
//! use hiermeans_obs::Collector;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let points = Matrix::from_rows(&[
//!     vec![0.0, 0.0], vec![0.2, 0.0], vec![5.0, 5.0], vec![5.2, 5.0],
//! ])?;
//! let off = Collector::disabled();
//! let dendrogram = cluster(&points, Metric::Euclidean, Linkage::Complete, &off)?;
//! let two = dendrogram.cut_into(2)?;
//! assert_eq!(two.n_clusters(), 2);
//! assert_eq!(two.labels()[0], two.labels()[1]);
//! assert_ne!(two.labels()[0], two.labels()[2]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod error;

pub mod agglomerative;
pub mod assignment;
pub mod dendrogram;
pub mod kmeans;
pub mod linkage;
pub mod nnchain;
pub mod scalable;
pub mod selection;
pub mod validity;

pub use assignment::ClusterAssignment;
pub use dendrogram::{Dendrogram, Merge};
pub use error::ClusterError;
pub use kmeans::{KMeans, KMeansConfig};
pub use linkage::Linkage;
