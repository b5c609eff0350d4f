//! # hiermeans
//!
//! A production-quality reproduction of *Hierarchical Means: Single Number
//! Benchmarking with Workload Cluster Analysis* (Yoo, Lee, Lee & Chow,
//! IISWC 2007).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] — the hierarchical means (HGM/HAM/HHM) and the cluster-aware
//!   scoring pipeline, the paper's primary contribution.
//! * [`som`] — a from-scratch Self-Organizing Map (the paper's
//!   dimension-reduction stage).
//! * [`cluster`] — agglomerative hierarchical clustering with dendrograms
//!   (the paper's clustering stage) and cluster-count selection.
//! * [`workload`] — the simulated Java benchmarking substrate: the paper's
//!   13-workload suite, machines A/B/reference, execution-time simulation,
//!   SAR counter generation, and hprof-style method-utilization profiling.
//! * [`linalg`] — dense linear algebra, PCA, scalers, and distances.
//! * [`viz`] — ASCII renderings of SOM maps, U-matrices, and dendrograms.
//! * [`obs`] — observability: the trace collector every pipeline stage
//!   records into ([`obs::Collector::disabled`] for untraced runs).
//!
//! # Quickstart
//!
//! ```
//! use hiermeans::core::means::{geometric_mean, Mean};
//! use hiermeans::core::hierarchical::hierarchical_mean;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Five workload speedups; the last three are redundant clones of one
//! // behaviour, so the plain geometric mean over-weights them.
//! let speedups = [2.0, 4.0, 1.1, 1.1, 1.1];
//! let plain = geometric_mean(&speedups)?;
//!
//! // Cluster-aware score: {0}, {1}, {2, 3, 4}.
//! let clusters: Vec<Vec<usize>> = vec![vec![0], vec![1], vec![2, 3, 4]];
//! let hgm = hierarchical_mean(&speedups, &clusters, Mean::Geometric)?;
//!
//! assert!(hgm > plain); // redundancy no longer drags the score down
//! # Ok(())
//! # }
//! ```

pub use hiermeans_cluster as cluster;
pub use hiermeans_core as core;
pub use hiermeans_linalg as linalg;
pub use hiermeans_obs as obs;
pub use hiermeans_som as som;
pub use hiermeans_viz as viz;
pub use hiermeans_workload as workload;
