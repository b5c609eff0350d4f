//! The hierarchical means — cluster-aware single-number benchmark scoring —
//! and the end-to-end analysis pipeline built on them.
//!
//! This crate implements the primary contribution of *Hierarchical Means:
//! Single Number Benchmarking with Workload Cluster Analysis* (Yoo, Lee,
//! Lee & Chow, IISWC 2007):
//!
//! * [`means`] — plain and weighted arithmetic/geometric/harmonic means.
//! * [`hierarchical`] — the Hierarchical Geometric/Arithmetic/Harmonic Means
//!   (HGM/HAM/HHM): an inner mean collapses each workload cluster to one
//!   representative, an outer mean combines the representatives. Redundant
//!   workloads stop dominating the score, and the metric degenerates to the
//!   plain mean when every workload is its own cluster.
//! * [`pipeline`] — the cluster-detection pipeline: characteristic vectors →
//!   self-organizing map → complete-linkage hierarchical clustering →
//!   dendrogram (paper Section III).
//! * [`score`] — score tables over cluster counts (the paper's Tables
//!   IV-VI) with plain-mean baselines.
//! * [`redundancy`] — redundancy diagnostics: the weights a hierarchical
//!   mean implicitly assigns, effective suite size, duplication robustness.
//! * [`analysis`] — the [`analysis::SuiteAnalysis`] facade running the whole
//!   study end to end.
//! * [`resilient`] — the self-healing pipeline driver: convergence-gated
//!   retry with deterministic escalation and graceful degradation to
//!   raw-space clustering.
//! * [`fleet`] — incremental fleet scoring: a fingerprinted cluster model
//!   anchored on one submission plus fold-order running aggregates, so
//!   accepting a new machine is bitwise identical to a full recompute
//!   without re-running SOM + clustering.
//!
//! # Example: redundancy no longer buys score
//!
//! ```
//! use hiermeans_core::hierarchical::{hgm, hierarchical_mean};
//! use hiermeans_core::means::{geometric_mean, Mean};
//!
//! # fn main() -> Result<(), hiermeans_core::CoreError> {
//! // A suite with one fast workload and three redundant slow ones.
//! let speedups = [4.0, 1.0, 1.0, 1.0];
//! let plain = geometric_mean(&speedups)?;              // ~1.41
//! let clusters = vec![vec![0], vec![1, 2, 3]];         // redundancy detected
//! let fair = hgm(&speedups, &clusters)?;               // 2.0
//! assert!(fair > plain);
//!
//! // Duplicating a workload inside its cluster cannot change the score.
//! let padded = [4.0, 1.0, 1.0, 1.0, 1.0];
//! let padded_clusters = vec![vec![0], vec![1, 2, 3, 4]];
//! let padded_score = hierarchical_mean(&padded, &padded_clusters, Mean::Geometric)?;
//! assert!((padded_score - fair).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod error;

pub mod analysis;
pub mod evaluation;
pub mod fleet;
pub mod hierarchical;
pub mod means;
pub mod pipeline;
pub mod redundancy;
pub mod report;
pub mod resilient;
pub mod robustness;
pub mod score;

pub use error::CoreError;
