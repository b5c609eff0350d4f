use std::error::Error;
use std::fmt;

use hiermeans_linalg::LinalgError;

/// Errors produced by the clustering crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ClusterError {
    /// An underlying linear-algebra operation failed.
    Linalg(LinalgError),
    /// The input had no points.
    EmptyInput,
    /// A requested cluster count was invalid for the input size.
    InvalidClusterCount {
        /// The requested number of clusters.
        requested: usize,
        /// The number of points available.
        points: usize,
    },
    /// The provided distance matrix was not square/symmetric/zero-diagonal.
    InvalidDistanceMatrix {
        /// Why the matrix was rejected.
        reason: &'static str,
    },
    /// Label vectors disagreed with the point count, or labels were malformed.
    InvalidLabels {
        /// Why the labels were rejected.
        reason: &'static str,
    },
    /// The algorithm does not support the requested linkage: NN-chain needs
    /// a reducible linkage, which centroid and median are not.
    UnsupportedLinkage {
        /// The rejected linkage.
        linkage: crate::Linkage,
    },
    /// The iterative algorithm failed to make progress.
    NoConvergence {
        /// The routine that failed.
        routine: &'static str,
        /// The exhausted iteration budget.
        iterations: usize,
    },
    /// The clustering input failed stage-boundary validation; the report
    /// names the exact offending cells.
    InvalidData {
        /// The typed diagnostics.
        report: hiermeans_linalg::validate::ValidationReport,
    },
    /// A structural invariant of an algorithm was violated. This indicates
    /// a bug, not bad input; it is a typed error (rather than a panic) so a
    /// caller can still surface a diagnostic instead of aborting.
    Internal {
        /// The violated invariant.
        what: &'static str,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Linalg(e) => write!(f, "linear algebra error: {e}"),
            ClusterError::EmptyInput => write!(f, "clustering input is empty"),
            ClusterError::InvalidClusterCount { requested, points } => {
                write!(f, "cannot form {requested} clusters from {points} points")
            }
            ClusterError::InvalidDistanceMatrix { reason } => {
                write!(f, "invalid distance matrix: {reason}")
            }
            ClusterError::InvalidLabels { reason } => write!(f, "invalid labels: {reason}"),
            ClusterError::UnsupportedLinkage { linkage } => {
                write!(f, "NN-chain requires a reducible linkage, not {linkage}")
            }
            ClusterError::NoConvergence {
                routine,
                iterations,
            } => {
                write!(
                    f,
                    "{routine} did not converge within {iterations} iterations"
                )
            }
            ClusterError::InvalidData { report } => {
                write!(f, "invalid clustering input: {report}")
            }
            ClusterError::Internal { what } => {
                write!(f, "internal invariant violated: {what}")
            }
        }
    }
}

impl Error for ClusterError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ClusterError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for ClusterError {
    fn from(e: LinalgError) -> Self {
        ClusterError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert_eq!(
            ClusterError::EmptyInput.to_string(),
            "clustering input is empty"
        );
        let e = ClusterError::InvalidClusterCount {
            requested: 5,
            points: 3,
        };
        assert_eq!(e.to_string(), "cannot form 5 clusters from 3 points");
    }

    #[test]
    fn source_chains_linalg() {
        let e: ClusterError = LinalgError::Empty { what: "x" }.into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
