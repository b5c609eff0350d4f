//! Cluster-count selection helpers.
//!
//! The paper selects its recommended cluster count by eye: where the
//! dendrogram cut "aligns well with the SOM analysis results" and where
//! "the fluctuation of ratio values tends to dampen". These helpers provide
//! the quantitative analogues: the largest-gap (elbow) heuristic on merge
//! distances and a silhouette sweep. The suite-analysis facade recommends
//! a cluster count from them.

use hiermeans_linalg::Matrix;

use crate::validity::CellDistances;
use crate::{ClusterError, Dendrogram};

/// Picks `k` by the largest gap between consecutive merge distances within
/// `k_range` (the "elbow"): a big jump from the `(n-k)`-th to the
/// `(n-k+1)`-th merge means cutting between them separates well-formed
/// clusters.
///
/// Every `k` in the range is evaluated, including `k = n` (all
/// singletons), whose "gap" is the first merge distance itself: when even
/// the closest pair merges at a large distance, not merging at all is the
/// best elbow.
///
/// # Errors
///
/// Returns [`ClusterError::InvalidClusterCount`] if the range is empty or
/// out of `2..=n`.
///
/// # Example
///
/// ```
/// use hiermeans_cluster::{agglomerative::cluster, selection, Linkage};
/// use hiermeans_linalg::Matrix;
/// use hiermeans_obs::Collector;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let pts = Matrix::from_rows(&[
///     vec![0.0], vec![0.1], vec![0.2], vec![9.0], vec![9.1], vec![9.2],
/// ])?;
/// let off = Collector::disabled();
/// let d = cluster(&pts, Linkage::Complete, &off)?;
/// assert_eq!(selection::elbow_k(&d, 2..=5)?, 2);
/// # Ok(())
/// # }
/// ```
pub fn elbow_k(
    dendrogram: &Dendrogram,
    k_range: std::ops::RangeInclusive<usize>,
) -> Result<usize, ClusterError> {
    let n = dendrogram.n_leaves();
    let (lo, hi) = (*k_range.start(), *k_range.end());
    if lo < 2 || hi > n || lo > hi {
        return Err(ClusterError::InvalidClusterCount {
            requested: lo,
            points: n,
        });
    }
    let distances = dendrogram.merge_distances();
    let mut best = (lo, f64::NEG_INFINITY);
    for k in lo..=hi {
        // Cutting into k applies merges [0, n-k); the gap is between the
        // last applied and the first skipped merge.
        let applied = n - k;
        let gap = if applied == 0 {
            distances[0]
        } else {
            distances[applied] - distances[applied - 1]
        };
        if gap > best.1 {
            best = (k, gap);
        }
    }
    Ok(best.0)
}

/// Picks `k` maximizing the silhouette of the dendrogram's cuts over
/// `points`, breaking ties toward fewer clusters: the first `k` of
/// [`silhouette_sweep`] whose score beats every smaller `k` by more than
/// `1e-12`.
///
/// Every `k` in the range is evaluated, including `k = n`, where every
/// cluster is a singleton and the silhouette is 0 by convention — so the
/// all-singleton cut wins only when every coarser cut has a negative
/// silhouette.
///
/// The sweep groups the rows into their `U` distinct cells once, so
/// scoring `m` counts costs `O(U²·dim + m·(U + k_max)·n)`, and every
/// per-`k` score is bit-identical to [`crate::validity::silhouette`].
///
/// # Errors
///
/// Same as [`silhouette_sweep`].
pub fn silhouette_k(
    dendrogram: &Dendrogram,
    points: &Matrix,
    k_range: std::ops::RangeInclusive<usize>,
) -> Result<usize, ClusterError> {
    let lo = *k_range.start();
    let mut best = (lo, f64::NEG_INFINITY);
    for (k, s) in silhouette_sweep(dendrogram, points, k_range)? {
        if s > best.1 + 1e-12 {
            best = (k, s);
        }
    }
    Ok(best.0)
}

/// The mean silhouette of the dendrogram's cut into each `k` of `k_range`
/// over `points`, as `(k, silhouette)` pairs in ascending `k` (a cut with
/// fewer than two clusters, which a well-formed dendrogram never yields
/// for `k ≥ 2`, is left out).
///
/// Each value is bit-identical to [`crate::validity::silhouette`] of that
/// cut. The rows are grouped into the `U` distinct rows they occupy (at
/// most the number of map cells for SOM positions) and the `U × U`
/// cell-distance table is built once, so a sweep over `m` counts up to
/// `k_max` costs `O(U²·dim + m·(U + k_max)·n)` time and
/// `O(U² + k_max·U)` memory instead of `m·n²` distance evaluations.
///
/// # Errors
///
/// * [`ClusterError::InvalidClusterCount`] if the range is empty or out of
///   `2..=n` for a dendrogram of `n` leaves.
/// * [`ClusterError::InvalidLabels`] if `points` does not have `n` rows.
/// * [`ClusterError::Linalg`] for distance failures.
pub fn silhouette_sweep(
    dendrogram: &Dendrogram,
    points: &Matrix,
    k_range: std::ops::RangeInclusive<usize>,
) -> Result<Vec<(usize, f64)>, ClusterError> {
    let n = dendrogram.n_leaves();
    let (lo, hi) = (*k_range.start(), *k_range.end());
    if lo < 2 || hi > n || lo > hi {
        return Err(ClusterError::InvalidClusterCount {
            requested: lo,
            points: n,
        });
    }
    if points.nrows() != n {
        return Err(ClusterError::InvalidLabels {
            reason: "points row count differs from dendrogram leaves",
        });
    }
    let cells = CellDistances::new(points)?;
    let mut sums = Vec::new();
    let mut scores = Vec::with_capacity(hi - lo + 1);
    for k in lo..=hi {
        let cut = dendrogram.cut_into(k)?;
        if cut.n_clusters() >= 2 {
            scores.push((k, cells.silhouette(&cut, &mut sums)));
        }
    }
    Ok(scores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agglomerative::cluster;
    use crate::Linkage;
    use hiermeans_obs::Collector;

    /// [`cluster`] over Euclidean distances, untraced.
    fn untraced(points: &Matrix, linkage: Linkage) -> Dendrogram {
        cluster(points, linkage, &Collector::disabled()).unwrap()
    }

    fn three_blobs() -> Matrix {
        Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.2, 0.1],
            vec![0.1, 0.2],
            vec![10.0, 0.0],
            vec![10.2, 0.1],
            vec![0.0, 10.0],
            vec![0.1, 10.2],
        ])
        .unwrap()
    }

    #[test]
    fn elbow_finds_planted_count() {
        let d = untraced(&three_blobs(), Linkage::Complete);
        assert_eq!(elbow_k(&d, 2..=6).unwrap(), 3);
    }

    #[test]
    fn silhouette_finds_planted_count() {
        let pts = three_blobs();
        let d = untraced(&pts, Linkage::Complete);
        assert_eq!(silhouette_k(&d, &pts, 2..=6).unwrap(), 3);
    }

    #[test]
    fn full_range_to_n_is_evaluated() {
        // Regression: validation accepted `hi == n` but the sweep silently
        // clamped to `n - 1`, so `k_range = 2..=n` never considered the
        // all-singleton cut.
        let pts = three_blobs();
        let n = pts.nrows();
        let d = untraced(&pts, Linkage::Complete);
        // Structured data: the planted count must still win over k = n.
        assert_eq!(elbow_k(&d, 2..=n).unwrap(), 3);
        assert_eq!(silhouette_k(&d, &pts, 2..=n).unwrap(), 3);

        // Evenly spaced points under single linkage merge at a constant
        // distance: every consecutive gap is 0, so the first merge distance
        // (the k = n "gap") is the largest and k = n must be chosen. The
        // clamped sweep returned `lo` here.
        let uniform = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let du = untraced(&uniform, Linkage::Single);
        assert_eq!(elbow_k(&du, 2..=4).unwrap(), 4);
    }

    #[test]
    fn range_validation() {
        let pts = three_blobs();
        let d = untraced(&pts, Linkage::Complete);
        assert!(elbow_k(&d, 1..=3).is_err());
        assert!(elbow_k(&d, 2..=20).is_err());
        assert!(silhouette_k(&d, &pts, 0..=2).is_err());
    }
}
