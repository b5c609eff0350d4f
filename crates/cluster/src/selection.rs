//! Cluster-count selection helpers.
//!
//! The paper selects its recommended cluster count by eye: where the
//! dendrogram cut "aligns well with the SOM analysis results" and where
//! "the fluctuation of ratio values tends to dampen". These helpers provide
//! the quantitative analogues: the largest-gap (elbow) heuristic on merge
//! distances, a silhouette sweep, and the cophenetic correlation
//! coefficient as a global dendrogram-quality score.

use hiermeans_linalg::distance::{pairwise, Metric};
use hiermeans_linalg::{LinalgError, Matrix};
use hiermeans_obs::Collector;

use crate::validity::{wcss_from_distances, CellDistances};
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
/// use hiermeans_linalg::{distance::Metric, Matrix};
/// use hiermeans_obs::Collector;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let pts = Matrix::from_rows(&[
///     vec![0.0], vec![0.1], vec![0.2], vec![9.0], vec![9.1], vec![9.2],
/// ])?;
/// let off = Collector::disabled();
/// let d = cluster(&pts, Metric::Euclidean, Linkage::Complete, &off)?;
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

/// Picks `k` with the gap statistic (Tibshirani et al. 2001): compare the
/// log within-cluster dispersion of each cut against its expectation under
/// a uniform reference distribution over the data's bounding box, and take
/// the smallest `k` whose gap exceeds the next gap minus its standard
/// error. Falls back to the largest-gap `k` if no such elbow exists.
///
/// # Errors
///
/// Propagates cut/WCSS errors; the range must fit `2..n`, and
/// `n_references` must be positive.
pub fn gap_statistic_k(
    dendrogram: &Dendrogram,
    points: &Matrix,
    k_range: std::ops::RangeInclusive<usize>,
    n_references: usize,
    seed: u64,
) -> Result<usize, ClusterError> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let n = dendrogram.n_leaves();
    let (lo, hi) = (*k_range.start(), *k_range.end());
    if lo < 2 || hi >= n || lo > hi || n_references == 0 {
        return Err(ClusterError::InvalidClusterCount {
            requested: lo,
            points: n,
        });
    }
    // Bounding box of the observed points.
    let dim = points.ncols();
    let mut bounds = Vec::with_capacity(dim);
    for c in 0..dim {
        let col = points.col(c);
        let lo_v = col.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi_v = col.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        bounds.push((lo_v, if hi_v > lo_v { hi_v } else { lo_v + 1.0 }));
    }
    let log_wcss = |sq: &Matrix, cut: &crate::ClusterAssignment| -> Result<f64, ClusterError> {
        Ok(wcss_from_distances(sq, cut)?.max(1e-12).ln())
    };

    let ks: Vec<usize> = (lo..=hi).collect();
    // Observed dispersions: one squared-distance pass scores every cut.
    let observed_sq = pairwise(points, Metric::SquaredEuclidean)?;
    let mut observed = Vec::with_capacity(ks.len());
    for &k in &ks {
        observed.push(log_wcss(&observed_sq, &dendrogram.cut_into(k)?)?);
    }
    drop(observed_sq);
    // Reference dispersions from uniform bootstraps, clustered the same way.
    // Each bootstrap computes squared distances once; the Euclidean matrix
    // the clustering sees is its elementwise square root (bitwise what
    // `pairwise(_, Euclidean)` would have produced), and the WCSS of every
    // cut comes from the squared matrix via the centroid-free identity.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut reference_mean = vec![0.0f64; ks.len()];
    let mut reference_sq = vec![0.0f64; ks.len()];
    for _ in 0..n_references {
        let mut data = Matrix::zeros(n, dim);
        for r in 0..n {
            for c in 0..dim {
                data[(r, c)] = rng.gen_range(bounds[c].0..bounds[c].1);
            }
        }
        let sq = pairwise(&data, Metric::SquaredEuclidean)?;
        let mut euclid = sq.clone();
        for r in 0..n {
            for v in euclid.row_mut(r) {
                *v = v.sqrt();
            }
        }
        let reference_dendrogram = crate::agglomerative::cluster_from_distances(
            &euclid,
            crate::Linkage::Complete,
            &Collector::disabled(),
        )?;
        drop(euclid);
        for (i, &k) in ks.iter().enumerate() {
            let w = log_wcss(&sq, &reference_dendrogram.cut_into(k)?)?;
            reference_mean[i] += w;
            reference_sq[i] += w * w;
        }
    }
    let m = n_references as f64;
    let mut gaps = Vec::with_capacity(ks.len());
    let mut errors = Vec::with_capacity(ks.len());
    for i in 0..ks.len() {
        let mean = reference_mean[i] / m;
        let var = (reference_sq[i] / m - mean * mean).max(0.0);
        gaps.push(mean - observed[i]);
        errors.push(var.sqrt() * (1.0 + 1.0 / m).sqrt());
    }
    // Standard rule: smallest k with gap(k) >= gap(k+1) - s(k+1).
    for i in 0..ks.len() - 1 {
        if gaps[i] >= gaps[i + 1] - errors[i + 1] {
            return Ok(ks[i]);
        }
    }
    // Fallback: argmax gap.
    let Some(best) = gaps
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| ks[i])
    else {
        return Err(ClusterError::Internal {
            what: "gap statistic over an empty k range",
        });
    };
    Ok(best)
}

/// The cophenetic correlation coefficient: Pearson correlation between the
/// original pairwise distances and the cophenetic distances of the
/// dendrogram, in `[-1, 1]`. Values near 1 mean the dendrogram faithfully
/// encodes the metric structure.
///
/// Both distance sets are **streamed** pair by pair through
/// [`Dendrogram::for_each_cophenetic_pair`] — neither the `n × n`
/// cophenetic matrix nor the `n(n-1)/2` sample vectors are materialized,
/// so the extra memory is `O(n)` regardless of corpus size. Two passes
/// (means, then centered moments) keep the same numerically stable
/// formulation as `stats::correlation`.
///
/// # Errors
///
/// Propagates distance errors; requires at least 3 points and errors on a
/// constant sample, mirroring `stats::correlation`.
pub fn cophenetic_correlation(
    dendrogram: &Dendrogram,
    points: &Matrix,
    metric: Metric,
) -> Result<f64, ClusterError> {
    let n = dendrogram.n_leaves();
    if points.nrows() != n {
        return Err(ClusterError::InvalidLabels {
            reason: "points row count differs from dendrogram leaves",
        });
    }
    if n < 3 {
        return Err(ClusterError::InvalidClusterCount {
            requested: n,
            points: n,
        });
    }
    // Pass 1: means of both samples.
    let (mut sx, mut sy, mut count) = (0.0f64, 0.0f64, 0usize);
    dendrogram.for_each_cophenetic_pair(|i, j, coph| {
        let d = metric
            .distance(points.row(i), points.row(j))
            .map_err(ClusterError::Linalg)?;
        sx += d;
        sy += coph;
        count += 1;
        Ok::<(), ClusterError>(())
    })?;
    if count < 2 {
        return Err(ClusterError::Linalg(LinalgError::InvalidParameter {
            name: "points",
            reason: "correlation requires at least two values",
        }));
    }
    let (mx, my) = (sx / count as f64, sy / count as f64);
    // Pass 2: centered second moments.
    let (mut sxy, mut sxx, mut syy) = (0.0f64, 0.0f64, 0.0f64);
    dendrogram.for_each_cophenetic_pair(|i, j, coph| {
        let d = metric
            .distance(points.row(i), points.row(j))
            .map_err(ClusterError::Linalg)?;
        sxy += (d - mx) * (coph - my);
        sxx += (d - mx) * (d - mx);
        syy += (coph - my) * (coph - my);
        Ok::<(), ClusterError>(())
    })?;
    if sxx == 0.0 || syy == 0.0 {
        return Err(ClusterError::Linalg(LinalgError::InvalidParameter {
            name: "points",
            reason: "correlation is undefined for a constant sample",
        }));
    }
    Ok(sxy / (sxx * syy).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agglomerative::cluster;
    use crate::Linkage;

    /// [`cluster`] over Euclidean distances, untraced.
    fn untraced(points: &Matrix, linkage: Linkage) -> Dendrogram {
        cluster(points, Metric::Euclidean, linkage, &Collector::disabled()).unwrap()
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
    fn gap_statistic_finds_planted_count() {
        let pts = three_blobs();
        let d = untraced(&pts, Linkage::Complete);
        let k = gap_statistic_k(&d, &pts, 2..=6, 8, 42).unwrap();
        // The gap statistic can defensibly pick 2 (two super-groups) or 3
        // (the planted blobs); it must not over-segment.
        assert!((2..=3).contains(&k), "k={k}");
    }

    #[test]
    fn gap_statistic_validation() {
        let pts = three_blobs();
        let d = untraced(&pts, Linkage::Complete);
        assert!(gap_statistic_k(&d, &pts, 1..=3, 4, 1).is_err());
        assert!(gap_statistic_k(&d, &pts, 2..=7, 4, 1).is_err()); // k = n
        assert!(gap_statistic_k(&d, &pts, 2..=4, 0, 1).is_err());
    }

    #[test]
    fn gap_statistic_deterministic() {
        let pts = three_blobs();
        let d = untraced(&pts, Linkage::Complete);
        let a = gap_statistic_k(&d, &pts, 2..=6, 6, 9).unwrap();
        let b = gap_statistic_k(&d, &pts, 2..=6, 6, 9).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn cophenetic_correlation_high_for_well_separated() {
        let pts = three_blobs();
        let d = untraced(&pts, Linkage::Average);
        let c = cophenetic_correlation(&d, &pts, Metric::Euclidean).unwrap();
        assert!(c > 0.95, "c={c}");
    }

    #[test]
    fn cophenetic_correlation_bounded() {
        let pts = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![1.0, 0.5],
            vec![2.0, 0.1],
            vec![3.5, 0.8],
        ])
        .unwrap();
        let d = untraced(&pts, Linkage::Single);
        let c = cophenetic_correlation(&d, &pts, Metric::Euclidean).unwrap();
        assert!((-1.0..=1.0).contains(&c));
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

    #[test]
    fn cophenetic_streamed_matches_materialized() {
        use hiermeans_linalg::stats;
        let pts = three_blobs();
        let n = pts.nrows();
        for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
            let d = untraced(&pts, linkage);
            let streamed = cophenetic_correlation(&d, &pts, Metric::Euclidean).unwrap();
            let original = pairwise(&pts, Metric::Euclidean).unwrap();
            let coph = d.cophenetic();
            let mut xs = Vec::new();
            let mut ys = Vec::new();
            for i in 0..n {
                for j in (i + 1)..n {
                    xs.push(original[(i, j)]);
                    ys.push(coph[(i, j)]);
                }
            }
            let materialized = stats::correlation(&xs, &ys).unwrap();
            assert!(
                (streamed - materialized).abs() < 1e-12,
                "{streamed} vs {materialized}"
            );
        }
    }

    #[test]
    fn cophenetic_rejects_constant_sample() {
        // Points exactly equidistant under Chebyshev: every pairwise and
        // cophenetic distance is identical, so the correlation is undefined.
        let pts = Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        let d = cluster(
            &pts,
            Metric::Chebyshev,
            Linkage::Single,
            &Collector::disabled(),
        )
        .unwrap();
        assert!(cophenetic_correlation(&d, &pts, Metric::Chebyshev).is_err());
    }

    #[test]
    fn cophenetic_needs_matching_points() {
        let pts = three_blobs();
        let d = untraced(&pts, Linkage::Complete);
        let wrong = Matrix::zeros(4, 2);
        assert!(cophenetic_correlation(&d, &wrong, Metric::Euclidean).is_err());
    }
}
