//! The agglomerative merge loop.
//!
//! Implements the paper's pseudo-code (Section III-B):
//!
//! ```text
//! Initialize: assign each training point to a single cluster
//! Repeat:
//!     Compute cluster-to-cluster distance for all pairs of clusters
//!     Find two clusters such that their distance is the minimum
//!     Create a new cluster by merging those two clusters
//! Continue until all the points result in a single cluster
//! ```
//!
//! The pairwise minimum search is O(n³) overall, which is exactly right for
//! benchmark-suite-sized inputs (tens of workloads). Ties are broken toward
//! the lexicographically smallest `(i, j)` pair so results are deterministic.

use hiermeans_linalg::distance::{pairwise_norm_trick, Metric, PAIRWISE_CHUNKING};
use hiermeans_linalg::Matrix;
use hiermeans_obs::{stages, Collector, Counter, CounterBuf, LaneBuf};

use crate::dendrogram::{Dendrogram, Merge};
use crate::{nnchain, ClusterError, Linkage};

/// Input size from which [`cluster`] runs NN-chain instead of the naive
/// loop (for reducible linkages). Speed does not set it: on the paper's
/// 13-point studies both loops take about 2.3 µs, and NN-chain is already
/// ahead at 32 points (`nnchain_vs_naive` bench). It keeps inputs below
/// 128 points, which may hold tied merge distances that the two loops can
/// order differently, on the naive loop they have always run.
const NN_CHAIN_MIN_N: usize = 128;

/// Clusters the rows of `points` and returns the full merge history.
///
/// The pairwise distances come from
/// [`hiermeans_linalg::distance::pairwise_norm_trick`]. The merge loop is
/// the NN-chain algorithm ([`nnchain::cluster_nn_chain_owned`]) when there
/// are at least 128 points and the linkage is reducible, and the naive
/// loop ([`cluster_from_distances`]) otherwise. Both give the same
/// dendrogram when merge distances are distinct.
///
/// Observability: the run sits in a `cluster.agglomerate` span with a
/// nested `cluster.pairwise` span (chunk lanes and the distance-evaluation
/// counter) and a `cluster.merge_loop` span. Every merge distance is
/// recorded into the collector's trajectory in the order the naive loop
/// finds it, whichever loop ran. Pass [`Collector::disabled`] for an
/// untraced run.
///
/// # Errors
///
/// * [`ClusterError::EmptyInput`] for an empty matrix.
/// * [`ClusterError::InvalidData`] for non-finite coordinates.
/// * [`ClusterError::Linalg`] if distances cannot be computed.
///
/// # Example
///
/// ```
/// use hiermeans_cluster::{agglomerative::cluster, Linkage};
/// use hiermeans_linalg::{distance::Metric, Matrix};
/// use hiermeans_obs::Collector;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let points = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![10.0]])?;
/// let off = Collector::disabled();
/// let d = cluster(&points, Metric::Euclidean, Linkage::Complete, &off)?;
/// // 0 and 1 merge first (distance 1), then 10 joins at distance 10.
/// assert_eq!(d.merges()[0].distance, 1.0);
/// assert_eq!(d.merges()[1].distance, 10.0);
/// # Ok(())
/// # }
/// ```
pub fn cluster(
    points: &Matrix,
    metric: Metric,
    linkage: Linkage,
    collector: &Collector,
) -> Result<Dendrogram, ClusterError> {
    if points.is_empty() {
        return Err(ClusterError::EmptyInput);
    }
    // Stage-boundary guard: a non-finite coordinate would otherwise surface
    // far downstream as an invalid distance matrix with no cell coordinates.
    let report = hiermeans_linalg::validate::validate(points);
    if report.has_fatal() {
        return Err(ClusterError::InvalidData { report });
    }
    let _span = collector.span(stages::CLUSTER_AGGLOMERATE);
    let dist = pairwise_traced(points, metric, collector)?;
    if points.nrows() >= NN_CHAIN_MIN_N && nnchain::is_reducible(linkage) {
        nnchain::cluster_nn_chain_owned(dist, linkage, collector)
    } else {
        cluster_from_distances(&dist, linkage, collector)
    }
}

/// The traced pairwise stage: a `cluster.pairwise` span with its
/// chunk-lane recording and the distance-evaluation counter.
fn pairwise_traced(
    points: &Matrix,
    metric: Metric,
    collector: &Collector,
) -> Result<Matrix, ClusterError> {
    let _pairwise = collector.span(stages::CLUSTER_PAIRWISE);
    let n_chunks = points.nrows().div_ceil(PAIRWISE_CHUNKING.chunk_size);
    let mut lane_buf = collector
        .lane_clock()
        .map(|clock| (clock, LaneBuf::with_capacity(n_chunks)));
    let dist = pairwise_norm_trick(
        points,
        metric,
        lane_buf.as_mut().map(|(clock, buf)| (*clock, buf)),
    )?;
    if let Some((_, buf)) = lane_buf.as_ref() {
        collector.attach_lanes(stages::CLUSTER_PAIRWISE, n_chunks, buf);
    }
    if collector.is_enabled() {
        let n = points.nrows() as u64;
        let mut buf = CounterBuf::new();
        buf.add(Counter::DistanceEvaluations, n * n.saturating_sub(1) / 2);
        collector.flush(&buf);
    }
    Ok(dist)
}

/// Clusters from a precomputed symmetric distance matrix with the naive
/// global-minimum merge loop.
///
/// This is the reference every NN-chain result is tested against, and
/// the only algorithm for the non-reducible centroid and median linkages.
/// The loop runs in a `cluster.merge_loop` span and records each merge
/// distance as it happens, so the trace carries the full merge-distance
/// trajectory the paper's "large jump in merging distance" heuristic
/// inspects.
///
/// # Errors
///
/// * [`ClusterError::EmptyInput`] for a 0x0 matrix.
/// * [`ClusterError::InvalidDistanceMatrix`] if the matrix is not square,
///   not symmetric, has a nonzero diagonal, or contains negative or
///   non-finite entries.
pub fn cluster_from_distances(
    dist: &Matrix,
    linkage: Linkage,
    collector: &Collector,
) -> Result<Dendrogram, ClusterError> {
    let _span = collector.span(stages::CLUSTER_MERGE_LOOP);
    validate_distance_matrix(dist)?;
    let n = dist.nrows();
    if n == 1 {
        return Dendrogram::new(1, vec![]);
    }

    // Working distance matrix indexed by *slot*; each slot holds the current
    // cluster occupying it (or None once merged away).
    let mut d = dist.clone();
    // Per-slot cluster metadata: (dendrogram id, leaf count).
    let mut info: Vec<Option<(usize, usize)>> = (0..n).map(|i| Some((i, 1))).collect();
    let mut merges = Vec::with_capacity(n - 1);
    // The merge loop is serial by construction; its timeline is one lane
    // with one interval per merge step (chunk = step index) on worker 0.
    let lane_clock = collector.lane_clock();
    let mut lane_buf = lane_clock.map(|_| LaneBuf::with_capacity(n - 1));

    for step in 0..(n - 1) {
        let lane_begin = lane_clock.map_or(0, |c| c.now_us());
        // Find the closest active pair (ties -> smallest (i, j)).
        let mut best: Option<(usize, usize, f64)> = None;
        for i in 0..n {
            if info[i].is_none() {
                continue;
            }
            for j in (i + 1)..n {
                if info[j].is_none() {
                    continue;
                }
                let dij = d[(i, j)];
                if best.is_none_or(|(_, _, b)| dij < b) {
                    best = Some((i, j, dij));
                }
            }
        }
        let Some((i, j, dij)) = best else {
            return Err(ClusterError::Internal {
                what: "merge loop found no active pair",
            });
        };
        let (Some((id_i, size_i)), Some((id_j, size_j))) = (info[i], info[j]) else {
            return Err(ClusterError::Internal {
                what: "best pair referenced an inactive slot",
            });
        };
        let new_id = n + step;
        let new_size = size_i + size_j;
        merges.push(Merge {
            left: id_i.min(id_j),
            right: id_i.max(id_j),
            distance: dij,
            size: new_size,
        });
        collector.record_merge(dij);

        // Lance–Williams update: slot i becomes the merged cluster.
        for k in 0..n {
            if k == i || k == j {
                continue;
            }
            let Some((_, size_k)) = info[k] else {
                continue;
            };
            let updated = linkage.update(d[(k, i)], d[(k, j)], dij, size_i, size_j, size_k);
            d[(k, i)] = updated;
            d[(i, k)] = updated;
        }
        info[i] = Some((new_id, new_size));
        info[j] = None;
        if let (Some(clock), Some(lanes)) = (lane_clock, lane_buf.as_mut()) {
            lanes.record(step, 0, lane_begin, clock.now_us());
        }
    }
    if let Some(lanes) = lane_buf.as_mut() {
        lanes.end_run();
        collector.attach_lanes(stages::CLUSTER_MERGE_LOOP, n - 1, lanes);
    }

    Dendrogram::new(n, merges)
}

pub(crate) fn validate_distance_matrix(dist: &Matrix) -> Result<(), ClusterError> {
    let (r, c) = dist.shape();
    if r == 0 || c == 0 {
        return Err(ClusterError::EmptyInput);
    }
    if r != c {
        return Err(ClusterError::InvalidDistanceMatrix {
            reason: "matrix is not square",
        });
    }
    for i in 0..r {
        if dist[(i, i)] != 0.0 {
            return Err(ClusterError::InvalidDistanceMatrix {
                reason: "diagonal must be zero",
            });
        }
        for j in 0..c {
            let v = dist[(i, j)];
            if !v.is_finite() {
                return Err(ClusterError::InvalidDistanceMatrix {
                    reason: "entries must be finite",
                });
            }
            if v < 0.0 {
                return Err(ClusterError::InvalidDistanceMatrix {
                    reason: "entries must be non-negative",
                });
            }
            if (v - dist[(j, i)]).abs() > 1e-9 {
                return Err(ClusterError::InvalidDistanceMatrix {
                    reason: "matrix is not symmetric",
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiermeans_linalg::distance::pairwise;

    /// [`cluster`] over Euclidean distances, untraced.
    fn untraced(points: &Matrix, linkage: Linkage) -> Dendrogram {
        cluster(points, Metric::Euclidean, linkage, &Collector::disabled()).unwrap()
    }

    fn line_points() -> Matrix {
        Matrix::from_rows(&[vec![0.0], vec![1.0], vec![5.0], vec![6.0]]).unwrap()
    }

    #[test]
    fn complete_linkage_merge_order() {
        let d = untraced(&line_points(), Linkage::Complete);
        // Pairs (0,1) and (2,3) merge at 1.0 each; complete linkage joins the
        // two pairs at max distance = 6.0.
        assert_eq!(d.merges()[0].distance, 1.0);
        assert_eq!(d.merges()[1].distance, 1.0);
        assert_eq!(d.merges()[2].distance, 6.0);
    }

    #[test]
    fn single_linkage_joins_at_gap() {
        let d = untraced(&line_points(), Linkage::Single);
        // Single linkage joins the two pairs at the nearest gap = 4.0.
        assert_eq!(d.merges()[2].distance, 4.0);
    }

    #[test]
    fn average_linkage_between_single_and_complete() {
        let s = untraced(&line_points(), Linkage::Single);
        let a = untraced(&line_points(), Linkage::Average);
        let c = untraced(&line_points(), Linkage::Complete);
        let last = |d: &Dendrogram| d.merges().last().unwrap().distance;
        assert!(last(&s) <= last(&a));
        assert!(last(&a) <= last(&c));
        // UPGMA over {0,1} vs {5,6}: mean of {5,6,4,5} = 5.0.
        assert!((last(&a) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn monotone_linkages_produce_monotone_dendrograms() {
        let pts = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![1.0, 0.2],
            vec![0.4, 1.1],
            vec![5.0, 5.0],
            vec![5.5, 4.8],
            vec![9.0, 0.5],
        ])
        .unwrap();
        for linkage in Linkage::all() {
            let d = untraced(&pts, linkage);
            if linkage.is_monotone() {
                assert!(d.is_monotone(), "{linkage} should be monotone");
            }
        }
    }

    #[test]
    fn cut_recovers_planted_clusters() {
        let pts = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.1, 0.1],
            vec![0.2, 0.0],
            vec![10.0, 10.0],
            vec![10.1, 10.2],
            vec![20.0, 0.0],
        ])
        .unwrap();
        let d = untraced(&pts, Linkage::Complete);
        let a = d.cut_into(3).unwrap();
        assert!(a.same_cluster(0, 1) && a.same_cluster(1, 2));
        assert!(a.same_cluster(3, 4));
        assert!(!a.same_cluster(0, 3));
        assert!(!a.same_cluster(0, 5) && !a.same_cluster(3, 5));
    }

    #[test]
    fn deterministic_under_ties() {
        // Four equidistant-ish points with exact ties.
        let pts = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let a = untraced(&pts, Linkage::Single);
        let b = untraced(&pts, Linkage::Single);
        assert_eq!(a, b);
        // Tie broken toward the smallest pair: (0, 1) first.
        assert_eq!(a.merges()[0].left, 0);
        assert_eq!(a.merges()[0].right, 1);
    }

    #[test]
    fn from_distances_validates() {
        let asym = Matrix::from_rows(&[vec![0.0, 1.0], vec![2.0, 0.0]]).unwrap();
        assert!(matches!(
            cluster_from_distances(&asym, Linkage::Complete, &Collector::disabled()).unwrap_err(),
            ClusterError::InvalidDistanceMatrix { .. }
        ));
        let nonzero_diag = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 0.0]]).unwrap();
        assert!(
            cluster_from_distances(&nonzero_diag, Linkage::Complete, &Collector::disabled())
                .is_err()
        );
        let negative = Matrix::from_rows(&[vec![0.0, -1.0], vec![-1.0, 0.0]]).unwrap();
        assert!(
            cluster_from_distances(&negative, Linkage::Complete, &Collector::disabled()).is_err()
        );
        let not_square = Matrix::zeros(2, 3);
        assert!(
            cluster_from_distances(&not_square, Linkage::Complete, &Collector::disabled()).is_err()
        );
    }

    #[test]
    fn single_point_dendrogram() {
        let pts = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        let d = untraced(&pts, Linkage::Complete);
        assert_eq!(d.n_leaves(), 1);
        assert!(d.merges().is_empty());
    }

    #[test]
    fn two_points() {
        let pts = Matrix::from_rows(&[vec![0.0], vec![3.0]]).unwrap();
        let d = untraced(&pts, Linkage::Ward);
        assert_eq!(d.merges().len(), 1);
        assert!((d.merges()[0].distance - 3.0).abs() < 1e-12);
    }

    #[test]
    fn cophenetic_dominates_pairwise_for_complete_linkage() {
        // For complete linkage, cophenetic distance >= original distance.
        let pts = line_points();
        let d = untraced(&pts, Linkage::Complete);
        let coph = d.cophenetic();
        let orig = pairwise(&pts, Metric::Euclidean).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                assert!(coph[(i, j)] >= orig[(i, j)] - 1e-9);
            }
        }
    }

    #[test]
    fn cophenetic_bounded_by_pairwise_for_single_linkage() {
        // For single linkage, cophenetic distance <= original distance.
        let pts = line_points();
        let d = untraced(&pts, Linkage::Single);
        let coph = d.cophenetic();
        let orig = pairwise(&pts, Metric::Euclidean).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    assert!(coph[(i, j)] <= orig[(i, j)] + 1e-9);
                }
            }
        }
    }

    /// Deterministic pseudo-random points whose pairwise distances are
    /// all distinct, so the naive loop and NN-chain give one dendrogram.
    fn scattered(n: usize) -> Matrix {
        let coord = |seed: u64| {
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            x ^= x >> 31;
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x ^= x >> 29;
            (x % 1_000_000) as f64 / 7_919.0
        };
        let rows: Vec<Vec<f64>> = (0..n as u64)
            .map(|i| vec![coord(2 * i + 1), coord(2 * i + 2)])
            .collect();
        Matrix::from_rows(&rows).unwrap()
    }

    fn merge_bits(d: &Dendrogram) -> Vec<(usize, usize, u64, usize)> {
        d.merges()
            .iter()
            .map(|m| (m.left, m.right, m.distance.to_bits(), m.size))
            .collect()
    }

    #[test]
    fn centroid_and_median_take_the_naive_loop_at_any_size() {
        let pts = scattered(200);
        let dist = pairwise_norm_trick(&pts, Metric::Euclidean, None).unwrap();
        for linkage in [Linkage::Centroid, Linkage::Median] {
            let d = untraced(&pts, linkage);
            let naive = cluster_from_distances(&dist, linkage, &Collector::disabled()).unwrap();
            assert_eq!(merge_bits(&d), merge_bits(&naive), "{linkage}");
        }
    }

    #[test]
    fn complete_linkage_matches_the_naive_loop_on_both_sides_of_the_threshold() {
        for n in [NN_CHAIN_MIN_N - 1, NN_CHAIN_MIN_N] {
            let pts = scattered(n);
            let dist = pairwise_norm_trick(&pts, Metric::Euclidean, None).unwrap();
            let traced = Collector::enabled();
            let d = cluster(&pts, Metric::Euclidean, Linkage::Complete, &traced).unwrap();
            let oracle_trace = Collector::enabled();
            let naive = cluster_from_distances(&dist, Linkage::Complete, &oracle_trace).unwrap();
            assert_eq!(merge_bits(&d), merge_bits(&naive), "n = {n}");
            // The recorded merge trajectory is the naive loop's, bit for bit.
            let bits = |c: &Collector| -> Vec<u64> {
                let report = c.report().unwrap();
                report.merge_distances.iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&traced), bits(&oracle_trace), "n = {n}");
        }
    }
}
