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
//! [`cluster`] runs it over occupied cells, not rows: duplicate rows merge
//! at height 0 and the loop sees the U distinct rows as sized leaves, so
//! the pairwise matrix and the merge loop cost O(U²) memory and, with
//! NN-chain (every reducible linkage), O(U²) time; the naive loop here,
//! O(U³), serves centroid and median linkage and is the test oracle. At
//! n = 16384 SOM positions U is about 400. Ties are broken toward the
//! lexicographically smallest `(i, j)` slot pair, a slot being the
//! smallest leaf index a cluster holds, so results are deterministic;
//! NN-chain keeps the same rule.

use hiermeans_linalg::cells::Cells;
use hiermeans_linalg::distance::{pairwise_lanes, PAIRWISE_CHUNKING};
use hiermeans_linalg::Matrix;
use hiermeans_obs::{stages, Collector, Counter, CounterBuf, LaneBuf};

use crate::dendrogram::{Dendrogram, Merge};
use crate::{nnchain, ClusterError, Linkage};

/// Clusters the rows of `points` and returns the full merge history.
///
/// Rows are first grouped into the U distinct rows they occupy (map cells,
/// for SOM positions; bit-pattern grouping, cells numbered by first
/// appearance). Pairwise distances and the merge loop then run over cells
/// only, each cell a leaf of size m, so the cost is O(U²) memory and
/// distance evaluations rather than O(n²). The returned dendrogram still
/// has one leaf per row:
///
/// * first the height-0 merges of duplicate rows: cells in order, rows in
///   row order within a cell, chained `(r0, r1) → id, (id, r2) → …`;
/// * then the cell merges, with each cell standing for the cluster its
///   height-0 merges built.
///
/// Every linkage starts a pair of cells at their point distance x, except
/// Ward, which starts at √(2·mₐ·m_b/(mₐ+m_b))·x, the value two groups of
/// duplicates reach after their height-0 merges. When distinct cells are
/// at positive distance, as map positions are, single, complete and
/// weighted linkage give the row-level dendrogram's heights and cuts
/// (k ≤ U) bit for bit; the others agree up to rounding.
///
/// The pairwise distances come from
/// [`hiermeans_linalg::distance::pairwise_lanes`], each entry the
/// Euclidean distance of its two cells. The merge loop is
/// the NN-chain algorithm (as in [`nnchain::cluster_nn_chain_owned`]) for
/// the reducible linkages and the naive loop (as in
/// [`cluster_from_distances`]) for centroid and median linkage. NN-chain
/// resolves tied heights by the naive loop's rule, so for complete
/// linkage it gives the naive loop's dendrogram bit for bit, ties
/// included.
///
/// Observability: the run sits in a `cluster.agglomerate` span with a
/// nested `cluster.pairwise` span (chunk lanes, the `cluster_cells`
/// counter and U(U−1)/2 distance evaluations) and a `cluster.merge_loop`
/// span. All n − 1 merge distances are recorded into the collector's
/// trajectory, the height-0 merges first, then the cell merges in the
/// order the naive loop finds them, whichever loop ran. Pass
/// [`Collector::disabled`] for an untraced run.
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
/// use hiermeans_linalg::Matrix;
/// use hiermeans_obs::Collector;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let points = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![10.0], vec![0.0]])?;
/// let off = Collector::disabled();
/// let d = cluster(&points, Linkage::Complete, &off)?;
/// // The duplicate rows 0 and 3 merge first, at height 0.
/// assert_eq!((d.merges()[0].left, d.merges()[0].right), (0, 3));
/// assert_eq!(d.merges()[0].distance, 0.0);
/// // Then 1 joins them (distance 1), and 10 joins last (distance 10).
/// assert_eq!(d.merges()[1].distance, 1.0);
/// assert_eq!(d.merges()[2].distance, 10.0);
/// # Ok(())
/// # }
/// ```
pub fn cluster(
    points: &Matrix,
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
    let cells = Cells::new(points);
    let sizes = cells.sizes();
    let mut dist = pairwise_traced(&cells.representatives(points), collector)?;
    if linkage == Linkage::Ward {
        scale_ward(&mut dist, &sizes);
    }
    let n = points.nrows();
    for _ in sizes.len()..n {
        collector.record_merge(0.0);
    }
    let cell_merges = if nnchain::is_reducible(linkage) {
        nnchain::nn_chain_merges(dist, &sizes, linkage, collector)?
    } else {
        naive_merges(dist, &sizes, linkage, collector)?
    };
    Dendrogram::new(n, expand_cells(&cells.cell_of_row, &cell_merges))
}

/// The traced pairwise stage over the cell representatives: a
/// `cluster.pairwise` span with its chunk-lane recording, the
/// distance-evaluation counter and the `cluster_cells` counter.
fn pairwise_traced(cells: &Matrix, collector: &Collector) -> Result<Matrix, ClusterError> {
    let _pairwise = collector.span(stages::CLUSTER_PAIRWISE);
    let n_chunks = cells.nrows().div_ceil(PAIRWISE_CHUNKING.chunk_size);
    let mut lane_buf = collector
        .lane_clock()
        .map(|clock| (clock, LaneBuf::with_capacity(n_chunks)));
    let dist = pairwise_lanes(cells, lane_buf.as_mut().map(|(clock, buf)| (*clock, buf)))?;
    if let Some((_, buf)) = lane_buf.as_ref() {
        collector.attach_lanes(stages::CLUSTER_PAIRWISE, n_chunks, buf);
    }
    if collector.is_enabled() {
        let u = cells.nrows() as u64;
        let mut buf = CounterBuf::new();
        buf.add(Counter::ClusterCells, u);
        buf.add(Counter::DistanceEvaluations, u * u.saturating_sub(1) / 2);
        collector.flush(&buf);
    }
    Ok(dist)
}

/// Scales each point distance x between cells of sizes mₐ and m_b to the
/// Ward distance √(2·mₐ·m_b/(mₐ+m_b))·x of the two groups, which is x
/// itself between single rows.
fn scale_ward(dist: &mut Matrix, sizes: &[usize]) {
    for (a, &ma) in sizes.iter().enumerate() {
        for (b, &mb) in sizes.iter().enumerate().skip(a + 1) {
            let (ma, mb) = (ma as f64, mb as f64);
            let scaled = dist[(a, b)] * (2.0 * ma * mb / (ma + mb)).sqrt();
            dist[(a, b)] = scaled;
            dist[(b, a)] = scaled;
        }
    }
}

/// Expands merges over cells into merges over the rows: the height-0
/// merges of each cell's rows first (cells in order, rows in row order),
/// then `cell_merges` with every cell id replaced by the id of the cluster
/// its height-0 merges built.
fn expand_cells(cell_of_row: &[usize], cell_merges: &[Merge]) -> Vec<Merge> {
    let n = cell_of_row.len();
    // A stable sort groups the rows by cell and keeps row order within one.
    let mut rows: Vec<usize> = (0..n).collect();
    rows.sort_by_key(|&row| cell_of_row[row]);
    let mut merges = Vec::with_capacity(n - 1);
    let mut root = Vec::with_capacity(cell_merges.len() + 1);
    for members in rows.chunk_by(|&a, &b| cell_of_row[a] == cell_of_row[b]) {
        let mut id = members[0];
        for (size, &row) in (2..).zip(&members[1..]) {
            merges.push(Merge {
                left: id.min(row),
                right: id.max(row),
                distance: 0.0,
                size,
            });
            id = n + merges.len() - 1;
        }
        root.push(id);
    }
    let u = root.len();
    let first_cell_merge = n + merges.len();
    let remap = |id: usize| {
        if id < u {
            root[id]
        } else {
            first_cell_merge + (id - u)
        }
    };
    merges.extend(cell_merges.iter().map(|m| {
        let (l, r) = (remap(m.left), remap(m.right));
        Merge {
            left: l.min(r),
            right: l.max(r),
            ..*m
        }
    }));
    merges
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
    let n = dist.nrows();
    let merges = naive_merges(dist.clone(), &vec![1; n], linkage, collector)?;
    Dendrogram::new(n, merges)
}

/// The naive loop over leaves of the given `sizes` (a leaf of size m
/// stands for m rows at one position), consuming `d` as its working
/// matrix: the work behind [`cluster_from_distances`] and the cell-level
/// linkage in [`cluster`]. Each merge's `size` counts rows, not leaves.
pub(crate) fn naive_merges(
    mut d: Matrix,
    sizes: &[usize],
    linkage: Linkage,
    collector: &Collector,
) -> Result<Vec<Merge>, ClusterError> {
    let _span = collector.span(stages::CLUSTER_MERGE_LOOP);
    validate_distance_matrix(&d)?;
    let n = d.nrows();
    debug_assert_eq!(sizes.len(), n);
    if n == 1 {
        return Ok(Vec::new());
    }

    // `d` is indexed by *slot*; each slot holds the current cluster
    // occupying it (or None once merged away). Per-slot cluster metadata:
    // (dendrogram id, row count).
    let mut info: Vec<Option<(usize, usize)>> = sizes
        .iter()
        .enumerate()
        .map(|(i, &m)| Some((i, m)))
        .collect();
    let mut merges = Vec::with_capacity(n - 1);
    // The merge loop is serial by construction; its timeline is one lane
    // with one interval per merge step (chunk = step index) on worker 0.
    let lane_clock = collector.lane_clock();
    let mut lane_buf = lane_clock.map(|_| LaneBuf::with_capacity(n - 1));

    for step in 0..(n - 1) {
        let lane_begin = lane_clock.map_or(0.0, |c| c.now_us());
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

    Ok(merges)
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
        cluster(points, linkage, &Collector::disabled()).unwrap()
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
    fn duplicate_rows_merge_first_in_the_naive_loops_order() {
        // Cells {0, 2, 5} and {1, 3}: for complete linkage the expanded
        // dendrogram is the row-level naive loop's, ids included.
        let pts = Matrix::from_rows(&[
            vec![0.0],
            vec![5.0],
            vec![0.0],
            vec![5.0],
            vec![1.0],
            vec![0.0],
        ])
        .unwrap();
        let d = untraced(&pts, Linkage::Complete);
        let dist = pairwise(&pts).unwrap();
        let rows = cluster_from_distances(&dist, Linkage::Complete, &Collector::disabled());
        assert_eq!(d, rows.unwrap());
        let zeros: Vec<(usize, usize, usize)> = d.merges()[..3]
            .iter()
            .map(|m| (m.left, m.right, m.size))
            .collect();
        assert_eq!(zeros, vec![(0, 2, 2), (5, 6, 3), (1, 3, 2)]);
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
        let orig = pairwise(&pts).unwrap();
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
        let orig = pairwise(&pts).unwrap();
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
        let dist = pairwise(&pts).unwrap();
        for linkage in [Linkage::Centroid, Linkage::Median] {
            let d = untraced(&pts, linkage);
            let naive = cluster_from_distances(&dist, linkage, &Collector::disabled()).unwrap();
            assert_eq!(merge_bits(&d), merge_bits(&naive), "{linkage}");
        }
    }

    /// Deterministic points on a 4 × 4 integer lattice: duplicate rows and
    /// tied merge heights everywhere.
    fn lattice(n: usize) -> Matrix {
        let rows: Vec<Vec<f64>> = (0..n as u64)
            .map(|i| {
                let x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 59;
                vec![(x % 4) as f64, (x / 4 % 4) as f64]
            })
            .collect();
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn complete_linkage_matches_the_naive_loop_at_every_size() {
        for n in [2, 13, 127, 128, 200] {
            for pts in [scattered(n), lattice(n)] {
                let dist = pairwise(&pts).unwrap();
                let traced = Collector::enabled();
                let d = cluster(&pts, Linkage::Complete, &traced).unwrap();
                let oracle_trace = Collector::enabled();
                let naive =
                    cluster_from_distances(&dist, Linkage::Complete, &oracle_trace).unwrap();
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
}
