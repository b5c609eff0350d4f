//! The silhouette cluster-validity index.
//!
//! The paper picks the cluster count by eye-balling the dendrogram and the
//! SOM map ("it aligns well with the SOM analysis results"). The mean
//! silhouette is the quantitative counterpart: [`crate::selection`] sweeps
//! it over dendrogram cuts, and the suite-analysis facade recommends a
//! cluster count from that sweep.

use hiermeans_linalg::cells::Cells;
use hiermeans_linalg::distance::pairwise;
use hiermeans_linalg::Matrix;

use crate::{ClusterAssignment, ClusterError};

// The per-pair reference silhouettes the cell kernel must match bit for
// bit. The file lives with the integration tests, which include it too.
#[cfg(test)]
#[path = "../tests/oracle/mod.rs"]
mod oracle;

/// Mean silhouette coefficient over all points, in `[-1, 1]` (higher is
/// better separation).
///
/// Points in singleton clusters contribute a silhouette of 0, following the
/// usual convention.
///
/// Rows are first grouped into the `U` distinct rows they occupy (map
/// cells, for SOM positions), so the cost is `O(U²·dim + (U + k)·n)` time
/// and `O(U² + k·U)` memory rather than `n²` distance evaluations. For
/// every cluster `c` and cell `u` the distances from `u` to the members of
/// `c` are summed in ascending row order, and each row reads its `a(i)`
/// and `b(i)` from its cell. For finite coordinates that is bit-identical
/// to the textbook loop `a(i) = Σ_{j ∈ own, j ≠ i} d(i, j) / (|own| − 1)`:
///
/// * rows are grouped by exact bit pattern, so every row of a cell is at
///   the same distance from any other row as the cell's representative;
/// * members are added in the same ascending order;
/// * the self term the textbook loop skips is `d(i, i) = +0.0`, and adding
///   `+0.0` to a non-negative running sum changes no bit;
/// * the final `total += (b − a) / max(a, b)` still runs in row order.
///
/// # Errors
///
/// * [`ClusterError::InvalidLabels`] if the assignment length differs from
///   the point count or there are fewer than 2 clusters.
/// * [`ClusterError::Linalg`] for distance failures.
///
/// # Example
///
/// ```
/// use hiermeans_cluster::{validity, ClusterAssignment};
/// use hiermeans_linalg::Matrix;
///
/// # fn main() -> Result<(), hiermeans_cluster::ClusterError> {
/// let pts = Matrix::from_rows(&[
///     vec![0.0, 0.0], vec![0.1, 0.0], vec![9.0, 9.0], vec![9.1, 9.0],
/// ])?;
/// let good = ClusterAssignment::from_labels(&[0, 0, 1, 1])?;
/// let bad = ClusterAssignment::from_labels(&[0, 1, 0, 1])?;
/// assert!(validity::silhouette(&pts, &good)? > validity::silhouette(&pts, &bad)?);
/// # Ok(())
/// # }
/// ```
pub fn silhouette(points: &Matrix, assignment: &ClusterAssignment) -> Result<f64, ClusterError> {
    check(points, assignment)?;
    if assignment.n_clusters() < 2 {
        return Err(ClusterError::InvalidLabels {
            reason: "silhouette requires at least two clusters",
        });
    }
    Ok(CellDistances::new(points)?.silhouette(assignment, &mut Vec::new()))
}

/// The distinct rows ("occupied cells") of a point set and the Euclidean
/// distances between them: the kernel behind [`silhouette`] and
/// [`crate::selection::silhouette_sweep`], which builds it once per sweep
/// and scores every cut from it.
pub(crate) struct CellDistances {
    /// The cell of each row, numbered in order of first appearance.
    cell_of_row: Vec<usize>,
    /// `U × U` Euclidean distances between the cells' representative rows.
    table: Matrix,
}

impl CellDistances {
    /// Groups `points` into cells and computes the cell-distance table.
    pub(crate) fn new(points: &Matrix) -> Result<Self, ClusterError> {
        let cells = Cells::new(points);
        let table = pairwise(&cells.representatives(points))?;
        Ok(CellDistances {
            cell_of_row: cells.cell_of_row,
            table,
        })
    }

    /// The mean silhouette of `assignment`, which must cover the same rows
    /// and have at least two clusters. `sums` is scratch space that a sweep
    /// reuses across cuts.
    pub(crate) fn silhouette(&self, assignment: &ClusterAssignment, sums: &mut Vec<f64>) -> f64 {
        let cells = self.table.nrows();
        let labels = assignment.labels();
        let sizes = assignment.sizes();
        // sums[c·U + u] = Σ d(cell u, row j) over the members j of cluster c.
        sums.clear();
        sums.resize(sizes.len() * cells, 0.0);
        for (&c, &cell) in labels.iter().zip(&self.cell_of_row) {
            let row = &mut sums[c * cells..(c + 1) * cells];
            for (s, d) in row.iter_mut().zip(self.table.row(cell)) {
                *s += d;
            }
        }
        let mut total = 0.0;
        for (&own, &cell) in labels.iter().zip(&self.cell_of_row) {
            if sizes[own] == 1 {
                continue; // silhouette 0 by convention
            }
            // a(i): mean distance to own cluster (the self term is +0.0).
            let a = sums[own * cells + cell] / (sizes[own] - 1) as f64;
            // b(i): min over other clusters of mean distance.
            let mut b = f64::INFINITY;
            for (c, &size) in sizes.iter().enumerate() {
                if c != own {
                    b = b.min(sums[c * cells + cell] / size as f64);
                }
            }
            let denom = a.max(b);
            if denom > 0.0 {
                total += (b - a) / denom;
            }
        }
        total / labels.len() as f64
    }
}

fn check(points: &Matrix, assignment: &ClusterAssignment) -> Result<(), ClusterError> {
    if points.is_empty() {
        return Err(ClusterError::EmptyInput);
    }
    if points.nrows() != assignment.len() {
        return Err(ClusterError::InvalidLabels {
            reason: "assignment length differs from point count",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> (Matrix, ClusterAssignment) {
        let pts = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.2, 0.1],
            vec![0.1, 0.3],
            vec![8.0, 8.0],
            vec![8.2, 7.9],
            vec![7.9, 8.1],
        ])
        .unwrap();
        let a = ClusterAssignment::from_labels(&[0, 0, 0, 1, 1, 1]).unwrap();
        (pts, a)
    }

    #[test]
    fn silhouette_high_for_separated_blobs() {
        let (pts, a) = blobs();
        let s = silhouette(&pts, &a).unwrap();
        assert!(s > 0.9, "s={s}");
    }

    #[test]
    fn silhouette_penalizes_bad_split() {
        let (pts, good) = blobs();
        let bad = ClusterAssignment::from_labels(&[0, 1, 0, 1, 0, 1]).unwrap();
        assert!(silhouette(&pts, &good).unwrap() > silhouette(&pts, &bad).unwrap());
    }

    #[test]
    fn silhouette_bounds() {
        let (pts, a) = blobs();
        let s = silhouette(&pts, &a).unwrap();
        assert!((-1.0..=1.0).contains(&s));
    }

    #[test]
    fn silhouette_singleton_contributes_zero() {
        let pts = Matrix::from_rows(&[vec![0.0], vec![0.1], vec![10.0]]).unwrap();
        let a = ClusterAssignment::from_labels(&[0, 0, 1]).unwrap();
        let s = silhouette(&pts, &a).unwrap();
        // Two near-perfect points and one zero contribution.
        assert!(s > 0.6 && s < 1.0);
    }

    #[test]
    fn silhouette_matches_oracles_bitwise() {
        use hiermeans_linalg::distance::pairwise;
        let (pts, good) = blobs();
        let bad = ClusterAssignment::from_labels(&[0, 1, 0, 1, 0, 1]).unwrap();
        let singletons = ClusterAssignment::from_labels(&[0, 0, 0, 1, 2, 3]).unwrap();
        let dist = pairwise(&pts).unwrap();
        for a in [&good, &bad, &singletons] {
            let cells = silhouette(&pts, a).unwrap();
            let naive = oracle::silhouette(&pts, a.labels());
            let from_dist = oracle::silhouette_from_distances(&dist, a.labels());
            assert_eq!(cells.to_bits(), naive.to_bits());
            assert_eq!(cells.to_bits(), from_dist.to_bits());
        }
    }

    #[test]
    fn silhouette_groups_duplicate_rows_into_cells() {
        let pts = Matrix::from_rows(&[
            vec![1.0, 2.0],
            vec![3.0, 0.0],
            vec![1.0, 2.0],
            vec![-0.0, 0.0],
            vec![3.0, 0.0],
            vec![0.0, 0.0],
        ])
        .unwrap();
        let cells = CellDistances::new(&pts).unwrap();
        // -0.0 and +0.0 differ in bits, so they occupy different cells.
        assert_eq!(cells.cell_of_row, vec![0, 1, 0, 2, 1, 3]);
        assert_eq!(cells.table.shape(), (4, 4));
        let a = ClusterAssignment::from_labels(&[0, 1, 0, 2, 1, 2]).unwrap();
        assert_eq!(
            silhouette(&pts, &a).unwrap().to_bits(),
            oracle::silhouette(&pts, a.labels()).to_bits()
        );
    }

    #[test]
    fn errors_on_mismatched_lengths() {
        let (pts, _) = blobs();
        let short = ClusterAssignment::from_labels(&[0, 1]).unwrap();
        assert!(silhouette(&pts, &short).is_err());
    }

    #[test]
    fn errors_on_single_cluster() {
        let (pts, _) = blobs();
        let one = ClusterAssignment::from_labels(&[0; 6]).unwrap();
        assert!(silhouette(&pts, &one).is_err());
    }
}
