//! Occupied cells: the distinct rows of a point set.
//!
//! SOM positions sit on an integer grid, so n rows occupy only U ≪ n
//! distinct cells (about 57 at n = 1024). The linkage
//! ([`crate::agglomerative::cluster`]) and the silhouette kernel
//! ([`crate::validity`]) both work on cells instead of rows; this module
//! is the one grouping they share.

use std::collections::HashMap;

use hiermeans_linalg::Matrix;

use crate::ClusterError;

/// Rows grouped by exact `f64` bit pattern. Two rows share a cell only if
/// every coordinate has the same bits, so `-0.0` and `+0.0` differ and the
/// distance from any row to anything equals its cell's.
pub(crate) struct Cells {
    /// The cell of each row, numbered in order of first appearance.
    pub(crate) cell_of_row: Vec<usize>,
    /// The first row of each cell, in cell order (`U × dim`).
    pub(crate) representatives: Matrix,
}

impl Cells {
    /// Groups the rows of `points` into cells.
    pub(crate) fn new(points: &Matrix) -> Result<Self, ClusterError> {
        let mut index: HashMap<Box<[u64]>, usize> = HashMap::new();
        let mut representatives = Vec::new();
        let mut key = Vec::with_capacity(points.ncols());
        let cell_of_row = (0..points.nrows())
            .map(|i| {
                let row = points.row(i);
                key.clear();
                key.extend(row.iter().map(|x| x.to_bits()));
                if let Some(&cell) = index.get(key.as_slice()) {
                    return cell;
                }
                let cell = index.len();
                index.insert(key.as_slice().into(), cell);
                representatives.extend_from_slice(row);
                cell
            })
            .collect();
        Ok(Cells {
            cell_of_row,
            representatives: Matrix::from_vec(index.len(), points.ncols(), representatives)?,
        })
    }

    /// The number of rows in each cell, in cell order.
    pub(crate) fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0; self.representatives.nrows()];
        for &cell in &self.cell_of_row {
            sizes[cell] += 1;
        }
        sizes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_by_bit_pattern_in_first_appearance_order() {
        let pts = Matrix::from_rows(&[
            vec![1.0, 2.0],
            vec![3.0, 0.0],
            vec![1.0, 2.0],
            vec![-0.0, 0.0],
            vec![3.0, 0.0],
            vec![0.0, 0.0],
        ])
        .unwrap();
        let cells = Cells::new(&pts).unwrap();
        // -0.0 and +0.0 differ in bits, so they occupy different cells.
        assert_eq!(cells.cell_of_row, vec![0, 1, 0, 2, 1, 3]);
        assert_eq!(cells.sizes(), vec![2, 2, 1, 1]);
        assert_eq!(cells.representatives.shape(), (4, 2));
        assert_eq!(
            cells.representatives.row(2)[0].to_bits(),
            (-0.0f64).to_bits()
        );
    }
}
