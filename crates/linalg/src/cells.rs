//! Occupied cells: the distinct rows of a matrix.
//!
//! This is the workspace's one grouping of rows by bit pattern.
//! [`crate::validate::validate`] reports every finite row after its cell's
//! first as a duplicate. `hiermeans-cluster`'s linkage and silhouette
//! kernel work on cells instead of rows: SOM positions sit on an integer
//! grid, so n rows occupy only U ≪ n distinct cells (about 57 at
//! n = 1024).
//!
//! Grouping is one hashing pass, O(n·dim). The index borrows each row from
//! the matrix, so it holds no copy of any row.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use crate::Matrix;

/// Rows grouped by exact `f64` bit pattern. Two rows share a cell only if
/// every coordinate has the same bits, so `-0.0` and `+0.0` differ, NaN
/// rows group by payload, and the distance from any row to anything equals
/// its cell's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cells {
    /// The cell of each row, numbered in order of first appearance.
    pub cell_of_row: Vec<usize>,
    /// The first row of each cell, in cell order (ascending).
    pub first_row: Vec<usize>,
}

/// A row borrowed from the matrix, hashed and compared by bit pattern.
struct BitRow<'a>(&'a [f64]);

impl Hash for BitRow<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for x in self.0 {
            state.write_u64(x.to_bits());
        }
    }
}

impl PartialEq for BitRow<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.0.len() == other.0.len()
            && self
                .0
                .iter()
                .zip(other.0)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

impl Eq for BitRow<'_> {}

impl Cells {
    /// Groups the rows of `matrix` into cells.
    #[must_use]
    pub fn new(matrix: &Matrix) -> Cells {
        let mut index: HashMap<BitRow<'_>, usize> = HashMap::new();
        let mut first_row = Vec::new();
        let cell_of_row = (0..matrix.nrows())
            .map(|r| {
                *index.entry(BitRow(matrix.row(r))).or_insert_with(|| {
                    first_row.push(r);
                    first_row.len() - 1
                })
            })
            .collect();
        Cells {
            cell_of_row,
            first_row,
        }
    }

    /// The number of rows in each cell, in cell order.
    #[must_use]
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0; self.first_row.len()];
        for &cell in &self.cell_of_row {
            sizes[cell] += 1;
        }
        sizes
    }

    /// The first row of each cell gathered from `matrix`, the matrix these
    /// cells were built from: a `U × dim` matrix in cell order.
    #[must_use]
    pub fn representatives(&self, matrix: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.first_row.len(), matrix.ncols());
        for (cell, &r) in self.first_row.iter().enumerate() {
            out.row_mut(cell).copy_from_slice(matrix.row(r));
        }
        out
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
        let cells = Cells::new(&pts);
        // -0.0 and +0.0 differ in bits, so they occupy different cells.
        assert_eq!(cells.cell_of_row, vec![0, 1, 0, 2, 1, 3]);
        assert_eq!(cells.first_row, vec![0, 1, 3, 5]);
        assert_eq!(cells.sizes(), vec![2, 2, 1, 1]);
        let representatives = cells.representatives(&pts);
        assert_eq!(representatives.shape(), (4, 2));
        assert_eq!(representatives.row(2)[0].to_bits(), (-0.0f64).to_bits());
    }
}
