//! The unified distance matrix (U-matrix).
//!
//! For each unit, the U-matrix holds the average distance between that unit's
//! weight vector and its immediate lattice neighbors' weight vectors. High
//! values mark cluster boundaries on the map; low values mark dense regions —
//! this is how SOM maps like the paper's Figures 3, 5 and 7 are read.

use hiermeans_linalg::distance::euclidean;
use hiermeans_linalg::Matrix;

use crate::train::Som;
use crate::SomError;

/// Computes the U-matrix of a trained map as a `height x width` matrix.
///
/// # Errors
///
/// Propagates distance evaluation errors (cannot occur for a well-formed map).
///
/// # Example
///
/// ```
/// use hiermeans_linalg::Matrix;
/// use hiermeans_som::{umatrix::u_matrix, SomBuilder};
///
/// # fn main() -> Result<(), hiermeans_som::SomError> {
/// let data = Matrix::from_rows(&[vec![0.0, 0.0], vec![9.0, 9.0]])?;
/// let som = SomBuilder::new(4, 4).seed(1).epochs(60).train(&data)?;
/// let u = u_matrix(&som)?;
/// assert_eq!(u.shape(), (4, 4));
/// # Ok(())
/// # }
/// ```
pub fn u_matrix(som: &Som) -> Result<Matrix, SomError> {
    let grid = som.grid();
    let mut u = Matrix::zeros(grid.height(), grid.width());
    // One unit's weight vector and one neighbor's, gathered from their
    // codebook columns.
    let mut w = vec![0.0; som.dim()];
    let mut wn = vec![0.0; som.dim()];
    for unit in 0..grid.len() {
        som.weights().col_into(unit, &mut w);
        let neighbors = grid.neighbors(unit);
        let mut total = 0.0;
        for &n in &neighbors {
            som.weights().col_into(n, &mut wn);
            total += euclidean(&w, &wn).map_err(SomError::Linalg)?;
        }
        let (col, row) = grid.coords(unit);
        u[(row, col)] = if neighbors.is_empty() {
            0.0
        } else {
            total / neighbors.len() as f64
        };
    }
    Ok(u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SomBuilder;

    #[test]
    fn shape_matches_grid() {
        let data = Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0, 1.0], vec![0.5, 0.2]]).unwrap();
        let som = SomBuilder::new(5, 3)
            .seed(4)
            .epochs(20)
            .train(&data)
            .unwrap();
        let u = u_matrix(&som).unwrap();
        assert_eq!(u.shape(), (3, 5));
    }

    #[test]
    fn values_nonnegative() {
        let data = Matrix::from_rows(&[vec![0.0, 0.0], vec![4.0, 4.0]]).unwrap();
        let som = SomBuilder::new(4, 4)
            .seed(4)
            .epochs(40)
            .train(&data)
            .unwrap();
        let u = u_matrix(&som).unwrap();
        assert!(u.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn boundary_between_separated_blobs_is_high() {
        // Two very distant blobs: somewhere on the map there must be a ridge
        // (a unit whose neighborhood distance exceeds the map minimum).
        let data = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.1, 0.0],
            vec![100.0, 100.0],
            vec![100.1, 100.0],
        ])
        .unwrap();
        let som = SomBuilder::new(6, 6)
            .seed(8)
            .epochs(80)
            .train(&data)
            .unwrap();
        let u = u_matrix(&som).unwrap();
        let max = u.as_slice().iter().cloned().fold(f64::MIN, f64::max);
        let min = u.as_slice().iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            max > min * 2.0 + 1e-9,
            "expected a ridge: min={min} max={max}"
        );
    }
}
