//! Map introspection: hit histograms and component planes.
//!
//! A *hit map* counts how many inputs map to each unit — the paper's
//! "darker cells indicate that there are multiple workloads that map to the
//! same cell". A *component plane* shows one input feature's value across
//! the unit weights, the standard way to read what a map region encodes.

use hiermeans_linalg::Matrix;

use crate::train::Som;
use crate::SomError;

/// Counts the BMU hits per unit, as a `height x width` matrix.
///
/// # Errors
///
/// Returns [`SomError::EmptyData`] for empty data and propagates dimension
/// mismatches.
///
/// # Example
///
/// ```
/// use hiermeans_linalg::Matrix;
/// use hiermeans_som::{mapping::hit_map, SomBuilder};
///
/// # fn main() -> Result<(), hiermeans_som::SomError> {
/// let data = Matrix::from_rows(&[vec![0.0, 0.0], vec![0.0, 0.0], vec![9.0, 9.0]])?;
/// let som = SomBuilder::new(4, 4).seed(3).epochs(50).train(&data)?;
/// let hits = hit_map(&som, &data)?;
/// let total: f64 = hits.as_slice().iter().sum();
/// assert_eq!(total, 3.0);
/// // The two identical rows share one cell.
/// assert!(hits.as_slice().iter().any(|&h| h == 2.0));
/// # Ok(())
/// # }
/// ```
pub fn hit_map(som: &Som, data: &Matrix) -> Result<Matrix, SomError> {
    if data.is_empty() {
        return Err(SomError::EmptyData);
    }
    let grid = som.grid();
    let mut hits = Matrix::zeros(grid.height(), grid.width());
    for bmu in som.map_rows(data)? {
        let (col, r) = grid.coords(bmu);
        hits[(r, col)] += 1.0;
    }
    Ok(hits)
}

/// Extracts feature `component`'s value across all unit weights, as a
/// `height x width` matrix.
///
/// # Errors
///
/// Returns [`SomError::DimensionMismatch`] if `component >= dim()`.
pub fn component_plane(som: &Som, component: usize) -> Result<Matrix, SomError> {
    if component >= som.dim() {
        return Err(SomError::DimensionMismatch {
            expected: som.dim(),
            actual: component,
        });
    }
    let grid = som.grid();
    let mut plane = Matrix::zeros(grid.height(), grid.width());
    for (unit, &w) in som.weights().row(component).iter().enumerate() {
        let (col, row) = grid.coords(unit);
        plane[(row, col)] = w;
    }
    Ok(plane)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SomBuilder;

    fn data() -> Matrix {
        Matrix::from_rows(&[
            vec![0.0, 10.0],
            vec![0.1, 10.0],
            vec![9.0, 0.0],
            vec![9.1, 0.0],
        ])
        .unwrap()
    }

    #[test]
    fn hit_map_counts_sum_to_rows() {
        let som = SomBuilder::new(5, 4)
            .seed(2)
            .epochs(40)
            .train(&data())
            .unwrap();
        let hits = hit_map(&som, &data()).unwrap();
        assert_eq!(hits.shape(), (4, 5));
        assert_eq!(hits.as_slice().iter().sum::<f64>(), 4.0);
    }

    #[test]
    fn hit_map_rejects_empty() {
        let som = SomBuilder::new(3, 3)
            .seed(2)
            .epochs(10)
            .train(&data())
            .unwrap();
        assert!(hit_map(&som, &Matrix::zeros(0, 2)).is_err());
    }

    #[test]
    fn component_plane_tracks_feature_gradient() {
        let som = SomBuilder::new(6, 6)
            .seed(2)
            .epochs(100)
            .train(&data())
            .unwrap();
        // Feature 0 ranges 0..9; the plane's extremes must reflect it.
        let plane = component_plane(&som, 0).unwrap();
        let max = plane.as_slice().iter().cloned().fold(f64::MIN, f64::max);
        let min = plane.as_slice().iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            max - min > 4.0,
            "plane should span the feature range: {min}..{max}"
        );
    }

    #[test]
    fn component_plane_bounds_checked() {
        let som = SomBuilder::new(3, 3)
            .seed(2)
            .epochs(10)
            .train(&data())
            .unwrap();
        assert!(component_plane(&som, 2).is_err());
        assert!(component_plane(&som, 1).is_ok());
    }

    #[test]
    fn planes_and_weights_agree() {
        let som = SomBuilder::new(4, 3)
            .seed(5)
            .epochs(10)
            .train(&data())
            .unwrap();
        let plane = component_plane(&som, 1).unwrap();
        for unit in 0..som.grid().len() {
            let (c, r) = som.grid().coords(unit);
            assert_eq!(plane[(r, c)], som.weights()[(1, unit)]);
        }
    }
}
