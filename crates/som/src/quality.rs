//! Map quality metrics.
//!
//! * **Quantization error** — mean distance between each sample and its BMU's
//!   weight vector; measures how faithfully the codebook represents the data.
//! * **Topographic error** — fraction of samples whose best and second-best
//!   units are *not* lattice neighbors; measures how well the map preserves
//!   topology (the property the paper relies on: "two vectors that were close
//!   in the original n-dimension appear closer").
//!
//! Both metrics need the same best-matching-unit search, so they share one
//! cached pass: [`BmuTable::compute`] scans the codebook once per sample,
//! recording the best unit, its distance, and the runner-up. Computing QE
//! and TE from the table costs one search pass total instead of two — which
//! is what keeps per-epoch convergence telemetry from doubling training's
//! O(epochs·n·cells) BMU work.

use hiermeans_linalg::Matrix;

use crate::train::Som;
use crate::SomError;

/// One sample's cached BMU search result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BmuHit {
    /// Best matching unit.
    pub best: usize,
    /// Second-best matching unit (equals `best` on a single-unit map).
    pub second: usize,
    /// Distance from the sample to the best unit's weight vector.
    pub best_distance: f64,
}

/// The cached best-two BMU search over a whole dataset: the shared input to
/// [`quantization_error`] and [`topographic_error`].
#[derive(Debug, Clone, PartialEq)]
pub struct BmuTable {
    hits: Vec<BmuHit>,
}

impl BmuTable {
    /// Runs one best-two search pass over every row of `data` via
    /// [`Som::bmu_batch`] — parallelized over row chunks (bitwise identical
    /// for any worker count).
    ///
    /// # Errors
    ///
    /// Returns [`SomError::EmptyData`] for empty data and propagates
    /// dimension mismatches.
    pub fn compute(som: &Som, data: &Matrix) -> Result<Self, SomError> {
        if data.is_empty() {
            return Err(SomError::EmptyData);
        }
        Ok(BmuTable {
            hits: som.bmu_batch(data)?,
        })
    }

    /// The per-sample hits, in row order.
    #[must_use]
    pub fn hits(&self) -> &[BmuHit] {
        &self.hits
    }

    /// Mean sample-to-BMU distance over the cached pass.
    #[must_use]
    pub fn quantization_error(&self) -> f64 {
        let total: f64 = self.hits.iter().map(|h| h.best_distance).sum();
        total / self.hits.len() as f64
    }

    /// Fraction of samples whose best two units are not lattice neighbors.
    ///
    /// # Errors
    ///
    /// Returns [`SomError::InvalidConfig`] if the map has fewer than two
    /// units (there is no second-best unit to compare).
    pub fn topographic_error(&self, som: &Som) -> Result<f64, SomError> {
        if som.grid().len() < 2 {
            return Err(SomError::InvalidConfig {
                name: "grid",
                reason: "second-best unit requires at least two units",
            });
        }
        let errors = self
            .hits
            .iter()
            .filter(|h| !som.grid().are_neighbors(h.best, h.second))
            .count();
        Ok(errors as f64 / self.hits.len() as f64)
    }
}

/// Both quality metrics from one shared BMU pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MapQuality {
    /// Mean sample-to-BMU distance.
    pub quantization_error: f64,
    /// Fraction of samples with non-neighboring best two units (`0.0` on a
    /// single-unit map, where topology is trivially preserved).
    pub topographic_error: f64,
}

/// Computes quantization and topographic error with a single shared BMU
/// pass — half the search work of calling [`quantization_error`] and
/// [`topographic_error`] separately.
///
/// # Errors
///
/// Returns [`SomError::EmptyData`] for empty data and propagates dimension
/// mismatches.
pub fn map_quality(som: &Som, data: &Matrix) -> Result<MapQuality, SomError> {
    let table = BmuTable::compute(som, data)?;
    let topographic_error = if som.grid().len() < 2 {
        0.0
    } else {
        table.topographic_error(som)?
    };
    Ok(MapQuality {
        quantization_error: table.quantization_error(),
        topographic_error,
    })
}

/// Mean distance from each row of `data` to its BMU weight vector.
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
/// use hiermeans_som::{quality, SomBuilder};
///
/// # fn main() -> Result<(), hiermeans_som::SomError> {
/// let data = Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0, 1.0]])?;
/// let som = SomBuilder::new(3, 3).seed(1).epochs(50).train(&data)?;
/// let qe = quality::quantization_error(&som, &data)?;
/// assert!(qe < 0.5); // two samples, nine units: near-perfect fit
/// # Ok(())
/// # }
/// ```
pub fn quantization_error(som: &Som, data: &Matrix) -> Result<f64, SomError> {
    Ok(BmuTable::compute(som, data)?.quantization_error())
}

/// Fraction of rows whose best and second-best matching units are not
/// immediate lattice neighbors, in `[0, 1]` (lower is better).
///
/// # Errors
///
/// Returns [`SomError::EmptyData`] for empty data, and
/// [`SomError::InvalidConfig`] if the map has fewer than two units.
pub fn topographic_error(som: &Som, data: &Matrix) -> Result<f64, SomError> {
    BmuTable::compute(som, data)?.topographic_error(som)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SomBuilder;
    use hiermeans_linalg::distance::euclidean;

    fn data() -> Matrix {
        Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.2, 0.1],
            vec![1.0, 1.0],
            vec![0.8, 0.9],
            vec![0.5, 0.5],
        ])
        .unwrap()
    }

    #[test]
    fn quantization_error_decreases_with_training() {
        let short = SomBuilder::new(4, 4)
            .seed(5)
            .epochs(1)
            .train(&data())
            .unwrap();
        let long = SomBuilder::new(4, 4)
            .seed(5)
            .epochs(200)
            .train(&data())
            .unwrap();
        let qe_short = quantization_error(&short, &data()).unwrap();
        let qe_long = quantization_error(&long, &data()).unwrap();
        assert!(
            qe_long <= qe_short + 1e-9,
            "training should not increase QE: {qe_short} -> {qe_long}"
        );
    }

    #[test]
    fn quantization_error_nonnegative() {
        let som = SomBuilder::new(3, 3)
            .seed(1)
            .epochs(10)
            .train(&data())
            .unwrap();
        assert!(quantization_error(&som, &data()).unwrap() >= 0.0);
    }

    #[test]
    fn topographic_error_in_unit_interval() {
        let som = SomBuilder::new(3, 3)
            .seed(1)
            .epochs(30)
            .train(&data())
            .unwrap();
        let te = topographic_error(&som, &data()).unwrap();
        assert!((0.0..=1.0).contains(&te));
    }

    #[test]
    fn errors_on_empty_data() {
        let som = SomBuilder::new(3, 3)
            .seed(1)
            .epochs(5)
            .train(&data())
            .unwrap();
        let empty = Matrix::zeros(0, 2);
        assert!(matches!(
            quantization_error(&som, &empty).unwrap_err(),
            SomError::EmptyData
        ));
        assert!(matches!(
            topographic_error(&som, &empty).unwrap_err(),
            SomError::EmptyData
        ));
        assert!(matches!(
            BmuTable::compute(&som, &empty).unwrap_err(),
            SomError::EmptyData
        ));
    }

    #[test]
    fn perfect_codebook_zero_qe() {
        // Train long enough on two points with a big map: the BMU weights
        // converge onto the points themselves.
        let two = Matrix::from_rows(&[vec![0.0, 0.0], vec![10.0, 10.0]]).unwrap();
        let som = SomBuilder::new(5, 5)
            .seed(2)
            .epochs(400)
            .train(&two)
            .unwrap();
        let qe = quantization_error(&som, &two).unwrap();
        assert!(qe < 0.2, "qe={qe}");
    }

    #[test]
    fn shared_pass_matches_separate_calls_bitwise() {
        let som = SomBuilder::new(4, 4)
            .seed(3)
            .epochs(40)
            .train(&data())
            .unwrap();
        let q = map_quality(&som, &data()).unwrap();
        assert_eq!(
            q.quantization_error,
            quantization_error(&som, &data()).unwrap()
        );
        assert_eq!(
            q.topographic_error,
            topographic_error(&som, &data()).unwrap()
        );
    }

    #[test]
    fn bmu_table_matches_bmu_search() {
        let som = SomBuilder::new(4, 4)
            .seed(3)
            .epochs(20)
            .train(&data())
            .unwrap();
        let table = BmuTable::compute(&som, &data()).unwrap();
        for (r, hit) in table.hits().iter().enumerate() {
            assert_eq!(hit.best, som.bmu(data().row(r)).unwrap());
            let (b1, b2) = som.bmu2(data().row(r)).unwrap();
            assert_eq!((hit.best, hit.second), (b1, b2));
            let d = euclidean(data().row(r), &som.weights().col(hit.best)).unwrap();
            assert_eq!(hit.best_distance, d);
        }
    }

    #[test]
    fn single_unit_map_quality() {
        // A 1x1 grid has zero diameter, so the default sigma schedule would
        // not decay; give it an explicit one.
        let som = SomBuilder::new(1, 1)
            .seed(1)
            .epochs(5)
            .sigma(crate::schedule::DecaySchedule::Linear {
                start: 1.0,
                end: 0.1,
            })
            .train(&data())
            .unwrap();
        let q = map_quality(&som, &data()).unwrap();
        assert_eq!(q.topographic_error, 0.0);
        assert!(q.quantization_error >= 0.0);
        let table = BmuTable::compute(&som, &data()).unwrap();
        assert!(table.topographic_error(&som).is_err());
    }
}
