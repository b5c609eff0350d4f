//! Principal components analysis.
//!
//! PCA plays two roles in the reproduction:
//!
//! 1. The paper initializes SOM unit weights "by sampling a subspace generated
//!    by the two major principal components" (Section III-A).
//! 2. PCA is the dimension-reduction *baseline* the paper argues SOM improves
//!    upon (Sections III-A, VI); the ablation benches compare the two.

use serde::{Deserialize, Serialize};

use crate::eigen::jacobi_eigen;
use crate::{LinalgError, Matrix};

/// A fitted PCA model.
///
/// # Example
///
/// ```
/// use hiermeans_linalg::{Matrix, pca::Pca};
///
/// # fn main() -> Result<(), hiermeans_linalg::LinalgError> {
/// let data = Matrix::from_rows(&[
///     vec![2.5, 2.4],
///     vec![0.5, 0.7],
///     vec![2.2, 2.9],
///     vec![1.9, 2.2],
///     vec![3.1, 3.0],
/// ])?;
/// let pca = Pca::fit(&data, 1)?;
/// let reduced = pca.transform(&data)?;
/// assert_eq!(reduced.shape(), (5, 1));
/// // The first component captures most of the variance of this
/// // near-collinear cloud.
/// assert!(pca.explained_variance_ratio()[0] > 0.9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Pca {
    components: Matrix,
    means: Vec<f64>,
    explained_variance: Vec<f64>,
    total_variance: f64,
}

impl Pca {
    /// Fits a PCA with `n_components` principal axes on `data` (rows are
    /// observations).
    ///
    /// For wide data (`ncols > nrows`, the common case for workload
    /// characteristic vectors: 13 workloads x 200 counters) the dual
    /// Gram-matrix method is used, so the eigensolve is on an
    /// `nrows x nrows` matrix instead of `ncols x ncols`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::InvalidParameter`] if `n_components` is zero, exceeds
    ///   the number of columns, or (in the dual path) exceeds `nrows - 1`;
    ///   or if `data` has fewer than two rows.
    /// * Propagates eigensolver errors.
    pub fn fit(data: &Matrix, n_components: usize) -> Result<Self, LinalgError> {
        if n_components == 0 || n_components > data.ncols() {
            return Err(LinalgError::InvalidParameter {
                name: "n_components",
                reason: "must be in 1..=ncols",
            });
        }
        if data.nrows() < 2 {
            return Err(LinalgError::InvalidParameter {
                name: "data",
                reason: "PCA requires at least two observations",
            });
        }
        if data.ncols() > data.nrows() {
            Self::fit_dual(data, n_components)
        } else {
            Self::fit_primal(data, n_components)
        }
    }

    fn fit_primal(data: &Matrix, n_components: usize) -> Result<Self, LinalgError> {
        let cov = data.covariance()?;
        let eigen = jacobi_eigen(&cov)?;
        let total_variance: f64 = eigen.values.iter().map(|v| v.max(0.0)).sum();
        let means = column_means(data);

        // Components as rows: n_components x ncols.
        let mut components = Matrix::zeros(n_components, data.ncols());
        for k in 0..n_components {
            for c in 0..data.ncols() {
                components[(k, c)] = eigen.vectors[(c, k)];
            }
        }
        let explained_variance: Vec<f64> = eigen.values[..n_components]
            .iter()
            .map(|v| v.max(0.0))
            .collect();
        Ok(Pca {
            components,
            means,
            explained_variance,
            total_variance,
        })
    }

    /// Dual PCA: eigendecompose the `n x n` Gram matrix `Xc Xcᵀ / (n-1)` of
    /// the centered data. Its nonzero eigenvalues equal those of the
    /// covariance matrix, and each principal axis is recovered as
    /// `Xcᵀ u / ||Xcᵀ u||`.
    fn fit_dual(data: &Matrix, n_components: usize) -> Result<Self, LinalgError> {
        let n = data.nrows();
        if n_components > n.saturating_sub(1) {
            return Err(LinalgError::InvalidParameter {
                name: "n_components",
                reason: "dual PCA supports at most nrows - 1 components",
            });
        }
        let means = column_means(data);
        // Centered data Xc.
        let mut xc = data.clone();
        for r in 0..n {
            let row = xc.row_mut(r);
            for c in 0..row.len() {
                row[c] -= means[c];
            }
        }
        // Xc Xcᵀ is the symmetric product of Xcᵀ with itself.
        let gram = crate::kernels::syrk_rows(&xc.transpose()).scaled(1.0 / (n as f64 - 1.0));
        let eigen = jacobi_eigen(&gram)?;
        let total_variance: f64 = eigen.values.iter().map(|v| v.max(0.0)).sum();

        let mut components = Matrix::zeros(n_components, data.ncols());
        let mut explained_variance = Vec::with_capacity(n_components);
        // Scratch buffers reused across components: the eigenvector u and the
        // recovered axis v (no per-component allocation).
        let mut u = vec![0.0; n];
        let mut v = vec![0.0; data.ncols()];
        for k in 0..n_components {
            let lambda = eigen.values[k].max(0.0);
            explained_variance.push(lambda);
            eigen.vectors.col_into(k, &mut u);
            // v = Xcᵀ u, normalized.
            v.fill(0.0);
            for (r, row) in xc.rows_iter().enumerate() {
                let ur = u[r];
                if ur == 0.0 {
                    continue;
                }
                for (vc, &x) in v.iter_mut().zip(row) {
                    *vc += ur * x;
                }
            }
            let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm > 0.0 {
                for x in &mut v {
                    *x /= norm;
                }
            }
            components.row_mut(k).copy_from_slice(&v);
        }
        Ok(Pca {
            components,
            means,
            explained_variance,
            total_variance,
        })
    }

    /// Projects `data` onto the principal axes, producing an
    /// `nrows x n_components` matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the column count differs from
    /// the fitted data.
    pub fn transform(&self, data: &Matrix) -> Result<Matrix, LinalgError> {
        if data.ncols() != self.means.len() {
            return Err(LinalgError::ShapeMismatch {
                left: (1, self.means.len()),
                right: data.shape(),
                op: "pca transform",
            });
        }
        let mut out = Matrix::zeros(data.nrows(), self.components.nrows());
        for r in 0..data.nrows() {
            for k in 0..self.components.nrows() {
                let mut s = 0.0;
                for c in 0..data.ncols() {
                    s += (data[(r, c)] - self.means[c]) * self.components[(k, c)];
                }
                out[(r, k)] = s;
            }
        }
        Ok(out)
    }

    /// Maps reduced coordinates back to the original space (lossy if
    /// `n_components < ncols`).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the column count differs from
    /// `n_components`.
    pub fn inverse_transform(&self, reduced: &Matrix) -> Result<Matrix, LinalgError> {
        if reduced.ncols() != self.components.nrows() {
            return Err(LinalgError::ShapeMismatch {
                left: (1, self.components.nrows()),
                right: reduced.shape(),
                op: "pca inverse transform",
            });
        }
        let mut out = Matrix::zeros(reduced.nrows(), self.means.len());
        for r in 0..reduced.nrows() {
            for c in 0..self.means.len() {
                let mut s = self.means[c];
                for k in 0..self.components.nrows() {
                    s += reduced[(r, k)] * self.components[(k, c)];
                }
                out[(r, c)] = s;
            }
        }
        Ok(out)
    }

    /// The principal axes as rows (`n_components x ncols`), orthonormal.
    pub fn components(&self) -> &Matrix {
        &self.components
    }

    /// The per-column means subtracted before projection.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Variance captured by each retained component.
    pub fn explained_variance(&self) -> &[f64] {
        &self.explained_variance
    }

    /// Fraction of total variance captured by each retained component.
    ///
    /// Returns zeros when the data had no variance at all.
    pub fn explained_variance_ratio(&self) -> Vec<f64> {
        if self.total_variance <= 0.0 {
            return vec![0.0; self.explained_variance.len()];
        }
        self.explained_variance
            .iter()
            .map(|v| v / self.total_variance)
            .collect()
    }
}

fn column_means(data: &Matrix) -> Vec<f64> {
    (0..data.ncols())
        .map(|c| data.col_iter(c).sum::<f64>() / data.nrows() as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cloud() -> Matrix {
        // Strongly correlated 2-D cloud along y = x.
        Matrix::from_rows(&[
            vec![2.5, 2.4],
            vec![0.5, 0.7],
            vec![2.2, 2.9],
            vec![1.9, 2.2],
            vec![3.1, 3.0],
            vec![2.3, 2.7],
            vec![2.0, 1.6],
            vec![1.0, 1.1],
            vec![1.5, 1.6],
            vec![1.1, 0.9],
        ])
        .unwrap()
    }

    #[test]
    fn first_component_along_diagonal() {
        let pca = Pca::fit(&cloud(), 2).unwrap();
        let c0 = pca.components().row(0);
        // Both loadings have the same sign and similar magnitude.
        assert!(c0[0] * c0[1] > 0.0);
        assert!((c0[0].abs() - c0[1].abs()).abs() < 0.2);
    }

    #[test]
    fn explained_variance_ratios_sum_to_one_full_rank() {
        let pca = Pca::fit(&cloud(), 2).unwrap();
        let total: f64 = pca.explained_variance_ratio().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn components_orthonormal() {
        let pca = Pca::fit(&cloud(), 2).unwrap();
        let c = pca.components();
        let g = c.matmul(&c.transpose()).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((g[(i, j)] - expect).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn full_rank_reconstruction_exact() {
        let data = cloud();
        let pca = Pca::fit(&data, 2).unwrap();
        let back = pca
            .inverse_transform(&pca.transform(&data).unwrap())
            .unwrap();
        for (a, b) in back.as_slice().iter().zip(data.as_slice()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn reduced_reconstruction_lossy_but_close() {
        let data = cloud();
        let pca = Pca::fit(&data, 1).unwrap();
        let back = pca
            .inverse_transform(&pca.transform(&data).unwrap())
            .unwrap();
        let err = data.sub(&back).unwrap().frobenius_norm();
        // The cloud is near-collinear, so rank-1 error is small but nonzero.
        assert!(err > 0.0 && err < 1.5);
    }

    #[test]
    fn transform_centers_data() {
        let data = cloud();
        let pca = Pca::fit(&data, 2).unwrap();
        let t = pca.transform(&data).unwrap();
        for k in 0..2 {
            let mean: f64 = t.col(k).iter().sum::<f64>() / t.nrows() as f64;
            assert!(mean.abs() < 1e-9);
        }
    }

    #[test]
    fn rejects_bad_component_counts() {
        assert!(Pca::fit(&cloud(), 0).is_err());
        assert!(Pca::fit(&cloud(), 3).is_err());
    }

    #[test]
    fn rejects_single_row() {
        let one = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        assert!(Pca::fit(&one, 1).is_err());
    }

    #[test]
    fn dual_pca_matches_primal_on_wide_data() {
        // 4 observations, 6 features: wide, so fit() takes the dual path.
        let wide = Matrix::from_rows(&[
            vec![1.0, 2.0, 0.5, 3.0, 1.5, 0.0],
            vec![2.0, 4.1, 1.1, 6.1, 3.0, 0.2],
            vec![3.1, 5.9, 1.4, 9.0, 4.6, -0.1],
            vec![4.0, 8.2, 2.1, 11.9, 6.1, 0.1],
        ])
        .unwrap();
        let dual = Pca::fit(&wide, 2).unwrap();
        let primal = Pca::fit_primal(&wide, 2).unwrap();
        // Eigenvalues agree.
        for (a, b) in dual
            .explained_variance()
            .iter()
            .zip(primal.explained_variance())
        {
            assert!((a - b).abs() < 1e-8 * (1.0 + b.abs()), "{a} vs {b}");
        }
        // Axes agree up to sign.
        for k in 0..2 {
            let d = dual.components().row(k);
            let p = primal.components().row(k);
            let dot: f64 = d.iter().zip(p).map(|(x, y)| x * y).sum();
            assert!(
                (dot.abs() - 1.0).abs() < 1e-6,
                "component {k}: |dot|={}",
                dot.abs()
            );
        }
        // Projections agree up to sign.
        let td = dual.transform(&wide).unwrap();
        let tp = primal.transform(&wide).unwrap();
        for k in 0..2 {
            let sign = if td[(0, k)] * tp[(0, k)] >= 0.0 {
                1.0
            } else {
                -1.0
            };
            for r in 0..4 {
                assert!((td[(r, k)] - sign * tp[(r, k)]).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn dual_pca_component_budget() {
        let wide = Matrix::from_rows(&[
            vec![1.0, 2.0, 3.0, 4.0],
            vec![2.0, 1.0, 0.0, 4.0],
            vec![0.0, 2.0, 3.0, 1.0],
        ])
        .unwrap();
        // 3 rows -> at most 2 dual components.
        assert!(Pca::fit(&wide, 2).is_ok());
        assert!(Pca::fit(&wide, 3).is_err());
    }

    #[test]
    fn transform_shape_mismatch() {
        let pca = Pca::fit(&cloud(), 1).unwrap();
        let other = Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]).unwrap();
        assert!(pca.transform(&other).is_err());
        let bad_reduced = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        assert!(pca.inverse_transform(&bad_reduced).is_err());
    }
}
