use std::fmt;
use std::ops::{Index, IndexMut};

use serde::{Deserialize, Serialize};

use crate::LinalgError;

/// A dense, row-major matrix of `f64` values.
///
/// `Matrix` is the exchange type between the characterization pipeline (rows
/// are workloads, columns are characteristic-vector elements), the SOM, and
/// PCA. It deliberately supports only the operations the workspace needs.
///
/// # Example
///
/// ```
/// use hiermeans_linalg::Matrix;
///
/// # fn main() -> Result<(), hiermeans_linalg::LinalgError> {
/// let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])?;
/// assert_eq!(m.shape(), (2, 2));
/// assert_eq!(m[(1, 0)], 3.0);
/// let t = m.transpose();
/// assert_eq!(t[(0, 1)], 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows` x `cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows` x `cols` matrix where every entry is `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n` x `n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] if `rows` is empty or the first row is
    /// empty, and [`LinalgError::ShapeMismatch`] if the rows have differing
    /// lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, LinalgError> {
        if rows.is_empty() {
            return Err(LinalgError::Empty { what: "rows" });
        }
        let cols = rows[0].len();
        if cols == 0 {
            return Err(LinalgError::Empty { what: "columns" });
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != cols {
                return Err(LinalgError::ShapeMismatch {
                    left: (1, cols),
                    right: (i, row.len()),
                    op: "from_rows",
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch {
                left: (rows, cols),
                right: (data.len(), 1),
                op: "from_vec",
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Returns the shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns the number of rows.
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Returns the number of columns.
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns a view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= nrows()`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns a mutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= nrows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns column `c` as an owned vector.
    ///
    /// **Deprecated pattern**: this allocates a fresh `Vec` on every call,
    /// which turns column sweeps (PCA, scalers) into allocation churn. New
    /// code should use [`Matrix::col_iter`] to stream a column, or
    /// [`Matrix::col_into`] to fill a reusable buffer.
    ///
    /// # Panics
    ///
    /// Panics if `c >= ncols()`.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(
            c < self.cols,
            "column index {c} out of bounds ({})",
            self.cols
        );
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Copies column `c` into `out` without allocating.
    ///
    /// This is the allocation-free replacement for [`Matrix::col`] at call
    /// sites that sweep columns with a reusable scratch buffer.
    ///
    /// # Panics
    ///
    /// Panics if `c >= ncols()` or `out.len() != nrows()`.
    pub fn col_into(&self, c: usize, out: &mut [f64]) {
        assert!(
            c < self.cols,
            "column index {c} out of bounds ({})",
            self.cols
        );
        assert_eq!(out.len(), self.rows, "column buffer length");
        for (o, row) in out.iter_mut().zip(self.rows_iter()) {
            *o = row[c];
        }
    }

    /// Iterates over the entries of column `c` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `c >= ncols()`.
    pub fn col_iter(&self, c: usize) -> impl Iterator<Item = f64> + '_ {
        assert!(
            c < self.cols,
            "column index {c} out of bounds ({})",
            self.cols
        );
        self.rows_iter().map(move |row| row[c])
    }

    /// Iterates over the rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols)
    }

    /// Iterates over the rows as mutable slices.
    pub(crate) fn rows_iter_mut(&mut self) -> impl Iterator<Item = &mut [f64]> {
        self.data.chunks_exact_mut(self.cols)
    }

    /// Returns the underlying row-major data slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Consumes the matrix and returns the underlying row-major data.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Overwrites every entry with `value` (used to reset reusable scratch
    /// accumulators without reallocating).
    pub fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    /// Returns `true` if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Matrix product `self * rhs`: the plain triple loop, each output
    /// cell summed in ascending `k` from zero. No stage runs it on a hot
    /// path; it is the oracle [`crate::kernels::syrk_rows`] is held to.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.ncols() != rhs.nrows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        if self.ncols() != rhs.nrows() {
            return Err(LinalgError::ShapeMismatch {
                left: self.shape(),
                right: rhs.shape(),
                op: "matmul",
            });
        }
        let mut out = Matrix::zeros(self.nrows(), rhs.ncols());
        for i in 0..self.nrows() {
            for k in 0..self.ncols() {
                let av = self[(i, k)];
                for j in 0..rhs.ncols() {
                    out[(i, j)] += av * rhs[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `v.len() != self.ncols()`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if v.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                left: self.shape(),
                right: (v.len(), 1),
                op: "matvec",
            });
        }
        Ok(self
            .rows_iter()
            .map(|row| row.iter().zip(v).map(|(a, b)| a * b).sum())
            .collect())
    }

    /// Element-wise sum `self + rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Element-wise difference `self - rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if shapes differ.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    /// Multiplies every entry by `s`.
    pub fn scaled(&self, s: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|v| v * s).collect(),
        }
    }

    /// Applies `f` to every entry, producing a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// The sample covariance matrix of the columns (rows are observations).
    ///
    /// Uses the unbiased `n - 1` denominator.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidParameter`] if there are fewer than two
    /// rows.
    pub fn covariance(&self) -> Result<Matrix, LinalgError> {
        if self.rows < 2 {
            return Err(LinalgError::InvalidParameter {
                name: "rows",
                reason: "covariance requires at least two observations",
            });
        }
        let n = self.rows as f64;
        let means: Vec<f64> = (0..self.cols)
            .map(|c| self.col_iter(c).sum::<f64>() / n)
            .collect();
        // Center once, then run the blocked syrk kernel. The kernel adds the
        // per-row contributions for each (i, j) cell in ascending row order —
        // the same association as the scalar accumulation this replaces — so
        // the result is bitwise identical.
        let mut centered = self.clone();
        for row in centered.data.chunks_exact_mut(self.cols) {
            for (v, m) in row.iter_mut().zip(&means) {
                *v -= m;
            }
        }
        let mut cov = crate::kernels::syrk_rows(&centered);
        for v in &mut cov.data {
            *v /= n - 1.0;
        }
        Ok(cov)
    }

    /// The Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Appends a row to the bottom of the matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `row.len() != ncols()`.
    pub fn push_row(&mut self, row: &[f64]) -> Result<(), LinalgError> {
        if row.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                left: self.shape(),
                right: (1, row.len()),
                op: "push_row",
            });
        }
        self.data.extend_from_slice(row);
        self.rows += 1;
        Ok(())
    }

    /// Returns a new matrix containing only the selected columns, in order.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::OutOfBounds`] if any index is out of range.
    pub fn select_columns(&self, indices: &[usize]) -> Result<Matrix, LinalgError> {
        for &c in indices {
            if c >= self.cols {
                return Err(LinalgError::OutOfBounds {
                    index: c,
                    len: self.cols,
                    what: "columns",
                });
            }
        }
        let mut out = Matrix::zeros(self.rows, indices.len());
        for r in 0..self.rows {
            for (k, &c) in indices.iter().enumerate() {
                out[(r, k)] = self[(r, c)];
            }
        }
        Ok(out)
    }

    fn zip_with(
        &self,
        rhs: &Matrix,
        op: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<Matrix, LinalgError> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                left: self.shape(),
                right: rhs.shape(),
                op,
            });
        }
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for row in self.rows_iter() {
            let cells: Vec<String> = row.iter().map(|v| format!("{v:>10.4}")).collect();
            writeln!(f, "[{}]", cells.join(" "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_diagonal() {
        let m = Matrix::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::ShapeMismatch { .. }));
    }

    #[test]
    fn from_rows_rejects_empty() {
        assert!(matches!(
            Matrix::from_rows(&[]).unwrap_err(),
            LinalgError::Empty { .. }
        ));
        assert!(matches!(
            Matrix::from_rows(&[vec![]]).unwrap_err(),
            LinalgError::Empty { .. }
        ));
    }

    #[test]
    fn from_vec_checks_len() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn indexing_row_major() {
        let m = sample();
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 0)], 4.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(1), vec![2.0, 5.0]);
    }

    #[test]
    fn col_into_and_iter_match_col() {
        let m = sample();
        let mut buf = vec![0.0; 2];
        m.col_into(1, &mut buf);
        assert_eq!(buf, m.col(1));
        let streamed: Vec<f64> = m.col_iter(1).collect();
        assert_eq!(streamed, m.col(1));
    }

    #[test]
    #[should_panic(expected = "column buffer length")]
    fn col_into_rejects_wrong_len() {
        sample().col_into(0, &mut [0.0; 3]);
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().shape(), (3, 2));
        assert_eq!(m.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn matmul_known_product() {
        let a = sample();
        let b = a.transpose();
        let p = a.matmul(&b).unwrap();
        // [1 2 3; 4 5 6] * [1 4; 2 5; 3 6] = [14 32; 32 77]
        assert_eq!(p[(0, 0)], 14.0);
        assert_eq!(p[(0, 1)], 32.0);
        assert_eq!(p[(1, 0)], 32.0);
        assert_eq!(p[(1, 1)], 77.0);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let m = sample();
        let id = Matrix::identity(3);
        assert_eq!(m.matmul(&id).unwrap(), m);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let m = sample();
        assert!(m.matmul(&sample()).is_err());
    }

    #[test]
    fn matvec_known() {
        let m = sample();
        let v = m.matvec(&[1.0, 1.0, 1.0]).unwrap();
        assert_eq!(v, vec![6.0, 15.0]);
        assert!(m.matvec(&[1.0]).is_err());
    }

    #[test]
    fn add_sub_roundtrip() {
        let m = sample();
        let s = m.add(&m).unwrap().sub(&m).unwrap();
        assert_eq!(s, m);
    }

    #[test]
    fn scaled_and_map() {
        let m = sample().scaled(2.0);
        assert_eq!(m[(1, 2)], 12.0);
        let n = m.map(|v| v / 2.0);
        assert_eq!(n, sample());
    }

    #[test]
    fn covariance_of_perfectly_correlated_columns() {
        // Column 1 = 2 * column 0, so cov = [[var, 2var], [2var, 4var]].
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]]).unwrap();
        let cov = m.covariance().unwrap();
        assert!((cov[(0, 0)] - 1.0).abs() < 1e-12);
        assert!((cov[(0, 1)] - 2.0).abs() < 1e-12);
        assert!((cov[(1, 1)] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn covariance_needs_two_rows() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        assert!(m.covariance().is_err());
    }

    #[test]
    fn push_row_grows() {
        let mut m = sample();
        m.push_row(&[7.0, 8.0, 9.0]).unwrap();
        assert_eq!(m.shape(), (3, 3));
        assert_eq!(m.row(2), &[7.0, 8.0, 9.0]);
        assert!(m.push_row(&[1.0]).is_err());
    }

    #[test]
    fn select_columns_reorders() {
        let m = sample();
        let s = m.select_columns(&[2, 0]).unwrap();
        assert_eq!(s.row(0), &[3.0, 1.0]);
        assert!(m.select_columns(&[5]).is_err());
    }

    #[test]
    fn frobenius_norm_known() {
        let m = Matrix::from_rows(&[vec![3.0, 4.0]]).unwrap();
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut m = sample();
        assert!(m.is_finite());
        m[(0, 0)] = f64::NAN;
        assert!(!m.is_finite());
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", sample()).is_empty());
    }
}
