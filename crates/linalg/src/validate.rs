//! Stage-boundary input guards: typed diagnostics for degenerate matrices.
//!
//! The pipeline's conclusions are only trustworthy if a single bad input
//! cell cannot silently poison them. This module diagnoses the degeneracies
//! that realistic characterization data produces — a NaN in one SAR
//! counter, an all-constant feature, duplicated workload rows, an empty
//! matrix — **with coordinates**, so the failure names the exact cell
//! instead of surfacing as a distant `NonFinite` somewhere downstream.
//!
//! Validation runs in linear time, O(n·dim): duplicate rows are found
//! through [`crate::cells::Cells`], the same bit-pattern grouping that
//! clustering and the silhouette use, not by comparing pairs of rows.
//!
//! Two consumption modes:
//!
//! * **Strict** ([`ensure_valid`]) — fatal issues (non-finite cells, empty
//!   input) become a typed [`LinalgError::InvalidData`] carrying the full
//!   [`ValidationReport`].
//! * **Lenient** ([`repair`]) — rows containing non-finite cells and
//!   zero-variance columns are dropped, and the [`Repair`] records exactly
//!   what was removed so the caller can report it. Duplicate rows are
//!   *diagnosed but never dropped*: redundant workloads are precisely what
//!   the paper's cluster analysis exists to find, so deduplicating here
//!   would erase the signal under study.

use crate::cells::Cells;
use crate::{LinalgError, Matrix};

/// Which way a cell was non-finite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NonFiniteKind {
    /// The cell was NaN.
    NaN,
    /// The cell was `+inf`.
    PosInf,
    /// The cell was `-inf`.
    NegInf,
}

impl NonFiniteKind {
    fn of(value: f64) -> Option<Self> {
        if value.is_nan() {
            Some(NonFiniteKind::NaN)
        } else if value == f64::INFINITY {
            Some(NonFiniteKind::PosInf)
        } else if value == f64::NEG_INFINITY {
            Some(NonFiniteKind::NegInf)
        } else {
            None
        }
    }
}

impl std::fmt::Display for NonFiniteKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NonFiniteKind::NaN => write!(f, "NaN"),
            NonFiniteKind::PosInf => write!(f, "+inf"),
            NonFiniteKind::NegInf => write!(f, "-inf"),
        }
    }
}

/// One diagnosed input degeneracy.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ValidationIssue {
    /// A cell held NaN or ±infinity. Fatal: no distance or mean downstream
    /// is defined on it.
    NonFiniteCell {
        /// Row of the offending cell.
        row: usize,
        /// Column of the offending cell.
        col: usize,
        /// What the cell held.
        kind: NonFiniteKind,
    },
    /// A feature column took the same value on every (finite) row.
    /// Advisory: it contributes nothing to any distance and divides by zero
    /// under standardization.
    ZeroVarianceColumn {
        /// The constant column.
        col: usize,
    },
    /// A row is bitwise identical to an earlier row. Advisory: duplicated
    /// workloads are the redundancy the paper's analysis measures, so this
    /// is a diagnostic, never an error.
    DuplicateRow {
        /// The later, duplicated row.
        row: usize,
        /// The earlier row it duplicates.
        of: usize,
    },
    /// The matrix had no rows or no columns. Fatal.
    EmptyInput {
        /// Row count.
        rows: usize,
        /// Column count.
        cols: usize,
    },
}

impl ValidationIssue {
    /// Whether this issue makes the matrix unusable as-is (as opposed to
    /// merely suspicious).
    #[must_use]
    pub fn is_fatal(&self) -> bool {
        matches!(
            self,
            ValidationIssue::NonFiniteCell { .. } | ValidationIssue::EmptyInput { .. }
        )
    }
}

impl std::fmt::Display for ValidationIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationIssue::NonFiniteCell { row, col, kind } => {
                write!(f, "non-finite cell at row {row}, column {col} ({kind})")
            }
            ValidationIssue::ZeroVarianceColumn { col } => {
                write!(f, "zero-variance feature in column {col}")
            }
            ValidationIssue::DuplicateRow { row, of } => {
                write!(f, "row {row} duplicates row {of}")
            }
            ValidationIssue::EmptyInput { rows, cols } => {
                write!(f, "empty input ({rows}x{cols})")
            }
        }
    }
}

/// The full set of diagnostics for one matrix.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ValidationReport {
    rows: usize,
    cols: usize,
    issues: Vec<ValidationIssue>,
}

impl ValidationReport {
    /// Shape of the validated matrix as `(rows, cols)`.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Every diagnosed issue, in scan order (cells row-major, then
    /// columns, then duplicate rows).
    #[must_use]
    pub fn issues(&self) -> &[ValidationIssue] {
        &self.issues
    }

    /// Whether no issues at all were found.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }

    /// Whether any fatal issue (non-finite cell, empty input) was found.
    #[must_use]
    pub fn has_fatal(&self) -> bool {
        self.issues.iter().any(ValidationIssue::is_fatal)
    }

    /// Coordinates of every non-finite cell, row-major.
    #[must_use]
    pub fn non_finite_cells(&self) -> Vec<(usize, usize)> {
        self.issues
            .iter()
            .filter_map(|i| match i {
                ValidationIssue::NonFiniteCell { row, col, .. } => Some((*row, *col)),
                _ => None,
            })
            .collect()
    }

    /// Sorted, deduplicated indices of rows containing a non-finite cell.
    #[must_use]
    pub fn rows_with_non_finite(&self) -> Vec<usize> {
        let mut rows: Vec<usize> = self
            .non_finite_cells()
            .into_iter()
            .map(|(r, _)| r)
            .collect();
        rows.dedup();
        rows
    }

    /// Indices of zero-variance columns, ascending.
    #[must_use]
    pub fn zero_variance_columns(&self) -> Vec<usize> {
        self.issues
            .iter()
            .filter_map(|i| match i {
                ValidationIssue::ZeroVarianceColumn { col } => Some(*col),
                _ => None,
            })
            .collect()
    }

    /// `(row, of)` pairs for every duplicated row, ascending by `row`.
    #[must_use]
    pub fn duplicate_rows(&self) -> Vec<(usize, usize)> {
        self.issues
            .iter()
            .filter_map(|i| match i {
                ValidationIssue::DuplicateRow { row, of } => Some((*row, *of)),
                _ => None,
            })
            .collect()
    }
}

impl std::fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}x{} matrix, {} issue(s)",
            self.rows,
            self.cols,
            self.issues.len()
        )?;
        const SHOWN: usize = 4;
        for issue in self.issues.iter().take(SHOWN) {
            write!(f, "; {issue}")?;
        }
        if self.issues.len() > SHOWN {
            write!(f, "; and {} more", self.issues.len() - SHOWN)?;
        }
        Ok(())
    }
}

/// Diagnoses `matrix` without modifying it: non-finite cells (row-major,
/// with coordinates), zero-variance columns (computed over the rows free of
/// non-finite cells), duplicate rows, and empty shapes.
///
/// Runs in O(n·dim) time. Duplicates are found by grouping the rows into
/// [`Cells`] by exact bit pattern, so the check is exact and deterministic:
/// each finite row that is not its cell's first row is reported as
/// duplicating that first row, the earliest row with the same bits, in
/// ascending row order. Rows with a non-finite cell are never reported as
/// duplicates.
#[must_use]
pub fn validate(matrix: &Matrix) -> ValidationReport {
    let (rows, cols) = matrix.shape();
    let mut report = ValidationReport {
        rows,
        cols,
        issues: Vec::new(),
    };
    if rows == 0 || cols == 0 {
        report
            .issues
            .push(ValidationIssue::EmptyInput { rows, cols });
        return report;
    }
    let mut finite_rows: Vec<usize> = Vec::with_capacity(rows);
    for r in 0..rows {
        let mut clean = true;
        for (c, &v) in matrix.row(r).iter().enumerate() {
            if let Some(kind) = NonFiniteKind::of(v) {
                report.issues.push(ValidationIssue::NonFiniteCell {
                    row: r,
                    col: c,
                    kind,
                });
                clean = false;
            }
        }
        if clean {
            finite_rows.push(r);
        }
    }
    // Zero-variance detection over the finite rows only: a NaN row must not
    // mask (or fake) a constant column.
    if finite_rows.len() > 1 {
        for c in 0..cols {
            let first = matrix[(finite_rows[0], c)];
            if finite_rows.iter().all(|&r| matrix[(r, c)] == first) {
                report
                    .issues
                    .push(ValidationIssue::ZeroVarianceColumn { col: c });
            }
        }
    }
    // A finite row's cell holds only rows with its bits, so the cell's first
    // row is finite too: the earliest row with the same bits.
    let cells = Cells::new(matrix);
    for &r in &finite_rows {
        let of = cells.first_row[cells.cell_of_row[r]];
        if of != r {
            report
                .issues
                .push(ValidationIssue::DuplicateRow { row: r, of });
        }
    }
    report
}

/// Strict guard: returns [`LinalgError::InvalidData`] carrying the full
/// report when `matrix` has any fatal issue (non-finite cell, empty input).
/// Advisory issues (zero variance, duplicates) pass.
///
/// # Errors
///
/// [`LinalgError::InvalidData`] on any fatal issue.
pub fn ensure_valid(matrix: &Matrix) -> Result<ValidationReport, LinalgError> {
    let report = validate(matrix);
    if report.has_fatal() {
        return Err(LinalgError::InvalidData { report });
    }
    Ok(report)
}

/// The outcome of a lenient repair: the cleaned matrix plus an exact record
/// of what was removed.
#[derive(Debug, Clone, PartialEq)]
pub struct Repair {
    /// The repaired matrix (rows with non-finite cells and zero-variance
    /// columns removed).
    pub matrix: Matrix,
    /// Original indices of the surviving rows, ascending — the mapping from
    /// repaired row index back to the caller's row index.
    pub kept_rows: Vec<usize>,
    /// Original indices of the dropped rows, ascending.
    pub dropped_rows: Vec<usize>,
    /// Original indices of the dropped columns, ascending.
    pub dropped_columns: Vec<usize>,
    /// The diagnostics the repair acted on.
    pub report: ValidationReport,
}

impl Repair {
    /// Whether the repair changed anything.
    #[must_use]
    pub fn changed(&self) -> bool {
        !self.dropped_rows.is_empty() || !self.dropped_columns.is_empty()
    }
}

/// Lenient guard: drops rows containing non-finite cells and zero-variance
/// columns, keeping duplicates (see the module docs for why), and reports
/// exactly what was dropped.
///
/// # Errors
///
/// [`LinalgError::InvalidData`] when the input is empty or the repair would
/// leave no rows or no columns — there is nothing left to analyze.
pub fn repair(matrix: &Matrix) -> Result<Repair, LinalgError> {
    let report = validate(matrix);
    if matrix.is_empty() {
        return Err(LinalgError::InvalidData { report });
    }
    let bad_rows = report.rows_with_non_finite();
    let bad_cols = report.zero_variance_columns();
    let kept_rows: Vec<usize> = (0..matrix.nrows())
        .filter(|r| !bad_rows.contains(r))
        .collect();
    let kept_cols: Vec<usize> = (0..matrix.ncols())
        .filter(|c| !bad_cols.contains(c))
        .collect();
    if kept_rows.is_empty() || kept_cols.is_empty() {
        return Err(LinalgError::InvalidData { report });
    }
    let mut out = Matrix::zeros(kept_rows.len(), kept_cols.len());
    for (ri, &r) in kept_rows.iter().enumerate() {
        for (ci, &c) in kept_cols.iter().enumerate() {
            out[(ri, ci)] = matrix[(r, c)];
        }
    }
    Ok(Repair {
        matrix: out,
        kept_rows,
        dropped_rows: bad_rows,
        dropped_columns: bad_cols,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[
            vec![1.0, 2.0, 7.0],
            vec![3.0, 4.0, 7.0],
            vec![1.0, 2.0, 7.0],
            vec![5.0, 6.0, 7.0],
        ])
        .unwrap()
    }

    #[test]
    fn clean_matrix_passes() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 1.0]]).unwrap();
        let r = validate(&m);
        assert!(r.is_clean(), "{r}");
        assert!(ensure_valid(&m).is_ok());
    }

    #[test]
    fn nan_reported_with_exact_coordinates() {
        let mut m = sample();
        m[(1, 2)] = f64::NAN;
        m[(3, 0)] = f64::INFINITY;
        let r = validate(&m);
        assert_eq!(r.non_finite_cells(), vec![(1, 2), (3, 0)]);
        assert!(r.has_fatal());
        assert!(r.issues().contains(&ValidationIssue::NonFiniteCell {
            row: 1,
            col: 2,
            kind: NonFiniteKind::NaN
        }));
        assert!(r.issues().contains(&ValidationIssue::NonFiniteCell {
            row: 3,
            col: 0,
            kind: NonFiniteKind::PosInf
        }));
        let err = ensure_valid(&m).unwrap_err();
        assert!(matches!(err, LinalgError::InvalidData { .. }));
        assert!(err.to_string().contains("row 1, column 2"));
    }

    #[test]
    fn zero_variance_and_duplicates_are_advisory() {
        let r = validate(&sample());
        assert_eq!(r.zero_variance_columns(), vec![2]);
        assert_eq!(r.duplicate_rows(), vec![(2, 0)]);
        assert!(!r.has_fatal());
        assert!(!r.is_clean());
        assert!(ensure_valid(&sample()).is_ok());
    }

    #[test]
    fn empty_shapes_are_fatal() {
        for m in [
            Matrix::zeros(0, 3),
            Matrix::zeros(3, 0),
            Matrix::zeros(0, 0),
        ] {
            let r = validate(&m);
            assert!(r.has_fatal());
            assert!(matches!(r.issues()[0], ValidationIssue::EmptyInput { .. }));
            assert!(ensure_valid(&m).is_err());
            assert!(repair(&m).is_err());
        }
    }

    #[test]
    fn repair_drops_nan_rows_and_constant_columns_only() {
        let mut m = sample();
        m[(1, 0)] = f64::NAN;
        let rep = repair(&m).unwrap();
        assert_eq!(rep.dropped_rows, vec![1]);
        assert_eq!(rep.dropped_columns, vec![2]);
        assert_eq!(rep.kept_rows, vec![0, 2, 3]);
        assert_eq!(rep.matrix.shape(), (3, 2));
        // Duplicates survive: rows 0 and 2 are both present.
        assert_eq!(rep.matrix.row(0), rep.matrix.row(1));
        assert!(rep.changed());
        assert!(rep.matrix.is_finite());
    }

    #[test]
    fn repair_of_clean_matrix_is_identity() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 1.0]]).unwrap();
        let rep = repair(&m).unwrap();
        assert!(!rep.changed());
        assert_eq!(rep.matrix, m);
        assert_eq!(rep.kept_rows, vec![0, 1]);
    }

    #[test]
    fn repair_rejects_fully_degenerate_input() {
        // Every row non-finite.
        let m = Matrix::from_rows(&[vec![f64::NAN, 1.0], vec![2.0, f64::INFINITY]]).unwrap();
        assert!(matches!(
            repair(&m).unwrap_err(),
            LinalgError::InvalidData { .. }
        ));
        // Every column constant.
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![1.0, 2.0]]).unwrap();
        assert!(matches!(
            repair(&m).unwrap_err(),
            LinalgError::InvalidData { .. }
        ));
    }

    #[test]
    fn nan_row_does_not_mask_constant_column() {
        // Column 0 is constant over the finite rows even though the NaN row
        // would break the naive equality scan.
        let m = Matrix::from_rows(&[vec![2.0, 1.0], vec![f64::NAN, 9.0], vec![2.0, 3.0]]).unwrap();
        let r = validate(&m);
        assert_eq!(r.zero_variance_columns(), vec![0]);
    }

    #[test]
    fn report_display_truncates() {
        let mut m = Matrix::zeros(3, 3);
        for r in 0..3 {
            for c in 0..3 {
                m[(r, c)] = f64::NAN;
            }
        }
        let text = validate(&m).to_string();
        assert!(text.contains("9 issue(s)"), "{text}");
        assert!(text.contains("and"), "{text}");
    }
}
