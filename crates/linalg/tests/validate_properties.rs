//! Property tests for the stage-boundary input guards (`validate`).
//!
//! The robustness contract under test: for *any* matrix — poisoned cells,
//! constant columns, duplicated rows, degenerate shapes — the guards never
//! panic, diagnostics carry exact coordinates, and lenient repair either
//! yields a matrix with no fatal issues or a typed error.
//!
//! Duplicate detection groups rows by bit pattern in one linear pass; the
//! pairwise scan it must agree with, entry for entry, lives here as
//! [`oracle_duplicates`]. The release-scale run at 10⁶ rows is
//! `#[ignore]`d in the debug suite:
//! `cargo test --release -p hiermeans-linalg --test validate_properties -- --ignored`.

use std::time::Instant;

use hiermeans_linalg::validate::{NonFiniteKind, ValidationIssue};
use hiermeans_linalg::{validate, LinalgError, Matrix};
use proptest::prelude::*;

/// A finite matrix plus a poison list: `(rows, cols, data, poisons)` where
/// each poison is `(row, col, kind)` with kind 0 = NaN, 1 = +inf, 2 = -inf.
type Poisoned = (usize, usize, Vec<f64>, Vec<(usize, usize, usize)>);

fn poisoned_matrix() -> impl Strategy<Value = Poisoned> {
    (1usize..10, 1usize..7).prop_flat_map(|(rows, cols)| {
        (
            Just(rows),
            Just(cols),
            prop::collection::vec(-1e3..1e3f64, rows * cols),
            prop::collection::vec((0..rows, 0..cols, 0usize..3), 0..5),
        )
    })
}

fn build(rows: usize, cols: usize, data: Vec<f64>, poisons: &[(usize, usize, usize)]) -> Matrix {
    let mut m = Matrix::from_vec(rows, cols, data).expect("len matches");
    for &(r, c, kind) in poisons {
        m[(r, c)] = match kind {
            0 => f64::NAN,
            1 => f64::INFINITY,
            _ => f64::NEG_INFINITY,
        };
    }
    m
}

/// Row-major coordinates of every non-finite cell — the ground truth the
/// report must reproduce exactly.
fn non_finite_coords(m: &Matrix) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for r in 0..m.nrows() {
        for c in 0..m.ncols() {
            if !m[(r, c)].is_finite() {
                out.push((r, c));
            }
        }
    }
    out
}

proptest! {
    #[test]
    fn poisoned_cells_are_reported_with_exact_coordinates(input in poisoned_matrix()) {
        let (rows, cols, data, poisons) = input;
        let m = build(rows, cols, data, &poisons);
        let expected = non_finite_coords(&m);

        let report = validate::validate(&m);
        prop_assert_eq!(report.non_finite_cells(), expected.clone());
        prop_assert_eq!(report.has_fatal(), !expected.is_empty());

        // The strict guard agrees and its typed error carries the report.
        match validate::ensure_valid(&m) {
            Ok(clean) => prop_assert!(expected.is_empty() && !clean.has_fatal()),
            Err(LinalgError::InvalidData { report }) => {
                prop_assert_eq!(report.non_finite_cells(), expected.clone());
            }
            Err(other) => return Err(TestCaseError::fail(format!("unexpected error: {other}"))),
        }
    }

    #[test]
    fn repair_yields_clean_matrix_or_typed_error(input in poisoned_matrix()) {
        let (rows, cols, data, poisons) = input;
        let m = build(rows, cols, data, &poisons);
        match validate::repair(&m) {
            Ok(repair) => {
                // The repaired matrix must pass the strict guard: no
                // non-finite cells survive, and the dropped zero-variance
                // columns were exactly the constant-over-kept-rows ones.
                let after = validate::validate(&repair.matrix);
                prop_assert!(!after.has_fatal());
                prop_assert!(after.non_finite_cells().is_empty());
                // Kept + dropped rows partition the original rows.
                let mut all_rows = repair.kept_rows.clone();
                all_rows.extend(repair.dropped_rows.iter().copied());
                all_rows.sort_unstable();
                prop_assert_eq!(all_rows, (0..rows).collect::<Vec<_>>());
                prop_assert_eq!(repair.matrix.nrows(), repair.kept_rows.len());
                prop_assert_eq!(
                    repair.matrix.ncols(),
                    cols - repair.dropped_columns.len()
                );
                // Surviving cells are verbatim copies, not re-derived.
                for (ri, &r) in repair.kept_rows.iter().enumerate() {
                    let mut ci = 0;
                    for c in 0..cols {
                        if repair.dropped_columns.contains(&c) {
                            continue;
                        }
                        prop_assert_eq!(
                            repair.matrix[(ri, ci)].to_bits(),
                            m[(r, c)].to_bits()
                        );
                        ci += 1;
                    }
                }
            }
            Err(LinalgError::InvalidData { .. }) => {
                // Legal only when nothing analyzable remains; with continuous
                // random data that means every row was poisoned.
                let clean_rows = (0..rows)
                    .filter(|&r| m.row(r).iter().all(|v| v.is_finite()))
                    .count();
                prop_assert!(clean_rows == 0);
            }
            Err(other) => return Err(TestCaseError::fail(format!("unexpected error: {other}"))),
        }
    }

    #[test]
    fn constant_columns_are_advisory_and_dropped(
        input in (2usize..9, 2usize..6).prop_flat_map(|(rows, cols)| {
            (
                Just(rows),
                Just(cols),
                prop::collection::vec(-1e3..1e3f64, rows * cols),
                0..cols,
                -1e3..1e3f64,
            )
        }),
    ) {
        let (rows, cols, data, const_col, value) = input;
        let mut m = Matrix::from_vec(rows, cols, data).expect("len matches");
        for r in 0..rows {
            m[(r, const_col)] = value;
            // Guarantee every other column actually varies.
            if r == 0 {
                for c in (0..cols).filter(|&c| c != const_col) {
                    m[(0, c)] += 1.0;
                }
            }
        }
        let report = validate::validate(&m);
        prop_assert!(report.zero_variance_columns().contains(&const_col));
        prop_assert!(!report.has_fatal(), "zero variance is advisory, not fatal");

        let repair = validate::repair(&m).expect("other columns still vary");
        prop_assert!(repair.dropped_columns.contains(&const_col));
        prop_assert!(repair.dropped_rows.is_empty());
        prop_assert!(validate::validate(&repair.matrix)
            .zero_variance_columns()
            .is_empty());
    }

    #[test]
    fn duplicate_rows_are_advisory_and_kept(
        input in (2usize..9, 1usize..6).prop_flat_map(|(rows, cols)| {
            (
                Just(rows),
                Just(cols),
                prop::collection::vec(-1e3..1e3f64, rows * cols),
                0..rows,
            )
        }),
    ) {
        let (rows, cols, data, src) = input;
        let mut m = Matrix::from_vec(rows, cols, data).expect("len matches");
        let dup_row = m.row(src).to_vec();
        m.push_row(&dup_row).expect("width matches");

        let report = validate::validate(&m);
        prop_assert!(
            report
                .duplicate_rows()
                .iter()
                .any(|&(row, _)| row == rows),
            "the appended copy must be flagged as a duplicate"
        );
        prop_assert!(!report.has_fatal(), "duplicates are advisory, not fatal");

        // Lenient repair keeps duplicates (dropping them silently would bias
        // the workload population; see the validate module docs).
        if let Ok(repair) = validate::repair(&m) {
            prop_assert!(repair.kept_rows.contains(&rows));
            prop_assert_eq!(repair.dropped_rows.len(), 0);
        }
    }

    #[test]
    fn degenerate_shapes_never_panic(n in 0usize..8) {
        for m in [Matrix::zeros(0, n), Matrix::zeros(n, 0)] {
            let report = validate::validate(&m);
            prop_assert!(report.has_fatal(), "empty input must be fatal");
            let strict = matches!(
                validate::ensure_valid(&m),
                Err(LinalgError::InvalidData { .. })
            );
            prop_assert!(strict, "ensure_valid must reject an empty matrix");
            let lenient = matches!(validate::repair(&m), Err(LinalgError::InvalidData { .. }));
            prop_assert!(lenient, "repair must reject an empty matrix");
        }
    }
}

/// The pairwise duplicate scan: for each finite row, the first earlier
/// finite row with the same bits. O(n²·dim), so it serves only as the
/// reference the guard's linear pass must match.
fn oracle_duplicates(m: &Matrix, finite_rows: &[usize]) -> Vec<ValidationIssue> {
    let mut out = Vec::new();
    for (i, &r) in finite_rows.iter().enumerate() {
        for &earlier in &finite_rows[..i] {
            let same = m
                .row(r)
                .iter()
                .zip(m.row(earlier))
                .all(|(a, b)| a.to_bits() == b.to_bits());
            if same {
                out.push(ValidationIssue::DuplicateRow {
                    row: r,
                    of: earlier,
                });
                break;
            }
        }
    }
    out
}

/// Every issue `validate` must report, in its order: non-finite cells
/// row-major, zero-variance columns over the finite rows, then
/// [`oracle_duplicates`].
fn oracle_issues(m: &Matrix) -> Vec<ValidationIssue> {
    let (rows, cols) = m.shape();
    if rows == 0 || cols == 0 {
        return vec![ValidationIssue::EmptyInput { rows, cols }];
    }
    let mut issues = Vec::new();
    let mut finite_rows = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            let v = m[(r, c)];
            let kind = if v.is_nan() {
                NonFiniteKind::NaN
            } else if v == f64::INFINITY {
                NonFiniteKind::PosInf
            } else if v == f64::NEG_INFINITY {
                NonFiniteKind::NegInf
            } else {
                continue;
            };
            issues.push(ValidationIssue::NonFiniteCell {
                row: r,
                col: c,
                kind,
            });
        }
        if m.row(r).iter().all(|v| v.is_finite()) {
            finite_rows.push(r);
        }
    }
    if finite_rows.len() > 1 {
        for c in 0..cols {
            let first = m[(finite_rows[0], c)];
            if finite_rows.iter().all(|&r| m[(r, c)] == first) {
                issues.push(ValidationIssue::ZeroVarianceColumn { col: c });
            }
        }
    }
    issues.extend(oracle_duplicates(m, &finite_rows));
    issues
}

/// A matrix built to collide: `(rows, cols, codes, poisons, const_col,
/// copies)`. Cells come from a four-value alphabet holding both signed
/// zeros; each poison is `(row, col, kind)` with kind 0 = NaN, 1 = NaN
/// with the sign bit set, 2 = +inf, 3 = -inf; `const_col < cols` names a
/// constant column; each copy `(src, dst)` overwrites row `dst` with row
/// `src` after the poisons, so poisoned rows get duplicated too.
type Colliding = (
    usize,
    usize,
    Vec<usize>,
    Vec<(usize, usize, usize)>,
    usize,
    Vec<(usize, usize)>,
);

fn colliding_matrix() -> impl Strategy<Value = Colliding> {
    (1usize..40, 1usize..5).prop_flat_map(|(rows, cols)| {
        (
            Just(rows),
            Just(cols),
            prop::collection::vec(0usize..4, rows * cols),
            prop::collection::vec((0..rows, 0..cols, 0usize..4), 0..4),
            0..cols + 1,
            prop::collection::vec((0..rows, 0..rows), 0..8),
        )
    })
}

fn build_colliding(input: &Colliding) -> Matrix {
    const VALUES: [f64; 4] = [0.0, -0.0, 1.0, 2.5];
    let (rows, cols, codes, poisons, const_col, copies) = input;
    let data = codes.iter().map(|&code| VALUES[code]).collect();
    let mut m = Matrix::from_vec(*rows, *cols, data).expect("len matches");
    if const_col < cols {
        for r in 0..*rows {
            m[(r, *const_col)] = 7.0;
        }
    }
    for &(r, c, kind) in poisons {
        m[(r, c)] = match kind {
            0 => f64::NAN,
            1 => f64::from_bits(f64::NAN.to_bits() | (1 << 63)),
            2 => f64::INFINITY,
            _ => f64::NEG_INFINITY,
        };
    }
    for &(src, dst) in copies {
        let row = m.row(src).to_vec();
        m.row_mut(dst).copy_from_slice(&row);
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn report_matches_the_pairwise_oracle(input in colliding_matrix()) {
        let m = build_colliding(&input);
        let report = validate::validate(&m);
        prop_assert_eq!(report.shape(), m.shape());
        prop_assert_eq!(report.issues().to_vec(), oracle_issues(&m));
    }
}

#[test]
fn signed_zeros_differ_and_non_finite_rows_are_never_duplicates() {
    let nan = f64::NAN;
    let m = Matrix::from_rows(&[
        vec![0.0, 1.0],
        vec![-0.0, 1.0],
        vec![nan, 1.0],
        vec![nan, 1.0],
        vec![0.0, 1.0],
        vec![-0.0, 1.0],
    ])
    .unwrap();
    let report = validate::validate(&m);
    assert_eq!(report.duplicate_rows(), vec![(4, 0), (5, 1)]);
    assert_eq!(report.issues().to_vec(), oracle_issues(&m));
}

/// `n × dim` rows, distinct by construction (column 0 holds the row
/// index), then every row `dst ≥ 1000` at a multiple of 997 overwritten
/// with row `(31·dst) mod 1000`, which is never itself overwritten.
/// Returns the matrix and the `(row, of)` pairs `validate` must report,
/// ascending by row.
fn planted(n: usize, dim: usize) -> (Matrix, Vec<(usize, usize)>) {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut m = Matrix::zeros(n, dim);
    for r in 0..n {
        let row = m.row_mut(r);
        row[0] = r as f64;
        for x in &mut row[1..] {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            *x = (state >> 11) as f64 / (1u64 << 53) as f64;
        }
    }
    let mut pairs = Vec::new();
    for dst in (1000..n).filter(|dst| dst % 997 == 0) {
        let src = (31 * dst) % 1000;
        let row = m.row(src).to_vec();
        m.row_mut(dst).copy_from_slice(&row);
        pairs.push((dst, src));
    }
    (m, pairs)
}

fn assert_planted_pairs(n: usize, dim: usize) {
    let (m, expected) = planted(n, dim);
    assert!(!expected.is_empty());
    let start = Instant::now();
    let report = validate::validate(&m);
    let elapsed = start.elapsed();
    assert_eq!(report.duplicate_rows(), expected);
    assert_eq!(report.issues().len(), expected.len(), "{report}");
    println!(
        "validate {n} x {dim}: {} duplicate rows in {:.3} s",
        expected.len(),
        elapsed.as_secs_f64()
    );
}

#[test]
fn planted_duplicates_are_found_at_two_hundred_thousand_rows() {
    assert_planted_pairs(200_000, 16);
}

#[test]
#[ignore = "release-scale acceptance run; 10^6 x 16 rows"]
fn planted_duplicates_are_found_at_a_million_rows() {
    assert_planted_pairs(1_000_000, 16);
}
