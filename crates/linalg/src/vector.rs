//! Free functions on `&[f64]` vectors.
//!
//! These helpers are deliberately slice-based (rather than introducing a
//! `Vector` newtype) because the rest of the workspace passes characteristic
//! vectors around as plain slices.

use crate::LinalgError;

/// Dot product of two equal-length vectors.
///
/// # Errors
///
/// Returns [`LinalgError::ShapeMismatch`] if lengths differ.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), hiermeans_linalg::LinalgError> {
/// let d = hiermeans_linalg::vector::dot(&[1.0, 2.0], &[3.0, 4.0])?;
/// assert_eq!(d, 11.0);
/// # Ok(())
/// # }
/// ```
pub fn dot(a: &[f64], b: &[f64]) -> Result<f64, LinalgError> {
    if a.len() != b.len() {
        return Err(LinalgError::ShapeMismatch {
            left: (a.len(), 1),
            right: (b.len(), 1),
            op: "dot",
        });
    }
    Ok(a.iter().zip(b).map(|(x, y)| x * y).sum())
}

/// Euclidean (L2) norm.
pub fn norm(a: &[f64]) -> f64 {
    a.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Scales every element by `s`.
pub fn scale(a: &[f64], s: f64) -> Vec<f64> {
    a.iter().map(|x| x * s).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_orthogonal_is_zero() {
        assert_eq!(dot(&[1.0, 0.0], &[0.0, 1.0]).unwrap(), 0.0);
    }

    #[test]
    fn dot_mismatched_lengths() {
        assert!(dot(&[1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn norm_pythagorean() {
        assert!((norm(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert_eq!(norm(&[]), 0.0);
    }
}
