//! Point-to-point distance metrics.
//!
//! The paper uses the Euclidean distance both for the SOM's best-matching-unit
//! search and as the point-to-point distance underneath the clustering linkage
//! (Section III-B). The other metrics are provided for ablation studies.

use serde::{Deserialize, Serialize};

use crate::kernels;
use crate::LinalgError;

/// A point-to-point distance metric over `f64` vectors.
///
/// # Example
///
/// ```
/// use hiermeans_linalg::distance::Metric;
///
/// # fn main() -> Result<(), hiermeans_linalg::LinalgError> {
/// let d = Metric::Euclidean.distance(&[0.0, 0.0], &[3.0, 4.0])?;
/// assert_eq!(d, 5.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Metric {
    /// The L2 distance — the paper's choice.
    Euclidean,
    /// The squared L2 distance (avoids the square root; not a metric but
    /// order-equivalent to [`Metric::Euclidean`]).
    SquaredEuclidean,
    /// The L1 (city-block) distance.
    Manhattan,
    /// The L∞ distance.
    Chebyshev,
    /// The general Lp distance for `p >= 1`.
    Minkowski(f64),
    /// Cosine distance `1 - cos(a, b)`; 0 for identical directions.
    Cosine,
}

impl Metric {
    /// Computes the distance between `a` and `b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the vectors have different
    /// lengths, and [`LinalgError::InvalidParameter`] for
    /// [`Metric::Minkowski`] with `p < 1`.
    pub fn distance(&self, a: &[f64], b: &[f64]) -> Result<f64, LinalgError> {
        if a.len() != b.len() {
            return Err(LinalgError::ShapeMismatch {
                left: (a.len(), 1),
                right: (b.len(), 1),
                op: "distance",
            });
        }
        match self {
            Metric::Euclidean => Ok(sq_euclid(a, b).sqrt()),
            Metric::SquaredEuclidean => Ok(sq_euclid(a, b)),
            Metric::Manhattan => Ok(a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()),
            Metric::Chebyshev => Ok(a
                .iter()
                .zip(b)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0, f64::max)),
            Metric::Minkowski(p) => {
                if *p < 1.0 || !p.is_finite() {
                    return Err(LinalgError::InvalidParameter {
                        name: "p",
                        reason: "Minkowski order must be finite and >= 1",
                    });
                }
                Ok(a.iter()
                    .zip(b)
                    .map(|(x, y)| (x - y).abs().powf(*p))
                    .sum::<f64>()
                    .powf(1.0 / p))
            }
            Metric::Cosine => {
                let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
                let na = a.iter().map(|x| x * x).sum::<f64>().sqrt();
                let nb = b.iter().map(|x| x * x).sum::<f64>().sqrt();
                if na == 0.0 || nb == 0.0 {
                    // By convention the distance from the zero vector is 1
                    // (maximally dissimilar direction-wise).
                    return Ok(1.0);
                }
                Ok((1.0 - dot / (na * nb)).max(0.0))
            }
        }
    }
}

impl Default for Metric {
    /// Euclidean distance, the paper's configuration.
    fn default() -> Self {
        Metric::Euclidean
    }
}

fn sq_euclid(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Chunking for [`pairwise`]: a handful of rows per chunk keeps the ragged
/// upper-triangle work balanced, and matrices under 64 rows are cheaper to
/// do in place than to spawn for. Public so lane-recording callers can size
/// their `LaneBuf`s to the chunk count this module will produce.
pub const PAIRWISE_CHUNKING: crate::parallel::Chunking = crate::parallel::Chunking::new(8, 64);

/// Computes the full pairwise distance matrix between the rows of `points`,
/// parallelizing over row chunks for large inputs.
///
/// Every entry is [`Metric::distance`] of its two rows: this is the exact
/// scalar path, and it is bit-for-bit identical to [`pairwise_serial`]
/// regardless of the worker count, because each entry is computed
/// independently by the same expression. Small inputs and single-worker
/// environments dispatch straight to the serial loop, which avoids the
/// parallel path's gather overhead when there is nothing to win.
///
/// # Errors
///
/// Propagates errors from [`Metric::distance`].
pub fn pairwise(points: &crate::Matrix, metric: Metric) -> Result<crate::Matrix, LinalgError> {
    pairwise_lanes(points, metric, None)
}

/// [`pairwise`] with worker-lane recording.
///
/// When `lanes` is `Some`, the chunked strip decomposition runs even below
/// the parallelism threshold so the recorded chunk structure is a pure
/// function of `n` — never of the worker count. Each entry is computed by
/// the same expression either way, so the result stays bit-for-bit
/// identical to [`pairwise_serial`].
///
/// # Errors
///
/// Propagates errors from [`Metric::distance`].
pub fn pairwise_lanes(
    points: &crate::Matrix,
    metric: Metric,
    lanes: crate::parallel::Lanes<'_>,
) -> Result<crate::Matrix, LinalgError> {
    pairwise_by(points.nrows(), lanes, |i, j| {
        metric.distance(points.row(i), points.row(j))
    })
}

/// The pairwise distance matrix the clustering stage uses, with optional
/// worker-lane recording (see [`pairwise_lanes`]).
///
/// For a (squared) Euclidean metric each entry is computed by the norm
/// trick `‖a‖² + ‖b‖² − 2·a·b` with precomputed row norms and unrolled dot
/// products — roughly half the memory traffic of the subtract-square loop.
/// The trick reassociates floating-point sums, so entries agree with
/// [`pairwise`] only to ULP tolerance (exactly when the inputs are
/// integer-valued, e.g. SOM grid positions, where every intermediate is
/// exact); values are still deterministic for a given input and
/// independent of the worker count. Every other metric takes the exact
/// scalar path of [`pairwise_lanes`].
///
/// # Errors
///
/// Propagates errors from [`Metric::distance`].
pub fn pairwise_norm_trick(
    points: &crate::Matrix,
    metric: Metric,
    lanes: crate::parallel::Lanes<'_>,
) -> Result<crate::Matrix, LinalgError> {
    let squared = match metric {
        Metric::Euclidean => false,
        Metric::SquaredEuclidean => true,
        _ => return pairwise_lanes(points, metric, lanes),
    };
    let mut norms = vec![0.0; points.nrows()];
    kernels::row_sq_norms_into(points, &mut norms);
    pairwise_by(points.nrows(), lanes, |i, j| {
        let d2 =
            (norms[i] + norms[j] - 2.0 * kernels::dot_fast(points.row(i), points.row(j))).max(0.0);
        Ok(if squared { d2 } else { d2.sqrt() })
    })
}

/// The symmetric `n x n` matrix with zero diagonal whose strict upper
/// triangle is `entry(i, j)`. Runs the serial loop for small inputs on
/// one worker (unless lanes are recorded), and otherwise the chunked strip
/// decomposition of [`PAIRWISE_CHUNKING`]. Entries are a pure function of
/// `(i, j)`, so the result is identical for any worker count.
fn pairwise_by<F>(
    n: usize,
    lanes: crate::parallel::Lanes<'_>,
    entry: F,
) -> Result<crate::Matrix, LinalgError>
where
    F: Fn(usize, usize) -> Result<f64, LinalgError> + Sync,
{
    let mut d = crate::Matrix::zeros(n, n);
    if lanes.is_none()
        && (n < PAIRWISE_CHUNKING.min_parallel_len || crate::parallel::worker_count() <= 1)
    {
        for i in 0..n {
            for j in (i + 1)..n {
                let v = entry(i, j)?;
                d[(i, j)] = v;
                d[(j, i)] = v;
            }
        }
        return Ok(d);
    }
    // Each chunk of rows yields its strict-upper-triangle strip
    // `(i, j > i, distance)` as one contiguous vector.
    let chunk_size = PAIRWISE_CHUNKING.chunk_size;
    let strips = crate::parallel::try_map_chunks(n, PAIRWISE_CHUNKING, lanes, |rows| {
        let mut strip = Vec::with_capacity(rows.clone().map(|i| n - i - 1).sum());
        for i in rows {
            for j in (i + 1)..n {
                strip.push(entry(i, j)?);
            }
        }
        Ok::<_, LinalgError>(strip)
    })
    .map_err(LinalgError::from)?;
    // Scatter each strip into the upper triangle with row-contiguous
    // copies; per-entry iteration here would cost as much as the distance
    // computation itself.
    for (c, strip) in strips.iter().enumerate() {
        let start = c * chunk_size;
        let end = ((c + 1) * chunk_size).min(n);
        let mut offset = 0;
        for i in start..end {
            let len = n - i - 1;
            d.row_mut(i)[(i + 1)..n].copy_from_slice(&strip[offset..offset + len]);
            offset += len;
        }
    }
    mirror_upper_to_lower(&mut d);
    Ok(d)
}

/// Copies the strict upper triangle onto the lower one, in cache-sized
/// tiles: a naive row-major read / column-major write transpose pays a
/// cache miss per element, roughly doubling [`pairwise`]'s runtime at
/// 1024+ rows.
fn mirror_upper_to_lower(d: &mut crate::Matrix) {
    const TILE: usize = 64;
    let n = d.nrows();
    let mut bi = 0;
    while bi < n {
        let bi_end = (bi + TILE).min(n);
        let mut bj = bi;
        while bj < n {
            let bj_end = (bj + TILE).min(n);
            for i in bi..bi_end {
                for j in bj.max(i + 1)..bj_end {
                    d[(j, i)] = d[(i, j)];
                }
            }
            bj = bj_end;
        }
        bi = bi_end;
    }
}

/// The single-threaded reference implementation of [`pairwise`].
///
/// Kept public so property tests and benchmarks can compare the parallel
/// path against it; [`pairwise`] is guaranteed to produce identical bits.
///
/// # Errors
///
/// Propagates errors from [`Metric::distance`].
pub fn pairwise_serial(
    points: &crate::Matrix,
    metric: Metric,
) -> Result<crate::Matrix, LinalgError> {
    let n = points.nrows();
    let mut d = crate::Matrix::zeros(n, n);
    for i in 0..n {
        for j in (i + 1)..n {
            let v = metric.distance(points.row(i), points.row(j))?;
            d[(i, j)] = v;
            d[(j, i)] = v;
        }
    }
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    const A: [f64; 3] = [1.0, 2.0, 3.0];
    const B: [f64; 3] = [4.0, 6.0, 3.0];

    #[test]
    fn euclidean_known() {
        // (3, 4, 0) -> 5
        assert!((Metric::Euclidean.distance(&A, &B).unwrap() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn squared_euclidean_is_square() {
        let d = Metric::Euclidean.distance(&A, &B).unwrap();
        let d2 = Metric::SquaredEuclidean.distance(&A, &B).unwrap();
        assert!((d * d - d2).abs() < 1e-12);
    }

    #[test]
    fn manhattan_known() {
        assert_eq!(Metric::Manhattan.distance(&A, &B).unwrap(), 7.0);
    }

    #[test]
    fn chebyshev_known() {
        assert_eq!(Metric::Chebyshev.distance(&A, &B).unwrap(), 4.0);
    }

    #[test]
    fn minkowski_extremes_match() {
        // p = 1 is Manhattan, p = 2 is Euclidean.
        let m1 = Metric::Minkowski(1.0).distance(&A, &B).unwrap();
        let m2 = Metric::Minkowski(2.0).distance(&A, &B).unwrap();
        assert!((m1 - 7.0).abs() < 1e-12);
        assert!((m2 - 5.0).abs() < 1e-12);
    }

    #[test]
    fn minkowski_rejects_bad_p() {
        assert!(Metric::Minkowski(0.5).distance(&A, &B).is_err());
        assert!(Metric::Minkowski(f64::NAN).distance(&A, &B).is_err());
    }

    #[test]
    fn cosine_parallel_and_orthogonal() {
        let d0 = Metric::Cosine.distance(&[1.0, 0.0], &[2.0, 0.0]).unwrap();
        let d1 = Metric::Cosine.distance(&[1.0, 0.0], &[0.0, 1.0]).unwrap();
        assert!(d0.abs() < 1e-12);
        assert!((d1 - 1.0).abs() < 1e-12);
        // Zero vector convention.
        assert_eq!(Metric::Cosine.distance(&[0.0], &[1.0]).unwrap(), 1.0);
    }

    #[test]
    fn mismatched_lengths_rejected() {
        assert!(Metric::Euclidean.distance(&[1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn identity_of_indiscernibles() {
        for m in [
            Metric::Euclidean,
            Metric::Manhattan,
            Metric::Chebyshev,
            Metric::SquaredEuclidean,
        ] {
            assert_eq!(m.distance(&A, &A).unwrap(), 0.0);
        }
    }

    #[test]
    fn pairwise_symmetric_zero_diagonal() {
        let pts = Matrix::from_rows(&[vec![0.0, 0.0], vec![3.0, 4.0], vec![6.0, 8.0]]).unwrap();
        let d = pairwise(&pts, Metric::Euclidean).unwrap();
        assert_eq!(d.shape(), (3, 3));
        for i in 0..3 {
            assert_eq!(d[(i, i)], 0.0);
            for j in 0..3 {
                assert_eq!(d[(i, j)], d[(j, i)]);
            }
        }
        assert!((d[(0, 1)] - 5.0).abs() < 1e-12);
        assert!((d[(0, 2)] - 10.0).abs() < 1e-12);
    }

    #[test]
    fn default_is_euclidean() {
        assert_eq!(Metric::default(), Metric::Euclidean);
    }

    /// A deterministic pseudo-random matrix big enough to cross the
    /// parallelism threshold in [`PAIRWISE_CHUNKING`].
    fn big_matrix(n: usize, d: usize) -> Matrix {
        let mut state = 0x9E37_79B9u64;
        let data: Vec<f64> = (0..n * d)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
            })
            .collect();
        Matrix::from_vec(n, d, data).unwrap()
    }

    #[test]
    fn parallel_pairwise_matches_serial_bitwise() {
        // Force several workers so the threaded path runs even on a
        // single-core machine (where pairwise would dispatch serially).
        crate::parallel::set_worker_override(Some(4));
        let pts = big_matrix(97, 6);
        for metric in [Metric::Euclidean, Metric::Manhattan, Metric::Cosine] {
            let par = pairwise(&pts, metric).unwrap();
            let ser = pairwise_serial(&pts, metric).unwrap();
            assert_eq!(par, ser, "{metric:?}");
        }
        crate::parallel::set_worker_override(None);
    }

    #[test]
    fn blocked_pairwise_exact_on_integer_coordinates() {
        // SOM map positions are small integer grid coordinates: every norm
        // and dot is exactly representable, so the norm trick loses nothing
        // and the blocked path must match the scalar path bit for bit.
        let mut rows = Vec::new();
        for x in 0..12 {
            for y in 0..11 {
                rows.push(vec![f64::from(x), f64::from(y)]);
            }
        }
        let pts = Matrix::from_rows(&rows).unwrap();
        for metric in [Metric::Euclidean, Metric::SquaredEuclidean] {
            let blocked = pairwise_norm_trick(&pts, metric, None).unwrap();
            let scalar = pairwise(&pts, metric).unwrap();
            assert_eq!(blocked, scalar, "{metric:?}");
        }
    }

    #[test]
    fn blocked_pairwise_within_ulp_band_on_real_data() {
        let pts = big_matrix(70, 9);
        let blocked = pairwise_norm_trick(&pts, Metric::SquaredEuclidean, None).unwrap();
        let scalar = pairwise(&pts, Metric::SquaredEuclidean).unwrap();
        let mut norms = vec![0.0; 70];
        crate::kernels::row_sq_norms_into(&pts, &mut norms);
        for i in 0..70 {
            for j in 0..70 {
                let band = crate::kernels::candidate_band(9, norms[i], norms[j]);
                assert!(
                    (blocked[(i, j)] - scalar[(i, j)]).abs() <= band,
                    "({i},{j}): {} vs {}",
                    blocked[(i, j)],
                    scalar[(i, j)]
                );
            }
        }
    }

    #[test]
    fn blocked_pairwise_worker_count_invariant() {
        let pts = big_matrix(80, 5);
        crate::parallel::set_worker_override(Some(4));
        let par = pairwise_norm_trick(&pts, Metric::Euclidean, None).unwrap();
        crate::parallel::set_worker_override(Some(1));
        let ser = pairwise_norm_trick(&pts, Metric::Euclidean, None).unwrap();
        crate::parallel::set_worker_override(None);
        assert_eq!(par, ser);
    }

    #[test]
    fn foreign_metrics_fall_back_to_the_scalar_path() {
        let pts = big_matrix(20, 4);
        for metric in [Metric::Manhattan, Metric::Chebyshev, Metric::Cosine] {
            let trick = pairwise_norm_trick(&pts, metric, None).unwrap();
            assert_eq!(trick, pairwise(&pts, metric).unwrap(), "{metric:?}");
        }
    }

    #[test]
    fn lanes_record_same_structure_for_any_worker_count_and_identical_bits() {
        // n = 13 is below the parallelism threshold: lane recording must
        // still produce the chunked structure (2 chunks of 8) and identical
        // distance bits, whether the serial fallback or real workers ran.
        let pts = big_matrix(13, 4);
        let clock = hiermeans_obs::Collector::enabled()
            .lane_clock()
            .expect("enabled collector has a lane clock");
        let serial = pairwise_serial(&pts, Metric::Euclidean).unwrap();
        let mut structures = Vec::new();
        for workers in [Some(1), Some(4), None] {
            crate::parallel::set_worker_override(workers);
            let mut buf = crate::parallel::LaneBuf::new();
            let d = pairwise_lanes(&pts, Metric::Euclidean, Some((clock, &mut buf))).unwrap();
            assert_eq!(d, serial, "workers = {workers:?}");
            let mut chunks: Vec<u32> = buf.intervals().iter().map(|iv| iv.chunk).collect();
            chunks.sort_unstable();
            structures.push((buf.runs(), chunks));
        }
        crate::parallel::set_worker_override(None);
        assert_eq!(structures[0], (1, vec![0, 1]));
        assert!(structures.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn norm_trick_lanes_share_the_chunk_structure() {
        let pts = big_matrix(70, 5);
        let clock = hiermeans_obs::Collector::enabled()
            .lane_clock()
            .expect("enabled collector has a lane clock");
        let mut blocked_buf = crate::parallel::LaneBuf::new();
        let mut scalar_buf = crate::parallel::LaneBuf::new();
        let blocked =
            pairwise_norm_trick(&pts, Metric::Euclidean, Some((clock, &mut blocked_buf))).unwrap();
        let scalar =
            pairwise_lanes(&pts, Metric::Euclidean, Some((clock, &mut scalar_buf))).unwrap();
        assert_eq!(blocked.shape(), scalar.shape());
        let chunks = |buf: &crate::parallel::LaneBuf| {
            let mut c: Vec<u32> = buf.intervals().iter().map(|iv| iv.chunk).collect();
            c.sort_unstable();
            c
        };
        assert_eq!(chunks(&blocked_buf), chunks(&scalar_buf));
        assert_eq!(chunks(&blocked_buf), (0..9).collect::<Vec<u32>>());
    }

    #[test]
    fn parallel_pairwise_propagates_errors() {
        // Large enough that the parallel path runs; the worker error must
        // surface as an Err, not a panic.
        crate::parallel::set_worker_override(Some(4));
        let pts = big_matrix(96, 3);
        let result = pairwise(&pts, Metric::Minkowski(0.5));
        crate::parallel::set_worker_override(None);
        assert!(result.is_err());
    }
}
