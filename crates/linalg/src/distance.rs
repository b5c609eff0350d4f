//! Point-to-point distances.
//!
//! The paper uses the Euclidean distance both for the SOM's best-matching-unit
//! search and as the point-to-point distance underneath the clustering linkage
//! (Section III-B). [`euclidean`] is that distance, and [`pairwise`] is
//! the clustering stage's distance matrix: every entry is [`euclidean`] of
//! its two rows, the same bits on every worker count.

use crate::LinalgError;

/// The Euclidean (L2) distance between `a` and `b`: the square root of
/// `Σ (a_i − b_i)²`, summed in ascending index order.
///
/// # Errors
///
/// Returns [`LinalgError::ShapeMismatch`] if the vectors have different
/// lengths.
///
/// # Example
///
/// ```
/// use hiermeans_linalg::distance::euclidean;
///
/// # fn main() -> Result<(), hiermeans_linalg::LinalgError> {
/// assert_eq!(euclidean(&[0.0, 0.0], &[3.0, 4.0])?, 5.0);
/// # Ok(())
/// # }
/// ```
pub fn euclidean(a: &[f64], b: &[f64]) -> Result<f64, LinalgError> {
    if a.len() != b.len() {
        return Err(LinalgError::ShapeMismatch {
            left: (a.len(), 1),
            right: (b.len(), 1),
            op: "distance",
        });
    }
    Ok(a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum::<f64>()
        .sqrt())
}

/// Chunking for [`pairwise`]: a handful of rows per chunk keeps the ragged
/// upper-triangle work balanced, and matrices under 64 rows are cheaper to
/// do in place than to spawn for. Public so lane-recording callers can size
/// their `LaneBuf`s to the chunk count this module will produce.
pub const PAIRWISE_CHUNKING: crate::parallel::Chunking = crate::parallel::Chunking::new(8, 64);

/// Computes the full pairwise distance matrix between the rows of `points`,
/// parallelizing over row chunks for large inputs.
///
/// Every entry is [`euclidean`] of its two rows: this is the exact
/// scalar path, and it is bit-for-bit identical to [`pairwise_serial`]
/// regardless of the worker count, because each entry is computed
/// independently by the same expression. Small inputs and single-worker
/// environments dispatch straight to the serial loop, which avoids the
/// parallel path's gather overhead when there is nothing to win.
///
/// # Errors
///
/// Propagates errors from [`euclidean`].
pub fn pairwise(points: &crate::Matrix) -> Result<crate::Matrix, LinalgError> {
    pairwise_lanes(points, None)
}

/// [`pairwise`] with worker-lane recording.
///
/// Small inputs on one worker run the serial loop; otherwise the rows are
/// split by [`PAIRWISE_CHUNKING`] into chunks, each computing its strip of
/// the upper triangle. When `lanes` is `Some`, the chunked decomposition
/// runs even below the parallelism threshold so the recorded chunk
/// structure is a pure function of `n` — never of the worker count. Each
/// entry is computed by the same expression either way, so the result
/// stays bit-for-bit identical to [`pairwise_serial`].
///
/// # Errors
///
/// Propagates errors from [`euclidean`].
pub fn pairwise_lanes(
    points: &crate::Matrix,
    lanes: crate::parallel::Lanes<'_>,
) -> Result<crate::Matrix, LinalgError> {
    let n = points.nrows();
    let entry = |i: usize, j: usize| euclidean(points.row(i), points.row(j));
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
/// Propagates errors from [`euclidean`].
pub fn pairwise_serial(points: &crate::Matrix) -> Result<crate::Matrix, LinalgError> {
    let n = points.nrows();
    let mut d = crate::Matrix::zeros(n, n);
    for i in 0..n {
        for j in (i + 1)..n {
            let v = euclidean(points.row(i), points.row(j))?;
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
        assert!((euclidean(&A, &B).unwrap() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn mismatched_lengths_rejected() {
        assert!(euclidean(&[1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn identity_of_indiscernibles() {
        assert_eq!(euclidean(&A, &A).unwrap(), 0.0);
    }

    #[test]
    fn pairwise_symmetric_zero_diagonal() {
        let pts = Matrix::from_rows(&[vec![0.0, 0.0], vec![3.0, 4.0], vec![6.0, 8.0]]).unwrap();
        let d = pairwise(&pts).unwrap();
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
        assert_eq!(pairwise(&pts).unwrap(), pairwise_serial(&pts).unwrap());
        crate::parallel::set_worker_override(None);
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
        let serial = pairwise_serial(&pts).unwrap();
        let mut structures = Vec::new();
        for workers in [Some(1), Some(4), None] {
            crate::parallel::set_worker_override(workers);
            let mut buf = crate::parallel::LaneBuf::new();
            let d = pairwise_lanes(&pts, Some((clock, &mut buf))).unwrap();
            assert_eq!(d, serial, "workers = {workers:?}");
            let mut chunks: Vec<u32> = buf.intervals().iter().map(|iv| iv.chunk).collect();
            chunks.sort_unstable();
            structures.push((buf.runs(), chunks));
        }
        crate::parallel::set_worker_override(None);
        assert_eq!(structures[0], (1, vec![0, 1]));
        assert!(structures.windows(2).all(|w| w[0] == w[1]));
    }
}
