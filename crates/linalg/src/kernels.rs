//! Blocked compute kernels for the workspace's dense hot paths.
//!
//! Every distance- and product-shaped inner loop in the pipeline — the SOM's
//! best-matching-unit search, the clustering stage's pairwise matrix, and the
//! covariance/Gram products behind PCA — bottoms out in one of three kernels
//! here:
//!
//! * [`matmul`] — a register-blocked matrix product that folds eight `k`
//!   contributions into the output row per bounds-check-free column sweep,
//!   while accumulating every output cell **in ascending-`k` order**. The
//!   summation order is exactly the one the naive triple loop used, so
//!   results are bitwise identical to [`matmul_reference`] on finite
//!   inputs, on every machine.
//! * [`syrk_rows`] — the symmetric rank-k product `MᵀM` streamed over the
//!   rows of `M`, used by covariance and the dual-PCA Gram matrix. Also
//!   ascending-order exact.
//! * [`trick_dists_wt_into`] / [`refine_best_two`] — batched squared
//!   Euclidean distances via the norm trick `‖x‖² + ‖w‖² − 2·x·w` against a
//!   transposed codebook with precomputed unit norms. The trick reorders
//!   floating-point operations, so trick distances agree with the scalar
//!   formula only to ULP tolerance; argmin consumers (batched BMU search)
//!   therefore run a **scalar refinement pass** over the candidates inside
//!   a conservative error band ([`candidate_band`]), which restores *exact*
//!   agreement with a scalar scan — same unit indices, same distance bits.
//! * [`exact_dists_wt_into`] / [`online_step_wt`] — the online SOM step
//!   against a unit-major codebook: exact per-unit distances (the scalar
//!   formula's own operations, so no refinement is needed), and the
//!   neighborhood update fused with the next step's distances into one
//!   sweep, both vectorized across units (AVX-512, AVX2 or portable, picked
//!   at run time).
//!
//! The norm-trick path runs whenever the metric is (squared) Euclidean;
//! other metrics take the scalar per-pair loops. The matrix-product
//! kernels are bit-for-bit interchangeable with the loops they replaced.

use crate::{LinalgError, Matrix};

/// AVX-512 micro-kernels behind [`matmul`] and [`trick_dists_wt_into`].
///
/// Every kernel applies, per output cell, exactly the scalar ascending-`k`
/// multiply-then-add chain — separate rounding for every multiply and every
/// add, never FMA contraction, never reassociation — so results are bitwise
/// identical to the portable loops on every machine; only throughput
/// differs. The speed comes from *register blocking*: each kernel pins a
/// row-block of output accumulators in zmm registers across the whole
/// shared dimension, so the output is read and written once and each
/// right-hand-side panel load is shared across the row block.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::needless_range_loop)] // index loops mirror fixed-size register arrays
mod x86 {
    use std::arch::x86_64::*;

    use crate::Matrix;

    /// Whether the AVX-512 foundation subset is available. The detection
    /// macro caches the CPUID result process-wide.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("avx512f")
    }

    /// The tail-lane mask for a strip of `w` columns (`w % 8` low bits).
    fn tail_mask(w: usize) -> __mmask8 {
        ((1u16 << (w % 8)) - 1) as __mmask8
    }

    /// Generates one register-tile matmul kernel: `$nt` zmm accumulators
    /// (up to 64 output columns) held in registers across the whole
    /// ascending-`k` loop, for `$rb` rows of `a` at a time so each `b`
    /// panel load is reused `$rb` times. The `$nt`-th tile may be masked to
    /// the strip's tail lanes; masked lanes are neither read nor written.
    macro_rules! strip_kernel {
        ($name:ident, $rb:expr, $nt:expr) => {
            #[target_feature(enable = "avx512f")]
            unsafe fn $name(
                a: &Matrix,
                b: &Matrix,
                out: &mut Matrix,
                j0: usize,
                w: usize,
                tailmask: __mmask8,
            ) {
                const RB: usize = $rb;
                const NT: usize = $nt;
                let (m, kk) = a.shape();
                let full = w / 8;
                macro_rules! load_tile {
                    ($row:expr, $t:expr) => {
                        if $t < full {
                            _mm512_loadu_pd($row.add(8 * $t))
                        } else {
                            _mm512_maskz_loadu_pd(tailmask, $row.add(8 * $t))
                        }
                    };
                }
                macro_rules! store_tile {
                    ($row:expr, $t:expr, $v:expr) => {
                        if $t < full {
                            _mm512_storeu_pd($row.add(8 * $t), $v);
                        } else {
                            _mm512_mask_storeu_pd($row.add(8 * $t), tailmask, $v);
                        }
                    };
                }
                let mut i = 0;
                while i + RB <= m {
                    let mut acc = [[_mm512_setzero_pd(); NT]; RB];
                    for k in 0..kk {
                        let brow = b.row(k).as_ptr().add(j0);
                        let mut bv = [_mm512_setzero_pd(); NT];
                        for t in 0..NT {
                            bv[t] = load_tile!(brow, t);
                        }
                        for r in 0..RB {
                            let avv = _mm512_set1_pd(*a.row(i + r).get_unchecked(k));
                            for t in 0..NT {
                                acc[r][t] = _mm512_add_pd(acc[r][t], _mm512_mul_pd(avv, bv[t]));
                            }
                        }
                    }
                    for r in 0..RB {
                        let orow = out.row_mut(i + r).as_mut_ptr().add(j0);
                        for t in 0..NT {
                            store_tile!(orow, t, acc[r][t]);
                        }
                    }
                    i += RB;
                }
                while i < m {
                    let mut acc = [_mm512_setzero_pd(); NT];
                    for k in 0..kk {
                        let brow = b.row(k).as_ptr().add(j0);
                        let avv = _mm512_set1_pd(*a.row(i).get_unchecked(k));
                        for t in 0..NT {
                            acc[t] = _mm512_add_pd(acc[t], _mm512_mul_pd(avv, load_tile!(brow, t)));
                        }
                    }
                    let orow = out.row_mut(i).as_mut_ptr().add(j0);
                    for t in 0..NT {
                        store_tile!(orow, t, acc[t]);
                    }
                    i += 1;
                }
            }
        };
    }

    // Row-block depth per tile count: narrow strips afford deeper row
    // blocks (more b-load reuse) before running out of zmm registers.
    strip_kernel!(strip_1, 4, 1);
    strip_kernel!(strip_2, 4, 2);
    strip_kernel!(strip_3, 3, 3);
    strip_kernel!(strip_4, 3, 4);
    strip_kernel!(strip_5, 3, 5);
    strip_kernel!(strip_6, 3, 6);
    strip_kernel!(strip_7, 3, 7);
    strip_kernel!(strip_8, 3, 8);

    /// Register-tile matmul for any shape: output columns are processed in
    /// strips of at most 64, each strip's accumulators pinned in registers
    /// across the whole shared dimension (ascending `k`, exact chain).
    ///
    /// Callers must have verified [`available`] and that shapes agree.
    pub(super) fn matmul(a: &Matrix, b: &Matrix, out: &mut Matrix) {
        let n = b.ncols();
        let mut j0 = 0;
        while j0 < n {
            let w = (n - j0).min(64);
            let nt = w.div_ceil(8);
            let mask = tail_mask(w);
            // SAFETY: avx512f was verified by the caller; every strip obeys
            // `j0 + w <= n`, full tiles stay inside the row, and the tail
            // tile's masked lanes are neither read nor written.
            unsafe {
                match nt {
                    1 => strip_1(a, b, out, j0, w, mask),
                    2 => strip_2(a, b, out, j0, w, mask),
                    3 => strip_3(a, b, out, j0, w, mask),
                    4 => strip_4(a, b, out, j0, w, mask),
                    5 => strip_5(a, b, out, j0, w, mask),
                    6 => strip_6(a, b, out, j0, w, mask),
                    7 => strip_7(a, b, out, j0, w, mask),
                    _ => strip_8(a, b, out, j0, w, mask),
                }
            }
            j0 += w;
        }
    }

    /// Norm-trick distances against a transposed codebook, for full
    /// 64-column strips: `out[u] = max(0, (xn + wn[u]) + Σ_d (−2·x[d])·wt[d][u])`
    /// accumulated in ascending `d` — the identical chain to the portable
    /// loop in [`super::trick_dists_wt_into`]. Handles `units - units % 64`
    /// columns; the caller finishes the tail with the portable loop.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn trick_dists_wt_strips(
        x: &[f64],
        xn: f64,
        wt: &Matrix,
        wn: &[f64],
        out: &mut [f64],
    ) -> usize {
        let units = wt.ncols();
        let dim = wt.nrows();
        let xnv = _mm512_set1_pd(xn);
        let zero = _mm512_setzero_pd();
        let mut j0 = 0;
        while j0 + 64 <= units {
            let wnp = wn.as_ptr().add(j0);
            let mut acc = [zero; 8];
            for t in 0..8 {
                acc[t] = _mm512_add_pd(xnv, _mm512_loadu_pd(wnp.add(8 * t)));
            }
            for d in 0..dim {
                let avv = _mm512_set1_pd(-2.0 * *x.get_unchecked(d));
                let wrow = wt.row(d).as_ptr().add(j0);
                for t in 0..8 {
                    acc[t] =
                        _mm512_add_pd(acc[t], _mm512_mul_pd(avv, _mm512_loadu_pd(wrow.add(8 * t))));
                }
            }
            let op = out.as_mut_ptr().add(j0);
            for t in 0..8 {
                _mm512_storeu_pd(op.add(8 * t), _mm512_max_pd(acc[t], zero));
            }
            j0 += 64;
        }
        j0
    }
}

/// Output tile width for [`syrk_rows`]. A pair of `J_TILE`-wide row slices
/// plus the output tile stays L1-resident while all rows stream through.
const J_TILE: usize = 64;
/// How many `k` contributions [`matmul`] folds into the output row per
/// sweep. Each sweep applies them *sequentially in ascending `k`* per
/// output cell (bitwise identical to one-at-a-time sweeps) but reads and
/// writes the output row once instead of `K_UNROLL` times.
const K_UNROLL: usize = 8;

/// The naive triple-loop matrix product, kept as the scalar reference for
/// equivalence tests and the `kernels` criterion bench's speedup baseline.
///
/// This is byte-for-byte the loop [`Matrix::matmul`] ran before the blocked
/// kernel existed (minus its skip of zero multiplicands, which only changed
/// results for non-finite inputs).
///
/// # Errors
///
/// Returns [`LinalgError::ShapeMismatch`] if `a.ncols() != b.nrows()`.
pub fn matmul_reference(a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
    if a.ncols() != b.nrows() {
        return Err(LinalgError::ShapeMismatch {
            left: a.shape(),
            right: b.shape(),
            op: "matmul",
        });
    }
    let mut out = Matrix::zeros(a.nrows(), b.ncols());
    for i in 0..a.nrows() {
        for k in 0..a.ncols() {
            let av = a[(i, k)];
            for j in 0..b.ncols() {
                out[(i, j)] += av * b[(k, j)];
            }
        }
    }
    Ok(out)
}

/// Register-blocked matrix product `a * b`.
///
/// On x86-64 with AVX-512 this runs the register-tile kernel: output
/// columns in strips of at most 64 held entirely in zmm accumulators across
/// the whole shared dimension, with each `b` panel load shared across a
/// block of 3–4 output rows. Elsewhere it falls back to full-width
/// bounds-check-free column sweeps folding `K_UNROLL` (then four, then
/// one) `k` contributions per pass. Both paths apply the contributions for
/// each output cell *sequentially in ascending `k`* with a separate
/// rounding for every multiply and add — exactly the association the naive
/// loop uses — so the result is bitwise identical to [`matmul_reference`]
/// for finite inputs regardless of dispatch, unroll factors, or hardware.
///
/// # Errors
///
/// Returns [`LinalgError::ShapeMismatch`] if `a.ncols() != b.nrows()`.
pub fn matmul(a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
    if a.ncols() != b.nrows() {
        return Err(LinalgError::ShapeMismatch {
            left: a.shape(),
            right: b.shape(),
            op: "matmul",
        });
    }
    let mut out = Matrix::zeros(a.nrows(), b.ncols());
    #[cfg(target_arch = "x86_64")]
    if x86::available() {
        x86::matmul(a, b, &mut out);
        return Ok(out);
    }
    matmul_sweeps(a, b, &mut out);
    Ok(out)
}

/// Portable fallback for [`matmul`]: per-row ascending-`k` column sweeps,
/// eight (then four, then one) contributions folded per pass.
fn matmul_sweeps(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let (m, kk) = a.shape();
    let n = b.ncols();
    for i in 0..m {
        let arow = a.row(i);
        let orow = &mut out.row_mut(i)[..n];
        let mut k0 = 0;
        while k0 + K_UNROLL <= kk {
            let (a0, a1, a2, a3, a4, a5, a6, a7) = (
                arow[k0],
                arow[k0 + 1],
                arow[k0 + 2],
                arow[k0 + 3],
                arow[k0 + 4],
                arow[k0 + 5],
                arow[k0 + 6],
                arow[k0 + 7],
            );
            let b0 = &b.row(k0)[..n];
            let b1 = &b.row(k0 + 1)[..n];
            let b2 = &b.row(k0 + 2)[..n];
            let b3 = &b.row(k0 + 3)[..n];
            let b4 = &b.row(k0 + 4)[..n];
            let b5 = &b.row(k0 + 5)[..n];
            let b6 = &b.row(k0 + 6)[..n];
            let b7 = &b.row(k0 + 7)[..n];
            for j in 0..n {
                let mut t = orow[j] + a0 * b0[j];
                t += a1 * b1[j];
                t += a2 * b2[j];
                t += a3 * b3[j];
                t += a4 * b4[j];
                t += a5 * b5[j];
                t += a6 * b6[j];
                orow[j] = t + a7 * b7[j];
            }
            k0 += K_UNROLL;
        }
        if k0 + 4 <= kk {
            let (a0, a1, a2, a3) = (arow[k0], arow[k0 + 1], arow[k0 + 2], arow[k0 + 3]);
            let b0 = &b.row(k0)[..n];
            let b1 = &b.row(k0 + 1)[..n];
            let b2 = &b.row(k0 + 2)[..n];
            let b3 = &b.row(k0 + 3)[..n];
            for j in 0..n {
                let mut t = orow[j] + a0 * b0[j];
                t += a1 * b1[j];
                t += a2 * b2[j];
                orow[j] = t + a3 * b3[j];
            }
            k0 += 4;
        }
        for (k, &av) in arow.iter().enumerate().skip(k0) {
            let brow = &b.row(k)[..n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

/// The symmetric product `MᵀM` (an `ncols x ncols` matrix), streamed over
/// the rows of `m`: `out[i][j] = Σ_r m[r][i] · m[r][j]`.
///
/// Contributions arrive in ascending row order for every output cell —
/// identical association to the scalar accumulation loops this replaces in
/// [`Matrix::covariance`] — and only the upper triangle is computed before
/// mirroring.
pub fn syrk_rows(m: &Matrix) -> Matrix {
    let p = m.ncols();
    let mut out = Matrix::zeros(p, p);
    // Output tiles (i0.., j0..) in the upper triangle; each streams all rows
    // of `m` once with contiguous slice reads.
    let mut i0 = 0;
    while i0 < p {
        let i1 = (i0 + J_TILE).min(p);
        let mut j0 = i0;
        while j0 < p {
            let j1 = (j0 + J_TILE).min(p);
            for row in m.rows_iter() {
                let left = &row[i0..i1];
                let right = &row[j0..j1];
                for (di, &lv) in left.iter().enumerate() {
                    let i = i0 + di;
                    let orow = &mut out.row_mut(i)[j0.max(i)..j1];
                    let rstart = j0.max(i) - j0;
                    for (o, &rv) in orow.iter_mut().zip(&right[rstart..]) {
                        *o += lv * rv;
                    }
                }
            }
            j0 = j1;
        }
        i0 = i1;
    }
    // Mirror the strict upper triangle.
    for i in 0..p {
        for j in (i + 1)..p {
            out[(j, i)] = out[(i, j)];
        }
    }
    out
}

/// Squared L2 norm of `v` with fixed four-way unrolled accumulators.
///
/// The reassociation is deterministic (a pure function of the length), so
/// results are machine-independent, but they differ from a serial
/// left-to-right sum by ULPs — use only where the norm trick's tolerance
/// applies.
#[must_use]
pub fn sq_norm_fast(v: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let mut chunks = v.chunks_exact(4);
    for c in chunks.by_ref() {
        acc[0] += c[0] * c[0];
        acc[1] += c[1] * c[1];
        acc[2] += c[2] * c[2];
        acc[3] += c[3] * c[3];
    }
    let mut tail = 0.0;
    for &x in chunks.remainder() {
        tail += x * x;
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + tail
}

/// Dot product with fixed four-way unrolled accumulators (deterministic
/// reassociation; ULP-tolerance only, like [`sq_norm_fast`]).
#[must_use]
pub fn dot_fast(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let mut ac = a.chunks_exact(4);
    let mut bc = b.chunks_exact(4);
    for (ca, cb) in ac.by_ref().zip(bc.by_ref()) {
        acc[0] += ca[0] * cb[0];
        acc[1] += ca[1] * cb[1];
        acc[2] += ca[2] * cb[2];
        acc[3] += ca[3] * cb[3];
    }
    let mut tail = 0.0;
    for (&x, &y) in ac.remainder().iter().zip(bc.remainder()) {
        tail += x * y;
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + tail
}

/// Writes the squared L2 norm of every row of `m` into `out`.
///
/// # Panics
///
/// Panics if `out.len() != m.nrows()`.
pub fn row_sq_norms_into(m: &Matrix, out: &mut [f64]) {
    assert_eq!(out.len(), m.nrows(), "row norm buffer length");
    for (o, row) in out.iter_mut().zip(m.rows_iter()) {
        *o = sq_norm_fast(row);
    }
}

/// The conservative absolute error band of a norm-trick squared distance
/// for vectors of dimension `dim` with squared norms `xn` and `wn`.
///
/// Covers both the trick's own rounding (three length-`dim` summations plus
/// the final combination) and the scalar formula's, with a ~4x safety
/// margin: any unit whose trick distance lies more than twice this band
/// above the running second-best provably cannot be the scalar best or
/// second-best.
#[must_use]
pub fn candidate_band(dim: usize, xn: f64, wn: f64) -> f64 {
    8.0 * (dim as f64 + 8.0) * f64::EPSILON * (xn + wn)
}

/// Batched norm-trick squared distances against a *transposed* codebook
/// `wt` (`dim x units`): `out[u] = max(0, (xn + wn[u]) + Σ_d (−2·x[d])·wt[d][u])`
/// with the sum accumulated in ascending `d`.
///
/// The column-major traversal turns the whole search into `dim` contiguous
/// streaming sweeps over `wt`'s rows, which the AVX-512 path runs 64 units
/// at a time with the accumulators held in registers. The ascending-`d`
/// chain is identical between the SIMD and portable paths, so the values
/// are machine-independent.
///
/// Error bound: each partial sum of `(−2·x[d])·wt[d][u]` is bounded by
/// `2·√(xn·wn[u]) ≤ xn + wn[u]` (Cauchy–Schwarz), so the accumulated
/// rounding error after `dim + 2` additions is below
/// `(dim + 2)·ε·2·(xn + wn[u])` — comfortably inside
/// [`candidate_band`]`(dim, xn, wn[u])`, making the band's refinement
/// contract hold for these distances.
///
/// # Panics
///
/// Panics if buffer lengths disagree with `wt`'s shape (`x.len() !=
/// wt.nrows()` or `wn.len()`/`out.len() != wt.ncols()`).
pub fn trick_dists_wt_into(x: &[f64], xn: f64, wt: &Matrix, wn: &[f64], out: &mut [f64]) {
    assert_eq!(x.len(), wt.nrows(), "query dimension");
    assert_eq!(wn.len(), wt.ncols(), "norm buffer length");
    assert_eq!(out.len(), wt.ncols(), "distance buffer length");
    let units = wt.ncols();
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if x86::available() {
        // SAFETY: shapes were asserted above; the kernel touches only full
        // 64-column strips and reports how many columns it covered.
        done = unsafe { x86::trick_dists_wt_strips(x, xn, wt, wn, out) };
    }
    if done == units {
        return;
    }
    let tail = done..units;
    for u in tail.clone() {
        out[u] = xn + wn[u];
    }
    for (d, &xd) in x.iter().enumerate() {
        let av = -2.0 * xd;
        let wrow = &wt.row(d)[tail.clone()];
        for (o, &wv) in out[tail.clone()].iter_mut().zip(wrow) {
            *o += av * wv;
        }
    }
    for u in tail {
        out[u] = out[u].max(0.0);
    }
}

/// Units per register block of [`exact_dists_wt_into`] and
/// [`online_step_wt`]: four AVX2 (two AVX-512) vectors of accumulators,
/// held in registers across the whole `d` loop.
const UNIT_BLOCK: usize = 16;

/// Exact distances from `x` to every unit of a transposed codebook `wt`
/// (`dim x units`): `out[u] = Σ_d (x[d] − wt[d][u])²`, summed in ascending
/// `d` from zero, then its square root when `root` is set.
///
/// Each unit's value comes from exactly the operations of
/// [`Metric::SquaredEuclidean`](crate::distance::Metric::SquaredEuclidean)
/// (and [`Metric::Euclidean`](crate::distance::Metric::Euclidean) with
/// `root`), so it equals [`Metric::distance`](crate::distance::Metric::distance)
/// of `x` and the unit's weight vector bit for bit: the lanes are
/// independent units, and Rust never fuses a multiply and an add. The loop
/// runs `UNIT_BLOCK` units at a time with the accumulators in registers,
/// compiled for AVX2 when the CPU has it; the dispatch changes only speed.
///
/// # Panics
///
/// Panics if `x.len() != wt.nrows()` or `out.len() != wt.ncols()`.
pub fn exact_dists_wt_into(x: &[f64], wt: &Matrix, root: bool, out: &mut [f64]) {
    assert_eq!(x.len(), wt.nrows(), "query dimension");
    assert_eq!(out.len(), wt.ncols(), "distance buffer length");
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 was detected on this CPU just above.
        unsafe { exact_dists_avx2(x, wt, root, out) };
        return;
    }
    exact_dists_body(x, wt, root, out);
}

/// [`exact_dists_body`] compiled for AVX2; callers must have detected it.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn exact_dists_avx2(x: &[f64], wt: &Matrix, root: bool, out: &mut [f64]) {
    exact_dists_body(x, wt, root, out);
}

/// The one body behind [`exact_dists_wt_into`], for both dispatch paths.
#[inline(always)]
fn exact_dists_body(x: &[f64], wt: &Matrix, root: bool, out: &mut [f64]) {
    let units = wt.ncols();
    let mut blocks = out.chunks_exact_mut(UNIT_BLOCK);
    for (b, block) in blocks.by_ref().enumerate() {
        let j0 = b * UNIT_BLOCK;
        let mut acc = [0.0f64; UNIT_BLOCK];
        for (row, &xd) in wt.rows_iter().zip(x) {
            let w = &row[j0..j0 + UNIT_BLOCK];
            for (a, &wv) in acc.iter_mut().zip(w) {
                let t = xd - wv;
                *a += t * t;
            }
        }
        for (o, a) in block.iter_mut().zip(acc) {
            *o = if root { a.sqrt() } else { a };
        }
    }
    let tail = blocks.into_remainder();
    let j0 = units - tail.len();
    tail.fill(0.0);
    for (row, &xd) in wt.rows_iter().zip(x) {
        for (a, &wv) in tail.iter_mut().zip(&row[j0..]) {
            let t = xd - wv;
            *a += t * t;
        }
    }
    if root {
        for a in tail {
            *a = a.sqrt();
        }
    }
}

/// The index of the first minimum of `values` in ascending order: the BMU
/// a scalar scan keeps when it replaces its best only on a strictly smaller
/// distance. Values that are NaN or `+∞` never win, and unit 0 is returned
/// when nothing beats `+∞`.
#[must_use]
pub fn first_min(values: &[f64]) -> usize {
    let mut best = (0, f64::INFINITY);
    for (u, &v) in values.iter().enumerate() {
        if v < best.1 {
            best = (u, v);
        }
    }
    best.0
}

/// One online SOM step against a transposed codebook `wt` (`dim x units`),
/// in one sweep over the codebook.
///
/// It applies the neighborhood update `wt[d][u] = wt[d][u] + h[u]·(x[d] −
/// wt[d][u])` wherever `h[u] != 0`, with every other weight left as it is.
/// When `next` is given, the same sweep also writes the next step's exact
/// distances into `dists`: `dists[u] = Σ_d (next[d] − wt'[d][u])²` over the
/// updated weights `wt'`, summed in ascending `d` from zero, then its square
/// root when `root` is set. Each weight is read once, updated, stored and,
/// still in a register, added into its unit's distance, so the update and
/// the next BMU scan cost one pass over the codebook instead of two. With
/// `next` set to `None` it only updates and leaves `dists` alone.
///
/// Every value is the scalar formulas' own bits: the zero-weight units are
/// kept by a select, not by a multiply with zero, so a `-0.0` weight keeps
/// its sign; each unit's distance depends only on its own updated weights,
/// and its operations are [`exact_dists_wt_into`]'s, in the same order.
/// The loop runs blocks of units with the accumulators in registers,
/// compiled for AVX-512 or AVX2 when the CPU has it (see
/// [`online_step_tier`]); the tier changes only speed.
///
/// # Panics
///
/// Panics if `x.len() != wt.nrows()` or `h.len() != wt.ncols()`, or, with
/// `next` given, if `next.len() != wt.nrows()` or `dists.len() !=
/// wt.ncols()`.
pub fn online_step_wt(
    x: &[f64],
    h: &[f64],
    next: Option<&[f64]>,
    root: bool,
    wt: &mut Matrix,
    dists: &mut [f64],
) {
    assert_eq!(x.len(), wt.nrows(), "query dimension");
    assert_eq!(h.len(), wt.ncols(), "kernel weight length");
    if let Some(next) = next {
        assert_eq!(next.len(), wt.nrows(), "next query dimension");
        assert_eq!(dists.len(), wt.ncols(), "distance buffer length");
    }
    match OnlineTier::best() {
        // SAFETY: `best` reports a SIMD tier only when the CPU has it.
        #[cfg(target_arch = "x86_64")]
        OnlineTier::Avx512 => unsafe { online_step_avx512(x, h, next, root, wt, dists) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        OnlineTier::Avx2 => unsafe { online_step_avx2(x, h, next, root, wt, dists) },
        _ => online_step_body(x, h, next, root, wt, dists),
    }
}

/// The name of the instruction-set tier [`online_step_wt`] runs on this
/// CPU: `"avx512f"`, `"avx2"` or `"portable"`.
#[must_use]
pub fn online_step_tier() -> &'static str {
    match OnlineTier::best() {
        OnlineTier::Avx512 => "avx512f",
        OnlineTier::Avx2 => "avx2",
        OnlineTier::Portable => "portable",
    }
}

/// The builds of [`online_step_body`], best first.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
enum OnlineTier {
    Avx512,
    Avx2,
    Portable,
}

impl OnlineTier {
    /// The best tier this CPU runs. The detection macro caches the CPUID
    /// result process-wide.
    fn best() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") {
                return OnlineTier::Avx512;
            }
            if is_x86_feature_detected!("avx2") {
                return OnlineTier::Avx2;
            }
        }
        OnlineTier::Portable
    }
}

/// [`online_step_body`] compiled for AVX-512; callers must have detected
/// it.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn online_step_avx512(
    x: &[f64],
    h: &[f64],
    next: Option<&[f64]>,
    root: bool,
    wt: &mut Matrix,
    dists: &mut [f64],
) {
    online_step_body(x, h, next, root, wt, dists);
}

/// [`online_step_body`] compiled for AVX2; callers must have detected it.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn online_step_avx2(
    x: &[f64],
    h: &[f64],
    next: Option<&[f64]>,
    root: bool,
    wt: &mut Matrix,
    dists: &mut [f64],
) {
    online_step_body(x, h, next, root, wt, dists);
}

/// The one body behind [`online_step_wt`], for every tier: the update-only
/// sweep when `next` is `None` (reading `x` in its place), the fused one
/// otherwise.
#[inline(always)]
fn online_step_body(
    x: &[f64],
    h: &[f64],
    next: Option<&[f64]>,
    root: bool,
    wt: &mut Matrix,
    dists: &mut [f64],
) {
    match next {
        Some(next) => online_sweep::<true>(x, h, next, root, wt, dists),
        None => online_sweep::<false>(x, h, x, root, wt, dists),
    }
}

/// The sweep of [`online_step_body`] in register blocks: `UNIT_BLOCK`
/// units at a time, then the tail in blocks of 8, 4 and its last one to
/// three units, so every accumulator stays in a register across the `d`
/// loop.
#[inline(always)]
fn online_sweep<const SCAN: bool>(
    x: &[f64],
    h: &[f64],
    next: &[f64],
    root: bool,
    wt: &mut Matrix,
    dists: &mut [f64],
) {
    let units = wt.ncols();
    let mut j0 = 0;
    while j0 + UNIT_BLOCK <= units {
        online_block::<UNIT_BLOCK, SCAN>(x, h, next, root, wt, dists, j0);
        j0 += UNIT_BLOCK;
    }
    if j0 + 8 <= units {
        online_block::<8, SCAN>(x, h, next, root, wt, dists, j0);
        j0 += 8;
    }
    if j0 + 4 <= units {
        online_block::<4, SCAN>(x, h, next, root, wt, dists, j0);
        j0 += 4;
    }
    match units - j0 {
        3 => online_block::<3, SCAN>(x, h, next, root, wt, dists, j0),
        2 => online_block::<2, SCAN>(x, h, next, root, wt, dists, j0),
        1 => online_block::<1, SCAN>(x, h, next, root, wt, dists, j0),
        _ => {}
    }
}

/// Units `j0..j0 + B` of [`online_sweep`]. `SCAN` adds each updated
/// weight's `(next[d] − w')²` into its unit's distance.
#[inline(always)]
fn online_block<const B: usize, const SCAN: bool>(
    x: &[f64],
    h: &[f64],
    next: &[f64],
    root: bool,
    wt: &mut Matrix,
    dists: &mut [f64],
    j0: usize,
) {
    let hb = &h[j0..j0 + B];
    let mut acc = [0.0f64; B];
    for (row, (&xd, &nd)) in wt.rows_iter_mut().zip(x.iter().zip(next)) {
        let w = &mut row[j0..j0 + B];
        for ((w, &hu), a) in w.iter_mut().zip(hb).zip(&mut acc) {
            let cur = *w;
            let upd = cur + hu * (xd - cur);
            let new = if hu != 0.0 { upd } else { cur };
            *w = new;
            if SCAN {
                let t = nd - new;
                *a += t * t;
            }
        }
    }
    if SCAN {
        for (o, a) in dists[j0..j0 + B].iter_mut().zip(acc) {
            *o = if root { a.sqrt() } else { a };
        }
    }
}

/// The exact best-two search result: `((best, best_distance), (second,
/// second_distance))`, with ties broken toward the lowest unit index —
/// the same contract as a full ascending scalar scan.
pub type BestTwoExact = ((usize, f64), (usize, f64));

/// Scalar refinement pass: runs the reference best-two update logic over
/// `candidates` (ascending indices into `w`'s rows) using `distance`, which
/// must be the *scalar* metric evaluation. When `candidates` contains every
/// index a full scan could have selected, the result is bitwise identical
/// to that full scan.
///
/// # Errors
///
/// Propagates errors from `distance`.
pub fn refine_best_two<E>(
    x: &[f64],
    w: &Matrix,
    candidates: impl IntoIterator<Item = usize>,
    mut distance: impl FnMut(&[f64], &[f64]) -> Result<f64, E>,
) -> Result<BestTwoExact, E> {
    let mut best = (0usize, f64::INFINITY);
    let mut second = (0usize, f64::INFINITY);
    for u in candidates {
        let d = distance(x, w.row(u))?;
        if d < best.1 {
            second = best;
            best = (u, d);
        } else if d < second.1 {
            second = (u, d);
        }
    }
    Ok((best, second))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed | 1;
        let data: Vec<f64> = (0..rows * cols)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
            })
            .collect();
        Matrix::from_vec(rows, cols, data).unwrap()
    }

    #[test]
    fn blocked_matmul_matches_reference_bitwise() {
        // Shapes straddling the tile boundaries, including non-multiples.
        for (m, k, n) in [(3, 5, 4), (64, 64, 64), (65, 130, 67), (1, 200, 1)] {
            let a = pseudo_matrix(m, k, 7);
            let b = pseudo_matrix(k, n, 13);
            let blocked = matmul(&a, &b).unwrap();
            let reference = matmul_reference(&a, &b).unwrap();
            assert_eq!(blocked, reference, "{m}x{k} * {k}x{n}");
        }
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = pseudo_matrix(2, 3, 1);
        let b = pseudo_matrix(4, 2, 2);
        assert!(matmul(&a, &b).is_err());
        assert!(matmul_reference(&a, &b).is_err());
    }

    #[test]
    fn syrk_matches_explicit_product_bitwise() {
        for (r, c) in [(5, 3), (100, 70), (13, 200)] {
            let m = pseudo_matrix(r, c, 23);
            let s = syrk_rows(&m);
            // Reference: out[i][j] = sum_r m[r][i] * m[r][j], ascending r —
            // the association the covariance loop used.
            for i in 0..c {
                for j in i..c {
                    let mut acc = 0.0;
                    for row in m.rows_iter() {
                        acc += row[i] * row[j];
                    }
                    assert_eq!(s[(i, j)], acc, "({i},{j}) of {r}x{c}");
                    assert_eq!(s[(j, i)], acc);
                }
            }
        }
    }

    #[test]
    fn transposed_trick_matches_chain_bitwise_and_scalar_within_band() {
        // 131 units exercises two full 64-column SIMD strips plus a
        // 3-column portable tail; 13 dims exercises the ascending-d chain.
        let (units, dim) = (131, 13);
        let w = pseudo_matrix(units, dim, 42);
        let wt = w.transpose();
        let x: Vec<f64> = pseudo_matrix(1, dim, 77).into_vec();
        let xn = sq_norm_fast(&x);
        let mut wn = vec![0.0; units];
        row_sq_norms_into(&w, &mut wn);
        let mut trick = vec![0.0; units];
        trick_dists_wt_into(&x, xn, &wt, &wn, &mut trick);
        for u in 0..units {
            // The documented chain, written out scalar: bitwise equality
            // holds on every dispatch path because both apply the same
            // ascending-d mul-then-add sequence per unit.
            let mut chain = xn + wn[u];
            for (d, &xd) in x.iter().enumerate() {
                chain += (-2.0 * xd) * wt[(d, u)];
            }
            chain = chain.max(0.0);
            assert_eq!(trick[u].to_bits(), chain.to_bits(), "unit {u}");
            let scalar: f64 = x.iter().zip(w.row(u)).map(|(a, b)| (a - b) * (a - b)).sum();
            let band = candidate_band(dim, xn, wn[u]);
            assert!(
                (trick[u] - scalar).abs() <= band,
                "unit {u}: trick {} vs scalar {scalar}, band {band}",
                trick[u]
            );
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The online update written row by row: the formula
    /// [`online_step_wt`] fuses with the next step's distance scan.
    fn neighborhood_update_body(x: &[f64], h: &[f64], wt: &mut Matrix) {
        for (d, &xd) in x.iter().enumerate() {
            for (w, &hu) in wt.row_mut(d).iter_mut().zip(h) {
                let cur = *w;
                let next = cur + hu * (xd - cur);
                *w = if hu != 0.0 { next } else { cur };
            }
        }
    }

    type OnlineStep = fn(&[f64], &[f64], Option<&[f64]>, bool, &mut Matrix, &mut [f64]);

    /// Every build of the online step this host runs, by name, and the
    /// public dispatch.
    fn online_step_tiers() -> Vec<(&'static str, OnlineStep)> {
        let mut tiers: Vec<(&'static str, OnlineStep)> = vec![
            ("portable", online_step_body),
            ("dispatched", online_step_wt),
        ];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 was detected just above.
                tiers.push(("avx2", |x, h, n, r, w, d| unsafe {
                    online_step_avx2(x, h, n, r, w, d)
                }));
            }
            if is_x86_feature_detected!("avx512f") {
                // SAFETY: AVX-512F was detected just above.
                tiers.push(("avx512f", |x, h, n, r, w, d| unsafe {
                    online_step_avx512(x, h, n, r, w, d)
                }));
            }
        }
        tiers
    }

    #[test]
    fn online_kernels_dispatch_paths_agree_bitwise() {
        // Unit counts straddle the 16-unit register block: full blocks
        // with and without tail lanes, tail only, one unit. Every tier of
        // the fused step must equal the update followed by the exact scan.
        let tiers = online_step_tiers();
        for (units, dim, seed) in [
            (37, 7, 3),
            (16, 1, 5),
            (5, 13, 8),
            (8, 9, 14),
            (100, 30, 11),
            (1, 4, 2),
        ] {
            let mut wt = pseudo_matrix(dim, units, seed);
            let mut x = pseudo_matrix(1, dim, seed + 1).into_vec();
            let mut h = pseudo_matrix(1, units, seed + 2).into_vec();
            let other = pseudo_matrix(1, dim, seed + 3).into_vec();
            for hu in h.iter_mut().step_by(3) {
                *hu = 0.0;
            }
            // A `-0.0` weight under a zero kernel weight: multiplying by
            // zero would give `-0.0 + 0·0.25 = +0.0`; the select keeps it.
            wt[(0, 0)] = -0.0;
            x[0] = 0.25;
            for root in [false, true] {
                let mut portable = vec![0.0; units];
                exact_dists_body(&x, &wt, root, &mut portable);
                let mut dispatched = vec![f64::NAN; units];
                exact_dists_wt_into(&x, &wt, root, &mut dispatched);
                assert_eq!(
                    bits(&portable),
                    bits(&dispatched),
                    "{units}x{dim} root={root}"
                );
                for (label, next) in [
                    ("none", None),
                    ("x", Some(&x[..])),
                    ("other", Some(&other[..])),
                ] {
                    let mut updated = wt.clone();
                    neighborhood_update_body(&x, &h, &mut updated);
                    // `None` leaves the distance buffer as it was.
                    let mut scanned = vec![f64::NAN; units];
                    if let Some(next) = next {
                        exact_dists_body(next, &updated, root, &mut scanned);
                    }
                    for &(tier, step) in &tiers {
                        let case = format!("{tier} {units}x{dim} root={root} next={label}");
                        let mut fused = wt.clone();
                        let mut dists = vec![f64::NAN; units];
                        step(&x, &h, next, root, &mut fused, &mut dists);
                        assert_eq!(bits(fused.as_slice()), bits(updated.as_slice()), "{case}");
                        assert_eq!(bits(&dists), bits(&scanned), "{case}");
                        assert_eq!(fused[(0, 0)].to_bits(), (-0.0f64).to_bits(), "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn online_kernels_match_the_scalar_formulas_bitwise() {
        use crate::distance::Metric;
        let (units, dim) = (37, 7);
        let wt = pseudo_matrix(dim, units, 21);
        let x = pseudo_matrix(1, dim, 22).into_vec();
        let next = pseudo_matrix(1, dim, 24).into_vec();
        let mut h = pseudo_matrix(1, units, 23).into_vec();
        h[4] = 0.0;
        let column = |m: &Matrix, u: usize| (0..dim).map(|c| m[(c, u)]).collect::<Vec<f64>>();
        let mut updated = wt.clone();
        online_step_wt(&x, &h, None, false, &mut updated, &mut []);
        for u in 0..units {
            for (c, &xc) in x.iter().enumerate() {
                let mut w = wt[(c, u)];
                if h[u] != 0.0 {
                    w += h[u] * (xc - w);
                }
                assert_eq!(updated[(c, u)].to_bits(), w.to_bits(), "unit {u} dim {c}");
            }
        }
        for (metric, root) in [(Metric::SquaredEuclidean, false), (Metric::Euclidean, true)] {
            let mut dists = vec![0.0; units];
            exact_dists_wt_into(&x, &wt, root, &mut dists);
            for (u, &d) in dists.iter().enumerate() {
                let scalar = metric.distance(&x, &column(&wt, u)).unwrap();
                assert_eq!(d.to_bits(), scalar.to_bits(), "{metric:?} unit {u}");
            }
            let mut fused = wt.clone();
            online_step_wt(&x, &h, Some(&next), root, &mut fused, &mut dists);
            assert_eq!(bits(fused.as_slice()), bits(updated.as_slice()));
            for (u, &d) in dists.iter().enumerate() {
                let scalar = metric.distance(&next, &column(&updated, u)).unwrap();
                assert_eq!(d.to_bits(), scalar.to_bits(), "{metric:?} next, unit {u}");
            }
        }
    }

    #[test]
    fn first_min_keeps_the_first_of_tied_minima() {
        assert_eq!(first_min(&[3.0, 1.0, 2.0, 1.0]), 1);
        assert_eq!(first_min(&[f64::NAN, 2.0, 2.0]), 1);
        assert_eq!(first_min(&[f64::INFINITY, f64::NAN]), 0);
        assert_eq!(first_min(&[0.0, -0.0]), 0);
    }

    #[test]
    fn refine_matches_full_scan() {
        let w = pseudo_matrix(25, 8, 3);
        let x: Vec<f64> = pseudo_matrix(1, 8, 11).into_vec();
        let dist = |a: &[f64], b: &[f64]| {
            Ok::<_, ()>(
                a.iter()
                    .zip(b)
                    .map(|(p, q)| (p - q) * (p - q))
                    .sum::<f64>()
                    .sqrt(),
            )
        };
        let full = refine_best_two(&x, &w, 0..25, dist).unwrap();
        // Candidate superset containing the winners gives the same answer.
        let subset = refine_best_two(&x, &w, (0..25).filter(|&u| u != 24), dist).unwrap();
        if full.0 .0 != 24 && full.1 .0 != 24 {
            assert_eq!(full, subset);
        }
    }

    #[test]
    fn fast_reductions_match_serial_closely() {
        let v: Vec<f64> = (0..101).map(|i| (i as f64).sin()).collect();
        let serial: f64 = v.iter().map(|x| x * x).sum();
        assert!((sq_norm_fast(&v) - serial).abs() <= 1e-12 * serial.abs());
        let w: Vec<f64> = (0..101).map(|i| (i as f64).cos()).collect();
        let sdot: f64 = v.iter().zip(&w).map(|(a, b)| a * b).sum();
        assert!((dot_fast(&v, &w) - sdot).abs() <= 1e-12 * (1.0 + sdot.abs()));
    }
}
