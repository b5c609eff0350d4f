//! Blocked compute kernels for the workspace's dense hot paths.
//!
//! Every distance- and product-shaped inner loop of the SOM and PCA stages
//! bottoms out in one of the kernels here:
//!
//! * [`syrk_rows`] — the symmetric rank-k product `MᵀM` streamed over the
//!   rows of `M`, used by covariance and the dual-PCA Gram matrix. Each
//!   cell is summed in ascending row order, the association of the plain
//!   [`Matrix::matmul`] loop on `Mᵀ` and `M`.
//! * [`exact_dists_wt_into`] / [`online_step_wt`] — one sweep over a
//!   unit-major codebook, vectorized across units (AVX-512,
//!   AVX2 or portable, picked at run time; [`sweep_tier`] names it). The
//!   scan-only build gives every unit's exact Euclidean distance to a
//!   query, with the scalar formula's own operations; the online build
//!   also applies the neighborhood update, fused with the next step's
//!   distances. [`best_two`] and [`first_min`] read the BMUs off a row of
//!   those distances. Every SOM search — the online step, batch
//!   training, projection and map quality — runs this one kernel.
//!
//! The clustering stage's pairwise distances are
//! [`crate::distance::pairwise`]'s scalar loop. Every kernel here is bit
//! for bit interchangeable with the scalar loop it replaced.

use crate::Matrix;

/// Output tile width for [`syrk_rows`]. A pair of `J_TILE`-wide row slices
/// plus the output tile stays L1-resident while all rows stream through.
const J_TILE: usize = 64;

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

/// Units per register block of the codebook sweep behind
/// [`exact_dists_wt_into`] and [`online_step_wt`]: four AVX2 (two AVX-512)
/// vectors of accumulators, held in registers across the whole `d` loop.
const UNIT_BLOCK: usize = 16;

/// Exact distances from `x` to every unit of a unit-major codebook `wt`
/// (`dim x units`): `out[u]` is the square root of `Σ_d (x[d] − wt[d][u])²`,
/// summed in ascending `d` from zero.
///
/// This is the scan-only build of [`online_step_wt`]'s sweep: the same
/// register blocks and the same instruction-set tier ([`sweep_tier`]),
/// with no update. Each unit's value comes from exactly the operations of
/// [`euclidean`](crate::distance::euclidean), so it equals that distance
/// of `x` and the unit's weight vector bit for bit: the lanes are
/// independent units, and Rust never fuses a multiply and an add. The tier
/// changes only speed.
///
/// # Panics
///
/// Panics if `x.len() != wt.nrows()` or `out.len() != wt.ncols()`.
pub fn exact_dists_wt_into(x: &[f64], wt: &Matrix, out: &mut [f64]) {
    assert_eq!(x.len(), wt.nrows(), "query dimension");
    assert_eq!(out.len(), wt.ncols(), "distance buffer length");
    // SAFETY: `Tier::best` reports only a tier this CPU runs.
    unsafe { sweep_on::<true, _>(Tier::best(), &mut &*wt, x, &[], x, out) };
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

/// The best and second-best entries of `values` as `(index, value)`
/// pairs, from one ascending scan: an entry becomes the best only when it
/// is strictly smaller, and otherwise the second only when strictly
/// smaller than that, so tied entries keep the lower index and the best
/// is [`first_min`]'s. NaN and `+∞` never win; a place nothing won stays
/// `(0, +∞)` (the second, for a single entry).
#[must_use]
pub fn best_two(values: &[f64]) -> ((usize, f64), (usize, f64)) {
    let mut best = (0, f64::INFINITY);
    let mut second = (0, f64::INFINITY);
    for (u, &v) in values.iter().enumerate() {
        if v < best.1 {
            second = best;
            best = (u, v);
        } else if v < second.1 {
            second = (u, v);
        }
    }
    (best, second)
}

/// One online SOM step against a unit-major codebook `wt` (`dim x units`),
/// in one sweep over the codebook.
///
/// It applies the neighborhood update `wt[d][u] = wt[d][u] + h[u]·(x[d] −
/// wt[d][u])` wherever `h[u] != 0`, with every other weight left as it is.
/// When `next` is given, the same sweep also writes the next step's exact
/// distances into `dists`: `dists[u]` is the square root of `Σ_d (next[d] −
/// wt'[d][u])²` over the updated weights `wt'`, summed in ascending `d` from
/// zero. Each weight is read once, updated, stored and, still in a
/// register, added into its unit's distance, so the update and the next
/// BMU scan cost one pass over the codebook instead of two. With `next` set
/// to `None` it only updates and leaves `dists` alone.
///
/// Every value is the scalar formulas' own bits: the zero-weight units are
/// kept by a select, not by a multiply with zero, so a `-0.0` weight keeps
/// its sign; each unit's distance depends only on its own updated weights,
/// and its operations are [`exact_dists_wt_into`]'s, in the same order.
/// Both run one sweep body on the tier [`sweep_tier`] names; the tier
/// changes only speed.
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
    mut wt: &mut Matrix,
    dists: &mut [f64],
) {
    assert_eq!(x.len(), wt.nrows(), "query dimension");
    assert_eq!(h.len(), wt.ncols(), "kernel weight length");
    let tier = Tier::best();
    // SAFETY (both arms): `Tier::best` reports only a tier this CPU runs.
    match next {
        Some(next) => {
            assert_eq!(next.len(), wt.nrows(), "next query dimension");
            assert_eq!(dists.len(), wt.ncols(), "distance buffer length");
            unsafe { sweep_on::<true, _>(tier, &mut wt, x, h, next, dists) }
        }
        None => unsafe { sweep_on::<false, _>(tier, &mut wt, x, h, x, dists) },
    }
}

/// The name of the instruction-set tier the codebook sweep (both
/// [`exact_dists_wt_into`] and [`online_step_wt`]) runs on this CPU:
/// `"avx512f"`, `"avx2"` or `"portable"`.
#[must_use]
pub fn sweep_tier() -> &'static str {
    match Tier::best() {
        Tier::Avx512 => "avx512f",
        Tier::Avx2 => "avx2",
        Tier::Portable => "portable",
    }
}

/// The builds of [`sweep`], best first.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
#[derive(Debug, Clone, Copy)]
enum Tier {
    Avx512,
    Avx2,
    Portable,
}

impl Tier {
    /// The best tier this CPU runs. The detection macro caches the CPUID
    /// result process-wide.
    fn best() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") {
                return Tier::Avx512;
            }
            if is_x86_feature_detected!("avx2") {
                return Tier::Avx2;
            }
        }
        Tier::Portable
    }
}

/// [`sweep`] on the build for `tier`.
///
/// # Safety
///
/// The CPU must run `tier`'s instructions.
unsafe fn sweep_on<const SCAN: bool, W: Codebook>(
    tier: Tier,
    wt: &mut W,
    x: &[f64],
    h: &[f64],
    next: &[f64],
    dists: &mut [f64],
) {
    match tier {
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => sweep_avx512::<SCAN, W>(wt, x, h, next, dists),
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => sweep_avx2::<SCAN, W>(wt, x, h, next, dists),
        _ => sweep::<SCAN, W>(wt, x, h, next, dists),
    }
}

/// [`sweep`] compiled for AVX-512; callers must have detected it.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn sweep_avx512<const SCAN: bool, W: Codebook>(
    wt: &mut W,
    x: &[f64],
    h: &[f64],
    next: &[f64],
    dists: &mut [f64],
) {
    sweep::<SCAN, W>(wt, x, h, next, dists);
}

/// [`sweep`] compiled for AVX2; callers must have detected it.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sweep_avx2<const SCAN: bool, W: Codebook>(
    wt: &mut W,
    x: &[f64],
    h: &[f64],
    next: &[f64],
    dists: &mut [f64],
) {
    sweep::<SCAN, W>(wt, x, h, next, dists);
}

/// A unit-major codebook as [`sweep`] walks it: read as it is (`&Matrix`,
/// the scan-only build) or moved by the online update (`&mut Matrix`).
trait Codebook {
    /// The number of units (columns).
    fn units(&self) -> usize;

    /// The weights of units `j0..j0 + B` after this step, one block per
    /// dimension in ascending order. The update moves each weight with
    /// `h[u] != 0` toward `x[d]` by `h[u]` and stores it back; the others
    /// keep their bits.
    fn block<const B: usize>(
        &mut self,
        j0: usize,
        x: &[f64],
        h: &[f64],
    ) -> impl Iterator<Item = [f64; B]>;
}

impl Codebook for &Matrix {
    fn units(&self) -> usize {
        self.ncols()
    }

    #[inline(always)]
    fn block<const B: usize>(
        &mut self,
        j0: usize,
        _: &[f64],
        _: &[f64],
    ) -> impl Iterator<Item = [f64; B]> {
        self.rows_iter().map(move |row| {
            let mut w = [0.0; B];
            w.copy_from_slice(&row[j0..j0 + B]);
            w
        })
    }
}

impl Codebook for &mut Matrix {
    fn units(&self) -> usize {
        self.ncols()
    }

    #[inline(always)]
    fn block<const B: usize>(
        &mut self,
        j0: usize,
        x: &[f64],
        h: &[f64],
    ) -> impl Iterator<Item = [f64; B]> {
        let h = &h[j0..j0 + B];
        self.rows_iter_mut().zip(x).map(move |(row, &xd)| {
            let mut stepped = [0.0; B];
            for ((w, s), &hu) in row[j0..j0 + B].iter_mut().zip(&mut stepped).zip(h) {
                let cur = *w;
                let upd = cur + hu * (xd - cur);
                *w = if hu != 0.0 { upd } else { cur };
                *s = *w;
            }
            stepped
        })
    }
}

/// The one sweep body behind [`exact_dists_wt_into`] and
/// [`online_step_wt`], for every tier, in register blocks: `UNIT_BLOCK`
/// units at a time, then the tail in blocks of 8, 4 and its last one to
/// three units, so every accumulator stays in a register across the `d`
/// loop.
#[inline(always)]
fn sweep<const SCAN: bool, W: Codebook>(
    wt: &mut W,
    x: &[f64],
    h: &[f64],
    next: &[f64],
    dists: &mut [f64],
) {
    let units = wt.units();
    let mut j0 = 0;
    while j0 + UNIT_BLOCK <= units {
        sweep_block::<UNIT_BLOCK, SCAN, W>(wt, x, h, next, dists, j0);
        j0 += UNIT_BLOCK;
    }
    if j0 + 8 <= units {
        sweep_block::<8, SCAN, W>(wt, x, h, next, dists, j0);
        j0 += 8;
    }
    if j0 + 4 <= units {
        sweep_block::<4, SCAN, W>(wt, x, h, next, dists, j0);
        j0 += 4;
    }
    match units - j0 {
        3 => sweep_block::<3, SCAN, W>(wt, x, h, next, dists, j0),
        2 => sweep_block::<2, SCAN, W>(wt, x, h, next, dists, j0),
        1 => sweep_block::<1, SCAN, W>(wt, x, h, next, dists, j0),
        _ => {}
    }
}

/// Units `j0..j0 + B` of [`sweep`]. `SCAN` adds each stepped weight's
/// `(next[d] − w')²` into its unit's sum and writes the sum's square root.
#[inline(always)]
fn sweep_block<const B: usize, const SCAN: bool, W: Codebook>(
    wt: &mut W,
    x: &[f64],
    h: &[f64],
    next: &[f64],
    dists: &mut [f64],
    j0: usize,
) {
    let mut acc = [0.0f64; B];
    for (w, &nd) in wt.block::<B>(j0, x, h).zip(next) {
        if SCAN {
            for (a, w) in acc.iter_mut().zip(w) {
                let t = nd - w;
                *a += t * t;
            }
        }
    }
    if SCAN {
        for (o, a) in dists[j0..j0 + B].iter_mut().zip(acc) {
            *o = a.sqrt();
        }
    }
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

    /// The scalar formula of [`exact_dists_wt_into`], unit by unit:
    /// `Σ_d (x[d] − wt[d][u])²` in ascending `d` from zero, then its root.
    fn scalar_dists(x: &[f64], wt: &Matrix) -> Vec<f64> {
        (0..wt.ncols())
            .map(|u| {
                let mut acc = 0.0;
                for (d, &xd) in x.iter().enumerate() {
                    let t = xd - wt[(d, u)];
                    acc += t * t;
                }
                acc.sqrt()
            })
            .collect()
    }

    /// Every tier of the sweep this host runs, by name, and the public
    /// dispatch (`None`).
    fn sweep_tiers() -> Vec<(&'static str, Option<Tier>)> {
        let mut tiers = vec![("dispatched", None), ("portable", Some(Tier::Portable))];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                tiers.push(("avx2", Some(Tier::Avx2)));
            }
            if is_x86_feature_detected!("avx512f") {
                tiers.push(("avx512f", Some(Tier::Avx512)));
            }
        }
        tiers
    }

    /// [`exact_dists_wt_into`] on `tier` (the public dispatch for `None`).
    fn scan_on(tier: Option<Tier>, x: &[f64], wt: &Matrix, out: &mut [f64]) {
        match tier {
            // SAFETY: `sweep_tiers` lists only tiers this CPU runs.
            Some(tier) => unsafe { sweep_on::<true, _>(tier, &mut &*wt, x, &[], x, out) },
            None => exact_dists_wt_into(x, wt, out),
        }
    }

    /// [`online_step_wt`] on `tier` (the public dispatch for `None`).
    fn step_on(
        tier: Option<Tier>,
        x: &[f64],
        h: &[f64],
        next: Option<&[f64]>,
        mut wt: &mut Matrix,
        dists: &mut [f64],
    ) {
        // SAFETY: `sweep_tiers` lists only tiers this CPU runs.
        match (tier, next) {
            (Some(tier), Some(next)) => unsafe {
                sweep_on::<true, _>(tier, &mut wt, x, h, next, dists)
            },
            (Some(tier), None) => unsafe { sweep_on::<false, _>(tier, &mut wt, x, h, x, dists) },
            (None, next) => online_step_wt(x, h, next, wt, dists),
        }
    }

    #[test]
    fn online_kernels_dispatch_paths_agree_bitwise() {
        // Unit counts straddle the 16-unit register block: full blocks
        // with and without tail blocks, tail only, one unit. On every tier
        // the scan-only sweep must give the scalar formula, and the fused
        // step the update followed by the scalar formula.
        let tiers = sweep_tiers();
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
            let scalar = scalar_dists(&x, &wt);
            for &(tier, on) in &tiers {
                let mut scanned = vec![f64::NAN; units];
                scan_on(on, &x, &wt, &mut scanned);
                let case = format!("{tier} scan {units}x{dim}");
                assert_eq!(bits(&scanned), bits(&scalar), "{case}");
            }
            for (label, next) in [
                ("none", None),
                ("x", Some(&x[..])),
                ("other", Some(&other[..])),
            ] {
                let mut updated = wt.clone();
                neighborhood_update_body(&x, &h, &mut updated);
                // `None` leaves the distance buffer as it was.
                let expected = match next {
                    Some(next) => scalar_dists(next, &updated),
                    None => vec![f64::NAN; units],
                };
                for &(tier, on) in &tiers {
                    let case = format!("{tier} {units}x{dim} next={label}");
                    let mut fused = wt.clone();
                    let mut dists = vec![f64::NAN; units];
                    step_on(on, &x, &h, next, &mut fused, &mut dists);
                    assert_eq!(bits(fused.as_slice()), bits(updated.as_slice()), "{case}");
                    assert_eq!(bits(&dists), bits(&expected), "{case}");
                    assert_eq!(fused[(0, 0)].to_bits(), (-0.0f64).to_bits(), "{case}");
                }
            }
        }
    }

    #[test]
    fn online_kernels_match_the_scalar_formulas_bitwise() {
        use crate::distance::euclidean;
        let (units, dim) = (37, 7);
        let wt = pseudo_matrix(dim, units, 21);
        let x = pseudo_matrix(1, dim, 22).into_vec();
        let next = pseudo_matrix(1, dim, 24).into_vec();
        let mut h = pseudo_matrix(1, units, 23).into_vec();
        h[4] = 0.0;
        let column = |m: &Matrix, u: usize| (0..dim).map(|c| m[(c, u)]).collect::<Vec<f64>>();
        let mut updated = wt.clone();
        online_step_wt(&x, &h, None, &mut updated, &mut []);
        for u in 0..units {
            for (c, &xc) in x.iter().enumerate() {
                let mut w = wt[(c, u)];
                if h[u] != 0.0 {
                    w += h[u] * (xc - w);
                }
                assert_eq!(updated[(c, u)].to_bits(), w.to_bits(), "unit {u} dim {c}");
            }
        }
        let mut dists = vec![0.0; units];
        exact_dists_wt_into(&x, &wt, &mut dists);
        for (u, &d) in dists.iter().enumerate() {
            let scalar = euclidean(&x, &column(&wt, u)).unwrap();
            assert_eq!(d.to_bits(), scalar.to_bits(), "unit {u}");
        }
        let mut fused = wt;
        online_step_wt(&x, &h, Some(&next), &mut fused, &mut dists);
        assert_eq!(bits(fused.as_slice()), bits(updated.as_slice()));
        for (u, &d) in dists.iter().enumerate() {
            let scalar = euclidean(&next, &column(&updated, u)).unwrap();
            assert_eq!(d.to_bits(), scalar.to_bits(), "next, unit {u}");
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
    fn best_two_keeps_the_first_of_tied_minima() {
        assert_eq!(best_two(&[3.0, 1.0, 2.0, 1.0]), ((1, 1.0), (3, 1.0)));
        assert_eq!(best_two(&[2.0, 1.0, 1.0, 0.5]), ((3, 0.5), (1, 1.0)));
        assert_eq!(best_two(&[f64::NAN, 2.0, 2.0]), ((1, 2.0), (2, 2.0)));
        let ((b, db), (s, ds)) = best_two(&[f64::INFINITY, f64::NAN]);
        assert_eq!((b, db, s, ds), (0, f64::INFINITY, 0, f64::INFINITY));
        assert_eq!(best_two(&[4.0]), ((0, 4.0), (0, f64::INFINITY)));
        let ((b, db), _) = best_two(&[0.0, -0.0]);
        assert_eq!((b, db.to_bits()), (0, 0.0f64.to_bits()));
        // The best is always `first_min`'s.
        for values in [
            &[5.0, 4.0, 4.0, 9.0][..],
            &[1.0],
            &[7.0, f64::NAN, 3.0, 3.0],
        ] {
            assert_eq!(best_two(values).0 .0, first_min(values));
        }
    }
}
