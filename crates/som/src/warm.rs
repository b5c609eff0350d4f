//! Epoch-warm BMU search: drift-bounded reuse of previous-epoch BMUs.
//!
//! Batch SOM training recomputes every row's best matching unit every
//! epoch, yet late in training BMUs almost never change: the codebook
//! settles and each update moves units by ever smaller amounts.
//! `WarmState` exploits that temporal coherence without giving up the
//! repo's exactness bar — BMU indices stay **bitwise identical** to the
//! cold full scan:
//!
//! * After a row's exact search, the row caches its BMU, an upper bound on
//!   its distance to that unit (from the computed best distance), and a
//!   lower bound on its distance to every *other* unit (from the computed
//!   second-best distance).
//! * After each batch weight update, every unit's codebook drift
//!   `‖w_u(t) − w_u(t−1)‖` is measured exactly. By the triangle
//!   inequality, the cached BMU's distance can have grown by at most its
//!   own drift, and every other unit's distance can have shrunk by at most
//!   the maximum drift — so the bounds decay by exactly those amounts.
//! * A row skips its exact search whenever the decayed bounds still prove
//!   the cached BMU is the strict argmin of the scan it is replacing.
//!
//! Every quantity involved is itself a floating-point *evaluation* of a
//! true distance, so the bounds are maintained conservatively: distances
//! and drifts are widened by the scalar evaluation's relative error bound
//! ([`hiermeans_linalg::kernels::distance_rel_err`]), lower bounds are
//! narrowed by it, and the per-epoch bound arithmetic carries its own slop
//! factor. A hit is only declared when the widened upper bound is strictly
//! below the narrowed lower bound — a gap no rounding of the cold scan
//! could cross, which also rules out any involvement of the scan's
//! tie-breaking rule. Everything else rescans exactly, so a warm pass can
//! only ever be a faster route to the same bits.
//!
//! The cache costs 24 bytes per row. Beside a resident `n × dim` matrix
//! that is small, but in streamed training it would be the only memory
//! that grows with `n`. So the entry point decides: resident training
//! (`SomBuilder::train`) builds the cache for [`Metric::Euclidean`], and
//! streamed training (`SomBuilder::train_stream`) never does, which keeps
//! its footprint free of `n` and leaves it as the cold oracle the warm path
//! is tested against.

use hiermeans_linalg::distance::Metric;
use hiermeans_linalg::kernels;
use hiermeans_linalg::Matrix;

use crate::train::BestTwo;
use crate::SomError;

/// Slop factor absorbing the bound-maintenance arithmetic's own rounding:
/// each epoch applies one add/subtract and one multiply per bound, each
/// contributing at most one half-ulp of relative error.
const MAINTENANCE_SLOP: f64 = 4.0 * f64::EPSILON;

/// Per-row BMU cache with certified distance bounds, plus the per-unit
/// drift accumulator that decays them after every batch update.
///
/// Only meaningful for metrics satisfying the triangle inequality; the
/// trainer gates construction to [`Metric::Euclidean`].
pub(crate) struct WarmState {
    /// Codebook snapshot from the previous epoch, diffed for exact drifts.
    prev_weights: Matrix,
    /// Per-unit drift `‖w_u(t) − w_u(t−1)‖` of the last update, pre-widened
    /// by the evaluation error factor.
    drift: Vec<f64>,
    /// One cache slot per row.
    rows: Vec<WarmRow>,
    bounds: WarmBounds,
}

/// One row's cached BMU and its certified distance bounds.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WarmRow {
    bmu: usize,
    /// Upper bound on the true distance to the cached BMU.
    upper: f64,
    /// Lower bound on the true distance to every other unit.
    lower: f64,
}

/// The evaluation error factors shared by every row's certificate.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WarmBounds {
    /// `1 + 2ρ`, with ρ the scalar distance evaluation's relative error
    /// bound for this dimensionality.
    widen: f64,
    /// `1 − 2ρ`.
    narrow: f64,
}

impl WarmBounds {
    /// The cached BMU of `row`, when the bounds prove an exact scan would
    /// return it: any evaluation of the cached unit's distance computes to
    /// at most `upper·widen` and any other unit's to at least
    /// `lower·narrow`, so a strict gap between those certifies the cold
    /// scan's strict argmin (no tie-breaking can be involved).
    pub(crate) fn try_hit(self, row: &WarmRow) -> Option<usize> {
        (row.lower > 0.0 && row.upper * self.widen < row.lower * self.narrow).then_some(row.bmu)
    }

    /// Installs an exact search result into `row`: the best unit, with
    /// bounds derived from the computed best and second-best distances.
    pub(crate) fn refresh(self, row: &mut WarmRow, exact: BestTwo) {
        let ((best, d1), (_, d2)) = exact;
        *row = WarmRow {
            bmu: best,
            upper: d1 * self.widen,
            lower: d2 * self.narrow,
        };
    }
}

impl WarmState {
    /// A cache for `n` rows against `weights`, starting all-cold: the
    /// initial bounds (`upper = ∞`, `lower = 0`) certify nothing, so every
    /// row's first epoch runs the exact search.
    pub(crate) fn new(n: usize, weights: &Matrix) -> Self {
        let rho = kernels::distance_rel_err(weights.ncols());
        let cold = WarmRow {
            bmu: 0,
            upper: f64::INFINITY,
            lower: 0.0,
        };
        WarmState {
            prev_weights: weights.clone(),
            drift: vec![0.0; weights.nrows()],
            rows: vec![cold; n],
            bounds: WarmBounds {
                widen: 1.0 + 2.0 * rho,
                narrow: 1.0 - 2.0 * rho,
            },
        }
    }

    /// The per-row slots with the bounds that read and refresh them. Rows
    /// are independent, so disjoint sub-slices can go to different workers.
    pub(crate) fn rows_mut(&mut self) -> (&mut [WarmRow], WarmBounds) {
        (&mut self.rows, self.bounds)
    }

    /// Accounts for one batch weight update: measures each unit's exact
    /// drift against the previous snapshot, re-snapshots the codebook, and
    /// decays every row's bounds — the cached BMU's distance may have grown
    /// by that unit's own drift, every other unit's may have shrunk by the
    /// maximum drift.
    ///
    /// # Errors
    ///
    /// Propagates metric evaluation failures.
    pub(crate) fn advance_epoch(
        &mut self,
        weights: &Matrix,
        metric: Metric,
    ) -> Result<(), SomError> {
        let mut max_drift = 0.0f64;
        for (u, drift) in self.drift.iter_mut().enumerate() {
            *drift = metric.distance(self.prev_weights.row(u), weights.row(u))? * self.bounds.widen;
            max_drift = max_drift.max(*drift);
            self.prev_weights.row_mut(u).copy_from_slice(weights.row(u));
        }
        for row in &mut self.rows {
            row.upper = (row.upper + self.drift[row.bmu]) * (1.0 + MAINTENANCE_SLOP);
            // Only shrink toward zero multiplicatively while the bound is
            // still positive; once non-positive it certifies nothing and a
            // factor below one would (incorrectly) raise it.
            let decayed = row.lower - max_drift;
            row.lower = if decayed > 0.0 {
                decayed * (1.0 - MAINTENANCE_SLOP)
            } else {
                decayed
            };
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl WarmState {
        fn try_hit(&mut self, row: usize) -> Option<usize> {
            let (rows, bounds) = self.rows_mut();
            bounds.try_hit(&rows[row])
        }

        fn refresh(&mut self, row: usize, exact: BestTwo) {
            let (rows, bounds) = self.rows_mut();
            bounds.refresh(&mut rows[row], exact);
        }
    }

    fn weights() -> Matrix {
        Matrix::from_rows(&[vec![0.0, 0.0], vec![10.0, 0.0], vec![0.0, 10.0]]).unwrap()
    }

    #[test]
    fn fresh_state_never_hits() {
        let w = weights();
        let mut warm = WarmState::new(4, &w);
        for row in 0..4 {
            assert_eq!(warm.try_hit(row), None);
        }
    }

    #[test]
    fn refresh_then_zero_drift_hits() {
        let w = weights();
        let mut warm = WarmState::new(1, &w);
        // Row near unit 0: best distance 1, second-best 9 — a wide margin.
        warm.refresh(0, ((0, 1.0), (1, 9.0)));
        assert_eq!(warm.try_hit(0), Some(0));
        // An update that moves nothing keeps the certificate.
        warm.advance_epoch(&w, Metric::Euclidean).unwrap();
        assert_eq!(warm.try_hit(0), Some(0));
    }

    #[test]
    fn large_drift_invalidates_the_certificate() {
        let mut w = weights();
        let mut warm = WarmState::new(1, &w);
        warm.refresh(0, ((0, 1.0), (1, 9.0)));
        // Move the runner-up far enough that the gap can no longer be
        // certified: lower decays by the max drift.
        w.row_mut(1)[0] = 2.0;
        warm.advance_epoch(&w, Metric::Euclidean).unwrap();
        assert_eq!(warm.try_hit(0), None);
    }

    #[test]
    fn near_tie_is_never_certified() {
        let w = weights();
        let mut warm = WarmState::new(1, &w);
        // Best and second-best within a few ulps: the widened upper bound
        // cannot clear the narrowed lower bound, so the row must rescan.
        let d = 5.0;
        warm.refresh(0, ((0, d), (1, d * (1.0 + f64::EPSILON))));
        assert_eq!(warm.try_hit(0), None);
    }

    #[test]
    fn drift_accumulates_across_epochs() {
        let mut w = weights();
        let mut warm = WarmState::new(1, &w);
        warm.refresh(0, ((0, 1.0), (1, 9.0)));
        // Many small drifts must erode the certificate just like one big
        // one: 0.5 per epoch, and the certified gap (lower ≈ 9 vs upper
        // ≈ 1) survives a few epochs but not twenty.
        for _ in 0..4 {
            w.row_mut(1)[0] -= 0.5;
            warm.advance_epoch(&w, Metric::Euclidean).unwrap();
        }
        assert_eq!(warm.try_hit(0), Some(0));
        for _ in 0..16 {
            w.row_mut(1)[0] -= 0.5;
            warm.advance_epoch(&w, Metric::Euclidean).unwrap();
        }
        assert_eq!(warm.try_hit(0), None);
    }
}
