//! SOM convergence telemetry: per-epoch quality records and the verdict
//! that flags an under-converged training run.
//!
//! The paper's pipeline says "continue until converge" but gives no test;
//! the verdict here operationalizes one. Under a decaying neighborhood
//! schedule the quantization error (QE) keeps falling for as long as σ
//! shrinks, so an *absolute* plateau never appears — what distinguishes a
//! healthy run is that the **per-epoch** relative improvement rate has
//! decayed to a trickle by the final epochs. A run stopped mid-descent —
//! the failure that silently flipped SciMark2 LU's nearest map neighbor on
//! machine B's SAR counters at 100 epochs — still improves fast at the
//! end. The verdict measures the mean per-epoch relative QE improvement
//! over a trailing window and calls the run converged only when that rate
//! is below a tolerance.
//!
//! Calibration on the paper studies (online SOM, 10x10 map, default
//! schedule): the known-bad machine-B run at 100 epochs improves
//! ~2.1%/epoch over its trailing window; the known-good 200-epoch runs
//! improve 0.97-1.21%/epoch. The default tolerance of 1.5%/epoch separates
//! the two with margin on both sides.

use serde::{Deserialize, Serialize};

/// Quality telemetry for one training epoch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochRecord {
    /// Zero-based epoch index.
    pub epoch: usize,
    /// Mean sample-to-BMU distance after this epoch's updates.
    pub quantization_error: f64,
    /// Fraction of samples whose best two units are not lattice neighbors.
    pub topographic_error: f64,
    /// The neighborhood radius σ in effect during this epoch.
    pub sigma: f64,
}

/// Default trailing-window fraction of the recorded epochs.
pub const DEFAULT_WINDOW_FRACTION: f64 = 0.2;

/// Default tolerance: the run is converged when the mean per-epoch
/// relative QE improvement over the trailing window is below this rate.
pub const DEFAULT_TOLERANCE: f64 = 0.015;

/// Fewer recorded epochs than this cannot support a verdict.
pub const MIN_RECORDS: usize = 5;

/// The convergence verdict for one SOM training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConvergenceVerdict {
    /// Whether the QE curve plateaued within tolerance.
    pub converged: bool,
    /// Number of epoch records the verdict was computed from.
    pub records: usize,
    /// QE after the final epoch.
    pub final_quantization_error: f64,
    /// Topographic error after the final epoch.
    pub final_topographic_error: f64,
    /// Trailing-window length (in records) the plateau test used.
    pub window: usize,
    /// Relative QE improvement over the whole trailing window:
    /// `(qe_start - qe_end) / qe_start`. Positive means still improving.
    pub relative_improvement: f64,
    /// Mean per-epoch improvement rate: `relative_improvement / window` —
    /// the quantity the tolerance is applied to.
    pub rate_per_epoch: f64,
    /// The per-epoch tolerance the rate was compared against.
    pub tolerance: f64,
    /// Human-readable explanation of the verdict.
    pub reason: String,
}

/// Assesses a QE/TE curve with the default window fraction and tolerance.
#[must_use]
pub fn assess(records: &[EpochRecord]) -> ConvergenceVerdict {
    assess_with(records, DEFAULT_WINDOW_FRACTION, DEFAULT_TOLERANCE)
}

/// Assesses a QE/TE curve: converged iff the mean per-epoch relative QE
/// improvement over the trailing `window_fraction` of records is at most
/// `tolerance` in magnitude (a rate beyond tolerance in the rising
/// direction — QE getting worse — also fails).
#[must_use]
pub fn assess_with(
    records: &[EpochRecord],
    window_fraction: f64,
    tolerance: f64,
) -> ConvergenceVerdict {
    let n = records.len();
    if n < MIN_RECORDS {
        return ConvergenceVerdict {
            converged: false,
            records: n,
            final_quantization_error: records.last().map_or(f64::NAN, |r| r.quantization_error),
            final_topographic_error: records.last().map_or(f64::NAN, |r| r.topographic_error),
            window: 0,
            relative_improvement: f64::NAN,
            rate_per_epoch: f64::NAN,
            tolerance,
            reason: format!(
                "insufficient telemetry: {n} epoch record(s), need at least {MIN_RECORDS}"
            ),
        };
    }
    let window = ((n as f64 * window_fraction).round() as usize).clamp(2, n - 1);
    let start = records[n - 1 - window].quantization_error;
    let end = records[n - 1].quantization_error;
    let denom = start.abs().max(f64::MIN_POSITIVE);
    let relative_improvement = (start - end) / denom;
    let rate_per_epoch = relative_improvement / window as f64;
    let (converged, reason) = if !rate_per_epoch.is_finite() {
        (
            false,
            "quantization error is non-finite over the trailing window".to_owned(),
        )
    } else if rate_per_epoch > tolerance {
        (
            false,
            format!(
                "under-converged: QE still improving {:.2}%/epoch over the last {window} \
                 epochs (tolerance {:.2}%/epoch); train longer",
                rate_per_epoch * 100.0,
                tolerance * 100.0
            ),
        )
    } else if rate_per_epoch < -tolerance {
        (
            false,
            format!(
                "unstable: QE rising {:.2}%/epoch over the last {window} epochs \
                 (tolerance {:.2}%/epoch)",
                -rate_per_epoch * 100.0,
                tolerance * 100.0
            ),
        )
    } else {
        (
            true,
            format!(
                "converged: QE changing {:.2}%/epoch over the last {window} epochs \
                 (within {:.2}%/epoch tolerance)",
                rate_per_epoch * 100.0,
                tolerance * 100.0
            ),
        )
    };
    ConvergenceVerdict {
        converged,
        records: n,
        final_quantization_error: end,
        final_topographic_error: records[n - 1].topographic_error,
        window,
        relative_improvement,
        rate_per_epoch,
        tolerance,
        reason,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve(qe: &[f64]) -> Vec<EpochRecord> {
        qe.iter()
            .enumerate()
            .map(|(epoch, &quantization_error)| EpochRecord {
                epoch,
                quantization_error,
                topographic_error: 0.1,
                sigma: 1.0,
            })
            .collect()
    }

    #[test]
    fn plateaued_curve_converges() {
        let qe: Vec<f64> = (0..50)
            .map(|i| 1.0 * (-0.5 * i as f64).exp() + 0.1)
            .collect();
        let v = assess(&curve(&qe));
        assert!(v.converged, "{}", v.reason);
        assert!(v.rate_per_epoch.abs() <= v.tolerance);
    }

    #[test]
    fn still_descending_curve_fails() {
        // Linear descent: the trailing window improves by a constant slice
        // of the total drop, far above tolerance.
        let qe: Vec<f64> = (0..50).map(|i| 10.0 - 0.15 * i as f64).collect();
        let v = assess(&curve(&qe));
        assert!(!v.converged);
        assert!(v.reason.contains("under-converged"));
        assert!(v.rate_per_epoch > v.tolerance);
    }

    #[test]
    fn rising_curve_fails() {
        let qe: Vec<f64> = (0..50).map(|i| 1.0 + 0.1 * i as f64).collect();
        let v = assess(&curve(&qe));
        assert!(!v.converged);
        assert!(v.reason.contains("unstable"));
    }

    #[test]
    fn too_few_records_fails() {
        let v = assess(&curve(&[1.0, 0.5]));
        assert!(!v.converged);
        assert_eq!(v.records, 2);
        assert!(v.reason.contains("insufficient"));
    }

    #[test]
    fn verdict_round_trips_through_json() {
        let v = assess(&curve(&[5.0, 4.0, 3.0, 2.9, 2.9, 2.9, 2.9, 2.9]));
        let json = serde_json::to_string(&v).unwrap();
        let back: ConvergenceVerdict = serde_json::from_str(&json).unwrap();
        assert_eq!(v, back);
    }
}
