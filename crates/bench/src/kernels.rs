//! Machine-readable scalar-vs-blocked kernel measurements.
//!
//! The `repro bench-kernels` artifact calls [`bench_kernels_json`] and
//! writes `BENCH_kernels.json`, recording the measured speedup of the
//! blocked compute kernels (`hiermeans_linalg::kernels`) over their scalar
//! reference implementations:
//!
//! * `matmul` — the register-tile kernel vs the naive bounds-checked
//!   triple loop ([`hiermeans_linalg::kernels::matmul_reference`]), at the
//!   pipeline's representative projection shape `(n x dim) · (dim x dim)`
//!   (PCA transform and projection multiply tall-thin data against small
//!   square factors).
//! * `covariance` — [`Matrix::covariance`] (center + streamed symmetric
//!   product) vs the seed's strided per-column-pair accumulation loop.
//! * `bmu_batch` — the batched norm-trick BMU search
//!   ([`hiermeans_som::Som::bmu_batch`]) vs the per-row scalar scan
//!   ([`hiermeans_som::Som::bmu2`]), over a 16x16 codebook.
//!
//! All comparisons are pinned to one worker so the numbers isolate the
//! kernel change, not thread scheduling. The same comparisons are
//! benchmarked interactively by `benches/kernels.rs`.

use std::time::Instant;

use hiermeans_linalg::kernels;
use hiermeans_linalg::parallel;
use hiermeans_linalg::Matrix;
use hiermeans_som::{Som, SomBuilder, TrainingMode};
use serde::{Deserialize, Serialize};

use crate::perf::synthetic_vectors;

/// Row counts the kernels are measured at; 13 is the paper's suite size.
pub const KERNEL_SIZES: [usize; 3] = [13, 128, 1024];

/// Vector dimensionalities the kernels are measured at.
pub const KERNEL_DIMS: [usize; 2] = [12, 64];

/// One scalar-vs-blocked measurement of a kernel operation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelTiming {
    /// Operation name (`matmul`, `covariance`, `bmu_batch`).
    pub op: String,
    /// Problem size (matrix rows / query rows).
    pub n: usize,
    /// Vector dimensionality.
    pub dim: usize,
    /// Median wall-clock milliseconds for the scalar reference.
    pub scalar_ms: f64,
    /// Median wall-clock milliseconds for the blocked kernel.
    pub blocked_ms: f64,
    /// `scalar_ms / blocked_ms`.
    pub speedup: f64,
}

/// The full `BENCH_kernels.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelBenchReport {
    /// Sizes measured.
    pub sizes: Vec<usize>,
    /// Dimensionalities measured.
    pub dims: Vec<usize>,
    /// Per-operation scalar-vs-blocked timings.
    pub results: Vec<KernelTiming>,
    /// Provenance stamp (`None` in pre-stamp baselines).
    #[serde(default)]
    pub meta: Option<hiermeans_obs::history::BenchMeta>,
}

/// Median wall-clock milliseconds of `f` over `reps` runs.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

fn timed_pair(
    op: &str,
    n: usize,
    dim: usize,
    reps: usize,
    mut scalar: impl FnMut(),
    mut blocked: impl FnMut(),
) -> KernelTiming {
    let scalar_ms = median_ms(reps, &mut scalar);
    let blocked_ms = median_ms(reps, &mut blocked);
    KernelTiming {
        op: op.to_string(),
        n,
        dim,
        scalar_ms,
        blocked_ms,
        speedup: scalar_ms / blocked_ms,
    }
}

/// The seed's covariance loop, kept verbatim as the scalar baseline:
/// allocated column copies for the means, then one strided pass over all
/// rows for every column pair — `O(n·p²)` scattered element reads.
fn covariance_reference(m: &Matrix) -> Matrix {
    let n = m.nrows() as f64;
    #[allow(deprecated)]
    let means: Vec<f64> = (0..m.ncols())
        .map(|c| m.col(c).iter().sum::<f64>() / n)
        .collect();
    let mut cov = Matrix::zeros(m.ncols(), m.ncols());
    for i in 0..m.ncols() {
        for j in i..m.ncols() {
            let mut s = 0.0;
            for r in 0..m.nrows() {
                s += (m[(r, i)] - means[i]) * (m[(r, j)] - means[j]);
            }
            let v = s / (n - 1.0);
            cov[(i, j)] = v;
            cov[(j, i)] = v;
        }
    }
    cov
}

/// A 16x16 map whose codebook spans `data`'s space, for BMU-search timing.
/// One short batch epoch is enough: the search cost depends only on the
/// codebook size, not on how converged it is.
fn bmu_codebook(data: &Matrix) -> Som {
    let rows = data.nrows().min(64);
    let sample = Matrix::from_vec(
        rows,
        data.ncols(),
        data.as_slice()[..rows * data.ncols()].to_vec(),
    )
    .expect("len matches");
    SomBuilder::new(16, 16)
        .seed(7)
        .epochs(1)
        .mode(TrainingMode::Batch)
        .train(&sample)
        .expect("synthetic data trains")
}

/// Measures the scalar and blocked kernels head to head (one worker pinned)
/// and returns the report; [`bench_kernels_json`] serializes it.
pub fn bench_kernels() -> KernelBenchReport {
    parallel::set_worker_override(Some(1));
    let mut results = Vec::new();
    for dim in KERNEL_DIMS {
        for n in KERNEL_SIZES {
            let reps = if n >= 1024 { 5 } else { 9 };
            let a = synthetic_vectors(n, dim);
            // The pipeline's matmuls are tall-thin against small square
            // factors (PCA transform/projection), so that is the shape the
            // kernel is measured at.
            let b = synthetic_vectors(dim, dim);
            results.push(timed_pair(
                "matmul",
                n,
                dim,
                reps,
                || {
                    std::hint::black_box(kernels::matmul_reference(&a, &b).expect("shapes agree"));
                },
                || {
                    std::hint::black_box(kernels::matmul(&a, &b).expect("shapes agree"));
                },
            ));
            results.push(timed_pair(
                "covariance",
                n,
                dim,
                reps,
                || {
                    std::hint::black_box(covariance_reference(&a));
                },
                || {
                    std::hint::black_box(a.covariance().expect("enough rows"));
                },
            ));
            let som = bmu_codebook(&a);
            results.push(timed_pair(
                "bmu_batch",
                n,
                dim,
                reps,
                || {
                    for r in 0..a.nrows() {
                        std::hint::black_box(som.bmu2(a.row(r)).expect("dims agree"));
                    }
                },
                || {
                    std::hint::black_box(som.bmu_batch(&a).expect("dims agree"));
                },
            ));
        }
    }
    parallel::set_worker_override(None);
    KernelBenchReport {
        sizes: KERNEL_SIZES.to_vec(),
        dims: KERNEL_DIMS.to_vec(),
        results,
        meta: Some(hiermeans_obs::history::BenchMeta::capture()),
    }
}

/// Renders [`bench_kernels`] as pretty-printed JSON.
///
/// # Errors
///
/// Returns a serialization error message (should not happen for plain
/// numeric data).
pub fn bench_kernels_json() -> Result<String, String> {
    serde_json::to_string_pretty(&bench_kernels()).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_roundtrips_through_json() {
        let report = KernelBenchReport {
            sizes: KERNEL_SIZES.to_vec(),
            dims: KERNEL_DIMS.to_vec(),
            results: vec![KernelTiming {
                op: "matmul".into(),
                n: 13,
                dim: 12,
                scalar_ms: 2.0,
                blocked_ms: 0.5,
                speedup: 4.0,
            }],
            meta: None,
        };
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: KernelBenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.results[0].op, "matmul");
        assert_eq!(back.results[0].speedup, 4.0);
    }

    #[test]
    fn covariance_reference_matches_kernel() {
        let a = synthetic_vectors(64, 12);
        let reference = covariance_reference(&a);
        let kernel = a.covariance().unwrap();
        for i in 0..12 {
            for j in 0..12 {
                assert!(
                    (reference[(i, j)] - kernel[(i, j)]).abs() <= 1e-12,
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn codebook_has_expected_shape() {
        let data = synthetic_vectors(16, 4);
        let som = bmu_codebook(&data);
        assert_eq!(som.weights().ncols(), 4);
        assert_eq!(som.weights().nrows(), 256);
    }
}
