//! Scale benchmarks: the analysis core far past the paper's 13 workloads.
//!
//! The `repro bench-scale` artifact calls [`bench_scale`] and writes
//! `BENCH_scale.json` — one wall-clock row per `(algorithm, n)` point on
//! the scaling curves:
//!
//! * `naive` / `nnchain_active` — the O(n³)-scan naive merge loop against
//!   NN-chain (whose scan walks a compact list of active slots), over a
//!   materialized distance matrix (complete linkage).
//!
//! A committed baseline turns the curves into a regression gate
//! ([`compare_with_scale_baseline`]): generous tolerances, because these
//! are single-shot timings of long runs on shared CI hardware.

use std::time::Instant;

use hiermeans_cluster::{agglomerative, nnchain, Linkage};
use hiermeans_linalg::distance::{pairwise, Metric};
use hiermeans_linalg::Matrix;
use hiermeans_obs::Collector;
use hiermeans_workload::synthetic::{gaussian_mixture, MixtureSpec};
use serde::{Deserialize, Serialize};

/// One wall-clock measurement of an algorithm at a corpus size.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScaleTiming {
    /// Algorithm label (stable across runs; the gate joins on it).
    pub algorithm: String,
    /// Corpus size (points / workloads).
    pub n: usize,
    /// Dimensionality of the points.
    pub dim: usize,
    /// Best-of-`reps` wall-clock milliseconds.
    pub ms: f64,
}

/// The full `BENCH_scale.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScaleBenchReport {
    /// Per-(algorithm, n) timings.
    pub results: Vec<ScaleTiming>,
    /// Provenance stamp (`None` in pre-stamp baselines).
    #[serde(default)]
    pub meta: Option<hiermeans_obs::history::BenchMeta>,
}

/// Relative regression tolerance: a row fails only beyond `baseline * 1.5`.
/// Scale rows are single-shot timings of multi-second runs, so the gate is
/// deliberately loose — it exists to catch complexity-class regressions
/// (an accidental O(n²) rescan turning a curve quadratic), not percent-level
/// drift.
pub const SCALE_TOLERANCE: f64 = 0.5;

/// Absolute floor in milliseconds: rows within this of the baseline never
/// fail, whatever the ratio.
pub const SCALE_FLOOR_MS: f64 = 250.0;

fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// The seeded `n × dim` input every timing harness in this crate measures
/// on (the scale and SOM curves and the criterion benches): a
/// well-separated eight-cluster Gaussian mixture. The planted structure is
/// irrelevant to the timings; the seed just guarantees identical inputs
/// run to run.
///
/// # Panics
///
/// If `n` < 8 or `dim` is 0 (an invalid mixture spec).
#[must_use]
pub fn mixture(n: usize, dim: usize) -> Matrix {
    gaussian_mixture(&MixtureSpec::separated(n, dim, 8, 0x5CA1E))
        .expect("valid mixture spec")
        .points
}

/// Runs every scaling curve and collects the report.
pub fn bench_scale() -> ScaleBenchReport {
    let mut results = Vec::new();
    let mut push = |algorithm: &str, n: usize, dim: usize, ms: f64| {
        results.push(ScaleTiming {
            algorithm: algorithm.to_string(),
            n,
            dim,
            ms,
        });
    };

    // Matrix-backed merge loops: naive vs NN-chain. The NN-chain row keeps
    // its historical `nnchain_active` name so baselines stay comparable.
    for n in [1_000usize, 2_000] {
        let dim = 8;
        let points = mixture(n, dim);
        let dist = pairwise(&points, Metric::Euclidean).expect("finite mixture");
        if n <= 1_000 {
            push(
                "naive",
                n,
                dim,
                best_of(2, || {
                    agglomerative::cluster_from_distances(
                        &dist,
                        Linkage::Complete,
                        &Collector::disabled(),
                    )
                    .expect("valid matrix")
                }),
            );
        }
        push(
            "nnchain_active",
            n,
            dim,
            best_of(2, || {
                nnchain::cluster_nn_chain_owned(
                    dist.clone(),
                    Linkage::Complete,
                    &Collector::disabled(),
                )
                .expect("valid matrix")
            }),
        );
    }

    ScaleBenchReport {
        results,
        meta: Some(hiermeans_obs::history::BenchMeta::capture()),
    }
}

/// Compares a fresh scale report against a stored baseline, row by row.
///
/// A row regresses when its timing exceeds the baseline's by more than
/// [`SCALE_TOLERANCE`] *and* more than [`SCALE_FLOOR_MS`] absolute. Rows
/// present in only one report are listed but never fail — the curve set is
/// allowed to grow and shrink.
///
/// # Errors
///
/// Returns the rendered comparison as an error when any row regressed, so
/// the caller can exit nonzero with the table on stderr.
pub fn compare_with_scale_baseline(
    current: &ScaleBenchReport,
    baseline: &ScaleBenchReport,
) -> Result<String, String> {
    let mut out = String::new();
    let mut regressed = false;
    out.push_str("algorithm        n        baseline_ms  current_ms   ratio  verdict\n");
    for base in &baseline.results {
        let Some(cur) = current
            .results
            .iter()
            .find(|c| c.algorithm == base.algorithm && c.n == base.n)
        else {
            out.push_str(&format!(
                "{:<16} {:<8} (missing from current run)\n",
                base.algorithm, base.n
            ));
            continue;
        };
        let ratio = cur.ms / base.ms;
        let slow = cur.ms > base.ms * (1.0 + SCALE_TOLERANCE) && cur.ms - base.ms > SCALE_FLOOR_MS;
        regressed |= slow;
        out.push_str(&format!(
            "{:<16} {:<8} {:>11.1} {:>11.1} {:>7.2}  {}\n",
            base.algorithm,
            base.n,
            base.ms,
            cur.ms,
            ratio,
            if slow { "REGRESSED" } else { "ok" }
        ));
    }
    if regressed {
        Err(format!(
            "scale regression gate failed (> {:.0}% and > {SCALE_FLOOR_MS} ms over baseline)\n{out}",
            SCALE_TOLERANCE * 100.0
        ))
    } else {
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(rows: &[(&str, usize, f64)]) -> ScaleBenchReport {
        ScaleBenchReport {
            meta: None,
            results: rows
                .iter()
                .map(|&(algorithm, n, ms)| ScaleTiming {
                    algorithm: algorithm.to_string(),
                    n,
                    dim: 8,
                    ms,
                })
                .collect(),
        }
    }

    #[test]
    fn gate_passes_within_tolerance() {
        let baseline = report(&[("nnchain_active", 2_000, 2_000.0)]);
        // 40% slower: inside the 50% tolerance.
        let current = report(&[("nnchain_active", 2_000, 2_800.0)]);
        assert!(compare_with_scale_baseline(&current, &baseline).is_ok());
    }

    #[test]
    fn gate_fails_on_large_regression() {
        let baseline = report(&[("nnchain_active", 2_000, 2_000.0)]);
        let slow = report(&[("nnchain_active", 2_000, 4_000.0)]);
        let err = compare_with_scale_baseline(&slow, &baseline).unwrap_err();
        assert!(err.contains("REGRESSED"), "{err}");
        assert!(err.contains("nnchain_active"), "{err}");
    }

    #[test]
    fn gate_ignores_sub_floor_noise() {
        // 3x slower but only 200 ms absolute: below the floor.
        let baseline = report(&[("naive", 1_000, 100.0)]);
        let current = report(&[("naive", 1_000, 300.0)]);
        assert!(compare_with_scale_baseline(&current, &baseline).is_ok());
    }

    #[test]
    fn gate_tolerates_row_set_changes() {
        let baseline = report(&[("retired_curve", 1_000, 100.0)]);
        let current = report(&[("naive", 1_000, 100.0)]);
        let table = compare_with_scale_baseline(&current, &baseline).unwrap();
        assert!(table.contains("missing from current run"), "{table}");
    }

    #[test]
    fn report_roundtrips_through_json() {
        let r = report(&[("nnchain_active", 2_000, 51.0)]);
        let json = serde_json::to_string_pretty(&r).unwrap();
        let back: ScaleBenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.results[0].algorithm, "nnchain_active");
        assert_eq!(back.results[0].n, 2_000);
    }

    #[test]
    fn mixture_is_deterministic() {
        assert_eq!(mixture(64, 4), mixture(64, 4));
    }

    #[test]
    fn timed_algorithms_agree_on_a_small_corpus() {
        // The merge-loop rows must both be timing *the same problem*: at
        // one small size, naive and NN-chain build the same dendrogram.
        let n = 64;
        let points = mixture(n, 4);
        let dist = pairwise(&points, Metric::Euclidean).unwrap();
        let off = Collector::disabled();
        let naive = agglomerative::cluster_from_distances(&dist, Linkage::Complete, &off).unwrap();
        let chain = nnchain::cluster_nn_chain_owned(dist.clone(), Linkage::Complete, &off).unwrap();
        assert_eq!(naive, chain);
    }
}
