//! SOM trainer benchmarks: batch epoch throughput and out-of-core streaming.
//!
//! The `repro bench-som` artifact calls [`bench_som`] and writes
//! `BENCH_som.json` — one row per corpus size on the epoch-throughput
//! curve, timing the batch trainer over resident rows streamed through
//! [`SomBuilder::train_stream`] (`&Matrix` is a `RowSource`), plus one row
//! for the streaming trainer at n = 10⁶ with its measured peak heap.
//!
//! A committed baseline turns the curves into a regression gate
//! ([`compare_with_som_baseline`]).

use std::time::Instant;

use hiermeans_obs::memhook;
use hiermeans_obs::{Collector, ObsConfig, ProgressLog};
use hiermeans_som::{
    DecaySchedule, Initializer, NeighborhoodKernel, Som, SomBuilder, TrainingMode,
};
use hiermeans_workload::stream::SyntheticRowSource;
use hiermeans_workload::synthetic::MixtureSpec;
use serde::{Deserialize, Serialize};

use crate::scale::mixture;

/// One measurement of batch training at a corpus size.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SomEpochTiming {
    /// Corpus size (rows).
    pub n: usize,
    /// Dimensionality of the rows.
    pub dim: usize,
    /// Codebook units (grid width × height).
    pub units: usize,
    /// Epochs per timed run.
    pub epochs: usize,
    /// Best-of-reps wall-clock milliseconds, exact search every epoch
    /// (streamed from the resident rows). The name predates the removal of
    /// the epoch-warm column and stays for baseline compatibility.
    pub cold_ms: f64,
}

/// The streaming-trainer row: one million rows, never materialized.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamTiming {
    /// Corpus size (rows generated per pass, never resident).
    pub n: usize,
    /// Dimensionality of the rows.
    pub dim: usize,
    /// Codebook units.
    pub units: usize,
    /// Epochs trained.
    pub epochs: usize,
    /// Wall-clock milliseconds for the full training call.
    pub ms: f64,
    /// Peak bytes of new heap held at once across the call, when the
    /// binary installs the tracking allocator (`repro` does); `None` in
    /// binaries without the hook. A resident matrix would need
    /// `n * dim * 8` bytes.
    pub peak_bytes: Option<i64>,
}

/// The full `BENCH_som.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SomBenchReport {
    /// Batch-training rows, ascending `n`.
    pub results: Vec<SomEpochTiming>,
    /// The out-of-core streaming row.
    pub stream: Option<StreamTiming>,
    /// Provenance stamp (`None` in pre-stamp baselines).
    #[serde(default)]
    pub meta: Option<hiermeans_obs::history::BenchMeta>,
}

/// Relative regression tolerance for the baseline gate, matching the scale
/// gate's rationale: single-shot timings on shared hardware, so the gate
/// catches the trainer breaking, not percent-level drift.
pub const SOM_TOLERANCE: f64 = 0.5;

/// Absolute floor in milliseconds: rows within this of the baseline never
/// fail, whatever the ratio.
pub const SOM_FLOOR_MS: f64 = 250.0;

fn best_of(reps: usize, mut f: impl FnMut() -> Som) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn builder(width: usize, height: usize, epochs: usize, sigma_div: f64) -> SomBuilder {
    // A bounded-support kernel under the classic Kohonen inverse-time
    // schedule, not the pipeline's Gaussian kernel with a linear sigma.
    // The regime stays so that every row remains comparable with the
    // committed baseline until a large-n curve through the whole pipeline
    // replaces this harness. Random initialization is the only one the
    // streamed trainer supports.
    let diameter = (((width - 1) as f64).powi(2) + ((height - 1) as f64).powi(2)).sqrt();
    SomBuilder::new(width, height)
        .seed(7)
        .epochs(epochs)
        .mode(TrainingMode::Batch)
        .initializer(Initializer::Random)
        .kernel(NeighborhoodKernel::CutGaussian)
        .sigma(DecaySchedule::InverseTime {
            start: diameter / sigma_div,
            c: 1.0,
        })
}

/// Runs the epoch-throughput curve (n = 1k / 10k / 100k) and the n = 10⁶
/// streaming row. Takes a few minutes in release — the 100k row alone
/// trains 192 epochs.
///
/// With a progress log (`repro bench-som --progress <file>`), the n = 10⁶
/// streaming row appends its strip and epoch lines there. The
/// curve's timed rows never publish, so they measure the trainer alone.
pub fn bench_som(progress: Option<&ProgressLog>) -> SomBenchReport {
    let mut results = Vec::new();
    // Grids near the heuristic ≈5·√n sizing the scaled pipeline uses; the
    // 100k row keeps the 32×32 grid its committed baseline row was timed
    // on, so the rows stay comparable with `BENCH_som.json`. Epoch budgets
    // run long enough for the codebook to settle (the inverse-time
    // schedule's settling epoch is absolute, later for bigger grids). The
    // 100k row starts sigma tighter (diameter/4) so its 1024 units settle
    // within the budget.
    for (n, width, height, epochs, sigma_div, reps) in [
        (1_000usize, 12usize, 13usize, 96usize, 2.0f64, 3usize),
        (10_000, 22, 22, 96, 2.0, 2),
        (100_000, 32, 32, 192, 4.0, 1),
    ] {
        let dim = 8;
        let points = mixture(n, dim);
        let b = builder(width, height, epochs, sigma_div);
        let cold_ms = best_of(reps, || {
            b.train_stream(&mut &points).expect("finite mixture")
        });
        results.push(SomEpochTiming {
            n,
            dim,
            units: width * height,
            epochs,
            cold_ms,
        });
    }

    // Out-of-core: one million synthetic rows streamed per pass, never
    // resident. The tracking allocator (installed by `repro`) certifies the
    // bounded footprint right in the artifact.
    let stream = {
        let (n, dim, width, height, epochs) = (1_000_000usize, 8usize, 16usize, 16usize, 2usize);
        let spec = MixtureSpec::separated(n, dim, 8, 0x5CA1E);
        let start = Instant::now();
        let (som, peak) = memhook::global_window(|| {
            let mut source = SyntheticRowSource::new(spec).expect("valid spec");
            let b = builder(width, height, epochs, 2.0);
            match progress {
                // Strip and epoch lines for the streamed pass, with
                // quality sampling off so it adds no BMU pass.
                // Publishing allocates inside the global window, so a
                // `--progress` run's recorded peak can sit slightly above
                // a plain run's; the trained map stays bitwise identical.
                Some(log) => {
                    let collector = Collector::enabled_live(
                        ObsConfig {
                            epoch_quality_stride: 0,
                            lanes: false,
                            memory: false,
                            ..ObsConfig::default()
                        },
                        log.publisher("bench_som_stream"),
                    );
                    b.train_stream_traced(&mut source, &collector)
                }
                None => b.train_stream(&mut source),
            }
            .expect("streaming training succeeds")
        });
        let ms = start.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(&som);
        Some(StreamTiming {
            n,
            dim,
            units: width * height,
            epochs,
            ms,
            peak_bytes: memhook::hook_installed().then_some(peak),
        })
    };

    SomBenchReport {
        results,
        stream,
        meta: Some(hiermeans_obs::history::BenchMeta::capture()),
    }
}

/// Renders the throughput table `repro bench-som` prints.
#[must_use]
pub fn render_som_report(report: &SomBenchReport) -> String {
    let mut out = String::new();
    out.push_str("n        units  epochs  cold_ms\n");
    for t in &report.results {
        out.push_str(&format!(
            "{:<8} {:<6} {:<7} {:>9.1}\n",
            t.n, t.units, t.epochs, t.cold_ms
        ));
    }
    if let Some(s) = &report.stream {
        let peak = match s.peak_bytes {
            Some(bytes) => format!("{:.1} MiB peak heap", bytes as f64 / (1 << 20) as f64),
            None => "peak heap unmeasured (no tracking allocator)".to_owned(),
        };
        out.push_str(&format!(
            "stream   {:<6} {:<7} {:>9.1} ms for n = {} ({peak}; dense would need {:.0} MiB)\n",
            s.units,
            s.epochs,
            s.ms,
            s.n,
            (s.n * s.dim * 8) as f64 / (1 << 20) as f64
        ));
    }
    out
}

/// Compares a fresh SOM bench report against a stored baseline, row by row
/// (joined on `n`; the streaming row joins on its `n` too).
///
/// A cell regresses when it exceeds the baseline's by more than
/// [`SOM_TOLERANCE`] *and* more than [`SOM_FLOOR_MS`] absolute. Rows
/// present in only one report are listed but never fail.
///
/// # Errors
///
/// Returns the rendered comparison as an error when any cell regressed.
pub fn compare_with_som_baseline(
    current: &SomBenchReport,
    baseline: &SomBenchReport,
) -> Result<String, String> {
    fn judge(label: &str, base_ms: f64, cur_ms: f64) -> (String, bool) {
        let slow = cur_ms > base_ms * (1.0 + SOM_TOLERANCE) && cur_ms - base_ms > SOM_FLOOR_MS;
        let line = format!(
            "{label:<20} {:>11.1} {:>11.1} {:>7.2}  {}\n",
            base_ms,
            cur_ms,
            cur_ms / base_ms,
            if slow { "REGRESSED" } else { "ok" }
        );
        (line, slow)
    }
    let mut out = String::from("row                  baseline_ms  current_ms   ratio  verdict\n");
    let mut regressed = false;
    let mut push = |out: &mut String, (line, slow): (String, bool)| {
        out.push_str(&line);
        regressed |= slow;
    };
    for base in &baseline.results {
        let Some(cur) = current.results.iter().find(|c| c.n == base.n) else {
            out.push_str(&format!(
                "som/n={:<12} (missing from current run)\n",
                base.n
            ));
            continue;
        };
        push(
            &mut out,
            judge(&format!("som/n={}/cold", base.n), base.cold_ms, cur.cold_ms),
        );
    }
    if let Some(base) = &baseline.stream {
        match &current.stream {
            Some(cur) if cur.n == base.n => {
                push(
                    &mut out,
                    judge(&format!("stream/n={}", base.n), base.ms, cur.ms),
                );
            }
            _ => out.push_str(&format!(
                "stream/n={:<9} (missing from current run)\n",
                base.n
            )),
        }
    }
    if regressed {
        Err(format!(
            "som regression gate failed (> {:.0}% and > {SOM_FLOOR_MS} ms over baseline)\n{out}",
            SOM_TOLERANCE * 100.0
        ))
    } else {
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(n: usize, cold_ms: f64) -> SomEpochTiming {
        SomEpochTiming {
            n,
            dim: 8,
            units: 484,
            epochs: 12,
            cold_ms,
        }
    }

    fn report(rows: Vec<SomEpochTiming>, stream: Option<StreamTiming>) -> SomBenchReport {
        SomBenchReport {
            results: rows,
            stream,
            meta: None,
        }
    }

    fn stream_row(n: usize, ms: f64) -> StreamTiming {
        StreamTiming {
            n,
            dim: 8,
            units: 256,
            epochs: 2,
            ms,
            peak_bytes: Some(4 << 20),
        }
    }

    #[test]
    fn baseline_gate_passes_within_tolerance() {
        let baseline = report(
            vec![row(10_000, 2_000.0)],
            Some(stream_row(1_000_000, 5_000.0)),
        );
        let current = report(
            vec![row(10_000, 2_600.0)],
            Some(stream_row(1_000_000, 6_000.0)),
        );
        let table = compare_with_som_baseline(&current, &baseline).unwrap();
        assert!(table.contains("som/n=10000/cold"), "{table}");
        assert!(table.contains("stream/n=1000000"), "{table}");
    }

    #[test]
    fn baseline_gate_fails_on_large_regression() {
        let baseline = report(vec![row(10_000, 2_000.0)], None);
        let slow = report(vec![row(10_000, 3_500.0)], None);
        let err = compare_with_som_baseline(&slow, &baseline).unwrap_err();
        assert!(err.contains("REGRESSED"), "{err}");
        assert!(err.contains("som/n=10000/cold"), "{err}");
    }

    #[test]
    fn baseline_gate_ignores_sub_floor_noise() {
        // 3x slower but only ~100 ms absolute: below the floor.
        let baseline = report(vec![row(1_000, 50.0)], None);
        let current = report(vec![row(1_000, 150.0)], None);
        assert!(compare_with_som_baseline(&current, &baseline).is_ok());
    }

    #[test]
    fn baseline_gate_tolerates_row_set_changes() {
        let baseline = report(
            vec![row(500_000, 9_000.0)],
            Some(stream_row(1_000_000, 5_000.0)),
        );
        let current = report(vec![row(10_000, 2_000.0)], None);
        let table = compare_with_som_baseline(&current, &baseline).unwrap();
        assert!(table.contains("missing from current run"), "{table}");
    }

    #[test]
    fn report_roundtrips_through_json() {
        let r = report(
            vec![row(10_000, 2_000.0)],
            Some(stream_row(1_000_000, 5_000.0)),
        );
        let json = serde_json::to_string_pretty(&r).unwrap();
        let back: SomBenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.results[0].n, 10_000);
        assert_eq!(back.stream.unwrap().n, 1_000_000);
    }

    #[test]
    fn render_covers_every_row() {
        let r = report(
            vec![row(10_000, 2_000.0)],
            Some(stream_row(1_000_000, 5_000.0)),
        );
        let table = render_som_report(&r);
        assert!(table.contains("10000"), "{table}");
        assert!(table.contains("2000.0"), "{table}");
        assert!(table.contains("stream"), "{table}");
        assert!(table.contains("MiB"), "{table}");
    }
}
