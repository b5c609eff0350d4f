//! The batch trainer's result does not depend on the worker count.
//!
//! Within each strip, batch workers claim 64-row chunks, search their BMUs
//! and fold their accumulator partials into the totals in ascending chunk
//! order. Every bit of the trained map must therefore be the same for any
//! worker count, for resident input ([`SomBuilder::train`]) and streamed
//! input alike (`train_stream` over a `&Matrix` or a [`CharVecFile`]), and
//! the three entry points must agree with each other. Resident Euclidean
//! training reuses certified BMUs from the epoch-warm cache and streamed
//! training never builds it, so the agreement also pins warm against cold.
//!
//! This lives in its own integration-test binary because
//! [`parallel::set_worker_override`] is process-global: every case runs
//! inside the one `#[test]` below, so no other test can change the worker
//! count mid-run.

use hiermeans_linalg::distance::Metric;
use hiermeans_linalg::{parallel, Matrix};
use hiermeans_obs::{Collector, ObsConfig};
use hiermeans_som::{DecaySchedule, Initializer, SomBuilder, TrainingMode};
use hiermeans_workload::stream::CharVecFile;

/// Four tight, separated blobs with a little deterministic jitter: the
/// codebook settles within a few epochs, so warm certificates hit.
fn blobs(n: usize, dim: usize) -> Matrix {
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let base = (i % 4) as f64 * 20.0;
            (0..dim)
                .map(|d| base + ((i * 7 + d * 3) % 11) as f64 * 0.05 + d as f64)
                .collect()
        })
        .collect();
    Matrix::from_rows(&rows).unwrap()
}

/// One trained map's observable output: weight bits and the counters the
/// trainer reports, plus the whole trace fingerprint. The warm counters
/// are advisory (left out of the fingerprint) and differ between resident
/// and streamed runs, so they sit apart from what every entry point must
/// agree on.
#[derive(Debug, PartialEq)]
struct Run {
    weights: Vec<u64>,
    searches: Option<u64>,
    kernel_evals: Option<u64>,
    fingerprint: String,
}

/// A run's `(bmu_warm_hits, bmu_exact_rescans)` counters.
type WarmCounters = (Option<u64>, Option<u64>);

#[derive(Debug, Clone, Copy)]
enum Entry {
    Resident,
    StreamMatrix,
    StreamFile,
}

const EPOCHS: usize = 6;

fn train(
    builder: &SomBuilder,
    entry: Entry,
    data: &Matrix,
    file: &std::path::Path,
) -> (Run, WarmCounters) {
    // One sampled quality pass, on the last epoch, keeps the debug-build
    // run short while still covering the strip-wise quality pass.
    let collector = Collector::enabled_with(ObsConfig {
        epoch_quality_stride: EPOCHS,
        ..ObsConfig::default()
    });
    let som = match entry {
        Entry::Resident => builder.train_traced(data, &collector),
        Entry::StreamMatrix => builder.train_stream_traced(&mut &*data, &collector),
        Entry::StreamFile => {
            let mut source = CharVecFile::open(file).unwrap();
            builder.train_stream_traced(&mut source, &collector)
        }
    }
    .unwrap();
    let report = collector.report().unwrap();
    let run = Run {
        weights: som
            .weights()
            .as_slice()
            .iter()
            .map(|w| w.to_bits())
            .collect(),
        searches: report.counter("bmu_searches"),
        kernel_evals: report.counter("kernel_evaluations"),
        fingerprint: report.fingerprint(),
    };
    let warm = (
        report.counter("bmu_warm_hits"),
        report.counter("bmu_exact_rescans"),
    );
    (run, warm)
}

#[test]
fn batch_training_is_identical_for_every_worker_count_and_entry_point() {
    let file = std::env::temp_dir().join(format!("hm_batch_workers_{}.cvec", std::process::id()));
    // (rows, grid side): one strip under 4096 rows, exactly one full
    // strip, three strips with a ragged last chunk, and a map with more
    // units (17² = 289) than rows, whose kernel is evaluated on the fly
    // instead of read from the per-epoch table.
    let cases = [(300, 5), (4096, 5), (2 * 4096 + 37, 5), (280, 17)];
    let mut checked = 0;
    let mut euclidean_hits = 0;
    for (n, side) in cases {
        let data = blobs(n, 4);
        CharVecFile::write_matrix(&file, &data).unwrap();
        // Euclidean runs the blocked search, warm on resident input;
        // Manhattan runs the scalar scan, where the warm cache never
        // applies (it needs the triangle inequality of Euclidean distance).
        for metric in [Metric::Euclidean, Metric::Manhattan] {
            let builder = SomBuilder::new(side, side)
                .seed(5)
                .epochs(EPOCHS)
                // A fixed radius lets the codebook settle early, so the
                // warm cache certifies hits in the last epochs.
                .sigma(DecaySchedule::Linear {
                    start: 1.0,
                    end: 1.0,
                })
                .mode(TrainingMode::Batch)
                .initializer(Initializer::Random)
                .metric(metric);
            let mut reference: Option<Run> = None;
            let mut resident_warm: Option<WarmCounters> = None;
            for workers in [1, 2, 3, 7] {
                parallel::set_worker_override(Some(workers));
                for entry in [Entry::Resident, Entry::StreamMatrix, Entry::StreamFile] {
                    let (run, warm) = train(&builder, entry, &data, &file);
                    let searches = (EPOCHS * n) as u64;
                    assert!(
                        run.searches >= Some(searches),
                        "n={n}: {:?} searches, expected at least {searches}",
                        run.searches
                    );
                    let label = format!("n={n} side={side} {metric:?} workers={workers} {entry:?}");
                    match entry {
                        Entry::Resident => match &resident_warm {
                            None => resident_warm = Some(warm),
                            Some(r) => assert_eq!(
                                &warm, r,
                                "{label}: warm counters diverged from one worker"
                            ),
                        },
                        // The cold oracle: no warm cache, so nothing to
                        // count as a hit or a rescan.
                        Entry::StreamMatrix | Entry::StreamFile => {
                            assert_eq!(warm, (Some(0), Some(0)), "{label}: streamed run went warm");
                        }
                    }
                    match &reference {
                        None => reference = Some(run),
                        Some(r) => assert_eq!(
                            &run, r,
                            "{label} diverged from one worker on resident input"
                        ),
                    }
                    checked += 1;
                }
            }
            parallel::set_worker_override(None);
            let hits = resident_warm.and_then(|(hits, _)| hits).unwrap_or(0);
            match metric {
                Metric::Euclidean => euclidean_hits += hits,
                _ => assert_eq!(hits, 0, "n={n} side={side}: {metric:?} went warm"),
            }
        }
    }
    let _ = std::fs::remove_file(&file);
    assert_eq!(checked, 4 * 2 * 4 * 3);
    // Resident Euclidean training must actually answer searches from its
    // cache in some case, or the warm-vs-cold agreement would be vacuous.
    assert!(euclidean_hits > 0, "no warm hits on resident input");
}
