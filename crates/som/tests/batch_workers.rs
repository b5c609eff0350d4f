//! The batch trainer's result does not depend on the worker count.
//!
//! Within each strip, batch workers claim 64-row chunks and search their
//! BMUs, and each chunk's rows are added into the Voronoi sums in
//! ascending chunk order. Every bit of the trained map must therefore be
//! the same for any worker count, for resident input
//! ([`SomBuilder::train`]) and streamed input alike (`train_stream` over a
//! `&Matrix` or a [`CharVecFile`]), and the three entry points must agree
//! with each other.
//!
//! This lives in its own integration-test binary because
//! [`parallel::set_worker_override`] is process-global: every case runs
//! inside the one `#[test]` below, so no other test can change the worker
//! count mid-run.

use hiermeans_linalg::{parallel, Matrix};
use hiermeans_obs::{Collector, ObsConfig};
use hiermeans_som::{DecaySchedule, Initializer, SomBuilder, TrainingMode};
use hiermeans_workload::stream::CharVecFile;

/// Four tight, separated blobs with a little deterministic jitter.
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
/// trainer reports, plus the whole trace fingerprint.
#[derive(Debug, PartialEq)]
struct Run {
    weights: Vec<u64>,
    searches: Option<u64>,
    kernel_evals: Option<u64>,
    fingerprint: String,
}

#[derive(Debug, Clone, Copy)]
enum Entry {
    Resident,
    StreamMatrix,
    StreamFile,
}

const EPOCHS: usize = 6;

fn train(builder: &SomBuilder, entry: Entry, data: &Matrix, file: &std::path::Path) -> Run {
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
    Run {
        weights: som
            .weights()
            .as_slice()
            .iter()
            .map(|w| w.to_bits())
            .collect(),
        searches: report.counter("bmu_searches"),
        kernel_evals: report.counter("kernel_evaluations"),
        fingerprint: report.fingerprint(),
    }
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
    for (n, side) in cases {
        let data = blobs(n, 4);
        CharVecFile::write_matrix(&file, &data).unwrap();
        let builder = SomBuilder::new(side, side)
            .seed(5)
            .epochs(EPOCHS)
            // A fixed radius lets the codebook settle early.
            .sigma(DecaySchedule::Linear {
                start: 1.0,
                end: 1.0,
            })
            .mode(TrainingMode::Batch)
            .initializer(Initializer::Random);
        let mut reference: Option<Run> = None;
        for workers in [1, 2, 3, 7] {
            parallel::set_worker_override(Some(workers));
            for entry in [Entry::Resident, Entry::StreamMatrix, Entry::StreamFile] {
                let run = train(&builder, entry, &data, &file);
                let searches = (EPOCHS * n) as u64;
                assert!(
                    run.searches >= Some(searches),
                    "n={n}: {:?} searches, expected at least {searches}",
                    run.searches
                );
                let label = format!("n={n} side={side} workers={workers} {entry:?}");
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
    }
    let _ = std::fs::remove_file(&file);
    assert_eq!(checked, 4 * 4 * 3);
}
