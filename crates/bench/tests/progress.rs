//! The progress file a run writes through `Collector::enabled_live`.
//!
//! A streamed batch SOM run is read while it trains: at the start of every
//! pass over the rows, the file already holds an `Epoch` line for each
//! finished epoch plus that epoch's `Strip` lines, and nothing of the
//! epochs still to come. Writing the file changes no output bit: codebooks
//! and trace fingerprints are equal with progress on and off.

use std::path::{Path, PathBuf};

use hiermeans_linalg::rows::{RowSource, RowSourceError};
use hiermeans_linalg::Matrix;
use hiermeans_obs::{Collector, ObsConfig, ProgressEvent, ProgressLog};
use hiermeans_som::{Initializer, SomBuilder, TrainingMode};

/// Enough rows that each epoch spans several of the trainer's 4096-row
/// strips.
const ROWS: usize = 20_000;
const EPOCHS: usize = 3;
const STRIPS_PER_EPOCH: usize = ROWS.div_ceil(4096);
const LABEL: &str = "progress_test";

/// Deterministic five-blob data: the same bytes on every call, so paired
/// progress-on and progress-off runs see identical inputs.
fn blobs(n: usize, dim: usize) -> Matrix {
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..dim)
                .map(|j| {
                    let x = (i * dim + j) as f64;
                    (x * 0.618_033_9).sin() * 3.0 + (i % 5) as f64
                })
                .collect()
        })
        .collect();
    Matrix::from_rows(&rows).expect("finite deterministic data")
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hm_progress_{name}_{}", std::process::id()))
}

fn read_events(path: &Path) -> Vec<ProgressEvent> {
    std::fs::read_to_string(path)
        .expect("progress file readable")
        .lines()
        .map(|line| serde_json::from_str(line).expect("every line is one whole event"))
        .collect()
}

/// Asserts the file holds exactly the events of epochs `0..finished`: one
/// `Epoch` line each, and each epoch's strips in order before it.
fn assert_finished_epochs(events: &[ProgressEvent], finished: usize) {
    let mut expected = Vec::new();
    for epoch in 0..finished {
        for strip in 0..STRIPS_PER_EPOCH {
            expected.push(format!("strip {epoch}.{strip}"));
        }
        expected.push(format!("epoch {epoch}"));
    }
    let seen: Vec<String> = events
        .iter()
        .map(|event| match event {
            ProgressEvent::Epoch {
                study,
                epoch,
                total_epochs,
                eta_us,
                ..
            } => {
                assert_eq!((study.as_str(), *total_epochs), (LABEL, EPOCHS));
                assert!(eta_us.is_some(), "epoch {epoch} has no ETA");
                format!("epoch {epoch}")
            }
            ProgressEvent::Strip {
                study,
                epoch,
                strip,
                total_strips,
            } => {
                assert_eq!((study.as_str(), *total_strips), (LABEL, STRIPS_PER_EPOCH));
                format!("strip {epoch}.{strip}")
            }
            other => panic!("unexpected event {other:?}"),
        })
        .collect();
    assert_eq!(seen, expected, "progress after {finished} finished epochs");
}

/// A `&Matrix` row source that reads the progress file whenever a pass
/// over the rows begins (a load from row 0).
struct Watching<'a> {
    rows: &'a Matrix,
    progress: &'a Path,
    passes: usize,
}

impl RowSource for Watching<'_> {
    fn nrows(&self) -> usize {
        self.rows.nrows()
    }

    fn ncols(&self) -> usize {
        self.rows.ncols()
    }

    fn load_rows(
        &mut self,
        start: usize,
        count: usize,
        out: &mut [f64],
    ) -> Result<(), RowSourceError> {
        if start == 0 {
            // Pass 0 folds the column ranges; pass p >= 1 trains epoch
            // p - 1, so epochs 0..p-1 have ended.
            let finished = self.passes.saturating_sub(1);
            assert_finished_epochs(&read_events(self.progress), finished);
            self.passes += 1;
        }
        let mut rows = self.rows;
        rows.load_rows(start, count, out)
    }
}

#[test]
fn streamed_run_progress_is_read_mid_run_and_changes_no_output() {
    let data = blobs(ROWS, 8);
    let builder = SomBuilder::new(6, 5)
        .seed(7)
        .epochs(EPOCHS)
        .mode(TrainingMode::Batch)
        .initializer(Initializer::Random);
    // Quality sampling off: no extra pass over the rows, and `Epoch`
    // lines carry no QE.
    let config = ObsConfig {
        epoch_quality_stride: 0,
        lanes: false,
        memory: false,
        ..ObsConfig::default()
    };

    let off = Collector::enabled_with(config);
    let som_off = builder
        .train_stream_traced(&mut &data, &off)
        .expect("progress-off run");
    let report_off = off.report().expect("enabled collector reports");

    let path = scratch("stream.jsonl");
    let log = ProgressLog::create(&path).expect("progress file");
    let on = Collector::enabled_live(config, log.publisher(LABEL));
    let mut source = Watching {
        rows: &data,
        progress: &path,
        passes: 0,
    };
    let som_on = builder
        .train_stream_traced(&mut source, &on)
        .expect("progress-on run");
    let report_on = on.report().expect("enabled collector reports");
    assert_eq!(source.passes, EPOCHS + 1, "range pass plus one per epoch");

    // After the run: exactly one `Epoch` line per epoch, strips included.
    assert_finished_epochs(&read_events(&path), EPOCHS);
    assert_eq!(
        log.summary(),
        format!(
            "wrote {} progress events to {}",
            EPOCHS * (STRIPS_PER_EPOCH + 1),
            path.display()
        )
    );
    let _ = std::fs::remove_file(&path);

    assert_eq!(
        som_on.weights(),
        som_off.weights(),
        "progress perturbed the codebook"
    );
    assert_eq!(
        report_on.fingerprint(),
        report_off.fingerprint(),
        "progress perturbed the trace fingerprint"
    );
}

#[test]
fn store_ingestion_publishes_ingest_events() {
    use hiermeans_store::{ingest_submissions, synthetic_fleet, IngestConfig, ResultStore};

    let dir = scratch("ingest");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let store_path = dir.join("fleet.jsonl");
    let store = ResultStore::new(&store_path);
    for p in [
        store_path.clone(),
        store.quarantine_path(),
        store.lock_path(),
    ] {
        let _ = std::fs::remove_file(p);
    }

    let progress = dir.join("progress.jsonl");
    let log = ProgressLog::create(&progress).expect("progress file");
    let collector = Collector::enabled_live(ObsConfig::default(), log.publisher("fleet.jsonl"));
    let fleet = synthetic_fleet(3, 9).expect("synthetic fleet");
    let report = ingest_submissions(&store, &fleet, &IngestConfig::default(), &collector)
        .expect("ingest succeeds");
    assert_eq!(report.accepted(), 3);

    let totals: Vec<(String, u64, u64)> = read_events(&progress)
        .into_iter()
        .map(|event| match event {
            ProgressEvent::Ingest {
                store,
                accepted,
                rejected,
            } => (store, accepted, rejected),
            other => panic!("unexpected event {other:?}"),
        })
        .collect();
    assert_eq!(
        totals.last(),
        Some(&("fleet.jsonl".to_owned(), 3, 0)),
        "ingest totals never reached the batch: {totals:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
