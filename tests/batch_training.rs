//! Batch SOM training across the crate boundaries: the one strip-wise
//! trainer behind [`SomBuilder::train`], [`SomBuilder::train_stream`] and
//! [`train_som_streaming`], fed from the workload substrate's suites and
//! on-disk characteristic-vector files.
//!
//! A streamed map must recover planted structure, telemetry must not steer
//! training, every epoch must count its work the same way, and a streamed
//! run must fail cleanly — never panic — wherever its source misbehaves.
//! (Streamed ≡ resident bit equality and worker-count invariance are
//! pinned in the som crate's own tests.)

use hiermeans::cluster::{agglomerative, ClusterAssignment};
use hiermeans::core::pipeline::{train_som_streaming, PipelineConfig};
use hiermeans::core::CoreError;
use hiermeans::linalg::rows::{RowSource, RowSourceError};
use hiermeans::linalg::Matrix;
use hiermeans::obs::{Collector, ObsConfig};
use hiermeans::som::{Initializer, Som, SomBuilder, SomError, TrainingMode};
use hiermeans::workload::stream::CharVecFile;
use hiermeans::workload::synthetic::{gaussian_mixture, MixtureSpec};

/// A batch builder with random initialization, the one initializer that
/// resident and streamed training share.
fn batch(side: usize, epochs: usize) -> SomBuilder {
    SomBuilder::new(side, side)
        .seed(17)
        .epochs(epochs)
        .mode(TrainingMode::Batch)
        .initializer(Initializer::Random)
}

fn weight_bits(som: &Som) -> Vec<u64> {
    som.weights()
        .as_slice()
        .iter()
        .map(|w| w.to_bits())
        .collect()
}

/// A per-process scratch path, so concurrent test binaries never share it.
fn scratch_file(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("hm_batch_training_{}_{name}", std::process::id()))
}

#[test]
fn streamed_pipeline_som_recovers_planted_clusters() {
    let k = 6;
    let suite = gaussian_mixture(&MixtureSpec::separated(1500, 8, k, 3)).unwrap();
    let path = scratch_file("planted.cvec");
    CharVecFile::write_matrix(&path, &suite.points).unwrap();
    let mut source = CharVecFile::open(&path).unwrap();
    let som = train_som_streaming(&mut source, &PipelineConfig::scaled(suite.points.nrows()));
    let _ = std::fs::remove_file(&path);
    let som = som.unwrap();

    let config = PipelineConfig::default();
    let positions = som.project(&suite.points).unwrap();
    let dendrogram =
        agglomerative::cluster(&positions, config.linkage, &Collector::disabled()).unwrap();
    let planted = ClusterAssignment::from_labels(&suite.labels).unwrap();
    let agreement = dendrogram
        .cut_into(k)
        .unwrap()
        .rand_index(&planted)
        .unwrap();
    assert!(
        agreement >= 0.9,
        "streamed map recovers the planted clusters with Rand index {agreement}"
    );
}

#[test]
fn tracing_never_changes_batch_training() {
    let suite = gaussian_mixture(&MixtureSpec::separated(600, 5, 4, 29)).unwrap();
    let builder = batch(6, 8);
    let untraced = weight_bits(&builder.train(&suite.points).unwrap());
    // Quality sampled every epoch: the most telemetry a run can record,
    // including one extra strip-wise quality pass per epoch.
    let traced = |stream: bool| {
        let collector = Collector::enabled_with(ObsConfig {
            epoch_quality_stride: 1,
            ..ObsConfig::default()
        });
        let som = if stream {
            builder.train_stream_traced(&mut &suite.points, &collector)
        } else {
            builder.train_traced(&suite.points, &collector)
        };
        weight_bits(&som.unwrap())
    };
    assert_eq!(
        traced(false),
        untraced,
        "resident training changed under tracing"
    );
    assert_eq!(
        traced(true),
        untraced,
        "streamed training changed under tracing"
    );
}

#[test]
fn batch_training_counts_every_unit_pair_per_epoch() {
    let (n, side, epochs) = (700, 4, 5);
    let suite = gaussian_mixture(&MixtureSpec::separated(n, 3, 3, 8)).unwrap();
    let builder = batch(side, epochs);
    for stream in [false, true] {
        let collector = Collector::enabled();
        let som = if stream {
            builder.train_stream_traced(&mut &suite.points, &collector)
        } else {
            builder.train_traced(&suite.points, &collector)
        };
        som.unwrap();
        let report = collector.report().unwrap();
        // Every epoch's smoothing pass pairs every unit with every unit,
        // whether the kernel weight is evaluated or skipped.
        let units = side * side;
        assert_eq!(
            report.counter("kernel_evaluations"),
            Some((epochs * units * units) as u64),
            "stream = {stream}"
        );
        let searches = report.counter("bmu_searches").unwrap();
        assert!(searches >= (epochs * n) as u64, "{searches} BMU searches");
    }
}

/// Rows of the failure-injection suite: a full 4096-row strip and a
/// partial one, so every pass over the source makes two loads.
const FAILING_ROWS: usize = 5000;

/// Serves a resident matrix until its `fail_at`-th load (counted from 1
/// over the whole run), then fails that load and every later one.
struct FailingSource<'a> {
    rows: &'a Matrix,
    loads: usize,
    fail_at: usize,
    failed_at_row: Option<usize>,
}

impl RowSource for FailingSource<'_> {
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
        self.loads += 1;
        if self.loads >= self.fail_at {
            self.failed_at_row.get_or_insert(start);
            return Err(RowSourceError::new("device went away"));
        }
        let mut rows = self.rows;
        rows.load_rows(start, count, out)
    }
}

/// Streams the failure-injection suite through [`train_som_streaming`]
/// (3 batch epochs on a 4×4 map), failing from the `fail_at`-th load on.
/// Asserts the run surfaces the backend's error, and returns the first
/// row of the load that failed.
fn streamed_failure(fail_at: usize, collector: Collector) -> usize {
    let suite = gaussian_mixture(&MixtureSpec::separated(FAILING_ROWS, 4, 4, 2)).unwrap();
    let config = PipelineConfig {
        som_width: 4,
        som_height: 4,
        epochs: 3,
        training: TrainingMode::Batch,
        collector,
        ..PipelineConfig::default()
    };
    let mut source = FailingSource {
        rows: &suite.points,
        loads: 0,
        fail_at,
        failed_at_row: None,
    };
    match train_som_streaming(&mut source, &config) {
        Err(CoreError::Som(SomError::RowSource { detail })) => {
            assert!(detail.contains("device went away"), "{detail}");
        }
        other => panic!("load {fail_at}: expected a row-source error, got {other:?}"),
    }
    assert_eq!(
        source.loads, fail_at,
        "the run kept reading after a failure"
    );
    source.failed_at_row.unwrap()
}

// Loads 1–2 are the range pass that sizes the random initialization;
// each training epoch then makes two more (loads 3–4, 5–6, 7–8).

#[test]
fn streaming_surfaces_a_failure_in_the_range_pass() {
    assert_eq!(streamed_failure(2, Collector::disabled()), 4096);
}

#[test]
fn streaming_surfaces_a_failure_before_the_first_update() {
    assert_eq!(streamed_failure(3, Collector::disabled()), 0);
}

#[test]
fn streaming_surfaces_a_failure_in_a_later_strip_of_a_later_epoch() {
    // Epoch 1's second strip: one update and one strip of sums in.
    assert_eq!(streamed_failure(6, Collector::disabled()), 4096);
}

#[test]
fn streaming_surfaces_a_failure_in_the_sampled_quality_pass() {
    // Sampling quality every epoch adds one more pass per epoch, right
    // after the epoch's update: load 5 is epoch 0's quality pass, and load
    // 14 (of 2 + 3·4) is the last epoch's, which an unsampled run never
    // makes.
    let sampled = || {
        Collector::enabled_with(ObsConfig {
            epoch_quality_stride: 1,
            ..ObsConfig::default()
        })
    };
    assert_eq!(streamed_failure(5, sampled()), 0);
    assert_eq!(streamed_failure(14, sampled()), 4096);
}
