//! Epoch-warm and streaming equivalence guarantees for the batch trainer.
//!
//! Resident batch training ([`SomBuilder::train`]) runs the epoch-warm BMU
//! search: it skips a row's exact scan only when the drift bound *proves*
//! the cached BMU is the strict argmin the scan would return. Streamed
//! training ([`SomBuilder::train_stream`]) never builds the warm cache and
//! walks the resident trainer's exact chunk grid, so over the same rows
//! (`&Matrix` is a row source) it is the cold oracle: under random
//! initialization, the only initializer streaming supports, every
//! observable output — weights, BMU indices, distance bits — must be
//! **bitwise** identical, including across the 4096-row strip boundary.
//! Worker-count invariance of both paths is pinned in `batch_workers.rs`.

use hiermeans_linalg::distance::Metric;
use hiermeans_linalg::Matrix;
use hiermeans_obs::Collector;
use hiermeans_som::{Initializer, SomBuilder, TrainingMode};
use proptest::prelude::*;

fn finite_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-1e2..1e2f64, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data).expect("len matches"))
}

/// Two well-separated blobs: late-epoch codebook drift is tiny, so the warm
/// path actually certifies hits (the equivalence tests must not pass
/// vacuously with an all-miss cache).
fn blobs(n: usize, dim: usize) -> Matrix {
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let base = if i % 2 == 0 { 0.0 } else { 50.0 };
            (0..dim)
                .map(|d| base + ((i * dim + d) % 7) as f64 * 0.25)
                .collect()
        })
        .collect();
    Matrix::from_rows(&rows).unwrap()
}

proptest! {
    /// Resident batch training (epoch-warm for the Euclidean metric) and
    /// streamed batch training over the same rows (never warm) train the
    /// same map: weights, BMU indices and distance bits. Manhattan runs
    /// the scalar scan on both sides, where the warm cache never applies.
    #[test]
    fn resident_warm_training_matches_streamed_cold_training_bitwise(
        data in finite_matrix(20, 3),
        seed in 0u64..1000,
        epochs in 1usize..16,
        manhattan in 0u8..2,
    ) {
        let metric = if manhattan == 0 { Metric::Euclidean } else { Metric::Manhattan };
        let builder = SomBuilder::new(3, 4)
            .seed(seed)
            .epochs(epochs)
            .mode(TrainingMode::Batch)
            .initializer(Initializer::Random)
            .metric(metric);
        let warm = builder.train(&data).unwrap();
        let cold = builder.train_stream(&mut &data).unwrap();
        prop_assert_eq!(cold.weights().as_slice(), warm.weights().as_slice());
        // Same BMU indices and the same distance bits after training.
        prop_assert_eq!(
            cold.bmu_batch(&data).unwrap(),
            warm.bmu_batch(&data).unwrap()
        );
    }
}

/// The equivalence above must not hold vacuously: on settled data the warm
/// path really does answer searches from the cache, and every batch search
/// is accounted either as a hit or a rescan.
#[test]
fn warm_cache_actually_hits_and_accounts_for_every_search() {
    let data = blobs(24, 3);
    let epochs = 40;
    let collector = Collector::enabled();
    SomBuilder::new(4, 4)
        .seed(3)
        .epochs(epochs)
        .mode(TrainingMode::Batch)
        .train_traced(&data, &collector)
        .unwrap();
    let report = collector.report().unwrap();
    let hits = report.counter("bmu_warm_hits").unwrap();
    let rescans = report.counter("bmu_exact_rescans").unwrap();
    assert!(hits > 0, "no warm hits in {epochs} epochs on settled blobs");
    assert_eq!(
        hits + rescans,
        (data.nrows() * epochs) as u64,
        "every batch search must be either a warm hit or an exact rescan"
    );
}

/// Streaming at n past `STREAM_STRIP_ROWS` (4096): the Box–Muller state of
/// the initializer and the chunked accumulation must line up with the
/// resident path across strip boundaries.
#[test]
fn streaming_crosses_strip_boundaries_bitwise() {
    let data = blobs(5000, 3);
    let builder = || {
        SomBuilder::new(4, 4)
            .seed(21)
            .epochs(3)
            .mode(TrainingMode::Batch)
            .initializer(Initializer::Random)
    };
    let resident = builder().train(&data).unwrap();
    let mut source: &Matrix = &data;
    let streamed = builder().train_stream(&mut source).unwrap();
    assert_eq!(resident.weights().as_slice(), streamed.weights().as_slice());
}

#[test]
fn streaming_rejects_unsupported_configurations() {
    let data = blobs(10, 3);
    let mut source: &Matrix = &data;
    // Online mode samples rows at random — a sequential source cannot
    // serve it.
    let err = SomBuilder::new(3, 3)
        .seed(1)
        .epochs(5)
        .mode(TrainingMode::Online)
        .train_stream(&mut source)
        .unwrap_err();
    assert!(matches!(
        err,
        hiermeans_som::SomError::InvalidConfig { name: "mode", .. }
    ));
    // Non-finite streamed values fail the pass-0 guard.
    let mut bad = blobs(10, 3);
    bad[(4, 1)] = f64::NAN;
    let mut source: &Matrix = &bad;
    let err = SomBuilder::new(3, 3)
        .seed(1)
        .epochs(5)
        .mode(TrainingMode::Batch)
        .train_stream(&mut source)
        .unwrap_err();
    assert!(matches!(
        err,
        hiermeans_som::SomError::InvalidConfig { name: "stream", .. }
    ));
}
