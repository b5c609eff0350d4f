//! Resident and streamed equivalence guarantees for the batch trainer.
//!
//! Resident batch training ([`SomBuilder::train`]) and streamed training
//! ([`SomBuilder::train_stream`]) run one strip-wise trainer over the same
//! chunk grid. Over the same rows (`&Matrix` is a row source) and under
//! random initialization, the only initializer streaming supports, every
//! observable output — weights, BMU indices, distance bits — must be
//! **bitwise** identical, including across the 4096-row strip boundary.
//! Worker-count invariance of both paths is pinned in `batch_workers.rs`.

use hiermeans_linalg::Matrix;
use hiermeans_som::{Initializer, SomBuilder, TrainingMode};
use proptest::prelude::*;

fn finite_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-1e2..1e2f64, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data).expect("len matches"))
}

/// Two well-separated blobs.
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
    /// Resident and streamed batch training over the same rows train the
    /// same map: weights, BMU indices and distance bits.
    #[test]
    fn resident_training_matches_streamed_training_bitwise(
        data in finite_matrix(20, 3),
        seed in 0u64..1000,
        epochs in 1usize..16,
    ) {
        let builder = SomBuilder::new(3, 4)
            .seed(seed)
            .epochs(epochs)
            .mode(TrainingMode::Batch)
            .initializer(Initializer::Random);
        let resident = builder.train(&data).unwrap();
        let streamed = builder.train_stream(&mut &data).unwrap();
        prop_assert_eq!(streamed.weights().as_slice(), resident.weights().as_slice());
        // Same BMU indices and the same distance bits after training.
        prop_assert_eq!(
            streamed.bmu_batch(&data).unwrap(),
            resident.bmu_batch(&data).unwrap()
        );
    }
}

/// Streaming at n past `STREAM_STRIP_ROWS` (4096): the Box–Muller state of
/// the initializer and the row-order Voronoi sums must line up with the
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
