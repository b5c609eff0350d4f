//! Steady-state training epochs perform zero heap allocations.
//!
//! The trainers preallocate their scratch up front (the online trainer its
//! per-step distance rows; the batch trainer its strip and one
//! `BatchWorker` per worker, each with its row of unit distances), so on
//! the serial path every allocation happens during setup:
//! training for more epochs must allocate exactly as much as training for
//! one. The shared tracking allocator (`hiermeans_obs::memhook`) makes that
//! a hard test rather than a code-review claim.
//!
//! This lives in its own integration-test binary because a
//! `#[global_allocator]` is process-wide. Measurement uses
//! [`memhook::thread_probe`], which counts only the measuring thread — the
//! libtest harness's main thread lazily allocates its channel-blocking
//! context the first time a receive actually parks, a one-shot that must
//! not race into the measurement window. Training is pinned serial, so its
//! allocations all happen on this thread.

use hiermeans_linalg::{parallel, Matrix};
use hiermeans_obs::memhook::{self, TrackingAlloc};
use hiermeans_obs::{Collector, ObsConfig};
use hiermeans_som::{Initializer, SomBuilder, TrainingMode};

#[global_allocator]
static ALLOCATOR: TrackingAlloc = TrackingAlloc;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let ((), stats) = memhook::thread_probe(f);
    stats.allocs
}

fn sample_data() -> Matrix {
    // Small and fixed: n < the parallel threshold, so both trainers take
    // the serial scratch path this test is about.
    let rows: Vec<Vec<f64>> = (0..24)
        .map(|i| {
            let x = f64::from(i % 5);
            let y = f64::from(i / 5);
            vec![x, y * 0.5, x * 0.25 + y]
        })
        .collect();
    Matrix::from_rows(&rows).unwrap()
}

fn allocations_for(mode: TrainingMode, epochs: usize) -> u64 {
    let data = sample_data();
    allocations_during(|| {
        let som = SomBuilder::new(4, 4)
            .seed(11)
            .epochs(epochs)
            .mode(mode)
            .train(&data)
            .unwrap();
        std::hint::black_box(&som);
    })
}

/// Traced training under `config`. Memory telemetry stays off in every
/// caller: the window measures the trainer, not the telemetry's own span
/// bookkeeping.
fn allocations_traced(mode: TrainingMode, epochs: usize, config: ObsConfig) -> u64 {
    let data = sample_data();
    allocations_during(|| {
        let collector = Collector::enabled_with(config);
        let som = SomBuilder::new(4, 4)
            .seed(11)
            .epochs(epochs)
            .mode(mode)
            .train_traced(&data, &collector)
            .unwrap();
        std::hint::black_box(&som);
        std::hint::black_box(&collector);
    })
}

fn allocations_for_stream(epochs: usize) -> u64 {
    let data = sample_data();
    allocations_during(|| {
        let som = SomBuilder::new(4, 4)
            .seed(11)
            .epochs(epochs)
            .mode(TrainingMode::Batch)
            .initializer(Initializer::Random)
            .train_stream(&mut &data)
            .unwrap();
        std::hint::black_box(&som);
    })
}

/// Training for many epochs allocates exactly as much as training for one:
/// all per-epoch work runs on preallocated scratch.
#[test]
fn steady_state_epochs_allocate_nothing() {
    // Pin to one worker so the serial path is taken regardless of the
    // machine the test runs on.
    parallel::set_worker_override(Some(1));
    for mode in [TrainingMode::Online, TrainingMode::Batch] {
        // Warm-up run absorbs one-time lazy initialization anywhere in the
        // process (thread-local RNG state, allocator internals).
        allocations_for(mode, 1);
        let one = allocations_for(mode, 1);
        let many = allocations_for(mode, 51);
        assert_eq!(
            many, one,
            "{mode:?}: 51 epochs allocated {many}, 1 epoch {one} — \
             steady-state epochs must not allocate"
        );
    }
    parallel::set_worker_override(None);
}

/// The same guarantee holds with worker-lane recording enabled: per-chunk
/// interval records land in buffers preallocated for the full run, so an
/// epoch's lane bookkeeping is clock reads and in-capacity pushes only.
/// It holds with a quality record every epoch too: each record's searches
/// run on the trainer's scratch, the records land in a buffer sized for
/// the run, and the collector receives them once, when training ends.
#[test]
fn steady_state_epochs_allocate_nothing_with_lanes_enabled() {
    // Quality sampling off is the configuration `repro profile` uses for
    // timing-faithful traces; stride 1 is the default. The lane buffers
    // are sized for the whole run up front, so the allocation *count* must
    // not depend on the epoch count even though the buffers themselves
    // scale.
    parallel::set_worker_override(Some(1));
    for stride in [0, 1] {
        let config = ObsConfig {
            epoch_quality_stride: stride,
            lanes: true,
            memory: false,
            ..ObsConfig::default()
        };
        for mode in [TrainingMode::Online, TrainingMode::Batch] {
            allocations_traced(mode, 1, config);
            let one = allocations_traced(mode, 1, config);
            let many = allocations_traced(mode, 51, config);
            assert_eq!(
                many, one,
                "{mode:?} with lanes, quality stride {stride}: 51 epochs allocated {many}, \
                 1 epoch {one} — traced epochs must not allocate in steady state"
            );
        }
    }
    parallel::set_worker_override(None);
}

/// The streaming trainer reuses one strip buffer and the same scratch:
/// steady-state streamed epochs allocate nothing either.
#[test]
fn steady_state_stream_epochs_allocate_nothing() {
    parallel::set_worker_override(Some(1));
    allocations_for_stream(1);
    let one = allocations_for_stream(1);
    let many = allocations_for_stream(51);
    assert_eq!(
        many, one,
        "stream: 51 epochs allocated {many}, 1 epoch {one} — \
         streamed epochs must run on the preallocated strip and scratch"
    );
    parallel::set_worker_override(None);
}
