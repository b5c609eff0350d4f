//! The streaming trainer's bounded-memory guarantee, as a hard test.
//!
//! Out-of-core SOM training must hold peak heap under a fixed ceiling that
//! does not grow with `n`: the codebook, one 4096-row strip, and the batch
//! accumulators — never the `n × dim` matrix. The shared tracking
//! allocator (`hiermeans_obs::memhook`) measures the peak of new bytes
//! held at once across the whole training call, so a regression that
//! materializes the corpus (or buffers a whole epoch) fails loudly.
//!
//! This lives in its own integration-test binary because a
//! `#[global_allocator]` is process-wide.

use std::sync::{Mutex, PoisonError};

use hiermeans_core::pipeline::{train_som_streaming, PipelineConfig};
use hiermeans_linalg::parallel;
use hiermeans_obs::memhook::{self, TrackingAlloc};
use hiermeans_som::WarmStart;
use hiermeans_workload::stream::SyntheticRowSource;
use hiermeans_workload::synthetic::MixtureSpec;

#[global_allocator]
static ALLOCATOR: TrackingAlloc = TrackingAlloc;

/// Held by every ceiling run: the measurement window and the worker
/// override are both process-wide, so runs must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn ceiling_run(n: usize, dim: usize, ceiling_bytes: i64, workers: Option<usize>) {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    parallel::set_worker_override(workers);
    let spec = MixtureSpec::separated(n, dim, 8, 0x5CA1E);
    let config = PipelineConfig {
        som_width: 4,
        som_height: 4,
        epochs: 2,
        training: hiermeans_som::TrainingMode::Batch,
        // The warm cache is the one O(n) structure the streaming trainer
        // may keep; drop it for a strictly n-free ceiling.
        warm_start: WarmStart::Disabled,
        ..PipelineConfig::default()
    };
    let (som, peak) = memhook::global_window(|| {
        let mut source = SyntheticRowSource::new(spec).expect("valid spec");
        train_som_streaming(&mut source, &config).expect("streaming training succeeds")
    });
    parallel::set_worker_override(None);
    assert_eq!(som.weights().nrows(), 16, "4x4 codebook");
    let dense_bytes = (n * dim * std::mem::size_of::<f64>()) as i64;
    assert!(
        dense_bytes >= 4 * ceiling_bytes,
        "test misconfigured: the ceiling must actually exclude a resident matrix \
         (dense {dense_bytes} B vs ceiling {ceiling_bytes} B)"
    );
    assert!(
        peak <= ceiling_bytes,
        "streaming training peaked at {peak} B, over the {ceiling_bytes} B ceiling \
         (a resident matrix would need {dense_bytes} B)"
    );
}

/// Debug-friendly scale: 65 536 × 64 rows would need 32 MiB resident;
/// streaming must stay under 8 MiB.
#[test]
fn streaming_som_trains_under_a_fixed_memory_ceiling() {
    ceiling_run(1 << 16, 64, 8 << 20, None);
}

/// The same case on four workers, under the same ceiling: each worker
/// adds one search buffer and one `units × dim` partial, nothing that
/// grows with `n` or with the chunk count.
#[test]
fn streaming_som_on_four_workers_stays_under_the_same_ceiling() {
    ceiling_run(1 << 16, 64, 8 << 20, Some(4));
}

/// The acceptance-scale run: one million rows (512 MiB dense) under the
/// same strip-sized footprint. Ignored by default — it is compute-heavy in
/// debug builds; CI and the bench harness run it in release via
/// `cargo test --release -p hiermeans-core --test stream_memory -- --ignored`.
#[test]
#[ignore = "release-scale acceptance run; dense equivalent is 512 MiB"]
fn streaming_som_trains_a_million_rows_under_ceiling() {
    ceiling_run(1_000_000, 64, 16 << 20, None);
}
