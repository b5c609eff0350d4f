//! The clustering stage's memory follows occupied map cells, not rows.
//!
//! `agglomerative::cluster` links the U distinct map positions as sized
//! leaves, so `pipeline.cluster` holds a U × U distance matrix and O(n)
//! bookkeeping (row → cell labels and the n − 1 expanded merges) instead
//! of an n × n matrix. A memory-enabled collector reports the stage's
//! high-water mark; these tests hold it to ceilings a row-level matrix
//! could not meet.
//!
//! This lives in its own integration-test binary because a
//! `#[global_allocator]` is process-wide.

use hiermeans::core::pipeline::{run_pipeline, PipelineConfig};
use hiermeans::obs::memhook::TrackingAlloc;
use hiermeans::obs::{stages, Collector, ObsConfig};
use hiermeans::workload::synthetic::{gaussian_mixture, MixtureSpec};

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

/// Runs the scaled pipeline on a planted mixture of `n` rows and asserts
/// that the `pipeline.cluster` peak heap stays under `ceiling` bytes.
fn assert_cluster_peak_under(n: usize, ceiling: u64) {
    let planted = gaussian_mixture(&MixtureSpec::separated(n, 16, 8, 7)).unwrap();
    let collector = Collector::enabled_with(ObsConfig {
        memory: true,
        ..ObsConfig::default()
    });
    let config = PipelineConfig {
        collector: collector.clone(),
        ..PipelineConfig::scaled(n)
    };
    let result = run_pipeline(&planted.points, &config).unwrap();
    assert_eq!(result.dendrogram().n_leaves(), n);
    let report = collector.report().unwrap();
    let memory = report.memory.as_ref().expect("memory telemetry enabled");
    let stage = memory
        .stages
        .iter()
        .find(|s| s.stage == stages::PIPELINE_CLUSTER)
        .expect("span attribution for the clustering stage");
    let row_matrix = (n * n * std::mem::size_of::<f64>()) as u64;
    assert!(
        row_matrix >= 16 * ceiling,
        "test misconfigured: the ceiling must exclude a row-level matrix"
    );
    assert!(
        stage.peak_bytes < ceiling,
        "pipeline.cluster peaked at {} B at n = {n}, over the {ceiling} B ceiling \
         (a row-level distance matrix is {row_matrix} B)",
        stage.peak_bytes
    );
}

#[test]
fn clustering_1024_rows_stays_under_512_kib() {
    assert_cluster_peak_under(1024, 512 << 10);
}

#[test]
#[ignore = "release-scale acceptance run; a row-level matrix would be 2 GiB"]
fn clustering_16384_rows_stays_under_4_mib() {
    assert_cluster_peak_under(16_384, 4 << 20);
}
