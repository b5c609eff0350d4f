//! Peak-allocation proof that the owning NN-chain entry consumes its
//! distance matrix in place — and that span-level memory telemetry agrees
//! with the proof.
//!
//! The shared tracking allocator (`hiermeans_obs::memhook`) replaces the
//! hand-rolled counting allocator this test used to carry:
//! [`memhook::global_window`] tracks process-wide live/peak heap bytes
//! inside a measurement window. [`cluster_nn_chain_owned`] receives a
//! matrix allocated outside the window, so a clone would show up as a
//! window peak of the matrix's size. A memory-enabled collector runs
//! alongside, and its per-stage high-water mark must respect the same
//! ceiling the window proves — the telemetry is only worth shipping if it
//! reports the truth the test already knows.
//!
//! Everything lives in ONE `#[test]` so no sibling test's allocations leak
//! into the measurement window.

use hiermeans_cluster::nnchain::cluster_nn_chain_owned;
use hiermeans_cluster::Linkage;
use hiermeans_linalg::distance::pairwise;
use hiermeans_linalg::Matrix;
use hiermeans_obs::memhook::{self, TrackingAlloc};
use hiermeans_obs::{Collector, ObsConfig};

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

fn lcg_points(n: usize, dim: usize, mut state: u64) -> Matrix {
    let data: Vec<f64> = (0..n * dim)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        })
        .collect();
    Matrix::from_vec(n, dim, data).unwrap()
}

#[test]
fn owned_nn_chain_never_clones_its_matrix_and_telemetry_agrees() {
    // A 1024×1024 f64 matrix is 8 MiB. The chain stack, active list and
    // merge log are all O(n), so a window peak of half the matrix already
    // means an n² buffer snuck in.
    let m = 1024;
    let small = lcg_points(m, 4, 0xDEAD_BEEF);
    let dist = pairwise(&small).unwrap();
    let matrix_bytes = (m * m * std::mem::size_of::<f64>()) as i64;
    let ceiling = matrix_bytes / 2;

    // The clustering runs inside the window and inside a `pipeline.cluster`
    // span of a memory-enabled collector: the window proves the ceiling,
    // and the span telemetry must agree with it.
    let collector = Collector::enabled_with(ObsConfig {
        memory: true,
        ..ObsConfig::default()
    });
    let (dendro, chain_peak) = memhook::global_window(|| {
        let _span = collector.span("pipeline.cluster");
        cluster_nn_chain_owned(dist, Linkage::Complete, &Collector::disabled()).unwrap()
    });
    assert_eq!(dendro.merges().len(), m - 1);
    assert!(
        chain_peak < ceiling,
        "owned NN-chain peak {chain_peak} B suggests the {matrix_bytes} B matrix was cloned"
    );

    let report = collector.report().unwrap();
    let memory = report.memory.as_ref().expect("memory telemetry enabled");
    let stage = memory
        .stages
        .iter()
        .find(|s| s.stage == "pipeline.cluster")
        .expect("span attribution for the clustering stage");
    assert!(stage.allocs > 0, "NN-chain setup must allocate: {stage:?}");
    assert!(
        (stage.peak_bytes as i64) < ceiling,
        "telemetry peak {} B disagrees with the counting-window ceiling {ceiling} B",
        stage.peak_bytes
    );
}
