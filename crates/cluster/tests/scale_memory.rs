//! Peak-allocation proof that the scalable paths never materialize n×n —
//! and that span-level memory telemetry agrees with the proof.
//!
//! The shared tracking allocator (`hiermeans_obs::memhook`) replaces the
//! hand-rolled counting allocator this test used to carry:
//! [`memhook::global_window`] tracks process-wide live/peak heap bytes
//! inside a measurement window. The scalable linkage algorithms
//! ([`cluster_slink`], [`cluster_sequential_complete`]) run at a size whose
//! dense distance matrix would dwarf the asserted ceiling, and the owning
//! NN-chain entry is shown to consume its matrix in place rather than
//! cloning it. A memory-enabled collector runs alongside, and its per-stage
//! high-water mark must respect the same < 16 MiB bound the window proves —
//! the telemetry is only worth shipping if it reports the truth the test
//! already knows.
//!
//! Everything lives in ONE `#[test]` so no sibling test's allocations leak
//! into the measurement window.

use hiermeans_cluster::nnchain::cluster_nn_chain_owned;
use hiermeans_cluster::scalable::{cluster_sequential_complete, cluster_slink};
use hiermeans_cluster::Linkage;
use hiermeans_linalg::distance::{pairwise, Metric};
use hiermeans_linalg::Matrix;
use hiermeans_obs::memhook::{self, TrackingAlloc};
use hiermeans_obs::{Collector, ObsConfig};

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

/// Run `f` inside a fresh measurement window; returns (result, peak bytes).
fn measured<T>(f: impl FnOnce() -> T) -> (T, i64) {
    memhook::global_window(f)
}

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
fn scalable_paths_never_materialize_n_squared() {
    // --- Scenario A: SLINK + sequential-complete at n = 4096. ---
    // A dense 4096×4096 f64 matrix is 128 MiB; anything near that inside
    // the window means an n² buffer snuck in. The real footprint is a few
    // O(n) vectors plus one tile row, so 16 MiB is already generous.
    let n = 4096;
    let pts = lcg_points(n, 4, 0x5EED_CAFE);
    let dense_bytes = (n * n * std::mem::size_of::<f64>()) as i64;
    let ceiling = 16 << 20; // 16 MiB
    assert!(ceiling * 8 <= dense_bytes, "ceiling must rule out dense n²");

    // SLINK runs under a memory-enabled collector: the global window proves
    // the ceiling, and the span telemetry must agree with it.
    let collector = Collector::enabled_with(ObsConfig {
        memory: true,
        ..ObsConfig::default()
    });
    let (slink, slink_peak) = measured(|| {
        let _span = collector.span("pipeline.cluster");
        cluster_slink(&pts, Metric::Euclidean).unwrap()
    });
    assert_eq!(slink.merges().len(), n - 1);
    assert!(
        slink_peak < ceiling,
        "SLINK peak {slink_peak} B >= {ceiling} B (dense would be {dense_bytes} B)"
    );
    let report = collector.report().unwrap();
    let memory = report.memory.as_ref().expect("memory telemetry enabled");
    let stage = memory
        .stages
        .iter()
        .find(|s| s.stage == "pipeline.cluster")
        .expect("span attribution for the clustering stage");
    assert!(stage.allocs > 0, "SLINK setup must allocate: {stage:?}");
    assert!(
        (stage.peak_bytes as i64) < ceiling,
        "telemetry peak {} B disagrees with the counting-window ceiling {ceiling} B",
        stage.peak_bytes
    );

    let (seq, seq_peak) =
        measured(|| cluster_sequential_complete(&pts, Metric::Euclidean).unwrap());
    assert_eq!(seq.merges().len(), n - 1);
    assert!(
        seq_peak < ceiling,
        "sequential-complete peak {seq_peak} B >= {ceiling} B (dense would be {dense_bytes} B)"
    );

    // --- Scenario B: the owning NN-chain entry must not clone its input. ---
    // Hand it a 1024×1024 matrix allocated OUTSIDE the window; if the
    // algorithm cloned it, the in-window peak would jump by ~8 MiB. The
    // chain stack, active list, and merge log are all O(n).
    let m = 1024;
    let small = lcg_points(m, 4, 0xDEAD_BEEF);
    let dist = pairwise(&small, Metric::Euclidean).unwrap();
    let matrix_bytes = (m * m * std::mem::size_of::<f64>()) as i64;
    let (dendro, chain_peak) = measured(|| {
        cluster_nn_chain_owned(dist, Linkage::Complete, &Collector::disabled()).unwrap()
    });
    assert_eq!(dendro.merges().len(), m - 1);
    assert!(
        chain_peak < matrix_bytes / 2,
        "owned NN-chain peak {chain_peak} B suggests the {matrix_bytes} B matrix was cloned"
    );
}
