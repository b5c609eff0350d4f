//! End-to-end naive ≡ NN-chain ≡ cell-level equivalence and large-n
//! recovery.
//!
//! Three gates for the large-n clustering path:
//!
//! 1. On the map positions of the paper's three studies, the naive loop
//!    ([`cluster_from_distances`], the oracle) and NN-chain
//!    ([`cluster_nn_chain_owned`], the loop `cluster` runs for complete
//!    linkage) must be bit-for-bit identical to each other and to the
//!    studies' dendrograms — every paper cut and the merge-loop trace
//!    fingerprint included. Complete linkage is a pure max selection and
//!    NN-chain emits its merges in the naive loop's tie order, so the
//!    NN-chain history is the naive history exactly.
//! 2. At n ≈ 2k — far past where the naive loop is practical — the scaled
//!    pipeline, which runs NN-chain, must still recover planted structure
//!    from a synthetic Gaussian mixture.
//! 3. The scaled pipeline clusters occupied map cells, not rows. Its merge
//!    heights and every cut into k ≤ U clusters (U = occupied cells) must
//!    equal the row-level path's: NN-chain over every row's distances.

use hiermeans_cluster::agglomerative::cluster_from_distances;
use hiermeans_cluster::nnchain::cluster_nn_chain_owned;
use hiermeans_cluster::{Dendrogram, Linkage};
use hiermeans_core::analysis::{SuiteAnalysis, K_RANGE};
use hiermeans_core::pipeline::{run_pipeline, PipelineConfig};
use hiermeans_linalg::distance::pairwise;
use hiermeans_obs::Collector;
use hiermeans_workload::measurement::Characterization;
use hiermeans_workload::synthetic::{gaussian_mixture, MixtureSpec};
use hiermeans_workload::Machine;

fn paper_studies() -> Vec<(&'static str, Characterization)> {
    vec![
        ("sar_machine_a", Characterization::SarCounters(Machine::A)),
        ("sar_machine_b", Characterization::SarCounters(Machine::B)),
        ("method_utilization", Characterization::MethodUtilization),
    ]
}

#[test]
fn nn_chain_matches_naive_on_all_paper_studies() {
    for (label, characterization) in paper_studies() {
        let analysis = SuiteAnalysis::paper(characterization).expect("paper study runs");
        let pipeline = analysis.pipeline();
        let config = PipelineConfig::default();
        let dist = pairwise(pipeline.positions()).unwrap();

        let naive_trace = Collector::enabled();
        let naive = cluster_from_distances(&dist, config.linkage, &naive_trace).unwrap();
        let chain_trace = Collector::enabled();
        let chain = cluster_nn_chain_owned(dist, config.linkage, &chain_trace).unwrap();

        assert_eq!(
            &naive,
            pipeline.dendrogram(),
            "{label}: the naive loop's dendrogram is not the pipeline's"
        );
        assert_eq!(naive, chain, "{label}: dendrograms diverged");
        let max_k = (*K_RANGE.end()).min(analysis.suite().len());
        for k in *K_RANGE.start()..=max_k {
            assert_eq!(
                naive.cut_into(k).unwrap(),
                chain.cut_into(k).unwrap(),
                "{label}: cluster assignment at k={k} diverged"
            );
        }
        assert_eq!(
            naive_trace.report().unwrap().fingerprint(),
            chain_trace.report().unwrap().fingerprint(),
            "{label}: merge-loop trace fingerprints diverged"
        );
    }
}

#[test]
fn scaled_pipeline_cuts_match_the_row_level_path() {
    for n in [256, 1024] {
        for seed in [1, 2] {
            let planted = gaussian_mixture(&MixtureSpec::separated(n, 16, 8, seed)).unwrap();
            let result = run_pipeline(&planted.points, &PipelineConfig::scaled(n)).unwrap();
            let positions = result.positions();
            let dist = pairwise(positions).unwrap();
            let rows =
                cluster_nn_chain_owned(dist, Linkage::Complete, &Collector::disabled()).unwrap();
            let cells = result.dendrogram();
            let heights = |d: &Dendrogram| -> Vec<u64> {
                d.merges().iter().map(|m| m.distance.to_bits()).collect()
            };
            assert_eq!(heights(cells), heights(&rows), "n = {n}, seed {seed}");
            let u = 1 + cells.merges().iter().filter(|m| m.distance > 0.0).count();
            assert!(u < n / 4, "n = {n}, seed {seed}: {u} occupied cells");
            for k in 1..=u {
                assert_eq!(
                    cells.cut_into(k).unwrap(),
                    rows.cut_into(k).unwrap(),
                    "n = {n}, seed {seed}: cut at k = {k} of U = {u}"
                );
            }
        }
    }
}

/// Rand index between two labelings: fraction of point pairs on which they
/// agree (together/apart).
fn rand_index(a: &[usize], b: &[usize]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    let mut agree = 0u64;
    let mut total = 0u64;
    for i in 0..n {
        for j in (i + 1)..n {
            total += 1;
            if (a[i] == a[j]) == (b[i] == b[j]) {
                agree += 1;
            }
        }
    }
    agree as f64 / total as f64
}

#[test]
fn scaled_pipeline_recovers_planted_clusters_at_2k() {
    let n = 2048;
    let k = 8;
    let planted =
        gaussian_mixture(&MixtureSpec::separated(n, 8, k, 42)).expect("valid mixture spec");

    let result =
        run_pipeline(&planted.points, &PipelineConfig::scaled(n)).expect("scaled pipeline runs");
    assert_eq!(result.positions().nrows(), n);

    let cut = result.clusters(k).expect("cut at the planted k");
    let ri = rand_index(cut.labels(), &planted.labels);
    assert!(
        ri >= 0.98,
        "planted recovery degraded: rand index {ri} < 0.98 at n={n}, k={k}"
    );
}
