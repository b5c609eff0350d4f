//! End-to-end naive ≡ NN-chain equivalence and large-n recovery.
//!
//! Two gates for the NN-chain path:
//!
//! 1. On the map positions of the paper's three studies, the naive loop
//!    ([`cluster_from_distances`], the one the 13-row studies run) and
//!    NN-chain ([`cluster_nn_chain_owned`], the one `cluster` runs from 128
//!    rows on) must be bit-for-bit identical — dendrogram, every paper
//!    cut, and the merge-loop trace fingerprint. Complete linkage is a
//!    pure max selection, so the sorted NN-chain history is the naive
//!    history exactly.
//! 2. At n ≈ 2k — far past where the naive loop is practical — the scaled
//!    pipeline, which runs NN-chain, must still recover planted structure
//!    from a synthetic Gaussian mixture.

use hiermeans_cluster::agglomerative::cluster_from_distances;
use hiermeans_cluster::nnchain::cluster_nn_chain_owned;
use hiermeans_core::analysis::{SuiteAnalysis, K_RANGE};
use hiermeans_core::pipeline::{run_pipeline, PipelineConfig};
use hiermeans_linalg::distance::pairwise_norm_trick;
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
        let dist = pairwise_norm_trick(pipeline.positions(), config.metric, None).unwrap();

        let naive_trace = Collector::enabled();
        let naive = cluster_from_distances(&dist, config.linkage, &naive_trace).unwrap();
        let chain_trace = Collector::enabled();
        let chain = cluster_nn_chain_owned(dist, config.linkage, &chain_trace).unwrap();

        assert_eq!(
            &naive,
            pipeline.dendrogram(),
            "{label}: the naive loop is not the pipeline's path"
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
