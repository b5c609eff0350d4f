//! NN-chain ≡ naive merge loop, property-tested.
//!
//! For every *reducible* linkage the nearest-neighbor-chain algorithm
//! ([`cluster_nn_chain_owned`]) must produce exactly the hierarchy the
//! naive closest-pair loop ([`cluster_from_distances`], the oracle)
//! produces — same merge pairs, same merge distances, same cuts — on
//! arbitrary continuous inputs, under both of the pipeline's Euclidean
//! metrics. This is the property that lets `agglomerative::cluster` switch
//! to NN-chain at 128 points without changing a single downstream number.

use hiermeans_cluster::agglomerative::{cluster, cluster_from_distances};
use hiermeans_cluster::nnchain::cluster_nn_chain_owned;
use hiermeans_cluster::{ClusterError, Dendrogram, Linkage};
use hiermeans_linalg::distance::{pairwise, pairwise_norm_trick, Metric};
use hiermeans_linalg::Matrix;
use hiermeans_obs::Collector;
use proptest::prelude::*;

/// The linkages NN-chain supports (reducible under Lance–Williams).
const REDUCIBLE: [Linkage; 5] = [
    Linkage::Single,
    Linkage::Complete,
    Linkage::Average,
    Linkage::Weighted,
    Linkage::Ward,
];

fn points(n: usize, dim: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-1e2..1e2f64, n * dim)
        .prop_map(move |data| Matrix::from_vec(n, dim, data).expect("len matches"))
}

/// Naive and NN-chain dendrograms over the distance matrix `cluster`
/// computes for `pts`.
fn naive_and_chain(pts: &Matrix, metric: Metric, linkage: Linkage) -> (Dendrogram, Dendrogram) {
    let dist = pairwise_norm_trick(pts, metric, None).unwrap();
    let naive = cluster_from_distances(&dist, linkage, &Collector::disabled()).unwrap();
    let chain = cluster_nn_chain_owned(dist, linkage, &Collector::disabled()).unwrap();
    (naive, chain)
}

fn any_case() -> impl Strategy<Value = (Matrix, Linkage, Metric)> {
    (2usize..40, 1usize..4, 0usize..REDUCIBLE.len(), 0usize..2).prop_flat_map(|(n, dim, li, mi)| {
        let metric = if mi == 0 {
            Metric::Euclidean
        } else {
            Metric::SquaredEuclidean
        };
        (points(n, dim), Just(REDUCIBLE[li]), Just(metric))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn nn_chain_matches_naive((pts, linkage, metric) in any_case()) {
        let (naive, chain) = naive_and_chain(&pts, metric, linkage);
        match linkage {
            // Single and complete linkage are pure min/max *selections* of
            // original pairwise distances: merge order cannot change a
            // single bit, so the sorted NN-chain history is the naive
            // history exactly. (This is what keeps trace fingerprints
            // identical on both sides of the size threshold.)
            Linkage::Single | Linkage::Complete => prop_assert_eq!(&naive, &chain),
            // Average/weighted/Ward distances are weighted-average
            // arithmetic whose floating-point association follows the
            // merge discovery order, so the two algorithms may differ in
            // final ULPs. Structure must still match exactly.
            _ => {
                prop_assert_eq!(naive.merges().len(), chain.merges().len());
                for (a, b) in naive.merges().iter().zip(chain.merges()) {
                    prop_assert_eq!(
                        (a.left, a.right, a.size),
                        (b.left, b.right, b.size),
                        "merge structure diverged"
                    );
                    prop_assert!(
                        (a.distance - b.distance).abs()
                            <= 1e-9 * (1.0 + a.distance.abs()),
                        "merge distance diverged: {} vs {}", a.distance, b.distance
                    );
                }
            }
        }
        // Cut-equivalence at every k — the property the pipeline consumes.
        let n = pts.nrows();
        for k in 1..=n {
            let naive_cut = naive.cut_into(k).unwrap();
            let chain_cut = chain.cut_into(k).unwrap();
            prop_assert_eq!(naive_cut.labels(), chain_cut.labels(), "cut at k={} diverged", k);
        }
    }
}

/// A larger deterministic instance than proptest should shrink over:
/// n = 200, past the size at which `cluster` runs NN-chain, complete
/// linkage (the paper's), both metrics.
#[test]
fn matches_naive_at_n_200() {
    let n = 200;
    let dim = 3;
    let mut state = 0x1234_5678_9abc_def0u64;
    let data: Vec<f64> = (0..n * dim)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        })
        .collect();
    let pts = Matrix::from_vec(n, dim, data).unwrap();
    for metric in [Metric::Euclidean, Metric::SquaredEuclidean] {
        let (naive, chain) = naive_and_chain(&pts, metric, Linkage::Complete);
        assert_eq!(naive, chain, "{metric:?}");
        let dispatched = cluster(&pts, metric, Linkage::Complete, &Collector::disabled()).unwrap();
        assert_eq!(dispatched, chain, "{metric:?}");
    }
}

/// Irreducible linkages must be refused, not silently mis-clustered.
#[test]
fn centroid_and_median_rejected() {
    let pts = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![3.0]]).unwrap();
    let dist = pairwise(&pts, Metric::Euclidean).unwrap();
    for linkage in [Linkage::Centroid, Linkage::Median] {
        let err = cluster_nn_chain_owned(dist.clone(), linkage, &Collector::disabled());
        assert_eq!(
            err.unwrap_err(),
            ClusterError::UnsupportedLinkage { linkage }
        );
    }
}
