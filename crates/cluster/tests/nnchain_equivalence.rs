//! NN-chain ≡ naive merge loop, property-tested.
//!
//! For every *reducible* linkage the nearest-neighbor-chain algorithm
//! ([`cluster_nn_chain_owned`]) must produce exactly the hierarchy the
//! naive closest-pair loop ([`cluster_from_distances`], the oracle)
//! produces — same merge pairs, same merge distances, same cuts — on
//! arbitrary continuous inputs, under both of the pipeline's Euclidean
//! metrics. This is the property that lets `agglomerative::cluster` run
//! NN-chain at every size without changing a single downstream number.
//!
//! On integer lattices, where tied merge heights are the rule (SOM
//! positions), NN-chain takes the naive loop's tie order:
//!
//! * complete linkage gives the naive dendrogram bit for bit, and so does
//!   `cluster`, which links occupied cells;
//! * single linkage gives the naive merge heights bit for bit and the same
//!   clusters at every merge height;
//! * no reducible linkage fails.
//!
//! A proptest checks this on every run. An ignored release sweep over
//! 1200 seeded lattices × 5 linkages reaches the case counts at which the
//! old chain walk's tie defect shows: single linkage failed with
//! `ClusterError::Internal` on about 1 in 200 one-row-per-cell lattices.

use std::collections::HashSet;

use hiermeans_cluster::agglomerative::{cluster, cluster_from_distances};
use hiermeans_cluster::nnchain::cluster_nn_chain_owned;
use hiermeans_cluster::{ClusterError, Dendrogram, Linkage};
use hiermeans_linalg::distance::pairwise;
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
/// computes for `pts`, or over its entries squared: a second input whose
/// heights grow faster than the points spread.
fn naive_and_chain(pts: &Matrix, squared: bool, linkage: Linkage) -> (Dendrogram, Dendrogram) {
    let dist = pairwise(pts).unwrap();
    let dist = if squared { dist.map(|d| d * d) } else { dist };
    let naive = cluster_from_distances(&dist, linkage, &Collector::disabled()).unwrap();
    let chain = cluster_nn_chain_owned(dist, linkage, &Collector::disabled()).unwrap();
    (naive, chain)
}

fn any_case() -> impl Strategy<Value = (Matrix, Linkage, bool)> {
    (2usize..40, 1usize..4, 0usize..REDUCIBLE.len(), 0usize..2)
        .prop_flat_map(|(n, dim, li, si)| (points(n, dim), Just(REDUCIBLE[li]), Just(si == 1)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn nn_chain_matches_naive((pts, linkage, squared) in any_case()) {
        let (naive, chain) = naive_and_chain(&pts, squared, linkage);
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
/// n = 200, complete linkage (the paper's), on the distances and on their
/// squares.
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
    for squared in [false, true] {
        let (naive, chain) = naive_and_chain(&pts, squared, Linkage::Complete);
        assert_eq!(naive, chain, "squared={squared}");
        if !squared {
            let dispatched = cluster(&pts, Linkage::Complete, &Collector::disabled()).unwrap();
            assert_eq!(dispatched, chain);
        }
    }
}

/// Irreducible linkages must be refused, not silently mis-clustered.
#[test]
fn centroid_and_median_rejected() {
    let pts = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![3.0]]).unwrap();
    let dist = pairwise(&pts).unwrap();
    for linkage in [Linkage::Centroid, Linkage::Median] {
        let err = cluster_nn_chain_owned(dist.clone(), linkage, &Collector::disabled());
        assert_eq!(
            err.unwrap_err(),
            ClusterError::UnsupportedLinkage { linkage }
        );
    }
}

/// An n × dim integer lattice from `coords`. With `planted`, row i is
/// overwritten by a copy of the earlier row `sources[i] % i` wherever
/// `copy[i]` is 1; without, repeated rows are dropped, leaving one row per
/// occupied cell.
fn lattice(
    n: usize,
    dim: usize,
    coords: &[u8],
    planted: bool,
    sources: &[usize],
    copy: &[u8],
) -> Matrix {
    let mut rows: Vec<Vec<f64>> = coords
        .chunks(dim)
        .map(|row| row.iter().map(|&c| f64::from(c)).collect())
        .collect();
    if planted {
        for i in 1..n {
            if copy[i] == 1 {
                rows[i] = rows[sources[i] % i].clone();
            }
        }
    } else {
        let mut seen = HashSet::new();
        rows.retain(|row| seen.insert(row.iter().map(|x| x.to_bits()).collect::<Vec<_>>()));
    }
    Matrix::from_rows(&rows).expect("rows share one width")
}

/// Lattices of 2–200 drawn rows in 1–3 dimensions, 2–14 values per axis:
/// half with planted copies of earlier rows, half with one row per cell.
fn tie_lattice() -> impl Strategy<Value = Matrix> {
    (2usize..201, 1usize..4, 2u8..15, 0u8..2).prop_flat_map(|(n, dim, side, planted)| {
        (
            prop::collection::vec(0..side, n * dim),
            prop::collection::vec(0usize..n, n),
            prop::collection::vec(0u8..2, n),
        )
            .prop_map(move |(coords, sources, copy)| {
                lattice(n, dim, &coords, planted == 1, &sources, &copy)
            })
    })
}

/// The tie contract of NN-chain against the naive loop on `pts`.
fn tie_contract(pts: &Matrix, linkage: Linkage) -> Result<(), TestCaseError> {
    let dist = pairwise(pts).unwrap();
    let naive = cluster_from_distances(&dist, linkage, &Collector::disabled()).unwrap();
    let chain = cluster_nn_chain_owned(dist, linkage, &Collector::disabled());
    let chain = match chain {
        Ok(chain) => chain,
        Err(e) => {
            return Err(TestCaseError::fail(format!(
                "{linkage}: NN-chain failed: {e}"
            )))
        }
    };
    match linkage {
        Linkage::Complete => {
            prop_assert_eq!(&chain, &naive, "complete: NN-chain dendrogram");
            let cells = cluster(pts, linkage, &Collector::disabled()).unwrap();
            prop_assert_eq!(&cells, &naive, "complete: cell-level dendrogram");
        }
        Linkage::Single => {
            let bits = |d: &Dendrogram| -> Vec<u64> {
                d.merges().iter().map(|m| m.distance.to_bits()).collect()
            };
            prop_assert_eq!(bits(&chain), bits(&naive), "single: merge heights");
            for h in naive.merge_distances() {
                prop_assert_eq!(chain.cut_at(h), naive.cut_at(h), "single: cut at {}", h);
            }
        }
        // Average, weighted and Ward heights round in merge order, so among
        // tied merges the two loops may build different trees; the chain
        // must still finish.
        _ => {}
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn nn_chain_takes_the_naive_tie_order_on_lattices(
        pts in tie_lattice(),
        li in 0usize..REDUCIBLE.len(),
    ) {
        tie_contract(&pts, REDUCIBLE[li])?;
    }
}

/// The tie contract over 1200 seeded lattices × every reducible linkage,
/// drawn like [`tie_lattice`] but with 3–14 values per axis. Run in
/// release: `cargo test --release -p hiermeans-cluster --test
/// nnchain_equivalence -- --ignored`.
#[test]
#[ignore = "release-mode sweep; run with --ignored"]
fn tie_sweep_over_1200_seeded_lattices() {
    for seed in 0..1200u64 {
        // SplitMix64.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut next = |bound: u64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        };
        let n = 2 + next(199) as usize;
        let dim = 1 + next(3) as usize;
        let side = 3 + next(12);
        let planted = next(2) == 1;
        let coords: Vec<u8> = (0..n * dim).map(|_| next(side) as u8).collect();
        let sources: Vec<usize> = (0..n).map(|_| next(n as u64) as usize).collect();
        let copy: Vec<u8> = (0..n).map(|_| next(2) as u8).collect();
        let pts = lattice(n, dim, &coords, planted, &sources, &copy);
        for linkage in REDUCIBLE {
            if let Err(e) = tie_contract(&pts, linkage) {
                panic!("seed {seed} (n = {n}, dim = {dim}, side = {side}): {e}");
            }
        }
    }
}
