//! `recommend_k` picks the same `k` as the per-pair silhouette sweep it
//! replaced.
//!
//! The oracle is the textbook silhouette loop over every cut in
//! `2..=max(2, min(max_k, n − 1))`, with the same "beat the best by more
//! than 1e-12" tie rule. It is pinned on the three paper studies and on
//! planted Gaussian-mixture suites run through the scaled pipeline, plus
//! the range's edge cases.

#[path = "../../cluster/tests/oracle/mod.rs"]
mod oracle;

use hiermeans_cluster::{agglomerative, selection, Dendrogram, Linkage};
use hiermeans_core::analysis::{recommend_k, SuiteAnalysis, K_RANGE};
use hiermeans_core::pipeline::{run_pipeline, PipelineConfig};
use hiermeans_linalg::Matrix;
use hiermeans_obs::Collector;
use hiermeans_workload::measurement::Characterization;
use hiermeans_workload::synthetic::{gaussian_mixture, MixtureSpec};

/// The per-k silhouettes `recommend_k` scored before it moved onto
/// occupied cells.
fn oracle_sweep(positions: &Matrix, dendrogram: &Dendrogram, max_k: usize) -> Vec<(usize, f64)> {
    let hi = max_k.min(positions.nrows().saturating_sub(1)).max(2);
    (2..=hi)
        .map(|k| {
            let cut = dendrogram.cut_into(k).unwrap();
            (k, oracle::silhouette(positions, cut.labels()))
        })
        .collect()
}

fn oracle_k(positions: &Matrix, dendrogram: &Dendrogram, max_k: usize) -> usize {
    oracle::best_k(2, oracle_sweep(positions, dendrogram, max_k))
}

/// `recommend_k` picks the oracle's `k`, and the sweep behind it scores
/// every candidate bit-identically to the oracle.
fn assert_matches_oracle(positions: &Matrix, dendrogram: &Dendrogram, max_k: usize, what: &str) {
    let expected = oracle_sweep(positions, dendrogram, max_k);
    let hi = expected.last().unwrap().0;
    let swept = selection::silhouette_sweep(dendrogram, positions, 2..=hi).unwrap();
    let bits = |v: &[(usize, f64)]| v.iter().map(|&(k, s)| (k, s.to_bits())).collect::<Vec<_>>();
    assert_eq!(bits(&swept), bits(&expected), "{what}");
    assert_eq!(
        recommend_k(positions, dendrogram, max_k).unwrap(),
        oracle::best_k(2, expected),
        "{what}"
    );
}

fn complete(points: &Matrix) -> Dendrogram {
    agglomerative::cluster(points, Linkage::Complete, &Collector::disabled()).unwrap()
}

#[test]
fn paper_studies_match_oracle() {
    for ch in Characterization::paper_set() {
        let a = SuiteAnalysis::paper(ch).unwrap();
        let p = a.pipeline();
        let max_k = (*K_RANGE.end()).min(a.suite().len());
        assert_matches_oracle(p.positions(), p.dendrogram(), max_k, &ch.to_string());
        assert_eq!(
            a.recommended_k(),
            oracle_k(p.positions(), p.dendrogram(), max_k),
            "{ch}"
        );
    }
}

#[test]
fn planted_suites_match_oracle() {
    for (n, seed) in [(256, 1), (256, 2), (1024, 3)] {
        let mixture = gaussian_mixture(&MixtureSpec::separated(n, 16, 8, seed)).unwrap();
        let pipeline = run_pipeline(&mixture.points, &PipelineConfig::scaled(n)).unwrap();
        assert_matches_oracle(
            pipeline.positions(),
            pipeline.dendrogram(),
            *K_RANGE.end(),
            &format!("n={n} seed={seed}"),
        );
    }
}

#[test]
fn two_points_recommend_two() {
    let pts = Matrix::from_rows(&[vec![0.0, 0.0], vec![3.0, 1.0]]).unwrap();
    let d = complete(&pts);
    // The range collapses to k = 2 = n: two singletons, silhouette 0.
    for max_k in [0, 1, 2, 8] {
        assert_eq!(recommend_k(&pts, &d, max_k).unwrap(), 2, "max_k={max_k}");
        assert_eq!(oracle_k(&pts, &d, max_k), 2);
    }
}

#[test]
fn max_k_at_or_beyond_n_stops_at_n_minus_one() {
    // Three cells of two rows each: k = 3 scores a perfect 1, and a
    // `max_k` at or past n never adds the all-singleton cut k = n.
    let pts = Matrix::from_rows(&[
        vec![0.0],
        vec![0.0],
        vec![4.0],
        vec![4.0],
        vec![9.0],
        vec![9.0],
    ])
    .unwrap();
    let d = complete(&pts);
    let n = pts.nrows();
    for max_k in [n - 1, n, n + 3, 100] {
        let k = recommend_k(&pts, &d, max_k).unwrap();
        assert_eq!(k, oracle_k(&pts, &d, max_k), "max_k={max_k}");
        assert!(k < n, "k = n is never a candidate for n > 2");
    }
    assert_eq!(recommend_k(&pts, &d, 100).unwrap(), 3);
}

#[test]
fn all_positions_in_one_cell_recommend_two() {
    let pts = Matrix::from_rows(&vec![vec![2.0, 5.0]; 9]).unwrap();
    let d = complete(&pts);
    // Every distance is 0, so every cut scores exactly 0 and the tie rule
    // keeps the smallest k.
    assert_eq!(recommend_k(&pts, &d, 8).unwrap(), 2);
    assert_eq!(oracle_k(&pts, &d, 8), 2);
}

#[test]
fn mismatched_inputs_are_errors() {
    let pts = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![5.0]]).unwrap();
    let d = complete(&pts);
    let one = Matrix::from_rows(&[vec![0.0]]).unwrap();
    assert!(recommend_k(&one, &complete(&one), 8).is_err());
    let more = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![5.0], vec![6.0]]).unwrap();
    assert!(recommend_k(&more, &d, 8).is_err());
}
