//! Reference silhouette kernels: the textbook `O(n²·dim)` per-pair loop and
//! the same loop over a precomputed distance matrix, kept as oracles for the
//! occupied-cell kernel in `validity.rs`.
//!
//! The file is shared: `validity.rs` includes it under `#[cfg(test)]`, and
//! the integration tests of `hiermeans-cluster` and `hiermeans-core` include
//! it with `#[path]`. It therefore depends on `hiermeans_linalg` only and
//! takes dense cluster labels (`0..k`, as `ClusterAssignment::labels`
//! returns) instead of an assignment.
#![allow(dead_code)]
use hiermeans_linalg::distance::euclidean;
use hiermeans_linalg::Matrix;

/// Member rows of each cluster, in ascending row order.
fn clusters(labels: &[usize]) -> Vec<Vec<usize>> {
    let k = labels.iter().max().map_or(0, |&l| l + 1);
    let mut out = vec![Vec::new(); k];
    for (i, &l) in labels.iter().enumerate() {
        out[l].push(i);
    }
    out
}

/// Mean silhouette with `dist(i, j)` as the pair distance: for each row,
/// `a` sums over its own cluster skipping itself and `b` is the smallest
/// mean over the other clusters, both in member-list order.
fn silhouette_with(labels: &[usize], dist: impl Fn(usize, usize) -> f64) -> f64 {
    let clusters = clusters(labels);
    let mut total = 0.0;
    for (i, &label) in labels.iter().enumerate() {
        let own = &clusters[label];
        if own.len() == 1 {
            continue; // silhouette 0 by convention
        }
        let mut a = 0.0;
        for &j in own {
            if j != i {
                a += dist(i, j);
            }
        }
        a /= (own.len() - 1) as f64;
        let mut b = f64::INFINITY;
        for (c, members) in clusters.iter().enumerate() {
            if c == label {
                continue;
            }
            let mut m = 0.0;
            for &j in members {
                m += dist(i, j);
            }
            m /= members.len() as f64;
            b = b.min(m);
        }
        let denom = a.max(b);
        if denom > 0.0 {
            total += (b - a) / denom;
        }
    }
    total / labels.len() as f64
}

/// The per-pair silhouette: one Euclidean distance call per ordered pair.
pub fn silhouette(points: &Matrix, labels: &[usize]) -> f64 {
    silhouette_with(labels, |i, j| {
        euclidean(points.row(i), points.row(j)).expect("rows share a dimension")
    })
}

/// The silhouette over a precomputed (Euclidean pairwise) distance matrix.
pub fn silhouette_from_distances(dist: &Matrix, labels: &[usize]) -> f64 {
    silhouette_with(labels, |i, j| dist[(i, j)])
}

/// The sweep's argmax rule over `(k, silhouette)` pairs: starting from
/// `(lo, −∞)`, a `k` replaces the best only if it beats it by more than
/// `1e-12`, so ties go to fewer clusters.
pub fn best_k(lo: usize, scores: impl IntoIterator<Item = (usize, f64)>) -> usize {
    let mut best = (lo, f64::NEG_INFINITY);
    for (k, s) in scores {
        if s > best.1 + 1e-12 {
            best = (k, s);
        }
    }
    best.0
}
