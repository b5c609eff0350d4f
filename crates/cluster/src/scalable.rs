//! O(n)-memory single/complete linkage for large corpora.
//!
//! The agglomerative implementations in [`crate::agglomerative`] and
//! [`crate::nnchain`] both work from a materialized n×n distance matrix —
//! 80 GB of doubles at n = 100k. This module implements two sequential
//! point-insertion algorithms that never build that matrix:
//!
//! * [`cluster_slink`] — SLINK (Sibson 1973), *exact* single linkage.
//! * [`cluster_sequential_complete`] — CLINK-style (Defays 1977)
//!   order-insertion complete linkage with a minimum-new-diameter
//!   attachment rule.
//!
//! Both stream one distance row-strip at a time from a
//! [`TiledDistances`] provider (which uses the norm-trick kernels for a
//! (squared) Euclidean metric), so peak memory is O(n): a handful of
//! length-n working arrays plus the strip buffer. Time stays O(n²).
//!
//! # Exactness
//!
//! SLINK provably produces *the* single-linkage hierarchy — its cuts match
//! the naive loop's at every k (tested). Complete linkage has no known
//! exact O(n)-memory algorithm; like Defays' CLINK, the sequential variant
//! here is order-dependent and **not** in general identical to the greedy
//! global-minimum loop. What it does guarantee — and what its tests verify
//! against brute force — is the *diameter invariant*: every merge height
//! equals the exact complete-linkage diameter (max pairwise distance) of
//! the cluster that merge creates, so heights are never fabricated, and on
//! data with separated structure the cuts match the in-memory path.
//! Callers that need bit-equality with the paper studies should stay on
//! [`crate::nnchain`]; this module is the escape hatch for corpora whose
//! matrix does not fit.
//!
//! # Squared-space evaluation
//!
//! Both algorithms only ever *compare* distances (min/max selections — no
//! Lance–Williams arithmetic), and `sqrt` is strictly monotone on
//! non-negatives, so for [`Metric::Euclidean`] we stream *squared*
//! distances and take one square root per merge height at the end. The
//! result is bit-identical to running in Euclidean space throughout
//! (`Metric::Euclidean` itself computes `sq_euclidean(..).sqrt()`) and
//! skips n²/2 − n square roots.

use hiermeans_linalg::distance::{Metric, TiledDistances};
use hiermeans_linalg::Matrix;

use crate::dendrogram::{Dendrogram, Merge};
use crate::ClusterError;

/// Picks the squared-space metric substitution (see module docs).
fn inner_metric(metric: Metric) -> (Metric, bool) {
    match metric {
        Metric::Euclidean => (Metric::SquaredEuclidean, true),
        other => (other, false),
    }
}

fn validate_points(points: &Matrix) -> Result<(), ClusterError> {
    if points.is_empty() {
        return Err(ClusterError::EmptyInput);
    }
    let report = hiermeans_linalg::validate::validate(points);
    if report.has_fatal() {
        return Err(ClusterError::InvalidData { report });
    }
    Ok(())
}

/// Exact single-linkage clustering in O(n) memory via SLINK.
///
/// # Errors
///
/// * [`ClusterError::EmptyInput`] for an empty matrix.
/// * [`ClusterError::InvalidData`] for non-finite coordinates.
/// * [`ClusterError::Linalg`] if the metric rejects the data.
pub fn cluster_slink(points: &Matrix, metric: Metric) -> Result<Dendrogram, ClusterError> {
    validate_points(points)?;
    let n = points.nrows();
    if n == 1 {
        return Dendrogram::new(1, vec![]);
    }
    let (metric, sqrt_heights) = inner_metric(metric);
    let tiles = TiledDistances::new(points, metric);

    // Sibson's pointer representation: pi[j] is the largest-index member of
    // the cluster j joins at level lambda[j].
    let mut pi: Vec<usize> = vec![0; n];
    let mut lambda: Vec<f64> = vec![f64::INFINITY; n];
    let mut m: Vec<f64> = vec![0.0; n];
    for i in 0..n {
        pi[i] = i;
        lambda[i] = f64::INFINITY;
        if i == 0 {
            continue;
        }
        tiles.fill_row(i, &mut m[..i])?;
        // SLINK recurrence (Sibson 1973, Algorithm 5.1), 0-based.
        for j in 0..i {
            if lambda[j] >= m[j] {
                m[pi[j]] = m[pi[j]].min(lambda[j]);
                lambda[j] = m[j];
                pi[j] = i;
            } else {
                m[pi[j]] = m[pi[j]].min(m[j]);
            }
        }
        for j in 0..i {
            if lambda[j] >= lambda[pi[j]] {
                pi[j] = i;
            }
        }
    }
    if sqrt_heights {
        for l in &mut lambda {
            if l.is_finite() {
                *l = l.sqrt();
            }
        }
    }
    pointer_to_dendrogram(&pi, &lambda)
}

/// Converts a pointer representation into a [`Dendrogram`]: sort the n−1
/// finite `(lambda, index)` pairs ascending and replay them as merges over
/// a union-find, exactly the Sibson recipe in reverse.
fn pointer_to_dendrogram(pi: &[usize], lambda: &[f64]) -> Result<Dendrogram, ClusterError> {
    let n = pi.len();
    let mut order: Vec<usize> = (0..n).filter(|&j| lambda[j].is_finite()).collect();
    if order.len() != n - 1 {
        return Err(ClusterError::Internal {
            what: "pointer representation must have exactly n-1 finite levels",
        });
    }
    order.sort_unstable_by(|&a, &b| lambda[a].total_cmp(&lambda[b]).then(a.cmp(&b)));

    let mut parent: Vec<usize> = (0..n).collect();
    let mut id: Vec<usize> = (0..n).collect();
    let mut size: Vec<usize> = vec![1; n];
    let mut merges = Vec::with_capacity(n - 1);
    for (step, &j) in order.iter().enumerate() {
        let ra = find(&mut parent, j);
        let rb = find(&mut parent, pi[j]);
        if ra == rb {
            return Err(ClusterError::Internal {
                what: "pointer representation merged a cluster with itself",
            });
        }
        let (id_a, id_b) = (id[ra], id[rb]);
        let new_size = size[ra] + size[rb];
        merges.push(Merge {
            left: id_a.min(id_b),
            right: id_a.max(id_b),
            distance: lambda[j],
            size: new_size,
        });
        parent[rb] = ra;
        size[ra] = new_size;
        id[ra] = n + step;
    }
    Dendrogram::new(n, merges)
}

fn find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

/// One node of the insertion tree: leaves are points, internal nodes are
/// merges with their exact diameter as `height`.
#[derive(Debug, Clone, Copy)]
struct TreeNode {
    parent: Option<usize>,
    /// Children (internal nodes only).
    children: Option<(usize, usize)>,
    /// Exact diameter of the node's leaf set (0 for leaves). Stored in
    /// squared space for Euclidean inputs until the final conversion.
    height: f64,
    /// One leaf inside the subtree, for the union-find replay.
    rep_leaf: usize,
}

/// Complete-linkage clustering in O(n) memory by sequential insertion.
///
/// Points are inserted one at a time. For each new point `i` the algorithm
/// computes the strip `d(i, 0..i)`, folds it bottom-up into `D(v) =
/// max_{leaf ∈ v} d(i, leaf)` for every node `v` of the tree so far, and
/// attaches `i` as a sibling of the node minimizing the total height
/// distortion: the new cluster's diameter `max(height(v), D(v))` plus the
/// inflation `max(0, D(a) − height(a))` forced on every ancestor `a` (all
/// of which come to contain `i`). Every affected height is then updated to
/// `max(height, D)` — still the exact diameter of its leaf set. See the
/// module docs for what this does and does not guarantee relative to the
/// greedy loop.
///
/// # Errors
///
/// Same as [`cluster_slink`].
pub fn cluster_sequential_complete(
    points: &Matrix,
    metric: Metric,
) -> Result<Dendrogram, ClusterError> {
    validate_points(points)?;
    let n = points.nrows();
    if n == 1 {
        return Dendrogram::new(1, vec![]);
    }
    let (metric, sqrt_heights) = inner_metric(metric);
    let tiles = TiledDistances::new(points, metric);

    // Node ids are creation-ordered: leaves are created when their point is
    // inserted, merge nodes right after; a leaf's `rep_leaf` is its point.
    let mut nodes: Vec<TreeNode> = Vec::with_capacity(2 * n - 1);
    nodes.push(TreeNode {
        parent: None,
        children: None,
        height: 0.0,
        rep_leaf: 0,
    });
    let mut root = 0usize;
    let mut strip = vec![0.0f64; n];
    // D(v) = max distance from the incoming point to v's leaves, and the
    // accumulated ancestor inflation per node; both reused across
    // insertions, plus a DFS stack.
    let mut reach = vec![0.0f64; 2 * n - 1];
    let mut anc_cost = vec![0.0f64; 2 * n - 1];
    let mut stack: Vec<(usize, bool)> = Vec::with_capacity(2 * n - 1);

    for i in 1..n {
        tiles.fill_row(i, &mut strip[..i])?;
        // One post-order DFS computes D(v) for every node in O(i).
        stack.push((root, false));
        while let Some((v, visited)) = stack.pop() {
            match (visited, nodes[v].children) {
                (false, Some((c1, c2))) => {
                    stack.push((v, true));
                    stack.push((c2, false));
                    stack.push((c1, false));
                }
                (false, None) => reach[v] = strip[nodes[v].rep_leaf],
                (true, children) => {
                    let (c1, c2) = children.ok_or(ClusterError::Internal {
                        what: "post-order revisit of a leaf",
                    })?;
                    reach[v] = reach[c1].max(reach[c2]);
                }
            }
        }
        // Pre-order pass accumulates each node's cost share from its strict
        // ancestors: attaching below `a` inflates `a`'s height by
        // max(0, D(a) − h(a)).
        anc_cost[root] = 0.0;
        stack.push((root, false));
        while let Some((v, _)) = stack.pop() {
            if let Some((c1, c2)) = nodes[v].children {
                let below = anc_cost[v] + (reach[v] - nodes[v].height).max(0.0);
                anc_cost[c1] = below;
                anc_cost[c2] = below;
                stack.push((c2, false));
                stack.push((c1, false));
            }
        }
        // Attach where the hierarchy is distorted least: the new cluster's
        // diameter plus the inflation forced on every ancestor. A deep slot
        // only wins when the point genuinely fits inside an existing
        // cluster below the top level; ties break toward the
        // earliest-created node for determinism.
        let mut best = (f64::INFINITY, root);
        for (v, node) in nodes.iter().enumerate() {
            let cost = anc_cost[v] + node.height.max(reach[v]);
            if cost < best.0 {
                best = (cost, v);
            }
        }
        let attach = best.1;
        let new_height = nodes[attach].height.max(reach[attach]);

        let leaf_id = nodes.len();
        nodes.push(TreeNode {
            parent: None,
            children: None,
            height: 0.0,
            rep_leaf: i,
        });
        let merge_id = nodes.len();
        let attach_parent = nodes[attach].parent;
        nodes.push(TreeNode {
            parent: attach_parent,
            children: Some((attach, leaf_id)),
            height: new_height,
            rep_leaf: nodes[attach].rep_leaf,
        });
        nodes[attach].parent = Some(merge_id);
        nodes[leaf_id].parent = Some(merge_id);
        match attach_parent {
            Some(p) => {
                let (c1, c2) = nodes[p].children.ok_or(ClusterError::Internal {
                    what: "insertion parent has no children",
                })?;
                nodes[p].children = Some(if c1 == attach {
                    (merge_id, c2)
                } else {
                    (c1, merge_id)
                });
            }
            None => root = merge_id,
        }
        // Every ancestor now contains i: its diameter grows to max(h, D).
        let mut v = attach_parent;
        while let Some(p) = v {
            nodes[p].height = nodes[p].height.max(reach[p]);
            v = nodes[p].parent;
        }
    }

    tree_to_dendrogram(&nodes, n, sqrt_heights)
}

/// Replays the insertion tree's internal nodes in ascending-height order
/// (children before parents on ties, via post-order rank) through a
/// union-find, producing a [`Dendrogram`] with standard merge ids.
fn tree_to_dendrogram(
    nodes: &[TreeNode],
    n: usize,
    sqrt_heights: bool,
) -> Result<Dendrogram, ClusterError> {
    // Post-order ranks so a child always sorts before its equal-height
    // parent.
    let mut postorder = vec![0usize; nodes.len()];
    let root = nodes
        .iter()
        .position(|nd| nd.parent.is_none())
        .ok_or(ClusterError::Internal {
            what: "insertion tree has no root",
        })?;
    let mut rank = 0usize;
    // Iterative post-order.
    let mut stack = vec![(root, false)];
    while let Some((v, visited)) = stack.pop() {
        if visited {
            postorder[v] = rank;
            rank += 1;
        } else {
            stack.push((v, true));
            if let Some((c1, c2)) = nodes[v].children {
                stack.push((c2, false));
                stack.push((c1, false));
            }
        }
    }

    let mut internal: Vec<usize> = (0..nodes.len())
        .filter(|&v| nodes[v].children.is_some())
        .collect();
    if internal.len() != n - 1 {
        return Err(ClusterError::Internal {
            what: "insertion tree must have exactly n-1 merges",
        });
    }
    internal.sort_unstable_by(|&a, &b| {
        nodes[a]
            .height
            .total_cmp(&nodes[b].height)
            .then(postorder[a].cmp(&postorder[b]))
    });

    let mut parent: Vec<usize> = (0..n).collect();
    let mut id: Vec<usize> = (0..n).collect();
    let mut size: Vec<usize> = vec![1; n];
    let mut merges = Vec::with_capacity(n - 1);
    for (step, &v) in internal.iter().enumerate() {
        let (c1, c2) = nodes[v].children.ok_or(ClusterError::Internal {
            what: "internal node lost its children",
        })?;
        let ra = find(&mut parent, nodes[c1].rep_leaf);
        let rb = find(&mut parent, nodes[c2].rep_leaf);
        if ra == rb {
            return Err(ClusterError::Internal {
                what: "insertion tree merged a cluster with itself",
            });
        }
        let (id_a, id_b) = (id[ra], id[rb]);
        let new_size = size[ra] + size[rb];
        let distance = if sqrt_heights {
            nodes[v].height.sqrt()
        } else {
            nodes[v].height
        };
        merges.push(Merge {
            left: id_a.min(id_b),
            right: id_a.max(id_b),
            distance,
            size: new_size,
        });
        parent[rb] = ra;
        size[ra] = new_size;
        id[ra] = n + step;
    }
    Dendrogram::new(n, merges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agglomerative::cluster_from_distances;
    use crate::Linkage;
    use hiermeans_linalg::distance::pairwise;
    use hiermeans_obs::Collector;

    /// The naive loop over exact scalar distances: the oracle.
    fn naive(pts: &Matrix, metric: Metric, linkage: Linkage) -> Dendrogram {
        let dist = pairwise(pts, metric).unwrap();
        cluster_from_distances(&dist, linkage, &Collector::disabled()).unwrap()
    }

    fn scatter(n: usize) -> Matrix {
        // Deterministic tie-free pseudo-random points.
        fn hash(mut x: u64) -> u64 {
            x ^= x >> 33;
            x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
            x ^= x >> 33;
            x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
            x ^ (x >> 33)
        }
        let coord = |seed: u64| (hash(seed) % 1_000_000) as f64 / 50_000.0;
        let rows: Vec<Vec<f64>> = (0..n as u64)
            .map(|i| vec![coord(3 * i + 1), coord(3 * i + 2), coord(3 * i + 3)])
            .collect();
        Matrix::from_rows(&rows).unwrap()
    }

    fn blobs() -> Matrix {
        // Three well-separated blobs: separations dwarf diameters, so every
        // complete-linkage hierarchy nests blobs before joining them.
        let mut rows = Vec::new();
        for (cx, cy) in [(0.0, 0.0), (100.0, 0.0), (0.0, 100.0)] {
            for k in 0..6 {
                let dx = f64::from(k % 3) * 0.3;
                let dy = f64::from(k / 3) * 0.4;
                rows.push(vec![cx + dx, cy + dy]);
            }
        }
        Matrix::from_rows(&rows).unwrap()
    }

    /// Brute-force diameter of a leaf set.
    fn diameter(pts: &Matrix, members: &[usize]) -> f64 {
        let mut d = 0.0f64;
        for (a, &i) in members.iter().enumerate() {
            for &j in &members[a + 1..] {
                d = d.max(Metric::Euclidean.distance(pts.row(i), pts.row(j)).unwrap());
            }
        }
        d
    }

    #[test]
    fn slink_is_exact_single_linkage() {
        // The oracle is the naive loop over exact scalar distances; SLINK
        // streams norm-trick distances, so this also checks that the
        // trick's rounding never changes a single-linkage cut.
        for n in [2, 3, 17, 60] {
            let pts = scatter(n);
            let slink = cluster_slink(&pts, Metric::Euclidean).unwrap();
            let naive = naive(&pts, Metric::Euclidean, Linkage::Single);
            for k in 1..=n {
                let a = slink.cut_into(k).unwrap();
                let b = naive.cut_into(k).unwrap();
                assert!(
                    (a.rand_index(&b).unwrap() - 1.0).abs() < 1e-12,
                    "n={n} k={k} differs"
                );
            }
            // Same merge heights too (up to sort): single linkage
            // heights are unique to the hierarchy.
            let mut ha: Vec<f64> = slink.merges().iter().map(|m| m.distance).collect();
            let mut hb: Vec<f64> = naive.merges().iter().map(|m| m.distance).collect();
            ha.sort_by(f64::total_cmp);
            hb.sort_by(f64::total_cmp);
            for (x, y) in ha.iter().zip(&hb) {
                assert!((x - y).abs() < 1e-9, "height mismatch {x} vs {y}");
            }
        }
    }

    #[test]
    fn sequential_complete_heights_are_exact_diameters() {
        // The diameter invariant, against brute force: every merge height is
        // the exact max pairwise distance of the cluster it creates.
        for n in [2, 5, 23, 40] {
            let pts = scatter(n);
            let d = cluster_sequential_complete(&pts, Metric::Euclidean).unwrap();
            assert!(d.is_monotone());
            // Recover each merge's member set by replaying merges.
            let mut members: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
            for m in d.merges() {
                let mut set = members[m.left].clone();
                set.extend_from_slice(&members[m.right]);
                let diam = diameter(&pts, &set);
                assert!(
                    (diam - m.distance).abs() < 1e-9,
                    "n={n}: merge height {} != diameter {diam}",
                    m.distance
                );
                members.push(set);
            }
        }
    }

    #[test]
    fn sequential_complete_recovers_planted_blobs() {
        let pts = blobs();
        let d = cluster_sequential_complete(&pts, Metric::Euclidean).unwrap();
        let cut = d.cut_into(3).unwrap();
        let naive = naive(&pts, Metric::Euclidean, Linkage::Complete)
            .cut_into(3)
            .unwrap();
        assert!((cut.rand_index(&naive).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn other_metrics_run_directly() {
        let pts = scatter(20);
        for metric in [
            Metric::Manhattan,
            Metric::Chebyshev,
            Metric::SquaredEuclidean,
        ] {
            let slink = cluster_slink(&pts, metric).unwrap();
            let naive = naive(&pts, metric, Linkage::Single);
            for k in 1..=20 {
                let r = slink
                    .cut_into(k)
                    .unwrap()
                    .rand_index(&naive.cut_into(k).unwrap())
                    .unwrap();
                assert!((r - 1.0).abs() < 1e-12, "{metric:?} k={k}");
            }
        }
    }

    #[test]
    fn trivial_inputs() {
        assert!(matches!(
            cluster_slink(&Matrix::zeros(0, 0), Metric::Euclidean),
            Err(ClusterError::EmptyInput)
        ));
        let one = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        let d = cluster_slink(&one, Metric::Euclidean).unwrap();
        assert_eq!(d.n_leaves(), 1);
        assert!(d.merges().is_empty());
        let two = Matrix::from_rows(&[vec![0.0], vec![3.0]]).unwrap();
        let d = cluster_sequential_complete(&two, Metric::Euclidean).unwrap();
        assert_eq!(d.merges().len(), 1);
        assert!((d.merges()[0].distance - 3.0).abs() < 1e-12);
    }
}
