//! The nearest-neighbor-chain agglomerative algorithm.
//!
//! The textbook merge loop in [`crate::agglomerative`] scans all pairs at
//! every step — O(n³) over n leaves. For larger inputs (the occupied map
//! cells of hundreds or thousands of workloads), this module provides the
//! classic NN-chain algorithm
//! (Murtagh 1983): follow nearest-neighbor pointers until a reciprocal
//! nearest-neighbor pair is found, merge it, and continue from the chain
//! tail — O(n²) total for *reducible* linkages.
//!
//! A linkage is reducible when merging two clusters never brings the merged
//! cluster closer to a third than the closer parent was; single, complete,
//! average, weighted, and Ward linkage are reducible, centroid and median
//! are not (NN-chain would be incorrect for them, and
//! [`cluster_nn_chain_owned`] rejects them).
//!
//! NN-chain discovers merges in a different *order* than the global-minimum
//! loop, but for reducible linkages the resulting dendrogram is equivalent
//! when merge distances are distinct: after sorting merges by distance,
//! every cut produces identical clusters (verified against
//! [`crate::agglomerative::cluster_from_distances`] by property tests).

use hiermeans_linalg::Matrix;
use hiermeans_obs::{stages, Collector, LaneBuf};

use crate::agglomerative;
use crate::dendrogram::{Dendrogram, Merge};
use crate::{ClusterError, Linkage};

/// Returns `true` if `linkage` satisfies the reducibility property that
/// NN-chain requires.
pub fn is_reducible(linkage: Linkage) -> bool {
    !matches!(linkage, Linkage::Centroid | Linkage::Median)
}

/// NN-chain over a precomputed distance matrix, consumed as working
/// storage: the Lance–Williams updates run in place, so peak memory is the
/// one matrix the caller already paid for — no clone at exactly the scale
/// NN-chain exists for.
///
/// The chain runs in a `cluster.merge_loop` span with one lane interval
/// per merge step on worker 0 (the loop is serial, like the naive one).
/// The merge trajectory is recorded in sorted-distance order, which is the
/// order the naive loop discovers merges in, so a traced run records the
/// same trajectory either way.
///
/// # Errors
///
/// * [`ClusterError::UnsupportedLinkage`] for a non-reducible linkage
///   (centroid/median) — use [`agglomerative::cluster_from_distances`].
/// * Distance-matrix validation errors, as for
///   [`agglomerative::cluster_from_distances`].
///
/// # Example
///
/// ```
/// use hiermeans_cluster::{nnchain::cluster_nn_chain_owned, Linkage};
/// use hiermeans_linalg::{distance::{pairwise, Metric}, Matrix};
/// use hiermeans_obs::Collector;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let pts = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![10.0], vec![11.0]])?;
/// let dist = pairwise(&pts, Metric::Euclidean)?;
/// let d = cluster_nn_chain_owned(dist, Linkage::Complete, &Collector::disabled())?;
/// let two = d.cut_into(2)?;
/// assert!(two.same_cluster(0, 1) && two.same_cluster(2, 3));
/// assert!(!two.same_cluster(0, 2));
/// # Ok(())
/// # }
/// ```
pub fn cluster_nn_chain_owned(
    dist: Matrix,
    linkage: Linkage,
    collector: &Collector,
) -> Result<Dendrogram, ClusterError> {
    let n = dist.nrows();
    let merges = nn_chain_merges(dist, &vec![1; n], linkage, collector)?;
    Dendrogram::new(n, merges)
}

/// NN-chain over leaves of the given `sizes` (a leaf of size m stands for
/// m rows at one position): the work behind [`cluster_nn_chain_owned`] and
/// the cell-level linkage in [`agglomerative::cluster`]. Returns the merges
/// over `dist.nrows()` leaves, sorted by distance; each merge's `size`
/// counts rows, not leaves.
pub(crate) fn nn_chain_merges(
    dist: Matrix,
    sizes: &[usize],
    linkage: Linkage,
    collector: &Collector,
) -> Result<Vec<Merge>, ClusterError> {
    if !is_reducible(linkage) {
        return Err(ClusterError::UnsupportedLinkage { linkage });
    }
    let _span = collector.span(stages::CLUSTER_MERGE_LOOP);
    agglomerative::validate_distance_matrix(&dist)?;
    let n = dist.nrows();
    debug_assert_eq!(sizes.len(), n);
    if n == 1 {
        return Ok(Vec::new());
    }
    let lane_clock = collector.lane_clock();
    let mut lane_buf = lane_clock.map(|_| LaneBuf::with_capacity(n - 1));
    let mut step_begin = lane_clock.map_or(0, |c| c.now_us());
    let raw = chain_loop(dist, sizes, linkage, &mut |step| {
        if let (Some(clock), Some(lanes)) = (lane_clock, lane_buf.as_mut()) {
            let now = clock.now_us();
            lanes.record(step, 0, step_begin, now);
            step_begin = now;
        }
    })?;
    let merges = sort_merges(n, raw);
    for m in &merges {
        collector.record_merge(m.distance);
    }
    if let Some(lanes) = lane_buf.as_mut() {
        lanes.end_run();
        collector.attach_lanes(stages::CLUSTER_MERGE_LOOP, n - 1, lanes);
    }
    Ok(merges)
}

/// The chain loop proper: consumes the working matrix, returns raw merges
/// as `(smaller id, larger id, distance, size)` in discovery order, and
/// calls `on_merge(step)` after each merge (for lane recording).
fn chain_loop(
    mut d: Matrix,
    sizes: &[usize],
    linkage: Linkage,
    on_merge: &mut dyn FnMut(usize),
) -> Result<Vec<(usize, usize, f64, usize)>, ClusterError> {
    let n = d.nrows();
    // Slot metadata: Some((dendrogram id, size)) while active.
    let mut info: Vec<Option<(usize, usize)>> = sizes
        .iter()
        .enumerate()
        .map(|(i, &m)| Some((i, m)))
        .collect();
    // Compact live-slot list with positions, maintained by swap-removal.
    let mut active: Vec<usize> = (0..n).collect();
    let mut pos: Vec<usize> = (0..n).collect();
    let mut raw_merges: Vec<(usize, usize, f64, usize)> = Vec::with_capacity(n - 1);
    let mut chain: Vec<usize> = Vec::with_capacity(n);
    let mut next_id = n;
    let mut step = 0;

    while active.len() > 1 {
        if chain.is_empty() {
            // Start from the smallest active slot.
            let Some(start) = active.iter().copied().min() else {
                return Err(ClusterError::Internal {
                    what: "NN-chain found no active cluster to start from",
                });
            };
            chain.push(start);
        }
        loop {
            let Some(&top) = chain.last() else {
                return Err(ClusterError::Internal {
                    what: "NN-chain emptied mid-walk",
                });
            };
            // Nearest active neighbor of `top`. The smallest slot wins ties
            // (explicit `(distance, slot)` comparison, so the swap-removal
            // order of the active list cannot change the neighbor) and
            // reciprocal pairs are found deterministically.
            let mut nearest: Option<(usize, f64)> = None;
            for &j in &active {
                if j == top {
                    continue;
                }
                let dj = d[(top, j)];
                let better = match nearest {
                    None => true,
                    Some((bj, bd)) => dj < bd || (dj == bd && j < bj),
                };
                if better {
                    nearest = Some((j, dj));
                }
            }
            let Some((nn, dnn)) = nearest else {
                return Err(ClusterError::Internal {
                    what: "NN-chain found no active neighbor",
                });
            };
            // Reciprocal pair when the nearest neighbor is the previous
            // chain element.
            if chain.len() >= 2 && chain[chain.len() - 2] == nn {
                chain.pop();
                chain.pop();
                let (a, b) = (top.min(nn), top.max(nn));
                let (Some((id_a, size_a)), Some((id_b, size_b))) = (info[a], info[b]) else {
                    return Err(ClusterError::Internal {
                        what: "reciprocal pair referenced an inactive slot",
                    });
                };
                let new_size = size_a + size_b;
                raw_merges.push((id_a.min(id_b), id_a.max(id_b), dnn, new_size));
                // Lance-Williams update into slot a. Each slot's update is
                // independent, so scan order cannot change any entry.
                for &k in &active {
                    if k == a || k == b {
                        continue;
                    }
                    let Some((_, size_k)) = info[k] else {
                        return Err(ClusterError::Internal {
                            what: "active list referenced a dead slot",
                        });
                    };
                    let updated = linkage.update(d[(k, a)], d[(k, b)], dnn, size_a, size_b, size_k);
                    d[(k, a)] = updated;
                    d[(a, k)] = updated;
                }
                info[a] = Some((next_id, new_size));
                info[b] = None;
                let pb = pos[b];
                active.swap_remove(pb);
                if pb < active.len() {
                    pos[active[pb]] = pb;
                }
                next_id += 1;
                on_merge(step);
                step += 1;
                break;
            }
            chain.push(nn);
        }
    }
    Ok(raw_merges)
}

/// Sorts raw merges by distance (stable on discovery order) and remaps the
/// intermediate cluster ids accordingly.
fn sort_merges(n_leaves: usize, raw: Vec<(usize, usize, f64, usize)>) -> Vec<Merge> {
    let mut order: Vec<usize> = (0..raw.len()).collect();
    order.sort_by(|&i, &j| raw[i].2.total_cmp(&raw[j].2).then(i.cmp(&j)));
    // Old merge index -> new merge index.
    let mut new_index = vec![0usize; raw.len()];
    for (new, &old) in order.iter().enumerate() {
        new_index[old] = new;
    }
    let remap = |id: usize| {
        if id < n_leaves {
            id
        } else {
            n_leaves + new_index[id - n_leaves]
        }
    };
    order
        .iter()
        .map(|&old| {
            let (left, right, distance, size) = raw[old];
            let (l, r) = (remap(left), remap(right));
            Merge {
                left: l.min(r),
                right: l.max(r),
                distance,
                size,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agglomerative::cluster_from_distances;
    use hiermeans_linalg::distance::{pairwise, Metric};

    fn grid_points(n: usize) -> Matrix {
        // Deterministic pseudo-random points with no structured distance
        // ties — cut equivalence between the two algorithms is only
        // guaranteed when all merge distances are distinct.
        fn hash(mut x: u64) -> u64 {
            x ^= x >> 33;
            x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
            x ^= x >> 33;
            x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
            x ^ (x >> 33)
        }
        let coord = |seed: u64| (hash(seed) % 1_000_000) as f64 / 50_000.0;
        let rows: Vec<Vec<f64>> = (0..n as u64)
            .map(|i| vec![coord(2 * i + 1), coord(2 * i + 2)])
            .collect();
        Matrix::from_rows(&rows).unwrap()
    }

    fn dist(pts: &Matrix) -> Matrix {
        pairwise(pts, Metric::Euclidean).unwrap()
    }

    fn chain(pts: &Matrix, linkage: Linkage) -> Result<Dendrogram, ClusterError> {
        cluster_nn_chain_owned(dist(pts), linkage, &Collector::disabled())
    }

    fn naive(pts: &Matrix, linkage: Linkage) -> Dendrogram {
        cluster_from_distances(&dist(pts), linkage, &Collector::disabled()).unwrap()
    }

    #[test]
    fn equivalent_cuts_to_naive_for_reducible_linkages() {
        let pts = grid_points(24);
        for linkage in [
            Linkage::Single,
            Linkage::Complete,
            Linkage::Average,
            Linkage::Ward,
        ] {
            let fast = chain(&pts, linkage).unwrap();
            let slow = naive(&pts, linkage);
            for k in 1..=24 {
                let a = fast.cut_into(k).unwrap();
                let b = slow.cut_into(k).unwrap();
                assert!(
                    (a.rand_index(&b).unwrap() - 1.0).abs() < 1e-12,
                    "{linkage} differs at k={k}"
                );
            }
        }
    }

    #[test]
    fn merge_distances_match_naive() {
        let pts = grid_points(16);
        for linkage in [Linkage::Complete, Linkage::Average, Linkage::Ward] {
            let fast = chain(&pts, linkage).unwrap();
            let slow = naive(&pts, linkage);
            let mut df = fast.merge_distances();
            let mut ds = slow.merge_distances();
            df.sort_by(|a, b| a.partial_cmp(b).unwrap());
            ds.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for (a, b) in df.iter().zip(&ds) {
                assert!((a - b).abs() < 1e-9, "{linkage}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn result_is_monotone_for_reducible_linkages() {
        let pts = grid_points(20);
        for linkage in [
            Linkage::Single,
            Linkage::Complete,
            Linkage::Average,
            Linkage::Ward,
        ] {
            let d = chain(&pts, linkage).unwrap();
            assert!(d.is_monotone(), "{linkage}");
        }
    }

    #[test]
    fn rejects_non_reducible_linkages() {
        let pts = grid_points(5);
        for linkage in [Linkage::Centroid, Linkage::Median] {
            assert_eq!(
                chain(&pts, linkage).unwrap_err(),
                ClusterError::UnsupportedLinkage { linkage }
            );
        }
    }

    #[test]
    fn trivial_inputs() {
        let one = Matrix::from_rows(&[vec![1.0]]).unwrap();
        let d = chain(&one, Linkage::Complete).unwrap();
        assert_eq!(d.n_leaves(), 1);
        let empty = Matrix::zeros(0, 0);
        assert_eq!(
            cluster_nn_chain_owned(empty, Linkage::Complete, &Collector::disabled()).unwrap_err(),
            ClusterError::EmptyInput
        );
    }

    #[test]
    fn two_points() {
        let pts = Matrix::from_rows(&[vec![0.0], vec![5.0]]).unwrap();
        let d = chain(&pts, Linkage::Ward).unwrap();
        assert_eq!(d.merges().len(), 1);
        assert!((d.merges()[0].distance - 5.0).abs() < 1e-12);
    }

    #[test]
    fn reducibility_flags() {
        assert!(is_reducible(Linkage::Complete));
        assert!(is_reducible(Linkage::Ward));
        assert!(!is_reducible(Linkage::Centroid));
        assert!(!is_reducible(Linkage::Median));
    }

    #[test]
    fn handles_exact_ties() {
        // A square: all nearest-neighbor distances tie.
        let pts = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
        ])
        .unwrap();
        let d = chain(&pts, Linkage::Complete).unwrap();
        assert_eq!(d.merges().len(), 3);
        assert!(d.is_monotone());
    }

    #[test]
    fn traced_matches_untraced_and_naive_trace() {
        let pts = grid_points(32);
        let traced_collector = Collector::enabled();
        let traced =
            cluster_nn_chain_owned(dist(&pts), Linkage::Complete, &traced_collector).unwrap();
        assert_eq!(traced, chain(&pts, Linkage::Complete).unwrap());

        // Complete linkage's Lance–Williams update is a pure max selection,
        // so the naive loop sees the same merge distances bit for bit and
        // the two loops must fingerprint identically.
        let naive_collector = Collector::enabled();
        let naive =
            cluster_from_distances(&dist(&pts), Linkage::Complete, &naive_collector).unwrap();
        assert_eq!(traced, naive);
        assert_eq!(
            traced_collector.report().unwrap().fingerprint(),
            naive_collector.report().unwrap().fingerprint()
        );
    }
}
