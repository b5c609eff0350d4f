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
//! loop and emits them in the naive loop's: by height, equal heights by
//! the smallest (lower slot, upper slot) pair, a slot being the smallest
//! leaf index a cluster holds, and every merge after its children. Its
//! nearest-neighbor scan breaks ties by the same slot rule, and after each
//! merge it cuts the chain back below any link the merged cluster now
//! beats, so the walk never revisits its own chain. Against
//! [`crate::agglomerative::cluster_from_distances`], on any input, tied
//! lattices included (property-tested):
//!
//! * complete linkage gives the naive dendrogram bit for bit;
//! * single linkage gives its merge heights bit for bit and the same
//!   clusters at every merge height, though among tied merges it may
//!   build a different, equally valid tree;
//! * average, weighted and Ward linkage, whose heights come from
//!   arithmetic that rounds in merge order, give the same structure and
//!   cuts on continuous inputs, with heights equal to final-ULP tolerance.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
/// Merges come out, and the merge trajectory is recorded, in the order
/// the naive loop finds them, so a traced run records the same trajectory
/// either way.
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
/// use hiermeans_linalg::{distance::pairwise, Matrix};
/// use hiermeans_obs::Collector;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let pts = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![10.0], vec![11.0]])?;
/// let dist = pairwise(&pts)?;
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
/// over `dist.nrows()` leaves in the naive loop's order; each merge's
/// `size` counts rows, not leaves.
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
    let mut step_begin = lane_clock.map_or(0.0, |c| c.now_us());
    let found = chain_loop(dist, sizes, linkage, &mut |step| {
        if let (Some(clock), Some(lanes)) = (lane_clock, lane_buf.as_mut()) {
            let now = clock.now_us();
            lanes.record(step, 0, step_begin, now);
            step_begin = now;
        }
    })?;
    let merges = sort_merges(n, found);
    for m in &merges {
        collector.record_merge(m.distance);
    }
    if let Some(lanes) = lane_buf.as_mut() {
        lanes.end_run();
        collector.attach_lanes(stages::CLUSTER_MERGE_LOOP, n - 1, lanes);
    }
    Ok(merges)
}

/// A merge as [`chain_loop`] finds it: the slots of its two clusters
/// (lower first), their ids in discovery numbering (leaves `0..n`, the
/// k-th merge found `n + k`), its height and its row count.
struct Found {
    slots: (usize, usize),
    ids: (usize, usize),
    distance: f64,
    size: usize,
}

/// The chain loop proper: consumes the working matrix, returns the merges
/// in discovery order, and calls `on_merge(step)` after each merge (for
/// lane recording).
///
/// A cluster's slot is the smallest leaf index it holds: a merge keeps the
/// lower of its two slots. Neighbors compare by `(distance, slot)`, the
/// naive loop's tie rule seen from one cluster, so along the chain each
/// link is strictly nearer than the one before and the walk cannot
/// revisit an element.
fn chain_loop(
    mut d: Matrix,
    sizes: &[usize],
    linkage: Linkage,
    on_merge: &mut dyn FnMut(usize),
) -> Result<Vec<Found>, ClusterError> {
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
    let mut found: Vec<Found> = Vec::with_capacity(n - 1);
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
                if nearest.is_none_or(|(bj, bd)| nearer((dj, j), (bd, bj))) {
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
                found.push(Found {
                    slots: (a, b),
                    ids: (id_a, id_b),
                    distance: dnn,
                    size: new_size,
                });
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
                // A chain element whose successor is no longer its nearest
                // neighbor (the merged cluster in slot a now ties it at a
                // lower slot, as single linkage can, or undercuts it by a
                // rounding) invalidates every link above it: cut the chain
                // back to the first such element, which then rescans.
                // Complete linkage never cuts: the merged cluster is as far
                // as its farther part and keeps a part's slot, so it cannot
                // beat a successor that both parts lost to.
                if let Some(i) = (0..chain.len().saturating_sub(1)).find(|&i| {
                    let (c, succ) = (chain[i], chain[i + 1]);
                    nearer((d[(c, a)], a), (d[(c, succ)], succ))
                }) {
                    chain.truncate(i + 1);
                }
                next_id += 1;
                on_merge(step);
                step += 1;
                break;
            }
            chain.push(nn);
        }
    }
    Ok(found)
}

/// The neighbor order: `(distance, slot)`, the smaller slot winning ties.
fn nearer((da, a): (f64, usize), (db, b): (f64, usize)) -> bool {
    da < db || (da == db && a < b)
}

/// Puts the found merges in the naive loop's order and renumbers the
/// intermediate cluster ids accordingly: repeatedly the lowest
/// `(height, lower slot, upper slot)` among the merges whose children
/// are already out. Among merges at one height the naive loop takes the
/// smallest slot pair, and a parent never comes before its children, so
/// over the same merges both loops emit the same sequence.
fn sort_merges(n_leaves: usize, found: Vec<Found>) -> Vec<Merge> {
    // Per merge: how many of its children are merges not yet emitted, and
    // the merge it is a child of.
    let mut waiting = vec![0u8; found.len()];
    let mut parent: Vec<Option<usize>> = vec![None; found.len()];
    for (k, f) in found.iter().enumerate() {
        for id in [f.ids.0, f.ids.1] {
            if id >= n_leaves {
                waiting[k] += 1;
                parent[id - n_leaves] = Some(k);
            }
        }
    }
    // Heights are non-negative, so their bit patterns order like their
    // values; adding 0.0 folds -0.0 into the +0.0 the naive loop's `<`
    // treats it as.
    let key = |k: usize| {
        let f = &found[k];
        Reverse(((f.distance + 0.0).to_bits(), f.slots.0, f.slots.1, k))
    };
    let mut ready: BinaryHeap<_> = (0..found.len())
        .filter(|&k| waiting[k] == 0)
        .map(key)
        .collect();
    // Found merge index -> emitted merge index.
    let mut new_index = vec![0usize; found.len()];
    let mut merges = Vec::with_capacity(found.len());
    while let Some(Reverse((_, _, _, k))) = ready.pop() {
        new_index[k] = merges.len();
        let remap = |id: usize| {
            if id < n_leaves {
                id
            } else {
                n_leaves + new_index[id - n_leaves]
            }
        };
        let f = &found[k];
        let (l, r) = (remap(f.ids.0), remap(f.ids.1));
        merges.push(Merge {
            left: l.min(r),
            right: l.max(r),
            distance: f.distance,
            size: f.size,
        });
        if let Some(p) = parent[k] {
            waiting[p] -= 1;
            if waiting[p] == 0 {
                ready.push(key(p));
            }
        }
    }
    merges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agglomerative::cluster_from_distances;
    use hiermeans_linalg::distance::pairwise;

    fn grid_points(n: usize) -> Matrix {
        // Deterministic pseudo-random points with no structured distance
        // ties, so every linkage's cuts match the naive loop's at every k.
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
        pairwise(pts).unwrap()
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

    /// Single linkage on a tied lattice where the walk used to push a slot
    /// already deeper in the chain and fail with `ClusterError::Internal`
    /// ("reciprocal pair referenced an inactive slot"): a merged cluster
    /// tied a chain link at a lower slot, and nothing cut the stale link.
    #[test]
    fn single_linkage_keeps_its_chain_valid_on_a_tied_lattice() {
        let rows: Vec<Vec<f64>> = [
            [0, 4],
            [3, 4],
            [2, 0],
            [1, 5],
            [2, 2],
            [4, 4],
            [2, 4],
            [3, 1],
            [1, 0],
            [1, 1],
            [2, 5],
            [5, 2],
        ]
        .iter()
        .map(|r| r.iter().map(|&x| f64::from(x)).collect())
        .collect();
        let pts = Matrix::from_rows(&rows).unwrap();
        let fast = chain(&pts, Linkage::Single).unwrap();
        let slow = naive(&pts, Linkage::Single);
        let bits = |d: &Dendrogram| -> Vec<u64> {
            d.merges().iter().map(|m| m.distance.to_bits()).collect()
        };
        assert_eq!(bits(&fast), bits(&slow));
        for h in slow.merge_distances() {
            assert_eq!(fast.cut_at(h), slow.cut_at(h), "cut at {h}");
        }
    }

    /// Ward linkage where Lance–Williams rounding puts a merge a few ULPs
    /// below a child merge: ordering by height alone emitted the parent
    /// first, and `Dendrogram::new` rejected the history.
    #[test]
    fn ward_emits_every_merge_after_its_children() {
        let pts = Matrix::from_rows(&[
            vec![2.0, 4.0],
            vec![1.0, 0.0],
            vec![4.0, 3.0],
            vec![5.0, 1.0],
            vec![3.0, 1.0],
            vec![2.0, 3.0],
        ])
        .unwrap();
        let fast = chain(&pts, Linkage::Ward).unwrap();
        let slow = naive(&pts, Linkage::Ward);
        for k in 1..=6 {
            assert_eq!(
                fast.cut_into(k).unwrap(),
                slow.cut_into(k).unwrap(),
                "k = {k}"
            );
        }
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
