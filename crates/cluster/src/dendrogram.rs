//! Dendrograms: the full merge history of an agglomerative clustering.
//!
//! "Clustering result can be represented as a *dendrogram* which visualizes
//! which workloads form a cluster at which merging distance. ... By varying
//! the merging distance, we can determine how many workload clusters exist in
//! a benchmark suite." (Section III-B). [`Dendrogram::cut_at`] implements the
//! merging-distance cut, and [`Dendrogram::cut_into`] the exact-`k` cut used
//! to build the paper's Tables IV-VI.

use hiermeans_linalg::Matrix;
use serde::{DeError, Deserialize, Serialize, Value};

use crate::{ClusterAssignment, ClusterError};

/// One agglomeration step.
///
/// Cluster ids follow the SciPy convention: ids `0..n` are the original
/// points (leaves); the merge at index `i` creates cluster id `n + i`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Merge {
    /// Id of the first merged cluster.
    pub left: usize,
    /// Id of the second merged cluster.
    pub right: usize,
    /// The merging distance at which the two clusters fused.
    pub distance: f64,
    /// Number of leaves in the new cluster.
    pub size: usize,
}

/// The merge history over `n` leaves (`n - 1` merges).
///
/// Deserialization goes through [`Dendrogram::new`], so a parsed
/// dendrogram satisfies the same invariants as a constructed one.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Dendrogram {
    n_leaves: usize,
    merges: Vec<Merge>,
}

impl Dendrogram {
    /// Builds a dendrogram from a merge list.
    ///
    /// # Errors
    ///
    /// * [`ClusterError::EmptyInput`] if `n_leaves` is zero.
    /// * [`ClusterError::InvalidLabels`] if the merge count is not
    ///   `n_leaves - 1`, a merge references an id that does not exist yet,
    ///   or a merge uses a cluster id that an earlier merge already
    ///   consumed.
    pub fn new(n_leaves: usize, merges: Vec<Merge>) -> Result<Self, ClusterError> {
        if n_leaves == 0 {
            return Err(ClusterError::EmptyInput);
        }
        if merges.len() + 1 != n_leaves {
            return Err(ClusterError::InvalidLabels {
                reason: "a dendrogram over n leaves must contain exactly n - 1 merges",
            });
        }
        let mut consumed = vec![false; n_leaves + merges.len()];
        for (i, m) in merges.iter().enumerate() {
            let max_id = n_leaves + i;
            if m.left >= max_id || m.right >= max_id || m.left == m.right {
                return Err(ClusterError::InvalidLabels {
                    reason: "merge references an invalid cluster id",
                });
            }
            if consumed[m.left] || consumed[m.right] {
                return Err(ClusterError::InvalidLabels {
                    reason: "merge reuses a cluster id an earlier merge consumed",
                });
            }
            consumed[m.left] = true;
            consumed[m.right] = true;
        }
        Ok(Dendrogram { n_leaves, merges })
    }

    /// The number of original points.
    pub fn n_leaves(&self) -> usize {
        self.n_leaves
    }

    /// The merge steps in agglomeration order.
    pub fn merges(&self) -> &[Merge] {
        &self.merges
    }

    /// The merging distances in agglomeration order.
    pub fn merge_distances(&self) -> Vec<f64> {
        self.merges.iter().map(|m| m.distance).collect()
    }

    /// Returns `true` if merge distances never decrease (no inversions).
    pub fn is_monotone(&self) -> bool {
        self.merges
            .windows(2)
            .all(|w| w[1].distance >= w[0].distance - 1e-12)
    }

    /// Cuts at a merging distance: applies the longest *prefix* of merges
    /// whose distances are all `<= threshold` and returns the resulting
    /// clusters.
    ///
    /// "At a specific merging distance, clusters that are located closer than
    /// the merging distance should merge."
    ///
    /// For monotone dendrograms the prefix rule is exact — the prefix is
    /// precisely the set of merges at or below the threshold. For
    /// non-monotone dendrograms (centroid/median linkage can invert), the
    /// `take_while` stops at the first merge *above* the threshold even if
    /// later merges dip back below it: a merge can only be applied once its
    /// operands exist, so skipping an early merge and applying a later one
    /// that depends on it would be incoherent. The cut therefore honors
    /// merge order, not just merge height.
    pub fn cut_at(&self, threshold: f64) -> ClusterAssignment {
        let applied = self
            .merges
            .iter()
            .take_while(|m| m.distance <= threshold)
            .count();
        self.assignment_after(applied)
    }

    /// Cuts into exactly `k` clusters by applying the first `n - k` merges.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidClusterCount`] unless `1 <= k <= n`.
    pub fn cut_into(&self, k: usize) -> Result<ClusterAssignment, ClusterError> {
        if k == 0 || k > self.n_leaves {
            return Err(ClusterError::InvalidClusterCount {
                requested: k,
                points: self.n_leaves,
            });
        }
        Ok(self.assignment_after(self.n_leaves - k))
    }

    /// The smallest threshold at which [`Dendrogram::cut_at`] yields exactly
    /// `k` clusters: the distance of the last merge the cut must apply (the
    /// `(n-k)`-th). Any threshold in the half-open interval from this value
    /// up to (but excluding) the next merge's distance produces the same
    /// `k`-cluster partition; this returns the interval's lower bound rather
    /// than a midpoint or a "next distance minus epsilon" convention.
    ///
    /// Returns 0.0 for `k == n`.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidClusterCount`] unless `1 <= k <= n`.
    pub fn threshold_for(&self, k: usize) -> Result<f64, ClusterError> {
        if k == 0 || k > self.n_leaves {
            return Err(ClusterError::InvalidClusterCount {
                requested: k,
                points: self.n_leaves,
            });
        }
        if k == self.n_leaves {
            return Ok(0.0);
        }
        Ok(self.merges[self.n_leaves - k - 1].distance)
    }

    fn assignment_after(&self, n_merges: usize) -> ClusterAssignment {
        // Union-find over leaf + merge ids.
        let total = self.n_leaves + n_merges;
        let mut parent: Vec<usize> = (0..total).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for (i, m) in self.merges.iter().take(n_merges).enumerate() {
            let new_id = self.n_leaves + i;
            let rl = find(&mut parent, m.left);
            let rr = find(&mut parent, m.right);
            parent[rl] = new_id;
            parent[rr] = new_id;
        }
        let roots: Vec<usize> = (0..self.n_leaves)
            .map(|leaf| find(&mut parent, leaf))
            .collect();
        // n_leaves > 0 is guaranteed by the constructor, so the roots are
        // never empty; densify is the infallible path.
        ClusterAssignment::densify(&roots)
    }

    /// The cophenetic distance matrix: entry `(i, j)` is the merging distance
    /// at which leaves `i` and `j` first share a cluster.
    pub fn cophenetic(&self) -> Matrix {
        let n = self.n_leaves;
        let mut coph = Matrix::zeros(n, n);
        // members[id] = leaves under that cluster id; merged lists are moved
        // into the new cluster's slot, so each leaf lives in exactly one
        // list at any time and every pair is written by exactly one merge.
        let mut members: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        members.reserve(self.merges.len());
        for m in &self.merges {
            let left = std::mem::take(&mut members[m.left]);
            let right = std::mem::take(&mut members[m.right]);
            for &a in &left {
                for &b in &right {
                    coph[(a, b)] = m.distance;
                    coph[(b, a)] = m.distance;
                }
            }
            let mut merged = left;
            merged.extend(right);
            members.push(merged);
        }
        coph
    }

    /// Leaves in dendrogram-plot order: a depth-first traversal placing each
    /// merge's left subtree before its right subtree, so connected subtrees
    /// occupy contiguous spans (used by the ASCII renderer).
    pub fn leaf_order(&self) -> Vec<usize> {
        if self.merges.is_empty() {
            return vec![0];
        }
        let root = self.n_leaves + self.merges.len() - 1;
        let mut order = Vec::with_capacity(self.n_leaves);
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if id < self.n_leaves {
                order.push(id);
            } else {
                let m = &self.merges[id - self.n_leaves];
                // Push right first so left is visited first.
                stack.push(m.right);
                stack.push(m.left);
            }
        }
        order
    }
}

impl Deserialize for Dendrogram {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Dendrogram::new(serde::field(v, "n_leaves")?, serde::field(v, "merges")?)
            .map_err(|e| DeError::new(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4 leaves: (0, 1) at d=1, (2, 3) at d=2, then both at d=5.
    fn sample() -> Dendrogram {
        Dendrogram::new(
            4,
            vec![
                Merge {
                    left: 0,
                    right: 1,
                    distance: 1.0,
                    size: 2,
                },
                Merge {
                    left: 2,
                    right: 3,
                    distance: 2.0,
                    size: 2,
                },
                Merge {
                    left: 4,
                    right: 5,
                    distance: 5.0,
                    size: 4,
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn cut_at_thresholds() {
        let d = sample();
        assert_eq!(d.cut_at(0.5).n_clusters(), 4);
        assert_eq!(d.cut_at(1.0).n_clusters(), 3);
        assert_eq!(d.cut_at(2.0).n_clusters(), 2);
        assert_eq!(d.cut_at(5.0).n_clusters(), 1);
        assert_eq!(d.cut_at(100.0).n_clusters(), 1);
    }

    #[test]
    fn cut_at_groups_correctly() {
        let a = sample().cut_at(2.5);
        assert!(a.same_cluster(0, 1));
        assert!(a.same_cluster(2, 3));
        assert!(!a.same_cluster(0, 2));
    }

    #[test]
    fn cut_into_every_k() {
        let d = sample();
        for k in 1..=4 {
            assert_eq!(d.cut_into(k).unwrap().n_clusters(), k);
        }
        assert!(d.cut_into(0).is_err());
        assert!(d.cut_into(5).is_err());
    }

    #[test]
    fn threshold_for_matches_cut() {
        let d = sample();
        for k in 1..=4 {
            let t = d.threshold_for(k).unwrap();
            assert_eq!(d.cut_at(t).n_clusters(), k, "k={k} t={t}");
        }
    }

    #[test]
    fn cophenetic_known() {
        let c = sample().cophenetic();
        assert_eq!(c[(0, 1)], 1.0);
        assert_eq!(c[(2, 3)], 2.0);
        assert_eq!(c[(0, 2)], 5.0);
        assert_eq!(c[(1, 3)], 5.0);
        assert_eq!(c[(0, 0)], 0.0);
        // Symmetry.
        assert_eq!(c[(3, 1)], c[(1, 3)]);
    }

    #[test]
    fn monotone_detection() {
        assert!(sample().is_monotone());
        let inverted = Dendrogram::new(
            3,
            vec![
                Merge {
                    left: 0,
                    right: 1,
                    distance: 2.0,
                    size: 2,
                },
                Merge {
                    left: 3,
                    right: 2,
                    distance: 1.0,
                    size: 3,
                },
            ],
        )
        .unwrap();
        assert!(!inverted.is_monotone());
    }

    #[test]
    fn leaf_order_contiguous_subtrees() {
        let order = sample().leaf_order();
        assert_eq!(order.len(), 4);
        // {0,1} and {2,3} each occupy contiguous positions.
        let pos = |x: usize| order.iter().position(|&v| v == x).unwrap();
        assert_eq!((pos(0) as isize - pos(1) as isize).abs(), 1);
        assert_eq!((pos(2) as isize - pos(3) as isize).abs(), 1);
    }

    #[test]
    fn constructor_validation() {
        assert!(Dendrogram::new(0, vec![]).is_err());
        assert!(Dendrogram::new(3, vec![]).is_err()); // needs 2 merges
                                                      // Merge referencing a not-yet-created id.
        let bad = Dendrogram::new(
            2,
            vec![Merge {
                left: 0,
                right: 5,
                distance: 1.0,
                size: 2,
            }],
        );
        assert!(bad.is_err());
        // Self-merge.
        let self_merge = Dendrogram::new(
            2,
            vec![Merge {
                left: 0,
                right: 0,
                distance: 1.0,
                size: 2,
            }],
        );
        assert!(self_merge.is_err());
    }

    #[test]
    fn single_leaf() {
        let d = Dendrogram::new(1, vec![]).unwrap();
        assert_eq!(d.cut_at(0.0).n_clusters(), 1);
        assert_eq!(d.leaf_order(), vec![0]);
        assert_eq!(d.cut_into(1).unwrap().n_clusters(), 1);
    }

    #[test]
    fn merge_distances_reported() {
        assert_eq!(sample().merge_distances(), vec![1.0, 2.0, 5.0]);
    }
}
