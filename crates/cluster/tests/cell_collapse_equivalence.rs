//! Clustering occupied cells ≡ clustering rows, property-tested.
//!
//! [`cluster`] groups duplicate rows into cells and links the cells as
//! sized leaves. The oracle is the row-level path it replaced:
//! [`pairwise`] over every row, then NN-chain for reducible linkages and
//! the naive loop otherwise. Duplicate rows merge at height 0 either way, so the two dendrograms may number those
//! merges differently; every cut into k ≤ U clusters (U = occupied cells)
//! and every merge height must still agree.
//!
//! * Single, complete and weighted linkage keep a group of duplicates at
//!   its point distance exactly, so on integer lattices — ties everywhere —
//!   heights and cuts agree bit for bit.
//! * Average, Ward, centroid and median linkage reach a group's distances
//!   through arithmetic whose rounding follows the merge order, so on
//!   non-lattice points the heights agree within a tolerance and the cuts
//!   exactly, as in `nnchain_equivalence.rs`.
//!
//! Both paths must succeed on every input: NN-chain keeps its chain valid
//! under ties, so no reducible linkage fails on a tie-heavy lattice.

use std::collections::HashSet;

use hiermeans_cluster::agglomerative::{cluster, cluster_from_distances};
use hiermeans_cluster::nnchain::{cluster_nn_chain_owned, is_reducible};
use hiermeans_cluster::{ClusterError, Dendrogram, Linkage};
use hiermeans_linalg::distance::pairwise;
use hiermeans_linalg::Matrix;
use hiermeans_obs::Collector;
use proptest::prelude::*;

/// The row-level dendrogram: one leaf per row, NN-chain for reducible
/// linkages and the naive loop otherwise.
fn row_oracle(pts: &Matrix, linkage: Linkage) -> Result<Dendrogram, ClusterError> {
    let dist = pairwise(pts).unwrap();
    if is_reducible(linkage) {
        cluster_nn_chain_owned(dist, linkage, &Collector::disabled())
    } else {
        cluster_from_distances(&dist, linkage, &Collector::disabled())
    }
}

/// The cell-level and row-level dendrograms; both paths must succeed.
fn both(pts: &Matrix, linkage: Linkage) -> Result<(Dendrogram, Dendrogram), TestCaseError> {
    let fast = cluster(pts, linkage, &Collector::disabled());
    match (fast, row_oracle(pts, linkage)) {
        (Ok(fast), Ok(oracle)) => Ok((fast, oracle)),
        (fast, oracle) => Err(TestCaseError::fail(format!(
            "{linkage}: cell-level path {:?}, row-level path {:?}",
            fast.err(),
            oracle.err()
        ))),
    }
}

fn cells(pts: &Matrix) -> usize {
    (0..pts.nrows())
        .map(|i| pts.row(i).iter().map(|x| x.to_bits()).collect::<Vec<_>>())
        .collect::<HashSet<_>>()
        .len()
}

/// Copies an earlier row over row `i` wherever `copy[i]` is 1.
fn plant_duplicates(data: &mut [f64], dim: usize, sources: &[usize], copy: &[u8]) {
    for i in 1..copy.len() {
        if copy[i] == 1 {
            let src = sources[i] % i;
            data.copy_within(src * dim..(src + 1) * dim, i * dim);
        }
    }
}

/// Row counts from 3 to 191.
fn row_count() -> impl Strategy<Value = usize> {
    3usize..192
}

/// Points on a small integer lattice (SOM-position-like), with planted
/// copies of earlier rows on top of the lattice's own collisions.
fn lattice() -> impl Strategy<Value = Matrix> {
    (row_count(), 1usize..4, 3u8..9).prop_flat_map(|(n, dim, side)| {
        (
            prop::collection::vec(0..side, n * dim),
            prop::collection::vec(0usize..n, n),
            prop::collection::vec(0u8..2, n),
        )
            .prop_map(move |(coords, sources, copy)| {
                let mut data: Vec<f64> = coords.into_iter().map(f64::from).collect();
                plant_duplicates(&mut data, dim, &sources, &copy);
                Matrix::from_vec(n, dim, data).expect("len matches")
            })
    })
}

/// Continuous points with planted copies of earlier rows.
fn scattered() -> impl Strategy<Value = Matrix> {
    (row_count(), 1usize..4).prop_flat_map(|(n, dim)| {
        (
            prop::collection::vec(-1e2..1e2f64, n * dim),
            prop::collection::vec(0usize..n, n),
            prop::collection::vec(0u8..2, n),
        )
            .prop_map(move |(mut data, sources, copy)| {
                plant_duplicates(&mut data, dim, &sources, &copy);
                Matrix::from_vec(n, dim, data).expect("len matches")
            })
    })
}

/// Cuts into every k ≤ U agree label for label.
fn assert_cuts_agree(cells: &Dendrogram, rows: &Dendrogram, u: usize) -> Result<(), TestCaseError> {
    for k in 1..=u {
        let (a, b) = (cells.cut_into(k).unwrap(), rows.cut_into(k).unwrap());
        prop_assert_eq!(a.labels(), b.labels(), "cut at k = {} of U = {}", k, u);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn exact_linkages_match_the_row_level_path_bit_for_bit(
        pts in lattice(),
        li in 0usize..3,
    ) {
        let linkage = [Linkage::Single, Linkage::Complete, Linkage::Weighted][li];
        let (fast, oracle) = both(&pts, linkage)?;
        let bits = |d: &Dendrogram| -> Vec<u64> {
            d.merges().iter().map(|m| m.distance.to_bits()).collect()
        };
        prop_assert_eq!(bits(&fast), bits(&oracle), "{} merge heights", linkage);
        assert_cuts_agree(&fast, &oracle, cells(&pts))?;
    }

    #[test]
    fn rounding_linkages_match_the_row_level_path_within_tolerance(
        pts in scattered(),
        li in 0usize..4,
    ) {
        let linkage = [Linkage::Average, Linkage::Ward, Linkage::Centroid, Linkage::Median][li];
        let (fast, oracle) = both(&pts, linkage)?;
        for (a, b) in fast.merges().iter().zip(oracle.merges()) {
            prop_assert!(
                (a.distance - b.distance).abs() <= 1e-9 * (1.0 + a.distance.abs()),
                "{} merge height diverged: {} vs {}", linkage, a.distance, b.distance
            );
        }
        assert_cuts_agree(&fast, &oracle, cells(&pts))?;
    }
}

/// Without duplicates the cells are the rows and nothing is expanded: the
/// dendrogram is the row-level one, ids included, for every linkage.
#[test]
fn distinct_rows_give_the_row_level_dendrogram() {
    let rows: Vec<Vec<f64>> = (0..40)
        .map(|i| {
            vec![
                f64::from(i * 7 % 13),
                f64::from(i * i % 17) + 0.25 * f64::from(i),
            ]
        })
        .collect();
    let pts = Matrix::from_rows(&rows).unwrap();
    assert_eq!(cells(&pts), 40);
    for linkage in Linkage::all() {
        let fast = cluster(&pts, linkage, &Collector::disabled()).unwrap();
        assert_eq!(fast, row_oracle(&pts, linkage).unwrap(), "{linkage}");
    }
}

/// A single occupied cell is a chain of height-0 merges in row order.
#[test]
fn one_cell_is_a_chain_of_zero_height_merges() {
    let pts = Matrix::from_rows(&vec![vec![2.0, 3.0]; 5]).unwrap();
    let d = cluster(&pts, Linkage::Ward, &Collector::disabled()).unwrap();
    let merges: Vec<(usize, usize, f64, usize)> = d
        .merges()
        .iter()
        .map(|m| (m.left, m.right, m.distance, m.size))
        .collect();
    assert_eq!(
        merges,
        vec![
            (0, 1, 0.0, 2),
            (2, 5, 0.0, 3),
            (3, 6, 0.0, 4),
            (4, 7, 0.0, 5)
        ]
    );
}
