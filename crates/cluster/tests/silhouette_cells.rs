//! The occupied-cell silhouette kernel ≡ the per-pair loop, bit for bit.
//!
//! `validity::silhouette` and `selection::silhouette_sweep` score a cut by
//! grouping rows into distinct cells and summing a cell-distance table. The
//! argument for exactness (same member order, a `+0.0` self term, identical
//! distances within a cell) is pinned here against the textbook per-pair
//! oracles on the inputs that stress it: integer lattices full of
//! duplicates, all-distinct points, cuts with singleton clusters, and a
//! single occupied cell.

mod oracle;

use hiermeans_cluster::{agglomerative, selection, validity, ClusterAssignment, Linkage};
use hiermeans_linalg::distance::{pairwise, Metric};
use hiermeans_linalg::Matrix;
use hiermeans_obs::Collector;
use proptest::prelude::*;

const LINKAGES: [Linkage; 4] = [
    Linkage::Single,
    Linkage::Complete,
    Linkage::Average,
    Linkage::Ward,
];

/// Points on a small integer lattice (SOM-position-like), with planted
/// copies of earlier rows so most cells hold several rows.
fn lattice() -> impl Strategy<Value = Matrix> {
    (3usize..48, 1usize..4).prop_flat_map(|(n, dim)| {
        (
            prop::collection::vec(0u8..4, n * dim),
            prop::collection::vec(0usize..n, n),
            prop::collection::vec(0u8..2, n),
        )
            .prop_map(move |(coords, sources, copy)| {
                let mut data: Vec<f64> = coords.into_iter().map(f64::from).collect();
                for i in 1..n {
                    if copy[i] == 1 {
                        let src = sources[i] % i;
                        data.copy_within(src * dim..(src + 1) * dim, i * dim);
                    }
                }
                Matrix::from_vec(n, dim, data).expect("len matches")
            })
    })
}

/// Continuous points made distinct by construction: the first coordinate
/// is the row index plus a fraction, so every row is its own cell.
fn distinct() -> impl Strategy<Value = Matrix> {
    (3usize..40, 1usize..4).prop_flat_map(|(n, dim)| {
        prop::collection::vec(-1e2..1e2f64, n * dim).prop_map(move |mut data| {
            for i in 0..n {
                data[i * dim] = i as f64 + data[i * dim].abs() / 256.0;
            }
            Matrix::from_vec(n, dim, data).expect("len matches")
        })
    })
}

/// `n` copies of one row: a single occupied cell.
fn one_cell() -> impl Strategy<Value = Matrix> {
    (3usize..32, prop::collection::vec(-1e2..1e2f64, 1..4)).prop_map(|(n, row)| {
        let rows = vec![row; n];
        Matrix::from_rows(&rows).expect("rectangular")
    })
}

/// Pairs `points` with raw labels for an arbitrary partition of its rows.
fn with_partition(
    points: impl Strategy<Value = Matrix>,
) -> impl Strategy<Value = (Matrix, Vec<usize>)> {
    points.prop_flat_map(|pts| {
        let n = pts.nrows();
        (Just(pts), prop::collection::vec(0usize..8, n))
    })
}

/// Every per-k silhouette of every linkage's dendrogram over `pts`, from
/// both `silhouette` and `silhouette_sweep`, equals the per-pair oracles
/// bit for bit, and `silhouette_k` picks the oracle sweep's `k`. The
/// cuts near `k = n` are mostly singletons. `raw` adds an arbitrary
/// partition with planted singleton clusters.
fn check_every_cut(pts: &Matrix, raw: &[usize]) -> Result<(), TestCaseError> {
    let n = pts.nrows();
    let dist = pairwise(pts, Metric::Euclidean).unwrap();
    for linkage in LINKAGES {
        let d = agglomerative::cluster(pts, Metric::Euclidean, linkage, &Collector::disabled())
            .unwrap();
        let sweep = selection::silhouette_sweep(&d, pts, 2..=n).unwrap();
        prop_assert_eq!(sweep.len(), n - 1);
        let mut expected = Vec::with_capacity(n - 1);
        for &(k, swept) in &sweep {
            let cut = d.cut_into(k).unwrap();
            let naive = oracle::silhouette(pts, cut.labels());
            let from_dist = oracle::silhouette_from_distances(&dist, cut.labels());
            let single = validity::silhouette(pts, &cut).unwrap();
            prop_assert_eq!(naive.to_bits(), from_dist.to_bits());
            prop_assert_eq!(single.to_bits(), naive.to_bits(), "silhouette, k={}", k);
            prop_assert_eq!(swept.to_bits(), naive.to_bits(), "sweep, k={}", k);
            expected.push((k, naive));
        }
        prop_assert_eq!(
            selection::silhouette_k(&d, pts, 2..=n).unwrap(),
            oracle::best_k(2, expected)
        );
    }
    // The last row gets a label of its own: a guaranteed singleton cluster
    // beside at least one other cluster.
    let mut raw = raw.to_vec();
    raw[n - 1] = 9;
    let cut = ClusterAssignment::from_labels(&raw).unwrap();
    let s = validity::silhouette(pts, &cut).unwrap();
    prop_assert_eq!(s.to_bits(), oracle::silhouette(pts, cut.labels()).to_bits());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lattice_with_duplicates_matches_oracle((pts, raw) in with_partition(lattice())) {
        check_every_cut(&pts, &raw)?;
    }

    #[test]
    fn all_distinct_points_match_oracle((pts, raw) in with_partition(distinct())) {
        check_every_cut(&pts, &raw)?;
    }

    #[test]
    fn single_cell_matches_oracle((pts, raw) in with_partition(one_cell())) {
        check_every_cut(&pts, &raw)?;
        // Every distance is zero, so every cut scores exactly 0 and the
        // tie rule keeps the smallest k.
        let d = agglomerative::cluster(&pts, Metric::Euclidean, Linkage::Complete, &Collector::disabled()).unwrap();
        let n = pts.nrows();
        for (_, s) in selection::silhouette_sweep(&d, &pts, 2..=n).unwrap() {
            prop_assert_eq!(s.to_bits(), 0.0f64.to_bits());
        }
        prop_assert_eq!(selection::silhouette_k(&d, &pts, 2..=n).unwrap(), 2);
    }
}

#[test]
fn sweep_validates_inputs() {
    let pts = Matrix::from_rows(&[vec![0.0], vec![0.0], vec![5.0], vec![6.0]]).unwrap();
    let d = agglomerative::cluster(
        &pts,
        Metric::Euclidean,
        Linkage::Complete,
        &Collector::disabled(),
    )
    .unwrap();
    assert!(selection::silhouette_sweep(&d, &pts, 1..=3).is_err());
    assert!(selection::silhouette_sweep(&d, &pts, 2..=5).is_err());
    let reversed = std::ops::RangeInclusive::new(3, 2);
    assert!(selection::silhouette_sweep(&d, &pts, reversed).is_err());
    let wrong_rows = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]).unwrap();
    assert!(selection::silhouette_sweep(&d, &wrong_rows, 2..=3).is_err());
    let ks: Vec<usize> = selection::silhouette_sweep(&d, &pts, 2..=4)
        .unwrap()
        .into_iter()
        .map(|(k, _)| k)
        .collect();
    assert_eq!(ks, vec![2, 3, 4]);
}
