//! Agglomerative clustering and k-means benchmarks across input sizes and
//! linkage rules.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hiermeans_cluster::{agglomerative, nnchain, KMeans, KMeansConfig, Linkage};
use hiermeans_linalg::distance::{pairwise_norm_trick, Metric};
use hiermeans_linalg::Matrix;
use hiermeans_obs::Collector;

fn points(n: usize) -> Matrix {
    let data: Vec<f64> = (0..n * 2)
        .map(|i| ((i.wrapping_mul(2654435761)) % 1000) as f64 / 50.0)
        .collect();
    Matrix::from_vec(n, 2, data).expect("length matches")
}

fn bench_agglomerative(c: &mut Criterion) {
    // Every size sits below the 128-point NN-chain threshold, so this
    // series times `cluster` on the naive loop throughout;
    // `nnchain_vs_naive` compares the two loops directly.
    let mut group = c.benchmark_group("agglomerative");
    for n in [13usize, 64, 96] {
        let pts = points(n);
        group.bench_with_input(BenchmarkId::new("complete", n), &pts, |b, pts| {
            b.iter(|| {
                agglomerative::cluster(
                    std::hint::black_box(pts),
                    Metric::Euclidean,
                    Linkage::Complete,
                    &Collector::disabled(),
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_linkages(c: &mut Criterion) {
    let mut group = c.benchmark_group("linkage_rules");
    let pts = points(64);
    for linkage in Linkage::all() {
        group.bench_with_input(BenchmarkId::from_parameter(linkage), &pts, |b, pts| {
            b.iter(|| {
                agglomerative::cluster(
                    std::hint::black_box(pts),
                    Metric::Euclidean,
                    linkage,
                    &Collector::disabled(),
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_nnchain_vs_naive(c: &mut Criterion) {
    // The O(n^2) nearest-neighbor chain against the O(n^3) textbook loop
    // over one precomputed distance matrix: equivalent dendrograms
    // (tested), diverging wall-clock as n grows. n = 13 is the paper's
    // study size, below `cluster`'s 128-point switch to NN-chain.
    let mut group = c.benchmark_group("nnchain_vs_naive");
    group.sample_size(10);
    for n in [13usize, 32, 128, 256] {
        let dist = pairwise_norm_trick(&points(n), Metric::Euclidean, None).unwrap();
        group.bench_with_input(BenchmarkId::new("naive", n), &dist, |b, dist| {
            b.iter(|| {
                agglomerative::cluster_from_distances(
                    std::hint::black_box(dist),
                    Linkage::Complete,
                    &Collector::disabled(),
                )
                .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("nn_chain", n), &dist, |b, dist| {
            b.iter(|| {
                nnchain::cluster_nn_chain_owned(
                    std::hint::black_box(dist).clone(),
                    Linkage::Complete,
                    &Collector::disabled(),
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_kmeans(c: &mut Criterion) {
    let mut group = c.benchmark_group("kmeans");
    for n in [64usize, 256] {
        let pts = points(n);
        group.bench_with_input(BenchmarkId::new("k6", n), &pts, |b, pts| {
            b.iter(|| KMeans::fit(std::hint::black_box(pts), KMeansConfig::new(6)).unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_agglomerative,
    bench_linkages,
    bench_nnchain_vs_naive,
    bench_kmeans
);
criterion_main!(benches);
