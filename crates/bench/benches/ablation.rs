//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * SOM vs PCA vs no reduction as the dimension-reduction stage (the paper
//!   argues for SOM; Section VI) — wall-clock comparison here, cluster
//!   quality in `tests/ablation.rs`.
//! * log-space vs naive geometric mean.

use criterion::{criterion_group, criterion_main, Criterion};
use hiermeans_cluster::{agglomerative, Linkage};
use hiermeans_core::means::{geometric_mean, geometric_mean_naive};
use hiermeans_core::pipeline::{run_pipeline, run_without_som, PipelineConfig};
use hiermeans_linalg::distance::Metric;
use hiermeans_linalg::pca::Pca;
use hiermeans_obs::Collector;
use hiermeans_workload::charvec::CharacteristicVectors;
use hiermeans_workload::sar::SarCollector;
use hiermeans_workload::Machine;

fn bench_reduction_choice(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_reduction");
    group.sample_size(10);
    let sar = SarCollector::paper().collect(Machine::A).unwrap();
    let vectors = CharacteristicVectors::from_sar(&sar).unwrap();
    group.bench_function("som_then_cluster", |b| {
        b.iter(|| run_pipeline(vectors.matrix(), &PipelineConfig::default()).unwrap())
    });
    group.bench_function("pca_then_cluster", |b| {
        b.iter(|| {
            let pca = Pca::fit(vectors.matrix(), 2).unwrap();
            let reduced = pca.transform(vectors.matrix()).unwrap();
            agglomerative::cluster(
                &reduced,
                Metric::Euclidean,
                Linkage::Complete,
                &Collector::disabled(),
            )
            .unwrap()
        })
    });
    group.bench_function("cluster_raw_vectors", |b| {
        b.iter(|| run_without_som(vectors.matrix(), &PipelineConfig::default()).unwrap())
    });
    group.finish();
}

fn bench_geomean_numerics(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_geomean");
    let xs: Vec<f64> = (0..1000).map(|i| 0.5 + (i % 13) as f64 * 0.21).collect();
    group.bench_function("log_space", |b| {
        b.iter(|| geometric_mean(std::hint::black_box(&xs)).unwrap())
    });
    group.bench_function("naive_product", |b| {
        b.iter(|| geometric_mean_naive(std::hint::black_box(&xs)).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_reduction_choice, bench_geomean_numerics);
criterion_main!(benches);
