//! Serial-vs-parallel benchmarks of the shared chunked map-reduce paths:
//! pairwise distances and batch SOM training at 13 (the paper's suite),
//! 128, and 1024 synthetic workloads.
//!
//! "serial" pins the worker override to 1 so the exact same chunked code
//! runs single-threaded; results are bit-identical either way, so the
//! comparison isolates scheduling overhead and speedup.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hiermeans_bench::scale::mixture;
use hiermeans_linalg::distance::{pairwise, pairwise_serial, Metric};
use hiermeans_linalg::parallel;
use hiermeans_som::{SomBuilder, TrainingMode};

/// Workload counts: 13 is the paper's suite size, the larger sizes show
/// where threading pays off.
const SIZES: [usize; 3] = [13, 128, 1024];

/// Dimensionality of the synthetic characteristic vectors.
const DIMS: usize = 32;

fn bench_pairwise(c: &mut Criterion) {
    let mut group = c.benchmark_group("pairwise");
    group.sample_size(10);
    for n in SIZES {
        let data = mixture(n, DIMS);
        group.bench_function(BenchmarkId::new("reference", n), |b| {
            b.iter(|| pairwise_serial(std::hint::black_box(&data), Metric::Euclidean).unwrap())
        });
        parallel::set_worker_override(Some(1));
        group.bench_function(BenchmarkId::new("serial", n), |b| {
            b.iter(|| pairwise(std::hint::black_box(&data), Metric::Euclidean).unwrap())
        });
        parallel::set_worker_override(None);
        group.bench_function(BenchmarkId::new("parallel", n), |b| {
            b.iter(|| pairwise(std::hint::black_box(&data), Metric::Euclidean).unwrap())
        });
    }
    group.finish();
}

fn bench_som_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("som_batch");
    group.sample_size(10);
    for n in SIZES {
        let data = mixture(n, DIMS);
        let train = |data: &hiermeans_linalg::Matrix| {
            SomBuilder::new(10, 10)
                .seed(7)
                .epochs(3)
                .mode(TrainingMode::Batch)
                .train(data)
                .unwrap()
        };
        parallel::set_worker_override(Some(1));
        group.bench_function(BenchmarkId::new("serial", n), |b| {
            b.iter(|| train(std::hint::black_box(&data)))
        });
        parallel::set_worker_override(None);
        group.bench_function(BenchmarkId::new("parallel", n), |b| {
            b.iter(|| train(std::hint::black_box(&data)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pairwise, bench_som_batch);
criterion_main!(benches);
