//! Scalar-vs-blocked benchmarks of the compute-kernel layer
//! (`hiermeans_linalg::kernels`): the register-tile matmul against the
//! naive triple loop at the pipeline's projection shape
//! `(n x dim) · (dim x dim)`, the streamed covariance against the seed's
//! strided column-pair loop, and the norm-trick BMU batch search against
//! the per-row scalar scan (`Som::bmu2`), at 13 (the paper's suite), 128,
//! and 1024 rows and 12/64 dimensions.
//!
//! All comparisons pin the worker override to 1 so the numbers isolate
//! the kernel change; `repro bench-kernels` records the same comparison
//! into `BENCH_kernels.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hiermeans_bench::kernels::{KERNEL_DIMS, KERNEL_SIZES};
use hiermeans_bench::perf::synthetic_vectors;
use hiermeans_linalg::kernels;
use hiermeans_linalg::parallel;
use hiermeans_som::{SomBuilder, TrainingMode};

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    group.sample_size(10);
    for dim in KERNEL_DIMS {
        for n in KERNEL_SIZES {
            let a = synthetic_vectors(n, dim);
            let b = synthetic_vectors(dim, dim);
            let id = format!("{n}x{dim}");
            group.bench_function(BenchmarkId::new("scalar", &id), |bench| {
                bench.iter(|| {
                    kernels::matmul_reference(std::hint::black_box(&a), std::hint::black_box(&b))
                        .unwrap()
                })
            });
            group.bench_function(BenchmarkId::new("blocked", &id), |bench| {
                bench.iter(|| {
                    kernels::matmul(std::hint::black_box(&a), std::hint::black_box(&b)).unwrap()
                })
            });
        }
    }
    group.finish();
}

fn bench_covariance(c: &mut Criterion) {
    let mut group = c.benchmark_group("covariance");
    group.sample_size(10);
    for dim in KERNEL_DIMS {
        for n in KERNEL_SIZES {
            let a = synthetic_vectors(n, dim);
            let id = format!("{n}x{dim}");
            group.bench_function(BenchmarkId::new("blocked", &id), |bench| {
                bench.iter(|| std::hint::black_box(&a).covariance().unwrap())
            });
        }
    }
    group.finish();
}

fn bench_bmu_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("bmu_batch");
    group.sample_size(10);
    parallel::set_worker_override(Some(1));
    for dim in KERNEL_DIMS {
        for n in KERNEL_SIZES {
            let data = synthetic_vectors(n, dim);
            let som = SomBuilder::new(16, 16)
                .seed(7)
                .epochs(1)
                .mode(TrainingMode::Batch)
                .train(&data)
                .unwrap();
            let id = format!("{n}x{dim}");
            group.bench_function(BenchmarkId::new("scalar", &id), |bench| {
                bench.iter(|| {
                    let data = std::hint::black_box(&data);
                    for r in 0..data.nrows() {
                        std::hint::black_box(som.bmu2(data.row(r)).unwrap());
                    }
                })
            });
            group.bench_function(BenchmarkId::new("blocked", &id), |bench| {
                bench.iter(|| som.bmu_batch(std::hint::black_box(&data)).unwrap())
            });
        }
    }
    parallel::set_worker_override(None);
    group.finish();
}

criterion_group!(benches, bench_matmul, bench_covariance, bench_bmu_batch);
criterion_main!(benches);
