//! Scalar-vs-blocked benchmarks of the compute-kernel layer
//! (`hiermeans_linalg::kernels`): the register-tile matmul against the
//! naive triple loop at the pipeline's projection shape
//! `(n x dim) · (dim x dim)`, the streamed covariance against the seed's
//! strided column-pair loop, and the norm-trick BMU batch search against
//! the per-row scalar scan (`Som::bmu2`), at 13 (the paper's suite), 128,
//! and 1024 rows and 12/64 dimensions.
//!
//! All comparisons pin the worker override to 1 so the numbers isolate
//! the kernel change.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hiermeans_bench::scale::mixture;
use hiermeans_linalg::{kernels, parallel, Matrix};
use hiermeans_som::{SomBuilder, TrainingMode};

/// Row counts the kernels are measured at; 13 is the paper's suite size.
const KERNEL_SIZES: [usize; 3] = [13, 128, 1024];

/// Vector dimensionalities the kernels are measured at.
const KERNEL_DIMS: [usize; 2] = [12, 64];

/// The seed's covariance loop, kept as the scalar side of the comparison:
/// column means, then one strided pass over all rows per column pair.
fn covariance_reference(m: &Matrix) -> Matrix {
    let n = m.nrows() as f64;
    let means: Vec<f64> = (0..m.ncols())
        .map(|c| (0..m.nrows()).map(|r| m[(r, c)]).sum::<f64>() / n)
        .collect();
    let mut cov = Matrix::zeros(m.ncols(), m.ncols());
    for i in 0..m.ncols() {
        for j in i..m.ncols() {
            let mut s = 0.0;
            for r in 0..m.nrows() {
                s += (m[(r, i)] - means[i]) * (m[(r, j)] - means[j]);
            }
            cov[(i, j)] = s / (n - 1.0);
            cov[(j, i)] = cov[(i, j)];
        }
    }
    cov
}

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    group.sample_size(10);
    for dim in KERNEL_DIMS {
        for n in KERNEL_SIZES {
            let a = mixture(n, dim);
            let b = mixture(dim, dim);
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
            let a = mixture(n, dim);
            let id = format!("{n}x{dim}");
            group.bench_function(BenchmarkId::new("scalar", &id), |bench| {
                bench.iter(|| covariance_reference(std::hint::black_box(&a)))
            });
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
            let data = mixture(n, dim);
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
