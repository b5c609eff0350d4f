//! Map-quality metrics: the shared BMU-cache pass versus two separate
//! searches.
//!
//! `map_quality` computes quantization and topographic error from one
//! best-two BMU table; calling `quantization_error` and `topographic_error`
//! separately runs the same codebook scan twice. The shared pass should
//! take roughly half the time of the separate calls.

use criterion::{criterion_group, criterion_main, Criterion};
use hiermeans_bench::scale::mixture;
use hiermeans_som::{quality, SomBuilder, TrainingMode};

fn bench_quality(c: &mut Criterion) {
    let data = mixture(256, 16);
    let som = SomBuilder::new(10, 10)
        .seed(11)
        .epochs(5)
        .mode(TrainingMode::Batch)
        .train(&data)
        .unwrap();
    let mut group = c.benchmark_group("quality");
    group.bench_function("shared_bmu_pass", |b| {
        b.iter(|| quality::map_quality(&som, &data).unwrap())
    });
    group.bench_function("separate_passes", |b| {
        b.iter(|| {
            let qe = quality::quantization_error(&som, &data).unwrap();
            let te = quality::topographic_error(&som, &data).unwrap();
            (qe, te)
        })
    });
    group.bench_function("bmu_table_only", |b| {
        b.iter(|| quality::BmuTable::compute(&som, &data).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_quality);
criterion_main!(benches);
