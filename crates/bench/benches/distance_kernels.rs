//! Criterion micro-benchmarks for the weighted-Euclidean class of §2:
//! per-evaluation cost at the paper's dimensionality, under uniform
//! weights (plain Euclidean) and under varied weights.

use criterion::{criterion_group, criterion_main, Criterion};
use fbp_vecdb::{Distance, WeightedEuclidean};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::hint::black_box;
use std::time::Duration;

const DIM: usize = 32;

fn vectors(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..DIM).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect()
}

fn bench_distances(c: &mut Criterion) {
    let mut group = c.benchmark_group("distance_eval_32d");
    group.measurement_time(Duration::from_secs(1));
    group.warm_up_time(Duration::from_millis(300));
    group.sample_size(50);
    let pts = vectors(64, 3);
    let mut rng = StdRng::seed_from_u64(5);
    let weights: Vec<f64> = (0..DIM).map(|_| rng.gen_range(0.1..10.0)).collect();

    let run = |group: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>,
               name: &str,
               dist: &WeightedEuclidean| {
        let pts = &pts;
        group.bench_function(name, |b| {
            let mut i = 0;
            b.iter(|| {
                let a = &pts[i % pts.len()];
                let bb = &pts[(i * 7 + 1) % pts.len()];
                i += 1;
                black_box(dist.eval(black_box(a), black_box(bb)))
            });
        });
    };

    run(&mut group, "uniform", &WeightedEuclidean::uniform(DIM));
    run(
        &mut group,
        "weighted_euclidean",
        &WeightedEuclidean::new(weights).unwrap(),
    );
    group.finish();
}

/// Per-vector cost of the blocked batch kernels vs the scalar `eval`
/// loop: one query against a contiguous 1024-row block, reported per
/// kernel invocation (divide by 1024 for the per-row figure).
fn bench_batch_kernels(c: &mut Criterion) {
    const ROWS: usize = 1024;
    let mut group = c.benchmark_group("distance_batch_1024x32d");
    group.measurement_time(Duration::from_secs(1));
    group.warm_up_time(Duration::from_millis(300));
    group.sample_size(50);

    let mut rng = StdRng::seed_from_u64(11);
    let query: Vec<f64> = (0..DIM).map(|_| rng.gen_range(0.0..1.0)).collect();
    let block: Vec<f64> = (0..ROWS * DIM).map(|_| rng.gen_range(0.0..1.0)).collect();
    let weights: Vec<f64> = (0..DIM).map(|_| rng.gen_range(0.1..10.0)).collect();
    let weighted = WeightedEuclidean::new(weights).unwrap();

    let run = |group: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>,
               name: &str,
               dist: &WeightedEuclidean| {
        let mut out = vec![0.0; ROWS];
        // Scalar loop, one `eval` call per row.
        group.bench_function(format!("{name}/scalar_eval_loop"), |b| {
            b.iter(|| {
                for (row, slot) in block.chunks_exact(DIM).zip(out.iter_mut()) {
                    *slot = dist.eval(black_box(&query), black_box(row));
                }
                black_box(out[ROWS - 1])
            });
        });
        // One batched surrogate-key call for the whole block.
        group.bench_function(format!("{name}/eval_key_batch"), |b| {
            b.iter(|| {
                dist.eval_key_batch(
                    black_box(&query),
                    black_box(&block),
                    DIM,
                    f64::INFINITY,
                    &mut out,
                );
                black_box(out[ROWS - 1])
            });
        });
    };

    run(&mut group, "uniform", &WeightedEuclidean::uniform(DIM));
    run(&mut group, "weighted_euclidean", &weighted);
    group.finish();
}

criterion_group!(benches, bench_distances, bench_batch_kernels);
criterion_main!(benches);
