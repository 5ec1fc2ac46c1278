//! Ad-hoc kernel timing harness and the fan-out break-even table
//! (ignored by default; run explicitly with
//! `cargo test --release -p fbp-vecdb --test kernel_timing -- --ignored --nocapture`).

use fbp_vecdb::distance::weighted_sq_multi_block_f32;
use fbp_vecdb::{
    CollectionBuilder, Distance, MultiQueryScan, Precision, QueryBatch, QueryMetrics::Weighted,
    ScanMode, WeightedEuclidean,
};
use std::hint::black_box;
use std::time::Instant;

#[test]
#[ignore]
fn time_f32_vs_f64_kernels() {
    const N: usize = 10_000;
    const DIM: usize = 64;
    let block: Vec<f64> = (0..N * DIM)
        .map(|i| (i as f64 * 0.37).sin().abs())
        .collect();
    let block32: Vec<f32> = block.iter().map(|&v| v as f32).collect();
    let q: Vec<f64> = (0..DIM).map(|i| (i as f64 * 0.7).cos().abs()).collect();
    let q32: Vec<f32> = q.iter().map(|&v| v as f32).collect();
    let w = WeightedEuclidean::new((0..DIM).map(|i| 0.3 + (i % 5) as f64).collect()).unwrap();
    let mut out = vec![0.0f64; N];
    let mut out32 = vec![0.0f32; N];
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..20 {
            w.eval_key_batch(&q, &block, DIM, f64::INFINITY, &mut out);
            black_box(&out);
        }
        let f64_t = t0.elapsed().as_nanos() as f64 / 20.0;
        let t0 = Instant::now();
        for _ in 0..20 {
            w.eval_key_batch_f32(&q32, &block32, DIM, f32::INFINITY, &mut out32);
            black_box(&out32);
        }
        let f32_t = t0.elapsed().as_nanos() as f64 / 20.0;
        println!(
            "f64 {:.0} us  f32 {:.0} us  ratio {:.2}",
            f64_t / 1e3,
            f32_t / 1e3,
            f64_t / f32_t
        );
    }
}

/// Fastest of `reps` runs of `f`, in nanoseconds.
fn min_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// An f32 multi kernel of the Q×row table.
#[derive(Clone, Copy)]
enum MultiKernel {
    /// Weighted, one weight vector per query (`w_stride = dim`).
    PerQueryWeights,
    /// Weighted, one weight vector for the batch (`w_stride = 0`).
    Shared,
}

/// The Q×row table of the f32 phase 1: ns per (query, row) for one
/// multi-kernel call per 256-row block against Q single-query block
/// calls per block, the two ways a scan can score Q diverged
/// per-query-weight sessions. The `tile` column scores the same batch
/// as sub-batches too small for the rows-in-lanes order, which always
/// take the register tiles; on an AVX-512F + FMA host a batch of
/// `ROWS_IN_LANES_MIN_QUERIES` (8) or more queries takes the
/// rows-in-lanes order instead, so `tile/multi` from there up is the
/// break-even behind that cutoff, per weight layout: per-query weights
/// and shared weights (below the cutoff both of its columns run the
/// tiles and the ratio reads ~1).
#[test]
#[ignore]
fn time_per_query_weight_multi_kernel() {
    const N: usize = 50_000;
    const BLOCK_ROWS: usize = 256;
    const REPS: usize = 7;
    #[cfg(target_arch = "x86_64")]
    let avx512f = is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("fma");
    #[cfg(not(target_arch = "x86_64"))]
    let avx512f = false;
    println!(
        "host avx512f+fma: {avx512f} (rows-in-lanes at Q >= 8: {})",
        if avx512f { "yes" } else { "no, tiles only" }
    );
    println!(
        "{:>3} {:>3} {:>14} {:>14} {:>15} {:>10} {:>8} {:>17}",
        "D",
        "Q",
        "tile ns/q·row",
        "multi ns/q·row",
        "single ns/q·row",
        "tile/multi",
        "speedup",
        "shared tile/multi"
    );
    for dim in [32usize, 64] {
        let block: Vec<f32> = (0..N * dim)
            .map(|i| (i as f32 * 0.37).sin().abs())
            .collect();
        for nq in [1usize, 2, 4, 8, 16] {
            let queries: Vec<f32> = (0..nq * dim)
                .map(|i| (i as f32 * 0.7).cos().abs())
                .collect();
            let metrics: Vec<WeightedEuclidean> = (0..nq)
                .map(|q| {
                    WeightedEuclidean::new(
                        (0..dim)
                            .map(|i| 0.25 + ((q + i) % 5) as f64 * 0.5)
                            .collect(),
                    )
                    .unwrap()
                })
                .collect();
            let weights: Vec<f32> = metrics
                .iter()
                .flat_map(|m| m.weights().iter().map(|&w| w as f32))
                .collect();
            let bounds = vec![f32::INFINITY; nq];
            let mut out = vec![0.0f32; nq * BLOCK_ROWS];
            // The batch in sub-batches of at most `sub` queries.
            let multi_in = |kernel: MultiKernel, sub: usize, out: &mut [f32]| {
                for rows in block.chunks(BLOCK_ROWS * dim) {
                    let n = rows.len() / dim;
                    for (lo, keys) in (0..nq).step_by(sub).zip(out.chunks_mut(sub * n)) {
                        let hi = (lo + sub).min(nq);
                        let (q, b) = (black_box(&queries[lo * dim..hi * dim]), &bounds[lo..hi]);
                        let keys = &mut keys[..(hi - lo) * n];
                        match kernel {
                            MultiKernel::PerQueryWeights => weighted_sq_multi_block_f32(
                                &weights[lo * dim..hi * dim],
                                dim,
                                q,
                                rows,
                                dim,
                                b,
                                keys,
                            ),
                            MultiKernel::Shared => weighted_sq_multi_block_f32(
                                &weights[..dim],
                                0,
                                q,
                                rows,
                                dim,
                                b,
                                keys,
                            ),
                        }
                    }
                    black_box(&out);
                }
            };
            let single_in = |out: &mut [f32]| {
                for rows in block.chunks(BLOCK_ROWS * dim) {
                    let n = rows.len() / dim;
                    for (m, q) in metrics.iter().zip(queries.chunks_exact(dim)) {
                        m.eval_key_batch_f32(black_box(q), rows, dim, f32::INFINITY, &mut out[..n]);
                        black_box(&out);
                    }
                }
            };
            // Alternate every timing each rep, so a noisy stretch of a
            // shared host lands on all of them alike. Tiles: sub-batches
            // of 4 queries.
            let kernels = [(MultiKernel::PerQueryWeights, 4), (MultiKernel::Shared, 4)];
            let mut tile = [f64::INFINITY; 2];
            let mut multi = [f64::INFINITY; 2];
            let mut single = f64::INFINITY;
            for _ in 0..REPS {
                for (i, &(kernel, sub)) in kernels.iter().enumerate() {
                    tile[i] = tile[i].min(min_ns(1, || multi_in(kernel, sub, &mut out)));
                    multi[i] = multi[i].min(min_ns(1, || multi_in(kernel, nq, &mut out)));
                }
                single = single.min(min_ns(1, || single_in(&mut out)));
            }
            let per = (nq * N) as f64;
            println!(
                "{dim:>3} {nq:>3} {:>14.3} {:>14.3} {:>15.3} {:>10.2} {:>8.2} {:>17.2}",
                tile[0] / per,
                multi[0] / per,
                single / per,
                tile[0] / multi[0],
                single / multi[0],
                tile[1] / multi[1]
            );
        }
    }
}

/// Median of `reps` runs of `f`, in nanoseconds.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut ns: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    ns[reps / 2]
}

/// The fan-out break-even table `PARALLEL_CUTOFF` is set from: the
/// median cost of one scoped spawn + join, the Batched serving pass's
/// cost per row·dim·query (per-query weights, f32 mirror + rescore,
/// k = 10; fastest of 5), and the work `W` at which a two-way fan-out
/// breaks even. The caller scans one half while one spawned worker
/// scans the other, so the fan-out saves `c·W/2` for one spawn:
/// `W = 2·spawn / c`.
#[test]
#[ignore]
fn fan_out_break_even() {
    const N: usize = 50_000;
    const K: usize = 10;
    let spawn = median_ns(501, || {
        std::thread::scope(|s| {
            s.spawn(|| black_box(0)).join().expect("spawned");
        })
    });
    println!("scoped spawn + join: {:.1} us (median of 501)", spawn / 1e3);
    println!(
        "{:>3} {:>3} {:>18} {:>16}",
        "D", "Q", "ns/(row·dim·q)", "break-even Mi"
    );
    let mut worst: f64 = 0.0;
    for dim in [32usize, 64] {
        let mut b = CollectionBuilder::new().with_f32_mirror();
        for r in 0..N {
            let v: Vec<f64> = (0..dim)
                .map(|i| ((r * dim + i) as f64 * 0.37).sin().abs())
                .collect();
            b.push_unlabelled(&v).unwrap();
        }
        let coll = b.build();
        let scan = MultiQueryScan::with_mode(&coll, ScanMode::Batched)
            .with_precision(Precision::F32Rescore);
        for nq in [1usize, 2, 16] {
            let queries: Vec<Vec<f64>> = (0..nq)
                .map(|q| {
                    (0..dim)
                        .map(|i| ((q * 31 + i) as f64 * 0.7).cos().abs())
                        .collect()
                })
                .collect();
            let refs: Vec<&[f64]> = queries.iter().map(Vec::as_slice).collect();
            let metrics: Vec<WeightedEuclidean> = (0..nq)
                .map(|q| {
                    WeightedEuclidean::new(
                        (0..dim)
                            .map(|i| 0.25 + ((q + i) % 5) as f64 * 0.5)
                            .collect(),
                    )
                    .unwrap()
                })
                .collect();
            let mrefs: Vec<&WeightedEuclidean> = metrics.iter().collect();
            let batch = QueryBatch::new(&refs, Weighted(&mrefs), K);
            let pass = min_ns(5, || {
                black_box(scan.knn(&batch));
            });
            let per_unit = pass / (N * dim * nq) as f64;
            let break_even = 2.0 * spawn / per_unit;
            worst = worst.max(break_even);
            println!(
                "{dim:>3} {nq:>3} {per_unit:>18.4} {:>16.2}",
                break_even / (1 << 20) as f64
            );
        }
    }
    println!(
        "largest break-even: {:.2} Mi row·dim·q",
        worst / (1 << 20) as f64
    );
}
