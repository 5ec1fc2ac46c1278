//! Scan-path counter suite: attaching a [`ScanStatsSink`] to a
//! [`MultiQueryScan`] — flat, or one pass per row slice — must populate
//! the work counters
//! (rows streamed, blocks abandoned, f32 filter/rescore volumes, seeded
//! passes) while leaving every answer **bit-identical** to the
//! uninstrumented scan — observability is a read-only tap, never a
//! result knob.

use fbp_vecdb::{
    merge_partials, CollectionBuilder, MultiQueryScan, Precision, QueryBatch,
    QueryMetrics::{Shared, Weighted},
    ScanMode, ScanStatsSink, WeightedEuclidean,
};

const DIM: usize = 24;
const N: usize = 900;

/// Deterministic uniform draws in `[0, 1)`.
fn lcg() -> impl FnMut() -> f64 {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn collection(n: usize) -> fbp_vecdb::Collection {
    let mut next = lcg();
    let mut b = CollectionBuilder::new().with_f32_mirror();
    for _ in 0..n {
        let v: Vec<f64> = (0..DIM).map(|_| next()).collect();
        b.push_unlabelled(&v).unwrap();
    }
    b.build()
}

fn queries(nq: usize) -> Vec<Vec<f64>> {
    (0..nq)
        .map(|q| {
            (0..DIM)
                .map(|i| ((q * 31 + i * 11) as f64 * 0.43).sin().abs())
                .collect()
        })
        .collect()
}

fn metric() -> WeightedEuclidean {
    WeightedEuclidean::new((0..DIM).map(|i| 0.4 + (i % 6) as f64).collect()).unwrap()
}

#[test]
fn counters_populate_without_changing_answers() {
    let coll = collection(N);
    let qs = queries(3);
    let refs: Vec<&[f64]> = qs.iter().map(Vec::as_slice).collect();
    let w = metric();
    let k = 10;
    for mode in [ScanMode::Scalar, ScanMode::Batched, ScanMode::Parallel] {
        for precision in [Precision::F64, Precision::F32Rescore] {
            let plain = MultiQueryScan::with_mode(&coll, mode)
                .with_precision(precision)
                .knn(&QueryBatch::new(&refs, Shared(&w), k));
            let sink = ScanStatsSink::new();
            let traced = MultiQueryScan::with_mode(&coll, mode)
                .with_precision(precision)
                .with_scan_stats(&sink)
                .knn(&QueryBatch::new(&refs, Shared(&w), k));
            assert_eq!(plain, traced, "mode {mode:?} precision {precision:?}");
            let s = sink.snapshot();
            assert_eq!(
                s.rows_visited, N as u64,
                "one pass streams every row (mode {mode:?} precision {precision:?})"
            );
            assert_eq!(s.seed_prunes, 0, "no caps were passed");
            if mode == ScanMode::Batched {
                // 900 rows = 4 blocks; after the first block fills the
                // k-bests, later blocks always drop something.
                assert!(s.blocks_abandoned > 0, "precision {precision:?}");
            }
            if mode != ScanMode::Scalar && precision == Precision::F32Rescore {
                // The true top-k per query always survive phase 1.
                assert!(
                    s.candidates_rescored >= (k * refs.len()) as u64,
                    "mode {mode:?}: rescored {}",
                    s.candidates_rescored
                );
            } else {
                assert_eq!(s.candidates_rescored, 0, "pure-f64 path has no rescore");
                assert_eq!(s.candidates_filtered, 0);
            }
        }
    }
}

#[test]
fn weighted_per_query_counters_match_generic_behaviour() {
    let coll = collection(N);
    let qs = queries(3);
    let refs: Vec<&[f64]> = qs.iter().map(Vec::as_slice).collect();
    let metrics: Vec<WeightedEuclidean> = (0..3)
        .map(|q| {
            WeightedEuclidean::new((0..DIM).map(|i| 0.3 + ((q + i) % 4) as f64).collect()).unwrap()
        })
        .collect();
    let ks = [3usize, 10, 7];
    let mrefs: Vec<&WeightedEuclidean> = metrics.iter().collect();
    let weighted = QueryBatch::new(&refs, Weighted(&mrefs), 0).with_ks(&ks);
    for mode in [ScanMode::Scalar, ScanMode::Batched, ScanMode::Parallel] {
        for precision in [Precision::F64, Precision::F32Rescore] {
            let plain = MultiQueryScan::with_mode(&coll, mode)
                .with_precision(precision)
                .knn(&weighted);
            let sink = ScanStatsSink::new();
            let traced = MultiQueryScan::with_mode(&coll, mode)
                .with_precision(precision)
                .with_scan_stats(&sink)
                .knn(&weighted);
            assert_eq!(plain, traced, "mode {mode:?} precision {precision:?}");
            let s = sink.snapshot();
            assert_eq!(
                s.rows_visited, N as u64,
                "mode {mode:?} precision {precision:?}"
            );
        }
    }
}

#[test]
fn sharded_scan_attributes_every_shard_pass() {
    // One keyed pass per third of the rows, as three shard servers
    // sharing one sink would run them.
    let coll = collection(N);
    let qs = queries(2);
    let refs: Vec<&[f64]> = qs.iter().map(Vec::as_slice).collect();
    let w = metric();
    let batch = QueryBatch::new(&refs, Shared(&w), 10);
    let plain = MultiQueryScan::new(&coll).knn(&batch);
    let sink = ScanStatsSink::new();
    let parts: Vec<_> = (0..3)
        .map(|s| {
            let slice = coll.slice_rows(s * N / 3, (s + 1) * N / 3);
            (MultiQueryScan::new(&slice)
                .with_scan_stats(&sink)
                .knn_keyed(&batch)
                .into_iter())
            .map(|p| p.offset((s * N / 3) as u32))
            .collect::<Vec<_>>()
        })
        .collect();
    let traced: Vec<_> = (0..refs.len())
        .map(|q| merge_partials(parts.iter().map(|p| &p[q]), 10, &w))
        .collect();
    assert_eq!(plain, traced);
    // Every slice pass flushes into the one shared sink: the three
    // disjoint passes stream the whole collection exactly once.
    assert_eq!(sink.snapshot().rows_visited, N as u64);
}

#[test]
fn seeded_shard_pass_counts_a_seed_prune_and_keeps_the_answer() {
    let coll = collection(N);
    let qs = queries(1);
    let refs: Vec<&[f64]> = qs.iter().map(Vec::as_slice).collect();
    let w = metric();
    let k = 10usize;
    let slice = coll.slice_rows(0, N / 3);
    let scan = MultiQueryScan::new(&slice);
    // Unseeded pass over the first slice: its k-th key upper-bounds the
    // global k-th, so it is a sound cap for a re-run of the same pass.
    let unseeded = scan.knn_keyed(&QueryBatch::new(&refs, Shared(&w), k));
    let cap = unseeded[0].bound_key(k).expect("the slice holds >= k rows");
    for weighted in [false, true] {
        let sink = ScanStatsSink::new();
        let traced = scan.with_scan_stats(&sink);
        let wrefs = [&w];
        let batch = if weighted {
            QueryBatch::new(&refs, Weighted(&wrefs), k)
        } else {
            QueryBatch::new(&refs, Shared(&w), k)
        };
        let seeded = traced.knn_keyed(&batch.with_caps(&[cap]));
        assert_eq!(
            seeded[0].entries()[..k],
            unseeded[0].entries()[..k],
            "a sound cap never changes the kept top-k (weighted={weighted})"
        );
        let s = sink.snapshot();
        assert_eq!(s.seed_prunes, 1, "weighted={weighted}");
        assert_eq!(s.rows_visited, slice.len() as u64);
        // An infinite cap is a no-op and must not count as seeding.
        let batch = QueryBatch::new(&refs, Shared(&w), k);
        let seeded_inf = traced.knn_keyed(&batch.with_caps(&[f64::INFINITY]));
        assert_eq!(seeded_inf[0].entries(), unseeded[0].entries());
        assert_eq!(sink.snapshot().seed_prunes, 1, "INFINITY cap not counted");
    }
}

/// Cluster `c`'s lattice centre (the serving bench's generator shape).
fn centre(c: usize, dim: usize) -> Vec<f64> {
    (0..dim)
        .map(|d| ((c * 31 + d * 7) % 97) as f64 / 97.0)
        .collect()
}

/// Four dense clusters, ±0.08 spread around their centres.
fn clustered(n: usize, dim: usize) -> fbp_vecdb::Collection {
    let mut next = lcg();
    let mut b = CollectionBuilder::new().with_f32_mirror();
    for _ in 0..n {
        let v: Vec<f64> = centre((next() * 4.0) as usize, dim)
            .iter()
            .map(|base| (base + (next() - 0.5) * 0.16).clamp(0.0, 1.0))
            .collect();
        b.push_unlabelled(&v).unwrap();
    }
    b.build()
}

#[test]
fn skewed_learned_weights_rescore_about_k_rows() {
    // Learned inverse-variance weights are normalized to geometric mean
    // 1 and log-spread (ratio cap 1e4), so `w_max ≫ mean w`; a converged
    // query sits in the dense middle of its cluster. The f32 bound must
    // follow the metric's `Σw` there: sized by `dim·w_max` it widened
    // the rescore band to ~8·k gathered rows per query on this shape.
    // Batched only — the serving mode; a parallel pass filters per
    // chunk, so its pool grows with the host's thread count.
    const D: usize = 64;
    let coll = clustered(20_000, D);
    let k = 50usize;
    let qs: Vec<Vec<f64>> = (0..8).map(|q| centre(q % 4, D)).collect();
    let refs: Vec<&[f64]> = qs.iter().map(Vec::as_slice).collect();
    let metrics: Vec<WeightedEuclidean> = (0..qs.len())
        .map(|q| {
            let ln_w: Vec<f64> = (0..D)
                .map(|i| 4.6 * ((q * 13 + i * 29) as f64 * 0.77).sin())
                .collect();
            let mean = ln_w.iter().sum::<f64>() / D as f64;
            WeightedEuclidean::new(ln_w.iter().map(|l| (l - mean).exp()).collect()).unwrap()
        })
        .collect();
    let scan = MultiQueryScan::with_mode(&coll, ScanMode::Batched);
    let mrefs: Vec<&WeightedEuclidean> = metrics.iter().collect();
    let exact = scan.knn(&QueryBatch::new(&refs, Weighted(&mrefs), k));
    for (q, metric) in metrics.iter().enumerate() {
        let sink = ScanStatsSink::new();
        let got = scan
            .with_precision(Precision::F32Rescore)
            .with_scan_stats(&sink)
            .knn(&QueryBatch::new(&refs[q..=q], Weighted(&[metric]), k));
        assert_eq!(got[0], exact[q], "query {q}");
        let rescored = sink.snapshot().candidates_rescored;
        assert!(
            (k as u64..=4 * k as u64).contains(&rescored),
            "query {q}: {rescored} candidates rescored for k = {k}"
        );
    }
}

/// `n` L1-normalised 32-bin colour-histogram-like rows: eight category
/// profiles (a few dominant bins each), every row its category's
/// profile under multiplicative noise plus a sparse background.
fn histograms(n: usize) -> fbp_vecdb::Collection {
    const BINS: usize = 32;
    let mut next = lcg();
    let profiles: Vec<Vec<f64>> = (0..8)
        .map(|_| {
            (0..BINS)
                .map(|_| {
                    let u = next();
                    u * u * u * u
                })
                .collect()
        })
        .collect();
    let mut b = CollectionBuilder::new().with_f32_mirror();
    for _ in 0..n {
        let profile = &profiles[(next() * 8.0) as usize];
        let raw: Vec<f64> = profile
            .iter()
            .map(|&p| p * (0.9 + 0.2 * next()) + 0.002 * next() * next())
            .collect();
        let total: f64 = raw.iter().sum();
        b.push_unlabelled(&raw.iter().map(|v| v / total).collect::<Vec<_>>())
            .unwrap();
    }
    b.build()
}

#[test]
fn learned_weight_histogram_batch_rescores_about_k_rows() {
    // The `learn_inproc` shape: 16 lock-step sessions over 20k
    // normalised 32-bin histograms, each query one of the collection's
    // own rows under its own diverged, log-spread learned weights
    // (geometric mean 1, spread up to e^±4.6), one `Weighted` batch at
    // serving precision, k = 50. Answers must equal the F64 pass; the
    // pooled/rescored split is the rescore band's size (run with
    // `--nocapture` to see it).
    const D: usize = 32;
    const Q: usize = 16;
    let coll = histograms(20_000);
    let k = 50usize;
    let qs: Vec<Vec<f64>> = (0..Q).map(|q| coll.vector(q * 1249 + 7).to_vec()).collect();
    let refs: Vec<&[f64]> = qs.iter().map(Vec::as_slice).collect();
    let metrics: Vec<WeightedEuclidean> = (0..Q)
        .map(|q| {
            let ln_w: Vec<f64> = (0..D)
                .map(|i| 4.6 * ((q * 13 + i * 29) as f64 * 0.77).sin())
                .collect();
            let mean = ln_w.iter().sum::<f64>() / D as f64;
            WeightedEuclidean::new(ln_w.iter().map(|l| (l - mean).exp()).collect()).unwrap()
        })
        .collect();
    let mrefs: Vec<&WeightedEuclidean> = metrics.iter().collect();
    let batch = QueryBatch::new(&refs, Weighted(&mrefs), k);
    let scan = MultiQueryScan::with_mode(&coll, ScanMode::Batched);
    let exact = scan.knn(&batch);
    let sink = ScanStatsSink::new();
    let got = scan
        .with_precision(Precision::F32Rescore)
        .with_scan_stats(&sink)
        .knn(&batch);
    assert_eq!(got, exact);
    let s = sink.snapshot();
    let pooled = s.candidates_rescored + s.candidates_filtered;
    println!(
        "learn_inproc shape, Q = {Q}, k = {k}: pooled {pooled} ({:.1}/query), \
         rescored {} ({:.1}/query)",
        pooled as f64 / Q as f64,
        s.candidates_rescored,
        s.candidates_rescored as f64 / Q as f64
    );
    assert!(
        s.candidates_rescored >= (k * Q) as u64,
        "the true top-k always survive"
    );
    assert!(
        s.candidates_rescored <= (2 * k * Q) as u64,
        "{} candidates rescored for k = {k}, Q = {Q}",
        s.candidates_rescored
    );
    // Counter golden. f32 keys from the FMA intrinsics differ in the
    // last ulps from the portable chain, so the literals hold on x86-64
    // AVX2+FMA hosts only; every kernel shape those hosts may pick
    // scores the same key bits, so no kernel or admit change may move
    // them.
    let counters = (
        s.rows_visited,
        s.blocks_abandoned,
        s.candidates_filtered,
        s.candidates_rescored,
    );
    #[cfg(target_arch = "x86_64")]
    let fma_host = is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma");
    #[cfg(not(target_arch = "x86_64"))]
    let fma_host = false;
    if fma_host {
        assert_eq!(counters, (20_000, 78, 7289, 800));
    } else {
        println!("counter golden skipped: not an x86-64 AVX2+FMA host ({counters:?})");
    }
}
