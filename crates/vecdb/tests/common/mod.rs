//! Helpers shared by the vecdb integration suites.

// Each suite compiles this module on its own and uses a subset of it.
#![allow(dead_code)]

use fbp_vecdb::{
    Collection, CollectionBuilder, MultiQueryScan, QueryBatch, ScanMode, WeightedEuclidean,
};

/// Learned-looking weights over `dim` components: log-spread over
/// `e^±4.6` around geometric mean 1 (the shape a converged feedback loop
/// stores), so `w_max ≫ mean w` — the skewed metric the suites run next
/// to uniform and mildly varied weights.
pub fn log_spread_weights(dim: usize) -> WeightedEuclidean {
    let ln_w: Vec<f64> = (0..dim)
        .map(|i| 4.6 * ((i * 29) as f64 * 0.77).sin())
        .collect();
    let mean = ln_w.iter().sum::<f64>() / dim as f64;
    WeightedEuclidean::new(ln_w.iter().map(|l| (l - mean).exp()).collect()).unwrap()
}

/// Sound pruning caps for `batch` over `coll`, in the selection space
/// of a kernel pass (surrogate keys) or of a Scalar one (distances):
/// per query, the exact k-th key of a random subset of at least `k`
/// rows, which can never sit below the k-th key over every row. Round
/// 0 takes every row, so its caps are the exact k-th keys themselves —
/// the tightest sound caps.
pub fn sound_caps(
    coll: &Collection,
    batch: &QueryBatch<'_>,
    ks: &[usize],
    scalar: bool,
    round: u64,
) -> Vec<f64> {
    let len = coll.len();
    let need = ks.iter().copied().max().unwrap_or(0).min(len);
    let mut state = round.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let take = if round == 0 {
        len
    } else {
        need + next() % (len - need + 1)
    };
    let mut rows: Vec<usize> = (0..len).collect();
    for i in 0..take {
        let j = i + next() % (len - i);
        rows.swap(i, j);
    }
    let mut b = CollectionBuilder::new();
    for &r in &rows[..take] {
        b.push_unlabelled(coll.vector(r)).unwrap();
    }
    let subset = b.build();
    let mode = if scalar {
        ScanMode::Scalar
    } else {
        ScanMode::Batched
    };
    let keyed = MultiQueryScan::with_mode(&subset, mode).knn_keyed(batch);
    (keyed.iter().zip(ks))
        .map(|(p, &k)| p.bound_key(k).unwrap_or(f64::INFINITY))
        .collect()
}
