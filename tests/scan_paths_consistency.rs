//! The linear scan must answer identically across its scalar, batched,
//! and parallel execution paths.

use fbp_vecdb::{Distance, KnnEngine, LinearScan, ScanMode, WeightedEuclidean};

/// Deterministic pseudo-random vectors (xorshift-free LCG; no rand
/// dependency needed for the root integration tests).
fn pseudo_random(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n).map(|_| (0..dim).map(|_| next()).collect()).collect()
}

/// The batched/parallel fast paths must reproduce the scalar per-vector
/// baseline exactly: same indices, distances within 1e-12, across
/// uniform, varied and skewed weights and k ∈ {1, 10, 100}.
#[test]
fn scan_paths_identical_across_distance_classes() {
    const DIM: usize = 40;
    const N: usize = 4000;
    let points = pseudo_random(N, DIM, 17);
    let mut builder = fbp_vecdb::CollectionBuilder::new();
    for p in &points {
        builder.push_unlabelled(p).unwrap();
    }
    let coll = builder.build();
    let queries = pseudo_random(8, DIM, 91);

    let weights: Vec<f64> = (0..DIM).map(|i| 0.2 + (i % 9) as f64 * 0.7).collect();
    let weighted = WeightedEuclidean::new(weights).unwrap();
    // Learned-looking weights: log-spread over e^±4.6 around geometric
    // mean 1, so w_max ≫ mean w.
    let ln_w: Vec<f64> = (0..DIM)
        .map(|i| 4.6 * ((i * 29) as f64 * 0.77).sin())
        .collect();
    let mean = ln_w.iter().sum::<f64>() / DIM as f64;
    let skewed = WeightedEuclidean::new(ln_w.iter().map(|l| (l - mean).exp()).collect()).unwrap();
    let uniform = WeightedEuclidean::uniform(DIM);
    let distances = [&uniform, &weighted, &skewed];

    let scalar = LinearScan::with_mode(&coll, ScanMode::Scalar);
    let batched = LinearScan::with_mode(&coll, ScanMode::Batched);
    let parallel = LinearScan::with_mode(&coll, ScanMode::Parallel);

    for dist in distances {
        for k in [1usize, 10, 100] {
            for q in &queries {
                let base = scalar.knn(q, k, dist);
                for (path, fast) in [
                    ("batched", batched.knn(q, k, dist)),
                    ("parallel", parallel.knn(q, k, dist)),
                ] {
                    assert_eq!(
                        base.len(),
                        fast.len(),
                        "{path}/{} k={k}: result count",
                        dist.name()
                    );
                    for (a, b) in base.iter().zip(fast.iter()) {
                        assert_eq!(
                            a.index,
                            b.index,
                            "{path}/{} k={k}: ranking diverged",
                            dist.name()
                        );
                        assert!(
                            (a.dist - b.dist).abs() <= 1e-12,
                            "{path}/{} k={k}: distance {} vs {}",
                            dist.name(),
                            a.dist,
                            b.dist
                        );
                    }
                }
            }
        }
    }
}
