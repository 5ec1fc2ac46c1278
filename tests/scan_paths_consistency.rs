//! The linear scan must answer identically across its scalar, batched,
//! and parallel execution paths.

use fbp_linalg::Matrix;
use fbp_vecdb::{
    Distance, HierarchicalDistance, KnnEngine, LinearScan, QuadraticDistance, ScanMode,
    WeightedEuclidean,
};

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
/// baseline exactly: same indices, distances within 1e-12, across all
/// four distance classes and k ∈ {1, 10, 100}.
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
    let weighted = WeightedEuclidean::new(weights.clone()).unwrap();
    // Diagonally dominant SPD matrix: diag weights + small symmetric
    // off-diagonal couplings.
    let mut m = Matrix::from_diag(&weights);
    for i in 0..DIM {
        for j in (i + 1)..DIM {
            let v = 0.004 * ((i * j) % 7) as f64;
            m[(i, j)] = v;
            m[(j, i)] = v;
        }
    }
    let quadratic = QuadraticDistance::new(&m).unwrap();
    let hierarchical = HierarchicalDistance::new(
        vec![
            fbp_vecdb::distance::FeatureSpan::new(0, 16),
            fbp_vecdb::distance::FeatureSpan::new(16, 40),
        ],
        vec![2.0, 0.5],
        weights.clone(),
    )
    .unwrap();
    let distances: [&dyn Distance; 4] =
        [&fbp_vecdb::Euclidean, &weighted, &quadratic, &hierarchical];

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
