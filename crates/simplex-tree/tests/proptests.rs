//! Property-based tests for the Simplex Tree.
//!
//! These check the paper-level contracts: lookups always land in a leaf
//! containing the point, predictions at stored vertices are exact
//! (AlreadySeen identity), the ε-criterion controls storage, and trees
//! survive serialization byte-for-byte semantically.

use fbp_geometry::RootSimplex;
use fbp_simplex_tree::{DescentRule, Oqp, OqpLayout, SimplexTree, TreeConfig, WeightScale};
use proptest::prelude::*;

const DIM: usize = 3;

/// Strategy: a point strictly inside the standard simplex in R^3.
fn interior_point() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.02..1.0f64, DIM + 1).prop_map(|raw| {
        let s: f64 = raw.iter().sum();
        raw[..DIM].iter().map(|x| x / s).collect()
    })
}

fn arb_oqp() -> impl Strategy<Value = Oqp> {
    (
        prop::collection::vec(-0.2..0.2f64, DIM),
        prop::collection::vec(0.05..20.0f64, DIM),
    )
        .prop_map(|(delta, weights)| Oqp { delta, weights })
}

fn fresh_tree(scale: WeightScale) -> SimplexTree {
    let cfg = TreeConfig {
        weight_scale: scale,
        ..TreeConfig::default()
    };
    SimplexTree::new(RootSimplex::standard(DIM), OqpLayout::new(DIM, DIM), cfg).unwrap()
}

proptest! {
    #[test]
    fn lookup_always_contains_the_point(
        inserts in prop::collection::vec((interior_point(), arb_oqp()), 1..25),
        probes in prop::collection::vec(interior_point(), 10),
    ) {
        let mut tree = fresh_tree(WeightScale::Raw);
        for (q, o) in &inserts {
            tree.insert(q, o).unwrap();
        }
        tree.verify_invariants().unwrap();
        for q in &probes {
            let hit = tree.lookup(q).unwrap();
            // Coordinates must certify containment (within tolerance) and
            // sum to one.
            let min = hit.lambda.iter().cloned().fold(f64::INFINITY, f64::min);
            prop_assert!(min >= -1e-6, "min coord {min}");
            let sum: f64 = hit.lambda.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-6);
            prop_assert!(hit.nodes_visited >= 1);
        }
    }

    #[test]
    fn stored_vertices_predict_exactly(
        inserts in prop::collection::vec((interior_point(), arb_oqp()), 1..20),
    ) {
        let mut tree = fresh_tree(WeightScale::Raw);
        for (q, o) in &inserts {
            tree.insert(q, o).unwrap();
        }
        // Whatever ended up stored must be reproduced exactly (the paper's
        // AlreadySeen case). Points may have been skipped or updated, so we
        // iterate over the tree's own record of stored vertices.
        let stored: Vec<(Vec<f64>, Oqp)> = tree
            .stored_vertices()
            .map(|(p, o)| (p.to_vec(), o))
            .collect();
        prop_assert!(!stored.is_empty());
        for (p, o) in stored {
            let pred = tree.predict(&p).unwrap();
            prop_assert!(
                pred.oqp.max_component_diff(&o) < 1e-6,
                "stored {o:?}, predicted {:?}", pred.oqp
            );
        }
    }

    #[test]
    fn predictions_are_convex_combinations(
        inserts in prop::collection::vec((interior_point(), arb_oqp()), 1..15),
        probes in prop::collection::vec(interior_point(), 5),
    ) {
        // Interpolated weights must stay within the range spanned by the
        // stored values (plus the default 1.0 at synthetic corners).
        let mut tree = fresh_tree(WeightScale::Raw);
        let mut lo = 1.0f64;
        let mut hi = 1.0f64;
        for (q, o) in &inserts {
            tree.insert(q, o).unwrap();
            for &w in &o.weights {
                lo = lo.min(w);
                hi = hi.max(w);
            }
        }
        for q in &probes {
            let p = tree.predict(q).unwrap();
            for &w in &p.oqp.weights {
                prop_assert!(w >= lo - 1e-6 && w <= hi + 1e-6,
                    "weight {w} outside [{lo}, {hi}]");
            }
        }
    }

    #[test]
    fn log_scale_always_positive(
        inserts in prop::collection::vec((interior_point(), arb_oqp()), 1..15),
        probes in prop::collection::vec(interior_point(), 5),
    ) {
        let mut tree = fresh_tree(WeightScale::Log);
        for (q, o) in &inserts {
            tree.insert(q, o).unwrap();
        }
        for q in &probes {
            let p = tree.predict(q).unwrap();
            prop_assert!(p.oqp.weights.iter().all(|&w| w > 0.0));
        }
    }

    #[test]
    fn huge_epsilon_stores_nothing(
        inserts in prop::collection::vec((interior_point(), arb_oqp()), 1..15),
    ) {
        let cfg = TreeConfig {
            delta_eps: 1e9,
            weight_eps: 1e9,
            ..TreeConfig::default()
        };
        let mut tree = SimplexTree::new(
            RootSimplex::standard(DIM),
            OqpLayout::new(DIM, DIM),
            cfg,
        )
        .unwrap();
        for (q, o) in &inserts {
            tree.insert(q, o).unwrap();
        }
        prop_assert_eq!(tree.stored_points(), 0);
        prop_assert_eq!(tree.node_count(), 1);
        prop_assert_eq!(tree.skip_count(), inserts.len() as u64);
    }

    #[test]
    fn persistence_roundtrip_semantics(
        inserts in prop::collection::vec((interior_point(), arb_oqp()), 1..20),
        probes in prop::collection::vec(interior_point(), 5),
    ) {
        let mut tree = fresh_tree(WeightScale::Raw);
        for (q, o) in &inserts {
            tree.insert(q, o).unwrap();
        }
        let image = tree.to_bytes();
        let back = SimplexTree::from_bytes(&image).unwrap();
        for q in &probes {
            let a = tree.predict(q).unwrap();
            let b = back.predict(q).unwrap();
            prop_assert!(a.oqp.max_component_diff(&b.oqp) < 1e-15);
        }
        prop_assert_eq!(back.to_bytes(), image, "round-trip must be byte-stable");
    }

    #[test]
    fn implicit_tree_holds_across_dims_and_descent_rules(
        dim_idx in 0usize..3,
        first_containing in any::<bool>(),
        raw in prop::collection::vec(
            (prop::collection::vec(0.0..1.0f64, 6), 0.05..20.0f64, any::<bool>()),
            1..40,
        ),
        probes in prop::collection::vec(prop::collection::vec(0.0..1.0f64, 6), 10),
    ) {
        let dim = [2, 3, 5][dim_idx];
        // Scale the raw draws into the standard simplex of this D; a
        // `true` flag puts the point on a facet.
        let place = |v: &[f64], facet: bool| -> Vec<f64> {
            let s: f64 = v[..=dim].iter().map(|x| x + 0.02).sum();
            let mut q: Vec<f64> = v[..dim].iter().map(|x| (x + 0.02) / s).collect();
            if facet {
                q[0] = 0.0;
            }
            q
        };
        let cfg = TreeConfig {
            descent: if first_containing {
                DescentRule::FirstContaining
            } else {
                DescentRule::MostInterior
            },
            ..TreeConfig::default()
        };
        let mut tree =
            SimplexTree::new(RootSimplex::standard(dim), OqpLayout::new(dim, dim), cfg).unwrap();
        for (v, w, facet) in &raw {
            let oqp = Oqp { delta: vec![0.01 * w; dim], weights: vec![*w; dim] };
            tree.insert(&place(v, *facet), &oqp).unwrap();
        }
        prop_assert_eq!(tree.verify_invariants(), Ok(()));
        for v in &probes {
            let hit = tree.lookup(&place(v, false)).unwrap();
            // The rebuilt ids span a simplex: D + 1 distinct, in range.
            let mut ids = hit.vertices.clone();
            ids.sort_unstable();
            ids.dedup();
            prop_assert_eq!(ids.len(), dim + 1);
            prop_assert!(ids.iter().all(|&v| (v as usize) < tree.vertex_count()));
        }
        let image = tree.to_bytes();
        prop_assert_eq!(image.capacity(), image.len());
        prop_assert_eq!(SimplexTree::from_bytes(&image).unwrap().to_bytes(), image);
    }

    #[test]
    fn shape_metrics_are_consistent(
        inserts in prop::collection::vec((interior_point(), arb_oqp()), 1..30),
    ) {
        let mut tree = fresh_tree(WeightScale::Raw);
        for (q, o) in &inserts {
            tree.insert(q, o).unwrap();
        }
        let shape = tree.shape();
        prop_assert!(shape.leaf_count <= shape.node_count);
        prop_assert!(shape.depth >= 1);
        prop_assert!(shape.mean_leaf_depth <= shape.depth as f64 + 1e-12);
        prop_assert_eq!(shape.stored_points, tree.stored_points());
        // Arena is fully reachable (no leaked nodes).
        tree.verify_invariants().unwrap();
        // Every lookup's visit count is bounded by the depth.
        let hit = tree.lookup(&[0.2, 0.2, 0.2]).unwrap();
        prop_assert!(hit.nodes_visited <= shape.depth);
    }
}

/// The implicit tree's image stays a few KB per stored point at D = 64:
/// the point and its OQP (1.5 KB) plus one split record, not one explicit
/// vertex list per child simplex (≈ 19 KB per point).
#[test]
fn image_bytes_per_stored_point_at_d64() {
    const D: usize = 64;
    let mut tree = SimplexTree::new(
        RootSimplex::unit_cube(D),
        OqpLayout::new(D, D),
        TreeConfig::default(),
    )
    .unwrap();
    let mut state: u64 = 64;
    let mut unit = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    };
    for _ in 0..2_000 {
        let q: Vec<f64> = (0..D).map(|_| unit()).collect();
        let oqp = Oqp {
            delta: (0..D).map(|_| 0.1 * (unit() - 0.5)).collect(),
            weights: (0..D).map(|_| 0.2 + 4.0 * unit()).collect(),
        };
        tree.insert(&q, &oqp).unwrap();
    }
    assert_eq!(tree.stored_points(), 2_000);
    let per_point = tree.to_bytes().len() as u64 / tree.stored_points();
    assert!(
        per_point <= 3_072,
        "{per_point} image bytes per stored point"
    );
}
