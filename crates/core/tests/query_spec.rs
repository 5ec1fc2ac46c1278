//! Property tests pinning the [`QuerySpec`] surface to its normative
//! semantics:
//!
//! * **Lowering is the manual Rocchio arithmetic, bitwise.** The
//!   derived anchor of any spec equals an independent re-implementation
//!   of `α·q + β·centroid(good) − γ·centroid(bad)` (with the optional
//!   `max(0, ·)` clamp) written directly against the formula — not by
//!   calling back into the production code. Covered in full generality
//!   and in the edge cases the docs call out: no negatives, negatives
//!   only, clamped-to-zero components, and the verbatim trivial case.
//! * **Serving a spec ≡ a flat [`LinearScan`] against its derived
//!   anchor.** The serving front-end ([`SharedBypass::knn_batch`]), with
//!   its scan configured at either precision, with per-spec `k` and
//!   explicit metric weights in the mix. (The sharded server and router
//!   paths ride the same invariant over the wire and are pinned by the
//!   server crate's `spec_wire` tests.)
//! * **Derived anchors scan identically under every distance class ×
//!   both precisions.** Euclidean, weighted-Euclidean, hierarchical,
//!   and quadratic scans of a spec's derived anchor return the same
//!   neighbors at `F64` and `F32Rescore`.

use fbp_linalg::Matrix;
use fbp_vecdb::distance::FeatureSpan;
use fbp_vecdb::{
    CollectionBuilder, Distance, Euclidean, HierarchicalDistance, KnnEngine, LinearScan,
    MultiQueryScan, Precision, QuadraticDistance, ScanMode, WeightedEuclidean,
};
use feedbackbypass::{BypassConfig, FeedbackBypass, QuerySpec, RocchioWeights, SharedBypass};
use proptest::prelude::*;

const DIM: usize = 6;

/// Independent mirror of the Rocchio derivation, written against the
/// formula with the same operation order the feedback crate documents
/// (accumulate examples in insertion order, divide by the count, scale
/// the anchor by α first) so agreement can be asserted **bitwise**, not
/// within a tolerance.
fn manual_rocchio(
    anchor: &[f64],
    positives: &[Vec<f64>],
    negatives: &[Vec<f64>],
    w: RocchioWeights,
    clamp: bool,
) -> Vec<f64> {
    fn centroid(set: &[Vec<f64>], dim: usize) -> Option<Vec<f64>> {
        if set.is_empty() {
            return None;
        }
        let mut acc = vec![0.0; dim];
        let mut total = 0.0;
        for p in set {
            for (a, &x) in acc.iter_mut().zip(p) {
                *a += 1.0 * x;
            }
            total += 1.0;
        }
        for a in &mut acc {
            *a /= total;
        }
        Some(acc)
    }
    let mut out: Vec<f64> = anchor.iter().map(|&x| w.alpha * x).collect();
    if let Some(c) = centroid(positives, anchor.len()) {
        for (o, g) in out.iter_mut().zip(&c) {
            *o += w.beta * g;
        }
    }
    if let Some(c) = centroid(negatives, anchor.len()) {
        for (o, b) in out.iter_mut().zip(&c) {
            *o -= w.gamma * b;
        }
    }
    if clamp {
        for v in &mut out {
            *v = v.max(0.0);
        }
    }
    out
}

/// A deterministic mirrored collection every serving case scans.
fn collection() -> fbp_vecdb::Collection {
    let mut b = CollectionBuilder::new().with_f32_mirror();
    for i in 0..240 {
        let row: Vec<f64> = (0..DIM)
            .map(|d| (i as f64 * 0.37 + d as f64 * 0.73).sin().abs())
            .collect();
        b.push_unlabelled(&row).unwrap();
    }
    b.build()
}

fn shared() -> SharedBypass {
    let fb = FeedbackBypass::for_histograms(DIM, BypassConfig::default()).unwrap();
    SharedBypass::new(fb)
}

fn point() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0..1.0f64, DIM)
}

fn examples() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(point(), 0..4)
}

fn metric_weights() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.1..2.0f64, DIM)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lowering_matches_manual_rocchio_bitwise(
        anchor in point(),
        pos in examples(),
        neg in examples(),
        alpha in 0.25..1.5f64,
        beta in 0.0..1.0f64,
        gamma in 0.0..1.0f64,
        clamp in any::<bool>(),
    ) {
        let w = RocchioWeights::new(alpha, beta, gamma);
        let spec = QuerySpec::builder(anchor.clone())
            .positives(pos.clone())
            .negatives(neg.clone())
            .rocchio(w)
            .clamp_to_zero(clamp)
            .build()
            .unwrap();
        let manual = manual_rocchio(&anchor, &pos, &neg, w, clamp);
        prop_assert_eq!(spec.derived_anchor(), manual.clone());
        let low = spec.lower();
        prop_assert_eq!(low.point(), manual.as_slice());
    }

    #[test]
    fn lowering_without_negatives_matches_manual(
        anchor in point(),
        pos in prop::collection::vec(point(), 1..4),
        beta in 0.0..1.0f64,
    ) {
        let w = RocchioWeights::new(1.0, beta, 0.25);
        let spec = QuerySpec::builder(anchor.clone())
            .positives(pos.clone())
            .rocchio(w)
            .build()
            .unwrap();
        prop_assert_eq!(
            spec.derived_anchor(),
            manual_rocchio(&anchor, &pos, &[], w, false)
        );
    }

    #[test]
    fn lowering_negatives_only_matches_manual(
        anchor in point(),
        neg in prop::collection::vec(point(), 1..4),
        gamma in 0.0..1.0f64,
    ) {
        let w = RocchioWeights::new(1.0, 0.75, gamma);
        let spec = QuerySpec::builder(anchor.clone())
            .negatives(neg.clone())
            .rocchio(w)
            .build()
            .unwrap();
        prop_assert_eq!(
            spec.derived_anchor(),
            manual_rocchio(&anchor, &[], &neg, w, false)
        );
    }

    #[test]
    fn clamped_lowering_never_goes_negative(
        anchor in point(),
        neg in prop::collection::vec(point(), 1..4),
        gamma in 1.0..4.0f64,
    ) {
        // A large γ drives components negative; the clamp must floor
        // every one at exactly 0.0 and leave the rest untouched.
        let w = RocchioWeights::new(1.0, 0.75, gamma);
        let spec = QuerySpec::builder(anchor.clone())
            .negatives(neg.clone())
            .rocchio(w)
            .clamp_to_zero(true)
            .build()
            .unwrap();
        let derived = spec.derived_anchor();
        prop_assert!(derived.iter().all(|&v| v >= 0.0));
        let unclamped = manual_rocchio(&anchor, &[], &neg, w, false);
        for (c, u) in derived.iter().zip(&unclamped) {
            if *u >= 0.0 {
                prop_assert_eq!(*c, *u);
            } else {
                prop_assert_eq!(*c, 0.0);
            }
        }
    }

    #[test]
    fn trivial_specs_lower_to_the_anchor_verbatim(anchor in point()) {
        let spec = QuerySpec::builder(anchor.clone()).build().unwrap();
        // Bit-for-bit the input bytes, not a recomputation.
        let low = spec.lower();
        prop_assert_eq!(low.point(), anchor.as_slice());
    }

    #[test]
    fn spec_batches_match_flat_scans_on_derived_anchors(
        raw in prop::collection::vec(
            (
                point(),
                examples(),
                examples(),
                prop::option::of(metric_weights()),
                3usize..12,
            ),
            1..5,
        ),
        use_f64 in any::<bool>(),
        clamp in any::<bool>(),
    ) {
        // The pass runs at the precision its scan is configured with;
        // every spec carries its own k, examples, and (sometimes) metric
        // weights.
        let precision = if use_f64 { Precision::F64 } else { Precision::F32Rescore };
        let specs: Vec<QuerySpec> = raw
            .iter()
            .map(|(anchor, pos, neg, weights, k)| {
                let mut b = QuerySpec::builder(anchor.clone())
                    .positives(pos.clone())
                    .negatives(neg.clone())
                    .clamp_to_zero(clamp)
                    .k(*k);
                if let Some(w) = weights {
                    b = b.weights(w.clone());
                }
                b.build().unwrap()
            })
            .collect();

        let coll = collection();
        let module = shared();
        let mscan = MultiQueryScan::with_mode(&coll, ScanMode::Auto).with_precision(precision);
        let flat = module.knn_batch(&mscan, &specs, 8).unwrap();

        let reference_scan =
            LinearScan::with_mode(&coll, ScanMode::Auto).with_precision(precision);
        for (i, spec) in specs.iter().enumerate() {
            let low = spec.lower();
            let metric = WeightedEuclidean::new(low.weights().to_vec()).unwrap();
            let reference =
                reference_scan.knn(low.point(), low.k().unwrap_or(8), &metric);
            prop_assert_eq!(&flat[i], &reference, "spec {} diverged", i);
        }
    }

    #[test]
    fn derived_anchors_scan_identically_under_every_distance_class(
        anchor in point(),
        pos in examples(),
        neg in examples(),
        clamp in any::<bool>(),
    ) {
        let spec = QuerySpec::builder(anchor)
            .positives(pos)
            .negatives(neg)
            .clamp_to_zero(clamp)
            .build()
            .unwrap();
        let low = spec.lower();
        let q = low.point();

        let coll = collection();
        let w: Vec<f64> = (0..DIM).map(|i| 0.5 + i as f64).collect();
        let classes: Vec<Box<dyn Distance>> = vec![
            Box::new(Euclidean),
            Box::new(WeightedEuclidean::new(w.clone()).unwrap()),
            Box::new(
                HierarchicalDistance::new(
                    vec![FeatureSpan::new(0, 3), FeatureSpan::new(3, DIM)],
                    vec![2.0, 0.5],
                    w,
                )
                .unwrap(),
            ),
            Box::new(
                QuadraticDistance::new(&Matrix::from_diag(&[1.0, 2.0, 0.5, 3.0, 1.5, 0.75]))
                    .unwrap(),
            ),
        ];
        for class in &classes {
            let f64_scan =
                LinearScan::with_mode(&coll, ScanMode::Auto).with_precision(Precision::F64);
            let rescore = LinearScan::with_mode(&coll, ScanMode::Auto)
                .with_precision(Precision::F32Rescore);
            prop_assert_eq!(
                f64_scan.knn(q, 10, class.as_ref()),
                rescore.knn(q, 10, class.as_ref()),
                "{} diverged between precisions",
                class.name()
            );
        }
    }
}
