//! Concurrency integration: many threads sharing one module through
//! [`feedbackbypass::SharedBypass`] while full feedback loops run.

use fbp_feedback::{CategoryOracle, FeedbackConfig, FeedbackLoop};
use fbp_imagegen::{DatasetConfig, SyntheticDataset};
use fbp_vecdb::LinearScan;
use feedbackbypass::{BypassConfig, FeedbackBypass, SharedBypass};

#[test]
fn concurrent_sessions_share_learning() {
    let ds = SyntheticDataset::generate(DatasetConfig::small());
    let coll = &ds.collection;
    let module = FeedbackBypass::for_histograms(coll.dim(), BypassConfig::default()).unwrap();
    let shared = SharedBypass::new(module);

    let n_threads = 4;
    let per_thread = 12;
    std::thread::scope(|scope| {
        for t in 0..n_threads {
            let shared = shared.clone();
            let ds = &ds;
            scope.spawn(move || {
                let coll = &ds.collection;
                let engine = LinearScan::new(coll);
                let fb = FeedbackLoop::new(
                    &engine,
                    coll,
                    FeedbackConfig {
                        k: 10,
                        ..Default::default()
                    },
                );
                // Disjoint query slices so threads insert different points.
                for &qidx in ds.labelled.iter().skip(t * per_thread).take(per_thread) {
                    let q: Vec<f64> = coll.vector(qidx).to_vec();
                    let oracle = CategoryOracle::new(coll, coll.label(qidx));
                    let pred = shared.predict(&q).expect("predict under read lock");
                    let run = fb
                        .run_from(&pred.point, &pred.weights, &oracle)
                        .expect("loop");
                    if run.cycles > 0 {
                        shared
                            .insert(&q, &run.point, &run.weights)
                            .expect("insert under write lock");
                    }
                }
            });
        }
    });

    let (stored, nodes, depth) = shared.stats();
    assert!(stored > 0, "no learning happened");
    assert!(nodes > 1);
    assert!(depth >= 2);
    // The concurrently built tree is structurally sound and serializable.
    shared.with_read(|m| m.tree().verify_invariants().unwrap());
    let image = shared.to_bytes();
    let restored = FeedbackBypass::from_bytes(&image).unwrap();
    assert_eq!(restored.tree().stored_points(), stored);
}
