//! # fbp-eval
//!
//! Evaluation harness reproducing the paper's experimental protocol (§5).
//!
//! The paper's setup: ~10,000 color images, 7 labelled categories, 32-bin
//! HSV histograms, weighted Euclidean distances with the unweighted
//! Euclidean as default, query point movement + re-weighting feedback,
//! automated category-oracle judgments, and three measurement scenarios:
//!
//! * **Default** — search with the user's query point and the default
//!   distance;
//! * **FeedbackBypass** — search with the parameters predicted by the
//!   module for *never-seen* queries;
//! * **AlreadySeen** — search with the parameters a feedback loop
//!   converged to for this exact query (the module's upper bound).
//!
//! Modules map one-to-one onto the paper's figures:
//!
//! | module | figures |
//! |---|---|
//! | [`stream`] | 10, 12, 16 (sequential learning curve) |
//! | [`ksweep`] | 11 (per-k trained trees after N queries) |
//! | [`cross_k`] | 13 (train-k vs evaluate-k) |
//! | [`per_category`] | 14 (the 7 categories) |
//! | [`efficiency`] | 15 (saved cycles / saved objects) |
//! | [`report`] | series containers + text/JSON rendering |
//!
//! Beyond the paper's figures, [`sessions`] measures the *serving*
//! question the paper's multi-user setting implies: N concurrent
//! feedback sessions against one collection and one shared module, with
//! each round's k-NN requests either run independently or coalesced
//! into a single multi-query collection pass
//! ([`feedbackbypass::SharedBypass::knn_batch`]).

#![warn(missing_docs)]

pub mod cross_k;
pub mod efficiency;
pub mod ksweep;
pub mod metrics;
pub mod per_category;
pub mod report;
pub mod rocchio;
pub mod scenario;
pub mod sessions;
pub mod stream;

pub use metrics::{cumulative_avg, moving_avg, precision_gain};

/// Run `configurations` independent sweep configurations on
/// `min(available_parallelism, configurations)` worker threads with
/// **round-robin shard assignment**: worker `w` runs configurations
/// `w, w + W, w + 2W, …` sequentially, and `run(index, budget)` receives
/// the per-worker scan thread budget (an even share of the machine, at
/// least 1) to hand to
/// [`fbp_vecdb::LinearScan::with_thread_budget`]-style knobs.
///
/// This replaces the old one-thread-per-configuration shape, which had
/// two load problems: with more configurations than cores it
/// oversubscribed the host (every configuration thread ran at budget 1
/// simultaneously), and near a sweep's tail the short configurations'
/// budgeted cores sat idle while the long ones finished alone. Bounded
/// workers with interleaved assignment keep every core busy until the
/// queue genuinely runs dry. Results are returned in configuration
/// order.
pub(crate) fn sweep_round_robin<T: Send>(
    configurations: usize,
    run: &(dyn Fn(usize, usize) -> T + Sync),
) -> Vec<T> {
    let available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let workers = available.min(configurations).max(1);
    let budget = (available / workers).max(1);
    let mut out: Vec<Option<T>> = Vec::with_capacity(configurations);
    out.resize_with(configurations, || None);
    if workers <= 1 {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = Some(run(i, budget));
        }
    } else {
        std::thread::scope(|scope| {
            let mut worker_slots: Vec<Vec<(usize, &mut Option<T>)>> =
                (0..workers).map(|_| Vec::new()).collect();
            for (i, slot) in out.iter_mut().enumerate() {
                worker_slots[i % workers].push((i, slot));
            }
            for slots in worker_slots {
                scope.spawn(move || {
                    for (i, slot) in slots {
                        *slot = Some(run(i, budget));
                    }
                });
            }
        });
    }
    out.into_iter()
        .map(|t| t.expect("worker filled its slot"))
        .collect()
}
pub use report::Series;
pub use rocchio::{run_rocchio, RocchioOptions, RocchioRecord, RocchioResult};
pub use scenario::evaluate_params;
pub use sessions::{run_sessions, ServingMode, SessionsOptions, SessionsResult};
pub use stream::{run_stream, QueryRecord, StreamOptions};
