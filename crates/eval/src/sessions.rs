//! Concurrent-sessions serving scenario: N interactive feedback
//! sessions against one collection and one shared FeedbackBypass module.
//!
//! Interactive workloads are many-user by nature (the IDEBench framing:
//! concurrent exploratory sessions with think-time between refinements),
//! and on a memory-bandwidth-bound host the k-NN scans of those sessions
//! are the throughput ceiling. This scenario measures exactly that
//! serving question in two modes:
//!
//! * [`ServingMode::Independent`] — every session's every feedback
//!   iteration runs its own [`LinearScan`] (the one-scan-per-query
//!   baseline);
//! * [`ServingMode::Coalesced`] — the service advances all active
//!   sessions in lock-step rounds: each round coalesces the pending
//!   k-NN requests into **one** multi-query block pass
//!   ([`SharedBypass::knn_batch`]), so the collection is streamed once
//!   per round instead of once per session.
//!
//! Both modes execute the *identical* per-session feedback transition
//! ([`fbp_feedback::FeedbackStepper`], the same code the loop driver
//! runs) and the same Figure 5 protocol against the shared module:
//! predict → feedback loop → insert on convergence. With a single
//! session the two modes are bit-for-bit equivalent; with many, they
//! differ only in how session inserts interleave. The result reports
//! throughput (searches/sec) and per-search distance evaluations.

use crate::stream::query_order;
use fbp_feedback::{CategoryOracle, FeedbackConfig, FeedbackLoop, FeedbackStepper, StepOutcome};
use fbp_imagegen::SyntheticDataset;
use fbp_vecdb::{LinearScan, MultiQueryScan, Precision, ResultList, ScanMode};
use feedbackbypass::{BypassConfig, FeedbackBypass, KnnRequest, SharedBypass};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// How the service executes its sessions' k-NN searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServingMode {
    /// One [`LinearScan`] search per session per feedback iteration.
    Independent(ScanMode),
    /// All active sessions' requests per round ride one multi-query
    /// block pass.
    Coalesced(ScanMode),
}

/// Options for one concurrent-sessions run.
#[derive(Debug, Clone)]
pub struct SessionsOptions {
    /// Number of concurrent sessions.
    pub n_sessions: usize,
    /// Queries each session processes (sessions draw disjoint slices of
    /// the labelled pool).
    pub queries_per_session: usize,
    /// Results per search.
    pub k: usize,
    /// Feedback loop configuration template (its `k` is overridden).
    pub feedback: FeedbackConfig,
    /// Shared FeedbackBypass module configuration.
    pub bypass: BypassConfig,
    /// Serving strategy under measurement.
    pub serving: ServingMode,
    /// Scan precision the serving searches' [`MultiQueryScan`] or
    /// [`LinearScan`] is configured with, and runs at.
    /// [`Precision::F32Rescore`] engages the two-phase mirror scan when
    /// the dataset's collection carries its f32 mirror
    /// (`ds.collection.ensure_f32_mirror()`), and is a transparent f64
    /// scan otherwise; [`Precision::F64`] streams the f64 rows even on a
    /// mirrored collection. Results are identical either way.
    pub precision: Precision,
    /// Query-sampling seed.
    pub seed: u64,
}

impl Default for SessionsOptions {
    fn default() -> Self {
        SessionsOptions {
            n_sessions: 8,
            queries_per_session: 25,
            k: 50,
            feedback: FeedbackConfig::default(),
            bypass: BypassConfig::default(),
            serving: ServingMode::Coalesced(ScanMode::Auto),
            precision: Precision::F64,
            seed: 0xFEED,
        }
    }
}

/// Everything recorded for one finished session query.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionQueryRecord {
    /// Feedback cycles the loop ran (0 = prediction already stable).
    pub cycles: usize,
    /// True when the loop ended by stabilizing (vs the cycle cap).
    pub converged: bool,
    /// Precision@k of the final result round.
    pub final_precision: f64,
}

/// Outcome of one concurrent-sessions run.
#[derive(Debug, Clone)]
pub struct SessionsResult {
    /// Per-session records, in each session's query order.
    pub per_session: Vec<Vec<SessionQueryRecord>>,
    /// k-NN searches served (one per active session per round).
    pub searches: u64,
    /// Blocked passes over the collection (coalesced mode streams the
    /// collection once per round, independent mode once per search).
    pub scan_passes: u64,
    /// Total distance evaluations across all searches.
    pub distance_evals: u64,
    /// Wall-clock time of the serving loop (excludes dataset and module
    /// construction).
    pub elapsed: Duration,
}

impl SessionsResult {
    /// Total session queries processed.
    pub fn total_queries(&self) -> usize {
        self.per_session.iter().map(Vec::len).sum()
    }

    /// Serving throughput: k-NN searches per second.
    pub fn searches_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.searches as f64 / secs
        } else {
            f64::INFINITY
        }
    }

    /// Mean distance evaluations per search (the work each search cost;
    /// coalescing leaves this constant while cutting memory traffic).
    pub fn distance_evals_per_search(&self) -> f64 {
        if self.searches > 0 {
            self.distance_evals as f64 / self.searches as f64
        } else {
            0.0
        }
    }

    /// Mean feedback cycles per query.
    pub fn mean_cycles(&self) -> f64 {
        let n = self.total_queries();
        if n == 0 {
            return 0.0;
        }
        let total: usize = self
            .per_session
            .iter()
            .flat_map(|s| s.iter().map(|r| r.cycles))
            .sum();
        total as f64 / n as f64
    }

    /// Mean final precision across all queries.
    pub fn mean_final_precision(&self) -> f64 {
        let n = self.total_queries();
        if n == 0 {
            return 0.0;
        }
        let total: f64 = self
            .per_session
            .iter()
            .flat_map(|s| s.iter().map(|r| r.final_precision))
            .sum();
        total / n as f64
    }
}

/// One session's in-flight query.
struct ActiveQuery {
    /// Anchor query vector (the module insert key).
    q: Vec<f64>,
    /// Oracle category.
    category: fbp_vecdb::CategoryId,
    /// Current search point.
    point: Vec<f64>,
    /// Current search weights.
    weights: Vec<f64>,
    /// Previous round's results (None before the first round).
    prev: Option<ResultList>,
    /// Feedback cycles so far.
    cycles: usize,
    /// Precision of the latest round.
    latest_precision: f64,
}

/// One concurrent session: a queue of queries plus the in-flight one.
struct Session {
    queue: VecDeque<usize>,
    current: Option<ActiveQuery>,
    records: Vec<SessionQueryRecord>,
}

/// Run the scenario.
///
/// # Panics
///
/// Panics when the labelled pool is smaller than
/// `n_sessions × queries_per_session`.
pub fn run_sessions(ds: &SyntheticDataset, opts: &SessionsOptions) -> SessionsResult {
    let coll = &ds.collection;
    let need = opts.n_sessions * opts.queries_per_session;
    assert!(
        need <= ds.labelled.len(),
        "need {need} labelled queries, pool has {}",
        ds.labelled.len()
    );
    let mut feedback = opts.feedback.clone();
    feedback.k = opts.k;

    // Disjoint round-robin query slices per session.
    let order = query_order(ds, opts.seed);
    let mut sessions: Vec<Session> = (0..opts.n_sessions)
        .map(|s| Session {
            queue: (0..opts.queries_per_session)
                .map(|i| order[i * opts.n_sessions + s])
                .collect(),
            current: None,
            records: Vec::with_capacity(opts.queries_per_session),
        })
        .collect();

    let module =
        FeedbackBypass::for_histograms(coll.dim(), opts.bypass.clone()).expect("histogram module");
    let shared = SharedBypass::new(module);

    let t0 = Instant::now();
    let (searches, scan_passes, distance_evals) = match opts.serving {
        ServingMode::Coalesced(mode) => {
            let scan = MultiQueryScan::with_mode(coll, mode).with_precision(opts.precision);
            serve_coalesced(ds, &shared, &mut sessions, &feedback, &scan)
        }
        ServingMode::Independent(mode) => {
            let scan = LinearScan::with_mode(coll, mode).with_precision(opts.precision);
            serve_independent(ds, &shared, &mut sessions, &feedback, scan)
        }
    };
    let elapsed = t0.elapsed();

    SessionsResult {
        per_session: sessions.into_iter().map(|s| s.records).collect(),
        searches,
        scan_passes,
        distance_evals,
        elapsed,
    }
}

/// Lock-step serving: one coalesced pass over `scan` per round for
/// every active session ([`SharedBypass::knn_batch_lowered`]), then one
/// feedback step each.
fn serve_coalesced(
    ds: &SyntheticDataset,
    shared: &SharedBypass,
    sessions: &mut [Session],
    feedback: &FeedbackConfig,
    scan: &MultiQueryScan<'_>,
) -> (u64, u64, u64) {
    let coll = &ds.collection;
    let stepper = FeedbackStepper::new(coll, feedback.clone());
    let (mut searches, mut scan_passes, mut distance_evals) = (0u64, 0u64, 0u64);
    loop {
        // Refill: sessions between queries predict their next parameters
        // from the shared module — coalesced under one read lock.
        let starting: Vec<usize> = sessions
            .iter()
            .enumerate()
            .filter(|(_, s)| s.current.is_none() && !s.queue.is_empty())
            .map(|(i, _)| i)
            .collect();
        if !starting.is_empty() {
            let queries: Vec<Vec<f64>> = starting
                .iter()
                .map(|&i| {
                    let qidx = *sessions[i].queue.front().expect("non-empty queue");
                    coll.vector(qidx).to_vec()
                })
                .collect();
            let predictions = shared.predict_batch(&queries).expect("collection queries");
            for ((&i, q), pred) in starting.iter().zip(queries).zip(predictions) {
                let qidx = sessions[i].queue.pop_front().expect("non-empty queue");
                sessions[i].current = Some(ActiveQuery {
                    category: coll.label(qidx),
                    q,
                    point: pred.point,
                    weights: pred.weights,
                    prev: None,
                    cycles: 0,
                    latest_precision: 0.0,
                });
            }
        }

        // Coalesce every active session's request into one pass.
        let active: Vec<usize> = sessions
            .iter()
            .enumerate()
            .filter(|(_, s)| s.current.is_some())
            .map(|(i, _)| i)
            .collect();
        if active.is_empty() {
            break;
        }
        let requests: Vec<KnnRequest> = active
            .iter()
            .map(|&i| {
                let aq = sessions[i].current.as_ref().expect("active");
                // Same degenerate-weights fallback as `FeedbackLoop::search`
                // (uniform metric), so the two serving modes keep executing
                // the identical transition even on a malformed prediction —
                // and one bad session cannot fail the whole batch.
                let weights = if aq.weights.iter().all(|w| w.is_finite() && *w > 0.0) {
                    aq.weights.clone()
                } else {
                    vec![1.0; aq.point.len()]
                };
                KnnRequest {
                    point: aq.point.clone(),
                    weights,
                    k: None,
                }
            })
            .collect();
        let round = shared
            .knn_batch_lowered(scan, &requests, feedback.k)
            .expect("validated requests");
        searches += active.len() as u64;
        scan_passes += 1;
        distance_evals += (coll.len() * active.len()) as u64;

        // Advance each session one feedback step on its own results.
        for (&i, neighbors) in active.iter().zip(round) {
            let session = &mut sessions[i];
            let aq = session.current.as_mut().expect("active");
            let results = ResultList::new(neighbors);
            let oracle = CategoryOracle::new(coll, aq.category);
            aq.latest_precision = stepper.precision(&results, &oracle);
            let mut finished: Option<bool> = None; // Some(converged)
            if let Some(prev) = &aq.prev {
                aq.cycles += 1;
                if results.same_ranking(prev) {
                    finished = Some(true);
                }
            }
            if finished.is_none() {
                if aq.cycles >= feedback.max_cycles {
                    finished = Some(false);
                } else {
                    match stepper
                        .step(&aq.point, &aq.weights, &results, &oracle)
                        .expect("feedback step")
                    {
                        StepOutcome::Converged => finished = Some(true),
                        StepOutcome::Continue { point, weights } => {
                            aq.point = point;
                            aq.weights = weights;
                            aq.prev = Some(results);
                        }
                    }
                }
            }
            if let Some(converged) = finished {
                let aq = session.current.take().expect("active");
                if aq.cycles > 0 {
                    shared
                        .insert(&aq.q, &aq.point, &aq.weights)
                        .expect("insert converged parameters");
                }
                session.records.push(SessionQueryRecord {
                    cycles: aq.cycles,
                    converged,
                    final_precision: aq.latest_precision,
                });
            }
        }
    }
    (searches, scan_passes, distance_evals)
}

/// Baseline serving: sessions run sequentially, each feedback loop
/// driving its own single-query scans.
fn serve_independent(
    ds: &SyntheticDataset,
    shared: &SharedBypass,
    sessions: &mut [Session],
    feedback: &FeedbackConfig,
    scan: LinearScan<'_>,
) -> (u64, u64, u64) {
    let coll = &ds.collection;
    let stepper = FeedbackStepper::new(coll, feedback.clone());
    let fb_loop = FeedbackLoop::new(&scan, coll, feedback.clone());
    let (mut searches, mut distance_evals) = (0u64, 0u64);
    for session in sessions.iter_mut() {
        while let Some(qidx) = session.queue.pop_front() {
            let q = coll.vector(qidx);
            let oracle = CategoryOracle::new(coll, coll.label(qidx));
            let pred = shared.predict(q).expect("collection query");
            let run = fb_loop
                .run_from(&pred.point, &pred.weights, &oracle)
                .expect("feedback loop");
            searches += run.cycles as u64 + 1;
            distance_evals += run.distance_evals;
            if run.cycles > 0 {
                shared
                    .insert(q, &run.point, &run.weights)
                    .expect("insert converged parameters");
            }
            let final_precision = stepper.precision(&run.final_results, &oracle);
            session.records.push(SessionQueryRecord {
                cycles: run.cycles,
                converged: run.converged,
                final_precision,
            });
        }
    }
    // One blocked pass per search in this mode.
    (searches, searches, distance_evals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbp_imagegen::DatasetConfig;

    fn opts(n_sessions: usize, per: usize, serving: ServingMode) -> SessionsOptions {
        SessionsOptions {
            n_sessions,
            queries_per_session: per,
            k: 10,
            serving,
            ..Default::default()
        }
    }

    #[test]
    fn coalesced_serves_all_queries() {
        let ds = SyntheticDataset::generate(DatasetConfig::small());
        let res = run_sessions(&ds, &opts(4, 6, ServingMode::Coalesced(ScanMode::Batched)));
        assert_eq!(res.per_session.len(), 4);
        assert_eq!(res.total_queries(), 24);
        for records in &res.per_session {
            assert_eq!(records.len(), 6);
            for r in records {
                assert!((0.0..=1.0).contains(&r.final_precision));
            }
        }
        assert!(res.searches >= 24, "at least one search per query");
        // Coalescing must stream the collection fewer times than it
        // serves searches (that is the whole point).
        assert!(res.scan_passes < res.searches);
        assert_eq!(res.distance_evals_per_search(), ds.collection.len() as f64);
        assert!(res.searches_per_sec() > 0.0);
    }

    #[test]
    fn single_session_modes_are_equivalent() {
        // With one session, lock-step coalescing degenerates to the
        // sequential protocol: both modes must produce identical
        // records (the scans are bit-identical, the stepper is shared).
        let ds = SyntheticDataset::generate(DatasetConfig::small());
        let coalesced = run_sessions(&ds, &opts(1, 8, ServingMode::Coalesced(ScanMode::Batched)));
        let independent = run_sessions(
            &ds,
            &opts(1, 8, ServingMode::Independent(ScanMode::Batched)),
        );
        assert_eq!(coalesced.per_session, independent.per_session);
        assert_eq!(coalesced.searches, independent.searches);
        assert_eq!(coalesced.distance_evals, independent.distance_evals);
    }

    #[test]
    fn sessions_learn_through_the_shared_module() {
        let ds = SyntheticDataset::generate(DatasetConfig::small());
        let res = run_sessions(&ds, &opts(3, 10, ServingMode::Coalesced(ScanMode::Batched)));
        // Feedback must actually run (some queries need cycles) and the
        // pool of converged parameters must produce decent precision.
        assert!(res.mean_cycles() > 0.0);
        assert!(res.mean_final_precision() > 0.0);
    }

    #[test]
    #[should_panic(expected = "labelled queries")]
    fn oversized_request_panics() {
        let ds = SyntheticDataset::generate(DatasetConfig::small());
        let huge = opts(
            ds.labelled.len(),
            2,
            ServingMode::Coalesced(ScanMode::Batched),
        );
        run_sessions(&ds, &huge);
    }
}
