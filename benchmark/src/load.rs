//! What a measured load records, whichever workload drives it, and the
//! metrics that follow from it.

use crate::adapter::Res;
use crate::host::{peak_rss_mb, process_cpu_us};
use crate::report::Metrics;
use crate::stats::{median, percentile, ratio};
use std::time::{Duration, Instant};

/// Samples and counts of one load (one client's, or all clients'
/// merged).
#[derive(Default)]
pub struct Load {
    /// One entry per search: what the session waited for its answer.
    pub knn_ns: Vec<u64>,
    /// One entry per judgment: sent → acknowledged.
    pub feedback_ns: Vec<u64>,
    /// One entry per finished query: first search → done.
    pub converge_ns: Vec<u64>,
    /// The harness's own judging time, total.
    pub judge_ns: u64,
    /// Sum over queries of the first round's precision.
    pub first_precision: f64,
    /// Sum over queries of the last round's precision.
    pub final_precision: f64,
    /// Queries whose ranking was already stable after one refinement.
    pub bypass_hits: u64,
    /// Queries that ended on the cycle cap.
    pub not_converged: u64,
    /// Requests sent (or searches served in-process).
    pub attempted: u64,
}

impl Load {
    /// Searches completed.
    pub fn searches(&self) -> u64 {
        self.knn_ns.len() as u64
    }

    /// Queries finished.
    pub fn queries(&self) -> u64 {
        self.converge_ns.len() as u64
    }

    /// Book a finished query.
    pub fn finish_query(
        &mut self,
        started: Instant,
        precision: f64,
        converged: bool,
        cycles: usize,
    ) {
        self.converge_ns.push(started.elapsed().as_nanos() as u64);
        self.final_precision += precision;
        self.bypass_hits += u64::from(converged && cycles <= 1);
        self.not_converged += u64::from(!converged);
    }

    /// Fold another client's load in.
    pub fn absorb(&mut self, o: Load) {
        self.knn_ns.extend(o.knn_ns);
        self.feedback_ns.extend(o.feedback_ns);
        self.converge_ns.extend(o.converge_ns);
        self.judge_ns += o.judge_ns;
        self.first_precision += o.first_precision;
        self.final_precision += o.final_precision;
        self.bypass_hits += o.bypass_hits;
        self.not_converged += o.not_converged;
        self.attempted += o.attempted;
    }
}

/// A load with its wall and CPU cost.
pub struct Phase<T> {
    /// What the load recorded.
    pub tally: T,
    /// Start of the first request → end of the last.
    pub wall: Duration,
    /// Process CPU time over the same interval, µs.
    pub cpu_us: u64,
}

impl<T> Phase<T> {
    /// Run `load`, timing it.
    pub fn measure(load: impl FnOnce() -> Res<T>) -> Res<Phase<T>> {
        let cpu0 = process_cpu_us();
        let t0 = Instant::now();
        let tally = load()?;
        Ok(Phase {
            tally,
            wall: t0.elapsed(),
            cpu_us: process_cpu_us() - cpu0,
        })
    }
}

/// Set up `reps` times, keeping the last; `setup_s` is the median.
pub fn set_up<R>(reps: usize, m: &mut Metrics, mut build: impl FnMut() -> Res<R>) -> Res<R> {
    let mut seconds = Vec::new();
    let mut rig = None;
    for _ in 0..reps.max(1) {
        // The previous set-up goes first: two must never be alive at once.
        drop(rig.take());
        let t0 = Instant::now();
        rig = Some(build()?);
        seconds.push(t0.elapsed().as_secs_f64());
    }
    m.put("setup_s", median(&seconds), seconds.len() as u64);
    Ok(rig.expect("at least one set-up"))
}

/// Every end-to-end metric but `setup_s`, from the untraced load.
pub fn end_to_end_metrics(m: &mut Metrics, load: &mut Load, wall: Duration, cpu_us: u64) {
    let (searches, queries) = (load.searches(), load.queries());
    let acks = load.feedback_ns.len() as u64;
    m.put(
        "knn_p50_us",
        percentile(&mut load.knn_ns, 0.50) / 1e3,
        searches,
    );
    m.put(
        "knn_p90_us",
        percentile(&mut load.knn_ns, 0.90) / 1e3,
        searches,
    );
    m.put(
        "feedback_p50_us",
        percentile(&mut load.feedback_ns, 0.50) / 1e3,
        acks,
    );
    m.put(
        "converge_p50_ms",
        percentile(&mut load.converge_ns, 0.50) / 1e6,
        queries,
    );
    m.put(
        "searches_per_s",
        ratio(searches as f64, wall.as_secs_f64()),
        searches,
    );
    m.put(
        "cpu_us_per_search",
        ratio(cpu_us as f64, searches as f64),
        searches,
    );
    m.put(
        "rounds_per_query",
        ratio(searches as f64, queries as f64),
        queries,
    );
    m.put(
        "first_round_precision",
        ratio(load.first_precision, queries as f64),
        queries,
    );
    m.put(
        "final_precision",
        ratio(load.final_precision, queries as f64),
        queries,
    );
    m.put("peak_rss_mb", peak_rss_mb(), 1);
}

/// `client.*`, `core.module.bypass_hit_frac` and
/// `server.trace.overhead_ratio` from the traced load and the untraced
/// one before it.
pub fn traced_load_metrics(
    m: &mut Metrics,
    load: &mut Load,
    wall: Duration,
    cpu_us: u64,
    untraced: &mut Load,
) {
    let (searches, queries) = (load.searches(), load.queries());
    let traced_p50 = percentile(&mut load.knn_ns, 0.5);
    let untraced_p50 = percentile(&mut untraced.knn_ns, 0.5);
    m.put(
        "server.trace.overhead_ratio",
        ratio(traced_p50, untraced_p50),
        searches,
    );
    m.put(
        "client.knn_p99_us",
        percentile(&mut load.knn_ns, 0.99) / 1e3,
        searches,
    );
    m.put(
        "client.judge_us",
        ratio(load.judge_ns as f64 / 1e3, searches as f64),
        searches,
    );
    m.put(
        "client.cpu_util",
        ratio(cpu_us as f64, wall.as_micros() as f64),
        1,
    );
    m.put(
        "core.module.bypass_hit_frac",
        ratio(load.bypass_hits as f64, queries as f64),
        queries,
    );
}
