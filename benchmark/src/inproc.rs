//! `learn_inproc`: the paper's §5 stream with no sockets.
//!
//! Sixteen sessions advance in lock step on one thread: each round
//! coalesces every active session's search into one
//! `SharedBypass::knn_batch` pass, then each session takes one feedback
//! step on its own results; a session between queries predicts its next
//! start from the shared module, and a converged query inserts into it —
//! reads beside writes, the module growing throughout. This is the
//! `fbp_eval::sessions` coalesced loop, re-driven here so that every
//! call into a layer can be timed.

use crate::adapter::{self, CategoryId, Collection, Module, Params, Res, ServingScan, Stepper, K};
use crate::load::{self, Load, Phase};
use crate::probes;
use crate::report::RunResult;
use crate::spec::InprocSizes;
use crate::stats::{percentile, ratio};
use crate::trace::Recorder;
use crate::{inputs, Args};
use std::time::Instant;

/// Every how many `knn_batch` answers are re-derived with the flat scan.
const CHECK_EVERY: u64 = 64;

/// One session's in-flight query.
struct Active {
    q: Vec<f64>,
    category: CategoryId,
    params: Params,
    /// Ids of the previous round, in rank order.
    prev: Option<Vec<u32>>,
    cycles: usize,
    precision: f64,
    started: Instant,
}

/// The data, the module and the sessions' shared query queue.
struct Rig {
    coll: Collection,
    /// Labelled rows in seeded order: the head feeds the sessions, the
    /// tail is held out.
    order: Vec<usize>,
    next: usize,
    module: Module,
}

/// How long a phase runs.
#[derive(Clone, Copy)]
enum Limit {
    /// Until this many queries have started.
    Queries(usize),
    /// No new query starts after this instant.
    Until(Instant),
}

/// What one phase measured. In `load`, a search's wait is the wall of
/// the pass that served it, and a judgment's is the step plus the
/// insert when the query converged.
#[derive(Default)]
struct Tally {
    load: Load,
    /// Coalesced passes.
    passes: u64,
    /// Answers that were malformed or differed from the flat scan.
    bad_answers: u64,
}

impl Rig {
    /// Data, mirror, empty module, warm-up: everything `setup_s` covers.
    fn build(sizes: &InprocSizes, seed: u64) -> Res<Rig> {
        let (coll, labelled) = adapter::histograms(sizes.scale, sizes.noise_images, seed);
        let module = Module::for_histograms(coll.dim());
        let mut rig = Rig {
            coll,
            order: inputs::shuffled(labelled, seed),
            next: 0,
            module,
        };
        rig.phase(sizes, Limit::Queries(sizes.warmup_queries), None)?;
        Ok(rig)
    }

    /// Lock-step rounds until the limit stops new queries and every
    /// in-flight one has finished. With a recorder, every adapter call
    /// is wrapped in a span under its round's span.
    fn phase(
        &mut self,
        sizes: &InprocSizes,
        limit: Limit,
        mut rec: Option<&mut Recorder>,
    ) -> Res<Phase<Tally>> {
        let coll = &self.coll;
        let stepper = Stepper::new(coll);
        let scan = ServingScan::new(coll);
        let pool = self.order.len() - sizes.heldout_queries;
        let first = self.next;
        let mut sessions: Vec<Option<Active>> = (0..sizes.sessions).map(|_| None).collect();
        let epoch = Instant::now();
        let at = |t: Instant| (t - epoch).as_nanos() as u64;
        Phase::measure(|| {
            let mut tally = Tally::default();
            loop {
                let round_start = Instant::now();
                let round_id = tally.passes;
                let round = rec
                    .as_deref_mut()
                    .map(|r| r.span("round", 0, 0, None, round_id));
                let mut span = |name: &'static str, from: Instant| {
                    if let Some(r) = rec.as_deref_mut() {
                        r.span(name, at(from), at(Instant::now()), round, round_id);
                    }
                };

                // Refill: idle sessions take the next queries and predict
                // their starting parameters under one read lock.
                let open = match limit {
                    Limit::Queries(n) => (first + n).min(pool).saturating_sub(self.next),
                    Limit::Until(deadline) if Instant::now() < deadline => pool - self.next,
                    Limit::Until(_) => 0,
                };
                let idle: Vec<usize> = (0..sessions.len())
                    .filter(|&i| sessions[i].is_none())
                    .take(open)
                    .collect();
                if !idle.is_empty() {
                    let rows = &self.order[self.next..self.next + idle.len()];
                    self.next += idle.len();
                    let queries: Vec<Vec<f64>> =
                        rows.iter().map(|&r| coll.vector(r).to_vec()).collect();
                    let t0 = Instant::now();
                    let predictions = self.module.predict_batch(&queries)?;
                    span("core.module.predict_batch", t0);
                    for (((&i, &row), q), params) in
                        idle.iter().zip(rows).zip(queries).zip(predictions)
                    {
                        sessions[i] = Some(Active {
                            q,
                            category: coll.label(row),
                            params,
                            prev: None,
                            cycles: 0,
                            precision: 0.0,
                            started: t0,
                        });
                    }
                }

                let active: Vec<usize> = (0..sessions.len())
                    .filter(|&i| sessions[i].is_some())
                    .collect();
                if active.is_empty() {
                    return Ok(tally);
                }
                let requests: Vec<Params> = active
                    .iter()
                    .map(|&i| sessions[i].as_ref().expect("active").params.clone())
                    .collect();
                let t0 = Instant::now();
                let answers = self.module.knn_batch(&scan, &requests)?;
                let batch_ns = t0.elapsed().as_nanos() as u64;
                span("core.shared.knn_batch", t0);
                tally.load.attempted += active.len() as u64;
                if tally.passes.is_multiple_of(CHECK_EVERY) {
                    for (request, answer) in requests.iter().zip(&answers) {
                        let valid = request.weights.iter().all(|w| w.is_finite() && *w > 0.0);
                        let weights = valid.then_some(&request.weights[..]);
                        let expect = adapter::reference_knn(coll, &request.point, weights, K);
                        tally.bad_answers += u64::from(*answer != expect);
                    }
                }
                tally.passes += 1;

                for (&i, answer) in active.iter().zip(&answers) {
                    tally.load.knn_ns.push(batch_ns);
                    tally.bad_answers += u64::from(!adapter::well_formed(answer, coll.len()));
                    let aq = sessions[i].as_mut().expect("active");
                    let t1 = Instant::now();
                    let ids: Vec<u32> = answer.iter().map(|x| x.index).collect();
                    let good = ids
                        .iter()
                        .filter(|&&id| coll.label(id as usize) == aq.category)
                        .count();
                    tally.load.judge_ns += t1.elapsed().as_nanos() as u64;
                    aq.precision = good as f64 / K as f64;
                    if aq.prev.is_none() {
                        tally.load.first_precision += aq.precision;
                    }

                    // The transition of `fbp_eval::sessions`: a repeated
                    // ranking or a fixpoint converges, the cycle cap
                    // gives up.
                    let t2 = Instant::now();
                    let mut finished: Option<bool> = None;
                    if let Some(prev) = &aq.prev {
                        aq.cycles += 1;
                        if *prev == ids {
                            finished = Some(true);
                        }
                    }
                    if finished.is_none() {
                        if aq.cycles >= stepper.max_cycles() {
                            finished = Some(false);
                        } else {
                            let ts = Instant::now();
                            let next = stepper.step(&aq.params, answer, aq.category)?;
                            span("feedback.step", ts);
                            match next {
                                None => finished = Some(true),
                                Some(params) => {
                                    aq.params = params;
                                    aq.prev = Some(ids);
                                }
                            }
                        }
                    }
                    if let Some(converged) = finished {
                        let aq = sessions[i].take().expect("active");
                        if aq.cycles > 0 {
                            let ti = Instant::now();
                            self.module.insert(&aq.q, &aq.params)?;
                            span("core.module.insert", ti);
                        }
                        tally
                            .load
                            .finish_query(aq.started, aq.precision, converged, aq.cycles);
                    }
                    tally.load.feedback_ns.push(t2.elapsed().as_nanos() as u64);
                }
                if let (Some(r), Some(id)) = (rec.as_deref_mut(), round) {
                    r.spans[id].start_ns = at(round_start);
                    r.spans[id].end_ns = at(Instant::now());
                    r.count("predictions", idle.len() as u64);
                    r.count("searches", active.len() as u64);
                    r.count("passes", 1);
                }
            }
        })
    }

    /// Rows of the saved-cycles tail, never handed to a session.
    fn heldout(&self, sizes: &InprocSizes) -> &[usize] {
        &self.order[self.order.len() - sizes.heldout_queries..]
    }
}

fn check_phase(result: &mut RunResult, tally: &Tally) {
    result.attempted += tally.load.attempted;
    result.failed += tally.bad_answers;
    if tally.bad_answers > 0 {
        result.note(format!(
            "{} answers differ from the flat scan or are malformed",
            tally.bad_answers
        ));
    }
}

/// The untraced run: every end-to-end metric.
pub fn run_end_to_end(sizes: &InprocSizes, args: &Args) -> Res<RunResult> {
    let mut result = RunResult::default();
    let mut rig = load::set_up(args.setup_reps, &mut result.metrics, || {
        Rig::build(sizes, args.seed)
    })?;
    let mut phase = rig.phase(sizes, Limit::Until(Instant::now() + args.seconds), None)?;
    check_phase(&mut result, &phase.tally);
    let measured = &mut phase.tally.load;
    result.note(format!(
        "{} searches in {} passes, {} queries ({} hit the cycle cap), {:.2} s measured, module holds {} points, inputs {:016x}",
        measured.searches(),
        phase.tally.passes,
        measured.queries(),
        measured.not_converged,
        phase.wall.as_secs_f64(),
        rig.module.shape().stored_points,
        inputs::digest(&rig.coll, &rig.order),
    ));
    load::end_to_end_metrics(&mut result.metrics, measured, phase.wall, phase.cpu_us);
    Ok(result)
}

/// The traced run and the layer probes: every per-layer metric. Layers
/// this workload has no part of (`server.*`, partitions) report 0.
pub fn run_per_layer(sizes: &InprocSizes, args: &Args) -> Res<RunResult> {
    let mut result = RunResult::default();
    let mut rig = Rig::build(sizes, args.seed)?;
    let quarter = Limit::Until(Instant::now() + args.seconds / 4);
    let mut plain = rig.phase(sizes, quarter, None)?;
    check_phase(&mut result, &plain.tally);
    let mut rec = Recorder::default();
    let half = Limit::Until(Instant::now() + args.seconds / 2);
    let mut phase = rig.phase(sizes, half, Some(&mut rec))?;
    check_phase(&mut result, &phase.tally);
    let passes = phase.tally.passes;
    let traced = &mut phase.tally.load;
    let searches = traced.searches();
    let fill = ratio(searches as f64, passes as f64);
    result.note(format!(
        "{searches} traced searches in {passes} passes, {:.2} s, after {} untraced",
        phase.wall.as_secs_f64(),
        plain.tally.load.searches()
    ));

    let m = &mut result.metrics;
    let p50_us = |name: &str| {
        let mut ns = rec.durations(name);
        (percentile(&mut ns, 0.5) / 1e3, ns.len() as u64)
    };
    // (B) spans around the adapter calls of the traced load.
    let (predict_batch_us, predict_n) = p50_us("core.module.predict_batch");
    let predictions = rec.counts.get("predictions").copied().unwrap_or(0);
    let per_batch = ratio(predictions as f64, predict_n as f64);
    m.put(
        "core.module.predict_us",
        ratio(predict_batch_us, per_batch),
        predict_n,
    );
    let (insert_us, insert_n) = p50_us("core.module.insert");
    m.put("core.module.insert_us", insert_us, insert_n);
    let (step_us, step_n) = p50_us("feedback.step");
    m.put("feedback.step_us", step_us, step_n);
    let (batch_us, batch_n) = p50_us("core.shared.knn_batch");
    m.put("core.shared.knn_batch_us", batch_us, batch_n);
    m.put("core.shared.batch_fill", fill, passes);
    m.put(
        "vecdb.scan.q16_us_per_query",
        ratio(batch_us, fill),
        batch_n,
    );
    load::traced_load_metrics(m, traced, phase.wall, phase.cpu_us, &mut plain.tally.load);
    probes::shape_metrics(m, &rig.module);
    probes::cycles_saved(m, &rig.coll, &rig.module, rig.heldout(sizes))?;
    // Every pass streams every row once, whatever its fill; this path
    // keeps no scan counters.
    m.put(
        "vecdb.scan.rows_per_search",
        ratio(rig.coll.len() as f64, fill),
        passes,
    );
    m.put(
        "vecdb.partition.rows_visited_frac",
        ratio(1.0, fill),
        passes,
    );
    for name in [
        "vecdb.scan.blocks_abandoned_per_search",
        "vecdb.scan.filtered_per_search",
        "vecdb.scan.rescored_per_search",
        "vecdb.scan.rescore_yield",
        "vecdb.scan.seeded_pass_frac",
        "vecdb.partition.build_s",
        "vecdb.partition.pruned_frac",
        "server.batcher.queue_wait_p50_us",
        "server.batcher.queue_wait_p99_us",
        "server.batcher.fill",
        "server.batcher.passes_per_search",
        "server.trace.gather_p50_us",
        "server.trace.merge_p50_us",
        "server.trace.shard_queue_p50_us",
        "server.trace.shard_busy_p50_us",
        "server.trace.wire_overhead_p50_us",
        "server.trace.coverage_frac",
        "server.router.shard_skew_p50_us",
        "server.router.hedges_fired_per_1k",
        "server.router.hedges_won_per_1k",
        "server.router.retries",
        "server.router.timeouts",
        "server.router.degraded_replies",
        "server.router.module_replicate_us",
    ] {
        m.put(name, 0.0, 0);
    }

    // (P) the remaining probes, on the histogram collection.
    let queries: Vec<&[f64]> = rig.heldout(sizes)[..probes::QUERIES]
        .iter()
        .map(|&r| rig.coll.vector(r))
        .collect();
    probes::kernels(m, &rig.coll, &queries);
    probes::scan_q1(m, &rig.coll, &queries);
    probes::query_and_codec(m, &rig.coll, &queries, 0);

    rec.count("queries", traced.queries());
    rec.write_jsonl(&args.out_dir.join(format!("trace_{}.jsonl", args.workload)))
        .map_err(|e| format!("writing the trace: {e}"))?;
    Ok(result)
}
