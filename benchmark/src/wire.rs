//! The three wire workloads: closed-loop interactive sessions over
//! loopback TCP through a flat server, a partition-pruning server, or
//! a router over two shard servers.
//!
//! Each client thread owns one connection and one session and replays
//! its slice of the seeded query list: search, judge by category, send
//! the judgment, repeat until the server reports the query done. Zero
//! think time — a client's next request leaves when the previous reply
//! arrives.

use crate::adapter::{
    self, Collection, Res, Stack, StatsSnapshot, Topology, TraceReport, WireClient, K,
};
use crate::load::{self, Load, Phase};
use crate::probes;
use crate::report::{Metrics, RunResult};
use crate::spec::{WireSizes, CLUSTERS};
use crate::stats::{percentile, ratio};
use crate::trace::Recorder;
use crate::{inputs, Args};
use std::sync::Arc;
use std::time::Instant;

/// Client-side cap on rounds per query, above the server's own
/// 20-cycle cap.
const MAX_ROUNDS: usize = 64;

/// Out-of-domain probes checked against the flat scan per run.
const CORRECTNESS_PROBES: usize = 32;

/// A running stack with its data and connected clients. Dropping it
/// closes the connections, then stops the stack and joins its threads.
struct Rig {
    clients: Vec<Session>,
    stack: Stack,
    coll: Arc<Collection>,
    /// Row ids in seeded order; client `c` of `C` replays entries
    /// `c, c + C, …`, each at most once.
    order: Vec<usize>,
}

struct Session {
    client: WireClient,
    /// Next position of this client in `Rig::order`.
    cursor: usize,
}

/// How long a phase runs.
#[derive(Clone, Copy)]
enum Limit {
    /// Until each client has finished this many queries.
    Queries(u64),
    /// No new query starts after this instant.
    Until(Instant),
}

/// What one client saw over one phase.
#[derive(Default)]
struct Tally {
    load: Load,
    bad_replies: u64,
    degraded: u64,
    /// Per traced search: the client's wall and the server's trailer.
    traced: Vec<(u64, TraceReport)>,
    /// Failed or refused requests.
    errors: Vec<String>,
}

impl Tally {
    fn absorb(&mut self, o: Tally) {
        self.load.absorb(o.load);
        self.bad_replies += o.bad_replies;
        self.degraded += o.degraded;
        self.traced.extend(o.traced);
        self.errors.extend(o.errors);
    }
}

/// One client's share of a phase.
fn run_client(
    coll: &Collection,
    order: &[usize],
    stride: usize,
    session: &mut Session,
    limit: Limit,
    traced: bool,
) -> Tally {
    let mut tally = Tally::default();
    let mut relevant: Vec<u32> = Vec::with_capacity(K);
    loop {
        match limit {
            Limit::Queries(n) if tally.load.queries() >= n => break,
            Limit::Until(deadline) if Instant::now() >= deadline => break,
            _ => {}
        }
        let Some(&row) = order.get(session.cursor) else {
            break;
        };
        session.cursor += stride;
        let q = coll.vector(row);
        let category = coll.label(row);
        let started = Instant::now();
        let mut rounds = 0usize;
        let mut precision = 0.0;
        let mut cycles = 0u32;
        let mut converged = false;
        let outcome: Res<()> = (|| loop {
            tally.load.attempted += 1;
            let t0 = Instant::now();
            let mut reply = session.client.knn(q, traced)?;
            let knn_ns = t0.elapsed().as_nanos() as u64;
            tally.load.knn_ns.push(knn_ns);
            if let Some(trailer) = reply.trace.take() {
                tally.traced.push((knn_ns, *trailer));
            }
            rounds += 1;
            tally.degraded += u64::from(reply.degraded);
            tally.bad_replies += u64::from(!adapter::well_formed(&reply.neighbors, coll.len()));
            let t1 = Instant::now();
            relevant.clear();
            let ids = reply.neighbors.iter().map(|x| x.index);
            relevant.extend(ids.filter(|&id| coll.label(id as usize) == category));
            tally.load.judge_ns += t1.elapsed().as_nanos() as u64;
            precision = relevant.len() as f64 / K as f64;
            if rounds == 1 {
                tally.load.first_precision += precision;
            }
            cycles = reply.cycles;
            if reply.done {
                converged = reply.converged;
                return Ok(());
            }
            if rounds >= MAX_ROUNDS {
                return Ok(());
            }
            tally.load.attempted += 1;
            let t2 = Instant::now();
            let ack = session.client.feedback(&relevant)?;
            tally.load.feedback_ns.push(t2.elapsed().as_nanos() as u64);
            cycles = ack.cycles;
            if ack.done {
                converged = ack.converged;
                return Ok(());
            }
        })();
        if let Err(e) = outcome {
            // A failed or refused request fails the run; the connection
            // cannot be trusted afterwards.
            tally.errors.push(e);
            break;
        }
        tally
            .load
            .finish_query(started, precision, converged, cycles as usize);
    }
    tally
}

impl Rig {
    /// Data, stack, connected clients, warm-up: everything `setup_s`
    /// covers.
    fn build(sizes: &WireSizes, seed: u64, hello: bool) -> Res<Rig> {
        let coll = Arc::new(adapter::clustered(sizes.rows, sizes.dim, CLUSTERS, seed));
        let order = inputs::shuffled((0..sizes.rows).collect(), seed);
        let stack = Stack::start(sizes.topology, &coll)?;
        let clients = (0..sizes.clients)
            .map(|c| {
                Ok(Session {
                    client: WireClient::connect(stack.addr(), hello)?,
                    cursor: c,
                })
            })
            .collect::<Res<Vec<_>>>()?;
        let mut rig = Rig {
            clients,
            stack,
            coll,
            order,
        };
        let warm = rig.phase(Limit::Queries(sizes.warmup_queries as u64), false)?;
        match warm.tally.errors.first() {
            Some(e) => Err(format!("warm-up: {e}")),
            None => Ok(rig),
        }
    }

    /// Run every client for one phase, one thread each.
    fn phase(&mut self, limit: Limit, traced: bool) -> Res<Phase<Tally>> {
        let (coll, order) = (&*self.coll, &self.order[..]);
        let stride = self.clients.len();
        let clients = &mut self.clients;
        Phase::measure(|| {
            let mut merged = Tally::default();
            std::thread::scope(|scope| {
                let handles: Vec<_> = clients
                    .iter_mut()
                    .map(|s| scope.spawn(move || run_client(coll, order, stride, s, limit, traced)))
                    .collect();
                for h in handles {
                    merged.absorb(h.join().expect("client thread panicked"));
                }
            });
            Ok(merged)
        })
    }

    /// The last `count` rows of the seeded order, which no client
    /// reaches: never-inserted queries for the probes.
    fn heldout(&self, count: usize) -> &[usize] {
        &self.order[self.order.len() - count..]
    }
}

/// Sum of the counters a delta is taken over.
#[derive(Default, Clone, Copy)]
struct Counters {
    requests: u64,
    passes: u64,
    rows: u64,
    abandoned: u64,
    filtered: u64,
    rescored: u64,
    seeded: u64,
    pruned: u64,
}

impl Counters {
    fn of(snaps: &[StatsSnapshot]) -> Counters {
        let mut c = Counters::default();
        for s in snaps {
            c.requests += s.requests;
            c.passes += s.passes;
            c.rows += s.scan_rows_visited;
            c.abandoned += s.scan_blocks_abandoned;
            c.filtered += s.scan_candidates_filtered;
            c.rescored += s.scan_candidates_rescored;
            c.seeded += s.scan_seed_prunes;
            c.pruned += s.scan_partitions_pruned;
        }
        c
    }

    fn since(self, earlier: Counters) -> Counters {
        Counters {
            requests: self.requests - earlier.requests,
            passes: self.passes - earlier.passes,
            rows: self.rows - earlier.rows,
            abandoned: self.abandoned - earlier.abandoned,
            filtered: self.filtered - earlier.filtered,
            rescored: self.rescored - earlier.rescored,
            seeded: self.seeded - earlier.seeded,
            pruned: self.pruned - earlier.pruned,
        }
    }
}

/// Book a phase's requests and whatever went wrong in it.
fn check_phase(result: &mut RunResult, tally: &Tally) {
    result.attempted += tally.load.attempted;
    result.failed += tally.errors.len() as u64 + tally.bad_replies + tally.degraded;
    for e in &tally.errors {
        result.note(format!("request failed: {e}"));
    }
    if tally.bad_replies > 0 {
        result.note(format!("{} malformed replies", tally.bad_replies));
    }
    if tally.degraded > 0 {
        result.note(format!("{} degraded replies", tally.degraded));
    }
}

/// What every run ends with. Thirty-two uniform-metric probes with
/// components > 1 — outside the unit-cube module, so the tier searches
/// them as sent — must equal the flat scan bit for bit through this
/// topology; a healthy stack must never have retried, timed out or
/// degraded; and everything must shut down cleanly (every session
/// closed, every thread joined).
fn finish(rig: Rig, result: &mut RunResult, seed: u64) -> Res<()> {
    let mut probe = WireClient::connect(rig.stack.addr(), false)?;
    let mut mismatches = 0;
    for q in inputs::out_of_domain(CORRECTNESS_PROBES, rig.coll.dim(), seed) {
        let reply = probe.knn(&q, false)?;
        let expect = adapter::reference_knn(&rig.coll, &q, None, K);
        mismatches += u64::from(reply.neighbors != expect || reply.degraded);
    }
    probe.close()?;
    result.attempted += CORRECTNESS_PROBES as u64;
    result.failed += mismatches;
    if mismatches > 0 {
        result.note(format!("{mismatches} probes differ from the flat scan"));
    }
    let front = rig.stack.front_stats();
    let faults = front.downstream_retries + front.downstream_timeouts + front.degraded_replies;
    if faults > 0 {
        result.failed += faults;
        result.note(format!(
            "{faults} retries/timeouts/degraded replies on a healthy stack"
        ));
    }
    for s in rig.clients {
        s.client.close()?;
    }
    rig.stack.shutdown();
    Ok(())
}

/// The untraced run: every end-to-end metric.
pub fn run_end_to_end(sizes: &WireSizes, args: &Args) -> Res<RunResult> {
    let mut result = RunResult::default();
    let mut rig = load::set_up(args.setup_reps, &mut result.metrics, || {
        Rig::build(sizes, args.seed, false)
    })?;
    let mut phase = rig.phase(Limit::Until(Instant::now() + args.seconds), false)?;
    check_phase(&mut result, &phase.tally);
    let measured = &mut phase.tally.load;
    result.note(format!(
        "{} searches, {} queries ({} hit the cycle cap), {:.2} s measured, module holds {} points, inputs {:016x}",
        measured.searches(),
        measured.queries(),
        measured.not_converged,
        phase.wall.as_secs_f64(),
        rig.stack.module().shape().stored_points,
        inputs::digest(&rig.coll, &rig.order),
    ));
    finish(rig, &mut result, args.seed)?;
    load::end_to_end_metrics(&mut result.metrics, measured, phase.wall, phase.cpu_us);
    Ok(result)
}

/// (S) `vecdb.scan.*`, `vecdb.partition.*` and `server.batcher.*` from
/// the scanning servers' counters over the traced load.
fn counter_metrics(
    m: &mut Metrics,
    sizes: &WireSizes,
    scan: Counters,
    searches: u64,
    shards: &[StatsSnapshot],
) {
    let per_search = |v: u64| ratio(v as f64, searches as f64);
    m.put(
        "vecdb.scan.rows_per_search",
        per_search(scan.rows),
        searches,
    );
    m.put(
        "vecdb.scan.blocks_abandoned_per_search",
        per_search(scan.abandoned),
        searches,
    );
    m.put(
        "vecdb.scan.filtered_per_search",
        per_search(scan.filtered),
        searches,
    );
    m.put(
        "vecdb.scan.rescored_per_search",
        per_search(scan.rescored),
        searches,
    );
    let wanted = (K as u64 * searches) as f64;
    m.put(
        "vecdb.scan.rescore_yield",
        ratio(wanted, scan.rescored as f64),
        searches,
    );
    m.put(
        "vecdb.scan.seeded_pass_frac",
        ratio(scan.seeded as f64, scan.passes as f64),
        scan.passes,
    );
    let partitions = scan.passes * adapter::default_partition_count() as u64;
    m.put(
        "vecdb.partition.pruned_frac",
        ratio(scan.pruned as f64, partitions as f64),
        scan.passes,
    );
    let all_rows = searches * sizes.rows as u64;
    m.put(
        "vecdb.partition.rows_visited_frac",
        ratio(scan.rows as f64, all_rows as f64),
        searches,
    );
    // Waits are the server's cumulative histogram (warm-up and the
    // untraced quarter included); fill and passes are deltas. A router's
    // shards scan `ShardKnn` inline, so their batchers stay idle.
    let batched = &shards[0];
    m.put(
        "server.batcher.queue_wait_p50_us",
        batched.queue_wait_p50_us,
        batched.requests,
    );
    m.put(
        "server.batcher.queue_wait_p99_us",
        batched.queue_wait_p99_us,
        batched.requests,
    );
    m.put(
        "server.batcher.fill",
        ratio(scan.requests as f64, scan.passes as f64),
        scan.passes,
    );
    m.put(
        "server.batcher.passes_per_search",
        per_search(scan.passes),
        searches,
    );
}

/// (T) `server.trace.*` and the shard skew from the trailers, and the
/// spans they lay out. A trailer carries durations, not clock readings:
/// the server's spans sit centred inside the client's, searches end to
/// end.
fn trailer_metrics(m: &mut Metrics, traced: &[(u64, TraceReport)]) -> Recorder {
    let mut rec = Recorder::default();
    let (mut gather, mut merge, mut overhead, mut skew) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut queue, mut busy) = (Vec::new(), Vec::new());
    let (mut server_wall, mut client_wall, mut clock) = (0u64, 0u64, 0u64);
    for (request, (client_ns, t)) in traced.iter().enumerate() {
        gather.push(t.gather_ns);
        merge.push(t.merge_ns);
        overhead.push(client_ns.saturating_sub(t.wall_ns));
        server_wall += t.wall_ns;
        client_wall += client_ns;
        let busies = t.spans.iter().map(|s| s.busy_ns);
        skew.push(busies.clone().max().unwrap_or(0) - busies.min().unwrap_or(0));
        let request = request as u64;
        let root = rec.span("client.knn", clock, clock + client_ns, None, request);
        let at = clock + client_ns.saturating_sub(t.wall_ns) / 2;
        let server = rec.span("server.request", at, at + t.wall_ns, Some(root), request);
        let g = rec.span("server.gather", at, at + t.gather_ns, Some(server), request);
        rec.span(
            "server.merge",
            at + t.gather_ns,
            at + t.wall_ns,
            Some(server),
            request,
        );
        for s in &t.spans {
            queue.push(s.queue_ns);
            busy.push(s.busy_ns);
            rec.span("shard.queue", at, at + s.queue_ns, Some(g), request);
            let end = at + s.queue_ns + s.busy_ns;
            rec.span("shard.busy", at + s.queue_ns, end, Some(g), request);
        }
        clock += client_ns;
    }
    let n = traced.len() as u64;
    let spans = queue.len() as u64;
    m.put(
        "server.trace.gather_p50_us",
        percentile(&mut gather, 0.5) / 1e3,
        n,
    );
    m.put(
        "server.trace.merge_p50_us",
        percentile(&mut merge, 0.5) / 1e3,
        n,
    );
    m.put(
        "server.trace.shard_queue_p50_us",
        percentile(&mut queue, 0.5) / 1e3,
        spans,
    );
    m.put(
        "server.trace.shard_busy_p50_us",
        percentile(&mut busy, 0.5) / 1e3,
        spans,
    );
    m.put(
        "server.trace.wire_overhead_p50_us",
        percentile(&mut overhead, 0.5) / 1e3,
        n,
    );
    m.put(
        "server.trace.coverage_frac",
        ratio(server_wall as f64, client_wall as f64),
        n,
    );
    m.put(
        "server.router.shard_skew_p50_us",
        percentile(&mut skew, 0.5) / 1e3,
        n,
    );
    rec
}

/// (P) `server.router.module_replicate_us`: one leg of the
/// re-replication every session commit triggers — serialize the module,
/// push it to one shard. Past the default 1 MiB frame limit the shard
/// refuses the push; the router pays for the attempt all the same, so it
/// is timed either way. Returns how many pushes were refused.
fn replicate_probe(m: &mut Metrics, rig: &Rig) -> Res<u64> {
    let mut ns = Vec::new();
    let mut refused = 0;
    for _ in 0..probes::REPS {
        let t0 = Instant::now();
        let image = rig.stack.module().to_image();
        let mut shard = WireClient::connect(rig.stack.shard_addr(0), false)?;
        refused += u64::from(shard.restore_module(&image).is_err());
        ns.push(t0.elapsed().as_nanos() as u64);
    }
    m.put(
        "server.router.module_replicate_us",
        percentile(&mut ns, 0.5) / 1e3,
        ns.len() as u64,
    );
    Ok(refused)
}

/// The traced run and the layer probes: every per-layer metric.
pub fn run_per_layer(sizes: &WireSizes, args: &Args) -> Res<RunResult> {
    let mut result = RunResult::default();
    let mut rig = Rig::build(sizes, args.seed, true)?;

    // A short untraced load first: the base of `overhead_ratio`.
    let mut plain = rig.phase(Limit::Until(Instant::now() + args.seconds / 4), false)?;
    check_phase(&mut result, &plain.tally);
    let shards0 = Counters::of(&rig.stack.shard_stats());
    let front0 = rig.stack.front_stats();
    let mut phase = rig.phase(Limit::Until(Instant::now() + args.seconds / 2), true)?;
    check_phase(&mut result, &phase.tally);
    let shard_snaps = rig.stack.shard_stats();
    let scan = Counters::of(&shard_snaps).since(shards0);
    let front = rig.stack.front_stats();

    let Tally {
        load: traced_load,
        traced,
        ..
    } = &mut phase.tally;
    let searches = traced_load.searches();
    if traced.len() as u64 != searches {
        result.failed += 1;
        result.note(format!(
            "{} of {searches} traced searches carried a trailer",
            traced.len()
        ));
    }
    result.note(format!(
        "{searches} traced searches in {:.2} s after {} untraced",
        phase.wall.as_secs_f64(),
        plain.tally.load.searches()
    ));

    let m = &mut result.metrics;
    counter_metrics(m, sizes, scan, searches, &shard_snaps);
    let mut rec = trailer_metrics(m, traced);
    rec.count("searches", searches);
    rec.count("queries", traced_load.queries());
    rec.count("rows_visited", scan.rows);
    rec.count("passes", scan.passes);
    rec.count("partitions_pruned", scan.pruned);
    load::traced_load_metrics(
        m,
        traced_load,
        phase.wall,
        phase.cpu_us,
        &mut plain.tally.load,
    );
    // (S) router tier; all zero on a flat server.
    let per_1k = |now: u64, then: u64| ratio((now - then) as f64 * 1e3, searches as f64);
    m.put(
        "server.router.hedges_fired_per_1k",
        per_1k(front.hedges_fired, front0.hedges_fired),
        searches,
    );
    m.put(
        "server.router.hedges_won_per_1k",
        per_1k(front.hedges_won, front0.hedges_won),
        searches,
    );
    m.put(
        "server.router.retries",
        front.downstream_retries as f64,
        searches,
    );
    m.put(
        "server.router.timeouts",
        front.downstream_timeouts as f64,
        searches,
    );
    m.put(
        "server.router.degraded_replies",
        front.degraded_replies as f64,
        searches,
    );
    // `SharedBypass::knn_batch` is driven directly only by
    // `learn_inproc`.
    m.put("core.shared.knn_batch_us", 0.0, 0);
    m.put("core.shared.batch_fill", 0.0, 0);

    // (P) layer probes on this workload's data and learned module.
    let router = sizes.topology == Topology::Router;
    let unit = Arc::clone(rig.stack.scan_unit());
    let rows = rig.heldout(probes::QUERIES);
    let queries: Vec<&[f64]> = rows.iter().map(|&r| rig.coll.vector(r)).collect();
    probes::kernels(m, &unit, &queries);
    probes::scan_q1(m, &unit, &queries);
    probes::scan_q16(m, &unit, &queries);
    probes::module(m, rig.stack.module(), &queries)?;
    probes::cycles_saved(
        m,
        &rig.coll,
        rig.stack.module(),
        rig.heldout(sizes.heldout_queries),
    )?;
    probes::query_and_codec(m, &unit, &queries, if router { 2 } else { 0 });
    probes::feedback_step(m, &rig.coll, rows)?;
    if sizes.topology == Topology::Pruned {
        let t0 = Instant::now();
        adapter::build_partitions(&unit);
        m.put("vecdb.partition.build_s", t0.elapsed().as_secs_f64(), 1);
    } else {
        m.put("vecdb.partition.build_s", 0.0, 0);
    }
    if router {
        let refused = replicate_probe(m, &rig)?;
        if refused > 0 {
            result.note(format!(
                "a shard refused {refused} module pushes (image over the frame limit)"
            ));
        }
    } else {
        m.put("server.router.module_replicate_us", 0.0, 0);
    }

    finish(rig, &mut result, args.seed)?;
    rec.write_jsonl(&args.out_dir.join(format!("trace_{}.jsonl", args.workload)))
        .map_err(|e| format!("writing the trace: {e}"))?;
    Ok(result)
}
