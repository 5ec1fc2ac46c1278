//! Multi-query block scanning: evaluate Q concurrent queries per
//! collection pass instead of re-reading the collection once per query.
//!
//! The single-query [`LinearScan`](super::LinearScan) is memory-bound on
//! typical hosts: one pass streams `len × dim` f64s from DRAM to answer
//! one query. A retrieval service with many interactive feedback
//! sessions issues many k-NN queries against the *same* collection at
//! once, so [`MultiQueryScan`] amortizes that traffic: each block of
//! [`BLOCK_ROWS`] vectors is loaded once and scored against every
//! pending query while it is hot, dropping collection bytes per query by
//! ~Q× until the scan turns compute-bound.
//!
//! One entry, [`MultiQueryScan::knn`], takes a [`QueryBatch`] and runs
//! over a [`Layout`]: a flat [`Collection`] (one partition) or a
//! [`PartitionedCollection`](crate::collection::PartitionedCollection),
//! whose partitions a per-query lower bound can prove irrelevant (see
//! the [`partitioned`](super::partitioned) module for the proof). One
//! partition walk serves either layout, and one chunk scanner per
//! precision serves every batch: the batch's metric form is lowered once
//! per pass to the weight layout of the Q×row multi kernels
//! ([`QueryBatch::lowered`]) — one shared weight row (`Shared`: a
//! Q-sweep, sessions that have not diverged yet, an all-equal
//! `Weighted` batch; `w_stride = 0`) or one row per query (`Weighted`:
//! sessions whose learned weights diverged; `w_stride = dim`) — and
//! every block is one register-blocked kernel call for all queries.
//!
//! Results are **bit-identical** to Q independent `LinearScan` runs in
//! the same key-space mode: every (query, row) key is computed by the
//! same segment-wise accumulation, per-query early-abandon bounds can
//! only drop rows that could never enter that query's k-best, and the
//! parallel path merges per-thread candidates by ascending
//! `(key, index)` exactly like the single-query scan. The consistency
//! suite (`crates/vecdb/tests/multi_query.rs`) pins this across uniform,
//! varied and skewed weights.
//!
//! # Precision
//!
//! With [`Precision::F32Rescore`] (and a collection carrying its f32
//! mirror) the kernel-path modes run **two phases**: phase 1 streams the
//! mirror through the f32 kernels with per-query pruning bounds
//! `T + Δ(T)` — the running threshold turned into a ceiling `T` on the
//! true k-th f64 key and inflated by the class's key-relative rounding
//! bound `Δ(key)` ([`KeyBand`]) — collecting every row whose f32 key
//! lands under its bound; phase 2 rescores those candidates from the
//! f64 buffer with the exact kernels. Because `Δ` follows the key rather
//! than the largest key the data could produce, a small k-th key gets a
//! correspondingly narrow band. The inflation makes
//! the candidate set a guaranteed superset of the true f64 top-k (see
//! the proof on [`MultiQueryScan::scan_range_f32`]), so results
//! remain bit-identical to the pure-f64 scan while the bulk of the pass
//! moves half the bytes.
//!
//! Every block loop, in both precisions, hands its keys to one admit
//! step, [`admit`]: an 8-lane `key ≤ bound` bitmask skips runs of rows
//! that admit nothing with one test, and the exact f64 comparison
//! ([`admit_run`]) runs on the set lanes only, so the candidate pools,
//! the k-bests and the `blocks_abandoned` count are those of a
//! row-by-row loop. An f32 batch that takes the rows-in-lanes kernel
//! skips the key buffer: the kernel builds a 16-lane mask per query and
//! row group while the keys are still in register, and only groups with
//! a set lane reach [`admit_run`].

use super::partitioned::{all_prune, Layout};
use super::stats::{ScanStats, ScanStatsSink};
use super::{
    f32_bound_up, rescore_f64_keyed, KBest, KeyBand, Neighbor, Precision, QueryBatch, QueryMetrics,
    ScanConfig, ScanMode, ShardPartial, BLOCK_ROWS,
};
use crate::collection::Collection;
use crate::distance::{kernels, Distance, F32KeyBound, WeightedEuclidean};
use std::ops::Range;

/// Chunk scanner of a pass: scan a row range, folding hits into the
/// running k-bests under the optional per-query caps. An f32 phase-1
/// scanner's k-bests track f32 keys and it collects the per-query
/// `(scanned-row index, key32)` candidate pools alongside; an f64
/// scanner leaves the pools empty.
type ChunkScan<'f> =
    dyn Fn(Range<usize>, &mut [KBest], &mut [Vec<(u32, f32)>], Option<&[f64]>) + Sync + 'f;

/// Multi-query scan engine borrowing a [`Layout`]: a flat [`Collection`]
/// or a [`PartitionedCollection`](crate::collection::PartitionedCollection).
#[derive(Debug, Clone, Copy)]
pub struct MultiQueryScan<'a> {
    layout: Layout<'a>,
    cfg: ScanConfig<'a>,
}

impl<'a> MultiQueryScan<'a> {
    /// New engine over `layout` with [`ScanMode::Auto`].
    pub fn new(layout: impl Into<Layout<'a>>) -> Self {
        Self::with_config(layout.into(), ScanConfig::default())
    }

    /// New engine with an explicit execution mode. `ScanMode::Scalar`
    /// is the reference baseline and never prunes.
    pub fn with_mode(layout: impl Into<Layout<'a>>, mode: ScanMode) -> Self {
        Self::with_config(layout.into(), ScanConfig::with_mode(mode))
    }

    pub(crate) fn with_config(layout: Layout<'a>, cfg: ScanConfig<'a>) -> Self {
        MultiQueryScan { layout, cfg }
    }

    /// Select the scan precision ([`Precision::F32Rescore`] silently
    /// degrades to the f64 path when the collection has no mirror or the
    /// data's magnitude admits no finite f32 rounding bound — results are
    /// identical either way, only bandwidth differs).
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.cfg.precision = precision;
        self
    }

    /// Cap the parallel path at `threads` worker threads (at least 1).
    /// Set this when the caller already runs scans from several of its
    /// own threads, so nested parallelism cannot oversubscribe the host.
    pub fn with_thread_budget(mut self, threads: usize) -> Self {
        self.cfg.thread_budget = Some(threads.max(1));
        self
    }

    /// Flush this scan's work counters into `sink` (see [`ScanStats`],
    /// whose [`ScanStats::partitions_pruned`] is the partitioned
    /// layout's sub-linearity witness); attaching a sink never changes
    /// an answer.
    pub fn with_scan_stats(mut self, sink: &'a ScanStatsSink) -> Self {
        self.cfg.stats = Some(sink);
        self
    }

    /// The scanned collection (for a partitioned layout, its reordered
    /// partition-contiguous rows).
    pub fn collection(&self) -> &'a Collection {
        self.layout.coll
    }

    /// Per-query containment bands ([`KeyBand`]) of an f32 phase-1 over
    /// this collection, when every precondition for the two-phase scan
    /// holds: `F32Rescore` requested, mirror present, and —
    /// all-or-nothing, so the block loop reads exactly one of the two
    /// buffers — **every** query's metric has a finite f32 rounding bound
    /// for this data/query magnitude.
    fn f32_bands(&self, batch: &QueryBatch<'_>) -> Option<Vec<KeyBand>> {
        if self.cfg.precision != Precision::F32Rescore {
            return None;
        }
        let m_coll = self.layout.coll.max_abs()?; // None ⇔ no mirror
        let m = batch
            .queries()
            .iter()
            .flat_map(|q| q.iter())
            .fold(m_coll, |m, &v| m.max(v.abs()));
        let band = |metric: &WeightedEuclidean| {
            metric
                .f32_key_bound(self.layout.coll.dim(), m)
                .filter(F32KeyBound::is_finite)
                .map(KeyBand::new)
        };
        match batch.metrics() {
            QueryMetrics::Shared(metric) => band(metric).map(|b| vec![b; batch.len()]),
            QueryMetrics::Weighted(metrics) => metrics.iter().map(|m| band(m)).collect(),
        }
    }

    /// The nearest neighbors of every query of `batch` under its metric,
    /// in one blocked pass over the layout's unpruned partitions. Result
    /// `i` is sorted ascending by `(dist, index)` exactly like
    /// [`KnnEngine::knn`](super::KnnEngine::knn) on query `i`, and
    /// speaks the source collection's row numbering in every layout.
    ///
    /// # Panics
    ///
    /// Panics when the queries' dimensionality differs from the
    /// collection's.
    pub fn knn(&self, batch: &QueryBatch<'_>) -> Vec<Vec<Neighbor>> {
        batch.finish(self.knn_keyed(batch))
    }

    /// [`Self::knn`] stopped before the `finish_key` step: each query's
    /// exact k-best over this layout in selection space, one
    /// [`ShardPartial`] per query, speaking the layout's source row
    /// numbering. A caller that scans a slice of a larger collection
    /// [offsets](ShardPartial::offset) the partials to global rows and
    /// merges the slices' partials with
    /// [`merge_partials`](super::merge_partials) — bit-identical to
    /// [`Self::knn`] over the unsliced collection.
    ///
    /// The batch's caps ([`QueryBatch::with_caps`]) bound every query's
    /// selection from row one: rows beyond a cap never enter the
    /// result, which is exactly why a sound cap cannot change the
    /// merged answer.
    ///
    /// # Panics
    ///
    /// Panics when the queries' dimensionality differs from the
    /// collection's.
    pub fn knn_keyed(&self, batch: &QueryBatch<'_>) -> Vec<ShardPartial> {
        let coll = self.layout.coll;
        let (len, dim, nq) = (coll.len(), coll.dim(), batch.len());
        if nq == 0 || len == 0 {
            return keyed((0..nq).map(|_| KBest::new(0)).collect(), true);
        }
        let ks = batch.ks_for(len, dim);
        let caps = batch.caps();
        self.cfg.record_seeded_pass(caps);
        let perm = self.layout.perm();
        if self.cfg.mode == ScanMode::Scalar {
            // The reference pass is flat and pruning-free.
            return scalar_reference(coll, perm, &self.cfg, batch, &ks, caps);
        }
        if let Some(bands) = self.f32_bands(batch) {
            // Queries and weights rounded once to the layout the mirror
            // kernels consume; candidates speak scanned-row indices.
            let q32 = flatten_f32(batch.queries());
            let (w32, w_stride) = batch.lowered(WeightedEuclidean::weights_f32);
            let (kbs, cands) = self.drive(batch, &ks, &bands, caps, &|rows, kbs, cands, caps| {
                self.scan_range_f32(&q32, &w32, w_stride, &bands, &ks, rows, kbs, cands, caps)
            });
            let cands = filter_candidates(&kbs, &bands, cands, caps, self.cfg.stats);
            // Gather by scanned-row index, push under the original index
            // (the permutation): identical to the flat rescore's key bits.
            return rescore(coll, batch, &ks, &cands, perm);
        }
        // The f64 pass is the f32 one at the exact band (`T = min(t, cap)`).
        let q = flatten(batch.queries());
        let (w, w_stride) = batch.lowered(WeightedEuclidean::weights);
        let exact = vec![KeyBand::EXACT; nq];
        let (kbs, _) = self.drive(batch, &ks, &exact, caps, &|rows, kbs, _, caps| {
            self.scan_range(&q, &w, w_stride, rows, kbs, caps, perm)
        });
        keyed(kbs, false)
    }

    /// Walk `rows` in [`BLOCK_ROWS`] blocks: `block(start, end)` scores
    /// and admits one block and returns whether some row of it failed
    /// the admit; the walk counts rows visited and blocks abandoned and
    /// records them once.
    fn for_each_block(&self, rows: Range<usize>, mut block: impl FnMut(usize, usize) -> bool) {
        let mut tally = ScanStats::default();
        for start in rows.clone().step_by(BLOCK_ROWS) {
            let end = (start + BLOCK_ROWS).min(rows.end);
            tally.rows_visited += (end - start) as u64;
            tally.blocks_abandoned += u64::from(block(start, end));
        }
        self.cfg.record_stats(tally);
    }

    /// The mirror rows `start..end` (the f32 loops run only when the
    /// mirror exists).
    fn block_f32(&self, start: usize, end: usize) -> &'a [f32] {
        self.layout
            .coll
            .block_f32(start, end)
            .expect("f32 path requires the mirror")
    }

    /// The f32 phase-1 over one contiguous index range of the mirror:
    /// one register-blocked multi-kernel call per block scores it
    /// against every query (weights `w32` at `w_stride`, as
    /// [`QueryBatch::lowered`] laid them out), each query pruned by its
    /// own band's `T + Δ(T)` ([`KeyBand::admit_bound`]); every row whose
    /// f32 key lands under its query's bound is recorded in that query's
    /// candidate list (`kbs` tracks f32 keys only to tighten the bounds
    /// as the pass advances). When the batch takes the rows-in-lanes
    /// kernel ([`kernels::rows_in_lanes`]), the keys never leave the
    /// registers: the kernel masks each query's 16-row group against its
    /// lane bound and only a group with a set lane reaches
    /// [`admit_run`], so the pools, the k-bests and the vote equal those
    /// of [`admit_block`] over the written keys.
    ///
    /// Why `T + Δ(T)` suffices (per query; `τ64` = the k-th smallest true
    /// f64 key, `τ32` = the k-th smallest f32 key, `t` = the running
    /// threshold, `Δ(key)` the metric's monotone key-relative bound with
    /// `|key32 − key64| ≤ Δ(key64)`, `Δ'` its reverse with
    /// `key64 ≤ key32 + Δ'(key32)`): the running threshold is the k-th
    /// best f32 key *pushed so far*, which can never undershoot `τ32`,
    /// and the k rows realizing `τ32` witness
    /// `τ64 ≤ τ32 + Δ'(τ32) ≤ t + Δ'(t)`; with the cap, `τ64 ≤ T =
    /// min(t + Δ'(t), cap)`. A true top-k row (ties included) has
    /// `key64 ≤ τ64 ≤ T`, so `key32 ≤ key64 + Δ(key64) ≤ T + Δ(T)` by
    /// monotonicity. The per-block bound therefore keeps every such row:
    /// its monotone f32 prefix sums never exceed its final
    /// `key32 ≤ bound`, so the kernel cannot abandon it, and the
    /// `key32 ≤ bound` filter admits it into `cands` (with its f32 key,
    /// so [`filter_candidates`] can re-apply the same test against the
    /// *final* — tightest — threshold before the rescore pays any
    /// scattered f64 reads).
    #[allow(clippy::too_many_arguments)]
    fn scan_range_f32(
        &self,
        q32: &[f32],
        w32: &[f32],
        w_stride: usize,
        bands: &[KeyBand],
        ks: &[usize],
        rows: Range<usize>,
        kbs: &mut [KBest],
        cands: &mut [Vec<(u32, f32)>],
        caps: Option<&[f64]>,
    ) {
        let dim = self.layout.coll.dim();
        let nq = kbs.len();
        let in_register = kernels::rows_in_lanes(nq);
        // The in-register admit never touches the key buffer.
        let mut keys = vec![0.0f32; if in_register { 0 } else { nq * BLOCK_ROWS }];
        let mut bounds64 = vec![f64::INFINITY; nq];
        let mut bounds32 = vec![f32::INFINITY; nq];
        self.for_each_block(rows, |start, end| {
            let n = end - start;
            for (q, ((b64, b32), kb)) in bounds64
                .iter_mut()
                .zip(bounds32.iter_mut())
                .zip(kbs.iter())
                .enumerate()
            {
                *b64 = phase1_bound(kb, ks[q], cap_of(caps, q), &bands[q]);
                *b32 = f32_bound_up(*b64);
            }
            let block = self.block_f32(start, end);
            if in_register {
                let mut failed = false;
                let unset = kernels::weighted_sq_multi_admit_f32(
                    w32,
                    w_stride,
                    q32,
                    block,
                    dim,
                    &bounds32,
                    |q, r, mask, lanes| {
                        let (kb, pool) = (&mut kbs[q], Some(&mut cands[q]));
                        failed |= admit_run(mask, lanes, start + r, bounds64[q], None, kb, pool);
                    },
                );
                return unset || failed;
            }
            kernels::weighted_sq_multi_block_f32(
                w32,
                w_stride,
                q32,
                block,
                dim,
                &bounds32,
                &mut keys[..nq * n],
            );
            admit_block(&keys[..nq * n], &bounds64, start, None, kbs, Some(cands))
        });
    }

    /// The f64 blocked pass over one contiguous index range: refresh
    /// every query's bound per block, score the block against all
    /// queries in one multi-kernel call (weights `w` at `w_stride`, as
    /// [`QueryBatch::lowered`] laid them out), push surrogate keys.
    /// `perm` (when given) maps each scanned row index before the push —
    /// the partitioned layout's reorder-transparency: selection
    /// tie-breaks then happen in the *original* index space, which is
    /// what pins partitioned answers bit-identical to flat ones.
    #[allow(clippy::too_many_arguments)]
    fn scan_range(
        &self,
        q: &[f64],
        w: &[f64],
        w_stride: usize,
        rows: Range<usize>,
        kbs: &mut [KBest],
        caps: Option<&[f64]>,
        perm: Option<&[u32]>,
    ) {
        let dim = self.layout.coll.dim();
        let nq = kbs.len();
        let mut keys = vec![0.0f64; nq * BLOCK_ROWS];
        let mut bounds = vec![f64::INFINITY; nq];
        self.for_each_block(rows, |start, end| {
            let n = end - start;
            for (q, (b, kb)) in bounds.iter_mut().zip(kbs.iter()).enumerate() {
                *b = kb.threshold().min(cap_of(caps, q));
            }
            kernels::weighted_sq_multi_block(
                w,
                w_stride,
                q,
                self.layout.coll.block(start, end),
                dim,
                &bounds,
                &mut keys[..nq * n],
            );
            admit_block(&keys[..nq * n], &bounds, start, perm, kbs, None)
        });
    }

    /// The one pass loop of both layouts and both precisions: walk the
    /// layout's partitions in visit order, skip every partition all
    /// queries prove irrelevant ([`all_prune`] at this pass's `bands` —
    /// [`KeyBand::EXACT`] on the f64 path), and scan each survivor through
    /// `scan_chunk`, fanning it out over worker threads ([`fan_out`])
    /// when the range's own mode is Parallel — always in Parallel mode,
    /// and in Auto iff the range's `rows × dim × nq` clears
    /// [`PARALLEL_CUTOFF`](super::PARALLEL_CUTOFF). Returns the running
    /// k-bests (original indices on the f64 path) and the candidate
    /// pools (empty on the f64 path).
    fn drive(
        &self,
        batch: &QueryBatch<'_>,
        ks: &[usize],
        bands: &[KeyBand],
        caps: Option<&[f64]>,
        scan_chunk: &ChunkScan<'_>,
    ) -> (Vec<KBest>, Vec<Vec<(u32, f32)>>) {
        let (nq, dim) = (ks.len(), self.layout.coll.dim());
        let lbs = self.layout.lower_bounds(batch);
        let mut kbs: Vec<KBest> = ks.iter().map(|&k| KBest::new(k)).collect();
        let mut cands: Vec<Vec<(u32, f32)>> = vec![Vec::new(); nq];
        let mut tally = ScanStats::default();
        for p in self.layout.visit_order(&lbs, nq) {
            let rows = self.layout.rows(p);
            if rows.is_empty() {
                continue;
            }
            if all_prune(&lbs[p * nq..(p + 1) * nq], ks, &kbs, bands, caps) {
                tally.partitions_pruned += 1;
                continue;
            }
            let threads = match self.cfg.effective_mode(rows.len(), dim, nq) {
                ScanMode::Parallel => self.cfg.threads(rows.len().div_ceil(BLOCK_ROWS)),
                _ => 1,
            };
            if threads == 1 {
                scan_chunk(rows, &mut kbs, &mut cands, caps);
            } else {
                fan_out(
                    threads, rows, ks, bands, caps, &mut kbs, &mut cands, scan_chunk,
                );
            }
        }
        self.cfg.record_stats(tally);
        (kbs, cands)
    }
}

/// Fan one surviving row range out over `threads` contiguous chunks:
/// the calling thread scans the first while `threads − 1` scoped
/// workers scan the rest. Every chunk gets fresh k-bests seeded by the
/// snapshot cap `T = min(t + Δ'(t), cap)` ([`KeyBand::ceiling`]) — a
/// sound upper bound on each query's true k-th f64 key at this point of
/// the pass (`T = min(t, cap)` on the f64 path) — and merges back in
/// chunk order: candidate pools concatenate
/// (the rescore is order-independent) and each chunk's sorted k-best
/// entries fold into the running k-bests by ascending `(key, index)`,
/// so the result is deterministic regardless of thread count, chunk
/// boundaries or completion order, and identical to what the
/// one-thread walk selects.
#[allow(clippy::too_many_arguments)]
fn fan_out(
    threads: usize,
    rows: Range<usize>,
    ks: &[usize],
    bands: &[KeyBand],
    caps: Option<&[f64]>,
    kbs: &mut [KBest],
    cands: &mut [Vec<(u32, f32)>],
    scan_chunk: &ChunkScan<'_>,
) {
    let nq = ks.len();
    let snapshot: Vec<f64> = kbs
        .iter()
        .enumerate()
        .map(|(q, kb)| bands[q].ceiling(kb.threshold(), cap_of(caps, q)))
        .collect();
    let chunk = rows.len().div_ceil(threads);
    let scan = |t: usize| {
        let lo = rows.start + t * chunk;
        let hi = (lo + chunk).min(rows.end);
        let mut wkbs: Vec<KBest> = ks.iter().map(|&k| KBest::new(k)).collect();
        let mut wcands: Vec<Vec<(u32, f32)>> = vec![Vec::new(); nq];
        scan_chunk(lo..hi, &mut wkbs, &mut wcands, Some(&snapshot));
        let entries: Vec<Vec<(f64, u32)>> =
            wkbs.into_iter().map(KBest::into_sorted_entries).collect();
        (entries, wcands)
    };
    std::thread::scope(|scope| {
        let scan = &scan;
        let handles: Vec<_> = (1..threads).map(|t| scope.spawn(move || scan(t))).collect();
        let first = scan(0);
        let rest = handles
            .into_iter()
            .map(|h| h.join().expect("multi-scan worker panicked"));
        for (entries, wcands) in std::iter::once(first).chain(rest) {
            for ((kb, cand), (thread_entries, thread_cands)) in kbs
                .iter_mut()
                .zip(cands.iter_mut())
                .zip(entries.into_iter().zip(wcands))
            {
                cand.extend(thread_cands);
                for (key, index) in thread_entries {
                    if key > kb.threshold() {
                        break; // sorted: the rest of this worker can't enter
                    }
                    kb.push(index, key);
                }
            }
        }
    });
}

/// The Scalar reference pass: one [`Distance::eval`] per (row, query),
/// true distances pushed (`finished = true`), no kernels, no pruning
/// beyond the caller's caps — the anchor every kernel path is compared
/// against. `perm` (the partitioned layout's reorder map) makes it push
/// original row indices.
fn scalar_reference(
    coll: &Collection,
    perm: Option<&[u32]>,
    cfg: &ScanConfig<'_>,
    batch: &QueryBatch<'_>,
    ks: &[usize],
    caps: Option<&[f64]>,
) -> Vec<ShardPartial> {
    let mut kbs: Vec<KBest> = ks.iter().map(|&k| KBest::new(k)).collect();
    for i in 0..coll.len() {
        let row = coll.vector(i);
        let index = perm.map_or(i as u32, |p| p[i]);
        for (q, (query, kb)) in batch.queries().iter().zip(kbs.iter_mut()).enumerate() {
            let d = batch.metric(q).eval(query, row);
            if d <= cap_of(caps, q) {
                kb.push(index, d);
            }
        }
    }
    cfg.record_stats(ScanStats {
        rows_visited: coll.len() as u64,
        ..Default::default()
    });
    keyed(kbs, true)
}

/// One pass's k-bests as per-query partials; `finished` when the pass
/// pushed true distances (the Scalar reference) rather than keys.
fn keyed(kbs: Vec<KBest>, finished: bool) -> Vec<ShardPartial> {
    (kbs.into_iter())
        .map(|kb| ShardPartial::from_kbest(kb, finished))
        .collect()
}

/// Phase 2 for a whole batch: exact f64 rescore of every query's
/// surviving candidates under its own metric ([`rescore_f64_keyed`];
/// `perm` as there), results still in key space.
fn rescore(
    coll: &Collection,
    batch: &QueryBatch<'_>,
    ks: &[usize],
    cands: &[Vec<u32>],
    perm: Option<&[u32]>,
) -> Vec<ShardPartial> {
    (batch.queries().iter().zip(ks).zip(cands).enumerate())
        .map(|(q, ((query, &k), c))| {
            let kb = rescore_f64_keyed(coll, query, batch.metric(q), c, k, perm);
            ShardPartial::from_kbest(kb, false)
        })
        .collect()
}

/// Query `q`'s phase-1 bound for the next block: `T + Δ(T)` of its
/// running threshold and cap ([`KeyBand::admit_bound`]). `k = 0`
/// collects nothing (an empty result needs no candidates; [`KBest`]'s
/// idle threshold would otherwise admit every row), so its bound is
/// `−∞`.
fn phase1_bound(kb: &KBest, k: usize, cap: f64, band: &KeyBand) -> f64 {
    if k == 0 {
        f64::NEG_INFINITY
    } else {
        band.admit_bound(kb.threshold(), cap)
    }
}

/// Lanes of one [`admit`] mask.
const ADMIT_LANES: usize = 8;

/// A key the block loops admit: an f32 phase-1 key or an exact f64 key.
trait AdmitKey: Copy + PartialOrd {
    /// The least key `≥ bound`: what the lane mask compares against.
    fn lane_bound(bound: f64) -> Self;
    /// The key in the k-best's f64 space (exact for both types).
    fn widen(self) -> f64;
    /// [`lane_mask`] of a full run, in SIMD compares where the target
    /// has them.
    fn run_mask(run: &[Self; ADMIT_LANES], lane_bound: Self) -> u32;
}

/// Bit `l` set iff `lanes[l] ≤ lane_bound` (clear for a NaN key).
#[inline]
fn lane_mask<K: PartialOrd + Copy>(lanes: &[K], lane_bound: K) -> u32 {
    lanes
        .iter()
        .enumerate()
        .fold(0, |m, (l, &key)| m | u32::from(key <= lane_bound) << l)
}

impl AdmitKey for f32 {
    #[inline]
    fn lane_bound(bound: f64) -> f32 {
        f32_bound_up(bound)
    }
    #[inline]
    fn widen(self) -> f64 {
        f64::from(self)
    }
    #[inline]
    fn run_mask(run: &[f32; ADMIT_LANES], lane_bound: f32) -> u32 {
        #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
        // SAFETY: SSE2 is enabled for this build (the cfg above); the
        // two unaligned 4-lane loads read lanes 0..4 and 4..8 of `run`.
        // `cmple` is false for NaN, like `<=`.
        unsafe {
            use std::arch::x86_64::*;
            let b = _mm_set1_ps(lane_bound);
            let lo = _mm_cmple_ps(_mm_loadu_ps(run.as_ptr()), b);
            let hi = _mm_cmple_ps(_mm_loadu_ps(run.as_ptr().add(4)), b);
            (_mm_movemask_ps(lo) | _mm_movemask_ps(hi) << 4) as u32
        }
        #[cfg(not(all(target_arch = "x86_64", target_feature = "sse2")))]
        lane_mask(run, lane_bound)
    }
}

impl AdmitKey for f64 {
    #[inline]
    fn lane_bound(bound: f64) -> f64 {
        bound
    }
    #[inline]
    fn widen(self) -> f64 {
        self
    }
    #[inline]
    fn run_mask(run: &[f64; ADMIT_LANES], lane_bound: f64) -> u32 {
        #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
        // SAFETY: as for f32; the four 2-lane loads read lanes 0..8.
        unsafe {
            use std::arch::x86_64::*;
            let b = _mm_set1_pd(lane_bound);
            let pair =
                |l: usize| _mm_movemask_pd(_mm_cmple_pd(_mm_loadu_pd(run.as_ptr().add(l)), b));
            (pair(0) | pair(2) << 2 | pair(4) << 4 | pair(6) << 6) as u32
        }
        #[cfg(not(all(target_arch = "x86_64", target_feature = "sse2")))]
        lane_mask(run, lane_bound)
    }
}

/// The admit step of every block loop: offer one query's keys of the
/// rows `start..start + keys.len()` to its k-best (under `perm`, when
/// given) and, on the f32 phase-1, to its candidate `pool`. A row is
/// admitted iff `key ≤ bound`, compared exactly in f64; an abandoned
/// row's key (`INFINITY`, or a partial sum over the bound — capped
/// pruning abandons rows before the k-best is full) and a NaN key fail.
/// Returns whether some row failed: the block's `blocks_abandoned`
/// vote.
///
/// Each run of [`ADMIT_LANES`] keys first builds a branch-free bitmask
/// of `key ≤ lane_bound`, so a run that admits nothing — most of a pass,
/// once the thresholds settle — costs one mask test. For f32 keys the
/// lane bound is `f32_bound_up(bound)`, the least f32 `≥ bound`, so the
/// mask admits a superset of the exact test: a key `≤ bound` is
/// `≤ lane_bound`, and the only key the mask adds is one exactly equal
/// to `lane_bound` when `lane_bound > bound`. The exact test then runs
/// on the set lanes only, in row order, so the pool, the k-best and
/// the vote equal those of the row-by-row loop.
#[inline]
fn admit<K: AdmitKey>(
    keys: &[K],
    bound: f64,
    start: usize,
    perm: Option<&[u32]>,
    kb: &mut KBest,
    mut pool: Option<&mut Vec<(u32, K)>>,
) -> bool {
    let lane_bound = K::lane_bound(bound);
    let mut failed = false;
    let mut runs = keys.chunks_exact(ADMIT_LANES);
    let mut base = start;
    for run in &mut runs {
        let run: &[K; ADMIT_LANES] = run.try_into().expect("exact run");
        let mask = K::run_mask(run, lane_bound);
        failed |= admit_run(mask, run, base, bound, perm, kb, pool.as_deref_mut());
        base += ADMIT_LANES;
    }
    let rest = runs.remainder();
    let mask = lane_mask(rest, lane_bound);
    failed | admit_run(mask, rest, base, bound, perm, kb, pool)
}

/// The exact step of every admit: `lanes[l]` is the key of row
/// `base + l`, and `mask` has bit `l` set iff `lanes[l] ≤ lane_bound`
/// ([`AdmitKey::lane_bound`]). Each set lane, in row order, is
/// compared with `bound` exactly in f64 and, when it passes, pushed to
/// the k-best (under `perm`) and to the `pool`. Returns whether some
/// lane failed: a clear lane, or a set lane over `bound`.
#[inline]
fn admit_run<K: AdmitKey>(
    mut mask: u32,
    lanes: &[K],
    base: usize,
    bound: f64,
    perm: Option<&[u32]>,
    kb: &mut KBest,
    mut pool: Option<&mut Vec<(u32, K)>>,
) -> bool {
    let mut failed = mask != (1u32 << lanes.len()) - 1;
    while mask != 0 {
        let l = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        let key = lanes[l].widen();
        if key <= bound {
            let row = base + l;
            if let Some(pool) = pool.as_deref_mut() {
                pool.push((row as u32, lanes[l]));
            }
            kb.push(perm.map_or(row as u32, |p| p[row]), key);
        } else {
            failed = true;
        }
    }
    failed
}

/// [`admit`] for every query of a multi-kernel block: `keys` holds the
/// queries' keys query-major, `bounds`/`kbs`/`pools` one entry per
/// query. Returns whether some row of some query failed.
fn admit_block<K: AdmitKey>(
    keys: &[K],
    bounds: &[f64],
    start: usize,
    perm: Option<&[u32]>,
    kbs: &mut [KBest],
    mut pools: Option<&mut [Vec<(u32, K)>]>,
) -> bool {
    let n = keys.len() / bounds.len();
    let mut failed = false;
    for (q, (kb, (query_keys, &bound))) in kbs
        .iter_mut()
        .zip(keys.chunks_exact(n).zip(bounds))
        .enumerate()
    {
        let pool = pools.as_deref_mut().map(|p| &mut p[q]);
        failed |= admit(query_keys, bound, start, perm, kb, pool);
    }
    failed
}

/// Final candidate filter between the phases: re-apply the containment
/// test `key32 ≤ T + Δ(T)` ([`KeyBand::admit_bound`]) with each query's
/// **final** phase-1 threshold. During the pass, candidates are admitted against whatever
/// (looser) threshold was current — the first block alone admits every
/// row — so most of the pool is stale by the end. The final threshold is
/// the k-th smallest f32 key pushed, which never undershoots the true
/// k-th smallest f32 key, so the argument on
/// [`MultiQueryScan::scan_range_f32`] applies verbatim and the
/// filtered pool still contains the true f64 top-k — while the rescore
/// now gathers ~k scattered rows instead of hundreds.
fn filter_candidates(
    kbs: &[KBest],
    bands: &[KeyBand],
    cands: Vec<Vec<(u32, f32)>>,
    caps: Option<&[f64]>,
    stats: Option<&ScanStatsSink>,
) -> Vec<Vec<u32>> {
    let mut tally = ScanStats::default();
    let kept: Vec<Vec<u32>> = kbs
        .iter()
        .zip(bands)
        .zip(cands)
        .enumerate()
        .map(|(q, ((kb, band), cand))| {
            let bound = band.admit_bound(kb.threshold(), cap_of(caps, q));
            let pool = cand.len() as u64;
            let survivors: Vec<u32> = cand
                .into_iter()
                .filter(|&(_, key)| (key as f64) <= bound)
                .map(|(i, _)| i)
                .collect();
            tally.candidates_rescored += survivors.len() as u64;
            tally.candidates_filtered += pool - survivors.len() as u64;
            survivors
        })
        .collect();
    if let Some(sink) = stats {
        sink.record(&tally);
    }
    kept
}

/// Query `q`'s pruning cap ([`QueryBatch::with_caps`]): a
/// caller-guaranteed upper bound on the true global k-th key, or `+∞`
/// when no caps were provided. Taking `min(running threshold, cap)`
/// everywhere a bound is formed can only drop rows that cannot appear
/// in the merged global top-k, which is the entire soundness argument
/// for cross-slice bound propagation.
#[inline]
pub(crate) fn cap_of(caps: Option<&[f64]>, q: usize) -> f64 {
    caps.map_or(f64::INFINITY, |c| c[q])
}

/// Concatenate query slices into the row-major layout the multi-query
/// kernels consume.
fn flatten(queries: &[&[f64]]) -> Vec<f64> {
    let mut flat = Vec::with_capacity(queries.len() * queries.first().map_or(0, |q| q.len()));
    for q in queries {
        flat.extend_from_slice(q);
    }
    flat
}

/// Same, rounded once to the f32 layout the mirror kernels consume.
fn flatten_f32(queries: &[&[f64]]) -> Vec<f32> {
    let mut flat = Vec::with_capacity(queries.len() * queries.first().map_or(0, |q| q.len()));
    for q in queries {
        flat.extend(q.iter().map(|&v| v as f32));
    }
    flat
}

#[cfg(test)]
mod tests {
    use super::super::{KnnEngine, LinearScan};
    use super::*;
    use crate::collection::CollectionBuilder;
    use QueryMetrics::{Shared, Weighted};

    fn pseudo_random_collection(n: usize, dim: usize) -> Collection {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut b = CollectionBuilder::new();
        for _ in 0..n {
            let v: Vec<f64> = (0..dim).map(|_| next()).collect();
            b.push_unlabelled(&v).unwrap();
        }
        b.build()
    }

    fn sample_queries(nq: usize, dim: usize) -> Vec<Vec<f64>> {
        (0..nq)
            .map(|q| {
                (0..dim)
                    .map(|i| ((q * 13 + i * 7) as f64 * 0.37).sin().abs())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn multi_matches_independent_scans_all_modes() {
        let c = pseudo_random_collection(900, 24);
        let queries = sample_queries(4, 24);
        let refs: Vec<&[f64]> = queries.iter().map(Vec::as_slice).collect();
        let w = WeightedEuclidean::new((0..24).map(|i| 0.2 + (i % 5) as f64).collect()).unwrap();
        for mode in [ScanMode::Scalar, ScanMode::Batched, ScanMode::Parallel] {
            let multi =
                MultiQueryScan::with_mode(&c, mode).knn(&QueryBatch::new(&refs, Shared(&w), 7));
            let single = LinearScan::with_mode(&c, mode);
            for (q, res) in refs.iter().zip(multi.iter()) {
                assert_eq!(res, &single.knn(q, 7, &w), "mode {mode:?}");
            }
        }
    }

    #[test]
    fn per_query_metrics_match_independent_scans() {
        let c = pseudo_random_collection(700, 16);
        let queries = sample_queries(3, 16);
        let refs: Vec<&[f64]> = queries.iter().map(Vec::as_slice).collect();
        let metrics: Vec<WeightedEuclidean> = (0..3)
            .map(|q| {
                WeightedEuclidean::new((0..16).map(|i| 0.3 + ((q + i) % 4) as f64).collect())
                    .unwrap()
            })
            .collect();
        let mrefs: Vec<&WeightedEuclidean> = metrics.iter().collect();
        for mode in [ScanMode::Batched, ScanMode::Parallel] {
            let multi = MultiQueryScan::with_mode(&c, mode).knn(&QueryBatch::new(
                &refs,
                Weighted(&mrefs),
                5,
            ));
            for ((q, d), res) in refs.iter().zip(metrics.iter()).zip(multi.iter()) {
                let expect = LinearScan::with_mode(&c, ScanMode::Batched).knn(q, 5, d);
                assert_eq!(res, &expect, "mode {mode:?}");
            }
        }
    }

    #[test]
    fn empty_inputs() {
        let c = pseudo_random_collection(50, 4);
        let scan = MultiQueryScan::new(&c);
        let uniform = WeightedEuclidean::uniform(4);
        assert!(scan
            .knn(&QueryBatch::new(&[], Shared(&uniform), 3))
            .is_empty());
        let empty = CollectionBuilder::new().build();
        let scan = MultiQueryScan::new(&empty);
        let q: &[f64] = &[];
        let res = scan.knn(&QueryBatch::new(
            &[q, q],
            Shared(&WeightedEuclidean::uniform(0)),
            3,
        ));
        assert_eq!(res, vec![Vec::new(), Vec::new()]);
    }

    #[test]
    fn k_zero_and_k_oversized() {
        let c = pseudo_random_collection(30, 6);
        let queries = sample_queries(2, 6);
        let refs: Vec<&[f64]> = queries.iter().map(Vec::as_slice).collect();
        let scan = MultiQueryScan::with_mode(&c, ScanMode::Batched);
        let uniform = WeightedEuclidean::uniform(6);
        for res in scan.knn(&QueryBatch::new(&refs, Shared(&uniform), 0)) {
            assert!(res.is_empty());
        }
        for res in scan.knn(&QueryBatch::new(&refs, Shared(&uniform), 100)) {
            assert_eq!(res.len(), 30);
            for w in res.windows(2) {
                assert!(w[0].dist <= w[1].dist);
            }
        }
    }

    #[test]
    fn per_query_k_matches_independent_scans() {
        let c = pseudo_random_collection(900, 24);
        let queries = sample_queries(3, 24);
        let refs: Vec<&[f64]> = queries.iter().map(Vec::as_slice).collect();
        let ks = [1usize, 10, 50];
        let w = WeightedEuclidean::new((0..24).map(|i| 0.2 + (i % 5) as f64).collect()).unwrap();
        for mode in [ScanMode::Scalar, ScanMode::Batched, ScanMode::Parallel] {
            let multi = MultiQueryScan::with_mode(&c, mode)
                .knn(&QueryBatch::new(&refs, Shared(&w), 0).with_ks(&ks));
            let single = LinearScan::with_mode(&c, mode);
            for ((q, res), &k) in refs.iter().zip(multi.iter()).zip(ks.iter()) {
                assert_eq!(res.len(), k, "mode {mode:?}");
                assert_eq!(res, &single.knn(q, k, &w), "mode {mode:?} k={k}");
            }
        }
        // Per-query metrics with per-query k share the same pass.
        let metrics: Vec<WeightedEuclidean> = (0..3)
            .map(|q| {
                WeightedEuclidean::new((0..24).map(|i| 0.3 + ((q + i) % 4) as f64).collect())
                    .unwrap()
            })
            .collect();
        let mrefs: Vec<&WeightedEuclidean> = metrics.iter().collect();
        for mode in [ScanMode::Batched, ScanMode::Parallel] {
            let multi = MultiQueryScan::with_mode(&c, mode)
                .knn(&QueryBatch::new(&refs, Weighted(&mrefs), 0).with_ks(&ks));
            for (((q, d), res), &k) in refs
                .iter()
                .zip(metrics.iter())
                .zip(multi.iter())
                .zip(ks.iter())
            {
                let expect = LinearScan::with_mode(&c, ScanMode::Batched).knn(q, k, d);
                assert_eq!(res, &expect, "mode {mode:?} k={k}");
            }
        }
    }

    #[test]
    fn weighted_per_query_matches_generic_and_linear() {
        let c = pseudo_random_collection(900, 24);
        let queries = sample_queries(5, 24);
        let refs: Vec<&[f64]> = queries.iter().map(Vec::as_slice).collect();
        let metrics: Vec<WeightedEuclidean> = (0..5)
            .map(|q| {
                WeightedEuclidean::new((0..24).map(|i| 0.3 + ((q + i) % 4) as f64).collect())
                    .unwrap()
            })
            .collect();
        let mrefs: Vec<&WeightedEuclidean> = metrics.iter().collect();
        let ks = [1usize, 10, 50, 7, 3];
        for mode in [ScanMode::Scalar, ScanMode::Batched, ScanMode::Parallel] {
            let scan = MultiQueryScan::with_mode(&c, mode);
            let specialized = scan.knn(&QueryBatch::new(&refs, Weighted(&mrefs), 0).with_ks(&ks));
            // The generic form: each query alone, a one-metric batch.
            let generic: Vec<Vec<Neighbor>> = (refs.iter().zip(&mrefs).zip(&ks))
                .flat_map(|((q, m), &k)| scan.knn(&QueryBatch::new(&[q], Shared(m), k)))
                .collect();
            assert_eq!(specialized, generic, "mode {mode:?}");
            for ((q, m), (res, &k)) in refs
                .iter()
                .zip(metrics.iter())
                .zip(specialized.iter().zip(ks.iter()))
            {
                // Same-mode LinearScan: Scalar is the 1-ulp reference
                // baseline, the kernel modes are bit-identical to each
                // other.
                let expect = LinearScan::with_mode(&c, mode).knn(q, k, m);
                assert_eq!(res, &expect, "mode {mode:?} k={k}");
            }
        }
        // Empty inputs and empty collections behave like the generic
        // path.
        let scan = MultiQueryScan::new(&c);
        assert!(scan.knn(&QueryBatch::new(&[], Weighted(&[]), 0)).is_empty());
        let empty = CollectionBuilder::new().build();
        let scan = MultiQueryScan::new(&empty);
        let q: &[f64] = &[];
        let m = [WeightedEuclidean::uniform(0)];
        assert_eq!(
            scan.knn(&QueryBatch::new(&[q], Weighted(&[&m[0]]), 3)),
            vec![Vec::new()]
        );
    }

    /// The row-by-row admit loop [`admit`] replaced.
    fn admit_row_by_row<K: AdmitKey>(
        keys: &[K],
        bound: f64,
        start: usize,
        perm: Option<&[u32]>,
        kb: &mut KBest,
        mut pool: Option<&mut Vec<(u32, K)>>,
    ) -> bool {
        let mut abandoned = false;
        for (offset, &key) in keys.iter().enumerate() {
            if key.widen() <= bound {
                let row = start + offset;
                if let Some(pool) = pool.as_deref_mut() {
                    pool.push((row as u32, key));
                }
                kb.push(perm.map_or(row as u32, |p| p[row]), key.widen());
            } else {
                abandoned = true;
            }
        }
        abandoned
    }

    #[test]
    fn admit_matches_row_by_row_loop() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xad31);
        // 1/3 is no f32: its lane bound lies strictly above it, so a key
        // exactly at the lane bound passes the mask and fails the exact
        // test. 0.375 is an f32, so there the two bounds agree; `−∞` is
        // the bound of a `k = 0` query.
        let inexact = 1.0 / 3.0;
        let inexact32 = f32_bound_up(inexact);
        assert!(f64::from(inexact32) > inexact);
        let start = 40;
        for bound in [inexact, 0.375, f64::INFINITY, f64::NEG_INFINITY] {
            let lane32 = f32_bound_up(bound);
            for n in [1usize, 7, 8, 9, 23, 64, 256] {
                for k in [0usize, 1, 5, 50] {
                    let mut draw = || match rng.gen_range(0..8) {
                        0 => inexact32,
                        1 => f32::INFINITY,
                        2 => 0.375,
                        3 => lane32,
                        _ => rng.gen_range(0.0..1.0f32),
                    };
                    // Two consecutive blocks on one k-best, so the
                    // second offers against a full heap.
                    let blocks: Vec<Vec<f32>> =
                        (0..2).map(|_| (0..n).map(|_| draw()).collect()).collect();
                    let shape = format!("bound {bound} n {n} k {k}");

                    // f32 phase 1: candidate pool, scanned-row indices.
                    let (mut kb, mut want_kb) = (KBest::new(k), KBest::new(k));
                    let (mut pool, mut want_pool) = (Vec::new(), Vec::new());
                    for (b, keys) in blocks.iter().enumerate() {
                        let at = start + b * n;
                        let got = admit(keys, bound, at, None, &mut kb, Some(&mut pool));
                        let want = admit_row_by_row(
                            keys,
                            bound,
                            at,
                            None,
                            &mut want_kb,
                            Some(&mut want_pool),
                        );
                        assert_eq!(got, want, "f32 abandoned, {shape}");
                    }
                    let bits = |p: &[(u32, f32)]| {
                        p.iter().map(|&(i, k)| (i, k.to_bits())).collect::<Vec<_>>()
                    };
                    assert_eq!(bits(&pool), bits(&want_pool), "f32 pool, {shape}");
                    assert_eq!(
                        kb.into_sorted_entries(),
                        want_kb.into_sorted_entries(),
                        "f32 k-best, {shape}"
                    );

                    // f64 pass: no pool, pushes through a permutation.
                    let rows = start + 2 * n;
                    let perm: Vec<u32> = (0..rows as u32).rev().collect();
                    let (mut kb, mut want_kb) = (KBest::new(k), KBest::new(k));
                    for (b, keys) in blocks.iter().enumerate() {
                        let keys: Vec<f64> = keys
                            .iter()
                            .map(|&key| if key == lane32 { bound } else { key.into() })
                            .collect();
                        let at = start + b * n;
                        let got = admit(&keys, bound, at, Some(&perm), &mut kb, None);
                        let want =
                            admit_row_by_row(&keys, bound, at, Some(&perm), &mut want_kb, None);
                        assert_eq!(got, want, "f64 abandoned, {shape}");
                    }
                    assert_eq!(
                        kb.into_sorted_entries(),
                        want_kb.into_sorted_entries(),
                        "f64 k-best, {shape}"
                    );
                }
            }
        }
        group_admit_matches_row_by_row_loop(&mut rng);
    }

    /// The in-register group admit of the rows-in-lanes kernel
    /// (`scan_range_f32`'s path from
    /// `ROWS_IN_LANES_MIN_QUERIES` queries) against the row-by-row loop
    /// over the keys the writing kernel scores: same votes, pools and
    /// k-bests. Rows holding a NaN score NaN keys and rows of huge
    /// values `+∞` keys; each query takes its own bound and `k`.
    fn group_admit_matches_row_by_row_loop(rng: &mut rand::rngs::StdRng) {
        use rand::Rng;
        if !kernels::rows_in_lanes(kernels::ROWS_IN_LANES_MIN_QUERIES) {
            println!("no AVX-512F + FMA: the in-register group admit was not exercised");
            return;
        }
        for nq in [8usize, 17] {
            for dim in [5usize, 32] {
                // Partial groups: 1, 15 and 17 rows leave lanes masked.
                for rows in [1usize, 15, 16, 17, 40, 256] {
                    let queries: Vec<f32> =
                        (0..nq * dim).map(|_| rng.gen_range(0.0..1.0)).collect();
                    let weights: Vec<f32> =
                        (0..nq * dim).map(|_| rng.gen_range(0.1..2.0)).collect();
                    let blocks: Vec<Vec<f32>> = (0..2)
                        .map(|_| {
                            let mut block: Vec<f32> =
                                (0..rows * dim).map(|_| rng.gen_range(0.0..1.0)).collect();
                            for r in 0..rows {
                                match rng.gen_range(0..10) {
                                    0 => block[r * dim] = f32::NAN,
                                    1 => block[r * dim] = 1e30,
                                    _ => {}
                                }
                            }
                            block
                        })
                        .collect();
                    let mut keys = vec![0.0f32; nq * rows];
                    kernels::weighted_sq_multi_block_f32(
                        &weights,
                        dim,
                        &queries,
                        &blocks[0],
                        dim,
                        &vec![f32::INFINITY; nq],
                        &mut keys,
                    );
                    // A finite key of the first block: as an f64 it is a
                    // bound both tests agree on; just under it, the lane
                    // bound rounds up onto the key, which then passes the
                    // mask and fails the exact test.
                    let finite: Vec<f64> = keys
                        .iter()
                        .filter(|k| k.is_finite())
                        .map(|&k| f64::from(k))
                        .collect();
                    let pick = finite.get(finite.len() / 2).copied().unwrap_or(1.0);
                    let below = pick - pick * 1e-12;
                    assert_eq!(f64::from(f32_bound_up(below)), pick);
                    let nothing = -1.0;
                    let bounds: [f64; 5] = [nothing, f64::INFINITY, f64::NEG_INFINITY, pick, below];
                    let ks = [5usize, 50, 0, 1, 5];
                    let bound = |q: usize| bounds[q % 5];
                    let k_of = |q: usize| ks[q % 5];
                    let lane_bounds: Vec<f32> = (0..nq).map(|q| f32_bound_up(bound(q))).collect();
                    let shape = format!("nq {nq} dim {dim} rows {rows}");

                    let mut kbs: Vec<KBest> = (0..nq).map(|q| KBest::new(k_of(q))).collect();
                    let mut want_kbs: Vec<KBest> = (0..nq).map(|q| KBest::new(k_of(q))).collect();
                    let mut pools = vec![Vec::new(); nq];
                    let mut want_pools = vec![Vec::new(); nq];
                    for (b, block) in blocks.iter().enumerate() {
                        let start = 7 + b * rows;
                        let mut failed = false;
                        let unset = kernels::weighted_sq_multi_admit_f32(
                            &weights,
                            dim,
                            &queries,
                            block,
                            dim,
                            &lane_bounds,
                            |q, r, mask, lanes| {
                                let (kb, pool) = (&mut kbs[q], Some(&mut pools[q]));
                                failed |=
                                    admit_run(mask, lanes, start + r, bound(q), None, kb, pool);
                            },
                        );
                        kernels::weighted_sq_multi_block_f32(
                            &weights,
                            dim,
                            &queries,
                            block,
                            dim,
                            &vec![f32::INFINITY; nq],
                            &mut keys,
                        );
                        let mut want = false;
                        for (q, query_keys) in keys.chunks_exact(rows).enumerate() {
                            want |= admit_row_by_row(
                                query_keys,
                                bound(q),
                                start,
                                None,
                                &mut want_kbs[q],
                                Some(&mut want_pools[q]),
                            );
                        }
                        assert_eq!(unset || failed, want, "vote, block {b}, {shape}");
                    }
                    let bits = |p: &[(u32, f32)]| {
                        p.iter().map(|&(i, k)| (i, k.to_bits())).collect::<Vec<_>>()
                    };
                    for (q, (kb, want_kb)) in kbs.into_iter().zip(want_kbs).enumerate() {
                        assert_eq!(bits(&pools[q]), bits(&want_pools[q]), "pool q{q}, {shape}");
                        assert_eq!(
                            kb.into_sorted_entries(),
                            want_kb.into_sorted_entries(),
                            "k-best q{q}, {shape}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn auto_mode_scales_with_query_count() {
        // A collection too small to go parallel for one query crosses the
        // cutoff once enough queries share the pass.
        let c = pseudo_random_collection(4096, 16); // 64 Ki components/query
        let scan = MultiQueryScan::new(&c);
        assert_eq!(scan.cfg.effective_mode(4096, 16, 1), ScanMode::Batched);
        assert_eq!(scan.cfg.effective_mode(4096, 16, 15), ScanMode::Batched);
        assert_eq!(scan.cfg.effective_mode(4096, 16, 16), ScanMode::Parallel);
    }

    #[test]
    fn auto_mode_decides_per_range() {
        use crate::collection::{PartitionConfig, PartitionedCollection};
        use crate::knn::ScanStatsSink;
        // 16 queries over 4096 × 16 rows is 1 Mi of work in total, but
        // each of the eight partitions holds an eighth of it: Auto runs
        // every range on the calling thread, so the pass does exactly
        // the Batched pass's work — where Parallel, which fans every
        // range out, does not.
        let (n, dim, nq) = (4096, 16, 16);
        let c = pseudo_random_collection(n, dim);
        let part = PartitionedCollection::build(&c, &PartitionConfig::with_partitions(8));
        let layout = Layout::from(&part);
        let auto = ScanConfig::default();
        assert_eq!(auto.effective_mode(n, dim, nq), ScanMode::Parallel);
        for p in 0..part.partition_count() {
            let rows = layout.rows(p).len();
            assert!(rows > BLOCK_ROWS, "partition {p} has {rows} rows");
            assert_eq!(auto.effective_mode(rows, dim, nq), ScanMode::Batched);
        }
        let queries = sample_queries(nq, dim);
        let refs: Vec<&[f64]> = queries.iter().map(Vec::as_slice).collect();
        let uniform = WeightedEuclidean::uniform(dim);
        let batch = QueryBatch::new(&refs, Shared(&uniform), 10);
        let run = |mode| {
            let sink = ScanStatsSink::new();
            let answers = MultiQueryScan::with_mode(&part, mode)
                .with_thread_budget(2)
                .with_scan_stats(&sink)
                .knn(&batch);
            (answers, sink.snapshot())
        };
        let batched = run(ScanMode::Batched);
        assert_eq!(run(ScanMode::Auto), batched);
        let parallel = run(ScanMode::Parallel);
        assert_eq!(parallel.0, batched.0);
        assert_ne!(parallel.1, batched.1, "fan-out shows in the work counts");
    }

    #[test]
    fn thread_budget_is_respected_and_exact() {
        let c = pseudo_random_collection(2000, 12);
        let queries = sample_queries(5, 12);
        let refs: Vec<&[f64]> = queries.iter().map(Vec::as_slice).collect();
        let unbudgeted = MultiQueryScan::with_mode(&c, ScanMode::Parallel);
        let budgeted = MultiQueryScan::with_mode(&c, ScanMode::Parallel).with_thread_budget(2);
        let one = MultiQueryScan::with_mode(&c, ScanMode::Parallel).with_thread_budget(1);
        let uniform = WeightedEuclidean::uniform(12);
        let a = unbudgeted.knn(&QueryBatch::new(&refs, Shared(&uniform), 9));
        let b = budgeted.knn(&QueryBatch::new(&refs, Shared(&uniform), 9));
        let c2 = one.knn(&QueryBatch::new(&refs, Shared(&uniform), 9));
        assert_eq!(a, b);
        assert_eq!(a, c2);
    }
}
