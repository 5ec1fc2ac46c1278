//! Proof-based partition pruning: sub-linear scans that stay
//! bit-identical to the flat pass.
//!
//! A [`PartitionedScan`] runs the same selection the flat
//! [`MultiQueryScan`] runs — same kernels, same key spaces, same
//! `(key, index)` tie-breaks, same `F32Rescore` two-phase machinery,
//! same `caps` seeding — but walks the collection partition by
//! partition (the [`PartitionedCollection`] layout is
//! partition-contiguous, so each surviving partition is one contiguous
//! block scan) and **skips** any partition whose per-class key-space
//! lower bound ([`Distance::partition_lower_key`]) exceeds every
//! query's running selection bound.
//!
//! # Invariant: pruning is answer-transparent
//!
//! A partition is skipped only when, for **every** query, a sound
//! certificate proves no member row can enter that query's k-best:
//!
//! * f64 paths — skip for query `q` iff `lb > min(threshold_q, cap_q)`
//!   (strictly greater, so key ties at the bound survive). Every member
//!   key is ≥ `lb`, the running threshold never undershoots the final
//!   k-th key, and `cap_q` is caller-guaranteed sound — so a skipped
//!   member could never displace a result.
//! * f32 phase-1 — the running threshold `t` lives in f32-key space,
//!   while `lb` is exact. `t` never undershoots `τ32` (the true k-th
//!   f32 key), and every row obeys `|key32 − key64| ≤ Δ`
//!   (`Δ` = `f32_key_slack`), so `τ64 ≤ τ32 + Δ ≤ t + Δ`: skip iff
//!   `lb > min(t + Δ, cap_q)`. Skipped members have
//!   `key64 ≥ lb > τ64`, hence are not in the true top-k, and the
//!   surviving candidate pool keeps the same superset guarantee the
//!   flat f32 pass proves.
//! * Queries whose class reports no sound bound (`None`) never prune
//!   anything — they force the flat pass over every partition, per
//!   class and explicitly. `k = 0` queries need nothing and always
//!   "agree" to skip.
//!
//! Because the partitioned pass pushes **original** row indices during
//! selection (via the layout's permutation) and a k-best's content is
//! insertion-order-independent, visit order — and therefore the
//! ascending-lower-bound order used to tighten thresholds early — can
//! never change an answer. The bit-identity suite
//! (`crates/vecdb/tests/partitioned.rs`) pins all of this against the
//! flat scans.

use super::multi::{
    cap_of, filter_candidates, rescore, scalar_reference, CandidateChunk, KeyedResults, MergeChunk,
};
use super::stats::{ScanStats, ScanStatsSink};
use super::{
    KBest, MultiQueryScan, Neighbor, Precision, QueryBatch, QueryMetrics, ScanConfig, ScanMode,
    BLOCK_ROWS,
};
use crate::collection::PartitionedCollection;
use crate::distance::Distance;
use std::ops::Range;

/// Partition-pruning k-NN engine borrowing a [`PartitionedCollection`].
///
/// Configuration mirrors [`MultiQueryScan`]; results are bit-identical
/// to the flat scan over the source collection in every configuration
/// (see the module docs for the invariant). `ScanMode::Scalar` is the
/// reference baseline and never prunes.
#[derive(Debug, Clone, Copy)]
pub struct PartitionedScan<'a> {
    part: &'a PartitionedCollection,
    cfg: ScanConfig<'a>,
}

impl<'a> PartitionedScan<'a> {
    /// New engine over `part` with [`ScanMode::Auto`].
    pub fn new(part: &'a PartitionedCollection) -> Self {
        Self::with_config(part, ScanConfig::default())
    }

    /// New engine with an explicit execution mode.
    pub fn with_mode(part: &'a PartitionedCollection, mode: ScanMode) -> Self {
        Self::with_config(part, ScanConfig::with_mode(mode))
    }

    pub(crate) fn with_config(part: &'a PartitionedCollection, cfg: ScanConfig<'a>) -> Self {
        PartitionedScan { part, cfg }
    }

    /// Select the scan precision (same degrade rules as
    /// [`MultiQueryScan::with_precision`]).
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.cfg.precision = precision;
        self
    }

    /// Cap the parallel path at `threads` worker threads (at least 1).
    pub fn with_thread_budget(mut self, threads: usize) -> Self {
        self.cfg.thread_budget = Some(threads.max(1));
        self
    }

    /// Flush this scan's work counters into `sink` — including
    /// [`ScanStats::partitions_pruned`], the sub-linearity witness.
    pub fn with_scan_stats(mut self, sink: &'a ScanStatsSink) -> Self {
        self.cfg.stats = Some(sink);
        self
    }

    /// Per-(partition, query) key-space lower bounds, row-major by
    /// partition (`lbs[p · nq + q]`). `None` ⇔ query `q`'s class
    /// certifies no bound and can never prune partition `p`.
    fn partition_lower_bounds(&self, batch: &QueryBatch<'_>) -> Vec<Option<f64>> {
        let p_count = self.part.partition_count();
        let nq = batch.len();
        let mut lbs = Vec::with_capacity(p_count * nq);
        for p in 0..p_count {
            let centroid = self.part.centroid(p);
            let radius = self.part.radius(p);
            for (q, query) in batch.queries().iter().enumerate() {
                lbs.push(if self.part.rows(p).is_empty() {
                    None // empty partitions are skipped, not "pruned"
                } else {
                    batch.metric(q).partition_lower_key(query, centroid, radius)
                });
            }
        }
        lbs
    }

    /// Partition visit order: ascending by the min-over-queries lower
    /// bound (unboundable queries sort a partition first). Visiting
    /// likely-near partitions first tightens every threshold as early
    /// as possible, maximizing later prunes; by the module invariant
    /// the order itself can never change an answer.
    fn visit_order(&self, lbs: &[Option<f64>], nq: usize) -> Vec<usize> {
        let p_count = self.part.partition_count();
        let sort_key = |p: usize| {
            lbs[p * nq..(p + 1) * nq]
                .iter()
                .map(|lb| lb.unwrap_or(f64::NEG_INFINITY))
                .fold(f64::INFINITY, f64::min)
        };
        let mut order: Vec<usize> = (0..p_count).collect();
        order.sort_unstable_by(|&a, &b| {
            sort_key(a)
                .partial_cmp(&sort_key(b))
                .expect("lower bounds are never NaN")
                .then(a.cmp(&b))
        });
        order
    }

    /// Whether every query proves partition slice `lbs_p` skippable on
    /// the f64 path: `lb > min(threshold, cap)`, strictly (ties at the
    /// bound must survive); `k = 0` needs nothing; `None` never prunes.
    fn all_prune_f64(
        lbs_p: &[Option<f64>],
        ks: &[usize],
        kbs: &[KBest],
        caps: Option<&[f64]>,
    ) -> bool {
        lbs_p.iter().enumerate().all(|(q, lb)| {
            ks[q] == 0 || lb.is_some_and(|l| l > kbs[q].threshold().min(cap_of(caps, q)))
        })
    }

    /// f32-phase-1 variant: the running threshold is in f32-key space,
    /// so the sound comparison is `lb > min(t + Δ, cap)` (module docs).
    fn all_prune_f32(
        lbs_p: &[Option<f64>],
        ks: &[usize],
        kbs: &[KBest],
        slacks: &[f64],
        caps: Option<&[f64]>,
    ) -> bool {
        lbs_p.iter().enumerate().all(|(q, lb)| {
            ks[q] == 0
                || lb.is_some_and(|l| l > (kbs[q].threshold() + slacks[q]).min(cap_of(caps, q)))
        })
    }

    /// The nearest neighbors of every query of `batch` — flat-scan
    /// semantics ([`MultiQueryScan::knn`]), partition-pruned execution.
    pub fn knn(&self, batch: &QueryBatch<'_>) -> Vec<Vec<Neighbor>> {
        batch.finish(self.knn_keyed(batch, None))
    }

    /// Selection-space pass with pruning seeds (`caps` as on
    /// [`MultiQueryScan::knn_keyed`]) — the sharded scatter stage's
    /// entry, so delivered partials seed partition bounds too.
    pub(crate) fn knn_keyed(&self, batch: &QueryBatch<'_>, caps: Option<&[f64]>) -> KeyedResults {
        let (len, dim, nq) = (self.part.len(), self.part.dim(), batch.len());
        if nq == 0 || len == 0 {
            return KeyedResults::empty(nq);
        }
        let ks = batch.ks_for(len, dim);
        self.cfg.record_seeded_pass(caps);
        // Same Auto resolution as the flat scan (total work across the
        // whole collection — pruning-dependent savings are unknowable
        // up front).
        let mode = self.cfg.effective_mode(len, dim, nq);
        let (coll, perm) = (self.part.collection(), self.part.perm());
        if mode == ScanMode::Scalar {
            // The reference pass is flat and pruning-free.
            return scalar_reference(coll, Some(perm), &self.cfg, batch, &ks, caps);
        }
        // The partitioned pass has no per-query-weight multi-kernel
        // form: a weighted batch runs the generic per-query kernels
        // (the per-(query, row) key arithmetic is identical in every
        // kernel shape, so results stay bit-identical to the flat pass).
        let dyn_metrics: Vec<&dyn Distance>;
        let batch = match batch.metrics() {
            QueryMetrics::Weighted(metrics) => {
                dyn_metrics = metrics.iter().map(|m| *m as &dyn Distance).collect();
                batch.with_metrics(QueryMetrics::PerQuery(&dyn_metrics))
            }
            _ => *batch,
        };
        let lbs = self.partition_lower_bounds(&batch);
        let order = self.visit_order(&lbs, nq);
        // The inner (reordered) flat scan with this engine's precision,
        // budget and stats sink: the partitioned pass drives its
        // range-scan primitives directly, so every per-row code path is
        // *the* flat code path.
        let inner = MultiQueryScan::with_config(coll, self.cfg);
        if let Some(slacks) = inner.f32_slacks(&batch) {
            let cands = inner.with_f32_scanner(&batch, &slacks, &ks, |scan| {
                self.pruned_candidates(&lbs, &order, &ks, &slacks, caps, mode, scan)
            });
            // Gather by inner-row index, push under the original index
            // (the permutation): identical to the flat rescore's key bits.
            return rescore(coll, &batch, &ks, &cands, Some(perm));
        }
        let kbs = inner.with_scanner(&batch, Some(perm), |scan| {
            self.pruned_merge(&lbs, &order, &ks, caps, mode, scan)
        });
        KeyedResults::from_kbests(kbs, false)
    }

    /// f64 driver: walk partitions in `order`, skip proven-empty ones,
    /// scan survivors through `scan_chunk` (which pushes original
    /// indices), fanning large partitions out over threads in Parallel
    /// mode. Returns the running k-bests (original indices, key space).
    fn pruned_merge(
        &self,
        lbs: &[Option<f64>],
        order: &[usize],
        ks: &[usize],
        caps: Option<&[f64]>,
        mode: ScanMode,
        scan_chunk: &MergeChunk<'_>,
    ) -> Vec<KBest> {
        let nq = ks.len();
        let mut kbs: Vec<KBest> = ks.iter().map(|&k| KBest::new(k)).collect();
        let mut tally = ScanStats::default();
        for &p in order {
            let rows = self.part.rows(p);
            if rows.is_empty() {
                continue;
            }
            if Self::all_prune_f64(&lbs[p * nq..(p + 1) * nq], ks, &kbs, caps) {
                tally.partitions_pruned += 1;
                continue;
            }
            if mode == ScanMode::Parallel {
                self.parallel_partition_merge(ks, caps, &mut kbs, rows, scan_chunk);
            } else {
                scan_chunk(rows, &mut kbs, caps);
            }
        }
        self.cfg.record_stats(tally);
        kbs
    }

    /// Fan one surviving partition's rows out over worker threads.
    /// Workers get fresh k-bests seeded by a snapshot cap
    /// `min(running threshold, cap)` — a sound upper bound on each
    /// query's final key at this point of the pass — and their sorted
    /// entries merge back into the running k-bests by ascending
    /// `(key, index)`: deterministic, and identical to what the
    /// sequential partition walk selects.
    fn parallel_partition_merge(
        &self,
        ks: &[usize],
        caps: Option<&[f64]>,
        kbs: &mut [KBest],
        rows: Range<usize>,
        scan_chunk: &MergeChunk<'_>,
    ) {
        let len = rows.len();
        let threads = self.cfg.threads(len.div_ceil(BLOCK_ROWS));
        if threads == 1 {
            scan_chunk(rows, kbs, caps);
            return;
        }
        let snapshot: Vec<f64> = kbs
            .iter()
            .enumerate()
            .map(|(q, kb)| kb.threshold().min(cap_of(caps, q)))
            .collect();
        let chunk = len.div_ceil(threads);
        let mut per_thread: Vec<Vec<Vec<(f64, u32)>>> = Vec::with_capacity(threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let lo = rows.start + t * chunk;
                    let hi = (lo + chunk).min(rows.end);
                    let snapshot = &snapshot;
                    scope.spawn(move || {
                        let mut wkbs: Vec<KBest> = ks.iter().map(|&k| KBest::new(k)).collect();
                        scan_chunk(lo..hi, &mut wkbs, Some(snapshot));
                        wkbs.into_iter()
                            .map(KBest::into_sorted_entries)
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                per_thread.push(h.join().expect("partitioned-scan worker panicked"));
            }
        });
        for thread_entries in per_thread {
            for (kb, entries) in kbs.iter_mut().zip(thread_entries) {
                for (key, index) in entries {
                    if key > kb.threshold() {
                        break; // sorted: the rest of this thread can't enter
                    }
                    kb.push(index, key);
                }
            }
        }
    }

    /// f32 phase-1 driver: walk partitions in `order` under the
    /// f32-space skip rule, collect candidate pools (inner-row indices
    /// — contiguous rescore gathers), then apply the final
    /// [`filter_candidates`] pass. The pool keeps the flat pass's
    /// superset guarantee, so the rescore pins exact answers.
    #[allow(clippy::too_many_arguments)]
    fn pruned_candidates(
        &self,
        lbs: &[Option<f64>],
        order: &[usize],
        ks: &[usize],
        slacks: &[f64],
        caps: Option<&[f64]>,
        mode: ScanMode,
        scan_chunk: &CandidateChunk<'_>,
    ) -> Vec<Vec<u32>> {
        let nq = ks.len();
        let mut kbs: Vec<KBest> = ks.iter().map(|&k| KBest::new(k)).collect();
        let mut cands: Vec<Vec<(u32, f32)>> = vec![Vec::new(); nq];
        let mut tally = ScanStats::default();
        for &p in order {
            let rows = self.part.rows(p);
            if rows.is_empty() {
                continue;
            }
            if Self::all_prune_f32(&lbs[p * nq..(p + 1) * nq], ks, &kbs, slacks, caps) {
                tally.partitions_pruned += 1;
                continue;
            }
            if mode == ScanMode::Parallel {
                self.parallel_partition_candidates(
                    ks, slacks, caps, &mut kbs, &mut cands, rows, scan_chunk,
                );
            } else {
                scan_chunk(rows, &mut kbs, &mut cands, caps);
            }
        }
        self.cfg.record_stats(tally);
        filter_candidates(&kbs, slacks, cands, caps, self.cfg.stats)
    }

    /// Parallel fan-out for one surviving partition of the f32 phase-1.
    /// Workers see the snapshot cap `min(t + Δ, cap)` (sound on the
    /// true k-th f64 key — module docs), collect chunk-local candidate
    /// pools, and merge back in spawn order: pools concatenate (the
    /// rescore is order-independent) and worker k-best entries fold
    /// into the running f32 k-bests to keep later bounds tight.
    #[allow(clippy::too_many_arguments)]
    fn parallel_partition_candidates(
        &self,
        ks: &[usize],
        slacks: &[f64],
        caps: Option<&[f64]>,
        kbs: &mut [KBest],
        cands: &mut [Vec<(u32, f32)>],
        rows: Range<usize>,
        scan_chunk: &CandidateChunk<'_>,
    ) {
        let len = rows.len();
        let nq = ks.len();
        let threads = self.cfg.threads(len.div_ceil(BLOCK_ROWS));
        if threads == 1 {
            scan_chunk(rows, kbs, cands, caps);
            return;
        }
        let snapshot: Vec<f64> = kbs
            .iter()
            .enumerate()
            .map(|(q, kb)| (kb.threshold() + slacks[q]).min(cap_of(caps, q)))
            .collect();
        let chunk = len.div_ceil(threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let lo = rows.start + t * chunk;
                    let hi = (lo + chunk).min(rows.end);
                    let snapshot = &snapshot;
                    scope.spawn(move || {
                        let mut wkbs: Vec<KBest> = ks.iter().map(|&k| KBest::new(k)).collect();
                        let mut wcands: Vec<Vec<(u32, f32)>> = vec![Vec::new(); nq];
                        scan_chunk(lo..hi, &mut wkbs, &mut wcands, Some(snapshot));
                        let entries: Vec<Vec<(f64, u32)>> =
                            wkbs.into_iter().map(KBest::into_sorted_entries).collect();
                        (entries, wcands)
                    })
                })
                .collect();
            for h in handles {
                let (entries, wcands) = h.join().expect("partitioned-scan worker panicked");
                for ((kb, cand), (thread_entries, thread_cands)) in kbs
                    .iter_mut()
                    .zip(cands.iter_mut())
                    .zip(entries.into_iter().zip(wcands))
                {
                    cand.extend(thread_cands);
                    for (key, index) in thread_entries {
                        if key > kb.threshold() {
                            break;
                        }
                        kb.push(index, key);
                    }
                }
            }
        });
    }
}
