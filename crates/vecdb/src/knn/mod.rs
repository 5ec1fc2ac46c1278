//! k-nearest-neighbor scans.
//!
//! The paper asks one thing of its retrieval substrate (§2): the `k`
//! nearest neighbours of a point under one member of a parameterised
//! distance class. [`QueryBatch`] describes that operation — query
//! points, a metric form ([`QueryMetrics`]), per-query result counts,
//! optional sound pruning caps — and one engine answers it:
//! [`MultiQueryScan::knn`], one blocked pass over a [`Layout`]. A flat
//! collection is the one-partition layout, a partitioned one skips
//! partitions a per-query lower bound proves irrelevant, and one
//! partition walk serves both. [`MultiQueryScan::knn_keyed`] is the
//! same pass stopped in key space: one [`ShardPartial`] per query,
//! which a router deployment — rows cut into slices, one per shard
//! server — offsets to global rows and merges with [`merge_partials`]
//! (or [`merge_partials_policy`] when a slice may be missing).
//!
//! [`LinearScan`] ([`KnnEngine`]) is the single-query flat f64 reference
//! every one of them is pinned bit-identical to, and the engine the
//! feedback loop drives. The feedback loop re-weights the metric
//! *between* iterations, which is why the substrate scans instead of
//! indexing: there is no structure a new metric could invalidate, and
//! the partitioned layout recovers sub-linear passes with bounds that
//! are derived per query metric at query time.

mod batch;
mod gather;
mod multi;
mod partitioned;
mod scan;
mod stats;

pub use batch::{QueryBatch, QueryMetrics};
pub use gather::{
    merge_partials, merge_partials_policy, DegradedGather, FailurePolicy, GatherError, ShardPartial,
};
pub use multi::MultiQueryScan;
pub use partitioned::Layout;
pub use scan::{LinearScan, ScanMode};
pub use stats::{ScanStats, ScanStatsSink};

use crate::collection::Collection;
use crate::distance::{Distance, F32KeyBound, WeightedEuclidean};

/// Numeric precision of the scan engines' candidate filtering.
///
/// The stored keys and returned distances are **always** f64 — this knob
/// only selects what the bulk of the scan streams:
///
/// * [`Precision::F64`] — every candidate's key comes straight from the
///   f64 buffer (the classic single-phase scan).
/// * [`Precision::F32Rescore`] — two phases. Phase 1 streams the
///   collection's f32 mirror (half the bytes; the scans are
///   memory-bandwidth-bound at low query counts) through the f32 kernels,
///   early-abandoning against the running k-best threshold `t` turned
///   into a ceiling `T = t + Δ'(t)` on the true k-th f64 key and
///   inflated to `T + Δ(T)` by the metric's monotone, key-relative
///   rounding bound `Δ(key)` ([`Distance::f32_key_bound`], reversed by
///   [`F32KeyBound::reverse`]) — enough to guarantee the surviving
///   candidates contain the true f64 top-k, with a band whose width
///   follows the k-th key rather than the largest key the data could
///   produce. Phase 2 rescores the
///   survivors from the f64 buffer with the exact kernels, so the
///   returned indices *and* distances are identical to an [`Precision::F64`]
///   scan. Requires the collection's mirror
///   ([`Collection::ensure_f32_mirror`]) and a finite rounding bound for
///   the data's magnitude; otherwise — and in `ScanMode::Scalar`, the
///   reference baseline — the scan silently runs the f64 path, so
///   requesting `F32Rescore` is always safe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Single-phase pure-f64 scan.
    #[default]
    F64,
    /// f32-mirror phase-1 filter + exact f64 rescore (identical results).
    F32Rescore,
}

/// Round a key-space bound up into f32 so phase-1 early abandonment can
/// never drop a row sitting exactly on the f64 bound. (`±∞` pass
/// through; `NEG_INFINITY` is the "collect nothing" bound used for
/// `k = 0` requests.)
pub(crate) fn f32_bound_up(bound: f64) -> f32 {
    if bound.is_infinite() {
        return if bound > 0.0 {
            f32::INFINITY
        } else {
            f32::NEG_INFINITY
        };
    }
    let b = bound as f32; // round-to-nearest
    if (b as f64) < bound {
        b.next_up()
    } else {
        b
    }
}

/// The containment band of one query's f32 phase 1: its metric's
/// key-relative rounding bound `Δ` ([`F32KeyBound`]) and the reverse
/// bound `Δ'` ([`F32KeyBound::reverse`]), formed once per pass. Every
/// consumer of the bound — the phase-1 block bounds, the final candidate
/// filter, the partition skip rule and the fan-out snapshot caps — reads
/// it through the two uses here, so the containment argument lives in
/// one place:
///
/// * [`Self::ceiling`] — `T = min(t + Δ'(t), cap)`. With `τ32` the k-th
///   smallest f32 key and `τ64` the k-th smallest f64 key of the layout,
///   the running threshold `t` (the k-th smallest f32 key pushed so far)
///   never undershoots `τ32`. The `k` rows realizing `τ32` each have
///   `key64 ≤ key32 + Δ'(key32) ≤ τ32 + Δ'(τ32)`, so
///   `τ64 ≤ τ32 + Δ'(τ32) ≤ t + Δ'(t)` by monotonicity; a cap is a
///   caller-guaranteed bound on `τ64` in f64-key space. Hence `τ64 ≤ T`.
/// * [`Self::admit_bound`] — `T ↦ T + Δ(T)`: a row with `key64 ≤ T` has
///   `key32 ≤ key64 + Δ(key64) ≤ T + Δ(T)`, again by monotonicity.
///
/// A true neighbour has `key64 ≤ τ64 ≤ T`, so `key32 ≤ T + Δ(T)`: phase 1
/// and the final filter, both run at [`Self::admit_bound`]
/// `= T + Δ(T)`, keep it (its monotone f32 prefix sums never exceed its
/// final key, so the kernel cannot abandon it either), and a partition
/// whose f64 lower bound is `> T` holds none. The f64 path runs at
/// [`Self::EXACT`], where `T = min(t, cap)` and `T + Δ(T) = T`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct KeyBand {
    forward: F32KeyBound,
    reverse: F32KeyBound,
}

impl KeyBand {
    /// The band of exact keys (`Δ ≡ Δ' ≡ 0`): the f64 path.
    pub(crate) const EXACT: KeyBand = KeyBand {
        forward: F32KeyBound::ZERO,
        reverse: F32KeyBound::ZERO,
    };

    /// The band of a metric's finite rounding bound.
    pub(crate) fn new(bound: F32KeyBound) -> Self {
        KeyBand {
            forward: bound,
            reverse: bound.reverse(),
        }
    }

    /// `T = min(t + Δ'(t), cap)`: a sound upper bound on the true k-th
    /// f64 key, from the running f32 threshold `t` and the cap.
    #[inline]
    pub(crate) fn ceiling(&self, threshold: f64, cap: f64) -> f64 {
        (threshold + self.reverse.at(threshold)).min(cap)
    }

    /// `T + Δ(T)`: the f32-key bound every true neighbour stays under.
    #[inline]
    pub(crate) fn admit_bound(&self, threshold: f64, cap: f64) -> f64 {
        let ceiling = self.ceiling(threshold, cap);
        ceiling + self.forward.at(ceiling)
    }
}

/// Phase 2 of the f32-rescore scan: exact f64 keys for the surviving
/// candidate indices, k smallest by `(key, index)`. Candidates are
/// gathered block-wise into a contiguous scratch buffer and evaluated by
/// the same [`Distance::eval_key_batch`] kernel the pure-f64 scan uses,
/// so as long as the candidate set contains the true top-k (the phase-1
/// guarantee) the result is identical to a full f64 scan — same indices,
/// same key bits, same distances.
/// The result stays one step short of finishing: the exact f64 k-best
/// still in **key space**, so callers ([`MultiQueryScan::knn_keyed`]
/// and the single-query scan) can merge several partial k-bests by
/// `(key, index)` before paying the `finish_key` root.
/// `perm` (when given) maps each candidate index before the push while
/// the gather still reads `coll` by the *candidate* index — the
/// partitioned scan's contract: candidates speak the reordered inner
/// collection's rows (contiguous gathers), results speak the source
/// collection's rows (original-index tie-breaks).
pub(crate) fn rescore_f64_keyed(
    coll: &Collection,
    query: &[f64],
    dist: &WeightedEuclidean,
    cands: &[u32],
    k: usize,
    perm: Option<&[u32]>,
) -> KBest {
    let dim = coll.dim();
    let mut kb = KBest::new(k);
    if dim == 0 {
        return kb;
    }
    // Right-sized gather buffer: candidate pools are usually ~k rows, so
    // allocating (and page-touching) a full block's worth per call would
    // cost more than the gather itself. Filled by appending (pure
    // memcpy) rather than zero-init + overwrite — a pass runs one
    // rescore per query, so per-call buffer zeroing would multiply
    // with the query count for no benefit.
    let chunk_rows = cands.len().clamp(1, BLOCK_ROWS);
    let mut rows: Vec<f64> = Vec::with_capacity(chunk_rows * dim);
    let mut keys = [0.0f64; BLOCK_ROWS];
    for chunk in cands.chunks(chunk_rows) {
        let n = chunk.len();
        rows.clear();
        for &i in chunk {
            rows.extend_from_slice(coll.vector(i as usize));
        }
        dist.eval_key_batch(query, &rows[..n * dim], dim, kb.threshold(), &mut keys[..n]);
        for (&i, &key) in chunk.iter().zip(keys.iter()) {
            kb.push(perm.map_or(i, |p| p[i as usize]), key);
        }
    }
    kb
}

/// Turn one query's keyed k-best entries into the public result form:
/// map each stored value through `finish_key` (unless the pass already
/// stored true distances — the Scalar reference), then order by the
/// canonical ascending `(dist, index)`. The re-sort matters only when
/// two distinct keys round to the same finished distance; selection
/// already happened in key space.
pub(crate) fn finish_entries(
    entries: Vec<(f64, u32)>,
    finished: bool,
    dist: &WeightedEuclidean,
) -> Vec<Neighbor> {
    let mut v: Vec<Neighbor> = entries
        .into_iter()
        .map(|(value, index)| Neighbor {
            index,
            dist: if finished {
                value
            } else {
                dist.finish_key(value)
            },
        })
        .collect();
    v.sort_unstable_by(Neighbor::total_cmp);
    v
}

/// Rows evaluated per batched kernel invocation (shared by
/// [`LinearScan`] and [`MultiQueryScan`]). Large enough to amortize the
/// call and the bound refresh, small enough that a block's keys stay in
/// L1 and the k-best thresholds refresh frequently for early
/// abandonment.
pub(crate) const BLOCK_ROWS: usize = 256;

/// Work (`rows × dim × queries`) at which [`ScanMode::Auto`] fans one
/// row range out over threads; below it, the spawn/join costs more than
/// the split saves. Set from `kernel_timing.rs`'s ignored
/// `fan_out_break_even` table: on a 2-vCPU x86-64 host one scoped
/// spawn + join cost ~36 µs and a two-way split of the Batched serving
/// pass broke even at 0.19–0.73 Mi across D ∈ {32, 64}, Q ∈ {1, 2, 16}
/// (three runs; the largest at D = 64, Q = 16). The cutoff is that
/// largest break-even rounded up to a power of two, which also covers
/// what the table's model leaves out — the later chunk's cold k-best,
/// two threads sharing one memory bus, the merge.
pub(crate) const PARALLEL_CUTOFF: usize = 1 << 20;

/// Worker-thread count for a parallel scan: the caller's explicit budget
/// when one was set (the nested-parallelism case — e.g. `fbp-eval`
/// sweeps that already run one scan per configuration thread), otherwise
/// the machine's available parallelism; always capped by the number of
/// block-sized work items and at least 1.
pub(crate) fn scan_threads(budget: Option<usize>, work_items: usize) -> usize {
    budget
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .min(work_items)
        .max(1)
}

/// Execution settings every scan front-end carries, in one `Copy`
/// value: the mode, the candidate-filtering precision, the worker-thread
/// budget of the parallel path and the optional work-counter sink.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ScanConfig<'a> {
    pub mode: ScanMode,
    pub precision: Precision,
    pub thread_budget: Option<usize>,
    pub stats: Option<&'a ScanStatsSink>,
}

impl ScanConfig<'_> {
    /// The default settings under an explicit execution mode.
    pub(crate) fn with_mode(mode: ScanMode) -> Self {
        ScanConfig {
            mode,
            ..Default::default()
        }
    }

    /// The mode one contiguous row range runs in for `nq` concurrent
    /// queries: `Auto` resolves **per range** — a flat layout's rows,
    /// or one surviving partition — to Parallel iff the range's own
    /// `rows × dim × nq` work clears [`PARALLEL_CUTOFF`], so more
    /// queries tip the same range into the parallel regime sooner while
    /// the small ranges of a pruned pass stay on the calling thread. Either way the range
    /// runs the same kernels and selects the same bits
    /// (Batched ≡ Parallel).
    pub(crate) fn effective_mode(&self, rows: usize, dim: usize, nq: usize) -> ScanMode {
        match self.mode {
            ScanMode::Auto if rows * dim.max(1) * nq.max(1) >= PARALLEL_CUTOFF => {
                ScanMode::Parallel
            }
            ScanMode::Auto => ScanMode::Batched,
            m => m,
        }
    }

    /// Worker-thread count for a parallel scan over `work_items`
    /// block-sized items ([`scan_threads`] under this budget).
    pub(crate) fn threads(&self, work_items: usize) -> usize {
        scan_threads(self.thread_budget, work_items)
    }

    /// Flush one pass's tallies, when a sink is attached: passes
    /// accumulate plain local tallies and record them with a few
    /// relaxed `fetch_add`s at pass end, so a sink never perturbs the
    /// per-row hot loops — and never changes an answer.
    pub(crate) fn record_stats(&self, tally: ScanStats) {
        if let Some(sink) = self.stats {
            sink.record(&tally);
        }
    }

    /// Count one seeded pass: the caller handed finite caps
    /// ([`QueryBatch::with_caps`]), so this pass pruned against a bound
    /// tighter than `+∞` from row one.
    pub(crate) fn record_seeded_pass(&self, caps: Option<&[f64]>) {
        if self.stats.is_some() && caps.is_some_and(|c| c.iter().any(|v| v.is_finite())) {
            self.record_stats(ScanStats {
                seed_prunes: 1,
                ..Default::default()
            });
        }
    }
}

/// One query answer: collection index + distance under the query metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Index into the collection.
    pub index: u32,
    /// Distance to the query under the query's distance function.
    pub dist: f64,
}

impl Neighbor {
    /// The canonical result order: ascending `(dist, index)`. Distances
    /// are finite by construction, so this is a total order.
    #[inline]
    pub fn total_cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.dist
            .partial_cmp(&other.dist)
            .expect("non-finite distance")
            .then(self.index.cmp(&other.index))
    }
}

/// Statistics of one engine call (for the efficiency experiments).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SearchStats {
    /// Distance evaluations under the query metric.
    pub distance_evals: u64,
}

/// A k-NN engine over a fixed collection.
pub trait KnnEngine {
    /// The `k` nearest neighbors of `query` under `dist`, sorted by
    /// ascending `(dist, index)`. Returns fewer than `k` when the
    /// collection is smaller.
    fn knn(&self, query: &[f64], k: usize, dist: &WeightedEuclidean) -> Vec<Neighbor>;

    /// Like [`Self::knn`] but also reports work counters.
    fn knn_with_stats(
        &self,
        query: &[f64],
        k: usize,
        dist: &WeightedEuclidean,
    ) -> (Vec<Neighbor>, SearchStats);

    /// Engine name for reports.
    fn name(&self) -> &str;
}

/// Bounded max-heap keeping the `k` smallest values seen.
///
/// Engines feed it surrogate *keys* ([`Distance::eval_key`]) rather than
/// true distances: keys are a strictly increasing function of the
/// distance, so the k-best by key is the k-best by distance, and only
/// the final winners pay the `finish_key` root (see
/// [`Self::into_sorted_with`]).
pub(crate) struct KBest {
    k: usize,
    heap: std::collections::BinaryHeap<HeapEntry>,
}

#[derive(PartialEq)]
pub(crate) struct HeapEntry {
    dist: f64,
    index: u32,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap by distance, ties broken by index so results are
        // deterministic; distances are finite by construction.
        self.dist
            .partial_cmp(&other.dist)
            .expect("non-finite distance")
            .then(self.index.cmp(&other.index))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl KBest {
    pub(crate) fn new(k: usize) -> Self {
        KBest {
            k,
            heap: std::collections::BinaryHeap::with_capacity(k),
        }
    }

    /// Current pruning threshold — the k-th best value pushed so far (in
    /// whatever space the caller pushes: keys or distances), or ∞ while
    /// the heap is not full.
    #[inline]
    pub(crate) fn threshold(&self) -> f64 {
        if self.heap.len() < self.k {
            f64::INFINITY
        } else {
            self.heap.peek().map_or(f64::INFINITY, |e| e.dist)
        }
    }

    /// Offer a candidate. A full heap replaces its top in place: one
    /// sift-down when the top's `PeekMut` guard drops, none when the
    /// candidate loses.
    #[inline]
    pub(crate) fn push(&mut self, index: u32, dist: f64) {
        if self.k == 0 {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(HeapEntry { dist, index });
        } else if let Some(mut top) = self.heap.peek_mut() {
            if dist < top.dist || (dist == top.dist && index < top.index) {
                *top = HeapEntry { dist, index };
            }
        }
    }

    /// Extract results sorted ascending by `(dist, index)`.
    pub(crate) fn into_sorted(self) -> Vec<Neighbor> {
        self.into_sorted_with(|key| key)
    }

    /// Extract results sorted ascending, mapping each stored value
    /// through `finish` (e.g. [`Distance::finish_key`] to turn surrogate
    /// keys back into true distances — the only place the `sqrt` is
    /// paid). `finish` must be increasing so the sort order carries over.
    pub(crate) fn into_sorted_with(self, finish: impl Fn(f64) -> f64) -> Vec<Neighbor> {
        let mut v: Vec<Neighbor> = self
            .heap
            .into_iter()
            .map(|e| Neighbor {
                index: e.index,
                dist: finish(e.dist),
            })
            .collect();
        v.sort_unstable_by(Neighbor::total_cmp);
        v
    }

    /// Consume into `(value, index)` entries sorted ascending by
    /// `(value, index)` — the merge-ready keyed form a gather folds
    /// across slices before finishing.
    pub(crate) fn into_sorted_entries(self) -> Vec<(f64, u32)> {
        let mut v: Vec<(f64, u32)> = self.heap.into_iter().map(|e| (e.dist, e.index)).collect();
        v.sort_unstable_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("non-finite key")
                .then(a.1.cmp(&b.1))
        });
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    // The k-best holds exactly the first `k` offers by `(key, index)`,
    // whatever the offer order: few distinct keys force duplicate-key
    // tie-breaks, and the reversed and alternating orders offer smaller
    // indices after larger ones.
    proptest! {
        #[test]
        fn kbest_keeps_smallest(
            keys in prop::collection::vec(0u32..12, 0..160),
            k_pick in 0usize..4,
            order in 0usize..3,
        ) {
            let k = [0, 1, 5, 50][k_pick];
            let n = keys.len();
            let index = |i: usize| match order {
                0 => i,
                1 => n - 1 - i,
                _ if i.is_multiple_of(2) => n + i,
                _ => n - i,
            } as u32;
            let offers: Vec<(f64, u32)> = keys
                .iter()
                .enumerate()
                .map(|(i, &key)| (key as f64 * 0.25, index(i)))
                .collect();
            let mut kb = KBest::new(k);
            for &(key, idx) in &offers {
                kb.push(idx, key);
            }
            let mut want = offers.clone();
            want.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            want.truncate(k);
            let threshold = if k > 0 && want.len() == k {
                want[k - 1].0
            } else {
                f64::INFINITY
            };
            prop_assert_eq!(kb.threshold(), threshold);
            prop_assert_eq!(kb.into_sorted_entries(), want);
        }
    }

    #[test]
    fn kbest_tie_break_is_deterministic() {
        let mut kb = KBest::new(2);
        kb.push(5, 1.0);
        kb.push(3, 1.0);
        kb.push(1, 1.0);
        let out = kb.into_sorted();
        assert_eq!(out.iter().map(|n| n.index).collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn kbest_zero_k() {
        let mut kb = KBest::new(0);
        kb.push(0, 1.0);
        assert!(kb.into_sorted().is_empty());
    }
}
