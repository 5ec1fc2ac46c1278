//! Scatter/gather scanning over a [`ShardedCollection`]: every query
//! runs against every shard, and the per-shard k-bests merge — still in
//! key space — into the exact answer the unsharded scan would return.
//!
//! A single [`MultiQueryScan`] pass is bounded by one core's streaming
//! bandwidth once its parallel path saturates, and a serving stack built
//! on one dispatcher inherits that bound. Sharding breaks it: each shard
//! is its own contiguous collection (own f64 buffer, own f32 mirror),
//! so `S` passes stream `S` disjoint buffers from `S` cores with no
//! shared write state at all. The scatter stage fans a coalesced query
//! batch out across shards — either through [`ShardedScan`]'s own
//! scoped-thread workers (the one-shot entry points) or through external
//! per-shard schedulers (the `fbp-server` shard dispatchers), which call
//! [`ShardedScan::scan_shard`] directly and gather [`ShardPartial`]s
//! themselves.
//!
//! # Why the merged answer is bit-identical to the unsharded scan
//!
//! * A row's surrogate key depends only on `(query, row)` — never on
//!   where block or shard boundaries fall, which rows precede it, or
//!   which threads scanned it (early-abandon bounds only ever *drop*
//!   rows that cannot enter a k-best; the f32 phase-1 collects a
//!   guaranteed superset and the f64 rescore recomputes exact keys).
//! * Each shard therefore reports its exact local k-best **in key
//!   space** ([`ShardPartial`]), with indices already offset to the
//!   global row numbering.
//! * The gather folds those partials through one [`KBest`] per query by
//!   ascending `(key, index)` — the same deterministic order the
//!   parallel scan's per-thread merge uses — and only the final winners
//!   pay [`Distance::finish_key`]. Selection thus happens in the same
//!   space, over the same key bits, with the same tie-break as one flat
//!   pass.
//!
//! The consistency suite (`crates/vecdb/tests/sharded.rs`) pins this
//! across all four distance classes, both precisions, and shard counts
//! up to one row per shard.

use super::multi::KeyedResults;
use super::stats::ScanStatsSink;
use super::{finish_entries, KBest, KnnEngine, LinearScan, MultiQueryScan, Neighbor};
use super::{Layout, Precision, QueryBatch, ScanConfig, ScanMode};
use crate::collection::{PartitionedCollection, ShardedCollection};
use crate::distance::Distance;
use crate::VecdbError;
use std::sync::atomic::{AtomicU64, Ordering};

/// One scatter worker's shard assignment: `(shard index, result slot)`
/// pairs it fills in round-robin order.
type WorkerSlots<'s> = Vec<(usize, &'s mut Option<Vec<ShardPartial>>)>;

/// One atomic early-abandon seed per query, shared by the one-shot
/// scatter workers (f64 bits in an `AtomicU64`, monotonically tightened
/// via compare-exchange — the same cell discipline as the server's
/// per-gather seed).
struct SeedSet {
    seeds: Vec<AtomicU64>,
}

impl SeedSet {
    fn new(n: usize) -> Self {
        SeedSet {
            seeds: (0..n)
                .map(|_| AtomicU64::new(f64::INFINITY.to_bits()))
                .collect(),
        }
    }

    /// Current per-query caps (`+∞` until a shard delivers `k` rows).
    fn snapshot(&self) -> Vec<f64> {
        self.seeds
            .iter()
            .map(|s| f64::from_bits(s.load(Ordering::Relaxed)))
            .collect()
    }

    /// Tighten query `q`'s seed to `bound` if it improves it.
    fn offer(&self, q: usize, bound: f64) {
        let cell = &self.seeds[q];
        let mut cur = cell.load(Ordering::Relaxed);
        while bound < f64::from_bits(cur) {
            match cell.compare_exchange_weak(
                cur,
                bound.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }
}

/// One query's k-best over one shard, still in selection space: `(key,
/// global index)` entries ascending by `(key, index)`, plus whether the
/// keys are already finished distances (a Scalar-mode pass). Opaque by
/// design — produce it with a [`ShardedScan`] scatter call, consume it
/// with [`merge_partials`]; everything in between (a network hop, a
/// per-shard batching queue) may reorder or regroup partials freely
/// without affecting the merged answer.
#[derive(Debug, Clone)]
pub struct ShardPartial {
    entries: Vec<(f64, u32)>,
    finished: bool,
}

impl ShardPartial {
    /// Reconstruct a partial from its raw parts — the inverse of
    /// [`Self::entries`]/[`Self::is_finished`], for transporting
    /// partials across process boundaries (the router tier decodes
    /// them off the wire). Entries must ascend by `(key, index)` and
    /// hold finite keys; both are validated because wire input is
    /// untrusted — a forged partial that violated the ordering would
    /// silently corrupt [`merge_partials`]' early-break merge.
    pub fn from_entries(entries: Vec<(f64, u32)>, finished: bool) -> crate::Result<Self> {
        for pair in entries.windows(2) {
            if (pair[1].0, pair[1].1) <= (pair[0].0, pair[0].1) {
                return Err(VecdbError::BadParameters(
                    "partial entries must strictly ascend by (key, index)".into(),
                ));
            }
        }
        if entries.iter().any(|&(key, _)| key.is_nan()) {
            return Err(VecdbError::BadParameters(
                "partial entries must hold non-NaN keys".into(),
            ));
        }
        Ok(ShardPartial { entries, finished })
    }

    /// The `(key, global index)` entries, ascending by `(key, index)`.
    pub fn entries(&self) -> &[(f64, u32)] {
        &self.entries
    }

    /// Whether the keys are already finished distances (a Scalar-mode
    /// pass) rather than surrogate selection keys.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// This shard's `k`-th best value, when the partial holds at least
    /// `k` entries — a **sound pruning seed** for other shards: the
    /// k-th best within any subset of rows can only be ≥ the global
    /// k-th best, so another shard's pass may take `min(running
    /// threshold, bound_key)` as its early-abandon bound without ever
    /// dropping a row of the merged global top-k. `None` when the
    /// shard produced fewer than `k` entries (small or empty shard) —
    /// then it bounds nothing.
    ///
    /// The value lives in the partial's selection space (surrogate
    /// keys, or distances for Scalar passes); only feed it back into
    /// scans configured identically, as the sharded serving layer does.
    pub fn bound_key(&self, k: usize) -> Option<f64> {
        (k > 0 && self.entries.len() >= k).then(|| self.entries[k - 1].0)
    }
}

/// Merge one query's per-shard partials into its final neighbor list:
/// fold every entry through one k-best by ascending `(key, index)`
/// ([`combine_partials`]) — shards cover disjoint rows, so this
/// reproduces exactly the selection one flat pass over the concatenated
/// rows would make — then finish the winners with `dist`
/// ([`Distance::finish_key`], or the identity for Scalar-mode
/// partials). The partials may arrive in any shard order; the result
/// does not depend on it.
///
/// # Panics
///
/// Panics when partials mix Scalar and kernel-mode passes (their values
/// live in different spaces; produce all partials from [`ShardedScan`]s
/// configured identically).
pub fn merge_partials<'p>(
    partials: impl IntoIterator<Item = &'p ShardPartial>,
    k: usize,
    dist: &dyn Distance,
) -> Vec<Neighbor> {
    let merged = combine_partials(partials, k);
    finish_entries(merged.entries, merged.finished, dist)
}

/// Fold several partials covering disjoint row sets into one partial
/// covering their union, **without** finishing the keys: the same
/// k-best fold as [`merge_partials`], but the result stays in selection
/// space so it can keep riding a hierarchical gather (a shard server
/// that is itself sharded internally folds its sub-shard partials into
/// the one partial it reports upstream).
///
/// # Panics
///
/// Panics when partials mix Scalar and kernel-mode passes, exactly like
/// [`merge_partials`].
pub fn combine_partials<'p>(
    partials: impl IntoIterator<Item = &'p ShardPartial>,
    k: usize,
) -> ShardPartial {
    let mut kb = KBest::new(k);
    let mut finished: Option<bool> = None;
    for part in partials {
        // Empty partials (empty shards, k = 0) carry no values, so they
        // are compatible with either space.
        if part.entries.is_empty() {
            continue;
        }
        match finished {
            None => finished = Some(part.finished),
            Some(f) => assert_eq!(
                f, part.finished,
                "cannot merge Scalar and kernel-mode partials"
            ),
        }
        for &(key, index) in &part.entries {
            if key > kb.threshold() {
                break; // entries ascend: the rest of this shard can't enter
            }
            kb.push(index, key);
        }
    }
    ShardPartial {
        entries: kb.into_sorted_entries(),
        finished: finished.unwrap_or(true),
    }
}

/// What a gather does when some shards failed to deliver a partial —
/// the serving tier's documented partial-failure contract (see
/// `ARCHITECTURE.md`, "router tier").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailurePolicy {
    /// Any missing shard fails the whole gather with a typed
    /// [`GatherError`] — never a silently narrowed answer.
    Strict,
    /// Merge whatever survived, as long as at least `min_shards`
    /// partials arrived; the answer is then exactly the flat scan over
    /// the surviving shards' rows, labelled degraded with the missing
    /// shard list. Below the floor the gather fails like `Strict`.
    Degraded {
        /// Minimum surviving shards for a degraded answer.
        min_shards: usize,
    },
}

/// A gather refused by the [`FailurePolicy`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatherError {
    /// Shard slots that delivered no partial.
    pub missing_shards: Vec<u32>,
    /// Shard slots that did deliver.
    pub survivors: usize,
    /// Surviving-shard floor the policy demanded.
    pub required: usize,
}

impl std::fmt::Display for GatherError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "gather refused: shards {:?} unavailable ({} survivors, {} required)",
            self.missing_shards, self.survivors, self.required
        )
    }
}

impl std::error::Error for GatherError {}

/// A policy-approved gather over the shards that answered.
#[derive(Debug, Clone)]
pub struct DegradedGather {
    /// Merged neighbors — the exact flat-scan answer over the surviving
    /// shards' rows.
    pub neighbors: Vec<Neighbor>,
    /// Shard slots missing from the merge (empty ⇒ the answer is the
    /// full, undegraded gather).
    pub missing_shards: Vec<u32>,
}

impl DegradedGather {
    /// Whether any shard was missing from the merge.
    pub fn is_degraded(&self) -> bool {
        !self.missing_shards.is_empty()
    }
}

/// [`merge_partials`] under a [`FailurePolicy`]: `partials[i]` is shard
/// `i`'s delivery (`None` ⇒ that shard timed out, errored, or was
/// dropped). The policy decides between a merged (possibly degraded)
/// answer and a typed refusal — the two documented outcomes of a
/// partial failure; there is no third, silent one.
///
/// When every partial is present this is exactly [`merge_partials`]
/// (and `missing_shards` is empty); when a subset survives, the merged
/// neighbors equal the flat scan over the surviving shards' rows,
/// because shards cover disjoint rows and the k-best fold never looks
/// at rows it was not given.
pub fn merge_partials_policy(
    partials: &[Option<ShardPartial>],
    k: usize,
    dist: &dyn Distance,
    policy: FailurePolicy,
) -> std::result::Result<DegradedGather, GatherError> {
    let missing_shards: Vec<u32> = partials
        .iter()
        .enumerate()
        .filter(|(_, p)| p.is_none())
        .map(|(i, _)| i as u32)
        .collect();
    let survivors = partials.len() - missing_shards.len();
    let required = match policy {
        FailurePolicy::Strict => partials.len(),
        FailurePolicy::Degraded { min_shards } => min_shards.min(partials.len()),
    };
    if survivors < required {
        return Err(GatherError {
            missing_shards,
            survivors,
            required,
        });
    }
    Ok(DegradedGather {
        neighbors: merge_partials(partials.iter().flatten(), k, dist),
        missing_shards,
    })
}

/// Scatter/gather k-NN engine borrowing a [`ShardedCollection`].
///
/// Configuration mirrors [`MultiQueryScan`] (mode, precision, thread
/// budget) and is applied **identically to every shard**: under `Auto`
/// each row range of a shard pass — the shard's rows, or each of its
/// surviving partitions — fans out iff that range's own work clears
/// the cutoff, exactly as in an unsharded pass; the kernels, and the
/// selected bits, are the same either way. The thread budget is the
/// *total* across shards — the scatter stage runs `min(shards, budget)`
/// shard workers and hands each per-shard pass an even share, so
/// sharding never oversubscribes the host.
#[derive(Debug, Clone, Copy)]
pub struct ShardedScan<'a> {
    coll: &'a ShardedCollection,
    parts: Option<&'a [PartitionedCollection]>,
    cfg: ScanConfig<'a>,
}

impl<'a> ShardedScan<'a> {
    /// New engine over `coll` with [`ScanMode::Auto`].
    pub fn new(coll: &'a ShardedCollection) -> Self {
        Self::with_mode(coll, ScanMode::Auto)
    }

    /// New engine with an explicit execution mode.
    pub fn with_mode(coll: &'a ShardedCollection, mode: ScanMode) -> Self {
        ShardedScan {
            coll,
            parts: None,
            cfg: ScanConfig::with_mode(mode),
        }
    }

    /// Attach per-shard partition layouts
    /// ([`ShardedCollection::build_partitions`]): every shard pass then
    /// runs the [`MultiQueryScan`] over the shard's partitioned layout
    /// instead of its flat rows, pruning partitions against the same
    /// caps the cross-shard seeding delivers — so a partial delivered by one
    /// shard tightens the partition bounds of every later shard pass.
    /// Answers stay bit-identical to the unpartitioned scatter/gather
    /// (partition pruning is answer-transparent; the bit-identity suite
    /// pins the composition). `parts[i]` must be built from shard `i`.
    ///
    /// # Panics
    ///
    /// Panics when `parts.len()` differs from the shard count or a
    /// layout's row count disagrees with its shard.
    pub fn with_partitions(mut self, parts: &'a [PartitionedCollection]) -> Self {
        assert_eq!(
            parts.len(),
            self.coll.shard_count(),
            "one partition layout per shard"
        );
        for (i, p) in parts.iter().enumerate() {
            assert_eq!(
                p.len(),
                self.coll.shard(i).len(),
                "partition layout row count must match its shard"
            );
        }
        self.parts = Some(parts);
        self
    }

    /// Select the scan precision ([`Precision::F32Rescore`] degrades to
    /// the f64 path per shard when a shard has no mirror — results are
    /// identical either way, only bandwidth differs).
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.cfg.precision = precision;
        self
    }

    /// Cap the **total** worker threads across all shards (at least 1).
    pub fn with_thread_budget(mut self, threads: usize) -> Self {
        self.cfg.thread_budget = Some(threads.max(1));
        self
    }

    /// Flush every shard pass's work counters into `sink` (see
    /// [`ScanStats`](super::ScanStats)): the sink is lock-free, so all
    /// shard workers share it without serializing, and attaching it
    /// never changes an answer.
    pub fn with_scan_stats(mut self, sink: &'a ScanStatsSink) -> Self {
        self.cfg.stats = Some(sink);
        self
    }

    /// The underlying sharded collection.
    pub fn collection(&self) -> &'a ShardedCollection {
        self.coll
    }

    /// The configured precision.
    pub fn precision(&self) -> Precision {
        self.cfg.precision
    }

    /// Even per-shard share of the total budget (at least 1): `S` shard
    /// passes at `budget / S` threads each keep the host at ~`budget`
    /// total, exactly like the eval sweeps' per-configuration shares.
    fn per_shard_budget(&self) -> usize {
        (self.cfg.threads(usize::MAX) / self.coll.shard_count()).max(1)
    }

    /// Offset a shard's keyed results to global row indices.
    fn globalize(&self, shard: usize, keyed: KeyedResults) -> Vec<ShardPartial> {
        let offset = self.coll.offset(shard) as u32;
        keyed
            .entries
            .into_iter()
            .map(|entries| ShardPartial {
                entries: entries
                    .into_iter()
                    .map(|(key, index)| (key, index + offset))
                    .collect(),
                finished: keyed.finished,
            })
            .collect()
    }

    /// Scatter stage for external per-shard schedulers (the server's
    /// shard dispatchers): run shard `shard`'s pass for every query of
    /// `batch` and return one keyed partial per query (global indices),
    /// to be gathered with [`merge_partials`]. Results are independent
    /// of how requests were grouped into shard passes.
    ///
    /// Every shard pass runs the configured mode with an even share of
    /// the thread budget; under `Auto` each of its row ranges fans out
    /// iff that range's own `rows × dim × nq` clears the cutoff, so a
    /// thin shard pass never pays a spawn. The answer — and the kernels
    /// producing it — match the unsharded scan however thinly the rows
    /// are sharded.
    ///
    /// `caps` (per query, optional) are cross-shard pruning seeds —
    /// typically other shards' [`ShardPartial::bound_key`] values. Each
    /// must be a sound upper bound on that query's global k-th value;
    /// passing `None` (or `+∞` entries) is always correct, a sound cap
    /// only makes the pass cheaper, never different.
    pub fn scan_shard(
        &self,
        shard: usize,
        batch: &QueryBatch<'_>,
        caps: Option<&[f64]>,
    ) -> Vec<ShardPartial> {
        let cfg = ScanConfig {
            thread_budget: Some(self.per_shard_budget()),
            ..self.cfg
        };
        let layout: Layout<'_> = self.parts.map_or(self.coll.shard(shard).into(), |parts| {
            (&parts[shard]).into()
        });
        let keyed = MultiQueryScan::with_config(layout, cfg).knn_keyed(batch, caps);
        self.globalize(shard, keyed)
    }

    /// Run `scan_shard` for every shard — `min(shards, budget)` scoped
    /// worker threads, round-robin shard assignment — and return the
    /// partials indexed `[shard][query]`.
    fn scatter(
        &self,
        scan_shard: &(dyn Fn(usize) -> Vec<ShardPartial> + Sync),
    ) -> Vec<Vec<ShardPartial>> {
        let s = self.coll.shard_count();
        let workers = self.cfg.threads(s);
        if workers <= 1 || s == 1 {
            return (0..s).map(scan_shard).collect();
        }
        let mut parts: Vec<Option<Vec<ShardPartial>>> = vec![None; s];
        std::thread::scope(|scope| {
            let mut worker_slots: Vec<WorkerSlots<'_>> = (0..workers).map(|_| Vec::new()).collect();
            for (i, slot) in parts.iter_mut().enumerate() {
                worker_slots[i % workers].push((i, slot));
            }
            for slots in worker_slots {
                scope.spawn(move || {
                    for (i, slot) in slots {
                        *slot = Some(scan_shard(i));
                    }
                });
            }
        });
        parts
            .into_iter()
            .map(|p| p.expect("worker filled its shards"))
            .collect()
    }

    /// The nearest neighbors of every query of `batch`: scatter across
    /// shards, merge in key space — results bit-identical to
    /// [`MultiQueryScan::knn`] over the unsharded collection, and
    /// therefore to per-query [`LinearScan`]s.
    ///
    /// The scatter runs with **cross-shard bound seeding**, like the
    /// server dispatcher path: workers share one atomic seed cell per
    /// query, snapshot the seeds into early-abandon caps before each
    /// shard pass, and offer every delivered partial's
    /// [`ShardPartial::bound_key`] back. A seed is the k-th best of a
    /// row subset, hence a sound upper bound on the global k-th — caps
    /// only make passes cheaper, never different.
    pub fn knn(&self, batch: &QueryBatch<'_>) -> Vec<Vec<Neighbor>> {
        if batch.is_empty() || self.coll.is_empty() {
            return vec![Vec::new(); batch.len()];
        }
        let ks = batch.ks_for(self.coll.len(), self.coll.dim());
        let seeds = SeedSet::new(ks.len());
        let parts = self.scatter(&|shard| {
            let parts = self.scan_shard(shard, batch, Some(&seeds.snapshot()));
            for (q, part) in parts.iter().enumerate() {
                if let Some(bound) = part.bound_key(ks[q]) {
                    seeds.offer(q, bound);
                }
            }
            parts
        });
        (ks.iter().enumerate())
            .map(|(q, &k)| merge_partials(parts.iter().map(|p| &p[q]), k, batch.metric(q)))
            .collect()
    }

    /// All neighbors within `radius` (inclusive), scattered across
    /// shards: each shard answers its own range query exactly (shards
    /// cover disjoint rows, so membership is a per-row question), the
    /// results concatenate with global indices and sort by the canonical
    /// ascending `(dist, index)` — identical to
    /// [`LinearScan::range`](super::KnnEngine::range) over the unsharded
    /// collection in the same mode.
    pub fn range(&self, query: &[f64], radius: f64, dist: &dyn Distance) -> Vec<Neighbor> {
        let parts = self.scatter(&|shard| {
            let offset = self.coll.offset(shard) as u32;
            let scan = LinearScan::with_mode(self.coll.shard(shard), self.cfg.mode)
                .with_precision(self.cfg.precision)
                .with_thread_budget(self.per_shard_budget());
            vec![ShardPartial {
                entries: scan
                    .range(query, radius, dist)
                    .into_iter()
                    .map(|n| (n.dist, n.index + offset))
                    .collect(),
                finished: true,
            }]
        });
        let mut out: Vec<Neighbor> = parts
            .into_iter()
            .flat_map(|mut shard| shard.swap_remove(0).entries)
            .map(|(dist, index)| Neighbor { index, dist })
            .collect();
        out.sort_unstable_by(Neighbor::total_cmp);
        out
    }
}
