//! Flat storage of labelled feature vectors.
//!
//! Vectors live in one contiguous row-major buffer (`len × dim`), so a
//! k-NN scan touches memory sequentially; labels are category ids used by
//! the evaluation harness as its relevance oracle (paper §5: "any image in
//! the same category was considered a good match").
//!
//! # Precision model: optional f32 mirror
//!
//! The authoritative store is always f64 — every key pushed into a
//! k-best and every distance returned to a caller comes from the f64
//! buffer. A collection may additionally carry an **f32 mirror**
//! ([`Collection::ensure_f32_mirror`], or
//! [`CollectionBuilder::with_f32_mirror`]): the same vectors, same
//! row-major block layout, rounded once to f32. Scans configured with
//! `Precision::F32Rescore` stream the mirror (half the bytes of the f64
//! buffer — the scans are bandwidth-bound at low query counts) as a
//! phase-1 filter, then rescore the surviving candidates from the f64
//! buffer, so results stay identical to a pure f64 scan. The mirror also
//! records the largest component magnitude ([`Collection::max_abs`]),
//! which the scan feeds into each distance class's rounding bound
//! (`Distance::f32_key_bound`).

use crate::{Result, VecdbError};

/// Category identifier (index into the collection's category name table).
pub type CategoryId = u32;

/// Sentinel category for unlabelled ("noise") objects.
pub const NO_CATEGORY: CategoryId = u32::MAX;

/// An immutable collection of labelled feature vectors.
#[derive(Debug, Clone)]
pub struct Collection {
    dim: usize,
    data: Vec<f64>,
    labels: Vec<CategoryId>,
    category_names: Vec<String>,
    /// Member indices per registered category, precomputed at build time
    /// so `category_size`/`category_members` are O(1) (the evaluation
    /// harness calls them per query).
    members_by_category: Vec<Vec<usize>>,
    /// Optional f32 mirror of `data` (same layout) plus the largest
    /// component magnitude of the f64 data, for the f32-rescore scans.
    mirror: Option<MirrorF32>,
}

/// The f32 mirror: half-width copy of the vector buffer plus the
/// magnitude bound its rounding analysis needs.
#[derive(Debug, Clone)]
struct MirrorF32 {
    data: Vec<f32>,
    max_abs: f64,
}

impl MirrorF32 {
    fn build(data: &[f64]) -> Self {
        MirrorF32 {
            data: data.iter().map(|&v| v as f32).collect(),
            max_abs: data.iter().fold(0.0f64, |m, &v| m.max(v.abs())),
        }
    }
}

impl Collection {
    /// Dimensionality of every vector.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of vectors.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Borrow vector `i`.
    #[inline]
    pub fn vector(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Borrow the contiguous row-major block of vectors
    /// `start..end` (`(end − start) × dim` values) — the unit the batched
    /// distance kernels consume ([`crate::Distance::eval_key_batch`]).
    #[inline]
    pub fn block(&self, start: usize, end: usize) -> &[f64] {
        &self.data[start * self.dim..end * self.dim]
    }

    /// Category of vector `i` ([`NO_CATEGORY`] when unlabelled).
    #[inline]
    pub fn label(&self, i: usize) -> CategoryId {
        self.labels[i]
    }

    /// Name of a category id.
    pub fn category_name(&self, c: CategoryId) -> Option<&str> {
        self.category_names.get(c as usize).map(|s| s.as_str())
    }

    /// All category names, indexed by id.
    pub fn category_names(&self) -> &[String] {
        &self.category_names
    }

    /// Number of distinct registered categories.
    pub fn category_count(&self) -> usize {
        self.category_names.len()
    }

    /// Number of members of a category (the evaluation's recall
    /// denominator). O(1): counts are precomputed at build time.
    /// Unregistered ids (including [`NO_CATEGORY`]) report 0.
    pub fn category_size(&self, c: CategoryId) -> usize {
        self.members_by_category.get(c as usize).map_or(0, Vec::len)
    }

    /// Indices of all members of a category, ascending. O(1): the member
    /// lists are precomputed at build time. Unregistered ids (including
    /// [`NO_CATEGORY`]) report an empty slice.
    pub fn category_members(&self, c: CategoryId) -> &[usize] {
        self.members_by_category
            .get(c as usize)
            .map_or(&[], Vec::as_slice)
    }

    /// Iterate `(index, vector, label)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[f64], CategoryId)> + '_ {
        (0..self.len()).map(move |i| (i, self.vector(i), self.labels[i]))
    }

    /// Build the f32 mirror if it is not already present (one rounding
    /// pass over the data; idempotent). Scans with `Precision::F32Rescore`
    /// use the mirror when present and silently run in pure f64 when not,
    /// so enabling it is always safe.
    pub fn ensure_f32_mirror(&mut self) {
        if self.mirror.is_none() {
            self.mirror = Some(MirrorF32::build(&self.data));
        }
    }

    /// Drop the f32 mirror (frees `len × dim × 4` bytes; scans fall back
    /// to pure f64).
    pub fn drop_f32_mirror(&mut self) {
        self.mirror = None;
    }

    /// True when the f32 mirror is present.
    pub fn has_f32_mirror(&self) -> bool {
        self.mirror.is_some()
    }

    /// Borrow the f32 mirror's contiguous row-major block of vectors
    /// `start..end` — the phase-1 unit of the f32-rescore scan
    /// ([`crate::Distance::eval_key_batch_f32`]). `None` when no mirror
    /// has been built.
    #[inline]
    pub fn block_f32(&self, start: usize, end: usize) -> Option<&[f32]> {
        self.mirror
            .as_ref()
            .map(|m| &m.data[start * self.dim..end * self.dim])
    }

    /// Largest `|component|` over the stored f64 vectors (recorded when
    /// the mirror is built; `None` without a mirror). Scans take the max
    /// of this and the query's own magnitude as the `max_abs` argument of
    /// [`crate::Distance::f32_key_bound`].
    pub fn max_abs(&self) -> Option<f64> {
        self.mirror.as_ref().map(|m| m.max_abs)
    }

    /// Heap bytes of the vector payloads: the f64 buffer plus the f32
    /// mirror (when present). This is the number the scan-bandwidth math
    /// in the benches divides by — labels, category tables and container
    /// overheads are excluded deliberately (the scans never touch them).
    pub fn memory_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>() + self.mirror_bytes()
    }

    /// Heap bytes of the f32 mirror alone (0 without a mirror).
    pub fn mirror_bytes(&self) -> usize {
        self.mirror
            .as_ref()
            .map_or(0, |m| m.data.len() * std::mem::size_of::<f32>())
    }
}

impl Collection {
    /// Copy rows `start..end` out into a standalone [`Collection`]: same
    /// dim, same category-name table, labels preserved, member lists
    /// rebuilt against the **local** row numbering, and the f32 mirror
    /// re-derived from the sliced rows when the source carries one
    /// (f64→f32 rounding is deterministic per value, so the slice's
    /// mirror bits equal the corresponding source-mirror bits; its
    /// `max_abs` is recomputed over the slice alone, which can only
    /// tighten the rounding bound the f32-rescore scans derive from it).
    /// This is how a router deployment cuts its rows: each shard server
    /// serves one slice, with its first global row as its row offset.
    pub fn slice_rows(&self, start: usize, end: usize) -> Collection {
        assert!(start <= end && end <= self.len(), "row range out of bounds");
        let data = self.data[start * self.dim..end * self.dim].to_vec();
        let labels = self.labels[start..end].to_vec();
        let mut members_by_category = vec![Vec::new(); self.category_names.len()];
        for (i, &label) in labels.iter().enumerate() {
            if label != NO_CATEGORY {
                members_by_category[label as usize].push(i);
            }
        }
        let mirror = self.mirror.is_some().then(|| MirrorF32::build(&data));
        Collection {
            dim: self.dim,
            data,
            labels,
            category_names: self.category_names.clone(),
            members_by_category,
            mirror,
        }
    }
}

impl Collection {
    /// Copy rows out in an arbitrary order (`order[new] = old`) into a
    /// standalone [`Collection`] — the partition-layout primitive.
    /// Same guarantees as [`Self::slice_rows`]: labels preserved, member
    /// lists rebuilt against the new numbering, f32 mirror re-derived
    /// when the source carries one (per-value rounding is deterministic,
    /// so each permuted mirror row is bit-identical to its source row).
    fn permute_rows(&self, order: &[u32]) -> Collection {
        let mut data = Vec::with_capacity(order.len() * self.dim);
        let mut labels = Vec::with_capacity(order.len());
        for &old in order {
            data.extend_from_slice(self.vector(old as usize));
            labels.push(self.labels[old as usize]);
        }
        let mut members_by_category = vec![Vec::new(); self.category_names.len()];
        for (i, &label) in labels.iter().enumerate() {
            if label != NO_CATEGORY {
                members_by_category[label as usize].push(i);
            }
        }
        let mirror = self.mirror.is_some().then(|| MirrorF32::build(&data));
        Collection {
            dim: self.dim,
            data,
            labels,
            category_names: self.category_names.clone(),
            members_by_category,
            mirror,
        }
    }
}

/// Configuration of the **partition-pruning layer** — the opt-in that
/// turns a flat collection into a [`PartitionedCollection`], the
/// many-partition [`Layout`](crate::knn::Layout) of a
/// [`MultiQueryScan`](crate::knn::MultiQueryScan).
///
/// # Normative behavior
///
/// * **Answer transparency.** Partitioning never changes an answer.
///   Every scan over the partitioned collection returns indices and
///   distances bit-identical to the flat scan over the source
///   collection, for every metric, precision, scan mode and `k` —
///   pruning only skips partitions *proven* (by each query metric's
///   [`partition_lower_key`](crate::Distance::partition_lower_key)
///   certificate) unable to contain a top-`k` row.
/// * **Determinism.** The build is a pure function of the source
///   collection and this config: seeding is deterministic (`seed`
///   drives a splitmix64 stream), Lloyd iterations resolve assignment
///   ties to the lowest partition id, and empty clusters keep their
///   previous centroid. Two builds from identical inputs produce
///   identical layouts.
/// * **Degenerate shapes are legal.** `partitions` may exceed the row
///   count (surplus partitions come out empty), partitions may hold a
///   single row, and an empty collection partitions into `partitions`
///   empty partitions. Consumers must tolerate all of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionConfig {
    /// Target partition count (clamped to ≥ 1). More partitions prune
    /// finer but pay more per-pass bound evaluations (`Q × partitions`
    /// centroid distances); √len is a reasonable default scale.
    pub partitions: usize,
    /// Lloyd refinement iterations over the (sampled) training rows.
    pub lloyd_iters: usize,
    /// Training-sample ceiling: Lloyd runs on an evenly strided sample
    /// of at most this many rows, then one full assignment pass places
    /// every row. Keeps build cost `O(sample × partitions × dim)` per
    /// iteration instead of `O(len × …)`.
    pub max_sample: usize,
    /// Seed of the deterministic centroid initialization.
    pub seed: u64,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig {
            partitions: 64,
            lloyd_iters: 6,
            max_sample: 32_768,
            seed: 0xF33D_BA55,
        }
    }
}

impl PartitionConfig {
    /// Config with a given partition count and the default build knobs.
    pub fn with_partitions(partitions: usize) -> Self {
        PartitionConfig {
            partitions,
            ..Default::default()
        }
    }
}

/// A [`Collection`] clustered into partitions for proof-based pruning.
///
/// Layout: the rows live in an inner [`Collection`] reordered
/// **partition-contiguous** (partition `p` occupies rows
/// `rows(p)`, within a partition rows keep ascending original order),
/// so a surviving partition is one contiguous block scan for the
/// existing batch kernels. Alongside the rows: per-partition Euclidean
/// centroids and covering radii (`max` member distance, inflated by a
/// one-ulp-scale factor against build rounding) from which each
/// distance class derives its own key-space pruning certificate at
/// query time, and the permutation `perm[new] = original` the scan
/// applies when pushing results — answers always speak the source
/// collection's row numbering.
#[derive(Debug, Clone)]
pub struct PartitionedCollection {
    inner: Collection,
    /// Partition `p` covers inner rows `offsets[p]..offsets[p+1]`
    /// (`P + 1` entries, ascending, last = len).
    offsets: Vec<usize>,
    /// Row-major `P × dim` Euclidean centroids.
    centroids: Vec<f64>,
    /// Covering Euclidean radius per partition (0 for empty ones).
    radii: Vec<f64>,
    /// `perm[new_row] = original_row` of the source collection.
    perm: Vec<u32>,
}

/// splitmix64 step: the deterministic seed stream of the partition
/// build (no RNG dependency; same generator the test helpers use).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Block size of the build's assignment passes (mirrors the scan's
/// [`BLOCK_ROWS`](crate::knn) without creating a cross-module constant
/// dependency).
const PART_BLOCK: usize = 256;

impl PartitionedCollection {
    /// Cluster `coll` per `cfg` (deterministic; see [`PartitionConfig`]
    /// for the normative guarantees). The source collection is copied,
    /// not mutated.
    pub fn build(coll: &Collection, cfg: &PartitionConfig) -> Self {
        let p = cfg.partitions.max(1);
        let n = coll.len();
        let dim = coll.dim();
        if n == 0 || dim == 0 {
            // Degenerate: everything (possibly nothing) in partition 0.
            // With dim 0 every distance — including query→centroid — is
            // 0, so a 0 radius stays sound.
            let mut offsets = vec![n; p + 1];
            offsets[0] = 0;
            return PartitionedCollection {
                inner: coll.clone(),
                offsets,
                centroids: vec![0.0; p * dim],
                radii: vec![0.0; p],
                perm: (0..n as u32).collect(),
            };
        }

        // Deterministic initialization: p distinct rows when possible
        // (sparse Fisher–Yates over the row range), duplicated rows —
        // hence empty partitions — when p > n.
        let mut state = cfg.seed;
        let mut swapped: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
        let mut centroids = Vec::with_capacity(p * dim);
        for j in 0..p {
            let row = if j < n {
                let r = j + (splitmix64(&mut state) as usize) % (n - j);
                let picked = *swapped.get(&r).unwrap_or(&r);
                let jth = *swapped.get(&j).unwrap_or(&j);
                swapped.insert(r, jth);
                picked
            } else {
                j % n
            };
            centroids.extend_from_slice(coll.vector(row));
        }

        // Lloyd refinement on an evenly strided training sample.
        let sample_n = n.min(cfg.max_sample.max(1));
        let sample: Vec<f64> = if sample_n == n {
            coll.block(0, n).to_vec()
        } else {
            let mut s = Vec::with_capacity(sample_n * dim);
            for i in 0..sample_n {
                s.extend_from_slice(coll.vector(i * n / sample_n));
            }
            s
        };
        // Squared Euclidean keys through the unit-weight kernel (`(1·d)·d`
        // is exact, so these are the plain sum's bits).
        let unit = vec![1.0f64; dim];
        let mut keys = vec![0.0f64; p * PART_BLOCK];
        let bounds = vec![f64::INFINITY; p];
        for _ in 0..cfg.lloyd_iters {
            let mut sums = vec![0.0f64; p * dim];
            let mut counts = vec![0usize; p];
            let mut start = 0;
            while start < sample_n {
                let end = (start + PART_BLOCK).min(sample_n);
                let rows = end - start;
                crate::distance::kernels::weighted_sq_multi_block(
                    &unit,
                    0,
                    &centroids,
                    &sample[start * dim..end * dim],
                    dim,
                    &bounds,
                    &mut keys[..p * rows],
                );
                for r in 0..rows {
                    let mut best = 0usize;
                    let mut best_key = keys[r];
                    for q in 1..p {
                        let key = keys[q * rows + r];
                        if key < best_key {
                            best = q;
                            best_key = key;
                        }
                    }
                    counts[best] += 1;
                    let row = &sample[(start + r) * dim..(start + r + 1) * dim];
                    for (acc, &v) in sums[best * dim..(best + 1) * dim].iter_mut().zip(row) {
                        *acc += v;
                    }
                }
                start = end;
            }
            for q in 0..p {
                if counts[q] > 0 {
                    let inv = 1.0 / counts[q] as f64;
                    for (c, s) in centroids[q * dim..(q + 1) * dim]
                        .iter_mut()
                        .zip(&sums[q * dim..(q + 1) * dim])
                    {
                        *c = s * inv;
                    }
                } // empty cluster: keep the previous centroid.
            }
        }

        // One full assignment pass against the final centroids,
        // recording each row's partition and its (squared) distance to
        // the winning centroid — the radius source. Row-parallel when
        // the collection is large; per-row results are independent, so
        // threading never changes the outcome.
        let mut assign = vec![0u32; n];
        let mut win_sq = vec![0.0f64; n];
        let work_blocks = n.div_ceil(PART_BLOCK);
        let threads = if n * dim * p >= (1 << 22) {
            crate::knn::scan_threads(None, work_blocks)
        } else {
            1
        };
        let assign_range =
            |rows_range: std::ops::Range<usize>, assign_out: &mut [u32], win_out: &mut [f64]| {
                let mut keys = vec![0.0f64; p * PART_BLOCK];
                let bounds = vec![f64::INFINITY; p];
                let base = rows_range.start;
                let mut start = rows_range.start;
                while start < rows_range.end {
                    let end = (start + PART_BLOCK).min(rows_range.end);
                    let rows = end - start;
                    crate::distance::kernels::weighted_sq_multi_block(
                        &unit,
                        0,
                        &centroids,
                        coll.block(start, end),
                        dim,
                        &bounds,
                        &mut keys[..p * rows],
                    );
                    for r in 0..rows {
                        let mut best = 0usize;
                        let mut best_key = keys[r];
                        for q in 1..p {
                            let key = keys[q * rows + r];
                            if key < best_key {
                                best = q;
                                best_key = key;
                            }
                        }
                        assign_out[start - base + r] = best as u32;
                        win_out[start - base + r] = best_key;
                    }
                    start = end;
                }
            };
        if threads <= 1 {
            assign_range(0..n, &mut assign, &mut win_sq);
        } else {
            let chunk = n.div_ceil(threads);
            std::thread::scope(|scope| {
                let mut assign_rest = assign.as_mut_slice();
                let mut win_rest = win_sq.as_mut_slice();
                let mut start = 0;
                while start < n {
                    let end = (start + chunk).min(n);
                    let (a, ar) = assign_rest.split_at_mut(end - start);
                    let (w, wr) = win_rest.split_at_mut(end - start);
                    assign_rest = ar;
                    win_rest = wr;
                    let assign_range = &assign_range;
                    scope.spawn(move || assign_range(start..end, a, w));
                    start = end;
                }
            });
        }

        // Group rows partition-contiguous (ascending original index
        // within each partition), derive offsets, the permutation and
        // the covering radii. The radius is inflated by a one-ulp-scale
        // factor so kernel rounding in the build can never understate
        // the cover (the query-time bound adds its own margin on top).
        let mut counts = vec![0usize; p];
        for &a in &assign {
            counts[a as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(p + 1);
        let mut acc = 0usize;
        for &c in &counts {
            offsets.push(acc);
            acc += c;
        }
        offsets.push(acc);
        debug_assert_eq!(acc, n);
        let mut next = offsets[..p].to_vec();
        let mut perm = vec![0u32; n];
        let mut radii_sq = vec![0.0f64; p];
        for (i, &a) in assign.iter().enumerate() {
            let q = a as usize;
            perm[next[q]] = i as u32;
            next[q] += 1;
            radii_sq[q] = radii_sq[q].max(win_sq[i]);
        }
        let radii = radii_sq
            .iter()
            .map(|&sq| sq.sqrt() * (1.0 + 1e-12))
            .collect();
        PartitionedCollection {
            inner: coll.permute_rows(&perm),
            offsets,
            centroids,
            radii,
            perm,
        }
    }

    /// The reordered inner collection (partition-contiguous rows). Row
    /// `i` here is row [`Self::original_index`]`(i)` of the source.
    pub fn collection(&self) -> &Collection {
        &self.inner
    }

    /// Number of partitions (≥ 1; some may be empty).
    pub fn partition_count(&self) -> usize {
        self.radii.len()
    }

    /// Inner row range of partition `p`.
    pub fn rows(&self, p: usize) -> std::ops::Range<usize> {
        self.offsets[p]..self.offsets[p + 1]
    }

    /// Euclidean centroid of partition `p`.
    pub fn centroid(&self, p: usize) -> &[f64] {
        let dim = self.inner.dim();
        &self.centroids[p * dim..(p + 1) * dim]
    }

    /// Covering Euclidean radius of partition `p`: every member row
    /// lies within this distance of the centroid (inflated against
    /// build rounding; 0 for empty partitions).
    pub fn radius(&self, p: usize) -> f64 {
        self.radii[p]
    }

    /// Source-collection row index of inner row `new`.
    #[inline]
    pub fn original_index(&self, new: usize) -> u32 {
        self.perm[new]
    }

    /// The full `new → original` permutation.
    pub fn perm(&self) -> &[u32] {
        &self.perm
    }

    /// Number of rows (same as the source collection's).
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Dimensionality of every vector.
    pub fn dim(&self) -> usize {
        self.inner.dim()
    }

    /// Build the inner collection's f32 mirror (idempotent) so
    /// `Precision::F32Rescore` scans stream half the bytes here too.
    pub fn ensure_f32_mirror(&mut self) {
        self.inner.ensure_f32_mirror();
    }

    /// Heap bytes: inner payloads plus the partition metadata
    /// (centroids, radii, offsets, permutation).
    pub fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
            + self.centroids.len() * std::mem::size_of::<f64>()
            + self.radii.len() * std::mem::size_of::<f64>()
            + self.offsets.len() * std::mem::size_of::<usize>()
            + self.perm.len() * std::mem::size_of::<u32>()
    }
}

/// Builder for [`Collection`].
#[derive(Debug, Default)]
pub struct CollectionBuilder {
    dim: Option<usize>,
    data: Vec<f64>,
    labels: Vec<CategoryId>,
    category_names: Vec<String>,
    build_mirror: bool,
}

impl CollectionBuilder {
    /// Fresh builder; the dimensionality is fixed by the first vector
    /// (or up front via [`Self::with_dim`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Fix the dimensionality before any vector is pushed. An empty
    /// build then carries this `dim` instead of silently reporting 0 —
    /// callers that defer their first `push` (streaming ingest, staged
    /// loads) get a coherent collection/mirror either way. Pushes are
    /// validated against it exactly like against an inferred dim.
    pub fn with_dim(mut self, dim: usize) -> Self {
        self.dim = Some(dim);
        self
    }

    /// Build the f32 mirror as part of [`Self::build`] (equivalent to
    /// calling [`Collection::ensure_f32_mirror`] afterwards).
    pub fn with_f32_mirror(mut self) -> Self {
        self.build_mirror = true;
        self
    }

    /// Register a category name, returning its id. Registering the same
    /// name again returns the existing id.
    pub fn category(&mut self, name: &str) -> CategoryId {
        if let Some(pos) = self.category_names.iter().position(|n| n == name) {
            return pos as CategoryId;
        }
        self.category_names.push(name.to_string());
        (self.category_names.len() - 1) as CategoryId
    }

    /// Append a labelled vector.
    pub fn push(&mut self, vector: &[f64], label: CategoryId) -> Result<usize> {
        match self.dim {
            None => self.dim = Some(vector.len()),
            Some(d) if d != vector.len() => {
                return Err(VecdbError::DimMismatch {
                    expected: d,
                    got: vector.len(),
                })
            }
            _ => {}
        }
        if label != NO_CATEGORY && label as usize >= self.category_names.len() {
            return Err(VecdbError::BadParameters(format!(
                "label {label} not registered"
            )));
        }
        self.data.extend_from_slice(vector);
        self.labels.push(label);
        Ok(self.labels.len() - 1)
    }

    /// Append an unlabelled (noise) vector.
    pub fn push_unlabelled(&mut self, vector: &[f64]) -> Result<usize> {
        self.push(vector, NO_CATEGORY)
    }

    /// Finish building.
    ///
    /// The dimensionality is whatever was fixed first — [`Self::with_dim`]
    /// or the first push — and is asserted coherent with the stored data
    /// (`data.len() == len × dim`), so an empty collection built after
    /// `with_dim(d)` reports `dim() == d` rather than a silent 0, and the
    /// mirror is built against the same dim.
    pub fn build(self) -> Collection {
        let dim = self.dim.unwrap_or(0);
        assert_eq!(
            self.data.len(),
            self.labels.len() * dim,
            "vector buffer incoherent with len × dim"
        );
        let mut members_by_category = vec![Vec::new(); self.category_names.len()];
        for (i, &label) in self.labels.iter().enumerate() {
            if label != NO_CATEGORY {
                members_by_category[label as usize].push(i);
            }
        }
        let mirror = self.build_mirror.then(|| MirrorF32::build(&self.data));
        Collection {
            dim,
            data: self.data,
            labels: self.labels,
            category_names: self.category_names,
            members_by_category,
            mirror,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_access() {
        let mut b = CollectionBuilder::new();
        let birds = b.category("Bird");
        let fish = b.category("Fish");
        assert_eq!(b.category("Bird"), birds, "re-registration is idempotent");
        b.push(&[1.0, 2.0], birds).unwrap();
        b.push(&[3.0, 4.0], fish).unwrap();
        b.push_unlabelled(&[5.0, 6.0]).unwrap();
        let c = b.build();
        assert_eq!(c.len(), 3);
        assert_eq!(c.dim(), 2);
        assert_eq!(c.vector(1), &[3.0, 4.0]);
        assert_eq!(c.label(0), birds);
        assert_eq!(c.label(2), NO_CATEGORY);
        assert_eq!(c.category_name(fish), Some("Fish"));
        assert_eq!(c.category_name(99), None);
        assert_eq!(c.category_count(), 2);
    }

    #[test]
    fn category_sizes_and_members() {
        let mut b = CollectionBuilder::new();
        let cat = b.category("X");
        b.push(&[0.0], cat).unwrap();
        b.push_unlabelled(&[1.0]).unwrap();
        b.push(&[2.0], cat).unwrap();
        let c = b.build();
        assert_eq!(c.category_size(cat), 2);
        assert_eq!(c.category_members(cat), vec![0, 2]);
        assert_eq!(c.category_size(7), 0);
    }

    #[test]
    fn dim_mismatch_rejected() {
        let mut b = CollectionBuilder::new();
        b.push_unlabelled(&[1.0, 2.0]).unwrap();
        assert!(matches!(
            b.push_unlabelled(&[1.0]),
            Err(VecdbError::DimMismatch { .. })
        ));
    }

    #[test]
    fn unregistered_label_rejected() {
        let mut b = CollectionBuilder::new();
        assert!(b.push(&[1.0], 0).is_err());
    }

    #[test]
    fn empty_collection() {
        let c = CollectionBuilder::new().build();
        assert!(c.is_empty());
        assert_eq!(c.dim(), 0);
        assert_eq!(c.iter().count(), 0);
    }

    #[test]
    fn preset_dim_survives_empty_build_and_validates_pushes() {
        // The deferred-first-push case: dim is coherent without any data.
        let c = CollectionBuilder::new().with_dim(7).build();
        assert!(c.is_empty());
        assert_eq!(c.dim(), 7);
        // Pushes are checked against the preset dim like an inferred one.
        let mut b = CollectionBuilder::new().with_dim(2);
        assert!(matches!(
            b.push_unlabelled(&[1.0, 2.0, 3.0]),
            Err(VecdbError::DimMismatch {
                expected: 2,
                got: 3
            })
        ));
        b.push_unlabelled(&[1.0, 2.0]).unwrap();
        assert_eq!(b.build().dim(), 2);
    }

    #[test]
    fn mirror_rounds_data_and_reports_max_abs() {
        let mut b = CollectionBuilder::new();
        b.push_unlabelled(&[0.1, -3.5]).unwrap();
        b.push_unlabelled(&[2.0, 0.25]).unwrap();
        let mut c = b.build();
        assert!(!c.has_f32_mirror());
        assert_eq!(c.block_f32(0, 2), None);
        assert_eq!(c.max_abs(), None);
        assert_eq!(c.mirror_bytes(), 0);
        c.ensure_f32_mirror();
        assert!(c.has_f32_mirror());
        assert_eq!(c.max_abs(), Some(3.5));
        assert_eq!(c.block_f32(0, 2).unwrap(), &[0.1f32, -3.5, 2.0, 0.25][..]);
        assert_eq!(c.block_f32(1, 2).unwrap(), &[2.0f32, 0.25][..]);
        // Idempotent.
        c.ensure_f32_mirror();
        assert_eq!(c.mirror_bytes(), 4 * 4);
        c.drop_f32_mirror();
        assert!(!c.has_f32_mirror());
    }

    #[test]
    fn builder_mirror_matches_ensure() {
        let mut b = CollectionBuilder::new().with_f32_mirror();
        b.push_unlabelled(&[1.0, 2.0]).unwrap();
        let c = b.build();
        assert!(c.has_f32_mirror());
        assert_eq!(c.max_abs(), Some(2.0));
        // Empty build with a preset dim still gets a coherent (empty)
        // mirror instead of a dim-0 mismatch.
        let c = CollectionBuilder::new()
            .with_dim(3)
            .with_f32_mirror()
            .build();
        assert!(c.has_f32_mirror());
        assert_eq!(c.dim(), 3);
        assert_eq!(c.block_f32(0, 0).unwrap(), &[] as &[f32]);
    }

    #[test]
    fn slice_rows_preserves_rows_labels_and_mirror() {
        let mut b = CollectionBuilder::new().with_f32_mirror();
        let cat = b.category("X");
        for i in 0..10 {
            if i % 3 == 0 {
                b.push(&[i as f64, -(i as f64)], cat).unwrap();
            } else {
                b.push_unlabelled(&[i as f64, -(i as f64)]).unwrap();
            }
        }
        let c = b.build();
        let s = c.slice_rows(3, 7);
        assert_eq!(s.len(), 4);
        assert_eq!(s.dim(), 2);
        for i in 0..4 {
            assert_eq!(s.vector(i), c.vector(3 + i));
            assert_eq!(s.label(i), c.label(3 + i));
        }
        // Member lists are local: global rows 3 and 6 → local 0 and 3.
        assert_eq!(s.category_members(cat), &[0, 3]);
        // The mirror is carried over bit-for-bit (deterministic rounding)
        // with a slice-local max_abs.
        assert!(s.has_f32_mirror());
        assert_eq!(s.block_f32(0, 4).unwrap(), c.block_f32(3, 7).unwrap());
        assert_eq!(s.max_abs(), Some(6.0));
        // No-mirror sources slice without one.
        let mut plain = CollectionBuilder::new();
        plain.push_unlabelled(&[1.0]).unwrap();
        assert!(!plain.build().slice_rows(0, 1).has_f32_mirror());
        // Empty slices are legal.
        assert_eq!(c.slice_rows(5, 5).len(), 0);
    }

    #[test]
    fn memory_bytes_accounts_data_and_mirror() {
        let mut b = CollectionBuilder::new();
        for i in 0..10 {
            b.push_unlabelled(&[i as f64; 4]).unwrap();
        }
        let mut c = b.build();
        assert_eq!(c.memory_bytes(), 10 * 4 * 8);
        c.ensure_f32_mirror();
        assert_eq!(c.mirror_bytes(), 10 * 4 * 4);
        assert_eq!(c.memory_bytes(), 10 * 4 * 8 + 10 * 4 * 4);
    }
}
