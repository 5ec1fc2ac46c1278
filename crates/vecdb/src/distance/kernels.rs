//! Blocked weighted squared-Euclidean kernels behind
//! [`WeightedEuclidean`](super::WeightedEuclidean) and the scans: every
//! key is `Σ wᵢ·(qᵢ − rᵢ)²`, and the unweighted sum is its `w ≡ 1` case
//! (`(1·d)·d` is exact, and nothing contracts it to a fused
//! multiply-add, so unit weights give the plain sum's f64 bits).
//!
//! The per-row inner loops are unrolled 8-wide over independent
//! accumulators — enough parallel chains for LLVM to
//! emit full-width SIMD adds/multiplies and keep the out-of-order window
//! busy. All kernels compute *surrogate keys* (squared-form sums); the
//! caller recovers true distances via `Distance::finish_key` for final
//! winners only.
//!
//! Early abandonment: the accumulated sums are non-decreasing in the
//! number of components, so once a row's partial sum exceeds the caller's
//! pruning bound the row can never enter the k-best — the kernels then
//! stop and report `INFINITY` for it. Segments of [`SEGMENT`] components
//! keep the bound check off the hot inner loop.
//!
//! # f32 kernels
//!
//! The `*_f32` variants scan the [`Collection`](crate::Collection)'s
//! optional f32 mirror at half the memory traffic of the f64 buffer —
//! the phase-1 filter of the `Precision::F32Rescore` scan path. Two
//! implementations exist: a portable auto-vectorized chain mirroring
//! the f64 structure, and hand-written AVX2+FMA intrinsics (see the
//! `f32_intr` module for why LLVM needs the help here). Within either
//! implementation the properties the filter relies on hold: prefix sums
//! are monotone non-decreasing (each step adds a non-negative term
//! under monotone rounding), so early abandonment against an *inflated*
//! bound can only drop rows whose full f32 key also exceeds that bound,
//! and a given (query, row) pair gets the same f32 key from the batch,
//! multi and one-row entry points. On FMA hosts the multi kernel scores
//! a block in register tiles — 4 queries × 2 rows (eight FMA chains),
//! then 2 × 2, then the row pair for an odd query, then single rows for
//! an odd row — and on AVX-512F hosts a batch of
//! [`ROWS_IN_LANES_MIN_QUERIES`] or more queries in rows-in-lanes order:
//! sixteen rows per vector, transposed once per block group. Every shape
//! gives each pair the key bits of the one-query row kernels: the same
//! per-chunk FMA order, the same
//! reduction tree (the 4×2 tile reduces its eight accumulators in one
//! transposed pass whose lane `i` is exactly the one-row tree of
//! accumulator `i`; a row lane joins its eight residue partials in that
//! tree), and the same `dim % 8` tail. Unlike the f64 kernels, f32 keys are
//! NOT bit-identical across hosts (FMA vs non-FMA) — by design: they
//! only select candidates under a bound inflated by
//! `Distance::f32_key_bound`, which covers either variant's rounding, and the exact f64
//! rescore makes the final answers host-independent again.

/// Unroll width of the inner component loops (f64).
pub(crate) const LANES: usize = 8;

/// Unroll width of the f32 inner loops. Same count as the f64 kernels —
/// measured on the build host, 8 f32 lanes (one 256-bit chain, the same
/// cheap 8-term reduction tree per row) beats 16 lanes, whose doubled
/// horizontal reduction eats the wider-register win at dim ≈ 64.
pub(crate) const LANES_F32: usize = 8;

/// Queries at which the f32 multi kernel (per-query or shared weights)
/// switches, on AVX-512F + FMA hosts, from the register tiles to the
/// rows-in-lanes order (see the `f32_intr` module). Break-even on a
/// 2-vCPU AVX-512 x86-64 host: fastest of 60 same-process alternations
/// per cell, rows-in-lanes ns over tile ns per (query, row), and how
/// many of the 60 alternations rows in lanes won:
///
/// | kernel    | rows × dim | Q = 1       | Q = 2       | Q = 4       | Q = 8       | Q = 16      |
/// |-----------|------------|-------------|-------------|-------------|-------------|-------------|
/// | per-query | 50k × 32   | ×1.12 5/60  | ×1.21 1/60  | ×1.16 3/60  | ×0.81 59/60 | ×0.81 60/60 |
/// | per-query | 16k × 32   | ×1.19 3/60  | ×1.28 2/60  | ×1.22 2/60  | ×0.86 56/60 | ×0.85 48/60 |
/// | per-query | 120k × 64  | ×1.01 36/60 | ×0.95 59/60 | ×0.81 56/60 | ×0.82 59/60 | ×0.82 60/60 |
/// | shared    | 50k × 32   | ×1.15 3/60  | ×1.19 3/60  | ×1.16 6/60  | ×0.79 60/60 | ×0.71 54/60 |
/// | shared    | 16k × 32   | ×1.18 4/60  | ×1.29 1/60  | ×1.21 3/60  | ×0.82 55/60 | ×0.85 58/60 |
/// | shared    | 120k × 64  | ×0.94 39/60 | ×0.92 59/60 | ×0.81 60/60 | ×0.83 60/60 | ×0.84 60/60 |
///
/// A second run put every cell on the same side of ×1 but the Q = 1
/// per-query and the Q = 8 shared cell at 120k × 64 (×0.88 and ×1.00).
/// The transposed group pays off only when many queries share it. The
/// 4×2 tile already shares each row load across four queries, so at
/// 32-d rows in lanes loses below 8 queries and wins from 8 up (at 64-d
/// it wins from 2 or 4). From 8 up the f32 scan also drops its separate
/// admit pass (`weighted_sq_multi_admit_f32`). `kernel_timing.rs`'s
/// ignored `time_per_query_weight_multi_kernel` reprints the half of
/// this comparison from each cutoff up on any host (below a cutoff
/// both of its columns run the tiles).
pub(crate) const ROWS_IN_LANES_MIN_QUERIES: usize = 8;

/// Components accumulated between early-abandon bound checks (f64).
const SEGMENT: usize = 64;

/// f32 bound-check granularity (same as f64: a 32-component experiment
/// made the phase-1 pass ~40% slower on the build host — the branchy
/// bounded row path costs more than the skipped arithmetic saves at
/// dim ≈ 64).
const SEGMENT_F32: usize = 64;

/// Sum of `w·(q − r)²` over one segment (8-wide unrolled;
/// `chunks_exact` keeps the hot loop free of bounds checks).
#[inline(always)]
fn weighted_sq_seg(w: &[f64], q: &[f64], r: &[f64]) -> f64 {
    let n = q.len();
    let (w, r) = (&w[..n], &r[..n]);
    let mut acc = [0.0f64; LANES];
    let mut qc = q.chunks_exact(LANES);
    let mut wc = w.chunks_exact(LANES);
    let mut rc = r.chunks_exact(LANES);
    for ((qs, ws), rs) in (&mut qc).zip(&mut wc).zip(&mut rc) {
        for l in 0..LANES {
            let d = qs[l] - rs[l];
            acc[l] += ws[l] * d * d;
        }
    }
    let mut tail = 0.0;
    for ((x, w), y) in qc
        .remainder()
        .iter()
        .zip(wc.remainder().iter())
        .zip(rc.remainder().iter())
    {
        let d = x - y;
        tail += w * d * d;
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])) + tail
}

// The row functions below all accumulate segment-by-segment so that the
// bounded and unbounded paths produce BIT-IDENTICAL sums for rows that
// survive the bound — passes mixing the two paths (the rescore pushes
// exact keys, scans may abandon) must never disagree on a shared
// candidate.

/// Sum of `w·(q − r)²` over one row.
#[inline(always)]
pub(crate) fn weighted_sq_row(w: &[f64], q: &[f64], r: &[f64]) -> f64 {
    let n = q.len();
    let mut acc = 0.0;
    let mut i = 0;
    while i < n {
        let end = (i + SEGMENT).min(n);
        acc += weighted_sq_seg(&w[i..end], &q[i..end], &r[i..end]);
        i = end;
    }
    acc
}

/// One row with early abandonment against `bound` (checked every
/// [`SEGMENT`] components). Returns `f64::INFINITY` when abandoned.
#[inline(always)]
fn weighted_sq_row_bounded(w: &[f64], q: &[f64], r: &[f64], bound: f64) -> f64 {
    let n = q.len();
    let mut acc = 0.0;
    let mut i = 0;
    while i < n {
        let end = (i + SEGMENT).min(n);
        acc += weighted_sq_seg(&w[i..end], &q[i..end], &r[i..end]);
        if acc > bound {
            return f64::INFINITY;
        }
        i = end;
    }
    acc
}

/// Per-(query, row) computation shared by the single- and multi-query
/// block kernels: bounded accumulation when a finite bound can pay for
/// its branches, exact accumulation otherwise. Rows that survive a bound
/// get BIT-IDENTICAL sums on either path (see above), so multi-query
/// scans carrying per-query bounds agree exactly with per-query scans.
#[inline(always)]
fn weighted_sq_pair(w: &[f64], q: &[f64], r: &[f64], bound: f64) -> f64 {
    if bound.is_finite() && q.len() > SEGMENT {
        weighted_sq_row_bounded(w, q, r, bound)
    } else {
        weighted_sq_row(w, q, r)
    }
}

/// Weighted squared-Euclidean keys for a row-major block (portable body).
///
/// Abandonment only pays once a row spans multiple segments; exact keys
/// are cheaper than branchy ones for short rows. The mode branch is
/// hoisted out of the row loop.
#[inline(always)]
fn weighted_sq_block_impl(
    weights: &[f64],
    query: &[f64],
    block: &[f64],
    dim: usize,
    bound: f64,
    out: &mut [f64],
) {
    if bound.is_finite() && dim > SEGMENT {
        for (row, slot) in block.chunks_exact(dim).zip(out.iter_mut()) {
            *slot = weighted_sq_row_bounded(weights, query, row, bound);
        }
    } else {
        for (row, slot) in block.chunks_exact(dim).zip(out.iter_mut()) {
            *slot = weighted_sq_row(weights, query, row);
        }
    }
}

/// Weighted squared-Euclidean keys for Q queries × one row-major block
/// (portable body). `queries` is `Q × dim` row-major; `bounds` holds one
/// pruning threshold per query; `out` is `Q × rows` row-major per query
/// (`out[q·rows + r]`). `w_stride` selects the weight layout: `0` shares
/// one `dim`-long weight row across all queries (one metric, many
/// queries), `dim` gives each query its own weight row (per-session
/// learned metrics).
///
/// The row loop is OUTER: each block row is loaded once and scored
/// against every query while it sits in registers/L1, so collection
/// bytes per query drop by ~Q× versus Q separate block passes. Each
/// (query, row) pair accumulates exactly like the single-query kernel,
/// so surviving keys are bit-identical to Q independent passes.
#[inline(always)]
fn weighted_sq_multi_impl(
    weights: &[f64],
    w_stride: usize,
    queries: &[f64],
    block: &[f64],
    dim: usize,
    bounds: &[f64],
    out: &mut [f64],
) {
    let rows = block.len().checked_div(dim).unwrap_or(0);
    for (r, row) in block.chunks_exact(dim).enumerate() {
        for (q, query) in queries.chunks_exact(dim).enumerate() {
            let w = &weights[q * w_stride..q * w_stride + dim];
            out[q * rows + r] = weighted_sq_pair(w, query, row, bounds[q]);
        }
    }
}

// ---------------------------------------------------------------------
// f32 kernel bodies, portable chain (`f32_plain`): the same
// segment/lane structure and unfused multiply-add arithmetic as the
// f64 kernels, auto-vectorized under the runtime-dispatched
// `#[target_feature]` wrappers below. This chain serves non-FMA hosts
// and non-x86 targets; FMA-capable x86-64 hosts are instead routed to
// the hand-written `f32_intr` intrinsics further down (fused
// multiply-adds, different reduction — see that module for why).
// Either implementation's rounding is covered by
// `Distance::f32_key_bound` (fusion only removes roundings the budget
// charges for).

/// Fixed-shape reduction of the f32 accumulator lanes (the same
/// deterministic tree as the f64 kernels').
#[inline(always)]
fn reduce_f32(acc: &[f32; LANES_F32]) -> f32 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

mod f32_plain {
    use super::{reduce_f32, LANES_F32, SEGMENT_F32 as SEGMENT};

    /// Sum of `w·(q − r)²` over one segment (8-wide unrolled).
    #[inline(always)]
    fn weighted_sq_seg(w: &[f32], q: &[f32], r: &[f32]) -> f32 {
        let n = q.len();
        let (w, r) = (&w[..n], &r[..n]);
        let mut acc = [0.0f32; LANES_F32];
        let mut qc = q.chunks_exact(LANES_F32);
        let mut wc = w.chunks_exact(LANES_F32);
        let mut rc = r.chunks_exact(LANES_F32);
        for ((qs, ws), rs) in (&mut qc).zip(&mut wc).zip(&mut rc) {
            for l in 0..LANES_F32 {
                let d = qs[l] - rs[l];
                acc[l] += ws[l] * d * d;
            }
        }
        let mut tail = 0.0f32;
        for ((x, w), y) in qc
            .remainder()
            .iter()
            .zip(wc.remainder().iter())
            .zip(rc.remainder().iter())
        {
            let d = x - y;
            tail += w * d * d;
        }
        reduce_f32(&acc) + tail
    }

    /// Two rows' `w·(q − r)²` segment sums, interleaved: the
    /// per-row FP dependency chain is the latency bottleneck of
    /// the f32 pass, so a row pair keeps two independent chains
    /// in flight. Each row's lanes, order and reduction are
    /// exactly those of [`weighted_sq_seg`], so pairing never
    /// changes a key's bits.
    #[inline(always)]
    fn weighted_sq_seg2(w: &[f32], q: &[f32], r0: &[f32], r1: &[f32]) -> (f32, f32) {
        let n = q.len();
        let (w, r0, r1) = (&w[..n], &r0[..n], &r1[..n]);
        let mut acc0 = [0.0f32; LANES_F32];
        let mut acc1 = [0.0f32; LANES_F32];
        let mut qc = q.chunks_exact(LANES_F32);
        let mut wc = w.chunks_exact(LANES_F32);
        let mut rc0 = r0.chunks_exact(LANES_F32);
        let mut rc1 = r1.chunks_exact(LANES_F32);
        for (((qs, ws), rs0), rs1) in (&mut qc).zip(&mut wc).zip(&mut rc0).zip(&mut rc1) {
            for l in 0..LANES_F32 {
                let d0 = qs[l] - rs0[l];
                acc0[l] += ws[l] * d0 * d0;
                let d1 = qs[l] - rs1[l];
                acc1[l] += ws[l] * d1 * d1;
            }
        }
        let mut tail0 = 0.0f32;
        let mut tail1 = 0.0f32;
        for (((x, w), y0), y1) in qc
            .remainder()
            .iter()
            .zip(wc.remainder().iter())
            .zip(rc0.remainder().iter())
            .zip(rc1.remainder().iter())
        {
            let d0 = x - y0;
            tail0 += w * d0 * d0;
            let d1 = x - y1;
            tail1 += w * d1 * d1;
        }
        (reduce_f32(&acc0) + tail0, reduce_f32(&acc1) + tail1)
    }

    /// Two full rows, interleaved; bit-identical per row to
    /// [`weighted_sq_row`].
    #[inline(always)]
    fn weighted_sq_row2(w: &[f32], q: &[f32], r0: &[f32], r1: &[f32]) -> (f32, f32) {
        let n = q.len();
        let mut acc0 = 0.0f32;
        let mut acc1 = 0.0f32;
        let mut i = 0;
        while i < n {
            let end = (i + SEGMENT).min(n);
            let (s0, s1) = weighted_sq_seg2(&w[i..end], &q[i..end], &r0[i..end], &r1[i..end]);
            acc0 += s0;
            acc1 += s1;
            i = end;
        }
        (acc0, acc1)
    }

    /// Sum of `w·(q − r)²` over one row.
    #[inline(always)]
    pub(super) fn weighted_sq_row(w: &[f32], q: &[f32], r: &[f32]) -> f32 {
        let n = q.len();
        let mut acc = 0.0f32;
        let mut i = 0;
        while i < n {
            let end = (i + SEGMENT).min(n);
            acc += weighted_sq_seg(&w[i..end], &q[i..end], &r[i..end]);
            i = end;
        }
        acc
    }

    #[inline(always)]
    fn weighted_sq_row_bounded(w: &[f32], q: &[f32], r: &[f32], bound: f32) -> f32 {
        let n = q.len();
        let mut acc = 0.0f32;
        let mut i = 0;
        while i < n {
            let end = (i + SEGMENT).min(n);
            acc += weighted_sq_seg(&w[i..end], &q[i..end], &r[i..end]);
            if acc > bound {
                return f32::INFINITY;
            }
            i = end;
        }
        acc
    }

    #[inline(always)]
    fn weighted_sq_pair(w: &[f32], q: &[f32], r: &[f32], bound: f32) -> f32 {
        if bound.is_finite() && q.len() > SEGMENT {
            weighted_sq_row_bounded(w, q, r, bound)
        } else {
            weighted_sq_row(w, q, r)
        }
    }

    /// Weighted squared-Euclidean f32 keys for a row-major block.
    #[inline(always)]
    pub(super) fn weighted_sq_block(
        weights: &[f32],
        query: &[f32],
        block: &[f32],
        dim: usize,
        bound: f32,
        out: &mut [f32],
    ) {
        if bound.is_finite() && dim > SEGMENT {
            for (row, slot) in block.chunks_exact(dim).zip(out.iter_mut()) {
                *slot = weighted_sq_row_bounded(weights, query, row, bound);
            }
        } else {
            let mut pairs = block.chunks_exact(2 * dim);
            let mut slots = out.chunks_exact_mut(2);
            for (pair, slot) in (&mut pairs).zip(&mut slots) {
                let (a, b) = weighted_sq_row2(weights, query, &pair[..dim], &pair[dim..]);
                slot[0] = a;
                slot[1] = b;
            }
            let rem = pairs.remainder();
            if let Some(slot) = slots.into_remainder().first_mut() {
                *slot = weighted_sq_row(weights, query, &rem[..dim]);
            }
        }
    }

    /// Weighted squared-Euclidean f32 keys for Q queries × one block
    /// (row-outer, `w_stride` as in the f64 multi kernel).
    #[inline(always)]
    pub(super) fn weighted_sq_multi(
        weights: &[f32],
        w_stride: usize,
        queries: &[f32],
        block: &[f32],
        dim: usize,
        bounds: &[f32],
        out: &mut [f32],
    ) {
        let rows = block.len().checked_div(dim).unwrap_or(0);
        for (r, row) in block.chunks_exact(dim).enumerate() {
            for (q, query) in queries.chunks_exact(dim).enumerate() {
                let w = &weights[q * w_stride..q * w_stride + dim];
                out[q * rows + r] = weighted_sq_pair(w, query, row, bounds[q]);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Explicit-intrinsic f32 kernels (x86-64, AVX2+FMA; AVX-512F for the
// rows-in-lanes order).
//
// The auto-vectorized f32 bodies above hit an LLVM lane-splitting
// pathology on this shape (the 8-lane f32 accumulator is kept as two
// xmm halves with per-iteration extracts), leaving the phase-1 pass
// compute-bound well above the mirror's streaming floor. These
// hand-written kernels do what the f64 bodies get from auto-
// vectorization alone: full-width 256-bit lanes, two rows in flight
// (two independent FMA chains hide the accumulate latency), and a
// cheap `vhaddps` reduction.
//
// The multi kernel is compute-bound once several queries share a hot
// block, and it has two evaluation orders:
//
// * Dimensions in lanes (every FMA host): a 256-bit accumulator holds
//   eight dimension residues of one (query, row) key. The kernel
//   register-blocks queries × rows: 4×2 tiles (eight FMA chains, each
//   row loaded once for four queries, eight keys reduced by six `hadd`s,
//   two `permute2f128`s and one add), then a 2×2 tile, the row-pair
//   kernel and single rows for what is left over.
// * Rows in lanes (AVX-512F hosts, batches of at least
//   `ROWS_IN_LANES_MIN_QUERIES` queries): a 16×16 in-register transpose
//   turns each 16-row group into one 512-bit vector per dimension, once
//   for the whole batch; every query then keeps eight residue partials
//   per row lane and joins them with seven vector adds, so one vector
//   holds sixteen finished keys. The transpose costs more than the
//   reductions it saves until about eight queries share a group (the
//   table on `ROWS_IN_LANES_MIN_QUERIES`). A scan can compare the
//   sixteen keys with its bound before they leave the register.
//
// Neither order changes the arithmetic of one key: lane `r` of a
// dimensions-in-lanes accumulator and partial `r` of a row lane see the
// same FMAs in the same order, both join them in `reduce`'s tree
// `((a0+a1)+(a2+a3)) + ((a4+a5)+(a6+a7))`, and both add the `dim % 8`
// tail by per-key FMAs. So the key bits do not depend on the shape or
// order a scan picks (pinned by
// `f32_multi_blocks_match_single_query_blocks`).
//
// f32 keys from this path differ in the last ulps from the portable
// chain (fused multiply-add, different reduction tree) — allowed by
// design: f32 keys only select candidates under a bound inflated by
// `Distance::f32_key_bound` (fusion only *shrinks* the rounding it
// budgets for), and the
// exact f64 rescore makes final answers identical on every host. The
// `bound` argument is accepted but not used for early abandonment:
// at the dimensionalities where this path wins, the segment check
// never fires anyway, and exact keys always satisfy the kernel
// contract.
#[cfg(target_arch = "x86_64")]
mod f32_intr {
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// `((a0+a1)+(a2+a3)) + ((a4+a5)+(a6+a7))` via two horizontal adds.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn reduce(acc: __m256) -> f32 {
        let h1 = _mm256_hadd_ps(acc, acc);
        let h2 = _mm256_hadd_ps(h1, h1);
        let lo = _mm256_castps256_ps128(h2);
        let hi = _mm256_extractf128_ps(h2, 1);
        _mm_cvtss_f32(_mm_add_ss(lo, hi))
    }

    /// One row of `Σ w·(q−r)²`; scalar tail beyond the 8-lane chunks.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn weighted_row(w: &[f32], q: &[f32], r: &[f32]) -> f32 {
        let dim = q.len();
        let chunks = dim / 8;
        let mut acc = _mm256_setzero_ps();
        for c in 0..chunks {
            let o = c * 8;
            let d = _mm256_sub_ps(
                _mm256_loadu_ps(q.as_ptr().add(o)),
                _mm256_loadu_ps(r.as_ptr().add(o)),
            );
            acc = _mm256_fmadd_ps(_mm256_loadu_ps(w.as_ptr().add(o)), _mm256_mul_ps(d, d), acc);
        }
        let mut sum = reduce(acc);
        for i in chunks * 8..dim {
            let d = q[i] - r[i];
            sum = w[i].mul_add(d * d, sum);
        }
        sum
    }

    /// Two rows of `Σ w·(q−r)²` in flight (shared q/w loads, two
    /// independent FMA chains).
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn weighted_row2(w: &[f32], q: &[f32], r0: &[f32], r1: &[f32]) -> (f32, f32) {
        let dim = q.len();
        let chunks = dim / 8;
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        for c in 0..chunks {
            let o = c * 8;
            let vq = _mm256_loadu_ps(q.as_ptr().add(o));
            let vw = _mm256_loadu_ps(w.as_ptr().add(o));
            let d0 = _mm256_sub_ps(vq, _mm256_loadu_ps(r0.as_ptr().add(o)));
            acc0 = _mm256_fmadd_ps(vw, _mm256_mul_ps(d0, d0), acc0);
            let d1 = _mm256_sub_ps(vq, _mm256_loadu_ps(r1.as_ptr().add(o)));
            acc1 = _mm256_fmadd_ps(vw, _mm256_mul_ps(d1, d1), acc1);
        }
        let mut sum0 = reduce(acc0);
        let mut sum1 = reduce(acc1);
        for i in chunks * 8..dim {
            let d0 = q[i] - r0[i];
            sum0 = w[i].mul_add(d0 * d0, sum0);
            let d1 = q[i] - r1[i];
            sum1 = w[i].mul_add(d1 * d1, sum1);
        }
        (sum0, sum1)
    }

    /// Two rows × two queries of `Σ w·(q−r)²` in flight: four
    /// independent FMA chains. The multi-query regime is compute-bound
    /// and the two-chain row-pair kernel sits on FMA-latency, so the
    /// register-blocked Q×row tile is what buys throughput: row loads
    /// are shared across the queries, query/weight loads across the
    /// rows, and the accumulator count doubles. Each (query, row) key
    /// accumulates in the same per-chunk order as
    /// [`weighted_row`]/[`weighted_row2`], so the key bits are identical
    /// whichever kernel shape a scan picks.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn weighted_row2_q2(
        w0: &[f32],
        q0: &[f32],
        w1: &[f32],
        q1: &[f32],
        r0: &[f32],
        r1: &[f32],
    ) -> (f32, f32, f32, f32) {
        let dim = q0.len();
        let chunks = dim / 8;
        let mut acc00 = _mm256_setzero_ps();
        let mut acc01 = _mm256_setzero_ps();
        let mut acc10 = _mm256_setzero_ps();
        let mut acc11 = _mm256_setzero_ps();
        for c in 0..chunks {
            let o = c * 8;
            let vr0 = _mm256_loadu_ps(r0.as_ptr().add(o));
            let vr1 = _mm256_loadu_ps(r1.as_ptr().add(o));
            let vq0 = _mm256_loadu_ps(q0.as_ptr().add(o));
            let vw0 = _mm256_loadu_ps(w0.as_ptr().add(o));
            let d00 = _mm256_sub_ps(vq0, vr0);
            acc00 = _mm256_fmadd_ps(vw0, _mm256_mul_ps(d00, d00), acc00);
            let d01 = _mm256_sub_ps(vq0, vr1);
            acc01 = _mm256_fmadd_ps(vw0, _mm256_mul_ps(d01, d01), acc01);
            let vq1 = _mm256_loadu_ps(q1.as_ptr().add(o));
            let vw1 = _mm256_loadu_ps(w1.as_ptr().add(o));
            let d10 = _mm256_sub_ps(vq1, vr0);
            acc10 = _mm256_fmadd_ps(vw1, _mm256_mul_ps(d10, d10), acc10);
            let d11 = _mm256_sub_ps(vq1, vr1);
            acc11 = _mm256_fmadd_ps(vw1, _mm256_mul_ps(d11, d11), acc11);
        }
        let mut s00 = reduce(acc00);
        let mut s01 = reduce(acc01);
        let mut s10 = reduce(acc10);
        let mut s11 = reduce(acc11);
        for i in chunks * 8..dim {
            let d00 = q0[i] - r0[i];
            s00 = w0[i].mul_add(d00 * d00, s00);
            let d01 = q0[i] - r1[i];
            s01 = w0[i].mul_add(d01 * d01, s01);
            let d10 = q1[i] - r0[i];
            s10 = w1[i].mul_add(d10 * d10, s10);
            let d11 = q1[i] - r1[i];
            s11 = w1[i].mul_add(d11 * d11, s11);
        }
        (s00, s01, s10, s11)
    }

    /// `reduce` of eight accumulators at once: lane `i` of the result is
    /// `((a0+a1)+(a2+a3)) + ((a4+a5)+(a6+a7))` of `acc[i]`, the exact
    /// tree [`reduce`] builds for one accumulator. Each `hadd` lane adds
    /// one adjacent pair (`x + y` is commutative bit for bit), the two
    /// `hadd` levels build the two quad sums per 128-bit half, the
    /// `permute2f128` pair lines up every accumulator's low quad with
    /// its high quad, and one add joins them.
    ///
    /// # Safety
    ///
    /// The host supports AVX2 and FMA.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn reduce8(acc: &[__m256; 8]) -> __m256 {
        // [a0_01 a0_23 a1_01 a1_23 | a0_45 a0_67 a1_45 a1_67], …
        let p01 = _mm256_hadd_ps(acc[0], acc[1]);
        let p23 = _mm256_hadd_ps(acc[2], acc[3]);
        let p45 = _mm256_hadd_ps(acc[4], acc[5]);
        let p67 = _mm256_hadd_ps(acc[6], acc[7]);
        // [a0_0123 a1_0123 a2_0123 a3_0123 | a0_4567 … a3_4567]
        let q0123 = _mm256_hadd_ps(p01, p23);
        let q4567 = _mm256_hadd_ps(p45, p67);
        let low = _mm256_permute2f128_ps(q0123, q4567, 0x20);
        let high = _mm256_permute2f128_ps(q0123, q4567, 0x31);
        _mm256_add_ps(low, high)
    }

    /// Four queries × two rows of `Σ w·(q−r)²` in flight: eight
    /// independent FMA chains, each row loaded once for all four
    /// queries, one transposed reduction ([`reduce8`]) for the eight
    /// keys, and the `dim % 8` tail per key after it, as in
    /// [`weighted_row2`]. Key `2·j + i` belongs to query `j`, row `i`,
    /// and its bits equal those of [`weighted_row`]/[`weighted_row2`]
    /// for that pair: same per-chunk FMA order, same reduction tree,
    /// same tail.
    ///
    /// # Safety
    ///
    /// The host supports AVX2 and FMA, and every slice holds at least
    /// `r0.len()` values (the chunk loop loads them unchecked).
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn weighted_row2_q4(w: [&[f32]; 4], q: [&[f32]; 4], r0: &[f32], r1: &[f32]) -> [f32; 8] {
        let dim = r0.len();
        let chunks = dim / 8;
        let mut acc = [_mm256_setzero_ps(); 8];
        for c in 0..chunks {
            let o = c * 8;
            let vr0 = _mm256_loadu_ps(r0.as_ptr().add(o));
            let vr1 = _mm256_loadu_ps(r1.as_ptr().add(o));
            for j in 0..4 {
                let vq = _mm256_loadu_ps(q[j].as_ptr().add(o));
                let vw = _mm256_loadu_ps(w[j].as_ptr().add(o));
                let d0 = _mm256_sub_ps(vq, vr0);
                acc[2 * j] = _mm256_fmadd_ps(vw, _mm256_mul_ps(d0, d0), acc[2 * j]);
                let d1 = _mm256_sub_ps(vq, vr1);
                acc[2 * j + 1] = _mm256_fmadd_ps(vw, _mm256_mul_ps(d1, d1), acc[2 * j + 1]);
            }
        }
        let mut sums = [0.0f32; 8];
        _mm256_storeu_ps(sums.as_mut_ptr(), reduce8(&acc));
        for i in chunks * 8..dim {
            for j in 0..4 {
                let d0 = q[j][i] - r0[i];
                sums[2 * j] = w[j][i].mul_add(d0 * d0, sums[2 * j]);
                let d1 = q[j][i] - r1[i];
                sums[2 * j + 1] = w[j][i].mul_add(d1 * d1, sums[2 * j + 1]);
            }
        }
        sums
    }

    /// Weighted block kernel: row pairs, remainder row single.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn weighted_sq_block(
        weights: &[f32],
        query: &[f32],
        block: &[f32],
        dim: usize,
        _bound: f32,
        out: &mut [f32],
    ) {
        let mut pairs = block.chunks_exact(2 * dim);
        let mut slots = out.chunks_exact_mut(2);
        for (pair, slot) in (&mut pairs).zip(&mut slots) {
            let (a, b) = weighted_row2(weights, query, &pair[..dim], &pair[dim..]);
            slot[0] = a;
            slot[1] = b;
        }
        let rem = pairs.remainder();
        if let Some(slot) = slots.into_remainder().first_mut() {
            *slot = weighted_row(weights, query, &rem[..dim]);
        }
    }

    /// Weighted multi kernel (`w_stride` as in the portable version).
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn weighted_sq_multi(
        weights: &[f32],
        w_stride: usize,
        queries: &[f32],
        block: &[f32],
        dim: usize,
        bounds: &[f32],
        out: &mut [f32],
    ) {
        let rows = block.len().checked_div(dim).unwrap_or(0);
        if rows == 0 {
            return;
        }
        let nq = bounds.len();
        let query = |q: usize| &queries[q * dim..(q + 1) * dim];
        let weight = |q: usize| &weights[q * w_stride..q * w_stride + dim];
        let pairs = || block.chunks_exact(2 * dim).enumerate();
        let odd = (rows % 2 == 1).then(|| &block[(rows - 1) * dim..rows * dim]);
        let mut key_rows = out.chunks_exact_mut(rows);
        let mut next_keys = || key_rows.next().expect("one key row per query");
        // Query quads through the 4×2 tile (eight FMA chains), then a
        // query pair through the 2×2 tile, then an odd query through the
        // row-pair kernel; an odd trailing row takes the one-row kernel.
        let mut q = 0;
        while q + 4 <= nq {
            let w = [weight(q), weight(q + 1), weight(q + 2), weight(q + 3)];
            let qs = [query(q), query(q + 1), query(q + 2), query(q + 3)];
            let mut keys = [next_keys(), next_keys(), next_keys(), next_keys()];
            for (i, pair) in pairs() {
                let sums = weighted_row2_q4(w, qs, &pair[..dim], &pair[dim..]);
                for (j, k) in keys.iter_mut().enumerate() {
                    k[2 * i] = sums[2 * j];
                    k[2 * i + 1] = sums[2 * j + 1];
                }
            }
            if let Some(odd) = odd {
                for (j, k) in keys.iter_mut().enumerate() {
                    k[rows - 1] = weighted_row(w[j], qs[j], odd);
                }
            }
            q += 4;
        }
        if q + 2 <= nq {
            let (w0, q0, w1, q1) = (weight(q), query(q), weight(q + 1), query(q + 1));
            let (k0, k1) = (next_keys(), next_keys());
            for (i, pair) in pairs() {
                let (s00, s01, s10, s11) =
                    weighted_row2_q2(w0, q0, w1, q1, &pair[..dim], &pair[dim..]);
                k0[2 * i] = s00;
                k0[2 * i + 1] = s01;
                k1[2 * i] = s10;
                k1[2 * i + 1] = s11;
            }
            if let Some(odd) = odd {
                k0[rows - 1] = weighted_row(w0, q0, odd);
                k1[rows - 1] = weighted_row(w1, q1, odd);
            }
            q += 2;
        }
        if q < nq {
            let (w0, q0, k0) = (weight(q), query(q), next_keys());
            for (i, pair) in pairs() {
                let (a, b) = weighted_row2(w0, q0, &pair[..dim], &pair[dim..]);
                k0[2 * i] = a;
                k0[2 * i + 1] = b;
            }
            if let Some(odd) = odd {
                k0[rows - 1] = weighted_row(w0, q0, odd);
            }
        }
    }

    /// Rows of one lane group of the rows-in-lanes order: one `__m512`
    /// holds a key of each.
    const GROUP: usize = 16;

    /// The lane mask of a group's first `valid` rows.
    #[inline]
    fn group_mask(valid: usize) -> __mmask16 {
        ((1u32 << valid) - 1) as __mmask16
    }

    /// In-register transpose of a 16×16 tile: lane `l` of output `d` is
    /// lane `d` of input `l`. Unpacks interleave row pairs, in-lane
    /// shuffles gather row quads, and two levels of 128-bit shuffles
    /// line the four quads of each column up.
    ///
    /// # Safety
    ///
    /// The host supports AVX-512F.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn transpose16(r: &[__m512; GROUP]) -> [__m512; GROUP] {
        let mut t = [_mm512_setzero_ps(); GROUP];
        for p in 0..GROUP / 2 {
            t[2 * p] = _mm512_unpacklo_ps(r[2 * p], r[2 * p + 1]);
            t[2 * p + 1] = _mm512_unpackhi_ps(r[2 * p], r[2 * p + 1]);
        }
        // Lane m (128-bit) of u[4g + j] holds column 4m + j of rows
        // 4g..4g + 4.
        let mut u = [_mm512_setzero_ps(); GROUP];
        for g in 0..4 {
            let (lo01, hi01, lo23, hi23) = (t[4 * g], t[4 * g + 1], t[4 * g + 2], t[4 * g + 3]);
            u[4 * g] = _mm512_shuffle_ps::<0x44>(lo01, lo23);
            u[4 * g + 1] = _mm512_shuffle_ps::<0xEE>(lo01, lo23);
            u[4 * g + 2] = _mm512_shuffle_ps::<0x44>(hi01, hi23);
            u[4 * g + 3] = _mm512_shuffle_ps::<0xEE>(hi01, hi23);
        }
        let mut out = [_mm512_setzero_ps(); GROUP];
        for j in 0..4 {
            let even01 = _mm512_shuffle_f32x4::<0x88>(u[j], u[4 + j]);
            let even23 = _mm512_shuffle_f32x4::<0x88>(u[8 + j], u[12 + j]);
            let odd01 = _mm512_shuffle_f32x4::<0xDD>(u[j], u[4 + j]);
            let odd23 = _mm512_shuffle_f32x4::<0xDD>(u[8 + j], u[12 + j]);
            out[j] = _mm512_shuffle_f32x4::<0x88>(even01, even23);
            out[8 + j] = _mm512_shuffle_f32x4::<0xDD>(even01, even23);
            out[4 + j] = _mm512_shuffle_f32x4::<0x88>(odd01, odd23);
            out[12 + j] = _mm512_shuffle_f32x4::<0xDD>(odd01, odd23);
        }
        out
    }

    /// Transpose the `valid` rows of one lane group (`group` holds
    /// `valid × dim` floats, row-major) into `t`: `t[i·16 + l]` is
    /// dimension `i` of row `l`, lanes `valid..16` hold zeros, and the
    /// columns past `dim` that pad the last 16-wide tile hold zeros too.
    ///
    /// # Safety
    ///
    /// The host supports AVX-512F, `1 ≤ valid ≤ 16`, `group` holds
    /// `valid × dim` floats and `t` holds `⌈dim/16⌉ × 256`. The masked
    /// loads read only dimensions `< dim` of rows `< valid`; a lane past
    /// `valid` loads nothing (an empty mask at the group's first row).
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn transpose_group(group: &[f32], dim: usize, valid: usize, t: &mut [f32]) {
        for c in (0..dim).step_by(GROUP) {
            let width = group_mask((dim - c).min(GROUP));
            let mut rows = [_mm512_setzero_ps(); GROUP];
            for (l, row) in rows.iter_mut().enumerate() {
                let (mask, at) = if l < valid {
                    (width, l * dim + c)
                } else {
                    (0, 0)
                };
                *row = _mm512_maskz_loadu_ps(mask, group.as_ptr().add(at));
            }
            for (j, col) in transpose16(&rows).iter().enumerate() {
                _mm512_storeu_ps(t.as_mut_ptr().add((c + j) * GROUP), *col);
            }
        }
    }

    /// Sixteen keys of one query against a transposed lane group: lane
    /// `l` accumulates the dims `i ≡ r (mod 8)` of row `l` in partial
    /// `r` with the same FMAs, in the same order, as accumulator lane
    /// `r` of [`weighted_row`], joins the partials in [`reduce`]'s tree
    /// `((p0+p1)+(p2+p3)) + ((p4+p5)+(p6+p7))` and adds the `dim % 8`
    /// tail per lane — so every lane carries the bits the row-major
    /// kernels give its row.
    ///
    /// # Safety
    ///
    /// The host supports AVX-512F and FMA; `w` and `q` point at `dim`
    /// floats and `t` at `dim × 16`.
    #[inline]
    #[target_feature(enable = "avx512f,fma")]
    unsafe fn lane_keys(w: *const f32, q: *const f32, t: *const f32, dim: usize) -> __m512 {
        #[inline]
        #[target_feature(enable = "avx512f,fma")]
        unsafe fn term(
            w: *const f32,
            q: *const f32,
            t: *const f32,
            i: usize,
            acc: __m512,
        ) -> __m512 {
            let d = _mm512_sub_ps(_mm512_set1_ps(*q.add(i)), _mm512_loadu_ps(t.add(i * GROUP)));
            _mm512_fmadd_ps(_mm512_set1_ps(*w.add(i)), _mm512_mul_ps(d, d), acc)
        }
        let chunks = dim / 8;
        let mut p = [_mm512_setzero_ps(); 8];
        for c in 0..chunks {
            for (r, acc) in p.iter_mut().enumerate() {
                *acc = term(w, q, t, c * 8 + r, *acc);
            }
        }
        let mut keys = _mm512_add_ps(
            _mm512_add_ps(_mm512_add_ps(p[0], p[1]), _mm512_add_ps(p[2], p[3])),
            _mm512_add_ps(_mm512_add_ps(p[4], p[5]), _mm512_add_ps(p[6], p[7])),
        );
        for i in chunks * 8..dim {
            keys = term(w, q, t, i, keys);
        }
        keys
    }

    std::thread_local! {
        /// The transposed lane group of [`lanes_multi`], kept per thread
        /// across calls and grown to the largest `dim` seen.
        static GROUP_SCRATCH: std::cell::Cell<Vec<f32>> = const { std::cell::Cell::new(Vec::new()) };
    }

    /// The rows-in-lanes multi kernel: transpose each 16-row group of
    /// `block` once ([`transpose_group`]), score it against every query
    /// ([`lane_keys`]) and hand `visit(q, first row, valid rows, keys)`
    /// each query's sixteen keys in register. The 4×2 tile shares a row
    /// load across four queries; this order shares one transposed group
    /// across the whole batch and reduces sixteen keys with seven adds,
    /// so it wins once a batch holds enough queries
    /// ([`super::ROWS_IN_LANES_MIN_QUERIES`]).
    ///
    /// # Safety
    ///
    /// The host supports AVX-512F and FMA; `queries` holds `nq × dim`
    /// floats, `weights` `(nq − 1)·w_stride + dim`, and `block` a whole
    /// number of `dim`-float rows.
    #[inline]
    #[target_feature(enable = "avx512f,fma")]
    unsafe fn lanes_multi(
        weights: &[f32],
        w_stride: usize,
        queries: &[f32],
        block: &[f32],
        dim: usize,
        nq: usize,
        mut visit: impl FnMut(usize, usize, usize, __m512),
    ) {
        let rows = block.len().checked_div(dim).unwrap_or(0);
        if rows == 0 {
            return;
        }
        // A scan calls this once per block: reuse the thread's buffer
        // (a nested call would find it taken and allocate its own).
        let mut t = GROUP_SCRATCH.take();
        t.resize(t.len().max(dim.next_multiple_of(GROUP) * GROUP), 0.0);
        for row0 in (0..rows).step_by(GROUP) {
            let valid = (rows - row0).min(GROUP);
            transpose_group(&block[row0 * dim..(row0 + valid) * dim], dim, valid, &mut t);
            // The scoring below outlasts the out-of-order window, so ask
            // for the next group's lines now.
            let next = &block[((row0 + GROUP) * dim).min(block.len())..];
            for line in next.iter().take(GROUP * dim).step_by(16) {
                _mm_prefetch::<_MM_HINT_T0>((line as *const f32).cast());
            }
            for q in 0..nq {
                let w = weights.as_ptr().add(q * w_stride);
                let keys = lane_keys(w, queries.as_ptr().add(q * dim), t.as_ptr(), dim);
                visit(q, row0, valid, keys);
            }
        }
        GROUP_SCRATCH.set(t);
    }

    /// Rows-in-lanes weighted keys (`w_stride` as in
    /// [`weighted_sq_multi`]), every key written to `out` (`q·rows + r`).
    ///
    /// # Safety
    ///
    /// The host supports AVX-512F and FMA, and the slices hold the
    /// lengths `super::weighted_sq_multi_block_f32` asserts.
    #[target_feature(enable = "avx512f,fma")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn weighted_sq_multi_lanes(
        weights: &[f32],
        w_stride: usize,
        queries: &[f32],
        block: &[f32],
        dim: usize,
        bounds: &[f32],
        out: &mut [f32],
    ) {
        let rows = block.len().checked_div(dim).unwrap_or(0);
        let keys = out.as_mut_ptr();
        lanes_multi(
            weights,
            w_stride,
            queries,
            block,
            dim,
            bounds.len(),
            |q, r, valid, k| {
                // SAFETY: AVX-512F is this function's precondition; `out`
                // holds `nq × rows` keys and `r + valid ≤ rows`, so the
                // masked store writes only keys `q·rows + r..q·rows + r + valid`.
                unsafe { _mm512_mask_storeu_ps(keys.add(q * rows + r), group_mask(valid), k) }
            },
        );
    }

    /// Rows-in-lanes weighted keys admitted in register: each query's
    /// sixteen keys of a group are compared with its `lane_bounds[q]`,
    /// and only a group with a set lane is stored and handed to
    /// `admit(q, first row, mask, keys of the valid rows)`. Returns
    /// whether some valid row of some query failed its lane bound.
    ///
    /// # Safety
    ///
    /// As for [`weighted_sq_multi_lanes`], with `lane_bounds` holding
    /// one bound per query.
    #[target_feature(enable = "avx512f,fma")]
    pub(super) unsafe fn weighted_sq_multi_lanes_admit(
        weights: &[f32],
        w_stride: usize,
        queries: &[f32],
        block: &[f32],
        dim: usize,
        lane_bounds: &[f32],
        mut admit: impl FnMut(usize, usize, u32, &[f32]),
    ) -> bool {
        let nq = lane_bounds.len();
        let mut failed = false;
        lanes_multi(
            weights,
            w_stride,
            queries,
            block,
            dim,
            nq,
            |q, r, valid, keys| {
                let all = group_mask(valid);
                // `LE_OQ` is false for NaN, like `<=`.
                let mask = _mm512_mask_cmp_ps_mask::<_CMP_LE_OQ>(
                    all,
                    keys,
                    _mm512_set1_ps(lane_bounds[q]),
                );
                failed |= mask != all;
                if mask != 0 {
                    let mut lanes = [0.0f32; GROUP];
                    // SAFETY: AVX-512F is this function's precondition;
                    // `lanes` holds the sixteen floats the store writes.
                    unsafe { _mm512_storeu_ps(lanes.as_mut_ptr(), keys) };
                    admit(q, r, u32::from(mask), &lanes[..valid]);
                }
            },
        );
        failed
    }
}

// ---------------------------------------------------------------------
// ISA multiversioning.
//
// The default x86-64 target only assumes SSE2 (two f64 lanes). The block
// entry points below re-compile the *same* portable bodies with wider
// vector features enabled and select a version once at runtime. Because
// every f64 version executes the identical lane-structured code (no FMA
// contraction, no reassociation — vectorization maps accumulator lanes
// 1:1), all f64 versions produce bit-identical results; only throughput
// changes. The f32 dispatchers additionally route to the `f32_intr`
// intrinsics on FMA-capable hosts, which trade that cross-host bit
// stability (covered by the rescore design, see the module docs) for
// reaching the mirror's streaming bandwidth.

#[cfg(target_arch = "x86_64")]
mod dispatch {
    use std::sync::atomic::{AtomicU8, Ordering};

    const UNKNOWN: u8 = 0;
    const PORTABLE: u8 = 1;
    const AVX2: u8 = 2;
    const AVX512: u8 = 3;

    static LEVEL: AtomicU8 = AtomicU8::new(UNKNOWN);

    /// Cached FMA capability (0 unknown, 1 no, 2 yes) — consulted only
    /// by the f32 dispatchers; the f64 kernels never use FMA so they
    /// stay bit-identical across every x86-64 host.
    static FMA: AtomicU8 = AtomicU8::new(0);

    #[inline]
    pub(super) fn has_fma() -> bool {
        match FMA.load(Ordering::Relaxed) {
            0 => {
                let f = if is_x86_feature_detected!("fma") {
                    2
                } else {
                    1
                };
                FMA.store(f, Ordering::Relaxed);
                f == 2
            }
            f => f == 2,
        }
    }

    #[inline]
    pub(super) fn level() -> u8 {
        match LEVEL.load(Ordering::Relaxed) {
            UNKNOWN => {
                let l = if is_x86_feature_detected!("avx512f") {
                    AVX512
                } else if is_x86_feature_detected!("avx2") {
                    AVX2
                } else {
                    PORTABLE
                };
                LEVEL.store(l, Ordering::Relaxed);
                l
            }
            l => l,
        }
    }

    /// Whether the host runs the rows-in-lanes f32 kernels: AVX-512F
    /// and FMA.
    #[inline]
    pub(super) fn has_avx512_fma() -> bool {
        level() == AVX512 && has_fma()
    }

    macro_rules! isa_versions {
        ($feature:literal, $weighted:ident, $weighted_multi:ident) => {
            #[target_feature(enable = $feature)]
            pub(super) unsafe fn $weighted(
                weights: &[f64],
                query: &[f64],
                block: &[f64],
                dim: usize,
                bound: f64,
                out: &mut [f64],
            ) {
                super::weighted_sq_block_impl(weights, query, block, dim, bound, out);
            }

            #[target_feature(enable = $feature)]
            #[allow(clippy::too_many_arguments)]
            pub(super) unsafe fn $weighted_multi(
                weights: &[f64],
                w_stride: usize,
                queries: &[f64],
                block: &[f64],
                dim: usize,
                bounds: &[f64],
                out: &mut [f64],
            ) {
                super::weighted_sq_multi_impl(weights, w_stride, queries, block, dim, bounds, out);
            }
        };
    }

    isa_versions!("avx2", weighted_avx2, weighted_multi_avx2);
    isa_versions!("avx512f", weighted_avx512, weighted_multi_avx512);

    // f32 ISA versions of the portable `f32_plain` chain — used on
    // AVX2/AVX-512 hosts WITHOUT the FMA feature. FMA-capable hosts
    // never reach these: the dispatchers below route them to the
    // `f32_intr` intrinsics instead.
    macro_rules! isa_versions_f32 {
        ($feature:literal, $chain:ident, $weighted:ident, $weighted_multi:ident) => {
            #[target_feature(enable = $feature)]
            pub(super) unsafe fn $weighted(
                weights: &[f32],
                query: &[f32],
                block: &[f32],
                dim: usize,
                bound: f32,
                out: &mut [f32],
            ) {
                super::$chain::weighted_sq_block(weights, query, block, dim, bound, out);
            }

            #[target_feature(enable = $feature)]
            #[allow(clippy::too_many_arguments)]
            pub(super) unsafe fn $weighted_multi(
                weights: &[f32],
                w_stride: usize,
                queries: &[f32],
                block: &[f32],
                dim: usize,
                bounds: &[f32],
                out: &mut [f32],
            ) {
                super::$chain::weighted_sq_multi(
                    weights, w_stride, queries, block, dim, bounds, out,
                );
            }
        };
    }

    isa_versions_f32!(
        "avx2",
        f32_plain,
        weighted_f32_avx2,
        weighted_multi_f32_avx2
    );
    isa_versions_f32!(
        "avx512f",
        f32_plain,
        weighted_f32_avx512,
        weighted_multi_f32_avx512
    );

    #[inline]
    pub(super) fn weighted(
        weights: &[f64],
        query: &[f64],
        block: &[f64],
        dim: usize,
        bound: f64,
        out: &mut [f64],
    ) {
        match level() {
            // SAFETY: the matching CPU feature was detected above.
            AVX512 => unsafe { weighted_avx512(weights, query, block, dim, bound, out) },
            AVX2 => unsafe { weighted_avx2(weights, query, block, dim, bound, out) },
            _ => super::weighted_sq_block_impl(weights, query, block, dim, bound, out),
        }
    }

    #[inline]
    pub(super) fn weighted_multi(
        weights: &[f64],
        w_stride: usize,
        queries: &[f64],
        block: &[f64],
        dim: usize,
        bounds: &[f64],
        out: &mut [f64],
    ) {
        match level() {
            // SAFETY: the matching CPU feature was detected above.
            AVX512 => unsafe {
                weighted_multi_avx512(weights, w_stride, queries, block, dim, bounds, out)
            },
            AVX2 => unsafe {
                weighted_multi_avx2(weights, w_stride, queries, block, dim, bounds, out)
            },
            _ => super::weighted_sq_multi_impl(weights, w_stride, queries, block, dim, bounds, out),
        }
    }

    #[inline]
    pub(super) fn weighted_f32(
        weights: &[f32],
        query: &[f32],
        block: &[f32],
        dim: usize,
        bound: f32,
        out: &mut [f32],
    ) {
        match (level(), has_fma()) {
            // SAFETY: the matching CPU features were detected above.
            (AVX512 | AVX2, true) => unsafe {
                super::f32_intr::weighted_sq_block(weights, query, block, dim, bound, out)
            },
            (AVX512, false) => unsafe {
                weighted_f32_avx512(weights, query, block, dim, bound, out)
            },
            (AVX2, false) => unsafe { weighted_f32_avx2(weights, query, block, dim, bound, out) },
            _ => super::f32_plain::weighted_sq_block(weights, query, block, dim, bound, out),
        }
    }

    #[inline]
    pub(super) fn weighted_multi_f32(
        weights: &[f32],
        w_stride: usize,
        queries: &[f32],
        block: &[f32],
        dim: usize,
        bounds: &[f32],
        out: &mut [f32],
    ) {
        match (level(), has_fma()) {
            // SAFETY: AVX-512F and FMA were detected; the caller asserted
            // the weight, query, block and key lengths the kernel reads.
            (AVX512, true) if bounds.len() >= super::ROWS_IN_LANES_MIN_QUERIES => unsafe {
                super::f32_intr::weighted_sq_multi_lanes(
                    weights, w_stride, queries, block, dim, bounds, out,
                )
            },
            // SAFETY: the matching CPU features were detected above.
            (AVX512 | AVX2, true) => unsafe {
                super::f32_intr::weighted_sq_multi(
                    weights, w_stride, queries, block, dim, bounds, out,
                )
            },
            (AVX512, false) => unsafe {
                weighted_multi_f32_avx512(weights, w_stride, queries, block, dim, bounds, out)
            },
            (AVX2, false) => unsafe {
                weighted_multi_f32_avx2(weights, w_stride, queries, block, dim, bounds, out)
            },
            _ => super::f32_plain::weighted_sq_multi(
                weights, w_stride, queries, block, dim, bounds, out,
            ),
        }
    }
}

/// Weighted squared-Euclidean keys for a row-major block.
pub(crate) fn weighted_sq_block(
    weights: &[f64],
    query: &[f64],
    block: &[f64],
    dim: usize,
    bound: f64,
    out: &mut [f64],
) {
    debug_assert_eq!(query.len(), dim);
    debug_assert_eq!(weights.len(), dim);
    debug_assert_eq!(block.len(), dim * out.len());
    #[cfg(target_arch = "x86_64")]
    {
        dispatch::weighted(weights, query, block, dim, bound, out)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        weighted_sq_block_impl(weights, query, block, dim, bound, out)
    }
}

/// Weighted squared-Euclidean keys for `Q` queries against one
/// row-major block in a single pass (each block row read once for all
/// queries). `queries` is `Q × dim`, `bounds` is `Q` per-query key-space
/// thresholds, `out` is `Q × rows` row-major per query. `w_stride = 0`
/// shares one weight row across queries; `w_stride = dim` gives each
/// query its own row of `weights`.
pub(crate) fn weighted_sq_multi_block(
    weights: &[f64],
    w_stride: usize,
    queries: &[f64],
    block: &[f64],
    dim: usize,
    bounds: &[f64],
    out: &mut [f64],
) {
    let nq = bounds.len();
    debug_assert!(w_stride == 0 || w_stride == dim);
    debug_assert_eq!(queries.len(), nq * dim);
    debug_assert_eq!(weights.len(), if w_stride == 0 { dim } else { nq * dim });
    debug_assert_eq!(out.len() * dim, nq * block.len());
    #[cfg(target_arch = "x86_64")]
    {
        dispatch::weighted_multi(weights, w_stride, queries, block, dim, bounds, out)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        weighted_sq_multi_impl(weights, w_stride, queries, block, dim, bounds, out)
    }
}

/// Weighted squared-Euclidean f32 keys for a row-major f32 block (the
/// phase-1 filter of the f32-rescore scan).
pub(crate) fn weighted_sq_block_f32(
    weights: &[f32],
    query: &[f32],
    block: &[f32],
    dim: usize,
    bound: f32,
    out: &mut [f32],
) {
    // Release-mode asserts: the intrinsic path below does unchecked
    // vector loads, so the length contract must hold even when
    // debug_asserts compile out. Checked once per block call.
    assert_eq!(query.len(), dim);
    assert_eq!(weights.len(), dim);
    assert_eq!(block.len(), dim * out.len());
    #[cfg(target_arch = "x86_64")]
    {
        dispatch::weighted_f32(weights, query, block, dim, bound, out)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        f32_plain::weighted_sq_block(weights, query, block, dim, bound, out)
    }
}

/// Weighted squared-Euclidean f32 keys for `Q` queries against one f32
/// block in a single pass: `weights` holds one weight vector for every
/// query (`w_stride = 0`) or one per query (`w_stride = dim`), and key
/// `q·rows + r` belongs to query `q`, row `r`.
///
/// # Panics
///
/// Panics when the slice lengths do not fit `dim`, `w_stride` and the
/// query count `bounds.len()`.
pub fn weighted_sq_multi_block_f32(
    weights: &[f32],
    w_stride: usize,
    queries: &[f32],
    block: &[f32],
    dim: usize,
    bounds: &[f32],
    out: &mut [f32],
) {
    let nq = bounds.len();
    // Release-mode asserts: see `weighted_sq_block_f32`.
    assert!(w_stride == 0 || w_stride == dim);
    assert_eq!(queries.len(), nq * dim);
    assert_eq!(weights.len(), if w_stride == 0 { dim } else { nq * dim });
    assert_eq!(out.len() * dim, nq * block.len());
    #[cfg(target_arch = "x86_64")]
    {
        dispatch::weighted_multi_f32(weights, w_stride, queries, block, dim, bounds, out)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        f32_plain::weighted_sq_multi(weights, w_stride, queries, block, dim, bounds, out)
    }
}

/// Whether the f32 multi kernel scores a batch of `nq` queries
/// in the rows-in-lanes order on this host ([`ROWS_IN_LANES_MIN_QUERIES`]),
/// which is when [`weighted_sq_multi_admit_f32`] may run.
pub(crate) fn rows_in_lanes(nq: usize) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        nq >= ROWS_IN_LANES_MIN_QUERIES && dispatch::has_avx512_fma()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = nq;
        false
    }
}

/// The keys of [`weighted_sq_multi_block_f32`] in the rows-in-lanes
/// order, admitted in register instead of written out: per query and
/// 16-row group, the keys `≤ lane_bounds[q]` set a lane mask, and only
/// a group with a set lane reaches `admit(q, first row of the group,
/// mask, keys of the group's rows)`. Returns whether some row of some
/// query failed its lane bound. The keys a group hands over are
/// bit-identical to those [`weighted_sq_multi_block_f32`] writes.
///
/// # Panics
///
/// Panics unless [`rows_in_lanes`] holds for `lane_bounds.len()`
/// queries, and when the slice lengths do not fit as there.
pub(crate) fn weighted_sq_multi_admit_f32(
    weights: &[f32],
    w_stride: usize,
    queries: &[f32],
    block: &[f32],
    dim: usize,
    lane_bounds: &[f32],
    admit: impl FnMut(usize, usize, u32, &[f32]),
) -> bool {
    let nq = lane_bounds.len();
    assert!(
        rows_in_lanes(nq),
        "the rows-in-lanes kernel does not serve this batch"
    );
    // Release-mode asserts: see `weighted_sq_block_f32`.
    assert!(w_stride == 0 || w_stride == dim);
    assert_eq!(queries.len(), nq * dim);
    assert_eq!(weights.len(), if w_stride == 0 { dim } else { nq * dim });
    assert_eq!(block.len() % dim.max(1), 0);
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `rows_in_lanes` detected AVX-512F and FMA, and the asserts
    // above give the slice lengths the kernel reads.
    unsafe {
        f32_intr::weighted_sq_multi_lanes_admit(
            weights,
            w_stride,
            queries,
            block,
            dim,
            lane_bounds,
            admit,
        )
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (weights, block, admit);
        unreachable!("rows_in_lanes is false off x86-64")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_weighted(w: &[f64], a: &[f64], b: &[f64]) -> f64 {
        w.iter()
            .zip(a.iter().zip(b.iter()))
            .map(|(w, (x, y))| w * (x - y) * (x - y))
            .sum()
    }

    #[test]
    fn rows_match_naive_all_dims() {
        for dim in [1, 3, 4, 7, 8, 9, 16, 17, 33, 64] {
            let q: Vec<f64> = (0..dim).map(|i| (i as f64).sin()).collect();
            let r: Vec<f64> = (0..dim).map(|i| (i as f64 * 0.7).cos()).collect();
            let w: Vec<f64> = (0..dim).map(|i| 0.5 + (i % 5) as f64).collect();
            let got = weighted_sq_row(&w, &q, &r);
            let want = naive_weighted(&w, &q, &r);
            assert!((got - want).abs() < 1e-12 * want.max(1.0), "dim {dim}");
            // Unit weights give the plain Euclidean sum.
            let got2 = weighted_sq_row(&vec![1.0; dim], &q, &r);
            let want2: f64 = q.iter().zip(&r).map(|(x, y)| (x - y) * (x - y)).sum();
            assert!((got2 - want2).abs() < 1e-12 * want2.max(1.0), "dim {dim}");
        }
    }

    #[test]
    fn blocks_match_rows() {
        let dim = 24;
        let rows = 19; // not a multiple of the unroll width
        let q: Vec<f64> = (0..dim).map(|i| i as f64 * 0.1).collect();
        let block: Vec<f64> = (0..rows * dim).map(|i| (i as f64 * 0.3).sin()).collect();
        let w: Vec<f64> = (0..dim).map(|i| 1.0 + (i % 3) as f64).collect();
        let mut out = vec![0.0; rows];
        weighted_sq_block(&w, &q, &block, dim, f64::INFINITY, &mut out);
        for (i, row) in block.chunks_exact(dim).enumerate() {
            assert_eq!(out[i], weighted_sq_row(&w, &q, row));
        }
    }

    #[test]
    fn multi_blocks_match_single_query_blocks() {
        let dim = 24;
        let rows = 19;
        let nq = 5;
        let queries: Vec<f64> = (0..nq * dim).map(|i| (i as f64 * 0.13).cos()).collect();
        let block: Vec<f64> = (0..rows * dim).map(|i| (i as f64 * 0.3).sin()).collect();
        let shared_w: Vec<f64> = (0..dim).map(|i| 1.0 + (i % 3) as f64).collect();
        let per_q_w: Vec<f64> = (0..nq * dim).map(|i| 0.5 + (i % 7) as f64).collect();
        let bounds = vec![f64::INFINITY; nq];
        let mut single = vec![0.0; rows];
        let mut multi = vec![0.0; nq * rows];
        // Multi vs per-query single blocks, bit-identical: shared
        // weights (stride 0).
        weighted_sq_multi_block(&shared_w, 0, &queries, &block, dim, &bounds, &mut multi);
        for q in 0..nq {
            weighted_sq_block(
                &shared_w,
                &queries[q * dim..(q + 1) * dim],
                &block,
                dim,
                f64::INFINITY,
                &mut single,
            );
            assert_eq!(&multi[q * rows..(q + 1) * rows], &single[..], "shared q{q}");
        }
        // Weighted multi, per-query weights (stride dim).
        weighted_sq_multi_block(&per_q_w, dim, &queries, &block, dim, &bounds, &mut multi);
        for q in 0..nq {
            weighted_sq_block(
                &per_q_w[q * dim..(q + 1) * dim],
                &queries[q * dim..(q + 1) * dim],
                &block,
                dim,
                f64::INFINITY,
                &mut single,
            );
            assert_eq!(&multi[q * rows..(q + 1) * rows], &single[..], "per-q q{q}");
        }
    }

    #[test]
    fn multi_blocks_respect_per_query_bounds() {
        let dim = 96; // > SEGMENT so the bounded path engages
        let rows = 16;
        let nq = 3;
        let queries = vec![0.0; nq * dim];
        let block: Vec<f64> = (0..rows * dim).map(|i| (i % 13) as f64 * 0.21).collect();
        let unit = vec![1.0; dim];
        let mut exact = vec![0.0; nq * rows];
        weighted_sq_multi_block(
            &unit,
            0,
            &queries,
            &block,
            dim,
            &[f64::INFINITY; 3],
            &mut exact,
        );
        // Distinct bound per query: tight, median, infinite.
        let mut sorted: Vec<f64> = exact[..rows].to_vec();
        sorted.sort_by(f64::total_cmp);
        let bounds = [sorted[2], sorted[rows / 2], f64::INFINITY];
        let mut bounded = vec![0.0; nq * rows];
        weighted_sq_multi_block(&unit, 0, &queries, &block, dim, &bounds, &mut bounded);
        for q in 0..nq {
            for r in 0..rows {
                let (e, b) = (exact[q * rows + r], bounded[q * rows + r]);
                if e <= bounds[q] {
                    assert_eq!(e, b, "q{q} r{r}: rows within the bound must be exact");
                } else {
                    assert!(
                        b > bounds[q],
                        "q{q} r{r}: abandoned rows stay over the bound"
                    );
                }
            }
        }
    }

    #[test]
    fn f32_rows_approximate_f64_rows() {
        for dim in [1, 3, 8, 15, 16, 17, 33, 64, 96] {
            let q: Vec<f64> = (0..dim).map(|i| (i as f64).sin()).collect();
            let r: Vec<f64> = (0..dim).map(|i| (i as f64 * 0.7).cos()).collect();
            let w: Vec<f64> = (0..dim).map(|i| 0.5 + (i % 5) as f64).collect();
            let q32: Vec<f32> = q.iter().map(|&v| v as f32).collect();
            let r32: Vec<f32> = r.iter().map(|&v| v as f32).collect();
            let w32: Vec<f32> = w.iter().map(|&v| v as f32).collect();
            // The portable chain and whatever variant the host
            // dispatches (possibly the FMA intrinsics) both stay within
            // f32 rounding of the f64 reference.
            let mut dispatched = [0.0f32; 1];
            weighted_sq_block_f32(&w32, &q32, &r32, dim, f32::INFINITY, &mut dispatched);
            for (name, approx) in [
                ("plain", f32_plain::weighted_sq_row(&w32, &q32, &r32)),
                ("dispatched", dispatched[0]),
            ] {
                let exact = weighted_sq_row(&w, &q, &r);
                assert!(
                    (exact - approx as f64).abs() <= 1e-4 * exact.max(1.0),
                    "dim {dim} {name}: f32 {approx} vs f64 {exact}"
                );
            }
        }
    }

    #[test]
    fn f32_blocks_match_single_row_blocks() {
        // The dispatched block kernel must give every row the same key a
        // one-row block call gives it (whatever ISA/FMA variant the host
        // selected — both calls go through the same dispatch).
        let dim = 24;
        let rows = 19;
        let q: Vec<f32> = (0..dim).map(|i| i as f32 * 0.1).collect();
        let block: Vec<f32> = (0..rows * dim).map(|i| (i as f32 * 0.3).sin()).collect();
        let w: Vec<f32> = (0..dim).map(|i| 1.0 + (i % 3) as f32).collect();
        let mut out = vec![0.0f32; rows];
        let mut one = [0.0f32; 1];
        weighted_sq_block_f32(&w, &q, &block, dim, f32::INFINITY, &mut out);
        for (i, row) in block.chunks_exact(dim).enumerate() {
            weighted_sq_block_f32(&w, &q, row, dim, f32::INFINITY, &mut one);
            assert_eq!(out[i], one[0]);
        }
    }

    /// The `(dim, rows, offset)` grid of the kernel differential tests
    /// for one salt (the multi-kernel test's query count, 1..=17): dims
    /// 1..=40, 63..=65, 96 and 130; one row count per dim that comes
    /// round to every value in 1..=40 as the salt runs, plus the full
    /// and one-short 256-row blocks every fifth shape; and a block start
    /// 0–3 elements past a 64-byte boundary.
    fn differential_shapes(salt: usize) -> Vec<(usize, usize, usize)> {
        let dims = (1..=40).chain(63..=65).chain([96, 130]);
        let mut shapes = Vec::new();
        for (di, dim) in dims.enumerate() {
            let mut row_counts = vec![1 + (salt * 11 + di * 5) % 40];
            if (salt + di).is_multiple_of(5) {
                row_counts.push(255 + (salt + di) / 5 % 2);
            }
            for rows in row_counts {
                shapes.push((dim, rows, (salt + di + rows) % 4));
            }
        }
        shapes
    }

    /// `len` values `value(i)` in `buf`, starting `offset` elements past
    /// a 64-byte boundary.
    fn unaligned<T: Copy + Default>(
        buf: &mut Vec<T>,
        len: usize,
        offset: usize,
        value: impl Fn(usize) -> T,
    ) -> &[T] {
        *buf = vec![T::default(); len + 32];
        let base = buf.as_ptr().align_offset(64) + offset;
        for (i, v) in buf[base..base + len].iter_mut().enumerate() {
            *v = value(i);
        }
        &buf[base..base + len]
    }

    #[test]
    fn f32_multi_blocks_match_single_query_blocks() {
        // Every kernel shape the multi kernel may pick (query tiles, row
        // pairs, an odd trailing row, the `dim % 8` tail, and from
        // `ROWS_IN_LANES_MIN_QUERIES` queries on AVX-512F hosts the
        // rows-in-lanes order with its 16-wide transpose tail and
        // partial row groups) must give each (query, row) pair the key
        // bits a single-query block call gives it, wherever the block
        // slice starts.
        #[cfg(target_arch = "x86_64")]
        let lanes_host = is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("fma");
        #[cfg(not(target_arch = "x86_64"))]
        let lanes_host = false;
        if !lanes_host {
            println!("no AVX-512F + FMA: the rows-in-lanes kernel was not exercised");
        }
        let bits = |keys: &[f32]| keys.iter().map(|k| k.to_bits()).collect::<Vec<_>>();
        let mut buf = Vec::new();
        for nq in 1..=17usize {
            for (dim, rows, offset) in differential_shapes(nq) {
                let block = unaligned(&mut buf, rows * dim, offset, |i| (i as f32 * 0.3).sin());
                let queries: Vec<f32> = (0..nq * dim).map(|i| (i as f32 * 0.13).cos()).collect();
                let shared_w: Vec<f32> = (0..dim).map(|i| 1.0 + (i % 3) as f32).collect();
                let per_q_w: Vec<f32> =
                    (0..nq * dim).map(|i| 0.5 + (i % 7) as f32 * 0.37).collect();
                let bounds = vec![f32::INFINITY; nq];
                let mut single = vec![0.0f32; rows];
                let mut multi = vec![0.0f32; nq * rows];
                let span = |q: usize| q * dim..(q + 1) * dim;
                let shape = format!("nq {nq} dim {dim} rows {rows} offset {offset}");
                weighted_sq_multi_block_f32(
                    &shared_w, 0, &queries, block, dim, &bounds, &mut multi,
                );
                for q in 0..nq {
                    weighted_sq_block_f32(
                        &shared_w,
                        &queries[span(q)],
                        block,
                        dim,
                        f32::INFINITY,
                        &mut single,
                    );
                    assert_eq!(
                        bits(&multi[q * rows..(q + 1) * rows]),
                        bits(&single),
                        "shared {shape} q{q}"
                    );
                }
                weighted_sq_multi_block_f32(
                    &per_q_w, dim, &queries, block, dim, &bounds, &mut multi,
                );
                for q in 0..nq {
                    weighted_sq_block_f32(
                        &per_q_w[span(q)],
                        &queries[span(q)],
                        block,
                        dim,
                        f32::INFINITY,
                        &mut single,
                    );
                    assert_eq!(
                        bits(&multi[q * rows..(q + 1) * rows]),
                        bits(&single),
                        "per-q {shape} q{q}"
                    );
                }
            }
        }
    }

    /// The f64 single-query block kernel as one ISA build: the keys of
    /// `block`.
    fn f64_block(
        isa: &str,
        w: &[f64],
        q: &[f64],
        block: &[f64],
        dim: usize,
        bound: f64,
    ) -> Vec<f64> {
        let mut keys = vec![0.0; block.len() / dim];
        match isa {
            // SAFETY (both arms): an ISA is listed only once its feature
            // was detected.
            #[cfg(target_arch = "x86_64")]
            "avx2" => unsafe { dispatch::weighted_avx2(w, q, block, dim, bound, &mut keys) },
            #[cfg(target_arch = "x86_64")]
            "avx512f" => unsafe { dispatch::weighted_avx512(w, q, block, dim, bound, &mut keys) },
            _ => weighted_sq_block_impl(w, q, block, dim, bound, &mut keys),
        }
        keys
    }

    /// [`f64_block`] for the portable f32 chain's ISA builds (what
    /// non-FMA hosts run), keys widened to f64 (exactly).
    fn f32_plain_block(
        isa: &str,
        w: &[f32],
        q: &[f32],
        block: &[f32],
        dim: usize,
        bound: f32,
    ) -> Vec<f64> {
        let mut keys = vec![0.0f32; block.len() / dim];
        match isa {
            // SAFETY (both arms): as in `f64_block`.
            #[cfg(target_arch = "x86_64")]
            "avx2" => unsafe { dispatch::weighted_f32_avx2(w, q, block, dim, bound, &mut keys) },
            #[cfg(target_arch = "x86_64")]
            "avx512f" => unsafe {
                dispatch::weighted_f32_avx512(w, q, block, dim, bound, &mut keys)
            },
            _ => f32_plain::weighted_sq_block(w, q, block, dim, bound, &mut keys),
        }
        widen(&keys)
    }

    fn widen(keys: &[f32]) -> Vec<f64> {
        keys.iter().map(|&k| k as f64).collect()
    }

    /// A block's keys `got` against its row kernel's `want`: the same
    /// bits on every row whose key is at or under `bound`, a key over
    /// `bound` on every other row.
    fn assert_block_keys(got: &[f64], want: &[f64], bound: f64, what: &str) {
        for (r, (&g, &w)) in got.iter().zip(want).enumerate() {
            if w <= bound {
                assert_eq!(g.to_bits(), w.to_bits(), "{what} row {r}");
            } else {
                assert!(g > bound, "{what} row {r}: {g} under the bound");
            }
        }
    }

    #[test]
    fn single_query_blocks_match_row_kernels_on_every_isa() {
        // Every single-query block kernel a host may dispatch, on the
        // shapes and block starts of
        // `f32_multi_blocks_match_single_query_blocks`:
        // * the f64 body and its AVX2 / AVX-512F builds, and the portable
        //   f32 chain and its builds, give each row its row kernel's key
        //   bits when unbounded; under a finite bound (the median key)
        //   every row at or under it keeps those bits and every other row
        //   reports a key over it;
        // * the FMA intrinsics fuse each multiply-add, so their keys are
        //   not the portable chain's bits. Both round the same f32
        //   inputs, so the two differ by accumulation rounding only:
        //   within the documented `weighted_f32_bound` of the exact key.
        use crate::distance::weighted_f32_bound;
        #[cfg(target_arch = "x86_64")]
        let (avx2, avx512, fma) = (
            is_x86_feature_detected!("avx2"),
            is_x86_feature_detected!("avx512f"),
            is_x86_feature_detected!("fma"),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (avx2, avx512, fma) = (false, false, false);
        let isas: Vec<&str> = [("portable", true), ("avx2", avx2), ("avx512f", avx512)]
            .into_iter()
            .filter_map(|(isa, on)| on.then_some(isa))
            .collect();
        if !(avx2 && fma) {
            println!("no AVX2 + FMA: the f32 intrinsics were not exercised");
        }
        let median = |keys: &[f64]| {
            let mut s = keys.to_vec();
            s.sort_by(f64::total_cmp);
            s[s.len() / 2]
        };
        let (mut buf64, mut buf32) = (Vec::new(), Vec::new());
        for salt in 1..=17usize {
            for (dim, rows, offset) in differential_shapes(salt) {
                let shape = format!("dim {dim} rows {rows} offset {offset}");
                let row_at = |r: usize| r * dim..(r + 1) * dim;
                let q32: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.13).cos()).collect();
                let w32: Vec<f32> = (0..dim).map(|i| 0.5 + (i % 7) as f32 * 0.37).collect();
                // f32 inputs widen exactly, so both precisions score the
                // same vectors.
                let (q, w) = (widen(&q32), widen(&w32));

                let block = unaligned(&mut buf64, rows * dim, offset, |i| (i as f64 * 0.3).sin());
                let w_rows: Vec<f64> = (0..rows)
                    .map(|r| weighted_sq_row(&w, &q, &block[row_at(r)]))
                    .collect();
                for &isa in &isas {
                    for bound in [f64::INFINITY, median(&w_rows)] {
                        let keys = f64_block(isa, &w, &q, block, dim, bound);
                        let what = format!("f64 {isa} {shape} bound {bound}");
                        assert_block_keys(&keys, &w_rows, bound, &what);
                    }
                }

                let block = unaligned(&mut buf32, rows * dim, offset, |i| (i as f32 * 0.3).sin());
                let w_rows: Vec<f64> = (0..rows)
                    .map(|r| f32_plain::weighted_sq_row(&w32, &q32, &block[row_at(r)]) as f64)
                    .collect();
                for &isa in &isas {
                    for bound in [f64::INFINITY, median(&w_rows)] {
                        let keys = f32_plain_block(isa, &w32, &q32, block, dim, bound as f32);
                        let what = format!("f32 {isa} {shape} bound {bound}");
                        assert_block_keys(&keys, &w_rows, bound, &what);
                    }
                }

                #[cfg(target_arch = "x86_64")]
                if avx2 && fma {
                    let mut weighted = vec![0.0f32; rows];
                    // SAFETY: avx2 + fma were detected above; `weighted`
                    // holds one key per block row.
                    unsafe {
                        f32_intr::weighted_sq_block(
                            &w32,
                            &q32,
                            block,
                            dim,
                            f32::INFINITY,
                            &mut weighted,
                        );
                    }
                    let w_min = w.iter().cloned().fold(f64::INFINITY, f64::min);
                    let w_max = w.iter().cloned().fold(0.0, f64::max);
                    let delta = weighted_f32_bound(dim, w.iter().sum(), w_min, w_max, 1.0).unwrap();
                    for r in 0..rows {
                        let row = widen(&block[row_at(r)]);
                        let (intr, plain) = (weighted[r], w_rows[r]);
                        let delta = delta.at(weighted_sq_row(&w, &q, &row));
                        let gap = (intr as f64 - plain).abs();
                        assert!(
                            gap <= delta,
                            "f32 intrinsics {shape} row {r}: |{intr} − {plain}| = {gap} over Δ {delta}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn f32_abandoned_rows_are_infinite_never_understated() {
        let dim = 96; // > SEGMENT so the bounded path engages
        let rows = 32;
        let q = vec![0.0f32; dim];
        let unit = vec![1.0f32; dim];
        let block: Vec<f32> = (0..rows * dim).map(|i| (i % 13) as f32 * 0.21).collect();
        let mut exact = vec![0.0f32; rows];
        weighted_sq_block_f32(&unit, &q, &block, dim, f32::INFINITY, &mut exact);
        let bound = {
            let mut s = exact.clone();
            s.sort_by(f32::total_cmp);
            s[rows / 2]
        };
        let mut bounded = vec![0.0f32; rows];
        weighted_sq_block_f32(&unit, &q, &block, dim, bound, &mut bounded);
        for (e, b) in exact.iter().zip(bounded.iter()) {
            if *e <= bound {
                assert_eq!(e, b, "rows within the bound must be exact");
            } else {
                assert!(*b > bound, "abandoned rows must stay over the bound");
            }
        }
    }

    #[test]
    fn abandoned_rows_are_infinite_never_understated() {
        let dim = 48;
        let rows = 32;
        let q = vec![0.0; dim];
        let unit = vec![1.0; dim];
        let block: Vec<f64> = (0..rows * dim).map(|i| (i % 13) as f64 * 0.21).collect();
        let mut exact = vec![0.0; rows];
        weighted_sq_block(&unit, &q, &block, dim, f64::INFINITY, &mut exact);
        let bound = {
            let mut s = exact.clone();
            s.sort_by(f64::total_cmp);
            s[rows / 2]
        };
        let mut bounded = vec![0.0; rows];
        weighted_sq_block(&unit, &q, &block, dim, bound, &mut bounded);
        for (e, b) in exact.iter().zip(bounded.iter()) {
            if *e <= bound {
                assert_eq!(e, b, "rows within the bound must be exact");
            } else {
                assert!(*b > bound, "abandoned rows must stay over the bound");
            }
        }
    }

    /// Weight vectors with `w_max / mean w` up to ~1e4: log-uniform
    /// spreads over two and four decades, and a single dominant
    /// component over a light floor.
    fn skewed_weights(rng: &mut rand::rngs::StdRng, dim: usize, profile: usize) -> Vec<f64> {
        use rand::Rng;
        let mut w: Vec<f64> = match profile {
            0 => (0..dim).map(|_| rng.gen_range(0.5..2.0)).collect(),
            1 => (0..dim)
                .map(|_| 10f64.powf(rng.gen_range(-2.0..0.0)))
                .collect(),
            2 => (0..dim)
                .map(|_| 10f64.powf(rng.gen_range(-4.0..0.0)))
                .collect(),
            _ => (0..dim).map(|_| rng.gen_range(1e-4..2e-4)).collect(),
        };
        if profile >= 2 {
            // Pin the dominant component so the skew is there at every
            // dimensionality, not only when the draw happens to hit it.
            let heavy = rng.gen_range(0..dim);
            w[heavy] = 1.0;
        }
        w
    }

    /// A single-query block kernel bound to its block: `(weights, query,
    /// keys out)`.
    type BlockKernel<'a> = dyn Fn(&[f32], &[f32], &mut [f32]) + 'a;

    #[test]
    fn f32_keys_stay_within_sum_weight_slack_on_every_kernel_shape() {
        use crate::distance::weighted_f32_bound;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        // 7 queries × 3 rows: the block kernels run a row pair plus a
        // single remainder row; the FMA multi kernel runs, on the row
        // pair, a 4×2 tile (queries 0–3), a 2×2 tile (queries 4–5) and
        // the row-pair kernel (query 6), then single rows for the odd
        // row. On AVX-512F hosts the rows-in-lanes kernel, called
        // directly (the dispatch gives it 8 or more queries), scores
        // the three rows as one partial group.
        const NQ: usize = 7;
        const ROWS: usize = 3;
        #[cfg(target_arch = "x86_64")]
        let fma_host = is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma");
        #[cfg(target_arch = "x86_64")]
        let lanes_host = fma_host && is_x86_feature_detected!("avx512f");
        let mut rng = StdRng::seed_from_u64(0x51ac);
        let mut worst_use = 0.0f64;
        for dim in 1..=130usize {
            for profile in 0..4 {
                for max_abs in [1.0f64, 37.5, 1e3] {
                    // Components up to ±max_abs, a third of them pinned
                    // to the extremes so differences reach 2·max_abs.
                    let mut draw = |n: usize| -> Vec<f64> {
                        (0..n)
                            .map(|_| match rng.gen_range(0..6) {
                                0 => max_abs,
                                1 => -max_abs,
                                _ => rng.gen_range(-max_abs..max_abs),
                            })
                            .collect()
                    };
                    let queries = draw(NQ * dim);
                    let block = draw(ROWS * dim);
                    let weights: Vec<f64> = (0..NQ)
                        .flat_map(|_| skewed_weights(&mut rng, dim, profile))
                        .collect();
                    let q32: Vec<f32> = queries.iter().map(|&v| v as f32).collect();
                    let b32: Vec<f32> = block.iter().map(|&v| v as f32).collect();
                    let w32: Vec<f32> = weights.iter().map(|&v| v as f32).collect();
                    let unbounded = [f32::INFINITY; NQ];

                    // One single-query block call per query, laid out
                    // like the multi kernels' output (`q·ROWS + r`).
                    let per_query = |kernel: &BlockKernel| {
                        let mut out = vec![0.0f32; NQ * ROWS];
                        for (q, keys) in out.chunks_exact_mut(ROWS).enumerate() {
                            let span = q * dim..(q + 1) * dim;
                            kernel(&w32[span.clone()], &q32[span], keys);
                        }
                        out
                    };
                    let mut multi = vec![0.0f32; NQ * ROWS];
                    f32_plain::weighted_sq_multi(
                        &w32, dim, &q32, &b32, dim, &unbounded, &mut multi,
                    );
                    // f32::MAX is finite, so dims past one segment take
                    // the segment-wise bounded accumulation.
                    let mut shapes = vec![
                        ("plain multi", multi.clone()),
                        (
                            "plain block",
                            per_query(&|w, q, keys| {
                                f32_plain::weighted_sq_block(w, q, &b32, dim, f32::INFINITY, keys)
                            }),
                        ),
                        (
                            "plain bounded",
                            per_query(&|w, q, keys| {
                                f32_plain::weighted_sq_block(w, q, &b32, dim, f32::MAX, keys)
                            }),
                        ),
                    ];
                    #[cfg(target_arch = "x86_64")]
                    if fma_host {
                        // SAFETY (both calls): avx2 + fma were detected
                        // above.
                        unsafe {
                            f32_intr::weighted_sq_multi(
                                &w32, dim, &q32, &b32, dim, &unbounded, &mut multi,
                            );
                        }
                        shapes.push(("intr multi", multi.clone()));
                        if lanes_host {
                            // SAFETY: avx512f + fma were detected above;
                            // the slices hold NQ × dim weights and queries,
                            // ROWS × dim rows and NQ × ROWS keys.
                            unsafe {
                                f32_intr::weighted_sq_multi_lanes(
                                    &w32, dim, &q32, &b32, dim, &unbounded, &mut multi,
                                );
                            }
                            shapes.push(("rows in lanes", multi));
                        }
                        shapes.push((
                            "intr block",
                            per_query(&|w, q, keys| unsafe {
                                f32_intr::weighted_sq_block(w, q, &b32, dim, f32::INFINITY, keys)
                            }),
                        ));
                    }

                    for q in 0..NQ {
                        let w = &weights[q * dim..(q + 1) * dim];
                        let w_sum: f64 = w.iter().sum();
                        let w_min = w.iter().cloned().fold(f64::INFINITY, f64::min);
                        let w_max = w.iter().cloned().fold(0.0, f64::max);
                        let bound = weighted_f32_bound(dim, w_sum, w_min, w_max, max_abs)
                            .expect("magnitudes far below the overflow guard");
                        let reverse = bound.reverse();
                        for r in 0..ROWS {
                            let key64 = weighted_sq_row(
                                w,
                                &queries[q * dim..(q + 1) * dim],
                                &block[r * dim..(r + 1) * dim],
                            );
                            let slack = bound.at(key64);
                            for (label, keys) in &shapes {
                                let key32 = keys[q * ROWS + r] as f64;
                                let err = (key32 - key64).abs();
                                assert!(
                                    err <= slack,
                                    "{label} dim {dim} profile {profile} M {max_abs}: \
                                     |key32 − key64| = {err} exceeds Δ(key64) = {slack} (key64 {key64})"
                                );
                                assert!(
                                    key64 <= key32 + reverse.at(key32),
                                    "{label} dim {dim} profile {profile} M {max_abs}: \
                                     key64 {key64} above key32 {key32} + Δ'(key32)"
                                );
                                worst_use = worst_use.max(err / slack);
                            }
                        }
                    }
                }
            }
        }
        // The budget is worst-case, so random draws use a small part of
        // it — but not nothing: a vacuous bound would make this test
        // (and the rescore it sizes) meaningless.
        assert!(
            worst_use > 0.02 && worst_use <= 1.0,
            "slack use {worst_use}"
        );
    }
}
