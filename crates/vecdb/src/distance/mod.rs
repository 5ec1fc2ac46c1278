//! The distance-function class (paper §2).
//!
//! All retrieval in FeedbackBypass happens under a *parameterized class*
//! of distance functions; the feedback loop adjusts the parameters, and
//! the Simplex Tree stores them. This crate serves one class and one
//! type: [`WeightedEuclidean`], Equation 1, the class learned in the
//! paper's evaluation. Plain Euclidean distance, the default in the
//! paper's experiments, is its uniform member
//! ([`WeightedEuclidean::uniform`], `wᵢ ≡ 1`).
//!
//! # Batch kernels and surrogate keys
//!
//! Every feedback iteration re-runs a k-NN query under a freshly
//! re-weighted metric, so the per-candidate cost of `d(q, x)` is the
//! latency floor of the whole interactive loop. Two observations cut it
//! down:
//!
//! 1. **Ranking never needs the true distance.** Each class here has a
//!    cheap *surrogate key* — the squared distance, a strictly
//!    increasing function of it — and ranking by key is identical to
//!    ranking by distance. Engines therefore collect `(key, index)`
//!    candidates via [`Distance::eval_key`] and pay
//!    [`Distance::finish_key`] (the `sqrt`) only for the final `k`
//!    winners.
//!
//! 2. **Candidates arrive in contiguous blocks.** A linear scan
//!    evaluates one query against many stored vectors that sit
//!    back-to-back in a row-major buffer. [`Distance::eval_key_batch`]
//!    evaluates a whole block per call with a tight, auto-vectorizable
//!    kernel; the multi-query scan scores one block against many
//!    queries (one weight row each, or one shared) in a single kernel
//!    call. The batch call also takes the caller's current pruning
//!    `bound` (in key space): because the key is a sum of non-negative
//!    terms, a kernel may *early-abandon* a row once its partial sum
//!    exceeds the bound, writing `f64::INFINITY` instead of the exact
//!    key.
//!
//! The contract tying it together: `finish_key(eval_key(a, b)) ==
//! eval(a, b)` (up to float rounding),
//! `eval_key` is strictly increasing in `eval`, and
//! [`Distance::key_of_dist`] maps a true-distance threshold into key
//! space (so `d(a, b) ≤ r ⇔ eval_key(a, b) ≤ key_of_dist(r)`).
//!
//! # f32 scanning with exact rescore
//!
//! Because the scans are memory-bandwidth-bound at low query counts,
//! the class also has **f32 kernels** ([`Distance::eval_key_batch_f32`]
//! and the multi-query kernel the scan calls) that filter candidates
//! against the collection's half-width f32 mirror, plus a **rounding
//! bound** ([`Distance::f32_key_bound`]): a
//! monotone, key-relative [`F32KeyBound`] `Δ` with
//! `|key32(a, b) − key64(a, b)| ≤ Δ(key64(a, b))` for all vectors whose
//! components are bounded by the given magnitude. The two-phase
//! `Precision::F32Rescore` scan turns its running threshold `t` into a
//! sound ceiling `T ≥ τ64` on the true k-th f64 key with the reverse
//! bound ([`F32KeyBound::reverse`]) and filters the f32 pass at
//! `T + Δ(T)` — enough to guarantee the surviving candidate set contains
//! the true f64 top-k (see `knn::multi`) — then rescores the survivors
//! with the exact f64 kernels, so returned results are identical to a
//! pure f64 scan.

pub(crate) mod kernels;
mod weighted;

pub use weighted::WeightedEuclidean;

/// The f32 multi kernel, public only for timing harnesses outside the
/// crate; every f32 scan pass reaches it through its `QueryBatch`.
#[doc(hidden)]
pub use kernels::weighted_sq_multi_block_f32;

/// A distance function over equal-length `f64` vectors.
///
/// Implemented by [`WeightedEuclidean`] only, a metric: symmetric,
/// `d(x, x) = 0`, and obeying the triangle inequality, which the
/// partition bounds ([`Distance::partition_lower_key`]) rely on. The
/// scans take `&WeightedEuclidean` directly; the trait is the
/// interface its single-query kernels are named through.
pub trait Distance: Send + Sync {
    /// Evaluate `d(a, b)`.
    fn eval(&self, a: &[f64], b: &[f64]) -> f64;

    /// Human-readable name for reports.
    fn name(&self) -> &str;

    /// Rank-preserving surrogate key for `d(a, b)`: a strictly increasing
    /// function of the distance that is cheaper to compute (the squared
    /// distance).
    fn eval_key(&self, a: &[f64], b: &[f64]) -> f64;

    /// Recover the true distance from a surrogate key
    /// (`finish_key(eval_key(a, b)) == eval(a, b)`). Must be increasing
    /// and map `+∞` to `+∞`.
    fn finish_key(&self, key: f64) -> f64;

    /// Map a true-distance threshold into key space: the inverse of
    /// [`Self::finish_key`], so `d ≤ r ⇔ eval_key ≤ key_of_dist(r)`.
    fn key_of_dist(&self, dist: f64) -> f64;

    /// Batch version of [`Self::eval_key`]: write each row's surrogate
    /// key to `out`. `bound` is the caller's current pruning threshold in
    /// key space (`f64::INFINITY` when there is none): a kernel may
    /// *early-abandon* any row whose partial accumulation already exceeds
    /// `bound` and write `f64::INFINITY` for it — callers must therefore
    /// only use `out[i] ≤ bound` rows. Exact keys are written for all
    /// rows when `bound == f64::INFINITY`.
    fn eval_key_batch(&self, query: &[f64], block: &[f64], dim: usize, bound: f64, out: &mut [f64]);

    /// f32 scanning support: a key-relative rounding bound.
    ///
    /// `Some(Δ)` certifies that for **any** pair of vectors `a, b` of
    /// length `dim` whose components all satisfy `|·| ≤ max_abs`, the
    /// f32 key this class's [`Self::eval_key_batch_f32`] computes (from
    /// the f32-rounded inputs) differs from the exact f64 key by at most
    /// `Δ` evaluated at that f64 key ([`F32KeyBound::at`]):
    ///
    /// ```text
    /// |eval_key_batch_f32(a32, b32) − eval_key_batch(a, b)| ≤ Δ(eval_key_batch(a, b))
    /// ```
    ///
    /// The f32-rescore scan path relies on this bound for exactness — an
    /// understated `Δ` silently drops true neighbors — so it is derived
    /// from worst-case rounding analysis of the actual f32 kernel
    /// (`weighted_f32_bound`; the suite property-tests the inequality).
    /// `None` means no finite bound is sound — in particular when the
    /// worst-case key could overflow f32 to `+∞` (the internal
    /// `F32_KEY_OVERFLOW_GUARD` threshold), since a saturated `key32`
    /// breaks the inequality by an unbounded amount — and makes scans
    /// fall back to the always-correct f64 path.
    fn f32_key_bound(&self, dim: usize, max_abs: f64) -> Option<F32KeyBound>;

    /// f32 variant of [`Self::eval_key_batch`]: surrogate keys for one
    /// query against a row-major **f32** block (the collection's mirror),
    /// with the same early-abandon contract in f32 key space. Only called
    /// by the scan engines when [`Self::f32_key_bound`] returns a finite
    /// bound.
    fn eval_key_batch_f32(
        &self,
        query: &[f32],
        block: &[f32],
        dim: usize,
        bound: f32,
        out: &mut [f32],
    );

    /// Partition-pruning support: a sound **key-space lower bound** on
    /// `eval_key(query, x)` over *every* vector `x` within Euclidean
    /// distance `radius_l2` of `centroid`.
    ///
    /// The partitioned scan prunes a whole partition when this bound
    /// exceeds the running k-th key, so soundness is load-bearing: an
    /// overstated bound silently drops true neighbors. It is derived
    /// from the triangle inequality (`d(q,x) ≥ d(q,c) − r` and its
    /// weighted analogues), deflated against rounding by
    /// `partition_safe_lower` (never negative, so the mapped key is
    /// always valid).
    fn partition_lower_key(&self, query: &[f64], centroid: &[f64], radius_l2: f64) -> f64;
}

/// Deflate a computed partition lower bound `raw` against floating-point
/// rounding: subtract a margin proportional to `scale` — the magnitude
/// of the terms that produced `raw`, so catastrophic cancellation in
/// `d(q,c) − r` is covered where a *relative* deflation of `raw` would
/// not be — and clamp at 0 (a distance lower bound is never negative).
/// The kernel evaluations this guards against carry relative error
/// around `dim·2⁻⁵³ ≈ 1e-14`; the `1e-9` margin leaves five orders of
/// magnitude of headroom while costing only partitions whose true
/// separation is within one part in 10⁹ of the threshold.
#[inline]
pub(crate) fn partition_safe_lower(raw: f64, scale: f64) -> f64 {
    (raw - 1e-9 * scale.abs()).max(0.0)
}

/// A monotone, key-relative bound on an f32 key's rounding error:
///
/// ```text
/// Δ(key) = min(rel·key + sqrt·√key + abs, max)
/// ```
///
/// [`Distance::f32_key_bound`] returns one per (metric, dimensionality,
/// magnitude) with `|key32 − key64| ≤ Δ(key64)` for every pair of
/// vectors it covers. The three coefficients follow the shape of f32
/// rounding on a key that is a sum of non-negative terms: the
/// accumulation error is relative to the key (`rel`), the rounding of
/// the inputs enters each term through a cross term `∝ √termᵢ`, which
/// sums to `∝ √key` by Cauchy–Schwarz (`sqrt`), and underflow plus the
/// second-order remainders are absolute (`abs`). `max` is a
/// key-independent ceiling — the metric's worst case over every key its
/// data can produce — so `Δ` never exceeds it. A min of two sound,
/// monotone bounds is sound and monotone.
///
/// Every coefficient carries a factor-2 margin over the derived error,
/// which also absorbs the f64 reference key's own (far smaller)
/// rounding and the rounding of evaluating `Δ` itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct F32KeyBound {
    /// Coefficient of the key.
    pub rel: f64,
    /// Coefficient of `√key`.
    pub sqrt: f64,
    /// Key-independent term.
    pub abs: f64,
    /// Ceiling: `Δ(key) ≤ max` at every key.
    pub max: f64,
}

impl F32KeyBound {
    /// The zero bound of exact keys: `Δ ≡ 0`, what the f64 path runs at.
    pub const ZERO: F32KeyBound = F32KeyBound {
        rel: 0.0,
        sqrt: 0.0,
        abs: 0.0,
        max: 0.0,
    };

    /// `Δ(key)`, monotone non-decreasing in `key`. Negative keys count
    /// as 0; where the key-relative part is not finite (an infinite key)
    /// the ceiling `max` applies.
    #[inline]
    pub fn at(&self, key: f64) -> f64 {
        let key = key.max(0.0);
        let relative = self.rel * key + self.sqrt * key.sqrt() + self.abs;
        // `<` is false for NaN (`0·∞`), which then takes the ceiling.
        if relative < self.max {
            relative
        } else {
            self.max
        }
    }

    /// The reverse bound `Δ'` in f32-key terms: whenever
    /// `|key32 − key64| ≤ Δ(key64)`, also `key64 ≤ key32 + Δ'(key32)`.
    ///
    /// With `r, s, a` = `rel, sqrt, abs`, `K = key64` and `t = key32`,
    /// `K − rK − s√K − a ≤ t` is a quadratic inequality in `√K`; its
    /// root, squared and split with `√(x + y) ≤ √x + √y`, gives
    ///
    /// ```text
    /// K ≤ t + r/(1−r)·t + s/(1−r)²·√t + a/(1−r) + (s² + s·√a)/(1−r)²
    /// ```
    ///
    /// and the ceiling carries over unchanged (`K ≤ t + max`). For
    /// `r ≥ 1` only the ceiling is left (as it is wherever a coefficient
    /// is NaN: [`Self::at`] then evaluates to `max`).
    pub fn reverse(&self) -> F32KeyBound {
        let (r, s, a) = (self.rel, self.sqrt, self.abs);
        if r >= 1.0 {
            return F32KeyBound {
                rel: 0.0,
                sqrt: 0.0,
                abs: self.max,
                max: self.max,
            };
        }
        let (g1, g2) = (1.0 / (1.0 - r), 1.0 / ((1.0 - r) * (1.0 - r)));
        F32KeyBound {
            rel: r * g1,
            sqrt: s * g2,
            abs: a * g1 + (s * s + s * a.sqrt()) * g2,
            max: self.max,
        }
    }

    /// Whether every field is finite and non-negative — the only bounds
    /// a scan runs its f32 phase under.
    pub fn is_finite(&self) -> bool {
        [self.rel, self.sqrt, self.abs, self.max]
            .iter()
            .all(|v| v.is_finite() && *v >= 0.0)
    }
}

/// Half-ulp relative rounding bound of f32 round-to-nearest.
pub(crate) const F32_UNIT_ROUNDOFF: f64 = 1.0 / (1u64 << 24) as f64;

/// Absolute rounding bound of an f32 result in the subnormal range:
/// half the smallest subnormal, `2⁻¹⁵⁰`.
pub(crate) const F32_UNDERFLOW_ROUNDOFF: f64 = f32::MIN_POSITIVE as f64 / (1u64 << 24) as f64;

/// `γₖ = k·u / (1 − k·u)`: the relative error bound of `k` f32 roundings
/// compounded (`(1 + γⱼ)(1 + γₖ) ≤ 1 + γⱼ₊ₖ`).
pub(crate) fn f32_gamma(k: f64) -> f64 {
    let ku = k * F32_UNIT_ROUNDOFF;
    ku / (1.0 - ku)
}

/// Largest worst-case f32 key magnitude for which f32 scanning is
/// offered at all. The rounding analyses below are only valid while the
/// f32 computation stays *finite*: a key that overflows to `+∞` while
/// its f64 counterpart stays finite violates `|key32 − key64| ≤ Δ` by an
/// unbounded amount, and the candidate filter would silently drop that
/// row. A metric whose worst-case key (intermediates included) could
/// cross this line must return `None` from
/// [`Distance::f32_key_bound`] — the scan then runs the pure-f64 path,
/// which is always correct. The 16× headroom under `f32::MAX` generously
/// absorbs accumulation-order overshoot.
pub(crate) const F32_KEY_OVERFLOW_GUARD: f64 = f32::MAX as f64 / 16.0;

/// The [`F32KeyBound`] of the weighted squared sum `Σ wᵢ·(aᵢ−bᵢ)²`
/// (plain Euclidean is `w ≡ 1`), at dimensionality `dim` with
/// component magnitudes ≤ `max_abs`, weight sum `w_sum = Σ wᵢ` and
/// weights in `[w_min, w_max]` — or `None` when no finite bound is
/// sound: the worst-case key could overflow f32
/// ([`F32_KEY_OVERFLOW_GUARD`]), or some weight does not round to a
/// normal finite f32 (a subnormal weight carries up to 50 % rounding
/// error, not `u`; an infinite one makes `∞·0 = NaN` keys the admit
/// drops). The overflow guard stays on the coarser `dim·w_max` worst
/// case: it decides eligibility, not `Δ`.
///
/// Error budget (u = 2⁻²⁴, η = 2⁻¹⁵⁰ the absolute rounding of an f32
/// result below `f32::MIN_POSITIVE`, M = `max_abs`, n = `dim`, exact
/// difference `dᵢ = aᵢ − bᵢ`, exact term `tᵢ = wᵢ·dᵢ²`, exact key
/// `Σ tᵢ`):
///
/// * **Inputs.** Two conversions and the subtraction give
///   `|d32 − d| ≤ u·|d| + ε`, `ε = 2.01·(u·M + η)` (a subtraction whose
///   result is subnormal is exact). So
///   `wᵢ·|d32² − d²| ≤ wᵢ·e·(2|d| + e) ≤ 2u·tᵢ + 2ε·√wᵢ·√tᵢ + wᵢ·E²` with
///   `E = 2u·M + ε ≥ e`; summed, Cauchy–Schwarz turns `Σ √wᵢ·√tᵢ` into
///   `√(Σw)·√key`.
/// * **Terms.** The weight conversion and (at most) two products round
///   each term by `γ₃` relative, plus `η·(1.01·wᵢ + 2.02·M + 1)` for
///   products that underflow.
/// * **Accumulation.** Any summation order of `n` non-negative terms
///   rounds each partial sum at most `n` times on any term's path, so
///   it costs `γₙ` relative to the computed terms' sum, plus `η` per
///   fused multiply-add whose result underflows (a plain addition with a
///   subnormal result is exact). This covers the portable lane tree,
///   the row-pair, 2×2-tile and 4×2-tile FMA kernels and the AVX-512
///   rows-in-lanes order (eight residue partials per row lane, joined
///   in the row kernels' tree) alike.
///
/// With `c = γₙ₊₃`, the pieces compose to
/// `|key32 − key| ≤ (c + 2u(1+c))·key + (1+c)·2ε·√(Σw)·√key +
/// (1+c)·(Σw·E² + η·(1.01·Σw + n·(2.02·M + 1))) + n·η`, doubled into
/// [`F32KeyBound`]'s margin. Both input parts charge each term by its
/// **own** weight: with skewed learned weights (`w_max ≫ mean w`) the
/// band follows the metric's total mass, not `dim` copies of its
/// heaviest component.
///
/// The ceiling `max` is the key-independent worst case over every key
/// the data can produce: `2u·Σw·M²·(29 + 4.1·n)` for rounding plus
/// `2η·(Σw·(9M + 1) + 2n)` for underflow. On unit-scale data
/// the underflow parts are ~10⁻⁴² against a `Δ` of ~10⁻⁵; on data whose
/// squares underflow they are what keeps `Δ` sound.
pub(crate) fn weighted_f32_bound(
    dim: usize,
    w_sum: f64,
    w_min: f64,
    w_max: f64,
    max_abs: f64,
) -> Option<F32KeyBound> {
    if !((w_min as f32).is_normal() && (w_max as f32).is_finite()) {
        return None;
    }
    let n = dim as f64;
    let m2 = max_abs * max_abs;
    // Worst-case key ≤ Σ|tᵢ| ≤ n·w_max·(2.01·M)²; also covers every
    // partial sum (non-negative terms).
    let worst_key = n * w_max * 4.05 * m2;
    // `!(x <= guard)` deliberately catches NaN as well as overflow.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(worst_key <= F32_KEY_OVERFLOW_GUARD) {
        return None;
    }
    if max_abs == 0.0 {
        return Some(F32KeyBound::ZERO); // all-zero data: every operation is exact
    }
    let (u, eta) = (F32_UNIT_ROUNDOFF, F32_UNDERFLOW_ROUNDOFF);
    let c = f32_gamma(n + 3.0);
    let m = max_abs;
    let eps = 2.01 * (u * m + eta);
    let e = 2.0 * u * m + eps;
    let terms_underflow = eta * (1.01 * w_sum + n * (2.02 * m + 1.0));
    let coarse = u * w_sum * m2 * (29.0 + 4.1 * n);
    let coarse_underflow = eta * (w_sum * (9.0 * m + 1.0) + 2.0 * n);
    Some(F32KeyBound {
        rel: 2.0 * (c + 2.0 * u * (1.0 + c)),
        sqrt: 2.0 * (1.0 + c) * 2.0 * eps * w_sum.sqrt(),
        abs: 2.0 * ((1.0 + c) * (w_sum * e * e + terms_underflow) + n * eta),
        max: 2.0 * (coarse + coarse_underflow),
    })
}

#[cfg(test)]
mod slack_tests {
    use super::*;

    /// Keys spanning the `(64, Σw = 64, M ≤ 2)` fixtures' range, zero
    /// included.
    const KEYS: [f64; 5] = [0.0, 1e-9, 1e-3, 1.0, 256.0];

    #[test]
    fn weighted_slack_is_positive_and_scales() {
        let s = weighted_f32_bound(64, 64.0, 1.0, 3.0, 1.0).unwrap();
        let looser = [
            weighted_f32_bound(128, 64.0, 1.0, 3.0, 1.0).unwrap(),
            weighted_f32_bound(64, 128.0, 1.0, 3.0, 1.0).unwrap(),
            weighted_f32_bound(64, 64.0, 1.0, 3.0, 2.0).unwrap(),
        ];
        for key in KEYS {
            assert!(s.at(key) > 0.0 && s.at(key).is_finite(), "key {key}");
            // More components, more weight mass, bigger values ⇒ looser
            // bound, at every key.
            for l in &looser {
                assert!(l.at(key) > s.at(key), "key {key}: {l:?} vs {s:?}");
            }
        }
        // Degenerate all-zero data ⇒ zero bound (keys are exactly 0).
        assert_eq!(
            weighted_f32_bound(64, 64.0, 1.0, 3.0, 0.0),
            Some(F32KeyBound::ZERO)
        );
    }

    #[test]
    fn slack_follows_the_weight_sum_not_the_heaviest_weight() {
        // One dominant component among 63 light ones: Δ is sized by the
        // metric's total mass (≈ 1 heavy weight), not by 64 copies of it
        // — at every key the same share of each metric's key range.
        let (sum_skewed, sum_flat) = (100.0 + 63.0 * 0.01, 64.0 * 100.0);
        let skewed = weighted_f32_bound(64, sum_skewed, 0.01, 100.0, 1.0).unwrap();
        let flat = weighted_f32_bound(64, sum_flat, 100.0, 100.0, 1.0).unwrap();
        for share in [0.0, 1e-6, 1e-3, 1.0] {
            let (ds, df) = (skewed.at(share * sum_skewed), flat.at(share * sum_flat));
            assert!(ds * 60.0 < df, "share {share}: skewed {ds} vs flat {df}");
        }
        // w_max alone (same Σw) only gates eligibility.
        assert_eq!(
            weighted_f32_bound(64, 64.0, 1.0, 1.0, 1.0),
            weighted_f32_bound(64, 64.0, 1.0, 50.0, 1.0)
        );
    }

    #[test]
    fn slack_refused_when_f32_keys_could_overflow() {
        // Component magnitudes ~1e18 drive 64-d weighted keys toward
        // f32::MAX, where |key32 − key64| ≤ Δ no longer holds (key32
        // saturates to +∞). No finite bound is sound there.
        assert_eq!(weighted_f32_bound(64, 64.0, 1.0, 1.0, 1e18), None);
        assert_eq!(weighted_f32_bound(64, 64e6, 1.0, 1e6, 1e16), None);
        // Ordinary magnitudes stay eligible.
        assert!(weighted_f32_bound(64, 640.0, 1.0, 10.0, 1e3).is_some());
    }

    #[test]
    fn bound_is_monotone_capped_and_reversible() {
        let b = weighted_f32_bound(32, 90.0, 0.01, 60.0, 1.0).unwrap();
        let r = b.reverse();
        let mut last = 0.0;
        for i in 0..=400 {
            let key = if i == 0 { 0.0 } else { 1e-12 * 1.1f64.powi(i) };
            let d = b.at(key);
            assert!(d >= last && d <= b.max, "key {key}");
            last = d;
            // The worst case the forward bound allows below the true key
            // is still covered by the reverse bound above the f32 key.
            let key32 = key - d;
            if key32 >= 0.0 {
                assert!(key <= key32 + r.at(key32), "key {key}");
            }
        }
        assert_eq!(b.at(f64::INFINITY), b.max);
        assert_eq!(F32KeyBound::ZERO.at(f64::INFINITY), 0.0);
        assert_eq!(F32KeyBound::ZERO.reverse(), F32KeyBound::ZERO);
    }
}

/// Unweighted squared Euclidean distance, sequentially accumulated: the
/// `d₂(q, c)` the partition bounds measure centroid radii in.
#[inline]
pub(crate) fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b.iter()) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

#[cfg(test)]
mod batch_contract_tests {
    use super::test_support::{log_spread_weights, sample_points};
    use super::{kernels, Distance, WeightedEuclidean};

    /// Every metric must satisfy the batch/surrogate-key contract:
    /// finished `eval_key_batch` rows match per-pair `eval` (to
    /// rounding), `finish_key ∘ eval_key == eval`, `key_of_dist` inverts
    /// `finish_key`, and the shared-weight multi kernel the scans call is
    /// bit-identical to independent `eval_key_batch` calls per query.
    fn check_batch_contract(d: &WeightedEuclidean, dim: usize) {
        let pts = sample_points(dim);
        let query = &pts[0];
        let block: Vec<f64> = pts[1..].iter().flat_map(|p| p.iter().copied()).collect();
        let rows = pts.len() - 1;
        let mut keys = vec![0.0; rows];
        d.eval_key_batch(query, &block, dim, f64::INFINITY, &mut keys);
        // Multi-query pass over the same block: every query's key row must
        // be bit-identical to its own single-query batch call.
        let nq = 3.min(pts.len());
        let queries: Vec<f64> = pts[..nq].iter().flat_map(|p| p.iter().copied()).collect();
        let mut multi = vec![0.0; nq * rows];
        let bounds = vec![f64::INFINITY; nq];
        kernels::weighted_sq_multi_block(
            d.weights(),
            0,
            &queries,
            &block,
            dim,
            &bounds,
            &mut multi,
        );
        let mut single = vec![0.0; rows];
        for (q, qv) in pts[..nq].iter().enumerate() {
            d.eval_key_batch(qv, &block, dim, f64::INFINITY, &mut single);
            assert_eq!(
                &multi[q * rows..(q + 1) * rows],
                &single[..],
                "{}: multi-kernel row {q} disagrees with eval_key_batch",
                d.name()
            );
        }
        for (i, p) in pts[1..].iter().enumerate() {
            let direct = d.eval(query, p);
            let batched = d.finish_key(keys[i]);
            assert!(
                (batched - direct).abs() <= 1e-12 * direct.max(1.0),
                "{}: key batch row {i}: {batched} vs eval {direct}",
                d.name()
            );
            let via_key = d.finish_key(d.eval_key(query, p));
            assert!(
                (via_key - direct).abs() <= 1e-12 * direct.max(1.0),
                "{}: finish_key∘eval_key {via_key} vs eval {direct}",
                d.name()
            );
            // key_of_dist inverts finish_key (to rounding).
            let rt = d.finish_key(d.key_of_dist(direct));
            assert!(
                (rt - direct).abs() <= 1e-12 * direct.max(1.0),
                "{}: key_of_dist round-trip {rt} vs {direct}",
                d.name()
            );
        }
    }

    #[test]
    fn all_classes_satisfy_batch_contract() {
        const DIM: usize = 7;
        check_batch_contract(&WeightedEuclidean::uniform(DIM), DIM);
        let w: Vec<f64> = (0..DIM).map(|i| 0.5 + i as f64).collect();
        check_batch_contract(&WeightedEuclidean::new(w).unwrap(), DIM);
        check_batch_contract(&log_spread_weights(DIM), DIM);
    }
}

#[cfg(test)]
mod partition_bound_tests {
    use super::test_support::{log_spread_weights, sample_points};
    use super::{Distance, WeightedEuclidean};

    /// Soundness per weight shape: with any sample point as centroid and
    /// the max member Euclidean distance as radius, the reported
    /// key-space lower bound never exceeds any member's true key.
    fn check_partition_bound_sound(d: &WeightedEuclidean, dim: usize) {
        let pts = sample_points(dim);
        for centroid in &pts {
            let radius = pts
                .iter()
                .map(|p| super::sq_dist(centroid, p).sqrt())
                .fold(0.0, f64::max);
            for query in &pts {
                let lb = d.partition_lower_key(query, centroid, radius);
                assert!(lb >= 0.0 && lb.is_finite(), "{}: bad bound {lb}", d.name());
                for member in &pts {
                    let key = d.eval_key(query, member);
                    assert!(
                        lb <= key,
                        "{}: partition lower bound {lb} exceeds member key {key}",
                        d.name()
                    );
                }
            }
        }
    }

    #[test]
    fn partition_bounds_sound_per_class() {
        const DIM: usize = 7;
        check_partition_bound_sound(&WeightedEuclidean::uniform(DIM), DIM);
        let w: Vec<f64> = (0..DIM).map(|i| 0.5 + i as f64).collect();
        check_partition_bound_sound(&WeightedEuclidean::new(w).unwrap(), DIM);
        check_partition_bound_sound(&log_spread_weights(DIM), DIM);
    }

    #[test]
    fn zero_radius_bound_is_tight_to_margin() {
        // radius 0 ⇒ the partition is a single point; the bound must
        // sit within the documented 1e-9-scaled margin of the true key.
        let q = vec![1.0, 2.0, 3.0];
        let c = vec![-0.5, 0.25, 1.0];
        let uniform = WeightedEuclidean::uniform(3);
        let lb = uniform.partition_lower_key(&q, &c, 0.0);
        let key = uniform.eval_key(&q, &c);
        assert!(lb <= key);
        let dist = key.sqrt();
        let deflated = dist - 1e-9 * dist;
        assert!(lb >= uniform.key_of_dist(deflated) * (1.0 - 1e-12));
    }

    #[test]
    fn metric_path_beats_distortion_path_on_anisotropic_weights() {
        // Heavy axis 0, light axis 1: a query displaced along axis 0
        // gets a much tighter bound from the triangle route than from
        // lo·(d₂ − r).
        let w = WeightedEuclidean::new(vec![100.0, 0.01]).unwrap();
        let query = [10.0, 0.0];
        let centroid = [0.0, 0.0];
        let radius = 1.0;
        let lb = w.partition_lower_key(&query, &centroid, radius);
        // Distortion route alone: lo = √0.01 = 0.1 ⇒ d ≥ 0.1·(10−1) = 0.9.
        // Triangle route: d(q,c) = 100, hi = 10 ⇒ d ≥ 100 − 10 = 90.
        let weak = w.key_of_dist(0.9);
        let strong = w.key_of_dist(89.0);
        assert!(lb > weak, "bound {lb} did not use the metric path");
        assert!(lb > strong);
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::{Distance, WeightedEuclidean};

    /// Learned-looking weights: log-spread over `e^±4.6` around geometric
    /// mean 1, so `w_max ≫ mean w` — the skewed metric a converged
    /// feedback loop produces.
    pub fn log_spread_weights(dim: usize) -> WeightedEuclidean {
        let ln_w: Vec<f64> = (0..dim)
            .map(|i| 4.6 * ((i * 29) as f64 * 0.77).sin())
            .collect();
        let mean = ln_w.iter().sum::<f64>() / dim as f64;
        WeightedEuclidean::new(ln_w.iter().map(|l| (l - mean).exp()).collect()).unwrap()
    }

    /// Metric-axiom probe of the distance tests.
    pub fn check_metric_axioms<D: Distance>(d: &D, pts: &[Vec<f64>], tol: f64) {
        for a in pts {
            assert!(
                d.eval(a, a).abs() <= tol,
                "{}: d(x,x) = {}",
                d.name(),
                d.eval(a, a)
            );
            for b in pts {
                let ab = d.eval(a, b);
                let ba = d.eval(b, a);
                assert!((ab - ba).abs() <= tol, "{}: asymmetric", d.name());
                assert!(ab >= 0.0, "{}: negative distance", d.name());
                for c in pts {
                    let ac = d.eval(a, c);
                    let cb = d.eval(c, b);
                    assert!(
                        ab <= ac + cb + tol,
                        "{}: triangle violated: d(a,b)={ab} > d(a,c)+d(c,b)={}",
                        d.name(),
                        ac + cb
                    );
                }
            }
        }
    }

    pub fn sample_points(dim: usize) -> Vec<Vec<f64>> {
        // Deterministic scattered points exercising negatives and zeros.
        let mut pts = Vec::new();
        for s in 0..6 {
            let v: Vec<f64> = (0..dim)
                .map(|i| ((s * 7 + i * 3) % 11) as f64 * 0.25 - 1.0)
                .collect();
            pts.push(v);
        }
        pts.push(vec![0.0; dim]);
        pts
    }
}
