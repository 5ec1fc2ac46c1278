//! Dimensionality-reduced query domains — the paper's named follow-up.
//!
//! §3: "statistical techniques for dimensionality reduction could be
//! applied to lower the dimensionality of both the input and the output
//! space. We do not consider dimensionality reduction in this paper, and
//! leave it as an interesting follow-up of our research."
//!
//! This module implements that follow-up with PCA: fit principal axes on
//! a sample of the collection, map query points into the top-`r`
//! principal coordinates (normalized into `[0,1]^r`), and run the Simplex
//! Tree over that `r`-dimensional unit cube instead of the full
//! `(D−1)`-simplex. Offsets are stored in reduced coordinates and lifted
//! back through the (orthonormal) component matrix; weights stay in the
//! full feature space — reduction shrinks the *input* domain where the
//! curse of dimensionality hurts the triangulation, not the distance
//! function.

use crate::bypass::PredictedParams;
use crate::{BypassError, Result};
use fbp_geometry::RootSimplex;
use fbp_linalg::{symmetric_eigen, Matrix};
use fbp_simplex_tree::{InsertOutcome, Oqp, OqpLayout, SimplexTree, TreeConfig};

/// PCA projection of feature vectors into a normalized reduced domain.
#[derive(Debug, Clone)]
pub struct PcaReducer {
    mean: Vec<f64>,
    /// `r × D`; rows are orthonormal principal axes.
    components: Matrix,
    /// Per-axis projection ranges used for the `[0,1]` normalization.
    lo: Vec<f64>,
    span: Vec<f64>,
    /// Fraction of sample variance captured by the kept axes.
    pub explained_variance: f64,
}

/// Padding added around the sample's projection range so unseen queries
/// rarely clamp.
const RANGE_MARGIN: f64 = 0.10;

impl PcaReducer {
    /// Fit on a sample of feature vectors, keeping `r` components.
    pub fn fit(samples: &[&[f64]], r: usize) -> Result<Self> {
        let Some(first) = samples.first() else {
            return Err(BypassError::BadQuery("empty PCA sample".into()));
        };
        let d = first.len();
        if r == 0 || r > d {
            return Err(BypassError::BadQuery(format!(
                "cannot keep {r} of {d} components"
            )));
        }
        let cov = fbp_linalg::covariance_matrix(d, samples);
        let eig = symmetric_eigen(&cov)
            .map_err(|e| BypassError::BadQuery(format!("covariance decomposition failed: {e}")))?;
        let mut mean = vec![0.0; d];
        for s in samples {
            for (m, &x) in mean.iter_mut().zip(s.iter()) {
                *m += x;
            }
        }
        for m in mean.iter_mut() {
            *m /= samples.len() as f64;
        }
        let mut components = Matrix::zeros(r, d);
        for k in 0..r {
            components.row_mut(k).copy_from_slice(eig.vectors.row(k));
        }
        // Projection ranges over the sample, padded.
        let mut lo = vec![f64::INFINITY; r];
        let mut hi = vec![f64::NEG_INFINITY; r];
        let mut centered = vec![0.0; d];
        for s in samples {
            for i in 0..d {
                centered[i] = s[i] - mean[i];
            }
            for k in 0..r {
                let z = dot(components.row(k), &centered);
                lo[k] = lo[k].min(z);
                hi[k] = hi[k].max(z);
            }
        }
        let mut span = Vec::with_capacity(r);
        for k in 0..r {
            let raw = (hi[k] - lo[k]).max(1e-9);
            let pad = raw * RANGE_MARGIN;
            lo[k] -= pad;
            span.push(raw + 2.0 * pad);
        }
        Ok(PcaReducer {
            mean,
            components,
            lo,
            span,
            explained_variance: eig.explained_variance(r),
        })
    }

    /// Kept components `r`.
    pub fn reduced_dim(&self) -> usize {
        self.components.rows()
    }

    /// Original feature dimensionality `D`.
    pub fn feature_dim(&self) -> usize {
        self.components.cols()
    }

    /// Project a feature vector into `[0,1]^r` (clamped at the padded
    /// sample range).
    pub fn transform(&self, q: &[f64]) -> Result<Vec<f64>> {
        let d = self.feature_dim();
        if q.len() != d {
            return Err(BypassError::DimMismatch {
                expected: d,
                got: q.len(),
            });
        }
        let centered: Vec<f64> = q.iter().zip(self.mean.iter()).map(|(x, m)| x - m).collect();
        Ok((0..self.reduced_dim())
            .map(|k| {
                let z = dot(self.components.row(k), &centered);
                ((z - self.lo[k]) / self.span[k]).clamp(0.0, 1.0)
            })
            .collect())
    }

    /// Express a feature-space displacement in reduced (normalized)
    /// coordinates — the inverse of [`Self::lift_delta`] on the kept
    /// subspace.
    pub fn project_delta(&self, delta: &[f64]) -> Result<Vec<f64>> {
        let d = self.feature_dim();
        if delta.len() != d {
            return Err(BypassError::DimMismatch {
                expected: d,
                got: delta.len(),
            });
        }
        Ok((0..self.reduced_dim())
            .map(|k| dot(self.components.row(k), delta) / self.span[k])
            .collect())
    }

    /// Lift a reduced-coordinate displacement back into feature space.
    pub fn lift_delta(&self, dz: &[f64]) -> Result<Vec<f64>> {
        let r = self.reduced_dim();
        if dz.len() != r {
            return Err(BypassError::DimMismatch {
                expected: r,
                got: dz.len(),
            });
        }
        let d = self.feature_dim();
        let mut out = vec![0.0; d];
        for (k, &dzk) in dz.iter().enumerate() {
            let scale = dzk * self.span[k];
            for (o, &c) in out.iter_mut().zip(self.components.row(k).iter()) {
                *o += scale * c;
            }
        }
        Ok(out)
    }
}

#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// FeedbackBypass over a PCA-reduced query domain.
///
/// Same `predict`/`insert` contract as [`crate::FeedbackBypass`], but the
/// Simplex Tree lives in `[0,1]^r` with `r ≪ D`: smaller simplices (each
/// split creates `r + 1` children instead of `D`), denser coverage per
/// stored point, cheaper lookups — at the cost of collapsing queries that
/// differ only outside the kept subspace.
#[derive(Debug, Clone)]
pub struct ReducedBypass {
    reducer: PcaReducer,
    tree: SimplexTree,
}

impl ReducedBypass {
    /// Build over a fitted reducer.
    pub fn new(reducer: PcaReducer, tree_config: TreeConfig) -> Result<Self> {
        let r = reducer.reduced_dim();
        let layout = OqpLayout::new(r, reducer.feature_dim());
        let tree = SimplexTree::new(RootSimplex::unit_cube(r), layout, tree_config)?;
        Ok(ReducedBypass { reducer, tree })
    }

    /// Fit PCA on `samples` and build in one step.
    pub fn fit(samples: &[&[f64]], r: usize, tree_config: TreeConfig) -> Result<Self> {
        Self::new(PcaReducer::fit(samples, r)?, tree_config)
    }

    /// The fitted reducer.
    pub fn reducer(&self) -> &PcaReducer {
        &self.reducer
    }

    /// The underlying tree (stats, inspection).
    pub fn tree(&self) -> &SimplexTree {
        &self.tree
    }

    /// Predict optimal parameters for a full-dimensional query point.
    pub fn predict(&self, q: &[f64]) -> Result<PredictedParams> {
        let z = self.reducer.transform(q)?;
        let pred = self.tree.predict(&z)?;
        let lifted = self.reducer.lift_delta(&pred.oqp.delta)?;
        let point: Vec<f64> = q.iter().zip(lifted.iter()).map(|(x, d)| x + d).collect();
        Ok(PredictedParams {
            point,
            weights: pred.oqp.weights,
            nodes_visited: pred.nodes_visited,
        })
    }

    /// Store converged parameters for a full-dimensional query point.
    pub fn insert(&mut self, q: &[f64], qopt: &[f64], weights: &[f64]) -> Result<InsertOutcome> {
        if qopt.len() != q.len() {
            return Err(BypassError::DimMismatch {
                expected: q.len(),
                got: qopt.len(),
            });
        }
        let z = self.reducer.transform(q)?;
        let delta_full: Vec<f64> = qopt.iter().zip(q.iter()).map(|(a, b)| a - b).collect();
        let dz = self.reducer.project_delta(&delta_full)?;
        let mut oqp = Oqp {
            delta: dz,
            weights: weights.to_vec(),
        };
        oqp.normalize_weights();
        Ok(self.tree.insert(&z, &oqp)?)
    }

    /// Serialize module + fitted reducer (same durability guarantees as
    /// [`crate::FeedbackBypass::to_bytes`]: the tree image carries its own
    /// checksum; the reducer header is length-validated).
    pub fn to_bytes(&self) -> Vec<u8> {
        let r = self.reducer.reduced_dim();
        let d = self.reducer.feature_dim();
        let floats = d + r * d + r + r + 1;
        let mut out = Vec::with_capacity(8 + 8 * floats + self.tree.encoded_len());
        out.extend_from_slice(&(r as u32).to_le_bytes());
        out.extend_from_slice(&(d as u32).to_le_bytes());
        let put_f64s = |vals: &[f64], out: &mut Vec<u8>| {
            for &x in vals {
                out.extend_from_slice(&x.to_le_bytes());
            }
        };
        put_f64s(&self.reducer.mean, &mut out);
        put_f64s(self.reducer.components.as_slice(), &mut out);
        put_f64s(&self.reducer.lo, &mut out);
        put_f64s(&self.reducer.span, &mut out);
        put_f64s(&[self.reducer.explained_variance], &mut out);
        self.tree.write_to(&mut out);
        out
    }

    /// Restore a module serialized with [`Self::to_bytes`].
    pub fn from_bytes(data: &[u8]) -> Result<Self> {
        let corrupt =
            |msg: &str| BypassError::Tree(fbp_simplex_tree::TreeError::Corrupt(msg.to_string()));
        if data.len() < 8 {
            return Err(corrupt("reduced image shorter than header"));
        }
        let r = u32::from_le_bytes(data[0..4].try_into().unwrap()) as usize;
        let d = u32::from_le_bytes(data[4..8].try_into().unwrap()) as usize;
        if r == 0 || d == 0 || r > d || d > 1 << 20 {
            return Err(corrupt("implausible reducer dimensions"));
        }
        let floats = d + r * d + r + r + 1;
        let header_len = 8 + floats * 8;
        if data.len() < header_len {
            return Err(corrupt("truncated reducer header"));
        }
        let mut vals = data[8..header_len]
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()));
        let mut take = |n: usize| -> Vec<f64> { (&mut vals).take(n).collect() };
        let mean = take(d);
        let comp_raw = take(r * d);
        let lo = take(r);
        let span = take(r);
        let explained_variance = take(1)[0];
        // `!(s > 0.0)` deliberately catches NaN as well as s <= 0.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if span.iter().any(|&s| !(s > 0.0)) {
            return Err(corrupt("non-positive reducer span"));
        }
        let reducer = PcaReducer {
            mean,
            components: Matrix::from_vec(r, d, comp_raw),
            lo,
            span,
            explained_variance,
        };
        let tree = SimplexTree::from_bytes(&data[header_len..])?;
        if tree.dim() != r || tree.layout().weight_dim != d {
            return Err(corrupt("tree/reducer dimension mismatch"));
        }
        Ok(ReducedBypass { reducer, tree })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Samples living (noisily) on a 2-plane inside R^6.
    fn planar_samples(n: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let a = rng.gen_range(-1.0..1.0);
                let b = rng.gen_range(-1.0..1.0);
                let eps = 0.01;
                vec![
                    a + rng.gen_range(-eps..eps),
                    b + rng.gen_range(-eps..eps),
                    a + b + rng.gen_range(-eps..eps),
                    a - b + rng.gen_range(-eps..eps),
                    0.5 * a + rng.gen_range(-eps..eps),
                    rng.gen_range(-eps..eps),
                ]
            })
            .collect()
    }

    #[test]
    fn pca_finds_the_plane() {
        let rows = planar_samples(300, 1);
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let red = PcaReducer::fit(&refs, 2).unwrap();
        assert!(
            red.explained_variance > 0.99,
            "2 axes should capture a 2-plane: {}",
            red.explained_variance
        );
        // Transforms land in [0,1]^2.
        for r in rows.iter().take(50) {
            let z = red.transform(r).unwrap();
            assert_eq!(z.len(), 2);
            assert!(z.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    #[test]
    fn lift_project_roundtrip_on_kept_subspace() {
        let rows = planar_samples(200, 2);
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let red = PcaReducer::fit(&refs, 3).unwrap();
        // A displacement inside the kept subspace survives the roundtrip.
        let dz = vec![0.05, -0.03, 0.01];
        let lifted = red.lift_delta(&dz).unwrap();
        let back = red.project_delta(&lifted).unwrap();
        for (a, b) in dz.iter().zip(back.iter()) {
            assert!((a - b).abs() < 1e-9, "{dz:?} vs {back:?}");
        }
    }

    #[test]
    fn fit_validation() {
        assert!(PcaReducer::fit(&[], 2).is_err());
        let row = vec![1.0, 2.0];
        let refs: Vec<&[f64]> = vec![&row];
        assert!(PcaReducer::fit(&refs, 0).is_err());
        assert!(PcaReducer::fit(&refs, 3).is_err());
        assert!(PcaReducer::fit(&refs, 2).is_ok());
    }

    #[test]
    fn reduced_bypass_learns_and_predicts() {
        let rows = planar_samples(300, 3);
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let mut rb = ReducedBypass::fit(&refs, 2, TreeConfig::default()).unwrap();
        assert_eq!(rb.reducer().reduced_dim(), 2);

        // Fresh module predicts "no change".
        let q = &rows[0];
        let p0 = rb.predict(q).unwrap();
        for (a, b) in p0.point.iter().zip(q.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
        assert!(p0.weights.iter().all(|&w| (w - 1.0).abs() < 1e-9));

        // Insert learned parameters; prediction at the same point recalls
        // the weights exactly and the point approximately (Δ only lives in
        // the kept subspace).
        let qopt: Vec<f64> = q.iter().map(|x| x + 0.02).collect();
        let weights = vec![3.0, 1.0, 1.0, 0.5, 1.0, 1.0];
        rb.insert(q, &qopt, &weights).unwrap();
        let p1 = rb.predict(q).unwrap();
        assert!(
            (p1.weights[0] / p1.weights[1] - 3.0).abs() < 1e-6,
            "{:?}",
            p1.weights
        );
        assert!(rb.tree().stored_points() == 1);
        // The tree works in 2 dims: one split creates ≤ 3 children.
        assert!(rb.tree().node_count() <= 4);
    }

    #[test]
    fn reduced_tree_is_shallower_per_point() {
        // Same insert stream into a 2-d reduced tree: more inserts are
        // spatially shared, lookups stay short.
        let rows = planar_samples(400, 5);
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let mut rb = ReducedBypass::fit(&refs, 2, TreeConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        for (i, row) in rows.iter().take(60).enumerate() {
            let qopt: Vec<f64> = row.iter().map(|x| x + rng.gen_range(-0.01..0.01)).collect();
            let w: Vec<f64> = (0..6).map(|k| 1.0 + ((i + k) % 5) as f64).collect();
            rb.insert(row, &qopt, &w).unwrap();
        }
        rb.tree().verify_invariants().unwrap();
        let hit_depth = rb.predict(&rows[100]).unwrap().nodes_visited;
        assert!(hit_depth >= 1);
        assert!(rb.tree().stored_points() > 30);
    }

    #[test]
    fn persistence_roundtrip() {
        let rows = planar_samples(150, 11);
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let mut rb = ReducedBypass::fit(&refs, 2, TreeConfig::default()).unwrap();
        let q = &rows[0];
        let qopt: Vec<f64> = q.iter().map(|x| x + 0.03).collect();
        rb.insert(q, &qopt, &[2.0, 1.0, 1.0, 1.0, 0.5, 1.0])
            .unwrap();

        let image = rb.to_bytes();
        assert_eq!(image.capacity(), image.len());
        let back = ReducedBypass::from_bytes(&image).unwrap();
        assert_eq!(back.tree().stored_points(), rb.tree().stored_points());
        assert!(
            (back.reducer().explained_variance - rb.reducer().explained_variance).abs() < 1e-15
        );
        for probe in rows.iter().take(10) {
            let a = rb.predict(probe).unwrap();
            let b = back.predict(probe).unwrap();
            assert_eq!(a, b);
        }
        // Corruption in header and in tree body both rejected.
        assert!(ReducedBypass::from_bytes(&image[..7]).is_err());
        let mut bad = image.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        assert!(ReducedBypass::from_bytes(&bad).is_err());
        let mut bad_dims = image.clone();
        bad_dims[0] = 0; // r = 0
        assert!(ReducedBypass::from_bytes(&bad_dims).is_err());
    }

    #[test]
    fn insert_dim_mismatch() {
        let rows = planar_samples(50, 7);
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let mut rb = ReducedBypass::fit(&refs, 2, TreeConfig::default()).unwrap();
        let q = &rows[0];
        assert!(rb.insert(q, &[0.0; 3], &[1.0; 6]).is_err());
        assert!(rb.predict(&[0.0; 3]).is_err());
    }
}
