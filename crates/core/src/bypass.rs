//! The FeedbackBypass module: `Mopt` prediction and OQP insertion.
//!
//! Domain mapping (Example 1 of the paper): feature vectors are
//! L1-normalized histograms, so one bin is redundant — dropping the last
//! bin maps the feature space onto the standard simplex
//! `{x : xᵢ ≥ 0, Σxᵢ ≤ 1} ⊂ R^{D−1}`, which *is* the Simplex Tree's root.
//! Offsets are stored in the reduced space; the dropped component is
//! reconstructed from the normalization constraint (exactly equivalent to
//! storing it, since it is an affine function of the others and the tree's
//! interpolation is affine). Weights are stored for all `D` components,
//! normalized to geometric mean 1 (the ranking-invariant scale fix; the
//! paper instead pins one weight to 1 — same degrees of freedom, see
//! DESIGN.md §4.6).

use crate::{BypassError, Result};
use fbp_geometry::RootSimplex;
use fbp_simplex_tree::{InsertOutcome, Oqp, OqpLayout, SimplexTree, TreeConfig};

/// How feature vectors map onto the tree's query domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DomainMapping {
    /// Normalized histograms: drop the last bin (paper's Example 1).
    Histogram,
    /// Generic `[0,1]^D` features: identity mapping, `D`-dim unit-cube
    /// root.
    UnitCube,
}

/// Configuration of a FeedbackBypass module.
#[derive(Debug, Clone, Default)]
pub struct BypassConfig {
    /// Simplex Tree knobs (insert thresholds, weight scale, tolerances).
    pub tree: TreeConfig,
}

/// Parameters predicted (or stored) for a query: the materialized
/// `(qopt, Wopt)` ready to hand to the retrieval engine.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictedParams {
    /// Predicted optimal query point (full feature space).
    pub point: Vec<f64>,
    /// Predicted distance weights (full feature space, positive).
    pub weights: Vec<f64>,
    /// Simplices traversed by the lookup (Figure 16 statistic).
    pub nodes_visited: usize,
}

/// The FeedbackBypass module (paper §3–4).
#[derive(Debug, Clone)]
pub struct FeedbackBypass {
    tree: SimplexTree,
    mapping: DomainMapping,
    feature_dim: usize,
    /// Tolerance for histogram-normalization validation.
    norm_tol: f64,
}

impl FeedbackBypass {
    /// Module for L1-normalized histogram features of dimension
    /// `feature_dim` (≥ 2). The tree's query domain is the
    /// `feature_dim − 1` standard simplex.
    pub fn for_histograms(feature_dim: usize, config: BypassConfig) -> Result<Self> {
        if feature_dim < 2 {
            return Err(BypassError::BadQuery(
                "histogram features need at least 2 bins".into(),
            ));
        }
        let d = feature_dim - 1;
        let layout = OqpLayout::new(d, feature_dim);
        let tree = SimplexTree::new(RootSimplex::standard(d), layout, config.tree)?;
        Ok(FeedbackBypass {
            tree,
            mapping: DomainMapping::Histogram,
            feature_dim,
            norm_tol: 1e-6,
        })
    }

    /// Module for generic `[0,1]^D` feature vectors (no normalization
    /// constraint; the root is the paper's scaled corner simplex).
    pub fn for_unit_cube(feature_dim: usize, config: BypassConfig) -> Result<Self> {
        if feature_dim == 0 {
            return Err(BypassError::BadQuery("zero-dimensional features".into()));
        }
        let layout = OqpLayout::new(feature_dim, feature_dim);
        let tree = SimplexTree::new(RootSimplex::unit_cube(feature_dim), layout, config.tree)?;
        Ok(FeedbackBypass {
            tree,
            mapping: DomainMapping::UnitCube,
            feature_dim,
            norm_tol: 1e-6,
        })
    }

    /// Feature-space dimensionality `D`.
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// The underlying Simplex Tree (stats, persistence, inspection).
    pub fn tree(&self) -> &SimplexTree {
        &self.tree
    }

    /// Map a feature vector into the tree's query domain.
    fn project(&self, q: &[f64]) -> Result<Vec<f64>> {
        if q.len() != self.feature_dim {
            return Err(BypassError::DimMismatch {
                expected: self.feature_dim,
                got: q.len(),
            });
        }
        match self.mapping {
            DomainMapping::Histogram => {
                let sum: f64 = q.iter().sum();
                if (sum - 1.0).abs() > self.norm_tol {
                    return Err(BypassError::BadQuery(format!(
                        "histogram not normalized: sums to {sum}"
                    )));
                }
                if q.iter().any(|&x| x < -self.norm_tol) {
                    return Err(BypassError::BadQuery("histogram has negative bins".into()));
                }
                // Drop the last bin; clamp tiny negatives from upstream
                // floating-point noise.
                Ok(q[..self.feature_dim - 1]
                    .iter()
                    .map(|&x| x.max(0.0))
                    .collect())
            }
            DomainMapping::UnitCube => {
                if q.iter()
                    .any(|&x| !(-self.norm_tol..=1.0 + self.norm_tol).contains(&x))
                {
                    return Err(BypassError::BadQuery("feature outside [0,1]".into()));
                }
                Ok(q.iter().map(|&x| x.clamp(0.0, 1.0)).collect())
            }
        }
    }

    /// Lift a query-domain point + offset back into feature space.
    fn reconstruct_point(&self, q_domain: &[f64], delta: &[f64]) -> Vec<f64> {
        match self.mapping {
            DomainMapping::Histogram => {
                let mut full = Vec::with_capacity(self.feature_dim);
                let mut sum = 0.0;
                for (x, d) in q_domain.iter().zip(delta.iter()) {
                    let v = x + d;
                    full.push(v);
                    sum += v;
                }
                // The dropped bin is determined by normalization.
                full.push(1.0 - sum);
                full
            }
            DomainMapping::UnitCube => q_domain
                .iter()
                .zip(delta.iter())
                .map(|(x, d)| x + d)
                .collect(),
        }
    }

    /// Predict the optimal query parameters for `q` — the paper's
    /// `Mopt(q)` (Figure 5: called once per incoming user query).
    pub fn predict(&self, q: &[f64]) -> Result<PredictedParams> {
        let qd = self.project(q)?;
        let pred = self.tree.predict(&qd)?;
        let point = self.reconstruct_point(&qd, &pred.oqp.delta);
        Ok(PredictedParams {
            point,
            weights: pred.oqp.weights,
            nodes_visited: pred.nodes_visited,
        })
    }

    /// Store the converged parameters of a finished feedback loop — the
    /// paper's `Insert(q, v)`.
    ///
    /// `qopt` is the loop's final query point in feature space; `weights`
    /// its final distance weights. Returns what the tree did (split /
    /// update / ε-skip).
    pub fn insert(&mut self, q: &[f64], qopt: &[f64], weights: &[f64]) -> Result<InsertOutcome> {
        if qopt.len() != self.feature_dim {
            return Err(BypassError::DimMismatch {
                expected: self.feature_dim,
                got: qopt.len(),
            });
        }
        if weights.len() != self.feature_dim {
            return Err(BypassError::DimMismatch {
                expected: self.feature_dim,
                got: weights.len(),
            });
        }
        let qd = self.project(q)?;
        let delta_dim = self.tree.layout().delta_dim;
        let delta: Vec<f64> = (0..delta_dim).map(|i| qopt[i] - qd[i]).collect();
        let mut oqp = Oqp {
            delta,
            weights: weights.to_vec(),
        };
        oqp.normalize_weights();
        Ok(self.tree.insert(&qd, &oqp)?)
    }

    /// Serialize the learned mapping (delegates to the tree's format), in
    /// one allocation of exactly the image's size.
    pub fn to_bytes(&self) -> Vec<u8> {
        // The mapping kind is recoverable from the root shape; encode it in
        // one prefix byte anyway for explicitness.
        let mut out = Vec::with_capacity(1 + self.tree.encoded_len());
        out.push(match self.mapping {
            DomainMapping::Histogram => 0u8,
            DomainMapping::UnitCube => 1u8,
        });
        self.tree.write_to(&mut out);
        out
    }

    /// Restore a module serialized with [`Self::to_bytes`].
    pub fn from_bytes(data: &[u8]) -> Result<Self> {
        let Some((&tag, rest)) = data.split_first() else {
            return Err(BypassError::Tree(fbp_simplex_tree::TreeError::Corrupt(
                "empty image".into(),
            )));
        };
        let mapping = match tag {
            0 => DomainMapping::Histogram,
            1 => DomainMapping::UnitCube,
            t => {
                return Err(BypassError::Tree(fbp_simplex_tree::TreeError::Corrupt(
                    format!("unknown mapping tag {t}"),
                )))
            }
        };
        let tree = SimplexTree::from_bytes(rest)?;
        let feature_dim = match mapping {
            DomainMapping::Histogram => tree.dim() + 1,
            DomainMapping::UnitCube => tree.dim(),
        };
        Ok(FeedbackBypass {
            tree,
            mapping,
            feature_dim,
            norm_tol: 1e-6,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(vals: &[f64]) -> Vec<f64> {
        let s: f64 = vals.iter().sum();
        vals.iter().map(|v| v / s).collect()
    }

    #[test]
    fn fresh_module_predicts_identity() {
        let fb = FeedbackBypass::for_histograms(4, BypassConfig::default()).unwrap();
        let q = hist(&[1.0, 2.0, 3.0, 4.0]);
        let p = fb.predict(&q).unwrap();
        for (a, b) in p.point.iter().zip(q.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
        assert_eq!(p.weights, vec![1.0; 4]);
        assert_eq!(p.nodes_visited, 1);
    }

    #[test]
    fn insert_then_predict_roundtrips() {
        let mut fb = FeedbackBypass::for_histograms(4, BypassConfig::default()).unwrap();
        let q = hist(&[1.0, 1.0, 1.0, 1.0]);
        let qopt = hist(&[3.0, 1.0, 1.0, 1.0]);
        let w = [4.0, 1.0, 1.0, 0.25];
        fb.insert(&q, &qopt, &w).unwrap();
        let p = fb.predict(&q).unwrap();
        for (a, b) in p.point.iter().zip(qopt.iter()) {
            assert!((a - b).abs() < 1e-9, "{:?} vs {qopt:?}", p.point);
        }
        // Weights come back normalized to geometric mean 1, ratios intact.
        assert!((p.weights[0] / p.weights[1] - 4.0).abs() < 1e-9);
        assert!((p.weights[0] / p.weights[3] - 16.0).abs() < 1e-9);
        // Reconstructed point still sums to 1 (normalization carried by
        // the dropped-bin reconstruction).
        let s: f64 = p.point.iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn nearby_queries_interpolate() {
        let mut fb = FeedbackBypass::for_histograms(3, BypassConfig::default()).unwrap();
        let q = hist(&[1.0, 1.0, 2.0]);
        let qopt = hist(&[2.0, 1.0, 1.0]);
        fb.insert(&q, &qopt, &[3.0, 1.0, 1.0]).unwrap();
        // A query near the stored one gets pulled toward its parameters.
        let nearby = hist(&[1.05, 1.0, 1.95]);
        let p = fb.predict(&nearby).unwrap();
        assert!(p.weights[0] > p.weights[1], "{:?}", p.weights);
        // A faraway query stays close to the defaults.
        let far = hist(&[0.05, 3.0, 0.1]);
        let pf = fb.predict(&far).unwrap();
        assert!(pf.weights[0] < p.weights[0]);
    }

    #[test]
    fn validation_errors() {
        let fb = FeedbackBypass::for_histograms(4, BypassConfig::default()).unwrap();
        // Not normalized.
        assert!(matches!(
            fb.predict(&[0.5, 0.5, 0.5, 0.5]),
            Err(BypassError::BadQuery(_))
        ));
        // Wrong dimension.
        assert!(matches!(
            fb.predict(&[0.5, 0.5]),
            Err(BypassError::DimMismatch { .. })
        ));
        // Negative bin.
        assert!(matches!(
            fb.predict(&[-0.1, 0.6, 0.3, 0.2]),
            Err(BypassError::BadQuery(_))
        ));
        // Construction guards.
        assert!(FeedbackBypass::for_histograms(1, BypassConfig::default()).is_err());
        assert!(FeedbackBypass::for_unit_cube(0, BypassConfig::default()).is_err());
    }

    #[test]
    fn unit_cube_mapping() {
        let mut fb = FeedbackBypass::for_unit_cube(3, BypassConfig::default()).unwrap();
        let q = [0.2, 0.8, 0.5];
        let p = fb.predict(&q).unwrap();
        assert_eq!(p.point, q.to_vec());
        fb.insert(&q, &[0.3, 0.7, 0.5], &[2.0, 2.0, 0.5]).unwrap();
        let p2 = fb.predict(&q).unwrap();
        assert!((p2.point[0] - 0.3).abs() < 1e-9);
        // Out-of-cube rejected.
        assert!(fb.predict(&[1.5, 0.0, 0.0]).is_err());
    }

    #[test]
    fn persistence_roundtrip() {
        let mut fb = FeedbackBypass::for_histograms(4, BypassConfig::default()).unwrap();
        let q = hist(&[1.0, 2.0, 1.0, 1.0]);
        let qopt = hist(&[2.0, 2.0, 1.0, 0.5]);
        fb.insert(&q, &qopt, &[2.0, 1.0, 1.0, 1.0]).unwrap();
        let img = fb.to_bytes();
        // Tag byte and tree image share one exactly-sized buffer.
        assert_eq!(img.capacity(), img.len());
        assert_eq!(&img[1..], &fb.tree().to_bytes()[..]);
        let back = FeedbackBypass::from_bytes(&img).unwrap();
        assert_eq!(back.feature_dim(), 4);
        let a = fb.predict(&q).unwrap();
        let b = back.predict(&q).unwrap();
        assert_eq!(a, b);
        // Corruption detected.
        assert!(FeedbackBypass::from_bytes(&img[..5]).is_err());
        assert!(FeedbackBypass::from_bytes(&[]).is_err());
        assert!(FeedbackBypass::from_bytes(&[9, 1, 2, 3]).is_err());
    }

    #[test]
    fn epsilon_skip_surfaces() {
        let mut fb = FeedbackBypass::for_histograms(3, BypassConfig::default()).unwrap();
        let q = hist(&[1.0, 1.0, 1.0]);
        // Inserting the defaults is a no-op.
        let out = fb.insert(&q, &q, &[1.0, 1.0, 1.0]).unwrap();
        assert!(matches!(out, InsertOutcome::Skipped { .. }));
        assert_eq!(fb.tree().stored_points(), 0);
    }
}
