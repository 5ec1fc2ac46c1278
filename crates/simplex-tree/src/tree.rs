//! The Simplex Tree proper: lookup, predict (`Mopt`), insert.
//!
//! # Layout
//!
//! A simplex's vertex list is never stored. The root spans vertices
//! `0..=D` (the synthetic corners), and the child a split creates at
//! position `h` *is* its parent with vertex `h` replaced by the split
//! vertex. A lookup therefore rebuilds the leaf's `D + 1` ids on its way
//! down, exactly as it carries the barycentric coordinates, and the
//! structure shrinks to:
//!
//! * one 4-byte node record per simplex — a leaf, or the index of its
//!   split — and no heap allocation per leaf;
//! * per inner node, one 16-byte split record (refined node, split
//!   vertex, first child, child count), its `μ` (the split point's
//!   coordinates in the parent, `D + 1` floats) and its child positions,
//!   each kept in one flat array for the whole tree.
//!
//! A split appends its children as one contiguous id range, so the
//! children of all splits, in split order, tile the node ids `1..`.

use crate::oqp::{Oqp, OqpLayout, WeightScale};
use crate::{Result, TreeError};
use fbp_geometry::{barycentric, split, RootSimplex};

/// Index of a node in the tree arena.
pub type NodeId = u32;
/// Index of a vertex in the vertex pool.
pub type VertexId = u32;

/// A stored vertex: a query point plus its flat-encoded OQP value.
#[derive(Debug, Clone)]
pub(crate) struct Vertex {
    pub(crate) point: Box<[f64]>,
    /// Flat `N`-dimensional OQP encoding (see [`WeightScale`]).
    pub(crate) value: Box<[f64]>,
    /// True for the synthetic corners of the root simplex `S0`; false for
    /// vertices inserted from actual feedback. Only real vertices count as
    /// "stored query points" in the paper's statistics.
    pub(crate) synthetic: bool,
}

/// One simplex: a leaf, or the index of the split that refined it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Node(u32);

impl Node {
    pub(crate) const LEAF: Node = Node(u32::MAX);

    pub(crate) fn inner(split: usize) -> Node {
        Node(split as u32)
    }

    /// The node's split, `None` for a leaf.
    pub(crate) fn split(self) -> Option<usize> {
        (self != Node::LEAF).then_some(self.0 as usize)
    }
}

/// What a split adds to the node it refines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Split {
    /// The refined node.
    pub(crate) node: NodeId,
    /// The vertex the split created.
    pub(crate) vertex: VertexId,
    /// Children are the node ids `first_child .. first_child + children`.
    pub(crate) first_child: NodeId,
    /// Proper children (fewer than `D + 1` when the split point lay on a
    /// face: degenerate children are never created).
    pub(crate) children: u16,
}

/// The tree's structure in flat arrays.
#[derive(Debug, Clone, Default)]
pub(crate) struct Arena {
    pub(crate) nodes: Vec<Node>,
    pub(crate) splits: Vec<Split>,
    /// `μ` of split `s` — the split point's barycentric coordinates in the
    /// refined simplex, which drive the O(D) descent step — at
    /// `mu[s·(D+1) ..][..D+1]`.
    pub(crate) mu: Vec<f64>,
    /// Child positions: node `c ≥ 1` replaced vertex position
    /// `child_pos[c - 1]` of its parent.
    pub(crate) child_pos: Vec<u16>,
}

impl Arena {
    /// A lone root leaf.
    fn root() -> Self {
        Arena {
            nodes: vec![Node::LEAF],
            ..Arena::default()
        }
    }

    /// `μ` of split `s` (`d1 = D + 1`).
    pub(crate) fn mu(&self, s: usize, d1: usize) -> &[f64] {
        &self.mu[s * d1..(s + 1) * d1]
    }

    /// The children of split `s` as `(position, node)`, in creation order.
    pub(crate) fn children(&self, s: usize) -> impl Iterator<Item = (usize, NodeId)> + '_ {
        let Split {
            first_child,
            children,
            ..
        } = self.splits[s];
        let positions = &self.child_pos[first_child as usize - 1..][..children as usize];
        positions
            .iter()
            .zip(first_child..)
            .map(|(&h, child)| (h as usize, child))
    }

    /// Refine leaf `node` at a new `vertex` whose coordinates in it are
    /// `mu`, creating one child per position in `hs`.
    pub(crate) fn refine(&mut self, node: NodeId, vertex: VertexId, mu: &[f64], hs: &[usize]) {
        let s = self.splits.len();
        self.splits.push(Split {
            node,
            vertex,
            first_child: self.nodes.len() as NodeId,
            children: hs.len() as u16,
        });
        self.mu.extend_from_slice(mu);
        self.child_pos.extend(hs.iter().map(|&h| h as u16));
        self.nodes.resize(self.nodes.len() + hs.len(), Node::LEAF);
        self.nodes[node as usize] = Node::inner(s);
    }
}

/// Which child a lookup descends into when several are plausible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DescentRule {
    /// Descend into the child with the largest minimum barycentric
    /// coordinate (most-interior child). Deterministic on boundaries,
    /// robust to floating-point noise; the default.
    #[default]
    MostInterior,
    /// Descend into the first child whose coordinates are all ≥ −tol
    /// (the naive reading of the paper's pseudo-code, Figure 8). Falls
    /// back to the most-interior child when rounding leaves no child
    /// containing the point. Ablation: `ablation_descent`.
    FirstContaining,
}

/// Tuning knobs for the tree (paper §4.2 plus the refinements documented
/// in DESIGN.md §4).
#[derive(Debug, Clone, PartialEq)]
pub struct TreeConfig {
    /// Insert threshold ε on the offset block: skip the insert when the
    /// prediction is already within this of the converged Δ (component
    /// max). The paper's single ε corresponds to `delta_eps == weight_eps`.
    pub delta_eps: f64,
    /// Insert threshold ε on the weight block.
    pub weight_eps: f64,
    /// Barycentric tolerance under which an inserted point is treated as an
    /// already-stored vertex (OQP update instead of split).
    pub vertex_snap_tol: f64,
    /// Tolerance for "inside the root simplex" on lookups.
    pub domain_tol: f64,
    /// Storage scale for the weight block (raw per the paper, log as the
    /// stability ablation).
    pub weight_scale: WeightScale,
    /// Child-selection rule during lookups.
    pub descent: DescentRule,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            delta_eps: 1e-3,
            weight_eps: 1e-3,
            vertex_snap_tol: 1e-7,
            domain_tol: 1e-7,
            weight_scale: WeightScale::Raw,
            descent: DescentRule::MostInterior,
        }
    }
}

/// Result of a leaf lookup.
#[derive(Debug, Clone)]
pub struct LeafHit {
    /// The enclosing leaf simplex.
    pub node: NodeId,
    /// Barycentric coordinates of the query w.r.t. that leaf
    /// (length `D + 1`, sums to 1).
    pub lambda: Vec<f64>,
    /// The leaf's vertex ids, in the order of `lambda`.
    pub vertices: Vec<VertexId>,
    /// Simplices visited root→leaf inclusive (the Fig. 16 metric).
    pub nodes_visited: usize,
}

/// Result of a prediction (`Mopt(q)`).
#[derive(Debug, Clone)]
pub struct Prediction {
    /// The predicted optimal query parameters.
    pub oqp: Oqp,
    /// Simplices visited to find the enclosing leaf.
    pub nodes_visited: usize,
}

/// Outcome of an insert.
#[derive(Debug, Clone, PartialEq)]
pub enum InsertOutcome {
    /// The point improved the approximation: its leaf was split into this
    /// many children.
    Split {
        /// Proper (non-degenerate) children created.
        children: usize,
    },
    /// The point coincided with an already-stored vertex whose OQP was
    /// overwritten (the re-learned already-seen query).
    UpdatedVertex,
    /// Prediction was already within ε: nothing stored (paper §4.2). The
    /// observed component differences are reported for diagnostics.
    Skipped {
        /// Max |Δ component difference| between prediction and input.
        delta_diff: f64,
        /// Max |weight component difference|.
        weight_diff: f64,
    },
}

/// The Simplex Tree (see crate docs for the big picture).
#[derive(Debug, Clone)]
pub struct SimplexTree {
    dim: usize,
    layout: OqpLayout,
    config: TreeConfig,
    root_shape: RootSimplex,
    pub(crate) arena: Arena,
    pub(crate) vertices: Vec<Vertex>,
    stored_points: u64,
    updates: u64,
    skips: u64,
}

impl SimplexTree {
    /// Create an empty tree over the given root simplex.
    ///
    /// `layout.delta_dim` must equal the domain dimensionality: the offset
    /// lives in the same space as the query points.
    pub fn new(root_shape: RootSimplex, layout: OqpLayout, config: TreeConfig) -> Result<Self> {
        let dim = root_shape.dim();
        if layout.delta_dim != dim {
            return Err(TreeError::DimMismatch {
                expected: dim,
                got: layout.delta_dim,
            });
        }
        let default_value: Box<[f64]> = Oqp::default_for(&layout)
            .encode(config.weight_scale)
            .into_boxed_slice();
        let vertices: Vec<Vertex> = root_shape
            .vertices()
            .into_iter()
            .map(|point| Vertex {
                point: point.into_boxed_slice(),
                value: default_value.clone(),
                synthetic: true,
            })
            .collect();
        Ok(SimplexTree {
            dim,
            layout,
            config,
            root_shape,
            arena: Arena::root(),
            vertices,
            stored_points: 0,
            updates: 0,
            skips: 0,
        })
    }

    /// Domain dimensionality `D`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// OQP layout (N = delta + weight dims).
    pub fn layout(&self) -> &OqpLayout {
        &self.layout
    }

    /// Configuration in effect.
    pub fn config(&self) -> &TreeConfig {
        &self.config
    }

    /// The root simplex shape.
    pub fn root_shape(&self) -> &RootSimplex {
        &self.root_shape
    }

    /// Number of *real* (non-synthetic) stored query points.
    pub fn stored_points(&self) -> u64 {
        self.stored_points
    }

    /// Number of in-place OQP updates (already-seen re-inserts).
    pub fn update_count(&self) -> u64 {
        self.updates
    }

    /// Number of inserts skipped by the ε-criterion.
    pub fn skip_count(&self) -> u64 {
        self.skips
    }

    /// Total nodes (simplices) in the arena.
    pub fn node_count(&self) -> usize {
        self.arena.nodes.len()
    }

    /// Total vertices, including the `D + 1` synthetic root corners.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Find the leaf simplex containing `q` (paper's `Lookup`).
    ///
    /// Descends from the root choosing, at each inner node, the child with
    /// the largest minimum barycentric coordinate — the most-interior
    /// child. This resolves boundary ties deterministically (the special
    /// cases the paper's footnote 3 waves away) and is exact for interior
    /// points. The leaf's vertex ids are rebuilt on the way down: the root
    /// spans `0..=D`, and descending into the child at position `h`
    /// replaces id `h` with the split vertex.
    pub fn lookup(&self, q: &[f64]) -> Result<LeafHit> {
        if q.len() != self.dim {
            return Err(TreeError::DimMismatch {
                expected: self.dim,
                got: q.len(),
            });
        }
        let mut lambda = self.root_shape.coords(q)?;
        let (_, min) = barycentric::min_coord(&lambda);
        if min < -self.config.domain_tol {
            return Err(TreeError::OutOfDomain { min_coord: min });
        }
        let d1 = lambda.len();
        let mut vertices: Vec<VertexId> = (0..d1 as VertexId).collect();
        let mut node_id: NodeId = 0;
        let mut visited = 1usize;
        let mut next = vec![0.0; d1];
        loop {
            let Some(s) = self.arena.nodes[node_id as usize].split() else {
                return Ok(LeafHit {
                    node: node_id,
                    lambda,
                    vertices,
                    nodes_visited: visited,
                });
            };
            let mu = self.arena.mu(s, d1);
            let mut best: Option<(f64, usize, NodeId)> = None;
            let mut chosen: Option<(usize, NodeId)> = None;
            for (h, child) in self.arena.children(s) {
                let m = barycentric::child_min_coord(&lambda, mu, h);
                if self.config.descent == DescentRule::FirstContaining
                    && m >= -self.config.domain_tol
                {
                    chosen = Some((h, child));
                    break;
                }
                if best.is_none_or(|(bm, _, _)| m > bm) {
                    best = Some((m, h, child));
                }
            }
            let (h, child) = chosen.unwrap_or_else(|| {
                let (_, h, child) = best.expect("inner node has at least one child");
                (h, child)
            });
            barycentric::child_coords_into(&lambda, mu, h, &mut next);
            std::mem::swap(&mut lambda, &mut next);
            vertices[h] = self.arena.splits[s].vertex;
            node_id = child;
            visited += 1;
        }
    }

    /// Predict the optimal query parameters for `q` (the paper's `Mopt`).
    ///
    /// Interpolates the flat OQP values stored at the enclosing leaf's
    /// vertices with the query's barycentric coordinates — the unbalanced
    /// Haar evaluation of §4.2.
    pub fn predict(&self, q: &[f64]) -> Result<Prediction> {
        let hit = self.lookup(q)?;
        let oqp = self.interpolate_at(&hit);
        Ok(Prediction {
            oqp,
            nodes_visited: hit.nodes_visited,
        })
    }

    /// Interpolate the OQP at an already-computed leaf hit.
    pub fn interpolate_at(&self, hit: &LeafHit) -> Oqp {
        let values: Vec<&[f64]> = hit
            .vertices
            .iter()
            .map(|&v| &*self.vertices[v as usize].value)
            .collect();
        let mut flat = vec![0.0; self.layout.flat_len()];
        barycentric::interpolate(&values, &hit.lambda, &mut flat);
        Oqp::decode(&flat, &self.layout, self.config.weight_scale)
    }

    /// Store the converged OQPs for query point `q` (paper's `Insert`).
    ///
    /// Follows Figure 8: predict first; if the prediction already matches
    /// `oqp` within the ε thresholds, store nothing. Otherwise split the
    /// enclosing leaf at `q` (or update in place when `q` is an
    /// already-stored vertex).
    pub fn insert(&mut self, q: &[f64], oqp: &Oqp) -> Result<InsertOutcome> {
        if oqp.layout() != self.layout {
            return Err(TreeError::DimMismatch {
                expected: self.layout.flat_len(),
                got: oqp.layout().flat_len(),
            });
        }
        let hit = self.lookup(q)?;
        let predicted = self.interpolate_at(&hit);
        let delta_diff = predicted.max_delta_diff(oqp);
        let weight_diff = predicted.max_weight_diff(oqp);
        if delta_diff <= self.config.delta_eps && weight_diff <= self.config.weight_eps {
            self.skips += 1;
            return Ok(InsertOutcome::Skipped {
                delta_diff,
                weight_diff,
            });
        }
        let encoded: Box<[f64]> = oqp.encode(self.config.weight_scale).into_boxed_slice();
        match split::split_children(&hit.lambda, self.config.vertex_snap_tol) {
            split::SplitOutcome::AtVertex(h) => {
                let vert = &mut self.vertices[hit.vertices[h] as usize];
                vert.value = encoded;
                if vert.synthetic {
                    // A feedback point landed exactly on a synthetic corner:
                    // it now carries real information.
                    vert.synthetic = false;
                    self.stored_points += 1;
                } else {
                    self.updates += 1;
                }
                Ok(InsertOutcome::UpdatedVertex)
            }
            split::SplitOutcome::Split(hs) => {
                debug_assert!(!hs.is_empty(), "lookup returned a non-containing leaf");
                let new_vid = self.vertices.len() as VertexId;
                self.vertices.push(Vertex {
                    point: q.to_vec().into_boxed_slice(),
                    value: encoded,
                    synthetic: false,
                });
                self.arena.refine(hit.node, new_vid, &hit.lambda, &hs);
                self.stored_points += 1;
                Ok(InsertOutcome::Split { children: hs.len() })
            }
        }
    }

    /// Exact stored OQP of the vertex nearest to `q`, if `q` coincides with
    /// a stored vertex within `tol` (∞-norm on the point coordinates).
    ///
    /// This is the *AlreadySeen* fast path: for a stored query the
    /// prediction equals the stored parameters exactly, so systems may skip
    /// interpolation altogether.
    pub fn stored_exact(&self, q: &[f64], tol: f64) -> Option<Oqp> {
        let hit = self.lookup(q).ok()?;
        for (&vid, &l) in hit.vertices.iter().zip(hit.lambda.iter()) {
            if l >= 1.0 - self.config.vertex_snap_tol {
                let v = &self.vertices[vid as usize];
                if !v.synthetic
                    && v.point
                        .iter()
                        .zip(q.iter())
                        .all(|(a, b)| (a - b).abs() <= tol)
                {
                    return Some(Oqp::decode(
                        &v.value,
                        &self.layout,
                        self.config.weight_scale,
                    ));
                }
            }
        }
        None
    }

    /// Check structural invariants; returns a description of the first
    /// violation. Used by tests and after deserialization.
    ///
    /// Checks the implicit form: the arena's lengths agree, the children
    /// of all splits tile the node ids `1..` in split order, every node is
    /// reachable from the root exactly once, and every split has a finite
    /// `μ` summing to 1, positive at its distinct, in-range child
    /// positions, and an in-range split vertex.
    pub fn verify_invariants(&self) -> std::result::Result<(), String> {
        let vcount = self.vertices.len();
        let d1 = self.dim + 1;
        if vcount < d1 {
            return Err(format!(
                "{vcount} vertices, fewer than the {d1} root corners"
            ));
        }
        for v in &self.vertices {
            if v.point.len() != self.dim {
                return Err(format!(
                    "vertex point dim {} != {}",
                    v.point.len(),
                    self.dim
                ));
            }
            if v.value.len() != self.layout.flat_len() {
                return Err(format!(
                    "vertex value len {} != {}",
                    v.value.len(),
                    self.layout.flat_len()
                ));
            }
        }
        let Arena {
            nodes,
            splits,
            mu,
            child_pos,
        } = &self.arena;
        if nodes.is_empty() || child_pos.len() != nodes.len() - 1 {
            return Err(format!(
                "{} nodes but {} child positions",
                nodes.len(),
                child_pos.len()
            ));
        }
        if mu.len() != splits.len() * d1 {
            return Err(format!("{} splits but {} μ values", splits.len(), mu.len()));
        }
        let mut next_child = 1usize;
        for (s, split) in splits.iter().enumerate() {
            if split.first_child as usize != next_child || split.children == 0 {
                return Err(format!("split {s} children do not tile the node ids"));
            }
            if nodes.get(split.node as usize) != Some(&Node::inner(s)) {
                return Err(format!("split {s} not owned by its node {}", split.node));
            }
            next_child += split.children as usize;
        }
        if next_child != nodes.len() {
            return Err(format!(
                "split children cover {next_child} of {} nodes",
                nodes.len()
            ));
        }
        let mut reachable = vec![false; nodes.len()];
        let mut seen_h = vec![false; d1];
        let mut stack: Vec<NodeId> = vec![0];
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut reachable[id as usize], true) {
                return Err(format!("node {id} reachable twice (cycle or shared child)"));
            }
            let Some(s) = nodes[id as usize].split() else {
                continue;
            };
            let Some(split) = splits.get(s) else {
                return Err(format!("node {id} points at dangling split {s}"));
            };
            if split.vertex as usize >= vcount {
                return Err(format!("node {id} split_vertex dangling"));
            }
            let mu = self.arena.mu(s, d1);
            if mu.iter().any(|m| !m.is_finite()) {
                return Err(format!("node {id} split_mu is not finite"));
            }
            let sum: f64 = mu.iter().sum();
            if (sum - 1.0).abs() > 1e-6 {
                return Err(format!("node {id} split_mu sums to {sum}"));
            }
            for (h, child) in self.arena.children(s) {
                if h >= d1 {
                    return Err(format!("node {id} child position {h} out of range"));
                }
                if std::mem::replace(&mut seen_h[h], true) {
                    return Err(format!("node {id} duplicate child position {h}"));
                }
                if mu[h] <= 0.0 {
                    return Err(format!(
                        "node {id} child at position {h} has non-positive μ"
                    ));
                }
                stack.push(child);
            }
            for (h, _) in self.arena.children(s) {
                seen_h[h] = false;
            }
        }
        if let Some(unreached) = reachable.iter().position(|&r| !r) {
            return Err(format!("node {unreached} unreachable from root"));
        }
        Ok(())
    }

    /// Iterate stored (non-synthetic) vertices as `(point, decoded OQP)`.
    pub fn stored_vertices(&self) -> impl Iterator<Item = (&[f64], Oqp)> + '_ {
        self.vertices.iter().filter(|v| !v.synthetic).map(|v| {
            (
                &*v.point,
                Oqp::decode(&v.value, &self.layout, self.config.weight_scale),
            )
        })
    }

    /// Internal constructor for persistence: rebuild from raw parts.
    pub(crate) fn from_raw_parts(
        root_shape: RootSimplex,
        layout: OqpLayout,
        config: TreeConfig,
        arena: Arena,
        vertices: Vec<Vertex>,
        counters: [u64; 3],
    ) -> Result<Self> {
        let [stored_points, updates, skips] = counters;
        let tree = SimplexTree {
            dim: root_shape.dim(),
            layout,
            config,
            root_shape,
            arena,
            vertices,
            stored_points,
            updates,
            skips,
        };
        tree.verify_invariants().map_err(TreeError::Corrupt)?;
        Ok(tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tri_tree() -> SimplexTree {
        SimplexTree::new(
            RootSimplex::standard(2),
            OqpLayout::new(2, 2),
            TreeConfig::default(),
        )
        .unwrap()
    }

    fn oqp(d: [f64; 2], w: [f64; 2]) -> Oqp {
        Oqp {
            delta: d.to_vec(),
            weights: w.to_vec(),
        }
    }

    #[test]
    fn empty_tree_predicts_defaults_everywhere() {
        let tree = tri_tree();
        for q in [[0.1, 0.1], [0.5, 0.4], [0.0, 0.0], [0.98, 0.01]] {
            let p = tree.predict(&q).unwrap();
            assert_eq!(p.oqp, Oqp::default_for(tree.layout()));
            assert_eq!(p.nodes_visited, 1);
        }
    }

    #[test]
    fn out_of_domain_rejected() {
        let tree = tri_tree();
        assert!(matches!(
            tree.predict(&[0.7, 0.7]),
            Err(TreeError::OutOfDomain { .. })
        ));
        assert!(matches!(
            tree.predict(&[-0.2, 0.1]),
            Err(TreeError::OutOfDomain { .. })
        ));
        assert!(matches!(
            tree.predict(&[0.1]),
            Err(TreeError::DimMismatch { .. })
        ));
    }

    #[test]
    fn insert_then_exact_prediction_at_vertex() {
        let mut tree = tri_tree();
        let learned = oqp([0.05, -0.01], [4.0, 0.25]);
        let out = tree.insert(&[0.3, 0.3], &learned).unwrap();
        assert_eq!(out, InsertOutcome::Split { children: 3 });
        assert_eq!(tree.stored_points(), 1);
        // AlreadySeen: prediction at the stored point is exact.
        let p = tree.predict(&[0.3, 0.3]).unwrap();
        assert!(p.oqp.max_component_diff(&learned) < 1e-9);
        // stored_exact also finds it.
        let exact = tree.stored_exact(&[0.3, 0.3], 1e-12).unwrap();
        assert!(exact.max_component_diff(&learned) < 1e-12);
        assert!(tree.stored_exact(&[0.31, 0.3], 1e-12).is_none());
    }

    #[test]
    fn epsilon_criterion_skips_redundant_inserts() {
        let mut tree = tri_tree();
        let learned = oqp([0.05, -0.01], [4.0, 0.25]);
        tree.insert(&[0.3, 0.3], &learned).unwrap();
        // Re-inserting identical parameters at the same point is skipped.
        let out = tree.insert(&[0.3, 0.3], &learned).unwrap();
        assert!(matches!(out, InsertOutcome::Skipped { .. }));
        assert_eq!(tree.skip_count(), 1);
        // Inserting the default OQP anywhere in a default tree is skipped.
        let mut fresh = tri_tree();
        let out = fresh
            .insert(&[0.2, 0.2], &Oqp::default_for(fresh.layout()))
            .unwrap();
        assert!(matches!(out, InsertOutcome::Skipped { .. }));
        assert_eq!(fresh.node_count(), 1);
    }

    #[test]
    fn reinsert_at_vertex_updates_in_place() {
        let mut tree = tri_tree();
        tree.insert(&[0.3, 0.3], &oqp([0.05, 0.0], [4.0, 1.0]))
            .unwrap();
        let nodes_before = tree.node_count();
        let better = oqp([0.1, 0.1], [8.0, 0.5]);
        let out = tree.insert(&[0.3, 0.3], &better).unwrap();
        assert_eq!(out, InsertOutcome::UpdatedVertex);
        assert_eq!(tree.node_count(), nodes_before, "no new simplices");
        assert_eq!(tree.update_count(), 1);
        let p = tree.predict(&[0.3, 0.3]).unwrap();
        assert!(p.oqp.max_component_diff(&better) < 1e-9);
    }

    #[test]
    fn interpolation_blends_toward_default_at_corners() {
        let mut tree = tri_tree();
        let learned = oqp([0.0, 0.0], [9.0, 9.0]);
        tree.insert(&[0.25, 0.25], &learned).unwrap();
        // Halfway between the stored point and a default corner the
        // weights interpolate between 9 and 1.
        let p = tree.predict(&[0.125, 0.125]).unwrap();
        assert!(p.oqp.weights[0] > 1.0 && p.oqp.weights[0] < 9.0);
        // At a root corner, the default is untouched.
        let p0 = tree.predict(&[0.0, 0.0]).unwrap();
        assert!((p0.oqp.weights[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deep_descent_and_stats() {
        let mut tree = tri_tree();
        let mut cfg_points = Vec::new();
        // Insert a ladder of points, each inside the previous split.
        let mut x = 0.3;
        for i in 0..8 {
            let q = [x, 0.3];
            let o = oqp([0.01 * (i as f64 + 1.0), 0.0], [1.0 + i as f64, 1.0]);
            tree.insert(&q, &o).unwrap();
            cfg_points.push(q);
            x *= 0.6;
        }
        assert_eq!(tree.stored_points(), 8);
        tree.verify_invariants().unwrap();
        // Lookups visit more than one node now.
        let hit = tree.lookup(&[0.001, 0.29]).unwrap();
        assert!(hit.nodes_visited > 1);
        // All stored points still predict exactly.
        for (i, q) in cfg_points.iter().enumerate() {
            let p = tree.predict(q).unwrap();
            assert!(
                (p.oqp.weights[0] - (1.0 + i as f64)).abs() < 1e-6,
                "point {i}: {:?}",
                p.oqp
            );
        }
    }

    #[test]
    fn face_insert_creates_partial_split() {
        let mut tree = tri_tree();
        // Point on the hypotenuse edge (λ₀ = 0): only 2 proper children.
        let out = tree
            .insert(&[0.5, 0.5], &oqp([0.02, 0.02], [2.0, 2.0]))
            .unwrap();
        assert_eq!(out, InsertOutcome::Split { children: 2 });
        tree.verify_invariants().unwrap();
        // Lookups around the edge still work.
        for q in [[0.45, 0.45], [0.6, 0.39], [0.2, 0.75]] {
            tree.lookup(&q).unwrap();
        }
    }

    #[test]
    fn boundary_point_lookup_is_deterministic() {
        let mut tree = tri_tree();
        tree.insert(&[0.25, 0.25], &oqp([0.1, 0.0], [2.0, 1.0]))
            .unwrap();
        // The inserted point itself lies on the boundary of all three
        // children; lookup must pick exactly one and interpolation must
        // still be exact there.
        let hit1 = tree.lookup(&[0.25, 0.25]).unwrap();
        let hit2 = tree.lookup(&[0.25, 0.25]).unwrap();
        assert_eq!(hit1.node, hit2.node);
        let p = tree.predict(&[0.25, 0.25]).unwrap();
        assert!((p.oqp.delta[0] - 0.1).abs() < 1e-9);
    }

    #[test]
    fn log_scale_weights_stay_positive() {
        let cfg = TreeConfig {
            weight_scale: WeightScale::Log,
            ..TreeConfig::default()
        };
        let mut tree =
            SimplexTree::new(RootSimplex::standard(2), OqpLayout::new(2, 2), cfg).unwrap();
        tree.insert(&[0.3, 0.3], &oqp([0.0, 0.0], [100.0, 0.01]))
            .unwrap();
        for q in [[0.1, 0.1], [0.3, 0.31], [0.29, 0.3]] {
            let p = tree.predict(&q).unwrap();
            assert!(p.oqp.weights.iter().all(|&w| w > 0.0), "{:?}", p.oqp);
        }
    }

    #[test]
    fn dim_mismatch_on_insert() {
        let mut tree = tri_tree();
        let bad = Oqp {
            delta: vec![0.0; 3],
            weights: vec![1.0; 2],
        };
        assert!(matches!(
            tree.insert(&[0.1, 0.1], &bad),
            Err(TreeError::DimMismatch { .. })
        ));
    }

    #[test]
    fn stored_points_accumulate_and_invariants_hold() {
        let mut tree = tri_tree();
        let pts = [
            [0.1, 0.2],
            [0.4, 0.1],
            [0.2, 0.5],
            [0.05, 0.05],
            [0.33, 0.33],
            [0.6, 0.2],
            [0.15, 0.7],
        ];
        for (i, q) in pts.iter().enumerate() {
            tree.insert(q, &oqp([0.01 * i as f64, 0.0], [1.0 + i as f64, 2.0]))
                .unwrap();
        }
        tree.verify_invariants().unwrap();
        assert_eq!(tree.stored_points(), pts.len() as u64);
        assert_eq!(tree.stored_vertices().count(), pts.len());
        // Every stored vertex predicts its own OQP exactly.
        let stored: Vec<(Vec<f64>, Oqp)> = tree
            .stored_vertices()
            .map(|(p, o)| (p.to_vec(), o))
            .collect();
        for (p, o) in stored {
            let pred = tree.predict(&p).unwrap();
            assert!(
                pred.oqp.max_component_diff(&o) < 1e-6,
                "at {p:?}: {:?} vs {o:?}",
                pred.oqp
            );
        }
    }
}
