//! Test oracle: the explicit form of the implicit tree.
//!
//! The tree stores no vertex lists; [`crate::SimplexTree::lookup`]
//! rebuilds a leaf's ids on its way down. This module rebuilds *every*
//! node's list by a separate walk from the root, checks it against the
//! geometry, and writes the version-1 image the explicit-list tree wrote,
//! so tests can compare the two forms.

use crate::persist::fnv1a;
use crate::tree::{SimplexTree, VertexId};
use bytes::BufMut;

impl SimplexTree {
    /// Every node's explicit vertex list, by node id: the root spans
    /// `0..=D`, a child is its parent with position `h` replaced by the
    /// split vertex.
    pub(crate) fn explicit_vertex_lists(&self) -> Vec<Vec<VertexId>> {
        let mut lists = vec![Vec::new(); self.node_count()];
        lists[0] = (0..=self.dim() as VertexId).collect();
        let mut stack = vec![0usize];
        while let Some(id) = stack.pop() {
            let Some(s) = self.arena.nodes[id].split() else {
                continue;
            };
            let vertex = self.arena.splits[s].vertex;
            for (h, child) in self.arena.children(s) {
                let mut verts = lists[id].clone();
                verts[h] = vertex;
                lists[child as usize] = verts;
                stack.push(child as usize);
            }
        }
        lists
    }

    /// Invariants only the explicit form can state: every simplex spans
    /// `D + 1` distinct vertices, and every split vertex lies where its
    /// `μ` says, at `Σᵢ μᵢ · (vertex i of the refined simplex)`.
    pub(crate) fn verify_explicit(&self) -> Result<(), String> {
        let d1 = self.dim() + 1;
        let lists = self.explicit_vertex_lists();
        for (id, verts) in lists.iter().enumerate() {
            let mut sorted = verts.clone();
            sorted.sort_unstable();
            sorted.dedup();
            if sorted.len() != d1 {
                return Err(format!("node {id} spans {verts:?}"));
            }
            let Some(s) = self.arena.nodes[id].split() else {
                continue;
            };
            let mu = self.arena.mu(s, d1);
            let at = &self.vertices[self.arena.splits[s].vertex as usize].point;
            for (k, &x) in at.iter().enumerate() {
                let combo: f64 = verts
                    .iter()
                    .zip(mu)
                    .map(|(&v, &m)| m * self.vertices[v as usize].point[k])
                    .sum();
                if (combo - x).abs() > 1e-6 * (1.0 + x.abs()) {
                    return Err(format!(
                        "node {id}: split vertex coordinate {k} is {x}, μ places it at {combo}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// The version-1 image of this tree: the version-2 header and vertex
    /// pool, then every node's explicit vertex list, child list and split.
    pub(crate) fn to_bytes_v1(&self) -> Vec<u8> {
        let d1 = self.dim() + 1;
        let v2 = self.to_bytes();
        let splits_len =
            4 + self.arena.splits.len() * (10 + 8 * d1) + 2 * self.arena.child_pos.len();
        let mut out = v2[..v2.len() - 8 - splits_len].to_vec();
        out[4..8].copy_from_slice(&1u32.to_le_bytes());
        let lists = self.explicit_vertex_lists();
        out.put_u32_le(lists.len() as u32);
        for (id, verts) in lists.iter().enumerate() {
            for &v in verts {
                out.put_u32_le(v);
            }
            let Some(s) = self.arena.nodes[id].split() else {
                out.put_u16_le(0);
                out.put_u8(0);
                continue;
            };
            out.put_u16_le(self.arena.splits[s].children);
            for (h, child) in self.arena.children(s) {
                out.put_u16_le(h as u16);
                out.put_u32_le(child);
            }
            out.put_u8(1);
            for &x in self.arena.mu(s, d1) {
                out.put_f64_le(x);
            }
            out.put_u32_le(self.arena.splits[s].vertex);
        }
        let sum = fnv1a(&out);
        out.put_u64_le(sum);
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{DescentRule, InsertOutcome, Oqp, OqpLayout, SimplexTree, TreeConfig};
    use fbp_geometry::RootSimplex;
    use proptest::prelude::*;

    /// splitmix64 over a proptest-drawn seed.
    struct Stream(u64);

    impl Stream {
        fn unit(&mut self) -> f64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        }

        /// A point of the standard simplex; one in four on a facet.
        fn point(&mut self, dim: usize) -> Vec<f64> {
            let raw: Vec<f64> = (0..=dim).map(|_| 0.02 + self.unit()).collect();
            let s: f64 = raw.iter().sum();
            let mut q: Vec<f64> = raw[..dim].iter().map(|x| x / s).collect();
            if self.unit() < 0.25 {
                q[(self.unit() * dim as f64) as usize] = 0.0;
            }
            q
        }
    }

    proptest! {
        #[test]
        fn lookup_ids_match_the_explicit_lists(
            dim_idx in 0usize..3,
            first_containing in any::<bool>(),
            seed in 0u64..1 << 48,
            inserts in 1usize..40,
        ) {
            let dim = [2, 3, 5][dim_idx];
            let cfg = TreeConfig {
                descent: if first_containing {
                    DescentRule::FirstContaining
                } else {
                    DescentRule::MostInterior
                },
                ..TreeConfig::default()
            };
            let mut tree =
                SimplexTree::new(RootSimplex::standard(dim), OqpLayout::new(dim, dim), cfg)
                    .unwrap();
            let mut rng = Stream(seed);
            let mut stored: Vec<Vec<f64>> = Vec::new();
            for i in 0..inserts {
                // Every 5th insert re-learns a stored point.
                let q = match stored.get(i / 5) {
                    Some(q) if i % 5 == 4 => q.clone(),
                    _ => rng.point(dim),
                };
                let oqp = Oqp {
                    delta: (0..dim).map(|_| rng.unit() - 0.5).collect(),
                    weights: (0..dim).map(|_| 0.1 + 4.0 * rng.unit()).collect(),
                };
                if let InsertOutcome::Split { .. } = tree.insert(&q, &oqp).unwrap() {
                    stored.push(q);
                }
            }
            prop_assert_eq!(tree.verify_invariants(), Ok(()));
            prop_assert_eq!(tree.verify_explicit(), Ok(()));
            let lists = tree.explicit_vertex_lists();
            let probes = stored.iter().cloned().chain((0..20).map(|_| rng.point(dim)));
            for q in probes {
                let hit = tree.lookup(&q).unwrap();
                prop_assert_eq!(&hit.vertices, &lists[hit.node as usize]);
            }
            // The explicit image loads back into the very same tree.
            let back = SimplexTree::from_bytes(&tree.to_bytes_v1()).unwrap();
            prop_assert_eq!(back.to_bytes(), tree.to_bytes());
        }
    }
}
