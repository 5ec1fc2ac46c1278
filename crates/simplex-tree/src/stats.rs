//! Tree-shape statistics (the Figure 16 instrumentation).
//!
//! The paper reports, as a function of the number of processed queries,
//! the *depth* of the Simplex Tree (maximum simplices on a root→leaf
//! path) and the *average number of simplices traversed* per lookup. The
//! former is a static property computed here; the latter is an access-path
//! property aggregated by [`TraversalStats`] from the `nodes_visited`
//! field lookups return.

use crate::tree::SimplexTree;

/// Static shape of a Simplex Tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeShape {
    /// Total simplices (inner + leaf).
    pub node_count: usize,
    /// Leaf simplices (cells of the current partition).
    pub leaf_count: usize,
    /// Stored non-synthetic query points.
    pub stored_points: u64,
    /// Maximum nodes on a root→leaf path (the paper's "depth").
    pub depth: usize,
    /// Mean over leaves of the root→leaf path length; a cheap proxy for
    /// the expected traversal cost under uniform leaf access.
    pub mean_leaf_depth: f64,
}

impl SimplexTree {
    /// Compute the static shape (O(nodes) DFS).
    pub fn shape(&self) -> TreeShape {
        let mut depth = 0usize;
        let mut leaf_count = 0usize;
        let mut leaf_depth_sum = 0usize;
        let mut stack: Vec<(u32, usize)> = vec![(0, 1)];
        while let Some((id, d)) = stack.pop() {
            match self.arena.nodes[id as usize].split() {
                None => {
                    leaf_count += 1;
                    leaf_depth_sum += d;
                    depth = depth.max(d);
                }
                Some(s) => stack.extend(self.arena.children(s).map(|(_, child)| (child, d + 1))),
            }
        }
        TreeShape {
            node_count: self.node_count(),
            leaf_count,
            stored_points: self.stored_points(),
            depth,
            mean_leaf_depth: if leaf_count == 0 {
                0.0
            } else {
                leaf_depth_sum as f64 / leaf_count as f64
            },
        }
    }
}

/// Aggregator for per-lookup traversal counts.
#[derive(Debug, Clone, Default)]
pub struct TraversalStats {
    lookups: u64,
    total_visited: u64,
    max_visited: usize,
}

impl TraversalStats {
    /// Fresh aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one lookup's `nodes_visited`.
    pub fn record(&mut self, nodes_visited: usize) {
        self.lookups += 1;
        self.total_visited += nodes_visited as u64;
        self.max_visited = self.max_visited.max(nodes_visited);
    }

    /// Number of recorded lookups.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Mean simplices traversed per lookup (the Fig. 16 series).
    pub fn mean_visited(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.total_visited as f64 / self.lookups as f64
        }
    }

    /// Worst lookup seen.
    pub fn max_visited(&self) -> usize {
        self.max_visited
    }

    /// Merge another aggregator in (parallel evaluation support).
    pub fn merge(&mut self, other: &TraversalStats) {
        self.lookups += other.lookups;
        self.total_visited += other.total_visited;
        self.max_visited = self.max_visited.max(other.max_visited);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Oqp, OqpLayout, TreeConfig};
    use fbp_geometry::RootSimplex;

    fn tree_with(points: &[[f64; 2]]) -> SimplexTree {
        let mut tree = SimplexTree::new(
            RootSimplex::standard(2),
            OqpLayout::new(2, 2),
            TreeConfig::default(),
        )
        .unwrap();
        for (i, q) in points.iter().enumerate() {
            let oqp = Oqp {
                delta: vec![0.0, 0.0],
                weights: vec![2.0 + i as f64, 1.0],
            };
            tree.insert(q, &oqp).unwrap();
        }
        tree
    }

    #[test]
    fn empty_tree_shape() {
        let tree = tree_with(&[]);
        let s = tree.shape();
        assert_eq!(s.node_count, 1);
        assert_eq!(s.leaf_count, 1);
        assert_eq!(s.depth, 1);
        assert_eq!(s.stored_points, 0);
        assert_eq!(s.mean_leaf_depth, 1.0);
    }

    #[test]
    fn one_insert_shape() {
        let tree = tree_with(&[[0.2, 0.2]]);
        let s = tree.shape();
        assert_eq!(s.node_count, 4); // root + 3 children
        assert_eq!(s.leaf_count, 3);
        assert_eq!(s.depth, 2);
        assert_eq!(s.stored_points, 1);
    }

    #[test]
    fn depth_grows_with_nested_inserts() {
        // Points marching into a corner repeatedly split the same region.
        let pts: Vec<[f64; 2]> = (1..=6)
            .map(|i| {
                let t = 0.5f64.powi(i);
                [t, t]
            })
            .collect();
        let tree = tree_with(&pts);
        let s = tree.shape();
        assert!(s.depth >= 4, "depth {}", s.depth);
        assert!(s.mean_leaf_depth <= s.depth as f64);
        assert!(s.mean_leaf_depth >= 1.0);
    }

    #[test]
    fn traversal_stats_aggregate() {
        let mut t = TraversalStats::new();
        assert_eq!(t.mean_visited(), 0.0);
        t.record(1);
        t.record(3);
        t.record(5);
        assert_eq!(t.lookups(), 3);
        assert!((t.mean_visited() - 3.0).abs() < 1e-12);
        assert_eq!(t.max_visited(), 5);
        let mut u = TraversalStats::new();
        u.record(7);
        t.merge(&u);
        assert_eq!(t.lookups(), 4);
        assert_eq!(t.max_visited(), 7);
        assert!((t.mean_visited() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn traversal_consistent_with_shape() {
        let tree = tree_with(&[[0.2, 0.2], [0.21, 0.19], [0.22, 0.2], [0.5, 0.3]]);
        let shape = tree.shape();
        let mut stats = TraversalStats::new();
        for q in [[0.1, 0.1], [0.2, 0.2], [0.4, 0.4], [0.01, 0.9]] {
            let hit = tree.lookup(&q).unwrap();
            stats.record(hit.nodes_visited);
        }
        assert!(stats.max_visited() <= shape.depth);
        assert!(stats.mean_visited() >= 1.0);
    }
}
