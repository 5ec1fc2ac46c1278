//! Binary persistence of Simplex Trees.
//!
//! FeedbackBypass is useful precisely because learned parameters survive
//! *across sessions*; the tree must therefore round-trip through disk.
//! The format is a little-endian, versioned memory image of the implicit
//! tree (see [`crate::tree`]'s layout notes), version 2:
//!
//! ```text
//! magic "FBST" u32 | version u32 = 2
//! root shape   tag u8 | D u32 | scale f64 (corner) or (D+1)·D f64 (custom)
//! OQP layout   delta_dim u32 | weight_dim u32
//! config       delta_eps, weight_eps, vertex_snap_tol, domain_tol f64 |
//!              weight_scale u8 | descent u8
//! counters     stored_points, updates, skips u64
//! vertex pool  count u32 | per vertex: synthetic u8, point D·f64, value N·f64
//! splits       count u32 | per split, in creation order: node u32,
//!              vertex u32, children u16, positions children·u16, μ (D+1)·f64
//! checksum     FNV-1a-64 over everything before it
//! ```
//!
//! Nodes are not written: the root is node 0 and split `s`'s children
//! take the next `children` ids after those of splits `0..s`. Per stored
//! point at D = 64 this is ≈ 2.2 KB (the vertex's 1.5 KB of point and OQP
//! plus one split), against ≈ 19 KB for version 1, which wrote every
//! node's explicit `D + 1` vertex ids. Version-1 images still load: the
//! reader checks each child's vertex list against the rule "parent with
//! position `h` replaced by the split vertex" (and the root's against
//! `0..=D`), then drops the lists.
//!
//! Reading validates the magic, version and checksum; checks every record
//! count against the bytes that remain *before* allocating for it, so a
//! hostile header cannot make the reader allocate more than the image's
//! own size; then checks the structural invariants
//! ([`crate::SimplexTree::verify_invariants`]) before handing the tree
//! back, so a corrupt or truncated image can never produce a
//! silently-wrong index.

use crate::oqp::{OqpLayout, WeightScale};
use crate::tree::{Arena, DescentRule, Node, NodeId, SimplexTree, Split, Vertex, VertexId};
use crate::{Result, TreeConfig, TreeError};
use bytes::BufMut;
use fbp_geometry::RootSimplex;

const MAGIC: u32 = 0x4642_5354; // "FBST"
const VERSION: u32 = 2;
/// Bytes of a split record besides its positions and `μ`.
const SPLIT_FIXED: usize = 4 + 4 + 2;

/// FNV-1a 64-bit checksum.
pub(crate) fn fnv1a(data: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn corrupt(msg: impl Into<String>) -> TreeError {
    TreeError::Corrupt(msg.into())
}

/// Bytes of `n` f64s, saturating (header counts may be hostile).
fn f64_bytes(n: usize) -> usize {
    n.saturating_mul(8)
}

/// Checked little-endian reader over a byte slice.
struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.remaining() {
            return Err(corrupt(format!(
                "truncated image: wanted {n} bytes at offset {}",
                self.pos
            )));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Append `n` f64s to `out`.
    fn f64s_into(&mut self, n: usize, out: &mut Vec<f64>) -> Result<()> {
        let raw = self.take(f64_bytes(n))?;
        out.extend(
            raw.chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().unwrap())),
        );
        Ok(())
    }

    fn f64s(&mut self, n: usize) -> Result<Vec<f64>> {
        let mut out = Vec::with_capacity(n);
        self.f64s_into(n, &mut out)?;
        Ok(out)
    }

    /// Fail unless `count` records of at least `min_record` bytes each fit
    /// in what is left — called before allocating for them.
    fn fits(&self, what: &str, count: usize, min_record: usize) -> Result<()> {
        if count.saturating_mul(min_record) > self.remaining() {
            return Err(corrupt(format!(
                "{what} count {count} does not fit in the {} bytes left",
                self.remaining()
            )));
        }
        Ok(())
    }

    /// Read a `u32` record count, checked with [`Self::fits`].
    fn count(&mut self, what: &str, min_record: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        self.fits(what, n, min_record)?;
        Ok(n)
    }
}

/// Everything before the vertex pool.
struct Header {
    root_shape: RootSimplex,
    layout: OqpLayout,
    config: TreeConfig,
    counters: [u64; 3],
}

fn read_header(r: &mut Reader) -> Result<Header> {
    let root_shape = match r.u8()? {
        0 => {
            let dim = r.u32()? as usize;
            let scale = r.f64()?;
            RootSimplex::Corner { dim, scale }
        }
        1 => {
            let dim = r.u32()? as usize;
            r.fits("root vertex", dim.saturating_add(1), f64_bytes(dim))?;
            let verts = (0..=dim).map(|_| r.f64s(dim)).collect::<Result<_>>()?;
            RootSimplex::Custom(verts)
        }
        t => return Err(corrupt(format!("unknown root tag {t}"))),
    };
    let layout = OqpLayout::new(r.u32()? as usize, r.u32()? as usize);
    if layout.delta_dim != root_shape.dim() {
        return Err(corrupt(format!(
            "offset dim {} != domain dim {}",
            layout.delta_dim,
            root_shape.dim()
        )));
    }
    let config = TreeConfig {
        delta_eps: r.f64()?,
        weight_eps: r.f64()?,
        vertex_snap_tol: r.f64()?,
        domain_tol: r.f64()?,
        weight_scale: match r.u8()? {
            0 => WeightScale::Raw,
            1 => WeightScale::Log,
            t => return Err(corrupt(format!("unknown weight scale {t}"))),
        },
        descent: match r.u8()? {
            0 => DescentRule::MostInterior,
            1 => DescentRule::FirstContaining,
            t => return Err(corrupt(format!("unknown descent rule {t}"))),
        },
    };
    let counters = [r.u64()?, r.u64()?, r.u64()?];
    Ok(Header {
        root_shape,
        layout,
        config,
        counters,
    })
}

fn read_vertices(r: &mut Reader, dim: usize, flat_len: usize) -> Result<Vec<Vertex>> {
    let record = f64_bytes(dim.saturating_add(flat_len)).saturating_add(1);
    let count = r.count("vertex", record)?;
    (0..count)
        .map(|_| {
            let synthetic = r.u8()? != 0;
            Ok(Vertex {
                synthetic,
                point: r.f64s(dim)?.into_boxed_slice(),
                value: r.f64s(flat_len)?.into_boxed_slice(),
            })
        })
        .collect()
}

/// Version 2: the split records; the node arena follows from them.
fn read_splits(r: &mut Reader, d1: usize) -> Result<Arena> {
    let count = r.count("split", f64_bytes(d1).saturating_add(SPLIT_FIXED))?;
    let mut arena = Arena {
        nodes: Vec::new(),
        splits: Vec::with_capacity(count),
        mu: Vec::with_capacity(count * d1),
        child_pos: Vec::new(),
    };
    let mut next_child = 1usize;
    for _ in 0..count {
        let node = r.u32()?;
        let vertex = r.u32()?;
        let children = r.u16()?;
        let positions = r.take(2 * children as usize)?;
        arena.child_pos.extend(
            positions
                .chunks_exact(2)
                .map(|c| u16::from_le_bytes(c.try_into().unwrap())),
        );
        r.f64s_into(d1, &mut arena.mu)?;
        let first_child = NodeId::try_from(next_child).map_err(|_| corrupt("too many nodes"))?;
        arena.splits.push(Split {
            node,
            vertex,
            first_child,
            children,
        });
        next_child += children as usize;
    }
    arena.nodes = vec![Node::LEAF; next_child];
    for (s, split) in arena.splits.iter().enumerate() {
        match arena.nodes.get_mut(split.node as usize) {
            Some(slot) if *slot == Node::LEAF => *slot = Node::inner(s),
            _ => {
                return Err(corrupt(format!(
                    "split {s} refines node {}: dangling or already split",
                    split.node
                )))
            }
        }
    }
    Ok(arena)
}

/// A version-1 node: explicit vertex list, child list, optional split.
struct V1Node {
    verts: Vec<VertexId>,
    children: Vec<(u16, NodeId)>,
    split: Option<(Vec<f64>, VertexId)>,
}

/// Version 1: read the explicit nodes, check every child against its
/// parent, and rebuild the implicit arena.
fn read_v1_nodes(r: &mut Reader, d1: usize) -> Result<Arena> {
    let count = r.count("node", (4 * d1).saturating_add(3))?;
    let mut nodes = Vec::with_capacity(count);
    for _ in 0..count {
        let verts = (0..d1).map(|_| r.u32()).collect::<Result<Vec<_>>>()?;
        let n_children = r.u16()? as usize;
        r.fits("child", n_children, 6)?;
        let children = (0..n_children)
            .map(|_| Ok((r.u16()?, r.u32()?)))
            .collect::<Result<Vec<_>>>()?;
        let split = if r.u8()? != 0 {
            Some((r.f64s(d1)?, r.u32()?))
        } else {
            None
        };
        nodes.push(V1Node {
            verts,
            children,
            split,
        });
    }
    v1_to_arena(&nodes, d1)
}

fn v1_to_arena(nodes: &[V1Node], d1: usize) -> Result<Arena> {
    let Some(root) = nodes.first() else {
        return Err(corrupt("no root node"));
    };
    if !root.verts.iter().copied().eq(0..d1 as VertexId) {
        return Err(corrupt("root simplex is not vertices 0..=D"));
    }
    // Walk from the root, checking the explicit lists; collect inner nodes.
    let mut reached = vec![false; nodes.len()];
    let mut inner = Vec::new();
    let mut stack = vec![0usize];
    while let Some(id) = stack.pop() {
        if std::mem::replace(&mut reached[id], true) {
            return Err(corrupt(format!("node {id} reachable twice")));
        }
        let node = &nodes[id];
        let sv = match (&node.split, node.children.is_empty()) {
            (None, true) => continue,
            (Some((_, sv)), false) => *sv,
            _ => return Err(corrupt(format!("node {id}: split and children disagree"))),
        };
        for &(h, child) in &node.children {
            let Some(c) = nodes.get(child as usize) else {
                return Err(corrupt(format!("node {id} dangling child {child}")));
            };
            let h = h as usize;
            let replaced =
                h < d1 && (0..d1).all(|i| c.verts[i] == if i == h { sv } else { node.verts[i] });
            if !replaced {
                return Err(corrupt(format!(
                    "node {id} child {child} is not the parent with position {h} replaced"
                )));
            }
            stack.push(child as usize);
        }
        inner.push(id);
    }
    if let Some(unreached) = reached.iter().position(|&r| !r) {
        return Err(corrupt(format!("node {unreached} unreachable from root")));
    }
    // Splits in the order their children were created; each split's
    // children become one contiguous id range (for an image written by the
    // explicit tree this renumbering is the identity).
    inner.sort_by_key(|&id| nodes[id].children[0].1);
    let mut new_id = vec![0 as NodeId; nodes.len()];
    let mut next: NodeId = 1;
    for &p in &inner {
        for &(_, child) in &nodes[p].children {
            new_id[child as usize] = next;
            next += 1;
        }
    }
    let mut arena = Arena {
        nodes: vec![Node::LEAF; nodes.len()],
        splits: Vec::with_capacity(inner.len()),
        mu: Vec::with_capacity(inner.len() * d1),
        child_pos: Vec::with_capacity(nodes.len() - 1),
    };
    for (s, &p) in inner.iter().enumerate() {
        let node = &nodes[p];
        let (mu, vertex) = node.split.as_ref().expect("inner node has a split");
        arena.splits.push(Split {
            node: new_id[p],
            vertex: *vertex,
            first_child: new_id[node.children[0].1 as usize],
            children: node.children.len() as u16,
        });
        arena.mu.extend_from_slice(mu);
        arena
            .child_pos
            .extend(node.children.iter().map(|&(h, _)| h));
        arena.nodes[new_id[p] as usize] = Node::inner(s);
    }
    Ok(arena)
}

impl SimplexTree {
    /// Exact length of [`Self::to_bytes`]'s image.
    pub fn encoded_len(&self) -> usize {
        let d = self.dim();
        let root = match self.root_shape() {
            RootSimplex::Corner { .. } => 8,
            RootSimplex::Custom(_) => 8 * (d + 1) * d,
        };
        let header = 4 + 4 + 1 + 4 + root + 8 + 4 * 8 + 2 + 3 * 8;
        let vertices = 4 + self.vertices.len() * (1 + 8 * (d + self.layout().flat_len()));
        let splits = 4
            + self.arena.splits.len() * (SPLIT_FIXED + 8 * (d + 1))
            + 2 * self.arena.child_pos.len();
        header + vertices + splits + 8
    }

    /// Serialize to a self-contained byte image, in one allocation of
    /// exactly [`Self::encoded_len`] bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.write_to(&mut out);
        out
    }

    /// Append the image to `out` (reserve [`Self::encoded_len`] first to
    /// write it without reallocating). Lets a caller put its own prefix in
    /// the same buffer.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.put_u32_le(MAGIC);
        out.put_u32_le(VERSION);
        match self.root_shape() {
            RootSimplex::Corner { dim, scale } => {
                out.put_u8(0);
                out.put_u32_le(*dim as u32);
                out.put_f64_le(*scale);
            }
            RootSimplex::Custom(verts) => {
                out.put_u8(1);
                out.put_u32_le(self.dim() as u32);
                for &x in verts.iter().flatten() {
                    out.put_f64_le(x);
                }
            }
        }
        out.put_u32_le(self.layout().delta_dim as u32);
        out.put_u32_le(self.layout().weight_dim as u32);
        let cfg = self.config();
        out.put_f64_le(cfg.delta_eps);
        out.put_f64_le(cfg.weight_eps);
        out.put_f64_le(cfg.vertex_snap_tol);
        out.put_f64_le(cfg.domain_tol);
        out.put_u8(match cfg.weight_scale {
            WeightScale::Raw => 0,
            WeightScale::Log => 1,
        });
        out.put_u8(match cfg.descent {
            DescentRule::MostInterior => 0,
            DescentRule::FirstContaining => 1,
        });
        out.put_u64_le(self.stored_points());
        out.put_u64_le(self.update_count());
        out.put_u64_le(self.skip_count());

        out.put_u32_le(self.vertices.len() as u32);
        for v in &self.vertices {
            out.put_u8(v.synthetic as u8);
            for &x in v.point.iter().chain(v.value.iter()) {
                out.put_f64_le(x);
            }
        }
        let arena = &self.arena;
        out.put_u32_le(arena.splits.len() as u32);
        for (s, split) in arena.splits.iter().enumerate() {
            out.put_u32_le(split.node);
            out.put_u32_le(split.vertex);
            out.put_u16_le(split.children);
            for (h, _) in arena.children(s) {
                out.put_u16_le(h as u16);
            }
            for &x in arena.mu(s, self.dim() + 1) {
                out.put_f64_le(x);
            }
        }
        let checksum = fnv1a(&out[start..]);
        out.put_u64_le(checksum);
        debug_assert_eq!(out.len() - start, self.encoded_len());
    }

    /// Deserialize a byte image produced by [`Self::to_bytes`] (version 2)
    /// or by the explicit-list tree (version 1).
    ///
    /// Fails on magic/version mismatch, checksum mismatch, truncation, a
    /// record count larger than the image, or any structural-invariant
    /// violation.
    pub fn from_bytes(data: &[u8]) -> Result<SimplexTree> {
        if data.len() < 16 {
            return Err(corrupt("image shorter than header"));
        }
        let (body, tail) = data.split_at(data.len() - 8);
        let expected = u64::from_le_bytes(tail.try_into().unwrap());
        let actual = fnv1a(body);
        if expected != actual {
            return Err(corrupt(format!(
                "checksum mismatch: stored {expected:#x}, computed {actual:#x}"
            )));
        }
        let mut r = Reader::new(body);
        if r.u32()? != MAGIC {
            return Err(corrupt("bad magic"));
        }
        let version = r.u32()?;
        if version != 1 && version != VERSION {
            return Err(corrupt(format!("unsupported version {version}")));
        }
        let header = read_header(&mut r)?;
        let dim = header.root_shape.dim();
        let vertices = read_vertices(&mut r, dim, header.layout.flat_len())?;
        let arena = if version == 1 {
            read_v1_nodes(&mut r, dim + 1)?
        } else {
            read_splits(&mut r, dim + 1)?
        };
        if r.remaining() != 0 {
            return Err(corrupt(format!("{} trailing bytes", r.remaining())));
        }
        SimplexTree::from_raw_parts(
            header.root_shape,
            header.layout,
            header.config,
            arena,
            vertices,
            header.counters,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Oqp;

    fn sample_tree() -> SimplexTree {
        let mut tree = SimplexTree::new(
            RootSimplex::standard(3),
            OqpLayout::new(3, 4),
            TreeConfig::default(),
        )
        .unwrap();
        let points = [
            [0.2, 0.2, 0.2],
            [0.1, 0.3, 0.15],
            [0.22, 0.18, 0.21],
            [0.05, 0.05, 0.6],
        ];
        for (i, q) in points.iter().enumerate() {
            let oqp = Oqp {
                delta: vec![0.01 * i as f64, -0.02, 0.0],
                weights: vec![1.0 + i as f64, 0.5, 2.0, 1.0],
            };
            tree.insert(q, &oqp).unwrap();
        }
        tree
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let tree = sample_tree();
        let bytes = tree.to_bytes();
        let back = SimplexTree::from_bytes(&bytes).unwrap();
        assert_eq!(back.dim(), tree.dim());
        assert_eq!(back.layout(), tree.layout());
        assert_eq!(back.config(), tree.config());
        assert_eq!(back.stored_points(), tree.stored_points());
        assert_eq!(back.node_count(), tree.node_count());
        assert_eq!(back.vertex_count(), tree.vertex_count());
        // Predictions agree everywhere we probe.
        for q in [[0.2, 0.2, 0.2], [0.1, 0.1, 0.1], [0.3, 0.05, 0.2]] {
            let a = tree.predict(&q).unwrap();
            let b = back.predict(&q).unwrap();
            assert!(a.oqp.max_component_diff(&b.oqp) < 1e-15);
            assert_eq!(a.nodes_visited, b.nodes_visited);
        }
    }

    #[test]
    fn empty_tree_roundtrips() {
        let tree = SimplexTree::new(
            RootSimplex::unit_cube(5),
            OqpLayout::new(5, 5),
            TreeConfig::default(),
        )
        .unwrap();
        let back = SimplexTree::from_bytes(&tree.to_bytes()).unwrap();
        assert_eq!(back.node_count(), 1);
        assert_eq!(back.root_shape(), tree.root_shape());
    }

    #[test]
    fn custom_root_roundtrips() {
        let root =
            RootSimplex::custom(vec![vec![-1.0, -1.0], vec![4.0, -1.0], vec![-1.0, 4.0]]).unwrap();
        let mut tree = SimplexTree::new(root, OqpLayout::new(2, 2), TreeConfig::default()).unwrap();
        tree.insert(
            &[1.0, 1.0],
            &Oqp {
                delta: vec![0.5, 0.5],
                weights: vec![3.0, 0.3],
            },
        )
        .unwrap();
        let back = SimplexTree::from_bytes(&tree.to_bytes()).unwrap();
        let p = back.predict(&[1.0, 1.0]).unwrap();
        assert!((p.oqp.weights[0] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn corruption_detected() {
        let tree = sample_tree();
        let good = tree.to_bytes();
        // Flip one byte in the middle.
        let mut bad = good.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xff;
        assert!(matches!(
            SimplexTree::from_bytes(&bad),
            Err(TreeError::Corrupt(_))
        ));
        // Truncation.
        assert!(matches!(
            SimplexTree::from_bytes(&good[..good.len() - 3]),
            Err(TreeError::Corrupt(_))
        ));
        // Empty / tiny input.
        assert!(SimplexTree::from_bytes(&[]).is_err());
        assert!(SimplexTree::from_bytes(&[1, 2, 3]).is_err());
    }

    /// Overwrite `at..` with `bytes` and re-seal the checksum, so only
    /// the reader's own checks can reject the image.
    fn patch(img: &mut [u8], at: usize, bytes: &[u8]) {
        img[at..at + bytes.len()].copy_from_slice(bytes);
        let body_len = img.len() - 8;
        let sum = fnv1a(&img[..body_len]);
        img[body_len..].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn bad_magic_detected() {
        let tree = sample_tree();
        let mut img = tree.to_bytes();
        let flipped = img[0] ^ 0x01;
        patch(&mut img, 0, &[flipped]);
        let err = SimplexTree::from_bytes(&img).unwrap_err();
        assert!(matches!(err, TreeError::Corrupt(msg) if msg.contains("magic")));
    }

    #[test]
    fn checksum_is_stable() {
        // Serialization must be deterministic (same tree → same bytes).
        let tree = sample_tree();
        assert_eq!(tree.to_bytes(), tree.to_bytes());
    }

    #[test]
    fn image_is_written_in_one_exact_allocation() {
        for tree in [sample_tree(), {
            let root =
                RootSimplex::custom(vec![vec![0.0, 0.0], vec![2.0, 0.0], vec![0.0, 2.0]]).unwrap();
            SimplexTree::new(root, OqpLayout::new(2, 3), TreeConfig::default()).unwrap()
        }] {
            let img = tree.to_bytes();
            assert_eq!(img.len(), tree.encoded_len());
            assert_eq!(img.capacity(), img.len());
            // A caller's prefix shares the buffer; the image is unchanged.
            let mut prefixed = vec![0xAB];
            tree.write_to(&mut prefixed);
            assert_eq!(&prefixed[1..], &img[..]);
        }
    }

    /// Offset of the vertex count in an image with a corner root.
    const VERTEX_COUNT_AT: usize = 4 + 4 + 1 + 4 + 8 + 8 + 4 * 8 + 2 + 3 * 8;

    fn assert_corrupt(img: &[u8], what: &str) {
        match SimplexTree::from_bytes(img) {
            Err(TreeError::Corrupt(_)) => {}
            other => panic!("{what}: expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn hostile_counts_are_rejected_before_allocating() {
        let tree = sample_tree();
        let img = tree.to_bytes();
        let vrec = 1 + 8 * (3 + 7);
        let split_count_at = VERTEX_COUNT_AT + 4 + tree.vertex_count() * vrec;
        let max32 = u32::MAX.to_le_bytes();
        let cases: [(&str, usize, &[u8]); 3] = [
            ("vertex count", VERTEX_COUNT_AT, &max32),
            ("split count", split_count_at, &max32),
            (
                "child count",
                split_count_at + 4 + 8,
                &u16::MAX.to_le_bytes(),
            ),
        ];
        for (what, at, bytes) in cases {
            let mut bad = img.clone();
            patch(&mut bad, at, bytes);
            assert_corrupt(&bad, what);
        }
    }

    #[test]
    fn hostile_dims_are_rejected_before_allocating() {
        let max32 = u32::MAX.to_le_bytes();
        // Corner root: D and the offset dim both at u32::MAX, so only the
        // vertex-record size check stands between the header and the pool.
        let empty = SimplexTree::new(
            RootSimplex::standard(4),
            OqpLayout::new(4, 5),
            TreeConfig::default(),
        )
        .unwrap();
        let mut bad = empty.to_bytes();
        patch(&mut bad, 9, &max32);
        assert_corrupt(&bad, "corner dim");
        patch(&mut bad, 4 + 4 + 1 + 4 + 8, &max32);
        assert_corrupt(&bad, "corner dim and offset dim");
        // Custom root: (D+1)·D floats that cannot be there.
        let root =
            RootSimplex::custom(vec![vec![0.0, 0.0], vec![2.0, 0.0], vec![0.0, 2.0]]).unwrap();
        let custom = SimplexTree::new(root, OqpLayout::new(2, 2), TreeConfig::default()).unwrap();
        let mut bad = custom.to_bytes();
        patch(&mut bad, 9, &max32);
        assert_corrupt(&bad, "custom dim");
    }

    #[test]
    fn version_1_loads_into_the_same_implicit_tree() {
        let tree = sample_tree();
        let v1 = tree.to_bytes_v1();
        let back = SimplexTree::from_bytes(&v1).unwrap();
        assert_eq!(back.to_bytes(), tree.to_bytes());
    }

    #[test]
    fn version_1_explicit_lists_are_checked() {
        let tree = sample_tree();
        let v1 = tree.to_bytes_v1();
        let d1 = tree.dim() + 1;
        let vrec = 1 + 8 * (tree.dim() + tree.layout().flat_len());
        let node_count_at = VERTEX_COUNT_AT + 4 + tree.vertex_count() * vrec;
        let first_node = node_count_at + 4;
        // Root not spanning 0..=D.
        let mut bad = v1.clone();
        patch(&mut bad, first_node, &7u32.to_le_bytes());
        assert_corrupt(&bad, "root list");
        // Node 1 (the root's first child) with a wrong vertex kept from
        // the parent.
        let node1 = first_node + 4 * d1 + 2 + tree.arena.splits[0].children as usize * 6 + 1;
        let node1 = node1 + 8 * d1 + 4;
        let wrong = if tree.arena.child_pos[0] == 0 { 1 } else { 0 };
        let mut bad = v1.clone();
        patch(&mut bad, node1 + 4 * wrong, &3u32.to_le_bytes());
        assert_corrupt(&bad, "child list");
        // Hostile counts.
        let mut bad = v1.clone();
        patch(&mut bad, node_count_at, &u32::MAX.to_le_bytes());
        assert_corrupt(&bad, "node count");
        let mut bad = v1;
        patch(&mut bad, first_node + 4 * d1, &u16::MAX.to_le_bytes());
        assert_corrupt(&bad, "v1 child count");
    }
}
