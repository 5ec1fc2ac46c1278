//! Golden answers of the simplex tree on fixed insert streams.
//!
//! Every literal in this file was recorded from the tree that stored an
//! explicit `D + 1` vertex list per simplex (image version 1). The tree's
//! storage layout may change; its answers may not: each row pins, for one
//! `(D, DescentRule, WeightScale)` stream,
//!
//! * an FNV-1a digest over the `f64::to_bits` of 200 probe predictions
//!   (bit-identity, not a tolerance);
//! * an FNV-1a digest and the sum of `nodes_visited` per probe (the
//!   Fig. 16 traversal metric);
//! * `shape()` — node and leaf counts, depth, the bits of the mean leaf
//!   depth, stored points (the Fig. 16 tree-shape numbers);
//! * how the stream's inserts came out (full splits, partial splits on a
//!   face, in-place vertex updates, ε-skips), so the streams provably
//!   exercise every insert path.
//!
//! `V1_SAMPLE_IMAGE` is a version-1 image of a small 3-d tree; it must keep
//! loading and predicting exactly like the tree it was taken from.

use fbp_geometry::RootSimplex;
use fbp_simplex_tree::{
    DescentRule, InsertOutcome, Oqp, OqpLayout, SimplexTree, TreeConfig, WeightScale,
};

/// splitmix64: a fixed, dependency-free stream generator.
struct Stream(u64);

impl Stream {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * u
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

fn fnv1a(hash: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// D = 3 lives in the histogram simplex, larger D in the unit cube (the two
/// roots `FeedbackBypass` builds).
fn root_for(dim: usize) -> RootSimplex {
    if dim == 3 {
        RootSimplex::standard(dim)
    } else {
        RootSimplex::unit_cube(dim)
    }
}

/// A point of the root's domain; one in four lies on a root facet (one
/// coordinate exactly zero), which forces partial splits.
fn point(rng: &mut Stream, dim: usize) -> Vec<f64> {
    let mut q: Vec<f64> = if dim == 3 {
        let raw: Vec<f64> = (0..=dim).map(|_| rng.uniform(0.02, 1.0)).collect();
        let s: f64 = raw.iter().sum();
        raw[..dim].iter().map(|x| x / s).collect()
    } else {
        (0..dim).map(|_| rng.uniform(0.0, 1.0)).collect()
    };
    if rng.below(4) == 0 {
        let i = rng.below(dim as u64) as usize;
        q[i] = 0.0;
    }
    q
}

fn oqp(rng: &mut Stream, dim: usize) -> Oqp {
    Oqp {
        delta: (0..dim).map(|_| rng.uniform(-0.1, 0.1)).collect(),
        weights: (0..dim).map(|_| rng.uniform(0.2, 5.0)).collect(),
    }
}

/// Insert outcomes of a stream: `[full splits, partial splits, vertex
/// updates, ε-skips]`.
type Outcomes = [usize; 4];

/// Grow a tree from the stream for `(dim, descent, scale)`; also returns
/// the points it stored.
///
/// Every 7th insert re-learns an already-stored point (an in-place
/// update); every 11th re-inserts the last stored point with its own OQP
/// (skipped by the ε-criterion).
fn grow(
    dim: usize,
    descent: DescentRule,
    scale: WeightScale,
) -> (SimplexTree, Outcomes, Vec<Vec<f64>>) {
    let inserts = match dim {
        3 => 300,
        16 => 200,
        _ => 120,
    };
    let cfg = TreeConfig {
        descent,
        weight_scale: scale,
        ..TreeConfig::default()
    };
    let mut tree = SimplexTree::new(root_for(dim), OqpLayout::new(dim, dim), cfg).unwrap();
    let mut rng = Stream(0x5eed_0000 + dim as u64);
    let mut stored: Vec<(Vec<f64>, Oqp)> = Vec::new();
    let mut outcomes = [0usize; 4];
    for i in 1..=inserts {
        let (q, o) = if i % 7 == 0 && !stored.is_empty() {
            let j = rng.below(stored.len() as u64) as usize;
            (stored[j].0.clone(), oqp(&mut rng, dim))
        } else if i % 11 == 0 && !stored.is_empty() {
            stored.last().unwrap().clone()
        } else {
            (point(&mut rng, dim), oqp(&mut rng, dim))
        };
        match tree.insert(&q, &o).unwrap() {
            InsertOutcome::Split { children } if children == dim + 1 => outcomes[0] += 1,
            InsertOutcome::Split { .. } => outcomes[1] += 1,
            InsertOutcome::UpdatedVertex => outcomes[2] += 1,
            InsertOutcome::Skipped { .. } => {
                outcomes[3] += 1;
                continue;
            }
        }
        if let Some(slot) = stored.iter_mut().find(|(p, _)| *p == q) {
            slot.1 = o;
        } else {
            stored.push((q, o));
        }
    }
    (tree, outcomes, stored.into_iter().map(|(q, _)| q).collect())
}

/// 200 probes where lookups are hard and easy: up to 30 stored points
/// (each a vertex of several leaves), 20 points on the faces the first
/// stored point's split left between its children (where the two descent
/// rules part ways), the rest from their own stream.
fn probes(dim: usize, stored: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let step = stored.len().div_ceil(30).max(1);
    let mut out: Vec<Vec<f64>> = stored.iter().step_by(step).cloned().collect();
    if let Some(first) = stored.first() {
        for corner in root_for(dim).vertices().iter().take(10) {
            for a in [0.3, 0.55] {
                out.push(
                    first
                        .iter()
                        .zip(corner)
                        .map(|(s, v)| a * s + (1.0 - a) * v)
                        .collect(),
                );
            }
        }
    }
    let mut rng = Stream(0x0b5e_55ed + dim as u64);
    while out.len() < 200 {
        out.push(point(&mut rng, dim));
    }
    out
}

/// One golden row.
#[derive(Debug, PartialEq)]
struct Golden {
    dim: usize,
    descent: DescentRule,
    scale: WeightScale,
    predict_digest: u64,
    visited_digest: u64,
    visited_sum: usize,
    node_count: usize,
    leaf_count: usize,
    depth: usize,
    mean_leaf_depth_bits: u64,
    stored_points: u64,
    outcomes: Outcomes,
}

fn measure(tree: &SimplexTree, outcomes: Outcomes, probes: &[Vec<f64>]) -> Golden {
    let mut predict_digest = FNV_OFFSET;
    let mut visited_digest = FNV_OFFSET;
    let mut visited_sum = 0;
    for q in probes {
        let p = tree.predict(q).unwrap();
        for &x in p.oqp.delta.iter().chain(&p.oqp.weights) {
            fnv1a(&mut predict_digest, x.to_bits());
        }
        fnv1a(&mut visited_digest, p.nodes_visited as u64);
        visited_sum += p.nodes_visited;
    }
    let shape = tree.shape();
    Golden {
        dim: tree.dim(),
        descent: tree.config().descent,
        scale: tree.config().weight_scale,
        predict_digest,
        visited_digest,
        visited_sum,
        node_count: shape.node_count,
        leaf_count: shape.leaf_count,
        depth: shape.depth,
        mean_leaf_depth_bits: shape.mean_leaf_depth.to_bits(),
        stored_points: shape.stored_points,
        outcomes,
    }
}

use DescentRule::{FirstContaining, MostInterior};
use WeightScale::{Log, Raw};

/// `(D, descent, scale, predict digest, visited digest, visited sum,
/// nodes, leaves, depth, mean leaf depth bits, stored, outcomes)`.
type Row = (
    usize,
    DescentRule,
    WeightScale,
    u64,
    u64,
    usize,
    usize,
    usize,
    usize,
    u64,
    u64,
    Outcomes,
);

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    (3, MostInterior, Raw, 0x305d5056dc2a0bc5, 0x9571cb7740079b08, 1313, 875, 641, 11, 0x401cafb9b5b75046, 234, [172, 62, 42, 24]),
    (3, MostInterior, Log, 0xb10f09da0636fedc, 0x9571cb7740079b08, 1313, 875, 641, 11, 0x401cafb9b5b75046, 234, [172, 62, 42, 24]),
    (3, FirstContaining, Raw, 0xf3fc81550df8f851, 0x970f96ba54c11b2c, 1311, 875, 641, 11, 0x401cafb9b5b75046, 234, [172, 62, 42, 24]),
    (3, FirstContaining, Log, 0x4d6df60febfe9595, 0x970f96ba54c11b2c, 1311, 875, 641, 11, 0x401cafb9b5b75046, 234, [172, 62, 42, 24]),
    (16, MostInterior, Raw, 0x759992aca08f6c36, 0xb4f3fe90bd6952c7, 740, 2622, 2466, 6, 0x40110248ab14f851, 156, [125, 31, 28, 16]),
    (16, MostInterior, Log, 0xc1d58dc252512bff, 0xb4f3fe90bd6952c7, 740, 2622, 2466, 6, 0x40110248ab14f851, 156, [125, 31, 28, 16]),
    (16, FirstContaining, Raw, 0x379d84d95c69919d, 0x36c590ad7a7054a6, 727, 2622, 2466, 6, 0x40110248ab14f851, 156, [125, 31, 28, 16]),
    (16, FirstContaining, Log, 0xc74695b853fc9688, 0x36c590ad7a7054a6, 727, 2622, 2466, 6, 0x40110248ab14f851, 156, [125, 31, 28, 16]),
    (64, MostInterior, Raw, 0x65d188e25577fee8, 0xee7c0b2944a3be23, 560, 6089, 5995, 5, 0x400c49f5d63cb8fc, 94, [72, 22, 17, 9]),
    (64, MostInterior, Log, 0x14671b3fd3747ed6, 0xee7c0b2944a3be23, 560, 6089, 5995, 5, 0x400c49f5d63cb8fc, 94, [72, 22, 17, 9]),
    (64, FirstContaining, Raw, 0xb8a8fa3461654e88, 0x60f85a11cc020602, 557, 6089, 5995, 5, 0x400c49f5d63cb8fc, 94, [72, 22, 17, 9]),
    (64, FirstContaining, Log, 0x32744d04c7a913ef, 0x60f85a11cc020602, 557, 6089, 5995, 5, 0x400c49f5d63cb8fc, 94, [72, 22, 17, 9]),
];

fn golden_rows() -> Vec<Golden> {
    GOLDEN
        .iter()
        .map(
            |&(dim, descent, scale, pd, vd, vs, nc, lc, depth, mld, sp, outcomes)| Golden {
                dim,
                descent,
                scale,
                predict_digest: pd,
                visited_digest: vd,
                visited_sum: vs,
                node_count: nc,
                leaf_count: lc,
                depth,
                mean_leaf_depth_bits: mld,
                stored_points: sp,
                outcomes,
            },
        )
        .collect()
}

#[test]
fn fixed_streams_reproduce_golden_answers() {
    let rows = golden_rows();
    assert_eq!(rows.len(), 12, "one row per (D, descent, scale)");
    for want in rows {
        let (tree, outcomes, stored) = grow(want.dim, want.descent, want.scale);
        let got = measure(&tree, outcomes, &probes(want.dim, &stored));
        assert_eq!(
            got, want,
            "\nrow literal: ({}, {:?}, {:?}, {:#018x}, {:#018x}, {}, {}, {}, {}, {:#018x}, {}, {:?}),",
            got.dim, got.descent, got.scale, got.predict_digest, got.visited_digest,
            got.visited_sum, got.node_count, got.leaf_count, got.depth,
            got.mean_leaf_depth_bits, got.stored_points, got.outcomes,
        );
        tree.verify_invariants().unwrap();
        // A persisted tree gives the same answers.
        let back = SimplexTree::from_bytes(&tree.to_bytes()).unwrap();
        assert_eq!(measure(&back, outcomes, &probes(want.dim, &stored)), want);
    }
}

#[test]
fn streams_exercise_every_insert_path() {
    for (dim, .., outcomes) in GOLDEN {
        let [full, partial, updated, skipped] = *outcomes;
        assert!(
            full > 0 && partial > 0 && updated > 0 && skipped > 0,
            "D = {dim}: {outcomes:?}"
        );
    }
}

const SAMPLE_POINTS: [[f64; 3]; 4] = [
    [0.2, 0.2, 0.2],
    [0.1, 0.3, 0.15],
    [0.22, 0.18, 0.21],
    [0.05, 0.05, 0.6],
];

/// The tree `persist`'s unit tests build (3-d histogram root, 4 inserts).
fn sample_tree() -> SimplexTree {
    let mut tree = SimplexTree::new(
        RootSimplex::standard(3),
        OqpLayout::new(3, 4),
        TreeConfig::default(),
    )
    .unwrap();
    for (i, q) in SAMPLE_POINTS.iter().enumerate() {
        let oqp = Oqp {
            delta: vec![0.01 * i as f64, -0.02, 0.0],
            weights: vec![1.0 + i as f64, 0.5, 2.0, 1.0],
        };
        tree.insert(q, &oqp).unwrap();
    }
    tree
}

/// Version-1 image of [`sample_tree`].
const V1_SAMPLE_IMAGE: &str = "\
    54534246010000000003000000000000000000f03f0300000004000000fca9f1d24d62503ffca9f1d24d62503f48afbc
    9af2d77a3e48afbc9af2d77a3e0000040000000000000000000000000000000000000000000000080000000100000000
    000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
    0000f03f000000000000f03f000000000000f03f000000000000f03f01000000000000f03f0000000000000000000000
    0000000000000000000000000000000000000000000000000000000000000000000000f03f000000000000f03f000000
    000000f03f000000000000f03f010000000000000000000000000000f03f000000000000000000000000000000000000
    0000000000000000000000000000000000000000f03f000000000000f03f000000000000f03f000000000000f03f0100
    000000000000000000000000000000000000000000f03f00000000000000000000000000000000000000000000000000
    0000000000f03f000000000000f03f000000000000f03f000000000000f03f009a9999999999c93f9a9999999999c93f
    9a9999999999c93f00000000000000007b14ae47e17a94bf0000000000000000000000000000f03f000000000000e03f
    0000000000000040000000000000f03f009a9999999999b93f333333333333d33f333333333333c33f7b14ae47e17a84
    3f7b14ae47e17a94bf00000000000000000000000000000040000000000000e03f0000000000000040000000000000f0
    3f00295c8fc2f528cc3f0ad7a3703d0ac73fe17a14ae47e1ca3f7b14ae47e17a943f7b14ae47e17a94bf000000000000
    00000000000000000840000000000000e03f0000000000000040000000000000f03f009a9999999999a93f9a99999999
    99a93f333333333333e33fb81e85eb51b89e3f7b14ae47e17a94bf000000000000000000000000000010400000000000
    00e03f0000000000000040000000000000f03f1000000000000000010000000200000003000000040000000100000001
    000200000002000300000003000400000001989999999999d93f9a9999999999c93f9a9999999999c93f9a9999999999
    c93f04000000040000000100000002000000030000000000000000000004000000020000000300000004000000050000
    0001000600000002000700000003000800000001000000000000d03f000000000000e03f999999999999c93f98999999
    9999a93f0500000000000000010000000400000003000000040000000900000001000a00000002000b00000003000c00
    000001e01e85eb51b89e3f7c14ae47e17aa43fccccccccccccec3fb81e85eb51b89e3f06000000000000000100000002
    000000040000000000000500000004000000020000000300000000000000000000050000000200000003000000000000
    00000000040000000500000003000000030000000d00000001000e00000003000f000000019c9999999999c93f000000
    000000d03f0000000000000000999999999999e13f070000000000000004000000020000000500000000000006000000
    010000000400000003000000000000000000000600000004000000030000000000000000000001000000060000000300
    000000000000000000010000000400000006000000000000070000000400000005000000030000000000000000000007
    0000000500000003000000000000000000000400000005000000070000000000005696ae4ce71ef074";

fn unhex(s: &str) -> Vec<u8> {
    let digits: Vec<u8> = s.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    digits
        .chunks(2)
        .map(|p| u8::from_str_radix(std::str::from_utf8(p).unwrap(), 16).unwrap())
        .collect()
}

#[test]
fn version_1_image_loads_and_predicts_bit_identically() {
    let image = unhex(V1_SAMPLE_IMAGE);
    assert_eq!(u32::from_le_bytes(image[4..8].try_into().unwrap()), 1);
    let loaded = SimplexTree::from_bytes(&image).unwrap();
    let fresh = sample_tree();
    assert_eq!(loaded.shape(), fresh.shape());
    assert_eq!(loaded.vertex_count(), fresh.vertex_count());
    assert_eq!(loaded.config(), fresh.config());
    let stored: Vec<Vec<f64>> = SAMPLE_POINTS.iter().map(|q| q.to_vec()).collect();
    for q in probes(3, &stored) {
        let a = fresh.predict(&q).unwrap();
        let b = loaded.predict(&q).unwrap();
        assert_eq!(a.nodes_visited, b.nodes_visited);
        for (x, y) in a
            .oqp
            .delta
            .iter()
            .chain(&a.oqp.weights)
            .zip(b.oqp.delta.iter().chain(&b.oqp.weights))
        {
            assert_eq!(x.to_bits(), y.to_bits(), "at {q:?}");
        }
    }
    // It re-serializes as version 2: the same bytes as the tree built
    // directly, and smaller than the explicit image.
    let v2 = loaded.to_bytes();
    assert_eq!(u32::from_le_bytes(v2[4..8].try_into().unwrap()), 2);
    assert_eq!(v2, fresh.to_bytes());
    assert!(v2.len() < image.len(), "{} vs {}", v2.len(), image.len());
}
