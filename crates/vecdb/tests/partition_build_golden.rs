//! Partition-build golden: [`PartitionedCollection::build`] pinned bit
//! for bit on fixed LCG data, so a change to the k-means kernels or
//! their call shape that moves a single assignment, centroid or radius
//! fails here even when every scan answer stays the same.
//!
//! Each case folds the permutation, every partition's row range and
//! the bits of its centroid and covering radius into one FNV-1a digest:
//!
//! * dim 70 — two 64-component segments' worth of kernel path (one full
//!   segment, then a 6-wide tail under the 8-lane unroll), a strided
//!   training sample smaller than the collection, and an assignment
//!   pass large enough to fan out over threads;
//! * dim 16 — whole-collection training, two full 8-lane chunks per row.

use fbp_vecdb::{Collection, CollectionBuilder, PartitionConfig, PartitionedCollection};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

/// `n` rows of `dim` components around `clusters` lattice centres, from
/// a fixed 64-bit LCG.
fn collection(n: usize, dim: usize, clusters: usize) -> Collection {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut b = CollectionBuilder::new();
    for _ in 0..n {
        let c = (next() * clusters as f64) as usize;
        let v: Vec<f64> = (0..dim)
            .map(|d| ((c * 31 + d * 7) % 97) as f64 / 97.0 + (next() - 0.5) * 0.2)
            .collect();
        b.push_unlabelled(&v).unwrap();
    }
    b.build()
}

fn digest(part: &PartitionedCollection) -> u64 {
    let mut h = FNV_OFFSET;
    for &i in part.perm() {
        fnv1a(&mut h, u64::from(i));
    }
    for p in 0..part.partition_count() {
        let rows = part.rows(p);
        fnv1a(&mut h, rows.start as u64);
        fnv1a(&mut h, rows.end as u64);
        for c in part.centroid(p) {
            fnv1a(&mut h, c.to_bits());
        }
        fnv1a(&mut h, part.radius(p).to_bits());
    }
    h
}

#[test]
fn dim_70_sampled_threaded_build_is_pinned() {
    let coll = collection(4_000, 70, 20);
    let cfg = PartitionConfig {
        partitions: 16,
        max_sample: 1_500,
        ..PartitionConfig::default()
    };
    let part = PartitionedCollection::build(&coll, &cfg);
    assert_eq!(digest(&part), 15681336134309349727, "dim 70");
}

#[test]
fn dim_16_full_sample_build_is_pinned() {
    let coll = collection(2_500, 16, 12);
    let part = PartitionedCollection::build(&coll, &PartitionConfig::with_partitions(24));
    assert_eq!(digest(&part), 7012368418680119550, "dim 16");
}
