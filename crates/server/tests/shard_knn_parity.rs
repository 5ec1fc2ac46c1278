//! `ShardKnn` parity across the internal shard split: a shard server
//! that splits its rows into three internal shards — flat, or with
//! partition pruning — must answer every raw `ShardKnn` frame exactly as
//! a `shards: 1` server over the same rows does: the same `finished`
//! flag, the same entry indices and the same key bits.
//!
//! The frames cover uniform (empty) and learned weights, an unseeded
//! (`+∞`) and finite seeds (the exact global k-th key, a looser one and
//! one below it), and k ∈ {1, 50, more than the served rows}.

use fbp_server::protocol::{read_frame, write_frame, Request, Response, DEFAULT_MAX_FRAME_LEN};
use fbp_server::{serve, ServerConfig, ServerHandle};
use fbp_vecdb::{Collection, CollectionBuilder, PartitionConfig};
use feedbackbypass::{BypassConfig, FeedbackBypass, SharedBypass};
use std::net::TcpStream;
use std::sync::Arc;

const DIM: usize = 6;
const N: usize = 500;
const CLUSTERS: usize = 7;

/// Clustered rows with an f32 mirror, so the served passes take the
/// f32-rescore path and partition bounds separate real regions.
fn collection() -> Collection {
    let mut state = 0x2545_F491_4F6C_DD1D_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut b = CollectionBuilder::new().with_f32_mirror();
    for r in 0..N {
        let c = r % CLUSTERS;
        let v: Vec<f64> = (0..DIM)
            .map(|i| ((c * 23 + i * 5) as f64 * 0.61).cos() * 3.0 + (next() - 0.5) * 0.4)
            .collect();
        b.push_unlabelled(&v).unwrap();
    }
    b.build()
}

fn start(
    coll: &Arc<Collection>,
    shards: usize,
    partitions: Option<PartitionConfig>,
) -> ServerHandle {
    let module =
        SharedBypass::new(FeedbackBypass::for_histograms(DIM, BypassConfig::default()).unwrap());
    let cfg = ServerConfig {
        shards,
        partitions,
        ..Default::default()
    };
    serve("127.0.0.1:0", Arc::clone(coll), module, cfg).unwrap()
}

fn point(i: usize) -> Vec<f64> {
    let c = i % CLUSTERS;
    (0..DIM)
        .map(|d| {
            ((c * 23 + d * 5) as f64 * 0.61).cos() * 3.0 + ((i * 7 + d) as f64 * 0.43).sin() * 0.3
        })
        .collect()
}

/// Send one raw `ShardKnn` frame and return its `(finished, entries)`.
fn shard_knn(
    stream: &mut TcpStream,
    k: u32,
    seed: f64,
    point: &[f64],
    weights: &[f64],
) -> (bool, Vec<(f64, u32)>) {
    let req = Request::ShardKnn {
        k,
        seed,
        point: point.to_vec(),
        weights: weights.to_vec(),
    };
    write_frame(stream, &req.encode()).unwrap();
    let payload = read_frame(stream, DEFAULT_MAX_FRAME_LEN, &mut || true)
        .unwrap()
        .expect("reply frame");
    match Response::decode(&payload).unwrap() {
        Response::ShardPartial { finished, entries } => (finished, entries),
        other => panic!("expected ShardPartial, got {other:?}"),
    }
}

fn assert_same(label: &str, got: &(bool, Vec<(f64, u32)>), want: &(bool, Vec<(f64, u32)>)) {
    assert_eq!(got.0, want.0, "{label}: finished flag");
    assert_eq!(got.1.len(), want.1.len(), "{label}: entry count");
    for (i, (g, w)) in got.1.iter().zip(want.1.iter()).enumerate() {
        assert_eq!(g.1, w.1, "{label}: index of entry {i}");
        assert_eq!(
            g.0.to_bits(),
            w.0.to_bits(),
            "{label}: key bits of entry {i}"
        );
    }
}

#[test]
fn internally_sharded_shard_knn_matches_one_shard() {
    let coll = Arc::new(collection());
    let one = start(&coll, 1, None);
    let split = start(&coll, 3, None);
    let pruned = start(&coll, 3, Some(PartitionConfig::with_partitions(12)));
    let mut reference = TcpStream::connect(one.local_addr()).unwrap();
    let mut candidates = [
        ("shards 3", TcpStream::connect(split.local_addr()).unwrap()),
        (
            "shards 3 + partitions",
            TcpStream::connect(pruned.local_addr()).unwrap(),
        ),
    ];

    let learned = [0.5, 2.0, 1.0, 3.0, 0.25, 1.5];
    let metrics: [(&str, &[f64]); 2] = [("uniform", &[]), ("learned", &learned)];
    let ks = [1u32, 50, N as u32 + 7];
    let mut compared = 0;
    for q in 0..6 {
        let p = point(q);
        for (metric, weights) in metrics {
            for k in ks {
                let unseeded = shard_knn(&mut reference, k, f64::INFINITY, &p, weights);
                assert_eq!(unseeded.1.len(), (k as usize).min(N), "q{q} {metric} k{k}");
                let kth = unseeded.1.last().unwrap().0;
                let seeds = [f64::INFINITY, kth, kth * 1.5 + 1e-9, kth * 0.5];
                for seed in seeds {
                    let want = shard_knn(&mut reference, k, seed, &p, weights);
                    if seed >= kth {
                        assert_same(&format!("q{q} {metric} k{k}: sound seed"), &want, &unseeded);
                    }
                    for (tier, stream) in candidates.iter_mut() {
                        let got = shard_knn(stream, k, seed, &p, weights);
                        let label = format!("q{q} {metric} k{k} seed {seed}: {tier}");
                        assert_same(&label, &got, &want);
                        compared += 1;
                    }
                }
            }
        }
    }
    assert_eq!(compared, 6 * 2 * 3 * 4 * 2);
    assert!(
        pruned.stats().scan_partitions_pruned > 0,
        "the partitioned server must actually prune"
    );
    one.shutdown();
    split.shutdown();
    pruned.shutdown();
}
