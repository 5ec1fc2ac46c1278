//! `ShardKnn` goldens for a `shards: 1` server, flat and partitioned:
//! every raw `ShardKnn` frame must answer the exact k-best of the served
//! rows, pinned against an exhaustive [`LinearScan`] reference — the
//! same indices, each entry's `finish_key(key)` bits equal to the
//! reference distance bits, and `finished = false` (the serving passes
//! push surrogate keys, never finished distances).
//!
//! The frames cover uniform (empty) and learned weights, k ∈ {1, 50,
//! more than the served rows}, and the seeds `+∞`, the exact k-th key
//! and a looser one: a sound seed never changes an answer. A seed below
//! the k-th key is not sound — it may truncate the answer — so what the
//! server returns for it is pinned as literal entries.

use fbp_server::protocol::{read_frame, write_frame, Request, Response, DEFAULT_MAX_FRAME_LEN};
use fbp_server::{serve, ServerConfig, ServerHandle};
use fbp_vecdb::{
    Collection, CollectionBuilder, Distance, KnnEngine, LinearScan, PartitionConfig,
    WeightedEuclidean,
};
use feedbackbypass::{BypassConfig, FeedbackBypass, SharedBypass};
use std::net::TcpStream;
use std::sync::Arc;

const DIM: usize = 6;
const N: usize = 500;
const CLUSTERS: usize = 7;
const LEARNED: [f64; DIM] = [0.5, 2.0, 1.0, 3.0, 0.25, 1.5];

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

fn start(coll: &Arc<Collection>, partitions: Option<PartitionConfig>) -> ServerHandle {
    let module =
        SharedBypass::new(FeedbackBypass::for_histograms(DIM, BypassConfig::default()).unwrap());
    let cfg = ServerConfig {
        shards: 1,
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

/// The metric a frame's weights describe (empty = uniform).
fn metric(weights: &[f64]) -> WeightedEuclidean {
    WeightedEuclidean::new(if weights.is_empty() {
        vec![1.0; DIM]
    } else {
        weights.to_vec()
    })
    .unwrap()
}

/// The frame's answer equals the exhaustive reference: same indices in
/// the canonical `(dist, index)` order, finished key bits equal to the
/// reference distance bits, keys not yet finished.
fn assert_reference(
    label: &str,
    got: &(bool, Vec<(f64, u32)>),
    coll: &Collection,
    q: &[f64],
    k: u32,
    weights: &[f64],
) {
    let m = metric(weights);
    let want = LinearScan::new(coll).knn(q, k as usize, &m);
    assert!(!got.0, "{label}: entries must be unfinished keys");
    let mut finished: Vec<(f64, u32)> = got
        .1
        .iter()
        .map(|&(key, i)| (m.finish_key(key), i))
        .collect();
    finished.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    assert_eq!(finished.len(), want.len(), "{label}: entry count");
    for (i, (g, w)) in finished.iter().zip(&want).enumerate() {
        assert_eq!(g.1, w.index, "{label}: index of entry {i}");
        assert_eq!(
            g.0.to_bits(),
            w.dist.to_bits(),
            "{label}: distance bits of entry {i}"
        );
    }
}

/// What a seed of half the exact k-th key returns, k = 50: per
/// `(query, metric)`, the `(key bits, index)` entries in reply order.
/// Flat and partitioned servers return the same entries.
type Pinned = (usize, &'static str, &'static [(u64, u32)]);

const BELOW_KTH: &[Pinned] = &[
    (
        0,
        "uniform",
        &[
            (4594095288438317952, 413),
            (4595105842632721730, 315),
            (4595552300240851445, 56),
            (4595641978554389852, 399),
            (4596002859728478810, 189),
            (4596206159656666539, 84),
            (4597055649676025450, 203),
        ],
    ),
    (
        0,
        "learned",
        &[
            (4595324208783480872, 84),
            (4595836033622567384, 315),
            (4596190273514217892, 189),
            (4596226822819489265, 413),
            (4597575369985920604, 56),
            (4597612466619027626, 399),
            (4597681908163250644, 441),
            (4597898941573717714, 77),
            (4598481427082455868, 266),
            (4598528499485339346, 455),
            (4598726457463137425, 182),
            (4598745244137900764, 112),
            (4599065123937787608, 7),
            (4599113045345378346, 469),
            (4599226585447153031, 161),
        ],
    ),
    (
        1,
        "uniform",
        &[
            (4593551621956585102, 477),
            (4594421839650411440, 85),
            (4594774154226981800, 22),
            (4594917133418048445, 351),
            (4595100355508450226, 435),
            (4595338174398347087, 309),
            (4595403790361369064, 113),
            (4595426975622605652, 414),
            (4595542151241675633, 442),
            (4595623804252265983, 253),
            (4595788288019705642, 197),
            (4595811448315105150, 379),
        ],
    ),
    (
        1,
        "learned",
        &[
            (4594815059225747744, 197),
            (4595496642867400477, 435),
            (4596043872268640910, 400),
            (4596117336632646812, 337),
            (4596379167263473305, 148),
            (4596534384211724091, 484),
            (4596975574427353633, 351),
            (4597314327009476863, 85),
            (4597381931196910924, 414),
            (4598122141351565822, 113),
            (4598409323595633436, 477),
            (4598489642264139576, 344),
            (4598496360863295532, 1),
            (4598632888926985241, 379),
            (4598688101701972609, 211),
            (4598732179301806091, 442),
            (4598740991309471210, 253),
            (4598830235189324596, 365),
            (4598884137901493348, 267),
        ],
    ),
];

#[test]
fn shard_knn_matches_linear_scan() {
    let coll = Arc::new(collection());
    let flat = start(&coll, None);
    let pruned = start(&coll, Some(PartitionConfig::with_partitions(12)));
    let mut servers = [
        ("flat", TcpStream::connect(flat.local_addr()).unwrap()),
        (
            "partitioned",
            TcpStream::connect(pruned.local_addr()).unwrap(),
        ),
    ];
    let metrics: [(&str, &[f64]); 2] = [("uniform", &[]), ("learned", &LEARNED)];
    let mut compared = 0;
    let mut pinned = 0;
    for q in 0..6 {
        let p = point(q);
        for (name, weights) in metrics {
            for k in [1u32, 50, N as u32 + 7] {
                for (tier, stream) in servers.iter_mut() {
                    let unseeded = shard_knn(stream, k, f64::INFINITY, &p, weights);
                    let kth = unseeded.1.last().unwrap().0;
                    for seed in [f64::INFINITY, kth, kth * 1.5 + 1e-9] {
                        let got = shard_knn(stream, k, seed, &p, weights);
                        let label = format!("q{q} {name} k{k} seed {seed}: {tier}");
                        assert_reference(&label, &got, &coll, &p, k, weights);
                        compared += 1;
                    }
                    if k == 50 && q < 2 {
                        let got = shard_knn(stream, k, kth * 0.5, &p, weights);
                        let bits: Vec<(u64, u32)> =
                            got.1.iter().map(|&(key, i)| (key.to_bits(), i)).collect();
                        let (_, _, want) = BELOW_KTH
                            .iter()
                            .find(|&&(pq, pm, _)| pq == q && pm == name)
                            .unwrap();
                        assert!(!got.0, "q{q} {name} below k-th: {tier}");
                        assert_eq!(bits, *want, "q{q} {name} below k-th: {tier}");
                        pinned += 1;
                    }
                }
            }
        }
    }
    assert_eq!(compared, 6 * 2 * 3 * 2 * 3);
    assert_eq!(pinned, 2 * 2 * 2);
    assert!(
        pruned.stats().scan_partitions_pruned > 0,
        "the partitioned server must actually prune"
    );
    flat.shutdown();
    pruned.shutdown();
}
