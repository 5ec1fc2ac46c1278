//! Wire-level pin of partition-pruned serving: deployments that opt
//! into [`ServerConfig::partitions`] must answer **bit-identically** to
//! their unpartitioned twins over real loopback sockets — through one
//! server and through a router scattering to three partition-enabled
//! shard servers — under a concurrent mix of batched
//! k-NN requests, while the `scan_partitions_pruned` counter in the
//! wire [`StatsSnapshot`](fbp_server::StatsSnapshot) proves the pruning
//! actually engaged (sub-linear scans, identical answers).

use fbp_server::{route, serve, Client, FailurePolicy, RouterConfig, ServerConfig, ServerHandle};
use fbp_vecdb::{Collection, CollectionBuilder, PartitionConfig};
use feedbackbypass::{BypassConfig, FeedbackBypass, SharedBypass};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

const DIM: usize = 6;
const N: usize = 600;
const SHARDS: usize = 3;
const CLUSTERS: usize = 8;

/// Clustered rows so the partition bounds actually separate regions:
/// tight scatter around well-spread centers.
fn clustered_collection() -> Collection {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
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
            .map(|i| ((c * 37 + i * 11) as f64 * 0.73).sin() * 5.0 + (next() - 0.5) * 0.3)
            .collect();
        b.push_unlabelled(&v).unwrap();
    }
    b.build()
}

fn shared_module() -> SharedBypass {
    SharedBypass::new(FeedbackBypass::for_histograms(DIM, BypassConfig::default()).unwrap())
}

/// Queries pinned near cluster centers (pruning-friendly), varied per
/// caller so concurrent clients exercise a mixed batch.
fn query(i: usize) -> Vec<f64> {
    let c = i % CLUSTERS;
    (0..DIM)
        .map(|d| {
            ((c * 37 + d * 11) as f64 * 0.73).sin() * 5.0 + ((i * 13 + d) as f64 * 0.29).sin() * 0.2
        })
        .collect()
}

fn partition_cfg() -> PartitionConfig {
    PartitionConfig::with_partitions(16)
}

/// Drive `rounds` fresh-session searches against two deployments from
/// several concurrent client threads, asserting every reply pair is
/// bit-identical (indices and distance bits).
fn assert_concurrent_wire_identical(a: SocketAddr, b: SocketAddr, threads: usize, rounds: usize) {
    std::thread::scope(|scope| {
        for t in 0..threads {
            scope.spawn(move || {
                let mut ca = Client::connect(a).unwrap();
                let mut cb = Client::connect(b).unwrap();
                let (sa, _) = ca.open_session().unwrap();
                let (sb, _) = cb.open_session().unwrap();
                for i in 0..rounds {
                    let q = query(t * rounds + i);
                    let k = [1u32, 5, 17][i % 3];
                    let ra = ca.knn(sa, k, &q).unwrap();
                    let rb = cb.knn(sb, k, &q).unwrap();
                    assert_eq!(
                        ra.neighbors.len(),
                        rb.neighbors.len(),
                        "t{t} i{i}: result count"
                    );
                    for (x, y) in ra.neighbors.iter().zip(rb.neighbors.iter()) {
                        assert_eq!(x.index, y.index, "t{t} i{i}: index");
                        assert_eq!(
                            x.dist.to_bits(),
                            y.dist.to_bits(),
                            "t{t} i{i}: distance bits for row {}",
                            x.index
                        );
                    }
                    assert!(!ra.degraded && !rb.degraded, "t{t} i{i}: degraded");
                }
            });
        }
    });
}

/// A server with partitions vs its unpartitioned twin:
/// identical replies under a concurrent batch mix; the partitioned
/// deployment's wire stats must show partitions pruned, the twin's must
/// not.
#[test]
fn partitioned_server_wire_identical_and_prunes() {
    let coll = Arc::new(clustered_collection());
    let plain = serve(
        "127.0.0.1:0",
        Arc::clone(&coll),
        shared_module(),
        ServerConfig::default(),
    )
    .unwrap();
    let pruned = serve(
        "127.0.0.1:0",
        Arc::clone(&coll),
        shared_module(),
        ServerConfig {
            partitions: Some(partition_cfg()),
            ..Default::default()
        },
    )
    .unwrap();

    assert_concurrent_wire_identical(plain.local_addr(), pruned.local_addr(), 4, 9);

    // The counter travels the wire: `SnapshotStats` must report it.
    let mut c = Client::connect(pruned.local_addr()).unwrap();
    let stats = c.stats().unwrap();
    assert!(
        stats.scan_partitions_pruned > 0,
        "partition-enabled serving must actually prune (stats: {stats:?})"
    );
    assert!(stats.scan_rows_visited > 0);
    let plain_stats = plain.stats();
    assert_eq!(
        plain_stats.scan_partitions_pruned, 0,
        "flat serving must never report pruned partitions"
    );
    assert!(
        stats.scan_rows_visited < plain.stats().scan_rows_visited,
        "pruned serving must visit fewer rows for the same request mix \
         ({} vs {})",
        stats.scan_rows_visited,
        plain_stats.scan_rows_visited
    );
    plain.shutdown();
    pruned.shutdown();
}

/// Router over three partition-enabled shard servers vs an
/// unpartitioned flat server: identical replies under concurrent
/// clients, `scan_partitions_pruned > 0` on every shard server's wire
/// stats, zero on the router (it scans nothing).
#[test]
fn partitioned_router_matches_unpartitioned_oracle() {
    let coll = Arc::new(clustered_collection());

    // Three shard servers, each serving its contiguous slice with
    // partition pruning enabled.
    let mut shard_handles: Vec<ServerHandle> = Vec::new();
    let mut addrs: Vec<SocketAddr> = Vec::new();
    for i in 0..SHARDS {
        let (start, end) = (i * N / SHARDS, (i + 1) * N / SHARDS);
        let slice = Arc::new(coll.slice_rows(start, end));
        let cfg = ServerConfig {
            row_offset: start,
            partitions: Some(partition_cfg()),
            ..Default::default()
        };
        let handle = serve("127.0.0.1:0", slice, shared_module(), cfg).unwrap();
        addrs.push(handle.local_addr());
        shard_handles.push(handle);
    }
    let router = route(
        "127.0.0.1:0",
        &addrs,
        Arc::clone(&coll),
        shared_module(),
        RouterConfig {
            shard_timeout: Duration::from_secs(2),
            policy: FailurePolicy::Strict,
            ..Default::default()
        },
    )
    .unwrap();
    let oracle = serve(
        "127.0.0.1:0",
        Arc::clone(&coll),
        shared_module(),
        ServerConfig::default(),
    )
    .unwrap();

    assert_concurrent_wire_identical(oracle.local_addr(), router.local_addr(), 4, 9);

    for (i, handle) in shard_handles.iter().enumerate() {
        let mut c = Client::connect(handle.local_addr()).unwrap();
        let stats = c.stats().unwrap();
        assert!(
            stats.scan_partitions_pruned > 0,
            "shard {i} must report pruned partitions over the wire (stats: {stats:?})"
        );
    }
    let rstats = router.stats();
    assert_eq!(
        rstats.scan_partitions_pruned, 0,
        "a router scans nothing and must report zero pruned partitions"
    );

    router.shutdown();
    oracle.shutdown();
    for h in shard_handles {
        h.shutdown();
    }
}
