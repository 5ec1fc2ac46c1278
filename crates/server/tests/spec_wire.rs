//! The v2 query surface over real loopback sockets:
//!
//! * **Negotiation** — `Hello` settles on `min(client, server)`;
//!   `KnnV2` before a ≥ 2 handshake is refused with `BadRequest`; a
//!   negotiated connection still speaks every v1 request.
//! * **Bit-identity** — a multi-example `KnnV2` round, served by a flat
//!   server *and* by a router scattering to three remote shard servers,
//!   equals a flat in-process [`LinearScan`] against the spec's
//!   Rocchio-derived anchor, distances included. The trivial spec
//!   (anchor only) equals the plain v1 `Knn` on the same bytes.
//! * **Typed refusals** — each way a `KnnV2` spec can be malformed
//!   surfaces its own wire error code, not a shared catch-all.

use fbp_server::protocol::{read_frame, write_frame, Request, Response, DEFAULT_MAX_FRAME_LEN};
use fbp_server::{
    error_code_for, route, serve, Client, ClientError, ErrorCode, RouterConfig, ServerConfig,
    ServerHandle, StatsSnapshot, PROTOCOL_VERSION,
};
use fbp_vecdb::{
    Collection, CollectionBuilder, KnnEngine, LinearScan, ScanMode, WeightedEuclidean,
};
use feedbackbypass::{
    BypassConfig, FeedbackBypass, QuerySpec, RequestError, RocchioWeights, SharedBypass,
};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

const DIM: usize = 6;
const N: usize = 600;
const SHARDS: usize = 3;

fn collection() -> Collection {
    let mut state = 0x517C_C1B7_2722_0875_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut b = CollectionBuilder::new().with_f32_mirror();
    for _ in 0..N {
        let v: Vec<f64> = (0..DIM).map(|_| next()).collect();
        b.push_unlabelled(&v).unwrap();
    }
    b.build()
}

fn shared_module() -> SharedBypass {
    SharedBypass::new(FeedbackBypass::for_histograms(DIM, BypassConfig::default()).unwrap())
}

fn query(i: usize) -> Vec<f64> {
    (0..DIM)
        .map(|d| (((i * 31 + d * 7) as f64) * 0.37).sin().abs())
        .collect()
}

/// A spec with both example sets populated from collection rows —
/// exactly what an interactive session ships after judging a probe
/// round.
fn example_spec(coll: &Collection, i: usize) -> QuerySpec {
    let positives: Vec<Vec<f64>> = (0..3)
        .map(|j| coll.vector((i * 17 + j * 5) % coll.len()).to_vec())
        .collect();
    let negatives: Vec<Vec<f64>> = (0..2)
        .map(|j| coll.vector((i * 29 + j * 11 + 3) % coll.len()).to_vec())
        .collect();
    QuerySpec::builder(query(i))
        .positives(positives)
        .negatives(negatives)
        .rocchio(RocchioWeights::new(1.0, 0.75, 0.25))
        .clamp_to_zero(true)
        .build()
        .unwrap()
}

/// One shard server per balanced contiguous slice plus a router over
/// them.
fn start_router(coll: &Arc<Collection>) -> (Vec<ServerHandle>, fbp_server::RouterHandle) {
    let mut handles = Vec::new();
    let mut addrs: Vec<SocketAddr> = Vec::new();
    for i in 0..SHARDS {
        let (start, end) = (i * coll.len() / SHARDS, (i + 1) * coll.len() / SHARDS);
        let slice = Arc::new(coll.slice_rows(start, end));
        let cfg = ServerConfig {
            row_offset: start,
            ..Default::default()
        };
        let handle = serve("127.0.0.1:0", slice, shared_module(), cfg).unwrap();
        addrs.push(handle.local_addr());
        handles.push(handle);
    }
    let router = route(
        "127.0.0.1:0",
        &addrs,
        Arc::clone(coll),
        shared_module(),
        RouterConfig::default(),
    )
    .unwrap();
    (handles, router)
}

#[test]
fn hello_negotiates_v2_and_gates_knn_v2() {
    let coll = Arc::new(collection());
    let handle = serve(
        "127.0.0.1:0",
        Arc::clone(&coll),
        shared_module(),
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let (session, _) = client.open_session().unwrap();

    // v2-only requests are refused until the connection negotiates.
    let spec = example_spec(&coll, 0);
    match client.knn_spec(session, 10, &spec) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("pre-hello KnnV2 must be refused, got {other:?}"),
    }

    assert_eq!(client.hello().unwrap(), PROTOCOL_VERSION);

    // Negotiated, the same request serves; v1 requests keep working on
    // the same connection.
    assert_eq!(
        client.knn_spec(session, 10, &spec).unwrap().neighbors.len(),
        10
    );
    assert_eq!(
        client.knn(session, 5, &query(1)).unwrap().neighbors.len(),
        5
    );
    client.close_session(session).unwrap();
    assert_eq!(handle.stats().protocol_errors, 1, "only the gated refusal");
    handle.shutdown();
}

#[test]
fn raw_hello_edges() {
    let coll = Arc::new(collection());
    let handle = serve(
        "127.0.0.1:0",
        Arc::clone(&coll),
        shared_module(),
        ServerConfig::default(),
    )
    .unwrap();
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    let call = |stream: &mut TcpStream, req: &Request| -> Response {
        write_frame(stream, &req.encode()).unwrap();
        let payload = read_frame(stream, DEFAULT_MAX_FRAME_LEN, &mut || true)
            .unwrap()
            .expect("reply frame");
        Response::decode(&payload).unwrap()
    };

    // Version 0 is not a protocol.
    match call(&mut stream, &Request::Hello { version: 0 }) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("Hello(0) must be refused, got {other:?}"),
    }
    // An old client offering 1 gets 1 back, not an upgrade.
    match call(&mut stream, &Request::Hello { version: 1 }) {
        Response::HelloAck { version } => assert_eq!(version, 1),
        other => panic!("expected HelloAck, got {other:?}"),
    }
    // A futuristic client is capped at what the server speaks.
    match call(&mut stream, &Request::Hello { version: 250 }) {
        Response::HelloAck { version } => assert_eq!(version, PROTOCOL_VERSION),
        other => panic!("expected HelloAck, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn knn_v2_validation_errors_carry_distinct_codes() {
    let coll = Arc::new(collection());
    let handle = serve(
        "127.0.0.1:0",
        Arc::clone(&coll),
        shared_module(),
        ServerConfig::default(),
    )
    .unwrap();
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    let call = |stream: &mut TcpStream, req: &Request| -> Response {
        write_frame(stream, &req.encode()).unwrap();
        let payload = read_frame(stream, DEFAULT_MAX_FRAME_LEN, &mut || true)
            .unwrap()
            .expect("reply frame");
        Response::decode(&payload).unwrap()
    };
    assert!(matches!(
        call(&mut stream, &Request::Hello { version: 2 }),
        Response::HelloAck { version: 2 }
    ));
    let session = match call(&mut stream, &Request::OpenSession) {
        Response::SessionOpened { session, .. } => session,
        other => panic!("expected SessionOpened, got {other:?}"),
    };

    let base = |anchor: Vec<f64>| Request::KnnV2 {
        session,
        k: 5,
        alpha: 1.0,
        beta: 0.75,
        gamma: 0.25,
        clamp: false,
        trace: false,
        anchor,
        positives: Vec::new(),
        negatives: Vec::new(),
    };
    let expect_code = |resp: Response, want: ErrorCode| match resp {
        Response::Error { code, .. } => assert_eq!(code, want),
        other => panic!("expected {want}, got {other:?}"),
    };

    // A NaN anchor component.
    expect_code(
        call(&mut stream, &base(vec![f64::NAN; DIM])),
        ErrorCode::NonFiniteComponent,
    );
    // A non-finite Rocchio coefficient.
    let mut bad_alpha = base(query(0));
    if let Request::KnnV2 { alpha, .. } = &mut bad_alpha {
        *alpha = f64::INFINITY;
    }
    expect_code(call(&mut stream, &bad_alpha), ErrorCode::NonFiniteComponent);
    // An anchor of the wrong dimensionality for the served collection
    // (the frame encoding ties example lengths to the anchor's, so a
    // *mutually* inconsistent spec cannot even be expressed on the
    // wire — that defect is purely an in-process builder error).
    expect_code(
        call(&mut stream, &base(vec![0.5; DIM - 1])),
        ErrorCode::DimMismatch,
    );
    // α = 0 with no examples: nothing to derive an anchor from.
    let mut inert = base(query(2));
    if let Request::KnnV2 { alpha, .. } = &mut inert {
        *alpha = 0.0;
    }
    expect_code(call(&mut stream, &inert), ErrorCode::EmptyExampleSet);

    // The mapping covers the variant no KnnV2 frame can trigger (it
    // guards in-process batch paths), so the table stays total.
    assert_eq!(
        error_code_for(&RequestError::BadWeight {
            index: 0,
            value: -1.0
        }),
        ErrorCode::BadWeight
    );
    handle.shutdown();
}

/// Multi-example rounds over the wire — flat server and router alike —
/// are bit-identical to a flat in-process scan against the derived
/// anchor, and the trivial spec is bit-identical to the v1 `Knn`.
#[test]
fn spec_rounds_match_derived_anchor_scans_flat_and_routed() {
    let coll = Arc::new(collection());
    let flat_handle = serve(
        "127.0.0.1:0",
        Arc::clone(&coll),
        shared_module(),
        ServerConfig::default(),
    )
    .unwrap();
    let (shard_handles, router) = start_router(&coll);

    let single = LinearScan::with_mode(&coll, ScanMode::Batched);
    let uniform = WeightedEuclidean::new(vec![1.0; DIM]).unwrap();

    for (label, addr) in [
        ("flat", flat_handle.local_addr()),
        ("router", router.local_addr()),
    ] {
        let mut client = Client::connect(addr).unwrap();
        assert_eq!(client.hello().unwrap(), PROTOCOL_VERSION);
        let (session, _) = client.open_session().unwrap();
        for i in 0..6 {
            let spec = example_spec(&coll, i);
            let k = [1usize, 7, 25][i % 3];
            let reply = client.knn_spec(session, k as u32, &spec).unwrap();
            // Out-of-domain derived anchors search under the uniform
            // metric — the same documented fallback the v1 path takes.
            let expect = single.knn(spec.lower().point(), k, &uniform);
            assert_eq!(
                reply.neighbors, expect,
                "{label} spec {i}: wire answer diverged from the derived-anchor scan"
            );
        }
        // The trivial spec IS the v1 query, across a fresh session each
        // so neither round is absorbed as a repeat of the other.
        let anchor = query(40);
        let trivial = QuerySpec::builder(anchor.clone()).build().unwrap();
        let via_spec = client.knn_spec(session, 10, &trivial).unwrap();
        let (v1_session, _) = client.open_session().unwrap();
        let via_v1 = client.knn(v1_session, 10, &anchor).unwrap();
        assert_eq!(
            via_spec.neighbors, via_v1.neighbors,
            "{label}: trivial spec must equal the plain v1 round"
        );
        client.close_session(session).unwrap();
        client.close_session(v1_session).unwrap();
    }

    router.shutdown();
    for h in shard_handles {
        h.shutdown();
    }
    flat_handle.shutdown();
}

/// A spec round is a real session round: judging it moves the stepper
/// exactly as judging the same derived anchor served via v1 would.
#[test]
fn spec_rounds_participate_in_the_feedback_loop() {
    let coll = Arc::new(collection());
    let handle = serve(
        "127.0.0.1:0",
        Arc::clone(&coll),
        shared_module(),
        ServerConfig::default(),
    )
    .unwrap();

    let mut v2 = Client::connect(handle.local_addr()).unwrap();
    assert_eq!(v2.hello().unwrap(), PROTOCOL_VERSION);
    let (s2, _) = v2.open_session().unwrap();
    let spec = example_spec(&coll, 3);
    let first = v2.knn_spec(s2, 10, &spec).unwrap();
    let relevant: Vec<u32> = first.neighbors.iter().take(3).map(|n| n.index).collect();
    let ack = v2.feedback(s2, &relevant).unwrap();

    // Same conversation via v1, shipping the pre-derived anchor.
    let mut v1 = Client::connect(handle.local_addr()).unwrap();
    let (s1, _) = v1.open_session().unwrap();
    let derived = spec.lower().into_request().point;
    let first_v1 = v1.knn(s1, 10, &derived).unwrap();
    assert_eq!(first.neighbors, first_v1.neighbors);
    let ack_v1 = v1.feedback(s1, &relevant).unwrap();
    assert_eq!(ack.done, ack_v1.done);
    assert_eq!(ack.converged, ack_v1.converged);
    assert_eq!(ack.cycles, ack_v1.cycles);

    // And the rounds after feedback still agree — the stepper state the
    // spec round seeded is the derived-anchor state.
    if !ack.done {
        let second = v2.knn_spec(s2, 10, &spec).unwrap();
        let second_v1 = v1.knn(s1, 10, &derived).unwrap();
        assert_eq!(second.neighbors, second_v1.neighbors);
    }
    handle.shutdown();
}

/// A NaN or infinite search point is refused at admission on every
/// search frame — v1 `Knn` included, and the sessionless `ShardKnn` a
/// shard server answers — with `NonFiniteComponent`, counted as a
/// protocol error, on the flat server and on the router alike.
#[test]
fn non_finite_search_points_are_refused_flat_and_routed() {
    let coll = Arc::new(collection());
    let flat_handle = serve(
        "127.0.0.1:0",
        Arc::clone(&coll),
        shared_module(),
        ServerConfig::default(),
    )
    .unwrap();
    let (shard_handles, router) = start_router(&coll);
    let call = |stream: &mut TcpStream, req: &Request| -> Response {
        write_frame(stream, &req.encode()).unwrap();
        let payload = read_frame(stream, DEFAULT_MAX_FRAME_LEN, &mut || true)
            .unwrap()
            .expect("reply frame");
        Response::decode(&payload).unwrap()
    };
    let expect_non_finite = |label: &str, resp: Response| match resp {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::NonFiniteComponent, "{label}"),
        other => panic!("{label}: expected NonFiniteComponent, got {other:?}"),
    };
    let mut infinite = vec![0.5; DIM];
    infinite[0] = f64::INFINITY;
    let points = [vec![f64::NAN; DIM], infinite];

    let tiers: [(&str, SocketAddr, &dyn Fn() -> StatsSnapshot); 2] = [
        ("flat", flat_handle.local_addr(), &|| flat_handle.stats()),
        ("router", router.local_addr(), &|| router.stats()),
    ];
    for (label, addr, stats) in tiers {
        let mut stream = TcpStream::connect(addr).unwrap();
        let session = match call(&mut stream, &Request::OpenSession) {
            Response::SessionOpened { session, .. } => session,
            other => panic!("expected SessionOpened, got {other:?}"),
        };
        let before = stats().protocol_errors;
        for query in &points {
            let knn = Request::Knn {
                session,
                k: 5,
                query: query.clone(),
            };
            expect_non_finite(label, call(&mut stream, &knn));
        }
        assert_eq!(stats().protocol_errors - before, points.len() as u64);
        // The refusals left the session usable.
        match call(
            &mut stream,
            &Request::Knn {
                session,
                k: 5,
                query: query(0),
            },
        ) {
            Response::KnnResult { neighbors, .. } => assert_eq!(neighbors.len(), 5),
            other => panic!("{label}: expected KnnResult, got {other:?}"),
        }
    }

    // `ShardKnn` at a shard server: the same check, before any scan.
    let scanners: [(&str, SocketAddr, &dyn Fn() -> StatsSnapshot); 2] = [
        ("flat", flat_handle.local_addr(), &|| flat_handle.stats()),
        ("shard 0", shard_handles[0].local_addr(), &|| {
            shard_handles[0].stats()
        }),
    ];
    for (label, addr, stats) in scanners {
        let mut stream = TcpStream::connect(addr).unwrap();
        let before = stats().protocol_errors;
        for point in &points {
            let shard_knn = Request::ShardKnn {
                k: 5,
                seed: f64::INFINITY,
                point: point.clone(),
                weights: Vec::new(),
            };
            expect_non_finite(label, call(&mut stream, &shard_knn));
        }
        assert_eq!(stats().protocol_errors - before, points.len() as u64);
    }

    router.shutdown();
    for h in shard_handles {
        h.shutdown();
    }
    flat_handle.shutdown();
}

/// A zero, negative or non-finite `ShardKnn` weight is refused by a
/// shard server with `BadWeight` (code 9, the error table's own example),
/// counted as a protocol error; the connection keeps serving. A router
/// has no local rows and refuses every `ShardKnn` with `BadRequest`.
#[test]
fn shard_knn_bad_weights_are_refused_with_bad_weight() {
    let coll = Arc::new(collection());
    let (shard_handles, router) = start_router(&coll);
    let call = |stream: &mut TcpStream, req: &Request| -> Response {
        write_frame(stream, &req.encode()).unwrap();
        let payload = read_frame(stream, DEFAULT_MAX_FRAME_LEN, &mut || true)
            .unwrap()
            .expect("reply frame");
        Response::decode(&payload).unwrap()
    };
    let shard_knn = |weight: f64| {
        let mut weights = vec![1.0; DIM];
        weights[DIM - 1] = weight;
        Request::ShardKnn {
            k: 5,
            seed: f64::INFINITY,
            point: query(0),
            weights,
        }
    };

    let shard = &shard_handles[0];
    let mut stream = TcpStream::connect(shard.local_addr()).unwrap();
    let bad = [0.0, -1.0, f64::NAN, f64::INFINITY];
    let before = shard.stats().protocol_errors;
    for weight in bad {
        match call(&mut stream, &shard_knn(weight)) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadWeight, "w={weight}"),
            other => panic!("weight {weight}: expected BadWeight, got {other:?}"),
        }
    }
    assert_eq!(shard.stats().protocol_errors - before, bad.len() as u64);
    match call(&mut stream, &shard_knn(2.0)) {
        Response::ShardPartial { entries, .. } => assert_eq!(entries.len(), 5),
        other => panic!("expected ShardPartial, got {other:?}"),
    }

    let mut stream = TcpStream::connect(router.local_addr()).unwrap();
    match call(&mut stream, &shard_knn(0.0)) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("router: expected BadRequest, got {other:?}"),
    }

    router.shutdown();
    for h in shard_handles {
        h.shutdown();
    }
}
