//! Protocol robustness: malformed frames, bad requests, and abrupt
//! disconnects must surface as coded errors or dropped connections —
//! never panics, never a wedged batcher, never a leaked session.

use fbp_server::{serve, Client, ClientError, ErrorCode, ServerConfig};
use fbp_vecdb::{
    Collection, CollectionBuilder, KnnEngine, LinearScan, ScanMode, WeightedEuclidean,
};
use feedbackbypass::{BypassConfig, FeedbackBypass, SharedBypass};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

const DIM: usize = 6;

fn collection() -> Collection {
    let mut b = CollectionBuilder::new().with_f32_mirror();
    for i in 0..200 {
        let v: Vec<f64> = (0..DIM)
            .map(|d| (((i * 13 + d * 7) as f64) * 0.37).sin().abs())
            .collect();
        b.push_unlabelled(&v).unwrap();
    }
    b.build()
}

fn start_server(cfg: ServerConfig) -> fbp_server::ServerHandle {
    let bypass =
        SharedBypass::new(FeedbackBypass::for_histograms(DIM, BypassConfig::default()).unwrap());
    serve("127.0.0.1:0", Arc::new(collection()), bypass, cfg).unwrap()
}

/// The server must keep serving fresh connections after this check ran.
fn assert_still_serving(addr: SocketAddr) {
    let mut client = Client::connect(addr).unwrap();
    let (session, dim) = client.open_session().unwrap();
    assert_eq!(dim as usize, DIM);
    let reply = client.knn(session, 3, &[0.5; DIM]).unwrap();
    assert_eq!(reply.neighbors.len(), 3);
    client.close_session(session).unwrap();
}

fn expect_server_error<T: std::fmt::Debug>(
    result: Result<T, ClientError>,
    code: ErrorCode,
) -> String {
    match result {
        Err(ClientError::Server { code: got, message }) => {
            assert_eq!(got, code, "wrong error code: {message}");
            message
        }
        other => panic!("expected server error {code:?}, got {other:?}"),
    }
}

#[test]
fn truncated_frame_drops_connection_not_server() {
    let handle = start_server(ServerConfig::default());
    let addr = handle.local_addr();
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        // Claim 100 payload bytes, send 10, vanish.
        raw.write_all(&100u32.to_le_bytes()).unwrap();
        raw.write_all(&[0u8; 10]).unwrap();
    } // dropped here — server sees EOF mid-frame
    assert_still_serving(addr);
    // The drop was counted. The first connection's reader thread sees
    // the EOF on its own schedule, so nothing orders it before the
    // probe above: wait on the counter under a generous deadline.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while handle.stats().protocol_errors == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = handle.stats();
    assert!(stats.protocol_errors >= 1);
    handle.shutdown();
}

#[test]
fn oversized_frame_is_refused_then_connection_closed() {
    let handle = start_server(ServerConfig {
        max_frame_len: 1024,
        ..Default::default()
    });
    let addr = handle.local_addr();
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&(1u32 << 30).to_le_bytes()).unwrap();
    // The server answers a BadFrame error, then hangs up (the unread
    // body makes the stream unrecoverable).
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).unwrap();
    assert!(!reply.is_empty(), "expected an error frame before close");
    let payload = &reply[4..];
    match fbp_server::protocol::Response::decode(payload).unwrap() {
        fbp_server::protocol::Response::Error { code, .. } => {
            assert_eq!(code, ErrorCode::BadFrame);
        }
        other => panic!("expected Error, got {other:?}"),
    }
    assert_still_serving(addr);
    handle.shutdown();
}

#[test]
fn unknown_opcode_is_answered_and_connection_survives() {
    let handle = start_server(ServerConfig::default());
    let addr = handle.local_addr();
    let mut raw = TcpStream::connect(addr).unwrap();
    // A well-framed payload with a bogus opcode…
    raw.write_all(&1u32.to_le_bytes()).unwrap();
    raw.write_all(&[0x7F]).unwrap();
    let mut header = [0u8; 4];
    raw.read_exact(&mut header).unwrap();
    let mut payload = vec![0u8; u32::from_le_bytes(header) as usize];
    raw.read_exact(&mut payload).unwrap();
    match fbp_server::protocol::Response::decode(&payload).unwrap() {
        fbp_server::protocol::Response::Error { code, .. } => {
            assert_eq!(code, ErrorCode::UnknownOpcode);
        }
        other => panic!("expected Error, got {other:?}"),
    }
    // …and the same connection still works (length framing stayed in
    // sync).
    let open = fbp_server::protocol::Request::OpenSession.encode();
    raw.write_all(&(open.len() as u32).to_le_bytes()).unwrap();
    raw.write_all(&open).unwrap();
    raw.read_exact(&mut header).unwrap();
    let mut payload = vec![0u8; u32::from_le_bytes(header) as usize];
    raw.read_exact(&mut payload).unwrap();
    assert!(matches!(
        fbp_server::protocol::Response::decode(&payload).unwrap(),
        fbp_server::protocol::Response::SessionOpened { .. }
    ));
    handle.shutdown();
}

#[test]
fn wrong_dim_and_unknown_session_are_coded_errors() {
    let handle = start_server(ServerConfig::default());
    let addr = handle.local_addr();
    let mut client = Client::connect(addr).unwrap();
    let (session, _) = client.open_session().unwrap();

    expect_server_error(client.knn(session, 3, &[0.5; 2]), ErrorCode::DimMismatch);
    expect_server_error(
        client.knn(0xDEAD_BEEF, 3, &[0.5; DIM]),
        ErrorCode::UnknownSession,
    );
    expect_server_error(
        client.feedback(0xDEAD_BEEF, &[1, 2]),
        ErrorCode::UnknownSession,
    );
    // Feedback with nothing to judge is a BadRequest…
    expect_server_error(client.feedback(session, &[1, 2]), ErrorCode::BadRequest);
    // …and closing twice reports the second as unknown.
    client.close_session(session).unwrap();
    expect_server_error(
        client.knn(session, 3, &[0.5; DIM]),
        ErrorCode::UnknownSession,
    );
    // The connection survived every error above.
    let (session2, _) = client.open_session().unwrap();
    assert_eq!(
        client
            .knn(session2, 1, &[0.5; DIM])
            .unwrap()
            .neighbors
            .len(),
        1
    );
    handle.shutdown();
}

#[test]
fn sessions_are_connection_scoped() {
    // Session ids are sequential, so a foreign connection could guess
    // them — every access must be checked against the opening
    // connection, and a mismatch must look exactly like a missing id.
    let handle = start_server(ServerConfig::default());
    let addr = handle.local_addr();
    let mut owner = Client::connect(addr).unwrap();
    let (session, _) = owner.open_session().unwrap();
    let reply = owner.knn(session, 3, &[0.5; DIM]).unwrap();
    assert_eq!(reply.neighbors.len(), 3);

    let mut intruder = Client::connect(addr).unwrap();
    expect_server_error(
        intruder.knn(session, 3, &[0.5; DIM]),
        ErrorCode::UnknownSession,
    );
    expect_server_error(intruder.feedback(session, &[1]), ErrorCode::UnknownSession);
    let closed = match intruder.close_session(session) {
        Err(ClientError::Server {
            code: ErrorCode::UnknownSession,
            ..
        }) => false,
        other => panic!("expected UnknownSession on foreign close, got {other:?}"),
    };
    assert!(!closed);

    // The rightful owner is unaffected by the intrusion attempts.
    let reply = owner.knn(session, 5, &[0.4; DIM]).unwrap();
    assert_eq!(reply.neighbors.len(), 5);
    owner.close_session(session).unwrap();
    handle.shutdown();
}

#[test]
fn mid_request_disconnect_does_not_poison_the_batcher() {
    // A long max_wait: the in-flight request is still queued when its
    // client vanishes, so the dispatcher must hit the dead reply channel.
    let handle = start_server(ServerConfig {
        max_batch: 64,
        max_wait: Duration::from_millis(100),
        ..Default::default()
    });
    let addr = handle.local_addr();
    for _ in 0..4 {
        let mut raw = TcpStream::connect(addr).unwrap();
        let open = fbp_server::protocol::Request::OpenSession.encode();
        raw.write_all(&(open.len() as u32).to_le_bytes()).unwrap();
        raw.write_all(&open).unwrap();
        let mut header = [0u8; 4];
        raw.read_exact(&mut header).unwrap();
        let mut payload = vec![0u8; u32::from_le_bytes(header) as usize];
        raw.read_exact(&mut payload).unwrap();
        let session = match fbp_server::protocol::Response::decode(&payload).unwrap() {
            fbp_server::protocol::Response::SessionOpened { session, .. } => session,
            other => panic!("expected SessionOpened, got {other:?}"),
        };
        // Send a valid Knn, then vanish without reading the reply.
        let knn = fbp_server::protocol::Request::Knn {
            session,
            k: 5,
            query: vec![0.5; DIM],
        }
        .encode();
        raw.write_all(&(knn.len() as u32).to_le_bytes()).unwrap();
        raw.write_all(&knn).unwrap();
        drop(raw);
    }
    // The batcher must still serve new traffic promptly afterwards.
    assert_still_serving(addr);
    handle.shutdown();
}

/// Re-seal a module image's FNV-1a checksum (its last eight bytes, over
/// everything after the mapping tag) after editing its body.
fn reseal(image: &mut [u8]) {
    let body_end = image.len() - 8;
    let sum = image[1..body_end]
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
    image[body_end..].copy_from_slice(&sum.to_le_bytes());
}

#[test]
fn hostile_module_image_is_a_coded_error_not_an_abort() {
    // An empty 4-d module with its vertex count set to u32::MAX and the
    // checksum re-sealed (anyone can compute FNV-1a): a few hundred bytes
    // that claim ~160 GB of vertices. The decoder must refuse the count
    // before allocating for it, or the allocation failure aborts the
    // whole server.
    let mut image = FeedbackBypass::for_histograms(5, BypassConfig::default())
        .unwrap()
        .to_bytes();
    // Module tag, then the tree image: magic, version, corner root (tag,
    // D, scale), OQP layout, four tolerances, two enum bytes, three
    // counters, then the vertex count.
    let vertex_count_at = 1 + 4 + 4 + 1 + 4 + 8 + 8 + 4 * 8 + 2 + 3 * 8;
    image[vertex_count_at..vertex_count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    reseal(&mut image);

    let handle = start_server(ServerConfig::default());
    let addr = handle.local_addr();
    let mut client = Client::connect(addr).unwrap();
    let message = expect_server_error(client.restore_module(&image), ErrorCode::BadRequest);
    assert!(message.contains("vertex count"), "{message}");
    // The served module is untouched, and the tier keeps serving.
    let served = client.snapshot_module().unwrap();
    let fresh = FeedbackBypass::for_histograms(DIM, BypassConfig::default()).unwrap();
    assert_eq!(served, fresh.to_bytes());
    assert_still_serving(addr);
    handle.shutdown();
}

#[test]
fn disconnect_drops_the_connections_sessions() {
    let handle = start_server(ServerConfig::default());
    let addr = handle.local_addr();
    let session = {
        let mut doomed = Client::connect(addr).unwrap();
        let (session, _) = doomed.open_session().unwrap();
        session
    }; // connection dropped, session should follow
    let mut client = Client::connect(addr).unwrap();
    // The reaping happens when the connection thread notices the close;
    // poll briefly.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        match client.knn(session, 1, &[0.5; DIM]) {
            Err(ClientError::Server {
                code: ErrorCode::UnknownSession,
                ..
            }) => break,
            Ok(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(10));
            }
            other => panic!("expected the session to be dropped, got {other:?}"),
        }
    }
    handle.shutdown();
}

#[test]
fn shutdown_with_live_connections_and_queued_work_is_clean() {
    let handle = start_server(ServerConfig {
        max_batch: 64,
        max_wait: Duration::from_millis(50),
        ..Default::default()
    });
    let addr = handle.local_addr();
    // Leave idle connections open; shutdown must not hang on them.
    let _idle1 = Client::connect(addr).unwrap();
    let _idle2 = TcpStream::connect(addr).unwrap();
    let t0 = std::time::Instant::now();
    handle.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "shutdown took {:?}",
        t0.elapsed()
    );
}

#[test]
fn non_finite_predicted_point_falls_back_to_the_query() {
    // A module that learned one query's offsets, then had them replaced
    // by +∞ in its image and the checksum re-sealed: the image reader
    // checks structure and checksum, not values, so the restore
    // succeeds. A prediction with a non-finite point must search like a
    // failed prediction — the query point under the uniform metric —
    // not rank every row at distance ∞.
    let q = [1.0 / DIM as f64; DIM];
    let delta = [0.0123, -0.0234, 0.0345, -0.0156, 0.0067];
    let qopt: Vec<f64> = (0..DIM)
        .map(|i| q[i] + delta.get(i).copied().unwrap_or(0.0))
        .collect();
    let mut module = FeedbackBypass::for_histograms(DIM, BypassConfig::default()).unwrap();
    module.insert(&q, &qopt, &[1.0; DIM]).unwrap();
    let mut image = module.to_bytes();
    for i in 0..delta.len() {
        // The stored offset is `qopt − q`, computed as the insert does.
        let stored = (qopt[i] - q[i]).to_le_bytes();
        let at: Vec<usize> = (0..image.len() - 8)
            .filter(|&o| image[o..o + 8] == stored)
            .collect();
        assert_eq!(at.len(), 1, "offset {i} is stored once");
        image[at[0]..at[0] + 8].copy_from_slice(&f64::INFINITY.to_le_bytes());
    }
    reseal(&mut image);

    let handle = start_server(ServerConfig::default());
    let mut client = Client::connect(handle.local_addr()).unwrap();
    client.restore_module(&image).unwrap();
    let (session, _) = client.open_session().unwrap();
    let reply = client.knn(session, 5, &q).unwrap();
    let coll = collection();
    let expect = LinearScan::with_mode(&coll, ScanMode::Batched).knn(
        &q,
        5,
        &WeightedEuclidean::uniform(DIM),
    );
    assert_eq!(reply.neighbors, expect);
    client.close_session(session).unwrap();
    handle.shutdown();
}
