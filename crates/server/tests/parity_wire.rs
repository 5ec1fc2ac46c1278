//! Front-end parity goldens: one scripted conversation, played over raw
//! loopback frames against a flat server and against a router over two
//! shard servers. For every step the reply kind (or error code) and the
//! front-end's `protocol_errors` delta are pinned as a literal table per
//! tier, so any change to how either tier reads, dispatches, admits or
//! answers a frame shows up as a table mismatch.

use fbp_server::protocol::{read_frame, write_frame, Request, Response, DEFAULT_MAX_FRAME_LEN};
use fbp_server::{route, serve, RouterConfig, ServerConfig, ServerHandle, StatsSnapshot};
use fbp_vecdb::{Collection, CollectionBuilder};
use feedbackbypass::{BypassConfig, FeedbackBypass, SharedBypass};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

const DIM: usize = 4;
const N: usize = 400;

/// `(step, reply kind, protocol_errors delta)` for the flat server.
const FLAT: &[(&str, &str, u64)] = &[
    ("open session", "SessionOpened(4)", 0),
    ("hello v0", "Error(BadRequest)", 1),
    ("knn v2 before hello", "Error(BadRequest)", 1),
    ("hello v2", "HelloAck(2)", 0),
    ("get traces at v2", "Error(BadRequest)", 1),
    ("hello v250", "HelloAck(3)", 0),
    ("get traces at v3", "TraceList(0)", 0),
    ("unknown opcode", "Error(UnknownOpcode)", 1),
    ("trailing bytes", "Error(BadFrame)", 1),
    ("knn on foreign session", "Error(UnknownSession)", 1),
    ("knn wrong dim", "Error(DimMismatch)", 1),
    ("knn", "KnnResult(5)", 0),
    ("feedback", "FeedbackAck", 0),
    ("feedback with no pending round", "Error(BadRequest)", 1),
    ("shard knn", "ShardPartial(3)", 0),
    ("shard info", "ShardInfoResult(400,0,4)", 0),
    ("close", "Closed", 0),
    ("oversized length prefix", "Error(BadFrame)", 1),
];

/// The same conversation against the router tier.
const ROUTER: &[(&str, &str, u64)] = &[
    ("open session", "SessionOpened(4)", 0),
    ("hello v0", "Error(BadRequest)", 1),
    ("knn v2 before hello", "Error(BadRequest)", 1),
    ("hello v2", "HelloAck(2)", 0),
    ("get traces at v2", "Error(BadRequest)", 1),
    ("hello v250", "HelloAck(3)", 0),
    ("get traces at v3", "TraceList(0)", 0),
    ("unknown opcode", "Error(UnknownOpcode)", 1),
    ("trailing bytes", "Error(BadFrame)", 1),
    ("knn on foreign session", "Error(UnknownSession)", 1),
    ("knn wrong dim", "Error(DimMismatch)", 1),
    ("knn", "KnnResult(5)", 0),
    ("feedback", "FeedbackAck", 0),
    ("feedback with no pending round", "Error(BadRequest)", 1),
    ("shard knn", "Error(BadRequest)", 1),
    ("shard info", "ShardInfoResult(400,0,4)", 0),
    ("close", "Closed", 0),
    ("oversized length prefix", "Error(BadFrame)", 1),
];

fn collection() -> Collection {
    let mut b = CollectionBuilder::new().with_f32_mirror();
    for i in 0..N {
        let v: Vec<f64> = (0..DIM)
            .map(|d| (((i * 17 + d * 5) as f64) * 0.61).sin().abs())
            .collect();
        b.push_unlabelled(&v).unwrap();
    }
    b.build()
}

fn module() -> SharedBypass {
    SharedBypass::new(FeedbackBypass::for_histograms(DIM, BypassConfig::default()).unwrap())
}

/// The bytes one step writes: a well-framed request, or raw bytes for
/// the steps that break the framing itself.
enum Bytes {
    Frame(Request),
    Raw(Vec<u8>),
}

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(payload);
    out
}

fn read_reply(stream: &mut TcpStream) -> Response {
    let payload = read_frame(stream, DEFAULT_MAX_FRAME_LEN, &mut || true)
        .unwrap()
        .expect("reply frame");
    Response::decode(&payload).unwrap()
}

fn call(stream: &mut TcpStream, req: &Request) -> Response {
    write_frame(stream, &req.encode()).unwrap();
    read_reply(stream)
}

fn kind(resp: &Response) -> String {
    match resp {
        Response::SessionOpened { dim, .. } => format!("SessionOpened({dim})"),
        Response::KnnResult { neighbors, .. } => format!("KnnResult({})", neighbors.len()),
        Response::FeedbackAck { .. } => "FeedbackAck".into(),
        Response::Stats(_) => "Stats".into(),
        Response::Closed => "Closed".into(),
        Response::ShardPartial { entries, .. } => format!("ShardPartial({})", entries.len()),
        Response::ShardInfoResult { rows, offset, dim } => {
            format!("ShardInfoResult({rows},{offset},{dim})")
        }
        Response::ModuleImage { .. } => "ModuleImage".into(),
        Response::ModuleRestored => "ModuleRestored".into(),
        Response::HelloAck { version } => format!("HelloAck({version})"),
        Response::TraceList { traces } => format!("TraceList({})", traces.len()),
        Response::Error { code, .. } => format!("Error({code:?})"),
    }
}

/// Play the script against `addr`, reading `protocol_errors` from
/// `stats` around every step.
fn converse(addr: SocketAddr, stats: &dyn Fn() -> StatsSnapshot) -> Vec<(String, String, u64)> {
    let mut other = TcpStream::connect(addr).unwrap();
    let Response::SessionOpened {
        session: foreign, ..
    } = call(&mut other, &Request::OpenSession)
    else {
        panic!("second connection could not open a session");
    };

    let mut stream = TcpStream::connect(addr).unwrap();
    let mut session = 0u64;
    let mut last_neighbors: Vec<u32> = Vec::new();
    let point = vec![0.5; DIM];
    let mut rows = Vec::new();
    let names: Vec<&str> = FLAT.iter().map(|(name, _, _)| *name).collect();
    for name in names {
        let bytes = match name {
            "open session" => Bytes::Frame(Request::OpenSession),
            "hello v0" => Bytes::Frame(Request::Hello { version: 0 }),
            "knn v2 before hello" => Bytes::Frame(Request::KnnV2 {
                session,
                k: 5,
                alpha: 1.0,
                beta: 0.0,
                gamma: 0.0,
                clamp: false,
                trace: false,
                anchor: point.clone(),
                positives: Vec::new(),
                negatives: Vec::new(),
            }),
            "hello v2" => Bytes::Frame(Request::Hello { version: 2 }),
            "get traces at v2" | "get traces at v3" => Bytes::Frame(Request::GetTraces { max: 8 }),
            "hello v250" => Bytes::Frame(Request::Hello { version: 250 }),
            "unknown opcode" => Bytes::Raw(framed(&[0xEE, 1, 2, 3])),
            "trailing bytes" => {
                let mut payload = Request::OpenSession.encode();
                payload.push(0);
                Bytes::Raw(framed(&payload))
            }
            "knn on foreign session" => Bytes::Frame(Request::Knn {
                session: foreign,
                k: 5,
                query: point.clone(),
            }),
            "knn wrong dim" => Bytes::Frame(Request::Knn {
                session,
                k: 5,
                query: vec![0.5; DIM + 1],
            }),
            "knn" => Bytes::Frame(Request::Knn {
                session,
                k: 5,
                query: point.clone(),
            }),
            "feedback" | "feedback with no pending round" => Bytes::Frame(Request::Feedback {
                session,
                relevant: last_neighbors.iter().take(2).copied().collect(),
            }),
            "shard knn" => Bytes::Frame(Request::ShardKnn {
                k: 3,
                seed: f64::INFINITY,
                point: point.clone(),
                weights: Vec::new(),
            }),
            "shard info" => Bytes::Frame(Request::ShardInfo),
            "close" => Bytes::Frame(Request::Close { session }),
            "oversized length prefix" => Bytes::Raw(u32::MAX.to_le_bytes().to_vec()),
            other => panic!("unscripted step {other}"),
        };
        let before = stats().protocol_errors;
        match bytes {
            Bytes::Frame(req) => write_frame(&mut stream, &req.encode()).unwrap(),
            Bytes::Raw(bytes) => stream.write_all(&bytes).unwrap(),
        }
        let reply = read_reply(&mut stream);
        match &reply {
            Response::SessionOpened { session: s, .. } => session = *s,
            Response::KnnResult { neighbors, .. } => {
                last_neighbors = neighbors.iter().map(|n| n.index).collect();
            }
            _ => {}
        }
        rows.push((
            name.to_string(),
            kind(&reply),
            stats().protocol_errors - before,
        ));
    }
    // The oversized prefix cannot be skipped, so the connection ends.
    assert!(
        !matches!(
            read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN, &mut || true),
            Ok(Some(_))
        ),
        "the connection must close after an oversized frame"
    );
    rows
}

fn expected(table: &[(&str, &str, u64)]) -> Vec<(String, String, u64)> {
    table
        .iter()
        .map(|(name, kind, delta)| (name.to_string(), kind.to_string(), *delta))
        .collect()
}

#[test]
fn flat_server_conversation_matches_its_table() {
    let handle = serve(
        "127.0.0.1:0",
        Arc::new(collection()),
        module(),
        ServerConfig::default(),
    )
    .unwrap();
    let rows = converse(handle.local_addr(), &|| handle.stats());
    assert_eq!(rows, expected(FLAT));
    handle.shutdown();
}

#[test]
fn router_conversation_matches_its_table() {
    let coll = Arc::new(collection());
    let mut shards: Vec<ServerHandle> = Vec::new();
    let mut addrs: Vec<SocketAddr> = Vec::new();
    for (start, end) in [(0, N / 2), (N / 2, N)] {
        let cfg = ServerConfig {
            row_offset: start,
            ..Default::default()
        };
        let handle = serve(
            "127.0.0.1:0",
            Arc::new(coll.slice_rows(start, end)),
            module(),
            cfg,
        )
        .unwrap();
        addrs.push(handle.local_addr());
        shards.push(handle);
    }
    let router = route(
        "127.0.0.1:0",
        &addrs,
        Arc::clone(&coll),
        module(),
        RouterConfig::default(),
    )
    .unwrap();
    let rows = converse(router.local_addr(), &|| router.stats());
    assert_eq!(rows, expected(ROUTER));
    router.shutdown();
    for handle in shards {
        handle.shutdown();
    }
}
