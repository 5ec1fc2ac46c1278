//! Golden payload bytes for every frame of the wire protocol.
//!
//! Each case writes the payload (opcode + body, no length prefix) as a
//! hex literal, one whitespace-separated group per wire field, and
//! asserts both directions: `encode` of the value equals the literal,
//! and `decode` of the literal equals the value. Every frame that
//! carries a `u32` count also pins the [`DecodeError`] of one truncation
//! (the literal minus its last byte) and of one count forged to
//! `u32::MAX`, so a codec rewrite cannot move a wire byte or an error
//! category unnoticed.

use fbp_server::protocol::{
    DecodeError, DownstreamHealth, ErrorCode, HealthState, Request, Response, ShardSpan,
    StatsSnapshot, TraceReport, KNN_CONVERGED, KNN_DEGRADED, KNN_DONE, KNN_TRACED, SPAN_FAILED,
    SPAN_FAST_DEGRADED, SPAN_HEDGE_FIRED, SPAN_HEDGE_WON,
};
use fbp_vecdb::Neighbor;

/// Parse a hex literal; whitespace separates fields and is ignored.
fn hex(s: &str) -> Vec<u8> {
    let digits: Vec<u8> = s.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    assert!(digits.len().is_multiple_of(2), "odd hex literal: {s}");
    digits
        .chunks(2)
        .map(|p| u8::from_str_radix(std::str::from_utf8(p).unwrap(), 16).unwrap())
        .collect()
}

fn req(value: Request, golden: &str) {
    let bytes = hex(golden);
    assert_eq!(value.encode(), bytes, "encode {value:?}");
    assert_eq!(Request::decode(&bytes), Ok(value));
}

fn resp(value: Response, golden: &str) {
    let bytes = hex(golden);
    assert_eq!(value.encode(), bytes, "encode {value:?}");
    assert_eq!(Response::decode(&bytes), Ok(value));
}

/// The literal minus its last byte.
fn cut(golden: &str) -> Vec<u8> {
    let mut bytes = hex(golden);
    bytes.pop();
    bytes
}

fn neighbor(index: u32, dist: f64) -> Neighbor {
    Neighbor { index, dist }
}

#[test]
fn sessionless_requests() {
    req(Request::OpenSession, "01");
    req(Request::SnapshotStats, "04");
    req(Request::Close { session: 9 }, "05 0900000000000000");
    req(Request::ShardInfo, "07");
    req(Request::SnapshotModule, "08");
    req(Request::Hello { version: 3 }, "0a 03");
    req(Request::GetTraces { max: 16 }, "0c 10000000");
    assert_eq!(
        Request::decode(&cut("05 0900000000000000")),
        Err(DecodeError::Truncated)
    );
}

#[test]
fn knn_request() {
    let golden = "02 0700000000000000 32000000 02000000 000000000000d03f 000000000000f8bf";
    req(
        Request::Knn {
            session: 7,
            k: 50,
            query: vec![0.25, -1.5],
        },
        golden,
    );
    assert_eq!(Request::decode(&cut(golden)), Err(DecodeError::BadLength));
    let forged = "02 0700000000000000 32000000 ffffffff 000000000000d03f 000000000000f8bf";
    assert_eq!(Request::decode(&hex(forged)), Err(DecodeError::BadLength));
}

#[test]
fn feedback_request() {
    let golden = "03 0700000000000000 03000000 01000000 05000000 09000000";
    req(
        Request::Feedback {
            session: 7,
            relevant: vec![1, 5, 9],
        },
        golden,
    );
    assert_eq!(Request::decode(&cut(golden)), Err(DecodeError::BadLength));
    let forged = "03 0700000000000000 ffffffff 01000000 05000000 09000000";
    assert_eq!(Request::decode(&hex(forged)), Err(DecodeError::BadLength));
}

#[test]
fn shard_knn_request() {
    let weighted = "06 0a000000 000000000000f07f \
                    02000000 000000000000e03f 000000000000d03f \
                    02000000 000000000000f03f 0000000000000040";
    req(
        Request::ShardKnn {
            k: 10,
            seed: f64::INFINITY,
            point: vec![0.5, 0.25],
            weights: vec![1.0, 2.0],
        },
        weighted,
    );
    let uniform = "06 03000000 000000000000c03f \
                   02000000 000000000000e03f 000000000000d03f \
                   00000000";
    req(
        Request::ShardKnn {
            k: 3,
            seed: 0.125,
            point: vec![0.5, 0.25],
            weights: vec![],
        },
        uniform,
    );
    assert_eq!(Request::decode(&cut(weighted)), Err(DecodeError::BadLength));
    assert_eq!(Request::decode(&cut(uniform)), Err(DecodeError::Truncated));
    let forged_point = "06 0a000000 000000000000f07f \
                        ffffffff 000000000000e03f 000000000000d03f \
                        02000000 000000000000f03f 0000000000000040";
    assert_eq!(
        Request::decode(&hex(forged_point)),
        Err(DecodeError::BadLength)
    );
    let forged_weights = "06 0a000000 000000000000f07f \
                          02000000 000000000000e03f 000000000000d03f \
                          ffffffff 000000000000f03f 0000000000000040";
    assert_eq!(
        Request::decode(&hex(forged_weights)),
        Err(DecodeError::BadLength)
    );
}

#[test]
fn restore_module_request() {
    let golden = "09 03000000 abcdef";
    req(
        Request::RestoreModule {
            image: vec![0xAB, 0xCD, 0xEF],
        },
        golden,
    );
    assert_eq!(Request::decode(&cut(golden)), Err(DecodeError::BadLength));
    assert_eq!(
        Request::decode(&hex("09 ffffffff abcdef")),
        Err(DecodeError::BadLength)
    );
}

fn knn_v2(clamp: bool, trace: bool) -> Request {
    Request::KnnV2 {
        session: 11,
        k: 25,
        alpha: 1.0,
        beta: 0.75,
        gamma: 0.25,
        clamp,
        trace,
        anchor: vec![0.5, 2.0],
        positives: vec![vec![1.0, 0.5]],
        negatives: vec![vec![0.25, 2.0]],
    }
}

/// `KnnV2` payload with the given flags byte (two hex digits).
fn knn_v2_golden(flags: &str) -> String {
    format!(
        "0b 0b00000000000000 19000000 \
         000000000000f03f 000000000000e83f 000000000000d03f {flags} \
         02000000 000000000000e03f 0000000000000040 \
         01000000 000000000000f03f 000000000000e03f \
         01000000 000000000000d03f 0000000000000040"
    )
}

#[test]
fn knn_v2_request_in_every_clamp_trace_combination() {
    req(knn_v2(false, false), &knn_v2_golden("00"));
    req(knn_v2(true, false), &knn_v2_golden("01"));
    req(knn_v2(false, true), &knn_v2_golden("02"));
    req(knn_v2(true, true), &knn_v2_golden("03"));
    assert_eq!(
        Request::decode(&cut(&knn_v2_golden("01"))),
        Err(DecodeError::BadLength)
    );
    let forged_positives = "0b 0b00000000000000 19000000 \
                            000000000000f03f 000000000000e83f 000000000000d03f 01 \
                            02000000 000000000000e03f 0000000000000040 \
                            ffffffff 000000000000f03f 000000000000e03f \
                            01000000 000000000000d03f 0000000000000040";
    assert_eq!(
        Request::decode(&hex(forged_positives)),
        Err(DecodeError::BadLength)
    );
    // A zero-dimensional frame still budgets one byte per example, so a
    // forged count cannot claim u32::MAX empty examples.
    let zero_dim_forged = "0b 0b00000000000000 19000000 \
                           000000000000f03f 000000000000e83f 000000000000d03f 00 \
                           00000000 ffffffff 00000000";
    assert_eq!(
        Request::decode(&hex(zero_dim_forged)),
        Err(DecodeError::BadLength)
    );
}

#[test]
fn malformed_request_framing() {
    assert_eq!(Request::decode(&[]), Err(DecodeError::Empty));
    assert_eq!(
        Request::decode(&hex("0d")),
        Err(DecodeError::UnknownOpcode(0x0D))
    );
    assert_eq!(
        Request::decode(&hex("01 00")),
        Err(DecodeError::TrailingBytes)
    );
}

#[test]
fn small_responses() {
    resp(
        Response::SessionOpened {
            session: 3,
            dim: 64,
        },
        "81 0300000000000000 40000000",
    );
    resp(
        Response::FeedbackAck {
            done: true,
            converged: false,
            cycles: 20,
        },
        "83 01 00 14000000",
    );
    resp(Response::Closed, "85");
    resp(
        Response::ShardInfoResult {
            rows: 300,
            offset: 600,
            dim: 24,
        },
        "87 2c01000000000000 5802000000000000 18000000",
    );
    resp(Response::ModuleRestored, "89");
    resp(Response::HelloAck { version: 3 }, "8a 03");
}

#[test]
fn knn_result_plain() {
    let golden = "82 03 04000000 \
                  02000000 02000000 000000000000c03f 09000000 0000000000000440";
    resp(
        Response::KnnResult {
            flags: KNN_DONE | KNN_CONVERGED,
            cycles: 4,
            missing_shards: vec![],
            trace: None,
            neighbors: vec![neighbor(2, 0.125), neighbor(9, 2.5)],
        },
        golden,
    );
    assert_eq!(Response::decode(&cut(golden)), Err(DecodeError::BadLength));
    let forged = "82 03 04000000 \
                  ffffffff 02000000 000000000000c03f 09000000 0000000000000440";
    assert_eq!(Response::decode(&hex(forged)), Err(DecodeError::BadLength));
}

#[test]
fn knn_result_degraded() {
    let golden = "82 04 01000000 \
                  02000000 01000000 02000000 \
                  01000000 04000000 000000000000e03f";
    resp(
        Response::KnnResult {
            flags: KNN_DEGRADED,
            cycles: 1,
            missing_shards: vec![1, 2],
            trace: None,
            neighbors: vec![neighbor(4, 0.5)],
        },
        golden,
    );
    assert_eq!(Response::decode(&cut(golden)), Err(DecodeError::BadLength));
    let forged = "82 04 01000000 \
                  ffffffff 01000000 02000000 \
                  01000000 04000000 000000000000e03f";
    assert_eq!(Response::decode(&hex(forged)), Err(DecodeError::BadLength));
}

fn report() -> TraceReport {
    TraceReport {
        trace_id: 42,
        wall_ns: 1500,
        gather_ns: 1200,
        merge_ns: 300,
        spans: vec![
            ShardSpan {
                shard: 0,
                queue_ns: 200,
                busy_ns: 900,
                batch_fill: 3,
                flags: 0,
            },
            ShardSpan {
                shard: 1,
                queue_ns: 150,
                busy_ns: 1000,
                batch_fill: 0,
                flags: SPAN_HEDGE_FIRED | SPAN_HEDGE_WON,
            },
        ],
    }
}

/// [`report`] without a version byte: four u64s, the span count, spans.
const REPORT: &str = "2a00000000000000 dc05000000000000 b004000000000000 2c01000000000000 \
                      02000000 \
                      00000000 c800000000000000 8403000000000000 03000000 00 \
                      01000000 9600000000000000 e803000000000000 00000000 03";

#[test]
fn knn_result_traced() {
    let golden = format!("82 08 02000000 01 {REPORT} 01000000 07000000 000000000000d03f");
    resp(
        Response::KnnResult {
            flags: KNN_TRACED,
            cycles: 2,
            missing_shards: vec![],
            trace: Some(Box::new(report())),
            neighbors: vec![neighbor(7, 0.25)],
        },
        &golden,
    );
    assert_eq!(Response::decode(&cut(&golden)), Err(DecodeError::BadLength));
    let forged_spans = "82 08 02000000 01 \
                        2a00000000000000 dc05000000000000 b004000000000000 2c01000000000000 \
                        ffffffff \
                        00000000 c800000000000000 8403000000000000 03000000 00 \
                        01000000 9600000000000000 e803000000000000 00000000 03 \
                        01000000 07000000 000000000000d03f";
    assert_eq!(
        Response::decode(&hex(forged_spans)),
        Err(DecodeError::BadLength)
    );
}

#[test]
fn knn_result_degraded_and_traced() {
    let golden = "82 0c 00000000 \
                  01000000 02000000 \
                  01 0100000000000000 0a00000000000000 0800000000000000 0200000000000000 \
                  01000000 02000000 0000000000000000 0000000000000000 00000000 0c \
                  00000000";
    resp(
        Response::KnnResult {
            flags: KNN_DEGRADED | KNN_TRACED,
            cycles: 0,
            missing_shards: vec![2],
            trace: Some(Box::new(TraceReport {
                trace_id: 1,
                wall_ns: 10,
                gather_ns: 8,
                merge_ns: 2,
                spans: vec![ShardSpan {
                    shard: 2,
                    flags: SPAN_FAST_DEGRADED | SPAN_FAILED,
                    ..Default::default()
                }],
            })),
            neighbors: vec![],
        },
        golden,
    );
    assert_eq!(Response::decode(&cut(golden)), Err(DecodeError::Truncated));
    let forged_missing = "82 0c 00000000 \
                          ffffffff 02000000 \
                          01 0100000000000000 0a00000000000000 0800000000000000 0200000000000000 \
                          01000000 02000000 0000000000000000 0000000000000000 00000000 0c \
                          00000000";
    assert_eq!(
        Response::decode(&hex(forged_missing)),
        Err(DecodeError::BadLength)
    );
}

/// The twenty fixed `Stats` fields of [`stats`], in wire order.
const STATS_FIXED: &str = "6400000000000000 0c00000000000000 0400000000000000 \
                           0000000000002140 0000000000207c40 000000000069a040 \
                           2000000000000000 0100000000000000 \
                           0300000000000000 0500000000000000 0200000000000000 \
                           0700000000000000 0400000000000000 0600000000000000 \
                           c0d4010000000000 3601000000000000 0010000000000000 \
                           0002000000000000 0900000000000000 1100000000000000";

fn stats(health: Vec<DownstreamHealth>) -> Response {
    Response::Stats(Box::new(StatsSnapshot {
        requests: 100,
        passes: 12,
        shards: 4,
        mean_batch_fill: 8.5,
        queue_wait_p50_us: 450.0,
        queue_wait_p99_us: 2100.5,
        sessions_open: 32,
        protocol_errors: 1,
        downstream_timeouts: 3,
        downstream_retries: 5,
        downstream_reconnects: 2,
        hedges_fired: 7,
        hedges_won: 4,
        degraded_replies: 6,
        scan_rows_visited: 120_000,
        scan_blocks_abandoned: 310,
        scan_candidates_filtered: 4096,
        scan_candidates_rescored: 512,
        scan_seed_prunes: 9,
        scan_partitions_pruned: 17,
        health,
    }))
}

#[test]
fn stats_without_health_rows() {
    let golden = format!("84 {STATS_FIXED} 00000000");
    resp(stats(vec![]), &golden);
    assert_eq!(Response::decode(&cut(&golden)), Err(DecodeError::Truncated));
    let forged = format!("84 {STATS_FIXED} ffffffff");
    assert_eq!(Response::decode(&hex(&forged)), Err(DecodeError::BadLength));
}

#[test]
fn stats_with_two_health_rows() {
    const ROWS: &str = "01000000 01 0100000000000000 0100000000000000 0200000000000000 1100000000000000 \
                        03000000 03 0000000000000000 0000000000000000 0900000000000000 0000000000000000";
    let golden = format!("84 {STATS_FIXED} 02000000 {ROWS}");
    resp(
        stats(vec![
            DownstreamHealth {
                shard: 1,
                state: HealthState::Suspect,
                ejections: 1,
                readmissions: 1,
                probe_failures: 2,
                fast_degrades: 17,
            },
            DownstreamHealth {
                shard: 3,
                state: HealthState::Probing,
                probe_failures: 9,
                ..Default::default()
            },
        ]),
        &golden,
    );
    assert_eq!(Response::decode(&cut(&golden)), Err(DecodeError::BadLength));
    let forged = format!("84 {STATS_FIXED} ffffffff {ROWS}");
    assert_eq!(Response::decode(&hex(&forged)), Err(DecodeError::BadLength));
}

#[test]
fn shard_partial_response() {
    let golden = "86 00 02000000 000000000000d03f 03000000 000000000000e03f 01000000";
    resp(
        Response::ShardPartial {
            finished: false,
            entries: vec![(0.25, 3), (0.5, 1)],
        },
        golden,
    );
    assert_eq!(Response::decode(&cut(golden)), Err(DecodeError::BadLength));
    let forged = "86 00 ffffffff 000000000000d03f 03000000 000000000000e03f 01000000";
    assert_eq!(Response::decode(&hex(forged)), Err(DecodeError::BadLength));
}

#[test]
fn module_image_response() {
    let golden = "88 04000000 01020304";
    resp(
        Response::ModuleImage {
            image: vec![1, 2, 3, 4],
        },
        golden,
    );
    assert_eq!(Response::decode(&cut(golden)), Err(DecodeError::BadLength));
    assert_eq!(
        Response::decode(&hex("88 ffffffff 01020304")),
        Err(DecodeError::BadLength)
    );
}

#[test]
fn trace_list_response() {
    resp(Response::TraceList { traces: vec![] }, "8b 00000000");
    let empty_report =
        "0000000000000000 0000000000000000 0000000000000000 0000000000000000 00000000";
    let golden = format!("8b 02000000 {REPORT} {empty_report}");
    resp(
        Response::TraceList {
            traces: vec![report(), TraceReport::default()],
        },
        &golden,
    );
    assert_eq!(Response::decode(&cut(&golden)), Err(DecodeError::Truncated));
    let forged = format!("8b ffffffff {REPORT} {empty_report}");
    assert_eq!(Response::decode(&hex(&forged)), Err(DecodeError::BadLength));
}

#[test]
fn error_response() {
    let golden = "ee 04 05000000 64696d2033";
    resp(
        Response::Error {
            code: ErrorCode::DimMismatch,
            message: "dim 3".into(),
        },
        golden,
    );
    resp(
        Response::Error {
            code: ErrorCode::BadWeight,
            message: String::new(),
        },
        "ee 09 00000000",
    );
    assert_eq!(Response::decode(&cut(golden)), Err(DecodeError::BadLength));
    assert_eq!(
        Response::decode(&hex("ee 04 ffffffff 64696d2033")),
        Err(DecodeError::BadLength)
    );
    assert_eq!(
        Response::decode(&hex("ee 04 01000000 ff")),
        Err(DecodeError::BadUtf8)
    );
}

#[test]
fn malformed_response_framing() {
    assert_eq!(Response::decode(&[]), Err(DecodeError::Empty));
    assert_eq!(
        Response::decode(&hex("8c")),
        Err(DecodeError::UnknownOpcode(0x8C))
    );
    assert_eq!(
        Response::decode(&hex("85 00")),
        Err(DecodeError::TrailingBytes)
    );
}
