//! Hostile-bytes properties of the frame codec.
//!
//! Three kinds of input reach `decode`: a random opcode followed by a
//! random body, every prefix of a generated valid frame, and a generated
//! valid frame with one 4-byte window overwritten by `u32::MAX` (every
//! window, so every `u32` count slot among them). Decoding must never
//! panic, and whenever it returns `Ok(x)`, `encode(x)` has exactly the
//! payload's length and decodes back to `x` — so a decoded value never
//! holds more than its frame carried. Generated values of both message
//! enums must round-trip.

use fbp_server::protocol::{
    DecodeError, DownstreamHealth, ErrorCode, HealthState, Request, Response, ShardSpan,
    StatsSnapshot, TraceReport, KNN_DEGRADED, KNN_TRACED,
};
use fbp_vecdb::Neighbor;
use proptest::prelude::*;
use proptest::TestRng;

/// A strategy from a plain generator function.
struct Gen<T>(fn(&mut TestRng) -> T);

impl<T> Strategy for Gen<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

fn below(rng: &mut TestRng, n: u64) -> u64 {
    rng.next_u64() % n
}

fn u32_(rng: &mut TestRng) -> u32 {
    rng.next_u64() as u32
}

/// Finite or infinite, with the edges mixed in; never NaN, so generated
/// values compare equal to themselves.
fn float(rng: &mut TestRng) -> f64 {
    match below(rng, 8) {
        0 => 0.0,
        1 => -0.0,
        2 => f64::INFINITY,
        3 => f64::MIN_POSITIVE / 4.0,
        4 => f64::MAX,
        _ => (rng.unit_f64() - 0.5) * 1e3,
    }
}

fn floats(rng: &mut TestRng, n: usize) -> Vec<f64> {
    (0..n).map(|_| float(rng)).collect()
}

fn vec_of<T>(rng: &mut TestRng, max: usize, f: fn(&mut TestRng) -> T) -> Vec<T> {
    let n = rng.usize_in(0, max);
    (0..n).map(|_| f(rng)).collect()
}

fn bytes(rng: &mut TestRng, max: usize) -> Vec<u8> {
    vec_of(rng, max, |r| r.next_u64() as u8)
}

fn text(rng: &mut TestRng) -> String {
    const CHARS: [char; 6] = ['a', 'z', ' ', 'é', '→', '😀'];
    vec_of(rng, 8, |r| CHARS[below(r, 6) as usize])
        .into_iter()
        .collect()
}

fn span(rng: &mut TestRng) -> ShardSpan {
    ShardSpan {
        shard: u32_(rng),
        queue_ns: rng.next_u64(),
        busy_ns: rng.next_u64(),
        batch_fill: u32_(rng),
        flags: rng.next_u64() as u8,
    }
}

fn report(rng: &mut TestRng) -> TraceReport {
    TraceReport {
        trace_id: rng.next_u64(),
        wall_ns: rng.next_u64(),
        gather_ns: rng.next_u64(),
        merge_ns: rng.next_u64(),
        spans: vec_of(rng, 3, span),
    }
}

fn health(rng: &mut TestRng) -> DownstreamHealth {
    const STATES: [HealthState; 4] = [
        HealthState::Healthy,
        HealthState::Suspect,
        HealthState::Ejected,
        HealthState::Probing,
    ];
    DownstreamHealth {
        shard: u32_(rng),
        state: STATES[below(rng, 4) as usize],
        ejections: rng.next_u64(),
        readmissions: rng.next_u64(),
        probe_failures: rng.next_u64(),
        fast_degrades: rng.next_u64(),
    }
}

fn stats(rng: &mut TestRng) -> StatsSnapshot {
    let mut u = || rng.next_u64();
    let mut s = StatsSnapshot {
        requests: u(),
        passes: u(),
        shards: u(),
        sessions_open: u(),
        protocol_errors: u(),
        downstream_timeouts: u(),
        downstream_retries: u(),
        downstream_reconnects: u(),
        hedges_fired: u(),
        hedges_won: u(),
        degraded_replies: u(),
        scan_rows_visited: u(),
        scan_blocks_abandoned: u(),
        scan_candidates_filtered: u(),
        scan_candidates_rescored: u(),
        scan_seed_prunes: u(),
        scan_partitions_pruned: u(),
        ..Default::default()
    };
    s.mean_batch_fill = float(rng);
    s.queue_wait_p50_us = float(rng);
    s.queue_wait_p99_us = float(rng);
    s.health = vec_of(rng, 3, health);
    s
}

fn request(rng: &mut TestRng) -> Request {
    match below(rng, 12) {
        0 => Request::OpenSession,
        1 => Request::Knn {
            session: rng.next_u64(),
            k: u32_(rng),
            query: vec_of(rng, 6, float),
        },
        2 => Request::Feedback {
            session: rng.next_u64(),
            relevant: vec_of(rng, 6, u32_),
        },
        3 => Request::SnapshotStats,
        4 => Request::Close {
            session: rng.next_u64(),
        },
        5 => {
            let point = vec_of(rng, 6, float);
            let weights = match rng.next_u64() & 1 {
                0 => Vec::new(),
                _ => floats(rng, point.len()),
            };
            Request::ShardKnn {
                k: u32_(rng),
                seed: float(rng),
                point,
                weights,
            }
        }
        6 => Request::ShardInfo,
        7 => Request::SnapshotModule,
        8 => Request::RestoreModule {
            image: bytes(rng, 40),
        },
        9 => Request::Hello {
            version: rng.next_u64() as u8,
        },
        10 => {
            // Zero-dimensional example sets stay empty: see
            // `zero_dim_examples_past_the_budget_do_not_round_trip`.
            let dim = rng.usize_in(0, 4);
            let max = if dim == 0 { 0 } else { 3 };
            let set = |rng: &mut TestRng| -> Vec<Vec<f64>> {
                (0..rng.usize_in(0, max))
                    .map(|_| floats(rng, dim))
                    .collect()
            };
            let (positives, negatives) = (set(rng), set(rng));
            Request::KnnV2 {
                session: rng.next_u64(),
                k: u32_(rng),
                alpha: float(rng),
                beta: float(rng),
                gamma: float(rng),
                clamp: rng.next_u64() & 1 == 1,
                trace: rng.next_u64() & 1 == 1,
                anchor: floats(rng, dim),
                positives,
                negatives,
            }
        }
        _ => Request::GetTraces { max: u32_(rng) },
    }
}

fn response(rng: &mut TestRng) -> Response {
    match below(rng, 12) {
        0 => Response::SessionOpened {
            session: rng.next_u64(),
            dim: u32_(rng),
        },
        1 => {
            let flags = rng.next_u64() as u8;
            let missing_shards = match flags & KNN_DEGRADED {
                0 => Vec::new(),
                _ => vec_of(rng, 3, u32_),
            };
            let trace = match flags & KNN_TRACED {
                0 => None,
                _ => Some(Box::new(report(rng))),
            };
            Response::KnnResult {
                flags,
                cycles: u32_(rng),
                missing_shards,
                trace,
                neighbors: vec_of(rng, 6, |r| Neighbor {
                    index: u32_(r),
                    dist: float(r),
                }),
            }
        }
        2 => Response::FeedbackAck {
            done: rng.next_u64() & 1 == 1,
            converged: rng.next_u64() & 1 == 1,
            cycles: u32_(rng),
        },
        3 => Response::Stats(Box::new(stats(rng))),
        4 => Response::Closed,
        5 => Response::ShardPartial {
            finished: rng.next_u64() & 1 == 1,
            entries: vec_of(rng, 6, |r| (float(r), u32_(r))),
        },
        6 => Response::ShardInfoResult {
            rows: rng.next_u64(),
            offset: rng.next_u64(),
            dim: u32_(rng),
        },
        7 => Response::ModuleImage {
            image: bytes(rng, 40),
        },
        8 => Response::ModuleRestored,
        9 => Response::HelloAck {
            version: rng.next_u64() as u8,
        },
        10 => Response::TraceList {
            traces: vec_of(rng, 3, report),
        },
        _ => {
            const CODES: [ErrorCode; 12] = [
                ErrorCode::BadFrame,
                ErrorCode::UnknownOpcode,
                ErrorCode::UnknownSession,
                ErrorCode::DimMismatch,
                ErrorCode::BadRequest,
                ErrorCode::Busy,
                ErrorCode::Internal,
                ErrorCode::ShardUnavailable,
                ErrorCode::BadWeight,
                ErrorCode::NonFiniteComponent,
                ErrorCode::EmptyExampleSet,
                ErrorCode::PrecisionConflict,
            ];
            Response::Error {
                code: CODES[below(rng, 12) as usize],
                message: text(rng),
            }
        }
    }
}

/// A known opcode (or, one time in eight, any byte) and a random body.
fn hostile(rng: &mut TestRng) -> Vec<u8> {
    const OPS: [u8; 25] = [
        0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0A, 0x0B, 0x0C, 0x81, 0x82, 0x83,
        0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A, 0x8B, 0xEE, 0x00,
    ];
    let op = match below(rng, 8) {
        0 => rng.next_u64() as u8,
        _ => OPS[below(rng, OPS.len() as u64) as usize],
    };
    let mut payload = vec![op];
    // Small counts are likelier to fit the body, so bias bytes to zero.
    let body = bytes(rng, 96);
    payload.extend(body.iter().map(|&b| if b < 160 { b % 4 } else { b }));
    payload
}

/// Decoding either direction must not panic, and an `Ok` must re-encode
/// to exactly the payload's length and decode back to the same value.
/// (Values are compared through their encodings too: a decoded NaN is
/// not equal to itself.)
fn check(payload: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(x) = Request::decode(payload) {
        let again = x.encode();
        prop_assert_eq!(again.len(), payload.len(), "{:?}", x);
        let back = Request::decode(&again);
        prop_assert_eq!(back.as_ref().map(Request::encode), Ok(again.clone()));
        if !format!("{x:?}").contains("NaN") {
            prop_assert_eq!(back, Ok(x));
        }
    }
    if let Ok(x) = Response::decode(payload) {
        let again = x.encode();
        prop_assert_eq!(again.len(), payload.len(), "{:?}", x);
        let back = Response::decode(&again);
        prop_assert_eq!(back.as_ref().map(Response::encode), Ok(again.clone()));
        if !format!("{x:?}").contains("NaN") {
            prop_assert_eq!(back, Ok(x));
        }
    }
    Ok(())
}

/// Either direction's valid frames.
fn frame(rng: &mut TestRng) -> Vec<u8> {
    match rng.next_u64() & 1 {
        0 => request(rng).encode(),
        _ => response(rng).encode(),
    }
}

/// A zero-dimensional `KnnV2` still budgets one byte per (empty)
/// example, so one whose example count exceeds the bytes left after
/// that count encodes to a frame its own decoder refuses. Such values
/// sit outside the round-trip domain (the generator keeps
/// zero-dimensional example sets empty); the refusal is pinned here so
/// that any change to it is seen.
#[test]
fn zero_dim_examples_past_the_budget_do_not_round_trip() {
    let knn_v2 = |examples: usize| Request::KnnV2 {
        session: 1,
        k: 5,
        alpha: 1.0,
        beta: 0.5,
        gamma: 0.5,
        clamp: false,
        trace: false,
        anchor: vec![],
        positives: vec![vec![]; examples],
        negatives: vec![vec![]; examples],
    };
    // Four bytes (the negative count) follow the positive count.
    assert!(Request::decode(&knn_v2(0).encode()).is_ok());
    assert_eq!(
        Request::decode(&knn_v2(2).encode()),
        Err(DecodeError::BadLength)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn generated_requests_round_trip(x in Gen(request)) {
        prop_assert_eq!(Request::decode(&x.encode()), Ok(x));
    }

    #[test]
    fn generated_responses_round_trip(x in Gen(response)) {
        prop_assert_eq!(Response::decode(&x.encode()), Ok(x));
    }

    #[test]
    fn random_bodies_never_panic(payload in Gen(hostile)) {
        check(&payload)?;
    }

    #[test]
    fn every_truncation_is_refused(payload in Gen(frame)) {
        // The layouts are self-delimiting, so no strict prefix of a
        // valid frame is itself a valid frame.
        for len in 0..payload.len() {
            let prefix = &payload[..len];
            prop_assert!(Request::decode(prefix).is_err(), "{:02x?}", prefix);
            prop_assert!(Response::decode(prefix).is_err(), "{:02x?}", prefix);
            check(prefix)?;
        }
    }

    #[test]
    fn forged_counts_never_allocate_past_the_frame(payload in Gen(frame)) {
        let mut forged_refusals = 0;
        for at in 1..payload.len().saturating_sub(3) {
            let mut forged = payload.clone();
            forged[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let refused = |e| e == DecodeError::BadLength;
            if Request::decode(&forged).err().is_some_and(refused)
                || Response::decode(&forged).err().is_some_and(refused)
            {
                forged_refusals += 1;
            }
            check(&forged)?;
        }
        // Every count slot is one of the windows; a frame with a count
        // has at least one window refused by the budget check.
        let has_count = payload.len() > 1
            && !matches!(payload[0], 0x05 | 0x0A | 0x0C | 0x81 | 0x83 | 0x87 | 0x8A);
        prop_assert!(!has_count || forged_refusals > 0, "{:02x?}", payload);
    }
}
