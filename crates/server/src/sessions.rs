//! Server-side session registry shared by the shard server and the
//! router tier.
//!
//! Both front-ends run the same interactive loop per session — resolve
//! learned parameters at `Knn` admission, transition on ranking
//! stability / the cycle cap, advance one [`FeedbackStepper`] step per
//! judgment, commit converged parameters into the shared module — so
//! the state machine lives here once. Sessions are connection-scoped:
//! ids are sequential (they must not be capabilities), so every access
//! is checked against the opening connection, and a connection's
//! sessions die with it.

use crate::metrics::Metrics;
use crate::protocol::{ErrorCode, Response, KNN_CONVERGED, KNN_DONE};
use fbp_feedback::{FeedbackConfig, FeedbackStepper, SetOracle, StepOutcome};
use fbp_vecdb::{Collection, Neighbor, ResultList};
use feedbackbypass::{FeedbackBypass, SharedBypass};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Error-response helper shared by the front-ends.
pub(crate) fn err(code: ErrorCode, message: impl Into<String>) -> Response {
    Response::Error {
        code,
        message: message.into(),
    }
}

/// The example sets a [`crate::protocol::Request::KnnV2`] spec anchored
/// a query with — both empty for a plain v1 `Knn`. They are part of the
/// query's **identity**: a repeated request continues the session only
/// when it resends the same spec, not merely one that happens to derive
/// the same anchor, so swapping the example sets re-anchors cleanly.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct ExampleSets {
    /// Positive (relevant) example vectors — the Rocchio β term.
    pub(crate) positives: Vec<Vec<f64>>,
    /// Negative (non-relevant) example vectors — the Rocchio γ term.
    pub(crate) negatives: Vec<Vec<f64>>,
}

/// One session's in-flight interactive query.
struct ActiveQuery {
    /// The anchor query point (the module insert key). For a
    /// multi-example spec this is the **derived** Rocchio anchor — the
    /// lowering happened before admission, so everything downstream
    /// (stepper, module commit) sees a plain point query.
    anchor: Vec<f64>,
    /// The example sets the anchoring request carried.
    examples: ExampleSets,
    /// Current search point.
    point: Vec<f64>,
    /// Current search weights.
    weights: Vec<f64>,
    /// Results of the previous round (set when feedback continued).
    prev: Option<ResultList>,
    /// Results of the last round, awaiting the client's judgment.
    pending: Option<ResultList>,
    /// Feedback cycles run.
    cycles: usize,
}

/// Registry entry.
struct Session {
    /// The connection that opened the session. Ownership mismatches
    /// report `UnknownSession` exactly like a missing id, so foreign
    /// connections cannot even probe which ids exist.
    owner: u64,
    active: Option<ActiveQuery>,
}

/// The session registry plus everything its transitions touch: the
/// served collection (the [`FeedbackStepper`] fetches judged rows'
/// vectors), the shared learned module, the feedback configuration,
/// and the metrics sink for protocol-error accounting.
pub(crate) struct SessionStore {
    coll: Arc<Collection>,
    bypass: SharedBypass,
    feedback: FeedbackConfig,
    metrics: Arc<Metrics>,
    sessions: Mutex<HashMap<u64, Session>>,
    next_session: AtomicU64,
}

impl SessionStore {
    pub(crate) fn new(
        coll: Arc<Collection>,
        bypass: SharedBypass,
        feedback: FeedbackConfig,
        metrics: Arc<Metrics>,
    ) -> Self {
        SessionStore {
            coll,
            bypass,
            feedback,
            metrics,
            sessions: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(1),
        }
    }

    /// The served collection.
    pub(crate) fn coll(&self) -> &Arc<Collection> {
        &self.coll
    }

    /// The shared learned module.
    pub(crate) fn bypass(&self) -> &SharedBypass {
        &self.bypass
    }

    /// Sessions currently registered.
    pub(crate) fn count(&self) -> u64 {
        self.sessions.lock().expect("sessions lock").len() as u64
    }

    /// Register a fresh session owned by `conn_id`.
    pub(crate) fn open(&self, conn_id: u64) -> u64 {
        let id = self.next_session.fetch_add(1, Ordering::Relaxed);
        self.sessions.lock().expect("sessions lock").insert(
            id,
            Session {
                owner: conn_id,
                active: None,
            },
        );
        id
    }

    /// Drop `session` if `conn_id` owns it; `false` reports like a
    /// missing id.
    pub(crate) fn close(&self, session: u64, conn_id: u64) -> bool {
        let mut sessions = self.sessions.lock().expect("sessions lock");
        if owned_session(&mut sessions, session, conn_id).is_some() {
            sessions.remove(&session).is_some()
        } else {
            false
        }
    }

    /// Reap every session a disconnecting connection still owns.
    pub(crate) fn drop_owned(&self, owned: &[u64]) {
        if owned.is_empty() {
            return;
        }
        let mut sessions = self.sessions.lock().expect("sessions lock");
        for id in owned {
            sessions.remove(id);
        }
    }

    /// Resolve a `Knn` request's search parameters: a repeat of the
    /// session's current anchor **and example sets** searches under its
    /// learned parameters; a fresh spec starts from the shared module's
    /// prediction (out-of-domain queries search as-is under the uniform
    /// metric — the same fallback the in-process loop driver applies).
    /// `query` is already lowered — for `KnnV2` it is the derived
    /// Rocchio anchor, so this path is identical for both opcodes.
    /// A predicted point with a non-finite component falls back to the
    /// query and uniform weights, like a failed prediction; degenerate
    /// predicted weights fall back to uniform. `Err` carries the
    /// ready-to-send error response.
    pub(crate) fn resolve_knn(
        &self,
        conn_id: u64,
        session: u64,
        query: Vec<f64>,
        examples: ExampleSets,
    ) -> Result<(Vec<f64>, Vec<f64>), Response> {
        let dim = self.coll.dim();
        // Resolve parameters, keeping predict() off the registry lock
        // (the simplex-tree lookup is the expensive part; a connection
        // is serial, so nothing else can touch this session between the
        // two critical sections).
        let resolved: Option<(Vec<f64>, Vec<f64>)> = {
            let mut sessions = self.sessions.lock().expect("sessions lock");
            let Some(sess) = owned_session(&mut sessions, session, conn_id) else {
                drop(sessions);
                self.metrics.record_protocol_error();
                return Err(err(ErrorCode::UnknownSession, format!("session {session}")));
            };
            match &sess.active {
                Some(aq) if aq.anchor == query && aq.examples == examples => {
                    Some((aq.point.clone(), aq.weights.clone()))
                }
                _ => None,
            }
        };
        let (point, weights) = match resolved {
            Some(params) => params,
            None => {
                // A prediction with a non-finite point (a restored image
                // may store any offset) searches like a failed one.
                let (point, weights) = match self.bypass.predict(&query) {
                    Ok(p) if p.point.iter().all(|v| v.is_finite()) => (p.point, p.weights),
                    _ => (query.clone(), vec![1.0; dim]),
                };
                let mut sessions = self.sessions.lock().expect("sessions lock");
                let Some(sess) = owned_session(&mut sessions, session, conn_id) else {
                    drop(sessions);
                    self.metrics.record_protocol_error();
                    return Err(err(ErrorCode::UnknownSession, format!("session {session}")));
                };
                sess.active = Some(ActiveQuery {
                    anchor: query,
                    examples,
                    point: point.clone(),
                    weights: weights.clone(),
                    prev: None,
                    pending: None,
                    cycles: 0,
                });
                (point, weights)
            }
        };
        // Degenerate predicted weights fall back to the uniform metric —
        // one bad prediction must not fail the whole pass.
        let weights = if weights.iter().all(|w| w.is_finite() && *w > 0.0) {
            weights
        } else {
            vec![1.0; dim]
        };
        Ok((point, weights))
    }

    /// Post-pass session bookkeeping: ranking stability and the cycle
    /// cap end the query (committing its parameters); otherwise the
    /// results await the client's judgment. Returns the reply's
    /// `(flags, cycles)`.
    pub(crate) fn finish_knn(&self, session: u64, neighbors: &[Neighbor]) -> (u8, u32) {
        let results = ResultList::new(neighbors.to_vec());
        let mut flags = 0u8;
        let mut cycles = 0u32;
        let mut commit: Option<ActiveQuery> = None;
        {
            let mut sessions = self.sessions.lock().expect("sessions lock");
            // The session may have been closed while the request was in
            // flight; results still go back, with no state to update.
            if let Some(sess) = sessions.get_mut(&session) {
                if let Some(aq) = sess.active.as_mut() {
                    let mut finished: Option<bool> = None;
                    if let Some(prev) = &aq.prev {
                        aq.cycles += 1;
                        if results.same_ranking(prev) {
                            finished = Some(true);
                        }
                    }
                    if finished.is_none() && aq.cycles >= self.feedback.max_cycles {
                        finished = Some(false);
                    }
                    cycles = aq.cycles as u32;
                    match finished {
                        Some(converged) => {
                            commit = sess.active.take();
                            flags = KNN_DONE | if converged { KNN_CONVERGED } else { 0 };
                        }
                        None => aq.pending = Some(results),
                    }
                }
            }
        }
        // The module insert takes its own write lock; keep it off the
        // registry lock so other sessions' handlers never queue behind
        // it.
        if let Some(aq) = commit {
            self.commit_parameters(&aq);
        }
        (flags, cycles)
    }

    /// Advance the session one feedback transition on its last
    /// un-judged results (the [`FeedbackStepper`] the in-process serving
    /// loop runs), committing the learned parameters on convergence.
    /// The stepper and the module insert both run **off** the registry
    /// lock — a connection is serial, so nothing else mutates this
    /// session in between; only session removal can race, and that just
    /// discards the step's outcome.
    pub(crate) fn feedback(&self, conn_id: u64, session: u64, relevant: Vec<u32>) -> Response {
        let (point, weights, results, cycles) = {
            let mut sessions = self.sessions.lock().expect("sessions lock");
            let Some(sess) = owned_session(&mut sessions, session, conn_id) else {
                drop(sessions);
                self.metrics.record_protocol_error();
                return err(ErrorCode::UnknownSession, format!("session {session}"));
            };
            let Some(aq) = sess.active.as_mut() else {
                drop(sessions);
                self.metrics.record_protocol_error();
                return err(ErrorCode::BadRequest, "no active query to judge");
            };
            let Some(results) = aq.pending.take() else {
                drop(sessions);
                self.metrics.record_protocol_error();
                return err(
                    ErrorCode::BadRequest,
                    "no un-judged results (issue a Knn first)",
                );
            };
            (
                aq.point.clone(),
                aq.weights.clone(),
                results,
                aq.cycles as u32,
            )
        };
        let stepper = FeedbackStepper::new(&self.coll, self.feedback.clone());
        let oracle = SetOracle::new(relevant);
        let outcome = stepper.step(&point, &weights, &results, &oracle);

        let mut sessions = self.sessions.lock().expect("sessions lock");
        let aq = owned_session(&mut sessions, session, conn_id).and_then(|s| s.active.as_mut());
        match outcome {
            Ok(StepOutcome::Continue {
                point: new_point,
                weights: new_weights,
            }) => {
                if let Some(aq) = aq {
                    aq.point = new_point;
                    aq.weights = new_weights;
                    aq.prev = Some(results);
                }
                Response::FeedbackAck {
                    done: false,
                    converged: false,
                    cycles,
                }
            }
            Ok(StepOutcome::Converged) => {
                let commit =
                    owned_session(&mut sessions, session, conn_id).and_then(|s| s.active.take());
                drop(sessions);
                if let Some(aq) = commit {
                    self.commit_parameters(&aq);
                }
                Response::FeedbackAck {
                    done: true,
                    converged: true,
                    cycles,
                }
            }
            Err(e) => {
                // Put the results back so a corrected judgment can
                // retry.
                if let Some(aq) = aq {
                    aq.pending = Some(results);
                }
                drop(sessions);
                self.metrics.record_protocol_error();
                err(ErrorCode::BadRequest, format!("feedback step: {e}"))
            }
        }
    }

    /// Store a finished query's learned parameters in the shared module
    /// — only when feedback actually ran (a bypassed query teaches
    /// nothing new), and best-effort: an out-of-domain anchor cannot be
    /// learned, but serving it was still correct.
    fn commit_parameters(&self, aq: &ActiveQuery) {
        if aq.cycles > 0 {
            let _ = self.bypass.insert(&aq.anchor, &aq.point, &aq.weights);
        }
    }

    /// `RestoreModule`: decode a serialized module image and install it
    /// as this front-end's learned module. A flat server and a router
    /// answer it the same way — each owns exactly one module, and
    /// nothing is forwarded.
    pub(crate) fn restore_module(&self, image: &[u8]) -> Response {
        let module = match FeedbackBypass::from_bytes(image) {
            Ok(m) => m,
            Err(e) => {
                self.metrics.record_protocol_error();
                return err(ErrorCode::BadRequest, format!("module image: {e}"));
            }
        };
        let dim = self.coll.dim();
        if module.feature_dim() != dim {
            self.metrics.record_protocol_error();
            return err(
                ErrorCode::DimMismatch,
                format!(
                    "module is {}-dimensional, serving {dim}",
                    module.feature_dim()
                ),
            );
        }
        self.bypass.replace(module);
        Response::ModuleRestored
    }
}

/// Look up a session for `conn_id`. Ownership mismatches report like a
/// missing id.
fn owned_session(
    sessions: &mut HashMap<u64, Session>,
    session: u64,
    conn_id: u64,
) -> Option<&mut Session> {
    sessions.get_mut(&session).filter(|s| s.owner == conn_id)
}
