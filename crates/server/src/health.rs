//! Per-downstream health tracking for the router tier: a circuit
//! breaker that learns which shard servers are alive instead of
//! rediscovering it on every scatter.
//!
//! The state machine (normative; `ARCHITECTURE.md`, "router tier"):
//!
//! ```text
//!            call failure                trip (consecutive or rate)
//!  Healthy ──────────────▶ Suspect ───────────────────────▶ Ejected
//!     ▲  ◀──────────────     │                                 │
//!     │    call success      └───(more failures)───────────────┘
//!     │                                                        │ probe due
//!     │   M consecutive probe successes                        ▼
//!     └───(each re-validating the tiling)────────────────── Probing
//!                                  (probe failure → Ejected, backed off)
//! ```
//!
//! `Healthy` and `Suspect` admit scatter traffic; `Ejected` and
//! `Probing` do not — an ejected shard's slot fails **instantly** at
//! scatter time (`Degraded` merges the survivors with the shard in
//! `missing_shards`, `Strict` refuses fast), so a dead downstream costs
//! the fleet ~zero wait instead of a `shard_timeout` per request. Two
//! trips eject: a run of [`HealthConfig::consecutive_failures`], or a
//! full outcome window whose failure rate reaches
//! [`HealthConfig::failure_rate`]. Re-admission is earned, not timed:
//! a background prober re-checks the shard at exponentially backed-off
//! intervals and only [`HealthConfig::readmit_successes`] consecutive
//! probe successes — each one a tiling re-validation the router
//! performs while the shard is `Probing` — return it to traffic.
//!
//! Call outcomes that arrive while the shard is already out of the
//! scatter set (stragglers from pre-ejection calls) are ignored: only
//! probes may move an ejected shard.

use crate::protocol::HealthState;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Circuit-breaker tuning for one router deployment (shared by every
/// downstream tracker).
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// Consecutive call failures that trip ejection.
    pub consecutive_failures: u32,
    /// Recent-outcome window size for the rate trip (outcomes, not
    /// time).
    pub window: usize,
    /// Failure rate over a **full** window that trips ejection even
    /// without a consecutive run (interleaved successes can otherwise
    /// keep a mostly-dead shard in the scatter forever).
    pub failure_rate: f64,
    /// Delay from ejection (or a successful probe that has not yet
    /// reached the re-admission quorum) to the next probe.
    pub probe_interval: Duration,
    /// Probe-interval clamp as failed probes back off exponentially
    /// (`probe_interval · 2^fails`, capped here).
    pub probe_backoff_max: Duration,
    /// Consecutive probe successes required before re-admission (M).
    /// A single lucky probe must not put a flapping shard back into
    /// every scatter.
    pub readmit_successes: u32,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            consecutive_failures: 5,
            window: 32,
            failure_rate: 0.5,
            probe_interval: Duration::from_millis(100),
            probe_backoff_max: Duration::from_secs(2),
            readmit_successes: 3,
        }
    }
}

/// Mutable half of the tracker, under one small mutex (touched once
/// per call outcome and per probe — never on the scan path itself).
struct HealthInner {
    state: HealthState,
    /// Consecutive call failures while admitting traffic.
    consecutive: u32,
    /// Recent call outcomes, `true` = failure (rate trip input).
    outcomes: VecDeque<bool>,
    /// Consecutive failed probes since ejection (backoff exponent).
    probe_fails: u32,
    /// Consecutive successful probes toward the re-admission quorum.
    probe_successes: u32,
    /// Earliest instant the next probe may run (while `Ejected`).
    next_probe_at: Instant,
}

/// One downstream's circuit breaker: the state machine under a mutex,
/// plus lock-free lifetime counters for the stats snapshot.
pub(crate) struct HealthTracker {
    cfg: HealthConfig,
    inner: Mutex<HealthInner>,
    /// Trips into `Ejected`.
    pub(crate) ejections: AtomicU64,
    /// Probed returns to `Healthy`.
    pub(crate) readmissions: AtomicU64,
    /// Failed re-admission probes (refused or mis-tiled).
    pub(crate) probe_failures: AtomicU64,
    /// Scatters that skipped this downstream while ejected.
    pub(crate) fast_degrades: AtomicU64,
}

impl HealthTracker {
    pub(crate) fn new(cfg: HealthConfig) -> Self {
        HealthTracker {
            cfg,
            inner: Mutex::new(HealthInner {
                state: HealthState::Healthy,
                consecutive: 0,
                outcomes: VecDeque::new(),
                probe_fails: 0,
                probe_successes: 0,
                next_probe_at: Instant::now(),
            }),
            ejections: AtomicU64::new(0),
            readmissions: AtomicU64::new(0),
            probe_failures: AtomicU64::new(0),
            fast_degrades: AtomicU64::new(0),
        }
    }

    /// Current state (for stats; decisions use the specific methods).
    pub(crate) fn state(&self) -> HealthState {
        self.inner.lock().expect("health lock").state
    }

    /// Whether scatter jobs may be enqueued to this downstream —
    /// exactly the `Healthy`/`Suspect` half of the state machine.
    pub(crate) fn admits_scatter(&self) -> bool {
        matches!(self.state(), HealthState::Healthy | HealthState::Suspect)
    }

    /// Record one successful call. Ignored unless the shard is
    /// admitting traffic (a straggler from before an ejection must not
    /// shortcut the probe path).
    pub(crate) fn record_success(&self) {
        let mut inner = self.inner.lock().expect("health lock");
        if !admitting(inner.state) {
            return;
        }
        inner.consecutive = 0;
        inner.state = HealthState::Healthy;
        let window = self.cfg.window;
        push_outcome(&mut inner.outcomes, false, window);
    }

    /// Record one failed call (timeout, refused connection, malformed
    /// partial). Trips ejection on the consecutive-run or windowed-rate
    /// threshold; otherwise marks the shard `Suspect`. Ignored unless
    /// admitting traffic.
    pub(crate) fn record_failure(&self, now: Instant) {
        let mut inner = self.inner.lock().expect("health lock");
        if !admitting(inner.state) {
            return;
        }
        inner.consecutive += 1;
        let window = self.cfg.window;
        push_outcome(&mut inner.outcomes, true, window);
        let run_trip = inner.consecutive >= self.cfg.consecutive_failures;
        let rate_trip = window > 0 && inner.outcomes.len() >= window && {
            let fails = inner.outcomes.iter().filter(|&&f| f).count();
            fails as f64 / inner.outcomes.len() as f64 >= self.cfg.failure_rate
        };
        if run_trip || rate_trip {
            inner.state = HealthState::Ejected;
            inner.consecutive = 0;
            inner.outcomes.clear();
            inner.probe_fails = 0;
            inner.probe_successes = 0;
            inner.next_probe_at = now + self.cfg.probe_interval;
            self.ejections.fetch_add(1, Ordering::Relaxed);
        } else {
            inner.state = HealthState::Suspect;
        }
    }

    /// Count one scatter that skipped this downstream while ejected.
    pub(crate) fn note_fast_degrade(&self) {
        self.fast_degrades.fetch_add(1, Ordering::Relaxed);
    }

    /// Claim the due probe slot: transitions `Ejected → Probing` and
    /// returns `true` iff the shard is ejected and its backed-off probe
    /// time has arrived — at most one prober wins.
    pub(crate) fn take_due_probe(&self, now: Instant) -> bool {
        let mut inner = self.inner.lock().expect("health lock");
        if inner.state == HealthState::Ejected && now >= inner.next_probe_at {
            inner.state = HealthState::Probing;
            true
        } else {
            false
        }
    }

    /// Record a successful probe. The success that completes the
    /// re-admission quorum (`readmit_successes` consecutive) returns the
    /// shard to `Healthy` with a clean slate and reports `true`; below
    /// the quorum the shard returns to `Ejected` with the backoff reset
    /// to the base interval.
    pub(crate) fn probe_succeeded(&self, now: Instant) -> bool {
        let mut inner = self.inner.lock().expect("health lock");
        if inner.state != HealthState::Probing {
            return false;
        }
        inner.probe_fails = 0;
        inner.probe_successes += 1;
        if inner.probe_successes >= self.cfg.readmit_successes {
            inner.state = HealthState::Healthy;
            inner.consecutive = 0;
            inner.outcomes.clear();
            inner.probe_successes = 0;
            self.readmissions.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            inner.state = HealthState::Ejected;
            inner.next_probe_at = now + self.cfg.probe_interval;
            false
        }
    }

    /// Record a failed probe: back to `Ejected`, success run reset, next
    /// probe exponentially backed off.
    pub(crate) fn probe_failed(&self, now: Instant) {
        let mut inner = self.inner.lock().expect("health lock");
        if !matches!(inner.state, HealthState::Probing | HealthState::Ejected) {
            return;
        }
        inner.state = HealthState::Ejected;
        inner.probe_successes = 0;
        inner.probe_fails = inner.probe_fails.saturating_add(1);
        let exp = inner.probe_fails.min(16);
        let backoff = self
            .cfg
            .probe_interval
            .saturating_mul(1u32 << exp)
            .min(self.cfg.probe_backoff_max)
            .max(self.cfg.probe_interval);
        inner.next_probe_at = now + backoff;
        self.probe_failures.fetch_add(1, Ordering::Relaxed);
    }
}

fn admitting(state: HealthState) -> bool {
    matches!(state, HealthState::Healthy | HealthState::Suspect)
}

fn push_outcome(outcomes: &mut VecDeque<bool>, failed: bool, window: usize) {
    if window == 0 {
        return;
    }
    if outcomes.len() >= window {
        outcomes.pop_front();
    }
    outcomes.push_back(failed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cfg(consecutive: u32, window: usize, rate: f64, m: u32) -> HealthConfig {
        HealthConfig {
            consecutive_failures: consecutive,
            window,
            failure_rate: rate,
            probe_interval: Duration::from_millis(10),
            probe_backoff_max: Duration::from_millis(80),
            readmit_successes: m,
        }
    }

    #[test]
    fn consecutive_run_trips_ejection() {
        let t = HealthTracker::new(cfg(3, 100, 1.1, 2));
        let now = Instant::now();
        assert!(t.admits_scatter());
        t.record_failure(now);
        assert_eq!(t.state(), HealthState::Suspect);
        assert!(t.admits_scatter(), "Suspect still takes traffic");
        t.record_failure(now);
        assert!(t.admits_scatter());
        t.record_failure(now);
        assert_eq!(t.state(), HealthState::Ejected);
        assert!(!t.admits_scatter());
        assert_eq!(t.ejections.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn a_success_resets_the_consecutive_run() {
        let t = HealthTracker::new(cfg(3, 100, 1.1, 2));
        let now = Instant::now();
        for _ in 0..10 {
            t.record_failure(now);
            t.record_failure(now);
            t.record_success();
            assert_eq!(t.state(), HealthState::Healthy);
        }
        assert_eq!(t.ejections.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn windowed_rate_trips_without_a_consecutive_run() {
        // Alternating fail/ok never reaches 3 consecutive, but a 50%
        // rate over a full window of 8 trips on the next failure.
        let t = HealthTracker::new(cfg(3, 8, 0.5, 2));
        let now = Instant::now();
        for _ in 0..4 {
            t.record_failure(now);
            t.record_success();
        }
        assert!(t.admits_scatter(), "window not yet tripped");
        t.record_failure(now);
        assert_eq!(
            t.state(),
            HealthState::Ejected,
            "a mostly-dead shard must not ride interleaved successes forever"
        );
    }

    #[test]
    fn probe_path_backs_off_and_requires_the_quorum() {
        let t = HealthTracker::new(cfg(1, 100, 1.1, 2));
        let t0 = Instant::now();
        t.record_failure(t0);
        assert_eq!(t.state(), HealthState::Ejected);
        // Not due before the interval.
        assert!(!t.take_due_probe(t0));
        let due = t0 + Duration::from_millis(10);
        assert!(t.take_due_probe(due));
        assert_eq!(t.state(), HealthState::Probing);
        // Only one claimant wins the slot.
        assert!(!t.take_due_probe(due));
        // Failure: back off (2× base), success run reset.
        t.probe_failed(due);
        assert_eq!(t.state(), HealthState::Ejected);
        assert_eq!(t.probe_failures.load(Ordering::Relaxed), 1);
        assert!(!t.take_due_probe(due + Duration::from_millis(10)));
        assert!(t.take_due_probe(due + Duration::from_millis(20)));
        // One success is below the quorum: Ejected again, base interval.
        assert!(!t.probe_succeeded(due + Duration::from_millis(20)));
        assert_eq!(t.state(), HealthState::Ejected);
        let due2 = due + Duration::from_millis(30);
        assert!(t.take_due_probe(due2));
        // Second consecutive success reaches M = 2: re-admitted.
        assert!(t.probe_succeeded(due2));
        assert_eq!(t.state(), HealthState::Healthy);
        assert!(t.admits_scatter());
        assert_eq!(t.readmissions.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn stale_call_outcomes_cannot_move_an_ejected_shard() {
        let t = HealthTracker::new(cfg(1, 100, 1.1, 1));
        let now = Instant::now();
        t.record_failure(now);
        assert_eq!(t.state(), HealthState::Ejected);
        t.record_success(); // straggler from a pre-ejection call
        assert_eq!(t.state(), HealthState::Ejected);
        t.record_failure(now);
        assert_eq!(t.ejections.load(Ordering::Relaxed), 1, "no double trip");
    }

    /// Driver for the proptests: replay an arbitrary event script
    /// against a tracker, modeling the prober's contract (probe
    /// outcomes only follow a claimed slot).
    #[derive(Debug, Clone, Copy)]
    enum Event {
        CallOk,
        CallFail,
        /// Advance time past any backoff and run one probe with this
        /// outcome if a probe is due.
        Probe {
            ok: bool,
        },
    }

    fn event_strategy() -> impl Strategy<Value = Event> {
        (0u8..3, any::<bool>()).prop_map(|(kind, ok)| match kind {
            0 => Event::CallOk,
            1 => Event::CallFail,
            _ => Event::Probe { ok },
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Scatter admission is exactly the Healthy/Suspect half of the
        // machine, under any interleaving of call outcomes and probes —
        // the "no scatter ever enqueues to an Ejected shard" invariant
        // the router's filter relies on.
        #[test]
        fn admission_matches_state_under_any_script(
            events in prop::collection::vec(event_strategy(), 0..200),
            consecutive in 1u32..6,
            m in 1u32..4,
        ) {
            let t = HealthTracker::new(cfg(consecutive, 16, 0.5, m));
            let mut now = Instant::now();
            for ev in events {
                match ev {
                    Event::CallOk => t.record_success(),
                    Event::CallFail => t.record_failure(now),
                    Event::Probe { ok } => {
                        now += Duration::from_secs(10); // past any backoff
                        if t.take_due_probe(now) {
                            if ok {
                                t.probe_succeeded(now);
                            } else {
                                t.probe_failed(now);
                            }
                        }
                    }
                }
                let state = t.state();
                prop_assert_eq!(
                    t.admits_scatter(),
                    matches!(state, HealthState::Healthy | HealthState::Suspect),
                    "admission must mirror the state, got {:?}", state
                );
                // While out of the scatter set, call outcomes are inert:
                // the counters only ever move via the probe path.
                if matches!(state, HealthState::Ejected | HealthState::Probing) {
                    t.record_success();
                    t.record_failure(now);
                    prop_assert_eq!(t.state(), state);
                }
            }
        }

        // Re-admission requires exactly M consecutive probe successes:
        // M-1 successes (however many times, with a failure in between)
        // never readmit; the M-th consecutive one does.
        #[test]
        fn readmission_requires_exactly_m_consecutive_successes(
            m in 1u32..5,
            rounds in 1usize..4,
        ) {
            let t = HealthTracker::new(cfg(1, 16, 1.1, m));
            let mut now = Instant::now();
            t.record_failure(now);
            prop_assert_eq!(t.state(), HealthState::Ejected);
            // `rounds` times: M-1 successes then a failure — never in.
            for _ in 0..rounds {
                for _ in 0..m - 1 {
                    now += Duration::from_secs(10);
                    prop_assert!(t.take_due_probe(now));
                    prop_assert!(!t.probe_succeeded(now), "below the quorum");
                    prop_assert_eq!(t.state(), HealthState::Ejected);
                }
                now += Duration::from_secs(10);
                prop_assert!(t.take_due_probe(now));
                t.probe_failed(now);
                prop_assert_eq!(t.state(), HealthState::Ejected);
            }
            prop_assert_eq!(t.readmissions.load(Ordering::Relaxed), 0);
            // M consecutive successes: exactly the quorum, then in.
            for i in 0..m {
                now += Duration::from_secs(10);
                prop_assert!(t.take_due_probe(now));
                let quorum = t.probe_succeeded(now);
                prop_assert_eq!(quorum, i == m - 1);
            }
            prop_assert_eq!(t.state(), HealthState::Healthy);
            prop_assert_eq!(t.readmissions.load(Ordering::Relaxed), 1);
        }
    }
}
