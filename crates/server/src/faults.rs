//! Deterministic fault injection for the router's downstream calls.
//!
//! A [`FaultPlan`] wraps the router's downstream connections with
//! scripted wire damage — delays, dropped or truncated replies, sockets
//! cut mid-request, black holes — so the fault tests and the smoke
//! example can prove every failure mode resolves to a **documented
//! outcome** (a retry, a hedge, a degraded answer, or a typed error;
//! never a hang) without real network chaos.
//!
//! Decisions are **deterministic**: whether rule `r` fires for call
//! `c` on shard `s` depends only on `(plan seed, s, c)` via a
//! splitmix64 hash, so a failing run replays exactly from its seed.
//! Wire-damage faults apply to scatter (`ShardKnn`) calls only —
//! startup probes bypass the plan, since they model operator actions,
//! not serving traffic. The one exception is a scripted
//! [`FaultMode::Down`] outage: a dead host refuses **every** call
//! class, so plans containing one are consulted for the router's
//! re-admission probes too (sharing the per-shard call counter), which
//! makes the outage → ejection → restart → re-admission lifecycle
//! scriptable end to end.

use std::time::Duration;

/// What the fault does to the call it fires on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Stall the call this long before the request is written — a
    /// straggling shard. The call still completes if the shard deadline
    /// has not passed; otherwise it times out.
    Delay(Duration),
    /// Write the request, then drop the connection without reading the
    /// reply — the router sees an I/O failure and retries.
    DropReply,
    /// Read the reply off the wire, then discard it and surface a
    /// truncated-stream error — a shard that died mid-answer.
    TruncateReply,
    /// Write only the first `n` bytes of the request frame, then close
    /// the socket — real wire damage that also exercises the
    /// downstream server's truncated-frame handling.
    CloseAtByte(usize),
    /// Neither write nor read; hold the call until its deadline — the
    /// pure-timeout failure mode.
    BlackHole,
    /// The downstream host is **gone** (crashed, restarting): every
    /// connection attempt is refused for the next `calls` calls counted
    /// from the rule's `after_calls`, after which the "restarted"
    /// server answers normally. Unlike every other mode, an outage also
    /// applies to the router's **control-plane** calls on that shard
    /// (re-admission probes) — a dead host refuses all call classes
    /// alike — which is what lets the full
    /// outage → ejection → restart → re-admission lifecycle be scripted
    /// deterministically in call-space.
    Down {
        /// Outage length, in per-shard calls (scatter + control).
        calls: u64,
    },
}

/// One scripted fault: where it applies, when, how often, what it does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRule {
    /// Downstream shard index this rule targets (`None` = every shard).
    pub shard: Option<usize>,
    /// Skip the shard's first `after_calls` calls before the rule can
    /// fire (lets a workload warm up healthy).
    pub after_calls: u64,
    /// Fire on at most the next `n` eligible calls after `after_calls`
    /// (`None` = no limit).
    pub call_limit: Option<u64>,
    /// Probability the rule fires on an eligible call, in `[0, 1]`
    /// (`1.0` = always; evaluated deterministically from the plan
    /// seed).
    pub probability: f64,
    /// The injected fault.
    pub mode: FaultMode,
}

impl FaultRule {
    /// A rule that always fires for `shard`, from its first call on.
    pub fn always(shard: usize, mode: FaultMode) -> Self {
        FaultRule {
            shard: Some(shard),
            after_calls: 0,
            call_limit: None,
            probability: 1.0,
            mode,
        }
    }
}

/// A deterministic script of downstream faults (see the module docs).
/// First matching rule wins per call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// Empty plan with the given determinism seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Append a rule (builder-style).
    pub fn rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Decide the fate of shard `shard`'s call number `call` (0-based,
    /// counted per shard across all pooled connections): the first
    /// matching rule's mode, or `None` for a clean call.
    pub fn decide(&self, shard: usize, call: u64) -> Option<FaultMode> {
        for (i, rule) in self.rules.iter().enumerate() {
            if let Some(s) = rule.shard {
                if s != shard {
                    continue;
                }
            }
            if call < rule.after_calls {
                continue;
            }
            if let FaultMode::Down { calls } = rule.mode {
                // An outage bounds itself in call-space: past it the
                // host has "restarted" and the rule goes quiet.
                if call - rule.after_calls >= calls {
                    continue;
                }
            }
            if let Some(limit) = rule.call_limit {
                if call - rule.after_calls >= limit {
                    continue;
                }
            }
            if rule.probability < 1.0 {
                // Deterministic coin flip: hash (seed, shard, call,
                // rule index) to a unit f64.
                let h = splitmix64(
                    self.seed
                        ^ (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        ^ call.wrapping_mul(0xBF58_476D_1CE4_E5B9)
                        ^ (i as u64).wrapping_mul(0x94D0_49BB_1331_11EB),
                );
                let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
                if unit >= rule.probability {
                    continue;
                }
            }
            return Some(rule.mode);
        }
        None
    }

    /// Whether any rule scripts a [`FaultMode::Down`] outage. Only such
    /// plans are consulted for control-plane calls (re-admission
    /// probes), so wire-damage scripts keep their exact scatter call
    /// indices.
    pub fn has_down(&self) -> bool {
        self.rules
            .iter()
            .any(|r| matches!(r.mode, FaultMode::Down { .. }))
    }
}

/// splitmix64 finalizer — a strong 64-bit mix, cheap and dependency-free.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_rule_fires_only_on_its_shard() {
        let plan = FaultPlan::new(7).rule(FaultRule::always(1, FaultMode::BlackHole));
        assert_eq!(plan.decide(1, 0), Some(FaultMode::BlackHole));
        assert_eq!(plan.decide(1, 99), Some(FaultMode::BlackHole));
        assert_eq!(plan.decide(0, 0), None);
        assert_eq!(plan.decide(2, 5), None);
    }

    #[test]
    fn call_window_bounds_the_rule() {
        let plan = FaultPlan::new(7).rule(FaultRule {
            shard: Some(0),
            after_calls: 2,
            call_limit: Some(3),
            probability: 1.0,
            mode: FaultMode::DropReply,
        });
        let fired: Vec<u64> = (0..8).filter(|&c| plan.decide(0, c).is_some()).collect();
        assert_eq!(fired, vec![2, 3, 4]);
    }

    #[test]
    fn probability_is_deterministic_and_roughly_calibrated() {
        let plan = FaultPlan::new(42).rule(FaultRule {
            shard: None,
            after_calls: 0,
            call_limit: None,
            probability: 0.3,
            mode: FaultMode::TruncateReply,
        });
        let fired = |shard| {
            (0..1000)
                .filter(|&c| plan.decide(shard, c).is_some())
                .count()
        };
        // Same inputs, same decisions.
        assert_eq!(fired(0), fired(0));
        // ~300 of 1000 (generous tolerance; the point is calibration,
        // not exactness).
        let n = fired(0);
        assert!((150..=450).contains(&n), "p=0.3 fired {n}/1000");
        // A different shard draws a different (but still deterministic)
        // subset.
        assert_ne!(
            (0..1000).map(|c| plan.decide(0, c)).collect::<Vec<_>>(),
            (0..1000).map(|c| plan.decide(1, c)).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn down_outage_bounds_itself_in_call_space() {
        let plan = FaultPlan::new(13).rule(FaultRule {
            shard: Some(1),
            after_calls: 2,
            call_limit: None,
            probability: 1.0,
            mode: FaultMode::Down { calls: 3 },
        });
        let fired: Vec<u64> = (0..10).filter(|&c| plan.decide(1, c).is_some()).collect();
        assert_eq!(fired, vec![2, 3, 4], "outage is exactly `calls` long");
        assert!(plan.has_down());
        assert!(!FaultPlan::new(0)
            .rule(FaultRule::always(0, FaultMode::BlackHole))
            .has_down());
    }

    #[test]
    fn first_matching_rule_wins() {
        let plan = FaultPlan::new(1)
            .rule(FaultRule::always(0, FaultMode::BlackHole))
            .rule(FaultRule::always(0, FaultMode::DropReply));
        assert_eq!(plan.decide(0, 0), Some(FaultMode::BlackHole));
    }
}
