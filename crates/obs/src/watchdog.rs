//! Stall watchdog: budget checks over in-flight sync operations.
//!
//! The client records every sync call (`lock`, `barrier`, `cond`, `join`)
//! into the recorder's in-flight table when it starts and retires it when
//! the call returns — so at any instant the table holds exactly the ops
//! the application is blocked in. The telemetry actor periodically calls
//! [`Recorder::watchdog_scan`](crate::Recorder::watchdog_scan), which ages
//! each in-flight op against a *budget*: either the configured
//! [`WatchdogConfig::budget_us`], or one derived from the op kind's own
//! rolling latency distribution (`4 × p99`, floored at `min_budget_us`).
//!
//! A breach fires once per op instance and produces a [`StallReport`]
//! carrying the critical-path attribution of the stuck op: the analyzer
//! is run over the stuck op's own recorded events plus one *synthetic
//! span* for the unfinished op (start → now), so the usual milestone walk
//! applies and the attributed segments sum exactly to the op's measured
//! age.
//! Because the scan runs on fabric-clock tick boundaries inside a
//! registered sim actor, same-seed simulated runs fire at identical
//! virtual times with identical attributions.

use crate::critpath::{self, seg, OpCritPath, Segment};
use crate::event::{Event, EventKind, OpCtx, OpKind};
use crate::snapshot::JsonWriter;

/// Budget policy for the stall watchdog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Fixed budget for every op, µs. `None` = derive per kind from the
    /// op's rolling latency histogram.
    pub budget_us: Option<u64>,
    /// Floor for derived budgets, µs.
    pub min_budget_us: u64,
    /// Minimum completed samples before a derived budget is trusted; ops
    /// of a kind with fewer observations are never flagged.
    pub min_samples: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            budget_us: None,
            min_budget_us: 250_000,
            min_samples: 16,
        }
    }
}

/// Histogram key the derived budget for an op kind is read from (the
/// span latencies the client already records for completed ops).
pub fn histogram_for(kind: OpKind) -> Option<&'static str> {
    match kind {
        OpKind::Lock => Some("lock-wait"),
        OpKind::Barrier => Some("barrier"),
        OpKind::Unlock => Some("lock-release"),
        _ => None,
    }
}

/// Resolve the budget for one op kind: the configured fixed budget wins;
/// otherwise `max(4 × p99, min_budget)` once the kind has enough
/// completed samples; otherwise `None` (don't flag).
pub fn budget_for(cfg: &WatchdogConfig, history: Option<(u64, u64)>) -> Option<u64> {
    if let Some(b) = cfg.budget_us {
        return Some(b);
    }
    let (count, p99_us) = history?;
    (count >= cfg.min_samples).then(|| (4 * p99_us).max(cfg.min_budget_us))
}

/// One watchdog firing: an in-flight sync op over budget, with the
/// critical path of where its time has gone so far.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallReport {
    /// The stuck operation.
    pub op: OpCtx,
    /// Endpoint rank blocked in the op.
    pub rank: u32,
    /// When the op began, µs on the fabric timeline.
    pub start_us: u64,
    /// How long it had been in flight when the watchdog fired, µs.
    pub age_us: u64,
    /// The budget it breached, µs.
    pub budget_us: u64,
    /// The tick boundary the watchdog fired at, µs.
    pub fired_at_us: u64,
    /// Critical-path attribution of the stuck op; segment durations sum
    /// to the measured age exactly.
    pub critpath: OpCritPath,
}

impl StallReport {
    /// One-line report for dashboards and logs.
    pub fn describe(&self, shards: u32) -> String {
        format!(
            "STALL at t={} µs: {} on rank {} in flight {:.1} ms (budget {:.1} ms) — {}",
            self.fired_at_us,
            self.op,
            self.rank,
            self.age_us as f64 / 1e3,
            self.budget_us as f64 / 1e3,
            self.critpath.describe(shards)
        )
    }

    /// Append the report as a JSON object to `w`.
    pub(crate) fn write_json(&self, w: &mut JsonWriter) {
        w.begin_obj();
        w.field_str("kind", self.op.kind.name());
        w.field_u64("id", self.op.id as u64);
        w.field_u64("epoch", self.op.epoch as u64);
        w.field_u64("origin", self.op.origin as u64);
        w.field_u64("rank", self.rank as u64);
        w.field_u64("start_us", self.start_us);
        w.field_u64("age_us", self.age_us);
        w.field_u64("budget_us", self.budget_us);
        w.field_u64("fired_at_us", self.fired_at_us);
        w.field_u64("latency_us", self.critpath.latency_us);
        match self.critpath.straggler {
            Some(r) => w.field_u64("straggler", r as u64),
            None => {
                w.key("straggler");
                w.raw_value("null");
            }
        }
        w.field_u64("retransmits", self.critpath.retransmits);
        w.key("segments");
        w.begin_arr();
        for s in &self.critpath.segments {
            w.begin_obj();
            w.field_str("label", s.label);
            w.field_u64("rank", s.rank as u64);
            w.field_u64("dur_us", s.dur_us);
            w.end_obj();
        }
        w.end_arr();
        w.end_obj();
    }
}

/// The span kind the critpath analyzer walks for an op kind.
fn span_kind(kind: OpKind) -> Option<EventKind> {
    match kind {
        OpKind::Barrier => Some(EventKind::Barrier),
        OpKind::Lock => Some(EventKind::LockWait),
        _ => None,
    }
}

/// Attribute a stuck op's age over the recorded event stream: take the
/// op's own group (same key as the analyzer's, so a lock acquisition by
/// another origin with the same id and epoch never matches), that lock's
/// holds and the lease expiries, append one synthetic span (start →
/// start+age) for the unfinished op and run the standard critical-path
/// analyzer, so milestones already recorded (the enter send, its arrival
/// at the home, retransmits burned so far) shape the segments. Kinds the
/// analyzer doesn't walk (cond, join) get a single straggler-wait segment
/// covering the whole age — either way the segments sum to `age_us`
/// exactly.
pub fn attribute(
    events: &[Event],
    op: OpCtx,
    rank: u32,
    start_us: u64,
    age_us: u64,
    shards: u32,
) -> OpCritPath {
    if let Some(kind) = span_kind(op.kind) {
        let key = critpath::group_key(&op);
        let mut evs: Vec<Event> = events
            .iter()
            .filter(|e| {
                critpath::group_key(&e.op) == key
                    || (e.kind == EventKind::LockHold && e.arg0 == op.id as u64)
                    || e.kind == EventKind::LeaseExpired
            })
            .copied()
            .collect();
        evs.push(Event {
            rank,
            kind,
            t_us: start_us,
            dur_us: age_us.max(1),
            op,
            ..Default::default()
        });
        // Holds and leases form no walkable group of their own, so the
        // stuck op's group is the only candidate.
        if let Some(p) = critpath::analyze(&evs, shards)
            .into_iter()
            .find(|p| p.latency_us >= age_us)
        {
            return p;
        }
    }
    OpCritPath {
        op,
        latency_us: age_us,
        straggler: None,
        slowest_shard: None,
        shard_busy_us: 0,
        retransmits: 0,
        links: Vec::new(),
        lease_expiries: 0,
        segments: vec![Segment {
            label: seg::WAIT,
            rank,
            dur_us: age_us,
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_budget_wins_over_history() {
        let cfg = WatchdogConfig {
            budget_us: Some(1000),
            ..Default::default()
        };
        assert_eq!(budget_for(&cfg, Some((100, 9999))), Some(1000));
        assert_eq!(budget_for(&cfg, None), Some(1000));
    }

    #[test]
    fn derived_budget_needs_samples_and_respects_floor() {
        let cfg = WatchdogConfig::default();
        assert_eq!(budget_for(&cfg, None), None);
        assert_eq!(budget_for(&cfg, Some((3, 1_000_000))), None);
        // 4 × p99 above the floor.
        assert_eq!(budget_for(&cfg, Some((64, 1_000_000))), Some(4_000_000));
        // 4 × p99 below the floor → floored.
        assert_eq!(budget_for(&cfg, Some((64, 10))), Some(250_000));
    }

    #[test]
    fn attribution_segments_sum_to_age() {
        // A stalled barrier with only its enter-send recorded: the walk
        // still produces segments that sum exactly to the age.
        let op = OpCtx {
            kind: OpKind::Barrier,
            id: 2,
            epoch: 1,
            origin: 1,
        };
        let events = vec![Event {
            rank: 1,
            kind: EventKind::MsgSend,
            t_us: 150,
            label: "barrier-enter",
            op,
            ..Default::default()
        }];
        let p = attribute(&events, op, 1, 100, 5_000, 1);
        let sum: u64 = p.segments.iter().map(|s| s.dur_us).sum();
        assert_eq!(sum, 5_000);
        assert_eq!(p.latency_us, 5_000);
    }

    #[test]
    fn lock_attribution_stays_on_the_stuck_origin() {
        // Lock epochs count per client, so origins 1 and 2 both take lock
        // 0 at epoch 1. Origin 1's acquisition finished long ago and took
        // longer than origin 2 has been stuck; the report must still be
        // about origin 2.
        let lock = |origin| OpCtx {
            kind: OpKind::Lock,
            id: 0,
            epoch: 1,
            origin,
        };
        let done = lock(1);
        let events = vec![
            Event {
                rank: 1,
                kind: EventKind::LockWait,
                t_us: 0,
                dur_us: 5_000,
                op: done,
                ..Default::default()
            },
            Event {
                rank: 1,
                kind: EventKind::LockHold,
                t_us: 5_000,
                dur_us: 3_000,
                arg0: 0,
                ..Default::default()
            },
            Event {
                rank: 2,
                kind: EventKind::MsgSend,
                t_us: 6_100,
                label: "lock-req",
                op: lock(2),
                ..Default::default()
            },
        ];
        let p = attribute(&events, lock(2), 2, 6_000, 1_000, 1);
        assert_eq!(p.op.origin, 2);
        assert_eq!(p.latency_us, 1_000);
        assert_eq!(p.straggler, Some(1), "origin 1 still holds the lock");
        let sum: u64 = p.segments.iter().map(|s| s.dur_us).sum();
        assert_eq!(sum, 1_000);
    }

    #[test]
    fn unwalkable_kinds_get_a_single_wait_segment() {
        let op = OpCtx {
            kind: OpKind::Join,
            id: 0,
            epoch: 1,
            origin: 2,
        };
        let p = attribute(&[], op, 2, 0, 777, 1);
        assert_eq!(p.segments.len(), 1);
        assert_eq!(p.segments[0].label, seg::WAIT);
        assert_eq!(p.segments[0].dur_us, 777);
        assert_eq!(p.latency_us, 777);
    }

    #[test]
    fn stall_report_json_and_describe() {
        let op = OpCtx {
            kind: OpKind::Barrier,
            id: 3,
            epoch: 7,
            origin: 1,
        };
        let r = StallReport {
            op,
            rank: 1,
            start_us: 100,
            age_us: 900,
            budget_us: 500,
            fired_at_us: 1000,
            critpath: attribute(&[], op, 1, 100, 900, 1),
        };
        let line = r.describe(1);
        assert!(line.starts_with("STALL at t=1000 µs"), "line: {line}");
        assert!(line.contains("barrier 3 epoch 7"), "line: {line}");
        let mut w = JsonWriter::new();
        r.write_json(&mut w);
        let j = w.finish();
        assert!(j.contains("\"kind\":\"barrier\""));
        assert!(j.contains("\"age_us\":900"));
        assert!(j.contains("\"segments\":["));
    }
}
