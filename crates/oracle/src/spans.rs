//! Causal-span lifecycle oracle.
//!
//! The tracing layer (`kmsg-telemetry::trace`) records every span as a
//! [`EventKind::SpanOpen`] / [`EventKind::SpanClose`] pair. This oracle
//! replays the stream and asserts the lifecycle invariants every legal
//! trace must satisfy:
//!
//! * **Balance** — no span opens twice, closes twice, or closes without
//!   an open; a close is never stamped before its open.
//! * **Nesting** — a child opens while its parent is open, closes no
//!   later than its parent, references a parent that exists, and carries
//!   its parent's trace id. Equal timestamps are legal (instants and
//!   cascaded closes share a tick).
//! * **Instants** — zero-duration kinds (`channel_pick`, `requeue`,
//!   `failover`, `deliver`, `dedup`, `decide`) always close, at their
//!   open time. Long-lived kinds may legitimately still be open when the
//!   horizon cuts the run (an unhealed outage, an unacked tail segment),
//!   so *those* are not violations.
//! * **Retransmit attribution** — a `TcpRetransmit { conn, seq }` event
//!   whose segment has a recorded `seg` span must fall inside that span's
//!   window (the span opened at the segment's *first* send covers every
//!   resend), and a `seg` span closed with the retransmitted outcome key
//!   must contain at least one matching retransmit event.
//!
//! Truncated traces (ring eviction) skip the balance and attribution
//! rules — the missing prefix would make both false-fail — but still
//! check ordering and nesting among the spans that survive.

use std::collections::BTreeMap;

use kmsg_telemetry::{Event, EventKind};

use crate::{trace_truncated, Oracle, OracleConfig, RunFacts, Violation};

/// `seg` spans closed with this outcome key were retransmitted at least
/// once (mirrors `SEG_REXMIT` in `kmsg-netsim`'s TCP model).
const SEG_REXMIT_KEY: u64 = 1;

/// Span kinds recorded as zero-duration instants: their close is part of
/// the same logical record, so an unclosed one is an instrumentation bug
/// even in a horizon-cut run.
const INSTANT_KINDS: [&str; 6] = [
    "channel_pick",
    "requeue",
    "failover",
    "deliver",
    "dedup",
    "decide",
];

/// See the [module docs](self).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanOracle;

struct SpanInfo {
    open_ns: u64,
    close_ns: Option<u64>,
    close_key: u64,
    parent: u64,
    trace: u64,
    kind: &'static str,
    key: u64,
}

impl Oracle for SpanOracle {
    fn name(&self) -> &'static str {
        "spans"
    }

    fn check(&self, events: &[Event], facts: &RunFacts, _cfg: &OracleConfig) -> Vec<Violation> {
        let mut out = Vec::new();
        let truncated = trace_truncated(events, facts);
        let mut spans: BTreeMap<u64, SpanInfo> = BTreeMap::new();
        let mut retransmits: Vec<(u64, u64, u64)> = Vec::new(); // (time, conn, seq)
        for ev in events {
            match ev.kind {
                EventKind::SpanOpen {
                    span,
                    parent,
                    trace,
                    kind,
                    key,
                } => {
                    let info = SpanInfo {
                        open_ns: ev.time_ns,
                        close_ns: None,
                        close_key: 0,
                        parent,
                        trace,
                        kind,
                        key,
                    };
                    if spans.insert(span, info).is_some() {
                        out.push(Violation {
                            oracle: "spans",
                            rule: "double_open",
                            time_ns: ev.time_ns,
                            detail: format!("span {span:#x} ({kind}) opened twice"),
                        });
                    }
                }
                EventKind::SpanClose { span, key } => match spans.get_mut(&span) {
                    Some(info) if info.close_ns.is_some() => out.push(Violation {
                        oracle: "spans",
                        rule: "double_close",
                        time_ns: ev.time_ns,
                        detail: format!("span {span:#x} ({}) closed twice", info.kind),
                    }),
                    Some(info) => {
                        if ev.time_ns < info.open_ns {
                            out.push(Violation {
                                oracle: "spans",
                                rule: "close_before_open",
                                time_ns: ev.time_ns,
                                detail: format!(
                                    "span {span:#x} ({}) closed at {} before its open at {}",
                                    info.kind, ev.time_ns, info.open_ns
                                ),
                            });
                        }
                        info.close_ns = Some(ev.time_ns);
                        info.close_key = key;
                    }
                    None if truncated => {} // open evicted from the ring
                    None => out.push(Violation {
                        oracle: "spans",
                        rule: "close_unopened",
                        time_ns: ev.time_ns,
                        detail: format!("span {span:#x} closed but never opened"),
                    }),
                },
                EventKind::TcpRetransmit { conn, seq, .. } => {
                    retransmits.push((ev.time_ns, conn, seq));
                }
                _ => {}
            }
        }

        // Nesting: children live inside their parents, on the same trace.
        for (id, info) in &spans {
            if info.parent == 0 {
                continue;
            }
            let Some(parent) = spans.get(&info.parent) else {
                if !truncated {
                    out.push(Violation {
                        oracle: "spans",
                        rule: "unknown_parent",
                        time_ns: info.open_ns,
                        detail: format!(
                            "span {id:#x} ({}) references unopened parent {:#x}",
                            info.kind, info.parent
                        ),
                    });
                }
                continue;
            };
            if info.open_ns < parent.open_ns {
                out.push(Violation {
                    oracle: "spans",
                    rule: "child_before_parent",
                    time_ns: info.open_ns,
                    detail: format!(
                        "span {id:#x} ({}) opened at {} before parent {} span at {}",
                        info.kind, info.open_ns, parent.kind, parent.open_ns
                    ),
                });
            }
            if let Some(parent_close) = parent.close_ns {
                let child_end = info.close_ns.unwrap_or(info.open_ns);
                if info.open_ns > parent_close || child_end > parent_close {
                    out.push(Violation {
                        oracle: "spans",
                        rule: "child_outlives_parent",
                        time_ns: child_end.max(info.open_ns),
                        detail: format!(
                            "span {id:#x} ({}) extends past its parent {} close at {parent_close}",
                            info.kind, parent.kind
                        ),
                    });
                }
            }
            if info.trace != parent.trace {
                out.push(Violation {
                    oracle: "spans",
                    rule: "trace_mismatch",
                    time_ns: info.open_ns,
                    detail: format!(
                        "span {id:#x} ({}) carries trace {:#x} but its parent has {:#x}",
                        info.kind, info.trace, parent.trace
                    ),
                });
            }
        }

        // Instants always close, at their own timestamp; everything else
        // may be cut open by the horizon.
        for (id, info) in &spans {
            if !INSTANT_KINDS.contains(&info.kind) {
                continue;
            }
            match info.close_ns {
                None => out.push(Violation {
                    oracle: "spans",
                    rule: "instant_unclosed",
                    time_ns: info.open_ns,
                    detail: format!("instant span {id:#x} ({}) never closed", info.kind),
                }),
                Some(close) if close != info.open_ns => out.push(Violation {
                    oracle: "spans",
                    rule: "instant_with_duration",
                    time_ns: close,
                    detail: format!(
                        "instant span {id:#x} ({}) closed at {close}, opened at {}",
                        info.kind, info.open_ns
                    ),
                }),
                Some(_) => {}
            }
        }

        if truncated {
            return out;
        }

        // Retransmit attribution both ways: seg spans and TcpRetransmit
        // events join on `conn << 32 | seq & 0xffff_ffff`.
        let seg_spans: Vec<(&u64, &SpanInfo)> = spans
            .iter()
            .filter(|(_, info)| info.kind == "seg")
            .collect();
        for &(time_ns, conn, seq) in &retransmits {
            let key = (conn << 32) | (seq & 0xffff_ffff);
            let covering: Vec<_> = seg_spans.iter().filter(|(_, s)| s.key == key).collect();
            if covering.is_empty() {
                // Control segments (SYN/FIN) retransmit without a span.
                continue;
            }
            let inside = covering.iter().any(|(_, s)| {
                time_ns >= s.open_ns && s.close_ns.is_none_or(|c| time_ns <= c)
            });
            if !inside {
                out.push(Violation {
                    oracle: "spans",
                    rule: "rexmit_outside_span",
                    time_ns,
                    detail: format!(
                        "retransmit of conn {conn} seq {seq} at {time_ns} falls outside \
                         every recorded seg span for that segment"
                    ),
                });
            }
        }
        for (id, info) in &seg_spans {
            if info.close_key != SEG_REXMIT_KEY {
                continue;
            }
            let close = info.close_ns.unwrap_or(u64::MAX);
            let witnessed = retransmits.iter().any(|&(t, conn, seq)| {
                (conn << 32) | (seq & 0xffff_ffff) == info.key
                    && t >= info.open_ns
                    && t <= close
            });
            if !witnessed {
                out.push(Violation {
                    oracle: "spans",
                    rule: "rexmit_key_unwitnessed",
                    time_ns: info.open_ns,
                    detail: format!(
                        "seg span {id:#x} closed as retransmitted but no TcpRetransmit \
                         event for key {:#x} lies in its window",
                        info.key
                    ),
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open(t: u64, span: u64, parent: u64, trace: u64, kind: &'static str, key: u64) -> Event {
        Event {
            time_ns: t,
            kind: EventKind::SpanOpen {
                span,
                parent,
                trace,
                kind,
                key,
            },
        }
    }

    fn close(t: u64, span: u64, key: u64) -> Event {
        Event {
            time_ns: t,
            kind: EventKind::SpanClose { span, key },
        }
    }

    fn check(events: &[Event]) -> Vec<Violation> {
        SpanOracle.check(events, &RunFacts::default(), &OracleConfig::default())
    }

    #[test]
    fn balanced_nested_trace_is_clean() {
        let events = vec![
            open(10, 0x1, 0, 0x1, "msg", 7),
            open(10, 0x2, 0x1, 0x1, "enqueue", 3),
            close(20, 0x2, 0),
            open(20, 0x3, 0x1, 0x1, "xmit", 9),
            close(50, 0x3, 0),
            close(50, 0x1, 0),
        ];
        let v = check(&events);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn open_long_spans_at_trace_end_are_legal() {
        let events = vec![
            open(10, 0x1, 0, 0x1, "outage", 0),
            open(20, 0x2, 0x1, 0x1, "backoff", 1),
        ];
        let v = check(&events);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unclosed_instants_fire() {
        let v = check(&[open(10, 0x1, 0, 0x1, "deliver", 0)]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "instant_unclosed");
        let v = check(&[open(10, 0x1, 0, 0x1, "decide", 0), close(30, 0x1, 0)]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "instant_with_duration");
    }

    #[test]
    fn balance_violations_fire() {
        let v = check(&[close(5, 0x9, 0)]);
        assert_eq!(v[0].rule, "close_unopened");
        let v = check(&[
            open(10, 0x1, 0, 0x1, "msg", 0),
            close(20, 0x1, 0),
            close(21, 0x1, 0),
        ]);
        assert_eq!(v[0].rule, "double_close");
        let v = check(&[open(30, 0x1, 0, 0x1, "msg", 0), close(20, 0x1, 0)]);
        assert_eq!(v[0].rule, "close_before_open");
        let v = check(&[
            open(10, 0x1, 0, 0x1, "msg", 0),
            open(11, 0x1, 0, 0x1, "msg", 0),
        ]);
        assert_eq!(v[0].rule, "double_open");
    }

    #[test]
    fn nesting_violations_fire() {
        // Child closes after its parent.
        let v = check(&[
            open(10, 0x1, 0, 0x1, "msg", 0),
            open(20, 0x2, 0x1, 0x1, "xmit", 0),
            close(30, 0x1, 0),
            close(40, 0x2, 0),
        ]);
        assert!(v.iter().any(|v| v.rule == "child_outlives_parent"), "{v:?}");
        // Unknown parent.
        let v = check(&[open(10, 0x2, 0x1, 0x1, "xmit", 0), close(11, 0x2, 0)]);
        assert!(v.iter().any(|v| v.rule == "unknown_parent"), "{v:?}");
        // Trace id disagrees with the parent's.
        let v = check(&[
            open(10, 0x1, 0, 0x1, "msg", 0),
            open(12, 0x2, 0x1, 0x7, "xmit", 0),
            close(13, 0x2, 0),
            close(14, 0x1, 0),
        ]);
        assert!(v.iter().any(|v| v.rule == "trace_mismatch"), "{v:?}");
    }

    #[test]
    fn truncated_traces_skip_balance_but_keep_ordering() {
        let facts = RunFacts {
            evicted_events: 5,
            ..RunFacts::default()
        };
        // A close whose open was evicted is forgiven...
        let events = vec![close(5, 0x9, 0)];
        let v = SpanOracle.check(&events, &facts, &OracleConfig::default());
        assert!(v.is_empty(), "{v:?}");
        // ...but a surviving close-before-open still fires.
        let events = vec![open(30, 0x1, 0, 0x1, "msg", 0), close(20, 0x1, 0)];
        let v = SpanOracle.check(&events, &facts, &OracleConfig::default());
        assert_eq!(v[0].rule, "close_before_open");
    }

    #[test]
    fn retransmit_attribution_joins_seg_spans() {
        let key = (3u64 << 32) | 1448;
        let rexmit = |t| Event {
            time_ns: t,
            kind: EventKind::TcpRetransmit {
                conn: 3,
                seq: 1448,
                fast: false,
            },
        };
        // In-window retransmit + SEG_REXMIT close: clean.
        let events = vec![
            open(10, 0x1, 0, 0, "seg", key),
            rexmit(20),
            close(30, 0x1, SEG_REXMIT_KEY),
        ];
        let v = check(&events);
        assert!(v.is_empty(), "{v:?}");
        // Retransmit outside the covering span's window.
        let events = vec![open(10, 0x1, 0, 0, "seg", key), close(15, 0x1, 0), rexmit(20)];
        let v = check(&events);
        assert!(v.iter().any(|v| v.rule == "rexmit_outside_span"), "{v:?}");
        // SEG_REXMIT close with no witnessing retransmit event.
        let events = vec![open(10, 0x1, 0, 0, "seg", key), close(30, 0x1, SEG_REXMIT_KEY)];
        let v = check(&events);
        assert!(v.iter().any(|v| v.rule == "rexmit_key_unwitnessed"), "{v:?}");
        // A SYN retransmit with no recorded span is legal.
        let v = check(&[rexmit(20)]);
        assert!(v.is_empty(), "{v:?}");
    }
}
