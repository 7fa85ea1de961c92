//! Link conservation oracle: no packet vanishes.
//!
//! The packet tracer stamps every packet's lifecycle into the trace: one
//! `"sent"` record at injection, then exactly one terminal record —
//! `"delivered"`, `"dropped:<reason>"`, `"no_route"` or `"no_sink"`. The
//! oracle folds the `Packet` events per flow (`src`, `dst`, `proto`) and
//! checks:
//!
//! * terminals never exceed sends (a packet cannot terminate twice);
//! * every send is matched by a terminal, except for packets still
//!   plausibly in flight: the unmatched sends must all sit within
//!   [`crate::OracleConfig::drain_grace_ns`] of the end of the trace
//!   (queue drain + propagation + scripted latency spikes);
//! * when the runner sampled [`crate::RunFacts::pool_live_at_end`], the
//!   fabric's in-flight packet pool holds exactly as many live slots as
//!   the trace shows unmatched sends — a surplus is a leaked pool slot,
//!   a deficit a double free.
//!
//! Truncated traces (ring eviction) are skipped: an evicted `"sent"`
//! leaves its terminal looking orphaned and vice versa.

use std::collections::BTreeMap;

use kmsg_telemetry::{Event, EventKind};

use crate::{trace_truncated, Oracle, OracleConfig, RunFacts, Violation};

/// See the [module docs](self).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ConservationOracle;

#[derive(Default)]
struct FlowLedger {
    /// Timestamps of `"sent"` records, in trace order.
    sent_at: Vec<u64>,
    terminals: u64,
}

impl Oracle for ConservationOracle {
    fn check(&self, events: &[Event], facts: &RunFacts, cfg: &OracleConfig) -> Vec<Violation> {
        let mut out = Vec::new();
        if trace_truncated(events, facts) {
            return out;
        }
        let mut flows: BTreeMap<(String, String, &'static str), FlowLedger> = BTreeMap::new();
        let mut end_ns = 0u64;
        for ev in events {
            end_ns = end_ns.max(ev.time_ns);
            let EventKind::Packet {
                src,
                dst,
                proto,
                outcome,
                ..
            } = &ev.kind
            else {
                continue;
            };
            let ledger = flows.entry((src.clone(), dst.clone(), proto)).or_default();
            if outcome == "sent" {
                ledger.sent_at.push(ev.time_ns);
            } else {
                ledger.terminals += 1;
            }
        }
        let mut in_flight_traced = 0u64;
        for ((src, dst, proto), ledger) in &flows {
            let sent = ledger.sent_at.len() as u64;
            if ledger.terminals > sent {
                out.push(Violation {
                    oracle: "conservation",
                    rule: "double_terminal",
                    time_ns: end_ns,
                    detail: format!(
                        "flow {src}->{dst}/{proto}: {} terminal records for only \
                         {sent} sent packets",
                        ledger.terminals
                    ),
                });
                continue;
            }
            let unmatched = (sent - ledger.terminals) as usize;
            in_flight_traced += unmatched as u64;
            if unmatched == 0 {
                continue;
            }
            // The unmatched packets are the most recent sends (the link
            // layer terminates packets in bounded time, so older sends
            // resolve first). All of them must still be within the drain
            // grace of the trace end to count as in flight.
            let oldest_unmatched = ledger.sent_at[ledger.sent_at.len() - unmatched];
            if oldest_unmatched.saturating_add(cfg.drain_grace_ns) < end_ns {
                out.push(Violation {
                    oracle: "conservation",
                    rule: "vanished_packet",
                    time_ns: oldest_unmatched,
                    detail: format!(
                        "flow {src}->{dst}/{proto}: {unmatched} packets sent but never \
                         delivered or dropped; oldest sent at {oldest_unmatched}ns, \
                         {}ns before the trace end — beyond the {}ns drain grace",
                        end_ns - oldest_unmatched,
                        cfg.drain_grace_ns
                    ),
                });
            }
        }
        if let Some(live) = facts.pool_live_at_end {
            if live != in_flight_traced {
                out.push(Violation {
                    oracle: "conservation",
                    rule: "pool_leak",
                    time_ns: end_ns,
                    detail: format!(
                        "packet pool holds {live} live slots at the sample point but \
                         the trace shows {in_flight_traced} packets in flight — \
                         leaked slots if over, double frees if under"
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

    fn pkt(time_ns: u64, outcome: &str) -> Event {
        Event {
            time_ns,
            kind: EventKind::Packet {
                src: "a:1".to_string(),
                dst: "b:2".to_string(),
                proto: "tcp",
                wire_size: 100,
                outcome: outcome.to_string(),
            },
        }
    }

    fn check(events: &[Event]) -> Vec<Violation> {
        ConservationOracle.check(events, &RunFacts::default(), &OracleConfig::default())
    }

    #[test]
    fn matched_lifecycles_are_clean() {
        let events = vec![
            pkt(10, "sent"),
            pkt(20, "sent"),
            pkt(30, "delivered"),
            pkt(40, "dropped:random_loss"),
        ];
        assert!(check(&events).is_empty());
    }

    #[test]
    fn in_flight_at_trace_end_is_tolerated() {
        let grace = OracleConfig::default().drain_grace_ns;
        let events = vec![
            pkt(0, "sent"),
            pkt(10, "delivered"),
            pkt(grace, "sent"), // still in flight when the trace ends
            Event {
                time_ns: grace + 100,
                kind: EventKind::Mark { id: 0, value: 0 },
            },
        ];
        assert!(check(&events).is_empty());
    }

    #[test]
    fn vanished_packet_fires() {
        let grace = OracleConfig::default().drain_grace_ns;
        let events = vec![
            pkt(0, "sent"),
            Event {
                time_ns: grace + 1_000,
                kind: EventKind::Mark { id: 0, value: 0 },
            },
        ];
        let v = check(&events);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "vanished_packet");
    }

    #[test]
    fn double_terminal_fires() {
        let events = vec![pkt(0, "sent"), pkt(10, "delivered"), pkt(20, "delivered")];
        let v = check(&events);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "double_terminal");
    }

    #[test]
    fn pool_leak_fires_on_surplus_slot() {
        let events = vec![pkt(10, "sent"), pkt(30, "delivered")];
        let facts = RunFacts {
            pool_live_at_end: Some(1),
            ..RunFacts::default()
        };
        let v = ConservationOracle.check(&events, &facts, &OracleConfig::default());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "pool_leak");
    }

    #[test]
    fn pool_matching_in_flight_is_clean() {
        let grace = OracleConfig::default().drain_grace_ns;
        let events = vec![
            pkt(0, "sent"),
            pkt(10, "delivered"),
            pkt(grace, "sent"), // still in flight — and still pooled
        ];
        let facts = RunFacts {
            pool_live_at_end: Some(1),
            ..RunFacts::default()
        };
        assert!(ConservationOracle
            .check(&events, &facts, &OracleConfig::default())
            .is_empty());
        let drained = RunFacts {
            pool_live_at_end: Some(0),
            ..RunFacts::default()
        };
        let v = ConservationOracle.check(&events, &drained, &OracleConfig::default());
        assert_eq!(v.len(), 1, "a deficit (double free) must fire too");
        assert_eq!(v[0].rule, "pool_leak");
    }

    #[test]
    fn truncated_trace_is_skipped() {
        let grace = OracleConfig::default().drain_grace_ns;
        let events = vec![
            Event {
                time_ns: 0,
                kind: EventKind::Overflow { evicted: 5 },
            },
            pkt(0, "sent"),
            Event {
                time_ns: grace + 1_000,
                kind: EventKind::Mark { id: 0, value: 0 },
            },
        ];
        assert!(check(&events).is_empty());
    }
}
