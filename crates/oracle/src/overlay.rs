//! Pub/sub overlay routing oracle.
//!
//! The overlay layer promises four things that the raw channel machinery
//! does not: routes are **loop-free** (no relay chain revisits a node and
//! nothing ever dies by TTL), delivery is **at-most-once per subscriber**
//! even while a reroute races channel supervision's requeue, deliveries
//! are **causal** (nothing is delivered that was never published), and
//! after every partition heals the gossiped link-state tables
//! **reconverge**. The first three are checked directly against the
//! recorded [`EventKind::Overlay`] stream; liveness and convergence come
//! from the end-of-run [`OverlayFacts`](crate::OverlayFacts) that the
//! scenario runner captures after its settle window (the trace alone
//! cannot show what *should* have been delivered).

use std::collections::{BTreeMap, BTreeSet};

use kmsg_telemetry::{Event, EventKind};

use crate::{trace_truncated, Oracle, OracleConfig, RunFacts, Violation};

/// See the [module docs](self).
#[derive(Debug, Clone, Copy, Default)]
pub struct OverlayOracle;

/// Mirror of the overlay's packed-path encoding: one node index + 1 per
/// byte, low byte first; `u64::MAX` marks a path too long or too wide to
/// encode (the loop rule then has nothing to check).
fn unpack_path(packed: u64) -> Option<Vec<u64>> {
    if packed == u64::MAX {
        return None;
    }
    let mut out = Vec::new();
    let mut v = packed;
    while v != 0 {
        let byte = v & 0xff;
        if byte == 0 {
            // Interior zero byte: not a value the packer produces.
            return None;
        }
        out.push(byte - 1);
        v >>= 8;
    }
    Some(out)
}

impl Oracle for OverlayOracle {
    fn name(&self) -> &'static str {
        "overlay"
    }

    fn check(&self, events: &[Event], facts: &RunFacts, cfg: &OracleConfig) -> Vec<Violation> {
        let mut out = Vec::new();
        let truncated = trace_truncated(events, facts);
        let mut published: BTreeSet<u64> = BTreeSet::new();
        let mut delivered: BTreeMap<(u64, u64), u64> = BTreeMap::new();
        for ev in events {
            let EventKind::Overlay {
                action,
                msg,
                node,
                aux,
            } = ev.kind
            else {
                continue;
            };
            match action {
                // A TTL expiry is positive evidence of a routing loop (or
                // a route longer than the hop limit) no matter how much of
                // the trace survived eviction.
                "ttl_drop" => out.push(Violation {
                    oracle: "overlay",
                    rule: "ttl_drop",
                    time_ns: ev.time_ns,
                    detail: format!(
                        "node {node} dropped a frame for node {aux} on TTL expiry; \
                         overlay routes must stay within the hop limit"
                    ),
                }),
                "route" | "reroute" => {
                    if let Some(path) = unpack_path(aux) {
                        let distinct: BTreeSet<u64> = path.iter().copied().collect();
                        if distinct.len() != path.len() {
                            out.push(Violation {
                                oracle: "overlay",
                                rule: "route_loop",
                                time_ns: ev.time_ns,
                                detail: format!(
                                    "node {node} selected a relay path revisiting a node \
                                     for msg {msg}: {path:?}"
                                ),
                            });
                        }
                    }
                }
                "publish" => {
                    published.insert(msg);
                }
                "deliver" => {
                    let n = delivered.entry((msg, node)).or_insert(0);
                    *n += 1;
                    // A second deliver of the same message at the same
                    // subscriber is positive evidence that the dedup
                    // window failed — truncation cannot excuse it.
                    if *n == 2 {
                        out.push(Violation {
                            oracle: "overlay",
                            rule: "duplicate_delivery",
                            time_ns: ev.time_ns,
                            detail: format!(
                                "msg {msg} delivered more than once at node {node}; \
                                 reroute + supervision requeue must be absorbed by dedup"
                            ),
                        });
                    }
                    // Causality is a stream-shape rule: the publish may
                    // simply have been evicted from a truncated ring.
                    if !truncated && !published.contains(&msg) {
                        out.push(Violation {
                            oracle: "overlay",
                            rule: "unpublished_delivery",
                            time_ns: ev.time_ns,
                            detail: format!(
                                "msg {msg} delivered at node {node} but never published"
                            ),
                        });
                    }
                }
                _ => {}
            }
        }
        let Some(of) = &facts.overlay else {
            return out;
        };
        if of.delivered > of.expected_deliveries {
            out.push(Violation {
                oracle: "overlay",
                rule: "over_delivery",
                time_ns: 0,
                detail: format!(
                    "{} deliveries recorded but only {} subscriptions matched the \
                     published messages",
                    of.delivered, of.expected_deliveries
                ),
            });
        }
        if cfg.expect_completion && of.delivered < of.expected_deliveries {
            out.push(Violation {
                oracle: "overlay",
                rule: "lost_delivery",
                time_ns: 0,
                detail: format!(
                    "only {} of {} expected deliveries arrived although every \
                     partition healed inside the horizon",
                    of.delivered, of.expected_deliveries
                ),
            });
        }
        if !of.converged {
            out.push(Violation {
                oracle: "overlay",
                rule: "diverged",
                time_ns: 0,
                detail: format!(
                    "link-state tables of the {} nodes still differ after the \
                     settle window",
                    of.nodes
                ),
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OverlayFacts;

    fn ov(time_ns: u64, action: &'static str, msg: u64, node: u64, aux: u64) -> Event {
        Event {
            time_ns,
            kind: EventKind::Overlay {
                action,
                msg,
                node,
                aux,
            },
        }
    }

    /// Packs indices the way the overlay does (idx + 1 per byte).
    fn pack(path: &[u64]) -> u64 {
        path.iter()
            .enumerate()
            .fold(0u64, |acc, (i, &n)| acc | ((n + 1) << (8 * i)))
    }

    fn check(events: &[Event], facts: &RunFacts, cfg: &OracleConfig) -> Vec<Violation> {
        OverlayOracle.check(events, facts, cfg)
    }

    #[test]
    fn clean_pubsub_trace_passes() {
        let events = vec![
            ov(10, "publish", 1 << 32, 1, 77),
            ov(11, "route", 1 << 32, 1, pack(&[1, 0, 2])),
            ov(20, "deliver", 1 << 32, 2, 77),
            ov(30, "reroute", 1 << 32, 1, pack(&[1, 3, 2])),
            ov(40, "dup_drop", 1 << 32, 2, 0),
        ];
        let v = check(&events, &RunFacts::default(), &OracleConfig::default());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn ttl_drop_is_always_a_violation() {
        let events = vec![ov(5, "ttl_drop", 0, 3, 1)];
        let v = check(&events, &RunFacts::default(), &OracleConfig::default());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "ttl_drop");
        // Even on a truncated trace: the drop itself is the evidence.
        let facts = RunFacts {
            evicted_events: 9,
            ..RunFacts::default()
        };
        assert_eq!(check(&events, &facts, &OracleConfig::default()).len(), 1);
    }

    #[test]
    fn revisiting_relay_path_fires_route_loop() {
        let events = vec![
            ov(1, "publish", 7, 0, 0),
            ov(2, "reroute", 7, 0, pack(&[0, 1, 0, 2])),
        ];
        let v = check(&events, &RunFacts::default(), &OracleConfig::default());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "route_loop");
        // The unencodable sentinel carries no path and cannot fire.
        let v = check(
            &[ov(2, "route", 7, 0, u64::MAX)],
            &RunFacts::default(),
            &OracleConfig::default(),
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn double_delivery_fires_once_per_extra_copy() {
        let events = vec![
            ov(1, "publish", 9, 0, 0),
            ov(2, "deliver", 9, 2, 0),
            ov(3, "deliver", 9, 2, 0),
            ov(4, "deliver", 9, 1, 0), // different subscriber: fine
        ];
        let v = check(&events, &RunFacts::default(), &OracleConfig::default());
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "duplicate_delivery");
        assert_eq!(v[0].time_ns, 3);
    }

    #[test]
    fn unpublished_delivery_skips_on_truncation() {
        let events = vec![ov(2, "deliver", 11, 2, 0)];
        let v = check(&events, &RunFacts::default(), &OracleConfig::default());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "unpublished_delivery");
        let truncated = RunFacts {
            evicted_events: 1,
            ..RunFacts::default()
        };
        assert!(check(&events, &truncated, &OracleConfig::default()).is_empty());
    }

    #[test]
    fn fact_rules_cover_liveness_and_convergence() {
        let facts = RunFacts {
            overlay: Some(OverlayFacts {
                nodes: 4,
                published: 10,
                expected_deliveries: 10,
                delivered: 8,
                duplicates: 1,
                no_route: 0,
                converged: false,
            }),
            ..RunFacts::default()
        };
        // Without expect_completion only divergence fires.
        let v = check(&[], &facts, &OracleConfig::default());
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "diverged");
        // With it, the missing deliveries fire too.
        let cfg = OracleConfig {
            expect_completion: true,
            ..OracleConfig::default()
        };
        let v = check(&[], &facts, &cfg);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|x| x.rule == "lost_delivery"));
        // Over-delivery fires regardless of completion expectations.
        let over = RunFacts {
            overlay: Some(OverlayFacts {
                delivered: 12,
                expected_deliveries: 10,
                converged: true,
                ..OverlayFacts::default()
            }),
            ..RunFacts::default()
        };
        let v = check(&[], &over, &OracleConfig::default());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "over_delivery");
    }

    #[test]
    fn absent_overlay_facts_disable_fact_rules() {
        let v = check(&[], &RunFacts::default(), &OracleConfig::default());
        assert!(v.is_empty());
    }
}
