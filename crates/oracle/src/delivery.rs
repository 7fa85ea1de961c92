//! Channel supervision and delivery oracle.
//!
//! Two ingredient streams: the end-of-run [`RunFacts`] (payload
//! verification and the middleware's supervision counters) and the
//! `ConnStatus` events the supervision layer stamps on every channel
//! transition. The rules:
//!
//! * **Integrity** — a transfer that completed must verify byte-for-byte.
//! * **Exactly-once on calm channels** — with no supervision episode
//!   (no reconnect, failover or channel drop) the at-least-once machinery
//!   never re-sends, so the receiver must observe zero duplicates; on a
//!   single FIFO channel it must also observe zero out-of-order arrivals.
//! * **Bounded duplicates** — each supervision episode may re-deliver at
//!   most the frames that were in flight when the channel died
//!   ([`crate::OracleConfig::dedup_window`]); duplicates beyond
//!   `episodes * window` indicate a redelivery loop.
//! * **Liveness** — when the scenario promises completion
//!   ([`crate::OracleConfig::expect_completion`]) and no channel died, a
//!   non-completed run is a stall.
//! * **Status legality** — per channel, `"lost"` opens every outage,
//!   `"restored"`/`"dropped"` only follow `"lost"` (or a post-drop
//!   probe), and no state repeats.

use std::collections::BTreeMap;

use kmsg_telemetry::{Event, EventKind};

use crate::{trace_truncated, Oracle, OracleConfig, RunFacts, Violation};

/// See the [module docs](self).
#[derive(Debug, Clone, Copy, Default)]
pub struct DeliveryOracle;

impl Oracle for DeliveryOracle {
    fn name(&self) -> &'static str {
        "delivery"
    }

    fn check(&self, events: &[Event], facts: &RunFacts, cfg: &OracleConfig) -> Vec<Violation> {
        let mut out = Vec::new();

        if facts.completed && !facts.verified {
            out.push(Violation {
                oracle: "delivery",
                rule: "corruption",
                time_ns: 0,
                detail: "transfer completed but the delivered payload failed \
                         verification"
                    .to_string(),
            });
        }

        let episodes =
            facts.reconnects + facts.failovers + facts.channels_dropped + facts.controller_swaps;
        if episodes == 0 {
            if facts.duplicates > 0 {
                out.push(Violation {
                    oracle: "delivery",
                    rule: "unexplained_duplicates",
                    time_ns: 0,
                    detail: format!(
                        "{} duplicate chunks with no reconnect, failover or channel \
                         drop to explain redelivery",
                        facts.duplicates
                    ),
                });
            }
            if facts.fifo_expected && facts.out_of_order > 0 {
                out.push(Violation {
                    oracle: "delivery",
                    rule: "fifo_order",
                    time_ns: 0,
                    detail: format!(
                        "{} out-of-order chunks on a single FIFO channel with no \
                         supervision episode",
                        facts.out_of_order
                    ),
                });
            }
        } else if facts.duplicates > episodes * cfg.dedup_window {
            out.push(Violation {
                oracle: "delivery",
                rule: "duplicate_bound",
                time_ns: 0,
                detail: format!(
                    "{} duplicates exceed the redelivery budget of {} episodes x \
                     {} frames",
                    facts.duplicates, episodes, cfg.dedup_window
                ),
            });
        }

        if cfg.expect_completion && !facts.completed && facts.channels_dropped == 0 {
            out.push(Violation {
                oracle: "delivery",
                rule: "stall",
                time_ns: 0,
                detail: "workload did not complete inside the horizon although no \
                         channel was dropped"
                    .to_string(),
            });
        }

        if !trace_truncated(events, facts) {
            // Per-channel status machine: None -> lost; lost ->
            // restored|dropped; restored -> lost; dropped -> restored|lost
            // (a fresh channel to the same peer can be lost after a drop).
            let mut last: BTreeMap<(u64, &'static str), &'static str> = BTreeMap::new();
            for ev in events {
                let EventKind::ConnStatus {
                    peer,
                    transport,
                    status,
                    ..
                } = &ev.kind
                else {
                    continue;
                };
                let key = (*peer, *transport);
                let prev = last.get(&key).copied();
                let legal = matches!(
                    (*status, prev),
                    ("lost", None | Some("restored") | Some("dropped"))
                        | ("restored", Some("lost") | Some("dropped"))
                        | ("dropped", Some("lost"))
                );
                if !legal {
                    out.push(Violation {
                        oracle: "delivery",
                        rule: "status_sequence",
                        time_ns: ev.time_ns,
                        detail: format!(
                            "channel peer={peer} transport={transport}: illegal status \
                             transition {:?} -> {status:?}",
                            prev.unwrap_or("<start>")
                        ),
                    });
                }
                last.insert(key, status);
            }
        }

        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn status(time_ns: u64, status: &'static str) -> Event {
        Event {
            time_ns,
            kind: EventKind::ConnStatus {
                peer: 7,
                transport: "tcp",
                status,
                attempts: 1,
            },
        }
    }

    fn check(events: &[Event], facts: &RunFacts) -> Vec<Violation> {
        DeliveryOracle.check(events, facts, &OracleConfig::default())
    }

    #[test]
    fn calm_verified_run_is_clean() {
        let facts = RunFacts {
            completed: true,
            verified: true,
            fifo_expected: true,
            ..RunFacts::default()
        };
        assert!(check(&[], &facts).is_empty());
    }

    #[test]
    fn corruption_fires() {
        let facts = RunFacts {
            completed: true,
            verified: false,
            ..RunFacts::default()
        };
        let v = check(&[], &facts);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "corruption");
    }

    #[test]
    fn duplicates_without_episode_fire() {
        let facts = RunFacts {
            completed: true,
            verified: true,
            duplicates: 3,
            ..RunFacts::default()
        };
        let v = check(&[], &facts);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "unexplained_duplicates");
    }

    #[test]
    fn bounded_duplicates_after_reconnect_are_clean() {
        let facts = RunFacts {
            completed: true,
            verified: true,
            duplicates: 40,
            reconnects: 1,
            reconnect_attempts: 3,
            ..RunFacts::default()
        };
        assert!(check(&[], &facts).is_empty());
    }

    #[test]
    fn out_of_order_on_fifo_channel_fires() {
        let facts = RunFacts {
            completed: true,
            verified: true,
            out_of_order: 2,
            fifo_expected: true,
            ..RunFacts::default()
        };
        let v = check(&[], &facts);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "fifo_order");
    }

    #[test]
    fn stall_fires_only_when_expected() {
        let facts = RunFacts::default();
        let cfg = OracleConfig {
            expect_completion: true,
            ..OracleConfig::default()
        };
        let v = DeliveryOracle.check(&[], &facts, &cfg);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "stall");
        // Dropped channels excuse the stall.
        let excused = RunFacts {
            channels_dropped: 1,
            ..RunFacts::default()
        };
        assert!(DeliveryOracle.check(&[], &excused, &cfg).is_empty());
    }

    #[test]
    fn legal_status_sequences_are_clean() {
        let events = vec![
            status(10, "lost"),
            status(20, "restored"),
            status(30, "lost"),
            status(40, "dropped"),
            status(50, "restored"),
        ];
        assert!(check(&events, &RunFacts::default()).is_empty());
    }

    #[test]
    fn illegal_status_sequence_fires() {
        let events = vec![status(10, "restored")];
        let v = check(&events, &RunFacts::default());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "status_sequence");

        let double_lost = vec![status(10, "lost"), status(20, "lost")];
        let v = check(&double_lost, &RunFacts::default());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "status_sequence");
    }
}
