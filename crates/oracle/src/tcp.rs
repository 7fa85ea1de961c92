//! TCP Reno state-machine legality oracle.
//!
//! Checks the `TcpCwnd` / `TcpRto` / `TcpRetransmit` event stream of every
//! connection against the congestion-control rules the simulator's NewReno
//! model must obey:
//!
//! * **Transition shapes** — an `"rto"` transition collapses the window to
//!   one MSS and keeps `ssthresh >= 2*MSS`; a `"fast_recovery"` transition
//!   halves into `cwnd == ssthresh >= 2*MSS`; a `"recovery_exit"` deflates
//!   to at most `max(ssthresh, 2*MSS)`.
//! * **Causality** — no retransmission without a recorded loss signal: an
//!   RTO-driven resend (`fast: false`) of a data segment must coincide
//!   with its `TcpRto` event, and a fast retransmit (`fast: true`) needs a
//!   prior timeout or fast-recovery entry on the same connection. (SYN and
//!   SYN-ACK resends, `seq == 0`, are exempt: duplicate-SYN replies are
//!   legal without a timer.)
//! * **Backoff** — consecutive timeouts number `1, 2, 3, ...` and each
//!   doubles the armed RTO, capped at `max_rto`.

use kmsg_telemetry::{Event, EventKind};

use crate::{
    approx_eq, approx_le, trace_truncated, Oracle, OracleConfig, RunFacts, Violation, REL_TOL,
};

/// See the [module docs](self).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TcpOracle;

#[derive(Default)]
struct ConnState {
    /// Last recorded `TcpRto` (rto_us, consecutive, time_ns).
    last_rto: Option<(u64, u64, u64)>,
    /// The connection has a recorded loss signal (timeout or recovery
    /// entry) at or before the current event.
    loss_signal_seen: bool,
}

impl Oracle for TcpOracle {
    fn check(&self, events: &[Event], facts: &RunFacts, cfg: &OracleConfig) -> Vec<Violation> {
        let mut out = Vec::new();
        if trace_truncated(events, facts) {
            // Evicted events may hold the loss signal a later retransmit
            // relies on; checking a torn stream would false-fail.
            return out;
        }
        let mut conns: std::collections::BTreeMap<u64, ConnState> =
            std::collections::BTreeMap::new();
        let mss = cfg.mss as f64;
        for ev in events {
            match &ev.kind {
                EventKind::TcpCwnd {
                    conn,
                    cwnd,
                    ssthresh,
                    cause,
                } => {
                    let st = conns.entry(*conn).or_default();
                    match *cause {
                        "rto" => {
                            st.loss_signal_seen = true;
                            if !approx_eq(*cwnd, mss) {
                                out.push(Violation {
                                    oracle: "tcp",
                                    rule: "cwnd_rto_collapse",
                                    time_ns: ev.time_ns,
                                    detail: format!(
                                        "conn {conn}: RTO must collapse cwnd to one MSS \
                                         ({mss}), got {cwnd}"
                                    ),
                                });
                            }
                            if !approx_le(2.0 * mss, *ssthresh) {
                                out.push(Violation {
                                    oracle: "tcp",
                                    rule: "ssthresh_floor",
                                    time_ns: ev.time_ns,
                                    detail: format!(
                                        "conn {conn}: ssthresh {ssthresh} below the \
                                         2*MSS floor ({})",
                                        2.0 * mss
                                    ),
                                });
                            }
                        }
                        "fast_recovery" => {
                            st.loss_signal_seen = true;
                            if !approx_eq(*cwnd, *ssthresh) {
                                out.push(Violation {
                                    oracle: "tcp",
                                    rule: "cwnd_halving",
                                    time_ns: ev.time_ns,
                                    detail: format!(
                                        "conn {conn}: fast recovery must set cwnd to \
                                         ssthresh ({ssthresh}), got {cwnd}"
                                    ),
                                });
                            }
                            if !approx_le(2.0 * mss, *ssthresh) {
                                out.push(Violation {
                                    oracle: "tcp",
                                    rule: "ssthresh_floor",
                                    time_ns: ev.time_ns,
                                    detail: format!(
                                        "conn {conn}: ssthresh {ssthresh} below the \
                                         2*MSS floor ({})",
                                        2.0 * mss
                                    ),
                                });
                            }
                        }
                        "recovery_exit" => {
                            let cap = ssthresh.max(2.0 * mss);
                            if !approx_le(*cwnd, cap) {
                                out.push(Violation {
                                    oracle: "tcp",
                                    rule: "recovery_exit_deflate",
                                    time_ns: ev.time_ns,
                                    detail: format!(
                                        "conn {conn}: recovery exit must deflate cwnd \
                                         to <= max(ssthresh, 2*MSS) = {cap}, got {cwnd}"
                                    ),
                                });
                            }
                        }
                        _ => {}
                    }
                }
                EventKind::TcpRto {
                    conn,
                    rto_us,
                    consecutive,
                } => {
                    let st = conns.entry(*conn).or_default();
                    st.loss_signal_seen = true;
                    if *rto_us as f64 > cfg.max_rto_us as f64 * (1.0 + REL_TOL) {
                        out.push(Violation {
                            oracle: "tcp",
                            rule: "rto_cap",
                            time_ns: ev.time_ns,
                            detail: format!(
                                "conn {conn}: armed RTO {rto_us}us above the cap \
                                 {}us",
                                cfg.max_rto_us
                            ),
                        });
                    }
                    match st.last_rto {
                        Some((prev_rto, prev_consec, _)) if *consecutive == prev_consec + 1 => {
                            // No ACK progress between the two timeouts, so
                            // nothing recomputed the RTO: it must be the
                            // previous value doubled, capped at max_rto.
                            let expect = (2.0 * prev_rto as f64).min(cfg.max_rto_us as f64);
                            // The model doubles the RTO in nanoseconds but
                            // the event records truncated microseconds, so
                            // doubling the truncated value can undershoot
                            // the recorded one by 1us: allow that slack on
                            // top of the relative tolerance.
                            if (*rto_us as f64 - expect).abs() > 1.0
                                && !approx_eq(*rto_us as f64, expect)
                            {
                                out.push(Violation {
                                    oracle: "tcp",
                                    rule: "rto_backoff",
                                    time_ns: ev.time_ns,
                                    detail: format!(
                                        "conn {conn}: timeout #{consecutive} armed \
                                         {rto_us}us, expected doubling of {prev_rto}us \
                                         to {expect}us"
                                    ),
                                });
                            }
                        }
                        _ if *consecutive != 1 => {
                            // A streak either continues (handled above) or
                            // restarts at 1 after ACK progress reset it.
                            out.push(Violation {
                                oracle: "tcp",
                                rule: "rto_sequence",
                                time_ns: ev.time_ns,
                                detail: format!(
                                    "conn {conn}: timeout streak jumped to \
                                     #{consecutive} without #{} before it",
                                    consecutive.saturating_sub(1)
                                ),
                            });
                        }
                        _ => {}
                    }
                    st.last_rto = Some((*rto_us, *consecutive, ev.time_ns));
                }
                EventKind::CcWindow { conn, cause, .. } => {
                    // Non-Reno controllers (CUBIC/BBR) signal loss episodes
                    // through `CcWindow` instead of `TcpCwnd`; their
                    // retransmits are just as caused.
                    if matches!(*cause, "loss" | "rto") {
                        conns.entry(*conn).or_default().loss_signal_seen = true;
                    }
                }
                EventKind::TcpRetransmit { conn, seq, fast } => {
                    let st = conns.entry(*conn).or_default();
                    if *fast {
                        if !st.loss_signal_seen {
                            out.push(Violation {
                                oracle: "tcp",
                                rule: "fast_rexmit_cause",
                                time_ns: ev.time_ns,
                                detail: format!(
                                    "conn {conn}: fast retransmit of seq {seq} with no \
                                     prior timeout or fast-recovery entry on this \
                                     connection"
                                ),
                            });
                        }
                    } else if *seq > 0 {
                        // Data resent outside the fast path must ride an
                        // RTO that fired at this very instant. (seq 0 is
                        // the SYN/SYN-ACK, which may also be resent in
                        // reply to a duplicate SYN.)
                        let fired_now = matches!(st.last_rto, Some((_, _, t)) if t == ev.time_ns);
                        if !fired_now {
                            out.push(Violation {
                                oracle: "tcp",
                                rule: "rto_rexmit_cause",
                                time_ns: ev.time_ns,
                                detail: format!(
                                    "conn {conn}: timeout-style retransmit of seq \
                                     {seq} without a TcpRto at the same instant"
                                ),
                            });
                        }
                    }
                }
                _ => {}
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time_ns: u64, kind: EventKind) -> Event {
        Event { time_ns, kind }
    }

    fn check(events: &[Event]) -> Vec<Violation> {
        TcpOracle.check(events, &RunFacts::default(), &OracleConfig::default())
    }

    #[test]
    fn legal_rto_sequence_is_clean() {
        let events = vec![
            ev(
                100,
                EventKind::TcpRto {
                    conn: 1,
                    rto_us: 200_000,
                    consecutive: 1,
                },
            ),
            ev(
                100,
                EventKind::TcpCwnd {
                    conn: 1,
                    cwnd: 1448.0,
                    ssthresh: 2896.0,
                    cause: "rto",
                },
            ),
            ev(
                100,
                EventKind::TcpRetransmit {
                    conn: 1,
                    seq: 1,
                    fast: false,
                },
            ),
            ev(
                300_100,
                EventKind::TcpRto {
                    conn: 1,
                    rto_us: 400_000,
                    consecutive: 2,
                },
            ),
            ev(
                300_200,
                EventKind::TcpRetransmit {
                    conn: 1,
                    seq: 1,
                    fast: true,
                },
            ),
        ];
        assert!(check(&events).is_empty(), "{:?}", check(&events));
    }

    #[test]
    fn fast_retransmit_without_cause_fires() {
        let events = vec![ev(
            50,
            EventKind::TcpRetransmit {
                conn: 3,
                seq: 1449,
                fast: true,
            },
        )];
        let v = check(&events);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "fast_rexmit_cause");
    }

    #[test]
    fn syn_resend_is_exempt() {
        // A duplicate-SYN reply resends seq 0 without any timer.
        let events = vec![ev(
            10,
            EventKind::TcpRetransmit {
                conn: 2,
                seq: 0,
                fast: false,
            },
        )];
        assert!(check(&events).is_empty());
    }

    #[test]
    fn broken_backoff_fires() {
        let events = vec![
            ev(
                100,
                EventKind::TcpRto {
                    conn: 1,
                    rto_us: 200_000,
                    consecutive: 1,
                },
            ),
            ev(
                500,
                EventKind::TcpRto {
                    conn: 1,
                    rto_us: 200_000, // should have doubled
                    consecutive: 2,
                },
            ),
        ];
        let v = check(&events);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "rto_backoff");
    }

    #[test]
    fn backoff_caps_at_max_rto() {
        let cap = OracleConfig::default().max_rto_us;
        let events = vec![
            ev(
                100,
                EventKind::TcpRto {
                    conn: 1,
                    rto_us: cap,
                    consecutive: 1,
                },
            ),
            ev(
                200,
                EventKind::TcpRto {
                    conn: 1,
                    rto_us: cap,
                    consecutive: 2,
                },
            ),
        ];
        assert!(check(&events).is_empty());
    }

    #[test]
    fn missing_cwnd_collapse_fires() {
        let events = vec![
            ev(
                100,
                EventKind::TcpRto {
                    conn: 1,
                    rto_us: 200_000,
                    consecutive: 1,
                },
            ),
            ev(
                100,
                EventKind::TcpCwnd {
                    conn: 1,
                    cwnd: 14_480.0, // kept its window: illegal
                    ssthresh: 7240.0,
                    cause: "rto",
                },
            ),
        ];
        let v = check(&events);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "cwnd_rto_collapse");
    }

    #[test]
    fn truncated_trace_is_skipped() {
        let events = vec![
            ev(0, EventKind::Overflow { evicted: 10 }),
            ev(
                50,
                EventKind::TcpRetransmit {
                    conn: 3,
                    seq: 1449,
                    fast: true,
                },
            ),
        ];
        assert!(check(&events).is_empty());
    }
}
