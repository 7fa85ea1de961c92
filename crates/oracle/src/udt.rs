//! UDT DAIMD rate-control oracle.
//!
//! The simulator's UDT sender mutates its inter-packet period in exactly
//! two places, both recorded as `UdtRate` events: the per-SYN additive
//! increase (which can only shrink the period, clamped to the 1 µs floor)
//! and the NAK-driven decrease (which multiplies it by exactly 1.125, once
//! per loss epoch). The oracle replays the per-connection event stream and
//! checks:
//!
//! * the period never drops below the 1 µs floor;
//! * the reported rate is consistent with the period (`rate = 1e6 /
//!   period`);
//! * `"syn_increase"` never grows the period;
//! * `"nak_decrease"` multiplies the previous period by 1.125.
//!
//! The first event of a connection has no recorded predecessor (the
//! initial period comes from `UdtConfig::initial_rate_pps`), so relational
//! checks start from the second event.

use kmsg_telemetry::{Event, EventKind};

use crate::{trace_truncated, Oracle, OracleConfig, RunFacts, Violation};

/// See the [module docs](self).
#[derive(Debug, Clone, Copy, Default)]
pub struct UdtOracle;

/// NAK-driven multiplicative decrease factor (UDT's 1/0.8888... ≈ 1.125).
pub const NAK_DECREASE_FACTOR: f64 = 1.125;

/// Lower bound on the inter-packet sending period, microseconds.
pub const PERIOD_FLOOR_US: f64 = 1.0;

impl Oracle for UdtOracle {
    fn name(&self) -> &'static str {
        "udt"
    }

    fn check(&self, events: &[Event], facts: &RunFacts, cfg: &OracleConfig) -> Vec<Violation> {
        let mut out = Vec::new();
        if trace_truncated(events, facts) {
            return out;
        }
        let tol = cfg.rel_tol;
        let mut last_period: std::collections::BTreeMap<u64, f64> =
            std::collections::BTreeMap::new();
        for ev in events {
            let EventKind::UdtRate {
                conn,
                period_us,
                rate_pps,
                cause,
            } = &ev.kind
            else {
                continue;
            };
            if *period_us < PERIOD_FLOOR_US * (1.0 - tol) {
                out.push(Violation {
                    oracle: "udt",
                    rule: "period_floor",
                    time_ns: ev.time_ns,
                    detail: format!(
                        "conn {conn}: sending period {period_us}us below the \
                         {PERIOD_FLOOR_US}us floor"
                    ),
                });
            }
            let implied = 1e6 / period_us;
            if (rate_pps - implied).abs() > implied.abs().max(1.0) * 1e-9 {
                out.push(Violation {
                    oracle: "udt",
                    rule: "rate_period_consistency",
                    time_ns: ev.time_ns,
                    detail: format!(
                        "conn {conn}: rate {rate_pps}pps inconsistent with period \
                         {period_us}us (implies {implied}pps)"
                    ),
                });
            }
            if let Some(prev) = last_period.get(conn) {
                match *cause {
                    "syn_increase" if *period_us > prev * (1.0 + tol) => {
                        out.push(Violation {
                            oracle: "udt",
                            rule: "increase_monotone",
                            time_ns: ev.time_ns,
                            detail: format!(
                                "conn {conn}: SYN increase grew the period \
                                     {prev}us -> {period_us}us"
                            ),
                        });
                    }
                    "nak_decrease" => {
                        let expect = prev * NAK_DECREASE_FACTOR;
                        if (period_us - expect).abs() > expect.abs() * 1e-9 {
                            out.push(Violation {
                                oracle: "udt",
                                rule: "nak_decrease_factor",
                                time_ns: ev.time_ns,
                                detail: format!(
                                    "conn {conn}: NAK decrease moved the period \
                                     {prev}us -> {period_us}us, expected x{NAK_DECREASE_FACTOR} \
                                     = {expect}us"
                                ),
                            });
                        }
                    }
                    _ => {}
                }
            }
            last_period.insert(*conn, *period_us);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rate(time_ns: u64, conn: u64, period_us: f64, cause: &'static str) -> Event {
        Event {
            time_ns,
            kind: EventKind::UdtRate {
                conn,
                period_us,
                rate_pps: 1e6 / period_us,
                cause,
            },
        }
    }

    fn check(events: &[Event]) -> Vec<Violation> {
        UdtOracle.check(events, &RunFacts::default(), &OracleConfig::default())
    }

    #[test]
    fn legal_daimd_stream_is_clean() {
        let events = vec![
            rate(100, 1, 100.0, "syn_increase"),
            rate(200, 1, 80.0, "syn_increase"),
            rate(300, 1, 80.0 * NAK_DECREASE_FACTOR, "nak_decrease"),
            rate(400, 1, 85.0, "syn_increase"),
        ];
        assert!(check(&events).is_empty(), "{:?}", check(&events));
    }

    #[test]
    fn period_floor_violation_fires() {
        let events = vec![rate(100, 1, 0.5, "syn_increase")];
        let v = check(&events);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "period_floor");
    }

    #[test]
    fn growing_increase_fires() {
        let events = vec![
            rate(100, 1, 100.0, "syn_increase"),
            rate(200, 1, 120.0, "syn_increase"),
        ];
        let v = check(&events);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "increase_monotone");
    }

    #[test]
    fn wrong_decrease_factor_fires() {
        let events = vec![
            rate(100, 1, 100.0, "syn_increase"),
            rate(200, 1, 150.0, "nak_decrease"), // x1.5 instead of x1.125
        ];
        let v = check(&events);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "nak_decrease_factor");
    }

    #[test]
    fn inconsistent_rate_fires() {
        let events = vec![Event {
            time_ns: 10,
            kind: EventKind::UdtRate {
                conn: 1,
                period_us: 100.0,
                rate_pps: 5000.0, // should be 10_000
                cause: "syn_increase",
            },
        }];
        let v = check(&events);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "rate_period_consistency");
    }

    #[test]
    fn connections_are_independent() {
        // conn 2's first event must not be compared against conn 1's.
        let events = vec![
            rate(100, 1, 50.0, "syn_increase"),
            rate(200, 2, 200.0, "syn_increase"),
        ];
        assert!(check(&events).is_empty());
    }
}
