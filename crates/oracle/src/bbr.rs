//! BBR congestion-controller legality oracle.
//!
//! Checks every connection's `BbrState` checkpoints (and the `CcWindow
//! { controller: "bbr" }` loss/RTO records) against the rules the
//! simulator's BBR model must obey:
//!
//! * **Phase sequence** — the phase machine starts in `"startup"` and may
//!   only move `startup → drain → probe_bw`; once probing it never goes
//!   back. Jumping `startup → probe_bw` — the injected `buggy_skip_drain`
//!   fault — leaves the startup queue undrained and is illegal.
//! * **Pacing-gain bound** — the recorded pacing rate never exceeds the
//!   phase's maximum gain times the recorded bottleneck-bandwidth
//!   estimate: `startup_gain` in startup, 1 in drain (the drain gain is
//!   its inverse), and the 1.25 probe gain in probe-bandwidth.
//! * **cwnd/BDP bound** — the recorded window never exceeds the phase's
//!   inflight-cap gain times the estimated BDP (bandwidth × min RTT),
//!   with the controller's 4-MSS floor as slack.
//! * **RTO collapse** — an `"rto"` `CcWindow` record collapses the window
//!   to one MSS (the estimators survive, the window does not).
//!
//! Gains come from [`OracleConfig::bbr_startup_gain`] /
//! [`OracleConfig::bbr_cwnd_gain`] and must match the run's `CcConfig`.

use kmsg_telemetry::{Event, EventKind};

use crate::{trace_truncated, Oracle, OracleConfig, RunFacts, Violation};

/// See the [module docs](self).
#[derive(Debug, Clone, Copy, Default)]
pub struct BbrOracle;

/// The highest pacing gain BBR's probe-bandwidth cycle uses.
const PROBE_BW_MAX_GAIN: f64 = 1.25;

fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0)
}

fn approx_le(a: f64, b: f64, tol: f64) -> bool {
    a <= b + tol * a.abs().max(b.abs()).max(1.0)
}

/// Phase ordinal for the legality check: a connection may only move
/// forward (or stay) in `startup(0) → drain(1) → probe_bw(2)`.
fn phase_rank(phase: &str) -> Option<u8> {
    match phase {
        "startup" => Some(0),
        "drain" => Some(1),
        "probe_bw" => Some(2),
        _ => None,
    }
}

impl Oracle for BbrOracle {
    fn name(&self) -> &'static str {
        "bbr"
    }

    fn check(&self, events: &[Event], facts: &RunFacts, cfg: &OracleConfig) -> Vec<Violation> {
        let mut out = Vec::new();
        if trace_truncated(events, facts) {
            // The first (startup) checkpoint may have been evicted.
            return out;
        }
        let mss = cfg.mss as f64;
        let tol = cfg.rel_tol;
        let mut phases: std::collections::BTreeMap<u64, &'static str> =
            std::collections::BTreeMap::new();
        for ev in events {
            match ev.kind {
                EventKind::BbrState {
                    conn,
                    phase,
                    pacing_rate_bps,
                    btl_bw_bps,
                    min_rtt_us,
                    cwnd,
                } => {
                    let Some(rank) = phase_rank(phase) else {
                        out.push(Violation {
                            oracle: "bbr",
                            rule: "phase_sequence",
                            time_ns: ev.time_ns,
                            detail: format!("conn {conn}: unknown BBR phase {phase:?}"),
                        });
                        continue;
                    };
                    match phases.get(&conn) {
                        None if rank != 0 => {
                            out.push(Violation {
                                oracle: "bbr",
                                rule: "phase_sequence",
                                time_ns: ev.time_ns,
                                detail: format!(
                                    "conn {conn}: first recorded phase is {phase:?}, \
                                     must be \"startup\""
                                ),
                            });
                        }
                        Some(prev) => {
                            let prev_rank =
                                phase_rank(prev).expect("stored phases are known");
                            // Forward by at most one step, or stay put.
                            if rank != prev_rank && rank != prev_rank + 1 {
                                out.push(Violation {
                                    oracle: "bbr",
                                    rule: "phase_sequence",
                                    time_ns: ev.time_ns,
                                    detail: format!(
                                        "conn {conn}: illegal phase transition \
                                         {prev:?} -> {phase:?}"
                                    ),
                                });
                            }
                        }
                        None => {}
                    }
                    phases.insert(conn, phase);
                    if btl_bw_bps > 0.0 {
                        let max_gain = match phase {
                            "startup" => cfg.bbr_startup_gain,
                            "drain" => 1.0,
                            _ => PROBE_BW_MAX_GAIN,
                        };
                        if !approx_le(pacing_rate_bps, max_gain * btl_bw_bps, tol) {
                            out.push(Violation {
                                oracle: "bbr",
                                rule: "pacing_gain_bound",
                                time_ns: ev.time_ns,
                                detail: format!(
                                    "conn {conn}: pacing rate {pacing_rate_bps} B/s \
                                     above {max_gain} x btl_bw ({btl_bw_bps} B/s) in \
                                     phase {phase:?}"
                                ),
                            });
                        }
                        if min_rtt_us > 0 {
                            // `min_rtt_us` is the truncated (floored)
                            // microsecond reading; the controller computed
                            // its window from the untruncated value, so
                            // bound against the ceiling.
                            let bdp = btl_bw_bps * ((min_rtt_us + 1) as f64 / 1e6);
                            let cwnd_gain = if phase == "startup" {
                                cfg.bbr_startup_gain
                            } else {
                                cfg.bbr_cwnd_gain
                            };
                            let bound = (cwnd_gain * bdp).max(4.0 * mss);
                            if !approx_le(cwnd, bound, tol) {
                                out.push(Violation {
                                    oracle: "bbr",
                                    rule: "cwnd_bdp_bound",
                                    time_ns: ev.time_ns,
                                    detail: format!(
                                        "conn {conn}: cwnd {cwnd} above \
                                         {cwnd_gain} x BDP ({bdp} bytes) in phase \
                                         {phase:?}"
                                    ),
                                });
                            }
                        }
                    }
                }
                EventKind::CcWindow {
                    conn,
                    controller: "bbr",
                    cause: "rto",
                    cwnd,
                    ..
                } if !approx_eq(cwnd, mss, tol) => {
                    out.push(Violation {
                        oracle: "bbr",
                        rule: "rto_collapse",
                        time_ns: ev.time_ns,
                        detail: format!(
                            "conn {conn}: RTO must collapse cwnd to one MSS \
                             ({mss}), got {cwnd}"
                        ),
                    });
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

    fn state(
        time_ns: u64,
        phase: &'static str,
        pacing_rate_bps: f64,
        btl_bw_bps: f64,
        min_rtt_us: u64,
        cwnd: f64,
    ) -> Event {
        Event {
            time_ns,
            kind: EventKind::BbrState {
                conn: 1,
                phase,
                pacing_rate_bps,
                btl_bw_bps,
                min_rtt_us,
                cwnd,
            },
        }
    }

    fn check(events: &[Event]) -> Vec<Violation> {
        BbrOracle.check(events, &RunFacts::default(), &OracleConfig::default())
    }

    #[test]
    fn legal_phase_walk_is_clean() {
        let bw = 1e7;
        let rtt = 50_000; // 50 ms -> BDP = 500 kB
        let events = vec![
            state(0, "startup", 0.0, 0.0, 0, 14_480.0),
            state(1_000, "startup", 2.885 * bw, bw, rtt, 2.885 * 5e5),
            state(2_000, "drain", bw / 2.885, bw, rtt, 2.0 * 5e5),
            state(3_000, "probe_bw", 1.25 * bw, bw, rtt, 2.0 * 5e5),
            state(4_000, "probe_bw", 0.75 * bw, bw, rtt, 2.0 * 5e5),
        ];
        assert!(check(&events).is_empty(), "{:?}", check(&events));
    }

    #[test]
    fn skipping_drain_fires() {
        let bw = 1e7;
        let events = vec![
            state(0, "startup", 0.0, 0.0, 0, 14_480.0),
            state(1_000, "probe_bw", 1.25 * bw, bw, 50_000, 1e6),
        ];
        let v = check(&events);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "phase_sequence");
    }

    #[test]
    fn starting_outside_startup_fires() {
        let v = check(&[state(0, "drain", 0.0, 0.0, 0, 14_480.0)]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "phase_sequence");
    }

    #[test]
    fn pacing_above_gain_fires() {
        let bw = 1e7;
        let events = vec![
            state(0, "startup", 0.0, 0.0, 0, 14_480.0),
            state(1_000, "startup", 4.0 * bw, bw, 0, 14_480.0),
        ];
        let v = check(&events);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "pacing_gain_bound");
    }

    #[test]
    fn cwnd_above_bdp_gain_fires() {
        let bw = 1e7;
        let rtt = 50_000; // BDP 500 kB, steady-state cap 1 MB
        let events = vec![
            state(0, "startup", 0.0, 0.0, 0, 14_480.0),
            state(1_000, "drain", bw / 2.885, bw, rtt, 4e6),
        ];
        let v = check(&events);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "cwnd_bdp_bound");
    }

    #[test]
    fn rto_must_collapse_window() {
        let events = vec![Event {
            time_ns: 10,
            kind: EventKind::CcWindow {
                conn: 1,
                controller: "bbr",
                cause: "rto",
                prev_cwnd: 1e6,
                cwnd: 1e6,
                ssthresh: f64::INFINITY,
                w_max: 0.0,
            },
        }];
        let v = check(&events);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "rto_collapse");
    }

    #[test]
    fn truncated_trace_is_skipped() {
        let events = vec![
            Event {
                time_ns: 0,
                kind: EventKind::Overflow { evicted: 2 },
            },
            state(1_000, "probe_bw", 0.0, 0.0, 0, 14_480.0),
        ];
        assert!(check(&events).is_empty());
    }
}
