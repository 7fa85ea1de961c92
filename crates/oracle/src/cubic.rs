//! CUBIC congestion-controller legality oracle.
//!
//! Checks every connection's `CcWindow { controller: "cubic" }` event
//! stream against the rules the simulator's CUBIC model (RFC 8312 shape,
//! pure cubic region) must obey:
//!
//! * **β on loss** — a `"loss"` transition sets
//!   `cwnd == ssthresh == max(β·prev_cwnd, 2·MSS)`; an `"rto"` transition
//!   additionally collapses `cwnd` to one MSS.
//! * **Fast convergence** — when a loss strikes below the previous
//!   `W_max`, the new `W_max` must be `prev_cwnd·(2−β)/2`; at or above
//!   it, `W_max = prev_cwnd`. The injected
//!   `buggy_no_fast_convergence` fault violates exactly this rule.
//! * **Epoch growth** — every congestion-avoidance epoch opens with an
//!   `"epoch"` anchor; subsequent `"growth"` checkpoints are monotone
//!   non-decreasing and never exceed the cubic curve
//!   `W(t) = W_max + C·MSS·(t−K)³` (with `K = ∛((W_max−W_epoch)/(C·MSS))`
//!   recomputed from the anchor), up to one MSS of slack.
//!
//! Parameters (`C`, `β`) are the simulator's `kmsg_netsim::cc::CUBIC_C`
//! and `CUBIC_BETA`, restated here (this crate does not depend on the
//! simulator); a unit test checks that the two agree.

use kmsg_telemetry::{Event, EventKind};

use crate::{approx_eq, approx_le, trace_truncated, Oracle, OracleConfig, RunFacts, Violation};

/// CUBIC scaling constant `C` the run's controllers used, in MSS/s³.
const CUBIC_C: f64 = 0.4;

/// CUBIC multiplicative-decrease factor `β`.
const CUBIC_BETA: f64 = 0.7;

/// See the [module docs](self).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CubicOracle;

#[derive(Default)]
struct ConnState {
    /// `W_max` carried by the connection's most recent cubic event.
    last_w_max: Option<f64>,
    /// Open epoch anchor: (time_ns, epoch cwnd, epoch `W_max`).
    epoch: Option<(u64, f64, f64)>,
    /// cwnd at the last growth checkpoint inside the open epoch.
    last_growth: f64,
}

impl Oracle for CubicOracle {
    fn check(&self, events: &[Event], facts: &RunFacts, cfg: &OracleConfig) -> Vec<Violation> {
        let mut out = Vec::new();
        if trace_truncated(events, facts) {
            // The epoch anchor or the prior W_max may have been evicted.
            return out;
        }
        let mss = cfg.mss as f64;
        let mut conns: std::collections::BTreeMap<u64, ConnState> =
            std::collections::BTreeMap::new();
        for ev in events {
            let &EventKind::CcWindow {
                conn,
                controller: "cubic",
                cause,
                prev_cwnd,
                cwnd,
                ssthresh,
                w_max,
            } = &ev.kind
            else {
                continue;
            };
            let st = conns.entry(conn).or_default();
            match cause {
                "epoch" => {
                    // The curve anchor can only sit at or above the window
                    // it anchors (W_max is bumped to cwnd when the window
                    // already grew past the old maximum).
                    if !approx_le(cwnd, w_max) {
                        out.push(Violation {
                            oracle: "cubic",
                            rule: "epoch_anchor",
                            time_ns: ev.time_ns,
                            detail: format!(
                                "conn {conn}: epoch opened with W_max {w_max} below \
                                 its own window {cwnd}"
                            ),
                        });
                    }
                    st.epoch = Some((ev.time_ns, cwnd, w_max));
                    st.last_growth = cwnd;
                    st.last_w_max = Some(w_max);
                }
                "growth" => {
                    let Some((t0, w_epoch, epoch_w_max)) = st.epoch else {
                        out.push(Violation {
                            oracle: "cubic",
                            rule: "growth_outside_epoch",
                            time_ns: ev.time_ns,
                            detail: format!(
                                "conn {conn}: growth checkpoint with no open \
                                 congestion-avoidance epoch"
                            ),
                        });
                        continue;
                    };
                    if !approx_le(st.last_growth, cwnd) {
                        out.push(Violation {
                            oracle: "cubic",
                            rule: "growth_monotone",
                            time_ns: ev.time_ns,
                            detail: format!(
                                "conn {conn}: window shrank within an epoch \
                                 ({} -> {cwnd})",
                                st.last_growth
                            ),
                        });
                    }
                    // Recompute the curve from the anchor and bound the
                    // checkpoint by it (one MSS of slack: the controller
                    // clamps each step at the target, but the checkpoint
                    // fires after the step).
                    let k = ((epoch_w_max - w_epoch) / (CUBIC_C * mss)).cbrt();
                    let t = (ev.time_ns - t0) as f64 / 1e9;
                    let target = epoch_w_max + CUBIC_C * mss * (t - k).powi(3);
                    let bound = target.max(w_epoch) + mss;
                    if !approx_le(cwnd, bound) {
                        out.push(Violation {
                            oracle: "cubic",
                            rule: "growth_bound",
                            time_ns: ev.time_ns,
                            detail: format!(
                                "conn {conn}: window {cwnd} above the cubic curve \
                                 ({bound} at t={t:.3}s since epoch)"
                            ),
                        });
                    }
                    st.last_growth = cwnd;
                }
                "loss" | "rto" => {
                    let expect_ssthresh = (CUBIC_BETA * prev_cwnd).max(2.0 * mss);
                    if !approx_eq(ssthresh, expect_ssthresh) {
                        out.push(Violation {
                            oracle: "cubic",
                            rule: "beta_on_loss",
                            time_ns: ev.time_ns,
                            detail: format!(
                                "conn {conn}: {cause} from cwnd {prev_cwnd} must set \
                                 ssthresh to max(β·cwnd, 2·MSS) = {expect_ssthresh}, \
                                 got {ssthresh}"
                            ),
                        });
                    }
                    let expect_cwnd = if cause == "rto" { mss } else { expect_ssthresh };
                    if !approx_eq(cwnd, expect_cwnd) {
                        out.push(Violation {
                            oracle: "cubic",
                            rule: if cause == "rto" {
                                "rto_collapse"
                            } else {
                                "beta_on_loss"
                            },
                            time_ns: ev.time_ns,
                            detail: format!(
                                "conn {conn}: {cause} must set cwnd to {expect_cwnd}, \
                                 got {cwnd}"
                            ),
                        });
                    }
                    // Fast-convergence W_max accounting. Near the boundary
                    // (prev_cwnd ≈ W_max) the controller's strict float
                    // compare could go either way, so accept both values
                    // inside a narrow band.
                    let fast = prev_cwnd * (2.0 - CUBIC_BETA) / 2.0;
                    let expected_ok = match st.last_w_max {
                        Some(prev_max) if prev_cwnd < prev_max * (1.0 - 1e-9) => {
                            approx_eq(w_max, fast)
                        }
                        Some(prev_max) if prev_cwnd > prev_max * (1.0 + 1e-9) => {
                            approx_eq(w_max, prev_cwnd)
                        }
                        Some(_) => approx_eq(w_max, fast) || approx_eq(w_max, prev_cwnd),
                        // First reduction ever: W_max starts at the lost
                        // window.
                        None => approx_eq(w_max, prev_cwnd),
                    };
                    if !expected_ok {
                        out.push(Violation {
                            oracle: "cubic",
                            rule: "fast_convergence",
                            time_ns: ev.time_ns,
                            detail: format!(
                                "conn {conn}: {cause} from cwnd {prev_cwnd} (previous \
                                 W_max {:?}) recorded W_max {w_max}; expected \
                                 {fast} below the old maximum, else {prev_cwnd}",
                                st.last_w_max
                            ),
                        });
                    }
                    st.epoch = None;
                    st.last_w_max = Some(w_max);
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

    #[test]
    fn constants_match_the_simulator() {
        assert_eq!(CUBIC_C, kmsg_netsim::cc::CUBIC_C);
        assert_eq!(CUBIC_BETA, kmsg_netsim::cc::CUBIC_BETA);
    }

    fn ev(time_ns: u64, kind: EventKind) -> Event {
        Event { time_ns, kind }
    }

    fn cc(
        time_ns: u64,
        cause: &'static str,
        prev_cwnd: f64,
        cwnd: f64,
        ssthresh: f64,
        w_max: f64,
    ) -> Event {
        ev(
            time_ns,
            EventKind::CcWindow {
                conn: 1,
                controller: "cubic",
                cause,
                prev_cwnd,
                cwnd,
                ssthresh,
                w_max,
            },
        )
    }

    fn check(events: &[Event]) -> Vec<Violation> {
        CubicOracle.check(events, &RunFacts::default(), &OracleConfig::default())
    }

    const MSS: f64 = 1448.0;

    #[test]
    fn legal_loss_epoch_growth_sequence_is_clean() {
        let w = 100.0 * MSS;
        let after = (0.7 * w).max(2.0 * MSS);
        let events = vec![
            cc(1_000, "loss", w, after, after, w),
            // Epoch anchored at the reduced window.
            cc(2_000, "epoch", after, after, after, w),
            // A modest growth step well under the curve.
            cc(500_000_000, "growth", after, after + MSS, after, w),
        ];
        assert!(check(&events).is_empty(), "{:?}", check(&events));
    }

    #[test]
    fn wrong_beta_fires() {
        let w = 100.0 * MSS;
        let events = vec![cc(1_000, "loss", w, 0.5 * w, 0.5 * w, w)];
        let v = check(&events);
        assert!(
            v.iter().any(|v| v.rule == "beta_on_loss"),
            "halving instead of β=0.7 must fire: {v:?}"
        );
    }

    #[test]
    fn skipped_fast_convergence_fires() {
        let w = 100.0 * MSS;
        let after = 0.7 * w;
        let second = 0.8 * w; // lost again below the first W_max
        let events = vec![
            cc(1_000, "loss", w, after, after, w),
            // Legal: W_max should shrink to 0.8·w·(2−β)/2 = 0.52·w.
            cc(2_000, "loss", second, 0.7 * second, 0.7 * second, second),
        ];
        let v = check(&events);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "fast_convergence");
    }

    #[test]
    fn growth_above_curve_fires() {
        let w = 100.0 * MSS;
        let after = 0.7 * w;
        let events = vec![
            cc(1_000, "loss", w, after, after, w),
            cc(2_000, "epoch", after, after, after, w),
            // 1 ms into the epoch the curve is far below 2·W_max.
            cc(3_000_000, "growth", after, 2.0 * w, after, w),
        ];
        let v = check(&events);
        assert!(v.iter().any(|v| v.rule == "growth_bound"), "{v:?}");
    }

    #[test]
    fn growth_without_epoch_fires() {
        let events = vec![cc(
            1_000,
            "growth",
            10.0 * MSS,
            11.0 * MSS,
            5.0 * MSS,
            20.0 * MSS,
        )];
        let v = check(&events);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "growth_outside_epoch");
    }

    #[test]
    fn rto_collapse_checked() {
        let w = 50.0 * MSS;
        let events = vec![cc(1_000, "rto", w, w, 0.7 * w, w)];
        let v = check(&events);
        assert!(v.iter().any(|v| v.rule == "rto_collapse"), "{v:?}");
    }

    #[test]
    fn truncated_trace_is_skipped() {
        let events = vec![
            ev(0, EventKind::Overflow { evicted: 5 }),
            cc(
                1_000,
                "growth",
                10.0 * MSS,
                11.0 * MSS,
                5.0 * MSS,
                20.0 * MSS,
            ),
        ];
        assert!(check(&events).is_empty());
    }
}
