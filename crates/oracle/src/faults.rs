//! Fault-plan pairing oracle.
//!
//! Fuzz scenarios script every fault with its heal inside the horizon:
//! `sever` pairs with `link_up`, `burst_on` with `burst_off`,
//! `latency_spike` with `latency_clear`. With
//! [`crate::OracleConfig::faults_must_heal`] set, any link still degraded
//! when the trace ends means the fault controller lost an action — or the
//! generator emitted an unpaired plan, which would silently bias every
//! liveness check downstream. Off by default because hand-written plans
//! (and deliberately unhealed outage experiments) are legal.

use std::collections::BTreeMap;

use kmsg_telemetry::{Event, EventKind};

use crate::{trace_truncated, Oracle, OracleConfig, RunFacts, Violation};

/// See the [module docs](self).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FaultOracle;

#[derive(Default)]
struct LinkFaults {
    down: bool,
    burst: bool,
    spiked: bool,
    last_ns: u64,
}

impl Oracle for FaultOracle {
    fn check(&self, events: &[Event], facts: &RunFacts, cfg: &OracleConfig) -> Vec<Violation> {
        let mut out = Vec::new();
        if !cfg.faults_must_heal || trace_truncated(events, facts) {
            return out;
        }
        let mut links: BTreeMap<u64, LinkFaults> = BTreeMap::new();
        for ev in events {
            let EventKind::Fault { action, link } = &ev.kind else {
                continue;
            };
            let st = links.entry(*link).or_default();
            st.last_ns = ev.time_ns;
            match *action {
                "sever" => st.down = true,
                "link_up" => st.down = false,
                "burst_on" => st.burst = true,
                "burst_off" => st.burst = false,
                "latency_spike" => st.spiked = true,
                "latency_clear" => st.spiked = false,
                _ => {}
            }
        }
        for (link, st) in &links {
            let mut open = Vec::new();
            if st.down {
                open.push("down");
            }
            if st.burst {
                open.push("burst loss");
            }
            if st.spiked {
                open.push("latency spike");
            }
            if !open.is_empty() {
                out.push(Violation {
                    oracle: "faults",
                    rule: "unhealed",
                    time_ns: st.last_ns,
                    detail: format!(
                        "link {link} still degraded at trace end ({}) although the \
                         plan promised paired heals",
                        open.join(", ")
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

    fn fault(time_ns: u64, action: &'static str, link: u64) -> Event {
        Event {
            time_ns,
            kind: EventKind::Fault { action, link },
        }
    }

    fn cfg() -> OracleConfig {
        OracleConfig {
            faults_must_heal: true,
            ..OracleConfig::default()
        }
    }

    #[test]
    fn paired_faults_are_clean() {
        let events = vec![
            fault(10, "sever", 0),
            fault(10, "sever", 1),
            fault(20, "link_up", 0),
            fault(20, "link_up", 1),
            fault(30, "burst_on", 0),
            fault(40, "burst_off", 0),
            fault(50, "latency_spike", 1),
            fault(60, "latency_clear", 1),
        ];
        let v = FaultOracle.check(&events, &RunFacts::default(), &cfg());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unhealed_sever_fires() {
        let events = vec![fault(10, "sever", 3)];
        let v = FaultOracle.check(&events, &RunFacts::default(), &cfg());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "unhealed");
        assert!(v[0].detail.contains("link 3"));
    }

    #[test]
    fn disabled_by_default() {
        let events = vec![fault(10, "sever", 3)];
        let v = FaultOracle.check(&events, &RunFacts::default(), &OracleConfig::default());
        assert!(v.is_empty());
    }
}
