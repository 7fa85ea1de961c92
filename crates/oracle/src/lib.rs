//! # kmsg-oracle — protocol invariant oracles for the simulation fuzzer
//!
//! The deterministic simulator (kmsg-netsim) stamps every interesting
//! protocol transition into the flight recorder (kmsg-telemetry). This
//! crate closes the loop, FoundationDB-style: after a run, the **oracles**
//! here replay the recorded event stream and assert protocol invariants
//! that must hold on *every* legal execution — regardless of topology,
//! loss pattern or fault schedule. A fuzz driver (`kmsg-bench`'s `fuzz`
//! binary) generates seeded scenarios, runs them, applies the oracles and,
//! on violation, shrinks the scenario to a minimal replayable artifact.
//!
//! The oracles:
//!
//! * [`TcpOracle`] — Reno state-machine legality: cwnd/ssthresh
//!   transitions, no retransmit without a recorded timeout or dup-ACK
//!   cause, RTO backoff doubles monotonically up to the cap.
//! * [`UdtOracle`] — DAIMD rate bounds: the sending period never drops
//!   below the 1 µs floor, increases only shrink it, each NAK-driven
//!   decrease multiplies it by exactly 1.125.
//! * [`ConservationOracle`] — link conservation: every packet the tracer
//!   saw sent is eventually delivered, dropped with a reason, or still
//!   plausibly in flight at the end of the trace — none vanish.
//! * [`DeliveryOracle`] — channel supervision: completed transfers verify,
//!   duplicates stay bounded by the at-least-once redelivery budget, FIFO
//!   order holds per channel, and `ConnStatus` transitions are legal.
//! * [`FaultOracle`] — scripted fault plans that promise to heal actually
//!   do: every `sever`/`link_down`/`burst_on`/`latency_spike` is paired
//!   with its heal on the same link (opt-in via
//!   [`OracleConfig::faults_must_heal`]).
//! * [`SpanOracle`] — causal-span lifecycle legality: opens and closes
//!   balance, children nest inside their parents on the same trace,
//!   instants close at their open time, and TCP retransmits join back to
//!   the `seg` span of the segment's first transmission.
//! * [`OverlayOracle`] — pub/sub overlay routing: relay paths are
//!   loop-free (no `ttl_drop`, no revisited node in a packed path),
//!   delivery is at-most-once per subscriber under reroute/requeue races,
//!   nothing is delivered that was never published, and the gossiped
//!   link-state tables reconverge after every heal
//!   ([`OverlayFacts`]).
//! * [`CubicOracle`] — CUBIC controller legality over `CcWindow` events:
//!   β-bounded multiplicative decrease, fast-convergence `W_max`
//!   accounting, and epoch growth that stays monotone on or under the
//!   cubic curve `C·(t−K)³ + W_max`.
//! * [`BbrOracle`] — BBR controller legality over `BbrState`/`CcWindow`
//!   events: the startup → drain → probe-bandwidth phase machine never
//!   skips drain, pacing rate stays within the phase gain × estimated
//!   bottleneck bandwidth, and cwnd within the inflight-cap gain × BDP.
//!
//! Oracles consume the **typed** event stream
//! ([`kmsg_telemetry::Recorder::events`] /
//! [`kmsg_telemetry::Recorder::for_each_event`]) plus a small set of
//! end-of-run [`RunFacts`] that the trace alone cannot show (delivery
//! verification, dedup counters). Traces truncated by ring eviction carry
//! an [`EventKind::Overflow`] marker; stream-shape oracles skip those
//! instead of false-failing.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bbr;
pub mod conservation;
pub mod cubic;
pub mod delivery;
pub mod faults;
pub mod overlay;
pub mod shrink;
pub mod spans;
pub mod tcp;
pub mod udt;

pub use bbr::BbrOracle;
pub use conservation::ConservationOracle;
pub use cubic::CubicOracle;
pub use delivery::DeliveryOracle;
pub use faults::FaultOracle;
pub use overlay::OverlayOracle;
pub use shrink::{minimize, Shrinkable};
pub use spans::SpanOracle;
pub use tcp::TcpOracle;
pub use udt::UdtOracle;

use kmsg_telemetry::{Event, EventKind};

/// One invariant violation found in a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Name of the oracle that fired (stable label).
    pub oracle: &'static str,
    /// Stable rule identifier within the oracle.
    pub rule: &'static str,
    /// Virtual time of the offending event (ns), 0 for end-of-run facts.
    pub time_ns: u64,
    /// Human-readable description with the offending values.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}/{}] t={}ns {}",
            self.oracle, self.rule, self.time_ns, self.detail
        )
    }
}

/// Static knowledge an oracle needs about the run's configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleConfig {
    /// TCP maximum segment size in bytes (`TcpConfig::mss`).
    pub mss: u64,
    /// TCP RTO upper bound in microseconds (`TcpConfig::max_rto`).
    pub max_rto_us: u64,
    /// Relative tolerance for floating-point comparisons.
    pub rel_tol: f64,
    /// How long after its `sent` trace a packet may legitimately still be
    /// in flight when the trace ends (queue drain + propagation + spikes).
    pub drain_grace_ns: u64,
    /// Upper bound on receiver-observed duplicates per supervision episode
    /// (reconnect, failover or channel drop) — the at-least-once
    /// redelivery window.
    pub dedup_window: u64,
    /// The workload is expected to finish inside the horizon; a
    /// non-completed run with healthy channels is a stall violation.
    pub expect_completion: bool,
    /// Every fault action in the trace must be healed before it ends
    /// (fuzz scenarios script paired heals; hand-written plans may not).
    pub faults_must_heal: bool,
    /// CUBIC scaling constant `C` the run's controllers used
    /// (`CcConfig::cubic_c`), in MSS/s³.
    pub cubic_c: f64,
    /// CUBIC multiplicative-decrease factor `β` (`CcConfig::cubic_beta`).
    pub cubic_beta: f64,
    /// BBR startup pacing/cwnd gain (`CcConfig::bbr_startup_gain`).
    pub bbr_startup_gain: f64,
    /// BBR steady-state inflight-cap gain (`CcConfig::bbr_cwnd_gain`).
    pub bbr_cwnd_gain: f64,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            mss: 1448,
            max_rto_us: 60_000_000,
            rel_tol: 1e-6,
            drain_grace_ns: 5_000_000_000,
            dedup_window: 4096,
            expect_completion: false,
            faults_must_heal: false,
            cubic_c: 0.4,
            cubic_beta: 0.7,
            bbr_startup_gain: 2.885,
            bbr_cwnd_gain: 2.0,
        }
    }
}

/// End-of-run facts the event stream cannot show: did the workload
/// complete, did the payload verify, and what did the middleware's
/// supervision counters end at. The fuzz driver fills this from
/// `ExperimentResult`; protocol-level tests can leave it defaulted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunFacts {
    /// The workload reached its completion condition inside the horizon.
    pub completed: bool,
    /// The delivered payload matched the sent payload byte-for-byte.
    pub verified: bool,
    /// Receiver-side duplicate chunks absorbed by session dedup.
    pub duplicates: u64,
    /// Receiver-side chunks that arrived below the highest seen offset
    /// without being duplicates (out-of-order arrivals).
    pub out_of_order: u64,
    /// Channels the middleware successfully re-established.
    pub reconnects: u64,
    /// Total redial attempts across all supervision episodes.
    pub reconnect_attempts: u64,
    /// Channels that exhausted their reconnect budget.
    pub channels_dropped: u64,
    /// DATA frames rerouted to a surviving transport.
    pub failovers: u64,
    /// Live channels recycled onto a different congestion controller by
    /// the stack policy (each is an at-least-once redelivery episode,
    /// like a reconnect).
    pub controller_swaps: u64,
    /// The workload used a single FIFO channel, so in-order delivery is
    /// expected when no supervision episode occurred. (DATA stripes over
    /// two transports, where reordering is by design.)
    pub fifo_expected: bool,
    /// `Recorder::evicted()` after the run: nonzero means the trace lost
    /// its oldest events and stream-shape oracles must skip.
    pub evicted_events: u64,
    /// End-of-run facts from a pub/sub overlay run, `None` when the
    /// scenario ran no overlay (the [`OverlayOracle`] fact rules then
    /// stay silent; its stream rules always apply).
    pub overlay: Option<OverlayFacts>,
    /// Live slots in the fabric's in-flight packet pool when the run was
    /// sampled (`None` when the runner didn't measure it). The
    /// conservation oracle cross-checks this against the trace's own
    /// in-flight count: every extra slot is a leak, every missing one a
    /// double free.
    pub pool_live_at_end: Option<u64>,
}

/// End-of-run summary of a pub/sub overlay run, captured by the scenario
/// runner after its settle window.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OverlayFacts {
    /// Overlay nodes in the mesh.
    pub nodes: u64,
    /// Messages published across all nodes.
    pub published: u64,
    /// Deliveries the subscription tables called for (per-subscriber).
    pub expected_deliveries: u64,
    /// Deliveries that actually reached subscriber applications.
    pub delivered: u64,
    /// Duplicate copies absorbed by receiver-side dedup.
    pub duplicates: u64,
    /// Publishes that found no usable route for some subscriber.
    pub no_route: u64,
    /// All nodes reported the same link-state/subscription table digest
    /// at the end of the settle window.
    pub converged: bool,
}

/// Whether the event stream is incomplete (ring evicted events mid-run or
/// a shrink left an [`EventKind::Overflow`] marker).
#[must_use]
pub fn trace_truncated(events: &[Event], facts: &RunFacts) -> bool {
    facts.evicted_events > 0
        || events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Overflow { .. }))
}

/// An invariant checker over a recorded run.
pub trait Oracle {
    /// Stable oracle name (used in verdicts and artifacts).
    fn name(&self) -> &'static str;
    /// Returns every violation found; empty means the trace is clean.
    fn check(&self, events: &[Event], facts: &RunFacts, cfg: &OracleConfig) -> Vec<Violation>;
}

/// The full oracle suite in a fixed, deterministic order.
#[must_use]
pub fn suite() -> Vec<Box<dyn Oracle>> {
    vec![
        Box::new(TcpOracle),
        Box::new(UdtOracle),
        Box::new(ConservationOracle),
        Box::new(DeliveryOracle),
        Box::new(FaultOracle),
        Box::new(SpanOracle),
        Box::new(OverlayOracle),
        Box::new(CubicOracle),
        Box::new(BbrOracle),
    ]
}

/// Runs every oracle in [`suite`] over the trace and returns all
/// violations, in suite order then trace order.
#[must_use]
pub fn check_all(events: &[Event], facts: &RunFacts, cfg: &OracleConfig) -> Vec<Violation> {
    let mut out = Vec::new();
    for oracle in suite() {
        out.extend(oracle.check(events, facts, cfg));
    }
    out
}

/// Renders a verdict block for a run: `"ok"` for a clean trace, otherwise
/// one line per violation. Deterministic: equal inputs yield equal text,
/// which the same-seed byte-identity tests rely on.
#[must_use]
pub fn render_verdict(violations: &[Violation]) -> String {
    if violations.is_empty() {
        return "ok\n".to_string();
    }
    let mut out = String::new();
    for v in violations {
        out.push_str(&format!("{v}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_trace_is_clean() {
        let violations = check_all(&[], &RunFacts::default(), &OracleConfig::default());
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(render_verdict(&violations), "ok\n");
    }

    #[test]
    fn truncation_detected_from_marker_and_counter() {
        let facts = RunFacts::default();
        let marked = vec![Event {
            time_ns: 0,
            kind: EventKind::Overflow { evicted: 3 },
        }];
        assert!(trace_truncated(&marked, &facts));
        assert!(!trace_truncated(&[], &facts));
        let evicted = RunFacts {
            evicted_events: 1,
            ..RunFacts::default()
        };
        assert!(trace_truncated(&[], &evicted));
    }

    #[test]
    fn verdict_rendering_is_deterministic() {
        let v = Violation {
            oracle: "tcp",
            rule: "rto_backoff",
            time_ns: 42,
            detail: "rto went down".to_string(),
        };
        let a = render_verdict(std::slice::from_ref(&v));
        let b = render_verdict(&[v]);
        assert_eq!(a, b);
        assert!(a.contains("[tcp/rto_backoff] t=42ns"));
    }
}
