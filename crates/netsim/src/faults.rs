//! Scripted fault injection: chaos plans driven off the timing wheel.
//!
//! A [`FaultPlan`] is a seed-independent, fully scripted schedule of link
//! faults — flaps, bidirectional partitions between node sets, Gilbert–
//! Elliott loss-burst episodes and latency spikes. Installing a plan with
//! [`FaultController::install`] schedules one timing-wheel event per entry;
//! each application is recorded into the per-Sim flight recorder
//! ([`EventKind::Fault`]), so a chaos run is replayable byte-for-byte from
//! the simulation seed.
//!
//! Partitions use [`Link::sever`](crate::link::Link::sever) rather than
//! `set_up(false)`: a partition is carrier loss, and packets already in
//! flight across the cut must die rather than arrive after it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use kmsg_telemetry::EventKind;

use crate::link::{GeConfig, LinkId};
use crate::network::Network;
use crate::packet::NodeId;
use crate::time::SimTime;

/// One scripted fault action.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum FaultAction {
    /// Bring a link back up.
    LinkUp(LinkId),
    /// Sever a link: down + backlog cleared + in-flight packets killed.
    Sever(LinkId),
    /// Sever every link on the routes between the two node sets, in both
    /// directions. Routes are resolved when the action fires.
    Partition {
        /// One side of the cut.
        a: Vec<NodeId>,
        /// The other side.
        b: Vec<NodeId>,
    },
    /// Restore every link on the routes between the two node sets.
    Heal {
        /// One side of the healed cut.
        a: Vec<NodeId>,
        /// The other side.
        b: Vec<NodeId>,
    },
    /// Start a Gilbert–Elliott burst-loss episode on a link.
    BurstLossOn(LinkId, GeConfig),
    /// End the burst-loss episode (resets to the good state).
    BurstLossOff(LinkId),
    /// Add a transient extra propagation delay to a link.
    LatencySpike(LinkId, Duration),
    /// Clear the extra propagation delay.
    LatencyClear(LinkId),
}

/// A timed entry of a [`FaultPlan`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// When the action fires.
    pub(crate) at: SimTime,
    /// What happens.
    pub(crate) action: FaultAction,
}

/// A scripted, deterministic schedule of fault injections.
///
/// Build with the fluent helpers and install with
/// [`FaultController::install`]. The plan itself contains no randomness;
/// combined with the simulation seed, a chaos run is exactly replayable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan.
    #[must_use]
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a raw action at an absolute simulation time.
    #[must_use]
    pub(crate) fn at(mut self, at: SimTime, action: FaultAction) -> Self {
        self.events.push(FaultEvent { at, action });
        self
    }

    /// Severs `link` at `from` and restores it at `to`.
    ///
    /// # Panics
    ///
    /// Panics if `to <= from`.
    #[must_use]
    pub fn down_between(self, link: LinkId, from: SimTime, to: SimTime) -> Self {
        assert!(to > from, "down_between window is empty");
        self.at(from, FaultAction::Sever(link))
            .at(to, FaultAction::LinkUp(link))
    }

    /// Flaps `link` over `[from, to)`: each `period` starts with the link
    /// severed for `duty · period`, then restored for the remainder.
    ///
    /// # Panics
    ///
    /// Panics if `duty` is not in `(0, 1)` or `period` is zero.
    #[must_use]
    pub fn flap(
        mut self,
        link: LinkId,
        from: SimTime,
        to: SimTime,
        period: Duration,
        duty: f64,
    ) -> Self {
        assert!(
            (0.0..1.0).contains(&duty) && duty > 0.0,
            "duty out of (0, 1)"
        );
        assert!(!period.is_zero(), "flap period is zero");
        let down = Duration::from_secs_f64(period.as_secs_f64() * duty);
        let mut start = from;
        while start < to {
            let up_at = (start + down).min(to);
            self = self.down_between(link, start, up_at);
            start += period;
        }
        self
    }

    /// Severs all routes between the node sets at `from` (both directions)
    /// and heals them at `to`.
    ///
    /// # Panics
    ///
    /// Panics if `to <= from`.
    #[must_use]
    pub fn partition_between(self, from: SimTime, to: SimTime, a: &[NodeId], b: &[NodeId]) -> Self {
        assert!(to > from, "partition window is empty");
        self.at(
            from,
            FaultAction::Partition {
                a: a.to_vec(),
                b: b.to_vec(),
            },
        )
        .at(
            to,
            FaultAction::Heal {
                a: a.to_vec(),
                b: b.to_vec(),
            },
        )
    }

    /// Runs a Gilbert–Elliott loss-burst episode on `link` over `[from, to)`.
    ///
    /// # Panics
    ///
    /// Panics if `to <= from`.
    #[must_use]
    pub fn loss_burst(self, link: LinkId, from: SimTime, to: SimTime, ge: GeConfig) -> Self {
        assert!(to > from, "loss_burst window is empty");
        self.at(from, FaultAction::BurstLossOn(link, ge))
            .at(to, FaultAction::BurstLossOff(link))
    }

    /// Adds `extra` propagation delay on `link` over `[from, to)`.
    ///
    /// # Panics
    ///
    /// Panics if `to <= from`.
    #[must_use]
    pub fn latency_spike(self, link: LinkId, from: SimTime, to: SimTime, extra: Duration) -> Self {
        assert!(to > from, "latency_spike window is empty");
        self.at(from, FaultAction::LatencySpike(link, extra))
            .at(to, FaultAction::LatencyClear(link))
    }

    /// The scheduled entries, in insertion order.
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan contains no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Applies a [`FaultPlan`] to a [`Network`], one timing-wheel event per
/// entry. Cheap to clone; [`FaultController::applied`] counts link-level
/// actions that have fired so far.
#[derive(Debug, Clone)]
pub struct FaultController {
    applied: Arc<AtomicU64>,
}

impl FaultController {
    /// Schedules every entry of `plan` on the network's simulation and
    /// returns a handle for observing progress.
    pub fn install(net: &Network, plan: FaultPlan) -> Self {
        let controller = FaultController {
            applied: Arc::new(AtomicU64::new(0)),
        };
        for FaultEvent { at, action } in plan.events {
            let net = net.clone();
            let applied = controller.applied.clone();
            net.sim().clone().schedule_at(at, move |_sim| {
                apply(&net, &action, &applied);
            });
        }
        controller
    }

    /// Number of link-level actions applied so far (a partition counts one
    /// per severed link).
    #[must_use]
    pub fn applied(&self) -> u64 {
        self.applied.load(Ordering::SeqCst)
    }
}

/// Resolves the directed link sets of all routes between two node sets, in
/// deterministic (pair-iteration) order, deduplicated.
fn partition_links(net: &Network, a: &[NodeId], b: &[NodeId]) -> Vec<LinkId> {
    let mut out: Vec<LinkId> = Vec::new();
    for &x in a {
        for &y in b {
            for (src, dst) in [(x, y), (y, x)] {
                if let Some(route) = net.route(src, dst) {
                    for id in route {
                        if !out.contains(&id) {
                            out.push(id);
                        }
                    }
                }
            }
        }
    }
    out
}

fn record_fault(net: &Network, action: &'static str, link: LinkId, applied: &AtomicU64) {
    applied.fetch_add(1, Ordering::SeqCst);
    let sim = net.sim();
    sim.recorder().record(
        sim.now().as_nanos(),
        EventKind::Fault {
            action,
            link: u64::from(link.index()),
        },
    );
}

fn apply(net: &Network, action: &FaultAction, applied: &AtomicU64) {
    match action {
        FaultAction::LinkUp(id) => {
            net.link(*id).set_up(true);
            record_fault(net, "link_up", *id, applied);
        }
        FaultAction::Sever(id) => {
            net.link(*id).sever();
            record_fault(net, "sever", *id, applied);
        }
        FaultAction::Partition { a, b } => {
            for id in partition_links(net, a, b) {
                net.link(id).sever();
                record_fault(net, "sever", id, applied);
            }
        }
        FaultAction::Heal { a, b } => {
            for id in partition_links(net, a, b) {
                net.link(id).set_up(true);
                record_fault(net, "link_up", id, applied);
            }
        }
        FaultAction::BurstLossOn(id, ge) => {
            net.link(*id).set_burst_loss(Some(*ge));
            record_fault(net, "burst_on", *id, applied);
        }
        FaultAction::BurstLossOff(id) => {
            net.link(*id).set_burst_loss(None);
            record_fault(net, "burst_off", *id, applied);
        }
        FaultAction::LatencySpike(id, extra) => {
            net.link(*id).set_extra_delay(*extra);
            record_fault(net, "latency_spike", *id, applied);
        }
        FaultAction::LatencyClear(id) => {
            net.link(*id).set_extra_delay(Duration::ZERO);
            record_fault(net, "latency_clear", *id, applied);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Sim;
    use crate::link::LinkConfig;

    fn world() -> (Sim, Network, NodeId, NodeId, LinkId, LinkId) {
        let sim = Sim::new(9);
        let net = Network::new(&sim);
        let a = net.add_node("a");
        let b = net.add_node("b");
        let (ab, ba) = net.connect_duplex(a, b, LinkConfig::new(1e6, Duration::from_millis(5)));
        (sim, net, a, b, ab, ba)
    }

    #[test]
    fn down_between_schedules_sever_and_restore() {
        let (sim, net, _a, _b, ab, _ba) = world();
        let plan = FaultPlan::new().down_between(ab, SimTime::from_secs(1), SimTime::from_secs(2));
        let ctl = FaultController::install(&net, plan);
        assert!(net.link(ab).is_up());
        sim.run_until(SimTime::from_millis(1500));
        assert!(!net.link(ab).is_up());
        assert_eq!(net.link(ab).epoch(), 1, "partition-style cut severs");
        sim.run_until(SimTime::from_millis(2500));
        assert!(net.link(ab).is_up());
        assert_eq!(ctl.applied(), 2);
    }

    #[test]
    fn flap_generates_expected_windows() {
        let plan = FaultPlan::new().flap(
            LinkId(0),
            SimTime::from_secs(0),
            SimTime::from_secs(1),
            Duration::from_millis(250),
            0.4,
        );
        // 4 periods × (sever + restore).
        assert_eq!(plan.events().len(), 8);
        assert_eq!(
            plan.events()[0],
            FaultEvent {
                at: SimTime::ZERO,
                action: FaultAction::Sever(LinkId(0)),
            }
        );
        assert_eq!(plan.events()[1].at, SimTime::from_millis(100));
        assert_eq!(plan.events()[2].at, SimTime::from_millis(250));
    }

    #[test]
    fn partition_severs_both_directions_and_heals() {
        let (sim, net, a, b, ab, ba) = world();
        let plan = FaultPlan::new().partition_between(
            SimTime::from_secs(1),
            SimTime::from_secs(3),
            &[a],
            &[b],
        );
        FaultController::install(&net, plan);
        sim.run_until(SimTime::from_secs(2));
        assert!(!net.link(ab).is_up());
        assert!(!net.link(ba).is_up());
        sim.run_until(SimTime::from_secs(4));
        assert!(net.link(ab).is_up());
        assert!(net.link(ba).is_up());
    }

    #[test]
    fn injections_are_recorded_for_replay() {
        let (sim, net, a, b, _ab, _ba) = world();
        sim.recorder().enable();
        let plan = FaultPlan::new()
            .partition_between(SimTime::from_secs(1), SimTime::from_secs(2), &[a], &[b])
            .latency_spike(
                LinkId(0),
                SimTime::from_secs(3),
                SimTime::from_secs(4),
                Duration::from_millis(50),
            );
        FaultController::install(&net, plan);
        sim.run_until(SimTime::from_secs(5));
        let faults: Vec<_> = sim
            .recorder()
            .events()
            .into_iter()
            .filter(|e| e.kind.label() == "fault")
            .collect();
        // 2 severs + 2 restores + spike + clear.
        assert_eq!(faults.len(), 6);
    }
}
