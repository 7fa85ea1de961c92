//! The paper's experiment environments (§V-A, Figure 7): pairs of EC2
//! c3.2xlarge instances at increasing distances, modelled as calibrated
//! simulator topologies.
//!
//! | Setup  | RTT     | Notes                                            |
//! |--------|---------|--------------------------------------------------|
//! | Local  | ~0 ms   | loopback, disk-limited (~110 MB/s, mem 150 MB/s) |
//! | EU-VPC | ~3 ms   | same VPC in Ireland                              |
//! | EU2US  | ~155 ms | Ireland ↔ North California, light random loss    |
//! | EU2AU  | ~320 ms | Ireland ↔ Sydney, light random loss              |
//!
//! All wide-area links carry Amazon's UDP policer (~10 MB/s), which the
//! paper identifies as UDT's throughput cap.

use std::time::Duration;

use kmsg_component::prelude::*;
use kmsg_netsim::engine::Sim;
use kmsg_netsim::link::{LinkConfig, PolicerConfig};
use kmsg_netsim::network::Network;
use kmsg_netsim::packet::NodeId;

/// An experiment environment.
#[derive(Debug, Clone, PartialEq)]
pub enum Setup {
    /// Same machine, SSD to SSD over loopback.
    Local,
    /// Two instances in the same Virtual Private Cloud (Ireland).
    EuVpc,
    /// Ireland ↔ North California.
    Eu2Us,
    /// Ireland ↔ Sydney.
    Eu2Au,
    /// A custom link (e.g. the §IV-B2 analysis link: 100 MB/s, 10 ms).
    Custom {
        /// Label for reports.
        label: &'static str,
        /// The directed link configuration (used in both directions).
        link: LinkConfig,
    },
}

impl Setup {
    /// The four paper setups in evaluation order.
    #[must_use]
    pub fn paper_setups() -> Vec<Setup> {
        vec![Setup::Local, Setup::EuVpc, Setup::Eu2Us, Setup::Eu2Au]
    }

    /// Human-readable label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Setup::Local => "Local",
            Setup::EuVpc => "EU-VPC",
            Setup::Eu2Us => "EU2US",
            Setup::Eu2Au => "EU2AU",
            Setup::Custom { label, .. } => label,
        }
    }

    /// The nominal round-trip time of the setup.
    #[must_use]
    pub fn rtt(&self) -> Duration {
        match self {
            Setup::Local => Duration::from_micros(100),
            Setup::EuVpc => Duration::from_millis(3),
            Setup::Eu2Us => Duration::from_millis(155),
            Setup::Eu2Au => Duration::from_millis(320),
            Setup::Custom { link, .. } => link.delay * 2,
        }
    }

    /// Whether both endpoints live on the same machine.
    #[must_use]
    pub(crate) fn is_local(&self) -> bool {
        matches!(self, Setup::Local)
    }

    /// The directed link configuration for this setup.
    #[must_use]
    pub fn link(&self) -> LinkConfig {
        let one_way = self.rtt() / 2;
        match self {
            Setup::Local => LinkConfig::new(crate::disk::MEMORY_RATE, one_way),
            Setup::EuVpc => LinkConfig::new(125e6, one_way).udp_policer(PolicerConfig::ec2_udp()),
            Setup::Eu2Us | Setup::Eu2Au => LinkConfig::new(125e6, one_way)
                .random_loss(5e-5)
                .udp_policer(PolicerConfig::ec2_udp()),
            Setup::Custom { link, .. } => link.clone(),
        }
    }

    /// The §IV-B2 analysis link: 100 MB/s with 10 ms one-way delay.
    #[must_use]
    pub fn analysis_link() -> Setup {
        Setup::Custom {
            label: "100MB/s-10ms",
            link: LinkConfig::new(100e6, Duration::from_millis(10)),
        }
    }
}

/// A simulated world with two (possibly identical) hosts.
#[derive(Debug, Clone)]
pub struct TwoHostWorld {
    /// The simulation clock/engine.
    pub sim: Sim,
    /// The network fabric.
    pub net: Network,
    /// The component system (virtual-time scheduler).
    pub system: ComponentSystem,
    /// The sender-side host.
    pub host_a: NodeId,
    /// The receiver-side host (equals `host_a` for [`Setup::Local`]).
    pub host_b: NodeId,
}

/// Builds the world for a setup. For non-local setups the two hosts are
/// connected with a symmetric pair of links; for [`Setup::Local`] a single
/// host routes to itself through a loopback link at memory speed.
#[must_use]
pub fn two_host_world(seed: u64, setup: &Setup) -> TwoHostWorld {
    let sim = Sim::new(seed);
    let net = Network::new(&sim);
    let system = ComponentSystem::simulation(&sim, SystemConfig::default());
    if setup.is_local() {
        let host = net.add_node("local");
        let lo = net.add_link(setup.link());
        net.set_route(host, host, vec![lo]);
        TwoHostWorld {
            sim,
            net,
            system,
            host_a: host,
            host_b: host,
        }
    } else {
        let a = net.add_node("host-a");
        let b = net.add_node("host-b");
        net.connect_duplex(a, b, setup.link());
        TwoHostWorld {
            sim,
            net,
            system,
            host_a: a,
            host_b: b,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_setups_cover_all_rtts() {
        let setups = Setup::paper_setups();
        assert_eq!(setups.len(), 4);
        let rtts: Vec<f64> = setups.iter().map(|s| s.rtt().as_secs_f64()).collect();
        assert!(
            rtts.windows(2).all(|w| w[0] < w[1]),
            "RTTs increase: {rtts:?}"
        );
    }

    #[test]
    fn wan_setups_are_policed_and_lossy() {
        let us = Setup::Eu2Us.link();
        assert!(us.udp_policer.is_some());
        assert!(us.random_loss > 0.0);
        let vpc = Setup::EuVpc.link();
        assert!(vpc.udp_policer.is_some());
        assert_eq!(vpc.random_loss, 0.0);
        assert!(Setup::Local.link().udp_policer.is_none());
    }

    #[test]
    fn local_world_is_one_host() {
        let w = two_host_world(1, &Setup::Local);
        assert_eq!(w.host_a, w.host_b);
        // Loopback route installed.
        assert!(w.net.route(w.host_a, w.host_a).is_some());
    }

    #[test]
    fn wan_world_is_two_hosts() {
        let w = two_host_world(1, &Setup::Eu2Au);
        assert_ne!(w.host_a, w.host_b);
        assert!(w.net.route(w.host_a, w.host_b).is_some());
        assert!(w.net.route(w.host_b, w.host_a).is_some());
    }

    #[test]
    fn analysis_link_matches_paper() {
        let s = Setup::analysis_link();
        assert_eq!(s.rtt(), Duration::from_millis(20));
        assert_eq!(s.link().bandwidth, 100e6);
    }
}
