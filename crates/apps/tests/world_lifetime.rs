//! A world is freed when its last handle goes: a sweep that builds one
//! world per seed must not hold them all.

use std::sync::{Arc, Weak};
use std::time::Duration;

use kmsg_apps::*;
use kmsg_core::prelude::*;
use kmsg_netsim::network::{Network, PacketSink};
use kmsg_netsim::packet::{Endpoint, Packet, WireProtocol};
use kmsg_netsim::tcp::{TcpConfig, TcpConn, TcpListener};
use kmsg_netsim::testutil::{pattern_bytes, SinkEvents};
use kmsg_netsim::udt::{UdtConfig, UdtConn, UdtListener};
use kmsg_netsim::{Connection, EventTarget, Sim, SimTime, StreamAccept, StreamEvents};

struct Probe;
impl PacketSink for Probe {
    fn on_packet(&self, _net: &Network, _pkt: Packet) {}
}
impl EventTarget for Probe {
    fn fire(self: Arc<Self>, _sim: &Sim, _token: u64) {}
}

/// One probe owned by the fabric's sink table alone and one by the engine's
/// event store alone: each lives exactly as long as its owner does.
fn probes(world: &TwoHostWorld) -> [Weak<Probe>; 2] {
    let (fabric, engine) = (Arc::new(Probe), Arc::new(Probe));
    world
        .net
        .bind(world.host_b, WireProtocol::Udp, 9, fabric.clone())
        .expect("free port");
    world
        .sim
        .schedule_target_at(SimTime::MAX, engine.clone(), 0);
    [Arc::downgrade(&fabric), Arc::downgrade(&engine)]
}

fn alive(probes: &[Weak<Probe>; 2]) -> [bool; 2] {
    [probes[0].upgrade().is_some(), probes[1].upgrade().is_some()]
}

#[test]
fn dropping_a_world_after_a_transfer_frees_its_network() {
    for transport in [Transport::Tcp, Transport::Udt, Transport::Data] {
        let dataset = Dataset::climate(2 * 1024 * 1024, 4);
        let cfg = ExperimentConfig::transfer(Setup::EuVpc, transport, dataset, 1);
        let world = two_host_world(cfg.seed, &cfg.setup);
        let probes = probes(&world);
        let result = run_in_world(&world, &cfg);
        assert!(
            result.verified && result.transfer_time.is_some(),
            "{transport:?}"
        );
        assert_eq!(alive(&probes), [true, true]);
        drop(world);
        assert_eq!(
            alive(&probes),
            [false, false],
            "{transport:?}: fabric, engine outlived the world"
        );
    }
}

#[test]
fn dropping_a_world_that_never_ran_frees_it_too() {
    // Component executions wait in the engine's store from `start` on.
    let world = two_host_world(1, &Setup::EuVpc);
    let probes = probes(&world);
    let addr = NetAddress::new(world.host_a, 7000);
    let net = create_network(&world.system, &world.net, NetworkConfig::new(addr)).expect("bind");
    world.system.start(&net);
    assert!(world.sim.events_pending() > 0);
    drop((world, net));
    assert_eq!(alive(&probes), [false, false]);
}

struct Accept;
impl StreamAccept for Accept {
    fn on_accept(&self, _conn: &Connection) -> Arc<dyn StreamEvents> {
        Arc::new(SinkEvents)
    }
}

#[test]
fn dropping_a_world_with_packets_in_flight_frees_it() {
    // No middleware: the flows' own hop events and timers are what wait in
    // the engine's store when the world goes.
    for transport in [WireProtocol::Tcp, WireProtocol::Udt] {
        let world = two_host_world(1, &Setup::EuVpc);
        let probes = probes(&world);
        let (net, a, b) = (&world.net, world.host_a, world.host_b);
        let dst = Endpoint::new(b, 80);
        let (listener, conn): (Box<dyn std::any::Any>, Connection) = match transport {
            WireProtocol::Tcp => (
                Box::new(
                    TcpListener::bind(net, b, 80, TcpConfig::default(), Arc::new(Accept))
                        .expect("bind"),
                ),
                Connection::Tcp(
                    TcpConn::connect(net, a, dst, TcpConfig::default(), Arc::new(SinkEvents))
                        .expect("dial"),
                ),
            ),
            _ => (
                Box::new(
                    UdtListener::bind(net, b, 80, UdtConfig::default(), Arc::new(Accept))
                        .expect("bind"),
                ),
                Connection::Udt(
                    UdtConn::connect(net, a, dst, UdtConfig::default(), Arc::new(SinkEvents))
                        .expect("dial"),
                ),
            ),
        };
        world.sim.run_for(Duration::from_millis(100));
        assert!(conn.is_established(), "{transport:?}");
        assert!(conn.send(pattern_bytes(0, 1 << 20)) > 0);
        world.sim.run_for(Duration::from_millis(1));
        assert!(world.net.packets_in_flight() > 0, "{transport:?}");
        assert!(world.sim.events_pending() > 0, "{transport:?}");
        drop((world, listener, conn));
        assert_eq!(
            alive(&probes),
            [false, false],
            "{transport:?}: fabric, engine outlived the world"
        );
    }
}
