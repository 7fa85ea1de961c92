//! Scripted fault plans driven against live transports: outages, flaps
//! and partitions injected off the timing wheel while TCP streams run,
//! plus the byte-for-byte replayability of chaos telemetry.

use std::sync::Arc;
use std::time::Duration;

use kmsg_netsim::engine::Sim;
use kmsg_netsim::faults::{FaultController, FaultPlan};
use kmsg_netsim::iface::{Connection, StreamAccept, StreamEvents};
use kmsg_netsim::link::{DropReason, LinkConfig, LinkId};
use kmsg_netsim::network::Network;
use kmsg_netsim::packet::{Endpoint, NodeId};
use kmsg_netsim::tcp::{TcpConfig, TcpConn, TcpListener};
use kmsg_netsim::testutil::{PatternSender, Recorder};
use kmsg_netsim::time::SimTime;

struct Accept(Arc<Recorder>);

impl StreamAccept for Accept {
    fn on_accept(&self, _conn: &Connection) -> Arc<dyn StreamEvents> {
        self.0.clone()
    }
}

fn world(seed: u64) -> (Sim, Network, NodeId, NodeId, LinkId, LinkId) {
    let sim = Sim::new(seed);
    let net = Network::new(&sim);
    let a = net.add_node("a");
    let b = net.add_node("b");
    let (ab, ba) = net.connect_duplex(a, b, LinkConfig::new(2e6, Duration::from_millis(10)));
    (sim, net, a, b, ab, ba)
}

/// Starts a one-way TCP pattern transfer from `a` to `b`. Returns the
/// receiver-side recorder plus the listener and connection handles — the
/// caller must keep them alive (the node tables hold only weak refs).
fn start_transfer(
    sim: &Sim,
    net: &Network,
    a: NodeId,
    b: NodeId,
    total: usize,
) -> (Arc<Recorder>, TcpListener, TcpConn) {
    let server = Arc::new(Recorder::with_sim(sim));
    let listener = TcpListener::bind(
        net,
        b,
        80,
        TcpConfig::default(),
        Arc::new(Accept(server.clone())),
    )
    .expect("bind");
    let conn = TcpConn::connect(
        net,
        a,
        Endpoint::new(b, 80),
        TcpConfig::default(),
        PatternSender::new(total),
    )
    .expect("connect");
    (server, listener, conn)
}

#[test]
fn tcp_transfer_survives_scripted_outage() {
    let (sim, net, a, b, ab, _ba) = world(5);
    let plan = FaultPlan::new().down_between(ab, SimTime::from_secs(1), SimTime::from_secs(3));
    let ctl = FaultController::install(&net, plan);
    let total = 6_000_000;
    let (server, _listener, _conn) = start_transfer(&sim, &net, a, b, total);
    sim.run_for(Duration::from_secs(60));
    assert_eq!(
        server.data_len(),
        total,
        "retransmission must ride out a 2 s cut"
    );
    assert!(server.in_order(), "the stream arrives intact and in order");
    assert_eq!(ctl.applied(), 2, "sever + restore");
    // The sever at 1 s lands mid-transfer: serialized backlog and in-flight
    // packets on the cut link must die as `Severed`.
    assert!(
        net.link(ab).stats().dropped(DropReason::Severed) > 0,
        "an active transfer must lose packets to the sever"
    );
}

#[test]
fn tcp_transfer_survives_link_flapping() {
    let (sim, net, a, b, ab, _ba) = world(6);
    // 1 Hz flapping with 40% downtime between t=1s and t=5s.
    let plan = FaultPlan::new().flap(
        ab,
        SimTime::from_secs(1),
        SimTime::from_secs(5),
        Duration::from_secs(1),
        0.4,
    );
    let ctl = FaultController::install(&net, plan);
    let total = 6_000_000;
    let (server, _listener, _conn) = start_transfer(&sim, &net, a, b, total);
    sim.run_for(Duration::from_secs(90));
    assert_eq!(
        server.data_len(),
        total,
        "the flapping window must be survivable"
    );
    assert!(server.in_order());
    assert_eq!(ctl.applied(), 8, "4 severs + 4 restores");
}

#[test]
fn partition_blocks_both_directions_until_heal() {
    let (sim, net, a, b, ab, ba) = world(7);
    let plan = FaultPlan::new().partition_between(
        SimTime::from_secs(1),
        SimTime::from_secs(2),
        &[a],
        &[b],
    );
    let ctl = FaultController::install(&net, plan);
    let total = 6_000_000;
    let (server, _listener, _conn) = start_transfer(&sim, &net, a, b, total);
    // During the partition no progress is possible in either direction:
    // data (a→b) is cut and so are the ACKs (b→a).
    sim.run_until(SimTime::from_millis(1100));
    let frozen = server.data_len();
    assert!(frozen > 0, "the transfer is underway before the cut");
    sim.run_until(SimTime::from_millis(1900));
    assert_eq!(server.data_len(), frozen, "no delivery across a partition");
    assert!(!net.link(ab).is_up());
    assert!(!net.link(ba).is_up());
    sim.run_for(Duration::from_secs(60));
    assert_eq!(server.data_len(), total, "heal restores the stream");
    assert!(server.in_order());
    assert_eq!(ctl.applied(), 4, "2 links severed + 2 healed");
}

#[test]
fn same_seed_chaos_telemetry_is_byte_identical() {
    let run = || {
        let (sim, net, a, b, _ab, ba) = world(42);
        sim.recorder().enable();
        let plan = FaultPlan::new()
            .partition_between(SimTime::from_secs(1), SimTime::from_secs(2), &[a], &[b])
            .latency_spike(
                ba,
                SimTime::from_secs(3),
                SimTime::from_secs(4),
                Duration::from_millis(40),
            );
        let ctl = FaultController::install(&net, plan);
        let total = 6_000_000;
        let (server, _listener, _conn) = start_transfer(&sim, &net, a, b, total);
        sim.run_for(Duration::from_secs(30));
        assert_eq!(server.data_len(), total);
        (ctl.applied(), sim.recorder().to_jsonl())
    };
    let (applied_1, jsonl_1) = run();
    let (applied_2, jsonl_2) = run();
    assert_eq!(
        applied_1, 6,
        "partition (2 severs + 2 heals) + spike + clear"
    );
    assert_eq!(applied_1, applied_2);
    assert!(
        jsonl_1.contains("\"fault\""),
        "injections must appear in the flight-recorder stream"
    );
    assert_eq!(
        jsonl_1, jsonl_2,
        "chaos telemetry must replay byte-for-byte"
    );
}
