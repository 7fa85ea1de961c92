//! End-to-end middleware tests: two simulated hosts exchanging messages
//! through full KompicsMessaging stacks (component system + network
//! component + transports).

use std::sync::Arc;

use std::time::Duration;

use bytes::Bytes;
use kmsg_component::prelude::*;
use kmsg_core::prelude::*;
use kmsg_netsim::cc::CcAlgorithm;
use kmsg_netsim::engine::Sim;
use kmsg_netsim::link::LinkConfig;
use kmsg_netsim::network::Network;
use kmsg_netsim::packet::NodeId;

/// Test application: records everything, sends on command.
struct Harness {
    net: RequiredPort<NetworkPort>,
    commands: SelfPort<NetRequest>,
    received: Vec<NetMessage>,
    notifies: Vec<(NotifyToken, DeliveryStatus)>,
    statuses: Vec<ChannelStatus>,
}

impl Harness {
    fn new() -> Self {
        Harness {
            net: RequiredPort::new(),
            commands: SelfPort::new(),
            received: Vec::new(),
            notifies: Vec::new(),
            statuses: Vec::new(),
        }
    }
}

impl ComponentDefinition for Harness {
    fn execute(&mut self, ctx: &mut ComponentContext, max: usize) -> usize {
        kmsg_component::execute_ports!(self, ctx, max, [
            required net: NetworkPort,
            selfport commands: NetRequest,
        ])
    }
}

impl Require<NetworkPort> for Harness {
    fn handle(&mut self, _ctx: &mut ComponentContext, ev: NetIndication) {
        match ev {
            NetIndication::Msg(m) => self.received.push(m),
            NetIndication::NotifyResp(t, s) => self.notifies.push((t, s)),
            NetIndication::Status(s) => self.statuses.push(s),
        }
    }
}

impl HandleSelf<NetRequest> for Harness {
    fn handle_self(&mut self, _ctx: &mut ComponentContext, req: NetRequest) {
        self.net.trigger(req);
    }
}

impl RequireRef<NetworkPort> for Harness {
    fn required_port(&mut self) -> &mut RequiredPort<NetworkPort> {
        &mut self.net
    }
}

struct Stack {
    addr: NetAddress,
    network: ComponentRef<NetworkComponent>,
    app: ComponentRef<Harness>,
    send: SelfRef<NetRequest>,
    stats: StatsHandle,
}

struct World {
    sim: Sim,
    net: Network,
    system: ComponentSystem,
}

fn world(link: LinkConfig, n_nodes: usize) -> (World, Vec<NodeId>) {
    let sim = Sim::new(77);
    let net = Network::new(&sim);
    let nodes: Vec<NodeId> = (0..n_nodes).map(|i| net.add_node(format!("h{i}"))).collect();
    for i in 0..n_nodes {
        for j in 0..n_nodes {
            if i != j {
                let l = net.add_link(link.clone());
                net.set_route(nodes[i], nodes[j], vec![l]);
            }
        }
    }
    let system = ComponentSystem::simulation(&sim, SystemConfig::default());
    (World { sim, net, system }, nodes)
}

fn stack(w: &World, node: NodeId, port: u16) -> Stack {
    stack_cfg(w, NetworkConfig::new(NetAddress::new(node, port)))
}

fn stack_cfg(w: &World, cfg: NetworkConfig) -> Stack {
    let addr = cfg.addr;
    let network = create_network(&w.system, &w.net, cfg).expect("bind");
    let stats = network.on_definition(|n| n.stats());
    let app = w.system.create(Harness::new);
    w.system.connect::<NetworkPort, _, _>(&network, &app);
    let send = app.self_ref(|h| &mut h.commands);
    w.system.start(&network);
    w.system.start(&app);
    Stack {
        addr,
        network,
        app,
        send,
        stats,
    }
}

fn default_link() -> LinkConfig {
    LinkConfig::new(10e6, Duration::from_millis(5))
}

/// `len` bytes the Snappy stand-in cannot shrink.
fn incompressible(seed: u64, len: usize) -> Bytes {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen::<u8>()).collect()
}

#[test]
fn tcp_message_round_trip() {
    let (w, nodes) = world(default_link(), 2);
    let a = stack(&w, nodes[0], 7000);
    let b = stack(&w, nodes[1], 7000);
    a.send.push(NetRequest::Msg(NetMessage::new(
        a.addr,
        b.addr,
        Transport::Tcp,
        "hello over tcp".to_string(),
    )));
    w.sim.run_for(Duration::from_secs(2));
    let got = b.app.on_definition(|h| h.received.clone());
    assert_eq!(got.len(), 1);
    assert!(got[0].is_from_wire());
    assert_eq!(
        got[0].try_deserialise::<String, String>().expect("payload"),
        "hello over tcp"
    );
    assert_eq!(got[0].header().protocol(), Transport::Tcp);
    assert_eq!(*got[0].header().source(), a.addr);
}

#[test]
fn udt_message_round_trip() {
    let (w, nodes) = world(default_link(), 2);
    let a = stack(&w, nodes[0], 7000);
    let b = stack(&w, nodes[1], 7000);
    a.send.push(NetRequest::Msg(NetMessage::new(
        a.addr,
        b.addr,
        Transport::Udt,
        Bytes::from_static(b"udt payload"),
    )));
    w.sim.run_for(Duration::from_secs(2));
    let got = b.app.on_definition(|h| h.received.clone());
    assert_eq!(got.len(), 1);
    assert_eq!(
        got[0].try_deserialise::<Bytes, Bytes>().expect("payload"),
        Bytes::from_static(b"udt payload")
    );
    assert_eq!(got[0].header().protocol(), Transport::Udt);
}

#[test]
fn udp_message_round_trip_and_size_limit() {
    let (w, nodes) = world(default_link(), 2);
    let a = stack(&w, nodes[0], 7000);
    let b = stack(&w, nodes[1], 7000);
    a.send.push(NetRequest::NotifyReq(
        NotifyToken::new(1),
        NetMessage::new(a.addr, b.addr, Transport::Udp, "small".to_string()),
    ));
    // Oversized datagram must fail cleanly. Use incompressible data so the
    // Snappy stand-in cannot shrink it below the limit.
    a.send.push(NetRequest::NotifyReq(
        NotifyToken::new(2),
        NetMessage::new(a.addr, b.addr, Transport::Udp, incompressible(3, 70_000)),
    ));
    w.sim.run_for(Duration::from_secs(2));
    let got = b.app.on_definition(|h| h.received.len());
    assert_eq!(got, 1, "only the small datagram arrives");
    let notifies = a.app.on_definition(|h| h.notifies.clone());
    assert_eq!(notifies.len(), 2);
    assert_eq!(notifies[0].1, DeliveryStatus::Sent);
    assert_eq!(
        notifies[1].1,
        DeliveryStatus::Failed(SendError::TooLargeForUdp)
    );
}

#[test]
fn oversized_payload_fails_the_send_not_the_world() {
    let (w, nodes) = world(default_link(), 2);
    let a = stack(&w, nodes[0], 7000);
    let b = stack(&w, nodes[1], 7000);
    let too_long = Bytes::from(vec![0u8; kmsg_core::net::frame::MAX_FRAME + 1]);
    a.send.push(NetRequest::NotifyReq(
        NotifyToken::new(1),
        NetMessage::new(a.addr, b.addr, Transport::Tcp, too_long),
    ));
    a.send.push(NetRequest::NotifyReq(
        NotifyToken::new(2),
        NetMessage::new(a.addr, b.addr, Transport::Tcp, "after".to_string()),
    ));
    w.sim.run_for(Duration::from_secs(2));
    let notifies = a.app.on_definition(|h| h.notifies.clone());
    assert_eq!(
        notifies,
        vec![
            (NotifyToken::new(1), DeliveryStatus::Failed(SendError::Serialisation)),
            (NotifyToken::new(2), DeliveryStatus::Sent),
        ]
    );
    assert_eq!(b.app.on_definition(|h| h.received.len()), 1);
}

#[test]
fn notify_sent_for_stream_transports() {
    let (w, nodes) = world(default_link(), 2);
    let a = stack(&w, nodes[0], 7000);
    let b = stack(&w, nodes[1], 7000);
    for (id, proto) in [(1u64, Transport::Tcp), (2, Transport::Udt)] {
        a.send.push(NetRequest::NotifyReq(
            NotifyToken::new(id),
            NetMessage::new(a.addr, b.addr, proto, format!("m{id}")),
        ));
    }
    w.sim.run_for(Duration::from_secs(3));
    let notifies = a.app.on_definition(|h| h.notifies.clone());
    assert_eq!(notifies.len(), 2);
    assert!(notifies.iter().all(|(_, s)| *s == DeliveryStatus::Sent));
    assert_eq!(b.app.on_definition(|h| h.received.len()), 2);
}

#[test]
fn fifo_order_per_transport() {
    let (w, nodes) = world(default_link(), 2);
    let a = stack(&w, nodes[0], 7000);
    let b = stack(&w, nodes[1], 7000);
    for i in 0..50u64 {
        a.send.push(NetRequest::Msg(NetMessage::new(
            a.addr,
            b.addr,
            Transport::Tcp,
            i,
        )));
    }
    w.sim.run_for(Duration::from_secs(3));
    let got: Vec<u64> = b.app.on_definition(|h| {
        h.received
            .iter()
            .map(|m| m.try_deserialise::<u64, u64>().expect("u64"))
            .collect()
    });
    assert_eq!(got, (0..50).collect::<Vec<_>>(), "TCP preserves FIFO");
}

#[test]
fn local_reflection_skips_serialisation() {
    let (w, nodes) = world(default_link(), 1);
    let a = stack(&w, nodes[0], 7000);
    // Send to our own address (e.g. between vnodes of the same host).
    a.send.push(NetRequest::NotifyReq(
        NotifyToken::new(9),
        NetMessage::new(a.addr, a.addr, Transport::Tcp, "loop".to_string()),
    ));
    w.sim.run_for(Duration::from_secs(1));
    let got = a.app.on_definition(|h| h.received.clone());
    assert_eq!(got.len(), 1);
    assert!(!got[0].is_from_wire(), "reflected without serialisation");
    assert_eq!(
        a.app.on_definition(|h| h.notifies.clone())[0].1,
        DeliveryStatus::DeliveredLocally
    );
    assert_eq!(a.stats.lock().local_reflections, 1);
    assert_eq!(a.stats.lock().total_sent(), 0, "nothing hit the wire");
}

#[test]
fn vnode_channels_route_by_id() {
    let (w, nodes) = world(default_link(), 2);
    let a = stack(&w, nodes[0], 7000);
    // Host B: one network component, two vnode clients.
    let b_addr = NetAddress::new(nodes[1], 7000);
    let b_net = create_network(&w.system, &w.net, NetworkConfig::new(b_addr)).expect("bind");
    let v1 = w.system.create(Harness::new);
    let v2 = w.system.create(Harness::new);
    connect_vnode(&w.system, &b_net, &v1, VnodeId(1));
    connect_vnode(&w.system, &b_net, &v2, VnodeId(2));
    w.system.start(&b_net);
    w.system.start(&v1);
    w.system.start(&v2);

    for (vnode, text) in [(VnodeId(1), "to-v1"), (VnodeId(2), "to-v2")] {
        a.send.push(NetRequest::Msg(NetMessage::new(
            a.addr,
            b_addr.with_vnode(vnode),
            Transport::Tcp,
            text.to_string(),
        )));
    }
    w.sim.run_for(Duration::from_secs(2));
    let got1 = v1.on_definition(|h| h.received.clone());
    let got2 = v2.on_definition(|h| h.received.clone());
    assert_eq!(got1.len(), 1);
    assert_eq!(got2.len(), 1);
    assert_eq!(
        got1[0].try_deserialise::<String, String>().expect("p"),
        "to-v1"
    );
    assert_eq!(
        got2[0].try_deserialise::<String, String>().expect("p"),
        "to-v2"
    );
}

#[test]
fn same_host_vnodes_reflect_locally() {
    let (w, nodes) = world(default_link(), 1);
    let addr = NetAddress::new(nodes[0], 7000);
    let net_comp = create_network(&w.system, &w.net, NetworkConfig::new(addr)).expect("bind");
    let stats = net_comp.on_definition(|n| n.stats());
    let v1 = w.system.create(Harness::new);
    let v2 = w.system.create(Harness::new);
    connect_vnode(&w.system, &net_comp, &v1, VnodeId(1));
    connect_vnode(&w.system, &net_comp, &v2, VnodeId(2));
    let send1 = v1.self_ref(|h| &mut h.commands);
    w.system.start(&net_comp);
    w.system.start(&v1);
    w.system.start(&v2);

    send1.push(NetRequest::Msg(NetMessage::new(
        addr.with_vnode(VnodeId(1)),
        addr.with_vnode(VnodeId(2)),
        Transport::Tcp,
        "vnode-to-vnode".to_string(),
    )));
    w.sim.run_for(Duration::from_secs(1));
    assert_eq!(v1.on_definition(|h| h.received.len()), 0, "selector filters v1");
    let got = v2.on_definition(|h| h.received.clone());
    assert_eq!(got.len(), 1);
    assert!(!got[0].is_from_wire(), "same-host vnodes never serialise");
    assert_eq!(stats.lock().local_reflections, 1);
}

#[test]
fn multi_hop_routing_forwards() {
    let (w, nodes) = world(default_link(), 3);
    let a = stack(&w, nodes[0], 7000);
    let b = stack(&w, nodes[1], 7000);
    let c = stack(&w, nodes[2], 7000);
    // a -> (via b) -> c
    let header = NetHeader::Routing(RoutingHeader::with_route(
        BasicHeader::new(a.addr, c.addr, Transport::Tcp),
        vec![b.addr],
    ));
    a.send.push(NetRequest::Msg(NetMessage::with_header(
        header,
        "through the middle".to_string(),
    )));
    w.sim.run_for(Duration::from_secs(3));
    assert_eq!(b.app.on_definition(|h| h.received.len()), 0, "b only forwards");
    assert_eq!(b.stats.lock().forwarded, 1);
    let got = c.app.on_definition(|h| h.received.clone());
    assert_eq!(got.len(), 1);
    assert_eq!(
        got[0].try_deserialise::<String, String>().expect("p"),
        "through the middle"
    );
    // The source presented to c is the original sender: c can reply
    // directly (the paper's replyTo motivation).
    assert_eq!(*got[0].header().source(), a.addr);
}

#[test]
fn reply_reuses_inbound_channel() {
    let (w, nodes) = world(default_link(), 2);
    let a = stack(&w, nodes[0], 7000);
    let b = stack(&w, nodes[1], 7000);
    a.send.push(NetRequest::Msg(NetMessage::new(
        a.addr,
        b.addr,
        Transport::Tcp,
        "ping".to_string(),
    )));
    w.sim.run_for(Duration::from_secs(1));
    // B replies.
    b.send.push(NetRequest::Msg(NetMessage::new(
        b.addr,
        a.addr,
        Transport::Tcp,
        "pong".to_string(),
    )));
    w.sim.run_for(Duration::from_secs(2));
    assert_eq!(a.app.on_definition(|h| h.received.len()), 1);
    // A opened one channel; B reused the accepted one (one open each).
    assert_eq!(a.stats.lock().channels_opened, 1);
    assert_eq!(b.stats.lock().channels_opened, 1, "reply must reuse the channel");
}

#[test]
fn unresolved_data_falls_back_to_tcp() {
    let (w, nodes) = world(default_link(), 2);
    let a = stack(&w, nodes[0], 7000);
    let b = stack(&w, nodes[1], 7000);
    let msg = NetMessage::with_header(
        NetHeader::Data(DataHeader::new(a.addr, b.addr)),
        "raw data msg".to_string(),
    );
    a.send.push(NetRequest::Msg(msg));
    w.sim.run_for(Duration::from_secs(2));
    let got = b.app.on_definition(|h| h.received.clone());
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].header().protocol(), Transport::Tcp, "fallback applied");
    assert_eq!(a.stats.lock().unresolved_data, 1);
}

#[test]
fn per_message_transport_mixing_on_one_destination() {
    let (w, nodes) = world(default_link(), 2);
    let a = stack(&w, nodes[0], 7000);
    let b = stack(&w, nodes[1], 7000);
    // Alternate transports message by message — the paper's core ability.
    for i in 0..30u64 {
        let proto = match i % 3 {
            0 => Transport::Tcp,
            1 => Transport::Udt,
            _ => Transport::Udp,
        };
        a.send.push(NetRequest::Msg(NetMessage::new(a.addr, b.addr, proto, i)));
    }
    w.sim.run_for(Duration::from_secs(5));
    let by_proto = b.app.on_definition(|h| {
        let mut counts = [0u32; 4];
        for m in &h.received {
            counts[m.header().protocol().to_byte() as usize] += 1;
        }
        counts
    });
    assert_eq!(by_proto[Transport::Tcp.to_byte() as usize], 10);
    assert_eq!(by_proto[Transport::Udt.to_byte() as usize], 10);
    assert_eq!(by_proto[Transport::Udp.to_byte() as usize], 10);
    let stats = a.stats.lock();
    assert_eq!(stats.sent[Transport::Tcp.to_byte() as usize], 10);
    assert_eq!(stats.sent[Transport::Udt.to_byte() as usize], 10);
}

#[test]
fn data_network_resolves_protocols() {
    let (w, nodes) = world(default_link(), 2);
    // Host A gets the full DataNetwork wrapper.
    let a_addr = NetAddress::new(nodes[0], 7000);
    let data_cfg = DataNetworkConfig {
        prp: PrpKind::Static(Ratio::BALANCED),
        psp: PspKind::Pattern(PatternKind::MinimalRest),
        seeds: kmsg_netsim::rng::SeedSource::new(1),
        ..DataNetworkConfig::default()
    };
    let dn = create_data_network(
        &w.system,
        &w.net,
        NetworkConfig::new(a_addr),
        data_cfg,
    )
    .expect("bind");
    let app = w.system.create(Harness::new);
    w.system.connect::<NetworkPort, _, _>(&dn.interceptor, &app);
    let send = app.self_ref(|h| &mut h.commands);
    dn.start(&w.system);
    w.system.start(&app);

    let b = stack(&w, nodes[1], 7000);
    for i in 0..20u64 {
        let msg = NetMessage::with_header(
            NetHeader::Data(DataHeader::new(a_addr, b.addr)),
            i,
        );
        send.push(NetRequest::Msg(msg));
    }
    w.sim.run_for(Duration::from_secs(5));
    let (tcp, udt) = b.app.on_definition(|h| {
        let tcp = h
            .received
            .iter()
            .filter(|m| m.header().protocol() == Transport::Tcp)
            .count();
        let udt = h
            .received
            .iter()
            .filter(|m| m.header().protocol() == Transport::Udt)
            .count();
        (tcp, udt)
    });
    assert_eq!(tcp + udt, 20, "all messages resolved and delivered");
    assert_eq!(tcp, 10, "50-50 pattern splits evenly");
    assert_eq!(udt, 10);
}

#[test]
fn deterministic_replay() {
    let run = || {
        let (w, nodes) = world(default_link().random_loss(0.01), 2);
        let a = stack(&w, nodes[0], 7000);
        let b = stack(&w, nodes[1], 7000);
        for i in 0..100u64 {
            a.send.push(NetRequest::Msg(NetMessage::new(
                a.addr,
                b.addr,
                Transport::Tcp,
                i,
            )));
        }
        w.sim.run_for(Duration::from_secs(5));
        (
            b.app.on_definition(|h| h.received.len()),
            w.sim.events_executed(),
            a.network.on_definition(|n| n.stats().lock().bytes_out),
        )
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "same seed must reproduce exactly");
    assert_eq!(first.0, 100);
}

#[test]
fn short_outage_is_survived_by_tcp_retransmission() {
    let (w, nodes) = world(default_link(), 2);
    let a = stack(&w, nodes[0], 7000);
    let b = stack(&w, nodes[1], 7000);
    // Establish the channel.
    a.send.push(NetRequest::Msg(NetMessage::new(a.addr, b.addr, Transport::Tcp, 0u64)));
    w.sim.run_for(Duration::from_millis(200));
    // 300 ms outage on the a->b direction.
    let ab = w.net.route(nodes[0], nodes[1]).expect("route")[0];
    w.net.link(ab).set_up(false);
    for i in 1..=20u64 {
        a.send.push(NetRequest::Msg(NetMessage::new(a.addr, b.addr, Transport::Tcp, i)));
    }
    w.sim.run_for(Duration::from_millis(300));
    w.net.link(ab).set_up(true);
    w.sim.run_for(Duration::from_secs(10));
    let got: Vec<u64> = b.app.on_definition(|h| {
        h.received
            .iter()
            .map(|m| m.try_deserialise::<u64, u64>().expect("u64"))
            .collect()
    });
    assert_eq!(got, (0..=20).collect::<Vec<_>>(), "RTO must recover the burst");
}

#[test]
fn permanent_outage_fails_notifies_at_most_once() {
    let (w, nodes) = world(default_link(), 2);
    // Supervision off: this pins the legacy at-most-once contract.
    let mut cfg = NetworkConfig::new(NetAddress::new(nodes[0], 7000));
    cfg.reconnect = None;
    cfg.tcp.send_buf = 16 * 1024;
    let a = stack_cfg(&w, cfg);
    let b = stack(&w, nodes[1], 7000);
    a.send.push(NetRequest::NotifyReq(
        NotifyToken::new(1),
        NetMessage::new(a.addr, b.addr, Transport::Tcp, 1u64),
    ));
    w.sim.run_for(Duration::from_millis(500));
    assert_eq!(b.app.on_definition(|h| h.received.len()), 1);
    // Cut both directions permanently.
    for (x, y) in [(nodes[0], nodes[1]), (nodes[1], nodes[0])] {
        let l = w.net.route(x, y).expect("route")[0];
        w.net.link(l).set_up(false);
    }
    // 2 and 3 fit the send buffer (written, never acknowledged); 4 is
    // longer than it and incompressible, so it stays part-written with 5
    // waiting behind it.
    for i in 2..=5u64 {
        let msg = if i == 4 {
            NetMessage::new(a.addr, b.addr, Transport::Tcp, incompressible(4, 40_000))
        } else {
            NetMessage::new(a.addr, b.addr, Transport::Tcp, i)
        };
        a.send.push(NetRequest::NotifyReq(NotifyToken::new(i), msg));
    }
    // Long enough for TCP to give up (15 backoffs capped at 60 s would be
    // huge; consecutive-timeout abort kicks in much earlier with min RTO).
    w.sim.run_for(Duration::from_secs(900));
    let notifies = a.app.on_definition(|h| h.notifies.clone());
    let failed: Vec<u64> = notifies
        .iter()
        .filter(|(_, s)| matches!(s, DeliveryStatus::Failed(SendError::ChannelClosed)))
        .map(|(t, _)| t.id)
        .collect();
    // Each token fails once; the order is the component's as it stands —
    // frames still waiting to be written first, written-but-unacknowledged
    // ones after — pinned so that changing it is a decision.
    assert_eq!(failed, vec![4, 5, 2, 3], "queued messages fail on channel death");
    assert_eq!(
        b.app.on_definition(|h| h.received.len()),
        1,
        "at-most-once: messages 2..=5 are lost, not retried by the middleware"
    );
    assert_eq!(a.stats.lock().channels_closed, 1);
}

/// The middleware is executor-agnostic: the same components run under the
/// thread-pool scheduler. Same-host vnode traffic needs no virtual time
/// (reflection does not touch the simulated wire), so this exercises the
/// real-threads path end to end.
#[test]
fn vnode_reflection_under_thread_pool_scheduler() {
    let sim = Sim::new(1);
    let net = Network::new(&sim);
    let node = net.add_node("host");
    let system = ComponentSystem::threaded(SystemConfig {
        threads: 2,
        ..SystemConfig::default()
    });
    let addr = NetAddress::new(node, 7000);
    let net_comp = create_network(&system, &net, NetworkConfig::new(addr)).expect("bind");
    let v1 = system.create(Harness::new);
    let v2 = system.create(Harness::new);
    connect_vnode(&system, &net_comp, &v1, VnodeId(1));
    connect_vnode(&system, &net_comp, &v2, VnodeId(2));
    let send = v1.self_ref(|h| &mut h.commands);
    system.start(&net_comp);
    system.start(&v1);
    system.start(&v2);
    for i in 0..50u64 {
        send.push(NetRequest::Msg(NetMessage::new(
            addr.with_vnode(VnodeId(1)),
            addr.with_vnode(VnodeId(2)),
            Transport::Tcp,
            i,
        )));
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let n = v2.on_definition(|h| h.received.len());
        if n == 50 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "threaded reflection stalled at {n}/50");
        std::thread::sleep(Duration::from_millis(5));
    }
    let got: Vec<u64> = v2.on_definition(|h| {
        h.received
            .iter()
            .map(|m| m.try_deserialise::<u64, u64>().expect("u64"))
            .collect()
    });
    assert_eq!(got, (0..50).collect::<Vec<_>>(), "FIFO reflection under threads");
    assert!(got.iter().all(|_| true));
    system.shutdown();
}

#[test]
fn idle_channels_are_torn_down_when_configured() {
    let (w, nodes) = world(default_link(), 2);
    let a_addr = NetAddress::new(nodes[0], 7000);
    let mut cfg = NetworkConfig::new(a_addr);
    cfg.idle_timeout = Some(Duration::from_secs(3));
    let a_net = create_network(&w.system, &w.net, cfg).expect("bind");
    let a_stats = a_net.on_definition(|n| n.stats());
    let a_app = w.system.create(Harness::new);
    w.system.connect::<NetworkPort, _, _>(&a_net, &a_app);
    let send = a_app.self_ref(|h| &mut h.commands);
    w.system.start(&a_net);
    w.system.start(&a_app);
    let b = stack(&w, nodes[1], 7000);
    send.push(NetRequest::Msg(NetMessage::new(
        a_addr,
        b.addr,
        Transport::Tcp,
        "hi".to_string(),
    )));
    w.sim.run_for(Duration::from_secs(1));
    assert_eq!(a_stats.lock().channels_opened, 1);
    assert_eq!(a_stats.lock().channels_closed, 0);
    // Idle past the timeout: the sweeper closes the channel.
    w.sim.run_for(Duration::from_secs(10));
    assert_eq!(a_stats.lock().channels_closed, 1, "idle sweep must close");
    // A new message transparently re-opens it.
    send.push(NetRequest::Msg(NetMessage::new(
        a_addr,
        b.addr,
        Transport::Tcp,
        "again".to_string(),
    )));
    w.sim.run_for(Duration::from_secs(2));
    assert_eq!(a_stats.lock().channels_opened, 2);
    assert_eq!(b.app.on_definition(|h| h.received.len()), 2);
}

#[test]
fn compression_reduces_wire_bytes_for_compressible_payloads() {
    let (w, nodes) = world(default_link(), 2);
    let a = stack(&w, nodes[0], 7000);
    let b = stack(&w, nodes[1], 7000);
    let compressible = Bytes::from(vec![9u8; 50_000]);
    a.send.push(NetRequest::Msg(NetMessage::new(
        a.addr,
        b.addr,
        Transport::Tcp,
        compressible.clone(),
    )));
    w.sim.run_for(Duration::from_secs(2));
    let wire = a.stats.lock().bytes_out;
    assert!(
        wire < 5_000,
        "constant payload should compress away on the wire, got {wire}"
    );
    // The receiver still sees the original bytes.
    let got = b.app.on_definition(|h| h.received.clone());
    assert_eq!(
        got[0].try_deserialise::<Bytes, Bytes>().expect("payload"),
        compressible
    );
}

/// §III-A: "A single instance of the component only allows one port to
/// listen on per protocol, but if more are required another instance with
/// a different configuration can simply be started."
#[test]
fn multiple_network_instances_per_host() {
    let (w, nodes) = world(default_link(), 2);
    // Two independent middleware instances on host 0, ports 7000 and 7100.
    let a1 = stack(&w, nodes[0], 7000);
    let a2 = stack(&w, nodes[0], 7100);
    let b = stack(&w, nodes[1], 7000);
    // Binding the same port twice must fail cleanly.
    assert!(create_network(
        &w.system,
        &w.net,
        NetworkConfig::new(NetAddress::new(nodes[0], 7000))
    )
    .is_err());
    a1.send.push(NetRequest::Msg(NetMessage::new(
        a1.addr,
        b.addr,
        Transport::Tcp,
        "from-7000".to_string(),
    )));
    a2.send.push(NetRequest::Msg(NetMessage::new(
        a2.addr,
        b.addr,
        Transport::Udt,
        "from-7100".to_string(),
    )));
    w.sim.run_for(Duration::from_secs(2));
    let got: Vec<(String, NetAddress)> = b.app.on_definition(|h| {
        h.received
            .iter()
            .map(|m| {
                (
                    m.try_deserialise::<String, String>().expect("p"),
                    *m.header().source(),
                )
            })
            .collect()
    });
    assert_eq!(got.len(), 2);
    assert!(got.iter().any(|(s, src)| s == "from-7000" && *src == a1.addr));
    assert!(got.iter().any(|(s, src)| s == "from-7100" && *src == a2.addr));
    // Each instance keeps its own channels and stats.
    assert_eq!(a1.stats.lock().total_sent(), 1);
    assert_eq!(a2.stats.lock().total_sent(), 1);
    // Replies route back to the correct instance.
    b.send.push(NetRequest::Msg(NetMessage::new(
        b.addr,
        a2.addr,
        Transport::Tcp,
        "to-7100".to_string(),
    )));
    w.sim.run_for(Duration::from_secs(2));
    assert_eq!(a2.app.on_definition(|h| h.received.len()), 1);
    assert_eq!(a1.app.on_definition(|h| h.received.len()), 0);
}

/// Notification responses carry the requesting vnode in their token, so
/// vnode channels deliver them only to the requesting subtree.
#[test]
fn vnode_scoped_notify_routing() {
    let (w, nodes) = world(default_link(), 2);
    let b = stack(&w, nodes[1], 7000);
    let a_addr = NetAddress::new(nodes[0], 7000);
    let a_net = create_network(&w.system, &w.net, NetworkConfig::new(a_addr)).expect("bind");
    let v1 = w.system.create(Harness::new);
    let v2 = w.system.create(Harness::new);
    connect_vnode(&w.system, &a_net, &v1, VnodeId(1));
    connect_vnode(&w.system, &a_net, &v2, VnodeId(2));
    let send1 = v1.self_ref(|h| &mut h.commands);
    w.system.start(&a_net);
    w.system.start(&v1);
    w.system.start(&v2);

    send1.push(NetRequest::NotifyReq(
        NotifyToken::for_vnode(VnodeId(1), 42),
        NetMessage::new(
            a_addr.with_vnode(VnodeId(1)),
            b.addr,
            Transport::Tcp,
            "scoped".to_string(),
        ),
    ));
    w.sim.run_for(Duration::from_secs(2));
    assert_eq!(b.app.on_definition(|h| h.received.len()), 1);
    let n1 = v1.on_definition(|h| h.notifies.clone());
    assert_eq!(n1.len(), 1, "requesting vnode gets the response");
    assert_eq!(n1[0].0, NotifyToken::for_vnode(VnodeId(1), 42));
    assert_eq!(n1[0].1, DeliveryStatus::Sent);
    assert!(
        v2.on_definition(|h| h.notifies.is_empty()),
        "other vnodes must not see it"
    );
}

/// Channel supervision: a multi-second outage kills the TCP channel, the
/// supervisor redials with backoff, and every queued message — including
/// frames that were in flight when the connection died — is delivered
/// after the heal (at-least-once within the retry budget).
#[test]
fn supervision_reconnects_and_redelivers_after_outage() {
    let (w, nodes) = world(default_link(), 2);
    let mut cfg = NetworkConfig::new(NetAddress::new(nodes[0], 7000));
    // Impatient TCP so the channel death is observable within the outage.
    cfg.tcp.min_rto = Duration::from_millis(100);
    cfg.tcp.max_rto = Duration::from_millis(400);
    cfg.tcp.max_consecutive_timeouts = 2;
    cfg.tcp.syn_retries = 1;
    cfg.reconnect = Some(ReconnectConfig {
        max_retries: 30,
        base_backoff: Duration::from_millis(100),
        max_backoff: Duration::from_millis(400),
        probe_interval: Some(Duration::from_secs(2)),
    });
    let a = stack_cfg(&w, cfg);
    let b = stack(&w, nodes[1], 7000);
    a.send.push(NetRequest::NotifyReq(
        NotifyToken::new(1),
        NetMessage::new(a.addr, b.addr, Transport::Tcp, 1u64),
    ));
    w.sim.run_for(Duration::from_millis(500));
    assert_eq!(b.app.on_definition(|h| h.received.len()), 1);
    // Cut both directions for four seconds.
    let links: Vec<_> = [(nodes[0], nodes[1]), (nodes[1], nodes[0])]
        .iter()
        .map(|&(x, y)| w.net.route(x, y).expect("route")[0])
        .collect();
    for &l in &links {
        w.net.link(l).set_up(false);
    }
    for i in 2..=6u64 {
        a.send.push(NetRequest::NotifyReq(
            NotifyToken::new(i),
            NetMessage::new(a.addr, b.addr, Transport::Tcp, i),
        ));
    }
    w.sim.run_for(Duration::from_secs(4));
    let statuses = a.app.on_definition(|h| h.statuses.clone());
    assert!(
        statuses
            .iter()
            .any(|s| s.status == ConnStatus::ConnectionLost && s.transport == Transport::Tcp),
        "the outage must surface as ConnectionLost, got {statuses:?}"
    );
    for &l in &links {
        w.net.link(l).set_up(true);
    }
    w.sim.run_for(Duration::from_secs(15));
    let statuses = a.app.on_definition(|h| h.statuses.clone());
    assert!(
        statuses.iter().any(|s| matches!(
            s.status,
            ConnStatus::ConnectionRestored { attempts } if attempts >= 1
        )),
        "the heal must surface as ConnectionRestored, got {statuses:?}"
    );
    // At-least-once: everything queued during the outage arrives.
    let got: Vec<u64> = b.app.on_definition(|h| {
        h.received
            .iter()
            .map(|m| m.try_deserialise::<u64, u64>().expect("u64"))
            .collect()
    });
    for i in 1..=6u64 {
        assert!(got.contains(&i), "message {i} must survive the outage, got {got:?}");
    }
    let notifies = a.app.on_definition(|h| h.notifies.clone());
    assert!(
        notifies.iter().all(|(_, s)| *s == DeliveryStatus::Sent),
        "no send may fail within the retry budget, got {notifies:?}"
    );
    let stats = a.stats.lock();
    assert!(stats.reconnect_attempts >= 1);
    assert!(stats.reconnects >= 1, "supervision must re-establish the channel");
    assert_eq!(stats.channels_dropped, 0, "budget must not be exhausted");
}

/// The configuration of a stack whose TCP gives up on a silent peer within
/// a second, so a channel death is observable within an outage, and whose
/// supervisor keeps redialling for longer than the outages below last.
fn impatient(node: NodeId) -> NetworkConfig {
    let mut cfg = NetworkConfig::new(NetAddress::new(node, 7000));
    cfg.tcp.min_rto = Duration::from_millis(100);
    cfg.tcp.max_rto = Duration::from_millis(400);
    cfg.tcp.max_consecutive_timeouts = 2;
    cfg.tcp.syn_retries = 1;
    cfg.reconnect = Some(ReconnectConfig {
        max_retries: 30,
        base_backoff: Duration::from_millis(100),
        max_backoff: Duration::from_millis(400),
        probe_interval: Some(Duration::from_secs(2)),
    });
    cfg
}

/// Both directions between the first two nodes go down for four seconds;
/// the world then gets fifteen to recover.
fn two_way_outage(w: &World, nodes: &[NodeId]) {
    let links: Vec<_> = [(nodes[0], nodes[1]), (nodes[1], nodes[0])]
        .iter()
        .map(|&(x, y)| w.net.route(x, y).expect("route")[0])
        .collect();
    for &l in &links {
        w.net.link(l).set_up(false);
    }
    w.sim.run_for(Duration::from_secs(4));
    for &l in &links {
        w.net.link(l).set_up(true);
    }
    w.sim.run_for(Duration::from_secs(15));
}

/// Three notified TCP sends, the second an incompressible payload several
/// send buffers long, driven until that frame is part-written; `interrupt`
/// then takes the connection from under it and runs the world until the
/// channel is back. However the connection was replaced, the receiver must
/// never see a torn frame: every message decodes, first arrivals are in
/// send order with byte-equal payloads, and each token gets one `Sent`.
fn part_written_frame_survives(interrupt: impl FnOnce(&World, &[NodeId], &Stack, &Stack)) {
    let (w, nodes) = world(default_link(), 2);
    let mut cfg = impatient(nodes[0]);
    cfg.tcp.send_buf = 16 * 1024;
    let a = stack_cfg(&w, cfg);
    let b = stack(&w, nodes[1], 7000);
    let payloads = vec![
        Bytes::from(&b"first"[..]),
        incompressible(5, 80_000),
        Bytes::from(&b"third"[..]),
    ];
    for (token, payload) in (1..).zip(&payloads) {
        a.send.push(NetRequest::NotifyReq(
            NotifyToken::new(token),
            NetMessage::new(a.addr, b.addr, Transport::Tcp, payload.clone()),
        ));
    }
    w.sim.run_for(Duration::from_millis(30));
    {
        let stats = a.stats.lock();
        assert_eq!(stats.sent[Transport::Tcp.to_byte() as usize], 1, "only the first frame is fully written");
        assert!(
            (1024..70_000).contains(&stats.bytes_out),
            "the second frame must be part-written, {} bytes out",
            stats.bytes_out
        );
    }
    interrupt(&w, &nodes, &a, &b);
    assert_eq!(b.stats.lock().decode_failures, 0, "no torn frame may reach the receiver");
    let mut first_arrivals: Vec<Bytes> = Vec::new();
    for payload in b.app.on_definition(|h| {
        h.received
            .iter()
            .map(|m| m.try_deserialise::<Bytes, Bytes>().expect("bytes"))
            .collect::<Vec<_>>()
    }) {
        if !first_arrivals.contains(&payload) {
            first_arrivals.push(payload);
        }
    }
    assert!(
        first_arrivals == payloads,
        "every message arrives intact and in send order, got lengths {:?}",
        first_arrivals.iter().map(Bytes::len).collect::<Vec<_>>()
    );
    let notifies = a.app.on_definition(|h| h.notifies.clone());
    assert_eq!(
        notifies,
        (1..=3)
            .map(|t| (NotifyToken::new(t), DeliveryStatus::Sent))
            .collect::<Vec<_>>(),
        "one Sent per token, in send order"
    );
}

/// The first rewind site: both link directions go down while a frame is
/// part-written, the transport gives up, supervision redials after the heal
/// and the frame restarts at byte 0 on the fresh connection.
#[test]
fn outage_in_the_middle_of_a_frame() {
    part_written_frame_survives(|w, nodes, a, _b| {
        two_way_outage(w, nodes);
        let stats = a.stats.lock();
        assert!(stats.reconnects >= 1, "supervision must re-establish the channel");
        assert_eq!(stats.channels_dropped, 0, "budget must not be exhausted");
    });
}

/// The second rewind site: a controller swap recycles the connection while
/// a frame is part-written.
#[test]
fn controller_swap_in_the_middle_of_a_frame() {
    part_written_frame_survives(|w, _nodes, a, b| {
        let changed = a
            .network
            .on_definition(|n| n.swap_controller(b.addr.as_socket(), CcAlgorithm::Cubic));
        assert!(changed, "reno -> cubic is an effective change");
        w.sim.run_for(Duration::from_secs(5));
        let stats = a.stats.lock();
        assert_eq!(stats.controller_swaps, 1);
        assert_eq!(stats.reconnect_attempts, 0, "a swap is not an outage");
    });
}

/// The inbound direction of the same outage: A's dialled connection dies
/// with the first kilobytes of a reply buffered in its decoder. The
/// connection that replaces it starts at a frame boundary, so what the dead
/// one left half-framed must not be waiting in front of the new stream —
/// the next reply would be swallowed into a torn frame, and every one after
/// it misframed.
#[test]
fn outage_in_the_middle_of_an_inbound_frame() {
    let (w, nodes) = world(default_link(), 2);
    // Impatient on both sides: each gives up on the connection within the
    // outage, so B's next reply travels over the one A dials afterwards.
    let a = stack_cfg(&w, impatient(nodes[0]));
    let b = stack_cfg(&w, impatient(nodes[1]));
    let say = |from: &Stack, to: &Stack, payload: Bytes| {
        let msg = NetMessage::new(from.addr, to.addr, Transport::Tcp, payload);
        from.send.push(NetRequest::Msg(msg));
    };
    let received = |at: &Stack| {
        at.app.on_definition(|h| {
            let payloads = h.received.iter();
            payloads
                .map(|m| m.try_deserialise::<Bytes, Bytes>().expect("bytes"))
                .collect::<Vec<_>>()
        })
    };

    say(&a, &b, Bytes::from(&b"request"[..]));
    w.sim.run_for(Duration::from_millis(50));
    assert_eq!(received(&b), [&b"request"[..]]);
    // B answers over the connection A dialled; the outage begins with the
    // reply's first window at A and the rest still to come.
    say(&b, &a, incompressible(6, 80_000));
    w.sim.run_for(Duration::from_millis(8));
    let reply_bytes_in = a.stats.lock().bytes_in;
    assert!(
        (1024..70_000).contains(&reply_bytes_in),
        "the reply must be part-received, {reply_bytes_in} bytes in"
    );
    assert!(received(&a).is_empty());
    // Something for A's TCP to give up on.
    say(&a, &b, Bytes::from(&b"again"[..]));
    two_way_outage(&w, &nodes);
    assert!(
        a.stats.lock().reconnects >= 1,
        "supervision must re-establish the channel"
    );
    assert_eq!(received(&b).last().expect("requests"), &b"again"[..]);

    say(&b, &a, Bytes::from(&b"fresh reply"[..]));
    w.sim.run_for(Duration::from_secs(1));
    let stats = a.stats.lock();
    assert_eq!(
        stats.channels_opened, 1,
        "B must have answered over A's redialled channel"
    );
    assert_eq!(stats.decode_failures, 0);
    // The long reply went down with the accepted side's connection
    // (at-most-once there); the fresh one is whole.
    assert_eq!(received(&a), [&b"fresh reply"[..]]);
}

/// Regression: the idle sweeper must not tear down a channel that still
/// has frames awaiting transport acknowledgement — the quiet period while
/// TCP retransmits into an outage is not "idle", and closing there would
/// lose the frames.
#[test]
fn idle_sweep_spares_channels_with_unacked_frames() {
    let (w, nodes) = world(default_link(), 2);
    let mut cfg = NetworkConfig::new(NetAddress::new(nodes[0], 7000));
    cfg.idle_timeout = Some(Duration::from_secs(2));
    let a = stack_cfg(&w, cfg);
    let b = stack(&w, nodes[1], 7000);
    a.send.push(NetRequest::Msg(NetMessage::new(a.addr, b.addr, Transport::Tcp, 0u64)));
    w.sim.run_for(Duration::from_millis(500));
    // Cut the data direction only: the next frame is written to the
    // transport but can never be acknowledged.
    let ab = w.net.route(nodes[0], nodes[1]).expect("route")[0];
    w.net.link(ab).set_up(false);
    a.send.push(NetRequest::NotifyReq(
        NotifyToken::new(7),
        NetMessage::new(a.addr, b.addr, Transport::Tcp, 1u64),
    ));
    // Well past the idle timeout; TCP keeps retransmitting underneath.
    w.sim.run_for(Duration::from_secs(6));
    assert_eq!(
        a.stats.lock().channels_closed,
        0,
        "a channel with unacked frames is not idle"
    );
    w.net.link(ab).set_up(true);
    w.sim.run_for(Duration::from_secs(5));
    assert_eq!(b.app.on_definition(|h| h.received.len()), 2);
    let notifies = a.app.on_definition(|h| h.notifies.clone());
    assert!(
        notifies.iter().any(|(t, s)| t.id == 7 && *s == DeliveryStatus::Sent),
        "the retransmitted frame must eventually confirm, got {notifies:?}"
    );
}

/// Graceful degradation: when the UDT channel exhausts its reconnect
/// budget mid-outage while the (more patient) TCP channel survives, new
/// DATA traffic fails over to TCP.
#[test]
fn data_fails_over_to_surviving_transport() {
    let (w, nodes) = world(default_link(), 2);
    let mut cfg = NetworkConfig::new(NetAddress::new(nodes[0], 7000));
    // DATA resolves to UDT by default; UDT gives up fast and has a tiny
    // retry budget, while TCP (default 15 consecutive timeouts) rides out
    // the whole outage.
    cfg.data_fallback = Some(Transport::Udt);
    cfg.udt.exp_timeout = Duration::from_millis(100);
    cfg.udt.max_expirations = 3;
    cfg.reconnect = Some(ReconnectConfig {
        max_retries: 1,
        base_backoff: Duration::from_millis(100),
        max_backoff: Duration::from_millis(200),
        probe_interval: None,
    });
    let a = stack_cfg(&w, cfg);
    let b = stack(&w, nodes[1], 7000);
    // Establish both stream channels.
    a.send.push(NetRequest::Msg(NetMessage::with_header(
        NetHeader::Data(DataHeader::new(a.addr, b.addr)),
        0u64,
    )));
    a.send.push(NetRequest::Msg(NetMessage::new(a.addr, b.addr, Transport::Tcp, 100u64)));
    w.sim.run_for(Duration::from_secs(1));
    assert_eq!(b.app.on_definition(|h| h.received.len()), 2);
    let links: Vec<_> = [(nodes[0], nodes[1]), (nodes[1], nodes[0])]
        .iter()
        .map(|&(x, y)| w.net.route(x, y).expect("route")[0])
        .collect();
    for &l in &links {
        w.net.link(l).set_up(false);
    }
    // In-flight data makes UDT's expiration timer fire: the channel dies,
    // one redial fails (handshake gives up after ~3 s), budget exhausted.
    a.send.push(NetRequest::Msg(NetMessage::with_header(
        NetHeader::Data(DataHeader::new(a.addr, b.addr)),
        1u64,
    )));
    w.sim.run_for(Duration::from_secs(8));
    let statuses = a.app.on_definition(|h| h.statuses.clone());
    assert!(
        statuses
            .iter()
            .any(|s| s.status == ConnStatus::ConnectionDropped && s.transport == Transport::Udt),
        "UDT must exhaust its budget, got {statuses:?}"
    );
    // New DATA traffic now reroutes to the surviving TCP channel.
    for i in 2..=4u64 {
        a.send.push(NetRequest::Msg(NetMessage::with_header(
            NetHeader::Data(DataHeader::new(a.addr, b.addr)),
            i,
        )));
    }
    for &l in &links {
        w.net.link(l).set_up(true);
    }
    w.sim.run_for(Duration::from_secs(10));
    assert!(a.stats.lock().failovers >= 3, "DATA sends must fail over");
    let got: Vec<(u64, Transport)> = b.app.on_definition(|h| {
        h.received
            .iter()
            .map(|m| {
                (
                    m.try_deserialise::<u64, u64>().expect("u64"),
                    m.header().protocol(),
                )
            })
            .collect()
    });
    for i in 2..=4u64 {
        assert!(
            got.iter().any(|&(v, t)| v == i && t == Transport::Tcp),
            "message {i} must arrive over TCP, got {got:?}"
        );
    }
}

/// Regression: a deliberately cyclic route must die at the TTL, not
/// circulate forever. Each forwarding host charges one unit of budget;
/// the host that would forward at zero drops with a recorded reason.
#[test]
fn cyclic_route_is_killed_by_ttl() {
    let (w, nodes) = world(default_link(), 3);
    w.sim.recorder().enable();
    let a = stack(&w, nodes[0], 7000);
    let b = stack(&w, nodes[1], 7000);
    let c = stack(&w, nodes[2], 7000);
    // a -> b -> a -> b -> a -> b -> ... never reaching c.
    let mut rh = RoutingHeader::with_route(
        BasicHeader::new(a.addr, c.addr, Transport::Tcp),
        vec![b.addr, a.addr, b.addr, a.addr, b.addr],
    );
    rh.ttl = 3;
    a.send.push(NetRequest::Msg(NetMessage::with_header(
        NetHeader::Routing(rh),
        "doomed".to_string(),
    )));
    w.sim.run_for(Duration::from_secs(3));
    assert_eq!(c.app.on_definition(|h| h.received.len()), 0, "never reaches c");
    // b forwards at ttl 3 and 1; a forwards at ttl 2 and drops at 0.
    assert_eq!(b.stats.lock().forwarded, 2);
    assert_eq!(a.stats.lock().forwarded, 1);
    assert_eq!(a.stats.lock().ttl_drops, 1, "the cycle dies at the TTL");
    assert_eq!(b.stats.lock().ttl_drops, 0);
    let drops = w
        .sim
        .recorder()
        .events()
        .iter()
        .filter(|e| e.kind.label() == "overlay")
        .count();
    assert_eq!(drops, 1, "the drop is recorded with a reason");
}

/// Supervision edge case: link flaps arriving while the channel is
/// already `Reconnecting` must neither double-supervise nor wedge the
/// state machine — every `restored` pairs with a preceding `lost`, and
/// all queued traffic still arrives after the final heal.
#[test]
fn flap_while_reconnecting_keeps_supervision_consistent() {
    let (w, nodes) = world(default_link(), 2);
    let mut cfg = NetworkConfig::new(NetAddress::new(nodes[0], 7000));
    cfg.tcp.min_rto = Duration::from_millis(100);
    cfg.tcp.max_rto = Duration::from_millis(400);
    cfg.tcp.max_consecutive_timeouts = 2;
    cfg.tcp.syn_retries = 1;
    cfg.reconnect = Some(ReconnectConfig {
        max_retries: 60,
        base_backoff: Duration::from_millis(100),
        max_backoff: Duration::from_millis(400),
        probe_interval: Some(Duration::from_secs(2)),
    });
    let a = stack_cfg(&w, cfg);
    let b = stack(&w, nodes[1], 7000);
    a.send.push(NetRequest::Msg(NetMessage::new(a.addr, b.addr, Transport::Tcp, 0u64)));
    w.sim.run_for(Duration::from_millis(500));
    let links: Vec<_> = [(nodes[0], nodes[1]), (nodes[1], nodes[0])]
        .iter()
        .map(|&(x, y)| w.net.route(x, y).expect("route")[0])
        .collect();
    let mut next = 1u64;
    // Three flaps: cut, queue traffic, briefly heal mid-backoff, cut again
    // while redials are in flight.
    for _ in 0..3 {
        for &l in &links {
            w.net.link(l).set_up(false);
        }
        for _ in 0..2 {
            a.send.push(NetRequest::NotifyReq(
                NotifyToken::new(next),
                NetMessage::new(a.addr, b.addr, Transport::Tcp, next),
            ));
            next += 1;
        }
        w.sim.run_for(Duration::from_millis(1_700));
        for &l in &links {
            w.net.link(l).set_up(true);
        }
        w.sim.run_for(Duration::from_millis(300));
    }
    w.sim.run_for(Duration::from_secs(15));
    // Status stream must alternate: no restored without a preceding lost,
    // never two losses without a heal in between.
    let statuses = a.app.on_definition(|h| h.statuses.clone());
    let mut down = false;
    for s in statuses.iter().filter(|s| s.transport == Transport::Tcp) {
        match s.status {
            ConnStatus::ConnectionLost => {
                assert!(!down, "double ConnectionLost without a heal: {statuses:?}");
                down = true;
            }
            ConnStatus::ConnectionRestored { .. } => {
                assert!(down, "ConnectionRestored without a loss: {statuses:?}");
                down = false;
            }
            ConnStatus::ConnectionDropped => panic!("budget exhausted: {statuses:?}"),
        }
    }
    assert!(!down, "the final heal must be observed");
    let got: Vec<u64> = b.app.on_definition(|h| {
        h.received
            .iter()
            .map(|m| m.try_deserialise::<u64, u64>().expect("u64"))
            .collect()
    });
    for i in 1..next {
        assert!(got.contains(&i), "message {i} must survive the flaps, got {got:?}");
    }
    let stats = a.stats.lock();
    assert!(stats.reconnects >= 1, "supervision must re-establish the channel");
    assert_eq!(stats.channels_dropped, 0);
}

/// Supervision edge case: once exponential backoff saturates at
/// `max_backoff`, every further wait stays within the deterministic
/// ±25% jitter band around the cap — and the whole schedule replays
/// byte-identically for the same seed.
#[test]
fn backoff_saturates_at_max_with_bounded_jitter() {
    let run = || {
        let (w, nodes) = world(default_link(), 2);
        w.sim.recorder().enable();
        let mut cfg = NetworkConfig::new(NetAddress::new(nodes[0], 7000));
        cfg.tcp.min_rto = Duration::from_millis(100);
        cfg.tcp.max_rto = Duration::from_millis(400);
        cfg.tcp.max_consecutive_timeouts = 2;
        cfg.tcp.syn_retries = 1;
        cfg.reconnect = Some(ReconnectConfig {
            max_retries: 100,
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_millis(400),
            probe_interval: None,
        });
        let a = stack_cfg(&w, cfg);
        let b = stack(&w, nodes[1], 7000);
        a.send.push(NetRequest::Msg(NetMessage::new(a.addr, b.addr, Transport::Tcp, 0u64)));
        w.sim.run_for(Duration::from_millis(500));
        let links: Vec<_> = [(nodes[0], nodes[1]), (nodes[1], nodes[0])]
            .iter()
            .map(|&(x, y)| w.net.route(x, y).expect("route")[0])
            .collect();
        for &l in &links {
            w.net.link(l).set_up(false);
        }
        a.send.push(NetRequest::Msg(NetMessage::new(a.addr, b.addr, Transport::Tcp, 1u64)));
        // Long outage: backoff doubles 100 -> 200 -> 400 and then sits at
        // the 400 ms cap for many rounds.
        w.sim.run_for(Duration::from_secs(20));
        for &l in &links {
            w.net.link(l).set_up(true);
        }
        w.sim.run_for(Duration::from_secs(10));
        assert!(a.stats.lock().reconnects >= 1);
        let forest = kmsg_telemetry::critical_path::SpanForest::build(
            &w.sim.recorder().events(),
        );
        let waits: Vec<u64> = forest
            .of_kind("backoff")
            .iter()
            .filter_map(|s| s.close_ns.map(|c| c - s.open_ns))
            .collect();
        assert!(
            waits.len() >= 6,
            "the outage must produce a saturated backoff schedule, got {waits:?}"
        );
        for &w_ns in &waits {
            assert!(
                w_ns <= 500_000_000,
                "backoff may never exceed max_backoff + 25% jitter, got {w_ns} ns"
            );
        }
        // Everything past the doubling ramp sits in the ±25% band around
        // the 400 ms cap.
        for &w_ns in &waits[3..] {
            assert!(
                (300_000_000..=500_000_000).contains(&w_ns),
                "saturated backoff must stay within the jitter band, got {w_ns} ns"
            );
        }
        waits
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "the jittered schedule must replay exactly");
}

/// Runtime controller swap (the DATA stack-policy surface): swapping a
/// live TCP channel onto CUBIC recycles the connection in place — no
/// ConnectionLost surfaces, traffic keeps flowing, the swap is counted
/// as a supervision episode and recorded on the flight recorder.
#[test]
fn runtime_controller_swap_recycles_the_live_channel() {
    let (w, nodes) = world(default_link(), 2);
    w.sim.recorder().enable();
    let a = stack(&w, nodes[0], 7000);
    let b = stack(&w, nodes[1], 7000);
    for i in 0..10u64 {
        a.send.push(NetRequest::Msg(NetMessage::new(a.addr, b.addr, Transport::Tcp, i)));
    }
    w.sim.run_for(Duration::from_secs(2));
    assert_eq!(b.app.on_definition(|h| h.received.len()), 10);
    let changed = a
        .network
        .on_definition(|n| n.swap_controller(b.addr.as_socket(), CcAlgorithm::Cubic));
    assert!(changed, "reno -> cubic is an effective change");
    w.sim.run_for(Duration::from_secs(1));
    {
        let stats = a.stats.lock();
        assert_eq!(stats.controller_swaps, 1);
        assert_eq!(stats.channels_opened, 2, "the recycle dials a fresh connection");
        assert_eq!(stats.channels_closed, 1);
    }
    for i in 10..20u64 {
        a.send.push(NetRequest::Msg(NetMessage::new(a.addr, b.addr, Transport::Tcp, i)));
    }
    w.sim.run_for(Duration::from_secs(2));
    let got: Vec<u64> = b.app.on_definition(|h| {
        h.received
            .iter()
            .map(|m| m.try_deserialise::<u64, u64>().expect("u64"))
            .collect()
    });
    assert_eq!(got, (0..20).collect::<Vec<_>>(), "no traffic lost across the swap");
    // The deliberate recycle must not masquerade as an outage.
    let statuses = a.app.on_definition(|h| h.statuses.clone());
    assert!(
        !statuses.iter().any(|s| s.status == ConnStatus::ConnectionLost),
        "a swap is not an outage, got {statuses:?}"
    );
    // Re-selecting the same controller is a no-op.
    let changed = a
        .network
        .on_definition(|n| n.swap_controller(b.addr.as_socket(), CcAlgorithm::Cubic));
    assert!(!changed);
    assert_eq!(a.stats.lock().controller_swaps, 1, "no-op swaps do not recycle");
    // The decision is on the flight recorder, once.
    let swaps: Vec<(&'static str, bool)> = w
        .sim
        .recorder()
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            kmsg_telemetry::EventKind::CcSwap {
                controller,
                recycled,
                ..
            } => Some((controller, recycled)),
            _ => None,
        })
        .collect();
    assert_eq!(swaps, vec![("cubic", true)]);
}

/// A controller override installed before any traffic applies on the
/// first dial: the policy changes, nothing is recycled, and the fresh
/// connection runs the selected controller (visible as BBR telemetry).
#[test]
fn controller_swap_before_dial_applies_on_first_connect() {
    let (w, nodes) = world(default_link(), 2);
    w.sim.recorder().enable();
    let a = stack(&w, nodes[0], 7000);
    let b = stack(&w, nodes[1], 7000);
    let changed = a
        .network
        .on_definition(|n| n.swap_controller(b.addr.as_socket(), CcAlgorithm::Bbr));
    assert!(changed, "a policy change with no live channel still counts");
    assert_eq!(a.stats.lock().controller_swaps, 0, "nothing to recycle yet");
    for i in 0..40u64 {
        a.send.push(NetRequest::Msg(NetMessage::new(a.addr, b.addr, Transport::Tcp, i)));
    }
    w.sim.run_for(Duration::from_secs(3));
    assert_eq!(b.app.on_definition(|h| h.received.len()), 40);
    assert_eq!(a.stats.lock().channels_opened, 1);
    let events = w.sim.recorder().events();
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, kmsg_telemetry::EventKind::BbrState { .. })),
        "the first dial must pick BBR up from the stack policy"
    );
    assert!(
        events.iter().any(|e| matches!(
            e.kind,
            kmsg_telemetry::EventKind::CcSwap {
                controller: "bbr",
                recycled: false,
                ..
            }
        )),
        "the pre-dial swap is recorded as not recycled"
    );
}

/// Garbage on the wire must never take the middleware down — it is
/// counted and dropped.
#[test]
fn garbage_datagrams_are_counted_not_fatal() {
    use kmsg_netsim::udp::UdpSocket;

    let (w, nodes) = world(default_link(), 2);
    let a = stack(&w, nodes[0], 7000);
    let b = stack(&w, nodes[1], 7000);
    // A rogue UDP socket spews non-frame bytes at B's middleware port.
    struct Mute;
    impl kmsg_netsim::udp::UdpEvents for Mute {
        fn on_datagram(
            &self,
            _s: &UdpSocket,
            _src: kmsg_netsim::packet::Endpoint,
            _d: Bytes,
        ) {
        }
    }
    let rogue = UdpSocket::bind(&w.net, nodes[0], 9999, Arc::new(Mute)).expect("bind");
    for junk in [&b"not a frame"[..], &[0xff; 64][..], &[0, 0, 0, 200, 1][..]] {
        rogue
            .send_to(b.addr.as_socket(), Bytes::copy_from_slice(junk))
            .expect("send");
    }
    w.sim.run_for(Duration::from_secs(1));
    assert!(b.stats.lock().decode_failures >= 3, "junk counted");
    // The stack still works afterwards.
    a.send.push(NetRequest::Msg(NetMessage::new(
        a.addr,
        b.addr,
        Transport::Udp,
        "still alive".to_string(),
    )));
    w.sim.run_for(Duration::from_secs(1));
    assert_eq!(b.app.on_definition(|h| h.received.len()), 1);
}

/// A stream that announces an oversized frame cannot be resynchronised: the
/// failure is counted once and the connection closed, rather than every
/// later write being buffered and counted again. Other connections are
/// served throughout.
#[test]
fn poisoned_stream_is_closed_not_buffered() {
    use kmsg_netsim::iface::{CloseReason, Connection, StreamEvents};
    use kmsg_netsim::tcp::{TcpConfig, TcpConn};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[derive(Default)]
    struct Closes(AtomicUsize);
    impl StreamEvents for Closes {
        fn on_closed(&self, _conn: &Connection, _reason: CloseReason) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    let (w, nodes) = world(default_link(), 2);
    let a = stack(&w, nodes[0], 7000);
    let b = stack(&w, nodes[1], 7000);
    let mut next = 0u64;
    let mut well_formed = |settle: Duration| {
        a.send.push(NetRequest::Msg(NetMessage::new(a.addr, b.addr, Transport::Tcp, next)));
        next += 1;
        w.sim.run_for(settle);
    };
    well_formed(Duration::from_millis(200));
    // A raw connection to B's middleware port: a length prefix above
    // `MAX_FRAME`, then 1 MiB in eight writes.
    let closes = Arc::new(Closes::default());
    let rogue = TcpConn::connect(
        &w.net,
        nodes[0],
        b.addr.as_socket(),
        TcpConfig::default(),
        closes.clone(),
    )
    .expect("dial");
    w.sim.run_for(Duration::from_millis(100));
    assert_eq!(rogue.send(Bytes::from(vec![0xff; 4])), 4);
    for _ in 0..8 {
        // Accepted while the connection is open, refused once B closed it.
        rogue.send(Bytes::from(vec![0u8; 128 * 1024]));
        well_formed(Duration::from_millis(200));
    }
    well_formed(Duration::from_secs(2));
    {
        let stats = b.stats.lock();
        assert_eq!(stats.decode_failures, 1, "one poisoned stream is one failure");
        assert_eq!(stats.channels_closed, 1, "the poisoned channel is closed");
    }
    assert_eq!(closes.0.load(Ordering::SeqCst), 1, "the dialler sees the close");
    let got: Vec<u64> = b.app.on_definition(|h| {
        h.received
            .iter()
            .map(|m| m.try_deserialise::<u64, u64>().expect("u64"))
            .collect()
    });
    assert_eq!(got, (0..10).collect::<Vec<_>>(), "the well-formed peer is served throughout");
}
