//! Middleware tests at two levels.
//!
//! World cases run two or three linked hosts through full stacks
//! (component system + network component + transports): round trips,
//! acknowledgement-driven `Sent` notifies, supervision, outages, failover,
//! compression on the wire and FIFO order.
//!
//! Scripted cases run one stack on a node that no link reaches
//! ([`scripted`]) and hand it its transport inputs as `NetEvent`s pushed on
//! the component's `events` self-port: how the shell routes, decodes and
//! reflects the frames it is given, read off its sink and its stats.

use std::sync::Arc;

use std::time::Duration;

use kmsg_component::prelude::*;
use kmsg_core::net::frame::{encode_frame, Compression};
use kmsg_core::net::NetEvent;
use kmsg_core::prelude::*;
use kmsg_netsim::engine::Sim;
use kmsg_netsim::iface::{Connection, StreamEvents};
use kmsg_netsim::link::LinkConfig;
use kmsg_netsim::network::Network;
use kmsg_netsim::packet::{Endpoint, NodeId};
use kmsg_netsim::tcp::{TcpConfig, TcpConn};
use kmsg_telemetry::bytes::Bytes;
use kmsg_telemetry::EventKind;

type Sink = ComponentRef<PortSink<NetworkPort>>;

/// What `sink` received that `pick` keeps, in arrival order.
fn seen<T>(sink: &Sink, pick: impl FnMut(&NetIndication) -> Option<T>) -> Vec<T> {
    sink.on_definition(|s| s.received.iter().filter_map(pick).collect())
}

/// The messages `sink` received, in order.
fn msgs(sink: &Sink) -> Vec<NetMessage> {
    seen(sink, |ind| match ind {
        NetIndication::Msg(m) => Some(m.clone()),
        _ => None,
    })
}

/// The payloads of the messages `sink` received, in order.
fn payloads<T: Clone + Deserialiser<T> + 'static>(sink: &Sink) -> Vec<T> {
    let msgs = msgs(sink).into_iter();
    msgs.map(|m| m.try_deserialise::<T, T>().expect("payload"))
        .collect()
}

/// The notification responses `sink` received, in order.
fn notifies(sink: &Sink) -> Vec<(NotifyToken, DeliveryStatus)> {
    seen(sink, |ind| match *ind {
        NetIndication::NotifyResp(token, status) => Some((token, status)),
        _ => None,
    })
}

/// The channel statuses `sink` received, in order.
fn statuses(sink: &Sink) -> Vec<ChannelStatus> {
    seen(sink, |ind| match *ind {
        NetIndication::Status(status) => Some(status),
        _ => None,
    })
}

struct Stack {
    addr: NetAddress,
    network: ComponentRef<NetworkComponent>,
    app: Sink,
    send: SelfRef<NetRequest>,
    /// The network component's transport inputs.
    events: SelfRef<NetEvent>,
    stats: StatsHandle,
}

struct World {
    sim: Sim,
    net: Network,
    system: ComponentSystem,
}

/// `n_nodes` hosts and no link.
fn world(n_nodes: usize) -> (World, Vec<NodeId>) {
    let sim = Sim::new(77);
    let net = Network::new(&sim);
    let nodes: Vec<NodeId> = (0..n_nodes)
        .map(|i| net.add_node(format!("h{i}")))
        .collect();
    let system = ComponentSystem::simulation(&sim, SystemConfig::default());
    (World { sim, net, system }, nodes)
}

/// `n_nodes` hosts, a `link` of its own from each to each other.
fn linked(link: LinkConfig, n_nodes: usize) -> (World, Vec<NodeId>) {
    let (w, nodes) = world(n_nodes);
    for &from in &nodes {
        for &to in &nodes {
            if from != to {
                let l = w.net.add_link(link.clone());
                w.net.set_route(from, to, vec![l]);
            }
        }
    }
    (w, nodes)
}

fn stack(w: &World, node: NodeId, port: u16) -> Stack {
    stack_cfg(w, NetworkConfig::new(NetAddress::new(node, port)))
}

fn stack_cfg(w: &World, cfg: NetworkConfig) -> Stack {
    let addr = cfg.addr;
    let network = create_network(&w.system, &w.net, cfg).expect("bind");
    let stats = network.on_definition(|n| n.stats());
    let events = network.self_ref(|n| &mut n.events);
    let app = w.system.create(PortSink::default);
    w.system.connect::<NetworkPort, _, _>(&network, &app);
    let send = app.self_ref(|s| &mut s.requests);
    w.system.start(&network);
    w.system.start(&app);
    Stack {
        addr,
        network,
        app,
        send,
        events,
        stats,
    }
}

/// Two sinks on `network`'s port, for vnodes 1 and 2.
fn vnodes(w: &World, network: &ComponentRef<NetworkComponent>) -> [Sink; 2] {
    [1, 2].map(|id| {
        let sink = w.system.create(PortSink::default);
        connect_vnode(&w.system, network, &sink, VnodeId(id));
        w.system.start(&sink);
        sink
    })
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

// --- scripted cases -----------------------------------------------------

/// The scripted fixture: a stack on a node that no link reaches, and a
/// second such node for the cases to name as its peer. Nothing arrives
/// from the fabric; a case pushes the transport's side on `events`.
fn scripted() -> (World, Stack, NodeId) {
    let (w, nodes) = world(2);
    let s = stack(&w, nodes[0], 7000);
    (w, s, nodes[1])
}

/// Lets the scripted stack handle what was pushed.
fn settle(w: &World) {
    w.sim.run_for(Duration::from_millis(1));
}

/// `msg` as a stack writes it on the wire.
fn frame(msg: NetMessage) -> Bytes {
    encode_frame(&msg, Compression::default()).expect("frame")
}

/// Hears nothing: the handler of the connections handed to a stack.
struct Mute;
impl StreamEvents for Mute {}

/// Hands `s` a TCP connection as if accepted from `peer`. It is dialled
/// from `s`'s node towards `peer`, whose node no link reaches, so its
/// handshake goes nowhere and `s` hears only what a case pushes.
fn accept(w: &World, s: &Stack, peer: Endpoint) -> TcpConn {
    let node = s.addr.node();
    let cfg = TcpConfig::default();
    let conn = TcpConn::connect(&w.net, node, peer, cfg, Arc::new(Mute)).expect("dial");
    s.events
        .push(NetEvent::Accepted(Connection::Tcp(conn.clone())));
    conn
}

/// Messages between vnodes of one host are reflected up the port without
/// serialisation and in send order, each notified `DeliveredLocally`.
/// Only the addressed vnode sees a message, and nothing reaches the wire.
#[test]
fn same_host_vnodes_reflect_locally() {
    let (w, s, _) = scripted();
    let v = vnodes(&w, &s.network);
    let send1 = v[0].self_ref(|s| &mut s.requests);
    let token = |i| NotifyToken::for_vnode(VnodeId(1), i);
    let (src, dst) = (s.addr.with_vnode(VnodeId(1)), s.addr.with_vnode(VnodeId(2)));
    for i in 0..50u64 {
        let msg = NetMessage::new(src, dst, Transport::Tcp, i);
        send1.push(NetRequest::NotifyReq(token(i), msg));
    }
    settle(&w);
    assert!(msgs(&v[0]).is_empty(), "selector filters v1");
    assert!(
        msgs(&v[1]).iter().all(|m| !m.is_from_wire()),
        "same-host vnodes never serialise"
    );
    let seq = payloads::<u64>(&v[1]);
    assert_eq!(seq, (0..50).collect::<Vec<_>>(), "FIFO reflection");
    assert_eq!(
        notifies(&v[0]),
        (0..50)
            .map(|i| (token(i), DeliveryStatus::DeliveredLocally))
            .collect::<Vec<_>>()
    );
    assert!(notifies(&v[1]).is_empty());
    let stats = s.stats.lock();
    assert_eq!(stats.local_reflections, 50);
    assert_eq!(stats.total_sent(), 0, "nothing hit the wire");
}

/// An inbound message reaches only the vnode its destination names.
#[test]
fn vnode_channels_route_by_id() {
    let (w, s, peer) = scripted();
    let v = vnodes(&w, &s.network);
    let from = NetAddress::new(peer, 7000);
    for id in [1, 2] {
        let to = s.addr.with_vnode(VnodeId(id));
        let msg = NetMessage::new(from, to, Transport::Udp, format!("to-v{id}"));
        s.events
            .push(NetEvent::Datagram(from.as_socket(), frame(msg)));
    }
    settle(&w);
    assert_eq!(payloads::<String>(&v[0]), ["to-v1"]);
    assert_eq!(payloads::<String>(&v[1]), ["to-v2"]);
}

/// Once a message on an accepted connection names its sender's listen
/// address, replies to that address reuse the connection instead of
/// dialling one: a TCP reply, and a `DATA` message that no interceptor
/// resolved, which falls back to TCP.
#[test]
fn reply_reuses_inbound_channel() {
    let (w, s, peer) = scripted();
    let from = NetAddress::new(peer, 7000);
    let conn = accept(&w, &s, Endpoint::new(peer, 40_000));
    let ping = NetMessage::new(from, s.addr, Transport::Tcp, "ping".to_string());
    s.events.push(NetEvent::Data(conn.id(), frame(ping)));
    settle(&w);
    assert_eq!(payloads::<String>(&s.app), ["ping"]);
    let pong = NetMessage::new(s.addr, from, Transport::Tcp, "pong".to_string());
    let data = NetHeader::Data(DataHeader::new(s.addr, from));
    s.send.push(NetRequest::Msg(pong));
    s.send
        .push(NetRequest::Msg(NetMessage::with_header(data, 7u64)));
    settle(&w);
    let stats = s.stats.lock();
    assert_eq!(stats.channels_opened, 1, "replies must reuse the channel");
    assert_eq!(stats.unresolved_data, 1);
    assert_eq!(
        stats.sent[Transport::Tcp.to_byte() as usize],
        2,
        "DATA fell back to TCP"
    );
    assert_eq!(
        conn.unacked_bytes() as u64,
        stats.bytes_out,
        "both went into the accepted connection"
    );
}

/// A routed message's TTL is its forwarding budget. A host that a message
/// names as the next hop forwards it while budget is left, charging one
/// unit, and drops it with a recorded reason at zero, so a cyclic route
/// dies instead of circulating. `multi_hop_routing_forwards` reads the
/// charged unit off the header the next host receives.
#[test]
fn cyclic_route_is_killed_by_ttl() {
    let (w, s, peer) = scripted();
    w.sim.recorder().enable();
    let other = NetAddress::new(peer, 7000);
    for ttl in [1, 0] {
        // From `other`, on a route that bounces between the two hosts.
        let base = BasicHeader::new(other, NetAddress::new(peer, 7100), Transport::Tcp);
        let mut rh = RoutingHeader::with_route(base, vec![s.addr, other, s.addr]);
        rh.ttl = ttl;
        let msg = NetMessage::with_header(NetHeader::Routing(rh), "doomed".to_string());
        s.events
            .push(NetEvent::Datagram(other.as_socket(), frame(msg)));
    }
    settle(&w);
    assert!(msgs(&s.app).is_empty(), "delivered nowhere");
    {
        let stats = s.stats.lock();
        assert_eq!(stats.forwarded, 1, "forwarded while budget is left");
        assert_eq!(stats.ttl_drops, 1, "dropped at zero");
    }
    let drops: Vec<EventKind> = w
        .sim
        .recorder()
        .events()
        .into_iter()
        .map(|e| e.kind)
        .filter(|k| matches!(k, EventKind::TtlDrop { .. }))
        .collect();
    let here = u64::from(s.addr.node().index());
    let dst = u64::from(peer.index());
    assert_eq!(
        drops,
        [EventKind::TtlDrop { node: here, dst }],
        "one drop, recorded by the host that dropped it, naming the destination"
    );
}

/// Garbage datagrams never take the middleware down: each is counted and
/// dropped, and the next frame is delivered.
#[test]
fn garbage_datagrams_are_counted_not_fatal() {
    let (w, s, peer) = scripted();
    let from = NetAddress::new(peer, 7000);
    for junk in [&b"not a frame"[..], &[0xff; 64][..], &[0, 0, 0, 200, 1][..]] {
        let junk = Bytes::copy_from_slice(junk);
        s.events.push(NetEvent::Datagram(from.as_socket(), junk));
    }
    let alive = NetMessage::new(from, s.addr, Transport::Udp, "still alive".to_string());
    s.events
        .push(NetEvent::Datagram(from.as_socket(), frame(alive)));
    settle(&w);
    assert_eq!(s.stats.lock().decode_failures, 3, "junk counted");
    assert_eq!(payloads::<String>(&s.app), ["still alive"]);
}

/// Stream bytes are framed wherever the transport cuts them: one frame
/// split at every byte offset across two `Data` events is delivered
/// exactly once each time.
#[test]
fn a_frame_cut_at_any_byte_is_delivered_once() {
    let (w, s, peer) = scripted();
    let from = NetAddress::new(peer, 7000);
    let conn = accept(&w, &s, Endpoint::new(peer, 40_000));
    let text = "cut anywhere".to_string();
    let bytes = frame(NetMessage::new(from, s.addr, Transport::Tcp, text.clone()));
    for cut in 0..=bytes.len() {
        for part in [bytes.slice(..cut), bytes.slice(cut..)] {
            s.events.push(NetEvent::Data(conn.id(), part));
        }
        settle(&w);
        let got = payloads::<String>(&s.app);
        assert_eq!(got.len(), cut + 1, "cut at byte {cut}");
        assert_eq!(got[cut], text);
    }
    assert_eq!(s.stats.lock().decode_failures, 0);
}

/// A bad length prefix cannot be resynchronised past. Behind two whole
/// frames in one `Data` event, the two are delivered first; then one
/// decode failure is counted and the connection closed, which fails the
/// reply queued on its channel. Later writes are neither buffered nor
/// counted again, and another connection is served throughout.
#[test]
fn poisoned_stream_is_closed_not_buffered() {
    let (w, s, peer) = scripted();
    let (rogue_addr, good_addr) = (NetAddress::new(peer, 7000), NetAddress::new(peer, 7100));
    let rogue = accept(&w, &s, Endpoint::new(peer, 40_000));
    let good = accept(&w, &s, Endpoint::new(peer, 40_001));
    let msg = |from: NetAddress, i: u64| frame(NetMessage::new(from, s.addr, Transport::Tcp, i));
    s.events.push(NetEvent::Data(good.id(), msg(good_addr, 0)));
    s.events
        .push(NetEvent::Data(rogue.id(), msg(rogue_addr, 100)));
    settle(&w);
    let reply = NetMessage::new(s.addr, rogue_addr, Transport::Tcp, 1u64);
    s.send
        .push(NetRequest::NotifyReq(NotifyToken::new(1), reply));
    settle(&w);
    let mut poisoned = Vec::new();
    for i in [101, 102] {
        poisoned.extend_from_slice(&msg(rogue_addr, i));
    }
    poisoned.extend_from_slice(&[0xff; 4]);
    s.events
        .push(NetEvent::Data(rogue.id(), Bytes::from(poisoned)));
    settle(&w);
    let log: Vec<String> = s.app.on_definition(|s| {
        let log = s.received.iter().map(|ind| match ind {
            NetIndication::Msg(m) => format!("msg {}", m.try_deserialise::<u64, u64>().unwrap()),
            NetIndication::NotifyResp(token, status) => format!("notify {} {status:?}", token.id),
            NetIndication::Status(status) => format!("{status:?}"),
        });
        log.collect()
    });
    assert_eq!(
        log,
        [
            "msg 0",
            "msg 100",
            "msg 101",
            "msg 102",
            "notify 1 Failed(ChannelClosed)",
        ],
        "the frames ahead of the poison are handled before the close"
    );
    for i in 1..=8 {
        let write = Bytes::from(vec![0u8; 128 * 1024]);
        s.events.push(NetEvent::Data(rogue.id(), write));
        s.events.push(NetEvent::Data(good.id(), msg(good_addr, i)));
        settle(&w);
    }
    {
        let stats = s.stats.lock();
        assert_eq!(
            stats.decode_failures, 1,
            "one poisoned stream is one failure"
        );
        assert_eq!(stats.channels_closed, 1, "the poisoned channel is closed");
    }
    let one = || Bytes::from_static(b"x");
    assert_eq!(
        rogue.send(one()),
        0,
        "the stack closed the rogue connection"
    );
    assert_eq!(good.send(one()), 1, "and only that one");
    assert_eq!(
        payloads::<u64>(&s.app),
        [0, 100, 101, 102, 1, 2, 3, 4, 5, 6, 7, 8],
        "the well-formed connection is served throughout"
    );
}

// --- world cases --------------------------------------------------------

#[test]
fn tcp_message_round_trip() {
    let (w, nodes) = linked(default_link(), 2);
    let a = stack(&w, nodes[0], 7000);
    let b = stack(&w, nodes[1], 7000);
    a.send.push(NetRequest::Msg(NetMessage::new(
        a.addr,
        b.addr,
        Transport::Tcp,
        "hello over tcp".to_string(),
    )));
    w.sim.run_for(Duration::from_secs(2));
    let got = msgs(&b.app);
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
    let (w, nodes) = linked(default_link(), 2);
    let a = stack(&w, nodes[0], 7000);
    let b = stack(&w, nodes[1], 7000);
    a.send.push(NetRequest::Msg(NetMessage::new(
        a.addr,
        b.addr,
        Transport::Udt,
        Bytes::from_static(b"udt payload"),
    )));
    w.sim.run_for(Duration::from_secs(2));
    let got = msgs(&b.app);
    assert_eq!(got.len(), 1);
    assert_eq!(
        got[0].try_deserialise::<Bytes, Bytes>().expect("payload"),
        Bytes::from_static(b"udt payload")
    );
    assert_eq!(got[0].header().protocol(), Transport::Udt);
}

#[test]
fn udp_message_round_trip_and_size_limit() {
    let (w, nodes) = linked(default_link(), 2);
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
    assert_eq!(msgs(&b.app).len(), 1, "only the small datagram arrives");
    let notifies = notifies(&a.app);
    assert_eq!(notifies.len(), 2);
    assert_eq!(notifies[0].1, DeliveryStatus::Sent);
    assert_eq!(
        notifies[1].1,
        DeliveryStatus::Failed(SendError::TooLargeForUdp)
    );
}

#[test]
fn oversized_payload_fails_the_send_not_the_world() {
    let (w, nodes) = linked(default_link(), 2);
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
    assert_eq!(
        notifies(&a.app),
        vec![
            (
                NotifyToken::new(1),
                DeliveryStatus::Failed(SendError::Serialisation)
            ),
            (NotifyToken::new(2), DeliveryStatus::Sent),
        ]
    );
    assert_eq!(msgs(&b.app).len(), 1);
}

#[test]
fn notify_sent_for_stream_transports() {
    let (w, nodes) = linked(default_link(), 2);
    let a = stack(&w, nodes[0], 7000);
    let b = stack(&w, nodes[1], 7000);
    for (id, proto) in [(1u64, Transport::Tcp), (2, Transport::Udt)] {
        a.send.push(NetRequest::NotifyReq(
            NotifyToken::new(id),
            NetMessage::new(a.addr, b.addr, proto, format!("m{id}")),
        ));
    }
    w.sim.run_for(Duration::from_secs(3));
    let notifies = notifies(&a.app);
    assert_eq!(notifies.len(), 2);
    assert!(notifies.iter().all(|(_, s)| *s == DeliveryStatus::Sent));
    assert_eq!(msgs(&b.app).len(), 2);
}

#[test]
fn fifo_order_per_transport() {
    let (w, nodes) = linked(default_link(), 2);
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
    let got = payloads::<u64>(&b.app);
    assert_eq!(got, (0..50).collect::<Vec<_>>(), "TCP preserves FIFO");
}

#[test]
fn multi_hop_routing_forwards() {
    let (w, nodes) = linked(default_link(), 3);
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
    assert_eq!(msgs(&b.app).len(), 0, "b only forwards");
    assert_eq!(b.stats.lock().forwarded, 1);
    let got = msgs(&c.app);
    assert_eq!(got.len(), 1);
    assert_eq!(
        got[0].try_deserialise::<String, String>().expect("p"),
        "through the middle"
    );
    // The source presented to c is the original sender: c can reply
    // directly (the paper's replyTo motivation).
    assert_eq!(*got[0].header().source(), a.addr);
    // b charged the routing budget one unit for its hop.
    match got[0].header() {
        NetHeader::Routing(rh) => assert_eq!(rh.ttl, DEFAULT_TTL - 1, "one hop, one unit"),
        other => panic!("the routing header is lost: {other:?}"),
    }
}

#[test]
fn per_message_transport_mixing_on_one_destination() {
    let (w, nodes) = linked(default_link(), 2);
    let a = stack(&w, nodes[0], 7000);
    let b = stack(&w, nodes[1], 7000);
    // Alternate transports message by message — the paper's core ability.
    for i in 0..30u64 {
        let proto = match i % 3 {
            0 => Transport::Tcp,
            1 => Transport::Udt,
            _ => Transport::Udp,
        };
        a.send
            .push(NetRequest::Msg(NetMessage::new(a.addr, b.addr, proto, i)));
    }
    w.sim.run_for(Duration::from_secs(5));
    let mut by_proto = [0u32; 4];
    for m in msgs(&b.app) {
        by_proto[m.header().protocol().to_byte() as usize] += 1;
    }
    assert_eq!(by_proto[Transport::Tcp.to_byte() as usize], 10);
    assert_eq!(by_proto[Transport::Udt.to_byte() as usize], 10);
    assert_eq!(by_proto[Transport::Udp.to_byte() as usize], 10);
    let stats = a.stats.lock();
    assert_eq!(stats.sent[Transport::Tcp.to_byte() as usize], 10);
    assert_eq!(stats.sent[Transport::Udt.to_byte() as usize], 10);
}

#[test]
fn deterministic_replay() {
    let run = || {
        let (w, nodes) = linked(default_link().random_loss(0.01), 2);
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
            msgs(&b.app).len(),
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
    let (w, nodes) = linked(default_link(), 2);
    let a = stack(&w, nodes[0], 7000);
    let b = stack(&w, nodes[1], 7000);
    // Establish the channel.
    a.send.push(NetRequest::Msg(NetMessage::new(
        a.addr,
        b.addr,
        Transport::Tcp,
        0u64,
    )));
    w.sim.run_for(Duration::from_millis(200));
    // 300 ms outage on the a->b direction.
    let ab = w.net.route(nodes[0], nodes[1]).expect("route")[0];
    w.net.link(ab).set_up(false);
    for i in 1..=20u64 {
        a.send.push(NetRequest::Msg(NetMessage::new(
            a.addr,
            b.addr,
            Transport::Tcp,
            i,
        )));
    }
    w.sim.run_for(Duration::from_millis(300));
    w.net.link(ab).set_up(true);
    w.sim.run_for(Duration::from_secs(10));
    assert_eq!(
        payloads::<u64>(&b.app),
        (0..=20).collect::<Vec<_>>(),
        "RTO must recover the burst"
    );
}

#[test]
fn compression_reduces_wire_bytes_for_compressible_payloads() {
    let (w, nodes) = linked(default_link(), 2);
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
    assert_eq!(payloads::<Bytes>(&b.app)[0], compressible);
}

/// §III-A: "A single instance of the component only allows one port to
/// listen on per protocol, but if more are required another instance with
/// a different configuration can simply be started."
#[test]
fn multiple_network_instances_per_host() {
    let (w, nodes) = linked(default_link(), 2);
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
    let got: Vec<(String, NetAddress)> = msgs(&b.app)
        .iter()
        .map(|m| {
            (
                m.try_deserialise::<String, String>().expect("p"),
                *m.header().source(),
            )
        })
        .collect();
    assert_eq!(got.len(), 2);
    assert!(got
        .iter()
        .any(|(s, src)| s == "from-7000" && *src == a1.addr));
    assert!(got
        .iter()
        .any(|(s, src)| s == "from-7100" && *src == a2.addr));
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
    assert_eq!(msgs(&a2.app).len(), 1);
    assert_eq!(msgs(&a1.app).len(), 0);
}

/// Notification responses carry the requesting vnode in their token, so
/// vnode channels deliver them only to the requesting subtree.
#[test]
fn vnode_scoped_notify_routing() {
    let (w, nodes) = linked(default_link(), 2);
    let b = stack(&w, nodes[1], 7000);
    let a_addr = NetAddress::new(nodes[0], 7000);
    let a_net = create_network(&w.system, &w.net, NetworkConfig::new(a_addr)).expect("bind");
    w.system.start(&a_net);
    let [v1, v2] = vnodes(&w, &a_net);
    let send1 = v1.self_ref(|s| &mut s.requests);

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
    assert_eq!(msgs(&b.app).len(), 1);
    let n1 = notifies(&v1);
    assert_eq!(n1.len(), 1, "requesting vnode gets the response");
    assert_eq!(n1[0].0, NotifyToken::for_vnode(VnodeId(1), 42));
    assert_eq!(n1[0].1, DeliveryStatus::Sent);
    assert!(notifies(&v2).is_empty(), "other vnodes must not see it");
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
    cfg.reconnect = ReconnectConfig {
        max_retries: 30,
        base_backoff: Duration::from_millis(100),
        max_backoff: Duration::from_millis(400),
        probe_interval: Duration::from_secs(2),
    };
    cfg
}

/// Takes both directions between the first two nodes down, or back up.
fn set_links(w: &World, nodes: &[NodeId], up: bool) {
    for (x, y) in [(nodes[0], nodes[1]), (nodes[1], nodes[0])] {
        let l = w.net.route(x, y).expect("route")[0];
        w.net.link(l).set_up(up);
    }
}

/// Both directions between the first two nodes go down for four seconds;
/// the world then gets fifteen to recover.
fn two_way_outage(w: &World, nodes: &[NodeId]) {
    set_links(w, nodes, false);
    w.sim.run_for(Duration::from_secs(4));
    set_links(w, nodes, true);
    w.sim.run_for(Duration::from_secs(15));
}

/// Channel supervision: a multi-second outage kills the TCP channel, the
/// supervisor redials with backoff, and every queued message — including
/// frames that were in flight when the connection died — is delivered
/// after the heal (at-least-once within the retry budget).
#[test]
fn supervision_reconnects_and_redelivers_after_outage() {
    let (w, nodes) = linked(default_link(), 2);
    let a = stack_cfg(&w, impatient(nodes[0]));
    let b = stack(&w, nodes[1], 7000);
    a.send.push(NetRequest::NotifyReq(
        NotifyToken::new(1),
        NetMessage::new(a.addr, b.addr, Transport::Tcp, 1u64),
    ));
    w.sim.run_for(Duration::from_millis(500));
    assert_eq!(msgs(&b.app).len(), 1);
    // Cut both directions for four seconds.
    set_links(&w, &nodes, false);
    for i in 2..=6u64 {
        a.send.push(NetRequest::NotifyReq(
            NotifyToken::new(i),
            NetMessage::new(a.addr, b.addr, Transport::Tcp, i),
        ));
    }
    w.sim.run_for(Duration::from_secs(4));
    let statuses = statuses(&a.app);
    assert!(
        statuses
            .iter()
            .any(|s| s.status == ConnStatus::ConnectionLost && s.transport == Transport::Tcp),
        "the outage must surface as ConnectionLost, got {statuses:?}"
    );
    set_links(&w, &nodes, true);
    w.sim.run_for(Duration::from_secs(15));
    let statuses = self::statuses(&a.app);
    assert!(
        statuses.iter().any(|s| matches!(
            s.status,
            ConnStatus::ConnectionRestored { attempts } if attempts >= 1
        )),
        "the heal must surface as ConnectionRestored, got {statuses:?}"
    );
    // At-least-once: everything queued during the outage arrives.
    let got = payloads::<u64>(&b.app);
    for i in 1..=6u64 {
        assert!(
            got.contains(&i),
            "message {i} must survive the outage, got {got:?}"
        );
    }
    let notifies = notifies(&a.app);
    assert!(
        notifies.iter().all(|(_, s)| *s == DeliveryStatus::Sent),
        "no send may fail within the retry budget, got {notifies:?}"
    );
    let stats = a.stats.lock();
    assert!(stats.reconnect_attempts >= 1);
    assert!(
        stats.reconnects >= 1,
        "supervision must re-establish the channel"
    );
    assert_eq!(stats.channels_dropped, 0, "budget must not be exhausted");
}

/// Three notified TCP sends, the second an incompressible payload several
/// send buffers long, driven until that frame is part-written; then both
/// link directions go down, the transport gives up, supervision redials
/// after the heal and the frame restarts at byte 0 on the fresh connection.
/// The receiver must never see a torn frame: every message decodes, first
/// arrivals are in send order with byte-equal payloads, and each token gets
/// one `Sent`.
#[test]
fn outage_in_the_middle_of_a_frame() {
    let (w, nodes) = linked(default_link(), 2);
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
        assert_eq!(
            stats.sent[Transport::Tcp.to_byte() as usize],
            1,
            "only the first frame is fully written"
        );
        assert!(
            (1024..70_000).contains(&stats.bytes_out),
            "the second frame must be part-written, {} bytes out",
            stats.bytes_out
        );
    }
    two_way_outage(&w, &nodes);
    {
        let stats = a.stats.lock();
        assert!(
            stats.reconnects >= 1,
            "supervision must re-establish the channel"
        );
        assert_eq!(stats.channels_dropped, 0, "budget must not be exhausted");
    }
    assert_eq!(
        b.stats.lock().decode_failures,
        0,
        "no torn frame may reach the receiver"
    );
    let mut first_arrivals: Vec<Bytes> = Vec::new();
    for payload in self::payloads::<Bytes>(&b.app) {
        if !first_arrivals.contains(&payload) {
            first_arrivals.push(payload);
        }
    }
    assert!(
        first_arrivals == payloads,
        "every message arrives intact and in send order, got lengths {:?}",
        first_arrivals.iter().map(Bytes::len).collect::<Vec<_>>()
    );
    assert_eq!(
        notifies(&a.app),
        (1..=3)
            .map(|t| (NotifyToken::new(t), DeliveryStatus::Sent))
            .collect::<Vec<_>>(),
        "one Sent per token, in send order"
    );
}

/// The inbound direction of the same outage: A's dialled connection dies
/// with the first kilobytes of a reply buffered in its decoder. The
/// connection that replaces it starts at a frame boundary, so what the dead
/// one left half-framed must not be waiting in front of the new stream —
/// the next reply would be swallowed into a torn frame, and every one after
/// it misframed.
#[test]
fn outage_in_the_middle_of_an_inbound_frame() {
    let (w, nodes) = linked(default_link(), 2);
    // Impatient on both sides: each gives up on the connection within the
    // outage, so B's next reply travels over the one A dials afterwards.
    let a = stack_cfg(&w, impatient(nodes[0]));
    let b = stack_cfg(&w, impatient(nodes[1]));
    let say = |from: &Stack, to: &Stack, payload: Bytes| {
        let msg = NetMessage::new(from.addr, to.addr, Transport::Tcp, payload);
        from.send.push(NetRequest::Msg(msg));
    };
    let received = |at: &Stack| payloads::<Bytes>(&at.app);

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

/// Graceful degradation: when the UDT channel exhausts its reconnect
/// budget mid-outage while the (more patient) TCP channel survives, new
/// DATA traffic fails over to TCP.
#[test]
fn data_fails_over_to_surviving_transport() {
    let (w, nodes) = linked(default_link(), 2);
    let mut cfg = NetworkConfig::new(NetAddress::new(nodes[0], 7000));
    // DATA resolves to UDT, as the interceptor would; UDT gives up fast
    // and has a tiny retry budget, while TCP (default 15 consecutive
    // timeouts) rides out the whole outage.
    cfg.udt.exp_timeout = Duration::from_millis(100);
    cfg.udt.max_expirations = 3;
    cfg.reconnect = ReconnectConfig {
        max_retries: 1,
        base_backoff: Duration::from_millis(100),
        max_backoff: Duration::from_millis(200),
        ..ReconnectConfig::default()
    };
    let a = stack_cfg(&w, cfg);
    let b = stack(&w, nodes[1], 7000);
    let data = |value: u64| {
        let header = DataHeader {
            selected: Some(Transport::Udt),
            ..DataHeader::new(a.addr, b.addr)
        };
        NetRequest::Msg(NetMessage::with_header(NetHeader::Data(header), value))
    };
    // Establish both stream channels.
    a.send.push(data(0));
    a.send.push(NetRequest::Msg(NetMessage::new(
        a.addr,
        b.addr,
        Transport::Tcp,
        100u64,
    )));
    w.sim.run_for(Duration::from_secs(1));
    assert_eq!(msgs(&b.app).len(), 2);
    set_links(&w, &nodes, false);
    // In-flight data makes UDT's expiration timer fire: the channel dies,
    // one redial fails (handshake gives up after ~3 s), budget exhausted.
    a.send.push(data(1));
    w.sim.run_for(Duration::from_secs(8));
    let statuses = statuses(&a.app);
    assert!(
        statuses
            .iter()
            .any(|s| s.status == ConnStatus::ConnectionDropped && s.transport == Transport::Udt),
        "UDT must exhaust its budget, got {statuses:?}"
    );
    // New DATA traffic now reroutes to the surviving TCP channel.
    for i in 2..=4u64 {
        a.send.push(data(i));
    }
    set_links(&w, &nodes, true);
    w.sim.run_for(Duration::from_secs(10));
    assert!(a.stats.lock().failovers >= 3, "DATA sends must fail over");
    let got: Vec<(u64, Transport)> = msgs(&b.app)
        .iter()
        .map(|m| {
            (
                m.try_deserialise::<u64, u64>().expect("u64"),
                m.header().protocol(),
            )
        })
        .collect();
    for i in 2..=4u64 {
        assert!(
            got.iter().any(|&(v, t)| v == i && t == Transport::Tcp),
            "message {i} must arrive over TCP, got {got:?}"
        );
    }
}
