//! End-to-end overlay tests: full middleware stacks (network component +
//! transports) with an [`OverlayComponent`] on top, exchanging pub/sub
//! traffic through a simulated mesh and rerouting around partitions.

use std::time::Duration;

use kmsg_component::prelude::*;
use kmsg_core::prelude::*;
use kmsg_netsim::engine::Sim;
use kmsg_netsim::link::LinkConfig;
use kmsg_netsim::network::Network;
use kmsg_netsim::packet::NodeId;
use kmsg_netsim::rng::SeedSource;
use kmsg_telemetry::bytes::Bytes;

struct Node {
    net_stats: StatsHandle,
    overlay: ComponentRef<OverlayComponent>,
    overlay_stats: OverlayStatsHandle,
    app: ComponentRef<PortSink<OverlayPort>>,
    send: SelfRef<OverlayRequest>,
}

struct World {
    sim: Sim,
    net: Network,
    system: ComponentSystem,
    seeds: SeedSource,
}

const PORT: u16 = 7100;

fn world(n_nodes: usize) -> (World, Vec<NodeId>) {
    let sim = Sim::new(77);
    let net = Network::new(&sim);
    let link = LinkConfig::new(10e6, Duration::from_millis(5));
    let nodes: Vec<NodeId> = (0..n_nodes)
        .map(|i| net.add_node(format!("h{i}")))
        .collect();
    for i in 0..n_nodes {
        for j in 0..n_nodes {
            if i != j {
                let l = net.add_link(link.clone());
                net.set_route(nodes[i], nodes[j], vec![l]);
            }
        }
    }
    let system = ComponentSystem::simulation(&sim, SystemConfig::default());
    (
        World {
            sim,
            net,
            system,
            seeds: SeedSource::new(9),
        },
        nodes,
    )
}

/// An impatient supervision template so link death is detected within a
/// short scripted partition (mirrors the chaos benchmark tuning).
fn impatient(addr: NetAddress) -> NetworkConfig {
    let mut cfg = NetworkConfig::new(addr);
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

fn build_node(w: &World, node: NodeId, peers: &[NodeId], subjects: &[&str]) -> Node {
    let addr = NetAddress::new(node, PORT);
    let network = create_network(&w.system, &w.net, impatient(addr)).expect("bind");
    let net_stats = network.on_definition(|n| n.stats());
    let mut cfg = OverlayConfig::new(
        addr,
        peers.iter().map(|&p| NetAddress::new(p, PORT)).collect(),
    );
    cfg.gossip_interval = Duration::from_millis(200);
    cfg.subscriptions = subjects.iter().map(|s| (*s).to_string()).collect();
    let rng = w.seeds.stream(&format!("overlay-{}", node.index()));
    let recorder = w.sim.recorder().clone();
    let overlay = w
        .system
        .create(move || OverlayComponent::new(cfg, rng, recorder));
    let overlay_stats = overlay.on_definition(|o| o.stats());
    w.system.connect::<NetworkPort, _, _>(&network, &overlay);
    let app = w.system.create(PortSink::default);
    w.system.connect::<OverlayPort, _, _>(&overlay, &app);
    let send = app.self_ref(|s| &mut s.requests);
    w.system.start(&network);
    w.system.start(&overlay);
    w.system.start(&app);
    Node {
        net_stats,
        overlay,
        overlay_stats,
        app,
        send,
    }
}

fn publish(node: &Node, subject: &str, payload: &'static [u8]) {
    node.send.push(OverlayRequest::Publish {
        subject: subject.to_string(),
        payload: Bytes::from_static(payload),
    });
}

fn cut(w: &World, nodes: &[NodeId], i: usize, j: usize, up: bool) {
    for (x, y) in [(nodes[i], nodes[j]), (nodes[j], nodes[i])] {
        let l = w.net.route(x, y).expect("route")[0];
        w.net.link(l).set_up(up);
    }
}

/// The tentpole behaviour: when the direct link dies, the overlay
/// re-sends along a surviving multi-hop route *before* channel
/// supervision manages a reconnect, and receiver dedup keeps delivery
/// at-most-once once supervision's requeue lands after the heal.
#[test]
fn overlay_reroutes_around_partition_before_reconnect() {
    let (w, nodes) = world(3);
    let a = build_node(&w, nodes[0], &[nodes[1], nodes[2]], &[]);
    let b = build_node(&w, nodes[1], &[nodes[0], nodes[2]], &[]);
    let c = build_node(&w, nodes[2], &[nodes[0], nodes[1]], &["t"]);
    // Let gossip spread the tables and dial the channels.
    w.sim.run_for(Duration::from_secs(1));
    publish(&a, "t", b"m1");
    w.sim.run_for(Duration::from_millis(500));
    assert_eq!(
        c.app.on_definition(|s| s.received.len()),
        1,
        "direct delivery before the partition"
    );
    // Partition the direct a<->c edge and publish into it.
    cut(&w, &nodes, 0, 2, false);
    publish(&a, "t", b"m2");
    w.sim.run_for(Duration::from_millis(1_500));
    // Still partitioned: m2 must have arrived via b, and no reconnect
    // can have succeeded yet (the direct link is still down).
    let seqs: Vec<u64> = c
        .app
        .on_definition(|s| s.received.iter().map(|d| d.seq).collect());
    assert!(
        seqs.contains(&2),
        "m2 must be rerouted around the partition, got seqs {seqs:?}"
    );
    assert_eq!(
        a.net_stats.lock().reconnects,
        0,
        "rerouting must beat supervision's reconnect"
    );
    {
        let st = a.overlay_stats.lock();
        assert!(st.reroutes >= 1, "link death must trigger a reroute");
        assert!(st.resends >= 1, "the recent buffer must be re-sent");
    }
    assert!(
        b.net_stats.lock().forwarded >= 1,
        "the reroute must relay through b"
    );
    // Heal; supervision requeues the frames that died with the channel —
    // the receiver-side dedup window absorbs those duplicates.
    cut(&w, &nodes, 0, 2, true);
    w.sim.run_for(Duration::from_secs(6));
    let seqs: Vec<u64> = c
        .app
        .on_definition(|s| s.received.iter().map(|d| d.seq).collect());
    assert_eq!(seqs.len(), 2, "at-most-once per subscriber, got {seqs:?}");
    assert!(seqs.contains(&1) && seqs.contains(&2));
    assert!(
        c.overlay_stats.lock().dup_drops >= 1,
        "the requeue race must be absorbed by dedup, not surface twice"
    );
    // No TTL exhaustion anywhere: routes were loop-free.
    for n in [&a, &b, &c] {
        assert_eq!(n.net_stats.lock().ttl_drops, 0);
    }
    // After the heal the link-state tables converge again.
    let digests: Vec<u64> = [&a, &b, &c]
        .iter()
        .map(|n| n.overlay.on_definition(|o| o.table_digest()))
        .collect();
    assert!(
        digests.windows(2).all(|d| d[0] == d[1]),
        "gossip must reconverge after the heal, got {digests:?}"
    );
    let st = a.overlay_stats.lock();
    assert!(st.link_events >= 2, "down and up must both be observed");
}

/// Subscriptions added at runtime propagate by gossip and start
/// attracting publications; unsubscribing stops them.
#[test]
fn dynamic_subscriptions_propagate_by_gossip() {
    let (w, nodes) = world(3);
    let a = build_node(&w, nodes[0], &[nodes[1], nodes[2]], &[]);
    let b = build_node(&w, nodes[1], &[nodes[0], nodes[2]], &[]);
    let c = build_node(&w, nodes[2], &[nodes[0], nodes[1]], &[]);
    w.sim.run_for(Duration::from_secs(1));
    // Nobody is subscribed: the publish goes nowhere.
    publish(&a, "news", b"x0");
    w.sim.run_for(Duration::from_millis(500));
    assert_eq!(b.app.on_definition(|s| s.received.len()), 0);
    assert_eq!(c.app.on_definition(|s| s.received.len()), 0);
    // b subscribes at runtime; the subscription gossips out.
    b.send.push(OverlayRequest::Subscribe {
        subject: "news".to_string(),
    });
    w.sim.run_for(Duration::from_secs(1));
    publish(&a, "news", b"x1");
    w.sim.run_for(Duration::from_millis(500));
    assert_eq!(
        b.app.on_definition(|s| s.received.len()),
        1,
        "runtime subscription must attract the publish"
    );
    assert_eq!(c.app.on_definition(|s| s.received.len()), 0);
    // Unsubscribe: no further deliveries.
    b.send.push(OverlayRequest::Unsubscribe {
        subject: "news".to_string(),
    });
    w.sim.run_for(Duration::from_secs(1));
    publish(&a, "news", b"x2");
    w.sim.run_for(Duration::from_millis(500));
    assert_eq!(
        b.app.on_definition(|s| s.received.len()),
        1,
        "unsubscribe must stop deliveries"
    );
    assert_eq!(a.overlay_stats.lock().published, 3);
}
