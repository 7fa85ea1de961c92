//! Property-based tests on the transport models: whatever the write
//! pattern, loss rate or delay, the reliable transports must deliver the
//! exact byte stream, in order, exactly once. Sampled cases run on the
//! crate's own deterministic [`PropRunner`] — each case's inputs replay
//! from its seeded stream, no external framework involved.

use std::sync::Arc;
use std::time::Duration;

use rand::Rng;

use kmsg_netsim::engine::Sim;
use kmsg_netsim::iface::{Connection, StreamAccept, StreamEvents};
use kmsg_netsim::link::LinkConfig;
use kmsg_netsim::network::Network;
use kmsg_netsim::packet::Endpoint;
use kmsg_netsim::rng::RngStream;
use kmsg_netsim::tcp::{TcpConfig, TcpConn, TcpListener};
use kmsg_netsim::testutil::{pattern_bytes, PatternSender, PropRunner, Recorder};
use kmsg_netsim::udt::{UdtConfig, UdtConn, UdtListener};

const TRANSFER_CASES: u64 = 24;

struct AcceptRecorder(Arc<Recorder>);
impl StreamAccept for AcceptRecorder {
    fn on_accept(&self, _conn: &Connection) -> Arc<dyn StreamEvents> {
        self.0.clone()
    }
}

#[derive(Debug, Clone)]
struct NetParams {
    seed: u64,
    total: usize,
    loss: f64,
    delay_ms: u64,
    bandwidth_mbps: u64,
}

fn gen_params(rng: &mut RngStream) -> NetParams {
    NetParams {
        seed: rng.gen_range(0u64..1000),
        total: rng.gen_range(1usize..400_000),
        loss: if rng.gen_bool(0.5) {
            0.0
        } else {
            rng.gen_range(0.001..0.03f64)
        },
        delay_ms: rng.gen_range(0u64..60),
        bandwidth_mbps: rng.gen_range(1u64..50),
    }
}

fn run_tcp(p: &NetParams) -> (usize, bool) {
    let sim = Sim::new(p.seed);
    let net = Network::new(&sim);
    let a = net.add_node("a");
    let b = net.add_node("b");
    let link = LinkConfig::new(
        p.bandwidth_mbps as f64 * 1e6,
        Duration::from_millis(p.delay_ms),
    )
    .random_loss(p.loss);
    net.connect_duplex(a, b, link);
    let server = Arc::new(Recorder::default());
    let _l = TcpListener::bind(
        &net,
        b,
        80,
        TcpConfig::default(),
        Arc::new(AcceptRecorder(server.clone())),
    )
    .expect("bind");
    let pump = PatternSender::new(p.total);
    let _conn =
        TcpConn::connect(&net, a, Endpoint::new(b, 80), TcpConfig::default(), pump).expect("conn");
    // Generous horizon: lossy slow links with tiny windows are slow.
    sim.run_for(Duration::from_secs(600));
    (server.data_len(), server.in_order())
}

fn run_udt(p: &NetParams) -> (usize, bool) {
    let sim = Sim::new(p.seed);
    let net = Network::new(&sim);
    let a = net.add_node("a");
    let b = net.add_node("b");
    let link = LinkConfig::new(
        p.bandwidth_mbps as f64 * 1e6,
        Duration::from_millis(p.delay_ms),
    )
    .random_loss(p.loss);
    net.connect_duplex(a, b, link);
    let server = Arc::new(Recorder::default());
    let _l = UdtListener::bind(
        &net,
        b,
        90,
        UdtConfig::default(),
        Arc::new(AcceptRecorder(server.clone())),
    )
    .expect("bind");
    let pump = PatternSender::new(p.total);
    let _conn =
        UdtConn::connect(&net, a, Endpoint::new(b, 90), UdtConfig::default(), pump).expect("conn");
    sim.run_for(Duration::from_secs(600));
    (server.data_len(), server.in_order())
}

#[test]
fn tcp_delivers_exactly_in_order() {
    PropRunner::new("transport-tcp-exact-delivery")
        .cases(TRANSFER_CASES)
        .run(gen_params, |p| {
            let (len, ordered) = run_tcp(p);
            assert_eq!(len, p.total, "all bytes must arrive: {p:?}");
            assert!(ordered, "bytes must be the exact pattern: {p:?}");
        });
}

#[test]
fn udt_delivers_exactly_in_order() {
    PropRunner::new("transport-udt-exact-delivery")
        .cases(TRANSFER_CASES)
        .run(gen_params, |p| {
            let (len, ordered) = run_udt(p);
            assert_eq!(len, p.total, "all bytes must arrive: {p:?}");
            assert!(ordered, "bytes must be the exact pattern: {p:?}");
        });
}

#[test]
fn pattern_bytes_consistent() {
    PropRunner::new("pattern-bytes-concatenation")
        .cases(64)
        .run(
            |rng| (rng.gen_range(0usize..10_000), rng.gen_range(0usize..5_000)),
            |&(offset, len)| {
                let a = pattern_bytes(offset, len);
                // Concatenation property: pattern(o, n1) ++ pattern(o+n1, n2)
                // is pattern(o, n1+n2).
                let n1 = len / 2;
                let b = pattern_bytes(offset, n1);
                let c = pattern_bytes(offset + n1, len - n1);
                let mut joined = b.to_vec();
                joined.extend_from_slice(&c);
                assert_eq!(a.to_vec(), joined);
            },
        );
}

#[test]
fn same_seed_same_byte_counts() {
    let p = NetParams {
        seed: 7,
        total: 100_000,
        loss: 0.01,
        delay_ms: 10,
        bandwidth_mbps: 10,
    };
    assert_eq!(run_tcp(&p), run_tcp(&p));
    assert_eq!(run_udt(&p), run_udt(&p));
}

#[test]
fn tracer_observes_policer_drops() {
    use kmsg_netsim::link::{DropReason, PolicerConfig};
    use kmsg_netsim::testutil::CollectingTracer;
    use kmsg_netsim::trace::PacketEvent;
    use kmsg_netsim::udp::UdpSocket;
    use kmsg_telemetry::bytes::Bytes;

    struct Ignore;
    impl kmsg_netsim::udp::UdpEvents for Ignore {
        fn on_datagram(&self, _s: &UdpSocket, _src: Endpoint, _d: Bytes) {}
    }

    let sim = Sim::new(3);
    let net = Network::new(&sim);
    let a = net.add_node("a");
    let b = net.add_node("b");
    let (ab, _) = net.connect_duplex(
        a,
        b,
        LinkConfig::new(100e6, Duration::from_millis(1)).udp_policer(PolicerConfig {
            rate: 10_000.0,
            burst: 10_000.0,
        }),
    );
    let tracer = Arc::new(CollectingTracer::default());
    net.set_tracer(tracer.clone());
    let rx = Arc::new(Ignore);
    let _b_sock = UdpSocket::bind(&net, b, 9, rx.clone()).expect("bind");
    let a_sock = UdpSocket::bind(&net, a, 8, rx).expect("bind");
    for _ in 0..20 {
        a_sock
            .send_to(Endpoint::new(b, 9), Bytes::from(vec![0u8; 5000]))
            .expect("send");
    }
    sim.run_for(Duration::from_secs(1));
    // The fabric's own counters say what happened; the tracer saw each of
    // those packets happen.
    let (stats, policed) = (net.stats(), net.link(ab).stats().dropped_policer);
    assert_eq!(stats.sent, 20);
    assert!(policed > 0, "the policer must drop some");
    assert!(stats.delivered > 0);
    assert_eq!(
        stats.delivered + policed,
        20,
        "every packet is accounted for"
    );
    let records = tracer.records();
    let traced = |event| records.iter().filter(|r| r.event == event).count() as u64;
    assert_eq!(traced(PacketEvent::Sent), stats.sent);
    assert_eq!(traced(PacketEvent::Delivered), stats.delivered);
    assert_eq!(traced(PacketEvent::Dropped(DropReason::Policed)), policed);
}

#[test]
fn jitter_reorders_udp_but_not_tcp() {
    use kmsg_netsim::udp::UdpSocket;
    use kmsg_telemetry::bytes::Bytes;
    use parking_lot::Mutex as PMutex;

    struct Order(PMutex<Vec<u8>>);
    impl kmsg_netsim::udp::UdpEvents for Order {
        fn on_datagram(&self, _s: &UdpSocket, _src: Endpoint, d: Bytes) {
            self.0.lock().push(d[0]);
        }
    }

    let sim = Sim::new(9);
    let net = Network::new(&sim);
    let a = net.add_node("a");
    let b = net.add_node("b");
    let link = LinkConfig::new(1e9, Duration::from_millis(10)).jitter(Duration::from_millis(8));
    net.connect_duplex(a, b, link.clone());

    // UDP: arrival order may differ from send order.
    let order = Arc::new(Order(PMutex::new(Vec::new())));
    let _b_sock = UdpSocket::bind(&net, b, 9, order.clone()).expect("bind");
    let a_sock =
        UdpSocket::bind(&net, a, 8, Arc::new(Order(PMutex::new(Vec::new())))).expect("bind");
    for i in 0..50u8 {
        a_sock
            .send_to(Endpoint::new(b, 9), Bytes::from(vec![i]))
            .expect("send");
    }
    sim.run_for(Duration::from_secs(1));
    let got = order.0.lock().clone();
    assert_eq!(got.len(), 50);
    let mut sorted = got.clone();
    sorted.sort_unstable();
    assert_ne!(got, sorted, "jitter should reorder UDP datagrams");

    // TCP on the same jittery path still delivers the exact stream.
    let server = Arc::new(Recorder::default());
    let _l = TcpListener::bind(
        &net,
        b,
        80,
        TcpConfig::default(),
        Arc::new(AcceptRecorder(server.clone())),
    )
    .expect("bind");
    let pump = PatternSender::new(200_000);
    let _conn =
        TcpConn::connect(&net, a, Endpoint::new(b, 80), TcpConfig::default(), pump).expect("conn");
    sim.run_for(Duration::from_secs(30));
    assert_eq!(server.data_len(), 200_000);
    assert!(
        server.in_order(),
        "TCP must repair jitter-induced reordering"
    );
}

/// The engine executes events in (time, insertion) order regardless of
/// how they were scheduled.
#[test]
fn engine_ordering_invariant() {
    PropRunner::new("engine-event-ordering").cases(32).run(
        |rng| {
            let n = rng.gen_range(1usize..200);
            (0..n)
                .map(|_| rng.gen_range(0u64..1000))
                .collect::<Vec<u64>>()
        },
        |delays| {
            use parking_lot::Mutex as PMutex;
            let sim = Sim::new(1);
            let log = Arc::new(PMutex::new(Vec::new()));
            for (idx, &d) in delays.iter().enumerate() {
                let log = log.clone();
                sim.schedule_in(Duration::from_micros(d), move |s| {
                    log.lock().push((s.now(), idx));
                });
            }
            sim.run_to_completion();
            let got = log.lock().clone();
            assert_eq!(got.len(), delays.len());
            // Times are non-decreasing, and equal times preserve insertion
            // order.
            for w in got.windows(2) {
                assert!(w[0].0 <= w[1].0);
                if w[0].0 == w[1].0 {
                    assert!(w[0].1 < w[1].1, "tie must keep insertion order");
                }
            }
        },
    );
}

/// Seeded random streams are stable across construction order.
#[test]
fn rng_streams_stable() {
    PropRunner::new("rng-stream-stability").cases(32).run(
        |rng| {
            let seed: u64 = rng.gen();
            let len = rng.gen_range(1usize..=12);
            let name: String = (0..len)
                .map(|_| char::from(b'a' + rng.gen_range(0u8..26)))
                .collect();
            (seed, name)
        },
        |(seed, name)| {
            use kmsg_netsim::rng::SeedSource;
            let a: u64 = SeedSource::new(*seed).stream(name).gen();
            // Interleave other stream creations; the named stream is
            // unchanged.
            let src = SeedSource::new(*seed);
            let _ = src.stream("other");
            let _ = src.sub_source(5).stream(name);
            let b: u64 = src.stream(name).gen();
            assert_eq!(a, b);
        },
    );
}
