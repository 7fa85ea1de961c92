//! Full-duplex tests: both ends of one connection send large streams
//! simultaneously — the middleware keys one channel per (peer, protocol)
//! and uses it in both directions, so this path must be solid.

use std::sync::Arc;
use std::time::Duration;

use kmsg_telemetry::bytes::Bytes;
use parking_lot::Mutex;

use kmsg_netsim::engine::Sim;
use kmsg_netsim::iface::{Connection, StreamAccept, StreamEvents};
use kmsg_netsim::link::LinkConfig;
use kmsg_netsim::network::Network;
use kmsg_netsim::packet::Endpoint;
use kmsg_netsim::tcp::{TcpConfig, TcpConn, TcpListener};
use kmsg_netsim::testutil::{pattern_byte, pattern_bytes};
use kmsg_netsim::udt::{UdtConfig, UdtConn, UdtListener};

/// Sends a pattern stream while recording the incoming one.
struct Duplex {
    total: usize,
    sent: Mutex<usize>,
    received: Mutex<Vec<u8>>,
}

impl Duplex {
    fn new(total: usize) -> Arc<Self> {
        Arc::new(Duplex {
            total,
            sent: Mutex::new(0),
            received: Mutex::new(Vec::new()),
        })
    }

    fn pump(&self, conn: &Connection) {
        loop {
            let offset = *self.sent.lock();
            if offset >= self.total {
                return;
            }
            let want = (self.total - offset).min(64 * 1024);
            let accepted = conn.send(pattern_bytes(offset, want));
            *self.sent.lock() += accepted;
            if accepted < want {
                return;
            }
        }
    }

    fn verify(&self) -> bool {
        let recv = self.received.lock();
        recv.len() == self.total && recv.iter().enumerate().all(|(i, &b)| b == pattern_byte(i))
    }
}

impl StreamEvents for Duplex {
    fn on_connected(&self, conn: &Connection) {
        self.pump(conn);
    }

    fn on_writable(&self, conn: &Connection) {
        self.pump(conn);
    }

    fn on_data(&self, _conn: &Connection, data: Bytes) {
        self.received.lock().extend_from_slice(&data);
    }
}

struct AcceptDuplex(Arc<Duplex>);
impl StreamAccept for AcceptDuplex {
    fn on_accept(&self, conn: &Connection) -> Arc<dyn StreamEvents> {
        // The passive side starts pumping as soon as the connection exists.
        self.0.pump(conn);
        self.0.clone()
    }
}

fn setup(
    loss: f64,
) -> (
    Sim,
    Network,
    kmsg_netsim::packet::NodeId,
    kmsg_netsim::packet::NodeId,
) {
    let sim = Sim::new(31);
    let net = Network::new(&sim);
    let a = net.add_node("a");
    let b = net.add_node("b");
    let link = LinkConfig::new(20e6, Duration::from_millis(15)).random_loss(loss);
    net.connect_duplex(a, b, link);
    (sim, net, a, b)
}

#[test]
fn tcp_full_duplex_with_loss() {
    let total = 400_000;
    let (sim, net, a, b) = setup(0.005);
    let server = Duplex::new(total);
    let _l = TcpListener::bind(
        &net,
        b,
        80,
        TcpConfig::default(),
        Arc::new(AcceptDuplex(server.clone())),
    )
    .expect("bind");
    let client = Duplex::new(total);
    let _conn = TcpConn::connect(
        &net,
        a,
        Endpoint::new(b, 80),
        TcpConfig::default(),
        client.clone(),
    )
    .expect("connect");
    sim.run_for(Duration::from_secs(120));
    assert!(
        client.verify(),
        "client must receive the full server stream"
    );
    assert!(
        server.verify(),
        "server must receive the full client stream"
    );
}

#[test]
fn udt_full_duplex_with_loss() {
    let total = 400_000;
    let (sim, net, a, b) = setup(0.005);
    let server = Duplex::new(total);
    let _l = UdtListener::bind(
        &net,
        b,
        90,
        UdtConfig::default(),
        Arc::new(AcceptDuplex(server.clone())),
    )
    .expect("bind");
    let client = Duplex::new(total);
    let _conn = UdtConn::connect(
        &net,
        a,
        Endpoint::new(b, 90),
        UdtConfig::default(),
        client.clone(),
    )
    .expect("connect");
    sim.run_for(Duration::from_secs(120));
    assert!(
        client.verify(),
        "client must receive the full server stream"
    );
    assert!(
        server.verify(),
        "server must receive the full client stream"
    );
}

#[test]
fn zero_length_send_is_harmless() {
    let (sim, net, a, b) = setup(0.0);
    let server = Duplex::new(0);
    let _l = TcpListener::bind(
        &net,
        b,
        80,
        TcpConfig::default(),
        Arc::new(AcceptDuplex(server.clone())),
    )
    .expect("bind");
    let client = Duplex::new(0);
    let conn = TcpConn::connect(&net, a, Endpoint::new(b, 80), TcpConfig::default(), client)
        .expect("connect");
    sim.run_for(Duration::from_millis(200));
    assert_eq!(conn.send(Bytes::new()), 0);
    sim.run_for(Duration::from_secs(1));
    assert!(server.verify());
}

#[test]
fn send_after_close_is_rejected() {
    let (sim, net, a, b) = setup(0.0);
    let server = Duplex::new(0);
    let _l = TcpListener::bind(
        &net,
        b,
        80,
        TcpConfig::default(),
        Arc::new(AcceptDuplex(server)),
    )
    .expect("bind");
    let client = Duplex::new(0);
    let conn = TcpConn::connect(&net, a, Endpoint::new(b, 80), TcpConfig::default(), client)
        .expect("connect");
    sim.run_for(Duration::from_millis(200));
    conn.close();
    assert_eq!(
        conn.send(Bytes::from_static(b"too late")),
        0,
        "writes after close must be refused"
    );
}

/// Two TCP flows over one bottleneck share its bandwidth roughly fairly
/// (AIMD convergence), and together saturate the link.
#[test]
fn two_tcp_flows_share_the_bottleneck() {
    use kmsg_netsim::testutil::{PatternSender, Recorder};

    let sim = Sim::new(77);
    let net = Network::new(&sim);
    let a = net.add_node("a");
    let b = net.add_node("b");
    // Modest queue so AIMD actually cycles.
    let link = LinkConfig::new(10e6, Duration::from_millis(10)).queue_capacity(128 * 1024);
    net.connect_duplex(a, b, link);

    struct AcceptRec(Arc<Recorder>);
    impl StreamAccept for AcceptRec {
        fn on_accept(&self, _c: &Connection) -> Arc<dyn StreamEvents> {
            self.0.clone()
        }
    }

    let r1 = Arc::new(Recorder::with_sim(&sim));
    let r2 = Arc::new(Recorder::with_sim(&sim));
    let _l1 = TcpListener::bind(
        &net,
        b,
        81,
        TcpConfig::default(),
        Arc::new(AcceptRec(r1.clone())),
    )
    .expect("bind");
    let _l2 = TcpListener::bind(
        &net,
        b,
        82,
        TcpConfig::default(),
        Arc::new(AcceptRec(r2.clone())),
    )
    .expect("bind");
    // More than either flow can finish within the measurement window.
    let big = 100_000_000;
    let _c1 = TcpConn::connect(
        &net,
        a,
        Endpoint::new(b, 81),
        TcpConfig::default(),
        PatternSender::new(big),
    )
    .expect("conn");
    let _c2 = TcpConn::connect(
        &net,
        a,
        Endpoint::new(b, 82),
        TcpConfig::default(),
        PatternSender::new(big),
    )
    .expect("conn");
    let window_secs = 30.0;
    sim.run_for(Duration::from_secs_f64(window_secs));
    let b1 = r1.data_len() as f64;
    let b2 = r2.data_len() as f64;
    let total_rate = (b1 + b2) / window_secs;
    // Drop-tail queues synchronise AIMD cycles (both flows halve together),
    // so aggregate utilisation sits below 100% — classic TCP behaviour with
    // shallow buffers. It must still clear well over half the link.
    assert!(
        total_rate > 5.5e6,
        "two flows must use most of the 10 MB/s link, got {total_rate:.0}"
    );
    let share = b1 / (b1 + b2);
    assert!(
        (0.25..0.75).contains(&share),
        "long-run AIMD shares should be roughly fair, got {share:.2}"
    );
}
