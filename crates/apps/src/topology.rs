//! The incast topology and the converging-senders scenario family.
//!
//! The paper's evaluation uses two-host worlds; the scaling experiments
//! (`BENCH_scale.json`, docs/lab/PR-15.md "Scaling") need worlds with
//! hundreds to tens of thousands of hosts. [`star_fanin`] generates one
//! directly into a [`Network`]: N senders behind a hub, one fat link to
//! the sink (the incast shape of the memory and scaling benchmarks).
//!
//! Routes are installed only between each sender and the sink (both
//! directions): the scenario family is *converging* traffic, and avoiding
//! the all-pairs table is what keeps a 10⁴-host world cheap to set up.
//! The generator draws nothing at random: a given size always yields the
//! same world.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use kmsg_netsim::engine::Sim;
use kmsg_netsim::iface::{CloseReason, Connection, StreamAccept, StreamEvents};
use kmsg_netsim::link::LinkConfig;
use kmsg_netsim::network::Network;
use kmsg_netsim::packet::{Endpoint, NodeId};
use kmsg_netsim::tcp::{TcpConfig, TcpConn, TcpListener};
use kmsg_telemetry::bytes::Bytes;
use parking_lot::Mutex;

/// Edge (host-attach) link rate, bytes/sec: 1 Gbit.
const EDGE_RATE: f64 = 1.25e8;
/// Hub uplink rate, bytes/sec: 10 Gbit.
const CORE_RATE: f64 = 1.25e9;
/// Intra-datacenter per-hop propagation delay.
const HOP_DELAY: Duration = Duration::from_micros(50);

/// A generated topology: the sink and the senders.
#[derive(Debug, Clone)]
pub struct Topology {
    /// The single traffic sink all senders converge on.
    pub sink: NodeId,
    /// The sending hosts.
    pub senders: Vec<NodeId>,
    /// Total directed links created.
    pub link_count: usize,
}

/// N senders fan in through a hub to one sink: `sender → hub → sink`,
/// edge-rate first hop, core-rate shared last hop. The canonical incast
/// world for the memory and scaling benchmarks.
#[must_use]
pub fn star_fanin(net: &Network, senders: usize) -> Topology {
    let sink = net.add_node("sink");
    let hub = net.add_node("hub");
    let core_link = LinkConfig::new(CORE_RATE, HOP_DELAY);
    let (hub_sink, sink_hub) = net.connect_duplex(hub, sink, core_link);
    let mut nodes = Vec::with_capacity(senders);
    for i in 0..senders {
        let s = net.add_node(format!("s{i}"));
        let (up, down) = net.connect_duplex(s, hub, LinkConfig::new(EDGE_RATE, HOP_DELAY));
        net.set_route(s, sink, vec![up, hub_sink]);
        net.set_route(sink, s, vec![sink_hub, down]);
        nodes.push(s);
    }
    Topology {
        sink,
        senders: nodes,
        link_count: 2 * senders + 2,
    }
}

// ---------------------------------------------------------------------------
// Converging-senders scenario family
// ---------------------------------------------------------------------------

/// Parameters of one converging-senders run.
#[derive(Debug, Clone)]
pub struct ConvergeSpec {
    /// World seed.
    pub(crate) seed: u64,
    /// Sending hosts of the [`star_fanin`] world.
    pub(crate) senders: usize,
    /// Payload bytes each sender pushes to the sink before closing.
    pub(crate) bytes_per_sender: usize,
    /// Gap between successive connection starts (spreads the SYN storm).
    pub(crate) stagger: Duration,
    /// Simulated-time budget; the run stops early once every flow closes.
    pub(crate) sim_budget: Duration,
}

impl ConvergeSpec {
    /// A star incast with sensible defaults: 64 KiB per sender, 20 µs
    /// stagger, 120 s budget.
    #[must_use]
    pub fn star(seed: u64, senders: usize) -> ConvergeSpec {
        ConvergeSpec {
            seed,
            senders,
            bytes_per_sender: 64 * 1024,
            stagger: Duration::from_micros(20),
            sim_budget: Duration::from_secs(120),
        }
    }
}

/// Outcome of a converging-senders run.
#[derive(Debug, Clone)]
pub struct ConvergeReport {
    /// Flows opened (= senders).
    pub flows: usize,
    /// Payload bytes the sink received.
    pub delivered_bytes: u64,
    /// Client-side flows that saw an orderly close.
    pub closed_flows: usize,
    /// Events the engine executed.
    pub events: u64,
    /// Simulated time consumed.
    pub sim_secs: f64,
    /// Wall-clock seconds spent building the world (nodes, links, routes,
    /// flow setup).
    pub setup_secs: f64,
    /// Wall-clock seconds spent running the simulation.
    pub run_secs: f64,
}

/// Streams `quota` bytes into the connection as buffer space allows, then
/// closes; counts orderly closes into the shared counter.
struct Pump {
    remaining: Mutex<usize>,
    chunk: Bytes,
    closed: Arc<AtomicUsize>,
}

impl Pump {
    fn drive(&self, conn: &Connection) {
        let mut rem = self.remaining.lock();
        while *rem > 0 {
            let want = (*rem).min(self.chunk.len());
            let accepted = conn.send(self.chunk.slice(0..want));
            *rem -= accepted;
            if accepted < want {
                return; // buffer full; resume on_writable
            }
        }
        drop(rem);
        conn.close();
    }
}

impl StreamEvents for Pump {
    fn on_connected(&self, conn: &Connection) {
        self.drive(conn);
    }
    fn on_writable(&self, conn: &Connection) {
        self.drive(conn);
    }
    fn on_closed(&self, _conn: &Connection, reason: CloseReason) {
        if reason == CloseReason::Normal {
            self.closed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Sink side: counts delivered payload bytes across all accepted flows.
struct SinkEvents {
    delivered: Arc<AtomicU64>,
}

impl StreamEvents for SinkEvents {
    fn on_data(&self, _conn: &Connection, data: Bytes) {
        self.delivered
            .fetch_add(data.len() as u64, Ordering::Relaxed);
    }
}

struct SinkAccept {
    events: Arc<SinkEvents>,
}

impl StreamAccept for SinkAccept {
    fn on_accept(&self, _conn: &Connection) -> Arc<dyn StreamEvents> {
        self.events.clone()
    }
}

/// Sink listening port for converging-senders worlds.
pub const CONVERGE_PORT: u16 = 7001;

/// Builds the world for `spec` and returns it with the sink's delivered
/// counter installed — used by benchmarks that want to interleave their
/// own measurements (e.g. heap probes) between setup, connect, and run.
pub(crate) struct ConvergeWorld {
    /// The simulation engine.
    pub(crate) sim: Sim,
    /// The network fabric.
    pub(crate) net: Network,
    /// The generated topology.
    pub(crate) topo: Topology,
    /// Payload bytes delivered to the sink so far.
    pub(crate) delivered: Arc<AtomicU64>,
    /// Client flows that closed normally so far.
    pub(crate) closed: Arc<AtomicUsize>,
    /// Keeps the listener (and its accepted flows) alive.
    _listener: TcpListener,
}

/// Builds the simulation world and binds the sink listener (no flows yet).
#[must_use]
pub(crate) fn build_converge_world(spec: &ConvergeSpec) -> ConvergeWorld {
    let sim = Sim::new(spec.seed);
    let net = Network::new(&sim);
    let topo = star_fanin(&net, spec.senders);
    let delivered = Arc::new(AtomicU64::new(0));
    let closed = Arc::new(AtomicUsize::new(0));
    let listener = TcpListener::bind(
        &net,
        topo.sink,
        CONVERGE_PORT,
        TcpConfig::default(),
        Arc::new(SinkAccept {
            events: Arc::new(SinkEvents {
                delivered: delivered.clone(),
            }),
        }),
    )
    .expect("bind converge sink");
    ConvergeWorld {
        sim,
        net,
        topo,
        delivered,
        closed,
        _listener: listener,
    }
}

impl ConvergeWorld {
    /// Opens one pumping flow per sender, each start staggered. Returns a
    /// shared vec the connection handles accumulate into as the staggered
    /// connects execute — the caller must keep it alive until the run
    /// finishes, because dropping a client handle tears its flow down.
    #[must_use]
    pub(crate) fn start_senders(
        &self,
        bytes_per_sender: usize,
        stagger: Duration,
    ) -> Arc<Mutex<Vec<TcpConn>>> {
        let chunk = Bytes::from(vec![0xC5u8; 64 * 1024]);
        let sink_ep = Endpoint::new(self.topo.sink, CONVERGE_PORT);
        let conns: Arc<Mutex<Vec<TcpConn>>> =
            Arc::new(Mutex::new(Vec::with_capacity(self.topo.senders.len())));
        for (i, &s) in self.topo.senders.iter().enumerate() {
            let net = self.net.clone();
            let sink = conns.clone();
            let pump = Arc::new(Pump {
                remaining: Mutex::new(bytes_per_sender),
                chunk: chunk.clone(),
                closed: self.closed.clone(),
            });
            let at = stagger * u32::try_from(i % 1_000_000).expect("stagger index fits");
            self.sim.schedule_in(at, move |_| {
                let conn = TcpConn::connect(&net, s, sink_ep, TcpConfig::default(), pump)
                    .expect("converge connect");
                sink.lock().push(conn);
            });
        }
        conns
    }

    /// Runs until every sender delivered and closed, or the budget runs
    /// out. Returns simulated seconds consumed.
    pub(crate) fn run_until_drained(
        &self,
        expected_bytes: u64,
        expected_closes: usize,
        budget: Duration,
    ) -> f64 {
        let start = self.sim.now();
        let step = Duration::from_millis(250);
        let deadline = start + budget;
        loop {
            self.sim.run_for(step);
            let done = self.delivered.load(Ordering::Relaxed) >= expected_bytes
                && self.closed.load(Ordering::Relaxed) >= expected_closes;
            if done || self.sim.now() >= deadline {
                return self.sim.now().duration_since(start).as_secs_f64();
            }
        }
    }
}

/// Runs one converging-senders scenario end to end.
#[must_use]
pub fn run_converging_senders(spec: &ConvergeSpec) -> ConvergeReport {
    let setup_wall = std::time::Instant::now();
    let world = build_converge_world(spec);
    let conns = world.start_senders(spec.bytes_per_sender, spec.stagger);
    let setup_secs = setup_wall.elapsed().as_secs_f64();

    let flows = world.topo.senders.len();
    let expected = spec.bytes_per_sender as u64 * flows as u64;
    let run_wall = std::time::Instant::now();
    let sim_secs = world.run_until_drained(expected, flows, spec.sim_budget);
    let run_secs = run_wall.elapsed().as_secs_f64();
    drop(conns);
    ConvergeReport {
        flows,
        delivered_bytes: world.delivered.load(Ordering::Relaxed),
        closed_flows: world.closed.load(Ordering::Relaxed),
        events: world.sim.events_executed(),
        sim_secs,
        setup_secs,
        run_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Topology {
        /// All hosts including the sink.
        fn hosts(&self) -> usize {
            self.senders.len() + 1
        }
    }

    fn fresh_net(seed: u64) -> (Sim, Network) {
        let sim = Sim::new(seed);
        let net = Network::new(&sim);
        (sim, net)
    }

    #[test]
    fn star_routes_every_sender_to_sink_and_back() {
        let (_sim, net) = fresh_net(7);
        let t = star_fanin(&net, 50);
        assert_eq!(t.senders.len(), 50);
        assert_eq!(t.hosts(), 51);
        for &s in &t.senders {
            assert!(net.route(s, t.sink).is_some(), "missing {s:?}→sink");
            assert!(net.route(t.sink, s).is_some(), "missing sink→{s:?}");
        }
    }

    #[test]
    fn star_degenerate_single_host_world() {
        let (_sim, net) = fresh_net(7);
        let t = star_fanin(&net, 1);
        assert_eq!(t.senders.len(), 1);
        assert_eq!(t.link_count, 4);
        assert!(net.route(t.senders[0], t.sink).is_some());
    }

    #[test]
    fn ten_thousand_host_star_builds() {
        let (_sim, net) = fresh_net(1);
        let t = star_fanin(&net, 10_000);
        assert_eq!(t.hosts(), 10_001);
        assert_eq!(t.link_count, 2 * 10_000 + 2);
        // Spot-check routability at the far end of the table.
        let last = *t.senders.last().expect("has senders");
        assert!(net.route(last, t.sink).is_some());
        assert!(net.route(t.sink, last).is_some());
    }

    #[test]
    fn converging_senders_deliver_everything() {
        let mut spec = ConvergeSpec::star(5, 100);
        spec.bytes_per_sender = 16 * 1024;
        let r = run_converging_senders(&spec);
        assert_eq!(r.flows, 100);
        assert_eq!(r.delivered_bytes, 100 * 16 * 1024);
        assert_eq!(r.closed_flows, 100, "every client sees an orderly close");
        assert!(r.sim_secs < 100.0, "finished inside the budget");
    }

    #[test]
    fn converging_senders_are_deterministic_per_seed() {
        let mut spec = ConvergeSpec::star(9, 60);
        spec.bytes_per_sender = 8 * 1024;
        let a = run_converging_senders(&spec);
        let b = run_converging_senders(&spec);
        assert_eq!(a.events, b.events, "same seed, same event count");
        assert_eq!(a.delivered_bytes, b.delivered_bytes);
        assert_eq!(a.sim_secs, b.sim_secs);
    }
}
