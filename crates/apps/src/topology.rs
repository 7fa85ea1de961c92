//! Datacenter-scale topology generators and the converging-senders
//! scenario family.
//!
//! The paper's evaluation uses two-host worlds; the scaling experiments
//! (`BENCH_scale.json`, EXPERIMENTS.md "Scaling") need worlds with
//! hundreds to tens of thousands of hosts. This module generates three
//! standard shapes directly into a [`Network`]:
//!
//! * [`star_fanin`] — N senders behind a hub, one fat link to the sink
//!   (the incast shape used by the memory and scaling benchmarks),
//! * [`fat_tree`] — a k-ary fat-tree (k pods, (k/2)² cores, k³/4 hosts)
//!   with deterministic single-path routing to a designated sink,
//! * [`wan_mesh`] — fully meshed sites with per-site host stars and
//!   seed-jittered inter-site latencies.
//!
//! Routes are installed only between each sender and the sink (both
//! directions): the scenario family is *converging* traffic, and avoiding
//! the all-pairs table is what keeps a 10⁴-host world cheap to set up.
//! Every generator is purely structural except the WAN latency jitter,
//! which draws from the simulation's named seed stream (`"topo-wan"`), so
//! a given seed always yields byte-identical worlds.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use kmsg_netsim::engine::Sim;
use kmsg_netsim::iface::{CloseReason, Connection, StreamAccept, StreamEvents};
use kmsg_netsim::link::{LinkConfig, LinkId};
use kmsg_netsim::network::Network;
use kmsg_netsim::packet::{Endpoint, NodeId};
use kmsg_netsim::tcp::{TcpConfig, TcpConn, TcpListener};
use parking_lot::Mutex;
use rand::Rng;

/// Edge (host-attach) link rate, bytes/sec: 1 Gbit.
const EDGE_RATE: f64 = 1.25e8;
/// Aggregation / core / hub uplink rate, bytes/sec: 10 Gbit.
const CORE_RATE: f64 = 1.25e9;
/// Intra-datacenter per-hop propagation delay.
const HOP_DELAY: Duration = Duration::from_micros(50);

/// A generated topology: the sink, the senders, and the node path each
/// sender's route takes (for loop-freedom checks and diagnostics).
#[derive(Debug, Clone)]
pub struct Topology {
    /// Human-readable shape label (e.g. `star-1000`).
    pub label: String,
    /// The single traffic sink all senders converge on.
    pub sink: NodeId,
    /// The sending hosts.
    pub senders: Vec<NodeId>,
    /// Total nodes created (hosts + switches/routers).
    pub node_count: usize,
    /// Total directed links created.
    pub link_count: usize,
    /// Node path (inclusive of both endpoints) of each sender→sink route,
    /// parallel to `senders`.
    pub paths: Vec<Vec<NodeId>>,
    /// One-way inter-site delays drawn for [`wan_mesh`] (empty for the
    /// datacenter shapes); exposed so tests can pin seed-determinism.
    pub wan_delays: Vec<Duration>,
}

impl Topology {
    /// All hosts including the sink.
    #[must_use]
    pub fn hosts(&self) -> usize {
        self.senders.len() + 1
    }

    /// `Err` with a description if any recorded path repeats a node (a
    /// routing loop) or doesn't start/end at the right hosts.
    ///
    /// # Errors
    ///
    /// Returns the offending path's description.
    pub fn check_loop_free(&self) -> Result<(), String> {
        for (s, path) in self.senders.iter().zip(&self.paths) {
            if path.first() != Some(s) || path.last() != Some(&self.sink) {
                return Err(format!("path for {s:?} has wrong endpoints: {path:?}"));
            }
            let mut seen: Vec<NodeId> = Vec::with_capacity(path.len());
            for &n in path {
                if seen.contains(&n) {
                    return Err(format!("path for {s:?} revisits {n:?}: {path:?}"));
                }
                seen.push(n);
            }
        }
        Ok(())
    }
}

fn edge_link() -> LinkConfig {
    LinkConfig::new(EDGE_RATE, HOP_DELAY)
}

fn core_link() -> LinkConfig {
    LinkConfig::new(CORE_RATE, HOP_DELAY)
}

/// N senders fan in through a hub to one sink: `sender → hub → sink`,
/// edge-rate first hop, core-rate shared last hop. The canonical incast
/// world for the memory and scaling benchmarks.
#[must_use]
pub fn star_fanin(net: &Network, senders: usize) -> Topology {
    let sink = net.add_node("sink");
    let hub = net.add_node("hub");
    let (hub_sink, sink_hub) = net.connect_duplex(hub, sink, core_link());
    let mut nodes = Vec::with_capacity(senders);
    let mut paths = Vec::with_capacity(senders);
    let mut links = 2;
    for i in 0..senders {
        let s = net.add_node(format!("s{i}"));
        let (up, down) = net.connect_duplex(s, hub, edge_link());
        links += 2;
        net.set_route(s, sink, vec![up, hub_sink]);
        net.set_route(sink, s, vec![sink_hub, down]);
        paths.push(vec![s, hub, sink]);
        nodes.push(s);
    }
    Topology {
        label: format!("star-{senders}"),
        sink,
        senders: nodes,
        node_count: senders + 2,
        link_count: links,
        paths,
        wan_delays: Vec::new(),
    }
}

/// A k-ary fat-tree (k even): k pods of k/2 edge and k/2 aggregation
/// switches, (k/2)² cores, k/2 hosts per edge switch — k³/4 hosts total.
/// Host 0 is the sink; each other host gets one deterministic loop-free
/// route to it (up-path chosen by the sender's index, as ECMP hashing
/// would).
///
/// # Panics
///
/// Panics if `k` is odd or less than 2.
#[must_use]
pub fn fat_tree(net: &Network, k: usize) -> Topology {
    assert!(k >= 2 && k.is_multiple_of(2), "fat-tree arity must be even, got {k}");
    let half = k / 2;

    // Switch fabric.
    let cores: Vec<NodeId> = (0..half * half)
        .map(|c| net.add_node(format!("core{c}")))
        .collect();
    let mut edges = Vec::with_capacity(k); // [pod][e]
    let mut aggs = Vec::with_capacity(k); // [pod][a]
    let mut links = 0usize;
    // Duplex links, keyed by construction order.
    let mut edge_agg = vec![vec![NO_LINK; half * half]; k]; // [pod][e*half+a]
    let mut agg_core = vec![vec![NO_LINK; half * half]; k]; // [pod][a*half+j]
    for pod in 0..k {
        let e: Vec<NodeId> = (0..half)
            .map(|i| net.add_node(format!("p{pod}e{i}")))
            .collect();
        let a: Vec<NodeId> = (0..half)
            .map(|i| net.add_node(format!("p{pod}a{i}")))
            .collect();
        for (ei, &en) in e.iter().enumerate() {
            for (ai, &an) in a.iter().enumerate() {
                let (up, down) = raw_duplex(net, en, an, core_link());
                edge_agg[pod][ei * half + ai] = (up, down);
                links += 2;
            }
        }
        for (ai, &an) in a.iter().enumerate() {
            for j in 0..half {
                let core = ai * half + j;
                let (up, down) = raw_duplex(net, an, cores[core], core_link());
                agg_core[pod][ai * half + j] = (up, down);
                links += 2;
            }
        }
        edges.push(e);
        aggs.push(a);
    }

    // Hosts: half per edge switch; (pod, edge, slot) → global index.
    let mut hosts = Vec::with_capacity(k * half * half);
    let mut host_up_down = Vec::with_capacity(k * half * half);
    for (pod, pod_edges) in edges.iter().enumerate() {
        for (e, &edge) in pod_edges.iter().enumerate() {
            for slot in 0..half {
                let h = net.add_node(format!("h{pod}-{e}-{slot}"));
                let (up, down) = raw_duplex(net, h, edge, edge_link());
                links += 2;
                hosts.push(h);
                host_up_down.push((up, down));
            }
        }
    }

    let sink = hosts[0];
    let (sink_up, sink_down) = host_up_down[0];
    let sink_pod = 0;
    let sink_edge = 0;
    let mut senders = Vec::with_capacity(hosts.len() - 1);
    let mut paths = Vec::with_capacity(hosts.len() - 1);
    for (gi, &h) in hosts.iter().enumerate().skip(1) {
        let pod = gi / (half * half);
        let e = (gi / half) % half;
        let (up, down) = host_up_down[gi];
        // Up-path choice: deterministic spread by sender index.
        let a = gi % half;
        let (fwd, rev, path) = if pod == sink_pod && e == sink_edge {
            // Same edge switch: one hop up, one down.
            (
                vec![up, sink_down],
                vec![sink_up, down],
                vec![h, edges[pod][e], sink],
            )
        } else if pod == sink_pod {
            // Same pod: via an aggregation switch.
            let (ea_up, ea_down) = edge_agg[pod][e * half + a];
            let (sa_up, sa_down) = edge_agg[pod][sink_edge * half + a];
            (
                vec![up, ea_up, sa_down, sink_down],
                vec![sink_up, sa_up, ea_down, down],
                vec![h, edges[pod][e], aggs[pod][a], edges[pod][sink_edge], sink],
            )
        } else {
            // Cross-pod: via core j, reachable from agg `a` on both sides.
            let j = gi % half;
            let core = a * half + j;
            let (ea_up, ea_down) = edge_agg[pod][e * half + a];
            let (ac_up, ac_down) = agg_core[pod][a * half + j];
            let (sc_up, sc_down) = agg_core[sink_pod][a * half + j];
            let (sa_up, sa_down) = edge_agg[sink_pod][sink_edge * half + a];
            (
                vec![up, ea_up, ac_up, sc_down, sa_down, sink_down],
                vec![sink_up, sa_up, sc_up, ac_down, ea_down, down],
                vec![
                    h,
                    edges[pod][e],
                    aggs[pod][a],
                    cores[core],
                    aggs[sink_pod][a],
                    edges[sink_pod][sink_edge],
                    sink,
                ],
            )
        };
        net.set_route(h, sink, fwd);
        net.set_route(sink, h, rev);
        paths.push(path);
        senders.push(h);
    }
    Topology {
        label: format!("fat-tree-k{k}"),
        sink,
        senders,
        node_count: hosts.len() + k * k + half * half,
        link_count: links,
        paths,
        wan_delays: Vec::new(),
    }
}

/// Fully meshed WAN sites, each a star of hosts around a site router.
/// Inter-site one-way delays are jittered in 10–160 ms from the
/// simulation's `"topo-wan"` seed stream; host 0 of site 0 is the sink.
///
/// # Panics
///
/// Panics if `sites` is 0 or `hosts_per_site` is 0.
#[must_use]
pub fn wan_mesh(net: &Network, sites: usize, hosts_per_site: usize) -> Topology {
    assert!(sites > 0 && hosts_per_site > 0);
    let mut rng = net.sim().seeds().stream("topo-wan");
    let routers: Vec<NodeId> = (0..sites)
        .map(|s| net.add_node(format!("site{s}")))
        .collect();
    let mut links = 0usize;
    // Inter-site duplex links: mesh[a][b] is the a→b link (a != b).
    let mut mesh = vec![vec![NO_LINK; sites]; sites];
    let mut wan_delays = Vec::with_capacity(sites * (sites - 1) / 2);
    for a in 0..sites {
        for b in (a + 1)..sites {
            let delay = Duration::from_micros(rng.gen_range(10_000u64..160_000));
            wan_delays.push(delay);
            let cfg = LinkConfig::new(EDGE_RATE, delay);
            let (ab, ba) = raw_duplex(net, routers[a], routers[b], cfg);
            mesh[a][b] = (ab, ba);
            mesh[b][a] = (ba, ab);
            links += 2;
        }
    }
    let mut hosts = Vec::with_capacity(sites * hosts_per_site);
    let mut host_up_down = Vec::with_capacity(sites * hosts_per_site);
    for (s, &router) in routers.iter().enumerate() {
        for h in 0..hosts_per_site {
            let n = net.add_node(format!("w{s}-{h}"));
            let (up, down) = raw_duplex(net, n, router, edge_link());
            links += 2;
            hosts.push(n);
            host_up_down.push((up, down));
        }
    }
    let sink = hosts[0];
    let (sink_up, sink_down) = host_up_down[0];
    let mut senders = Vec::with_capacity(hosts.len() - 1);
    let mut paths = Vec::with_capacity(hosts.len() - 1);
    for (gi, &h) in hosts.iter().enumerate().skip(1) {
        let site = gi / hosts_per_site;
        let (up, down) = host_up_down[gi];
        if site == 0 {
            net.set_route(h, sink, vec![up, sink_down]);
            net.set_route(sink, h, vec![sink_up, down]);
            paths.push(vec![h, routers[0], sink]);
        } else {
            let (fwd_wan, rev_wan) = mesh[site][0];
            net.set_route(h, sink, vec![up, fwd_wan, sink_down]);
            net.set_route(sink, h, vec![sink_up, rev_wan, down]);
            paths.push(vec![h, routers[site], routers[0], sink]);
        }
        senders.push(h);
    }
    Topology {
        label: format!("wan-mesh-{sites}x{hosts_per_site}"),
        sink,
        senders,
        node_count: hosts.len() + sites,
        link_count: links,
        paths,
        wan_delays,
    }
}

/// Two directed links without the endpoint route entries
/// [`Network::connect_duplex`] would install (switch-to-switch links are
/// route *segments*, not endpoints).
fn raw_duplex(net: &Network, _a: NodeId, _b: NodeId, cfg: LinkConfig) -> (LinkId, LinkId) {
    let ab = net.add_link(cfg.clone());
    let ba = net.add_link(cfg);
    (ab, ba)
}

/// Placeholder for link matrices filled during construction.
const NO_LINK: (LinkId, LinkId) = (LinkId::from_index(u32::MAX), LinkId::from_index(u32::MAX));

// ---------------------------------------------------------------------------
// Converging-senders scenario family
// ---------------------------------------------------------------------------

/// Which generated shape a converging-senders scenario runs on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScaleShape {
    /// [`star_fanin`] with this many senders.
    Star {
        /// Number of sending hosts.
        senders: usize,
    },
    /// [`fat_tree`] of the given (even) arity; all k³/4 − 1 non-sink
    /// hosts send.
    FatTree {
        /// Fat-tree arity `k`.
        k: usize,
    },
    /// [`wan_mesh`] with `sites × hosts_per_site` hosts.
    WanMesh {
        /// Number of fully meshed sites.
        sites: usize,
        /// Hosts per site.
        hosts_per_site: usize,
    },
}

/// Parameters of one converging-senders run.
#[derive(Debug, Clone)]
pub struct ConvergeSpec {
    /// World seed (drives link jitter and the WAN mesh delays).
    pub seed: u64,
    /// Topology shape.
    pub shape: ScaleShape,
    /// Payload bytes each sender pushes to the sink before closing.
    pub bytes_per_sender: usize,
    /// Gap between successive connection starts (spreads the SYN storm).
    pub stagger: Duration,
    /// Simulated-time budget; the run stops early once every flow closes.
    pub sim_budget: Duration,
}

impl ConvergeSpec {
    /// A star incast with sensible defaults: 64 KiB per sender, 20 µs
    /// stagger, 120 s budget.
    #[must_use]
    pub fn star(seed: u64, senders: usize) -> ConvergeSpec {
        ConvergeSpec {
            seed,
            shape: ScaleShape::Star { senders },
            bytes_per_sender: 64 * 1024,
            stagger: Duration::from_micros(20),
            sim_budget: Duration::from_secs(120),
        }
    }
}

/// Outcome of a converging-senders run.
#[derive(Debug, Clone)]
pub struct ConvergeReport {
    /// Topology label.
    pub label: String,
    /// Hosts in the world (senders + sink).
    pub hosts: usize,
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
        self.delivered.fetch_add(data.len() as u64, Ordering::Relaxed);
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
pub struct ConvergeWorld {
    /// The simulation engine.
    pub sim: Sim,
    /// The network fabric.
    pub net: Network,
    /// The generated topology.
    pub topo: Topology,
    /// Payload bytes delivered to the sink so far.
    pub delivered: Arc<AtomicU64>,
    /// Client flows that closed normally so far.
    pub closed: Arc<AtomicUsize>,
    /// Keeps the listener (and its accepted flows) alive.
    _listener: TcpListener,
}

/// Builds the simulation world and binds the sink listener (no flows yet).
#[must_use]
pub fn build_converge_world(spec: &ConvergeSpec) -> ConvergeWorld {
    let sim = Sim::new(spec.seed);
    let net = Network::new(&sim);
    let topo = match spec.shape {
        ScaleShape::Star { senders } => star_fanin(&net, senders),
        ScaleShape::FatTree { k } => fat_tree(&net, k),
        ScaleShape::WanMesh {
            sites,
            hosts_per_site,
        } => wan_mesh(&net, sites, hosts_per_site),
    };
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
    pub fn start_senders(
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
    pub fn run_until_drained(
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
        label: world.topo.label.clone(),
        hosts: world.topo.hosts(),
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
        t.check_loop_free().expect("star paths are loop-free");
    }

    #[test]
    fn star_degenerate_single_host_world() {
        let (_sim, net) = fresh_net(7);
        let t = star_fanin(&net, 1);
        assert_eq!(t.senders.len(), 1);
        assert_eq!(t.node_count, 3);
        assert_eq!(t.link_count, 4);
        assert!(net.route(t.senders[0], t.sink).is_some());
        t.check_loop_free().expect("degenerate star is loop-free");
    }

    #[test]
    fn fat_tree_routes_are_loop_free_and_deterministic() {
        let (_sim, net) = fresh_net(3);
        let t = fat_tree(&net, 4);
        assert_eq!(t.senders.len(), 4 * 4 * 4 / 4 - 1, "k³/4 hosts minus sink");
        for &s in &t.senders {
            assert!(net.route(s, t.sink).is_some());
            assert!(net.route(t.sink, s).is_some());
        }
        t.check_loop_free().expect("fat-tree paths are loop-free");
        // Cross-pod paths traverse exactly 7 nodes, same-pod at most 5.
        assert!(t.paths.iter().all(|p| p.len() == 3 || p.len() == 5 || p.len() == 7));
        assert!(t.paths.iter().any(|p| p.len() == 7), "some cross-pod path");

        // Same seed ⇒ identical structure.
        let (_sim2, net2) = fresh_net(3);
        let t2 = fat_tree(&net2, 4);
        assert_eq!(t.paths, t2.paths);
        assert_eq!(t.link_count, t2.link_count);
    }

    #[test]
    fn wan_mesh_is_routable_loop_free_and_seeded() {
        let (_sim, net) = fresh_net(11);
        let t = wan_mesh(&net, 4, 5);
        assert_eq!(t.senders.len(), 19);
        for &s in &t.senders {
            assert!(net.route(s, t.sink).is_some());
            assert!(net.route(t.sink, s).is_some());
        }
        t.check_loop_free().expect("mesh paths are loop-free");
        assert_eq!(t.wan_delays.len(), 6, "4 sites fully meshed");

        // Same seed reproduces the jittered delays; a different seed moves
        // at least one of them.
        let (_s2, net2) = fresh_net(11);
        assert_eq!(wan_mesh(&net2, 4, 5).wan_delays, t.wan_delays);
        let (_s3, net3) = fresh_net(12);
        assert_ne!(wan_mesh(&net3, 4, 5).wan_delays, t.wan_delays);
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
        t.check_loop_free().expect("10k star is loop-free");
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

    #[test]
    fn converging_senders_on_fat_tree_and_mesh() {
        for shape in [
            ScaleShape::FatTree { k: 4 },
            ScaleShape::WanMesh {
                sites: 3,
                hosts_per_site: 4,
            },
        ] {
            let spec = ConvergeSpec {
                seed: 2,
                shape,
                bytes_per_sender: 4 * 1024,
                stagger: Duration::from_micros(20),
                sim_budget: Duration::from_secs(120),
            };
            let r = run_converging_senders(&spec);
            assert_eq!(
                r.delivered_bytes,
                r.flows as u64 * 4 * 1024,
                "{}: all bytes arrive",
                r.label
            );
            assert_eq!(r.closed_flows, r.flows, "{}: all flows close", r.label);
        }
    }
}
