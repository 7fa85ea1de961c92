//! Mesh pub/sub scenarios for the self-healing routing overlay.
//!
//! An [`OverlaySpec`] describes one seeded overlay run: a ring (optionally
//! chorded) mesh of middleware stacks, a static subscription table, a
//! timed publish schedule and scripted partition windows that sever mesh
//! edges and heal them again. [`run_overlay_spec`] builds the world —
//! one [`NetworkComponent`] with the
//! impatient supervision template plus one
//! [`OverlayComponent`] per node — drives the schedule, lets gossip
//! resettle, and returns an [`OverlayReport`] whose
//! [`OverlayFacts`] feed the
//! [`OverlayOracle`](kmsg_oracle::OverlayOracle) alongside the recorded
//! trace. Specs generate deterministically from a seed
//! ([`OverlaySpec::generate`]) and equal seeds yield byte-identical
//! reports ([`OverlayReport::render`]).

use std::time::Duration;

use kmsg_component::prelude::*;
use kmsg_core::prelude::*;
use kmsg_netsim::engine::Sim;
use kmsg_netsim::link::LinkConfig;
use kmsg_netsim::network::Network;
use kmsg_netsim::packet::NodeId;
use kmsg_netsim::rng::SeedSource;
use kmsg_netsim::time::SimTime;
use kmsg_netsim::{FaultController, FaultPlan, Recorder, RecorderTracer};
use kmsg_oracle::OverlayFacts;
use kmsg_telemetry::bytes::Bytes;
use rand::Rng;

/// Listen port of every overlay node's middleware stack.
pub const OVERLAY_PORT: u16 = 7100;

/// One timed publish in the schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublishSpec {
    /// When the publish fires, simulated milliseconds.
    pub at_ms: u64,
    /// Publishing node index.
    pub node: u32,
    /// Subject the message is published under.
    pub subject: String,
}

/// One scripted partition window severing a mesh edge in both directions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionWindow {
    /// One endpoint of the severed edge.
    pub a: u32,
    /// The other endpoint.
    pub b: u32,
    /// Window start (sever), simulated milliseconds.
    pub from_ms: u64,
    /// Window end (heal), simulated milliseconds; always `> from_ms`.
    pub to_ms: u64,
}

/// A fully explicit overlay scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverlaySpec {
    /// Root seed: drives the simulation RNG streams and (for generated
    /// specs) the scenario shape itself.
    pub seed: u64,
    /// Mesh size; the base topology is a ring of this many nodes.
    pub nodes: u32,
    /// Add chord edges `i — i+2` for even `i` (denser reroute options).
    pub chords: bool,
    /// Static subscription table: `(node, subject)` pairs.
    pub subs: Vec<(u32, String)>,
    /// Timed publish schedule.
    pub publishes: Vec<PublishSpec>,
    /// Scripted partition windows. Generated specs keep windows
    /// sequential in time and their edges vertex-disjoint so merged
    /// `ConnStatus` streams stay per-channel legal.
    pub partitions: Vec<PartitionWindow>,
    /// Hard wall on simulated time, ms (leaves a settle window after the
    /// last heal for gossip to reconverge).
    pub horizon_ms: u64,
}

impl OverlaySpec {
    /// Generates the scenario for a fuzz seed. Same seed, same spec.
    #[must_use]
    pub fn generate(seed: u64) -> OverlaySpec {
        let mut rng = SeedSource::new(seed).stream("overlay-scenario");
        let nodes = rng.gen_range(4..=7u64) as u32;
        let chords = rng.gen_bool(0.4);
        let pool = ["alpha", "beta", "gamma"];
        let n_subjects = rng.gen_range(1..=2usize);
        let subjects: Vec<&str> = pool[..n_subjects].to_vec();
        let mut subs = Vec::new();
        for s in &subjects {
            let n_subs = rng.gen_range(1..=3u64);
            let mut chosen = std::collections::BTreeSet::new();
            for _ in 0..n_subs {
                chosen.insert(rng.gen_range(0..u64::from(nodes)) as u32);
            }
            for n in chosen {
                subs.push((n, (*s).to_string()));
            }
        }
        let n_pubs = rng.gen_range(3..=8u64);
        let mut publishes: Vec<PublishSpec> = (0..n_pubs)
            .map(|_| PublishSpec {
                at_ms: rng.gen_range(500..9_000u64),
                node: rng.gen_range(0..u64::from(nodes)) as u32,
                subject: subjects[rng.gen_range(0..subjects.len() as u64) as usize].to_string(),
            })
            .collect();
        publishes.sort_by_key(|p| p.at_ms);
        // Sequential windows on vertex-disjoint ring edges (0—1, then
        // 2—3): the merged ConnStatus stream then never interleaves two
        // outages of channels sharing a peer key.
        let n_parts = rng.gen_range(0..=2u64);
        let mut partitions = Vec::new();
        let mut earliest = 1_000u64;
        for k in 0..n_parts {
            let from_ms = rng.gen_range(earliest..earliest + 1_000);
            let to_ms = from_ms + rng.gen_range(800..2_000u64);
            partitions.push(PartitionWindow {
                a: 2 * k as u32,
                b: 2 * k as u32 + 1,
                from_ms,
                to_ms,
            });
            earliest = to_ms + 3_000;
        }
        OverlaySpec {
            seed,
            nodes,
            chords,
            subs,
            publishes,
            partitions,
            horizon_ms: 16_000,
        }
    }

    /// The undirected mesh edges: the ring, plus chords when enabled.
    #[must_use]
    pub fn edges(&self) -> Vec<(u32, u32)> {
        let n = self.nodes;
        if n == 2 {
            // Degenerate "ring": one edge (the reconnect-baseline world).
            return vec![(0, 1)];
        }
        let mut out: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        if self.chords && n > 4 {
            for i in (0..n).step_by(2) {
                let j = (i + 2) % n;
                if i != j && !out.contains(&(i, j)) && !out.contains(&(j, i)) {
                    out.push((i, j));
                }
            }
        }
        out
    }

    /// Deliveries the subscription table calls for: every publish reaches
    /// every subscriber of its subject (including the origin itself).
    #[must_use]
    pub fn expected_deliveries(&self) -> u64 {
        self.publishes
            .iter()
            .map(|p| self.subs.iter().filter(|(_, s)| *s == p.subject).count() as u64)
            .sum()
    }

    /// Flight-recorder ring capacity sized from the scenario: enough for
    /// the packet-level trace of every publish crossing the mesh plus the
    /// supervision and overlay chatter, so control-plane events
    /// (`ConnStatus`) are never evicted mid-run.
    #[must_use]
    pub fn telemetry_capacity(&self) -> usize {
        let base = 1 << 16;
        let per_publish = 4_096 * self.nodes as usize;
        base + per_publish * self.publishes.len().max(1)
    }
}

/// Subscriber application: counts deliveries, forwards queued commands.
struct OverlayCounter {
    overlay: RequiredPort<OverlayPort>,
    commands: SelfPort<OverlayRequest>,
    delivered: u64,
}

impl OverlayCounter {
    fn new() -> Self {
        OverlayCounter {
            overlay: RequiredPort::new(),
            commands: SelfPort::new(),
            delivered: 0,
        }
    }
}

impl ComponentDefinition for OverlayCounter {
    fn execute(&mut self, ctx: &mut ComponentContext, max: usize) -> usize {
        kmsg_component::execute_ports!(self, ctx, max, [
            required overlay: OverlayPort,
            selfport commands: OverlayRequest,
        ])
    }
}

impl Require<OverlayPort> for OverlayCounter {
    fn handle(&mut self, _ctx: &mut ComponentContext, _ev: OverlayDelivery) {
        self.delivered += 1;
    }
}

impl HandleSelf<OverlayRequest> for OverlayCounter {
    fn handle_self(&mut self, _ctx: &mut ComponentContext, req: OverlayRequest) {
        self.overlay.trigger(req);
    }
}

impl RequireRef<OverlayPort> for OverlayCounter {
    fn required_port(&mut self) -> &mut RequiredPort<OverlayPort> {
        &mut self.overlay
    }
}

/// Per-node end-of-run counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OverlayNodeSummary {
    /// Messages this node published.
    pub published: u64,
    /// Deliveries that reached this node's subscriber application.
    pub delivered: u64,
    /// Duplicate copies absorbed by this node's dedup window.
    pub dup_drops: u64,
    /// Publishes/resends that found no usable route from this node.
    pub no_route: u64,
    /// Reroute episodes this node ran.
    pub reroutes: u64,
    /// Buffered messages this node re-sent along fresh paths.
    pub resends: u64,
    /// Frames this node's middleware killed on TTL expiry.
    pub ttl_drops: u64,
}

/// Everything one overlay run produced.
#[derive(Debug)]
pub struct OverlayReport {
    /// Oracle-facing end-of-run facts.
    pub facts: OverlayFacts,
    /// Per-node counters, indexed by node.
    pub per_node: Vec<OverlayNodeSummary>,
    /// Final link-state/subscription table digest per node.
    pub digests: Vec<u64>,
    /// Channels re-established across all nodes.
    pub reconnects: u64,
    /// Channels that exhausted their reconnect budget.
    pub channels_dropped: u64,
    /// `conn_status` events evicted from the recorder ring (must be 0
    /// with a scenario-sized ring).
    pub evicted_conn_status: u64,
    /// Total events evicted from the ring, all kinds.
    pub evicted_events: u64,
    /// The run's flight recorder (trace input for the oracle suite).
    pub recorder: Recorder,
}

impl OverlayReport {
    /// Deterministic text rendering; equal seeds must yield equal text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let f = &self.facts;
        out.push_str(&format!(
            "nodes={} published={} expected={} delivered={} dup={} no_route={} \
             converged={}\n",
            f.nodes,
            f.published,
            f.expected_deliveries,
            f.delivered,
            f.duplicates,
            f.no_route,
            f.converged
        ));
        for (i, n) in self.per_node.iter().enumerate() {
            out.push_str(&format!(
                "node{i}: pub={} del={} dup={} no_route={} reroutes={} resends={} \
                 ttl_drops={} digest={:016x}\n",
                n.published,
                n.delivered,
                n.dup_drops,
                n.no_route,
                n.reroutes,
                n.resends,
                n.ttl_drops,
                self.digests[i]
            ));
        }
        out.push_str(&format!(
            "reconnects={} dropped={} evicted_conn_status={}\n",
            self.reconnects, self.channels_dropped, self.evicted_conn_status
        ));
        out
    }
}

/// Builds the mesh world, runs the schedule and derives the facts.
///
/// # Panics
///
/// Panics if a network stack fails to bind (ports are fixed and the world
/// is fresh, so this indicates a harness bug).
#[must_use]
pub fn run_overlay_spec(spec: &OverlaySpec) -> OverlayReport {
    let sim = Sim::new(spec.seed);
    let recorder = sim.recorder().clone();
    recorder.set_capacity(spec.telemetry_capacity());
    recorder.enable();
    let net = Network::new(&sim);
    net.set_tracer(RecorderTracer::new(recorder.clone()));
    let link = LinkConfig::new(20e6, Duration::from_millis(5));
    let nodes: Vec<NodeId> = (0..spec.nodes)
        .map(|i| net.add_node(format!("n{i}")))
        .collect();
    for (a, b) in spec.edges() {
        for (x, y) in [(a, b), (b, a)] {
            let l = net.add_link(link.clone());
            net.set_route(nodes[x as usize], nodes[y as usize], vec![l]);
        }
    }
    let system = ComponentSystem::simulation(&sim, SystemConfig::default());
    let seeds = SeedSource::new(spec.seed ^ 0x0E71);

    // The impatient supervision template (the chaos-benchmark tuning):
    // link death is detected in hundreds of milliseconds, so the overlay's
    // reroute has something to beat inside a short partition window.
    let net_cfg = |addr: NetAddress| {
        let mut cfg = NetworkConfig::new(addr);
        cfg.tcp.min_rto = Duration::from_millis(100);
        cfg.tcp.max_rto = Duration::from_millis(400);
        cfg.tcp.max_consecutive_timeouts = 2;
        cfg.tcp.syn_retries = 1;
        cfg.reconnect = ReconnectConfig {
            max_retries: 60,
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_millis(400),
            probe_interval: Duration::from_secs(2),
        };
        cfg
    };

    let edges = spec.edges();
    let neighbours = |i: u32| -> Vec<NetAddress> {
        edges
            .iter()
            .filter_map(|&(a, b)| {
                if a == i {
                    Some(b)
                } else if b == i {
                    Some(a)
                } else {
                    None
                }
            })
            .map(|j| NetAddress::new(nodes[j as usize], OVERLAY_PORT))
            .collect()
    };

    let mut net_stats = Vec::new();
    let mut overlays = Vec::new();
    let mut overlay_stats = Vec::new();
    let mut apps = Vec::new();
    let mut senders = Vec::new();
    for i in 0..spec.nodes {
        let addr = NetAddress::new(nodes[i as usize], OVERLAY_PORT);
        let network = create_network(&system, &net, net_cfg(addr)).expect("bind overlay node");
        net_stats.push(network.on_definition(|n| n.stats()));
        let mut cfg = OverlayConfig::new(addr, neighbours(i));
        cfg.gossip_interval = Duration::from_millis(250);
        cfg.subscriptions = spec
            .subs
            .iter()
            .filter(|(n, _)| *n == i)
            .map(|(_, s)| s.clone())
            .collect();
        let rng = seeds.stream(&format!("overlay-node-{i}"));
        let rec = recorder.clone();
        let overlay = system.create(move || OverlayComponent::new(cfg, rng, rec));
        overlay_stats.push(overlay.on_definition(|o| o.stats()));
        system.connect::<NetworkPort, _, _>(&network, &overlay);
        let app = system.create(OverlayCounter::new);
        system.connect::<OverlayPort, _, _>(&overlay, &app);
        senders.push(app.self_ref(|h| &mut h.commands));
        system.start(&network);
        system.start(&overlay);
        system.start(&app);
        overlays.push(overlay);
        apps.push(app);
    }

    let mut plan = FaultPlan::new();
    for w in &spec.partitions {
        for (x, y) in [(w.a, w.b), (w.b, w.a)] {
            let l = net
                .route(nodes[x as usize], nodes[y as usize])
                .expect("mesh edge has a route")[0];
            plan = plan.down_between(
                l,
                SimTime::from_millis(w.from_ms),
                SimTime::from_millis(w.to_ms),
            );
        }
    }
    let _ctl = Some(plan)
        .filter(|p| !p.is_empty())
        .map(|p| FaultController::install(&net, p));

    for p in &spec.publishes {
        let at = SimTime::from_millis(p.at_ms);
        if sim.now() < at {
            sim.run_until(at);
        }
        let payload = Bytes::from(format!("{}@{}ms", p.subject, p.at_ms).into_bytes());
        senders[p.node as usize].push(OverlayRequest::Publish {
            subject: p.subject.clone(),
            payload,
        });
    }
    sim.run_until(SimTime::from_millis(spec.horizon_ms));
    recorder.publish_overflow_gauges();

    let per_node: Vec<OverlayNodeSummary> = (0..spec.nodes as usize)
        .map(|i| {
            let o = overlay_stats[i].lock();
            OverlayNodeSummary {
                published: o.published,
                delivered: o.delivered,
                dup_drops: o.dup_drops,
                no_route: o.no_route,
                reroutes: o.reroutes,
                resends: o.resends,
                ttl_drops: net_stats[i].lock().ttl_drops,
            }
        })
        .collect();
    let digests: Vec<u64> = overlays
        .iter()
        .map(|o| o.on_definition(|c| c.table_digest()))
        .collect();
    let converged = digests.windows(2).all(|d| d[0] == d[1]);
    let delivered: u64 = per_node.iter().map(|n| n.delivered).sum();
    let facts = OverlayFacts {
        nodes: u64::from(spec.nodes),
        published: per_node.iter().map(|n| n.published).sum(),
        expected_deliveries: spec.expected_deliveries(),
        delivered,
        duplicates: per_node.iter().map(|n| n.dup_drops).sum(),
        no_route: per_node.iter().map(|n| n.no_route).sum(),
        converged,
    };
    let (mut reconnects, mut channels_dropped) = (0u64, 0u64);
    for s in &net_stats {
        let sup = s.lock().supervision();
        reconnects += sup.reconnects;
        channels_dropped += sup.channels_dropped;
    }
    let evicted_conn_status = recorder
        .evicted_by_kind()
        .into_iter()
        .find(|(k, _)| *k == "conn_status")
        .map_or(0, |(_, n)| n);
    OverlayReport {
        facts,
        per_node,
        digests,
        reconnects,
        channels_dropped,
        evicted_conn_status,
        evicted_events: recorder.evicted(),
        recorder,
    }
}

/// The oracle configuration an overlay run's trace is judged under: every
/// generated partition heals, the mesh stays connected throughout, and
/// the horizon leaves a settle window — so completion (every expected
/// delivery) and convergence are both hard promises.
#[must_use]
pub fn overlay_oracle_config() -> kmsg_oracle::OracleConfig {
    kmsg_oracle::OracleConfig {
        expect_completion: true,
        faults_must_heal: true,
        // Mirror the impatient supervision template the runner installs:
        // its RTO cap is 400 ms, so backoff legally stops doubling there.
        max_rto_us: 400_000,
        ..kmsg_oracle::OracleConfig::default()
    }
}

/// [`RunFacts`](kmsg_oracle::RunFacts) for an overlay run: the transfer
/// fields describe the pub/sub workload (completed = all expected
/// deliveries arrived, verified = tables reconverged), supervision
/// counters come from the middleware stacks, and [`OverlayFacts`] carry
/// the overlay-specific accounting.
#[must_use]
pub fn overlay_run_facts(report: &OverlayReport) -> kmsg_oracle::RunFacts {
    kmsg_oracle::RunFacts {
        completed: report.facts.delivered == report.facts.expected_deliveries,
        verified: report.facts.converged,
        duplicates: report.facts.duplicates,
        out_of_order: 0,
        reconnects: report.reconnects,
        reconnect_attempts: report.reconnects,
        channels_dropped: report.channels_dropped,
        failovers: 0,
        controller_swaps: 0,
        fifo_expected: false,
        evicted_events: report.evicted_events,
        overlay: Some(report.facts.clone()),
        pool_live_at_end: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_deterministic_and_well_formed() {
        for seed in 0..20 {
            let a = OverlaySpec::generate(seed);
            let b = OverlaySpec::generate(seed);
            assert_eq!(a, b);
            assert!(a.nodes >= 4 && a.nodes <= 7);
            assert!(!a.subs.is_empty());
            assert!(!a.publishes.is_empty());
            // Windows are sequential and on vertex-disjoint ring edges.
            for w in a.partitions.windows(2) {
                assert!(w[1].from_ms > w[0].to_ms);
                let (x, y) = (w[0].a, w[0].b);
                assert!(w[1].a != x && w[1].a != y && w[1].b != x && w[1].b != y);
            }
            for p in &a.partitions {
                assert!(p.to_ms > p.from_ms);
                assert!(p.to_ms + 3_000 < a.horizon_ms, "settle window preserved");
            }
            let last_pub = a.publishes.iter().map(|p| p.at_ms).max().unwrap_or(0);
            assert!(last_pub + 3_000 < a.horizon_ms);
        }
    }

    #[test]
    fn edges_stay_connected_without_any_single_edge() {
        let spec = OverlaySpec::generate(3);
        let edges = spec.edges();
        // Removing any one edge leaves the ring (plus chords) connected.
        for skip in 0..edges.len() {
            let mut adj = vec![Vec::new(); spec.nodes as usize];
            for (k, &(a, b)) in edges.iter().enumerate() {
                if k != skip {
                    adj[a as usize].push(b as usize);
                    adj[b as usize].push(a as usize);
                }
            }
            let mut seen = vec![false; spec.nodes as usize];
            let mut stack = vec![0usize];
            seen[0] = true;
            while let Some(v) = stack.pop() {
                for &w in &adj[v] {
                    if !seen[w] {
                        seen[w] = true;
                        stack.push(w);
                    }
                }
            }
            assert!(
                seen.iter().all(|&s| s),
                "cut edge {skip} disconnected the mesh"
            );
        }
    }
}
