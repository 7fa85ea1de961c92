//! Layer probes: each layer's public functions timed in isolation, from
//! outside, on the workload's own message shape.
//!
//! Every probe runs [`ROUNDS`] rounds of fixed work and reports each
//! round's value, so a unit cost comes with its own quartiles. Times are
//! process CPU time. A probe of an upper layer necessarily runs the
//! layers beneath it; the *self* figures subtract those rungs, priced by
//! their own probes (events × engine cost, packets × fabric cost).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use kmsg_apps::dataset::{chunk_hash, Dataset, PAPER_CHUNK_SIZE};
use kmsg_apps::msgs::ChunkMsg;
use kmsg_apps::scenario::Setup;
use kmsg_apps::topology::star_fanin;
use kmsg_component::prelude::*;
use kmsg_core::codec;
use kmsg_core::data::{PatternKind, PatternSelection, ProtocolSelectionPolicy, Ratio};
use kmsg_core::net::frame::{decode_frame_body, encode_frame, Compression, FrameDecoder};
use kmsg_core::{NetAddress, NetMessage, SerRegistry, Transport};
use kmsg_learning::{ApproxV, RatioSpace, Sarsa, SarsaConfig};
use kmsg_netsim::engine::{EventTarget, Sim};
use kmsg_netsim::iface::{Connection, StreamAccept, StreamEvents};
use kmsg_netsim::link::LinkConfig;
use kmsg_netsim::memscope;
use kmsg_netsim::network::{Network, PacketSink};
use kmsg_netsim::packet::{Endpoint, NodeId, Packet, PacketBody, WireProtocol};
use kmsg_netsim::rng::SeedSource;
use kmsg_netsim::tcp::{TcpConfig, TcpConn, TcpListener};
use kmsg_netsim::udt::{UdtConfig, UdtConn, UdtListener};

use crate::alloc;
use crate::clock::{cpu_ns, wall_ns};
use crate::spans;
use crate::workloads::{fixed_write, SplitMix, Workload, Write};

/// Rounds per probe.
pub const ROUNDS: usize = 5;

/// Per-round values of every probed quantity, by name.
#[derive(Debug, Default, Clone)]
pub struct ProbeSet {
    values: BTreeMap<&'static str, Vec<f64>>,
}

impl ProbeSet {
    fn push(&mut self, name: &'static str, v: f64) {
        self.values.entry(name).or_default().push(v);
    }

    /// The rounds of one quantity (empty if its probe did not run).
    #[must_use]
    pub fn rounds(&self, name: &str) -> &[f64] {
        self.values.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median over the rounds; 0 if the probe did not run.
    #[must_use]
    pub fn med(&self, name: &str) -> f64 {
        let r = self.rounds(name);
        if r.is_empty() {
            0.0
        } else {
            crate::stats::median(r)
        }
    }
}

/// CPU nanoseconds, allocator calls and their per-scope split spent in `f`.
fn measured<R>(f: impl FnOnce() -> R) -> (R, f64, u64, [u64; memscope::N_SCOPES]) {
    let t0 = cpu_ns();
    let (out, allocs, by_scope) = alloc::counted(f);
    (out, (cpu_ns() - t0) as f64, allocs, by_scope)
}

// ---------------------------------------------------------------- harness

/// A fixed pure-CPU kernel: tells a slow machine from slow code.
fn ref_kernel() -> f64 {
    let t0 = cpu_ns();
    let mut rng = SplitMix(42);
    let mut acc = 0u64;
    for _ in 0..8_000_000 {
        acc = acc.rotate_left(5) ^ rng.next();
    }
    black_box(acc);
    (cpu_ns() - t0) as f64 / 1e6
}

fn probe_harness(set: &mut ProbeSet) {
    let _s = spans::open("probe.harness", 0);
    for _ in 0..ROUNDS {
        const N: u64 = 400_000;
        let t0 = cpu_ns();
        for _ in 0..N {
            black_box(wall_ns());
        }
        set.push("harness.timer_ns", (cpu_ns() - t0) as f64 / N as f64);
        for (name, split) in [
            ("harness.alloc_counter_off_ns", false),
            ("harness.alloc_counter_ns", true),
        ] {
            alloc::set_split(split);
            let t0 = cpu_ns();
            for i in 0..N {
                black_box(Box::new(i));
            }
            set.push(name, (cpu_ns() - t0) as f64 / N as f64);
        }
        alloc::set_split(false);
    }
}

// ----------------------------------------------------------------- engine

/// Fires as a jittered timer, then schedules one zero-delay follow-up —
/// the shape of protocol processing: half the events come off the wheel,
/// half off the now-lane.
struct Hop(AtomicU64);
impl EventTarget for Hop {
    fn fire(self: Arc<Self>, sim: &Sim, token: u64) {
        self.0.fetch_add(1, Relaxed);
        if token == 0 {
            sim.schedule_target_in(Duration::ZERO, self, 1);
        }
    }
}

fn probe_engine(set: &mut ProbeSet) {
    let _s = spans::open("probe.netsim.engine", 0);
    const EVENTS: u64 = 2_000_000;
    let mut rng = SplitMix(7);
    let delays: Vec<u64> = (0..EVENTS / 2)
        .map(|_| 1_000 + rng.below(50_000_000 - 1_000))
        .collect();
    for _ in 0..ROUNDS {
        let sim = Sim::new(1);
        let target = Arc::new(Hop(AtomicU64::new(0)));
        let (executed, ns, allocs, _) = measured(|| {
            for &d in &delays {
                sim.schedule_target_in(Duration::from_nanos(d), target.clone(), 0);
            }
            sim.run_to_completion()
        });
        assert_eq!(executed, EVENTS);
        set.push("netsim.engine.ns_per_event", ns / EVENTS as f64);
        set.push(
            "netsim.engine.allocs_per_event",
            allocs as f64 / EVENTS as f64,
        );
    }
}

// ----------------------------------------------------------------- fabric

struct NullSink(AtomicU64);
impl PacketSink for NullSink {
    fn on_packet(&self, _net: &Network, pkt: Packet) {
        self.0.fetch_add(pkt.wire_size as u64, Relaxed);
    }
}

/// A link fast and deep enough never to queue or drop.
fn fat_link() -> LinkConfig {
    LinkConfig::new(1.25e9, Duration::from_micros(50)).queue_capacity(1 << 30)
}

fn two_nodes(seed: u64, link: LinkConfig) -> (Sim, Network, NodeId, NodeId) {
    let sim = Sim::new(seed);
    let net = Network::new(&sim);
    let a = net.add_node("probe-a");
    let b = net.add_node("probe-b");
    net.connect_duplex(a, b, link);
    (sim, net, a, b)
}

fn probe_fabric(set: &mut ProbeSet) {
    let _s = spans::open("probe.netsim.fabric", 0);
    const PACKETS: u64 = 1_000_000;
    const BURST: u64 = 500;
    for _ in 0..ROUNDS {
        let (sim, net, a, b) = two_nodes(1, fat_link());
        let sink = Arc::new(NullSink(AtomicU64::new(0)));
        net.bind(b, WireProtocol::Udp, 9, sink.clone())
            .expect("bind the null sink");
        let (src, dst) = (Endpoint::new(a, 9), Endpoint::new(b, 9));
        let ((), ns, allocs, by_scope) = measured(|| {
            for _ in 0..PACKETS / BURST {
                for _ in 0..BURST {
                    let body = PacketBody::Udp(Vec::new().into());
                    net.send_packet(Packet::new(src, dst, WireProtocol::Udp, 1000, body));
                }
                sim.run_for(Duration::from_millis(1));
            }
        });
        assert_eq!(net.stats().delivered, PACKETS);
        set.push("netsim.fabric.raw_ns_per_packet", ns / PACKETS as f64);
        set.push(
            "netsim.fabric.events_per_packet",
            sim.events_executed() as f64 / PACKETS as f64,
        );
        // The empty `Vec` → buffer conversion above is the probe's own.
        let own = allocs - by_scope[memscope::SCOPE_ENGINE] - by_scope[memscope::SCOPE_FABRIC];
        set.push(
            "netsim.fabric.allocs_per_packet",
            (allocs - own) as f64 / PACKETS as f64,
        );
    }
}

// ------------------------------------------------------- stream transports

/// Streams `writes` fixed-size writes whenever the send buffer has room.
struct Streamer {
    write_bytes: usize,
    left: AtomicU64,
    write: Write,
}

impl Streamer {
    fn drive(&self, conn: &Connection) {
        while self.left.load(Relaxed) > 0 && conn.free_send_buffer() >= self.write_bytes {
            assert_eq!((self.write)(conn), self.write_bytes);
            self.left.fetch_sub(1, Relaxed);
        }
    }
}

impl StreamEvents for Streamer {
    fn on_connected(&self, conn: &Connection) {
        self.drive(conn);
    }
    fn on_writable(&self, conn: &Connection) {
        self.drive(conn);
    }
}

struct Discard;
impl StreamEvents for Discard {}

/// Keeps the accepting side's end of each connection.
#[derive(Default)]
struct KeepAccepted(Mutex<Vec<Connection>>);
impl StreamAccept for KeepAccepted {
    fn on_accept(&self, conn: &Connection) -> Arc<dyn StreamEvents> {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(conn.clone());
        Arc::new(Discard)
    }
}

impl KeepAccepted {
    fn first(&self) -> Connection {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)[0].clone()
    }
}

fn delivered(conn: &Connection) -> u64 {
    match conn {
        Connection::Tcp(c) => c.stats().bytes_delivered,
        Connection::Udt(c) => c.stats().bytes_delivered,
    }
}

/// Raw `TcpConn` streaming into a discarding sink over a fat clean link.
fn probe_tcp_stream(set: &mut ProbeSet) {
    let _s = spans::open("probe.netsim.tcp.stream", 0);
    const WRITE: usize = 64 * 1024;
    const WRITES: u64 = 1024; // 64 MiB
    let cfg = TcpConfig::default();
    let segments = (WRITES * WRITE as u64).div_ceil(cfg.mss as u64);
    for _ in 0..ROUNDS {
        let (sim, net, a, b) = two_nodes(1, fat_link());
        let accepted = Arc::new(KeepAccepted::default());
        let _listener = TcpListener::bind(&net, b, 9, cfg.clone(), accepted.clone())
            .expect("bind the stream sink");
        let streamer = Arc::new(Streamer {
            write_bytes: WRITE,
            left: AtomicU64::new(WRITES),
            write: fixed_write(WRITE),
        });
        let (_conn, ns, allocs, by_scope) = measured(|| {
            let conn = TcpConn::connect(&net, a, Endpoint::new(b, 9), cfg.clone(), streamer)
                .expect("dial the stream sink");
            while conn.acked_bytes() < WRITES * WRITE as u64 {
                sim.run_for(Duration::from_millis(1));
            }
            conn
        });
        assert_eq!(delivered(&accepted.first()), WRITES * WRITE as u64);
        let per = |x: f64| x / segments as f64;
        set.push("netsim.tcp.ns_per_segment", per(ns));
        set.push(
            "netsim.tcp.events_per_segment",
            per(sim.events_executed() as f64),
        );
        set.push(
            "netsim.tcp.packets_per_segment",
            per(net.stats().sent as f64),
        );
        // Scope "other" holds the probe's own write buffers.
        set.push(
            "netsim.tcp.allocs_per_segment",
            per((allocs - by_scope[memscope::SCOPE_OTHER]) as f64),
        );
    }
}

/// Raw 64 B ping-pong over one `TcpConn`, driven from outside: send,
/// advance the world until the other end's delivered count moves, reply.
fn probe_tcp_rpc(set: &mut ProbeSet) {
    let _s = spans::open("probe.netsim.tcp.rpc", 0);
    const ROUND_TRIPS: u64 = 200_000;
    const BYTES: usize = 64;
    let link = Setup::EuVpc.link();
    let hop = link.delay + Duration::from_micros(100);
    for _ in 0..ROUNDS {
        let (sim, net, a, b) = two_nodes(1, link.clone());
        let accepted = Arc::new(KeepAccepted::default());
        let _listener = TcpListener::bind(&net, b, 9, TcpConfig::default(), accepted.clone())
            .expect("bind the echo end");
        let client: Connection = Connection::Tcp(
            TcpConn::connect(
                &net,
                a,
                Endpoint::new(b, 9),
                TcpConfig::default(),
                Arc::new(Discard),
            )
            .expect("dial the echo end"),
        );
        sim.run_for(Duration::from_millis(10));
        let server = accepted.first();
        let write = fixed_write(BYTES);
        let (events0, packets0) = (sim.events_executed(), net.stats().sent);
        let ((), ns, allocs, by_scope) = measured(|| {
            for i in 1..=ROUND_TRIPS {
                for (from, to) in [(&client, &server), (&server, &client)] {
                    assert_eq!(write(from), BYTES);
                    while delivered(to) < i * BYTES as u64 {
                        sim.run_for(hop);
                    }
                }
            }
        });
        let per = |x: f64| x / ROUND_TRIPS as f64;
        set.push("netsim.tcp.rpc_ns_per_roundtrip", per(ns));
        set.push(
            "netsim.tcp.rpc_events_per_roundtrip",
            per((sim.events_executed() - events0) as f64),
        );
        set.push(
            "netsim.tcp.rpc_packets_per_roundtrip",
            per((net.stats().sent - packets0) as f64),
        );
        set.push(
            "netsim.tcp.rpc_allocs_per_roundtrip",
            per((allocs - by_scope[memscope::SCOPE_OTHER]) as f64),
        );
    }
}

/// Live heap bytes of one established, idle flow: 10⁴ of them dialled into
/// a star world in batches the hub queue can hold.
fn probe_tcp_flow_heap(set: &mut ProbeSet) {
    let _s = spans::open("probe.netsim.tcp.flow_heap", 0);
    const FLOWS: usize = 10_000;
    let sim = Sim::new(42);
    let net = Network::new(&sim);
    let topo = star_fanin(&net, FLOWS);
    let _listener = TcpListener::bind(
        &net,
        topo.sink,
        9,
        TcpConfig::default(),
        Arc::new(KeepAccepted::default()),
    )
    .expect("bind the idle sink");
    sim.run_for(Duration::from_millis(10));
    let before = alloc::live_bytes();
    let mut conns = Vec::with_capacity(FLOWS);
    for batch in topo.senders.chunks(2048) {
        for &s in batch {
            conns.push(
                TcpConn::connect(
                    &net,
                    s,
                    Endpoint::new(topo.sink, 9),
                    TcpConfig::default(),
                    Arc::new(Discard),
                )
                .expect("idle dial"),
            );
        }
        sim.run_for(Duration::from_millis(20));
    }
    sim.run_for(Duration::from_secs(5));
    assert!(conns.iter().all(TcpConn::is_established));
    let held = alloc::live_bytes() - before - conns.capacity() * std::mem::size_of::<TcpConn>();
    set.push("netsim.tcp.heap_bytes_per_flow", held as f64 / FLOWS as f64);
}

/// Raw `UdtConn` streaming over a clean (unpoliced, loss-free) VPC link.
fn probe_udt_stream(set: &mut ProbeSet) {
    let _s = spans::open("probe.netsim.udt.stream", 0);
    const WRITE: usize = 64 * 1024;
    const WRITES: u64 = 1024; // 64 MiB
    let cfg = UdtConfig::default();
    let packets = (WRITES * WRITE as u64).div_ceil(cfg.mss as u64);
    let link = LinkConfig::new(125e6, Duration::from_micros(1500));
    for _ in 0..ROUNDS {
        let (sim, net, a, b) = two_nodes(1, link.clone());
        let accepted = Arc::new(KeepAccepted::default());
        let _listener = UdtListener::bind(&net, b, 9, cfg.clone(), accepted.clone())
            .expect("bind the stream sink");
        let streamer = Arc::new(Streamer {
            write_bytes: WRITE,
            left: AtomicU64::new(WRITES),
            write: fixed_write(WRITE),
        });
        let (_conn, ns, allocs, by_scope) = measured(|| {
            let conn = UdtConn::connect(&net, a, Endpoint::new(b, 9), cfg.clone(), streamer)
                .expect("dial the stream sink");
            while conn.acked_bytes() < WRITES * WRITE as u64 {
                sim.run_for(Duration::from_millis(10));
            }
            conn
        });
        assert_eq!(delivered(&accepted.first()), WRITES * WRITE as u64);
        let per = |x: f64| x / packets as f64;
        set.push("netsim.udt.ns_per_packet", per(ns));
        set.push(
            "netsim.udt.events_per_packet",
            per(sim.events_executed() as f64),
        );
        set.push(
            "netsim.udt.packets_per_packet",
            per(net.stats().sent as f64),
        );
        set.push(
            "netsim.udt.allocs_per_packet",
            per((allocs - by_scope[memscope::SCOPE_OTHER]) as f64),
        );
    }
}

// -------------------------------------------------------------- component

#[derive(Debug, Clone)]
struct Ball(u64);
struct BallPort;
impl Port for BallPort {
    type Request = Ball;
    type Indication = Ball;
}

/// Returns every ball it gets.
#[derive(Default)]
struct Wall {
    port: ProvidedPort<BallPort>,
}
impl ComponentDefinition for Wall {
    fn execute(&mut self, ctx: &mut ComponentContext, max: usize) -> usize {
        execute_ports!(self, ctx, max, [provided port: BallPort])
    }
}
impl Provide<BallPort> for Wall {
    fn handle(&mut self, _ctx: &mut ComponentContext, ball: Ball) {
        self.port.trigger(ball);
    }
}
impl ProvideRef<BallPort> for Wall {
    fn provided_port(&mut self) -> &mut ProvidedPort<BallPort> {
        &mut self.port
    }
}

/// Serves once, then returns every ball until the count runs out.
struct Player {
    port: RequiredPort<BallPort>,
    left: u64,
}
impl ComponentDefinition for Player {
    fn execute(&mut self, ctx: &mut ComponentContext, max: usize) -> usize {
        execute_ports!(self, ctx, max, [required port: BallPort])
    }
    fn handle_control(&mut self, _ctx: &mut ComponentContext, event: ControlEvent) {
        if event == ControlEvent::Start {
            self.port.trigger(Ball(0));
        }
    }
}
impl Require<BallPort> for Player {
    fn handle(&mut self, _ctx: &mut ComponentContext, ball: Ball) {
        if self.left > 0 {
            self.left -= 1;
            self.port.trigger(Ball(ball.0 + 1));
        }
    }
}
impl RequireRef<BallPort> for Player {
    fn required_port(&mut self) -> &mut RequiredPort<BallPort> {
        &mut self.port
    }
}

fn probe_component(set: &mut ProbeSet) {
    let _s = spans::open("probe.component", 0);
    const RETURNS: u64 = 500_000; // 1 M events
    for _ in 0..ROUNDS {
        let sim = Sim::new(1);
        let system = ComponentSystem::simulation(&sim, SystemConfig::default());
        let wall = system.create(Wall::default);
        let player = system.create(|| Player {
            port: RequiredPort::new(),
            left: RETURNS,
        });
        system.connect::<BallPort, _, _>(&wall, &player);
        system.start(&wall);
        system.start(&player);
        let ((), ns, allocs, _) = measured(|| {
            sim.run_for(Duration::from_secs(1));
        });
        assert_eq!(player.on_definition(|p| p.left), 0);
        // One event at the wall and one at the player per return.
        let events = 2.0 * RETURNS as f64;
        set.push("component.raw_ns_per_event", ns / events);
        set.push(
            "component.engine_events_per_event",
            sim.events_executed() as f64 / events,
        );
        set.push("component.allocs_per_event", allocs as f64 / events);
    }
}

// ------------------------------------------------------------------- core

/// The workload's message: a `ChunkMsg` of the workload's body size
/// between two middleware addresses.
fn sample_message(body: Vec<u8>) -> NetMessage {
    let src = NetAddress::new(NodeId::from_index(0), 7000);
    let dst = NetAddress::new(NodeId::from_index(1), 7001);
    NetMessage::new(
        src,
        dst,
        Transport::Tcp,
        ChunkMsg {
            offset: 65_000,
            data: body.into(),
        },
    )
}

fn probe_core(set: &mut ProbeSet, body: &[u8], iterations: u64) {
    let _s = spans::open("probe.core", 0);
    let msg = sample_message(body.to_vec());
    let mut registry = SerRegistry::new();
    registry.register::<ChunkMsg, ChunkMsg>();
    let mss = TcpConfig::default().mss;
    for _ in 0..ROUNDS {
        let per = |x: f64| x / iterations as f64;

        let ((), ns, allocs, _) = measured(|| {
            for _ in 0..iterations {
                let (id, bytes) = msg.payload_to_bytes().expect("serialise");
                black_box(registry.deserialise(id, &bytes).expect("deserialise"));
            }
        });
        set.push("core.ser.ns_per_msg", per(ns));
        set.push("core.ser.allocs_per_msg", per(allocs as f64));

        let mut frame = None;
        let ((), ns, enc_allocs, _) = measured(|| {
            for _ in 0..iterations {
                frame = Some(black_box(
                    encode_frame(&msg, Compression::Off).expect("encode"),
                ));
            }
        });
        set.push("core.frame.encode_ns_per_msg", per(ns));
        let frame = frame.expect("at least one iteration");

        let mut decoder = FrameDecoder::new();
        let ((), ns, dec_allocs, _) = measured(|| {
            for _ in 0..iterations {
                for piece in frame.chunks(mss) {
                    decoder.feed(piece);
                }
                let body = decoder
                    .next_frame()
                    .expect("well formed")
                    .expect("complete");
                black_box(decode_frame_body(body).expect("decode"));
            }
        });
        set.push("core.frame.decode_ns_per_msg", per(ns));
        set.push(
            "core.frame.allocs_per_msg",
            per((enc_allocs + dec_allocs) as f64),
        );
    }
}

fn probe_codec(set: &mut ProbeSet, body: &[u8], iterations: u64) {
    let _s = spans::open("probe.core.codec", 0);
    let mb = (body.len() as u64 * iterations) as f64 / 1e6;
    for _ in 0..ROUNDS {
        let mut packed = Vec::new();
        let ((), ns, _, _) = measured(|| {
            for _ in 0..iterations {
                packed = black_box(codec::compress(body));
            }
        });
        set.push("core.codec.compress_MB_per_s", mb / (ns / 1e9));
        set.push("core.codec.ratio", packed.len() as f64 / body.len() as f64);
        let ((), ns, _, _) = measured(|| {
            for _ in 0..iterations {
                black_box(codec::decompress(&packed, body.len()).expect("decompress"));
            }
        });
        set.push("core.codec.decompress_MB_per_s", mb / (ns / 1e9));
    }
}

fn probe_data_and_learning(set: &mut ProbeSet) {
    let _s = spans::open("probe.core.data+learning", 0);
    const SELECTS: u64 = 1_000_000;
    const STEPS: u64 = 1_000_000;
    for round in 0..ROUNDS {
        let mut psp = PatternSelection::new(Ratio::from_signed(0.6), PatternKind::MinimalRest, 100);
        let ((), ns, _, _) = measured(|| {
            for _ in 0..SELECTS {
                black_box(psp.select());
            }
        });
        set.push("core.data.psp_ns_per_select", ns / SELECTS as f64);

        let space = RatioSpace::default();
        let mut learner = Sarsa::new(
            space,
            SarsaConfig::default(),
            ApproxV::new(space),
            SeedSource::new(round as u64).stream("probe-learning"),
        );
        // The environment of the crate's own example: reward peaks at the
        // UDT end, as on the lossy WAN.
        let mut s = space.nearest_state(0.0);
        let mut a = learner.begin(s);
        let ((), ns, _, _) = measured(|| {
            for _ in 0..STEPS {
                s = space.transition(s, a);
                let x = space.state_value(s);
                a = learner.step(1.0 - (x - 1.0) * (x - 1.0), s);
            }
        });
        set.push("learning.ns_per_step", ns / STEPS as f64);
    }
}

fn probe_apps(set: &mut ProbeSet, seed: u64) {
    let _s = spans::open("probe.apps", 0);
    const CHUNKS: usize = 400;
    let dataset = Dataset::climate(CHUNKS * PAPER_CHUNK_SIZE, seed);
    let mb = dataset.size as f64 / 1e6;
    for _ in 0..ROUNDS {
        let mut chunks = Vec::with_capacity(CHUNKS);
        let ((), ns, _, _) = measured(|| {
            for i in 0..CHUNKS {
                chunks.push(dataset.chunk(i * PAPER_CHUNK_SIZE, PAPER_CHUNK_SIZE));
            }
        });
        set.push("apps.dataset_MB_per_s", mb / (ns / 1e9));
        let ((), ns, _, _) = measured(|| {
            for (i, c) in chunks.iter().enumerate() {
                black_box(chunk_hash((i * PAPER_CHUNK_SIZE) as u64, c));
            }
        });
        set.push("apps.hash_MB_per_s", mb / (ns / 1e9));
    }
}

/// Runs the probes of the layers `workload` uses, on its message shape.
#[must_use]
pub fn run(workload: Workload, seed: u64) -> ProbeSet {
    let mut set = ProbeSet::default();
    set.push("harness.ref_kernel_ms", ref_kernel());
    probe_harness(&mut set);
    probe_engine(&mut set);
    probe_fabric(&mut set);
    match workload {
        Workload::RpcSmall => {
            probe_tcp_rpc(&mut set);
            probe_component(&mut set);
            let mut rng = SplitMix(seed);
            let body: Vec<u8> = (0..52).map(|_| rng.next() as u8).collect();
            probe_core(&mut set, &body, 50_000);
        }
        Workload::BulkVpc | Workload::AdaptiveWan => {
            probe_tcp_stream(&mut set);
            probe_component(&mut set);
            let body = Dataset::climate(PAPER_CHUNK_SIZE, seed).chunk(0, PAPER_CHUNK_SIZE);
            probe_core(&mut set, &body, 1000);
            probe_codec(&mut set, &body, 200);
            probe_apps(&mut set, seed);
            if workload == Workload::AdaptiveWan {
                probe_udt_stream(&mut set);
                probe_data_and_learning(&mut set);
            }
        }
        Workload::Fanin10k => {
            probe_tcp_stream(&mut set);
            probe_tcp_flow_heap(&mut set);
        }
    }
    set.push("harness.ref_kernel_ms", ref_kernel());
    set
}
