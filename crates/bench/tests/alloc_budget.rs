//! Per-message allocation regression guards.
//!
//! A 64-byte round trip through two full middleware stacks used to make
//! eighteen allocator calls of the stacks' own (EXPERIMENTS.md
//! "Allocations per message"). What is left is six: per direction, the
//! frame's buffer, the box that makes it shareable, and the `Arc` inside
//! `NetMessage::new`. The first test re-counts them with a counting
//! allocator — the payload is static and echoed as received, so the test
//! itself allocates nothing per message — and fails if a seventh call per
//! direction's worth creeps back in.
//!
//! The second counts a bulk transfer's 65 kB chunks: compressed, so every
//! frame straddles some 45 segments and is reassembled before it is
//! decoded (EXPERIMENTS.md "A bulk chunk received in place").
//!
//! The third counts a raw-simulator incast, whose ACKs report holes
//! (EXPERIMENTS.md "A loss report is a value").

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;
use kmsg_apps::dataset::{Dataset, PAPER_CHUNK_SIZE};
use kmsg_apps::scenario::{two_host_world, Setup};
use kmsg_apps::topology::star_fanin;
use kmsg_apps::transfer::{FileReceiver, FileSender, ReceiverConfig, SenderConfig};
use kmsg_component::prelude::*;
use kmsg_core::prelude::*;
use kmsg_netsim::engine::Sim;
use kmsg_netsim::iface::{CloseReason, Connection, StreamAccept, StreamEvents};
use kmsg_netsim::network::Network;
use kmsg_netsim::packet::Endpoint;
use kmsg_netsim::tcp::{TcpConfig, TcpConn, TcpListener};

struct CountingAlloc;

thread_local! {
    /// Allocator calls made by this thread: a world runs on the thread
    /// that drives it, and the tests of this file run side by side.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    CALLS.with(|calls| calls.set(calls.get() + 1));
}

fn calls() -> u64 {
    CALLS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        count();
        System.alloc(l)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(l)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new: usize) -> *mut u8 {
        count();
        System.realloc(p, l, new)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The floor is 6; one call of slack.
const CALLS_PER_ROUND_TRIP_BUDGET: f64 = 7.0;
const WARM_UP: u64 = 200;
const MEASURED: u64 = 1_000;

static PAYLOAD: [u8; 64] = [7; 64];

/// Sends whatever arrives back to where it came from; on `Start`, if it
/// has a peer, opens the exchange.
struct Echo {
    net: RequiredPort<NetworkPort>,
    addr: NetAddress,
    opens_to: Option<NetAddress>,
    round_trips: Arc<AtomicU64>,
}

impl Echo {
    fn send(&mut self, to: NetAddress, payload: Bytes) {
        let msg = NetMessage::new(self.addr, to, Transport::Tcp, payload);
        self.net.trigger(NetRequest::Msg(msg));
    }
}

impl ComponentDefinition for Echo {
    fn execute(&mut self, ctx: &mut ComponentContext, max: usize) -> usize {
        execute_ports!(self, ctx, max, [required net: NetworkPort])
    }

    fn handle_control(&mut self, _ctx: &mut ComponentContext, event: ControlEvent) {
        if let (ControlEvent::Start, Some(peer)) = (event, self.opens_to) {
            self.send(peer, Bytes::from_static(&PAYLOAD));
        }
    }
}

impl Require<NetworkPort> for Echo {
    fn handle(&mut self, _ctx: &mut ComponentContext, ev: NetIndication) {
        let NetIndication::Msg(msg) = ev else {
            return;
        };
        let payload = msg.try_deserialise::<Bytes, Bytes>().expect("bytes");
        assert_eq!(payload[..], PAYLOAD);
        if self.opens_to.is_some() {
            self.round_trips.fetch_add(1, Relaxed);
        }
        self.send(*msg.header().source(), payload);
    }
}

impl RequireRef<NetworkPort> for Echo {
    fn required_port(&mut self) -> &mut RequiredPort<NetworkPort> {
        &mut self.net
    }
}

#[test]
fn small_round_trip_stays_under_allocation_budget() {
    let world = two_host_world(42, &Setup::EuVpc);
    let a_addr = NetAddress::new(world.host_a, 7000);
    let b_addr = NetAddress::new(world.host_b, 7000);
    let round_trips = Arc::new(AtomicU64::new(0));
    for (addr, opens_to) in [(b_addr, None), (a_addr, Some(b_addr))] {
        let net =
            create_network(&world.system, &world.net, NetworkConfig::new(addr)).expect("bind");
        let echo = world.system.create(|| Echo {
            net: RequiredPort::new(),
            addr,
            opens_to,
            round_trips: round_trips.clone(),
        });
        world.system.connect::<NetworkPort, _, _>(&net, &echo);
        world.system.start(&net);
        world.system.start(&echo);
    }

    // One round trip is 3 ms of simulated time.
    let run_until = |target: u64| {
        while round_trips.load(Relaxed) < target {
            assert!(
                world.sim.now().as_nanos() < 60_000_000_000,
                "the exchange stalled"
            );
            world.sim.run_for(Duration::from_millis(3));
        }
        (round_trips.load(Relaxed), calls())
    };
    let (trips_before, calls_before) = run_until(WARM_UP);
    let (trips_after, calls_after) = run_until(WARM_UP + MEASURED);
    let per_trip = (calls_after - calls_before) as f64 / (trips_after - trips_before) as f64;
    assert!(
        per_trip <= CALLS_PER_ROUND_TRIP_BUDGET,
        "a 64-byte round trip costs {per_trip:.2} allocator calls \
         (budget {CALLS_PER_ROUND_TRIP_BUDGET}, measured 6.12; 18.12 before the retransmission \
         queue became a deque and frames were written and sliced in place)"
    );
    world.system.shutdown();
}

/// The floor is seven calls per chunk — the dataset's chunk and its box,
/// `NetMessage::new`'s `Arc`, the frame's buffer and box, the decompressed
/// payload and its box — plus the timing wheel's slots still growing
/// (0.31): measured 7.31. It was 9.31 while a frame that straddled
/// segments was copied out of the reassembly buffer and boxed before it
/// was decompressed.
const CALLS_PER_CHUNK_BUDGET: f64 = 7.8;
const WARM_UP_CHUNKS: u64 = 300;
const MEASURED_CHUNKS: u64 = 200;

#[test]
fn bulk_chunk_stays_under_allocation_budget() {
    let world = two_host_world(42, &Setup::EuVpc);
    let a_addr = NetAddress::new(world.host_a, 7000);
    let b_addr = NetAddress::new(world.host_b, 7000);
    // The sender runs up to a pipeline (96 chunks) ahead of the receiver:
    // the dataset outlasts the measured window by more, so both ends send
    // and receive through all of it.
    let chunks = WARM_UP_CHUNKS + MEASURED_CHUNKS + 200;
    let dataset = Dataset::climate(chunks as usize * PAPER_CHUNK_SIZE, 1);
    let a_net = create_network(&world.system, &world.net, NetworkConfig::new(a_addr)).expect("bind");
    let b_net = create_network(&world.system, &world.net, NetworkConfig::new(b_addr)).expect("bind");
    let sender = world
        .system
        .create(|| FileSender::new(SenderConfig::new(dataset, a_addr, b_addr, Transport::Tcp)));
    let receiver = world.system.create(|| FileReceiver::new(ReceiverConfig::new(dataset)));
    world.system.connect::<NetworkPort, _, _>(&a_net, &sender);
    world.system.connect::<NetworkPort, _, _>(&b_net, &receiver);
    let received = receiver.on_definition(|r| r.stats());
    world.system.start(&a_net);
    world.system.start(&b_net);
    world.system.start(&receiver);
    world.system.start(&sender);

    // A chunk reaches the receiver's disk every ~0.6 ms.
    let run_until = |target: u64| {
        while received.lock().chunks < target {
            assert!(world.sim.now().as_nanos() < 60_000_000_000, "the transfer stalled");
            world.sim.run_for(Duration::from_millis(1));
        }
        (received.lock().chunks, calls())
    };
    let (chunks_before, calls_before) = run_until(WARM_UP_CHUNKS);
    let (chunks_after, calls_after) = run_until(WARM_UP_CHUNKS + MEASURED_CHUNKS);
    let per_chunk = (calls_after - calls_before) as f64 / (chunks_after - chunks_before) as f64;
    assert!(
        per_chunk <= CALLS_PER_CHUNK_BUDGET,
        "a compressed 65 kB chunk costs {per_chunk:.2} allocator calls \
         (budget {CALLS_PER_CHUNK_BUDGET}, measured 7.31; 9.31 before a straddling frame \
         was decoded where it lay)"
    );
    world.system.shutdown();
}

/// Measured 13.82 calls per flow; 22.48 while every hole-bearing ACK
/// built its report in a `Vec` of its own (four in five carry one hole).
const CALLS_PER_INCAST_FLOW_BUDGET: f64 = 15.0;
const INCAST_FLOWS: usize = 400;
const INCAST_BYTES_PER_FLOW: usize = 96 * 1024;
const INCAST_STAGGER: Duration = Duration::from_micros(20);

/// Client side of one incast flow: write the quota, close, count the
/// orderly close.
struct Pump {
    payload: Bytes,
    closed: Arc<AtomicU64>,
}

impl StreamEvents for Pump {
    fn on_connected(&self, conn: &Connection) {
        assert_eq!(conn.send(self.payload.clone()), self.payload.len());
        conn.close();
    }

    fn on_closed(&self, _conn: &Connection, reason: CloseReason) {
        assert_eq!(reason, CloseReason::Normal);
        self.closed.fetch_add(1, Relaxed);
    }
}

struct Discard;
impl StreamEvents for Discard {}
impl StreamAccept for Discard {
    fn on_accept(&self, _conn: &Connection) -> Arc<dyn StreamEvents> {
        Arc::new(Discard)
    }
}

#[test]
fn incast_flow_stays_under_allocation_budget() {
    let sim = Sim::new(7);
    let net = Network::new(&sim);
    let topo = star_fanin(&net, INCAST_FLOWS);
    let sink = Endpoint::new(topo.sink, 7001);
    let _listener = TcpListener::bind(
        &net,
        topo.sink,
        sink.port,
        TcpConfig::default(),
        Arc::new(Discard),
    )
    .expect("bind the sink");
    let closed = Arc::new(AtomicU64::new(0));
    let pump = Arc::new(Pump {
        payload: vec![0xC5; INCAST_BYTES_PER_FLOW].into(),
        closed: closed.clone(),
    });
    // Client handles must outlive the run: dropping one tears its flow down.
    let conns = Arc::new(Mutex::new(Vec::with_capacity(INCAST_FLOWS)));
    for (i, &from) in topo.senders.iter().enumerate() {
        let (net, pump, conns) = (net.clone(), pump.clone(), conns.clone());
        sim.schedule_in(INCAST_STAGGER * i as u32, move |_| {
            let conn =
                TcpConn::connect(&net, from, sink, TcpConfig::default(), pump).expect("dial");
            conns.lock().expect("no dial panicked").push(conn);
        });
    }

    let calls_before = calls();
    while closed.load(Relaxed) < INCAST_FLOWS as u64 {
        assert!(sim.now().as_nanos() < 60_000_000_000, "the incast stalled");
        sim.run_for(Duration::from_millis(1));
    }
    let per_flow = (calls() - calls_before) as f64 / INCAST_FLOWS as f64;
    let conns = conns.lock().expect("no dial panicked");
    let recoveries: u64 = conns.iter().map(|c| c.stats().fast_recoveries).sum();
    assert!(
        net.stats().dropped_link > 0 && recoveries > 0,
        "the sink's queue must drop, so that ACKs report holes"
    );
    assert!(
        per_flow <= CALLS_PER_INCAST_FLOW_BUDGET,
        "an incast flow of {INCAST_BYTES_PER_FLOW} B costs {per_flow:.2} allocator calls \
         (budget {CALLS_PER_INCAST_FLOW_BUDGET}, measured 13.82; 22.48 while a loss report \
         was a `Vec`)"
    );
}
