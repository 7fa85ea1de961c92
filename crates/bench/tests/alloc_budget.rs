//! Per-message allocation regression guards.
//!
//! A 64-byte round trip through two full middleware stacks used to make
//! eighteen allocator calls of the stacks' own (docs/lab/PR-19.md
//! "Allocations per message"). What is left is four: per direction, the
//! frame, written in one shared buffer, and the `Arc` inside
//! `NetMessage::new`. The first test re-counts them with a counting
//! allocator — the payload is echoed as received, so the test itself
//! allocates nothing per message — and fails if a fifth call per round
//! trip creeps back in.
//!
//! The second counts a bulk transfer's 65 kB chunks: compressed, so every
//! frame straddles some 45 segments and is reassembled before it is
//! decoded (docs/lab/PR-27.md "A bulk chunk received in place"). The third
//! sends the same chunks over `DATA`.
//!
//! The fourth counts a raw-simulator incast, whose ACKs report holes
//! (docs/lab/PR-29.md "A loss report is a value", PR-47.md "Loss as a
//! mark").
//!
//! The rest hold the pieces to one allocator call each: a shared buffer
//! (`kmsg_telemetry::bytes`), and the three writers that make one per
//! message — a dataset chunk, a frame, a decompressed payload — and bound
//! what a frame that claims far more than it holds leaves behind.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use kmsg_apps::dataset::{Dataset, PAPER_CHUNK_SIZE};
use kmsg_apps::scenario::{two_host_world, Setup};
use kmsg_apps::topology::star_fanin;
use kmsg_apps::transfer::{FileReceiver, FileSender, ReceiverConfig, SenderConfig};
use kmsg_component::prelude::*;
use kmsg_core::data::{create_data_network, DataNetworkConfig};
use kmsg_core::prelude::*;
use kmsg_netsim::engine::Sim;
use kmsg_netsim::iface::{CloseReason, Connection, StreamAccept, StreamEvents};
use kmsg_netsim::network::Network;
use kmsg_netsim::packet::Endpoint;
use kmsg_netsim::tcp::{TcpConfig, TcpConn, TcpListener};
use kmsg_telemetry::bytes::Bytes;

struct CountingAlloc;

thread_local! {
    /// Allocator calls made by this thread: a world runs on the thread
    /// that drives it, and the tests of this file run side by side.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has allocated less those it has freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn count(grown: usize, freed: usize) {
    CALLS.with(|calls| calls.set(calls.get() + 1));
    LIVE.with(|live| live.set(live.get() + grown as i64 - freed as i64));
}

fn calls() -> u64 {
    CALLS.with(Cell::get)
}

fn live() -> i64 {
    LIVE.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        count(l.size(), 0);
        System.alloc(l)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        count(l.size(), 0);
        System.alloc_zeroed(l)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        LIVE.with(|live| live.set(live.get() - l.size() as i64));
        System.dealloc(p, l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new: usize) -> *mut u8 {
        count(new, l.size());
        System.realloc(p, l, new)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The floor is 4; one call of slack.
const CALLS_PER_ROUND_TRIP_BUDGET: f64 = 5.0;
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
         (budget {CALLS_PER_ROUND_TRIP_BUDGET}, measured 4.00; 4.03 while timing-wheel slots \
         kept growing, 6.03 while a shared buffer was a box around a `Vec`, 18.12 before the retransmission queue became a deque and frames \
         were written and sliced in place)"
    );
    world.system.shutdown();
}

/// The floor is four calls per chunk — the dataset's chunk,
/// `NetMessage::new`'s `Arc`, the frame and the decompressed payload, each
/// one shared buffer: measured 3.99. It was 4.32 while the timing wheel's
/// slots kept growing, 7.31 while a shared buffer was a box around a
/// `Vec`, and 9.31 while a frame that straddled segments was copied out of
/// the reassembly buffer and boxed before it was decompressed.
const CALLS_PER_CHUNK_BUDGET: f64 = 4.8;
const WARM_UP_CHUNKS: u64 = 300;
const MEASURED_CHUNKS: u64 = 200;

/// Allocator calls per 65 kB chunk of a transfer over `transport` in a
/// VPC, the sender's stack a `DATA` network for `Transport::Data`.
fn calls_per_chunk(transport: Transport) -> f64 {
    let world = two_host_world(42, &Setup::EuVpc);
    let a_addr = NetAddress::new(world.host_a, 7000);
    let b_addr = NetAddress::new(world.host_b, 7000);
    // The sender runs up to a pipeline (96 chunks) ahead of the receiver:
    // the dataset outlasts the measured window by more, so both ends send
    // and receive through all of it.
    let chunks = WARM_UP_CHUNKS + MEASURED_CHUNKS + 200;
    let dataset = Dataset::climate(chunks as usize * PAPER_CHUNK_SIZE, 1);
    let sender = world
        .system
        .create(|| FileSender::new(SenderConfig::new(dataset, a_addr, b_addr, transport)));
    let (net, cfg) = (&world.net, NetworkConfig::new(a_addr));
    if transport == Transport::Data {
        let dn = create_data_network(&world.system, net, cfg, DataNetworkConfig::default());
        let dn = dn.expect("bind");
        world
            .system
            .connect::<NetworkPort, _, _>(&dn.interceptor, &sender);
        dn.start(&world.system);
    } else {
        let a_net = create_network(&world.system, net, cfg).expect("bind");
        world.system.connect::<NetworkPort, _, _>(&a_net, &sender);
        world.system.start(&a_net);
    }
    let b_net =
        create_network(&world.system, &world.net, NetworkConfig::new(b_addr)).expect("bind");
    let receiver = world
        .system
        .create(|| FileReceiver::new(ReceiverConfig::new(dataset)));
    world.system.connect::<NetworkPort, _, _>(&b_net, &receiver);
    let received = receiver.on_definition(|r| r.stats());
    world.system.start(&b_net);
    world.system.start(&receiver);
    world.system.start(&sender);

    // A chunk reaches the receiver's disk every ~0.6 ms.
    let run_until = |target: u64| {
        while received.lock().chunks < target {
            assert!(
                world.sim.now().as_nanos() < 60_000_000_000,
                "the transfer stalled"
            );
            world.sim.run_for(Duration::from_millis(1));
        }
        (received.lock().chunks, calls())
    };
    let (chunks_before, calls_before) = run_until(WARM_UP_CHUNKS);
    let (chunks_after, calls_after) = run_until(WARM_UP_CHUNKS + MEASURED_CHUNKS);
    world.system.shutdown();
    (calls_after - calls_before) as f64 / (chunks_after - chunks_before) as f64
}

#[test]
fn bulk_chunk_stays_under_allocation_budget() {
    let per_chunk = calls_per_chunk(Transport::Tcp);
    assert!(
        per_chunk <= CALLS_PER_CHUNK_BUDGET,
        "a compressed 65 kB chunk costs {per_chunk:.2} allocator calls \
         (budget {CALLS_PER_CHUNK_BUDGET}, measured 3.99; 4.32 while timing-wheel slots kept \
         growing, 7.31 while a shared buffer was a box around a `Vec`, 9.31 before a straddling frame was decoded where it lay)"
    );
}

/// The same chunks sent over `DATA`, whose interceptor sends each message
/// as it releases it: measured 4.05. It was 4.055 while an episode end
/// collected its flows' keys in a `Vec`, 5.25 while the timing wheel's
/// slots kept growing, and 5.85 while every release gathered its messages
/// in a `Vec` of its own before sending them.
const CALLS_PER_DATA_CHUNK_BUDGET: f64 = 5.55;

#[test]
fn data_chunk_stays_under_allocation_budget() {
    let per_chunk = calls_per_chunk(Transport::Data);
    assert!(
        per_chunk <= CALLS_PER_DATA_CHUNK_BUDGET,
        "a compressed 65 kB chunk over DATA costs {per_chunk:.2} allocator calls \
         (budget {CALLS_PER_DATA_CHUNK_BUDGET}, measured 4.05; 5.25 while timing-wheel slots \
         kept growing, 5.85 while a release gathered its messages in a `Vec`)"
    );
}

/// Measured 2.94 calls per flow. It was 4.55 while each sending flow kept
/// its retransmission queue in a `VecDeque` of its own (a ring sized by the
/// first flush, doubled under later windows, freed once drained and
/// allocated again), 6.91 while each stream kept its
/// writes in a `VecDeque` and its held payloads in a `BTreeMap` of its own
/// (a ring per sending flow, a B-tree leaf per receiver with a hole), 8.61
/// while the sender's retransmission ring grew 4 → 8 → 16 under its first
/// window, 9.61 while each side queued its SYN (the passive side's queue
/// lived only to hold the SYN-ACK), 11.11 while the timing wheel's slots
/// kept growing, 13.82 while the sender kept its lost segments in a
/// `BTreeSet` and every multi-hole report had a block of its own,
/// unchanged or not (budget 15.0 then), and 22.48 while every hole-bearing
/// ACK built its report in a `Vec` of its own (four in five carry one
/// hole).
const CALLS_PER_INCAST_FLOW_BUDGET: f64 = 3.05;
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
         (budget {CALLS_PER_INCAST_FLOW_BUDGET}, measured 2.94; 4.55 while each flow kept its \
         retransmission queue in a `VecDeque`, 6.91 while each stream kept its \
         own `VecDeque` and `BTreeMap`, 8.61 while the first window grew the ring 4 → 8 → 16, 9.61 while each side queued its SYN, 11.11 while timing-wheel slots kept growing, 13.82 while the lost segments were a `BTreeSet`, 22.48 while a loss report was a `Vec`)"
    );
}

/// Allocator calls `f` makes, and what it returns.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = calls();
    let out = f();
    (calls() - before, out)
}

#[test]
fn a_shared_buffer_is_one_allocator_call() {
    use kmsg_telemetry::bytes::{BufMut, BytesMut};
    let data = vec![5u8; 4096];
    let (n, copied) = counted(|| Bytes::copy_from_slice(&data));
    assert_eq!((n, &copied[..]), (1, &data[..]), "copy_from_slice");
    let (n, frozen) = counted(|| {
        let mut buf = BytesMut::with_capacity(data.len() + 4);
        buf.put_u32(7);
        buf.put_slice(&data);
        buf.freeze()
    });
    assert_eq!(
        (n, frozen.len()),
        (1, data.len() + 4),
        "written, then frozen"
    );
    let (n, _) = counted(|| {
        (
            frozen.clone(),
            frozen.slice(4..),
            copied.clone().split_to(9),
        )
    });
    assert_eq!(n, 0, "clone, slice and split_to share the buffer");
    let (n, zeroed) = counted(|| std::iter::repeat_n(0u8, 65_000).collect::<Arc<[u8]>>());
    assert_eq!(
        (n, zeroed.len()),
        (1, 65_000),
        "repeat_n collected into an Arc"
    );
    let (n, _) = counted(|| (Bytes::new(), Bytes::copy_from_slice(&[]), BytesMut::new()));
    assert_eq!(n, 0, "the empty buffer");
}

/// A 65 kB chunk, its frame and its payload decompressed: one allocator
/// call each, once the thread's scratch has grown.
#[test]
fn the_writers_of_a_bulk_chunk_are_one_allocator_call_each() {
    use kmsg_core::net::frame::{decode_frame_body, encode_frame, Compression};
    let dataset = Dataset::climate(4 * PAPER_CHUNK_SIZE, 1);
    let (n, chunk) = counted(|| dataset.chunk(PAPER_CHUNK_SIZE, PAPER_CHUNK_SIZE));
    assert_eq!((n, chunk.len()), (1, PAPER_CHUNK_SIZE), "Dataset::chunk");
    let world = two_host_world(42, &Setup::EuVpc);
    let msg = NetMessage::new(
        NetAddress::new(world.host_a, 7000),
        NetAddress::new(world.host_b, 7000),
        Transport::Tcp,
        chunk.clone(),
    );
    for compression in [Compression::default(), Compression::Off] {
        let warm = encode_frame(&msg, compression).expect("encode");
        drop(decode_frame_body(warm.slice(4..)).expect("decode"));
        let (n, frame) = counted(|| encode_frame(&msg, compression).expect("encode"));
        assert_eq!(
            (n, frame.len()),
            (1, warm.len()),
            "encode_frame, {compression:?}"
        );
        let (n, out) = counted(|| decode_frame_body(frame.slice(4..)).expect("decode"));
        let payload = out.try_deserialise::<Bytes, Bytes>().expect("payload");
        assert_eq!(payload, chunk);
        let decompressed = u64::from(compression != Compression::Off);
        assert_eq!(n, decompressed, "decode_frame_body, {compression:?}");
    }
    world.system.shutdown();
}

/// A frame whose few-byte block claims the largest raw length a frame may
/// have decodes into scratch that grows with what it writes, not with
/// what it claims: the thread keeps at most about twice the payload, plus
/// the codec's 16-byte fixed-width copies.
#[test]
fn a_hostile_claimed_length_leaves_scratch_sized_to_what_was_decoded() {
    use kmsg_core::codec;
    use kmsg_core::net::frame::{decode_frame_body, encode_frame, Compression, MAX_FRAME};
    const WIDE: i64 = 16;
    let world = two_host_world(42, &Setup::EuVpc);
    let msg = |payload: Vec<u8>| {
        NetMessage::new(
            NetAddress::new(world.host_a, 7000),
            NetAddress::new(world.host_b, 7000),
            Transport::Tcp,
            Bytes::from(payload),
        )
    };
    for payload in [vec![7u8; 1_000], b"abcabc".repeat(100), vec![0u8; 508]] {
        let msg = msg(payload);
        let (_, raw) = msg.payload_to_bytes().expect("serialise");
        let block = codec::compress(&raw);
        assert!(block.len() <= 16, "a tiny block: {} B", block.len());
        let mut frame = encode_frame(&msg, Compression::Threshold(1))
            .expect("encode")
            .to_vec();
        let claim = frame.len() - block.len() - 4;
        assert_eq!(frame[claim..claim + 4], (raw.len() as u32).to_be_bytes());
        frame[claim..claim + 4].copy_from_slice(&(MAX_FRAME as u32).to_be_bytes());
        let frame = Bytes::from(frame);
        // A thread of its own, so the decoder's scratch starts empty.
        let (decoded, kept) = std::thread::scope(|s| {
            s.spawn(|| {
                let before = live();
                let out = decode_frame_body(frame.slice(4..)).expect("decode");
                let (_, payload) = out.payload_to_bytes().expect("a wire payload");
                assert_eq!(payload, raw);
                let decoded = payload.len() as i64;
                drop((out, payload));
                (decoded, live() - before)
            })
            .join()
            .expect("decoder thread")
        });
        assert!(
            kept <= 2 * (decoded + WIDE),
            "decoding {decoded} B of a claimed {MAX_FRAME} left {kept} B behind"
        );
    }
    world.system.shutdown();
}
