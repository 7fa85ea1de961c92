//! `fanin_10k`: raw `kmsg-netsim`, no middleware. A `star_fanin` world
//! with 10⁴ senders, each a harness-owned `TcpConn` that pushes its quota
//! to one sink and closes, dials staggered 20 µs apart (plus an offset of
//! up to one more stagger slot).
//!
//! A message is one completed flow: the client saw an orderly close and
//! the sink's end of the connection delivered exactly the quota. Latency
//! is the flow completion time, dial to close.
//!
//! An incast that drops is chaotic: move one dial by a microsecond and
//! other packets are dropped, other flows wait out an RTO, and goodput
//! (set by the slowest flow) moves by several percent. So the dial offsets
//! belong to the pinned world, and the input seed sets only where timing
//! starts — after between 0.9 % and 1.1 % of the flows have been dialled.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use kmsg_apps::topology::star_fanin;
use kmsg_netsim::engine::Sim;
use kmsg_netsim::iface::{CloseReason, Connection, StreamAccept, StreamEvents};
use kmsg_netsim::network::Network;
use kmsg_netsim::packet::{Endpoint, NodeId};
use kmsg_netsim::tcp::{TcpConfig, TcpConn, TcpListener};
use kmsg_netsim::time::SimTime;

use super::{
    fingerprint_world, fixed_write, sizes, NetCounts, PhaseMeter, Rep, RepSpec, SplitMix,
    TcpRecovery, Write, WARMUP_SHARE,
};
use crate::stats::Fingerprint;
use crate::{spans, twin};

const SINK_PORT: u16 = 7001;
const STAGGER: Duration = Duration::from_micros(20);
const STEP: Duration = Duration::from_millis(1);
/// Simulated time after which unfinished flows count as failed.
const SIM_WALL: Duration = Duration::from_secs(300);
/// Most bytes handed to `TcpConn::send` at a time.
const MAX_WRITE: u64 = 64 * 1024;
const UNSET: u64 = u64::MAX;

/// What the harness loop and the flows' callbacks share.
struct FlowLog {
    sim: Sim,
    /// Simulated ns of each flow's dial, by sender index.
    dialled_ns: Vec<AtomicU64>,
    /// Simulated ns of each flow's orderly close at the client.
    closed_ns: Vec<AtomicU64>,
    closed: AtomicU64,
    /// Closes that were not orderly.
    aborted: AtomicU64,
}

/// Client side of one flow: write the quota, close.
struct Pump {
    index: usize,
    writes: u64,
    write_bytes: usize,
    write: Write,
    log: Arc<FlowLog>,
}

impl StreamEvents for Pump {
    fn on_connected(&self, conn: &Connection) {
        for _ in 0..self.writes {
            let accepted = (self.write)(conn);
            assert_eq!(accepted, self.write_bytes, "quota must fit the send buffer");
        }
        conn.close();
    }

    fn on_closed(&self, _conn: &Connection, reason: CloseReason) {
        let _span = spans::open_msg("app.deliver", self.index as u64 + 1);
        if reason == CloseReason::Normal {
            self.log.closed_ns[self.index].store(self.log.sim.now().as_nanos(), Relaxed);
            self.log.closed.fetch_add(1, Relaxed);
        } else {
            self.log.aborted.fetch_add(1, Relaxed);
        }
    }
}

/// The sink keeps its end of every flow so delivered bytes can be read
/// per flow afterwards; incoming data itself is dropped.
struct Discard;
impl StreamEvents for Discard {}

struct Sink {
    accepted: Mutex<Vec<Connection>>,
}

impl StreamAccept for Sink {
    fn on_accept(&self, conn: &Connection) -> Arc<dyn StreamEvents> {
        self.accepted
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(conn.clone());
        Arc::new(Discard)
    }
}

fn dial(
    net: &Network,
    from: NodeId,
    sink: Endpoint,
    pump: Arc<Pump>,
    conns: &Mutex<Vec<Option<TcpConn>>>,
) {
    let index = pump.index;
    let _span = spans::open_msg("app.send", index as u64 + 1);
    pump.log.dialled_ns[index].store(pump.log.sim.now().as_nanos(), Relaxed);
    let conn =
        TcpConn::connect(net, from, sink, TcpConfig::default(), pump).expect("dial the sink");
    conns.lock().unwrap_or_else(PoisonError::into_inner)[index] = Some(conn);
}

/// One repetition of `fanin_10k`.
#[must_use]
pub fn run(spec: &RepSpec) -> Rep {
    let mut meter = PhaseMeter::start();
    let setup_span = spans::open("phase.setup", 0);

    let flows = sizes::FANIN_FLOWS;
    // Whole writes only, all of one size, and never more than the send
    // buffer takes at once.
    let wanted = spec.scaled(sizes::FANIN_BYTES_PER_FLOW, 2048);
    let writes = wanted.div_ceil(MAX_WRITE);
    let write_bytes = wanted / writes;
    let quota = writes * write_bytes;
    assert!(quota as usize <= TcpConfig::default().send_buf);
    // Warm-up is the first 0.9–1.1 % of the dials; which, the input seed says.
    let nominal = (flows as f64 * WARMUP_SHARE) as u64;
    let warmup = nominal * 9 / 10 + SplitMix(spec.input_seed).below(nominal / 5 + 1);
    let timed_from = SimTime::ZERO + STAGGER * warmup as u32;

    let sim = Sim::new(spec.world_seed);
    let net = Network::new(&sim);
    let topo = star_fanin(&net, flows);
    let links = u32::try_from(topo.link_count).expect("link count fits");
    let counter = spec.traced.then(|| twin::enable(&sim, &net));
    let sink = Arc::new(Sink {
        accepted: Mutex::new(Vec::with_capacity(flows)),
    });
    let _listener = TcpListener::bind(
        &net,
        topo.sink,
        SINK_PORT,
        TcpConfig::default(),
        sink.clone(),
    )
    .expect("bind the sink");

    let log = Arc::new(FlowLog {
        sim: sim.clone(),
        dialled_ns: (0..flows).map(|_| AtomicU64::new(UNSET)).collect(),
        closed_ns: (0..flows).map(|_| AtomicU64::new(UNSET)).collect(),
        closed: AtomicU64::new(0),
        aborted: AtomicU64::new(0),
    });
    // Client handles must outlive the run: dropping one tears its flow down.
    let conns: Arc<Mutex<Vec<Option<TcpConn>>>> = Arc::new(Mutex::new(vec![None; flows]));
    let sink_ep = Endpoint::new(topo.sink, SINK_PORT);
    let mut offsets = SplitMix(spec.world_seed ^ 0x6661_6e69_6e31_306b);
    let write = fixed_write(write_bytes as usize);
    for (i, &from) in topo.senders.iter().enumerate() {
        let pump = Arc::new(Pump {
            index: i,
            writes,
            write_bytes: write_bytes as usize,
            write: write.clone(),
            log: log.clone(),
        });
        let at =
            STAGGER * i as u32 + Duration::from_nanos(offsets.below(STAGGER.as_nanos() as u64));
        let (net, conns) = (net.clone(), conns.clone());
        sim.schedule_in(at, move |_| dial(&net, from, sink_ep, pump, &conns));
    }

    let step = || {
        let _s = spans::open("sim.run_for", 0);
        sim.run_for(STEP);
    };
    let wall = SimTime::ZERO + SIM_WALL;
    {
        // Flow `warmup` dials at or after this instant, every earlier one before.
        let _s = spans::open("sim.run_for", 0);
        sim.run_for(timed_from.duration_since(sim.now()));
    }
    let timed_from_ns = timed_from.as_nanos();
    let net0 = NetCounts::read(&sim, &net, links);
    drop(setup_span);
    meter.begin_timed();
    let timed_span = spans::open("phase.timed", 0);
    while log.closed.load(Relaxed) + log.aborted.load(Relaxed) < flows as u64 && sim.now() < wall {
        step();
    }
    drop(timed_span);

    let mut rep = Rep::default();
    meter.finish(&mut rep);
    rep.net = NetCounts::read(&sim, &net, links).since(&net0);
    rep.pool_peak_slots = net.packet_pool_stats().1 as u64;

    // What each flow's sink end delivered, by sender.
    let first_sender = topo.senders[0].index();
    let mut delivered = vec![0u64; flows];
    for conn in sink
        .accepted
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
    {
        if let Connection::Tcp(c) = conn {
            delivered[(c.peer().node.index() - first_sender) as usize] += c.stats().bytes_delivered;
        }
    }
    let mut tcp = TcpRecovery::default();
    for conn in conns
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .flatten()
    {
        let s = conn.stats();
        tcp.retransmits += s.retransmits;
        tcp.timeouts += s.timeouts;
        tcp.fast_recoveries += s.fast_recoveries;
    }
    rep.tcp = Some(tcp);
    rep.total_msgs = log.closed.load(Relaxed);
    rep.total_payload_bytes = delivered.iter().sum();
    let mss = TcpConfig::default().mss as u64;
    rep.tcp_data_segments =
        Some(flows as u64 * writes * write_bytes.div_ceil(mss) + tcp.retransmits);

    let (mut first_send, mut last_done) = (u64::MAX, 0);
    let mut wrong_bytes = 0u64;
    for (i, &got) in delivered.iter().enumerate() {
        let dialled = log.dialled_ns[i].load(Relaxed);
        let closed = log.closed_ns[i].load(Relaxed);
        let complete = closed != UNSET && got == quota;
        if closed != UNSET && got != quota {
            wrong_bytes += 1;
        }
        // A flow belongs to the timed phase unless it was dialled before it.
        if dialled < timed_from_ns {
            continue;
        }
        rep.attempted += 1;
        if !complete {
            rep.failed += 1;
            continue;
        }
        rep.payload_bytes += quota;
        rep.latencies_ns.push(closed - dialled);
        first_send = first_send.min(dialled);
        last_done = last_done.max(closed);
    }
    rep.latencies_ns.sort_unstable();
    rep.sim_span_ns = last_done.saturating_sub(first_send);
    rep.verified = wrong_bytes == 0
        && log.aborted.load(Relaxed) == 0
        && log.closed.load(Relaxed) == flows as u64;
    rep.twin = counter.map(|c| twin::collect(&sim, &c));

    let mut fp = Fingerprint::default();
    fp.word(log.closed.load(Relaxed));
    fp.words(delivered.iter().copied());
    fingerprint_world(&mut fp, &sim, &net, links);
    fp.multiset(&rep.latencies_ns);
    rep.fingerprint = fp.value();
    // Let the world go: the kept sink-side handles and any timer still
    // on the wheel each hold the stack, which holds the engine.
    sink.accepted
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
    drop(conns);
    sim.run_to_completion();
    rep
}
