//! The four workloads and what one repetition of any of them reports.
//!
//! A repetition is **fixed work**: the message count is a frozen constant
//! (scaled only by `--seconds`, `--quick` and the twin's divisor), so every
//! simulated figure and every count repeats exactly for a seed. It has a
//! set-up phase (world, topology, components, dataset checksum, channels
//! dialled, the first 1 % of the messages as warm-up) and a timed phase
//! (every message *sent* from the boundary on). The boundary falls on a
//! step of the harness's `sim.run_for` loop, so it is the same simulated
//! instant on every run of a seed.

pub mod fanin;
pub mod rpc;
pub mod transfer;

use std::sync::Arc;

use kmsg_core::{MiddlewareStats, Transport};
use kmsg_netsim::engine::Sim;
use kmsg_netsim::iface::Connection;
use kmsg_netsim::link::LinkId;
use kmsg_netsim::network::Network;

use crate::alloc;
use crate::clock::Stamp;
use crate::stats::Fingerprint;

/// Frozen sizes: what one timed repetition of each workload does at
/// `--seconds` = [`DEFAULT_SECONDS`], calibrated on the reference
/// container (2 cores) to 4–7 CPU-seconds each, set-up included. README.md
/// lists the cost.
pub mod sizes {
    /// The `run_seconds` of BENCHMARK.json the sizes below belong to.
    pub const DEFAULT_SECONDS: u64 = 20;
    /// `rpc_small`: round trips per repetition, split over the requesters.
    pub const RPC_ROUND_TRIPS: u64 = 448_000;
    /// `rpc_small`: concurrent requester components.
    pub const RPC_REQUESTERS: u64 = 64;
    /// `bulk_vpc`: dataset bytes per repetition.
    pub const BULK_BYTES: u64 = 256 * 1024 * 1024;
    /// `adaptive_wan`: dataset bytes per repetition (≥ 60 simulated s).
    pub const WAN_BYTES: u64 = 480 * 1024 * 1024;
    /// `fanin_10k`: senders (never scaled).
    pub const FANIN_FLOWS: usize = 10_000;
    /// `fanin_10k`: bytes each sender pushes.
    pub const FANIN_BYTES_PER_FLOW: u64 = 96 * 1024;
}

/// Timed repetitions per run.
pub const TIMED_REPS: u64 = 5;

/// Share of the messages that run before the timed phase starts.
pub const WARMUP_SHARE: f64 = 0.01;

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop 64 B request/reply through the middleware over TCP.
    RpcSmall,
    /// Disk-to-disk file transfer over TCP inside one VPC.
    BulkVpc,
    /// The same transfer over the adaptive `DATA` protocol on a lossy WAN.
    AdaptiveWan,
    /// 10⁴ raw TCP flows into one sink, no middleware.
    Fanin10k,
}

impl Workload {
    /// All four, in catalogue order.
    pub const ALL: [Workload; 4] = [
        Workload::RpcSmall,
        Workload::BulkVpc,
        Workload::AdaptiveWan,
        Workload::Fanin10k,
    ];

    /// The workload's final name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::RpcSmall => "rpc_small",
            Workload::BulkVpc => "bulk_vpc",
            Workload::AdaptiveWan => "adaptive_wan",
            Workload::Fanin10k => "fanin_10k",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the middleware (`component`, `core.*`, `apps`) runs at all.
    #[must_use]
    pub fn uses_middleware(self) -> bool {
        self != Workload::Fanin10k
    }

    /// The traced twin runs at `1 / twin_divisor` of the size: a full-size
    /// recording would hold tens of millions of events.
    #[must_use]
    pub fn twin_divisor(self) -> f64 {
        match self {
            Workload::RpcSmall | Workload::Fanin10k => 10.0,
            Workload::BulkVpc | Workload::AdaptiveWan => 4.0,
        }
    }

    /// Runs one repetition.
    #[must_use]
    pub fn run(self, spec: &RepSpec) -> Rep {
        match self {
            Workload::RpcSmall => rpc::run(spec),
            Workload::BulkVpc => transfer::run(transfer::Kind::BulkVpc, spec),
            Workload::AdaptiveWan => transfer::run(transfer::Kind::AdaptiveWan, spec),
            Workload::Fanin10k => fanin::run(spec),
        }
    }
}

/// Inputs of one repetition.
///
/// Two seeds, because they do different jobs. The *world* seed feeds the
/// simulator's own random streams (loss draws, learner exploration); it
/// is the constant `1 + slot` of the repetition, so two commits — and two
/// runs — see the same five worlds. The *input* seed comes from `--seed`
/// and generates what the workload feeds the system: payload bytes, start
/// offsets, dataset content, file length.
#[derive(Debug, Clone, Copy)]
pub struct RepSpec {
    /// Seed of the simulated world's random streams.
    pub world_seed: u64,
    /// Seed of every generated input.
    pub input_seed: u64,
    /// Size multiplier on the frozen counts (1.0 = as frozen).
    pub scale: f64,
    /// Record the simulator's flight recorder and the harness's host-time
    /// spans (the traced twin).
    pub traced: bool,
}

impl RepSpec {
    /// `count` scaled, at least `min`.
    #[must_use]
    pub fn scaled(&self, count: u64, min: u64) -> u64 {
        ((count as f64 * self.scale).round() as u64).max(min)
    }
}

/// Exact counters read from the simulator's public stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetCounts {
    /// `Sim::events_executed`.
    pub events: u64,
    /// `NetworkStats::sent`.
    pub packets: u64,
    /// Σ `LinkStats::delivered_bytes` over all links.
    pub wire_bytes: u64,
    /// Σ `LinkStats::dropped_queue`.
    pub drops_queue: u64,
    /// Σ `LinkStats::dropped_loss`.
    pub drops_loss: u64,
    /// Σ `LinkStats::dropped_policer`.
    pub drops_policer: u64,
    /// Σ of the remaining `LinkStats` drop counters (down, severed, burst).
    pub drops_other: u64,
}

impl NetCounts {
    /// Reads the counters; `links` is how many links the world created.
    #[must_use]
    pub fn read(sim: &Sim, net: &Network, links: u32) -> NetCounts {
        let stats = net.stats();
        let mut c = NetCounts {
            events: sim.events_executed(),
            packets: stats.sent,
            ..NetCounts::default()
        };
        for i in 0..links {
            let l = net.link(LinkId::from_index(i)).stats();
            c.wire_bytes += l.delivered_bytes;
            c.drops_queue += l.dropped_queue;
            c.drops_loss += l.dropped_loss;
            c.drops_policer += l.dropped_policer;
            c.drops_other += l.dropped_down + l.dropped_severed + l.dropped_burst;
        }
        c
    }

    /// `self − earlier`, field by field.
    #[must_use]
    pub fn since(&self, earlier: &NetCounts) -> NetCounts {
        NetCounts {
            events: self.events - earlier.events,
            packets: self.packets - earlier.packets,
            wire_bytes: self.wire_bytes - earlier.wire_bytes,
            drops_queue: self.drops_queue - earlier.drops_queue,
            drops_loss: self.drops_loss - earlier.drops_loss,
            drops_policer: self.drops_policer - earlier.drops_policer,
            drops_other: self.drops_other - earlier.drops_other,
        }
    }
}

/// Folds the whole-run simulated state into the fingerprint: final time,
/// events, fabric counters and every link's counters.
pub fn fingerprint_world(fp: &mut Fingerprint, sim: &Sim, net: &Network, links: u32) {
    fp.word(sim.now().as_nanos());
    fp.word(sim.events_executed());
    let s = net.stats();
    fp.words(
        [
            s.sent,
            s.delivered,
            s.dropped_link,
            s.dropped_no_route,
            s.dropped_no_sink,
        ]
        .into_iter(),
    );
    fp.word(u64::from(links));
    for i in 0..links {
        let l = net.link(LinkId::from_index(i)).stats();
        for w in [
            l.delivered,
            l.delivered_bytes,
            l.dropped_queue,
            l.dropped_loss,
            l.dropped_policer,
            l.dropped_down,
            l.dropped_severed,
            l.dropped_burst,
        ] {
            fp.word(w);
        }
    }
}

/// TCP loss-recovery counters (from `TcpConn::stats` or recorder events).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpRecovery {
    /// Segments retransmitted.
    pub retransmits: u64,
    /// Retransmission timeouts fired.
    pub timeouts: u64,
    /// Fast-recovery episodes entered.
    pub fast_recoveries: u64,
}

/// `MiddlewareStats` of both hosts, summed (timed phase and set-up alike:
/// channels are opened during set-up).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MwCounts {
    /// Messages handed to transports.
    pub sent: u64,
    /// Of those, over UDT.
    pub sent_udt: u64,
    /// Messages received from the wire.
    pub received: u64,
    /// Bytes written to transports after framing and compression.
    pub bytes_out: u64,
    /// Failed sends.
    pub send_failures: u64,
    /// Frames that failed to decode.
    pub decode_failures: u64,
    /// Channels opened.
    pub channels_opened: u64,
    /// Channels re-established by supervision.
    pub reconnects: u64,
    /// `DATA` messages rerouted to the surviving transport.
    pub failovers: u64,
}

impl MwCounts {
    /// Sums the counters of several network components.
    #[must_use]
    pub fn sum(stats: &[&MiddlewareStats]) -> MwCounts {
        let mut c = MwCounts::default();
        for s in stats {
            c.sent += s.total_sent();
            c.sent_udt += s.sent[Transport::Udt.to_byte() as usize];
            c.received += s.total_received();
            c.bytes_out += s.bytes_out;
            c.send_failures += s.send_failures;
            c.decode_failures += s.decode_failures;
            c.channels_opened += s.channels_opened;
            c.reconnects += s.reconnects;
            c.failovers += s.failovers;
        }
        c
    }
}

/// What the `DATA` interceptor and its learner did (`adaptive_wan` only).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DataCounts {
    /// Learning episodes the flow went through.
    pub episodes: u64,
    /// The target ratio in force at the end (−1 all TCP … +1 all UDT).
    pub final_ratio: f64,
    /// Simulated seconds until the first receiver 1 s window at ≥ 90 % of
    /// the run's goodput.
    pub converge_sim_s: f64,
}

/// What the traced twin read off the simulator's recorder.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TwinCounts {
    /// Events recorded.
    pub events_recorded: u64,
    /// Events the ring evicted (must be 0).
    pub evicted: u64,
    /// Events components handled (Σ `ComponentExec::handled`).
    pub component_events: u64,
    /// Packets sent by protocol: TCP, UDT.
    pub tcp_packets: u64,
    /// See `tcp_packets`.
    pub udt_packets: u64,
    /// TCP packets that carried payload (wire size above the bare header).
    pub tcp_data_segments: u64,
    /// UDT packets at least half an MSS long (data, not control).
    pub udt_data_packets: u64,
    /// TCP recovery, from `TcpRetransmit` / `TcpRto` / `TcpCwnd` events.
    pub tcp: TcpRecovery,
    /// NAKs sent.
    pub udt_naks: u64,
    /// Packets those NAKs reported lost, i.e. asked to be sent again.
    pub udt_nak_losses: u64,
    /// Simulated self time of the recorder's spans, grouped
    /// (queue, wire, retransmit, app), in nanoseconds.
    pub sim_self_ns: [u64; 4],
    /// Σ simulated duration of `enqueue` spans, nanoseconds.
    pub enqueue_ns: u64,
}

/// Everything one repetition reports.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Messages the timed phase attempted.
    pub attempted: u64,
    /// Of those, not delivered and verified before the simulated wall.
    pub failed: u64,
    /// Whether every check of the repetition held (payloads, checksum,
    /// byte counts, orderly closes), warm-up included.
    pub verified: bool,
    /// Verified payload bytes of the timed messages.
    pub payload_bytes: u64,
    /// Messages delivered over the whole repetition, warm-up included.
    pub total_msgs: u64,
    /// Payload bytes delivered over the whole repetition.
    pub total_payload_bytes: u64,
    /// Process CPU seconds from repetition start to first timed send.
    pub setup_cpu_s: f64,
    /// Host wall seconds of the timed phase.
    pub timed_wall_s: f64,
    /// Process CPU seconds of the timed phase.
    pub timed_cpu_s: f64,
    /// Simulated nanoseconds from first timed send to last delivery.
    pub sim_span_ns: u64,
    /// Simulated send→deliver nanoseconds of each delivered timed message.
    pub latencies_ns: Vec<u64>,
    /// Allocator calls in the timed phase.
    pub allocs: u64,
    /// Live-bytes high-water mark of the repetition, above its start.
    pub peak_heap_bytes: u64,
    /// Simulator counters over the timed phase.
    pub net: NetCounts,
    /// Packet-pool slot high-water mark.
    pub pool_peak_slots: u64,
    /// TCP recovery counters where the harness owns the connections.
    pub tcp: Option<TcpRecovery>,
    /// TCP data segments sent over the whole repetition, where the
    /// harness can tell (it owns the connections).
    pub tcp_data_segments: Option<u64>,
    /// Middleware counters (middleware workloads).
    pub mw: Option<MwCounts>,
    /// Interceptor counters (`adaptive_wan`).
    pub data: Option<DataCounts>,
    /// Recorder-derived counters (traced twin only).
    pub twin: Option<TwinCounts>,
    /// Hash of the simulated outcome.
    pub fingerprint: u64,
}

impl Rep {
    /// Messages delivered and verified in the timed phase.
    #[must_use]
    pub fn msgs(&self) -> u64 {
        self.attempted - self.failed
    }
}

/// Host-side bookkeeping of a repetition's two phases.
pub struct PhaseMeter {
    start: Stamp,
    timed: Option<(Stamp, u64)>,
    heap_floor: usize,
}

impl PhaseMeter {
    /// Call first thing in a repetition.
    #[must_use]
    pub fn start() -> PhaseMeter {
        alloc::reset_peak();
        PhaseMeter {
            start: Stamp::now(),
            timed: None,
            heap_floor: alloc::live_bytes(),
        }
    }

    /// Call at the boundary: set-up ends, the timed phase begins.
    pub fn begin_timed(&mut self) {
        self.timed = Some((Stamp::now(), alloc::calls()));
    }

    /// Call when the last message is in; fills the host-side fields.
    pub fn finish(self, rep: &mut Rep) {
        let end = Stamp::now();
        let (timed, allocs0) = self.timed.unwrap_or((end, alloc::calls()));
        rep.setup_cpu_s = timed.cpu_s_since(&self.start);
        rep.timed_wall_s = end.wall_s_since(&timed);
        rep.timed_cpu_s = end.cpu_s_since(&timed);
        rep.allocs = alloc::calls() - allocs0;
        rep.peak_heap_bytes =
            (alloc::peak_bytes() - self.heap_floor.min(alloc::peak_bytes())) as u64;
    }
}

/// Hands one write (always the same `bytes` bytes, one shared buffer) to a
/// connection and returns how many it accepted. A closure because the
/// buffer's type belongs to a crate the harness does not depend on: it is
/// built with `vec.into()` and only ever inferred.
pub type Write = Arc<dyn Fn(&Connection) -> usize + Send + Sync>;

/// A [`Write`] of `bytes` bytes.
#[must_use]
pub fn fixed_write(bytes: usize) -> Write {
    let buffer = vec![0xC5u8; bytes].into();
    Arc::new(move |conn| conn.send(Clone::clone(&buffer)))
}

/// SplitMix64: the harness's own generator for seeded inputs (start
/// offsets, payload bytes). The simulator's streams stay its own.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next 64 bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (slightly biased; inputs only).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}
