//! `bulk_vpc` and `adaptive_wan`: the paper's disk-to-disk file transfer,
//! `FileSender` → `FileReceiver`, wired as `kmsg_apps::run_in_world` wires
//! it (data-network stack on the sender's host, plain stack on the
//! receiver's, disk model on, default compression) but driven by the
//! harness so that set-up and the timed phase are separate and every
//! chunk's send and disk-completion instants are known.
//!
//! Those instants come from two pass-through *tap* components, one
//! between the sender and its network port and one between the receiver
//! and its: the applications and the middleware are untouched. A message
//! is one 65 kB chunk written to the receiver's disk; the run verifies
//! when the receiver's byte count and order-independent checksum match
//! the dataset's.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use kmsg_apps::dataset::{Dataset, PAPER_CHUNK_SIZE};
use kmsg_apps::disk::{DiskModel, DISK_RATE};
use kmsg_apps::msgs::ChunkMsg;
use kmsg_apps::scenario::{two_host_world, Setup};
use kmsg_apps::transfer::{FileReceiver, FileSender, ReceiverConfig, SenderConfig};
use kmsg_component::prelude::*;
use kmsg_core::data::create_data_network;
use kmsg_core::prelude::*;
use kmsg_netsim::rng::SeedSource;
use kmsg_netsim::time::SimTime;

use super::{
    fingerprint_world, sizes, DataCounts, MwCounts, NetCounts, PhaseMeter, Rep, RepSpec,
    WARMUP_SHARE,
};
use crate::stats::Fingerprint;
use crate::{spans, twin};

/// Which of the two transfer workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Transport::Tcp` on `Setup::EuVpc`: disk-limited.
    BulkVpc,
    /// `Transport::Data` on `Setup::Eu2Us`: learner, UDT, policer, loss.
    AdaptiveWan,
}

impl Kind {
    fn setup(self) -> Setup {
        match self {
            Kind::BulkVpc => Setup::EuVpc,
            Kind::AdaptiveWan => Setup::Eu2Us,
        }
    }

    fn transport(self) -> Transport {
        match self {
            Kind::BulkVpc => Transport::Tcp,
            Kind::AdaptiveWan => Transport::Data,
        }
    }

    fn dataset_bytes(self) -> u64 {
        match self {
            Kind::BulkVpc => sizes::BULK_BYTES,
            Kind::AdaptiveWan => sizes::WAN_BYTES,
        }
    }

    /// How far one `sim.run_for` call advances the world.
    fn step(self) -> Duration {
        match self {
            Kind::BulkVpc => Duration::from_millis(20),
            Kind::AdaptiveWan => Duration::from_millis(200),
        }
    }
}

const SENDER_PORT: u16 = 7000;
const RECEIVER_PORT: u16 = 7001;
/// Simulated time after which undelivered chunks count as failed.
const SIM_WALL: Duration = Duration::from_secs(1200);
const UNSET: u64 = u64::MAX;

/// What the two taps saw, per chunk index.
struct ChunkLog {
    chunk_size: u64,
    /// Simulated ns at which the sender handed the chunk to the network.
    sent_ns: Vec<u64>,
    /// Simulated ns at which the receiver's disk finished writing it.
    done_ns: Vec<u64>,
    /// Payload length of each delivered chunk.
    len: Vec<u32>,
    /// The receiver's disk, replayed: same accesses in the same order.
    disk: DiskModel,
    delivered: u64,
}

type SharedLog = Arc<Mutex<ChunkLog>>;

fn lock(log: &SharedLog) -> MutexGuard<'_, ChunkLog> {
    log.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Forwards everything both ways; notes chunk sends (sender side) or
/// chunk deliveries (receiver side) on the way.
struct Tap {
    app: ProvidedPort<NetworkPort>,
    net: RequiredPort<NetworkPort>,
    log: SharedLog,
}

impl ComponentDefinition for Tap {
    fn execute(&mut self, ctx: &mut ComponentContext, max: usize) -> usize {
        execute_ports!(self, ctx, max, [provided app: NetworkPort, required net: NetworkPort])
    }
}

impl Provide<NetworkPort> for Tap {
    fn handle(&mut self, ctx: &mut ComponentContext, req: NetRequest) {
        let mut id = 0;
        if let Ok(chunk) = req.message().try_deserialise::<ChunkMsg, ChunkMsg>() {
            let mut log = lock(&self.log);
            let idx = (chunk.offset / log.chunk_size) as usize;
            log.sent_ns[idx] = ctx.now().as_nanos();
            id = idx as u64 + 1;
        }
        let _span = spans::open_msg("app.send", id);
        self.net.trigger(req);
    }
}

impl Require<NetworkPort> for Tap {
    fn handle(&mut self, ctx: &mut ComponentContext, ind: NetIndication) {
        let mut id = 0;
        if let NetIndication::Msg(msg) = &ind {
            if let Ok(chunk) = msg.try_deserialise::<ChunkMsg, ChunkMsg>() {
                let now = ctx.now();
                let mut log = lock(&self.log);
                let idx = (chunk.offset / log.chunk_size) as usize;
                // The receiver drops a duplicate before touching its disk.
                if log.done_ns[idx] == UNSET {
                    log.done_ns[idx] = log.disk.access(now, chunk.data.len()).as_nanos();
                    log.len[idx] = chunk.data.len() as u32;
                    log.delivered += 1;
                }
                id = idx as u64 + 1;
            }
        }
        let _span = spans::open_msg("app.deliver", id);
        self.app.trigger(ind);
    }
}

impl ProvideRef<NetworkPort> for Tap {
    fn provided_port(&mut self) -> &mut ProvidedPort<NetworkPort> {
        &mut self.app
    }
}

impl RequireRef<NetworkPort> for Tap {
    fn required_port(&mut self) -> &mut RequiredPort<NetworkPort> {
        &mut self.net
    }
}

/// One repetition of a transfer workload.
#[must_use]
pub fn run(kind: Kind, spec: &RepSpec) -> Rep {
    let mut meter = PhaseMeter::start();
    let setup_span = spans::open("phase.setup", 0);

    let chunk_size = PAPER_CHUNK_SIZE;
    let base = spec.scaled(kind.dataset_bytes(), 200 * chunk_size as u64);
    let dataset = match kind {
        // Loss-free path: the input seed sets the file's content, and with
        // it how well each chunk compresses.
        Kind::BulkVpc => Dataset::climate(base as usize, spec.input_seed),
        // Lossy path with a learner on it: any change to what is on the
        // wire sends the run down another trajectory (goodput over a 60 s
        // transfer ranges 4–10 MB/s across worlds). So the content belongs
        // to the pinned world, and the input seed sets only the file's
        // length, within 4 %: a longer file extends the same trajectory.
        Kind::AdaptiveWan => {
            let extra = super::SplitMix(spec.input_seed).below(base / 25 + 1);
            Dataset::climate((base + extra) as usize, spec.world_seed)
        }
    };
    let chunks = dataset.chunk_count(chunk_size);
    let warmup = ((chunks as f64 * WARMUP_SHARE).ceil() as u64).max(1);
    let expected_checksum = {
        let _s = spans::open("apps.dataset_checksum", 0);
        dataset.checksum(chunk_size)
    };

    let world = two_host_world(spec.world_seed, &kind.setup());
    let counter = spec.traced.then(|| twin::enable(&world.sim, &world.net));
    let a_addr = NetAddress::new(world.host_a, SENDER_PORT);
    let b_addr = NetAddress::new(world.host_b, RECEIVER_PORT);

    // Host A carries the data-network stack whatever the transport: its
    // interceptor passes non-`DATA` traffic straight through.
    let dn = create_data_network(
        &world.system,
        &world.net,
        NetworkConfig::new(a_addr),
        DataNetworkConfig {
            seeds: SeedSource::new(spec.world_seed ^ 0xD47A),
            recorder: world.sim.recorder().clone(),
            ..DataNetworkConfig::default()
        },
    )
    .expect("bind sender stack");
    let b_net = create_network(&world.system, &world.net, NetworkConfig::new(b_addr))
        .expect("bind receiver stack");
    let flow_stats = dn.interceptor.on_definition(|c| c.stats());
    let a_stats = dn.network.on_definition(|n| n.stats());
    let b_stats = b_net.on_definition(|n| n.stats());

    let log: SharedLog = Arc::new(Mutex::new(ChunkLog {
        chunk_size: chunk_size as u64,
        sent_ns: vec![UNSET; chunks],
        done_ns: vec![UNSET; chunks],
        len: vec![0; chunks],
        disk: DiskModel::new(DISK_RATE),
        delivered: 0,
    }));
    let new_tap = || Tap {
        app: ProvidedPort::new(),
        net: RequiredPort::new(),
        log: log.clone(),
    };

    let sender = world.system.create(|| {
        FileSender::new(SenderConfig {
            disk_rate: Some(DISK_RATE),
            ..SenderConfig::new(dataset, a_addr, b_addr, kind.transport())
        })
    });
    let tx_tap = world.system.create(new_tap);
    world
        .system
        .connect::<NetworkPort, _, _>(&dn.interceptor, &tx_tap);
    world.system.connect::<NetworkPort, _, _>(&tx_tap, &sender);

    let receiver = world.system.create(|| {
        FileReceiver::new(ReceiverConfig {
            disk_rate: Some(DISK_RATE),
            ..ReceiverConfig::new(dataset)
        })
    });
    let rx_tap = world.system.create(new_tap);
    world.system.connect::<NetworkPort, _, _>(&b_net, &rx_tap);
    world
        .system
        .connect::<NetworkPort, _, _>(&rx_tap, &receiver);
    let tracer = world.sim.recorder().tracer();
    receiver.on_definition(move |r| r.attach_tracer(tracer));
    let rx_stats = receiver.on_definition(|r| r.stats());

    dn.start(&world.system);
    world.system.start(&b_net);
    world.system.start(&tx_tap);
    world.system.start(&rx_tap);
    world.system.start(&receiver);
    world.system.start(&sender);

    let step = || {
        let _s = spans::open("sim.run_for", 0);
        world.sim.run_for(kind.step());
    };
    let wall = SimTime::ZERO + SIM_WALL;
    while lock(&log).delivered < warmup && world.sim.now() < wall {
        step();
    }
    let timed_from_ns = world.sim.now().as_nanos();
    let net0 = NetCounts::read(&world.sim, &world.net, 2);
    drop(setup_span);
    meter.begin_timed();
    let timed_span = spans::open("phase.timed", 0);
    while lock(&log).delivered < chunks as u64 && world.sim.now() < wall {
        step();
    }
    drop(timed_span);

    let mut rep = Rep::default();
    meter.finish(&mut rep);
    rep.net = NetCounts::read(&world.sim, &world.net, 2).since(&net0);
    rep.pool_peak_slots = world.net.packet_pool_stats().1 as u64;

    let log = lock(&log);
    let (mut first_send, mut last_done) = (u64::MAX, 0);
    for i in 0..chunks {
        // A chunk belongs to the timed phase unless it left before it.
        if log.sent_ns[i] < timed_from_ns {
            continue;
        }
        rep.attempted += 1;
        if log.done_ns[i] == UNSET {
            rep.failed += 1;
            continue;
        }
        rep.payload_bytes += u64::from(log.len[i]);
        rep.latencies_ns.push(log.done_ns[i] - log.sent_ns[i]);
        first_send = first_send.min(log.sent_ns[i]);
        last_done = last_done.max(log.done_ns[i]);
    }
    rep.latencies_ns.sort_unstable();
    rep.sim_span_ns = last_done.saturating_sub(first_send);
    rep.total_msgs = log.delivered;
    rep.total_payload_bytes = log.len.iter().map(|&l| u64::from(l)).sum();
    let rx = rx_stats.lock().clone();
    rep.verified = rx.bytes_received == dataset.size as u64
        && rx.checksum == expected_checksum
        && log.delivered == chunks as u64;
    rep.mw = Some(MwCounts::sum(&[&a_stats.lock(), &b_stats.lock()]));
    if kind == Kind::AdaptiveWan {
        let dst = b_addr.as_socket();
        let points = flow_stats.lock().get(&dst).cloned().unwrap_or_default();
        let goodput = rep.payload_bytes as f64 / (rep.sim_span_ns.max(1) as f64 / 1e9);
        rep.data = Some(DataCounts {
            episodes: points.len() as u64,
            final_ratio: dn
                .interceptor
                .on_definition(|c| c.flow_target(dst))
                .map_or(0.0, Ratio::signed),
            converge_sim_s: rx
                .samples
                .iter()
                .find(|s| s.throughput >= 0.9 * goodput)
                // Never got there: the whole transfer was the search.
                .map_or(world.sim.now().as_secs_f64(), |s| s.time.as_secs_f64()),
        });
    }
    rep.twin = counter.map(|c| twin::collect(&world.sim, &c));

    let mut fp = Fingerprint::default();
    fp.word(log.delivered);
    fp.words(rx.by_transport.into_iter());
    fingerprint_world(&mut fp, &world.sim, &world.net, 2);
    fp.multiset(&rep.latencies_ns);
    rep.fingerprint = fp.value();
    world.system.shutdown();
    rep
}
