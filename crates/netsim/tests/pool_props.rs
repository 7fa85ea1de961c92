//! Property suites for the in-flight [`PacketPool`]: generation safety
//! (stale handles never alias, double frees are rejected) under random
//! alloc/free interleavings, ABA resistance across slot recycling, and —
//! the fault-path leak property — pool occupancy returning to zero after
//! mid-transfer `sever()`/partition episodes heal and the world drains.
//! Sampled cases run on the crate's own deterministic [`PropRunner`].

use std::sync::Arc;
use std::time::Duration;

use rand::Rng;

use kmsg_netsim::engine::Sim;
use kmsg_netsim::faults::{FaultController, FaultPlan};
use kmsg_netsim::iface::{Connection, StreamAccept, StreamEvents};
use kmsg_netsim::link::LinkConfig;
use kmsg_netsim::network::Network;
use kmsg_netsim::packet::{Endpoint, NodeId, Packet, PacketBody, WireProtocol};
use kmsg_netsim::pool::{PacketHandle, PacketPool};
use kmsg_netsim::tcp::{TcpConfig, TcpConn, TcpListener};
use kmsg_netsim::testutil::{PatternSender, PropRunner, Recorder};
use kmsg_netsim::time::SimTime;
use kmsg_netsim::udt::{UdtConfig, UdtConn, UdtListener};

fn tagged_packet(tag: u16) -> Packet {
    Packet::new(
        Endpoint::new(NodeId::from_index(0), tag),
        Endpoint::new(NodeId::from_index(1), 80),
        WireProtocol::Udp,
        100,
        PacketBody::Udp(kmsg_telemetry::bytes::Bytes::new()),
    )
}

/// Random alloc/free interleavings against a shadow model: live handles
/// resolve to their own packet, freed handles never resolve (no aliasing
/// of the recycled slot — the ABA hazard), double frees are rejected, and
/// the live count tracks the model exactly.
#[test]
fn pool_generation_safety_under_random_interleaving() {
    PropRunner::new("pool-generation-safety").cases(32).run(
        |rng| {
            let ops = rng.gen_range(20usize..200);
            (0..ops)
                .map(|_| (rng.gen_range(0u8..10), rng.gen::<u32>()))
                .collect::<Vec<_>>()
        },
        |ops| {
            let mut pool = PacketPool::new();
            let mut live: Vec<(PacketHandle, u16)> = Vec::new();
            let mut stale: Vec<PacketHandle> = Vec::new();
            let mut next_tag = 0u16;
            for &(op, pick) in ops {
                match op {
                    // Alloc (weighted: 4 in 10).
                    0..=3 => {
                        next_tag = next_tag.wrapping_add(1);
                        let h = pool.alloc(tagged_packet(next_tag));
                        live.push((h, next_tag));
                    }
                    // Free a live handle.
                    4..=6 if !live.is_empty() => {
                        let i = pick as usize % live.len();
                        let (h, tag) = live.swap_remove(i);
                        let pkt = pool.free(h).expect("live handle must free");
                        assert_eq!(pkt.src.port, tag, "freed slot returns its own packet");
                        stale.push(h);
                    }
                    // Double free / stale free must be rejected.
                    7..=8 if !stale.is_empty() => {
                        let h = stale[pick as usize % stale.len()];
                        assert!(pool.free(h).is_none(), "stale free must be rejected");
                        assert!(!pool.contains(h));
                    }
                    // Stale read must miss, never alias a recycled slot.
                    _ if !stale.is_empty() => {
                        let h = stale[pick as usize % stale.len()];
                        assert!(pool.get(h).is_none(), "stale handle must not resolve");
                    }
                    _ => {}
                }
                assert_eq!(pool.live(), live.len(), "live count tracks the model");
                for &(h, tag) in &live {
                    assert_eq!(pool.get(h).expect("live resolves").src.port, tag);
                }
            }
        },
    );
}

/// Heavy recycle churn: every handle from a previous occupancy of a slot
/// stays dead forever, no matter how many times the slot is reused.
#[test]
fn pool_recycling_never_resurrects_old_handles() {
    PropRunner::new("pool-recycle-aba").cases(16).run(
        |rng| (rng.gen_range(1usize..8), rng.gen_range(5usize..40)),
        |&(width, rounds)| {
            let mut pool = PacketPool::new();
            let mut graveyard: Vec<PacketHandle> = Vec::new();
            for round in 0..rounds {
                let tag = u16::try_from(round % usize::from(u16::MAX)).expect("fits");
                let batch: Vec<PacketHandle> =
                    (0..width).map(|_| pool.alloc(tagged_packet(tag))).collect();
                for g in &graveyard {
                    assert!(pool.get(*g).is_none(), "old generation must stay dead");
                }
                for h in batch {
                    assert_eq!(pool.free(h).expect("free live").src.port, tag);
                    graveyard.push(h);
                }
            }
            assert_eq!(pool.live(), 0);
            assert_eq!(pool.total_allocated(), (width * rounds) as u64);
            assert!(
                pool.high_water() <= width,
                "recycling must cap occupancy at the batch width"
            );
        },
    );
}

struct AcceptRecorder(Arc<Recorder>);
impl StreamAccept for AcceptRecorder {
    fn on_accept(&self, _conn: &Connection) -> Arc<dyn StreamEvents> {
        self.0.clone()
    }
}

#[derive(Debug, Clone)]
struct FaultParams {
    seed: u64,
    total: usize,
    delay_ms: u64,
    cut_from_ms: u64,
    cut_len_ms: u64,
    udt: bool,
}

/// Mid-transfer partition (both directions severed, then healed): once
/// every connection winds down the packet pool must hold zero live slots
/// — severed in-flight packets, fault-path drops and ordinary deliveries
/// all returned theirs. TCP transfers must additionally complete after
/// the heal (a UDT flow may legally give up during a long blackout).
#[test]
fn pool_drains_to_zero_after_partition() {
    PropRunner::new("pool-partition-leak").cases(16).run(
        |rng| FaultParams {
            seed: rng.gen_range(0u64..1000),
            total: rng.gen_range(30_000usize..200_000),
            delay_ms: rng.gen_range(1u64..20),
            cut_from_ms: rng.gen_range(20u64..200),
            cut_len_ms: rng.gen_range(50u64..500),
            udt: rng.gen_bool(0.5),
        },
        |p| {
            let sim = Sim::new(p.seed);
            let net = Network::new(&sim);
            let a = net.add_node("a");
            let b = net.add_node("b");
            // ~1 MB/s so the 30-200 KB transfer straddles the cut window.
            net.connect_duplex(
                a,
                b,
                LinkConfig::new(1e6, Duration::from_millis(p.delay_ms)),
            );
            let plan = FaultPlan::new().partition_between(
                SimTime::from_millis(p.cut_from_ms),
                SimTime::from_millis(p.cut_from_ms + p.cut_len_ms),
                &[a],
                &[b],
            );
            FaultController::install(&net, plan);
            let server = Arc::new(Recorder::default());
            let pump = PatternSender::closing(p.total);
            // Listeners/connections only need to stay alive for the run.
            let mut udt = None;
            let mut tcp = None;
            if p.udt {
                let l = UdtListener::bind(
                    &net,
                    b,
                    90,
                    UdtConfig::default(),
                    Arc::new(AcceptRecorder(server.clone())),
                )
                .expect("bind");
                let c = UdtConn::connect(&net, a, Endpoint::new(b, 90), UdtConfig::default(), pump)
                    .expect("conn");
                udt = Some((l, c));
            } else {
                let l = TcpListener::bind(
                    &net,
                    b,
                    80,
                    TcpConfig::default(),
                    Arc::new(AcceptRecorder(server.clone())),
                )
                .expect("bind");
                let c = TcpConn::connect(&net, a, Endpoint::new(b, 80), TcpConfig::default(), pump)
                    .expect("conn");
                tcp = Some((l, c));
            }
            sim.run_for(Duration::from_secs(300));
            if !p.udt {
                assert_eq!(
                    server.data_len(),
                    p.total,
                    "TCP transfer must complete after the heal: {p:?}"
                );
            }
            let (allocated, high_water) = net.packet_pool_stats();
            assert!(allocated > 0, "the transfer must have pooled packets");
            assert!(high_water > 0);
            // Release the app handles and drain every remaining event
            // (flow teardown, stale timers): with all flows dead nothing
            // re-arms, so the run terminates — and a drained world must
            // have returned every pool slot.
            drop(udt);
            drop(tcp);
            sim.run_to_completion();
            assert_eq!(
                net.packets_in_flight(),
                0,
                "drained world must return every pool slot: {p:?}"
            );
        },
    );
}

/// A permanent sever with no heal: whatever the stacks keep retrying, a
/// long-settled world must not hold pool slots between events (packets
/// transmitted into a severed link die at their arrival check and return
/// their slot there).
#[test]
fn pool_holds_nothing_after_unhealed_sever() {
    let sim = Sim::new(77);
    let net = Network::new(&sim);
    let a = net.add_node("a");
    let b = net.add_node("b");
    let (ab, ba) = net.connect_duplex(a, b, LinkConfig::new(10e6, Duration::from_millis(5)));
    let server = Arc::new(Recorder::default());
    let _l = TcpListener::bind(
        &net,
        b,
        80,
        TcpConfig::default(),
        Arc::new(AcceptRecorder(server.clone())),
    )
    .expect("bind");
    let total = 5_000_000;
    let pump = PatternSender::new(total);
    let conn =
        TcpConn::connect(&net, a, Endpoint::new(b, 80), TcpConfig::default(), pump).expect("conn");
    // Let the transfer get going, then cut both directions forever.
    let cut_net = net.clone();
    sim.schedule_in(Duration::from_millis(100), move |_| {
        cut_net.link(ab).sever();
        cut_net.link(ba).sever();
    });
    sim.run_for(Duration::from_secs(120));
    assert!(
        server.data_len() < total,
        "the unhealed cut must stop the transfer"
    );
    let (allocated, _) = net.packet_pool_stats();
    assert!(allocated > 0, "the transfer must have pooled packets");
    // Kill the retrying client flow, then drain every remaining event;
    // nothing re-arms on a dead flow, so the run terminates and every
    // slot — including those of packets the sever killed mid-flight —
    // must be back in the pool.
    drop(conn);
    sim.run_to_completion();
    assert_eq!(
        net.packets_in_flight(),
        0,
        "severed world must not retain pool slots"
    );
}
