//! Integration tests for the workload components themselves: multi-round
//! transfers, ping statistics, and sender/receiver bookkeeping.

use std::time::Duration;

use kmsg_apps::*;
use kmsg_component::prelude::*;
use kmsg_core::prelude::*;

fn build_pair(
    world: &TwoHostWorld,
) -> (
    NetAddress,
    NetAddress,
    ComponentRef<kmsg_core::net::NetworkComponent>,
    ComponentRef<kmsg_core::net::NetworkComponent>,
) {
    let a = NetAddress::new(world.host_a, 7000);
    let b = NetAddress::new(world.host_b, 7001);
    let na = create_network(&world.system, &world.net, NetworkConfig::new(a)).expect("bind a");
    let nb = create_network(&world.system, &world.net, NetworkConfig::new(b)).expect("bind b");
    world.system.start(&na);
    world.system.start(&nb);
    (a, b, na, nb)
}

#[test]
fn multi_round_transfer_verifies_and_times_rounds() {
    let world = two_host_world(3, &Setup::EuVpc);
    let (a, b, na, nb) = build_pair(&world);
    let dataset = Dataset::climate(4 * 1024 * 1024, 9);
    let rounds = 3;
    let sender = world.system.create(|| {
        FileSender::new(SenderConfig {
            rounds,
            disk_rate: None,
            ..SenderConfig::new(dataset, a, b, Transport::Tcp)
        })
    });
    world.system.connect::<NetworkPort, _, _>(&na, &sender);
    let receiver = world.system.create(|| {
        FileReceiver::new(ReceiverConfig {
            rounds,
            disk_rate: None,
            ..ReceiverConfig::new(dataset)
        })
    });
    world.system.connect::<NetworkPort, _, _>(&nb, &receiver);
    let rx = receiver.on_definition(|r| r.stats());
    world.system.start(&receiver);
    world.system.start(&sender);
    world.sim.run_for(Duration::from_secs(60));

    let stats = rx.lock().clone();
    assert_eq!(
        stats.bytes_received,
        dataset.size as u64 * u64::from(rounds),
        "all rounds must arrive"
    );
    assert_eq!(stats.round_done_at.len(), rounds as usize);
    assert!(stats.round_done_at.windows(2).all(|w| w[0] < w[1]));
    assert!(receiver.on_definition(|r| r.verified()), "3x checksum");
    assert_eq!(stats.duplicates, 0, "round offsets are globally unique");
}

#[test]
fn sender_stats_track_confirmations() {
    let world = two_host_world(4, &Setup::EuVpc);
    let (a, b, na, nb) = build_pair(&world);
    let dataset = Dataset::random(2 * 1024 * 1024, 1);
    let sender = world.system.create(|| {
        FileSender::new(SenderConfig {
            disk_rate: None,
            ..SenderConfig::new(dataset, a, b, Transport::Udt)
        })
    });
    world.system.connect::<NetworkPort, _, _>(&na, &sender);
    let receiver = world.system.create(|| {
        FileReceiver::new(ReceiverConfig {
            disk_rate: None,
            ..ReceiverConfig::new(dataset)
        })
    });
    world.system.connect::<NetworkPort, _, _>(&nb, &receiver);
    let tx = sender.on_definition(|s| s.stats());
    world.system.start(&receiver);
    world.system.start(&sender);
    world.sim.run_for(Duration::from_secs(30));
    let stats = *tx.lock();
    assert_eq!(stats.bytes_sent, dataset.size as u64);
    assert_eq!(stats.bytes_confirmed, dataset.size as u64);
    assert_eq!(stats.failures, 0);
    assert!(stats.done_at.is_some());
}

#[test]
fn pinger_measures_all_transports() {
    for transport in [Transport::Tcp, Transport::Udt, Transport::Udp] {
        let world = two_host_world(5, &Setup::EuVpc);
        let (a, b, na, nb) = build_pair(&world);
        let pinger = world.system.create(|| {
            Pinger::new(PingerConfig {
                transport,
                interval: Duration::from_millis(100),
                ..PingerConfig::new(a, b)
            })
        });
        world.system.connect::<NetworkPort, _, _>(&na, &pinger);
        let ponger = world.system.create(|| Ponger::new(b));
        world.system.connect::<NetworkPort, _, _>(&nb, &ponger);
        let stats = pinger.on_definition(|p| p.stats());
        world.system.start(&pinger);
        world.system.start(&ponger);
        world.sim.run_for(Duration::from_secs(5));
        let s = stats.lock().clone();
        assert!(s.received >= 40, "{transport}: got {} pongs", s.received);
        let mean = s.mean().expect("rtts").as_secs_f64();
        assert!(
            (0.003..0.02).contains(&mean),
            "{transport}: mean RTT should be ~3 ms, got {mean}"
        );
        assert_eq!(ponger.on_definition(|p| p.answered()), s.received);
    }
}

#[test]
fn receiver_samples_capture_wire_ratio() {
    use kmsg_core::data::{DataNetworkConfig, PrpKind};
    use kmsg_netsim::rng::SeedSource;

    let world = two_host_world(6, &Setup::EuVpc);
    let a = NetAddress::new(world.host_a, 7000);
    let b = NetAddress::new(world.host_b, 7001);
    // Sender side: interceptor with a fixed 50-50 target ratio.
    let dn = kmsg_core::data::create_data_network(
        &world.system,
        &world.net,
        NetworkConfig::new(a),
        DataNetworkConfig {
            prp: PrpKind::Static(Ratio::BALANCED),
            seeds: SeedSource::new(6),
            ..DataNetworkConfig::default()
        },
    )
    .expect("bind a");
    let nb = create_network(&world.system, &world.net, NetworkConfig::new(b)).expect("bind b");
    dn.start(&world.system);
    world.system.start(&nb);

    let dataset = Dataset::random(6 * 1024 * 1024, 2);
    let sender = world.system.create(|| {
        FileSender::new(SenderConfig {
            disk_rate: None,
            ..SenderConfig::new(dataset, a, b, Transport::Data)
        })
    });
    world
        .system
        .connect::<NetworkPort, _, _>(&dn.interceptor, &sender);
    let receiver = world.system.create(|| {
        FileReceiver::new(ReceiverConfig {
            disk_rate: None,
            sample_every: Duration::from_millis(500),
            ..ReceiverConfig::new(dataset)
        })
    });
    world.system.connect::<NetworkPort, _, _>(&nb, &receiver);
    let rx = receiver.on_definition(|r| r.stats());
    world.system.start(&receiver);
    world.system.start(&sender);
    world.sim.run_for(Duration::from_secs(20));
    let stats = rx.lock().clone();
    assert!(receiver.on_definition(|r| r.verified()));
    let tcp = stats.by_transport[Transport::Tcp.to_byte() as usize];
    let udt = stats.by_transport[Transport::Udt.to_byte() as usize];
    assert!(tcp > 0 && udt > 0, "both transports must carry chunks");
    // A 50-50 static ratio keeps per-window wire ratios near 0.
    let mixed = stats
        .samples
        .iter()
        .filter_map(ReceiverSample::wire_ratio)
        .filter(|r| r.abs() < 0.5)
        .count();
    assert!(
        mixed > 0,
        "windows must show the balanced mix: {:?}",
        stats.samples
    );
}
