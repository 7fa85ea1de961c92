//! Cross-crate end-to-end tests: full middleware stacks on the calibrated
//! environments, exercising the behaviours the paper's evaluation hinges
//! on.

use std::time::Duration;

use kompics_messaging::prelude::*;

fn small_climate(seed: u64) -> Dataset {
    Dataset::climate(8 * 1024 * 1024, seed)
}

#[test]
fn transfer_verifies_on_every_setup_and_transport() {
    for setup in Setup::paper_setups() {
        for transport in [Transport::Tcp, Transport::Udt] {
            let cfg = ExperimentConfig::transfer(setup.clone(), transport, small_climate(1), 3);
            let result = run_experiment(&cfg);
            assert!(
                result.verified,
                "checksum must hold for {transport} on {}",
                setup.label()
            );
            assert!(
                result.throughput.is_some(),
                "{transport} on {}",
                setup.label()
            );
        }
    }
}

#[test]
fn adaptive_data_converges_towards_udt_on_lossy_wan() {
    // After TCP's slow-start honeymoon decays, its AIMD equilibrium is far
    // below UDT's policer-capped ~8-10 MB/s; over a long enough horizon the
    // learner's target must sit on the UDT side: the paper's EU2AU setup.
    let dataset = Dataset::climate(256 * 1024 * 1024, 2);
    let mut cfg = ExperimentConfig::transfer(Setup::Eu2Au, Transport::Data, dataset, 5);
    cfg.max_sim_time = Duration::from_secs(500);
    let result = run_experiment(&cfg);
    assert!(result.verified);
    let tail: Vec<f64> = result
        .flow_points
        .iter()
        .rev()
        .take(8)
        .map(|p| p.target_ratio)
        .collect();
    assert!(!tail.is_empty(), "learner must have produced episodes");
    let mean_tail = tail.iter().sum::<f64>() / tail.len() as f64;
    assert!(
        mean_tail > 0.0,
        "target ratio should lean UDT on the lossy WAN, got {mean_tail}"
    );
}

#[test]
fn adaptive_data_converges_towards_tcp_on_fast_path() {
    // The analysis link: TCP ~100 MB/s, UDT ~11 MB/s.
    let result = {
        use kmsg_core::data::{DataNetworkConfig, PrpKind};
        let dataset = Dataset::climate(4 * 1024 * 1024 * 1024, 2);
        let mut cfg =
            ExperimentConfig::transfer(Setup::analysis_link(), Transport::Data, dataset, 6);
        cfg.use_disk = false;
        cfg.max_sim_time = Duration::from_secs(45);
        // Default TD config with the Fig. 6 backend is already in place;
        // just make sure we really are using a learner.
        assert!(matches!(cfg.data_cfg.prp, PrpKind::Td(_)));
        let _ = DataNetworkConfig::default();
        run_experiment(&cfg)
    };
    let tail: Vec<f64> = result
        .flow_points
        .iter()
        .rev()
        .take(10)
        .map(|p| p.target_ratio)
        .collect();
    let mean_tail = tail.iter().sum::<f64>() / tail.len() as f64;
    assert!(
        mean_tail < -0.2,
        "target ratio should lean TCP on the fast clean path, got {mean_tail}"
    );
}

#[test]
fn control_latency_ordering_matches_figure_8() {
    let setup = Setup::Eu2Us;
    let ping = PingSettings::default();
    let mean_ms = |cfg: &ExperimentConfig| -> f64 {
        let r = run_experiment(cfg);
        r.ping
            .expect("ping stats")
            .mean()
            .expect("rtts collected")
            .as_secs_f64()
            * 1e3
    };
    let baseline = {
        let cfg =
            ExperimentConfig::ping_only(setup.clone(), ping.clone(), 7, Duration::from_secs(8));
        mean_ms(&cfg)
    };
    let dataset = Dataset::climate(24 * 1024 * 1024, 1);
    let with = |transport: Transport| {
        let mut cfg = ExperimentConfig::transfer(setup.clone(), transport, dataset, 7);
        cfg.ping = Some(ping.clone());
        mean_ms(&cfg)
    };
    let tcp_tcp = with(Transport::Tcp);
    let tcp_udt = with(Transport::Udt);
    let tcp_data = with(Transport::Data);
    assert!(
        tcp_tcp > 2.0 * baseline,
        "data over TCP must hurt control latency: {tcp_tcp} vs {baseline}"
    );
    assert!(
        tcp_udt < 1.3 * baseline,
        "data over UDT must barely interfere: {tcp_udt} vs {baseline}"
    );
    assert!(
        tcp_data < tcp_tcp,
        "DATA must beat all-TCP: {tcp_data} vs {tcp_tcp}"
    );
}

#[test]
fn experiments_are_deterministic() {
    let cfg = ExperimentConfig::transfer(Setup::Eu2Us, Transport::Udt, small_climate(4), 11);
    let a = run_experiment(&cfg);
    let b = run_experiment(&cfg);
    assert_eq!(a.transfer_time, b.transfer_time);
    assert_eq!(a.events, b.events);
    assert_eq!(a.receiver_samples.len(), b.receiver_samples.len());
}

#[test]
fn different_seeds_vary_lossy_runs() {
    // A heavily lossy custom link guarantees many random loss events.
    let setup = Setup::Custom {
        label: "lossy",
        link: LinkConfig::new(10e6, Duration::from_millis(20)).random_loss(0.01),
    };
    let thr = |seed| {
        let cfg = ExperimentConfig::transfer(setup.clone(), Transport::Tcp, small_climate(4), seed);
        run_experiment(&cfg).transfer_time.expect("completed")
    };
    assert_ne!(thr(1), thr(2), "loss randomness must differ across seeds");
}

#[test]
fn udp_pings_work_alongside_transfers() {
    let mut cfg = ExperimentConfig::transfer(Setup::EuVpc, Transport::Tcp, small_climate(1), 9);
    cfg.ping = Some(PingSettings {
        transport: Transport::Udp,
        interval: Duration::from_millis(100),
    });
    let result = run_experiment(&cfg);
    assert!(result.verified);
    let ping = result.ping.expect("ping stats");
    assert!(ping.received > 0, "UDP pings must flow during the transfer");
}

#[test]
fn middleware_stats_surface_in_results() {
    let cfg = ExperimentConfig::transfer(Setup::EuVpc, Transport::Udt, small_climate(2), 13);
    let result = run_experiment(&cfg);
    assert!(result.verified);
    let tx = &result.sender_net;
    let rx = &result.receiver_net;
    assert!(
        tx.sent[Transport::Udt.to_byte() as usize] > 0,
        "UDT messages counted"
    );
    assert_eq!(
        tx.total_sent(),
        rx.total_received(),
        "no loss on the clean VPC"
    );
    assert!(tx.bytes_out > 0);
    // The climate dataset compresses ~10%: wire bytes < payload bytes.
    assert!(
        tx.bytes_out < 8 * 1024 * 1024,
        "compression must shave the wire bytes, got {}",
        tx.bytes_out
    );
    assert_eq!(tx.local_reflections, 0);
}
