//! Differential congestion-controller testing: the same scenario run
//! under Reno, CUBIC and BBR must be oracle-clean every time — the
//! conservation, delivery and span oracles judge the middleware trace,
//! the controller legality oracles judge the telemetry of whichever
//! controller ran — and on a loss-free link the delivered payload must
//! be byte-identical across all three: the controller choice shapes
//! *when* bytes move, never *which* bytes arrive.

use std::sync::Arc;
use std::time::Duration;

use kmsg_apps::fuzz::{oracle_config, run_scenario, ScenarioSpec};
use kmsg_core::prelude::*;
use kmsg_netsim::cc::{CcAlgorithm, CcConfig};
use kmsg_netsim::engine::Sim;
use kmsg_netsim::iface::{Connection, StreamAccept, StreamEvents};
use kmsg_netsim::link::LinkConfig;
use kmsg_netsim::network::Network;
use kmsg_netsim::packet::Endpoint;
use kmsg_netsim::tcp::{TcpConfig, TcpConn, TcpListener};
use kmsg_netsim::testutil::{pattern_bytes, PatternSender, Recorder};
use kmsg_oracle::{check_all, render_verdict};

/// One fixed lossy end-to-end scenario; only the controller varies.
fn differential_spec(cc: CcAlgorithm) -> ScenarioSpec {
    ScenarioSpec {
        seed: 41,
        relays: 0,
        bandwidth_mbps: 10,
        delay_ms: 5,
        loss_ppm: 1_000,
        jitter_us: 0,
        size_kb: 512,
        transport: Transport::Tcp,
        pings: false,
        cc,
        faults: Vec::new(),
        horizon_ms: 60_000,
    }
}

#[test]
fn same_scenario_is_oracle_clean_under_every_controller() {
    for cc in CcAlgorithm::all() {
        let spec = differential_spec(cc);
        let run = run_scenario(&spec);
        assert!(
            run.facts.verified,
            "{} transfer must complete and verify",
            cc.label()
        );
        let events = run.result.recorder.events();
        let violations = check_all(&events, &run.facts, &oracle_config(&spec));
        assert!(
            violations.is_empty(),
            "the {} run must be oracle-clean:\n{}",
            cc.label(),
            render_verdict(&violations)
        );
    }
}

struct AcceptRecorder(Arc<Recorder>);
impl StreamAccept for AcceptRecorder {
    fn on_accept(&self, _conn: &Connection) -> Arc<dyn StreamEvents> {
        self.0.clone()
    }
}

/// Runs one loss-free TCP transfer under `cc` and returns the exact byte
/// stream the receiver saw.
fn delivered_payload(cc: CcAlgorithm, total: usize) -> Vec<u8> {
    let sim = Sim::new(5);
    let net = Network::new(&sim);
    let a = net.add_node("a");
    let b = net.add_node("b");
    net.connect_duplex(a, b, LinkConfig::new(10e6, Duration::from_millis(5)));
    let server = Arc::new(Recorder::default());
    let cfg = TcpConfig {
        cc: CcConfig::for_algorithm(cc),
        ..TcpConfig::default()
    };
    let _listener = TcpListener::bind(
        &net,
        b,
        80,
        cfg.clone(),
        Arc::new(AcceptRecorder(server.clone())),
    )
    .expect("bind");
    let pump = PatternSender::new(total);
    let _conn = TcpConn::connect(&net, a, Endpoint::new(b, 80), cfg, pump).expect("connect");
    sim.run_for(Duration::from_secs(60));
    assert!(
        server.in_order(),
        "{} delivery must be in order",
        cc.label()
    );
    server.data()
}

#[test]
fn loss_free_runs_deliver_byte_identical_payloads() {
    const TOTAL: usize = 300_000;
    let expected = pattern_bytes(0, TOTAL);
    let payloads: Vec<(CcAlgorithm, Vec<u8>)> = CcAlgorithm::all()
        .into_iter()
        .map(|cc| (cc, delivered_payload(cc, TOTAL)))
        .collect();
    for (cc, data) in &payloads {
        assert_eq!(data.len(), TOTAL, "{} transfer must complete", cc.label());
        assert!(
            data.as_slice() == &expected[..],
            "{} must deliver the exact sent pattern",
            cc.label()
        );
    }
    let reno = &payloads[0].1;
    assert!(
        payloads.iter().all(|(_, d)| d == reno),
        "every controller must deliver the identical byte stream"
    );
}
