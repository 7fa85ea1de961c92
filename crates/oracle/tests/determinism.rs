//! Same-seed fuzz runs must be byte-identical end to end: the recorded
//! trace, the rendered oracle verdict *and* the minimized failing-scenario
//! artifact. This is what makes a `failing_seed.json` attached to a CI
//! failure trustworthy — replaying it reproduces the exact run.

use std::sync::Arc;
use std::time::Duration;

use kmsg_netsim::engine::Sim;
use kmsg_netsim::iface::{Connection, StreamAccept, StreamEvents};
use kmsg_netsim::link::LinkConfig;
use kmsg_netsim::network::Network;
use kmsg_netsim::packet::Endpoint;
use kmsg_netsim::tcp::{TcpConfig, TcpConn, TcpListener};
use kmsg_netsim::testutil::{PatternSender, Recorder};
use kmsg_oracle::{check_all, minimize, render_verdict, OracleConfig, RunFacts, Shrinkable};

struct AcceptRecorder(Arc<Recorder>);
impl StreamAccept for AcceptRecorder {
    fn on_accept(&self, _conn: &Connection) -> Arc<dyn StreamEvents> {
        self.0.clone()
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Scenario {
    seed: u64,
    total: usize,
    buggy: bool,
}

impl Scenario {
    /// Runs the scenario; returns `(flight-recorder JSONL, verdict)`.
    fn run(&self) -> (String, String) {
        let sim = Sim::new(self.seed);
        sim.recorder().enable();
        let net = Network::new(&sim);
        let a = net.add_node("a");
        let b = net.add_node("b");
        net.connect_duplex(
            a,
            b,
            LinkConfig::new(10e6, Duration::from_millis(5)).random_loss(0.02),
        );
        let server = Arc::new(Recorder::default());
        let cfg = TcpConfig {
            buggy_no_fast_recovery: self.buggy,
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
        let pump = PatternSender::new(self.total);
        let _conn = TcpConn::connect(&net, a, Endpoint::new(b, 80), cfg, pump).expect("connect");
        sim.run_for(Duration::from_secs(600));
        let completed = server.data_len() == self.total;
        let facts = RunFacts {
            completed,
            verified: completed && server.in_order(),
            fifo_expected: true,
            evicted_events: sim.recorder().evicted(),
            ..RunFacts::default()
        };
        let violations = check_all(
            &sim.recorder().events(),
            &facts,
            &OracleConfig {
                expect_completion: true,
                ..OracleConfig::default()
            },
        );
        (sim.recorder().to_jsonl(), render_verdict(&violations))
    }

    fn fails(&self) -> bool {
        !self.run().1.starts_with("ok")
    }
}

impl Shrinkable for Scenario {
    fn candidates(&self) -> Vec<Scenario> {
        if self.total > 50_000 {
            vec![Scenario {
                total: (self.total / 2).max(50_000),
                ..self.clone()
            }]
        } else {
            Vec::new()
        }
    }

    fn complexity(&self) -> u64 {
        self.total as u64
    }
}

#[test]
fn clean_runs_are_byte_identical_per_seed() {
    let scenario = Scenario {
        seed: 11,
        total: 300_000,
        buggy: false,
    };
    let (jsonl_a, verdict_a) = scenario.run();
    let (jsonl_b, verdict_b) = scenario.run();
    assert!(!jsonl_a.is_empty(), "telemetry must capture events");
    assert!(jsonl_a == jsonl_b, "same-seed traces diverged");
    assert_eq!(verdict_a, "ok\n");
    assert_eq!(verdict_a, verdict_b);
}

#[test]
fn failing_runs_minimize_to_identical_artifacts() {
    let scenario = Scenario {
        seed: 11,
        total: 300_000,
        buggy: true,
    };
    assert!(scenario.fails(), "the injected bug must fire");
    let pipeline = || {
        let (jsonl, verdict) = scenario.run();
        let (minimized, tested) = minimize(scenario.clone(), Scenario::fails);
        (jsonl, verdict, minimized, tested)
    };
    let (jsonl_a, verdict_a, min_a, tested_a) = pipeline();
    let (jsonl_b, verdict_b, min_b, tested_b) = pipeline();
    assert!(jsonl_a == jsonl_b, "same-seed traces diverged");
    assert_eq!(verdict_a, verdict_b, "same-seed verdicts diverged");
    assert_eq!(min_a, min_b, "same-seed minimized scenarios diverged");
    assert_eq!(tested_a, tested_b, "minimization paths diverged");
    // The minimized scenario's own trace is reproducible too.
    let (min_jsonl_a, min_verdict_a) = min_a.run();
    let (min_jsonl_b, min_verdict_b) = min_b.run();
    assert!(min_jsonl_a == min_jsonl_b);
    assert_eq!(min_verdict_a, min_verdict_b);
    assert!(!min_verdict_a.starts_with("ok"));
}
