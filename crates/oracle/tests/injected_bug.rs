//! Acceptance test for the fuzz loop's core promise: a deliberately
//! injected protocol bug is caught by an oracle and shrunk to a minimal,
//! replayable artifact.
//!
//! The injected bug is `TcpConfig::buggy_no_fast_recovery`: the TCP model
//! still fast-retransmits receiver-reported holes but skips the Reno
//! multiplicative decrease (and its `fast_recovery` telemetry event). The
//! resulting trace shows `TcpRetransmit { fast: true }` with no recorded
//! loss signal — exactly what [`kmsg_oracle::TcpOracle`]'s
//! `fast_rexmit_cause` rule forbids.

use std::sync::Arc;
use std::time::Duration;

use kmsg_netsim::engine::Sim;
use kmsg_netsim::iface::{Connection, StreamAccept, StreamEvents};
use kmsg_netsim::link::LinkConfig;
use kmsg_netsim::network::Network;
use kmsg_netsim::packet::Endpoint;
use kmsg_netsim::tcp::{TcpConfig, TcpConn, TcpListener};
use kmsg_netsim::testutil::{PatternSender, Recorder};
use kmsg_oracle::{
    check_all, minimize, render_verdict, OracleConfig, RunFacts, Shrinkable, Violation,
};
use kmsg_telemetry::json::Json;

struct AcceptRecorder(Arc<Recorder>);
impl StreamAccept for AcceptRecorder {
    fn on_accept(&self, _conn: &Connection) -> Arc<dyn StreamEvents> {
        self.0.clone()
    }
}

/// A minimal TCP fuzz scenario: one lossy duplex link, one transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TcpScenario {
    seed: u64,
    total: usize,
    loss_ppm: u64,
    delay_ms: u64,
    buggy: bool,
}

impl TcpScenario {
    fn baseline() -> TcpScenario {
        TcpScenario {
            seed: 7,
            total: 400_000,
            loss_ppm: 20_000,
            delay_ms: 5,
            buggy: false,
        }
    }

    /// Runs the scenario and returns the recorded trace, the end-of-run
    /// facts and the flight-recorder JSONL (for byte-identity checks).
    fn run(&self) -> (Vec<kmsg_telemetry::Event>, RunFacts, String) {
        let sim = Sim::new(self.seed);
        sim.recorder().enable();
        let net = Network::new(&sim);
        let a = net.add_node("a");
        let b = net.add_node("b");
        let link = LinkConfig::new(10e6, Duration::from_millis(self.delay_ms))
            .random_loss(self.loss_ppm as f64 / 1e6);
        net.connect_duplex(a, b, link);
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
        (sim.recorder().events(), facts, sim.recorder().to_jsonl())
    }

    fn violations(&self) -> Vec<Violation> {
        let (events, facts, _) = self.run();
        let cfg = OracleConfig {
            expect_completion: true,
            ..OracleConfig::default()
        };
        check_all(&events, &facts, &cfg)
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("seed", Json::Num(self.seed as f64)),
            ("total", Json::Num(self.total as f64)),
            ("loss_ppm", Json::Num(self.loss_ppm as f64)),
            ("delay_ms", Json::Num(self.delay_ms as f64)),
            ("buggy", Json::Bool(self.buggy)),
        ])
    }

    fn from_json(doc: &Json) -> Option<TcpScenario> {
        Some(TcpScenario {
            seed: doc.get("seed")?.as_u64()?,
            total: usize::try_from(doc.get("total")?.as_u64()?).ok()?,
            loss_ppm: doc.get("loss_ppm")?.as_u64()?,
            delay_ms: doc.get("delay_ms")?.as_u64()?,
            buggy: doc.get("buggy")?.as_bool()?,
        })
    }
}

impl Shrinkable for TcpScenario {
    fn candidates(&self) -> Vec<TcpScenario> {
        let mut out = Vec::new();
        if self.total > 50_000 {
            let mut s = self.clone();
            s.total = (self.total / 2).max(50_000);
            out.push(s);
        }
        if self.loss_ppm > 5_000 {
            let mut s = self.clone();
            s.loss_ppm = 5_000;
            out.push(s);
        }
        if self.delay_ms > 1 {
            let mut s = self.clone();
            s.delay_ms = 1;
            out.push(s);
        }
        out
    }

    fn complexity(&self) -> u64 {
        self.total as u64 + self.loss_ppm + self.delay_ms
    }
}

/// The rule the injected bug must trip.
fn trips_fast_rexmit_cause(s: &TcpScenario) -> bool {
    s.violations()
        .iter()
        .any(|v| v.oracle == "tcp" && v.rule == "fast_rexmit_cause")
}

#[test]
fn clean_run_passes_every_oracle() {
    let violations = TcpScenario::baseline().violations();
    assert!(
        violations.is_empty(),
        "a correct TCP run must be oracle-clean:\n{}",
        render_verdict(&violations)
    );
}

#[test]
fn injected_bug_is_caught_minimized_and_replayable() {
    // 1. The injected bug is caught.
    let buggy = TcpScenario {
        buggy: true,
        ..TcpScenario::baseline()
    };
    assert!(
        trips_fast_rexmit_cause(&buggy),
        "disabling fast recovery must trip [tcp/fast_rexmit_cause]:\n{}",
        render_verdict(&buggy.violations())
    );

    // 2. The failing scenario shrinks while still tripping the same rule.
    let (minimized, tested) = minimize(buggy.clone(), trips_fast_rexmit_cause);
    assert!(tested > 0, "minimization must try candidates");
    assert!(
        minimized.complexity() < buggy.complexity(),
        "the baseline scenario is not already minimal"
    );
    assert!(trips_fast_rexmit_cause(&minimized));

    // 3. The minimized scenario round-trips through the artifact format
    //    and still reproduces the violation when replayed from it.
    let text = minimized.to_json().render();
    let replayed =
        TcpScenario::from_json(&Json::parse(&text).expect("artifact parses")).expect("decodes");
    assert_eq!(replayed, minimized);
    assert!(
        trips_fast_rexmit_cause(&replayed),
        "replaying the artifact must reproduce the violation"
    );

    // 4. The same scenario with the bug disabled is clean: the oracle
    //    fires on the injected fault, not on the workload.
    let fixed = TcpScenario {
        buggy: false,
        ..minimized
    };
    assert!(
        fixed.violations().is_empty(),
        "the minimized scenario must be clean without the injected bug"
    );
}
