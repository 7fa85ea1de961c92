//! Acceptance tests for the controller legality oracles: a deliberately
//! injected CUBIC or BBR bug is caught end-to-end by the matching
//! oracle, shrunk to a minimal scenario, and replayed from its artifact.
//!
//! Two injected faults, one per controller:
//!
//! * `CcConfig::buggy_no_fast_convergence` — CUBIC keeps `W_max` at the
//!   lost window even when the loss struck *below* the previous maximum,
//!   where RFC 8312 fast convergence demands `W_max = cwnd·(2−β)/2`.
//!   [`kmsg_oracle::CubicOracle`]'s `fast_convergence` rule forbids it.
//! * `CcConfig::buggy_skip_drain` — BBR jumps from startup straight to
//!   probe-bw without draining the startup queue.
//!   [`kmsg_oracle::BbrOracle`]'s `phase_sequence` rule forbids the
//!   two-rank jump.

use std::sync::Arc;
use std::time::Duration;

use kmsg_netsim::cc::{CcAlgorithm, CcConfig};
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

/// A minimal controller fuzz scenario: one lossy duplex link, one
/// transfer, a chosen congestion controller, an optional injected bug.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CcScenario {
    seed: u64,
    total: usize,
    loss_ppm: u64,
    delay_ms: u64,
    cc: CcAlgorithm,
    buggy: bool,
}

impl CcScenario {
    fn baseline(cc: CcAlgorithm) -> CcScenario {
        CcScenario {
            seed: 7,
            // BBR's injected bug sits at the startup exit, reached only
            // after a couple of megabytes of delivery on this link; the
            // loss-driven CUBIC bug trips almost immediately.
            total: if cc == CcAlgorithm::Bbr {
                4_000_000
            } else {
                400_000
            },
            loss_ppm: 20_000,
            delay_ms: 5,
            cc,
            buggy: false,
        }
    }

    fn run(&self) -> (Vec<kmsg_telemetry::Event>, RunFacts) {
        let sim = Sim::new(self.seed);
        sim.recorder().enable();
        let net = Network::new(&sim);
        let a = net.add_node("a");
        let b = net.add_node("b");
        let link = LinkConfig::new(10e6, Duration::from_millis(self.delay_ms))
            .random_loss(self.loss_ppm as f64 / 1e6);
        net.connect_duplex(a, b, link);
        let server = Arc::new(Recorder::default());
        let mut cc = CcConfig::for_algorithm(self.cc);
        cc.buggy_no_fast_convergence = self.buggy && self.cc == CcAlgorithm::Cubic;
        cc.buggy_skip_drain = self.buggy && self.cc == CcAlgorithm::Bbr;
        let cfg = TcpConfig {
            cc,
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
        (sim.recorder().events(), facts)
    }

    fn violations(&self) -> Vec<Violation> {
        let (events, facts) = self.run();
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
            ("cc", Json::Str(self.cc.label().to_string())),
            ("buggy", Json::Bool(self.buggy)),
        ])
    }

    fn from_json(doc: &Json) -> Option<CcScenario> {
        Some(CcScenario {
            seed: doc.get("seed")?.as_u64()?,
            total: usize::try_from(doc.get("total")?.as_u64()?).ok()?,
            loss_ppm: doc.get("loss_ppm")?.as_u64()?,
            delay_ms: doc.get("delay_ms")?.as_u64()?,
            cc: CcAlgorithm::from_label(doc.get("cc")?.as_str()?)?,
            buggy: doc.get("buggy")?.as_bool()?,
        })
    }
}

impl Shrinkable for CcScenario {
    fn candidates(&self) -> Vec<CcScenario> {
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

fn trips(s: &CcScenario, oracle: &str, rule: &str) -> bool {
    s.violations()
        .iter()
        .any(|v| v.oracle == oracle && v.rule == rule)
}

/// Runs the four-stage acceptance sequence for one injected bug:
/// caught → minimized → replayed from the artifact → clean when fixed.
fn assert_caught_minimized_replayable(cc: CcAlgorithm, oracle: &str, rule: &str) {
    // 1. The injected bug is caught by the matching legality oracle.
    let buggy = CcScenario {
        buggy: true,
        ..CcScenario::baseline(cc)
    };
    assert!(
        trips(&buggy, oracle, rule),
        "the injected {} bug must trip [{oracle}/{rule}]:\n{}",
        cc.label(),
        render_verdict(&buggy.violations())
    );

    // 2. The failing scenario shrinks while still tripping the same rule.
    let (minimized, tested) = minimize(buggy.clone(), |s| trips(s, oracle, rule));
    assert!(tested > 0, "minimization must try candidates");
    assert!(
        minimized.complexity() < buggy.complexity(),
        "the baseline scenario is not already minimal"
    );
    assert!(trips(&minimized, oracle, rule));

    // 3. The minimized scenario round-trips through the artifact format
    //    and still reproduces the violation when replayed from it.
    let text = minimized.to_json().render();
    let replayed =
        CcScenario::from_json(&Json::parse(&text).expect("artifact parses")).expect("decodes");
    assert_eq!(replayed, minimized);
    assert!(
        trips(&replayed, oracle, rule),
        "replaying the artifact must reproduce the violation"
    );

    // 4. The same scenario without the injected bug is clean: the oracle
    //    fires on the fault, not on the workload.
    let fixed = CcScenario {
        buggy: false,
        ..minimized
    };
    assert!(
        fixed.violations().is_empty(),
        "the minimized scenario must be clean without the injected bug:\n{}",
        render_verdict(&fixed.violations())
    );
}

#[test]
fn clean_runs_pass_every_oracle_for_all_controllers() {
    for cc in CcAlgorithm::all() {
        let violations = CcScenario::baseline(cc).violations();
        assert!(
            violations.is_empty(),
            "a correct {} run must be oracle-clean:\n{}",
            cc.label(),
            render_verdict(&violations)
        );
    }
}

#[test]
fn injected_cubic_bug_is_caught_minimized_and_replayable() {
    assert_caught_minimized_replayable(CcAlgorithm::Cubic, "cubic", "fast_convergence");
}

#[test]
fn injected_bbr_bug_is_caught_minimized_and_replayable() {
    assert_caught_minimized_replayable(CcAlgorithm::Bbr, "bbr", "phase_sequence");
}
