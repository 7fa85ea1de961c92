//! Pathological topologies, judged by the oracle: a zero-capacity queue, a
//! 100 % loss window, a 1 B/s link and a simultaneous bidirectional open.
//! "No panic" is strengthened to "no panic and a protocol-legal trace":
//! every `kmsg-oracle` invariant must hold on the recorded events.
//!
//! These drive `kmsg-netsim` alone but live here because this crate already
//! depends on both the simulator and the oracle, so netsim itself needs no
//! dev-dependency.

use std::sync::Arc;
use std::time::Duration;

use kmsg_netsim::engine::Sim;
use kmsg_netsim::iface::{Connection, StreamAccept, StreamEvents};
use kmsg_netsim::link::LinkConfig;
use kmsg_netsim::network::Network;
use kmsg_netsim::packet::Endpoint;
use kmsg_netsim::tcp::{TcpConfig, TcpConn, TcpListener};
use kmsg_netsim::testutil::{PatternSender, Recorder};

struct AcceptRecorder(Arc<Recorder>);
impl StreamAccept for AcceptRecorder {
    fn on_accept(&self, _conn: &Connection) -> Arc<dyn StreamEvents> {
        self.0.clone()
    }
}

/// Oracle-checks a finished simulation.
fn assert_oracle_clean(sim: &Sim, facts: &kmsg_oracle::RunFacts, cfg: &kmsg_oracle::OracleConfig) {
    let events = sim.recorder().events();
    let violations = kmsg_oracle::check_all(&events, facts, cfg);
    assert!(
        violations.is_empty(),
        "trace violates protocol invariants:\n{}",
        kmsg_oracle::render_verdict(&violations)
    );
}

/// A zero-capacity queue drops every packet at enqueue. Nothing connects,
/// nothing panics (no division blow-up on an empty pipe), and the trace —
/// SYN timeouts with doubling RTOs, every drop accounted — stays legal.
#[test]
fn zero_capacity_queue_is_a_black_hole_not_a_panic() {
    let sim = Sim::new(21);
    sim.recorder().enable();
    let net = Network::new(&sim);
    let a = net.add_node("a");
    let b = net.add_node("b");
    net.set_tracer(kmsg_netsim::trace::RecorderTracer::new(
        sim.recorder().clone(),
    ));
    net.connect_duplex(
        a,
        b,
        LinkConfig::new(10e6, Duration::from_millis(5)).queue_capacity(0),
    );
    let server = Arc::new(Recorder::default());
    let _l = TcpListener::bind(
        &net,
        b,
        80,
        TcpConfig::default(),
        Arc::new(AcceptRecorder(server.clone())),
    )
    .expect("bind");
    let client = Arc::new(Recorder::default());
    let _conn = TcpConn::connect(
        &net,
        a,
        Endpoint::new(b, 80),
        TcpConfig {
            syn_retries: 2,
            ..TcpConfig::default()
        },
        client.clone(),
    )
    .expect("conn");
    sim.run_for(Duration::from_secs(120));
    assert_eq!(
        server.data_len(),
        0,
        "nothing can cross a zero-capacity queue"
    );
    assert_eq!(server.connected(), 0);
    assert_eq!(client.closed(), 1, "the client must give up, not hang");
    assert_oracle_clean(
        &sim,
        &kmsg_oracle::RunFacts {
            evicted_events: sim.recorder().evicted(),
            ..kmsg_oracle::RunFacts::default()
        },
        &kmsg_oracle::OracleConfig::default(),
    );
}

/// A 100% loss window (a Gilbert–Elliott episode pinned to the bad state)
/// blacks the link out mid-transfer; after the scripted heal the transfer
/// completes and the whole trace — including the outage — is oracle-clean.
#[test]
fn full_loss_window_heals_and_transfer_completes() {
    use kmsg_netsim::faults::{FaultController, FaultPlan};
    use kmsg_netsim::link::GeConfig;
    use kmsg_netsim::time::SimTime;

    let sim = Sim::new(22);
    sim.recorder().enable();
    let net = Network::new(&sim);
    let a = net.add_node("a");
    let b = net.add_node("b");
    net.set_tracer(kmsg_netsim::trace::RecorderTracer::new(
        sim.recorder().clone(),
    ));
    let (ab, ba) = net.connect_duplex(a, b, LinkConfig::new(10e6, Duration::from_millis(5)));
    let blackout = GeConfig {
        p_enter_bad: 1.0,
        p_exit_bad: 0.0,
        loss_good: 1.0,
        loss_bad: 1.0,
    };
    let plan = FaultPlan::new()
        .loss_burst(
            ab,
            SimTime::from_millis(200),
            SimTime::from_millis(1_200),
            blackout,
        )
        .loss_burst(
            ba,
            SimTime::from_millis(200),
            SimTime::from_millis(1_200),
            blackout,
        );
    FaultController::install(&net, plan);
    let server = Arc::new(Recorder::default());
    let _l = TcpListener::bind(
        &net,
        b,
        80,
        TcpConfig::default(),
        Arc::new(AcceptRecorder(server.clone())),
    )
    .expect("bind");
    let total = 300_000;
    let pump = PatternSender::new(total);
    let _conn =
        TcpConn::connect(&net, a, Endpoint::new(b, 80), TcpConfig::default(), pump).expect("conn");
    sim.run_for(Duration::from_secs(300));
    assert_eq!(
        server.data_len(),
        total,
        "transfer must finish after the heal"
    );
    assert!(server.in_order());
    assert_oracle_clean(
        &sim,
        &kmsg_oracle::RunFacts {
            completed: true,
            verified: true,
            fifo_expected: true,
            evicted_events: sim.recorder().evicted(),
            ..kmsg_oracle::RunFacts::default()
        },
        &kmsg_oracle::OracleConfig {
            expect_completion: true,
            faults_must_heal: true,
            ..kmsg_oracle::OracleConfig::default()
        },
    );
}

/// One byte per second: the link is pathologically slow but finite. The
/// handshake's multi-minute serialization must not panic or divide by
/// zero, RTO backoff must stay legal, and no data can possibly arrive.
#[test]
fn single_byte_bandwidth_makes_no_progress_but_stays_legal() {
    let sim = Sim::new(23);
    sim.recorder().enable();
    let net = Network::new(&sim);
    let a = net.add_node("a");
    let b = net.add_node("b");
    net.connect_duplex(a, b, LinkConfig::new(1.0, Duration::from_millis(1)));
    let server = Arc::new(Recorder::default());
    let _l = TcpListener::bind(
        &net,
        b,
        80,
        TcpConfig::default(),
        Arc::new(AcceptRecorder(server.clone())),
    )
    .expect("bind");
    let pump = PatternSender::new(10_000);
    let _conn =
        TcpConn::connect(&net, a, Endpoint::new(b, 80), TcpConfig::default(), pump).expect("conn");
    sim.run_for(Duration::from_secs(120));
    assert_eq!(
        server.data_len(),
        0,
        "no payload fits through 1 B/s in 2 min"
    );
    assert_oracle_clean(
        &sim,
        &kmsg_oracle::RunFacts {
            evicted_events: sim.recorder().evicted(),
            ..kmsg_oracle::RunFacts::default()
        },
        &kmsg_oracle::OracleConfig::default(),
    );
}

/// Both hosts dial each other on the same port pair at the same instant.
/// Both directions must hand shake, carry their transfers to completion
/// and leave an oracle-clean trace (distinct connections, legal per-conn
/// state machines).
#[test]
fn simultaneous_bidirectional_open_completes_both_ways() {
    let sim = Sim::new(24);
    sim.recorder().enable();
    let net = Network::new(&sim);
    let a = net.add_node("a");
    let b = net.add_node("b");
    net.connect_duplex(a, b, LinkConfig::new(10e6, Duration::from_millis(5)));
    let server_on_b = Arc::new(Recorder::default());
    let _lb = TcpListener::bind(
        &net,
        b,
        80,
        TcpConfig::default(),
        Arc::new(AcceptRecorder(server_on_b.clone())),
    )
    .expect("bind b");
    let server_on_a = Arc::new(Recorder::default());
    let _la = TcpListener::bind(
        &net,
        a,
        80,
        TcpConfig::default(),
        Arc::new(AcceptRecorder(server_on_a.clone())),
    )
    .expect("bind a");
    let total = 200_000;
    let pump_ab = PatternSender::new(total);
    let pump_ba = PatternSender::new(total);
    let _c_ab = TcpConn::connect(&net, a, Endpoint::new(b, 80), TcpConfig::default(), pump_ab)
        .expect("conn a->b");
    let _c_ba = TcpConn::connect(&net, b, Endpoint::new(a, 80), TcpConfig::default(), pump_ba)
        .expect("conn b->a");
    sim.run_for(Duration::from_secs(60));
    assert_eq!(server_on_b.data_len(), total, "a->b transfer completes");
    assert!(server_on_b.in_order());
    assert_eq!(server_on_a.data_len(), total, "b->a transfer completes");
    assert!(server_on_a.in_order());
    assert_oracle_clean(
        &sim,
        &kmsg_oracle::RunFacts {
            completed: true,
            verified: true,
            fifo_expected: true,
            evicted_events: sim.recorder().evicted(),
            ..kmsg_oracle::RunFacts::default()
        },
        &kmsg_oracle::OracleConfig {
            expect_completion: true,
            ..kmsg_oracle::OracleConfig::default()
        },
    );
}
