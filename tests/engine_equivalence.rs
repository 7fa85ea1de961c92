//! Whole-stack determinism: two runs of the same seeded transfer through
//! the timing-wheel engine must be byte-identical — same middleware
//! counters on both hosts, same number of simulation events executed.
//!
//! This is the integration-level complement to the engine-level property
//! tests in `crates/netsim/tests/engine_determinism.rs`: it exercises the
//! now-lane component scheduler, zero-alloc timer targets and packet-hop
//! events through the full TCP/UDT middleware stacks.

use kompics_messaging::prelude::*;

struct RunSnapshot {
    sender_net: String,
    receiver_net: String,
    events: u64,
    verified: bool,
    transfer_time: Option<std::time::Duration>,
}

fn run_once(transport: Transport, seed: u64) -> RunSnapshot {
    let dataset = Dataset::climate(6 * 1024 * 1024, seed);
    let setup = Setup::paper_setups()
        .into_iter()
        .next()
        .expect("paper setups nonempty");
    let cfg = ExperimentConfig::transfer(setup, transport, dataset, seed);
    let r = run_experiment(&cfg);
    RunSnapshot {
        sender_net: format!("{:?}", r.sender_net),
        receiver_net: format!("{:?}", r.receiver_net),
        events: r.events,
        verified: r.verified,
        transfer_time: r.transfer_time,
    }
}

#[test]
fn same_seed_transfer_runs_are_byte_identical() {
    for transport in [Transport::Tcp, Transport::Udt] {
        let a = run_once(transport, 11);
        let b = run_once(transport, 11);
        assert!(a.verified, "{transport}: transfer must verify");
        assert!(a.events > 0, "{transport}: events must be counted");
        assert_eq!(
            a.sender_net, b.sender_net,
            "{transport}: sender middleware stats must be identical"
        );
        assert_eq!(
            a.receiver_net, b.receiver_net,
            "{transport}: receiver middleware stats must be identical"
        );
        assert_eq!(
            a.events, b.events,
            "{transport}: events executed must be identical"
        );
        assert_eq!(
            a.transfer_time, b.transfer_time,
            "{transport}: transfer completion time must be identical"
        );
        assert_eq!(a.verified, b.verified);
    }
}
