//! Mesh overlay scenario tests: seeded runs are byte-identical, the
//! oracle suite stays clean over a seed range, the scenario-sized
//! recorder ring never evicts control-plane events, and scripted
//! partitions actually exercise the reroute path.

use kmsg_apps::{overlay_oracle_config, overlay_run_facts, run_overlay_spec, OverlaySpec};

#[test]
fn same_seed_runs_are_byte_identical() {
    let spec = OverlaySpec::generate(11);
    let a = run_overlay_spec(&spec);
    let b = run_overlay_spec(&spec);
    assert_eq!(a.render(), b.render());
    assert_eq!(
        a.recorder.events().len(),
        b.recorder.events().len(),
        "traces must replay exactly"
    );
}

#[test]
fn oracle_suite_is_clean_over_seed_range() {
    let cfg = overlay_oracle_config();
    let mut partitioned = 0u32;
    let mut rerouted = 0u32;
    for seed in 0..8 {
        let spec = OverlaySpec::generate(seed);
        let report = run_overlay_spec(&spec);
        let facts = overlay_run_facts(&report);
        let events = report.recorder.events();
        let violations = kmsg_oracle::check_all(&events, &facts, &cfg);
        assert!(
            violations.is_empty(),
            "seed {seed}: {}\n{}",
            kmsg_oracle::render_verdict(&violations),
            report.render()
        );
        assert!(
            facts.completed,
            "seed {seed}: lost deliveries\n{}",
            report.render()
        );
        assert!(report.facts.converged, "seed {seed}: tables diverged");
        // The scenario-sized ring must never evict supervision events.
        assert_eq!(
            report.evicted_conn_status, 0,
            "seed {seed}: ConnStatus evicted from a scenario-sized ring"
        );
        if !spec.partitions.is_empty() {
            partitioned += 1;
            let reroutes: u64 = report.per_node.iter().map(|n| n.reroutes).sum();
            if reroutes > 0 {
                rerouted += 1;
            }
        }
    }
    assert!(partitioned >= 2, "seed range must include partitioned runs");
    assert!(rerouted >= 1, "partitions must exercise the reroute path");
}

#[test]
fn partitioned_run_reroutes_and_stays_at_most_once() {
    // Find a generated spec with a partition overlapping a publish so the
    // reroute path is guaranteed hot, then check the invariants directly.
    let spec = (0..64)
        .map(OverlaySpec::generate)
        .find(|s| {
            s.partitions.iter().any(|w| {
                s.publishes
                    .iter()
                    .any(|p| p.at_ms >= w.from_ms.saturating_sub(300) && p.at_ms < w.to_ms)
            })
        })
        .expect("some seed publishes into a partition window");
    let report = run_overlay_spec(&spec);
    assert_eq!(
        report.facts.delivered,
        report.facts.expected_deliveries,
        "all deliveries must arrive despite the partition\n{}",
        report.render()
    );
    assert!(report.facts.converged);
    for (i, n) in report.per_node.iter().enumerate() {
        assert_eq!(n.ttl_drops, 0, "node {i} dropped frames on TTL");
    }
    assert_eq!(
        report.channels_dropped, 0,
        "supervision must not exhaust its budget"
    );
}
