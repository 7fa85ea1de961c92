//! **Reroute** — overlay rerouting vs waiting out a supervised reconnect.
//!
//! Two pub/sub worlds publish a 10 Hz tick stream through the *same*
//! scripted two-second partition of the publisher→subscriber edge:
//!
//! * **overlay** — a triangle mesh. When the direct edge dies, the
//!   overlay's link-state table reroutes the stream through the third
//!   node as soon as channel death is detected, long before supervision
//!   redials the direct channel.
//! * **reconnect** — a two-node world (the PR 3 chaos baseline shape).
//!   There is no alternate path, so the stream stalls until channel
//!   supervision reconnects after the heal.
//!
//! The compared metric is the **outage delivery gap** at the subscriber:
//! last delivery before the cut to first delivery after it, in simulated
//! time. The binary asserts the overlay gap is strictly below the
//! reconnect gap, decomposes it with the causal-span reroute attribution
//! (detect / route_compute / flush / transit, summing exactly), checks
//! both worlds replay byte-identically (runs execute through the sweep
//! runner, so `--jobs N` is byte-identical to `--jobs 1`), and writes
//! `reroute.json`, `reroute.jsonl` and the `BENCH_reroute.json` row file
//! the perf gate diffs against its committed baseline.
//!
//! ```text
//! cargo run --release -p kmsg-bench --bin reroute [-- --seed N] [--jobs N]
//! ```

use kmsg_apps::{run_overlay_spec, OverlayReport, OverlaySpec, PartitionWindow, PublishSpec};
use kmsg_telemetry::json::Json;
use kmsg_telemetry::critical_path::{reroute_attribution, SpanForest};
use kmsg_telemetry::EventKind;

/// The partition window (simulated milliseconds), as in the chaos bench.
const PARTITION_FROM_MS: u64 = 1_000;
const PARTITION_TO_MS: u64 = 3_000;

/// Publish cadence and schedule bounds (ms).
const TICK_MS: u64 = 100;
const FIRST_PUB_MS: u64 = 200;
const LAST_PUB_MS: u64 = 6_000;

/// A tick stream from node 0 through the scripted partition, in a mesh of
/// `nodes` overlay nodes; the last node subscribes.
fn tick_spec(seed: u64, nodes: u32) -> OverlaySpec {
    let sub = nodes - 1;
    OverlaySpec {
        seed,
        nodes,
        chords: false,
        subs: vec![(sub, "tick".to_string())],
        publishes: (FIRST_PUB_MS..=LAST_PUB_MS)
            .step_by(TICK_MS as usize)
            .map(|at_ms| PublishSpec {
                at_ms,
                node: 0,
                subject: "tick".to_string(),
            })
            .collect(),
        partitions: vec![PartitionWindow {
            a: 0,
            b: sub,
            from_ms: PARTITION_FROM_MS,
            to_ms: PARTITION_TO_MS,
        }],
        horizon_ms: 9_000,
    }
}

/// Delivery timestamps (ns) at the subscribing node.
fn deliveries_at(report: &OverlayReport, node: u64) -> Vec<u64> {
    report
        .recorder
        .events()
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::Overlay {
                    action: "deliver",
                    node: n,
                    ..
                } if n == node
            )
        })
        .map(|e| e.time_ns)
        .collect()
}

/// The outage delivery gap: last delivery before the cut hits the wire to
/// the first delivery at or after it.
fn outage_gap_ns(report: &OverlayReport, node: u64) -> (u64, u64, u64) {
    let fault_ns = PARTITION_FROM_MS * 1_000_000;
    let times = deliveries_at(report, node);
    let before = times
        .iter()
        .copied()
        .filter(|&t| t < fault_ns)
        .max()
        .expect("deliveries before the partition");
    let after = times
        .iter()
        .copied()
        .filter(|&t| t >= fault_ns)
        .min()
        .expect("deliveries after the partition");
    (after - before, before, after)
}

fn main() {
    let args = kmsg_bench::BenchArgs::parse();
    let overlay_spec = tick_spec(args.seed, 3);
    let baseline_spec = tick_spec(args.seed, 2);

    kmsg_telemetry::log_info!("Reroute — overlay rerouting vs supervised reconnect");
    kmsg_telemetry::log_info!(
        "10 Hz tick stream, partition {}..{} ms on the direct edge, seed {}\n",
        PARTITION_FROM_MS,
        PARTITION_TO_MS,
        args.seed
    );

    // Each variant runs twice (independent worlds) through the sweep
    // runner; the second run is the byte-identity replay.
    let mut runs = kmsg_bench::sweep::map(
        args.jobs,
        vec![&overlay_spec, &overlay_spec, &baseline_spec, &baseline_spec],
        |_idx, spec| run_overlay_spec(spec),
    );
    let baseline_replay = runs.pop().expect("four runs");
    let baseline = runs.pop().expect("four runs");
    let overlay_replay = runs.pop().expect("four runs");
    let overlay = runs.pop().expect("four runs");
    for (label, a, b) in [
        ("overlay", &overlay, &overlay_replay),
        ("reconnect", &baseline, &baseline_replay),
    ] {
        assert!(
            a.recorder.to_jsonl() == b.recorder.to_jsonl(),
            "same-seed {label} runs diverged: the flight-recorder streams differ"
        );
        assert_eq!(a.render(), b.render(), "{label} report text diverged");
    }
    kmsg_telemetry::log_info!("replay check: both variants byte-identical across two runs\n");

    // The overlay world must actually have rerouted — and cleanly.
    let reroutes: u64 = overlay.per_node.iter().map(|n| n.reroutes).sum();
    assert!(reroutes >= 1, "the partition must trigger a reroute");
    for (i, n) in overlay.per_node.iter().enumerate() {
        assert_eq!(n.ttl_drops, 0, "overlay node {i} dropped frames on TTL");
    }
    assert!(overlay.facts.converged, "overlay tables must reconverge");
    assert!(baseline.facts.converged, "baseline tables must reconverge");
    assert_eq!(
        overlay.facts.delivered, overlay.facts.expected_deliveries,
        "rerouting must deliver the full stream:\n{}",
        overlay.render()
    );

    let (overlay_gap, _, overlay_resume) = outage_gap_ns(&overlay, 2);
    let (baseline_gap, _, _) = outage_gap_ns(&baseline, 1);
    let ms = |ns: u64| ns as f64 / 1e6;

    kmsg_telemetry::log_info!("{:<28} {:>12} {:>12}", "metric", "overlay", "reconnect");
    kmsg_bench::rule(54);
    kmsg_telemetry::log_info!(
        "{:<28} {:>9.1} ms {:>9.1} ms",
        "outage delivery gap",
        ms(overlay_gap),
        ms(baseline_gap)
    );
    kmsg_telemetry::log_info!(
        "{:<28} {:>12} {:>12}",
        "deliveries",
        overlay.facts.delivered,
        baseline.facts.delivered
    );
    kmsg_telemetry::log_info!(
        "{:<28} {:>12} {:>12}",
        "expected",
        overlay.facts.expected_deliveries,
        baseline.facts.expected_deliveries
    );
    kmsg_telemetry::log_info!(
        "{:<28} {:>12} {:>12}",
        "dup drops (dedup)",
        overlay.facts.duplicates,
        baseline.facts.duplicates
    );
    kmsg_telemetry::log_info!(
        "{:<28} {:>12} {:>12}",
        "reconnects",
        overlay.reconnects,
        baseline.reconnects
    );

    // The tentpole claim, gated hard: routing around the partition beats
    // waiting out the reconnect.
    assert!(
        overlay_gap < baseline_gap,
        "overlay gap ({:.1} ms) must be strictly below the reconnect \
         baseline ({:.1} ms)",
        ms(overlay_gap),
        ms(baseline_gap)
    );

    // Causal-span decomposition of the overlay gap: where did it go?
    let events = overlay.recorder.events();
    let forest = SpanForest::build(&events);
    let fault_ns = PARTITION_FROM_MS * 1_000_000;
    let att = reroute_attribution(&forest, fault_ns, overlay_resume)
        .expect("a reroute span inside the outage window");
    let comp_sum: u64 = att.components.iter().map(|(_, ns)| ns).sum();
    assert_eq!(
        comp_sum, att.total_ns,
        "reroute attribution components must sum exactly to the window"
    );
    kmsg_telemetry::log_info!(
        "\nreroute attribution: {:.1} ms from cut to rerouted delivery",
        ms(att.total_ns)
    );
    kmsg_telemetry::log_info!("{:<28} {:>10}", "component", "ms");
    kmsg_bench::rule(41);
    let rec = &overlay.recorder;
    for (label, ns) in &att.components {
        kmsg_telemetry::log_info!("{label:<28} {:>10.2}", ms(*ns));
        rec.gauge(&format!("reroute/attribution/{label}_ms")).set(ms(*ns));
    }

    rec.gauge("reroute/overlay_gap_ms").set(ms(overlay_gap));
    rec.gauge("reroute/reconnect_gap_ms").set(ms(baseline_gap));
    rec.gauge("reroute/speedup")
        .set(baseline_gap as f64 / overlay_gap as f64);
    rec.gauge("reroute/reroutes").set(reroutes as f64);
    rec.gauge("reroute/overlay_delivered").set(overlay.facts.delivered as f64);
    rec.gauge("reroute/baseline_delivered").set(baseline.facts.delivered as f64);
    rec.publish_overflow_gauges();

    // Row file for the perf gate's baseline diff. Gap metrics are virtual
    // time — deterministic per seed — so any change is a real behaviour
    // change, not runner noise.
    let doc = Json::obj(vec![
        ("benchmark", Json::Str("reroute".to_string())),
        (
            "rows",
            Json::Arr(vec![
                Json::obj(vec![
                    ("name", Json::Str("overlay".to_string())),
                    ("gap_ms", Json::Num(ms(overlay_gap))),
                ]),
                Json::obj(vec![
                    ("name", Json::Str("reconnect".to_string())),
                    ("gap_ms", Json::Num(ms(baseline_gap))),
                ]),
            ]),
        ),
    ]);
    std::fs::write("BENCH_reroute.json", doc.render() + "\n").expect("write BENCH_reroute.json");

    kmsg_bench::write_trace_out(&args, rec);
    rec.write_snapshot("reroute.json").expect("write reroute.json");
    rec.write_jsonl("reroute.jsonl").expect("write reroute.jsonl");
    kmsg_telemetry::log_info!(
        "\nspeedup: {:.1}x — wrote BENCH_reroute.json, reroute.json and reroute.jsonl",
        baseline_gap as f64 / overlay_gap as f64
    );
}
