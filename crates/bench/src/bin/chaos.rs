//! **Chaos** — supervised recovery under scripted fault injection.
//!
//! A `Transport::Data` bulk transfer runs over a 10 MB/s, 20 ms RTT link
//! that suffers a full two-second partition (both directions severed,
//! in-flight packets killed). The middleware's channel supervision must
//! observe the outage, redial with backoff and finish the transfer after
//! the heal. The run reports goodput, recovery latency (first
//! `ConnectionLost` to first `ConnectionRestored`), duplicate and
//! per-reason loss accounting, and the supervision counters — all exported
//! as telemetry gauges (`chaos.json`) next to the flight-recorder stream
//! (`chaos.jsonl`).
//!
//! ```text
//! cargo run --release -p kmsg-bench --bin chaos [-- --quick]
//! ```
//!
//! The run executes twice with the same seed and fails if the two
//! flight-recorder streams are not byte-identical.

#![warn(unreachable_pub)]
#![deny(unconditional_recursion)]

use std::time::Duration;

use kmsg_apps::{run_experiment, Dataset, ExperimentConfig, ExperimentResult, Setup};
use kmsg_core::prelude::*;
use kmsg_netsim::faults::FaultPlan;
use kmsg_netsim::link::LinkConfig;
use kmsg_netsim::packet::NodeId;
use kmsg_netsim::time::SimTime;
use kmsg_telemetry::critical_path::{recovery_attribution, self_profile, SpanForest};
use kmsg_telemetry::EventKind;

/// The partition window (simulated milliseconds).
const PARTITION_FROM_MS: u64 = 1_000;
const PARTITION_TO_MS: u64 = 3_000;

/// Impatient transports so channel death — and with it supervision — is
/// observable inside the two-second outage.
fn impatient_template() -> NetworkConfig {
    // The harness overwrites the address per host.
    let mut cfg = NetworkConfig::new(NetAddress::new(NodeId::from_index(0), 0));
    cfg.tcp.min_rto = Duration::from_millis(100);
    cfg.tcp.max_rto = Duration::from_millis(400);
    cfg.tcp.max_consecutive_timeouts = 3;
    cfg.tcp.syn_retries = 1;
    cfg.udt.exp_timeout = Duration::from_millis(100);
    cfg.udt.max_expirations = 5;
    cfg.reconnect = ReconnectConfig {
        max_retries: 30,
        base_backoff: Duration::from_millis(100),
        max_backoff: Duration::from_millis(400),
        probe_interval: Duration::from_secs(2),
    };
    cfg
}

fn chaos_config(size: usize, seed: u64) -> ExperimentConfig {
    let setup = Setup::Custom {
        label: "chaos-10MB/s-10ms",
        link: LinkConfig::new(10e6, Duration::from_millis(10)),
    };
    let dataset = Dataset::random(size, 5);
    let mut cfg = ExperimentConfig::transfer(setup, Transport::Data, dataset, seed);
    cfg.net_template = Some(impatient_template());
    cfg.max_sim_time = Duration::from_secs(600);
    cfg.telemetry = true;
    // Per-packet traces for a multi-MB run overflow the default ring and
    // evict the early supervision events — keep the whole stream.
    cfg.telemetry_capacity = Some(2_000_000);
    cfg.faults = Some(FaultPlan::new().partition_between(
        SimTime::from_millis(PARTITION_FROM_MS),
        SimTime::from_millis(PARTITION_TO_MS),
        &[NodeId::from_index(0)],
        &[NodeId::from_index(1)],
    ));
    cfg
}

/// First `ConnectionLost` to first subsequent `ConnectionRestored`.
fn recovery_latency(result: &ExperimentResult) -> Option<Duration> {
    let mut lost_at = None;
    for e in result.recorder.events() {
        if let EventKind::ConnStatus { status, .. } = e.kind {
            match status {
                "lost" if lost_at.is_none() => lost_at = Some(e.time_ns),
                "restored" => {
                    if let Some(t0) = lost_at {
                        return Some(Duration::from_nanos(e.time_ns.saturating_sub(t0)));
                    }
                }
                _ => {}
            }
        }
    }
    None
}

/// Link-level drop accounting by reason: `(reason, packets, bytes)`.
fn drops_by_reason(result: &ExperimentResult) -> Vec<(&'static str, u64, u64)> {
    let mut out: Vec<(&'static str, u64, u64)> = Vec::new();
    for e in result.recorder.events() {
        if let EventKind::LinkDrop {
            reason, wire_size, ..
        } = e.kind
        {
            match out.iter_mut().find(|(r, _, _)| *r == reason) {
                Some(entry) => {
                    entry.1 += 1;
                    entry.2 += wire_size;
                }
                None => out.push((reason, 1, wire_size)),
            }
        }
    }
    out
}

fn main() {
    let args = kmsg_bench::BenchArgs::parse();
    // Telemetry captures per-packet traces; bound the dataset so the
    // event stream stays in memory comfortably.
    let size = args.size.min(64 * 1024 * 1024);

    kmsg_telemetry::log_info!("Chaos — DATA transfer through a 2 s partition");
    kmsg_telemetry::log_info!(
        "{} MB over 10 MB/s / 20 ms RTT, partition {}..{} ms, seed {}\n",
        size / (1024 * 1024),
        PARTITION_FROM_MS,
        PARTITION_TO_MS,
        args.seed
    );

    // The run and its same-seed replay are independent worlds — execute
    // them through the sweep runner (concurrently at `--jobs >= 2`).
    let mut runs = kmsg_bench::sweep::map(args.jobs, vec![(), ()], |_idx, ()| {
        run_experiment(&chaos_config(size, args.seed))
    });
    let replay = runs.pop().expect("two runs");
    let result = runs.pop().expect("two runs");
    assert!(
        result.verified,
        "transfer must complete and verify after the heal"
    );
    assert!(
        result.sender_net.reconnects >= 1,
        "supervision must have reconnected at least one channel"
    );

    // Determinism: the same seed must reproduce the exact event stream.
    let jsonl = result.recorder.to_jsonl();
    assert!(
        jsonl == replay.recorder.to_jsonl(),
        "same-seed chaos runs diverged: the flight-recorder streams differ"
    );
    kmsg_telemetry::log_info!("replay check: two same-seed runs byte-identical\n");

    let goodput = result.throughput.expect("transfer completed");
    let time = result.transfer_time.expect("transfer completed");
    let recovery = recovery_latency(&result);
    let s = &result.sender_net;

    kmsg_telemetry::log_info!("{:<28} {:>12}", "metric", "value");
    kmsg_bench::rule(41);
    kmsg_telemetry::log_info!(
        "{:<28} {:>9} MB/s",
        "goodput",
        kmsg_bench::fmt_mbps(goodput)
    );
    kmsg_telemetry::log_info!("{:<28} {:>10.2} s", "transfer time", time.as_secs_f64());
    kmsg_telemetry::log_info!(
        "{:<28} {:>10.2} s",
        "recovery latency",
        recovery.map_or(f64::NAN, |d| d.as_secs_f64())
    );
    kmsg_telemetry::log_info!(
        "{:<28} {:>12}",
        "fault actions applied",
        result.faults_applied
    );
    kmsg_telemetry::log_info!("{:<28} {:>12}", "reconnect attempts", s.reconnect_attempts);
    kmsg_telemetry::log_info!("{:<28} {:>12}", "reconnects", s.reconnects);
    kmsg_telemetry::log_info!("{:<28} {:>12}", "channels dropped", s.channels_dropped);
    kmsg_telemetry::log_info!("{:<28} {:>12}", "DATA failovers", s.failovers);
    kmsg_telemetry::log_info!(
        "{:<28} {:>12}",
        "duplicate chunks (deduped)",
        result.duplicates
    );

    let rec = &result.recorder;
    rec.set_gauge("chaos/goodput_bps", goodput);
    rec.set_gauge("chaos/transfer_time_s", time.as_secs_f64());
    if let Some(d) = recovery {
        rec.set_gauge("chaos/recovery_latency_s", d.as_secs_f64());
    }
    rec.set_gauge("chaos/faults_applied", result.faults_applied as f64);
    rec.set_gauge("chaos/duplicates", result.duplicates as f64);
    rec.set_gauge("chaos/reconnect_attempts", s.reconnect_attempts as f64);
    rec.set_gauge("chaos/reconnects", s.reconnects as f64);
    rec.set_gauge("chaos/channels_dropped", s.channels_dropped as f64);
    rec.set_gauge("chaos/failovers", s.failovers as f64);
    for kind in SendError::ALL {
        let n = s.send_failures_of(kind);
        if n > 0 {
            rec.set_gauge(&format!("chaos/send_failures/{}", kind.label()), n as f64);
        }
    }

    kmsg_telemetry::log_info!(
        "\n{:<28} {:>8} {:>12}",
        "link drops by reason",
        "packets",
        "bytes"
    );
    kmsg_bench::rule(50);
    for (reason, packets, bytes) in drops_by_reason(&result) {
        kmsg_telemetry::log_info!("{reason:<28} {packets:>8} {bytes:>12}");
        rec.set_gauge(&format!("chaos/drops/{reason}/packets"), packets as f64);
        rec.set_gauge(&format!("chaos/drops/{reason}/bytes"), bytes as f64);
    }

    // Causal-span attribution: decompose the measured recovery window into
    // where supervision actually spent it. The components partition the
    // window exactly, and the window edges are stamped at the same engine
    // instants as the ConnStatus transitions, so the span-derived total
    // must reproduce the event-derived recovery latency.
    let events = rec.events();
    let forest = SpanForest::build(&events);
    let att = recovery_attribution(&forest).expect("a closed outage span after the heal");
    let measured_ns =
        u64::try_from(recovery.expect("recovery observed").as_nanos()).expect("fits u64");
    assert!(
        att.total_ns.abs_diff(measured_ns) <= 1,
        "span attribution window ({} ns) must equal the measured recovery \
         latency ({measured_ns} ns)",
        att.total_ns
    );
    let ms = |ns: u64| ns as f64 / 1e6;
    let summary = att
        .components
        .iter()
        .filter(|(_, ns)| *ns > 0)
        .map(|(label, ns)| format!("{:.0} ms {label}", ms(*ns)))
        .collect::<Vec<_>>()
        .join(" + ");
    kmsg_telemetry::log_info!(
        "\nrecovery attribution: {:.2} s recovery = {summary}",
        ms(att.total_ns) / 1e3
    );
    kmsg_telemetry::log_info!("{:<28} {:>10}", "component", "ms");
    kmsg_bench::rule(41);
    for (label, ns) in &att.components {
        kmsg_telemetry::log_info!("{label:<28} {:>10.2}", ms(*ns));
        rec.set_gauge(&format!("chaos/recovery/{label}_ms"), ms(*ns));
    }
    kmsg_telemetry::log_info!("{:<28} {:>10.2}", "total", ms(att.total_ns));

    // Per-kind self-time profile of the whole run (flame-graph totals).
    kmsg_telemetry::log_info!(
        "\n{:<14} {:>8} {:>14} {:>14}",
        "span kind",
        "count",
        "total ms",
        "self ms"
    );
    kmsg_bench::rule(54);
    for row in self_profile(&forest) {
        kmsg_telemetry::log_info!(
            "{:<14} {:>8} {:>14.2} {:>14.2}",
            row.kind,
            row.count,
            ms(row.total_ns),
            ms(row.self_ns)
        );
    }

    // Per-kind ring eviction counters (all zero when the capacity bound
    // above holds; nonzero values name exactly which event kinds were
    // dropped).
    rec.publish_overflow_gauges();

    kmsg_bench::write_trace_out(&args, rec);
    rec.write_snapshot("chaos.json").expect("write chaos.json");
    rec.write_jsonl("chaos.jsonl").expect("write chaos.jsonl");
    kmsg_telemetry::log_info!("\nWrote chaos.json and chaos.jsonl");
}
