//! From repetitions, probes and the twin to named metrics, the printed
//! tables and the driver's JSON line.

use std::fmt::Write as _;

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::ledger::{settle, Charge, Ledger};
use crate::probes::ProbeSet;
use crate::stats::{quantile_sorted, quartiles, tail_quantile};
use crate::workloads::{Rep, TcpRecovery, Workload};
use kmsg_apps::dataset::PAPER_CHUNK_SIZE;

/// A metric's value with the spread it was seen with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    /// First quartile of the samples.
    pub q1: f64,
    /// Median of the samples.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Samples (1 for an exact count).
    pub n: usize,
}

impl Value {
    /// From samples.
    #[must_use]
    pub fn of(samples: &[f64]) -> Value {
        if samples.is_empty() {
            return Value::exact(0.0);
        }
        let (q1, median, q3) = quartiles(samples);
        Value {
            q1,
            median,
            q3,
            n: samples.len(),
        }
    }

    /// One exact reading.
    #[must_use]
    pub fn exact(v: f64) -> Value {
        Value {
            q1: v,
            median: v,
            q3: v,
            n: 1,
        }
    }
}

/// One end-to-end metric of one repetition.
#[must_use]
pub fn end_to_end_of(rep: &Rep, name: &str) -> f64 {
    let msgs = rep.msgs().max(1) as f64;
    let ms = |ns: f64| ns / 1e6;
    match name {
        "setup_s" => rep.setup_cpu_s,
        "msgs_per_s" => msgs / rep.timed_wall_s,
        "cpu_us_per_msg" => rep.timed_cpu_s * 1e6 / msgs,
        "sim_goodput_MB_per_s" => {
            rep.payload_bytes as f64 / 1e6 / (rep.sim_span_ns.max(1) as f64 / 1e9)
        }
        "sim_lat_p50_ms" if !rep.latencies_ns.is_empty() => {
            ms(quantile_sorted(&rep.latencies_ns, 0.5))
        }
        "sim_lat_p99_ms" if !rep.latencies_ns.is_empty() => {
            let (q, _) = tail_quantile(rep.latencies_ns.len());
            ms(quantile_sorted(&rep.latencies_ns, q))
        }
        "sim_lat_p50_ms" | "sim_lat_p99_ms" => 0.0,
        "wire_bytes_per_payload_byte" => {
            rep.net.wire_bytes as f64 / rep.payload_bytes.max(1) as f64
        }
        "allocs_per_msg" => rep.allocs as f64 / msgs,
        "peak_heap_MB" => rep.peak_heap_bytes as f64 / 1e6,
        other => unreachable!("not an end-to-end metric: {other}"),
    }
}

/// The nine end-to-end metrics over the timed repetitions (the median is
/// what a run reports), catalogue order.
#[must_use]
pub fn end_to_end(reps: &[Rep]) -> Vec<(&'static str, Value)> {
    END_TO_END
        .iter()
        .map(|m| {
            let samples: Vec<f64> = reps.iter().map(|r| end_to_end_of(r, m.name)).collect();
            (m.name, Value::of(&samples))
        })
        .collect()
}

/// What the per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    /// The workload.
    pub workload: Workload,
    /// The full-size untraced repetition: counts and the CPU to attribute.
    pub full: &'a Rep,
    /// The layer probes.
    pub probes: &'a ProbeSet,
    /// The twin-size untraced repetition the twin is compared with.
    pub small: &'a Rep,
    /// The traced twin.
    pub twin: &'a Rep,
}

/// Applies `f` to each round of `primary` — the spread of a figure derived
/// from one probe and the medians of the rungs beneath it.
fn derived(probes: &ProbeSet, primary: &str, f: impl Fn(f64) -> f64) -> Value {
    let rounds: Vec<f64> = probes.rounds(primary).iter().map(|&x| f(x)).collect();
    Value::of(&rounds)
}

/// Nanoseconds to move `bytes` at `mb_per_s`; 0 if the rate was not probed.
fn ns_at(bytes: f64, mb_per_s: f64) -> f64 {
    if mb_per_s > 0.0 {
        bytes / mb_per_s * 1e3
    } else {
        0.0
    }
}

/// Every per-layer metric, catalogue order, and the ledger behind the shares.
#[must_use]
pub fn per_layer(inp: &LayerInputs<'_>) -> (Vec<(&'static str, Value)>, Ledger) {
    let LayerInputs {
        workload,
        full,
        probes,
        small,
        twin,
    } = inp;
    let p = |name: &str| probes.med(name);
    let msgs = full.msgs().max(1) as f64;
    let cpu_ns = full.timed_cpu_s * 1e9 / msgs;
    let tw = twin.twin.clone().unwrap_or_default();
    let per_twin_msg = |count: u64| count as f64 / twin.total_msgs.max(1) as f64;
    let mw = full.mw.unwrap_or_default();
    let wire_msgs_per_msg = mw.sent as f64 / full.total_msgs.max(1) as f64;

    // Unit costs, each with the rungs beneath it taken out.
    let engine_ns = p("netsim.engine.ns_per_event");
    let fabric_self = |raw: f64| (raw - p("netsim.fabric.events_per_packet") * engine_ns).max(0.0);
    let fabric_ns = fabric_self(p("netsim.fabric.raw_ns_per_packet"));
    let tcp_seg_self = |raw: f64| {
        raw - p("netsim.tcp.events_per_segment") * engine_ns
            - p("netsim.tcp.packets_per_segment") * fabric_ns
    };
    let tcp_rt_self = |raw: f64| {
        raw - p("netsim.tcp.rpc_events_per_roundtrip") * engine_ns
            - p("netsim.tcp.rpc_packets_per_roundtrip") * fabric_ns
    };
    let udt_self = |raw: f64| {
        raw - p("netsim.udt.events_per_packet") * engine_ns
            - p("netsim.udt.packets_per_packet") * fabric_ns
    };
    let component_self =
        |raw: f64| (raw - p("component.engine_events_per_event") * engine_ns).max(0.0);

    // Counts on the workload, per message.
    let events_per_msg = full.net.events as f64 / msgs;
    let packets_per_msg = full.net.packets as f64 / msgs;
    let tcp_segments_per_msg = match full.tcp_data_segments {
        Some(n) => n as f64 / full.total_msgs.max(1) as f64,
        None => per_twin_msg(tw.tcp_data_segments),
    };
    let chunk = PAPER_CHUNK_SIZE as f64;
    let is_transfer = matches!(workload, Workload::BulkVpc | Workload::AdaptiveWan);

    let mut charges = vec![
        Charge {
            layer: "netsim.engine",
            ns_per_msg: events_per_msg * engine_ns,
        },
        Charge {
            layer: "netsim.fabric",
            ns_per_msg: packets_per_msg * fabric_ns,
        },
        Charge {
            layer: "netsim.tcp",
            ns_per_msg: if *workload == Workload::RpcSmall {
                tcp_rt_self(p("netsim.tcp.rpc_ns_per_roundtrip"))
            } else {
                tcp_segments_per_msg * tcp_seg_self(p("netsim.tcp.ns_per_segment"))
            },
        },
        Charge {
            layer: "netsim.udt",
            ns_per_msg: per_twin_msg(tw.udt_data_packets) * udt_self(p("netsim.udt.ns_per_packet")),
        },
    ];
    if workload.uses_middleware() {
        let kept = p("core.codec.ratio") < 1.0;
        charges.extend([
            Charge {
                layer: "component",
                ns_per_msg: per_twin_msg(tw.component_events)
                    * component_self(p("component.raw_ns_per_event")),
            },
            Charge {
                layer: "core.frame",
                ns_per_msg: wire_msgs_per_msg
                    * (p("core.frame.encode_ns_per_msg") + p("core.frame.decode_ns_per_msg")),
            },
            Charge {
                layer: "core.codec",
                ns_per_msg: ns_at(chunk, p("core.codec.compress_MB_per_s"))
                    + if kept {
                        ns_at(chunk, p("core.codec.decompress_MB_per_s"))
                    } else {
                        0.0
                    },
            },
            Charge {
                layer: "apps",
                ns_per_msg: if is_transfer {
                    ns_at(chunk, p("apps.dataset_MB_per_s")) + ns_at(chunk, p("apps.hash_MB_per_s"))
                } else {
                    0.0
                },
            },
            Charge {
                layer: "learning",
                ns_per_msg: full.data.map_or(0.0, |d| d.episodes as f64)
                    * p("learning.ns_per_step")
                    / msgs,
            },
        ]);
    }
    let ledger = settle(cpu_ns, &charges, workload.uses_middleware());

    let tcp_counts: TcpRecovery = full.tcp.unwrap_or(tw.tcp);
    let data = full.data.unwrap_or_default();
    let sim_self_total: u64 = tw.sim_self_ns.iter().sum();
    let sim_share = |i: usize| tw.sim_self_ns[i] as f64 / sim_self_total.max(1) as f64;
    let cpu_per_msg = |r: &Rep| r.timed_cpu_s / r.msgs().max(1) as f64;
    let exact = Value::exact;
    let probe = |name: &str| Value::of(probes.rounds(name));

    let value_of = |name: &str| -> Value {
        match name {
            "netsim.engine.events_per_msg" => exact(events_per_msg),
            "netsim.engine.ns_per_event" => probe(name),
            "netsim.engine.allocs_per_event" => probe(name),
            "netsim.fabric.packets_per_msg" => exact(packets_per_msg),
            "netsim.fabric.ns_per_packet" => {
                derived(probes, "netsim.fabric.raw_ns_per_packet", fabric_self)
            }
            "netsim.fabric.allocs_per_packet" => probe(name),
            "netsim.fabric.drops_queue" => exact(full.net.drops_queue as f64),
            "netsim.fabric.drops_loss" => exact(full.net.drops_loss as f64),
            "netsim.fabric.drops_policer" => exact(full.net.drops_policer as f64),
            "netsim.fabric.pool_peak_slots" => exact(full.pool_peak_slots as f64),
            "netsim.tcp.ns_per_segment" => probe(name),
            "netsim.tcp.self_ns_per_segment" => {
                derived(probes, "netsim.tcp.ns_per_segment", tcp_seg_self)
            }
            "netsim.tcp.rpc_ns_per_roundtrip" => probe(name),
            "netsim.tcp.allocs_per_segment" if *workload == Workload::RpcSmall => {
                // One data segment each way per round trip.
                derived(probes, "netsim.tcp.rpc_allocs_per_roundtrip", |a| a / 2.0)
            }
            "netsim.tcp.allocs_per_segment" => probe(name),
            "netsim.tcp.retransmits" => exact(tcp_counts.retransmits as f64),
            "netsim.tcp.timeouts" => exact(tcp_counts.timeouts as f64),
            "netsim.tcp.fast_recoveries" => exact(tcp_counts.fast_recoveries as f64),
            "netsim.tcp.heap_bytes_per_flow" => probe(name),
            "netsim.udt.ns_per_packet" => probe(name),
            "netsim.udt.self_ns_per_packet" => {
                derived(probes, "netsim.udt.ns_per_packet", udt_self)
            }
            "netsim.udt.allocs_per_packet" => probe(name),
            "netsim.udt.naks" => exact(tw.udt_naks as f64),
            "netsim.udt.retransmits" => exact(tw.udt_nak_losses as f64),
            "component.ns_per_event" => {
                derived(probes, "component.raw_ns_per_event", component_self)
            }
            "component.allocs_per_event" => probe(name),
            "core.ser.ns_per_msg" | "core.ser.allocs_per_msg" => probe(name),
            "core.codec.compress_MB_per_s"
            | "core.codec.decompress_MB_per_s"
            | "core.codec.ratio" => probe(name),
            "core.frame.encode_ns_per_msg"
            | "core.frame.decode_ns_per_msg"
            | "core.frame.allocs_per_msg" => probe(name),
            "core.net.self_ns_per_msg" => exact(ledger.core_net_self_ns),
            "core.net.sent" => exact(mw.sent as f64),
            "core.net.received" => exact(mw.received as f64),
            "core.net.bytes_out_per_payload_byte" => {
                exact(mw.bytes_out as f64 / full.total_payload_bytes.max(1) as f64)
            }
            "core.net.send_failures" => exact(mw.send_failures as f64),
            "core.net.decode_failures" => exact(mw.decode_failures as f64),
            "core.net.channels_opened" => exact(mw.channels_opened as f64),
            "core.net.reconnects" => exact(mw.reconnects as f64),
            "core.net.queue_wait_sim_us_per_msg" => exact(per_twin_msg(tw.enqueue_ns) / 1e3),
            "core.data.udt_share" => exact(mw.sent_udt as f64 / mw.sent.max(1) as f64),
            "core.data.episodes" => exact(data.episodes as f64),
            "core.data.final_ratio" => exact(data.final_ratio),
            "core.data.converge_sim_s" => exact(data.converge_sim_s),
            "core.data.failovers" => exact(mw.failovers as f64),
            "core.data.psp_ns_per_select" | "learning.ns_per_step" => probe(name),
            "apps.dataset_MB_per_s" | "apps.hash_MB_per_s" => probe(name),
            "telemetry.trace_overhead_share" => exact(cpu_per_msg(twin) / cpu_per_msg(small) - 1.0),
            "telemetry.events_recorded" => exact(tw.events_recorded as f64),
            "telemetry.evicted" => exact(tw.evicted as f64),
            "trace.sim_queue_share" => exact(sim_share(0)),
            "trace.sim_wire_share" => exact(sim_share(1)),
            "trace.sim_retransmit_share" => exact(sim_share(2)),
            "trace.sim_app_share" => exact(sim_share(3)),
            "ledger.unattributed_share" => exact(ledger.unattributed_share),
            "harness.timer_ns" | "harness.alloc_counter_ns" | "harness.ref_kernel_ms" => {
                probe(name)
            }
            share if share.ends_with(".cpu_share") => {
                exact(ledger.share(share.trim_end_matches(".cpu_share")))
            }
            other => unreachable!("per-layer metric without a source: {other}"),
        }
    };
    let values = PER_LAYER
        .iter()
        .map(|m| (m.name, value_of(m.name)))
        .collect();
    (values, ledger)
}

/// The driver's last line: each metric's median.
#[must_use]
pub fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, Value)],
    unit_of: impl Fn(&str) -> &'static str,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, v)) in metrics.iter().enumerate() {
        let value = if v.median.is_finite() { v.median } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            unit_of(name)
        );
    }
    out.push_str("}}");
    out
}

/// Fixed-width rendering that keeps small and large magnitudes readable.
#[must_use]
pub fn fmt_num(v: f64) -> String {
    let a = v.abs();
    if v == 0.0 {
        "0".to_string()
    } else if a >= 1e6 {
        format!("{v:.0}")
    } else if a >= 100.0 {
        format!("{v:.2}")
    } else if a >= 1.0 {
        format!("{v:.4}")
    } else {
        format!("{v:.6}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let metrics = [
            ("latency_ms", Value::exact(1.2034)),
            ("setup_s", Value::of(&[0.8, 0.9, 0.7])),
        ];
        let line = json_line(true, 1000, 0, &metrics, |n| {
            if n == "setup_s" {
                "s"
            } else {
                "ms"
            }
        });
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.8, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn end_to_end_metrics_of_a_hand_made_repetition() {
        let rep = Rep {
            attempted: 1000,
            failed: 0,
            payload_bytes: 64_000,
            timed_wall_s: 0.5,
            timed_cpu_s: 0.25,
            setup_cpu_s: 0.125,
            sim_span_ns: 2_000_000_000,
            latencies_ns: (1..=1000).map(|i| i * 1_000_000).collect(),
            allocs: 31_000,
            peak_heap_bytes: 5_000_000,
            net: crate::workloads::NetCounts {
                wire_bytes: 320_000,
                ..Default::default()
            },
            ..Rep::default()
        };
        assert_eq!(end_to_end_of(&rep, "msgs_per_s"), 2000.0);
        assert_eq!(end_to_end_of(&rep, "cpu_us_per_msg"), 250.0);
        assert_eq!(end_to_end_of(&rep, "setup_s"), 0.125);
        assert_eq!(end_to_end_of(&rep, "sim_goodput_MB_per_s"), 0.032);
        assert_eq!(end_to_end_of(&rep, "sim_lat_p50_ms"), 500.5);
        assert!((end_to_end_of(&rep, "sim_lat_p99_ms") - 990.01).abs() < 1e-9);
        assert_eq!(end_to_end_of(&rep, "wire_bytes_per_payload_byte"), 5.0);
        assert_eq!(end_to_end_of(&rep, "allocs_per_msg"), 31.0);
        assert_eq!(end_to_end_of(&rep, "peak_heap_MB"), 5.0);
        let mut slow = rep.clone();
        slow.timed_cpu_s = 0.5;
        slow.allocs = 33_000;
        let all = end_to_end(&[rep, slow]);
        assert_eq!(all.len(), 9);
        let of = |name: &str| all.iter().find(|(n, _)| *n == name).expect("metric").1;
        assert_eq!(of("cpu_us_per_msg").median, 375.0);
        assert_eq!(of("allocs_per_msg").median, 32.0);
        assert_eq!(of("msgs_per_s").n, 2);
    }
}
