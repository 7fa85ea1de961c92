//! The metric catalogue: every name the benchmark prints, with its unit,
//! direction, bound, clock and — for layer metrics — the layer, where the
//! number comes from and which end-to-end metric it should move.
//!
//! `BENCHMARK.json` at the repo root is this table in the driver's
//! format (`--emit-benchmark-json` prints it; a unit test holds the
//! committed file to it). README.md carries the same table in prose.

use crate::workloads::{sizes, Workload};

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The driver's spelling.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Final name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// What it is measured with.
    pub clock: Clock,
}

/// What an end-to-end metric is measured with, which decides how far two
/// runs of the same code may differ (`--agree`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Process CPU time of this machine: agrees within the bound.
    HostCpu,
    /// Wall time of this machine: agrees within the bound.
    HostWall,
    /// Simulated time: repeats exactly for a seed.
    Simulated,
    /// A counter of the simulator: repeats exactly for a seed.
    Count,
    /// The counting allocator: repeats to within [`ALLOCATOR_SLACK`].
    Allocator,
}

/// How far an allocator figure may differ between two runs of a seed. The
/// repo's crates keep `std::collections::HashMap`s, whose per-instance
/// random keys decide whether a churned table rehashes in place or
/// reallocates: seen here, 8 in 10^7 calls and 4 in 10^4 of the peak.
pub const ALLOCATOR_SLACK: f64 = 1e-3;

impl Clock {
    /// One word for tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Clock::HostCpu => "host CPU",
            Clock::HostWall => "host wall",
            Clock::Simulated => "simulated",
            Clock::Count => "count",
            Clock::Allocator => "allocator",
        }
    }
}

/// The nine end-to-end metrics, the same on every workload.
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        clock: Clock::HostCpu,
    },
    EndToEnd {
        name: "msgs_per_s",
        unit: "msg/s",
        better: Better::Higher,
        bound: 0.25,
        clock: Clock::HostWall,
    },
    EndToEnd {
        name: "cpu_us_per_msg",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        clock: Clock::HostCpu,
    },
    EndToEnd {
        name: "sim_goodput_MB_per_s",
        unit: "MB/s",
        better: Better::Higher,
        bound: 0.05,
        clock: Clock::Simulated,
    },
    EndToEnd {
        name: "sim_lat_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.05,
        clock: Clock::Simulated,
    },
    EndToEnd {
        name: "sim_lat_p99_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
        clock: Clock::Simulated,
    },
    EndToEnd {
        name: "wire_bytes_per_payload_byte",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.02,
        clock: Clock::Count,
    },
    EndToEnd {
        name: "allocs_per_msg",
        unit: "count",
        better: Better::Lower,
        bound: 0.02,
        clock: Clock::Allocator,
    },
    EndToEnd {
        name: "peak_heap_MB",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
        clock: Clock::Allocator,
    },
];

/// Where a layer metric's number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// An isolated timing of the layer's public functions.
    Probe,
    /// Public stats read after the full-size untraced repetition (exact).
    Count,
    /// The reduced-size traced twin's recorder.
    Twin,
    /// Arithmetic over the others (shares, remainders).
    Ledger,
}

impl Source {
    /// One word for tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Source::Probe => "probe",
            Source::Count => "count",
            Source::Twin => "twin",
            Source::Ledger => "ledger",
        }
    }
}

/// A per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Final name; the part before the last dot is the layer (module).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Where the number comes from.
    pub source: Source,
    /// The end-to-end metric(s) it should move.
    pub moves: &'static str,
}

impl PerLayer {
    /// The layer the metric belongs to.
    #[cfg(test)]
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name
            .rsplit_once('.')
            .map_or(self.name, |(layer, _)| layer)
    }
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: Source,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
        moves,
    }
}

use Better::{Higher, Lower};
use Source::{Count, Ledger, Probe, Twin};

const HOST: &str = "cpu_us_per_msg, msgs_per_s";
const HOST_ALLOCS: &str = "cpu_us_per_msg, allocs_per_msg";
const SIM: &str = "sim_goodput_MB_per_s, sim_lat_p99_ms";
const NONE: &str = "-";

/// Every per-layer metric. One that a workload bypasses reads 0 there.
pub const PER_LAYER: [PerLayer; 72] = [
    pl("netsim.engine.events_per_msg", "count", Lower, Count, HOST),
    pl("netsim.engine.ns_per_event", "ns", Lower, Probe, HOST),
    pl(
        "netsim.engine.allocs_per_event",
        "count",
        Lower,
        Probe,
        "allocs_per_msg",
    ),
    pl("netsim.engine.cpu_share", "share", Lower, Ledger, HOST),
    pl("netsim.fabric.packets_per_msg", "count", Lower, Count, HOST),
    pl("netsim.fabric.ns_per_packet", "ns", Lower, Probe, HOST),
    pl(
        "netsim.fabric.allocs_per_packet",
        "count",
        Lower,
        Probe,
        "allocs_per_msg",
    ),
    pl(
        "netsim.fabric.drops_queue",
        "count",
        Lower,
        Count,
        "sim_lat_p99_ms, sim_goodput_MB_per_s, wire_bytes_per_payload_byte",
    ),
    pl(
        "netsim.fabric.drops_loss",
        "count",
        Lower,
        Count,
        "sim_lat_p99_ms, sim_goodput_MB_per_s, wire_bytes_per_payload_byte",
    ),
    pl(
        "netsim.fabric.drops_policer",
        "count",
        Lower,
        Count,
        "sim_lat_p99_ms, sim_goodput_MB_per_s, wire_bytes_per_payload_byte",
    ),
    pl(
        "netsim.fabric.pool_peak_slots",
        "count",
        Lower,
        Count,
        "peak_heap_MB",
    ),
    pl("netsim.fabric.cpu_share", "share", Lower, Ledger, HOST),
    pl("netsim.tcp.ns_per_segment", "ns", Lower, Probe, HOST),
    pl("netsim.tcp.self_ns_per_segment", "ns", Lower, Probe, HOST),
    pl("netsim.tcp.rpc_ns_per_roundtrip", "ns", Lower, Probe, HOST),
    pl(
        "netsim.tcp.allocs_per_segment",
        "count",
        Lower,
        Probe,
        "allocs_per_msg",
    ),
    pl("netsim.tcp.retransmits", "count", Lower, Count, SIM),
    pl("netsim.tcp.timeouts", "count", Lower, Count, SIM),
    pl("netsim.tcp.fast_recoveries", "count", Lower, Count, SIM),
    pl(
        "netsim.tcp.heap_bytes_per_flow",
        "B",
        Lower,
        Probe,
        "peak_heap_MB",
    ),
    pl("netsim.tcp.cpu_share", "share", Lower, Ledger, HOST),
    pl("netsim.udt.ns_per_packet", "ns", Lower, Probe, HOST),
    pl("netsim.udt.self_ns_per_packet", "ns", Lower, Probe, HOST),
    pl(
        "netsim.udt.allocs_per_packet",
        "count",
        Lower,
        Probe,
        "allocs_per_msg",
    ),
    pl("netsim.udt.naks", "count", Lower, Twin, SIM),
    pl("netsim.udt.retransmits", "count", Lower, Twin, SIM),
    pl("netsim.udt.cpu_share", "share", Lower, Ledger, HOST),
    pl("component.ns_per_event", "ns", Lower, Probe, HOST_ALLOCS),
    pl(
        "component.allocs_per_event",
        "count",
        Lower,
        Probe,
        "allocs_per_msg",
    ),
    pl("component.cpu_share", "share", Lower, Ledger, HOST),
    pl("core.ser.ns_per_msg", "ns", Lower, Probe, HOST_ALLOCS),
    pl(
        "core.ser.allocs_per_msg",
        "count",
        Lower,
        Probe,
        "allocs_per_msg",
    ),
    pl("core.codec.compress_MB_per_s", "MB/s", Higher, Probe, HOST),
    pl(
        "core.codec.decompress_MB_per_s",
        "MB/s",
        Higher,
        Probe,
        HOST,
    ),
    pl(
        "core.codec.ratio",
        "ratio",
        Lower,
        Probe,
        "wire_bytes_per_payload_byte, sim_goodput_MB_per_s",
    ),
    pl("core.codec.cpu_share", "share", Lower, Ledger, HOST),
    pl(
        "core.frame.encode_ns_per_msg",
        "ns",
        Lower,
        Probe,
        HOST_ALLOCS,
    ),
    pl(
        "core.frame.decode_ns_per_msg",
        "ns",
        Lower,
        Probe,
        HOST_ALLOCS,
    ),
    pl(
        "core.frame.allocs_per_msg",
        "count",
        Lower,
        Probe,
        "allocs_per_msg",
    ),
    pl("core.frame.cpu_share", "share", Lower, Ledger, HOST),
    pl("core.net.self_ns_per_msg", "ns", Lower, Ledger, HOST),
    pl("core.net.cpu_share", "share", Lower, Ledger, HOST),
    pl("core.net.sent", "count", Lower, Count, NONE),
    pl("core.net.received", "count", Lower, Count, NONE),
    pl(
        "core.net.bytes_out_per_payload_byte",
        "ratio",
        Lower,
        Count,
        "wire_bytes_per_payload_byte",
    ),
    pl("core.net.send_failures", "count", Lower, Count, "failed"),
    pl("core.net.decode_failures", "count", Lower, Count, "failed"),
    pl("core.net.channels_opened", "count", Lower, Count, "setup_s"),
    pl("core.net.reconnects", "count", Lower, Count, SIM),
    pl(
        "core.net.queue_wait_sim_us_per_msg",
        "us",
        Lower,
        Twin,
        "sim_lat_p50_ms",
    ),
    pl("core.data.udt_share", "share", Higher, Count, SIM),
    pl("core.data.episodes", "count", Higher, Count, NONE),
    pl(
        "core.data.final_ratio",
        "ratio",
        Higher,
        Count,
        "sim_goodput_MB_per_s",
    ),
    pl("core.data.converge_sim_s", "s", Lower, Count, SIM),
    pl("core.data.failovers", "count", Lower, Count, SIM),
    pl("core.data.psp_ns_per_select", "ns", Lower, Probe, HOST),
    pl(
        "learning.ns_per_step",
        "ns",
        Lower,
        Probe,
        "none predicted: one step per simulated second",
    ),
    pl(
        "learning.cpu_share",
        "share",
        Lower,
        Ledger,
        "none predicted: one step per simulated second",
    ),
    pl(
        "apps.dataset_MB_per_s",
        "MB/s",
        Higher,
        Probe,
        "cpu_us_per_msg, setup_s",
    ),
    pl(
        "apps.hash_MB_per_s",
        "MB/s",
        Higher,
        Probe,
        "cpu_us_per_msg, setup_s",
    ),
    pl("apps.cpu_share", "share", Lower, Ledger, HOST),
    pl("telemetry.trace_overhead_share", "share", Lower, Twin, NONE),
    pl("telemetry.events_recorded", "count", Lower, Twin, NONE),
    pl("telemetry.evicted", "count", Lower, Twin, NONE),
    pl(
        "trace.sim_queue_share",
        "share",
        Lower,
        Twin,
        "sim_lat_p50_ms, sim_lat_p99_ms",
    ),
    pl(
        "trace.sim_wire_share",
        "share",
        Lower,
        Twin,
        "sim_lat_p50_ms, sim_lat_p99_ms",
    ),
    pl(
        "trace.sim_retransmit_share",
        "share",
        Lower,
        Twin,
        "sim_lat_p99_ms",
    ),
    pl(
        "trace.sim_app_share",
        "share",
        Lower,
        Twin,
        "sim_lat_p50_ms",
    ),
    pl("ledger.unattributed_share", "share", Lower, Ledger, NONE),
    pl("harness.timer_ns", "ns", Lower, Probe, NONE),
    pl("harness.alloc_counter_ns", "ns", Lower, Probe, NONE),
    pl("harness.ref_kernel_ms", "ms", Lower, Probe, NONE),
];

/// Why each workload exists (one line, for `BENCHMARK.json`).
#[must_use]
pub fn why(w: Workload) -> &'static str {
    match w {
        Workload::RpcSmall => "64 B closed-loop round trips: per-message fixed cost (component, core.net, framing, one segment + ACK) dominates; codec, apps, learner and UDT do nothing",
        Workload::BulkVpc => "disk-to-disk transfer of 65 kB chunks over TCP in a VPC: bytes-proportional cost (dataset, hash, codec, frame copies, streaming TCP) dominates; goodput sits at the disk model",
        Workload::AdaptiveWan => "the same transfer over the adaptive DATA protocol on a lossy policed WAN: the only workload where the learner, UDT, the policer and loss recovery work",
        Workload::Fanin10k => "10^4 raw TCP flows into one sink, no middleware: flow table, timer wheel and incast drops at scale; bypasses component, core and apps entirely",
    }
}

/// `BENCHMARK.json`, exactly as committed.
#[must_use]
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {},\n", sizes::DEFAULT_SECONDS));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in Workload::ALL.into_iter().enumerate() {
        let comma = if i + 1 < Workload::ALL.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n",
            w.name(),
            why(w)
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name,
            m.unit,
            m.better.label(),
            m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name,
            m.unit,
            m.better.label()
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn legal_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn legal_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_obey_the_contract() {
        let mut seen = BTreeSet::new();
        for w in Workload::ALL {
            assert!(legal_name(w.name()) && seen.insert(w.name()));
            assert!(
                why(w).len() <= 200 && !why(w).contains('\n'),
                "{}",
                w.name()
            );
        }
        for m in END_TO_END {
            assert!(legal_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(legal_unit(m.unit), "{}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for m in PER_LAYER {
            assert!(legal_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(legal_unit(m.unit), "{}", m.unit);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "set-up time carries the largest bound");
    }

    #[test]
    fn committed_benchmark_json_is_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, benchmark_json());
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn layers_are_module_names() {
        let layers: BTreeSet<_> = PER_LAYER.iter().map(PerLayer::layer).collect();
        for l in [
            "netsim.engine",
            "netsim.fabric",
            "netsim.tcp",
            "netsim.udt",
            "component",
            "core.ser",
            "core.codec",
            "core.frame",
            "core.net",
            "core.data",
            "learning",
            "apps",
            "telemetry",
            "trace",
            "ledger",
            "harness",
        ] {
            assert!(layers.contains(l), "{l}");
        }
        assert_eq!(layers.len(), 16);
    }
}
