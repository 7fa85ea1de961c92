//! The traced twin's simulator side: switch the flight recorder on, count
//! packets per protocol through a `PacketTracer`, and afterwards read the
//! recorder's events and spans into [`TwinCounts`].

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use kmsg_netsim::engine::Sim;
use kmsg_netsim::network::Network;
use kmsg_netsim::packet::{WireProtocol, HEADER_OVERHEAD};
use kmsg_netsim::trace::{PacketEvent, PacketRecord, PacketTracer};
use kmsg_telemetry::critical_path::{self_profile, SpanForest};
use kmsg_telemetry::EventKind;

use crate::workloads::{TcpRecovery, TwinCounts};

/// Recorder ring capacity for the twin: large enough that nothing is
/// evicted at the twin's size (`telemetry.evicted` reports if it was).
const RECORDER_CAPACITY: usize = 6_000_000;

/// Counts packets entering the fabric, by protocol.
#[derive(Debug, Default)]
pub struct ProtoCounter {
    tcp: AtomicU64,
    tcp_data: AtomicU64,
    udt: AtomicU64,
    udt_data: AtomicU64,
}

impl PacketTracer for ProtoCounter {
    fn record(&self, r: PacketRecord) {
        if r.event != PacketEvent::Sent {
            return;
        }
        match r.protocol {
            WireProtocol::Tcp => {
                self.tcp.fetch_add(1, Relaxed);
                if r.wire_size > HEADER_OVERHEAD {
                    self.tcp_data.fetch_add(1, Relaxed);
                }
            }
            WireProtocol::Udt => {
                self.udt.fetch_add(1, Relaxed);
                // Control packets are tens of bytes, data packets an MSS.
                if r.wire_size > HEADER_OVERHEAD + 512 {
                    self.udt_data.fetch_add(1, Relaxed);
                }
            }
            WireProtocol::Udp => {}
        }
    }
}

/// Switches the recorder on and installs the packet counter.
#[must_use]
pub fn enable(sim: &Sim, net: &Network) -> Arc<ProtoCounter> {
    sim.recorder().set_capacity(RECORDER_CAPACITY);
    sim.recorder().enable();
    let counter = Arc::new(ProtoCounter::default());
    net.set_tracer(counter.clone());
    counter
}

/// Span kinds of the recorder grouped as the `trace.*` metrics name them.
fn span_group(kind: &str) -> usize {
    match kind {
        "enqueue" => 0,
        "xmit" | "seg" | "flight" | "hop" => 1,
        "nak_recovery" | "requeue" | "failover" | "outage" | "backoff" | "redial" | "reroute" => 2,
        _ => 3,
    }
}

/// Reads the recorder after the twin has run.
#[must_use]
pub fn collect(sim: &Sim, counter: &ProtoCounter) -> TwinCounts {
    let rec = sim.recorder();
    let events = rec.events();
    let mut t = TwinCounts {
        events_recorded: rec.recorded_total(),
        evicted: rec.evicted(),
        tcp_packets: counter.tcp.load(Relaxed),
        tcp_data_segments: counter.tcp_data.load(Relaxed),
        udt_packets: counter.udt.load(Relaxed),
        udt_data_packets: counter.udt_data.load(Relaxed),
        ..TwinCounts::default()
    };
    let mut tcp = TcpRecovery::default();
    for ev in &events {
        match &ev.kind {
            EventKind::ComponentExec { handled, .. } => t.component_events += handled,
            EventKind::TcpRetransmit { .. } => tcp.retransmits += 1,
            EventKind::TcpRto { .. } => tcp.timeouts += 1,
            EventKind::TcpCwnd { cause, .. } | EventKind::CcWindow { cause, .. }
                if *cause == "fast_recovery" =>
            {
                tcp.fast_recoveries += 1;
            }
            EventKind::UdtNak {
                sent: true, losses, ..
            } => {
                t.udt_naks += 1;
                t.udt_nak_losses += losses;
            }
            _ => {}
        }
    }
    t.tcp = tcp;
    let forest = SpanForest::build(&events);
    for row in self_profile(&forest) {
        t.sim_self_ns[span_group(row.kind)] += row.self_ns;
        if row.kind == "enqueue" {
            t.enqueue_ns += row.total_ns;
        }
    }
    t
}
