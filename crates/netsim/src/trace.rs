//! Packet tracing: observe every packet the fabric accepts, drops or
//! delivers — the simulator's analog of `tcpdump`.
//!
//! Install a [`PacketTracer`] with
//! [`Network::set_tracer`](crate::network::Network::set_tracer). The
//! bundled [`RecorderTracer`] folds every record into the flight recorder;
//! custom tracers (e.g. writing a log) just implement the trait. Counts by
//! outcome and drop reason need no tracer: the fabric keeps them
//! ([`Network::stats`](crate::network::Network::stats),
//! [`Link::stats`](crate::link::Link::stats)).

use std::sync::Arc;

use kmsg_telemetry::{EventKind, Recorder};

use crate::link::DropReason;
use crate::packet::{Endpoint, WireProtocol};
use crate::time::SimTime;

/// What happened to a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketEvent {
    /// Accepted into the fabric at the source.
    Sent,
    /// Dropped by a link.
    Dropped(DropReason),
    /// Dropped because no route exists.
    NoRoute,
    /// Arrived but no sink is bound at the destination.
    NoSink,
    /// Handed to the destination sink.
    Delivered,
}

impl PacketEvent {
    /// Stable snake_case outcome label for telemetry output
    /// (`"dropped:<reason>"` for drops).
    #[must_use]
    pub fn label(self) -> String {
        match self {
            PacketEvent::Sent => "sent".to_string(),
            PacketEvent::Dropped(reason) => format!("dropped:{}", reason.label()),
            PacketEvent::NoRoute => "no_route".to_string(),
            PacketEvent::NoSink => "no_sink".to_string(),
            PacketEvent::Delivered => "delivered".to_string(),
        }
    }
}

/// One trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketRecord {
    /// When the event happened.
    pub time: SimTime,
    /// Source endpoint.
    pub src: Endpoint,
    /// Destination endpoint.
    pub dst: Endpoint,
    /// Wire protocol family.
    pub protocol: WireProtocol,
    /// Size on the wire.
    pub wire_size: usize,
    /// What happened.
    pub event: PacketEvent,
}

/// Observes packet events. Implementations must be cheap: the tracer runs
/// on the simulation's hot path.
pub trait PacketTracer: Send + Sync {
    /// Called for every packet event.
    fn record(&self, record: PacketRecord);
}

/// Folds packet events into a telemetry [`Recorder`] as
/// [`EventKind::Packet`] flight-recorder events, so the packet tracer
/// becomes one event source in the unified telemetry stream.
#[derive(Debug)]
pub struct RecorderTracer {
    rec: Recorder,
}

impl RecorderTracer {
    /// Creates a tracer feeding `rec` — usually a clone of
    /// [`Sim::recorder`](crate::engine::Sim::recorder).
    #[must_use]
    pub fn new(rec: Recorder) -> Arc<Self> {
        Arc::new(RecorderTracer { rec })
    }
}

impl PacketTracer for RecorderTracer {
    fn record(&self, record: PacketRecord) {
        // `record_with` defers the endpoint/outcome formatting behind the
        // recorder's enabled check, so a disabled recorder costs one load.
        self.rec
            .record_with(record.time.as_nanos(), || EventKind::Packet {
                src: record.src.to_string(),
                dst: record.dst.to_string(),
                proto: record.protocol.label(),
                wire_size: record.wire_size as u64,
                outcome: record.event.label(),
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::NodeId;

    fn rec(event: PacketEvent) -> PacketRecord {
        PacketRecord {
            time: SimTime::ZERO,
            src: Endpoint::new(NodeId::from_index(0), 1),
            dst: Endpoint::new(NodeId::from_index(1), 2),
            protocol: WireProtocol::Udp,
            wire_size: 100,
            event,
        }
    }

    #[test]
    fn recorder_tracer_folds_packets_into_telemetry() {
        let telemetry = Recorder::new();
        let tracer = RecorderTracer::new(telemetry.clone());
        tracer.record(rec(PacketEvent::Sent));
        assert_eq!(telemetry.event_count(), 0, "disabled recorder stays empty");
        telemetry.enable();
        tracer.record(rec(PacketEvent::Dropped(DropReason::Policed)));
        let events = telemetry.events();
        assert_eq!(events.len(), 1);
        match &events[0].kind {
            EventKind::Packet {
                proto,
                wire_size,
                outcome,
                ..
            } => {
                assert_eq!(*proto, "udp");
                assert_eq!(*wire_size, 100);
                assert_eq!(outcome, "dropped:policed");
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
}
