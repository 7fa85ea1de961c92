//! Packet representation shared by all simulated transports.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use kmsg_telemetry::bytes::Bytes;

/// Identifies a simulated host within a [`Network`](crate::network::Network).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The raw index of this node.
    #[must_use]
    pub const fn index(self) -> u32 {
        self.0
    }

    /// Reconstructs a `NodeId` from [`NodeId::index`] — for deserialising
    /// addresses. The caller is responsible for the index referring to a
    /// node that exists in the target [`Network`](crate::network::Network).
    #[must_use]
    pub const fn from_index(index: u32) -> NodeId {
        NodeId(index)
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A (node, port) pair — the simulated analog of a socket address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Endpoint {
    /// The host.
    pub node: NodeId,
    /// The port number on that host.
    pub port: u16,
}

impl Endpoint {
    /// Creates an endpoint.
    #[must_use]
    pub const fn new(node: NodeId, port: u16) -> Self {
        Endpoint { node, port }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.node, self.port)
    }
}

/// The on-the-wire protocol family of a packet.
///
/// UDT packets travel as UDP on the wire, which matters for links that
/// police UDP traffic (Amazon EC2 rate-limits UDP to roughly 10 MB/s, which
/// the paper identifies as the cap on UDT throughput in its experiments).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireProtocol {
    /// TCP segment.
    Tcp,
    /// Plain UDP datagram.
    Udp,
    /// UDT packet (UDP on the wire).
    Udt,
}

impl WireProtocol {
    /// Stable snake_case label for telemetry output.
    #[must_use]
    pub(crate) const fn label(self) -> &'static str {
        match self {
            WireProtocol::Tcp => "tcp",
            WireProtocol::Udp => "udp",
            WireProtocol::Udt => "udt",
        }
    }

    /// Whether this packet is part of the UDP family for policing purposes.
    #[must_use]
    pub(crate) const fn is_udp_family(self) -> bool {
        matches!(self, WireProtocol::Udp | WireProtocol::Udt)
    }
}

/// A loss report's `(from, to)` sequence ranges (TCP's holes, UDT's NAK
/// list), read-only once built. None or one is held inline, as most reports
/// carry one; two or more share one allocation, so a clone allocates nothing.
#[derive(Clone, Default)]
pub struct SeqRanges(Ranges);

#[derive(Clone, Default)]
enum Ranges {
    #[default]
    Empty,
    One([(u64, u64); 1]),
    Many(Arc<[(u64, u64)]>),
}

impl SeqRanges {
    /// A report of the single range `(from, to)`.
    #[must_use]
    pub(crate) const fn one(from: u64, to: u64) -> Self {
        SeqRanges(Ranges::One([(from, to)]))
    }

    /// Makes `ranges` the last report sent, in place of `self`, and returns
    /// a copy to send: an unchanged report shares the last one's block, so
    /// repeating a report allocates nothing.
    pub(crate) fn update(&mut self, ranges: &[(u64, u64)]) -> SeqRanges {
        if **self != *ranges {
            *self = SeqRanges::from(ranges);
        }
        self.clone()
    }
}

impl From<&[(u64, u64)]> for SeqRanges {
    /// Copies `ranges`: one allocator call when there are two or more.
    fn from(ranges: &[(u64, u64)]) -> Self {
        SeqRanges(match *ranges {
            [] => Ranges::Empty,
            [only] => Ranges::One([only]),
            _ => Ranges::Many(Arc::from(ranges)),
        })
    }
}

impl Deref for SeqRanges {
    type Target = [(u64, u64)];

    fn deref(&self) -> &[(u64, u64)] {
        match &self.0 {
            Ranges::Empty => &[],
            Ranges::One(one) => one,
            Ranges::Many(many) => many,
        }
    }
}

impl fmt::Debug for SeqRanges {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Per-packet per-hop overhead in bytes (IP + transport headers,
/// approximated as a constant).
pub const HEADER_OVERHEAD: usize = 40;

/// Transport-specific packet payloads.
#[derive(Debug, Clone)]
pub enum PacketBody {
    /// A TCP segment (see [`crate::tcp`]).
    Tcp(crate::tcp::TcpSegment),
    /// A UDP datagram payload.
    Udp(Bytes),
    /// A UDT packet (see [`crate::udt`]).
    Udt(crate::udt::UdtPacket),
}

/// A packet in flight between two endpoints.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Source endpoint.
    pub src: Endpoint,
    /// Destination endpoint.
    pub(crate) dst: Endpoint,
    /// Wire protocol family.
    pub(crate) protocol: WireProtocol,
    /// Total size on the wire, including header overhead.
    pub wire_size: usize,
    /// Sever epoch of the link the packet is currently crossing, stamped at
    /// transmit time. If the link's epoch has advanced by arrival (the link
    /// was [severed](crate::link::Link::sever) mid-flight), the packet dies.
    pub(crate) sever_epoch: u64,
    /// Raw causal-span id of this packet's `flight` span (0 when tracing
    /// is off). In-memory only — never serialised, so enabling tracing
    /// cannot perturb wire sizes or timing.
    pub(crate) span: u64,
    /// Raw span id of the `hop` span for the link currently being crossed
    /// (0 between hops or when tracing is off). In-memory only.
    pub(crate) hop_span: u64,
    /// Transport payload.
    pub(crate) body: PacketBody,
}

impl Packet {
    /// Builds a packet, deriving `wire_size` from the payload length plus
    /// [`HEADER_OVERHEAD`].
    #[must_use]
    pub fn new(
        src: Endpoint,
        dst: Endpoint,
        protocol: WireProtocol,
        payload_len: usize,
        body: PacketBody,
    ) -> Self {
        Packet {
            src,
            dst,
            protocol,
            wire_size: payload_len + HEADER_OVERHEAD,
            sever_epoch: 0,
            span: 0,
            hop_span: 0,
            body,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn udp_family_classification() {
        assert!(WireProtocol::Udp.is_udp_family());
        assert!(WireProtocol::Udt.is_udp_family());
        assert!(!WireProtocol::Tcp.is_udp_family());
    }

    #[test]
    fn wire_size_includes_overhead() {
        let a = Endpoint::new(NodeId(0), 1);
        let b = Endpoint::new(NodeId(1), 2);
        let p = Packet::new(a, b, WireProtocol::Udp, 100, PacketBody::Udp(Bytes::new()));
        assert_eq!(p.wire_size, 100 + HEADER_OVERHEAD);
    }

    #[test]
    fn seq_ranges_round_trip_and_print_as_a_vec() {
        for len in [0, 1, 2, 16, 64] {
            let ranges: Vec<(u64, u64)> = (0..len).map(|i| (3 * i, 3 * i + 1)).collect();
            let report = SeqRanges::from(&ranges[..]);
            let copy = report.clone();
            assert_eq!(*report, ranges[..]);
            assert_eq!(*copy, ranges[..]);
            assert_eq!(format!("{report:?}"), format!("{ranges:?}"));
            if len >= 2 {
                assert_eq!(copy.as_ptr(), report.as_ptr(), "a clone shares the ranges");
            }
        }
        assert_eq!(*SeqRanges::one(4, 9), [(4, 9)]);
        assert_eq!(format!("{:?}", SeqRanges::default()), "[]");
    }

    #[test]
    fn seq_ranges_do_not_grow_packets() {
        use std::mem::size_of;
        assert!(size_of::<SeqRanges>() <= size_of::<Vec<(u64, u64)>>());
        // The sizes while loss reports were `Vec<(u64, u64)>`s.
        assert!(size_of::<crate::tcp::TcpSegment>() <= 112);
        assert!(size_of::<crate::udt::UdtPacket>() <= 48);
    }

    #[test]
    fn loss_marks_do_not_grow_flows() {
        use std::mem::size_of;

        use crate::flowstack::NodePool;
        // Since the send queues became lists in their table's second node
        // pool (400 and 504 B while each flow kept a `VecDeque` and its
        // `FirstLost` of its own; 440 and 544 B while a stream also kept a
        // `VecDeque` and a `BTreeMap`).
        assert!(size_of::<crate::tcp::Flow>() <= 384);
        assert!(size_of::<crate::udt::Flow>() <= 480);
        assert!(size_of::<crate::flowstack::Stream>() <= 64);
        // A send queue's entry records where its payload lies in the stream;
        // its node adds the 4-byte link (a ring slot was the entry alone).
        assert!(size_of::<crate::tcp::SentSeg>() <= 32);
        assert!(size_of::<crate::udt::Unacked>() <= 16);
        assert!(NodePool::<crate::tcp::SentSeg>::node_bytes() <= 40);
        assert!(NodePool::<crate::udt::Unacked>::node_bytes() <= 24);
    }

    #[test]
    fn endpoint_display() {
        let e = Endpoint::new(NodeId(3), 8080);
        assert_eq!(e.to_string(), "n3:8080");
    }
}
