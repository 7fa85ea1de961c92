//! Message headers.
//!
//! Mirrors the paper's `Header` interface (listing 3) and its two notable
//! implementations: the plain [`BasicHeader`] and the multi-hop
//! [`RoutingHeader`] (listing 5), which overrides source/destination while
//! a `Route` is present. [`DataHeader`] marks messages for the adaptive
//! `DATA` interceptor (§IV-A).

use std::collections::VecDeque;

use kmsg_telemetry::bytes::{Buf, BufMut, BytesMut};

use crate::address::{Address, NetAddress, VnodeId};
use crate::ser::SerError;
use crate::transport::Transport;

/// The minimum features the network layer requires of a header
/// (the paper's `Header` interface).
pub trait Header<A: Address> {
    /// Originator of the message.
    fn source(&self) -> &A;
    /// Where the message should go next (may be an intermediate hop).
    fn destination(&self) -> &A;
    /// The transport protocol requested for this message.
    fn protocol(&self) -> Transport;
}

/// Source, destination and protocol — nothing more.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicHeader {
    /// Originator.
    pub(crate) src: NetAddress,
    /// Final destination.
    pub(crate) dst: NetAddress,
    /// Requested transport.
    pub(crate) proto: Transport,
}

impl BasicHeader {
    /// Creates a header.
    #[must_use]
    pub fn new(src: NetAddress, dst: NetAddress, proto: Transport) -> Self {
        BasicHeader { src, dst, proto }
    }
}

impl Header<NetAddress> for BasicHeader {
    fn source(&self) -> &NetAddress {
        &self.src
    }

    fn destination(&self) -> &NetAddress {
        &self.dst
    }

    fn protocol(&self) -> Transport {
        self.proto
    }
}

/// A multi-hop forwarding route: the remaining intermediate hops plus the
/// address to present as `source` while the route is active (the paper's
/// "Forwardable Trait").
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Route {
    /// Source presented while forwarding (e.g. the original sender, so the
    /// final receiver can reply directly).
    pub(crate) source: NetAddress,
    /// Remaining intermediate hops, in order.
    pub(crate) hops: VecDeque<NetAddress>,
}

impl Route {
    /// A route through the given hops, presenting `source`.
    #[must_use]
    pub(crate) fn new(source: NetAddress, hops: impl IntoIterator<Item = NetAddress>) -> Self {
        Route {
            source,
            hops: hops.into_iter().collect(),
        }
    }

    /// Whether an intermediate hop remains.
    #[must_use]
    pub(crate) fn has_next(&self) -> bool {
        !self.hops.is_empty()
    }
}

/// A header that forwards through intermediate hosts before reaching the
/// base destination (paper listing 5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingHeader {
    /// The underlying header (final destination, reply source).
    pub(crate) base: BasicHeader,
    /// The active route, if any.
    pub(crate) route: Option<Route>,
    /// Remaining forwarding budget. Decremented by every host that forwards
    /// the message; a host that would forward at `0` drops it instead
    /// (counted in `MiddlewareStats::ttl_drops`), so a malformed or stale
    /// route can never loop forever.
    pub ttl: u8,
}

/// Default forwarding budget for new routes — generous against any sane
/// route length, small enough to kill a loop quickly.
pub const DEFAULT_TTL: u8 = 32;

impl RoutingHeader {
    /// Wraps `base` with a route through `hops` at [`DEFAULT_TTL`].
    #[must_use]
    pub fn with_route(base: BasicHeader, hops: impl IntoIterator<Item = NetAddress>) -> Self {
        let source = base.src;
        RoutingHeader {
            base,
            route: Some(Route::new(source, hops)),
            ttl: DEFAULT_TTL,
        }
    }

    /// Consumes the next hop; returns whether a hop was consumed. Called by
    /// the forwarding host after receiving the message.
    pub(crate) fn advance(&mut self) -> bool {
        match self.route.as_mut() {
            Some(route) => route.hops.pop_front().is_some(),
            None => false,
        }
    }
}

impl Header<NetAddress> for RoutingHeader {
    fn source(&self) -> &NetAddress {
        match &self.route {
            Some(route) => &route.source,
            None => &self.base.src,
        }
    }

    fn destination(&self) -> &NetAddress {
        match &self.route {
            Some(route) if route.has_next() => &route.hops[0],
            _ => &self.base.dst,
        }
    }

    fn protocol(&self) -> Transport {
        self.base.proto
    }
}

/// Marks a message as belonging to a `DATA` stream: the interceptor
/// rewrites [`DataHeader::selected`] to TCP or UDT per its policy; the
/// requested protocol reads as [`Transport::Data`] until then.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataHeader {
    /// Source and final destination.
    pub base: BasicHeader,
    /// The concrete protocol chosen by the protocol selection policy.
    pub selected: Option<Transport>,
}

impl DataHeader {
    /// Creates a `DATA` header between `src` and `dst`.
    #[must_use]
    pub fn new(src: NetAddress, dst: NetAddress) -> Self {
        DataHeader {
            base: BasicHeader::new(src, dst, Transport::Data),
            selected: None,
        }
    }
}

impl Header<NetAddress> for DataHeader {
    fn source(&self) -> &NetAddress {
        &self.base.src
    }

    fn destination(&self) -> &NetAddress {
        &self.base.dst
    }

    fn protocol(&self) -> Transport {
        self.selected.unwrap_or(Transport::Data)
    }
}

/// The concrete header carried by [`NetMessage`](crate::msg::NetMessage).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetHeader {
    /// Plain point-to-point header.
    Basic(BasicHeader),
    /// Multi-hop forwarding header.
    Routing(RoutingHeader),
    /// Adaptive `DATA`-stream header.
    Data(DataHeader),
}

impl NetHeader {
    /// The final destination (ignoring intermediate hops).
    #[must_use]
    pub fn final_destination(&self) -> &NetAddress {
        match self {
            NetHeader::Basic(h) => &h.dst,
            NetHeader::Routing(h) => &h.base.dst,
            NetHeader::Data(h) => &h.base.dst,
        }
    }

    /// The effective transport (next-hop view).
    #[must_use]
    pub fn protocol(&self) -> Transport {
        match self {
            NetHeader::Basic(h) => h.protocol(),
            NetHeader::Routing(h) => h.protocol(),
            NetHeader::Data(h) => h.protocol(),
        }
    }

    /// The source address (route-aware).
    #[must_use]
    pub fn source(&self) -> &NetAddress {
        match self {
            NetHeader::Basic(h) => h.source(),
            NetHeader::Routing(h) => h.source(),
            NetHeader::Data(h) => h.source(),
        }
    }

    /// The next-hop destination (route-aware).
    #[must_use]
    pub fn destination(&self) -> &NetAddress {
        match self {
            NetHeader::Basic(h) => h.destination(),
            NetHeader::Routing(h) => h.destination(),
            NetHeader::Data(h) => h.destination(),
        }
    }
}

// --- wire encoding -----------------------------------------------------

fn put_addr(buf: &mut BytesMut, addr: &NetAddress) {
    buf.put_u32(addr.node().index());
    buf.put_u16(addr.port());
    match addr.vnode() {
        Some(VnodeId(id)) => {
            buf.put_u8(1);
            buf.put_u64(id);
        }
        None => buf.put_u8(0),
    }
}

fn get_addr(buf: &mut impl Buf) -> Result<NetAddress, SerError> {
    const CTX: &str = "NetAddress";
    if buf.remaining() < 7 {
        return Err(SerError::Truncated { context: CTX });
    }
    let node = buf.get_u32();
    let port = buf.get_u16();
    let has_vnode = buf.get_u8();
    let addr = NetAddress::from_socket(kmsg_netsim::packet::Endpoint::new(
        node_id_from_index(node),
        port,
    ));
    if has_vnode == 1 {
        if buf.remaining() < 8 {
            return Err(SerError::Truncated { context: CTX });
        }
        Ok(addr.with_vnode(VnodeId(buf.get_u64())))
    } else {
        Ok(addr)
    }
}

fn node_id_from_index(index: u32) -> kmsg_netsim::packet::NodeId {
    kmsg_netsim::packet::NodeId::from_index(index)
}

impl NetHeader {
    /// Writes the header.
    pub fn serialise(&self, buf: &mut BytesMut) {
        match self {
            NetHeader::Basic(h) => {
                buf.put_u8(0);
                put_addr(buf, &h.src);
                put_addr(buf, &h.dst);
                buf.put_u8(h.proto.to_byte());
            }
            NetHeader::Routing(h) => {
                buf.put_u8(1);
                put_addr(buf, &h.base.src);
                put_addr(buf, &h.base.dst);
                buf.put_u8(h.base.proto.to_byte());
                buf.put_u8(h.ttl);
                match &h.route {
                    Some(route) => {
                        buf.put_u8(1);
                        put_addr(buf, &route.source);
                        buf.put_u32(u32::try_from(route.hops.len()).expect("route too long"));
                        for hop in &route.hops {
                            put_addr(buf, hop);
                        }
                    }
                    None => buf.put_u8(0),
                }
            }
            NetHeader::Data(h) => {
                buf.put_u8(2);
                put_addr(buf, &h.base.src);
                put_addr(buf, &h.base.dst);
                buf.put_u8(h.selected.unwrap_or(Transport::Data).to_byte());
            }
        }
    }

    /// Reads a header from any cursor: a frame decoded where it lies is read
    /// through one bounded by its length prefix.
    ///
    /// # Errors
    ///
    /// Returns [`SerError`] on truncated or invalid input.
    pub fn deserialise(buf: &mut impl Buf) -> Result<NetHeader, SerError> {
        const CTX: &str = "NetHeader";
        if buf.remaining() < 1 {
            return Err(SerError::Truncated { context: CTX });
        }
        let kind = buf.get_u8();
        let src = get_addr(buf)?;
        let dst = get_addr(buf)?;
        if buf.remaining() < 1 {
            return Err(SerError::Truncated { context: CTX });
        }
        let proto = Transport::from_byte(buf.get_u8()).ok_or(SerError::Invalid { context: CTX })?;
        match kind {
            0 => Ok(NetHeader::Basic(BasicHeader::new(src, dst, proto))),
            1 => {
                if buf.remaining() < 2 {
                    return Err(SerError::Truncated { context: CTX });
                }
                let ttl = buf.get_u8();
                let has_route = buf.get_u8() == 1;
                let route = if has_route {
                    let source = get_addr(buf)?;
                    if buf.remaining() < 4 {
                        return Err(SerError::Truncated { context: CTX });
                    }
                    let n = buf.get_u32() as usize;
                    let mut hops = VecDeque::with_capacity(n.min(1024));
                    for _ in 0..n {
                        hops.push_back(get_addr(buf)?);
                    }
                    Some(Route { source, hops })
                } else {
                    None
                };
                Ok(NetHeader::Routing(RoutingHeader {
                    base: BasicHeader::new(src, dst, proto),
                    route,
                    ttl,
                }))
            }
            2 => Ok(NetHeader::Data(DataHeader {
                base: BasicHeader::new(src, dst, Transport::Data),
                selected: if proto == Transport::Data {
                    None
                } else {
                    Some(proto)
                },
            })),
            _ => Err(SerError::Invalid { context: CTX }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmsg_netsim::engine::Sim;
    use kmsg_netsim::network::Network;
    use kmsg_netsim::packet::NodeId;

    fn nodes() -> (NodeId, NodeId, NodeId) {
        let sim = Sim::new(1);
        let net = Network::new(&sim);
        (net.add_node("a"), net.add_node("b"), net.add_node("c"))
    }

    fn round_trip(h: &NetHeader) -> NetHeader {
        let mut buf = BytesMut::new();
        h.serialise(&mut buf);
        let mut bytes = buf.freeze();
        NetHeader::deserialise(&mut bytes).expect("header round trip")
    }

    #[test]
    fn basic_header_round_trip() {
        let (a, b, _) = nodes();
        let h = NetHeader::Basic(BasicHeader::new(
            NetAddress::new(a, 1000),
            NetAddress::new(b, 2000).with_vnode(VnodeId(7)),
            Transport::Udt,
        ));
        assert_eq!(round_trip(&h), h);
        assert_eq!(h.protocol(), Transport::Udt);
    }

    #[test]
    fn data_header_round_trip_preserves_selection() {
        let (a, b, _) = nodes();
        let mut h = DataHeader::new(NetAddress::new(a, 1), NetAddress::new(b, 2));
        assert_eq!(h.protocol(), Transport::Data);
        h.selected = Some(Transport::Tcp);
        assert_eq!(h.protocol(), Transport::Tcp);
        let wire = round_trip(&NetHeader::Data(h.clone()));
        assert_eq!(wire.protocol(), Transport::Tcp);
    }

    #[test]
    fn routing_header_presents_next_hop() {
        let (a, b, c) = nodes();
        let src = NetAddress::new(a, 1);
        let dst = NetAddress::new(c, 3);
        let mid = NetAddress::new(b, 2);
        let mut h =
            RoutingHeader::with_route(BasicHeader::new(src, dst, Transport::Tcp), vec![mid]);
        assert_eq!(*h.destination(), mid, "route active: next hop");
        assert_eq!(*h.source(), src);
        assert!(h.advance());
        assert_eq!(*h.destination(), dst, "route exhausted: final dst");
        assert!(!h.advance());
    }

    #[test]
    fn routing_header_round_trip() {
        let (a, b, c) = nodes();
        let h = NetHeader::Routing(RoutingHeader::with_route(
            BasicHeader::new(NetAddress::new(a, 1), NetAddress::new(c, 3), Transport::Udp),
            vec![NetAddress::new(b, 2), NetAddress::new(b, 4)],
        ));
        assert_eq!(round_trip(&h), h);
    }

    #[test]
    fn routing_header_ttl_defaults_and_round_trips() {
        let (a, b, c) = nodes();
        let mut h = RoutingHeader::with_route(
            BasicHeader::new(NetAddress::new(a, 1), NetAddress::new(c, 3), Transport::Tcp),
            vec![NetAddress::new(b, 2)],
        );
        assert_eq!(h.ttl, DEFAULT_TTL);
        h.ttl = 3;
        let wire = round_trip(&NetHeader::Routing(h.clone()));
        match wire {
            NetHeader::Routing(r) => assert_eq!(r.ttl, 3),
            other => panic!("expected routing header, got {other:?}"),
        }
    }

    #[test]
    fn truncated_header_rejected() {
        let (a, b, _) = nodes();
        let h = NetHeader::Basic(BasicHeader::new(
            NetAddress::new(a, 1),
            NetAddress::new(b, 2),
            Transport::Tcp,
        ));
        let mut buf = BytesMut::new();
        h.serialise(&mut buf);
        let full = buf.freeze();
        for cut in [0, 1, 5, full.len() - 1] {
            let mut short = full.slice(0..cut);
            assert!(NetHeader::deserialise(&mut short).is_err(), "cut at {cut}");
        }
    }
}
