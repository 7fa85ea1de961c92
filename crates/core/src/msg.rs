//! Network messages and the network port.
//!
//! [`NetMessage`] is the envelope travelling through the
//! [`NetworkPort`]: a [`NetHeader`] plus a payload that is either still
//! *typed* (created locally, never serialised — the virtual-node
//! reflection case of §III-B) or raw *bytes* with a [`SerId`] (arrived
//! from the wire). [`NetMessage::try_deserialise`] recovers the value in
//! both cases, so receiving components are agnostic to whether a message
//! crossed the network.
//!
//! Delivery notifications mirror the paper's `MessageNotify.Req/Resp`
//! (listing 1): a request wraps the message with a token; the network
//! component answers with the token and a [`DeliveryStatus`]. Without a
//! notification request, messages are fire-and-forget with **at-most-once**
//! semantics.

use std::sync::Arc;

use bytes::Bytes;

use kmsg_component::port::Port;

use crate::address::{NetAddress, VnodeId};
use crate::header::{BasicHeader, NetHeader};
use crate::ser::{Deserialiser, SerError, SerId, Serialisable};
use crate::transport::Transport;

/// Anything with a header (the paper's `Msg` interface, listing 2).
pub trait Msg {
    /// The header type.
    type H;
    /// Read access to the header.
    fn header(&self) -> &Self::H;
}

#[derive(Debug, Clone)]
enum MsgData {
    /// Created locally; serialised only if it actually leaves the host.
    Typed(Arc<dyn Serialisable>),
    /// Arrived from the wire.
    Ser(SerId, Bytes),
}

/// The message envelope carried by the [`NetworkPort`].
#[derive(Debug, Clone)]
pub struct NetMessage {
    header: NetHeader,
    data: MsgData,
}

impl Msg for NetMessage {
    type H = NetHeader;

    fn header(&self) -> &NetHeader {
        &self.header
    }
}

impl NetMessage {
    /// Wraps a typed value with a basic header.
    #[must_use]
    pub fn new(
        src: NetAddress,
        dst: NetAddress,
        proto: Transport,
        value: impl Serialisable,
    ) -> Self {
        NetMessage {
            header: NetHeader::Basic(BasicHeader::new(src, dst, proto)),
            data: MsgData::Typed(Arc::new(value)),
        }
    }

    /// Wraps a typed value with an arbitrary header.
    #[must_use]
    pub fn with_header(header: NetHeader, value: impl Serialisable) -> Self {
        NetMessage {
            header,
            data: MsgData::Typed(Arc::new(value)),
        }
    }

    /// Rebuilds a message from wire bytes (network layer use).
    #[must_use]
    pub fn from_wire(header: NetHeader, ser_id: SerId, payload: Bytes) -> Self {
        NetMessage {
            header,
            data: MsgData::Ser(ser_id, payload),
        }
    }

    /// The header.
    #[must_use]
    pub fn header(&self) -> &NetHeader {
        &self.header
    }

    /// Mutable header access (interceptors rewrite the protocol; routers
    /// advance the route).
    pub fn header_mut(&mut self) -> &mut NetHeader {
        &mut self.header
    }

    /// The payload's serialiser id.
    #[must_use]
    pub fn ser_id(&self) -> SerId {
        match &self.data {
            MsgData::Typed(v) => v.ser_id(),
            MsgData::Ser(id, _) => *id,
        }
    }

    /// Whether the payload crossed the wire (false ⇒ locally reflected).
    #[must_use]
    pub fn is_from_wire(&self) -> bool {
        matches!(self.data, MsgData::Ser(..))
    }

    /// Recovers the payload value.
    ///
    /// For locally-delivered messages this is a cheap downcast (no bytes
    /// were ever produced); for wire messages the registered deserialiser
    /// runs.
    ///
    /// # Errors
    ///
    /// [`SerError::WrongType`] / [`SerError::WrongSerId`] if the payload is
    /// of a different type, or any deserialisation error.
    pub fn try_deserialise<T, D>(&self) -> Result<T, SerError>
    where
        T: Clone + 'static,
        D: Deserialiser<T>,
    {
        match &self.data {
            MsgData::Typed(v) => v
                .as_any()
                .downcast_ref::<T>()
                .cloned()
                .ok_or(SerError::WrongType),
            MsgData::Ser(id, bytes) => {
                if *id != D::SER_ID {
                    return Err(SerError::WrongSerId {
                        found: *id,
                        expected: D::SER_ID,
                    });
                }
                let mut cursor = bytes.clone();
                D::deserialise(&mut cursor)
            }
        }
    }

    /// Serialises the payload for the wire (network layer use).
    ///
    /// # Errors
    ///
    /// Propagates the payload serialiser's failure.
    pub fn payload_to_bytes(&self) -> Result<(SerId, Bytes), SerError> {
        match &self.data {
            MsgData::Typed(v) => {
                let mut buf = bytes::BytesMut::with_capacity(v.size_hint().unwrap_or(64));
                v.serialise(&mut buf)?;
                Ok((v.ser_id(), buf.freeze()))
            }
            MsgData::Ser(id, bytes) => Ok((*id, bytes.clone())),
        }
    }

    /// Serialises the payload onto the end of `buf` — a frame is written
    /// straight into its own buffer.
    pub(crate) fn serialise_payload(&self, buf: &mut bytes::BytesMut) -> Result<(), SerError> {
        match &self.data {
            MsgData::Typed(v) => v.serialise(buf),
            MsgData::Ser(_, bytes) => {
                buf.extend_from_slice(bytes);
                Ok(())
            }
        }
    }

    /// Approximate payload size in bytes (for queue accounting before
    /// serialisation happens).
    #[must_use]
    pub fn payload_size_estimate(&self) -> usize {
        match &self.data {
            MsgData::Typed(v) => v.size_hint().unwrap_or(64),
            MsgData::Ser(_, bytes) => bytes.len(),
        }
    }
}

/// Correlates a `MessageNotify` request with its response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NotifyToken {
    /// The requesting virtual node, if any (lets vnode channels route the
    /// response back to the right subtree).
    pub vnode: Option<VnodeId>,
    /// Caller-chosen correlation id.
    pub id: u64,
}

impl NotifyToken {
    /// A token without vnode scoping.
    #[must_use]
    pub fn new(id: u64) -> Self {
        NotifyToken { vnode: None, id }
    }

    /// A token scoped to a virtual node.
    #[must_use]
    pub fn for_vnode(vnode: VnodeId, id: u64) -> Self {
        NotifyToken {
            vnode: Some(vnode),
            id,
        }
    }
}

/// Why a send failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The message exceeds UDP's datagram limit.
    TooLargeForUdp,
    /// The connection died before the message was written.
    ChannelClosed,
    /// No route/listener reachable (connect failed).
    Unreachable,
    /// The payload failed to serialise.
    Serialisation,
    /// `Transport::Data` reached the network component without an
    /// interceptor having resolved it.
    UnresolvedDataProtocol,
    /// Channel supervision exhausted its reconnect budget with this
    /// message still queued or unacknowledged.
    RetryBudgetExhausted,
}

impl SendError {
    /// Number of variants (sizes per-kind counter arrays).
    pub const COUNT: usize = 6;

    /// Stable snake_case label for stats/telemetry output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SendError::TooLargeForUdp => "too_large_for_udp",
            SendError::ChannelClosed => "channel_closed",
            SendError::Unreachable => "unreachable",
            SendError::Serialisation => "serialisation",
            SendError::UnresolvedDataProtocol => "unresolved_data_protocol",
            SendError::RetryBudgetExhausted => "retry_budget_exhausted",
        }
    }

    /// Stable index into per-kind counter arrays (declaration order).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            SendError::TooLargeForUdp => 0,
            SendError::ChannelClosed => 1,
            SendError::Unreachable => 2,
            SendError::Serialisation => 3,
            SendError::UnresolvedDataProtocol => 4,
            SendError::RetryBudgetExhausted => 5,
        }
    }

    /// All variants, in index order.
    pub const ALL: [SendError; SendError::COUNT] = [
        SendError::TooLargeForUdp,
        SendError::ChannelClosed,
        SendError::Unreachable,
        SendError::Serialisation,
        SendError::UnresolvedDataProtocol,
        SendError::RetryBudgetExhausted,
    ];
}

/// Outcome reported for a notification request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryStatus {
    /// Fully handed to the transport; a reliable transport will deliver it
    /// unless the connection dies.
    Sent,
    /// Delivered locally without serialisation (same-host reflection).
    DeliveredLocally,
    /// The send failed.
    Failed(SendError),
}

impl DeliveryStatus {
    /// Whether the message was sent or delivered.
    #[must_use]
    pub fn is_success(&self) -> bool {
        !matches!(self, DeliveryStatus::Failed(_))
    }
}

/// Requests travelling *to* the network component.
#[derive(Debug, Clone)]
pub enum NetRequest {
    /// Fire-and-forget send.
    Msg(NetMessage),
    /// Send with delivery notification (the paper's `MessageNotify.Req`).
    NotifyReq(NotifyToken, NetMessage),
}

impl NetRequest {
    /// The message inside the request.
    #[must_use]
    pub fn message(&self) -> &NetMessage {
        match self {
            NetRequest::Msg(m) | NetRequest::NotifyReq(_, m) => m,
        }
    }
}

/// Channel status transitions reported by the network component's
/// supervisor, so components above can observe outages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnStatus {
    /// The channel closed unexpectedly; the supervisor is redialling.
    ConnectionLost,
    /// A redial succeeded after `attempts` tries; queued frames are being
    /// re-sent (at-least-once — the session layer deduplicates).
    ConnectionRestored {
        /// Reconnect attempts it took to restore the channel.
        attempts: u32,
    },
    /// The reconnect budget is exhausted; queued frames were failed. The
    /// supervisor keeps probing and reports `ConnectionRestored` on
    /// recovery.
    ConnectionDropped,
}

impl ConnStatus {
    /// Stable snake_case label for telemetry output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ConnStatus::ConnectionLost => "lost",
            ConnStatus::ConnectionRestored { .. } => "restored",
            ConnStatus::ConnectionDropped => "dropped",
        }
    }
}

/// A [`ConnStatus`] transition together with the channel it happened on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelStatus {
    /// The remote peer of the supervised channel.
    pub peer: NetAddress,
    /// The channel's transport.
    pub transport: Transport,
    /// What happened.
    pub status: ConnStatus,
}

/// Indications travelling *from* the network component.
#[derive(Debug, Clone)]
pub enum NetIndication {
    /// An inbound message.
    Msg(NetMessage),
    /// Answer to a notification request (the paper's
    /// `MessageNotify.Resp`).
    NotifyResp(NotifyToken, DeliveryStatus),
    /// A supervised channel changed status (outage observed, reconnect
    /// succeeded, or the supervisor gave up).
    Status(ChannelStatus),
}

/// Kompics' network port (listing 1): messages travel in both directions;
/// notification requests travel up, responses travel down.
#[derive(Debug, Clone, Copy)]
pub struct NetworkPort;

impl Port for NetworkPort {
    type Request = NetRequest;
    type Indication = NetIndication;
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmsg_netsim::engine::Sim;
    use kmsg_netsim::network::Network;
    use kmsg_netsim::packet::NodeId;

    fn nodes() -> (NodeId, NodeId) {
        let sim = Sim::new(1);
        let net = Network::new(&sim);
        (net.add_node("a"), net.add_node("b"))
    }

    fn msg(proto: Transport) -> NetMessage {
        let (a, b) = nodes();
        NetMessage::new(
            NetAddress::new(a, 1),
            NetAddress::new(b, 2),
            proto,
            "payload".to_string(),
        )
    }

    #[test]
    fn typed_message_downcasts_without_serialisation() {
        let m = msg(Transport::Tcp);
        assert!(!m.is_from_wire());
        let s: String = m.try_deserialise::<String, String>().expect("downcast");
        assert_eq!(s, "payload");
        // Wrong type is an error, not a panic.
        assert_eq!(
            m.try_deserialise::<u64, u64>(),
            Err(SerError::WrongType)
        );
    }

    #[test]
    fn wire_round_trip() {
        let m = msg(Transport::Udt);
        let (id, bytes) = m.payload_to_bytes().expect("serialise");
        let wire = NetMessage::from_wire(m.header().clone(), id, bytes);
        assert!(wire.is_from_wire());
        let s: String = wire.try_deserialise::<String, String>().expect("deser");
        assert_eq!(s, "payload");
        assert_eq!(
            wire.try_deserialise::<u64, u64>(),
            Err(SerError::WrongSerId {
                found: SerId(2),
                expected: SerId(3)
            })
        );
    }

    #[test]
    fn notify_token_builders() {
        assert_eq!(NotifyToken::new(5).vnode, None);
        assert_eq!(
            NotifyToken::for_vnode(VnodeId(2), 5).vnode,
            Some(VnodeId(2))
        );
    }

    #[test]
    fn delivery_status_success() {
        assert!(DeliveryStatus::Sent.is_success());
        assert!(DeliveryStatus::DeliveredLocally.is_success());
        assert!(!DeliveryStatus::Failed(SendError::ChannelClosed).is_success());
    }

    #[test]
    fn request_exposes_message() {
        let m = msg(Transport::Tcp);
        let r = NetRequest::NotifyReq(NotifyToken::new(1), m.clone());
        assert_eq!(r.message().ser_id(), m.ser_id());
    }

    #[test]
    fn msg_trait_view() {
        let m = msg(Transport::Tcp);
        let h: &NetHeader = Msg::header(&m);
        assert_eq!(h.protocol(), Transport::Tcp);
    }
}
