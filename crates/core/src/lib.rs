//! # kmsg-core — KompicsMessaging in Rust
//!
//! A reproduction of the messaging middleware from *Fast and Flexible
//! Networking for Message-oriented Middleware* (Kroll, Ormenisan,
//! Dowling — ICDCS 2017): a message-oriented middleware for the Kompics
//! component model that offers **per-message transport protocol
//! selection** among UDP, TCP and UDT, plus an adaptive `DATA`
//! meta-protocol that shifts traffic between TCP and UDT with an online
//! reinforcement learner.
//!
//! ## Architecture
//!
//! ```text
//!  application components
//!        │  NetworkPort (Msg / MessageNotify)
//!        ▼
//!  DataNetworkComponent        -- §IV: queues DATA streams, adaptive
//!        │                        release, PSP (random/pattern) picks
//!        │                        TCP/UDT per message, PRP (static/TD(λ))
//!        │                        picks the target ratio per episode
//!        ▼
//!  NetworkComponent            -- §III: per-message dispatch, lazy
//!        │                        channels, same-host reflection,
//!        │                        multi-hop routing, MessageNotify
//!        ▼
//!  kmsg-netsim transports      -- packet-level TCP / UDP / UDT
//! ```
//!
//! Messages carry a [`header::NetHeader`] naming source, destination and
//! the requested [`transport::Transport`]; the network component ensures
//! the needed channels exist, queues messages until they do, and keeps
//! them open ("conservative teardown"). Messages between virtual nodes of
//! the same host are *reflected* without serialisation (`vnet`).
//!
//! # Example: a message envelope, end to end through the wire format
//!
//! ```
//! use kmsg_core::prelude::*;
//! use kmsg_core::net::frame::{encode_frame, decode_frame_body, Compression, FrameDecoder};
//! use kmsg_netsim::{engine::Sim, network::Network};
//!
//! // Addresses name simulated hosts.
//! let sim = Sim::new(1);
//! let net = Network::new(&sim);
//! let alice = NetAddress::new(net.add_node("alice"), 7000);
//! let bob = NetAddress::new(net.add_node("bob"), 7000).with_vnode(VnodeId(3));
//!
//! // A typed message: the payload is NOT serialised until it must cross
//! // the wire (same-host vnode traffic never is).
//! let msg = NetMessage::new(alice, bob, Transport::Udt, "hello".to_string());
//! assert!(!msg.is_from_wire());
//!
//! // The network component would frame it like this:
//! let frame = encode_frame(&msg, Compression::default())?;
//! let mut decoder = FrameDecoder::new();
//! decoder.feed(&frame);
//! let body = decoder.next_frame()?.expect("one frame");
//! let received = decode_frame_body(body)?;
//! assert!(received.is_from_wire());
//! assert_eq!(received.header().protocol(), Transport::Udt);
//! assert_eq!(received.header().destination().vnode(), Some(VnodeId(3)));
//! assert_eq!(received.try_deserialise::<String, String>()?, "hello");
//! # Ok::<(), kmsg_core::SerError>(())
//! ```
//!
//! See the crate-level tests and the repository's `examples/` for
//! runnable end-to-end scenarios.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![deny(unconditional_recursion)]

mod address;
pub mod codec;
pub mod data;
pub mod header;
mod msg;
pub mod net;
pub mod ser;
mod transport;
mod vnet;

pub use address::NetAddress;
pub use msg::NetMessage;
pub use net::{MiddlewareStats, NetworkConfig};
pub use ser::{SerError, SerRegistry};
pub use transport::Transport;

/// Common imports for middleware users.
pub mod prelude {
    pub use crate::address::{Address, NetAddress, VnodeId};
    pub use crate::data::{
        create_data_network, DataNetworkComponent, DataNetworkConfig, PatternKind, PrpKind,
        PspKind, Ratio,
    };
    pub use crate::header::{
        BasicHeader, DataHeader, Header, NetHeader, RoutingHeader, DEFAULT_TTL,
    };
    pub use crate::msg::{
        ChannelStatus, ConnStatus, DeliveryStatus, Msg, NetIndication, NetMessage, NetRequest,
        NetworkPort, NotifyToken, SendError,
    };
    pub use crate::net::{
        create_network, MiddlewareStats, NetworkComponent, NetworkConfig, ReconnectConfig,
        StatsHandle,
    };
    pub use crate::ser::{Deserialiser, SerError, SerId, SerRegistry, Serialisable};
    pub use crate::transport::Transport;
    pub use crate::vnet::connect_vnode;
}
