//! # kmsg-netsim — deterministic discrete-event network simulator
//!
//! The network substrate for the KompicsMessaging reproduction
//! (*Fast and Flexible Networking for Message-oriented Middleware*,
//! ICDCS 2017). It stands in for the paper's Amazon EC2 testbed and the
//! JVM/Netty network stack, providing packet-level models of the three
//! transports the middleware multiplexes:
//!
//! * [`tcp`] — TCP Reno/NewReno with flow control, fast retransmit and RTO;
//! * [`udp`] — plain unreliable datagrams;
//! * [`udt`] — UDT's rate-based DAIMD congestion control over UDP.
//!
//! Everything runs on a virtual clock ([`engine::Sim`]) with named,
//! seeded random streams ([`rng::SeedSource`]), so every experiment is
//! exactly reproducible.
//!
//! # Example: a policed wide-area link
//!
//! ```
//! use kmsg_netsim::engine::Sim;
//! use kmsg_netsim::link::{LinkConfig, PolicerConfig};
//! use kmsg_netsim::network::Network;
//! use std::time::Duration;
//!
//! let sim = Sim::new(42);
//! let net = Network::new(&sim);
//! let eu = net.add_node("ireland");
//! let au = net.add_node("sydney");
//! // 125 MB/s, 160 ms one-way delay (320 ms RTT), EC2-like UDP policer.
//! let cfg = LinkConfig::new(125e6, Duration::from_millis(160))
//!     .udp_policer(PolicerConfig::ec2_udp());
//! net.connect_duplex(eu, au, cfg);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cc;
pub mod engine;
pub mod faults;
pub(crate) mod flowstack;
pub mod iface;
pub mod link;
pub mod memscope;
pub mod network;
pub mod packet;
pub mod pool;
pub mod rng;
pub mod slab;
pub mod stats;
pub mod tcp;
pub mod testutil;
pub mod time;
pub mod trace;
pub mod udp;
pub mod udt;
pub mod wheel;

pub use cc::{CcAlgorithm, CcConfig, CongestionController};
pub use engine::{EventTarget, Sim};
pub use faults::{FaultAction, FaultController, FaultEvent, FaultPlan};
pub use iface::{CloseReason, Connection, ConnectionId, StreamAccept, StreamEvents};
pub use link::{DropReason, GeConfig, LinkConfig, LinkId, PolicerConfig};
pub use network::{BindError, Network, NetworkStats, PacketSink};
pub use packet::{Endpoint, NodeId, WireProtocol};
pub use pool::{PacketHandle, PacketPool};
pub use slab::{FxHashMap, FxHashSet, FxHasher, Handle, Slab};
pub use time::SimTime;
pub use trace::{PacketEvent, PacketRecord, PacketTracer, RecorderTracer};

// Telemetry is part of the simulator's public surface: `Sim::recorder()`
// returns a handle and instrumented code records `EventKind` values.
pub use kmsg_telemetry::{Event, EventKind, Recorder};
