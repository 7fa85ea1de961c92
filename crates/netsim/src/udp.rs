//! Simulated UDP sockets: unreliable, unordered datagrams.
//!
//! UDP keeps none of TCP/UDT's guarantees — the middleware exposes that
//! trade-off deliberately ("adding these semantics would defeat the point of
//! having a lightweight protocol like UDP available in the first place").

use std::fmt;
use std::sync::Arc;

use kmsg_telemetry::bytes::Bytes;

use crate::network::{BindError, Network, PacketSink};
use crate::packet::{Endpoint, NodeId, Packet, PacketBody, WireProtocol};

/// Maximum UDP datagram payload (IPv4 limit minus headers).
pub const MAX_DATAGRAM: usize = 65_507;

/// Callbacks for a UDP socket.
pub trait UdpEvents: Send + Sync {
    /// A datagram arrived from `src`.
    fn on_datagram(&self, socket: &UdpSocket, src: Endpoint, data: Bytes);
}

struct UdpShared {
    net: Network,
    local: Endpoint,
    events: Arc<dyn UdpEvents>,
}

/// A bound UDP socket.
#[derive(Clone)]
pub struct UdpSocket {
    shared: Arc<UdpShared>,
}

impl fmt::Debug for UdpSocket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UdpSocket")
            .field("local", &self.shared.local)
            .finish()
    }
}

struct UdpSink {
    shared: std::sync::Weak<UdpShared>,
}

impl PacketSink for UdpSink {
    fn on_packet(&self, _net: &Network, pkt: Packet) {
        let Some(shared) = self.shared.upgrade() else {
            return;
        };
        if let PacketBody::Udp(data) = pkt.body {
            let socket = UdpSocket {
                shared: shared.clone(),
            };
            shared.events.on_datagram(&socket, pkt.src, data);
        }
    }
}

/// Error when sending a datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UdpSendError {
    /// Payload exceeds [`MAX_DATAGRAM`].
    TooLarge {
        /// Offending payload size.
        size: usize,
    },
}

impl fmt::Display for UdpSendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UdpSendError::TooLarge { size } => {
                write!(
                    f,
                    "datagram of {size} bytes exceeds the {MAX_DATAGRAM} byte limit"
                )
            }
        }
    }
}

impl std::error::Error for UdpSendError {}

impl UdpSocket {
    /// Binds a UDP socket on `node`/`port`.
    ///
    /// # Errors
    ///
    /// Returns [`BindError`] if the port is taken.
    pub fn bind(
        net: &Network,
        node: NodeId,
        port: u16,
        events: Arc<dyn UdpEvents>,
    ) -> Result<UdpSocket, BindError> {
        let shared = Arc::new(UdpShared {
            net: net.clone(),
            local: Endpoint::new(node, port),
            events,
        });
        let sink = Arc::new(UdpSink {
            shared: Arc::downgrade(&shared),
        });
        net.bind(node, WireProtocol::Udp, port, sink)?;
        Ok(UdpSocket { shared })
    }

    /// Sends a datagram to `dst`. Fire and forget: delivery is not
    /// guaranteed and datagrams may be reordered across routes.
    ///
    /// # Errors
    ///
    /// Returns [`UdpSendError::TooLarge`] if `data` exceeds
    /// [`MAX_DATAGRAM`].
    pub fn send_to(&self, dst: Endpoint, data: Bytes) -> Result<(), UdpSendError> {
        if data.len() > MAX_DATAGRAM {
            return Err(UdpSendError::TooLarge { size: data.len() });
        }
        let pkt = Packet::new(
            self.shared.local,
            dst,
            WireProtocol::Udp,
            data.len(),
            PacketBody::Udp(data),
        );
        self.shared.net.send_packet(pkt);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Sim;
    use crate::link::LinkConfig;
    use crate::time::SimTime;
    use parking_lot::Mutex;
    use std::time::Duration;

    struct Collect(Mutex<Vec<(Endpoint, Bytes)>>);
    impl UdpEvents for Collect {
        fn on_datagram(&self, _s: &UdpSocket, src: Endpoint, data: Bytes) {
            self.0.lock().push((src, data));
        }
    }

    fn setup() -> (Sim, Network, NodeId, NodeId) {
        let sim = Sim::new(3);
        let net = Network::new(&sim);
        let a = net.add_node("a");
        let b = net.add_node("b");
        net.connect_duplex(a, b, LinkConfig::new(10e6, Duration::from_millis(1)));
        (sim, net, a, b)
    }

    #[test]
    fn datagram_round_trip() {
        let (sim, net, a, b) = setup();
        let rx = Arc::new(Collect(Mutex::new(Vec::new())));
        let _sock_b = UdpSocket::bind(&net, b, 9000, rx.clone()).unwrap();
        let sock_a =
            UdpSocket::bind(&net, a, 9001, Arc::new(Collect(Mutex::new(Vec::new())))).unwrap();
        sock_a
            .send_to(Endpoint::new(b, 9000), Bytes::from_static(b"hello"))
            .unwrap();
        sim.run_until(SimTime::from_secs(1));
        let got = rx.0.lock();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, Endpoint::new(a, 9001));
        assert_eq!(&got[0].1[..], b"hello");
    }

    #[test]
    fn oversized_datagram_rejected() {
        let (_sim, net, a, _b) = setup();
        let sock =
            UdpSocket::bind(&net, a, 9000, Arc::new(Collect(Mutex::new(Vec::new())))).unwrap();
        let big = Bytes::from(vec![0u8; MAX_DATAGRAM + 1]);
        let err = sock.send_to(Endpoint::new(a, 9000), big).unwrap_err();
        assert!(matches!(err, UdpSendError::TooLarge { .. }));
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn lossy_link_drops_datagrams() {
        let sim = Sim::new(5);
        let net = Network::new(&sim);
        let a = net.add_node("a");
        let b = net.add_node("b");
        net.connect_duplex(
            a,
            b,
            LinkConfig::new(100e6, Duration::from_micros(10)).random_loss(0.5),
        );
        let rx = Arc::new(Collect(Mutex::new(Vec::new())));
        let _sock_b = UdpSocket::bind(&net, b, 9000, rx.clone()).unwrap();
        let sock_a =
            UdpSocket::bind(&net, a, 9001, Arc::new(Collect(Mutex::new(Vec::new())))).unwrap();
        for _ in 0..200 {
            sock_a
                .send_to(Endpoint::new(b, 9000), Bytes::from_static(b"x"))
                .unwrap();
        }
        sim.run_until(SimTime::from_secs(1));
        let n = rx.0.lock().len();
        assert!(n > 50 && n < 150, "delivered {n} of 200 at 50% loss");
    }

    #[test]
    fn unbind_stops_delivery() {
        let (sim, net, a, b) = setup();
        let rx = Arc::new(Collect(Mutex::new(Vec::new())));
        let _sock_b = UdpSocket::bind(&net, b, 9000, rx.clone()).unwrap();
        let sock_a =
            UdpSocket::bind(&net, a, 9001, Arc::new(Collect(Mutex::new(Vec::new())))).unwrap();
        net.sim().lock().net.unbind(b, WireProtocol::Udp, 9000);
        sock_a
            .send_to(Endpoint::new(b, 9000), Bytes::from_static(b"x"))
            .unwrap();
        sim.run_until(SimTime::from_secs(1));
        assert!(rx.0.lock().is_empty());
        assert_eq!(net.stats().dropped_no_sink, 1);
    }
}
