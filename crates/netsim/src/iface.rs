//! Transport-neutral connection interface.
//!
//! TCP and UDT are both reliable, ordered byte streams with very different
//! congestion-control behaviour (the property the paper exploits). The
//! middleware layer talks to either through the same [`Connection`] handle
//! and [`StreamEvents`] callbacks, which is what makes per-message protocol
//! selection possible.

use std::sync::Arc;

use kmsg_telemetry::bytes::Bytes;

use crate::packet::Endpoint;

/// Identifier of a simulated connection, unique within one [`Sim`]'s world.
///
/// Ids come from a per-simulation counter so the same seed assigns the
/// same ids run after run (a process-global counter would leak state from
/// earlier runs into the telemetry stream and break reproducibility).
///
/// [`Sim`]: crate::engine::Sim
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnectionId(u64);

impl ConnectionId {
    pub(crate) fn fresh(world: &mut crate::engine::World) -> Self {
        ConnectionId(world.next_conn_id())
    }

    /// Rebuilds an id from its raw value (for flows stored by raw id in
    /// dense per-stack tables).
    pub(crate) const fn from_raw(raw: u64) -> Self {
        ConnectionId(raw)
    }

    /// Raw numeric value (diagnostics only).
    #[must_use]
    pub(crate) const fn raw(self) -> u64 {
        self.0
    }
}

/// Why a connection ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CloseReason {
    /// Orderly shutdown (both sides finished).
    Normal,
    /// Aborted locally or by the peer.
    Reset,
    /// The transport gave up after repeated timeouts.
    Timeout,
}

/// Callbacks a reliable stream delivers to its owner.
///
/// All callbacks run inside simulation events, never while internal
/// transport locks are held, so implementations may call back into the
/// connection (e.g. [`Connection::send`]) freely.
pub trait StreamEvents: Send + Sync {
    /// The connection finished its handshake and is ready to carry data.
    fn on_connected(&self, conn: &Connection) {
        let _ = conn;
    }

    /// In-order stream data arrived.
    fn on_data(&self, conn: &Connection, data: Bytes) {
        let _ = (conn, data);
    }

    /// Send-buffer space became available after a blocked
    /// [`Connection::send`].
    fn on_writable(&self, conn: &Connection) {
        let _ = conn;
    }

    /// The connection terminated.
    fn on_closed(&self, conn: &Connection, reason: CloseReason) {
        let _ = (conn, reason);
    }
}

/// Decides what to do with connections accepted by a listening socket
/// (TCP or UDT).
pub trait StreamAccept: Send + Sync {
    /// A new inbound connection exists; return the event handler that will
    /// own it.
    fn on_accept(&self, conn: &Connection) -> Arc<dyn StreamEvents>;
}

/// A handle to a reliable, ordered stream connection (TCP or UDT).
///
/// Cloning the handle is cheap and refers to the same connection.
#[derive(Debug, Clone)]
pub enum Connection {
    /// A simulated TCP connection.
    Tcp(crate::tcp::TcpConn),
    /// A simulated UDT connection.
    Udt(crate::udt::UdtConn),
}

/// Evaluates `$body` with `$c` bound to the connection's handle, whichever
/// transport it is.
macro_rules! on_handle {
    ($conn:expr, $c:ident => $body:expr) => {
        match $conn {
            Connection::Tcp($c) => $body,
            Connection::Udt($c) => $body,
        }
    };
}

impl Connection {
    /// The connection's globally unique id.
    #[must_use]
    pub fn id(&self) -> ConnectionId {
        on_handle!(self, c => c.id())
    }

    /// The remote endpoint.
    #[must_use]
    pub fn peer(&self) -> Endpoint {
        on_handle!(self, c => c.peer())
    }

    /// Appends bytes to the send buffer, returning how many were accepted.
    ///
    /// A short (or zero) return means the buffer is full; the owner will get
    /// [`StreamEvents::on_writable`] once space frees up.
    pub fn send(&self, data: Bytes) -> usize {
        on_handle!(self, c => c.send(data))
    }

    /// Free space in the send buffer, in bytes.
    #[must_use]
    pub fn free_send_buffer(&self) -> usize {
        on_handle!(self, c => c.free_send_buffer())
    }

    /// Cumulative payload bytes acknowledged by the peer.
    #[must_use]
    pub fn acked_bytes(&self) -> u64 {
        on_handle!(self, c => c.acked_bytes())
    }

    /// Initiates an orderly close after all buffered data is delivered.
    pub fn close(&self) {
        on_handle!(self, c => c.close())
    }

    /// Whether the connection has completed its handshake and not closed.
    #[must_use]
    pub fn is_established(&self) -> bool {
        on_handle!(self, c => c.is_established())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connection_ids_are_unique_and_reproducible() {
        let sim = crate::engine::Sim::new(1);
        let a = ConnectionId::fresh(&mut sim.lock());
        let b = ConnectionId::fresh(&mut sim.lock());
        assert_ne!(a, b);
        assert!(b.raw() > a.raw());
        // A fresh simulation restarts the counter: same seed, same ids.
        let sim2 = crate::engine::Sim::new(1);
        assert_eq!(ConnectionId::fresh(&mut sim2.lock()), a);
    }
}

#[cfg(test)]
mod send_sync_tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}
    fn assert_send<T: Send>() {}

    #[test]
    fn public_types_are_send_sync() {
        assert_send_sync::<crate::engine::Sim>();
        assert_send_sync::<crate::network::Network>();
        assert_send::<Connection>();
        assert_send::<crate::tcp::TcpConn>();
        assert_send::<crate::udt::UdtConn>();
        assert_send::<crate::udp::UdpSocket>();
        assert_send_sync::<crate::link::Link>();
        assert_send_sync::<crate::trace::RecorderTracer>();
        assert_send_sync::<ConnectionId>();
        assert_send_sync::<crate::time::SimTime>();
    }
}
