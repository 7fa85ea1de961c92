//! The component's counters: [`MiddlewareStats`] and the supervision
//! summary the delivery oracle reads.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::msg::SendError;

/// Counters exposed by the network component (shared handle, updated
/// inside the component).
#[derive(Debug, Clone, Default)]
pub struct MiddlewareStats {
    /// Messages sent per transport (indexed by `Transport::to_byte`).
    pub sent: [u64; 4],
    /// Messages received from the wire per transport.
    pub(crate) received: [u64; 4],
    /// Messages delivered locally without serialisation (vnode reflection).
    pub local_reflections: u64,
    /// Multi-hop messages forwarded through this host.
    pub forwarded: u64,
    /// Multi-hop messages dropped because their routing TTL hit zero
    /// (malformed or stale route — e.g. a cycle).
    pub ttl_drops: u64,
    /// Bytes written to transports (after framing/compression).
    pub bytes_out: u64,
    /// Bytes received from transports (before decompression).
    pub bytes_in: u64,
    /// Failed sends (all kinds; see `send_failures_by` for the breakdown).
    pub send_failures: u64,
    /// Failed sends broken out by [`SendError`] kind (indexed by
    /// [`SendError::index`]).
    pub(crate) send_failures_by: [u64; SendError::COUNT],
    /// Frames that failed to decode.
    pub decode_failures: u64,
    /// Messages that reached the network layer with an unresolved `DATA`
    /// protocol.
    pub unresolved_data: u64,
    /// Channels opened (outbound connects + inbound accepts).
    pub channels_opened: u64,
    /// Channels closed.
    pub channels_closed: u64,
    /// Redial attempts made by channel supervision.
    pub reconnect_attempts: u64,
    /// Channels successfully re-established by supervision.
    pub reconnects: u64,
    /// Channels whose reconnect budget was exhausted.
    pub channels_dropped: u64,
    /// `DATA` messages rerouted to the surviving transport because the
    /// selected transport's channel was dropped.
    pub failovers: u64,
}

impl MiddlewareStats {
    /// Total messages sent over any transport.
    #[must_use]
    pub fn total_sent(&self) -> u64 {
        self.sent.iter().sum()
    }

    /// Total messages received from the wire.
    #[must_use]
    pub fn total_received(&self) -> u64 {
        self.received.iter().sum()
    }

    /// The failure counter for one [`SendError`] kind.
    #[must_use]
    pub fn send_failures_of(&self, kind: SendError) -> u64 {
        self.send_failures_by[kind.index()]
    }

    /// Counts one failed send of kind `error`.
    pub(super) fn count_failure(&mut self, error: SendError) {
        self.send_failures += 1;
        self.send_failures_by[error.index()] += 1;
    }

    /// The supervision counters bundled for invariant oracles (see
    /// `kmsg-oracle`): how often channels were re-established, how many
    /// redials that took, how many channels exhausted their budget, and
    /// how many `DATA` frames failed over.
    #[must_use]
    pub fn supervision(&self) -> SupervisionSummary {
        SupervisionSummary {
            reconnect_attempts: self.reconnect_attempts,
            reconnects: self.reconnects,
            channels_dropped: self.channels_dropped,
            failovers: self.failovers,
        }
    }
}

/// Supervision counters extracted from [`MiddlewareStats`].
///
/// `episodes()` is the number of at-least-once redelivery opportunities —
/// the bound the delivery oracle multiplies by its per-episode duplicate
/// window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisionSummary {
    /// Redial attempts made by channel supervision.
    pub reconnect_attempts: u64,
    /// Channels successfully re-established.
    pub reconnects: u64,
    /// Channels whose reconnect budget was exhausted.
    pub channels_dropped: u64,
    /// `DATA` messages rerouted to the surviving transport.
    pub failovers: u64,
}

/// A cloneable handle to a component's live statistics.
pub type StatsHandle = Arc<Mutex<MiddlewareStats>>;
