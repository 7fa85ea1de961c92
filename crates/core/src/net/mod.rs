//! The network component — the reproduction's analog of the paper's
//! `NettyNetwork` (§III).
//!
//! One [`NetworkComponent`] instance provides Kompics' network port
//! ([`NetworkPort`]) and manages all transport
//! channels of one listen address:
//!
//! * per-message protocol dispatch: each [`NetMessage`]'s header names the
//!   transport it should travel over (UDP, TCP, UDT — or `DATA`, resolved
//!   upstream by the interceptor);
//! * lazy channel establishment: the first message to a `(peer, protocol)`
//!   pair opens the channel and is queued until it is up;
//! * conservative channel teardown: channels stay open unless an idle
//!   timeout is explicitly configured ("channel establishment might be
//!   expensive … generally channels will be kept open as long as
//!   possible");
//! * same-host reflection: messages whose destination shares this
//!   component's socket (virtual nodes) are delivered back up the port
//!   without ever being serialised;
//! * multi-hop forwarding for [`RoutingHeader`](crate::header::RoutingHeader)
//!   messages;
//! * delivery notifications (`MessageNotify`).

pub mod frame;

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use kmsg_component::prelude::*;
use kmsg_netsim::iface::{CloseReason, Connection, ConnectionId, StreamAccept, StreamEvents};
use kmsg_netsim::network::{BindError, Network};
use kmsg_netsim::packet::Endpoint;
use kmsg_netsim::tcp::{TcpConfig, TcpConn, TcpListener};
use kmsg_netsim::udp::{UdpEvents, UdpSocket, MAX_DATAGRAM};
use kmsg_netsim::udt::{UdtConfig, UdtConn, UdtListener};

use kmsg_netsim::rng::RngStream;
use kmsg_telemetry::{EventKind, SpanId, SpanKind, Tracer};
use rand::Rng;

use crate::address::{Address, NetAddress};
use crate::header::{Header, NetHeader};
use crate::msg::{
    ChannelStatus, ConnStatus, DeliveryStatus, NetIndication, NetMessage, NetRequest,
    NetworkPort, NotifyToken, SendError,
};
use crate::transport::Transport;
use frame::{decode_frame_body, encode_frame, Compression, FrameDecoder};

/// Channel supervision tuning: reconnect with exponential backoff and
/// deterministic jitter, within a bounded retry budget (DESIGN.md §9).
#[derive(Debug, Clone, PartialEq)]
pub struct ReconnectConfig {
    /// Redial attempts before the supervisor gives up and fails the
    /// channel's queued frames.
    pub max_retries: u32,
    /// Backoff before the first redial; doubles per attempt.
    pub base_backoff: std::time::Duration,
    /// Backoff ceiling.
    pub max_backoff: std::time::Duration,
    /// After the budget is exhausted, keep probing the peer at this
    /// interval so the channel can recover; `None` leaves the channel
    /// dropped until the component restarts.
    pub probe_interval: Option<std::time::Duration>,
}

impl Default for ReconnectConfig {
    fn default() -> Self {
        ReconnectConfig {
            max_retries: 8,
            base_backoff: std::time::Duration::from_millis(200),
            max_backoff: std::time::Duration::from_secs(10),
            probe_interval: Some(std::time::Duration::from_secs(5)),
        }
    }
}

impl ReconnectConfig {
    /// The deterministic backoff before redial `attempt` (1-based):
    /// `min(base · 2^(attempt-1), max) · u`, with `u` drawn uniformly from
    /// `[0.75, 1.25)` out of the component's seeded jitter stream.
    fn backoff(&self, attempt: u32, rng: &mut RngStream) -> std::time::Duration {
        let exp = attempt.saturating_sub(1).min(20);
        let raw = self
            .base_backoff
            .saturating_mul(1u32 << exp)
            .min(self.max_backoff);
        let jitter: f64 = 0.75 + 0.5 * rng.gen::<f64>();
        std::time::Duration::from_secs_f64(raw.as_secs_f64() * jitter)
    }
}

/// Configuration of a [`NetworkComponent`].
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// The listen address; the same port number is bound for TCP, UDP and
    /// UDT (they live in separate port spaces).
    pub addr: NetAddress,
    /// TCP tuning.
    pub tcp: TcpConfig,
    /// UDT tuning (the paper raises the protocol buffers to 100 MB).
    pub udt: UdtConfig,
    /// Outbound payload compression (Snappy stand-in).
    pub compression: Compression,
    /// What to do when a message still marked [`Transport::Data`] reaches
    /// the network layer (i.e. no interceptor resolved it): fall back to
    /// this transport, or fail the send if `None`.
    pub data_fallback: Option<Transport>,
    /// Close channels idle for this long; `None` (default) keeps channels
    /// open for the lifetime of the component.
    pub idle_timeout: Option<std::time::Duration>,
    /// Channel supervision: on an unexpected close, keep the channel entry,
    /// requeue unacknowledged frames and redial with backoff. `None`
    /// restores the legacy at-most-once behaviour (queued and unacked
    /// frames fail immediately with [`SendError::ChannelClosed`]).
    pub reconnect: Option<ReconnectConfig>,
    /// Per-destination congestion-controller overrides, consulted on
    /// every TCP dial (and redial). Shared: the experiment driver or a
    /// learner holds the same [`StackPolicy`] and steers controllers at
    /// runtime via [`NetworkComponent::swap_controller`].
    pub stack: Arc<crate::data::stack::StackPolicy>,
}

impl NetworkConfig {
    /// A configuration listening on `addr` with default transports.
    #[must_use]
    pub fn new(addr: NetAddress) -> Self {
        NetworkConfig {
            addr,
            tcp: TcpConfig::default(),
            udt: UdtConfig::default(),
            compression: Compression::default(),
            data_fallback: Some(Transport::Tcp),
            idle_timeout: None,
            reconnect: Some(ReconnectConfig::default()),
            stack: Arc::new(crate::data::stack::StackPolicy::new()),
        }
    }
}

/// Counters exposed by the network component (shared handle, updated
/// inside the component).
#[derive(Debug, Clone, Default)]
pub struct MiddlewareStats {
    /// Messages sent per transport (indexed by `Transport::to_byte`).
    pub sent: [u64; 4],
    /// Messages received from the wire per transport.
    pub received: [u64; 4],
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
    pub send_failures_by: [u64; SendError::COUNT],
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
    /// Live TCP channels recycled onto a different congestion controller
    /// by [`NetworkComponent::swap_controller`].
    pub controller_swaps: u64,
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
            controller_swaps: self.controller_swaps,
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
    /// Live channels recycled onto a different congestion controller.
    pub controller_swaps: u64,
}

impl SupervisionSummary {
    /// Supervision episodes that may each re-deliver in-flight frames.
    #[must_use]
    pub fn episodes(&self) -> u64 {
        self.reconnects + self.channels_dropped + self.failovers + self.controller_swaps
    }

    /// Whether the run saw any supervision activity at all.
    #[must_use]
    pub fn calm(&self) -> bool {
        self.episodes() == 0 && self.reconnect_attempts == 0
    }
}

/// A cloneable handle to a component's live statistics.
pub type StatsHandle = Arc<Mutex<MiddlewareStats>>;

/// Events flowing from the transport callbacks into the component.
#[derive(Debug, Clone)]
pub enum NetEvent {
    /// An outbound connection finished its handshake.
    Connected(ConnectionId),
    /// An inbound connection was accepted.
    Accepted(Connection),
    /// Stream bytes arrived.
    Data(ConnectionId, Bytes),
    /// Send-buffer space became available.
    Writable(ConnectionId),
    /// A connection ended.
    Closed(ConnectionId, CloseReason),
    /// A UDP datagram arrived.
    Datagram(Endpoint, Bytes),
}

/// Forwards transport callbacks into the component's self-port.
struct ConnForwarder {
    events: SelfRef<NetEvent>,
}

impl StreamEvents for ConnForwarder {
    fn on_connected(&self, conn: &Connection) {
        self.events.push(NetEvent::Connected(conn.id()));
    }

    fn on_data(&self, conn: &Connection, data: Bytes) {
        self.events.push(NetEvent::Data(conn.id(), data));
    }

    fn on_writable(&self, conn: &Connection) {
        self.events.push(NetEvent::Writable(conn.id()));
    }

    fn on_closed(&self, conn: &Connection, reason: CloseReason) {
        self.events.push(NetEvent::Closed(conn.id(), reason));
    }
}

struct AcceptForwarder {
    events: SelfRef<NetEvent>,
}

impl StreamAccept for AcceptForwarder {
    fn on_accept(&self, conn: &Connection) -> Arc<dyn StreamEvents> {
        self.events.push(NetEvent::Accepted(conn.clone()));
        Arc::new(ConnForwarder {
            events: self.events.clone(),
        })
    }
}

struct UdpForwarder {
    events: SelfRef<NetEvent>,
}

impl UdpEvents for UdpForwarder {
    fn on_datagram(&self, _socket: &UdpSocket, src: Endpoint, data: Bytes) {
        self.events.push(NetEvent::Datagram(src, data));
    }
}

/// Key of a transport channel: remote socket plus stream transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ChannelKey {
    remote: Endpoint,
    transport: Transport,
}

/// Span close key: the covered work failed (send error, channel death,
/// retry budget exhausted).
const SPAN_FAILED: u64 = 1;

/// Packs an endpoint into a span correlation key — the same
/// `node_index << 16 | port` encoding `ConnStatus` events use for `peer`.
fn peer_key(ep: Endpoint) -> u64 {
    (u64::from(ep.node.index()) << 16) | u64::from(ep.port)
}

/// Span key of one supervised channel: transport byte above the peer key.
fn channel_span_key(key: ChannelKey) -> u64 {
    (u64::from(key.transport.to_byte()) << 48) | peer_key(key.remote)
}

struct OutFrame {
    bytes: Bytes,
    written: usize,
    notify: Option<NotifyToken>,
    /// Raw id of the message's `msg` root span (0 when tracing is off).
    msg_span: u64,
    /// Raw id of the open `enqueue` span covering this frame's wait in the
    /// pending queue.
    enq_span: u64,
}

/// A fully written frame waiting for the transport to acknowledge its last
/// byte. The frame bytes are retained so supervision can requeue unacked
/// frames onto a fresh connection (at-least-once within the retry budget).
struct AckFrame {
    /// `written_total` at the frame's end.
    end: u64,
    bytes: Bytes,
    notify: Option<NotifyToken>,
    /// Raw id of the message's `msg` root span (0 when tracing is off).
    msg_span: u64,
    /// Raw id of the open `xmit` span: first byte written → last byte
    /// acknowledged by the transport.
    xmit_span: u64,
}

/// Lifecycle of a supervised channel (DESIGN.md §9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Initial dial in progress.
    Connecting,
    /// Handshake complete; frames flow.
    Established,
    /// Unexpected close observed; `attempts` redials made so far.
    Reconnecting {
        /// Redial attempts made so far (1-based once the first is due).
        attempts: u32,
    },
    /// Retry budget exhausted; queued frames were failed. Probe redials
    /// may still restore the channel.
    Dropped,
}

struct ChannelState {
    conn: Option<Connection>,
    phase: Phase,
    /// Whether this side dialled the channel. Only originated channels are
    /// supervised — for accepted channels the peer's supervisor redials.
    originated: bool,
    pending: VecDeque<OutFrame>,
    /// Payload bytes fully handed to the transport so far.
    written_total: u64,
    /// Fully written frames whose final byte the transport has not yet
    /// acknowledged, oldest first.
    awaiting_ack: VecDeque<AckFrame>,
    decoder: FrameDecoder,
    last_activity: kmsg_netsim::time::SimTime,
    /// Raw id of the open `outage` supervision span (0 while healthy).
    /// Opened at the `ConnectionLost` transition, closed at
    /// `ConnectionRestored` (key 0) or `ConnectionDropped` (key 1) — the
    /// same code points and timestamps as the status events, so the span
    /// window equals the observed recovery latency exactly.
    outage_span: u64,
    /// Raw id of the open `backoff` span (retry timer armed → fired).
    backoff_span: u64,
    /// Raw id of the open `redial` span (connect issued → Connected or the
    /// attempt's Closed event).
    redial_span: u64,
}

impl ChannelState {
    fn new() -> Self {
        ChannelState {
            conn: None,
            phase: Phase::Connecting,
            originated: true,
            pending: VecDeque::new(),
            written_total: 0,
            awaiting_ack: VecDeque::new(),
            decoder: FrameDecoder::new(),
            last_activity: kmsg_netsim::time::SimTime::ZERO,
            outage_span: 0,
            backoff_span: 0,
            redial_span: 0,
        }
    }

    fn established(&self) -> bool {
        self.phase == Phase::Established
    }
}

/// The network component. Create with [`create_network`].
pub struct NetworkComponent {
    /// Kompics' network port.
    pub port: ProvidedPort<NetworkPort>,
    /// Transport callback events.
    pub events: SelfPort<NetEvent>,
    net: Network,
    cfg: NetworkConfig,
    self_events: Option<SelfRef<NetEvent>>,
    channels: HashMap<ChannelKey, ChannelState>,
    conn_index: HashMap<ConnectionId, ChannelKey>,
    udp: Option<UdpSocket>,
    listeners: Vec<Box<dyn std::any::Any + Send>>,
    stats: StatsHandle,
    /// Pending supervision redial timers, mapped back to their channel.
    retry_timers: HashMap<TimeoutId, ChannelKey>,
    /// The periodic idle-sweep timer, if idle teardown is configured.
    idle_timer: Option<TimeoutId>,
    /// Seeded stream for deterministic backoff jitter.
    jitter_rng: RngStream,
}

impl std::fmt::Debug for NetworkComponent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetworkComponent")
            .field("addr", &self.cfg.addr)
            .field("channels", &self.channels.len())
            .finish()
    }
}

impl NetworkComponent {
    /// Builds the component state; prefer [`create_network`], which also
    /// binds the listeners.
    #[must_use]
    pub fn new(net: Network, cfg: NetworkConfig) -> Self {
        let jitter_rng = net
            .sim()
            .rng(&format!("net-supervisor-{}", cfg.addr.as_socket()));
        NetworkComponent {
            port: ProvidedPort::new(),
            events: SelfPort::new(),
            net,
            cfg,
            self_events: None,
            channels: HashMap::new(),
            conn_index: HashMap::new(),
            udp: None,
            listeners: Vec::new(),
            stats: Arc::new(Mutex::new(MiddlewareStats::default())),
            retry_timers: HashMap::new(),
            idle_timer: None,
            jitter_rng,
        }
    }

    /// The live statistics handle.
    #[must_use]
    pub fn stats(&self) -> StatsHandle {
        self.stats.clone()
    }

    /// The listen address.
    #[must_use]
    pub fn address(&self) -> NetAddress {
        self.cfg.addr
    }

    fn notify(&self, token: Option<NotifyToken>, status: DeliveryStatus) {
        if let Some(token) = token {
            self.port.trigger(NetIndication::NotifyResp(token, status));
        }
    }

    fn fail(&self, token: Option<NotifyToken>, error: SendError) {
        {
            let mut stats = self.stats.lock();
            stats.send_failures += 1;
            stats.send_failures_by[error.index()] += 1;
        }
        self.notify(token, DeliveryStatus::Failed(error));
    }

    /// Surfaces a channel status transition on the network port and in the
    /// flight recorder (the latter is how the learner's telemetry stream
    /// observes outages alongside its `Decision` events).
    fn emit_status(&self, key: ChannelKey, status: ConnStatus) {
        let sim = self.net.sim();
        let rec = sim.recorder();
        if rec.is_enabled() {
            let attempts = match status {
                ConnStatus::ConnectionRestored { attempts } => u64::from(attempts),
                _ => 0,
            };
            rec.record(
                sim.now().as_nanos(),
                EventKind::ConnStatus {
                    peer: (u64::from(key.remote.node.index()) << 16)
                        | u64::from(key.remote.port),
                    transport: key.transport.label(),
                    status: status.label(),
                    attempts,
                },
            );
        }
        self.port.trigger(NetIndication::Status(ChannelStatus {
            peer: NetAddress::new(key.remote.node, key.remote.port),
            transport: key.transport,
            status,
        }));
    }

    /// The component's span tracer. Owned (it clones the recorder handle),
    /// so holding one never extends a borrow of the component; every call
    /// on it early-outs on one relaxed load while tracing is off.
    fn tracer(&self) -> Tracer {
        self.net.sim().recorder().tracer()
    }

    /// Current virtual time in nanoseconds.
    fn now_ns(&self) -> u64 {
        self.net.sim().now().as_nanos()
    }

    // --- outbound -------------------------------------------------------

    fn handle_send(&mut self, token: Option<NotifyToken>, mut msg: NetMessage) {
        let dst = *msg.header().destination();
        // Every message gets a `msg` root span at the send edge; its id
        // doubles as the trace id for all downstream spans (enqueue, xmit,
        // channel pick). Forwarded multi-hop messages re-enter here and get
        // a fresh per-relay root, so each middleware hop is attributable.
        let tr = self.tracer();
        let now_ns = self.now_ns();
        let msg_span = tr.open_root(now_ns, SpanKind::Msg, peer_key(dst.as_socket()));
        // Same-socket delivery: virtual nodes (or self-sends) are reflected
        // without serialisation (§III-B).
        if dst.as_socket() == self.cfg.addr.as_socket() {
            self.stats.lock().local_reflections += 1;
            tr.instant(
                now_ns,
                SpanKind::Deliver,
                msg_span,
                msg_span,
                peer_key(dst.as_socket()),
            );
            tr.close(now_ns, msg_span);
            self.port.trigger(NetIndication::Msg(msg));
            self.notify(token, DeliveryStatus::DeliveredLocally);
            return;
        }
        let mut proto = msg.header().protocol();
        if proto == Transport::Data {
            self.stats.lock().unresolved_data += 1;
            match self.cfg.data_fallback {
                Some(fallback) => {
                    proto = fallback;
                    if let NetHeader::Data(h) = msg.header_mut() {
                        h.selected = Some(fallback);
                    }
                }
                None => {
                    tr.close_with(now_ns, msg_span, SPAN_FAILED);
                    self.fail(token, SendError::UnresolvedDataProtocol);
                    return;
                }
            }
        }
        // Graceful degradation: DATA-addressed traffic whose selected
        // stream transport has exhausted its reconnect budget fails over to
        // the surviving stream transport, and recovers automatically once
        // the preferred channel is restored (its phase leaves `Dropped`).
        if matches!(msg.header(), NetHeader::Data(_))
            && matches!(proto, Transport::Tcp | Transport::Udt)
        {
            let alt = if proto == Transport::Tcp {
                Transport::Udt
            } else {
                Transport::Tcp
            };
            let socket = dst.as_socket();
            let dropped = |t: Transport| {
                self.channels
                    .get(&ChannelKey {
                        remote: socket,
                        transport: t,
                    })
                    .is_some_and(|c| c.phase == Phase::Dropped)
            };
            if dropped(proto) && !dropped(alt) {
                proto = alt;
                if let NetHeader::Data(h) = msg.header_mut() {
                    h.selected = Some(alt);
                }
                self.stats.lock().failovers += 1;
                tr.instant(
                    now_ns,
                    SpanKind::Failover,
                    msg_span,
                    msg_span,
                    u64::from(alt.to_byte()),
                );
            }
        }
        // The transport the message will actually travel over, after DATA
        // fallback and failover resolution.
        tr.instant(
            now_ns,
            SpanKind::ChannelPick,
            msg_span,
            msg_span,
            u64::from(proto.to_byte()),
        );
        let encoded = match encode_frame(&msg, self.cfg.compression) {
            Ok(f) => f,
            Err(_) => {
                tr.close_with(now_ns, msg_span, SPAN_FAILED);
                self.fail(token, SendError::Serialisation);
                return;
            }
        };
        match proto {
            Transport::Udp => self.send_udp(token, dst, encoded, msg_span),
            Transport::Tcp | Transport::Udt => {
                self.send_stream(token, proto, dst, encoded, msg_span);
            }
            Transport::Data => unreachable!("resolved above"),
        }
    }

    fn send_udp(
        &mut self,
        token: Option<NotifyToken>,
        dst: NetAddress,
        frame: Bytes,
        msg_span: SpanId,
    ) {
        let tr = self.tracer();
        let now_ns = self.now_ns();
        if frame.len() > MAX_DATAGRAM {
            tr.close_with(now_ns, msg_span, SPAN_FAILED);
            self.fail(token, SendError::TooLargeForUdp);
            return;
        }
        let Some(udp) = &self.udp else {
            tr.close_with(now_ns, msg_span, SPAN_FAILED);
            self.fail(token, SendError::Unreachable);
            return;
        };
        let len = frame.len() as u64;
        match udp.send_to(dst.as_socket(), frame) {
            Ok(()) => {
                let mut stats = self.stats.lock();
                stats.sent[Transport::Udp.to_byte() as usize] += 1;
                stats.bytes_out += len;
                drop(stats);
                // Fire-and-forget: the datagram is on the wire, which is
                // as far as the middleware can attribute UDP.
                tr.close(now_ns, msg_span);
                self.notify(token, DeliveryStatus::Sent);
            }
            Err(_) => {
                tr.close_with(now_ns, msg_span, SPAN_FAILED);
                self.fail(token, SendError::TooLargeForUdp);
            }
        }
    }

    fn send_stream(
        &mut self,
        token: Option<NotifyToken>,
        proto: Transport,
        dst: NetAddress,
        frame: Bytes,
        msg_span: SpanId,
    ) {
        let tr = self.tracer();
        let now_ns = self.now_ns();
        let key = ChannelKey {
            remote: dst.as_socket(),
            transport: proto,
        };
        if let Some(channel) = self.channels.get(&key) {
            // The supervisor gave up on this channel; don't queue behind a
            // dead connection. (DATA traffic fails over before reaching
            // here; explicit sends fail fast until a probe restores it.)
            if channel.phase == Phase::Dropped {
                tr.close_with(now_ns, msg_span, SPAN_FAILED);
                self.fail(token, SendError::RetryBudgetExhausted);
                return;
            }
        } else if let Err(e) = self.open_channel(key) {
            let _ = e;
            tr.close_with(now_ns, msg_span, SPAN_FAILED);
            self.fail(token, SendError::Unreachable);
            return;
        }
        let now = self.net.sim().now();
        let channel = self.channels.get_mut(&key).expect("channel just ensured");
        channel.pending.push_back(OutFrame {
            bytes: frame,
            written: 0,
            notify: token,
            msg_span: msg_span.raw(),
            // `enqueue` covers the frame's wait in the pending queue: from
            // here until its last byte is handed to the transport.
            enq_span: tr
                .open(
                    now_ns,
                    SpanKind::Enqueue,
                    msg_span,
                    msg_span,
                    channel_span_key(key),
                )
                .raw(),
        });
        channel.last_activity = now;
        if channel.established() {
            self.drain_channel(key);
        }
    }

    /// The TCP configuration a dial to `remote` should use: the base
    /// config with the stack policy's per-destination controller override
    /// applied. Consulted at dial time, so a swap takes effect on the
    /// next (re)connect even without an explicit recycle.
    fn tcp_config_for(&self, remote: Endpoint) -> TcpConfig {
        let mut cfg = self.cfg.tcp.clone();
        if let Some(algo) = self.cfg.stack.lookup(remote) {
            cfg.cc.algorithm = algo;
        }
        cfg
    }

    fn open_channel(&mut self, key: ChannelKey) -> Result<(), BindError> {
        let events = self
            .self_events
            .clone()
            .expect("NetworkComponent used before create_network() wiring");
        let handler = Arc::new(ConnForwarder { events });
        let node = self.cfg.addr.node();
        let conn = match key.transport {
            Transport::Tcp => Connection::Tcp(TcpConn::connect(
                &self.net,
                node,
                key.remote,
                self.tcp_config_for(key.remote),
                handler,
            )?),
            Transport::Udt => Connection::Udt(UdtConn::connect(
                &self.net,
                node,
                key.remote,
                self.cfg.udt.clone(),
                handler,
            )?),
            _ => unreachable!("stream channels are TCP or UDT"),
        };
        let mut state = ChannelState::new();
        state.last_activity = self.net.sim().now();
        self.conn_index.insert(conn.id(), key);
        state.conn = Some(conn);
        self.channels.insert(key, state);
        self.stats.lock().channels_opened += 1;
        Ok(())
    }

    fn drain_channel(&mut self, key: ChannelKey) {
        let now = self.net.sim().now();
        let tr = self.tracer();
        let now_ns = now.as_nanos();
        let Some(channel) = self.channels.get_mut(&key) else {
            return;
        };
        let Some(conn) = channel.conn.as_ref() else {
            return;
        };
        let mut bytes_out = 0u64;
        let mut msgs_out = 0u64;
        while let Some(front) = channel.pending.front_mut() {
            let remaining = front.bytes.slice(front.written..);
            let accepted = conn.send(remaining);
            front.written += accepted;
            channel.written_total += accepted as u64;
            bytes_out += accepted as u64;
            if front.written == front.bytes.len() {
                let done = channel.pending.pop_front().expect("front exists");
                msgs_out += 1;
                // Queue wait over; the frame is now the transport's
                // problem — `xmit` covers it until its last byte is acked.
                tr.close(now_ns, SpanId::from_raw(done.enq_span));
                let msg_span = SpanId::from_raw(done.msg_span);
                let xmit = tr.open(
                    now_ns,
                    SpanKind::Xmit,
                    msg_span,
                    msg_span,
                    channel.written_total,
                );
                // Retained until the transport acknowledges the frame's
                // last byte: notifications fire then, and supervision can
                // requeue the frame if the connection dies first.
                channel.awaiting_ack.push_back(AckFrame {
                    end: channel.written_total,
                    bytes: done.bytes,
                    notify: done.notify,
                    msg_span: done.msg_span,
                    xmit_span: xmit.raw(),
                });
            } else {
                break; // transport buffer full; resume on Writable
            }
        }
        channel.last_activity = now;
        {
            let mut stats = self.stats.lock();
            stats.bytes_out += bytes_out;
            stats.sent[key.transport.to_byte() as usize] += msgs_out;
        }
        self.flush_acked(key);
    }

    /// Completes notification requests whose bytes the transport has
    /// acknowledged.
    fn flush_acked(&mut self, key: ChannelKey) {
        let Some(channel) = self.channels.get_mut(&key) else {
            return;
        };
        let Some(delivered) = channel.conn.as_ref().map(Connection::acked_bytes) else {
            return;
        };
        let mut done = Vec::new();
        while let Some(front) = channel.awaiting_ack.front() {
            if front.end <= delivered {
                let frame = channel.awaiting_ack.pop_front().expect("front exists");
                done.push((frame.notify, frame.xmit_span, frame.msg_span));
            } else {
                break;
            }
        }
        let tr = self.tracer();
        let now_ns = self.now_ns();
        for (notify, xmit_span, msg_span) in done {
            // The transport acked the frame's last byte: transmission and
            // the whole message lifecycle complete here.
            tr.close(now_ns, SpanId::from_raw(xmit_span));
            tr.close(now_ns, SpanId::from_raw(msg_span));
            if let Some(t) = notify {
                self.notify(Some(t), DeliveryStatus::Sent);
            }
        }
    }

    // --- inbound --------------------------------------------------------

    fn handle_event(&mut self, ctx: &mut ComponentContext, event: NetEvent) {
        match event {
            NetEvent::Connected(id) => {
                if let Some(&key) = self.conn_index.get(&id) {
                    let tr = self.tracer();
                    let now_ns = self.now_ns();
                    if let Some(channel) = self.channels.get_mut(&key) {
                        let prev = channel.phase;
                        channel.phase = Phase::Established;
                        // The redial that produced this handshake — and the
                        // outage it belongs to — end here, at the same
                        // instant the `restored` status is stamped.
                        let redial = std::mem::take(&mut channel.redial_span);
                        let outage = std::mem::take(&mut channel.outage_span);
                        match prev {
                            Phase::Reconnecting { attempts } => {
                                tr.close(now_ns, SpanId::from_raw(redial));
                                tr.close(now_ns, SpanId::from_raw(outage));
                                self.stats.lock().reconnects += 1;
                                self.emit_status(
                                    key,
                                    ConnStatus::ConnectionRestored { attempts },
                                );
                            }
                            Phase::Dropped => {
                                // A post-budget probe got through (the
                                // outage span already closed at the drop).
                                tr.close(now_ns, SpanId::from_raw(redial));
                                tr.close(now_ns, SpanId::from_raw(outage));
                                self.stats.lock().reconnects += 1;
                                self.emit_status(
                                    key,
                                    ConnStatus::ConnectionRestored { attempts: 0 },
                                );
                            }
                            Phase::Connecting | Phase::Established => {}
                        }
                    }
                    self.drain_channel(key);
                }
            }
            NetEvent::Accepted(conn) => {
                // Key the inbound channel by the peer's socket for now; it
                // is re-keyed to the peer's listen address when the first
                // message reveals it, so replies reuse this channel.
                let key = ChannelKey {
                    remote: conn.peer(),
                    transport: match conn {
                        Connection::Tcp(_) => Transport::Tcp,
                        Connection::Udt(_) => Transport::Udt,
                    },
                };
                let mut state = ChannelState::new();
                state.phase = Phase::Established;
                // The dialling side supervises; if this channel dies we
                // fall back to failing its queued replies.
                state.originated = false;
                state.last_activity = self.net.sim().now();
                self.conn_index.insert(conn.id(), key);
                state.conn = Some(conn);
                self.channels.insert(key, state);
                self.stats.lock().channels_opened += 1;
            }
            NetEvent::Data(id, data) => {
                self.stats.lock().bytes_in += data.len() as u64;
                let Some(&key) = self.conn_index.get(&id) else {
                    return;
                };
                let mut frames = Vec::new();
                {
                    let Some(channel) = self.channels.get_mut(&key) else {
                        return;
                    };
                    channel.decoder.feed(&data);
                    channel.last_activity = self.net.sim().now();
                    loop {
                        match channel.decoder.next_frame() {
                            Ok(Some(frame)) => frames.push(frame),
                            Ok(None) => break,
                            Err(_) => {
                                self.stats.lock().decode_failures += 1;
                                break;
                            }
                        }
                    }
                }
                for body in frames {
                    self.handle_frame(body, Some((id, key)));
                }
            }
            NetEvent::Writable(id) => {
                if let Some(&key) = self.conn_index.get(&id) {
                    self.drain_channel(key);
                }
            }
            NetEvent::Closed(id, _reason) => {
                if let Some(key) = self.conn_index.remove(&id) {
                    if self.channels.contains_key(&key) {
                        self.stats.lock().channels_closed += 1;
                        self.on_channel_down(ctx, key);
                    }
                }
            }
            NetEvent::Datagram(_src, data) => {
                self.stats.lock().bytes_in += data.len() as u64;
                // Datagrams carry exactly one frame (with length prefix).
                let mut dec = FrameDecoder::new();
                dec.feed(&data);
                match dec.next_frame() {
                    Ok(Some(body)) => self.handle_frame(body, None),
                    Ok(None) | Err(_) => {
                        self.stats.lock().decode_failures += 1;
                    }
                }
            }
        }
    }

    fn handle_frame(&mut self, body: Bytes, via: Option<(ConnectionId, ChannelKey)>) {
        let mut msg = match decode_frame_body(body) {
            Ok(m) => m,
            Err(_) => {
                self.stats.lock().decode_failures += 1;
                return;
            }
        };
        // Re-key inbound channels by the peer's listen address so that
        // replies reuse the existing connection.
        if let Some((conn_id, old_key)) = via {
            let src_socket = msg.header().source().as_socket();
            if old_key.remote != src_socket && src_socket.node == old_key.remote.node {
                let new_key = ChannelKey {
                    remote: src_socket,
                    transport: old_key.transport,
                };
                if !self.channels.contains_key(&new_key) {
                    if let Some(state) = self.channels.remove(&old_key) {
                        self.channels.insert(new_key, state);
                        self.conn_index.insert(conn_id, new_key);
                    }
                }
            }
        }
        let my_socket = self.cfg.addr.as_socket();
        if msg.header().destination().as_socket() == my_socket {
            // Multi-hop: if a route names us as the next hop, advance it
            // and forward unless we are the final destination.
            if let NetHeader::Routing(rh) = msg.header_mut() {
                if rh.route.as_ref().is_some_and(super::header::Route::has_next) {
                    rh.advance();
                    if msg.header().destination().as_socket() != my_socket {
                        self.forward_or_drop(msg);
                        return;
                    }
                }
            }
            let proto = msg.header().protocol();
            {
                let mut stats = self.stats.lock();
                let idx = proto.to_byte() as usize;
                stats.received[idx.min(3)] += 1;
            }
            // Receiver-side delivery edge. Trace ids never cross the wire
            // (that would perturb frame sizes and thus all timings), so
            // this is a root instant; offline analysis joins it to the
            // sender's `msg` span by source key and time window.
            let tr = self.tracer();
            tr.instant(
                self.now_ns(),
                SpanKind::Deliver,
                SpanId::NONE,
                SpanId::NONE,
                peer_key(msg.header().source().as_socket()),
            );
            self.port.trigger(NetIndication::Msg(msg));
        } else {
            // Addressed elsewhere (e.g. source routing without an explicit
            // hop entry for us): forward along.
            self.forward_or_drop(msg);
        }
    }

    /// Forwards a transiting message, charging one unit of routing TTL.
    /// A routed message whose budget is exhausted is dropped with a
    /// recorded reason instead — the backstop that keeps a malformed or
    /// stale (e.g. cyclic) route from circulating forever.
    fn forward_or_drop(&mut self, mut msg: NetMessage) {
        if let NetHeader::Routing(rh) = msg.header_mut() {
            if rh.ttl == 0 {
                let dst_node =
                    u64::from(Header::destination(&*rh).as_socket().node.index());
                self.stats.lock().ttl_drops += 1;
                let sim = self.net.sim();
                let rec = sim.recorder();
                if rec.is_enabled() {
                    rec.record(
                        sim.now().as_nanos(),
                        EventKind::Overlay {
                            action: "ttl_drop",
                            msg: 0,
                            node: u64::from(self.cfg.addr.as_socket().node.index()),
                            aux: dst_node,
                        },
                    );
                }
                return;
            }
            rh.ttl -= 1;
        }
        self.stats.lock().forwarded += 1;
        self.handle_send(None, msg);
    }

    // --- supervision ----------------------------------------------------

    /// Reacts to an unexpected connection loss on a known channel: either
    /// supervises (requeue + backoff redial) or, when supervision is off or
    /// the channel was accepted rather than dialled, fails everything
    /// (legacy at-most-once behaviour).
    fn on_channel_down(&mut self, ctx: &mut ComponentContext, key: ChannelKey) {
        let supervised = self.cfg.reconnect.is_some()
            && self.channels.get(&key).is_some_and(|c| c.originated);
        let tr = self.tracer();
        let now_ns = self.now_ns();
        if !supervised {
            if let Some(mut channel) = self.channels.remove(&key) {
                // At-most-once: queued and unacknowledged messages are
                // lost; notify requesters.
                for frame in channel.pending.drain(..) {
                    tr.close_with(now_ns, SpanId::from_raw(frame.enq_span), SPAN_FAILED);
                    tr.close_with(now_ns, SpanId::from_raw(frame.msg_span), SPAN_FAILED);
                    if let Some(t) = frame.notify {
                        self.fail(Some(t), SendError::ChannelClosed);
                    }
                }
                for frame in channel.awaiting_ack.drain(..) {
                    tr.close_with(now_ns, SpanId::from_raw(frame.xmit_span), SPAN_FAILED);
                    tr.close_with(now_ns, SpanId::from_raw(frame.msg_span), SPAN_FAILED);
                    if let Some(t) = frame.notify {
                        self.fail(Some(t), SendError::ChannelClosed);
                    }
                }
            }
            return;
        }
        let rc = self.cfg.reconnect.clone().expect("supervised implies config");
        let channel = self.channels.get_mut(&key).expect("supervised implies entry");
        channel.conn = None;
        // A redial attempt that ends in another Closed event failed.
        let failed_redial = std::mem::take(&mut channel.redial_span);
        tr.close_with(now_ns, SpanId::from_raw(failed_redial), SPAN_FAILED);
        // First loss on a healthy channel opens the `outage` span, at the
        // same instant the `ConnectionLost` status below is stamped — the
        // span's window therefore equals the reported recovery latency,
        // and its children (requeue, backoff, redial) partition it.
        if matches!(channel.phase, Phase::Connecting | Phase::Established)
            && channel.outage_span == 0
        {
            channel.outage_span = tr
                .open_root(now_ns, SpanKind::Outage, channel_span_key(key))
                .raw();
        }
        let outage = SpanId::from_raw(channel.outage_span);
        // At-least-once: requeue unacknowledged frames *ahead* of pending
        // ones (they are older), rewinding write progress for the fresh
        // connection. Exactly-once stays at the session layer.
        for frame in channel.pending.iter_mut() {
            frame.written = 0;
        }
        let requeued = channel.awaiting_ack.len() as u64;
        while let Some(acked) = channel.awaiting_ack.pop_back() {
            // The interrupted transmission is over; the frame re-enters
            // the queue under a fresh `enqueue` span on the same trace.
            tr.close_with(now_ns, SpanId::from_raw(acked.xmit_span), SPAN_FAILED);
            let msg_span = SpanId::from_raw(acked.msg_span);
            channel.pending.push_front(OutFrame {
                bytes: acked.bytes,
                written: 0,
                notify: acked.notify,
                msg_span: acked.msg_span,
                enq_span: tr
                    .open(
                        now_ns,
                        SpanKind::Enqueue,
                        msg_span,
                        msg_span,
                        channel_span_key(key),
                    )
                    .raw(),
            });
        }
        if requeued > 0 {
            tr.instant(now_ns, SpanKind::Requeue, outage, outage, requeued);
        }
        channel.written_total = 0;
        match channel.phase {
            Phase::Dropped => {
                // A probe redial failed; keep probing.
                self.schedule_probe(ctx, key, &rc);
            }
            Phase::Reconnecting { attempts } if attempts >= rc.max_retries => {
                // Budget exhausted: fail queued frames, report, keep the
                // entry so failover sees the dropped state and probes can
                // restore it.
                channel.phase = Phase::Dropped;
                let ended_outage = std::mem::take(&mut channel.outage_span);
                let failed: Vec<(Option<NotifyToken>, u64, u64)> = channel
                    .pending
                    .drain(..)
                    .map(|f| (f.notify, f.enq_span, f.msg_span))
                    .collect();
                tr.close_with(now_ns, SpanId::from_raw(ended_outage), SPAN_FAILED);
                for (notify, enq_span, msg_span) in failed {
                    tr.close_with(now_ns, SpanId::from_raw(enq_span), SPAN_FAILED);
                    tr.close_with(now_ns, SpanId::from_raw(msg_span), SPAN_FAILED);
                    if let Some(t) = notify {
                        self.fail(Some(t), SendError::RetryBudgetExhausted);
                    }
                }
                self.stats.lock().channels_dropped += 1;
                self.emit_status(key, ConnStatus::ConnectionDropped);
                self.schedule_probe(ctx, key, &rc);
            }
            phase => {
                let attempts = match phase {
                    Phase::Reconnecting { attempts } => attempts + 1,
                    _ => 1,
                };
                if matches!(phase, Phase::Connecting | Phase::Established) {
                    self.emit_status(key, ConnStatus::ConnectionLost);
                }
                if let Some(channel) = self.channels.get_mut(&key) {
                    channel.phase = Phase::Reconnecting { attempts };
                }
                let delay = rc.backoff(attempts, &mut self.jitter_rng);
                let timer = ctx.schedule_once(delay);
                self.retry_timers.insert(timer, key);
                // `backoff` covers timer armed → fired (closed in
                // `redial`); one per attempt, keyed by the attempt number.
                if let Some(channel) = self.channels.get_mut(&key) {
                    channel.backoff_span = tr
                        .open(now_ns, SpanKind::Backoff, outage, outage, u64::from(attempts))
                        .raw();
                }
            }
        }
    }

    fn schedule_probe(&mut self, ctx: &mut ComponentContext, key: ChannelKey, rc: &ReconnectConfig) {
        if let Some(interval) = rc.probe_interval {
            let timer = ctx.schedule_once(interval);
            self.retry_timers.insert(timer, key);
        }
    }

    /// Dials the channel again (retry-timer and probe-timer handler).
    fn redial(&mut self, ctx: &mut ComponentContext, key: ChannelKey) {
        match self.channels.get(&key) {
            // Channel torn down, or a concurrent path already restored it.
            Some(c) if c.conn.is_none() => {}
            _ => return,
        }
        let tr = self.tracer();
        let now_ns = self.now_ns();
        let outage = if let Some(channel) = self.channels.get_mut(&key) {
            // The backoff wait is over the moment the timer fires.
            let backoff = std::mem::take(&mut channel.backoff_span);
            tr.close(now_ns, SpanId::from_raw(backoff));
            SpanId::from_raw(channel.outage_span)
        } else {
            SpanId::NONE
        };
        let events = self
            .self_events
            .clone()
            .expect("NetworkComponent used before create_network() wiring");
        let handler = Arc::new(ConnForwarder { events });
        let node = self.cfg.addr.node();
        self.stats.lock().reconnect_attempts += 1;
        let conn = match key.transport {
            Transport::Tcp => TcpConn::connect(
                &self.net,
                node,
                key.remote,
                self.tcp_config_for(key.remote),
                handler,
            )
            .map(Connection::Tcp),
            Transport::Udt => UdtConn::connect(
                &self.net,
                node,
                key.remote,
                self.cfg.udt.clone(),
                handler,
            )
            .map(Connection::Udt),
            _ => unreachable!("stream channels are TCP or UDT"),
        };
        match conn {
            Ok(conn) => {
                self.conn_index.insert(conn.id(), key);
                if let Some(channel) = self.channels.get_mut(&key) {
                    channel.conn = Some(conn);
                    // `redial` spans the dial attempt: closed on the
                    // Connected event (success) or the next Closed event
                    // (failure, SPAN_FAILED).
                    channel.redial_span = tr
                        .open(
                            now_ns,
                            SpanKind::Redial,
                            outage,
                            outage,
                            channel_span_key(key),
                        )
                        .raw();
                }
                // Establishment (or the next failure) arrives as a
                // Connected/Closed event.
            }
            Err(_) => {
                // Local dial failure (port space exhausted): treat it like
                // a failed attempt so the backoff/budget machinery applies.
                self.on_channel_down(ctx, key);
            }
        }
    }

    fn sweep_idle_channels(&mut self, now: kmsg_netsim::time::SimTime) {
        let Some(idle) = self.cfg.idle_timeout else {
            return;
        };
        // Idle eligibility requires a fully drained channel: nothing
        // pending *and* nothing awaiting transport acknowledgement —
        // tearing down a channel with unacked frames would lose them. Only
        // established channels are swept; reconnecting ones own retry
        // timers that must stay valid.
        let expired: Vec<ChannelKey> = self
            .channels
            .iter()
            .filter(|(_, c)| {
                c.phase == Phase::Established
                    && c.pending.is_empty()
                    && c.awaiting_ack.is_empty()
                    && now.duration_since(c.last_activity) >= idle
            })
            .map(|(k, _)| *k)
            .collect();
        for key in expired {
            if let Some(channel) = self.channels.remove(&key) {
                if let Some(conn) = channel.conn {
                    self.conn_index.remove(&conn.id());
                    conn.close();
                }
                self.stats.lock().channels_closed += 1;
            }
        }
    }

    // --- controller stack policy ----------------------------------------

    /// Re-selects the congestion controller for TCP traffic to `remote`
    /// (the DATA stack-policy surface): records the decision in the
    /// shared [`StackPolicy`](crate::data::stack::StackPolicy) — so every
    /// future dial and redial picks it up — and, when a live TCP channel
    /// to the peer exists, recycles it onto the new controller
    /// immediately. Returns `true` if the effective selection changed.
    ///
    /// Recycling is at-least-once, like supervision: frames the old
    /// transport had not acknowledged are requeued ahead of pending ones
    /// on the fresh connection, and the swap counts as a supervision
    /// episode ([`MiddlewareStats::controller_swaps`]) for the delivery
    /// oracle's duplicate budget.
    pub fn swap_controller(
        &mut self,
        remote: Endpoint,
        algo: kmsg_netsim::cc::CcAlgorithm,
    ) -> bool {
        let changed = self.cfg.stack.set(remote, algo);
        let key = ChannelKey {
            remote,
            transport: Transport::Tcp,
        };
        let recycled = changed
            && self
                .channels
                .get(&key)
                .is_some_and(|c| c.conn.is_some());
        let sim = self.net.sim();
        let rec = sim.recorder();
        if rec.is_enabled() && changed {
            rec.record(
                sim.now().as_nanos(),
                EventKind::CcSwap {
                    peer: peer_key(remote),
                    controller: algo.label(),
                    recycled,
                },
            );
        }
        if recycled {
            self.recycle_channel(key);
        }
        changed
    }

    /// Tears down a live channel's connection and dials a replacement
    /// with the current (post-swap) transport configuration, carrying the
    /// send queue over. The old connection is closed gracefully and
    /// unlinked first, so its Closed event is not mistaken for an outage.
    fn recycle_channel(&mut self, key: ChannelKey) {
        let old_conn = match self.channels.get_mut(&key) {
            Some(c) => match c.conn.take() {
                Some(conn) => conn,
                None => return,
            },
            None => return,
        };
        self.conn_index.remove(&old_conn.id());
        old_conn.close();
        let tr = self.tracer();
        let now_ns = self.now_ns();
        let channel = self.channels.get_mut(&key).expect("checked above");
        channel.phase = Phase::Connecting;
        // We dial the replacement, so this side supervises it from now on.
        channel.originated = true;
        // At-least-once carry-over, exactly like supervision: rewind
        // write progress and requeue unacknowledged frames ahead of
        // pending ones (they are older).
        for frame in channel.pending.iter_mut() {
            frame.written = 0;
        }
        while let Some(acked) = channel.awaiting_ack.pop_back() {
            tr.close_with(now_ns, SpanId::from_raw(acked.xmit_span), SPAN_FAILED);
            let msg_span = SpanId::from_raw(acked.msg_span);
            channel.pending.push_front(OutFrame {
                bytes: acked.bytes,
                written: 0,
                notify: acked.notify,
                msg_span: acked.msg_span,
                enq_span: tr
                    .open(
                        now_ns,
                        SpanKind::Enqueue,
                        msg_span,
                        msg_span,
                        channel_span_key(key),
                    )
                    .raw(),
            });
        }
        channel.written_total = 0;
        {
            let mut stats = self.stats.lock();
            stats.controller_swaps += 1;
            stats.channels_closed += 1;
        }
        let events = self
            .self_events
            .clone()
            .expect("NetworkComponent used before create_network() wiring");
        let handler = Arc::new(ConnForwarder { events });
        let node = self.cfg.addr.node();
        match TcpConn::connect(
            &self.net,
            node,
            key.remote,
            self.tcp_config_for(key.remote),
            handler,
        ) {
            Ok(conn) => {
                let conn = Connection::Tcp(conn);
                self.conn_index.insert(conn.id(), key);
                if let Some(channel) = self.channels.get_mut(&key) {
                    channel.conn = Some(conn);
                }
                self.stats.lock().channels_opened += 1;
                // The handshake's Connected event drains the queue.
            }
            Err(_) => {
                // Local dial failure (port space exhausted): fail queued
                // frames, the at-most-once fallback.
                if let Some(mut channel) = self.channels.remove(&key) {
                    for frame in channel.pending.drain(..) {
                        tr.close_with(now_ns, SpanId::from_raw(frame.enq_span), SPAN_FAILED);
                        tr.close_with(now_ns, SpanId::from_raw(frame.msg_span), SPAN_FAILED);
                        if let Some(t) = frame.notify {
                            self.fail(Some(t), SendError::ChannelClosed);
                        }
                    }
                }
            }
        }
    }
}

impl ComponentDefinition for NetworkComponent {
    fn execute(&mut self, ctx: &mut ComponentContext, max: usize) -> usize {
        execute_ports!(self, ctx, max, [
            provided port: NetworkPort,
            selfport events: NetEvent,
        ])
    }

    fn handle_control(&mut self, ctx: &mut ComponentContext, event: ControlEvent) {
        if event == ControlEvent::Start && self.cfg.idle_timeout.is_some() {
            self.idle_timer = Some(ctx.schedule_periodic(
                std::time::Duration::from_secs(1),
                std::time::Duration::from_secs(1),
            ));
        }
    }

    fn on_timeout(&mut self, ctx: &mut ComponentContext, id: TimeoutId) {
        if let Some(key) = self.retry_timers.remove(&id) {
            self.redial(ctx, key);
        } else if self.idle_timer == Some(id) {
            self.sweep_idle_channels(ctx.now());
        }
    }
}

impl Provide<NetworkPort> for NetworkComponent {
    fn handle(&mut self, _ctx: &mut ComponentContext, event: NetRequest) {
        match event {
            NetRequest::Msg(msg) => self.handle_send(None, msg),
            NetRequest::NotifyReq(token, msg) => self.handle_send(Some(token), msg),
        }
    }
}

impl HandleSelf<NetEvent> for NetworkComponent {
    fn handle_self(&mut self, ctx: &mut ComponentContext, event: NetEvent) {
        self.handle_event(ctx, event);
    }
}

impl ProvideRef<NetworkPort> for NetworkComponent {
    fn provided_port(&mut self) -> &mut ProvidedPort<NetworkPort> {
        &mut self.port
    }
}

/// Creates a [`NetworkComponent`], wires its transport callbacks, and
/// binds its TCP/UDT listeners and UDP socket on the configured address.
///
/// The component still needs to be started via
/// [`ComponentSystem::start`].
///
/// # Errors
///
/// Returns [`BindError`] if any of the three ports is already bound.
pub fn create_network(
    system: &ComponentSystem,
    net: &Network,
    cfg: NetworkConfig,
) -> Result<ComponentRef<NetworkComponent>, BindError> {
    let addr = cfg.addr;
    let tcp_cfg = cfg.tcp.clone();
    let udt_cfg = cfg.udt.clone();
    let comp = system.create(|| NetworkComponent::new(net.clone(), cfg));
    let events = comp.self_ref(|c| &mut c.events);

    let tcp_listener = TcpListener::bind(
        net,
        addr.node(),
        addr.port(),
        tcp_cfg,
        Arc::new(AcceptForwarder {
            events: events.clone(),
        }),
    )?;
    let udt_listener = UdtListener::bind(
        net,
        addr.node(),
        addr.port(),
        udt_cfg,
        Arc::new(AcceptForwarder {
            events: events.clone(),
        }),
    )?;
    let udp_socket = UdpSocket::bind(
        net,
        addr.node(),
        addr.port(),
        Arc::new(UdpForwarder {
            events: events.clone(),
        }),
    )?;

    comp.on_definition(|c| {
        c.self_events = Some(events.clone());
        c.udp = Some(udp_socket);
        c.listeners.push(Box::new(tcp_listener));
        c.listeners.push(Box::new(udt_listener));
    });
    Ok(comp)
}
