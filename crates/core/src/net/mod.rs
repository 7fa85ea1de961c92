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
//!
//! Mechanism and policy live apart. The mechanism is written once: the
//! wire format ([`frame`]), each channel's send queue with its write
//! cursor (`channel.rs` — queue, write, acknowledge, rewind, give up),
//! the counters (`stats.rs`) and, here, the one `dial`. The rest of this
//! file is the channel table, the inbound path and the policy over them:
//! the supervision phase machine with its backoff and probes, `DATA`
//! failover, the idle sweep and the controller swap.

mod channel;
pub mod frame;
mod stats;

pub use stats::{MiddlewareStats, StatsHandle, SupervisionSummary};

use std::collections::HashMap;
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
use crate::ser::SerError;
use crate::transport::Transport;
use channel::{ChannelState, Frame, Phase, SPAN_FAILED};
use frame::{encode_frame, Compression, FrameDecoder};

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

/// Forwards transport callbacks into the component's self-port: as the
/// handler of a connection, of a stream listener and of the UDP socket.
struct Forwarder {
    events: SelfRef<NetEvent>,
}

impl StreamEvents for Forwarder {
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

impl StreamAccept for Forwarder {
    fn on_accept(&self, conn: &Connection) -> Arc<dyn StreamEvents> {
        self.events.push(NetEvent::Accepted(conn.clone()));
        Arc::new(Forwarder {
            events: self.events.clone(),
        })
    }
}

impl UdpEvents for Forwarder {
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

/// Packs an endpoint into a span correlation key — the same
/// `node_index << 16 | port` encoding `ConnStatus` events use for `peer`.
fn peer_key(ep: Endpoint) -> u64 {
    (u64::from(ep.node.index()) << 16) | u64::from(ep.port)
}

/// Span key of one supervised channel: transport byte above the peer key.
fn channel_span_key(key: ChannelKey) -> u64 {
    (u64::from(key.transport.to_byte()) << 48) | peer_key(key.remote)
}

/// The network component. Create with [`create_network`].
pub struct NetworkComponent {
    /// Kompics' network port.
    pub port: ProvidedPort<NetworkPort>,
    /// Transport callback events.
    pub events: SelfPort<NetEvent>,
    /// The world's span tracer; every call on it early-outs on one relaxed
    /// load while tracing is off.
    tracer: Tracer,
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
    /// The frames of the `Data` event in hand, decoded and not yet
    /// handled; empty otherwise, kept for its capacity.
    inbound: Vec<Result<NetMessage, SerError>>,
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
            tracer: net.sim().recorder().tracer(),
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
            inbound: Vec::new(),
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

    /// Gives up on the frames of a dead queue, in the order given: the one
    /// place a frame's spans close as failed. Only a frame with a notify
    /// token counts as a failed send.
    fn fail_frames(&self, frames: impl Iterator<Item = Frame>, error: SendError) {
        let now_ns = self.now_ns();
        for frame in frames {
            if let Some(token) = frame.finish(&self.tracer, now_ns, SPAN_FAILED) {
                self.fail(Some(token), error);
            }
        }
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
                    peer: peer_key(key.remote),
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

    /// Current virtual time in nanoseconds.
    fn now_ns(&self) -> u64 {
        self.net.sim().now().as_nanos()
    }

    // --- outbound -------------------------------------------------------

    fn handle_send(&mut self, token: Option<NotifyToken>, msg: NetMessage) {
        let dst = *msg.header().destination();
        // Every message gets a `msg` root span at the send edge; its id
        // doubles as the trace id for all downstream spans (enqueue, xmit,
        // channel pick). Forwarded multi-hop messages re-enter here and get
        // a fresh per-relay root, so each middleware hop is attributable.
        let now_ns = self.now_ns();
        let msg_span = self
            .tracer
            .open_root(now_ns, SpanKind::Msg, peer_key(dst.as_socket()));
        // Same-socket delivery: virtual nodes (or self-sends) are reflected
        // without serialisation (§III-B).
        if dst.as_socket() == self.cfg.addr.as_socket() {
            self.stats.lock().local_reflections += 1;
            self.tracer.instant(
                now_ns,
                SpanKind::Deliver,
                msg_span,
                msg_span,
                peer_key(dst.as_socket()),
            );
            self.tracer.close(now_ns, msg_span);
            self.port.trigger(NetIndication::Msg(msg));
            self.notify(token, DeliveryStatus::DeliveredLocally);
        } else if let Err(error) = self.send_remote(token, dst, msg, msg_span) {
            self.tracer.close_with(now_ns, msg_span, SPAN_FAILED);
            self.fail(token, error);
        }
    }

    /// Resolves the transport of a message for another socket, encodes it
    /// and hands it to that transport. On success the `msg` span and the
    /// notification belong to the transport path; on `Err` nothing has been
    /// sent and both are still the caller's to end.
    fn send_remote(
        &mut self,
        token: Option<NotifyToken>,
        dst: NetAddress,
        mut msg: NetMessage,
        msg_span: SpanId,
    ) -> Result<(), SendError> {
        let now_ns = self.now_ns();
        let mut proto = msg.header().protocol();
        if proto == Transport::Data {
            self.stats.lock().unresolved_data += 1;
            proto = self
                .cfg
                .data_fallback
                .ok_or(SendError::UnresolvedDataProtocol)?;
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
                self.stats.lock().failovers += 1;
                self.tracer.instant(
                    now_ns,
                    SpanKind::Failover,
                    msg_span,
                    msg_span,
                    u64::from(alt.to_byte()),
                );
            }
        }
        // The transport the message will actually travel over, after DATA
        // fallback and failover resolution; a DATA header says so on the
        // wire.
        if let NetHeader::Data(h) = msg.header_mut() {
            h.selected = Some(proto);
        }
        self.tracer.instant(
            now_ns,
            SpanKind::ChannelPick,
            msg_span,
            msg_span,
            u64::from(proto.to_byte()),
        );
        let frame =
            encode_frame(&msg, self.cfg.compression).map_err(|_| SendError::Serialisation)?;
        match proto {
            Transport::Udp => self.send_udp(token, dst, frame, msg_span),
            Transport::Tcp | Transport::Udt => self.send_stream(token, proto, dst, frame, msg_span),
            Transport::Data => unreachable!("resolved above"),
        }
    }

    fn send_udp(
        &mut self,
        token: Option<NotifyToken>,
        dst: NetAddress,
        frame: Bytes,
        msg_span: SpanId,
    ) -> Result<(), SendError> {
        if frame.len() > MAX_DATAGRAM {
            return Err(SendError::TooLargeForUdp);
        }
        let udp = self.udp.as_ref().ok_or(SendError::Unreachable)?;
        let len = frame.len() as u64;
        udp.send_to(dst.as_socket(), frame)
            .map_err(|_| SendError::TooLargeForUdp)?;
        let mut stats = self.stats.lock();
        stats.sent[Transport::Udp.to_byte() as usize] += 1;
        stats.bytes_out += len;
        drop(stats);
        // Fire-and-forget: the datagram is on the wire, which is as far as
        // the middleware can attribute UDP.
        self.tracer.close(self.now_ns(), msg_span);
        self.notify(token, DeliveryStatus::Sent);
        Ok(())
    }

    fn send_stream(
        &mut self,
        token: Option<NotifyToken>,
        proto: Transport,
        dst: NetAddress,
        frame: Bytes,
        msg_span: SpanId,
    ) -> Result<(), SendError> {
        let key = ChannelKey {
            remote: dst.as_socket(),
            transport: proto,
        };
        match self.channels.get(&key) {
            // The supervisor gave up on this channel; don't queue behind a
            // dead connection. (DATA traffic fails over before reaching
            // here; explicit sends fail fast until a probe restores it.)
            Some(channel) if channel.phase == Phase::Dropped => {
                return Err(SendError::RetryBudgetExhausted);
            }
            Some(_) => {}
            None => self.open_channel(key).map_err(|_| SendError::Unreachable)?,
        }
        let now = self.net.sim().now();
        let channel = self.channels.get_mut(&key).expect("channel just ensured");
        channel.queue.push(
            &self.tracer,
            now.as_nanos(),
            channel_span_key(key),
            frame,
            token,
            msg_span,
        );
        channel.last_activity = now;
        if channel.phase == Phase::Established {
            self.drain_channel(key);
        }
        Ok(())
    }

    /// Starts a connection for `key` and indexes it; the handshake's
    /// outcome arrives as a `Connected` or `Closed` event.
    fn dial(&mut self, key: ChannelKey) -> Result<Connection, BindError> {
        let events = self
            .self_events
            .clone()
            .expect("NetworkComponent used before create_network() wiring");
        let handler = Arc::new(Forwarder { events });
        let node = self.cfg.addr.node();
        let conn = match key.transport {
            Transport::Tcp => {
                // The stack policy's per-destination controller override
                // is consulted at dial time, so a swap takes effect on the
                // next (re)connect even without an explicit recycle.
                let mut cfg = self.cfg.tcp.clone();
                if let Some(algo) = self.cfg.stack.lookup(key.remote) {
                    cfg.cc.algorithm = algo;
                }
                Connection::Tcp(TcpConn::connect(&self.net, node, key.remote, cfg, handler)?)
            }
            Transport::Udt => Connection::Udt(UdtConn::connect(
                &self.net,
                node,
                key.remote,
                self.cfg.udt.clone(),
                handler,
            )?),
            _ => unreachable!("stream channels are TCP or UDT"),
        };
        self.conn_index.insert(conn.id(), key);
        Ok(conn)
    }

    fn open_channel(&mut self, key: ChannelKey) -> Result<(), BindError> {
        let conn = self.dial(key)?;
        let state = ChannelState::new(conn, Phase::Connecting, true, self.net.sim().now());
        self.channels.insert(key, state);
        self.stats.lock().channels_opened += 1;
        Ok(())
    }

    /// Writes what the transport will take, then completes the frames
    /// whose bytes it has acknowledged.
    fn drain_channel(&mut self, key: ChannelKey) {
        let now = self.net.sim().now();
        let now_ns = now.as_nanos();
        let Some(channel) = self.channels.get_mut(&key) else {
            return;
        };
        let Some(conn) = channel.conn.as_ref() else {
            return;
        };
        let (bytes_out, msgs_out) = channel
            .queue
            .drain(&self.tracer, now_ns, |bytes| conn.send(bytes));
        channel.last_activity = now;
        {
            let mut stats = self.stats.lock();
            stats.bytes_out += bytes_out;
            stats.sent[key.transport.to_byte() as usize] += msgs_out;
        }
        let acked = conn.acked_bytes();
        while let Some(frame) = channel.queue.pop_acked(acked) {
            // The transport acked the frame's last byte: transmission and
            // the whole message lifecycle complete here.
            if let Some(token) = frame.finish(&self.tracer, now_ns, 0) {
                self.port
                    .trigger(NetIndication::NotifyResp(token, DeliveryStatus::Sent));
            }
        }
    }

    // --- inbound --------------------------------------------------------

    fn handle_event(&mut self, ctx: &mut ComponentContext, event: NetEvent) {
        match event {
            NetEvent::Connected(id) => {
                if let Some(&key) = self.conn_index.get(&id) {
                    let now_ns = self.now_ns();
                    if let Some(channel) = self.channels.get_mut(&key) {
                        let attempts = match channel.phase {
                            Phase::Reconnecting { attempts } => Some(attempts),
                            // A post-budget probe got through (the outage
                            // span already closed at the drop).
                            Phase::Dropped => Some(0),
                            Phase::Connecting | Phase::Established => None,
                        };
                        channel.phase = Phase::Established;
                        // The redial that produced this handshake — and the
                        // outage it belongs to — end here, at the same
                        // instant the `restored` status is stamped.
                        let redial = std::mem::take(&mut channel.redial_span);
                        let outage = std::mem::take(&mut channel.outage_span);
                        if let Some(attempts) = attempts {
                            self.tracer.close(now_ns, redial);
                            self.tracer.close(now_ns, outage);
                            self.stats.lock().reconnects += 1;
                            self.emit_status(key, ConnStatus::ConnectionRestored { attempts });
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
                self.conn_index.insert(conn.id(), key);
                // The dialling side supervises; if this channel dies we
                // fall back to failing its queued replies.
                let state =
                    ChannelState::new(conn, Phase::Established, false, self.net.sim().now());
                self.channels.insert(key, state);
                self.stats.lock().channels_opened += 1;
            }
            NetEvent::Data(id, data) => {
                self.stats.lock().bytes_in += data.len() as u64;
                let Some(&key) = self.conn_index.get(&id) else {
                    return;
                };
                let Some(channel) = self.channels.get_mut(&key) else {
                    return;
                };
                channel.decoder.push(data);
                channel.last_activity = self.net.sim().now();
                let mut frames = std::mem::take(&mut self.inbound);
                let poisoned = loop {
                    match channel.decoder.next_message() {
                        Ok(Some(frame)) => frames.push(frame),
                        Ok(None) => break false,
                        Err(_) => break true,
                    }
                };
                if poisoned {
                    // Framing cannot resynchronise after a bad length
                    // prefix: one failure, and once the frames before it
                    // are delivered the connection ends like any other
                    // that closes under its channel.
                    self.stats.lock().decode_failures += 1;
                    if let Some(conn) = &channel.conn {
                        conn.close();
                    }
                }
                for frame in frames.drain(..) {
                    self.handle_frame(frame, Some((id, key)));
                }
                self.inbound = frames;
                if poisoned {
                    self.on_conn_closed(ctx, id);
                }
            }
            NetEvent::Writable(id) => {
                if let Some(&key) = self.conn_index.get(&id) {
                    self.drain_channel(key);
                }
            }
            NetEvent::Closed(id, _reason) => self.on_conn_closed(ctx, id),
            NetEvent::Datagram(_src, data) => {
                self.stats.lock().bytes_in += data.len() as u64;
                // Datagrams carry exactly one frame (with length prefix).
                let mut dec = FrameDecoder::new();
                dec.push(data);
                match dec.next_message() {
                    Ok(Some(frame)) => self.handle_frame(frame, None),
                    Ok(None) | Err(_) => {
                        self.stats.lock().decode_failures += 1;
                    }
                }
            }
        }
    }

    fn handle_frame(
        &mut self,
        frame: Result<NetMessage, SerError>,
        via: Option<(ConnectionId, ChannelKey)>,
    ) {
        let Ok(mut msg) = frame else {
            self.stats.lock().decode_failures += 1;
            return;
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
            let idx = msg.header().protocol().to_byte() as usize;
            self.stats.lock().received[idx.min(3)] += 1;
            // Receiver-side delivery edge. Trace ids never cross the wire
            // (that would perturb frame sizes and thus all timings), so
            // this is a root instant; offline analysis joins it to the
            // sender's `msg` span by source key and time window.
            self.tracer.instant(
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

    /// A connection ended under its channel — the transport said so, or the
    /// inbound path gave up on it.
    fn on_conn_closed(&mut self, ctx: &mut ComponentContext, id: ConnectionId) {
        if let Some(key) = self.conn_index.remove(&id) {
            if self.channels.contains_key(&key) {
                self.stats.lock().channels_closed += 1;
                self.on_channel_down(ctx, key);
            }
        }
    }

    /// Reacts to an unexpected connection loss on a known channel: either
    /// supervises (rewind + backoff redial) or, when supervision is off or
    /// the channel was accepted rather than dialled, fails everything
    /// (legacy at-most-once behaviour).
    fn on_channel_down(&mut self, ctx: &mut ComponentContext, key: ChannelKey) {
        let tr = &self.tracer;
        let now_ns = self.now_ns();
        let (rc, channel) = match (&self.cfg.reconnect, self.channels.get_mut(&key)) {
            (Some(rc), Some(channel)) if channel.originated => (rc, channel),
            _ => {
                // At-most-once: queued and unacknowledged messages are
                // lost; notify requesters.
                if let Some(mut channel) = self.channels.remove(&key) {
                    self.fail_frames(channel.queue.take_all(), SendError::ChannelClosed);
                }
                return;
            }
        };
        channel.conn = None;
        // A redial attempt that ends in another Closed event failed.
        let failed_redial = std::mem::take(&mut channel.redial_span);
        tr.close_with(now_ns, failed_redial, SPAN_FAILED);
        // First loss on a healthy channel opens the `outage` span, at the
        // same instant the `ConnectionLost` status below is stamped — the
        // span's window therefore equals the reported recovery latency,
        // and its children (requeue, backoff, redial) partition it.
        if matches!(channel.phase, Phase::Connecting | Phase::Established)
            && channel.outage_span.is_none()
        {
            channel.outage_span = tr.open_root(now_ns, SpanKind::Outage, channel_span_key(key));
        }
        let outage = channel.outage_span;
        let requeued = channel.queue.rewind(tr, now_ns, channel_span_key(key));
        if requeued > 0 {
            tr.instant(now_ns, SpanKind::Requeue, outage, outage, requeued);
        }
        match channel.phase {
            Phase::Dropped => {
                // A probe redial failed; keep probing.
                self.schedule_probe(ctx, key);
            }
            Phase::Reconnecting { attempts } if attempts >= rc.max_retries => {
                // Budget exhausted: fail queued frames, report, keep the
                // entry so failover sees the dropped state and probes can
                // restore it.
                channel.phase = Phase::Dropped;
                let ended_outage = std::mem::take(&mut channel.outage_span);
                let failed = channel.queue.take_all();
                tr.close_with(now_ns, ended_outage, SPAN_FAILED);
                self.fail_frames(failed, SendError::RetryBudgetExhausted);
                self.stats.lock().channels_dropped += 1;
                self.emit_status(key, ConnStatus::ConnectionDropped);
                self.schedule_probe(ctx, key);
            }
            phase => {
                let attempts = match phase {
                    Phase::Reconnecting { attempts } => attempts + 1,
                    _ => 1,
                };
                channel.phase = Phase::Reconnecting { attempts };
                if matches!(phase, Phase::Connecting | Phase::Established) {
                    self.emit_status(key, ConnStatus::ConnectionLost);
                }
                let delay = rc.backoff(attempts, &mut self.jitter_rng);
                let timer = ctx.schedule_once(delay);
                self.retry_timers.insert(timer, key);
                // `backoff` covers timer armed → fired (closed in
                // `redial`); one per attempt, keyed by the attempt number.
                let backoff =
                    tr.open(now_ns, SpanKind::Backoff, outage, outage, u64::from(attempts));
                if let Some(channel) = self.channels.get_mut(&key) {
                    channel.backoff_span = backoff;
                }
            }
        }
    }

    /// After the budget is spent, a slow probe keeps testing the peer.
    fn schedule_probe(&mut self, ctx: &mut ComponentContext, key: ChannelKey) {
        let probe = self.cfg.reconnect.as_ref().and_then(|rc| rc.probe_interval);
        if let Some(interval) = probe {
            let timer = ctx.schedule_once(interval);
            self.retry_timers.insert(timer, key);
        }
    }

    /// Dials the channel again (retry-timer and probe-timer handler).
    fn redial(&mut self, ctx: &mut ComponentContext, key: ChannelKey) {
        let now_ns = self.now_ns();
        let outage = match self.channels.get_mut(&key) {
            Some(channel) if channel.conn.is_none() => {
                // The backoff wait is over the moment the timer fires.
                let backoff = std::mem::take(&mut channel.backoff_span);
                self.tracer.close(now_ns, backoff);
                channel.outage_span
            }
            // Channel torn down, or a concurrent path already restored it.
            _ => return,
        };
        self.stats.lock().reconnect_attempts += 1;
        match self.dial(key) {
            Ok(conn) => {
                // `redial` spans the dial attempt: closed on the Connected
                // event (success) or the next Closed event (failure,
                // SPAN_FAILED).
                let redial = self.tracer.open(
                    now_ns,
                    SpanKind::Redial,
                    outage,
                    outage,
                    channel_span_key(key),
                );
                let channel = self.channels.get_mut(&key).expect("checked above");
                channel.attach(conn);
                channel.redial_span = redial;
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
        // Idle eligibility requires an empty queue — nothing waiting *and*
        // nothing awaiting transport acknowledgement: tearing down a
        // channel with unacked frames would lose them. Only established
        // channels are swept; reconnecting ones own retry timers that must
        // stay valid.
        self.channels.retain(|_, c| {
            let expired = c.phase == Phase::Established
                && c.queue.is_empty()
                && now.duration_since(c.last_activity) >= idle;
            if expired {
                if let Some(conn) = c.conn.take() {
                    self.conn_index.remove(&conn.id());
                    conn.close();
                }
                self.stats.lock().channels_closed += 1;
            }
            !expired
        });
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
    /// transport had not acknowledged are written again on the fresh
    /// connection, ahead of the waiting ones, and the swap counts as a
    /// supervision episode ([`MiddlewareStats::controller_swaps`]) for the
    /// delivery oracle's duplicate budget.
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
        let now_ns = self.now_ns();
        let Some(channel) = self.channels.get_mut(&key) else {
            return;
        };
        // Held to the end: its port is not free for the replacement.
        let Some(old_conn) = channel.conn.take() else {
            return;
        };
        self.conn_index.remove(&old_conn.id());
        old_conn.close();
        channel.phase = Phase::Connecting;
        // We dial the replacement, so this side supervises it from now on.
        channel.originated = true;
        // At-least-once carry-over, exactly like supervision.
        channel
            .queue
            .rewind(&self.tracer, now_ns, channel_span_key(key));
        {
            let mut stats = self.stats.lock();
            stats.controller_swaps += 1;
            stats.channels_closed += 1;
        }
        match self.dial(key) {
            Ok(conn) => {
                if let Some(channel) = self.channels.get_mut(&key) {
                    channel.attach(conn);
                }
                self.stats.lock().channels_opened += 1;
                // The handshake's Connected event drains the queue.
            }
            Err(_) => {
                // Local dial failure (port space exhausted): fail queued
                // frames, the at-most-once fallback.
                if let Some(mut channel) = self.channels.remove(&key) {
                    self.fail_frames(channel.queue.take_all(), SendError::ChannelClosed);
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

    let forwarder = Arc::new(Forwarder {
        events: events.clone(),
    });
    let tcp_listener =
        TcpListener::bind(net, addr.node(), addr.port(), tcp_cfg, forwarder.clone())?;
    let udt_listener =
        UdtListener::bind(net, addr.node(), addr.port(), udt_cfg, forwarder.clone())?;
    let udp_socket = UdpSocket::bind(net, addr.node(), addr.port(), forwarder)?;

    comp.on_definition(|c| {
        c.self_events = Some(events.clone());
        c.udp = Some(udp_socket);
        c.listeners.push(Box::new(tcp_listener));
        c.listeners.push(Box::new(udt_listener));
    });
    Ok(comp)
}
