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
//! * conservative channel teardown: channels stay open for the lifetime of
//!   the component ("channel establishment might be expensive … generally
//!   channels will be kept open as long as possible"), and one this side
//!   dialled is redialled when its connection dies;
//! * same-host reflection: messages whose destination shares this
//!   component's socket (virtual nodes) are delivered back up the port
//!   without ever being serialised;
//! * multi-hop forwarding for [`RoutingHeader`](crate::header::RoutingHeader)
//!   messages;
//! * delivery notifications (`MessageNotify`).
//!
//! Mechanism, policy and the world live apart. The mechanism: the wire
//! format ([`frame`]), each channel's send queue with its write cursor
//! (`channel.rs`) and the counters (`stats.rs`). The policy: the channel
//! table (`machine.rs`), a world-free machine that decides establishment,
//! supervision, `DATA` failover and re-keying. This file is the shell:
//! ports, transport callbacks, sockets, frame routing and the machine's
//! `Io` over the network, the handler's component context and the port.

mod channel;
pub mod frame;
mod machine;
mod stats;

pub use stats::{MiddlewareStats, StatsHandle};

use std::sync::Arc;

use kmsg_telemetry::bytes::Bytes;

use kmsg_component::prelude::*;
use kmsg_netsim::iface::{CloseReason, Connection, ConnectionId, StreamAccept, StreamEvents};
use kmsg_netsim::network::{BindError, Network};
use kmsg_netsim::packet::Endpoint;
use kmsg_netsim::tcp::{TcpConfig, TcpConn, TcpListener};
use kmsg_netsim::udp::{UdpEvents, UdpSocket, MAX_DATAGRAM};
use kmsg_netsim::udt::{UdtConfig, UdtConn, UdtListener};

use kmsg_telemetry::{EventKind, SpanId, SpanKind};

use crate::address::{Address, NetAddress};
use crate::header::{Header, NetHeader};
use crate::msg::{
    ChannelStatus, ConnStatus, DeliveryStatus, NetIndication, NetMessage, NetRequest, NetworkPort,
    NotifyToken, SendError,
};
use crate::ser::SerError;
use crate::transport::Transport;
use channel::SPAN_FAILED;
use frame::{encode_frame, Compression, FrameDecoder};
pub(crate) use machine::peer_key;
use machine::{ChannelKey, Io, Machine, Wire};

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
    /// interval so the channel can recover.
    pub probe_interval: std::time::Duration,
}

impl Default for ReconnectConfig {
    fn default() -> Self {
        ReconnectConfig {
            max_retries: 8,
            base_backoff: std::time::Duration::from_millis(200),
            max_backoff: std::time::Duration::from_secs(10),
            probe_interval: std::time::Duration::from_secs(5),
        }
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
    /// Channel supervision: on an unexpected close of a channel this side
    /// dialled, keep the channel entry, requeue unacknowledged frames and
    /// redial with backoff. An accepted channel's peer supervises it; here
    /// its queued and unacknowledged frames fail at once with
    /// [`SendError::ChannelClosed`].
    pub reconnect: ReconnectConfig,
}

impl NetworkConfig {
    /// A configuration listening on `addr` with default transports.
    #[must_use]
    pub fn new(addr: NetAddress) -> Self {
        NetworkConfig {
            addr,
            tcp: TcpConfig::default(),
            udt: UdtConfig::default(),
            reconnect: ReconnectConfig::default(),
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

impl Wire for Connection {
    type Id = ConnectionId;

    fn id(&self) -> ConnectionId {
        Connection::id(self)
    }

    fn send(&self, bytes: Bytes) -> usize {
        Connection::send(self, bytes)
    }

    fn acked_bytes(&self) -> u64 {
        Connection::acked_bytes(self)
    }

    fn close(&self) {
        Connection::close(self)
    }
}

/// The machine's [`Io`] over the network, the port and the running
/// handler's [`ComponentContext`].
struct WorldIo<'a> {
    net: &'a Network,
    cfg: &'a NetworkConfig,
    events: Option<&'a SelfRef<NetEvent>>,
    port: &'a ProvidedPort<NetworkPort>,
    ctx: &'a mut ComponentContext,
}

impl Io<Connection> for WorldIo<'_> {
    fn dial(&mut self, key: ChannelKey) -> Result<Connection, BindError> {
        let events = self
            .events
            .expect("NetworkComponent used before create_network() wiring");
        let handler = Arc::new(Forwarder {
            events: events.clone(),
        });
        let node = self.cfg.addr.node();
        Ok(match key.transport {
            Transport::Tcp => {
                let cfg = self.cfg.tcp.clone();
                Connection::Tcp(TcpConn::connect(self.net, node, key.remote, cfg, handler)?)
            }
            Transport::Udt => {
                let cfg = self.cfg.udt.clone();
                Connection::Udt(UdtConn::connect(self.net, node, key.remote, cfg, handler)?)
            }
            _ => unreachable!("stream channels are TCP or UDT"),
        })
    }

    /// Surfaces a channel status transition on the network port and in the
    /// flight recorder (the latter is how the learner's telemetry stream
    /// observes outages alongside its `Decision` events).
    fn status(&mut self, key: ChannelKey, status: ConnStatus) {
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

    fn notify(&mut self, token: NotifyToken, status: DeliveryStatus) {
        self.port.trigger(NetIndication::NotifyResp(token, status));
    }

    fn schedule(&mut self, delay: std::time::Duration) -> TimeoutId {
        self.ctx.schedule_once(delay)
    }
}

/// The network component. Create with [`create_network`].
pub struct NetworkComponent {
    /// Kompics' network port.
    pub(crate) port: ProvidedPort<NetworkPort>,
    /// Transport callback events.
    pub events: SelfPort<NetEvent>,
    net: Network,
    cfg: NetworkConfig,
    self_events: Option<SelfRef<NetEvent>>,
    machine: Machine<Connection>,
    udp: Option<UdpSocket>,
    /// Held for their bindings.
    _listeners: Option<(TcpListener, UdtListener)>,
    /// The frames of the `Data` event in hand, decoded and not yet
    /// handled; empty otherwise, kept for its capacity.
    inbound: Vec<Result<NetMessage, SerError>>,
}

impl std::fmt::Debug for NetworkComponent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetworkComponent")
            .field("addr", &self.cfg.addr)
            .finish_non_exhaustive()
    }
}

impl NetworkComponent {
    /// Builds the component state; prefer [`create_network`], which also
    /// binds the listeners.
    #[must_use]
    pub(crate) fn new(net: Network, cfg: NetworkConfig) -> Self {
        let jitter_rng = net
            .sim()
            .rng(&format!("net-supervisor-{}", cfg.addr.as_socket()));
        let tracer = net.sim().recorder().tracer();
        let machine = Machine::new(cfg.reconnect.clone(), jitter_rng, tracer);
        NetworkComponent {
            port: ProvidedPort::new(),
            events: SelfPort::new(),
            net,
            cfg,
            self_events: None,
            machine,
            udp: None,
            _listeners: None,
            inbound: Vec::new(),
        }
    }

    /// The live statistics handle.
    #[must_use]
    pub fn stats(&self) -> StatsHandle {
        self.machine.stats.clone()
    }

    /// The machine, and the [`Io`] over the rest of the component.
    fn split<'a>(
        &'a mut self,
        ctx: &'a mut ComponentContext,
    ) -> (&'a mut Machine<Connection>, WorldIo<'a>) {
        let io = WorldIo {
            net: &self.net,
            cfg: &self.cfg,
            events: self.self_events.as_ref(),
            port: &self.port,
            ctx,
        };
        (&mut self.machine, io)
    }

    /// Current virtual time in nanoseconds.
    fn now_ns(&self) -> u64 {
        self.net.now().as_nanos()
    }

    fn notify(&self, token: Option<NotifyToken>, status: DeliveryStatus) {
        if let Some(token) = token {
            self.port.trigger(NetIndication::NotifyResp(token, status));
        }
    }

    // --- outbound -------------------------------------------------------

    fn handle_send(
        &mut self,
        ctx: &mut ComponentContext,
        token: Option<NotifyToken>,
        msg: NetMessage,
    ) {
        let dst = *msg.header().destination();
        // Every message gets a `msg` root span at the send edge; its id
        // doubles as the trace id for all downstream spans (enqueue, xmit,
        // channel pick). Forwarded multi-hop messages re-enter here and get
        // a fresh per-relay root, so each middleware hop is attributable.
        let now_ns = self.now_ns();
        let msg_span =
            self.machine
                .tracer
                .open_root(now_ns, SpanKind::Msg, peer_key(dst.as_socket()));
        // Same-socket delivery: virtual nodes (or self-sends) are reflected
        // without serialisation (§III-B).
        if dst.as_socket() == self.cfg.addr.as_socket() {
            self.machine.stats.lock().local_reflections += 1;
            self.machine.tracer.instant(
                now_ns,
                SpanKind::Deliver,
                msg_span,
                msg_span,
                peer_key(dst.as_socket()),
            );
            self.machine.tracer.close(now_ns, msg_span);
            self.port.trigger(NetIndication::Msg(msg));
            self.notify(token, DeliveryStatus::DeliveredLocally);
        } else if let Err(error) = self.send_remote(ctx, token, dst, msg, msg_span) {
            self.machine
                .tracer
                .close_with(now_ns, msg_span, SPAN_FAILED);
            self.machine.stats.lock().count_failure(error);
            self.notify(token, DeliveryStatus::Failed(error));
        }
    }

    /// Resolves the transport of a message for another socket, encodes it
    /// and hands it to that transport. On success the `msg` span and the
    /// notification belong to the transport path; on `Err` nothing has been
    /// sent and both are still the caller's to end.
    fn send_remote(
        &mut self,
        ctx: &mut ComponentContext,
        token: Option<NotifyToken>,
        dst: NetAddress,
        mut msg: NetMessage,
        msg_span: SpanId,
    ) -> Result<(), SendError> {
        let now_ns = self.now_ns();
        let mut proto = msg.header().protocol();
        // No interceptor resolved this `DATA` message: it goes over TCP.
        if proto == Transport::Data {
            self.machine.stats.lock().unresolved_data += 1;
            proto = Transport::Tcp;
        }
        // Graceful degradation: DATA-addressed traffic whose selected
        // stream transport has exhausted its reconnect budget fails over to
        // the surviving one.
        if matches!(msg.header(), NetHeader::Data(_)) {
            if let Some(alt) = self.machine.failover(dst.as_socket(), proto) {
                proto = alt;
                self.machine.stats.lock().failovers += 1;
                self.machine.tracer.instant(
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
        self.machine.tracer.instant(
            now_ns,
            SpanKind::ChannelPick,
            msg_span,
            msg_span,
            u64::from(proto.to_byte()),
        );
        let frame =
            encode_frame(&msg, Compression::default()).map_err(|_| SendError::Serialisation)?;
        match proto {
            Transport::Udp => self.send_udp(token, dst, frame, msg_span),
            Transport::Tcp | Transport::Udt => {
                let key = ChannelKey {
                    remote: dst.as_socket(),
                    transport: proto,
                };
                let now = self.net.now();
                let (machine, mut io) = self.split(ctx);
                machine.send(now, &mut io, key, frame, token, msg_span)
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
    ) -> Result<(), SendError> {
        if frame.len() > MAX_DATAGRAM {
            return Err(SendError::TooLargeForUdp);
        }
        let udp = self.udp.as_ref().ok_or(SendError::Unreachable)?;
        let len = frame.len() as u64;
        udp.send_to(dst.as_socket(), frame)
            .map_err(|_| SendError::TooLargeForUdp)?;
        let mut stats = self.machine.stats.lock();
        stats.sent[Transport::Udp.to_byte() as usize] += 1;
        stats.bytes_out += len;
        drop(stats);
        // Fire-and-forget: the datagram is on the wire, which is as far as
        // the middleware can attribute UDP.
        self.machine.tracer.close(self.now_ns(), msg_span);
        self.notify(token, DeliveryStatus::Sent);
        Ok(())
    }

    // --- inbound --------------------------------------------------------

    fn handle_event(&mut self, ctx: &mut ComponentContext, event: NetEvent) {
        let now = self.net.now();
        let (machine, mut io) = self.split(ctx);
        match event {
            NetEvent::Connected(id) => machine.connected(now, &mut io, id),
            NetEvent::Writable(id) => machine.writable(now, &mut io, id),
            NetEvent::Closed(id, _reason) => machine.closed(now, &mut io, id),
            NetEvent::Accepted(conn) => {
                let key = ChannelKey {
                    remote: conn.peer(),
                    transport: match conn {
                        Connection::Tcp(_) => Transport::Tcp,
                        Connection::Udt(_) => Transport::Udt,
                    },
                };
                machine.accepted(key, conn);
            }
            NetEvent::Data(id, data) => {
                let mut frames = std::mem::take(&mut self.inbound);
                let decoded = self.machine.data(id, data, &mut frames);
                if let Some((key, poisoned)) = decoded {
                    for frame in frames.drain(..) {
                        self.handle_frame(ctx, frame, Some((id, key)));
                    }
                    if poisoned {
                        let (machine, mut io) = self.split(ctx);
                        machine.closed(now, &mut io, id);
                    }
                }
                self.inbound = frames;
            }
            NetEvent::Datagram(_src, data) => {
                self.machine.stats.lock().bytes_in += data.len() as u64;
                // Datagrams carry exactly one frame (with length prefix).
                let mut dec = FrameDecoder::new();
                dec.push(data);
                match dec.next_message() {
                    Ok(Some(frame)) => self.handle_frame(ctx, frame, None),
                    Ok(None) | Err(_) => {
                        self.machine.stats.lock().decode_failures += 1;
                    }
                }
            }
        }
    }

    fn handle_frame(
        &mut self,
        ctx: &mut ComponentContext,
        frame: Result<NetMessage, SerError>,
        via: Option<(ConnectionId, ChannelKey)>,
    ) {
        let Ok(mut msg) = frame else {
            self.machine.stats.lock().decode_failures += 1;
            return;
        };
        if let Some((conn_id, key)) = via {
            self.machine
                .rekey(conn_id, key, msg.header().source().as_socket());
        }
        let my_socket = self.cfg.addr.as_socket();
        if msg.header().destination().as_socket() == my_socket {
            // Multi-hop: if a route names us as the next hop, advance it
            // and forward unless we are the final destination.
            if let NetHeader::Routing(rh) = msg.header_mut() {
                if rh
                    .route
                    .as_ref()
                    .is_some_and(super::header::Route::has_next)
                {
                    rh.advance();
                    if msg.header().destination().as_socket() != my_socket {
                        self.forward_or_drop(ctx, msg);
                        return;
                    }
                }
            }
            let idx = msg.header().protocol().to_byte() as usize;
            self.machine.stats.lock().received[idx.min(3)] += 1;
            // Receiver-side delivery edge. Trace ids never cross the wire
            // (that would perturb frame sizes and thus all timings), so
            // this is a root instant; offline analysis joins it to the
            // sender's `msg` span by source key and time window.
            self.machine.tracer.instant(
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
            self.forward_or_drop(ctx, msg);
        }
    }

    /// Forwards a transiting message, charging one unit of routing TTL.
    /// A routed message whose budget is exhausted is dropped with a
    /// recorded reason instead — the backstop that keeps a malformed or
    /// stale (e.g. cyclic) route from circulating forever.
    fn forward_or_drop(&mut self, ctx: &mut ComponentContext, mut msg: NetMessage) {
        if let NetHeader::Routing(rh) = msg.header_mut() {
            if rh.ttl == 0 {
                let dst_node = u64::from(Header::destination(&*rh).as_socket().node.index());
                self.machine.stats.lock().ttl_drops += 1;
                let sim = self.net.sim();
                let rec = sim.recorder();
                if rec.is_enabled() {
                    rec.record(
                        sim.now().as_nanos(),
                        EventKind::TtlDrop {
                            node: u64::from(self.cfg.addr.as_socket().node.index()),
                            dst: dst_node,
                        },
                    );
                }
                return;
            }
            rh.ttl -= 1;
        }
        self.machine.stats.lock().forwarded += 1;
        self.handle_send(ctx, None, msg);
    }
}

impl ComponentDefinition for NetworkComponent {
    fn execute(&mut self, ctx: &mut ComponentContext, max: usize) -> usize {
        execute_ports!(self, ctx, max, [
            provided port: NetworkPort,
            selfport events: NetEvent,
        ])
    }

    fn on_timeout(&mut self, ctx: &mut ComponentContext, id: TimeoutId) {
        let now = self.net.now();
        let (machine, mut io) = self.split(ctx);
        machine.timeout(now, &mut io, id);
    }
}

impl Provide<NetworkPort> for NetworkComponent {
    fn handle(&mut self, ctx: &mut ComponentContext, event: NetRequest) {
        match event {
            NetRequest::Msg(msg) => self.handle_send(ctx, None, msg),
            NetRequest::NotifyReq(token, msg) => self.handle_send(ctx, Some(token), msg),
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
        c._listeners = Some((tcp_listener, udt_listener));
    });
    Ok(comp)
}
