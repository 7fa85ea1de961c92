//! The network fabric: nodes, links, static routes, and packet dispatch.
//!
//! A [`Network`] connects simulated hosts through directed [`Link`]s. Routes
//! are static per ordered node pair and may traverse multiple links (used
//! both for multi-hop topologies and to chain per-endpoint processing links,
//! e.g. the UDT receive-processing bottleneck).
//!
//! Transport endpoints register [`PacketSink`]s under a
//! `(node, protocol, port)` binding; arriving packets are dispatched to the
//! matching sink.
//!
//! # Dense fabric state
//!
//! Sized for datacenter-scale worlds (10⁴ hosts, 10⁴ flows): routes live
//! flattened in one append-only link arena and per-hop events carry an
//! 8-byte [`RouteRef`] span handle instead of a refcounted `Arc<Vec<_>>`;
//! the hot-path lookups (route table, sink demux) use packed `u64` keys in
//! [`FxHashMap`]s rather than tuple keys under SipHash (both keys differ
//! between hosts in their *high* half only, which [`crate::slab::FxHasher`]
//! finishes for). No `Arc` is cloned
//! on the per-hop path — links are borrowed in place from the dense link
//! table while the fabric lock is held.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};

use kmsg_telemetry::{EventKind, SpanId, SpanKind};
use parking_lot::Mutex;

use crate::engine::Sim;
use crate::flowstack::{FlowStack, Protocol};
use crate::link::{DropReason, Link, LinkConfig, LinkId, Verdict};
use crate::memscope;
use crate::packet::{Endpoint, NodeId, Packet, WireProtocol};
use crate::pool::{PacketHandle, PacketPool};
use crate::slab::FxHashMap;
use crate::time::SimTime;
use crate::trace::{PacketEvent, PacketRecord, PacketTracer};

/// A handle to an installed route: a `(offset, len)` span into the
/// network's flattened link arena. 8 bytes and `Copy`, so packet-hop events
/// carry it by value. The arena is append-only, which keeps spans held by
/// in-flight hop events valid even after the route is replaced (matching
/// the old `Arc<Vec<LinkId>>` semantics: packets already under way finish
/// on the path they started on).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct RouteRef {
    off: u32,
    len: u32,
}

impl RouteRef {
    /// The empty route: used for node-local loopback deliveries.
    pub(crate) const EMPTY: RouteRef = RouteRef { off: 0, len: 0 };
}

/// Packs a `(node, protocol, port)` binding into one 8-byte map key.
#[inline]
pub(crate) fn sink_key(node: NodeId, protocol: WireProtocol, port: u16) -> u64 {
    (u64::from(node.index() as u32) << 32) | ((protocol as u64) << 16) | u64::from(port)
}

/// Packs an ordered `(src, dst)` node pair into one 8-byte map key.
#[inline]
pub(crate) fn route_key(src: NodeId, dst: NodeId) -> u64 {
    (u64::from(src.index() as u32) << 32) | u64::from(dst.index() as u32)
}

/// `flight` span close keys: how the packet's journey through the fabric
/// ended (`key` of the span's [`EventKind::SpanClose`]).
pub const FLIGHT_DELIVERED: u64 = 0;
/// Dropped at a link (queue overflow, random loss, policing, link down).
pub const FLIGHT_DROPPED: u64 = 1;
/// Reached the destination node but no sink was bound to the port.
pub const FLIGHT_NO_SINK: u64 = 2;
/// No route installed between the endpoints.
pub const FLIGHT_NO_ROUTE: u64 = 3;
/// Died mid-flight because the link it was crossing was severed.
pub const FLIGHT_SEVERED: u64 = 4;
/// `hop` span close key when the packet died to a sever on that hop.
pub const HOP_SEVERED: u64 = 1;

/// Packs a `(src, dst)` endpoint pair into a `flight`-span correlation key
/// (16 bits each of src node, src port, dst node, dst port — node indices
/// above 2^16 alias, which only blurs correlation, never semantics).
#[inline]
fn flight_key(src: Endpoint, dst: Endpoint) -> u64 {
    (u64::from(src.node.index() as u16) << 48)
        | (u64::from(src.port) << 32)
        | (u64::from(dst.node.index() as u16) << 16)
        | u64::from(dst.port)
}

/// First ephemeral port (IANA dynamic range).
pub(crate) const EPHEMERAL_LO: u16 = 49152;
/// Number of ports in the ephemeral range (49152..=65535).
pub(crate) const EPHEMERAL_SPAN: u32 = (u16::MAX - EPHEMERAL_LO) as u32 + 1;

/// Receives packets addressed to a bound `(node, protocol, port)`.
pub trait PacketSink: Send + Sync {
    /// Called when a packet arrives. Runs inside a simulation event; the
    /// implementation may send packets and schedule further events.
    fn on_packet(&self, net: &Network, pkt: Packet);
}

/// Cumulative network-wide packet counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Packets accepted into the fabric.
    pub sent: u64,
    /// Packets delivered to a sink.
    pub delivered: u64,
    /// Packets dropped by links (any reason).
    pub dropped_link: u64,
    /// Packets dropped for lack of a route.
    pub dropped_no_route: u64,
    /// Packets that arrived at a port with no bound sink.
    pub dropped_no_sink: u64,
}

struct NetInner {
    node_names: Vec<String>,
    /// Dense link table. Append-only: a `LinkId` is a plain index with an
    /// implicit generation of zero. The `Arc` exists only for the
    /// control-plane accessor ([`Network::link`]); the per-hop path borrows
    /// the link in place and never touches the refcount.
    links: Vec<Arc<Link>>,
    /// Route index: packed `(src, dst)` pair → span into `route_arena`.
    routes: FxHashMap<u64, RouteRef>,
    /// Flattened, append-only storage for every installed route's links.
    route_arena: Vec<LinkId>,
    /// Sink demux: packed `(node, protocol, port)` → sink.
    sinks: FxHashMap<u64, Arc<dyn PacketSink>>,
    /// Per-node cursor into the ephemeral port range.
    next_ephemeral: FxHashMap<NodeId, u16>,
    /// Pooled storage for in-flight packets: hop events carry 8-byte
    /// generation-checked handles into this arena instead of owning boxes,
    /// and terminal outcomes (deliver/drop/sever) recycle the slot.
    pool: PacketPool,
    stats: NetworkStats,
    tracer: Option<Arc<dyn PacketTracer>>,
    /// Delay applied to node-local (same-node) deliveries with no route.
    local_delay: std::time::Duration,
    stacks: Stacks,
}

/// Per-network flow tables of the stream transports, each created lazily on
/// first use of its protocol. A stack holds a [`WeakNetwork`]
/// back-reference, so this is not a cycle.
#[derive(Default)]
pub(crate) struct Stacks {
    pub(crate) tcp: Option<Arc<FlowStack<crate::tcp::TcpConfig>>>,
    pub(crate) udt: Option<Arc<FlowStack<crate::udt::UdtConfig>>>,
}

impl NetInner {
    /// The link sequence behind a route handle.
    #[inline]
    fn route_links(&self, r: RouteRef) -> &[LinkId] {
        &self.route_arena[r.off as usize..(r.off + r.len) as usize]
    }
}

/// What every handle to one fabric shares.
struct Fabric {
    state: Mutex<NetInner>,
    /// Mirrors `state.tracer.is_some()` so the per-packet trace path can
    /// skip the fabric lock entirely when no tracer is installed (the
    /// common case outside debugging runs).
    has_tracer: AtomicBool,
}

/// Weak counterpart of [`Network`], held by what the fabric or the engine's
/// event store can reach: the transport stacks (registered as packet sinks)
/// and packet-hop events. A strong reference from either would close a
/// cycle and leak whole worlds. It carries no `Sim` for the same reason: a
/// pending hop event must not own the engine it waits in.
#[derive(Clone)]
pub(crate) struct WeakNetwork(Weak<Fabric>);

impl WeakNetwork {
    /// Rebuilds a full handle to the fabric on `sim`, or `None` once the
    /// fabric is gone.
    pub(crate) fn upgrade(&self, sim: &Sim) -> Option<Network> {
        Some(Network {
            sim: sim.clone(),
            inner: self.0.upgrade()?,
        })
    }
}

/// Handle to the simulated network fabric. Cheaply cloneable.
#[derive(Clone)]
pub struct Network {
    sim: Sim,
    inner: Arc<Fabric>,
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.state.lock();
        f.debug_struct("Network")
            .field("nodes", &inner.node_names.len())
            .field("links", &inner.links.len())
            .field("stats", &inner.stats)
            .finish()
    }
}

/// Error returned when a port binding conflicts with an existing one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BindError {
    /// The conflicting binding.
    pub endpoint: Endpoint,
    /// The protocol of the attempted binding.
    pub protocol: WireProtocol,
}

impl fmt::Display for BindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "port {} already bound for {:?} on {}",
            self.endpoint.port, self.protocol, self.endpoint.node
        )
    }
}

impl std::error::Error for BindError {}

impl Network {
    /// Creates an empty network on the given simulation.
    #[must_use]
    pub fn new(sim: &Sim) -> Self {
        Network {
            sim: sim.clone(),
            inner: Arc::new(Fabric {
                state: Mutex::new(NetInner {
                    node_names: Vec::new(),
                    links: Vec::new(),
                    routes: FxHashMap::default(),
                    route_arena: Vec::new(),
                    sinks: FxHashMap::default(),
                    next_ephemeral: FxHashMap::default(),
                    pool: PacketPool::new(),
                    stats: NetworkStats::default(),
                    tracer: None,
                    local_delay: std::time::Duration::from_micros(5),
                    stacks: Stacks::default(),
                }),
                has_tracer: AtomicBool::new(false),
            }),
        }
    }

    /// The simulation this network runs on.
    #[must_use]
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// A weak handle for what must not keep the fabric alive.
    pub(crate) fn downgrade(&self) -> WeakNetwork {
        WeakNetwork(Arc::downgrade(&self.inner))
    }

    /// The per-network flow table of protocol `P`, created on first use.
    pub(crate) fn flow_stack<P: Protocol>(&self) -> Arc<FlowStack<P>> {
        P::slot(&mut self.inner.state.lock().stacks)
            .get_or_insert_with(|| FlowStack::new(self.sim.clone(), self.downgrade()))
            .clone()
    }

    /// Adds a named host.
    pub fn add_node(&self, name: impl Into<String>) -> NodeId {
        let mut inner = self.inner.state.lock();
        let id = NodeId(u32::try_from(inner.node_names.len()).expect("too many nodes"));
        inner.node_names.push(name.into());
        id
    }

    /// The name a node was registered with.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    #[must_use]
    pub fn node_name(&self, node: NodeId) -> String {
        self.inner.state.lock().node_names[node.0 as usize].clone()
    }

    /// Adds a directed link and returns its id.
    pub fn add_link(&self, cfg: LinkConfig) -> LinkId {
        let mut inner = self.inner.state.lock();
        let id = LinkId(u32::try_from(inner.links.len()).expect("too many links"));
        let rng = self.sim.seeds().stream(&format!("link-{}", id.0));
        inner.links.push(Arc::new(Link::new(cfg, rng)));
        id
    }

    /// Accesses a link by id.
    ///
    /// # Panics
    ///
    /// Panics if the link does not exist.
    #[must_use]
    pub fn link(&self, id: LinkId) -> Arc<Link> {
        self.inner.state.lock().links[id.0 as usize].clone()
    }

    /// Installs the route for packets from `src` to `dst` as an ordered
    /// sequence of links. Replaces any existing route.
    ///
    /// The links are appended to the route arena; a replaced route's old
    /// span stays in place so in-flight packets finish on the path they
    /// started on (the old `Arc<Vec<LinkId>>` behaviour).
    pub fn set_route(&self, src: NodeId, dst: NodeId, links: Vec<LinkId>) {
        let mut inner = self.inner.state.lock();
        let off = u32::try_from(inner.route_arena.len()).expect("route arena overflow");
        let len = u32::try_from(links.len()).expect("route too long");
        inner.route_arena.extend_from_slice(&links);
        inner.routes.insert(route_key(src, dst), RouteRef { off, len });
    }

    /// Returns the currently installed route, if any.
    #[must_use]
    pub fn route(&self, src: NodeId, dst: NodeId) -> Option<Vec<LinkId>> {
        let inner = self.inner.state.lock();
        inner
            .routes
            .get(&route_key(src, dst))
            .map(|&r| inner.route_links(r).to_vec())
    }

    /// Convenience: connects two nodes with a symmetric pair of directed
    /// links built from `cfg`, installing both routes. Returns
    /// `(a_to_b, b_to_a)`.
    pub fn connect_duplex(&self, a: NodeId, b: NodeId, cfg: LinkConfig) -> (LinkId, LinkId) {
        let ab = self.add_link(cfg.clone());
        let ba = self.add_link(cfg);
        self.set_route(a, b, vec![ab]);
        self.set_route(b, a, vec![ba]);
        (ab, ba)
    }

    /// Binds a packet sink to `(node, protocol, port)`.
    ///
    /// # Errors
    ///
    /// Returns [`BindError`] if the binding is already taken.
    pub fn bind(
        &self,
        node: NodeId,
        protocol: WireProtocol,
        port: u16,
        sink: Arc<dyn PacketSink>,
    ) -> Result<(), BindError> {
        let mut inner = self.inner.state.lock();
        let key = sink_key(node, protocol, port);
        if inner.sinks.contains_key(&key) {
            return Err(BindError {
                endpoint: Endpoint::new(node, port),
                protocol,
            });
        }
        inner.sinks.insert(key, sink);
        Ok(())
    }

    /// Removes a binding if present.
    pub fn unbind(&self, node: NodeId, protocol: WireProtocol, port: u16) {
        self.inner.state.lock().sinks.remove(&sink_key(node, protocol, port));
    }

    /// Allocates a fresh ephemeral port on `node` for `protocol`
    /// (49152..=65535). The cursor wraps around at the top of the range and
    /// ports already bound for `protocol` are skipped, so long-lived worlds
    /// with connection churn keep allocating successfully.
    ///
    /// Returns `None` when every port in the ephemeral range is bound.
    #[must_use]
    pub fn alloc_ephemeral_port(&self, node: NodeId, protocol: WireProtocol) -> Option<u16> {
        let mut inner = self.inner.state.lock();
        let start = *inner.next_ephemeral.get(&node).unwrap_or(&EPHEMERAL_LO);
        for i in 0..EPHEMERAL_SPAN {
            let off = (u32::from(start - EPHEMERAL_LO) + i) % EPHEMERAL_SPAN;
            let port = EPHEMERAL_LO + off as u16;
            if !inner.sinks.contains_key(&sink_key(node, protocol, port)) {
                let next = EPHEMERAL_LO + ((off + 1) % EPHEMERAL_SPAN) as u16;
                inner.next_ephemeral.insert(node, next);
                return Some(port);
            }
        }
        None
    }

    /// Installs a packet tracer observing every send, drop and delivery.
    pub fn set_tracer(&self, tracer: Arc<dyn PacketTracer>) {
        self.inner.state.lock().tracer = Some(tracer);
        self.inner.has_tracer.store(true, Ordering::Release);
    }

    fn trace(&self, pkt: &Packet, event: PacketEvent) {
        // Fast path: no tracer installed — one relaxed-ish atomic load,
        // no fabric lock, no Arc refcount traffic.
        if !self.inner.has_tracer.load(Ordering::Acquire) {
            return;
        }
        let tracer = self.inner.state.lock().tracer.clone();
        if let Some(tracer) = tracer {
            tracer.record(PacketRecord {
                time: self.sim.now(),
                src: pkt.src,
                dst: pkt.dst,
                protocol: pkt.protocol,
                wire_size: pkt.wire_size,
                event,
            });
        }
    }

    /// Closes the packet's `flight` span with an outcome key; no-op when
    /// tracing was off at injection time (the span was never opened).
    fn close_flight(&self, pkt: &Packet, key: u64) {
        if pkt.span != 0 {
            self.sim.recorder().record(
                self.sim.now().as_nanos(),
                EventKind::SpanClose { span: pkt.span, key },
            );
        }
    }

    /// Closes the packet's current `hop` span (arrival at the far end of a
    /// link, or death mid-hop).
    fn close_hop(&self, pkt: &mut Packet, key: u64) {
        if pkt.hop_span != 0 {
            self.sim.recorder().record(
                self.sim.now().as_nanos(),
                EventKind::SpanClose {
                    span: pkt.hop_span,
                    key,
                },
            );
            pkt.hop_span = 0;
        }
    }

    /// Injects a packet into the fabric at the current simulation time.
    ///
    /// The packet follows the installed route hop by hop; a missing route is
    /// tolerated only for same-node traffic, which is delivered after a
    /// small loopback delay.
    pub fn send_packet(&self, pkt: Packet) {
        // The packet claims one pool slot here and releases it at delivery
        // (or drop); every hop event carries the same 8-byte handle, keeping
        // the inline event-store entries small and the per-send heap cost at
        // zero once the pool is warm.
        let _scope = memscope::enter(memscope::SCOPE_FABRIC);
        let mut pkt = pkt;
        {
            let rec = self.sim.recorder();
            if rec.is_enabled() {
                pkt.span = rec
                    .tracer()
                    .open_root(
                        self.sim.now().as_nanos(),
                        SpanKind::Flight,
                        flight_key(pkt.src, pkt.dst),
                    )
                    .raw();
            }
        }
        // Lock-free when no tracer is installed (the common case).
        self.trace(&pkt, PacketEvent::Sent);
        // What `send_packet` decided under the fabric lock; acted on after
        // the lock drops (the no-route arm keeps the packet by value — it
        // never enters the pool).
        enum Inject {
            Forward(PacketHandle, RouteRef),
            Loopback(PacketHandle, std::time::Duration),
            NoRoute(Packet),
        }
        // One lock for the stats bump, the route lookup, and the pool claim.
        let outcome = {
            let mut inner = self.inner.state.lock();
            inner.stats.sent += 1;
            let route = inner.routes.get(&route_key(pkt.src.node, pkt.dst.node)).copied();
            match route {
                Some(r) if r.len > 0 => Inject::Forward(inner.pool.alloc(pkt), r),
                // An empty or missing route is tolerated only for same-node
                // traffic (loopback); between distinct nodes it is unrouted.
                _ if pkt.src.node == pkt.dst.node => {
                    let delay = inner.local_delay;
                    Inject::Loopback(inner.pool.alloc(pkt), delay)
                }
                _ => {
                    inner.stats.dropped_no_route += 1;
                    Inject::NoRoute(pkt)
                }
            }
        };
        match outcome {
            Inject::Forward(h, r) => self.forward(h, r, 0),
            Inject::Loopback(h, delay) => {
                // A hop event past the (empty) route's end is a delivery.
                let at = self.sim.now() + delay;
                self.sim
                    .schedule_packet_hop(at, self.downgrade(), h, RouteRef::EMPTY, 0);
            }
            Inject::NoRoute(pkt) => {
                self.close_flight(&pkt, FLIGHT_NO_ROUTE);
                self.trace(&pkt, PacketEvent::NoRoute);
            }
        }
    }

    /// Transmits `pkt` over hop `idx` of its route, scheduling the next hop
    /// event at the link's computed arrival time.
    ///
    /// Runs under the fabric lock: the link is borrowed from the dense table
    /// (no `Arc` clone per hop) and the next hop event is scheduled before
    /// the lock drops. Lock order is always fabric → link → engine; link and
    /// engine code never calls back into the fabric, so this cannot deadlock.
    fn forward(&self, h: PacketHandle, route: RouteRef, idx: u32) {
        let dropped = {
            let mut guard = self.inner.state.lock();
            let inner = &mut *guard;
            let link_id = inner.route_arena[route.off as usize + idx as usize];
            let link = &inner.links[link_id.index() as usize];
            let pkt = inner
                .pool
                .get_mut(h)
                .expect("in-flight packet vanished from pool");
            match link.transmit(&self.sim, pkt.wire_size, pkt.protocol.is_udp_family()) {
                Verdict::DeliverAt(at) => {
                    // Stamp the sever epoch: if the link is severed before
                    // the arrival event fires, the packet dies at the far
                    // end.
                    pkt.sever_epoch = link.epoch();
                    let rec = self.sim.recorder();
                    if rec.is_enabled() {
                        let now = self.sim.now();
                        rec.record_with(now.as_nanos(), || EventKind::LinkQueue {
                            link: u64::from(link_id.0),
                            backlog_bytes: link.backlog_bytes(now) as u64,
                            capacity_bytes: link.queue_capacity() as u64,
                        });
                        // One `hop` child span per link traversal: opened at
                        // the transmit decision, closed when the arrival
                        // event fires at the far end.
                        let flight = SpanId::from_raw(pkt.span);
                        pkt.hop_span = rec
                            .tracer()
                            .open(
                                now.as_nanos(),
                                SpanKind::Hop,
                                flight,
                                flight,
                                u64::from(link_id.0),
                            )
                            .raw();
                    }
                    self.sim
                        .schedule_packet_hop(at, self.downgrade(), h, route, idx + 1);
                    None
                }
                Verdict::Dropped(reason) => {
                    inner.stats.dropped_link += 1;
                    // The slot is recycled right here on the fault path.
                    let pkt = inner
                        .pool
                        .free(h)
                        .expect("dropped packet vanished from pool");
                    Some((link_id, reason, pkt))
                }
            }
        };
        if let Some((link_id, reason, pkt)) = dropped {
            self.sim
                .recorder()
                .record_with(self.sim.now().as_nanos(), || EventKind::LinkDrop {
                    link: u64::from(link_id.0),
                    reason: reason.label(),
                    wire_size: pkt.wire_size as u64,
                });
            self.close_flight(&pkt, FLIGHT_DROPPED);
            self.trace(&pkt, PacketEvent::Dropped(reason));
        }
    }

    /// Entry point for scheduled packet-hop events: continue along the route
    /// at `idx`, or deliver once past its end.
    pub(crate) fn packet_hop(&self, h: PacketHandle, route: RouteRef, idx: u32) {
        let _scope = memscope::enter(memscope::SCOPE_FABRIC);
        // Arrival check for the hop just crossed: a sever while the packet
        // was in flight kills it here (carrier loss, not an unplugged
        // uplink — see `Link::sever`), returning the pool slot.
        if idx >= 1 {
            let severed = {
                let mut guard = self.inner.state.lock();
                let inner = &mut *guard;
                let link_id = inner.route_arena[route.off as usize + idx as usize - 1];
                let link = &inner.links[link_id.index() as usize];
                let pkt = inner
                    .pool
                    .get_mut(h)
                    .expect("in-flight packet vanished from pool");
                if link.epoch() != pkt.sever_epoch {
                    link.note_severed();
                    inner.stats.dropped_link += 1;
                    let pkt = inner
                        .pool
                        .free(h)
                        .expect("severed packet vanished from pool");
                    Some((link_id, pkt))
                } else {
                    None
                }
            };
            if let Some((link_id, mut pkt)) = severed {
                self.sim
                    .recorder()
                    .record_with(self.sim.now().as_nanos(), || EventKind::LinkDrop {
                        link: u64::from(link_id.0),
                        reason: DropReason::Severed.label(),
                        wire_size: pkt.wire_size as u64,
                    });
                self.close_hop(&mut pkt, HOP_SEVERED);
                self.close_flight(&pkt, FLIGHT_SEVERED);
                self.trace(&pkt, PacketEvent::Dropped(DropReason::Severed));
                return;
            }
            // Close the crossed hop's span without re-locking: take the raw
            // span id out of the pooled packet under the same lock scope.
            let hop_span = {
                let mut inner = self.inner.state.lock();
                let pkt = inner
                    .pool
                    .get_mut(h)
                    .expect("in-flight packet vanished from pool");
                std::mem::take(&mut pkt.hop_span)
            };
            if hop_span != 0 {
                self.sim.recorder().record(
                    self.sim.now().as_nanos(),
                    EventKind::SpanClose { span: hop_span, key: 0 },
                );
            }
        }
        if idx < route.len {
            self.forward(h, route, idx);
        } else {
            self.deliver(h);
        }
    }

    fn deliver(&self, h: PacketHandle) {
        let (pkt, sink) = {
            let mut inner = self.inner.state.lock();
            // The slot is recycled here: the sink gets the packet by value.
            let pkt = inner
                .pool
                .free(h)
                .expect("delivered packet vanished from pool");
            let key = sink_key(pkt.dst.node, pkt.protocol, pkt.dst.port);
            let found = inner.sinks.get(&key).cloned();
            match &found {
                Some(_) => inner.stats.delivered += 1,
                None => inner.stats.dropped_no_sink += 1,
            }
            (pkt, found)
        };
        match sink {
            Some(sink) => {
                self.close_flight(&pkt, FLIGHT_DELIVERED);
                self.trace(&pkt, PacketEvent::Delivered);
                sink.on_packet(self, pkt);
            }
            None => {
                self.close_flight(&pkt, FLIGHT_NO_SINK);
                self.trace(&pkt, PacketEvent::NoSink);
            }
        }
    }

    /// Packets currently in flight (live pool slots). A fully drained
    /// simulation reports zero — anything else is a leaked pool slot, which
    /// the fault-path leak tests and the fuzz conservation oracle reject.
    #[must_use]
    pub fn packets_in_flight(&self) -> usize {
        self.inner.state.lock().pool.live()
    }

    /// Packet-pool lifetime counters: `(total_allocated, high_water)`.
    #[must_use]
    pub fn packet_pool_stats(&self) -> (u64, usize) {
        let inner = self.inner.state.lock();
        (inner.pool.total_allocated(), inner.pool.high_water())
    }

    /// Retained packet-pool slot storage in bytes (scaling-probe RSS term).
    #[must_use]
    pub fn packet_pool_mem_bytes(&self) -> usize {
        self.inner.state.lock().pool.mem_bytes()
    }

    /// Snapshot of fabric-wide counters.
    #[must_use]
    pub fn stats(&self) -> NetworkStats {
        self.inner.state.lock().stats
    }

    /// Current simulation time (convenience).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketBody;
    use bytes::Bytes;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    struct Counter(AtomicUsize);
    impl PacketSink for Counter {
        fn on_packet(&self, _net: &Network, _pkt: Packet) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn udp_packet(src: Endpoint, dst: Endpoint) -> Packet {
        Packet::new(src, dst, WireProtocol::Udp, 100, PacketBody::Udp(Bytes::from_static(b"x")))
    }

    fn two_nodes() -> (Sim, Network, NodeId, NodeId) {
        let sim = Sim::new(7);
        let net = Network::new(&sim);
        let a = net.add_node("a");
        let b = net.add_node("b");
        net.connect_duplex(a, b, LinkConfig::new(1e6, Duration::from_millis(5)));
        (sim, net, a, b)
    }

    #[test]
    fn delivers_over_route() {
        let (sim, net, a, b) = two_nodes();
        let sink = Arc::new(Counter(AtomicUsize::new(0)));
        net.bind(b, WireProtocol::Udp, 80, sink.clone()).unwrap();
        net.send_packet(udp_packet(Endpoint::new(a, 1000), Endpoint::new(b, 80)));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sink.0.load(Ordering::SeqCst), 1);
        assert_eq!(net.stats().delivered, 1);
    }

    #[test]
    fn unbound_port_counts_no_sink() {
        let (sim, net, a, b) = two_nodes();
        net.send_packet(udp_packet(Endpoint::new(a, 1000), Endpoint::new(b, 81)));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(net.stats().dropped_no_sink, 1);
    }

    #[test]
    fn missing_route_drops_cross_node() {
        let sim = Sim::new(1);
        let net = Network::new(&sim);
        let a = net.add_node("a");
        let b = net.add_node("b");
        net.send_packet(udp_packet(Endpoint::new(a, 1), Endpoint::new(b, 2)));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(net.stats().dropped_no_route, 1);
    }

    #[test]
    fn same_node_loopback_without_route() {
        let sim = Sim::new(1);
        let net = Network::new(&sim);
        let a = net.add_node("a");
        let sink = Arc::new(Counter(AtomicUsize::new(0)));
        net.bind(a, WireProtocol::Udp, 80, sink.clone()).unwrap();
        net.send_packet(udp_packet(Endpoint::new(a, 1000), Endpoint::new(a, 80)));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sink.0.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn multi_hop_route_accumulates_delay() {
        let sim = Sim::new(1);
        let net = Network::new(&sim);
        let a = net.add_node("a");
        let m = net.add_node("m");
        let b = net.add_node("b");
        let l1 = net.add_link(LinkConfig::new(1e9, Duration::from_millis(10)));
        let l2 = net.add_link(LinkConfig::new(1e9, Duration::from_millis(20)));
        net.set_route(a, b, vec![l1, l2]);
        let _ = m;
        let sink = Arc::new(Counter(AtomicUsize::new(0)));
        net.bind(b, WireProtocol::Udp, 80, sink.clone()).unwrap();
        net.send_packet(udp_packet(Endpoint::new(a, 1), Endpoint::new(b, 80)));
        // After 29 ms: not yet there.
        sim.run_until(SimTime::from_nanos(29_000_000));
        assert_eq!(sink.0.load(Ordering::SeqCst), 0);
        sim.run_until(SimTime::from_nanos(31_000_000));
        assert_eq!(sink.0.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn double_bind_rejected() {
        let (_sim, net, _a, b) = two_nodes();
        let sink = Arc::new(Counter(AtomicUsize::new(0)));
        net.bind(b, WireProtocol::Udp, 80, sink.clone()).unwrap();
        let err = net.bind(b, WireProtocol::Udp, 80, sink.clone()).unwrap_err();
        assert_eq!(err.endpoint.port, 80);
        assert!(err.to_string().contains("already bound"));
        // Different protocol on the same port is fine.
        net.bind(b, WireProtocol::Tcp, 80, sink).unwrap();
    }

    #[test]
    fn unbind_then_rebind() {
        let (_sim, net, _a, b) = two_nodes();
        let sink = Arc::new(Counter(AtomicUsize::new(0)));
        net.bind(b, WireProtocol::Udp, 80, sink.clone()).unwrap();
        net.unbind(b, WireProtocol::Udp, 80);
        net.bind(b, WireProtocol::Udp, 80, sink).unwrap();
    }

    #[test]
    fn ephemeral_ports_unique_per_node() {
        let (_sim, net, a, b) = two_nodes();
        let p1 = net.alloc_ephemeral_port(a, WireProtocol::Tcp).unwrap();
        let p2 = net.alloc_ephemeral_port(a, WireProtocol::Tcp).unwrap();
        let p3 = net.alloc_ephemeral_port(b, WireProtocol::Tcp).unwrap();
        assert_ne!(p1, p2);
        assert_eq!(p1, 49152);
        assert_eq!(p3, 49152);
    }

    #[test]
    fn ephemeral_ports_wrap_around_and_skip_bound() {
        let (_sim, net, a, _b) = two_nodes();
        let sink = Arc::new(Counter(AtomicUsize::new(0)));
        // Park the cursor near the top of the range, with the last two
        // ports already bound.
        net.bind(a, WireProtocol::Tcp, 65534, sink.clone()).unwrap();
        net.bind(a, WireProtocol::Tcp, 65535, sink.clone()).unwrap();
        net.inner.state.lock().next_ephemeral.insert(a, 65534);
        // Bound ports are skipped and the cursor wraps to the bottom.
        let p = net.alloc_ephemeral_port(a, WireProtocol::Tcp).unwrap();
        assert_eq!(p, 49152);
        // A different protocol has its own namespace: 65534 is free there.
        let q = net.alloc_ephemeral_port(a, WireProtocol::Udt);
        assert_eq!(q, Some(49153));
        net.inner.state.lock().next_ephemeral.insert(a, 65534);
        let q = net.alloc_ephemeral_port(a, WireProtocol::Udt).unwrap();
        assert_eq!(q, 65534);
    }

    #[test]
    fn ephemeral_exhaustion_errors_cleanly() {
        let (_sim, net, a, _b) = two_nodes();
        let sink = Arc::new(Counter(AtomicUsize::new(0)));
        for port in 49152..=u16::MAX {
            net.bind(a, WireProtocol::Tcp, port, sink.clone()).unwrap();
        }
        assert_eq!(net.alloc_ephemeral_port(a, WireProtocol::Tcp), None);
        // Freeing one port makes allocation succeed again.
        net.unbind(a, WireProtocol::Tcp, 50_000);
        assert_eq!(net.alloc_ephemeral_port(a, WireProtocol::Tcp), Some(50_000));
    }

    #[test]
    fn replaced_route_is_used_for_new_packets() {
        let sim = Sim::new(9);
        let net = Network::new(&sim);
        let a = net.add_node("a");
        let b = net.add_node("b");
        let slow = net.add_link(LinkConfig::new(1e9, Duration::from_millis(50)));
        let fast = net.add_link(LinkConfig::new(1e9, Duration::from_millis(1)));
        net.set_route(a, b, vec![slow]);
        net.set_route(a, b, vec![fast]);
        assert_eq!(net.route(a, b), Some(vec![fast]));
        let sink = Arc::new(Counter(AtomicUsize::new(0)));
        net.bind(b, WireProtocol::Udp, 80, sink.clone()).unwrap();
        net.send_packet(udp_packet(Endpoint::new(a, 1), Endpoint::new(b, 80)));
        sim.run_until(SimTime::from_millis(5));
        assert_eq!(sink.0.load(Ordering::SeqCst), 1, "must use the fast route");
    }

    #[test]
    fn set_up_false_still_delivers_in_flight_but_sever_kills_them() {
        // Contrast of the two outage flavours: `set_up(false)` is an
        // unplugged uplink (in-flight packets arrive), `sever()` is carrier
        // loss (they die with DropReason::Severed).
        for (severed, expect_delivered) in [(false, 1), (true, 0)] {
            let (sim, net, a, b) = two_nodes();
            let sink = Arc::new(Counter(AtomicUsize::new(0)));
            net.bind(b, WireProtocol::Udp, 80, sink.clone()).unwrap();
            net.send_packet(udp_packet(Endpoint::new(a, 1000), Endpoint::new(b, 80)));
            // Cut the a→b link while the packet is mid-flight (5 ms delay).
            sim.schedule_in(Duration::from_millis(2), {
                let net = net.clone();
                move |_sim| {
                    let link = net.route(NodeId(0), NodeId(1)).unwrap()[0];
                    if severed {
                        net.link(link).sever();
                    } else {
                        net.link(link).set_up(false);
                    }
                }
            });
            sim.run_until(SimTime::from_secs(1));
            assert_eq!(sink.0.load(Ordering::SeqCst), expect_delivered, "severed={severed}");
            if severed {
                let link = net.route(NodeId(0), NodeId(1)).unwrap()[0];
                assert_eq!(net.link(link).stats().dropped_severed, 1);
                assert_eq!(net.stats().dropped_link, 1);
            }
        }
    }

    #[test]
    fn node_names_round_trip() {
        let sim = Sim::new(1);
        let net = Network::new(&sim);
        let a = net.add_node("alpha");
        assert_eq!(net.node_name(a), "alpha");
        assert_eq!(a.index(), 0);
    }
}
