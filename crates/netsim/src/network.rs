//! The network fabric: nodes, links, static routes, and packet dispatch.
//!
//! A [`Network`] connects simulated hosts through directed [`Link`]s. Routes
//! are static per ordered node pair and may traverse multiple links (used
//! both for multi-hop topologies and to chain per-endpoint processing links,
//! e.g. the UDT receive-processing bottleneck).
//!
//! A `(node, protocol, port)` binding names who gets the packets arriving
//! there: the fabric's own TCP or UDT flow table, or a foreign
//! [`PacketSink`] (UDP sockets, tests, probes).
//!
//! # Dense fabric state
//!
//! Sized for datacenter-scale worlds (10⁴ hosts, 10⁴ flows): routes live
//! flattened in one append-only link arena and per-hop events carry an
//! 8-byte [`RouteRef`] span handle instead of a refcounted `Arc<Vec<_>>`;
//! the hot-path lookups (route table, sink demux) use packed `u64` keys in
//! [`FxHashMap`]s rather than tuple keys under SipHash (both keys differ
//! between hosts in their *high* half only, which [`crate::slab::FxHasher`]
//! finishes for). Links are plain state in the same table: a [`Link`] is a
//! view that reaches its link through the fabric lock.
//!
//! # One lock for packet and flow work
//!
//! All of it, and every TCP and UDT flow ([`crate::flowstack`]), sits
//! behind one mutex, and [`Network::send_packet`] and every hop event take
//! it exactly once: route, pool slot, sever check, transmit, the binding
//! lookup, the recorder and [`PacketTracer`] calls for the packet's outcome
//! and — for a port bound to a flow table — the demux and the flow's step
//! are done in that scope. What calls out of the fabric — a foreign sink,
//! the actions a step left — runs after it is released. The next hop is
//! scheduled from inside the scope, so the one lock-order rule is fabric →
//! engine; the engine never calls the fabric with its own lock held. A
//! [`Network`] is one `Arc` to the fabric, which owns its [`Sim`].

use std::fmt;
use std::sync::{Arc, OnceLock, Weak};

use kmsg_telemetry::{EventKind, SpanId, SpanKind};
use parking_lot::{Mutex, MutexGuard};

use crate::engine::Sim;
use crate::flowstack::{self, FlowTable};
use crate::link::{DropReason, Link, LinkConfig, LinkId, LinkState, Verdict};
use crate::memscope;
use crate::packet::{Endpoint, NodeId, Packet, WireProtocol};
use crate::pool::{PacketHandle, PacketPool};
use crate::slab::FxHashMap;
use crate::tcp::TcpConfig;
use crate::time::SimTime;
use crate::trace::{PacketEvent, PacketRecord, PacketTracer};
use crate::udt::UdtConfig;

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
    (u64::from(node.index()) << 32) | ((protocol as u64) << 16) | u64::from(port)
}

/// Packs an ordered `(src, dst)` node pair into one 8-byte map key.
#[inline]
pub(crate) fn route_key(src: NodeId, dst: NodeId) -> u64 {
    (u64::from(src.index()) << 32) | u64::from(dst.index())
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
    /// Called when a packet arrives. Runs inside a simulation event, with
    /// the fabric lock released; the implementation may send packets and
    /// schedule further events.
    fn on_packet(&self, net: &Network, pkt: Packet);
}

/// Who the packets arriving at a bound port are for.
#[derive(Clone)]
pub(crate) enum Binding {
    /// The fabric's own flow table of the port's protocol (TCP or UDT).
    Flows,
    /// A sink of the caller's, run once the fabric lock is released.
    Foreign(Arc<dyn PacketSink>),
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

/// Everything behind the fabric lock.
pub(crate) struct NetInner {
    node_names: Vec<String>,
    /// Dense link table. Append-only: a `LinkId` is a plain index with an
    /// implicit generation of zero.
    links: Vec<LinkState>,
    /// Route index: packed `(src, dst)` pair → span into `route_arena`.
    routes: FxHashMap<u64, RouteRef>,
    /// Flattened, append-only storage for every installed route's links.
    route_arena: Vec<LinkId>,
    /// Port demux: packed `(node, protocol, port)` → binding.
    sinks: FxHashMap<u64, Binding>,
    /// Per-node cursor into the ephemeral port range.
    next_ephemeral: FxHashMap<NodeId, u16>,
    /// Pooled storage for in-flight packets: hop events carry 8-byte
    /// generation-checked handles into this arena instead of owning boxes,
    /// and terminal outcomes (deliver/drop/sever) recycle the slot.
    pool: PacketPool,
    stats: NetworkStats,
    /// Delay applied to node-local (same-node) deliveries with no route.
    local_delay: std::time::Duration,
    /// Every TCP flow on the network.
    pub(crate) tcp: FlowTable<TcpConfig>,
    /// Every UDT flow on the network.
    pub(crate) udt: FlowTable<UdtConfig>,
}

impl NetInner {
    /// The link sequence behind a route handle.
    #[inline]
    fn route_links(&self, r: RouteRef) -> &[LinkId] {
        &self.route_arena[r.off as usize..(r.off + r.len) as usize]
    }

    /// Binds `(node, protocol, port)` to `binding`, unless it is taken.
    pub(crate) fn bind(
        &mut self,
        node: NodeId,
        protocol: WireProtocol,
        port: u16,
        binding: Binding,
    ) -> Result<(), BindError> {
        let key = sink_key(node, protocol, port);
        if self.sinks.contains_key(&key) {
            return Err(BindError {
                endpoint: Endpoint::new(node, port),
                protocol,
            });
        }
        self.sinks.insert(key, binding);
        Ok(())
    }

    /// Removes a binding if present.
    pub(crate) fn unbind(&mut self, node: NodeId, protocol: WireProtocol, port: u16) {
        self.sinks.remove(&sink_key(node, protocol, port));
    }

    /// A free ephemeral port on `node` for `protocol` (49152..=65535), to be
    /// bound under the same lock. The cursor wraps around at the top of the
    /// range and ports already bound for `protocol` are skipped, so
    /// long-lived worlds with connection churn keep allocating successfully.
    /// `None` when every port in the range is bound.
    pub(crate) fn alloc_ephemeral_port(&mut self, node: NodeId, protocol: WireProtocol) -> Option<u16> {
        let start = *self.next_ephemeral.get(&node).unwrap_or(&EPHEMERAL_LO);
        for i in 0..EPHEMERAL_SPAN {
            let off = (u32::from(start - EPHEMERAL_LO) + i) % EPHEMERAL_SPAN;
            let port = EPHEMERAL_LO + off as u16;
            if !self.sinks.contains_key(&sink_key(node, protocol, port)) {
                let next = EPHEMERAL_LO + ((off + 1) % EPHEMERAL_SPAN) as u16;
                self.next_ephemeral.insert(node, next);
                return Some(port);
            }
        }
        None
    }
}

/// What every handle to one fabric shares.
struct Fabric {
    sim: Sim,
    state: Mutex<NetInner>,
    /// Read on every packet event, with no lock.
    tracer: OnceLock<Arc<dyn PacketTracer>>,
}

/// Weak counterpart of [`Network`], held by what the engine's event store
/// can reach: packet-hop events and the flow tables' timer targets. A
/// strong reference from either would close a cycle and leak whole worlds —
/// the fabric owns the engine a pending event waits in.
#[derive(Clone)]
pub(crate) struct WeakNetwork(Weak<Fabric>);

impl WeakNetwork {
    /// A full handle to the fabric, or `None` once it is gone.
    pub(crate) fn upgrade(&self) -> Option<Network> {
        self.0.upgrade().map(Network)
    }
}

/// Handle to the simulated network fabric. Cheaply cloneable.
#[derive(Clone)]
pub struct Network(Arc<Fabric>);

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.0.state.lock();
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

/// How a packet's journey ended, decided under the fabric lock (its pool
/// slot is already recycled) and reported in the same scope.
enum Ended {
    /// Refused by the link it was offered to, or severed while crossing it.
    Dropped(LinkId, DropReason, Packet),
    /// Past the last hop, for whoever is bound to its port — if anyone.
    Arrived(Packet, Option<Binding>),
    /// No route between distinct nodes.
    NoRoute(Packet),
}

impl Network {
    /// Creates an empty network on the given simulation.
    #[must_use]
    pub fn new(sim: &Sim) -> Self {
        Network(Arc::new_cyclic(|fabric| Fabric {
            sim: sim.clone(),
            state: Mutex::new(NetInner {
                node_names: Vec::new(),
                links: Vec::new(),
                routes: FxHashMap::default(),
                route_arena: Vec::new(),
                sinks: FxHashMap::default(),
                next_ephemeral: FxHashMap::default(),
                pool: PacketPool::new(),
                stats: NetworkStats::default(),
                local_delay: std::time::Duration::from_micros(5),
                tcp: FlowTable::new(WeakNetwork(fabric.clone())),
                udt: FlowTable::new(WeakNetwork(fabric.clone())),
            }),
            tracer: OnceLock::new(),
        }))
    }

    /// The simulation this network runs on.
    #[must_use]
    pub fn sim(&self) -> &Sim {
        &self.0.sim
    }

    /// A weak handle for what must not keep the fabric alive.
    pub(crate) fn downgrade(&self) -> WeakNetwork {
        WeakNetwork(Arc::downgrade(&self.0))
    }

    /// Takes the fabric lock.
    pub(crate) fn lock(&self) -> MutexGuard<'_, NetInner> {
        self.0.state.lock()
    }

    /// Adds a named host.
    pub fn add_node(&self, name: impl Into<String>) -> NodeId {
        let mut inner = self.0.state.lock();
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
        self.0.state.lock().node_names[node.0 as usize].clone()
    }

    /// Adds a directed link and returns its id.
    pub fn add_link(&self, cfg: LinkConfig) -> LinkId {
        let mut inner = self.0.state.lock();
        let id = LinkId(u32::try_from(inner.links.len()).expect("too many links"));
        let rng = self.0.sim.seeds().stream(&format!("link-{}", id.0));
        // Grown by a quarter at a time, like the slab: a row is 568 bytes,
        // and `Vec`'s doubling stranded 7 MB of them in a 10⁴-host world.
        if inner.links.len() == inner.links.capacity() {
            let extra = (inner.links.len() / 4).max(1);
            inner.links.reserve_exact(extra);
        }
        inner.links.push(LinkState::new(cfg, rng));
        id
    }

    /// Accesses a link by id.
    ///
    /// # Panics
    ///
    /// Panics if the link does not exist.
    #[must_use]
    pub fn link(&self, id: LinkId) -> Link {
        let links = self.0.state.lock().links.len();
        assert!((id.0 as usize) < links, "no link {} among {links}", id.0);
        Link::new(self.clone(), id)
    }

    /// Runs `f` on a link's state with the fabric lock held.
    pub(crate) fn with_link<R>(&self, id: LinkId, f: impl FnOnce(&mut LinkState) -> R) -> R {
        f(&mut self.0.state.lock().links[id.0 as usize])
    }

    /// Installs the route for packets from `src` to `dst` as an ordered
    /// sequence of links. Replaces any existing route.
    ///
    /// The links are appended to the route arena; a replaced route's old
    /// span stays in place so in-flight packets finish on the path they
    /// started on (the old `Arc<Vec<LinkId>>` behaviour).
    pub fn set_route(&self, src: NodeId, dst: NodeId, links: Vec<LinkId>) {
        let mut inner = self.0.state.lock();
        let off = u32::try_from(inner.route_arena.len()).expect("route arena overflow");
        let len = u32::try_from(links.len()).expect("route too long");
        inner.route_arena.extend_from_slice(&links);
        inner.routes.insert(route_key(src, dst), RouteRef { off, len });
    }

    /// Returns the currently installed route, if any.
    #[must_use]
    pub fn route(&self, src: NodeId, dst: NodeId) -> Option<Vec<LinkId>> {
        let inner = self.0.state.lock();
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
        self.lock().bind(node, protocol, port, Binding::Foreign(sink))
    }

    /// Removes a binding if present.
    pub fn unbind(&self, node: NodeId, protocol: WireProtocol, port: u16) {
        self.lock().unbind(node, protocol, port);
    }

    /// Installs the packet tracer, which observes every send, drop and
    /// delivery from then on. It is called with the fabric lock held, so it
    /// must not call back into the network.
    ///
    /// # Panics
    ///
    /// Panics if the network already has a tracer.
    pub fn set_tracer(&self, tracer: Arc<dyn PacketTracer>) {
        assert!(self.0.tracer.set(tracer).is_ok(), "the network already has a tracer");
    }

    fn trace(&self, pkt: &Packet, event: PacketEvent, now: SimTime) {
        if let Some(tracer) = self.0.tracer.get() {
            tracer.record(PacketRecord {
                time: now,
                src: pkt.src,
                dst: pkt.dst,
                protocol: pkt.protocol,
                wire_size: pkt.wire_size,
                event,
            });
        }
    }

    /// Closes the packet's current `hop` span (arrival at the far end of a
    /// link, or death mid-hop); no-op between hops and when tracing was off
    /// at transmit time.
    fn close_hop(&self, pkt: &mut Packet, key: u64, now: SimTime) {
        let span = std::mem::take(&mut pkt.hop_span);
        if span != 0 {
            let close = EventKind::SpanClose { span, key };
            self.0.sim.recorder().record(now.as_nanos(), close);
        }
    }

    /// Injects a packet into the fabric at the current simulation time.
    ///
    /// The packet follows the installed route hop by hop; a missing route is
    /// tolerated only for same-node traffic, which is delivered after a
    /// small loopback delay.
    pub fn send_packet(&self, mut pkt: Packet) {
        // The packet claims one pool slot here and releases it at delivery
        // (or drop); every hop event carries the same 8-byte handle, keeping
        // the inline event-store entries small and the per-send heap cost at
        // zero once the pool is warm.
        let _scope = memscope::enter(memscope::SCOPE_FABRIC);
        let sim = &self.0.sim;
        let now = sim.now();
        let rec = sim.recorder();
        if rec.is_enabled() {
            let key = flight_key(pkt.src, pkt.dst);
            pkt.span = rec.tracer().open_root(now.as_nanos(), SpanKind::Flight, key).raw();
        }
        self.trace(&pkt, PacketEvent::Sent, now);
        // One lock for the stats bump, the route lookup, the pool claim, the
        // first link and the report of a packet that goes no further.
        let mut guard = self.lock();
        let inner = &mut *guard;
        inner.stats.sent += 1;
        let ended = match inner.routes.get(&route_key(pkt.src.node, pkt.dst.node)).copied() {
            Some(route) if route.len > 0 => {
                let h = inner.pool.alloc(pkt);
                self.transmit(inner, h, route, 0, now)
            }
            // An empty or missing route is tolerated only for same-node
            // traffic (loopback); between distinct nodes it is unrouted.
            // A hop event past the (empty) route's end is a delivery.
            _ if pkt.src.node == pkt.dst.node => {
                let at = now + inner.local_delay;
                let h = inner.pool.alloc(pkt);
                sim.schedule_packet_hop(at, self.downgrade(), h, RouteRef::EMPTY, 0);
                None
            }
            // The packet never enters the pool.
            _ => {
                inner.stats.dropped_no_route += 1;
                Some(Ended::NoRoute(pkt))
            }
        };
        if let Some(ended) = ended {
            self.report(guard, ended, now);
        }
    }

    /// Offers the pooled packet to hop `idx` of its route and schedules its
    /// arrival at the far end, or takes it back out of the pool if the link
    /// refuses it. The caller holds the fabric lock (`inner`).
    fn transmit(
        &self,
        inner: &mut NetInner,
        h: PacketHandle,
        route: RouteRef,
        idx: u32,
        now: SimTime,
    ) -> Option<Ended> {
        let link_id = inner.route_arena[route.off as usize + idx as usize];
        let link = &mut inner.links[link_id.index() as usize];
        let pkt = inner.pool.get_mut(h).expect("in-flight packet vanished from pool");
        match link.transmit(now, pkt.wire_size, pkt.protocol.is_udp_family()) {
            Verdict::DeliverAt(at) => {
                // Stamp the sever epoch: if the link is severed before the
                // arrival event fires, the packet dies at the far end.
                pkt.sever_epoch = link.epoch();
                let rec = self.0.sim.recorder();
                if rec.is_enabled() {
                    let link_key = u64::from(link_id.0);
                    rec.record(
                        now.as_nanos(),
                        EventKind::LinkQueue {
                            link: link_key,
                            backlog_bytes: link.backlog_bytes(now) as u64,
                            capacity_bytes: link.queue_capacity() as u64,
                        },
                    );
                    // One `hop` child span per link traversal: opened at the
                    // transmit decision, closed when the arrival event fires
                    // at the far end.
                    let flight = SpanId::from_raw(pkt.span);
                    pkt.hop_span = rec
                        .tracer()
                        .open(now.as_nanos(), SpanKind::Hop, flight, flight, link_key)
                        .raw();
                }
                self.0.sim.schedule_packet_hop(at, self.downgrade(), h, route, idx + 1);
                None
            }
            Verdict::Dropped(reason) => {
                inner.stats.dropped_link += 1;
                let pkt = inner.pool.free(h).expect("dropped packet vanished from pool");
                Some(Ended::Dropped(link_id, reason, pkt))
            }
        }
    }

    /// Entry point for scheduled packet-hop events: continue along the route
    /// at `idx`, or deliver once past its end.
    pub(crate) fn packet_hop(&self, h: PacketHandle, route: RouteRef, idx: u32) {
        let _scope = memscope::enter(memscope::SCOPE_FABRIC);
        let now = self.0.sim.now();
        let mut guard = self.lock();
        if let Some(ended) = self.hop(&mut guard, h, route, idx, now) {
            self.report(guard, ended, now);
        }
    }

    /// What a hop event does with the fabric lock held (`inner`).
    fn hop(
        &self,
        inner: &mut NetInner,
        h: PacketHandle,
        route: RouteRef,
        idx: u32,
        now: SimTime,
    ) -> Option<Ended> {
        // Arrival check for the hop just crossed: a sever while the packet
        // was in flight kills it here (carrier loss, not an unplugged
        // uplink — see `Link::sever`).
        if idx >= 1 {
            let link_id = inner.route_arena[route.off as usize + idx as usize - 1];
            let link = &mut inner.links[link_id.index() as usize];
            let pkt = inner.pool.get_mut(h).expect("in-flight packet vanished from pool");
            if link.epoch() != pkt.sever_epoch {
                link.note_severed();
                inner.stats.dropped_link += 1;
                let pkt = inner.pool.free(h).expect("severed packet vanished from pool");
                return Some(Ended::Dropped(link_id, DropReason::Severed, pkt));
            }
            self.close_hop(pkt, 0, now);
        }
        if idx < route.len {
            return self.transmit(inner, h, route, idx, now);
        }
        // Past the last hop: whoever is bound gets the packet by value.
        let pkt = inner.pool.free(h).expect("delivered packet vanished from pool");
        let binding = inner.sinks.get(&sink_key(pkt.dst.node, pkt.protocol, pkt.dst.port)).cloned();
        match binding {
            Some(_) => inner.stats.delivered += 1,
            None => inner.stats.dropped_no_sink += 1,
        }
        Some(Ended::Arrived(pkt, binding))
    }

    /// Tells the recorder and the tracer how a packet's journey ended, with
    /// the fabric lock (`guard`) still held, then hands an arrival over: to
    /// its flow table in the same scope, to a foreign sink once the lock is
    /// released.
    fn report(&self, guard: MutexGuard<'_, NetInner>, ended: Ended, now: SimTime) {
        let rec = self.0.sim.recorder();
        let (pkt, key, event, binding) = match ended {
            Ended::Dropped(link_id, reason, mut pkt) => {
                rec.record_with(now.as_nanos(), || EventKind::LinkDrop {
                    link: u64::from(link_id.0),
                    reason: reason.label(),
                    wire_size: pkt.wire_size as u64,
                });
                // Still open only if the packet died mid-hop, to a sever.
                self.close_hop(&mut pkt, HOP_SEVERED, now);
                let severed = reason == DropReason::Severed;
                let key = if severed { FLIGHT_SEVERED } else { FLIGHT_DROPPED };
                (pkt, key, PacketEvent::Dropped(reason), None)
            }
            Ended::Arrived(pkt, Some(binding)) => {
                (pkt, FLIGHT_DELIVERED, PacketEvent::Delivered, Some(binding))
            }
            Ended::Arrived(pkt, None) => (pkt, FLIGHT_NO_SINK, PacketEvent::NoSink, None),
            Ended::NoRoute(pkt) => (pkt, FLIGHT_NO_ROUTE, PacketEvent::NoRoute, None),
        };
        // The `flight` span was never opened if tracing was off at injection.
        if pkt.span != 0 {
            rec.record(now.as_nanos(), EventKind::SpanClose { span: pkt.span, key });
        }
        self.trace(&pkt, event, now);
        match (binding, pkt.protocol) {
            (Some(Binding::Foreign(sink)), _) => {
                drop(guard);
                sink.on_packet(self, pkt);
            }
            (Some(Binding::Flows), WireProtocol::Tcp) => flowstack::dispatch::<TcpConfig>(self, guard, pkt),
            (Some(Binding::Flows), WireProtocol::Udt) => flowstack::dispatch::<UdtConfig>(self, guard, pkt),
            // No flow table serves UDP.
            (Some(Binding::Flows), WireProtocol::Udp) | (None, _) => {}
        }
    }

    /// Packets currently in flight (live pool slots). A fully drained
    /// simulation reports zero — anything else is a leaked pool slot, which
    /// the fault-path leak tests and the fuzz conservation oracle reject.
    #[must_use]
    pub fn packets_in_flight(&self) -> usize {
        self.0.state.lock().pool.live()
    }

    /// Packet-pool lifetime counters: `(total_allocated, high_water)`.
    #[must_use]
    pub fn packet_pool_stats(&self) -> (u64, usize) {
        let inner = self.0.state.lock();
        (inner.pool.total_allocated(), inner.pool.high_water())
    }

    /// Retained packet-pool slot storage in bytes (scaling-probe RSS term).
    #[must_use]
    pub fn packet_pool_mem_bytes(&self) -> usize {
        self.0.state.lock().pool.mem_bytes()
    }

    /// Snapshot of fabric-wide counters.
    #[must_use]
    pub fn stats(&self) -> NetworkStats {
        self.0.state.lock().stats
    }

    /// Current simulation time (convenience).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.0.sim.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketBody;
    use bytes::Bytes;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    impl Network {
        /// The fabric lock, if it is free.
        pub(crate) fn try_lock(&self) -> Option<MutexGuard<'_, NetInner>> {
            self.0.state.try_lock()
        }
    }

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
        let p1 = net.lock().alloc_ephemeral_port(a, WireProtocol::Tcp).unwrap();
        let p2 = net.lock().alloc_ephemeral_port(a, WireProtocol::Tcp).unwrap();
        let p3 = net.lock().alloc_ephemeral_port(b, WireProtocol::Tcp).unwrap();
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
        net.0.state.lock().next_ephemeral.insert(a, 65534);
        // Bound ports are skipped and the cursor wraps to the bottom.
        let p = net.lock().alloc_ephemeral_port(a, WireProtocol::Tcp).unwrap();
        assert_eq!(p, 49152);
        // A different protocol has its own namespace: 65534 is free there.
        let q = net.lock().alloc_ephemeral_port(a, WireProtocol::Udt);
        assert_eq!(q, Some(49153));
        net.0.state.lock().next_ephemeral.insert(a, 65534);
        let q = net.lock().alloc_ephemeral_port(a, WireProtocol::Udt).unwrap();
        assert_eq!(q, 65534);
    }

    #[test]
    fn ephemeral_exhaustion_errors_cleanly() {
        let (_sim, net, a, _b) = two_nodes();
        let sink = Arc::new(Counter(AtomicUsize::new(0)));
        for port in 49152..=u16::MAX {
            net.bind(a, WireProtocol::Tcp, port, sink.clone()).unwrap();
        }
        assert_eq!(net.lock().alloc_ephemeral_port(a, WireProtocol::Tcp), None);
        // Freeing one port makes allocation succeed again.
        net.unbind(a, WireProtocol::Tcp, 50_000);
        assert_eq!(net.lock().alloc_ephemeral_port(a, WireProtocol::Tcp), Some(50_000));
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

    /// One recorded event as a short label: span events by span kind and
    /// key, fabric events by link and reason, tracer events by outcome.
    fn label(kind: &EventKind) -> String {
        let span_kind = |raw| SpanId::from_raw(raw).kind().map_or("?", SpanKind::label);
        match kind {
            EventKind::SpanOpen { kind, key, .. } => format!("open {kind} {key}"),
            EventKind::SpanClose { span, key } => format!("close {} {key}", span_kind(*span)),
            EventKind::LinkQueue { link, .. } => format!("queue {link}"),
            EventKind::LinkDrop { link, reason, .. } => format!("drop {link} {reason}"),
            EventKind::Packet { outcome, .. } => format!("packet {outcome}"),
            other => format!("unexpected {other:?}"),
        }
    }

    #[test]
    fn telemetry_of_a_two_link_route_keeps_its_order() {
        // Recorder events and tracer records of one packet event come from
        // several places in `send_packet`/`packet_hop`; the sequence below
        // is what analysers and byte-compared artifacts rest on.
        let sim = Sim::new(3);
        sim.recorder().enable();
        let net = Network::new(&sim);
        net.set_tracer(crate::trace::RecorderTracer::new(sim.recorder().clone()));
        let a = net.add_node("a");
        let b = net.add_node("b");
        let l0 = net.add_link(LinkConfig::new(1e9, Duration::from_millis(1)));
        // 140 B of wire take 140 µs here, and only one such packet fits.
        let l1 = net.add_link(LinkConfig::new(1e6, Duration::from_millis(10)).queue_capacity(200));
        net.set_route(a, b, vec![l0, l1]);
        let sink = Arc::new(Counter(AtomicUsize::new(0)));
        net.bind(b, WireProtocol::Udp, 80, sink.clone()).unwrap();
        let send = || net.send_packet(udp_packet(Endpoint::new(a, 1000), Endpoint::new(b, 80)));

        // Two back to back: the second overflows the second link's queue.
        send();
        send();
        sim.run_until(SimTime::from_millis(20));
        // A third is severed while it crosses the second link.
        send();
        sim.run_until(SimTime::from_millis(25));
        net.link(l1).sever();
        sim.run_until(SimTime::from_millis(50));

        let (hop_sev, dropped, severed) = (HOP_SEVERED, FLIGHT_DROPPED, FLIGHT_SEVERED);
        let flight = flight_key(Endpoint::new(a, 1000), Endpoint::new(b, 80));
        let inject =
            [format!("open flight {flight}"), "packet sent".into(), "queue 0".into(), "open hop 0".into()];
        let second_hop = ["close hop 0".to_string(), "queue 1".into(), "open hop 1".into()];
        let mut expected = Vec::new();
        expected.extend(inject.clone());
        expected.extend(inject.clone());
        expected.extend(second_hop.clone());
        expected.extend([
            "close hop 0".to_string(),
            "drop 1 queue_overflow".into(),
            format!("close flight {dropped}"),
            "packet dropped:queue_overflow".into(),
            "close hop 0".into(),
            format!("close flight {FLIGHT_DELIVERED}"),
            "packet delivered".into(),
        ]);
        expected.extend(inject);
        expected.extend(second_hop);
        expected.extend([
            "drop 1 severed".to_string(),
            format!("close hop {hop_sev}"),
            format!("close flight {severed}"),
            "packet dropped:severed".into(),
        ]);
        let recorded: Vec<String> = sim.recorder().events().iter().map(|e| label(&e.kind)).collect();
        assert_eq!(recorded, expected);
        assert_eq!(sink.0.load(Ordering::SeqCst), 1);
        assert_eq!(net.packets_in_flight(), 0);
    }

    #[test]
    fn link_view_is_live() {
        let (sim, net, a, b) = two_nodes();
        let ab = net.route(a, b).unwrap()[0];
        // Taken before anything happens, and read only afterwards.
        let early = net.link(ab);
        assert!(early.is_up());
        assert_eq!((early.epoch(), early.stats()), (0, crate::link::LinkStats::default()));

        net.link(ab).sever();
        assert!(!early.is_up());
        assert_eq!(early.epoch(), 1);
        net.link(ab).set_up(true);
        assert!(early.is_up());

        let sink = Arc::new(Counter(AtomicUsize::new(0)));
        net.bind(b, WireProtocol::Udp, 80, sink).unwrap();
        net.send_packet(udp_packet(Endpoint::new(a, 1000), Endpoint::new(b, 80)));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(early.stats().delivered, 1);
        assert_eq!(early.stats(), net.link(ab).stats());

        let unknown = LinkId::from_index(99);
        let lookup = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| net.link(unknown)));
        assert!(lookup.is_err(), "an unknown id is refused at `Network::link`");
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
