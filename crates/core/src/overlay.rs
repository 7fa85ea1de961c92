//! Self-healing pub/sub routing overlay (DESIGN.md §14).
//!
//! Sits on top of a [`NetworkComponent`](crate::net::NetworkComponent) and
//! turns the middleware's point-to-point channels into a subject-based
//! publish/subscribe mesh in the lattice style:
//!
//! * **Subjects.** Applications publish `(subject, payload)` pairs on the
//!   [`OverlayPort`]; every node subscribed to the subject receives one
//!   [`OverlayDelivery`]. Subscriptions propagate with the gossip digests,
//!   so publishers learn remote interest without a broker.
//! * **Gossip-maintained link state.** Each node owns one versioned row of
//!   the link-state table (its set of live direct neighbours) and one row
//!   of the subscription table. Rows spread by flooding on change plus a
//!   periodic seeded anti-entropy round to one random live neighbour;
//!   higher versions win on merge, so the tables converge without any
//!   coordination.
//! * **Liveness from channel supervision.** The overlay does not probe: it
//!   listens to the supervised channels' [`ConnStatus`] transitions on its
//!   required network port. `ConnectionLost`/`ConnectionDropped` mark the
//!   neighbour link down, `ConnectionRestored` marks it up — the overlay
//!   reuses the transport-level failure detector it already pays for.
//! * **Source-routed forwarding.** Routes are computed per subscriber by a
//!   deterministic breadth-first search over the link-state graph and
//!   expressed as [`RoutingHeader`] relay chains, bounded by
//!   [`OverlayConfig::hop_limit`] (and by the header TTL at the network
//!   layer, so even a stale route cannot loop).
//! * **Reroute before reconnect.** When a direct link dies, the overlay
//!   immediately recomputes routes around the dead edge and re-sends its
//!   bounded buffer of recent publications along the surviving paths —
//!   while channel supervision is still backing off towards a redial. When
//!   the link heals, the shortest path is the direct edge again and
//!   traffic rejoins it. Receiver-side per-subscriber dedup (a bounded
//!   window of seen message ids) keeps delivery at-most-once under the
//!   reroute + supervision-requeue race.
//!
//! Every decision is recorded for the flight recorder (`Overlay` and
//! `Gossip` events, `reroute`/`route_compute` spans), which is what the
//! `OverlayOracle` in `kmsg-oracle` and the `reroute` benchmark consume.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use kmsg_telemetry::bytes::{Buf, BufMut, Bytes, BytesMut};
use parking_lot::Mutex;
use rand::Rng;

use kmsg_component::prelude::*;
use kmsg_netsim::packet::NodeId;
use kmsg_netsim::rng::RngStream;
use kmsg_telemetry::{EventKind, Recorder, SpanKind};

use crate::address::{Address, NetAddress};
use crate::header::{BasicHeader, NetHeader, RoutingHeader};
use crate::msg::{ConnStatus, NetIndication, NetMessage, NetRequest, NetworkPort};
use crate::ser::{
    get_bytes, get_string, put_bytes, put_string, Deserialiser, SerError, SerId, Serialisable,
};
use crate::transport::Transport;

/// Serialiser id of [`OverlayWire`].
pub const OVERLAY_SER_ID: SerId = SerId(110);

/// FNV-1a hash of a subject, used as the event correlation key.
#[must_use]
pub fn subject_hash(subject: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in subject.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Packs a node path into one `u64` for the flight recorder: one node
/// index + 1 per byte, first hop in the low byte. Paths longer than eight
/// nodes (or with indices ≥ 255) encode as `u64::MAX` ("unencodable") —
/// the oracle then skips the loop check for that record.
#[must_use]
pub fn pack_path(path: &[u32]) -> u64 {
    if path.len() > 8 || path.iter().any(|&n| n >= 255) {
        return u64::MAX;
    }
    let mut packed = 0u64;
    for (i, &n) in path.iter().enumerate() {
        packed |= u64::from(n + 1) << (8 * i);
    }
    packed
}

/// Unpacks a [`pack_path`] value back into node indices. Returns `None`
/// for the `u64::MAX` sentinel.
#[must_use]
pub fn unpack_path(packed: u64) -> Option<Vec<u32>> {
    if packed == u64::MAX {
        return None;
    }
    let mut path = Vec::new();
    for i in 0..8 {
        let b = (packed >> (8 * i)) & 0xff;
        if b == 0 {
            break;
        }
        path.push(u32::try_from(b - 1).expect("byte"));
    }
    Some(path)
}

// --- port --------------------------------------------------------------

/// Application requests on the overlay.
#[derive(Debug, Clone)]
pub enum OverlayRequest {
    /// Publish `payload` to every subscriber of `subject`.
    Publish {
        /// The subject name.
        subject: String,
        /// Opaque payload bytes.
        payload: Bytes,
    },
    /// Subscribe this node to `subject` (propagates by gossip).
    Subscribe {
        /// The subject name.
        subject: String,
    },
    /// Drop this node's subscription to `subject`.
    Unsubscribe {
        /// The subject name.
        subject: String,
    },
}

/// One message delivered to a local subscriber.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverlayDelivery {
    /// The subject it was published under.
    pub subject: String,
    /// Node index of the publisher.
    pub origin: u32,
    /// The publisher's sequence number (per-origin, starting at 1).
    pub seq: u64,
    /// The published bytes.
    pub payload: Bytes,
}

impl OverlayDelivery {
    /// The overlay message id: `origin << 32 | seq`.
    #[must_use]
    pub fn id(&self) -> u64 {
        (u64::from(self.origin) << 32) | (self.seq & 0xffff_ffff)
    }
}

/// The pub/sub port: applications require it, [`OverlayComponent`]
/// provides it.
#[derive(Debug)]
pub struct OverlayPort;

impl Port for OverlayPort {
    type Request = OverlayRequest;
    type Indication = OverlayDelivery;
}

// --- configuration -----------------------------------------------------

/// How many recent publications a node keeps for re-sending along new
/// routes when a neighbour link dies.
const RESEND_BUFFER: usize = 32;

/// Configuration of an [`OverlayComponent`].
#[derive(Debug, Clone)]
pub struct OverlayConfig {
    /// This node's overlay address — must equal the address of the
    /// [`NetworkComponent`](crate::net::NetworkComponent) below it.
    pub addr: NetAddress,
    /// Direct overlay neighbours (the mesh edges of this node). All
    /// neighbours are assumed live until channel supervision says
    /// otherwise.
    pub peers: Vec<NetAddress>,
    /// Transport for overlay traffic (data and gossip).
    pub transport: Transport,
    /// Period of the anti-entropy gossip round (one random live
    /// neighbour per round).
    pub gossip_interval: Duration,
    /// Maximum relay hops of a computed route; also stamped into the
    /// routing header TTL as the network layer's loop backstop.
    pub hop_limit: u8,
    /// Receiver-side dedup window: how many recently seen message ids
    /// each node remembers per-subscriber at-most-once delivery over.
    pub dedup_window: usize,
    /// Subjects this node subscribes to from the start.
    pub subscriptions: Vec<String>,
}

impl OverlayConfig {
    /// A configuration for `addr` with direct neighbours `peers` and
    /// defaults everywhere else.
    #[must_use]
    pub fn new(addr: NetAddress, peers: Vec<NetAddress>) -> Self {
        OverlayConfig {
            addr,
            peers,
            transport: Transport::Tcp,
            gossip_interval: Duration::from_millis(500),
            hop_limit: 8,
            dedup_window: 1024,
            subscriptions: Vec::new(),
        }
    }
}

// --- wire format -------------------------------------------------------

/// One versioned link-state row on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkEntry {
    /// The node that owns (and solely writes) this row.
    pub owner: u32,
    /// Row version; higher wins on merge.
    pub version: u64,
    /// Neighbours the owner currently considers live.
    pub up: Vec<u32>,
}

/// One versioned subscription row on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubEntry {
    /// The subscribing node.
    pub node: u32,
    /// Row version; higher wins on merge.
    pub version: u64,
    /// Subjects the node is subscribed to.
    pub subjects: Vec<String>,
}

/// Overlay wire messages, carried as payloads of ordinary
/// [`NetMessage`]s.
#[derive(Debug, Clone, PartialEq)]
pub enum OverlayWire {
    /// A publication, source-routed to one subscriber.
    Data {
        /// Publisher node index.
        origin: u32,
        /// Per-origin sequence number.
        seq: u64,
        /// Subject name.
        subject: String,
        /// Published bytes.
        payload: Bytes,
    },
    /// A gossip digest: the sender's full view of both tables.
    Digest {
        /// Sending node index.
        from: u32,
        /// All link-state rows the sender knows.
        links: Vec<LinkEntry>,
        /// All subscription rows the sender knows.
        subs: Vec<SubEntry>,
    },
}

impl Serialisable for OverlayWire {
    fn ser_id(&self) -> SerId {
        OVERLAY_SER_ID
    }

    fn size_hint(&self) -> Option<usize> {
        match self {
            OverlayWire::Data {
                subject, payload, ..
            } => Some(1 + 4 + 8 + 8 + subject.len() + 8 + payload.len()),
            OverlayWire::Digest { links, subs, .. } => Some(
                1 + 4
                    + 8
                    + links.iter().map(|l| 16 + 4 * l.up.len()).sum::<usize>()
                    + 8
                    + subs
                        .iter()
                        .map(|s| 16 + s.subjects.iter().map(|x| 8 + x.len()).sum::<usize>())
                        .sum::<usize>(),
            ),
        }
    }

    fn serialise(&self, buf: &mut BytesMut) -> Result<(), SerError> {
        match self {
            OverlayWire::Data {
                origin,
                seq,
                subject,
                payload,
            } => {
                buf.put_u8(0);
                buf.put_u32(*origin);
                buf.put_u64(*seq);
                put_string(buf, subject);
                put_bytes(buf, payload);
            }
            OverlayWire::Digest { from, links, subs } => {
                buf.put_u8(1);
                buf.put_u32(*from);
                buf.put_u32(u32::try_from(links.len()).expect("links"));
                for l in links {
                    buf.put_u32(l.owner);
                    buf.put_u64(l.version);
                    buf.put_u32(u32::try_from(l.up.len()).expect("up"));
                    for n in &l.up {
                        buf.put_u32(*n);
                    }
                }
                buf.put_u32(u32::try_from(subs.len()).expect("subs"));
                for s in subs {
                    buf.put_u32(s.node);
                    buf.put_u64(s.version);
                    buf.put_u32(u32::try_from(s.subjects.len()).expect("subjects"));
                    for subj in &s.subjects {
                        put_string(buf, subj);
                    }
                }
            }
        }
        Ok(())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

impl Deserialiser<OverlayWire> for OverlayWire {
    const SER_ID: SerId = OVERLAY_SER_ID;

    fn deserialise(buf: &mut Bytes) -> Result<OverlayWire, SerError> {
        const CTX: &str = "OverlayWire";
        if buf.remaining() < 1 {
            return Err(SerError::Truncated { context: CTX });
        }
        match buf.get_u8() {
            0 => {
                if buf.remaining() < 12 {
                    return Err(SerError::Truncated { context: CTX });
                }
                let origin = buf.get_u32();
                let seq = buf.get_u64();
                let subject = get_string(buf, CTX)?;
                let payload = get_bytes(buf, CTX)?;
                Ok(OverlayWire::Data {
                    origin,
                    seq,
                    subject,
                    payload,
                })
            }
            1 => {
                if buf.remaining() < 8 {
                    return Err(SerError::Truncated { context: CTX });
                }
                let from = buf.get_u32();
                let n_links = buf.get_u32() as usize;
                let mut links = Vec::with_capacity(n_links.min(1024));
                for _ in 0..n_links {
                    if buf.remaining() < 16 {
                        return Err(SerError::Truncated { context: CTX });
                    }
                    let owner = buf.get_u32();
                    let version = buf.get_u64();
                    let n_up = buf.get_u32() as usize;
                    if buf.remaining() < 4 * n_up {
                        return Err(SerError::Truncated { context: CTX });
                    }
                    let up = (0..n_up).map(|_| buf.get_u32()).collect();
                    links.push(LinkEntry { owner, version, up });
                }
                if buf.remaining() < 4 {
                    return Err(SerError::Truncated { context: CTX });
                }
                let n_subs = buf.get_u32() as usize;
                let mut subs = Vec::with_capacity(n_subs.min(1024));
                for _ in 0..n_subs {
                    if buf.remaining() < 16 {
                        return Err(SerError::Truncated { context: CTX });
                    }
                    let node = buf.get_u32();
                    let version = buf.get_u64();
                    let n_subj = buf.get_u32() as usize;
                    let mut subjects = Vec::with_capacity(n_subj.min(1024));
                    for _ in 0..n_subj {
                        subjects.push(get_string(buf, CTX)?);
                    }
                    subs.push(SubEntry {
                        node,
                        version,
                        subjects,
                    });
                }
                Ok(OverlayWire::Digest { from, links, subs })
            }
            _ => Err(SerError::Invalid { context: CTX }),
        }
    }
}

// --- stats -------------------------------------------------------------

/// Counters exposed by the overlay (shared handle, updated inside the
/// component).
#[derive(Debug, Clone, Default)]
pub struct OverlayStats {
    /// Publications issued by the local application.
    pub published: u64,
    /// Messages delivered to the local subscriber.
    pub delivered: u64,
    /// Duplicates absorbed by the receive-side dedup window.
    pub dup_drops: u64,
    /// Data that arrived for a subject this node is not subscribed to
    /// (stale remote subscription table).
    pub stale_drops: u64,
    /// Publications (or re-sends) that found no route to a subscriber.
    pub no_route: u64,
    /// Gossip digests sent (floods + anti-entropy rounds).
    pub gossip_sent: u64,
    /// Route recomputations triggered by a neighbour link going down.
    pub reroutes: u64,
    /// Recent publications re-sent along a rerouted path.
    pub resends: u64,
    /// Neighbour link up/down transitions observed.
    pub link_events: u64,
}

/// Shared handle onto an overlay's [`OverlayStats`].
pub type OverlayStatsHandle = Arc<Mutex<OverlayStats>>;

// --- component ---------------------------------------------------------

#[derive(Debug, Clone, Default)]
struct LinkRow {
    version: u64,
    up: BTreeSet<u32>,
}

#[derive(Debug, Clone, Default)]
struct SubRow {
    version: u64,
    subjects: BTreeSet<String>,
}

#[derive(Debug, Clone)]
struct RecentMsg {
    id: u64,
    subject: String,
    payload: Bytes,
    /// Last route used per subscriber: target node → full node path.
    routes: BTreeMap<u32, Vec<u32>>,
}

/// The overlay component: provides [`OverlayPort`] to the application,
/// requires [`NetworkPort`] from the middleware stack below.
pub struct OverlayComponent {
    /// Application-facing pub/sub port.
    pub app_port: ProvidedPort<OverlayPort>,
    /// Network-facing port.
    pub net_port: RequiredPort<NetworkPort>,
    cfg: OverlayConfig,
    me: u32,
    port: u16,
    peer_nodes: BTreeSet<u32>,
    /// Direct neighbours currently live (local supervision view).
    live: BTreeSet<u32>,
    links: BTreeMap<u32, LinkRow>,
    subs: BTreeMap<u32, SubRow>,
    seq: u64,
    seen: BTreeSet<u64>,
    seen_order: VecDeque<u64>,
    recent: VecDeque<RecentMsg>,
    stats: OverlayStatsHandle,
    rng: RngStream,
    recorder: Recorder,
    gossip_timer: Option<TimeoutId>,
}

impl std::fmt::Debug for OverlayComponent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OverlayComponent")
            .field("me", &self.me)
            .field("live", &self.live)
            .field("links", &self.links.len())
            .field("subs", &self.subs.len())
            .finish()
    }
}

impl OverlayComponent {
    /// Builds the component. `rng` seeds the anti-entropy neighbour
    /// choice (determinism: derive it from the run's
    /// [`SeedSource`](kmsg_netsim::rng::SeedSource)); `recorder` is where
    /// overlay decisions are recorded — pass a clone of
    /// [`Sim::recorder`](kmsg_netsim::engine::Sim::recorder).
    #[must_use]
    pub fn new(cfg: OverlayConfig, rng: RngStream, recorder: Recorder) -> Self {
        let me = cfg.addr.as_socket().node.index();
        let port = cfg.addr.port();
        let peer_nodes: BTreeSet<u32> = cfg
            .peers
            .iter()
            .map(|p| p.as_socket().node.index())
            .collect();
        let mut links = BTreeMap::new();
        links.insert(
            me,
            LinkRow {
                version: 1,
                up: peer_nodes.clone(),
            },
        );
        let mut subs = BTreeMap::new();
        subs.insert(
            me,
            SubRow {
                version: 1,
                subjects: cfg.subscriptions.iter().cloned().collect(),
            },
        );
        OverlayComponent {
            app_port: ProvidedPort::new(),
            net_port: RequiredPort::new(),
            me,
            port,
            live: peer_nodes.clone(),
            peer_nodes,
            links,
            subs,
            seq: 0,
            seen: BTreeSet::new(),
            seen_order: VecDeque::new(),
            recent: VecDeque::new(),
            stats: Arc::new(Mutex::new(OverlayStats::default())),
            rng,
            recorder,
            gossip_timer: None,
            cfg,
        }
    }

    /// The shared stats handle.
    #[must_use]
    pub fn stats(&self) -> OverlayStatsHandle {
        self.stats.clone()
    }

    /// A deterministic digest of both tables. Two nodes whose digests are
    /// equal hold identical link-state and subscription views — the
    /// gossip-convergence check of the `OverlayOracle`.
    #[must_use]
    pub fn table_digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (owner, row) in &self.links {
            mix(u64::from(*owner));
            mix(row.version);
            for n in &row.up {
                mix(u64::from(*n));
            }
        }
        for (node, row) in &self.subs {
            mix(u64::from(*node));
            mix(row.version);
            for s in &row.subjects {
                mix(subject_hash(s));
            }
        }
        h
    }

    fn addr_of(&self, node: u32) -> NetAddress {
        NetAddress::new(NodeId::from_index(node), self.port)
    }

    fn record(&self, time_ns: u64, kind: EventKind) {
        if self.recorder.is_enabled() {
            self.recorder.record(time_ns, kind);
        }
    }

    /// Sends `wire` along the node path `path` (`path[0] == me`,
    /// `path.last()` is the destination) as a routing-header relay chain.
    fn send_along(&mut self, path: &[u32], wire: OverlayWire) {
        debug_assert!(path.len() >= 2 && path[0] == self.me);
        let dst = self.addr_of(path[path.len() - 1]);
        let hops: Vec<NetAddress> = path[1..path.len() - 1]
            .iter()
            .map(|&n| self.addr_of(n))
            .collect();
        let mut rh = RoutingHeader::with_route(
            BasicHeader::new(self.cfg.addr, dst, self.cfg.transport),
            hops,
        );
        rh.ttl = self.cfg.hop_limit;
        self.net_port
            .trigger(NetRequest::Msg(NetMessage::with_header(
                NetHeader::Routing(rh),
                wire,
            )));
    }

    fn digest(&self) -> OverlayWire {
        OverlayWire::Digest {
            from: self.me,
            links: self
                .links
                .iter()
                .map(|(owner, row)| LinkEntry {
                    owner: *owner,
                    version: row.version,
                    up: row.up.iter().copied().collect(),
                })
                .collect(),
            subs: self
                .subs
                .iter()
                .map(|(node, row)| SubEntry {
                    node: *node,
                    version: row.version,
                    subjects: row.subjects.iter().cloned().collect(),
                })
                .collect(),
        }
    }

    /// Floods the current digest to every live neighbour except
    /// `exclude` (the neighbour it just came from).
    fn flood_digest(&mut self, time_ns: u64, exclude: Option<u32>) {
        let digest = self.digest();
        let entries = match &digest {
            OverlayWire::Digest { links, subs, .. } => (links.len() + subs.len()) as u64,
            OverlayWire::Data { .. } => unreachable!("digest is a digest"),
        };
        let targets: Vec<u32> = self
            .live
            .iter()
            .copied()
            .filter(|n| Some(*n) != exclude)
            .collect();
        for n in targets {
            self.record(
                time_ns,
                EventKind::Gossip {
                    node: u64::from(self.me),
                    peer: u64::from(n),
                    entries,
                },
            );
            self.stats.lock().gossip_sent += 1;
            self.send_along(&[self.me, n], digest.clone());
        }
    }

    /// Merges a received digest; returns whether anything changed. Rows
    /// we own are never overwritten (only this node bumps them).
    fn merge_digest(&mut self, links: Vec<LinkEntry>, subs: Vec<SubEntry>) -> bool {
        let mut changed = false;
        for l in links {
            if l.owner == self.me {
                continue;
            }
            let row = self.links.entry(l.owner).or_default();
            if l.version > row.version {
                row.version = l.version;
                row.up = l.up.into_iter().collect();
                changed = true;
            }
        }
        for s in subs {
            let row = self.subs.entry(s.node).or_default();
            if s.version > row.version {
                row.version = s.version;
                row.subjects = s.subjects.into_iter().collect();
                changed = true;
            }
        }
        changed
    }

    /// Whether the directed edge `u -> v` is usable for routing: `u`'s
    /// row must claim `v` up, and `v`'s row — if we have one — must agree
    /// on the reverse edge. The symmetric check lets gossiped rows
    /// override a stale local view: a node that never saw a `ConnStatus`
    /// itself (it accepted the channel rather than dialling it) still
    /// routes around a link its neighbour reported dead.
    fn edge_usable(&self, u: u32, v: u32) -> bool {
        let forward = self.links.get(&u).is_some_and(|row| row.up.contains(&v));
        let back = self.links.get(&v).is_none_or(|row| row.up.contains(&u));
        forward && back
    }

    /// Whether every edge of a stored node path is still usable.
    fn path_usable(&self, path: &[u32]) -> bool {
        path.windows(2).all(|w| self.edge_usable(w[0], w[1]))
    }

    /// Deterministic breadth-first search over the link-state graph from
    /// this node to `target`, following [`Self::edge_usable`] edges.
    /// Returns the full node path (including both endpoints), bounded so
    /// the relay chain stays within `hop_limit`.
    fn route_to(&self, target: u32) -> Option<Vec<u32>> {
        if target == self.me {
            return Some(vec![self.me]);
        }
        let mut prev: BTreeMap<u32, u32> = BTreeMap::new();
        let mut queue: VecDeque<(u32, u8)> = VecDeque::new();
        queue.push_back((self.me, 0));
        while let Some((node, depth)) = queue.pop_front() {
            if depth >= self.cfg.hop_limit {
                continue;
            }
            let neighbours: Vec<u32> = self
                .links
                .get(&node)
                .map(|row| row.up.iter().copied().collect())
                .unwrap_or_default();
            for n in neighbours {
                if n == self.me || prev.contains_key(&n) || !self.edge_usable(node, n) {
                    continue;
                }
                prev.insert(n, node);
                if n == target {
                    let mut path = vec![target];
                    let mut cur = target;
                    while cur != self.me {
                        cur = prev[&cur];
                        path.push(cur);
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back((n, depth + 1));
            }
        }
        None
    }

    fn insert_seen(&mut self, id: u64) {
        if self.seen.insert(id) {
            self.seen_order.push_back(id);
            while self.seen_order.len() > self.cfg.dedup_window {
                if let Some(old) = self.seen_order.pop_front() {
                    self.seen.remove(&old);
                }
            }
        }
    }

    fn deliver_local(&mut self, time_ns: u64, delivery: OverlayDelivery) {
        let id = delivery.id();
        self.insert_seen(id);
        self.record(
            time_ns,
            EventKind::Overlay {
                action: "deliver",
                msg: id,
                node: u64::from(self.me),
                aux: subject_hash(&delivery.subject),
            },
        );
        self.stats.lock().delivered += 1;
        self.app_port.trigger(delivery);
    }

    fn my_subjects(&self) -> &BTreeSet<String> {
        &self.subs[&self.me].subjects
    }

    fn handle_publish(&mut self, time_ns: u64, subject: String, payload: Bytes) {
        self.seq += 1;
        let seq = self.seq;
        let id = (u64::from(self.me) << 32) | (seq & 0xffff_ffff);
        self.record(
            time_ns,
            EventKind::Overlay {
                action: "publish",
                msg: id,
                node: u64::from(self.me),
                aux: subject_hash(&subject),
            },
        );
        self.stats.lock().published += 1;
        if self.my_subjects().contains(&subject) {
            self.deliver_local(
                time_ns,
                OverlayDelivery {
                    subject: subject.clone(),
                    origin: self.me,
                    seq,
                    payload: payload.clone(),
                },
            );
        }
        let targets: Vec<u32> = self
            .subs
            .iter()
            .filter(|(n, row)| **n != self.me && row.subjects.contains(&subject))
            .map(|(n, _)| *n)
            .collect();
        let mut routes = BTreeMap::new();
        for target in targets {
            match self.route_to(target) {
                Some(path) => {
                    self.record(
                        time_ns,
                        EventKind::Overlay {
                            action: "route",
                            msg: id,
                            node: u64::from(self.me),
                            aux: pack_path(&path),
                        },
                    );
                    self.send_along(
                        &path,
                        OverlayWire::Data {
                            origin: self.me,
                            seq,
                            subject: subject.clone(),
                            payload: payload.clone(),
                        },
                    );
                    routes.insert(target, path);
                }
                None => {
                    self.record(
                        time_ns,
                        EventKind::Overlay {
                            action: "no_route",
                            msg: id,
                            node: u64::from(self.me),
                            aux: u64::from(target),
                        },
                    );
                    self.stats.lock().no_route += 1;
                }
            }
        }
        self.recent.push_back(RecentMsg {
            id,
            subject,
            payload,
            routes,
        });
        while self.recent.len() > RESEND_BUFFER {
            self.recent.pop_front();
        }
    }

    fn bump_local_subs(&mut self, time_ns: u64) {
        let row = self.subs.get_mut(&self.me).expect("own row");
        row.version += 1;
        self.flood_digest(time_ns, None);
    }

    fn on_data(&mut self, time_ns: u64, origin: u32, seq: u64, subject: String, payload: Bytes) {
        let id = (u64::from(origin) << 32) | (seq & 0xffff_ffff);
        if !self.my_subjects().contains(&subject) {
            self.record(
                time_ns,
                EventKind::Overlay {
                    action: "stale_drop",
                    msg: id,
                    node: u64::from(self.me),
                    aux: subject_hash(&subject),
                },
            );
            self.stats.lock().stale_drops += 1;
            return;
        }
        if self.seen.contains(&id) {
            self.record(
                time_ns,
                EventKind::Overlay {
                    action: "dup_drop",
                    msg: id,
                    node: u64::from(self.me),
                    aux: subject_hash(&subject),
                },
            );
            self.stats.lock().dup_drops += 1;
            return;
        }
        self.deliver_local(
            time_ns,
            OverlayDelivery {
                subject,
                origin,
                seq,
                payload,
            },
        );
    }

    /// A direct neighbour link died (channel supervision says so): mark
    /// it down, flood the new row, and immediately re-send the recent
    /// buffer along surviving multi-hop routes — supervision is still
    /// backing off towards its first redial at this point.
    fn on_link_down(&mut self, time_ns: u64, peer: u32) {
        self.stats.lock().link_events += 1;
        self.record(
            time_ns,
            EventKind::Overlay {
                action: "link_down",
                msg: 0,
                node: u64::from(self.me),
                aux: u64::from(peer),
            },
        );
        {
            let row = self.links.get_mut(&self.me).expect("own row");
            row.version += 1;
            row.up.remove(&peer);
        }
        self.flood_digest(time_ns, None);
        self.heal_routes(time_ns, u64::from(peer));
    }

    /// Re-sends every recent publication whose stored route crossed an
    /// edge that is no longer usable, along a freshly computed path.
    /// Called on a local link-down and after a digest merge that changed
    /// the tables (the remote-detection case: a node that only *accepted*
    /// the dead channel learns about it by gossip, not `ConnStatus`).
    /// Receiver dedup absorbs any overlap with supervision's requeue.
    fn heal_routes(&mut self, time_ns: u64, cause: u64) {
        let stale: Vec<(u64, u32)> = self
            .recent
            .iter()
            .flat_map(|m| {
                m.routes
                    .iter()
                    .filter(|(_, path)| !self.path_usable(path))
                    .map(|(target, _)| (m.id, *target))
                    .collect::<Vec<_>>()
            })
            .collect();
        if stale.is_empty() {
            return;
        }
        let tracer = self.recorder.tracer();
        let span = tracer.open_root(time_ns, SpanKind::Reroute, cause);
        for (id, target) in stale {
            let rc = tracer.open(
                time_ns,
                SpanKind::RouteCompute,
                span,
                span,
                u64::from(target),
            );
            let new_path = self.route_to(target);
            tracer.close(time_ns, rc);
            self.stats.lock().reroutes += 1;
            let Some(msg) = self.recent.iter().find(|m| m.id == id).cloned() else {
                continue;
            };
            match new_path {
                Some(p) => {
                    self.record(
                        time_ns,
                        EventKind::Overlay {
                            action: "reroute",
                            msg: id,
                            node: u64::from(self.me),
                            aux: pack_path(&p),
                        },
                    );
                    let (origin, seq) =
                        (u32::try_from(id >> 32).expect("origin"), id & 0xffff_ffff);
                    self.send_along(
                        &p,
                        OverlayWire::Data {
                            origin,
                            seq,
                            subject: msg.subject.clone(),
                            payload: msg.payload.clone(),
                        },
                    );
                    self.stats.lock().resends += 1;
                    if let Some(m) = self.recent.iter_mut().find(|m| m.id == id) {
                        m.routes.insert(target, p);
                    }
                }
                None => {
                    self.record(
                        time_ns,
                        EventKind::Overlay {
                            action: "no_route",
                            msg: id,
                            node: u64::from(self.me),
                            aux: u64::from(target),
                        },
                    );
                    self.stats.lock().no_route += 1;
                    if let Some(m) = self.recent.iter_mut().find(|m| m.id == id) {
                        m.routes.remove(&target);
                    }
                }
            }
        }
        tracer.close(time_ns, span);
    }

    fn on_link_up(&mut self, time_ns: u64, peer: u32) {
        self.stats.lock().link_events += 1;
        self.record(
            time_ns,
            EventKind::Overlay {
                action: "link_up",
                msg: 0,
                node: u64::from(self.me),
                aux: u64::from(peer),
            },
        );
        let row = self.links.get_mut(&self.me).expect("own row");
        row.version += 1;
        row.up.insert(peer);
        self.flood_digest(time_ns, None);
    }

    fn handle_net(&mut self, time_ns: u64, ind: NetIndication) {
        match ind {
            NetIndication::Msg(msg) => {
                match msg.try_deserialise::<OverlayWire, OverlayWire>() {
                    Ok(OverlayWire::Data {
                        origin,
                        seq,
                        subject,
                        payload,
                    }) => self.on_data(time_ns, origin, seq, subject, payload),
                    Ok(OverlayWire::Digest { from, links, subs }) => {
                        if self.merge_digest(links, subs) {
                            // Something new: pass it on so floods reach
                            // the whole mesh, not just our neighbours —
                            // and heal any of our routes the new rows
                            // invalidated (remote link death we did not
                            // observe on our own channels).
                            self.flood_digest(time_ns, Some(from));
                            self.heal_routes(time_ns, u64::from(from));
                        }
                    }
                    Err(_) => {}
                }
            }
            NetIndication::Status(status) => {
                let ep = status.peer.as_socket();
                if ep.port != self.port {
                    return;
                }
                let node = ep.node.index();
                if !self.peer_nodes.contains(&node) {
                    return;
                }
                match status.status {
                    ConnStatus::ConnectionLost | ConnStatus::ConnectionDropped => {
                        if self.live.remove(&node) {
                            self.on_link_down(time_ns, node);
                        }
                    }
                    ConnStatus::ConnectionRestored { .. } => {
                        if self.live.insert(node) {
                            self.on_link_up(time_ns, node);
                        }
                    }
                }
            }
            NetIndication::NotifyResp(..) => {}
        }
    }

    fn gossip_round(&mut self, time_ns: u64) {
        if self.live.is_empty() {
            return;
        }
        let live: Vec<u32> = self.live.iter().copied().collect();
        let peer = live[self.rng.gen_range(0..live.len())];
        let digest = self.digest();
        let entries = match &digest {
            OverlayWire::Digest { links, subs, .. } => (links.len() + subs.len()) as u64,
            OverlayWire::Data { .. } => unreachable!("digest is a digest"),
        };
        self.record(
            time_ns,
            EventKind::Gossip {
                node: u64::from(self.me),
                peer: u64::from(peer),
                entries,
            },
        );
        self.stats.lock().gossip_sent += 1;
        self.send_along(&[self.me, peer], digest);
    }
}

impl ComponentDefinition for OverlayComponent {
    fn execute(&mut self, ctx: &mut ComponentContext, max: usize) -> usize {
        execute_ports!(self, ctx, max, [
            provided app_port: OverlayPort,
            required net_port: NetworkPort,
        ])
    }

    fn handle_control(&mut self, ctx: &mut ComponentContext, event: ControlEvent) {
        if event == ControlEvent::Start && self.gossip_timer.is_none() {
            // Announce our rows right away (also dials the neighbour
            // channels, which arms their supervision), then anti-entropy.
            let now = ctx.now().as_nanos();
            self.flood_digest(now, None);
            self.gossip_timer =
                Some(ctx.schedule_periodic(self.cfg.gossip_interval, self.cfg.gossip_interval));
        }
    }

    fn on_timeout(&mut self, ctx: &mut ComponentContext, id: TimeoutId) {
        if Some(id) == self.gossip_timer {
            self.gossip_round(ctx.now().as_nanos());
        }
    }
}

impl Provide<OverlayPort> for OverlayComponent {
    fn handle(&mut self, ctx: &mut ComponentContext, event: OverlayRequest) {
        let now = ctx.now().as_nanos();
        match event {
            OverlayRequest::Publish { subject, payload } => {
                self.handle_publish(now, subject, payload);
            }
            OverlayRequest::Subscribe { subject } => {
                let row = self.subs.get_mut(&self.me).expect("own row");
                if row.subjects.insert(subject) {
                    self.bump_local_subs(now);
                }
            }
            OverlayRequest::Unsubscribe { subject } => {
                let row = self.subs.get_mut(&self.me).expect("own row");
                if row.subjects.remove(&subject) {
                    self.bump_local_subs(now);
                }
            }
        }
    }
}

impl Require<NetworkPort> for OverlayComponent {
    fn handle(&mut self, ctx: &mut ComponentContext, event: NetIndication) {
        self.handle_net(ctx.now().as_nanos(), event);
    }
}

impl ProvideRef<OverlayPort> for OverlayComponent {
    fn provided_port(&mut self) -> &mut ProvidedPort<OverlayPort> {
        &mut self.app_port
    }
}

impl RequireRef<NetworkPort> for OverlayComponent {
    fn required_port(&mut self) -> &mut RequiredPort<NetworkPort> {
        &mut self.net_port
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmsg_netsim::rng::SeedSource;

    fn addr(node: u32) -> NetAddress {
        NetAddress::new(NodeId::from_index(node), 7100)
    }

    fn overlay(me: u32, peers: &[u32]) -> OverlayComponent {
        let cfg = OverlayConfig::new(addr(me), peers.iter().map(|&p| addr(p)).collect());
        OverlayComponent::new(
            cfg,
            SeedSource::new(1).stream("overlay-test"),
            Recorder::new(),
        )
    }

    #[test]
    fn pack_path_round_trips() {
        for path in [vec![0u32], vec![0, 1, 2], vec![5, 3, 9, 200]] {
            assert_eq!(unpack_path(pack_path(&path)).expect("packed"), path);
        }
        assert_eq!(pack_path(&[0; 9]), u64::MAX, "too long");
        assert_eq!(pack_path(&[255]), u64::MAX, "index too large");
        assert_eq!(unpack_path(u64::MAX), None);
    }

    #[test]
    fn wire_round_trips() {
        let msgs = [
            OverlayWire::Data {
                origin: 3,
                seq: 42,
                subject: "metrics.cpu".into(),
                payload: Bytes::from_static(b"payload"),
            },
            OverlayWire::Digest {
                from: 1,
                links: vec![LinkEntry {
                    owner: 1,
                    version: 7,
                    up: vec![0, 2],
                }],
                subs: vec![SubEntry {
                    node: 2,
                    version: 3,
                    subjects: vec!["a".into(), "b".into()],
                }],
            },
        ];
        for m in msgs {
            let mut buf = BytesMut::new();
            m.serialise(&mut buf).expect("serialise");
            let mut bytes = buf.freeze();
            assert_eq!(OverlayWire::deserialise(&mut bytes).expect("deser"), m);
        }
    }

    #[test]
    fn truncated_wire_rejected() {
        let m = OverlayWire::Digest {
            from: 1,
            links: vec![LinkEntry {
                owner: 1,
                version: 7,
                up: vec![0, 2],
            }],
            subs: vec![],
        };
        let mut buf = BytesMut::new();
        m.serialise(&mut buf).expect("serialise");
        let full = buf.freeze();
        for cut in [0, 1, 5, full.len() - 1] {
            let mut short = full.slice(0..cut);
            assert!(OverlayWire::deserialise(&mut short).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn bfs_finds_shortest_and_respects_hop_limit() {
        // Diamond: 0 - {1,2} - 3, plus a long chain 0-4-5-6-3.
        let mut o = overlay(0, &[1, 2, 4]);
        let rows = [
            (1u32, vec![0u32, 3]),
            (2, vec![0, 3]),
            (3, vec![1, 2, 6]),
            (4, vec![0, 5]),
            (5, vec![4, 6]),
            (6, vec![5, 3]),
        ];
        for (owner, up) in rows {
            o.merge_digest(
                vec![LinkEntry {
                    owner,
                    version: 2,
                    up,
                }],
                vec![],
            );
        }
        assert_eq!(
            o.route_to(3).expect("route"),
            vec![0, 1, 3],
            "shortest, lowest id"
        );
        // Kill the local links to 1 and 2: forced through the chain.
        let row = o.links.get_mut(&0).expect("own row");
        row.up.remove(&1);
        row.up.remove(&2);
        assert_eq!(o.route_to(3).expect("route"), vec![0, 4, 5, 6, 3]);
        // A hop limit below the chain length finds nothing.
        o.cfg.hop_limit = 2;
        assert_eq!(o.route_to(3), None);
    }

    #[test]
    fn gossiped_row_overrides_stale_local_view() {
        // Node 0 still believes its edge to 1 is up (it accepted the
        // channel, so it saw no ConnStatus), but node 1's gossiped row
        // no longer claims 0: the symmetric check kills the edge.
        let mut o = overlay(0, &[1, 2]);
        o.merge_digest(
            vec![
                LinkEntry {
                    owner: 1,
                    version: 5,
                    up: vec![3],
                },
                LinkEntry {
                    owner: 2,
                    version: 2,
                    up: vec![0, 3],
                },
                LinkEntry {
                    owner: 3,
                    version: 2,
                    up: vec![1, 2],
                },
            ],
            vec![],
        );
        assert!(!o.edge_usable(0, 1), "neighbour's row vetoes the edge");
        assert!(o.edge_usable(0, 2));
        assert_eq!(o.route_to(1).expect("route"), vec![0, 2, 3, 1]);
        assert!(!o.path_usable(&[0, 1, 3]));
        assert!(o.path_usable(&[0, 2, 3]));
    }

    #[test]
    fn merge_is_versioned_and_convergent() {
        let mut a = overlay(0, &[1]);
        let mut b = overlay(1, &[0]);
        let stale = LinkEntry {
            owner: 5,
            version: 1,
            up: vec![0],
        };
        let fresh = LinkEntry {
            owner: 5,
            version: 2,
            up: vec![1],
        };
        assert!(a.merge_digest(vec![fresh.clone()], vec![]));
        assert!(
            !a.merge_digest(vec![stale.clone()], vec![]),
            "stale row loses"
        );
        assert!(b.merge_digest(vec![stale], vec![]));
        assert!(b.merge_digest(vec![fresh], vec![]), "fresh row wins");
        assert_eq!(
            a.links[&5].up, b.links[&5].up,
            "same rows regardless of arrival order"
        );
    }

    #[test]
    fn dedup_window_is_bounded() {
        let mut o = overlay(0, &[1]);
        o.cfg.dedup_window = 4;
        for id in 0..10u64 {
            o.insert_seen(id);
        }
        assert_eq!(o.seen.len(), 4);
        assert!(!o.seen.contains(&0), "oldest evicted");
        assert!(o.seen.contains(&9));
    }

    #[test]
    fn table_digest_tracks_table_content() {
        let a = overlay(0, &[1, 2]);
        let b = overlay(0, &[1, 2]);
        assert_eq!(a.table_digest(), b.table_digest());
        let mut c = overlay(0, &[1, 2]);
        c.merge_digest(
            vec![LinkEntry {
                owner: 9,
                version: 1,
                up: vec![0],
            }],
            vec![],
        );
        assert_ne!(a.table_digest(), c.table_digest());
    }
}
