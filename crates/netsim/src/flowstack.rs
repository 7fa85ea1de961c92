//! The flow core: everything a reliable stream transport needs that is not
//! protocol logic, written once and shared by [`crate::tcp`] and
//! [`crate::udt`].
//!
//! All per-connection state of one protocol in one world lives in a
//! [`FlowTable`], a plain field of the fabric's state: the world's one lock
//! guards the event store, links, routes, the packet pool, the port bindings
//! and every flow. Applications, packet demux and timers address flows by
//! 8-byte generation-checked [`Handle`]s instead of `Arc`s. A packet for a
//! port bound to a table is demuxed and its flow stepped inside the hop
//! event's lock scope ([`dispatch`]), a timer event — which carries only its
//! protocol and token — finds its slot and steps under one acquisition, and
//! what a step asks for — packets, timers, callbacks — is carried out in
//! order once the lock is released. Every flow's application-facing half —
//! send queue, writable rule, reorder buffer — is one [`Stream`]. A
//! [`Protocol`] supplies the rest: config, wire type, the flow state
//! machine as step functions that see one flow and never a lock, its timer
//! kinds, how an open starts and what dying clears. Besides `network.rs`
//! and `engine.rs`, this is the one netsim file that locks. See
//! `DESIGN.md` §12.

// `Conn` and `Listener` are public through the `TcpConn`/`UdtConn` aliases
// while `Protocol` stays crate-private: outside the crate the type parameter
// can only ever be one of our own config types.
#![allow(private_bounds)]

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Duration;

use kmsg_telemetry::bytes::Bytes;
use kmsg_telemetry::Recorder;
use parking_lot::MutexGuard;

use crate::engine::World;
use crate::iface::{CloseReason, Connection, ConnectionId, StreamAccept, StreamEvents};
use crate::memscope;
use crate::network::{BindError, Binding, NetInner, Network};
use crate::packet::{Endpoint, NodeId, Packet, PacketBody, WireProtocol};
use crate::slab::{FxHashMap, Handle, Slab};
use crate::time::SimTime;

/// What a stream transport supplies to run on the core, implemented by the
/// transport's config type — which so doubles as the protocol's name in
/// `FlowTable<P>` and `Conn<P>`, and is interned per table (flows store a
/// `u16` id). Dispatch is static: each protocol monomorphises its own copy
/// of the core.
///
/// The steps — `start_active`, `start_passive`, `on_wire`, `on_timer` — see
/// one flow, its config, the recorder and the clock, and push what is to
/// happen next onto `out`.
pub(crate) trait Protocol: PartialEq + Send + Sized + 'static {
    /// Full per-flow state: one slab slot embedding a [`FlowHeader`].
    type Flow: Send;
    /// The packet body this protocol puts on the wire.
    type Wire: Send;

    /// Wire protocol of every packet and port binding of this protocol.
    const WIRE: WireProtocol;
    /// [`memscope`] tag for allocations made by the protocol's steps.
    const SCOPE: usize;
    /// `Debug` names of the connection and listener handles.
    const CONN_NAME: &'static str;
    const LISTENER_NAME: &'static str;

    /// This protocol's flow table in the fabric's state.
    fn table(net: &mut NetInner) -> &mut FlowTable<Self>;
    /// A fresh flow in its opening state (`active`: this side dials).
    fn new_flow(hdr: FlowHeader, cfg: &Self, now: SimTime, active: bool) -> Self::Flow;
    fn hdr(flow: &Self::Flow) -> &FlowHeader;
    fn hdr_mut(flow: &mut Self::Flow) -> &mut FlowHeader;
    /// Wraps a handle in this protocol's [`Connection`] variant.
    fn connection(conn: Conn<Self>) -> Connection;
    /// Payload length (for the wire size) and packet body of `wire`.
    fn into_body(wire: Self::Wire) -> (usize, PacketBody);
    fn from_body(body: PacketBody) -> Option<Self::Wire>;
    /// Whether `wire`, arriving for an unknown endpoint pair, asks a
    /// listener for a passive open (anything else is a stray and ignored).
    fn opens(wire: &Self::Wire) -> bool;
    /// Starts an active open on a freshly registered flow.
    fn start_active(
        flow: &mut Self::Flow,
        cfg: &Self,
        rec: &Recorder,
        now: SimTime,
        out: &mut Out<Self>,
    );
    /// Starts a passive open with the packet that asked for it.
    fn start_passive(
        flow: &mut Self::Flow,
        cfg: &Self,
        rec: &Recorder,
        now: SimTime,
        out: &mut Out<Self>,
        wire: Self::Wire,
    );
    /// A packet for an existing flow.
    fn on_wire(
        flow: &mut Self::Flow,
        cfg: &Self,
        rec: &Recorder,
        now: SimTime,
        out: &mut Out<Self>,
        wire: Self::Wire,
    );
    /// A per-flow timer of `kind` (with the `aux` word it was armed with)
    /// came due. Handlers re-check their own armed-state/deadline
    /// discipline: an armed timer is never cancelled, so stale firings are
    /// normal.
    fn on_timer(
        flow: &mut Self::Flow,
        cfg: &Self,
        rec: &Recorder,
        now: SimTime,
        out: &mut Out<Self>,
        kind: u64,
        aux: u32,
    );
    /// The flow's [`FlowTimer`] of `kind`, for a protocol that keeps any.
    fn timer(_flow: &mut Self::Flow, _kind: u64) -> &mut FlowTimer {
        unreachable!("no timer of this protocol reserves")
    }
    /// The flow is abandoned (its last application handle dropped, or its
    /// peer dialled again): close it in place and free its buffers (the
    /// slot itself lingers in the slab).
    fn kill(flow: &mut Self::Flow, rec: &Recorder, now: SimTime);
    /// Runs under the lock after every step.
    fn after_step(_flow: &mut Self::Flow, _rec: &Recorder, _now: SimTime) {}
    /// Appends the protocol's fields to a connection handle's `Debug`.
    fn debug_state(flow: Option<&Self::Flow>, out: &mut fmt::DebugStruct<'_, '_>);

    /// What the handle methods of [`Conn`] read and write: the flow's
    /// [`Stream`], where its open stands, and its send buffer's size.
    fn stream<'a>(flow: &'a mut Self::Flow, cfg: &Self) -> (&'a mut Stream, Phase, usize);
    /// Moves bytes or a FIN just queued along (TCP tries to send, UDT
    /// restarts its pacer).
    fn kick(flow: &mut Self::Flow, cfg: &Self, rec: &Recorder, now: SimTime, out: &mut Out<Self>);
    /// The RTT estimate in seconds, if there is one yet.
    fn rtt(flow: &Self::Flow) -> Option<f64>;
}

/// Where a flow's open stands: UDT's states, and TCP's with its two
/// handshake states as one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    Connecting,
    Established,
    Closed,
}

/// The application-facing half of a reliable byte stream, which TCP and UDT
/// keep alike: the bytes the application handed over and the peer has not
/// acknowledged, and the payloads that arrived ahead of a hole. A protocol
/// keeps its own sequence space (bytes or packets), congestion control, loss
/// reports, handshake and close, and passes the sizes from its config.
#[derive(Default)]
pub(crate) struct Stream {
    /// Accepted bytes not yet sent, oldest first.
    send_q: VecDeque<Bytes>,
    /// The application was refused bytes; it is told when room frees up.
    app_blocked: bool,
    /// The application closed: a FIN follows the last queued byte.
    pub(crate) fin_queued: bool,
    /// Payloads held until they are next in order, by sequence number, and
    /// their total length.
    ooo: BTreeMap<u64, Bytes>,
    ooo_bytes: usize,
    /// Payload bytes accepted from the application, acknowledged by the
    /// peer (their difference is the occupied send buffer), and delivered
    /// to the application.
    pub(crate) bytes_sent: u64,
    pub(crate) bytes_acked: u64,
    pub(crate) bytes_delivered: u64,
}

impl Stream {
    /// Accepted and not yet acknowledged bytes (queued + in flight).
    fn unacked(&self) -> usize {
        (self.bytes_sent - self.bytes_acked) as usize
    }

    /// Free space in a send buffer of `send_buf` bytes.
    fn free(&self, send_buf: usize) -> usize {
        send_buf.saturating_sub(self.unacked())
    }

    /// Queues as much of `data` as the send buffer has room for, nothing
    /// once a FIN is queued; how much. A writer refused any is owed an
    /// `on_writable`.
    fn accept(&mut self, data: &Bytes, send_buf: usize) -> usize {
        if self.fin_queued {
            return 0;
        }
        let take = self.free(send_buf).min(data.len());
        if take < data.len() {
            self.app_blocked = true;
        }
        if take > 0 {
            self.send_q.push_back(data.slice(0..take));
            self.bytes_sent += take as u64;
        }
        take
    }

    /// Whether accepted bytes wait to be sent.
    pub(crate) fn has_queued(&self) -> bool {
        !self.send_q.is_empty()
    }

    /// Takes the next payload, at most `mss` bytes, off the send queue.
    pub(crate) fn next_payload(&mut self, mss: usize) -> Option<Bytes> {
        let head = self.send_q.front_mut()?;
        let payload = head.split_to(head.len().min(mss));
        if head.is_empty() {
            self.send_q.pop_front();
            release_drained(&mut self.send_q);
        }
        Some(payload)
    }

    /// Counts `n` payload bytes the peer acknowledged. Any fire `on_writable`,
    /// so the middleware can track delivery progress; with none, a refused
    /// writer hears once `mss` bytes of room are free.
    pub(crate) fn acked<W>(
        &mut self,
        n: usize,
        send_buf: usize,
        mss: usize,
        out: &mut Vec<Action<W>>,
    ) {
        self.bytes_acked += n as u64;
        if n > 0 || (self.app_blocked && self.free(send_buf) >= mss) {
            self.app_blocked = false;
            out.push(Action::Writable);
        }
    }

    /// Holds `payload`, which arrived ahead of its turn at `seq`, unless one
    /// is held there already; false, holding nothing, if it would overflow
    /// a receive buffer of `recv_buf` bytes.
    pub(crate) fn hold(&mut self, seq: u64, payload: Bytes, recv_buf: usize) -> bool {
        match self.ooo.entry(seq) {
            Entry::Occupied(_) => true,
            Entry::Vacant(_) if self.ooo_bytes + payload.len() > recv_buf => false,
            Entry::Vacant(slot) => {
                self.ooo_bytes += payload.len();
                slot.insert(payload);
                true
            }
        }
    }

    /// The held payloads by sequence number.
    pub(crate) fn held(&self) -> &BTreeMap<u64, Bytes> {
        &self.ooo
    }

    /// The held payloads' total length.
    pub(crate) fn held_bytes(&self) -> usize {
        self.ooo_bytes
    }

    /// Delivers `data`, next in order, to the application.
    pub(crate) fn deliver<W>(&mut self, data: Bytes, out: &mut Vec<Action<W>>) {
        self.bytes_delivered += data.len() as u64;
        out.push(Action::Deliver(data));
    }

    /// Delivers the payload held at `next`, if there is one; its length.
    pub(crate) fn deliver_held<W>(&mut self, next: u64, out: &mut Vec<Action<W>>) -> Option<usize> {
        let entry = self.ooo.first_entry().filter(|e| *e.key() == next)?;
        let data = entry.remove();
        let len = data.len();
        self.ooo_bytes -= len;
        self.deliver(data, out);
        Some(len)
    }

    /// Frees the buffers of a killed flow: fresh containers, as
    /// `VecDeque::clear` keeps its ring allocated.
    pub(crate) fn free_buffers(&mut self) {
        self.send_q = VecDeque::new();
        self.ooo = BTreeMap::new();
        self.ooo_bytes = 0;
    }
}

/// Where a step of a `P` flow pushes its actions.
pub(crate) type Out<P> = Vec<Action<<P as Protocol>::Wire>>;

/// Packs an endpoint into a dense map key: node index in the high bits,
/// port in the low 16.
pub(crate) fn ep_key(e: Endpoint) -> u64 {
    (u64::from(e.node.index()) << 16) | u64::from(e.port)
}

/// Demux key for an established flow: (local, peer) endpoint pair.
pub(crate) fn pair_key(local: Endpoint, peer: Endpoint) -> u128 {
    (u128::from(ep_key(local)) << 64) | u128::from(ep_key(peer))
}

/// Releases a drained queue's retained ring storage so a long-lived idle
/// flow doesn't pin its peak-burst capacity; small rings are kept to avoid
/// realloc thrash on steady-state flows.
pub(crate) fn release_drained<T>(q: &mut VecDeque<T>) {
    if q.is_empty() && q.capacity() >= 32 {
        *q = VecDeque::new();
    }
}

/// Timer-token layout: `kind(3) | slot-index(29) | aux(32)`. The kinds and
/// the meaning of `aux` belong to the protocol; the slot index alone names
/// the flow, because flow slots are never removed. A pending timer is an
/// engine event carrying its token: one per [`Action::Arm`], at most one
/// per [`FlowTimer`] however often it is re-armed.
const TOKEN_KIND_SHIFT: u32 = 61;
const TOKEN_IDX_SHIFT: u32 = 32;
const TOKEN_IDX_MASK: u64 = (1 << 29) - 1;
/// How many timer kinds the layout has room for.
const TOKEN_KINDS: u64 = 1 << (64 - TOKEN_KIND_SHIFT);

fn token<F>(kind: u64, h: Handle<F>, aux: u32) -> u64 {
    debug_assert!(kind < TOKEN_KINDS, "timer kind overflows its field");
    (kind << TOKEN_KIND_SHIFT)
        | ((h.index() as u64 & TOKEN_IDX_MASK) << TOKEN_IDX_SHIFT)
        | u64::from(aux)
}

/// The part of every flow the core itself reads and writes.
pub(crate) struct FlowHeader {
    /// Index into the table's interned config list.
    cfg_id: u16,
    local: Endpoint,
    peer: Endpoint,
    /// Raw [`ConnectionId`] used to tag flight-recorder events.
    pub(crate) conn_id: u64,
    /// The application's event handler (absent until `on_accept` returns).
    events: Option<Arc<dyn StreamEvents>>,
    /// Connect-created flows die in place when the application drops its
    /// last handle; accepted flows are owned by their listener entry.
    app_owned: bool,
    /// Live [`Conn`] wrappers referring to this slot.
    app_handles: u32,
    /// The owner has been told the flow closed (at most once per flow).
    closed_notified: bool,
}

impl FlowHeader {
    /// Tells the owner the flow closed, unless it has been told already.
    pub(crate) fn notify_closed<W>(&mut self, reason: CloseReason, out: &mut Vec<Action<W>>) {
        if !std::mem::replace(&mut self.closed_notified, true) {
            out.push(Action::Closed(reason));
        }
    }
}

/// What a step asks the core to do once the world lock is released.
pub(crate) enum Action<W> {
    Send(W),
    Deliver(Bytes),
    Connected,
    Writable,
    Closed(CloseReason),
    /// Arm the flow's timer of `kind` to come due after `delay`: one event.
    Arm {
        kind: u64,
        delay: Duration,
        aux: u32,
    },
    /// A [`FlowTimer`] moved its deadline to `at` behind a pending event:
    /// take the number an `Arm` would have taken, and report it.
    Reserve {
        kind: u64,
        at: SimTime,
    },
    /// File a [`FlowTimer`]'s event at `at` under `seq`, reserved earlier.
    Refile {
        kind: u64,
        at: SimTime,
        seq: u64,
    },
}

/// A per-flow timer that keeps one pending engine event however often it is
/// re-armed, yet comes due where one event per arm would have: at
/// `(deadline, n)`, `n` the sequence number of the first arm that set the
/// deadline. An arm to a later deadline files nothing and only takes its
/// number ([`Action::Reserve`]); the event pending before the deadline,
/// firing early, files the deadline's under that number ([`Action::Refile`]).
/// Nothing is cancelled: the handler's own checks make surplus firings no-ops.
pub(crate) struct FlowTimer {
    deadline: SimTime,
    /// `COVERED` while an event is pending at exactly `deadline`, else the
    /// number of the first arm that set it (`UNREPORTED` until reported).
    seq: u64,
}

const COVERED: u64 = u64::MAX;
const UNREPORTED: u64 = u64::MAX - 1;

impl FlowTimer {
    pub(crate) const IDLE: FlowTimer = FlowTimer {
        deadline: SimTime::ZERO,
        seq: COVERED,
    };

    /// Arms the timer of `kind` for `delay` after `now`: the action to perform.
    pub(crate) fn arm<W>(&mut self, kind: u64, now: SimTime, delay: Duration) -> Action<W> {
        let at = now + delay;
        // A deadline still ahead has an event pending at or before it.
        let file = at < self.deadline || self.deadline <= now;
        if at != self.deadline {
            (self.deadline, self.seq) = (at, UNREPORTED);
        }
        if file {
            self.seq = COVERED;
            Action::Arm {
                kind,
                delay,
                aux: 0,
            }
        } else {
            Action::Reserve { kind, at }
        }
    }

    /// The number an arm for `at` took; dropped if the deadline moved on.
    fn reserved(&mut self, at: SimTime, seq: u64) {
        if at == self.deadline && self.seq != COVERED {
            self.seq = self.seq.min(seq);
        }
    }

    /// An event of this timer fired at `now`: whether the deadline is
    /// reached. An early one files the deadline's event if none is there.
    pub(crate) fn fired<W>(&mut self, kind: u64, now: SimTime, out: &mut Vec<Action<W>>) -> bool {
        if now < self.deadline && self.seq != COVERED {
            debug_assert!(
                self.seq != UNREPORTED,
                "the deadline's number was never reported"
            );
            out.push(Action::Refile {
                kind,
                at: self.deadline,
                seq: self.seq,
            });
            self.seq = COVERED;
        }
        now >= self.deadline
    }
}

/// A port with a registered [`StreamAccept`] handler plus the flows it has
/// accepted (each kept until its peer port dials again).
struct ListenerEntry<P: Protocol> {
    cfg_id: u16,
    handler: Arc<dyn StreamAccept>,
    /// Accepted flows keyed by peer endpoint.
    conns: FxHashMap<u64, Handle<P::Flow>>,
}

/// Every flow of one stream protocol on a network, in one slab: plain
/// fabric state, behind the world's lock like its links and routes.
pub(crate) struct FlowTable<P: Protocol> {
    flows: Slab<P::Flow>,
    /// Worlds use a handful of distinct configs across thousands of flows.
    configs: Vec<P>,
    /// `(local, peer)` pair → flow, for per-packet demux.
    conn_index: FxHashMap<u128, Handle<P::Flow>>,
    /// Listening ports keyed by [`ep_key`].
    listeners: FxHashMap<u64, ListenerEntry<P>>,
    /// Where a step pushes its actions: kept for its capacity, and empty
    /// whenever the lock is free.
    actions: Out<P>,
    /// An empty buffer that takes `actions`' place when a burst leaves
    /// with it, given back by the burst before.
    spare: Out<P>,
}

/// Up to this many actions leave the lock in an array on the stack: every
/// steady-state step, and a dial's first window.
const INLINE_ACTIONS: usize = 8;
/// Most capacity `actions` and `spare` keep after a longer burst (a 64 KiB
/// write is 45 segments and a timer).
const KEPT_ACTIONS: usize = 64;

impl<P: Protocol> FlowTable<P> {
    /// An empty table; allocates nothing.
    pub(crate) fn new() -> Self {
        FlowTable {
            flows: Slab::new(),
            configs: Vec::new(),
            conn_index: FxHashMap::default(),
            listeners: FxHashMap::default(),
            actions: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// Interns `cfg`, returning its table id.
    fn intern(&mut self, cfg: P) -> u16 {
        if let Some(i) = self.configs.iter().position(|c| *c == cfg) {
            return i as u16;
        }
        let id = u16::try_from(self.configs.len()).expect("too many distinct configs");
        self.configs.push(cfg);
        id
    }

    /// Registers a new flow in the slab and the demux index, with one
    /// application handle counted. A dialled flow arrives with its handler
    /// and is owned by the application; an accepted one gets its handler
    /// from `on_accept` (whose wrapper is the counted handle) and is owned by
    /// its listener.
    fn insert_flow(
        &mut self,
        cfg_id: u16,
        (local, peer): (Endpoint, Endpoint),
        conn_id: u64,
        events: Option<Arc<dyn StreamEvents>>,
        now: SimTime,
    ) -> Handle<P::Flow> {
        let active = events.is_some();
        let hdr = FlowHeader {
            cfg_id,
            local,
            peer,
            conn_id,
            events,
            app_owned: active,
            app_handles: 1,
            closed_notified: false,
        };
        let flow = P::new_flow(hdr, &self.configs[cfg_id as usize], now, active);
        let h = self.flows.insert(flow);
        self.conn_index.insert(pair_key(local, peer), h);
        h
    }

    /// Whether an opening packet from `src` for the known flow `h` is a new
    /// dial from a reused port rather than a repeat of the open that created
    /// `h`. Opens carry no initial sequence number to tell incarnations
    /// apart, so the core reads them off its own connection ids: an
    /// accepted flow is younger than the dial it answers and older than any
    /// later one from that port.
    fn superseded(&self, h: Handle<P::Flow>, src: Endpoint, dst: Endpoint) -> bool {
        let dial = self.conn_index.get(&pair_key(src, dst));
        let dial = dial.and_then(|&d| self.flows.get(d));
        let (Some(dial), Some(flow)) = (dial, self.flows.get(h)) else {
            return false;
        };
        !P::hdr(flow).app_owned && P::hdr(dial).conn_id >= P::hdr(flow).conn_id
    }
}

/// Runs the step `f` on flow `h` with the world lock held (`world`), then
/// [`Protocol::after_step`]; releases the lock and performs the actions the
/// step pushed, in order, so a callback may step this flow or any other.
fn step<P: Protocol, F>(net: &Network, mut world: MutexGuard<'_, World>, h: Handle<P::Flow>, f: F)
where
    F: FnOnce(&mut P::Flow, &P, &Recorder, SimTime, &mut Out<P>),
{
    let (rec, now) = (net.sim().recorder(), net.now());
    let table = P::table(&mut world.net);
    let Some(flow) = table.flows.get_mut(h) else {
        return;
    };
    f(
        flow,
        &table.configs[P::hdr(flow).cfg_id as usize],
        rec,
        now,
        &mut table.actions,
    );
    P::after_step(flow, rec, now);
    if !table.actions.is_empty() {
        perform::<P>(net, h, world);
    }
}

/// The half of [`step`] that does not depend on the step, kept out of line
/// so it exists once per protocol, not once per call site: empties
/// `actions`, unlocks, and carries the actions out.
#[inline(never)]
fn perform<P: Protocol>(net: &Network, h: Handle<P::Flow>, mut world: MutexGuard<'_, World>) {
    let table = P::table(&mut world.net);
    let actions = &mut table.actions;
    // Only clone the handler out when an action will actually notify the
    // application.
    let needs_events = actions.iter().any(|a| {
        matches!(
            a,
            Action::Deliver(_) | Action::Connected | Action::Writable | Action::Closed(_)
        )
    });
    let mut few: [Option<Action<P::Wire>>; INLINE_ACTIONS] = [const { None }; INLINE_ACTIONS];
    let mut many = Vec::new();
    if actions.len() <= INLINE_ACTIONS {
        for (slot, action) in few.iter_mut().zip(actions.drain(..)) {
            *slot = Some(action);
        }
    } else {
        // A burst leaves with its buffer and the spare takes its place, so
        // the next one finds room.
        let mut fresh = std::mem::take(&mut table.spare);
        if fresh.capacity() == 0 {
            fresh = Vec::with_capacity(actions.capacity().min(KEPT_ACTIONS));
        }
        many = std::mem::replace(actions, fresh);
    }
    let hdr = P::hdr_mut(table.flows.get_mut(h).expect("flow looked up by the step"));
    let (local, peer, id) = (hdr.local, hdr.peer, ConnectionId::from_raw(hdr.conn_id));
    let events = if needs_events {
        hdr.events.clone()
    } else {
        None
    };
    // The wrapper exists only for callback scope: counted here, under the
    // lock already held, and dropped outside it (its Drop re-enters the
    // world).
    hdr.app_handles += u32::from(events.is_some());
    drop(world);
    let app = events.as_ref().map(|ev| {
        (
            ev,
            P::connection(Conn {
                net: net.clone(),
                h,
                id,
                local,
                peer,
            }),
        )
    });
    let sim = net.sim();
    for action in few.iter_mut().map_while(Option::take).chain(many.drain(..)) {
        match (action, &app) {
            (Action::Send(wire), _) => {
                let (payload_len, body) = P::into_body(wire);
                net.send_packet(Packet::new(local, peer, P::WIRE, payload_len, body));
            }
            (Action::Arm { kind, delay, aux }, _) => {
                sim.schedule_flow_timer(sim.now() + delay, None, P::WIRE, token(kind, h, aux));
            }
            (Action::Reserve { kind, at }, _) => {
                let mut world = sim.lock();
                let seq = world.next_seq();
                let flow = P::table(&mut world.net)
                    .flows
                    .get_mut(h)
                    .expect("flow slots are never removed");
                P::timer(flow, kind).reserved(at, seq);
            }
            (Action::Refile { kind, at, seq }, _) => {
                sim.schedule_flow_timer(at, Some(seq), P::WIRE, token(kind, h, 0));
            }
            (Action::Deliver(data), Some((ev, conn))) => ev.on_data(conn, data),
            (Action::Connected, Some((ev, conn))) => ev.on_connected(conn),
            (Action::Writable, Some((ev, conn))) => ev.on_writable(conn),
            (Action::Closed(reason), Some((ev, conn))) => ev.on_closed(conn, reason),
            // No handler yet: `on_accept` has not returned.
            (_, None) => {}
        }
    }
    // The burst's buffer, emptied, is the next burst's spare: one more
    // acquisition per burst, and no allocation. One grown past what
    // `actions` keeps is let go.
    if (1..=KEPT_ACTIONS).contains(&many.capacity()) {
        P::table(&mut sim.lock().net).spare = many;
    }
}

/// Demuxes a packet for a port bound to `P`'s flows, handed over with the
/// hop event's lock scope (`world`) still open: a known flow by endpoint
/// pair is stepped in that scope, otherwise a listener performs a passive
/// open, registered in that scope. `on_accept`, and the drop of the handler
/// of a flow a new dial supersedes, run with the lock released.
pub(crate) fn dispatch<'a, P: Protocol>(
    net: &'a Network,
    mut world: MutexGuard<'a, World>,
    pkt: Packet,
) {
    let _scope = memscope::enter(P::SCOPE);
    let (src, dst) = (pkt.src, pkt.dst);
    let Some(wire) = P::from_body(pkt.body) else {
        return;
    };
    let table = P::table(&mut world.net);
    match table.conn_index.get(&pair_key(dst, src)).copied() {
        Some(h) if !(P::opens(&wire) && table.superseded(h, src, dst)) => {
            return step(net, world, h, |flow, cfg, rec, now, out| {
                P::on_wire(flow, cfg, rec, now, out, wire)
            });
        }
        Some(h) => {
            // A new dial from a reused port: the old flow dies in place, and
            // its owner hears of the reset and loses its handler (dropped
            // outside the lock, as in `Conn::drop`) before the dial is
            // accepted afresh.
            step::<P, _>(net, world, h, |flow, _cfg, rec, now, out| {
                P::kill(flow, rec, now);
                P::hdr_mut(flow).notify_closed(CloseReason::Reset, out);
            });
            let events = P::table(&mut net.sim().lock().net)
                .flows
                .get_mut(h)
                .and_then(|f| P::hdr_mut(f).events.take());
            drop(events);
            world = net.sim().lock();
        }
        None if !P::opens(&wire) => return,
        None => {}
    }
    // Passive open. The flow is fully registered (slab + demux index +
    // listener table, replacing a superseded flow's entries) before
    // `on_accept` runs, but no packet or timer can observe it until
    // `start_passive` below.
    let Some(entry) = P::table(&mut world.net).listeners.get(&ep_key(dst)) else {
        return;
    };
    let (handler, cfg_id) = (entry.handler.clone(), entry.cfg_id);
    let id = ConnectionId::fresh(&mut world);
    let table = P::table(&mut world.net);
    let h = table.insert_flow(cfg_id, (dst, src), id.raw(), None, net.now());
    let entry = table
        .listeners
        .get_mut(&ep_key(dst))
        .expect("listener entry just looked up");
    entry.conns.insert(ep_key(src), h);
    drop(world);
    let conn = P::connection(Conn {
        net: net.clone(),
        h,
        id,
        local: dst,
        peer: src,
    });
    let events = handler.on_accept(&conn);
    let mut world = net.sim().lock();
    if let Some(flow) = P::table(&mut world.net).flows.get_mut(h) {
        P::hdr_mut(flow).events = Some(events);
    }
    step(net, world, h, |flow, cfg, rec, now, out| {
        P::start_passive(flow, cfg, rec, now, out, wire)
    });
}

/// Services one per-flow timer token: finds its slot and steps it under one
/// acquisition. Tokens of unknown slots no-op here, stale ones in the
/// protocol's handler.
pub(crate) fn service_timer<P: Protocol>(net: &Network, token: u64) {
    let _scope = memscope::enter(P::SCOPE);
    let (kind, aux) = (token >> TOKEN_KIND_SHIFT, token as u32);
    let mut world = net.sim().lock();
    let idx = ((token >> TOKEN_IDX_SHIFT) & TOKEN_IDX_MASK) as u32;
    if let Some(h) = P::table(&mut world.net).flows.handle_at(idx) {
        step(net, world, h, |flow, cfg, rec, now, out| {
            P::on_timer(flow, cfg, rec, now, out, kind, aux)
        });
    }
}

/// A simulated stream connection handle ([`crate::tcp::TcpConn`],
/// [`crate::udt::UdtConn`]).
///
/// Internally the network plus an 8-byte slab handle and cached immutable
/// endpoints; clones refer to the same flow. The last application handle of
/// a connect-created flow kills the flow in place when dropped.
pub struct Conn<P: Protocol> {
    net: Network,
    pub(crate) h: Handle<P::Flow>,
    id: ConnectionId,
    local: Endpoint,
    peer: Endpoint,
}

impl<P: Protocol> Clone for Conn<P> {
    fn clone(&self) -> Self {
        if let Some(flow) = P::table(&mut self.net.sim().lock().net)
            .flows
            .get_mut(self.h)
        {
            P::hdr_mut(flow).app_handles += 1;
        }
        Conn {
            net: self.net.clone(),
            ..*self
        }
    }
}

/// Drops one app handle; the last handle of a connect-created flow kills it
/// in place (the slot is never reused, so outstanding timer tokens resolve
/// to a dead flow and no-op) and gives its ephemeral port back. An orderly
/// close alone frees nothing: a closed flow may still have to answer its
/// peer.
impl<P: Protocol> Drop for Conn<P> {
    fn drop(&mut self) {
        // The handler Arc is dropped outside the lock: its destructor may
        // release other connection handles and re-enter the world.
        let _events = {
            let mut world = self.net.sim().lock();
            let inner = &mut world.net;
            let table = P::table(inner);
            let Some(flow) = table.flows.get_mut(self.h) else {
                return;
            };
            let hdr = P::hdr_mut(flow);
            hdr.app_handles = hdr.app_handles.saturating_sub(1);
            if hdr.app_handles > 0 || !hdr.app_owned {
                return;
            }
            P::kill(flow, self.net.sim().recorder(), self.net.now());
            let hdr = P::hdr_mut(flow);
            let (local, peer) = (hdr.local, hdr.peer);
            let events = hdr.events.take();
            table.conn_index.remove(&pair_key(local, peer));
            inner.unbind(local.node, P::WIRE, local.port);
            events
        };
    }
}

impl<P: Protocol> fmt::Debug for Conn<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = f.debug_struct(P::CONN_NAME);
        out.field("id", &self.id)
            .field("local", &self.local)
            .field("peer", &self.peer);
        P::debug_state(
            P::table(&mut self.net.sim().lock().net).flows.get(self.h),
            &mut out,
        );
        out.finish()
    }
}

impl<P: Protocol> Conn<P> {
    /// Opens a connection from an ephemeral port on `node` to `dst`.
    ///
    /// The opening packet (TCP SYN, UDT handshake) is sent immediately;
    /// [`StreamEvents::on_connected`] fires when the handshake completes.
    ///
    /// # Errors
    ///
    /// Returns [`BindError`] if no local port could be bound (exhausted
    /// ephemeral range).
    pub fn connect(
        net: &Network,
        node: NodeId,
        dst: Endpoint,
        cfg: P,
        events: Arc<dyn StreamEvents>,
    ) -> Result<Self, BindError> {
        let mut world = net.sim().lock();
        let Some(port) = world.net.alloc_ephemeral_port(node, P::WIRE) else {
            return Err(BindError {
                endpoint: Endpoint::new(node, 0),
                protocol: P::WIRE,
            });
        };
        let local = Endpoint::new(node, port);
        let id = ConnectionId::fresh(&mut world);
        world.net.bind(node, P::WIRE, port, Binding::Flows)?;
        let table = P::table(&mut world.net);
        let cfg_id = table.intern(cfg);
        let h = table.insert_flow(cfg_id, (local, dst), id.raw(), Some(events), net.now());
        let _scope = memscope::enter(P::SCOPE);
        step(net, world, h, P::start_active);
        Ok(Conn {
            net: net.clone(),
            h,
            id,
            local,
            peer: dst,
        })
    }

    /// The connection id.
    #[must_use]
    pub fn id(&self) -> ConnectionId {
        self.id
    }

    /// Local endpoint.
    #[must_use]
    pub fn local(&self) -> Endpoint {
        self.local
    }

    /// Remote endpoint.
    #[must_use]
    pub fn peer(&self) -> Endpoint {
        self.peer
    }

    /// Runs `f` as one [`step`] of this flow.
    pub(crate) fn process<F>(&self, f: F)
    where
        F: FnOnce(&mut P::Flow, &P, &Recorder, SimTime, &mut Out<P>),
    {
        let _scope = memscope::enter(P::SCOPE);
        step(&self.net, self.net.sim().lock(), self.h, f);
    }

    /// Reads the flow and its config under the world lock (the flow
    /// mutably, as [`Protocol::stream`] borrows it); `None` once the slot
    /// is gone.
    pub(crate) fn peek<R>(&self, f: impl FnOnce(&mut P::Flow, &P) -> R) -> Option<R> {
        let mut world = self.net.sim().lock();
        let table = P::table(&mut world.net);
        let flow = table.flows.get_mut(self.h)?;
        let cfg = &table.configs[P::hdr(flow).cfg_id as usize];
        Some(f(flow, cfg))
    }

    /// Whether the handshake completed and the connection is open.
    #[must_use]
    pub fn is_established(&self) -> bool {
        self.peek(|f, cfg| P::stream(f, cfg).1 == Phase::Established)
            .unwrap_or(false)
    }

    /// Appends bytes to the send buffer; returns how many were accepted.
    pub fn send(&self, data: Bytes) -> usize {
        let mut accepted = 0;
        self.process(|flow, cfg, rec, now, out| {
            let (stream, phase, send_buf) = P::stream(flow, cfg);
            if phase != Phase::Closed {
                accepted = stream.accept(&data, send_buf);
            }
            if accepted > 0 {
                P::kick(flow, cfg, rec, now, out);
            }
        });
        accepted
    }

    /// Free space in the send buffer.
    #[must_use]
    pub fn free_send_buffer(&self) -> usize {
        self.peek(|f, cfg| {
            let (stream, _, send_buf) = P::stream(f, cfg);
            stream.free(send_buf)
        })
        .unwrap_or(0)
    }

    /// Bytes accepted but not yet acknowledged by the peer (queued + in
    /// flight).
    #[must_use]
    pub fn unacked_bytes(&self) -> usize {
        self.peek(|f, cfg| P::stream(f, cfg).0.unacked())
            .unwrap_or(0)
    }

    /// Cumulative payload bytes acknowledged by the peer.
    #[must_use]
    pub fn acked_bytes(&self) -> u64 {
        self.peek(|f, cfg| P::stream(f, cfg).0.bytes_acked)
            .unwrap_or(0)
    }

    /// The RTT estimate: TCP's smoothed RTT once an ACK has echoed a
    /// timestamp, UDT's handshake RTT (initiator side only).
    #[must_use]
    pub fn rtt_estimate(&self) -> Option<Duration> {
        self.peek(|f, _| P::rtt(f))?.map(Duration::from_secs_f64)
    }

    /// Orderly close: a FIN follows the last buffered byte.
    pub fn close(&self) {
        self.process(|flow, cfg, rec, now, out| {
            let (stream, phase, _) = P::stream(flow, cfg);
            if stream.fin_queued || phase == Phase::Closed {
                return;
            }
            stream.fin_queued = true;
            P::kick(flow, cfg, rec, now, out);
        });
    }
}

/// A listening socket that accepts incoming connections
/// ([`crate::tcp::TcpListener`], [`crate::udt::UdtListener`]).
#[derive(Clone)]
pub struct Listener<P: Protocol> {
    net: Network,
    local: Endpoint,
    protocol: PhantomData<fn() -> P>,
}

impl<P: Protocol> fmt::Debug for Listener<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct(P::LISTENER_NAME)
            .field("local", &self.local)
            .finish()
    }
}

impl<P: Protocol> Listener<P> {
    /// Binds a listener on `node`/`port`; `handler.on_accept` is invoked for
    /// every new peer.
    ///
    /// # Errors
    ///
    /// Returns [`BindError`] if the port is taken.
    pub fn bind(
        net: &Network,
        node: NodeId,
        port: u16,
        cfg: P,
        handler: Arc<dyn StreamAccept>,
    ) -> Result<Self, BindError> {
        let local = Endpoint::new(node, port);
        let mut world = net.sim().lock();
        world.net.bind(node, P::WIRE, port, Binding::Flows)?;
        let table = P::table(&mut world.net);
        let cfg_id = table.intern(cfg);
        let entry = ListenerEntry {
            cfg_id,
            handler,
            conns: FxHashMap::default(),
        };
        table.listeners.insert(ep_key(local), entry);
        Ok(Listener {
            net: net.clone(),
            local,
            protocol: PhantomData,
        })
    }

    /// The listening endpoint.
    #[must_use]
    pub fn local(&self) -> Endpoint {
        self.local
    }

    /// Number of connections this listener has accepted (and not forgotten).
    #[must_use]
    pub fn connection_count(&self) -> usize {
        P::table(&mut self.net.sim().lock().net)
            .listeners
            .get(&ep_key(self.local))
            .map_or(0, |e| e.conns.len())
    }
}

/// One body per behaviour of the core, instantiated for every protocol at
/// the bottom: what is shared is tested once and run for both.
#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use super::*;
    use crate::engine::tests::WeakSim;
    use crate::engine::{EventTarget, Sim};
    use crate::link::LinkConfig;
    use crate::network::EPHEMERAL_SPAN;
    use crate::testutil::{pattern_bytes, CollectingTracer, PatternSender, Recorder, SinkEvents};
    use crate::trace::PacketEvent;

    /// Port the world's listener is bound to on `b`.
    const LISTEN: u16 = 80;
    /// A port on `b` nobody listens on.
    const BLACK_HOLE: u16 = 81;

    impl Stream {
        /// Every buffer released, as a kill leaves it.
        pub(crate) fn is_freed(&self) -> bool {
            self.send_q.capacity() == 0 && self.ooo.is_empty() && self.ooo_bytes == 0
        }
    }

    struct Accept(Arc<Recorder>);
    impl StreamAccept for Accept {
        fn on_accept(&self, _conn: &Connection) -> Arc<dyn StreamEvents> {
            self.0.clone()
        }
    }

    /// Hands every accepted flow a [`Probed`] handler over one recorder.
    struct ProbedAccept {
        rec: Arc<Recorder>,
        world: WeakSim,
        drops: Arc<Drops>,
    }
    impl StreamAccept for ProbedAccept {
        fn on_accept(&self, _conn: &Connection) -> Arc<dyn StreamEvents> {
            let probe = DropProbe {
                world: self.world.clone(),
                drops: self.drops.clone(),
            };
            Arc::new(Probed {
                rec: self.rec.clone(),
                _probe: probe,
            })
        }
    }

    /// A recorder's events, with a [`DropProbe`] riding along.
    struct Probed {
        rec: Arc<Recorder>,
        _probe: DropProbe,
    }
    impl StreamEvents for Probed {
        fn on_connected(&self, conn: &Connection) {
            self.rec.on_connected(conn);
        }
        fn on_data(&self, conn: &Connection, data: Bytes) {
            self.rec.on_data(conn, data);
        }
        fn on_writable(&self, conn: &Connection) {
            self.rec.on_writable(conn);
        }
        fn on_closed(&self, conn: &Connection, reason: CloseReason) {
            self.rec.on_closed(conn, reason);
        }
    }

    /// Two hosts on a clean link, a listener on `b`.
    struct World<P: Protocol> {
        sim: Sim,
        net: Network,
        a: NodeId,
        b: NodeId,
        tracer: Arc<CollectingTracer>,
        server: Arc<Recorder>,
        /// Drops of the handlers the listener handed out.
        server_drops: Arc<Drops>,
        listener: Listener<P>,
    }

    impl<P: Protocol + Default> World<P> {
        fn new() -> Self {
            Self::with_delay(Duration::from_millis(5))
        }

        fn with_delay(one_way: Duration) -> Self {
            Self::on(31, LinkConfig::new(10e6, one_way))
        }

        /// The world with its own seed and link.
        fn on(seed: u64, link: LinkConfig) -> Self {
            let sim = Sim::new(seed);
            let net = Network::new(&sim);
            let a = net.add_node("a");
            let b = net.add_node("b");
            net.connect_duplex(a, b, link);
            let tracer = Arc::new(CollectingTracer::default());
            net.set_tracer(tracer.clone());
            let server = Arc::new(Recorder::default());
            let server_drops = Arc::new(Drops::default());
            let accept = ProbedAccept {
                rec: server.clone(),
                world: sim.downgrade(),
                drops: server_drops.clone(),
            };
            let listener =
                Listener::bind(&net, b, LISTEN, P::default(), Arc::new(accept)).expect("bind");
            World {
                sim,
                net,
                a,
                b,
                tracer,
                server,
                server_drops,
                listener,
            }
        }

        fn dial(&self, port: u16, events: Arc<dyn StreamEvents>) -> Conn<P> {
            Conn::connect(
                &self.net,
                self.a,
                Endpoint::new(self.b, port),
                P::default(),
                events,
            )
            .expect("dial")
        }

        /// What a no-op must leave unchanged: packets sent, events (so
        /// timers) waiting.
        fn activity(&self) -> (u64, usize) {
            (self.net.stats().sent, self.sim.events_pending())
        }
    }

    /// How many probed handlers were dropped, and how many of those with
    /// the lock held.
    #[derive(Default)]
    struct Drops {
        total: AtomicUsize,
        locked: AtomicUsize,
    }
    impl Drops {
        fn counts(&self) -> (usize, usize) {
            (
                self.total.load(Ordering::SeqCst),
                self.locked.load(Ordering::SeqCst),
            )
        }
    }

    /// An event handler that notes, when it is dropped, whether the world
    /// lock was free at that moment.
    struct DropProbe {
        world: WeakSim,
        drops: Arc<Drops>,
    }
    impl StreamEvents for DropProbe {}
    impl Drop for DropProbe {
        fn drop(&mut self) {
            let locked = self
                .world
                .upgrade()
                .is_some_and(|sim| sim.try_lock().is_none());
            self.drops.total.fetch_add(1, Ordering::SeqCst);
            self.drops
                .locked
                .fetch_add(usize::from(locked), Ordering::SeqCst);
        }
    }

    /// Every call-out out of the world, by name, and whether it found the
    /// world locked.
    struct CallOuts {
        world: WeakSim,
        seen: parking_lot::Mutex<Vec<(&'static str, bool)>>,
    }
    impl CallOuts {
        /// Notes the call-out and, unless the world is locked (re-entering
        /// it would deadlock), re-enters it by scheduling an event. Whether
        /// it was free.
        fn note(&self, name: &'static str) -> bool {
            let sim = self
                .world
                .upgrade()
                .expect("the world outlives its call-outs");
            let locked = sim.try_lock().is_none();
            self.seen.lock().push((name, locked));
            if !locked {
                sim.schedule_in(Duration::ZERO, |_| {});
            }
            !locked
        }
    }
    struct Checked(Arc<CallOuts>);
    impl StreamAccept for Checked {
        fn on_accept(&self, _conn: &Connection) -> Arc<dyn StreamEvents> {
            self.0.note("on_accept");
            Arc::new(Checked(self.0.clone()))
        }
    }
    impl StreamEvents for Checked {
        fn on_connected(&self, _conn: &Connection) {
            self.0.note("on_connected");
        }
        fn on_data(&self, _conn: &Connection, _data: Bytes) {
            self.0.note("on_data");
        }
        fn on_writable(&self, _conn: &Connection) {
            self.0.note("on_writable");
        }
        fn on_closed(&self, _conn: &Connection, _reason: CloseReason) {
            self.0.note("on_closed");
        }
    }
    impl crate::network::PacketSink for Checked {
        fn on_packet(&self, net: &Network, pkt: Packet) {
            if self.0.note("on_packet") {
                // Answered to a port nobody is bound to, so it ends there.
                let dst = Endpoint::new(pkt.src.node, BLACK_HOLE);
                net.send_packet(Packet::new(pkt.dst, dst, WireProtocol::Udp, 1, pkt.body));
            }
        }
    }
    impl EventTarget for Checked {
        fn fire(self: Arc<Self>, _sim: &Sim, _token: u64) {
            self.0.note("fire");
        }
    }

    fn call_outs_run_with_the_world_unlocked<P: Protocol + Default>() {
        const CHECKED: u16 = 82;
        let w = World::<P>::new();
        let calls = Arc::new(CallOuts {
            world: w.sim.downgrade(),
            seen: parking_lot::Mutex::default(),
        });
        let checked = || Arc::new(Checked(calls.clone()));
        let _listener =
            Listener::<P>::bind(&w.net, w.b, CHECKED, P::default(), checked()).expect("bind");
        w.net
            .bind(w.b, WireProtocol::Udp, CHECKED, checked())
            .expect("bind");
        let conn = P::connection(w.dial(CHECKED, checked()));
        let (from, to) = (Endpoint::new(w.a, CHECKED), Endpoint::new(w.b, CHECKED));
        w.net.send_packet(Packet::new(
            from,
            to,
            WireProtocol::Udp,
            1,
            PacketBody::Udp(Bytes::new()),
        ));
        let in_closure = calls.clone();
        w.sim.schedule_in(Duration::from_millis(1), move |_| {
            in_closure.note("closure");
        });
        w.sim
            .schedule_target_in(Duration::from_millis(1), checked(), 0);
        w.sim.run_for(Duration::from_secs(1));
        // One byte more than the send buffer takes, so that it asks for more.
        let offered = conn.free_send_buffer() + 1;
        assert_eq!(conn.send(pattern_bytes(0, offered)), offered - 1);
        w.sim.run_for(Duration::from_secs(5));
        conn.close();
        w.sim.run_for(Duration::from_secs(30));

        let seen = calls.seen.lock().clone();
        let mut names: Vec<_> = seen.iter().map(|&(name, _)| name).collect();
        names.sort_unstable();
        names.dedup();
        let expected = [
            "closure",
            "fire",
            "on_accept",
            "on_closed",
            "on_connected",
            "on_data",
            "on_packet",
            "on_writable",
        ];
        assert_eq!(names, expected);
        let locked: Vec<_> = seen.iter().filter(|&&(_, locked)| locked).collect();
        assert!(
            locked.is_empty(),
            "called out with the world locked: {locked:?}"
        );
    }

    fn last_handle_drop_kills_flow_in_place<P: Protocol + Default>(is_dead: fn(&P::Flow) -> bool) {
        let w = World::<P>::new();
        let drops = Arc::new(Drops::default());
        let conn = w.dial(
            LISTEN,
            Arc::new(DropProbe {
                world: w.sim.downgrade(),
                drops: drops.clone(),
            }),
        );
        w.sim.run_for(Duration::from_secs(1));
        assert!(
            format!("{conn:?}").contains("state: Some(Established)"),
            "{conn:?}"
        );
        let (h, key) = (conn.h, pair_key(conn.local, conn.peer));

        let clone = conn.clone();
        drop(conn);
        {
            let mut world = w.sim.lock();
            let table = P::table(&mut world.net);
            let flow = table.flows.get(h).expect("slot");
            assert!(!is_dead(flow), "a clone keeps the flow alive");
            assert!(table.conn_index.contains_key(&key));
        }

        drop(clone);
        let mut world = w.sim.lock();
        let table = P::table(&mut world.net);
        let flow = table.flows.get(h).expect("the slot is kept, never reused");
        assert!(is_dead(flow), "closed, nothing armed, every buffer freed");
        assert_eq!(P::hdr(flow).app_handles, 0);
        assert!(P::hdr(flow).events.is_none());
        assert!(!table.conn_index.contains_key(&key));
        assert_eq!(
            drops.counts(),
            (1, 0),
            "the handler is released, and outside the world lock"
        );
    }

    fn accepted_flow_outlives_its_callback_wrapper<P: Protocol + Default>() {
        let w = World::<P>::new();
        let conn = w.dial(LISTEN, Arc::new(SinkEvents));
        w.sim.run_for(Duration::from_secs(1));
        assert_eq!(w.listener.connection_count(), 1);
        assert_eq!(w.server.connected(), 1);
        {
            // Every wrapper built for a server-side callback is gone by now.
            let mut world = w.sim.lock();
            let table = P::table(&mut world.net);
            let h = table.conn_index[&pair_key(conn.peer, conn.local)];
            let hdr = P::hdr(table.flows.get(h).expect("accepted flow"));
            assert!(!hdr.app_owned);
            assert_eq!(hdr.app_handles, 0);
            assert!(hdr.events.is_some(), "still owned by its listener entry");
        }
        P::connection(conn.clone()).send(pattern_bytes(0, 5_000));
        w.sim.run_for(Duration::from_secs(2));
        assert_eq!(w.server.data_len(), 5_000);
        assert!(w.server.in_order());
    }

    /// `stale` is a `(kind, aux)` the protocol armed and has since
    /// superseded on a flow with data in flight.
    fn dead_and_stale_timer_tokens_are_noops<P: Protocol + Default>(stale: (u64, u32)) {
        let w = World::<P>::new();
        let conn = w.dial(LISTEN, Arc::new(SinkEvents));
        w.sim.run_for(Duration::from_secs(1));
        P::connection(conn.clone()).send(pattern_bytes(0, 100));
        let h = conn.h;

        let before = w.activity();
        service_timer::<P>(&w.net, token(stale.0, h, stale.1));
        let unknown_slot = 9_999 << TOKEN_IDX_SHIFT;
        service_timer::<P>(&w.net, unknown_slot);
        assert_eq!(w.activity(), before, "superseded deadline, unknown slot");

        drop(conn);
        let before = w.activity();
        for kind in 0..TOKEN_KINDS {
            service_timer::<P>(&w.net, token(kind, h, 0));
            service_timer::<P>(&w.net, token(kind, h, u32::MAX));
        }
        assert_eq!(w.activity(), before, "every timer of a killed flow");
    }

    fn same_tick_timers_fire_in_arming_order<P: Protocol + Default>() {
        let w = World::<P>::new();
        // Two dials at the same instant: every timer of the second comes due
        // in the same nanosecond as one of the first's, and is an engine
        // event of its own all the same (a flow's first arm of a timer
        // always files one; only re-arms behind a pending event do not).
        let e0 = w.sim.events_pending();
        let first = w.dial(BLACK_HOLE, Arc::new(SinkEvents));
        let e1 = w.sim.events_pending();
        let second = w.dial(BLACK_HOLE, Arc::new(SinkEvents));
        let e2 = w.sim.events_pending();
        assert!(e1 - e0 > 1, "an opening packet and at least one timer");
        assert_eq!(e2 - e1, e1 - e0, "the same engine events for each dial");

        // Nothing answers, so what follows the opening packets are timer
        // firings: at every shared instant the first dial's retry goes first.
        w.sim.run_for(Duration::from_secs(2));
        let mut retries: Vec<(SimTime, Vec<u16>)> = Vec::new();
        for r in w.tracer.records() {
            if r.event != PacketEvent::Sent || r.time == SimTime::ZERO {
                continue;
            }
            match retries.last_mut() {
                Some((at, ports)) if *at == r.time => ports.push(r.src.port),
                _ => retries.push((r.time, vec![r.src.port])),
            }
        }
        assert!(!retries.is_empty(), "no retry within 2 s");
        for (at, ports) in retries {
            assert_eq!(ports, [first.local.port, second.local.port], "at {at:?}");
        }
    }

    fn stray_packet_for_unknown_pair_is_ignored<P: Protocol + Default>(stray: P::Wire) {
        let w = World::<P>::new();
        assert!(!P::opens(&stray));
        let before = w.activity();
        let (len, body) = P::into_body(stray);
        let pkt = Packet::new(
            Endpoint::new(w.a, 50_000),
            w.listener.local(),
            P::WIRE,
            len,
            body,
        );
        dispatch::<P>(&w.net, w.sim.lock(), pkt);
        assert_eq!(w.activity(), before);
        assert_eq!(w.listener.connection_count(), 0);
        assert!(P::table(&mut w.sim.lock().net).flows.is_empty());
    }

    fn killed_flows_give_their_ports_back_and_redials_work<P: Protocol + Default>() {
        let w = World::<P>::new();
        let first = w.dial(LISTEN, Arc::new(SinkEvents));
        w.sim.run_for(Duration::from_secs(1));
        P::connection(first.clone()).send(pattern_bytes(0, 1_000));
        w.sim.run_for(Duration::from_secs(1));
        let port = first.local.port;
        drop(first);
        // Twice round the ephemeral range, one dial at a time, so that the
        // next port handed out is the first dial's again.
        for i in 1..2 * EPHEMERAL_SPAN {
            let conn = Conn::<P>::connect(
                &w.net,
                w.a,
                Endpoint::new(w.b, BLACK_HOLE),
                P::default(),
                Arc::new(SinkEvents),
            );
            assert!(conn.is_ok(), "dial {i}: {conn:?}");
            if i % 1_000 == 0 {
                w.sim.run_for(Duration::from_millis(50));
            }
        }
        // The listener still holds the flow it accepted from that port; the
        // new dial must reach a fresh accept, and the old flow's owner hear
        // of the reset.
        assert_eq!((w.server.connected(), w.server.closed()), (1, 0));
        let client = Arc::new(Recorder::default());
        let again = w.dial(LISTEN, client.clone());
        assert_eq!(again.local.port, port);
        w.sim.run_for(Duration::from_secs(1));
        assert_eq!(client.connected(), 1, "{again:?}");
        assert_eq!(w.server.connected(), 2);
        assert_eq!(w.server.close_reasons(), [CloseReason::Reset]);
        assert_eq!(
            w.server_drops.counts(),
            (1, 0),
            "the superseded flow's handler is released, and outside the lock"
        );
        assert_eq!(
            w.listener.connection_count(),
            1,
            "the old flow is forgotten"
        );
        P::connection(again.clone()).send(pattern_bytes(1_000, 5_000));
        w.sim.run_for(Duration::from_secs(2));
        assert_eq!(w.server.data_len(), 6_000);
        assert!(w.server.in_order());
        assert_eq!(w.server.closed(), 1);
    }

    fn repeated_open_of_one_dial_keeps_its_accepted_flow<P: Protocol + Default>() {
        // The answer takes longer than any open retry interval, so repeats
        // of the open reach a flow that already accepted it.
        let w = World::<P>::with_delay(Duration::from_millis(600));
        let client = Arc::new(Recorder::default());
        let conn = w.dial(LISTEN, client.clone());
        w.sim.run_for(Duration::from_secs(5));
        assert!(w.net.stats().sent > 3, "no open was repeated");
        assert_eq!((client.connected(), w.server.connected()), (1, 1));
        assert_eq!((w.server.closed(), w.listener.connection_count()), (0, 1));
        P::connection(conn.clone()).send(pattern_bytes(0, 5_000));
        w.sim.run_for(Duration::from_secs(5));
        assert_eq!(w.server.data_len(), 5_000);
        assert!(w.server.in_order());
    }

    fn only_a_kill_unbinds_and_only_the_dialled_port<P: Protocol + Default>() {
        let w = World::<P>::new();
        let bound = |node, port| {
            let taken = w
                .sim
                .lock()
                .net
                .bind(node, P::WIRE, port, Binding::Flows)
                .is_err();
            if !taken {
                w.net.unbind(node, P::WIRE, port);
            }
            taken
        };
        let client = Arc::new(Recorder::default());
        let conn = w.dial(LISTEN, client.clone());
        w.sim.run_for(Duration::from_secs(1));
        let port = conn.local.port;
        P::connection(conn.clone()).close();
        w.sim.run_for(Duration::from_secs(5));
        assert_eq!(client.closed(), 1);
        assert!(bound(w.a, port), "an orderly close keeps the port");
        drop(conn);
        assert!(!bound(w.a, port), "the kill releases it");
        assert!(
            bound(w.b, LISTEN),
            "the accepted flow's port is its listener's"
        );
        let _again = w.dial(LISTEN, Arc::new(SinkEvents));
        w.sim.run_for(Duration::from_secs(1));
        assert_eq!(w.listener.connection_count(), 2);
    }

    /// `forged` acknowledges far more than any test here sends.
    fn acknowledgement_of_unsent_data_is_ignored<P: Protocol + Default>(
        forged: P::Wire,
        unacked: fn(&P::Flow) -> (u64, u64),
    ) {
        let w = World::<P>::new();
        let conn = w.dial(LISTEN, Arc::new(SinkEvents));
        w.sim.run_for(Duration::from_secs(1));
        P::connection(conn.clone()).send(pattern_bytes(0, 50_000));
        w.sim.run_for(Duration::from_millis(15));
        let window = |conn: &Conn<P>| conn.peek(|flow, _| unacked(flow)).expect("live flow");
        let (una, nxt) = window(&conn);
        assert!(
            una < nxt && w.server.data_len() < 50_000,
            "nothing in flight: {una}..{nxt}"
        );

        conn.process(|flow, cfg, rec, now, out| P::on_wire(flow, cfg, rec, now, out, forged));
        assert_eq!(window(&conn), (una, nxt));
        w.sim.run_for(Duration::from_secs(5));
        assert_eq!(w.server.data_len(), 50_000);
        assert!(w.server.in_order());
        let (una, nxt) = window(&conn);
        assert_eq!(una, nxt, "everything sent was acknowledged, nothing more");
    }

    /// `to_dialler` would answer an open and `to_acceptor` complete one,
    /// did they not acknowledge far more than an open sends.
    fn open_ignores_acknowledgement_of_unsent_data<P: Protocol + Default>(
        to_dialler: P::Wire,
        to_acceptor: P::Wire,
        unacked: fn(&P::Flow) -> (u64, u64),
    ) {
        let w = World::<P>::new();
        let client = Arc::new(Recorder::default());
        let conn = w.dial(LISTEN, client.clone());
        // The open has arrived, its answer is still on the 5 ms link.
        w.sim.run_for(Duration::from_millis(7));
        let accepted = P::table(&mut w.sim.lock().net).conn_index[&pair_key(conn.peer, conn.local)];
        let snapshot = || {
            let mut world = w.sim.lock();
            let table = P::table(&mut world.net);
            let window = |h| unacked(table.flows.get(h).expect("live flow"));
            (
                window(conn.h),
                window(accepted),
                client.connected(),
                w.server.connected(),
            )
        };
        let before = (snapshot(), w.activity());
        assert_eq!(before.0 .2, 0, "the dialler is still opening");

        conn.process(|flow, cfg, rec, now, out| P::on_wire(flow, cfg, rec, now, out, to_dialler));
        step::<P, _>(
            &w.net,
            w.sim.lock(),
            accepted,
            |flow, cfg, rec, now, out| {
                P::on_wire(flow, cfg, rec, now, out, to_acceptor);
            },
        );
        assert_eq!(
            (snapshot(), w.activity()),
            before,
            "nothing adopted, nothing sent, nobody told"
        );

        w.sim.run_for(Duration::from_secs(1));
        assert_eq!((client.connected(), w.server.connected()), (1, 1));
        P::connection(conn.clone()).send(pattern_bytes(0, 5_000));
        w.sim.run_for(Duration::from_secs(2));
        assert_eq!(w.server.data_len(), 5_000);
        assert!(w.server.in_order());
    }

    /// A protocol's own seed, links and sizes for the stream cases below.
    struct Cases<P> {
        seed: u64,
        /// One-way delay of the close and black-hole cases' link (the
        /// handshake and the small transfer run on 5 ms).
        short_delay: Duration,
        /// Bytes of the small transfer, and of the one that closes.
        small: usize,
        closing: usize,
        /// A link with 1 % random loss, and the bytes pumped over it.
        lossy: LinkConfig,
        lossy_total: usize,
        /// The dialler's config against a port nobody listens on.
        black_hole: P,
        /// A config with a 64 KiB send buffer.
        tight: P,
    }

    /// A 10 MB/s link of 5 ms each way.
    fn clean_link() -> LinkConfig {
        LinkConfig::new(10e6, Duration::from_millis(5))
    }

    fn handshake_completes<P: Protocol + Default>(c: Cases<P>) {
        let w = World::<P>::on(c.seed, clean_link());
        let client = Arc::new(Recorder::default());
        let conn = w.dial(LISTEN, client.clone());
        assert!(!conn.is_established());
        w.sim.run_for(Duration::from_secs(1));
        assert!(conn.is_established());
        assert_eq!((client.connected(), w.server.connected()), (1, 1));
        let rtt = conn.rtt_estimate().expect("handshake RTT").as_secs_f64();
        assert!((0.009..0.02).contains(&rtt), "rtt {rtt}");
    }

    fn small_transfer_delivers_in_order<P: Protocol + Default>(
        c: Cases<P>,
        retransmits: fn(&Conn<P>) -> u64,
    ) {
        let w = World::<P>::on(c.seed, clean_link());
        let conn = w.dial(LISTEN, Arc::new(SinkEvents));
        assert_eq!(conn.send(pattern_bytes(0, c.small)), c.small);
        w.sim.run_for(Duration::from_secs(5));
        assert_eq!(w.server.data_len(), c.small);
        assert!(w.server.in_order());
        assert_eq!(retransmits(&conn), 0);
    }

    fn recovers_from_random_loss<P: Protocol + Default>(
        c: Cases<P>,
        retransmits: fn(&Conn<P>) -> u64,
    ) {
        let w = World::<P>::on(c.seed, c.lossy);
        let conn = w.dial(LISTEN, PatternSender::new(&w.sim, c.lossy_total));
        w.sim.run_for(Duration::from_secs(60));
        assert_eq!(
            w.server.data_len(),
            c.lossy_total,
            "reliable despite 1% loss"
        );
        assert!(w.server.in_order(), "delivery must stay in order");
        assert!(retransmits(&conn) > 0, "loss must trigger retransmits");
    }

    fn close_notifies_both_sides<P: Protocol + Default>(c: Cases<P>) {
        let w = World::<P>::on(c.seed, LinkConfig::new(10e6, c.short_delay));
        let client = Arc::new(Recorder::default());
        let conn = w.dial(LISTEN, client.clone());
        assert_eq!(conn.send(pattern_bytes(0, c.closing)), c.closing);
        conn.close();
        w.sim.run_for(Duration::from_secs(10));
        assert_eq!(w.server.data_len(), c.closing);
        assert!(w.server.in_order());
        assert_eq!(w.server.close_reasons(), [CloseReason::Normal]);
        assert!(
            client.closed() >= 1,
            "the client should see its FIN answered"
        );
    }

    fn connect_to_black_hole_times_out<P: Protocol + Default>(c: Cases<P>) {
        let w = World::<P>::on(c.seed, LinkConfig::new(10e6, c.short_delay));
        let client = Arc::new(Recorder::default());
        let dst = Endpoint::new(w.b, BLACK_HOLE);
        let conn = Conn::connect(&w.net, w.a, dst, c.black_hole, client.clone()).expect("dial");
        w.sim.run_for(Duration::from_secs(120));
        assert!(!conn.is_established());
        assert_eq!(
            client.close_reasons(),
            [CloseReason::Timeout],
            "connect failure reported as close"
        );
    }

    fn send_buffer_backpressure_and_writable<P: Protocol + Default>(c: Cases<P>) {
        let w = World::<P>::on(c.seed, LinkConfig::new(1e6, Duration::from_millis(5)));
        let client = Arc::new(Recorder::default());
        let dst = Endpoint::new(w.b, LISTEN);
        let conn = Conn::connect(&w.net, w.a, dst, c.tight, client.clone()).expect("dial");
        w.sim.run_for(Duration::from_millis(100));
        let accepted = conn.send(Bytes::from(vec![7u8; 200 * 1024]));
        assert!(accepted < 200 * 1024, "send buffer must refuse the excess");
        assert!(accepted >= 63 * 1024);
        w.sim.run_for(Duration::from_secs(5));
        assert!(client.writable() > 0, "writable notification expected");
    }

    #[test]
    fn an_arriving_segment_is_recorded_before_the_step_it_causes() {
        use crate::tcp::TcpConfig;
        use kmsg_telemetry::{EventKind, SpanId, SpanKind};
        // The fabric's record of an arrival and the transport step it feeds
        // are written by two layers; analysers and byte-compared artifacts
        // rest on the order below. The arrival is the acknowledgement that
        // ends an RTO recovery, so its step both closes a `seg` span and
        // records a window change.
        let sim = Sim::new(5);
        sim.recorder().enable();
        let net = Network::new(&sim);
        net.set_tracer(crate::trace::RecorderTracer::new(sim.recorder().clone()));
        let a = net.add_node("a");
        let b = net.add_node("b");
        let (ab, _) = net.connect_duplex(a, b, LinkConfig::new(10e6, Duration::from_millis(5)));
        let accept = Arc::new(Accept(Arc::new(Recorder::default())));
        let _listener =
            Listener::bind(&net, b, LISTEN, TcpConfig::default(), accept).expect("bind");
        let dst = Endpoint::new(b, LISTEN);
        let conn =
            Conn::connect(&net, a, dst, TcpConfig::default(), Arc::new(SinkEvents)).expect("dial");
        sim.run_for(Duration::from_millis(100));
        assert!(conn.is_established());
        // The first transmission and the first retransmission (one RTO of
        // 200 ms later) die on the dark link; the second gets through.
        net.link(ab).set_up(false);
        assert_eq!(conn.send(pattern_bytes(0, 100)), 100);
        sim.run_for(Duration::from_millis(250));
        net.link(ab).set_up(true);
        sim.run_for(Duration::from_secs(2));
        assert_eq!(conn.stats().timeouts, 2);

        let label = |kind: &EventKind| match kind {
            EventKind::SpanClose { span, key } => {
                let span_kind = SpanId::from_raw(*span).kind().map_or("?", SpanKind::label);
                format!("close {span_kind} {key}")
            }
            EventKind::Packet { outcome, .. } => format!("packet {outcome}"),
            EventKind::TcpCwnd { cause, .. } => format!("cwnd {cause}"),
            other => format!("{other:?}"),
        };
        let events = sim.recorder().events();
        let arrived = events
            .iter()
            .rev()
            .find(
                |e| matches!(&e.kind, EventKind::Packet { outcome, .. } if outcome == "delivered"),
            )
            .expect("a delivery")
            .time_ns;
        let at_arrival: Vec<String> = events
            .iter()
            .filter(|e| e.time_ns == arrived)
            .map(|e| label(&e.kind))
            .collect();
        assert_eq!(
            at_arrival,
            [
                "close hop 0",
                "close flight 0",
                "packet delivered",
                "close seg 1",
                "cwnd recovery_exit"
            ]
        );
    }

    macro_rules! protocol_suite {
        (
            $name:ident, $proto:ty,
            is_dead: $is_dead:expr, stale: $stale:expr, stray: $stray:expr, forged_ack: $forged:expr,
            forged_open_answer: $forged_answer:expr, cases: $cases:expr
        ) => {
            mod $name {
                use super::*;

                fn retransmits(conn: &Conn<$proto>) -> u64 {
                    conn.stats().retransmits
                }

                #[test]
                fn handshake_completes() {
                    super::handshake_completes::<$proto>($cases);
                }
                #[test]
                fn small_transfer_delivers_in_order() {
                    super::small_transfer_delivers_in_order::<$proto>($cases, retransmits);
                }
                #[test]
                fn recovers_from_random_loss() {
                    super::recovers_from_random_loss::<$proto>($cases, retransmits);
                }
                #[test]
                fn close_notifies_both_sides() {
                    super::close_notifies_both_sides::<$proto>($cases);
                }
                #[test]
                fn connect_to_black_hole_times_out() {
                    super::connect_to_black_hole_times_out::<$proto>($cases);
                }
                #[test]
                fn send_buffer_backpressure_and_writable() {
                    super::send_buffer_backpressure_and_writable::<$proto>($cases);
                }
                #[test]
                fn call_outs_run_with_the_world_unlocked() {
                    super::call_outs_run_with_the_world_unlocked::<$proto>();
                }
                #[test]
                fn last_handle_drop_kills_flow_in_place() {
                    super::last_handle_drop_kills_flow_in_place::<$proto>($is_dead);
                }
                #[test]
                fn accepted_flow_outlives_its_callback_wrapper() {
                    super::accepted_flow_outlives_its_callback_wrapper::<$proto>();
                }
                #[test]
                fn dead_and_stale_timer_tokens_are_noops() {
                    super::dead_and_stale_timer_tokens_are_noops::<$proto>($stale);
                }
                #[test]
                fn same_tick_timers_fire_in_arming_order() {
                    super::same_tick_timers_fire_in_arming_order::<$proto>();
                }
                #[test]
                fn stray_packet_for_unknown_pair_is_ignored() {
                    super::stray_packet_for_unknown_pair_is_ignored::<$proto>($stray);
                }
                #[test]
                fn killed_flows_give_their_ports_back_and_redials_work() {
                    super::killed_flows_give_their_ports_back_and_redials_work::<$proto>();
                }
                #[test]
                fn repeated_open_of_one_dial_keeps_its_accepted_flow() {
                    super::repeated_open_of_one_dial_keeps_its_accepted_flow::<$proto>();
                }
                #[test]
                fn only_a_kill_unbinds_and_only_the_dialled_port() {
                    super::only_a_kill_unbinds_and_only_the_dialled_port::<$proto>();
                }
                #[test]
                fn acknowledgement_of_unsent_data_is_ignored() {
                    super::acknowledgement_of_unsent_data_is_ignored::<$proto>(
                        $forged,
                        <$proto as super::Protocol>::Flow::unacked,
                    );
                }
                #[test]
                fn open_ignores_acknowledgement_of_unsent_data() {
                    super::open_ignores_acknowledgement_of_unsent_data::<$proto>(
                        $forged_answer,
                        $forged,
                        <$proto as super::Protocol>::Flow::unacked,
                    );
                }
            }
        };
    }

    protocol_suite!(
        tcp,
        crate::tcp::TcpConfig,
        is_dead: crate::tcp::Flow::is_dead,
        stale: crate::tcp::STALE_TIMER,
        stray: crate::tcp::stray_segment(),
        forged_ack: crate::tcp::TcpSegment { ack: 1 << 40, ..crate::tcp::stray_segment() },
        forged_open_answer: crate::tcp::TcpSegment {
            ack: 1_000,
            flags: crate::tcp::SegFlags { syn: true, ack: true, fin: false },
            ..crate::tcp::stray_segment()
        },
        cases: Cases {
            seed: 11,
            short_delay: Duration::from_millis(2),
            small: 10_000,
            closing: 3,
            lossy: LinkConfig::new(10e6, Duration::from_millis(10)).random_loss(0.01),
            lossy_total: 2_000_000,
            black_hole: crate::tcp::TcpConfig { syn_retries: 2, ..Default::default() },
            tight: crate::tcp::TcpConfig { send_buf: 64 * 1024, ..Default::default() },
        }
    );
    protocol_suite!(
        udt,
        crate::udt::UdtConfig,
        is_dead: crate::udt::Flow::is_dead,
        stale: crate::udt::STALE_TIMER,
        stray: crate::udt::UdtPacket::FinAck,
        forged_ack: crate::udt::UdtPacket::Ack { ack_seq: 1 << 40, rcv_rate_pps: 0.0, capacity_pps: 0.0 },
        // UDT's handshake carries no acknowledgement number; a `Connecting`
        // flow takes no `Ack` at all.
        forged_open_answer: crate::udt::UdtPacket::Ack { ack_seq: 1_000, rcv_rate_pps: 0.0, capacity_pps: 0.0 },
        cases: Cases {
            seed: 21,
            short_delay: Duration::from_millis(5),
            small: 100_000,
            closing: 50_000,
            lossy: LinkConfig::new(20e6, Duration::from_millis(20)).random_loss(0.01),
            lossy_total: 3_000_000,
            black_hole: crate::udt::UdtConfig::default(),
            tight: crate::udt::UdtConfig { snd_buf: 64 * 1024, ..Default::default() },
        }
    );
}
