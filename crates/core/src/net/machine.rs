//! The channel table as a machine, free of the world it runs in.
//!
//! [`Machine`] owns each channel's phase, queue and decoder, the connection
//! index, the supervision timers and the jitter stream. It takes one method
//! per input (send, connected, accepted, data, writable, closed, timeout);
//! each one with effects on the world is given the time and an [`Io`]
//! context for them — a context, not a list of outputs, since draining
//! needs each `send`'s byte count mid-loop and a redial branches on its
//! dial's result. Every input arrives inside a component handler, so one
//! context serves them all. The shell (`net/mod.rs`) runs it over netsim's
//! connections; the tests below over a scripted fake [`Wire`].

use std::hash::Hash;
use std::time::Duration;

use kmsg_component::prelude::TimeoutId;
use kmsg_netsim::network::BindError;
use kmsg_netsim::packet::Endpoint;
use kmsg_netsim::rng::RngStream;
use kmsg_netsim::slab::FxHashMap;
use kmsg_netsim::time::SimTime;
use kmsg_telemetry::bytes::Bytes;
use kmsg_telemetry::{SpanId, SpanKind, Tracer};
use rand::Rng;

use super::channel::{Frame, SendQueue, SPAN_FAILED};
use super::frame::FrameDecoder;
use super::{ReconnectConfig, StatsHandle};
use crate::msg::{ConnStatus, DeliveryStatus, NetMessage, NotifyToken, SendError};
use crate::ser::SerError;
use crate::transport::Transport;

/// A connection under a channel: what the machine asks of a transport.
pub(super) trait Wire {
    type Id: Copy + Eq + Hash;
    fn id(&self) -> Self::Id;
    /// Offers bytes to the send buffer; returns how many it took.
    fn send(&self, bytes: Bytes) -> usize;
    /// Payload bytes the peer has acknowledged on this connection.
    fn acked_bytes(&self) -> u64;
    /// Orderly close, after what the connection has taken.
    fn close(&self);
}

/// The machine's effects on the world it runs in.
pub(super) trait Io<W> {
    /// Starts a connection for `key`; the handshake's outcome arrives as
    /// [`Machine::connected`] or [`Machine::closed`].
    fn dial(&mut self, key: ChannelKey) -> Result<W, BindError>;
    /// Reports a supervised channel's status transition.
    fn status(&mut self, key: ChannelKey, status: ConnStatus);
    /// Tells a requester how its send ended.
    fn notify(&mut self, token: NotifyToken, status: DeliveryStatus);
    /// Arms a one-shot timer whose expiry comes back as
    /// [`Machine::timeout`].
    fn schedule(&mut self, delay: Duration) -> TimeoutId;
}

/// Key of a transport channel: remote socket plus stream transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(super) struct ChannelKey {
    pub(super) remote: Endpoint,
    pub(super) transport: Transport,
}

/// Packs an endpoint into a span correlation key — the same
/// `node_index << 16 | port` encoding `ConnStatus` events use for `peer`,
/// and the `DATA` learner's decisions for their flow.
pub(crate) fn peer_key(ep: Endpoint) -> u64 {
    (u64::from(ep.node.index()) << 16) | u64::from(ep.port)
}

/// Span key of one supervised channel: transport byte above the peer key.
fn channel_span_key(key: ChannelKey) -> u64 {
    (u64::from(key.transport.to_byte()) << 48) | peer_key(key.remote)
}

/// The deterministic backoff before redial `attempt` (1-based):
/// `min(base · 2^(attempt-1), max) · u`, with `u` drawn uniformly from
/// `[0.75, 1.25)` out of the component's seeded jitter stream.
fn backoff(rc: &ReconnectConfig, attempt: u32, rng: &mut RngStream) -> Duration {
    let exp = attempt.saturating_sub(1).min(20);
    let raw = rc
        .base_backoff
        .saturating_mul(1u32 << exp)
        .min(rc.max_backoff);
    let jitter: f64 = 0.75 + 0.5 * rng.gen::<f64>();
    Duration::from_secs_f64(raw.as_secs_f64() * jitter)
}

/// Lifecycle of a supervised channel (DESIGN.md §9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Initial dial in progress.
    Connecting,
    /// Handshake complete; frames flow.
    Established,
    /// Unexpected close observed; `attempts` redials made so far
    /// (1-based once the first is due).
    Reconnecting { attempts: u32 },
    /// Retry budget exhausted; queued frames were failed. Probe redials
    /// restore the channel once the peer answers.
    Dropped,
}

/// One row of the channel table.
struct ChannelState<W> {
    conn: Option<W>,
    phase: Phase,
    /// Whether this side dialled the channel. Only originated channels are
    /// supervised — for accepted channels the peer's supervisor redials.
    originated: bool,
    queue: SendQueue,
    decoder: FrameDecoder,
    /// The open `outage` span (`NONE` while healthy): `ConnectionLost` to
    /// `ConnectionRestored` (key 0) or `ConnectionDropped` (key 1), at the
    /// status events' code points and timestamps, so its window is the
    /// observed recovery latency exactly.
    outage_span: SpanId,
    /// The open `backoff` span (retry timer armed → fired).
    backoff_span: SpanId,
    /// The open `redial` span (dial → Connected or the attempt's Closed).
    redial_span: SpanId,
}

impl<W> ChannelState<W> {
    fn new(conn: W, phase: Phase, originated: bool) -> Self {
        ChannelState {
            conn: Some(conn),
            phase,
            originated,
            queue: SendQueue::default(),
            decoder: FrameDecoder::new(),
            outage_span: SpanId::NONE,
            backoff_span: SpanId::NONE,
            redial_span: SpanId::NONE,
        }
    }
}

/// The channel table and the policy over it.
pub(super) struct Machine<W: Wire> {
    /// Supervision tuning of the channels this side dialled.
    reconnect: ReconnectConfig,
    channels: FxHashMap<ChannelKey, ChannelState<W>>,
    conn_index: FxHashMap<W::Id, ChannelKey>,
    /// Pending supervision redial timers, mapped back to their channel.
    retry_timers: FxHashMap<TimeoutId, ChannelKey>,
    /// Seeded stream for deterministic backoff jitter.
    jitter_rng: RngStream,
    /// The component's counters, shared with its `stats()` handle.
    pub(super) stats: StatsHandle,
    /// The world's span tracer; every call on it early-outs on one relaxed
    /// load while tracing is off.
    pub(super) tracer: Tracer,
}

impl<W: Wire> Machine<W> {
    pub(super) fn new(reconnect: ReconnectConfig, jitter_rng: RngStream, tracer: Tracer) -> Self {
        Machine {
            reconnect,
            channels: FxHashMap::default(),
            conn_index: FxHashMap::default(),
            retry_timers: FxHashMap::default(),
            jitter_rng,
            stats: StatsHandle::default(),
            tracer,
        }
    }

    /// The stream transport `DATA` traffic for `remote` fails over to:
    /// the other one, when `proto`'s channel has exhausted its reconnect
    /// budget and the other's has not. Recovery is automatic: once a probe
    /// restores the preferred channel its phase leaves `Dropped`.
    pub(super) fn failover(&self, remote: Endpoint, proto: Transport) -> Option<Transport> {
        let alt = match proto {
            Transport::Tcp => Transport::Udt,
            Transport::Udt => Transport::Tcp,
            Transport::Udp | Transport::Data => return None,
        };
        let dropped = |transport| {
            let c = self.channels.get(&ChannelKey { remote, transport });
            c.is_some_and(|c| c.phase == Phase::Dropped)
        };
        (dropped(proto) && !dropped(alt)).then_some(alt)
    }

    // --- inputs ---------------------------------------------------------

    /// Queues a frame on `key`'s channel, dialling one if there is none,
    /// and writes it if the channel is up. On `Err` nothing was queued.
    pub(super) fn send(
        &mut self,
        now: SimTime,
        io: &mut impl Io<W>,
        key: ChannelKey,
        frame: Bytes,
        token: Option<NotifyToken>,
        msg_span: SpanId,
    ) -> Result<(), SendError> {
        match self.channels.get(&key) {
            // The supervisor gave up on this channel; don't queue behind a
            // dead connection. (DATA traffic fails over before reaching
            // here; explicit sends fail fast until a probe restores it.)
            Some(channel) if channel.phase == Phase::Dropped => {
                return Err(SendError::RetryBudgetExhausted);
            }
            Some(_) => {}
            None => {
                let conn = self.dial(io, key).map_err(|_| SendError::Unreachable)?;
                self.open(key, ChannelState::new(conn, Phase::Connecting, true));
            }
        }
        let channel = self.channels.get_mut(&key).expect("channel just ensured");
        channel.queue.push(
            &self.tracer,
            now.as_nanos(),
            channel_span_key(key),
            frame,
            token,
            msg_span,
        );
        if channel.phase == Phase::Established {
            self.drain(now, io, key);
        }
        Ok(())
    }

    /// An outbound connection finished its handshake.
    pub(super) fn connected(&mut self, now: SimTime, io: &mut impl Io<W>, id: W::Id) {
        let Some(&key) = self.conn_index.get(&id) else {
            return;
        };
        let now_ns = now.as_nanos();
        if let Some(channel) = self.channels.get_mut(&key) {
            let attempts = match channel.phase {
                Phase::Reconnecting { attempts } => Some(attempts),
                // A post-budget probe got through (the outage span already
                // closed at the drop).
                Phase::Dropped => Some(0),
                Phase::Connecting | Phase::Established => None,
            };
            channel.phase = Phase::Established;
            // The redial that produced this handshake — and the outage it
            // belongs to — end here, at the same instant the `restored`
            // status is stamped.
            let redial = std::mem::take(&mut channel.redial_span);
            let outage = std::mem::take(&mut channel.outage_span);
            if let Some(attempts) = attempts {
                self.tracer.close(now_ns, redial);
                self.tracer.close(now_ns, outage);
                self.stats.lock().reconnects += 1;
                io.status(key, ConnStatus::ConnectionRestored { attempts });
            }
        }
        self.drain(now, io, key);
    }

    /// An inbound connection was accepted; `key` names its peer's socket
    /// until [`rekey`](Machine::rekey) learns the peer's listen address.
    pub(super) fn accepted(&mut self, key: ChannelKey, conn: W) {
        self.conn_index.insert(conn.id(), key);
        // The dialling side supervises; if this channel dies we fall back
        // to failing its queued replies.
        self.open(key, ChannelState::new(conn, Phase::Established, false));
    }

    /// Stream bytes arrived on `id`: decodes the frames they complete into
    /// `frames` and returns the channel's key. A bad length prefix cannot
    /// be resynchronised past, so it counts one decode failure and closes
    /// the connection; the flag says so, and the caller reports
    /// [`closed`](Machine::closed) once the frames before it are handled.
    pub(super) fn data(
        &mut self,
        id: W::Id,
        data: Bytes,
        frames: &mut Vec<Result<NetMessage, SerError>>,
    ) -> Option<(ChannelKey, bool)> {
        self.stats.lock().bytes_in += data.len() as u64;
        let &key = self.conn_index.get(&id)?;
        let channel = self.channels.get_mut(&key)?;
        channel.decoder.push(data);
        let poisoned = loop {
            match channel.decoder.next_message() {
                Ok(Some(frame)) => frames.push(frame),
                Ok(None) => break false,
                Err(_) => break true,
            }
        };
        if poisoned {
            self.stats.lock().decode_failures += 1;
            if let Some(conn) = &channel.conn {
                conn.close();
            }
        }
        Some((key, poisoned))
    }

    /// Re-keys an inbound channel from its peer's socket to the peer's
    /// listen address `src`, the source of a message it carried, so that
    /// replies reuse the existing connection.
    pub(super) fn rekey(&mut self, id: W::Id, old_key: ChannelKey, src: Endpoint) {
        if old_key.remote == src || src.node != old_key.remote.node {
            return;
        }
        let new_key = ChannelKey {
            remote: src,
            transport: old_key.transport,
        };
        if !self.channels.contains_key(&new_key) {
            if let Some(state) = self.channels.remove(&old_key) {
                self.channels.insert(new_key, state);
                self.conn_index.insert(id, new_key);
            }
        }
    }

    /// Send-buffer space became available on `id`.
    pub(super) fn writable(&mut self, now: SimTime, io: &mut impl Io<W>, id: W::Id) {
        if let Some(&key) = self.conn_index.get(&id) {
            self.drain(now, io, key);
        }
    }

    /// A connection ended under its channel — the transport said so, or
    /// the inbound path gave up on it.
    pub(super) fn closed(&mut self, now: SimTime, io: &mut impl Io<W>, id: W::Id) {
        if let Some(key) = self.conn_index.remove(&id) {
            if self.channels.contains_key(&key) {
                self.stats.lock().channels_closed += 1;
                self.channel_down(now, io, key);
            }
        }
    }

    /// A timer fired: a supervision timer redials its channel. Returns
    /// `false` for a timer the machine did not arm.
    pub(super) fn timeout(&mut self, now: SimTime, io: &mut impl Io<W>, id: TimeoutId) -> bool {
        let Some(key) = self.retry_timers.remove(&id) else {
            return false;
        };
        self.redial(now, io, key);
        true
    }

    /// Dials `key` through `io` and indexes the connection.
    fn dial(&mut self, io: &mut impl Io<W>, key: ChannelKey) -> Result<W, BindError> {
        let conn = io.dial(key)?;
        self.conn_index.insert(conn.id(), key);
        Ok(conn)
    }

    /// Adds a channel to the table and counts it open.
    fn open(&mut self, key: ChannelKey, state: ChannelState<W>) {
        self.channels.insert(key, state);
        self.stats.lock().channels_opened += 1;
    }

    /// Writes what the transport will take, then completes the frames
    /// whose bytes it has acknowledged.
    fn drain(&mut self, now: SimTime, io: &mut impl Io<W>, key: ChannelKey) {
        let now_ns = now.as_nanos();
        let Some(channel) = self.channels.get_mut(&key) else {
            return;
        };
        let Some(conn) = channel.conn.as_ref() else {
            return;
        };
        let (bytes_out, msgs_out) = channel.queue.drain(&self.tracer, now_ns, |b| conn.send(b));
        let mut stats = self.stats.lock();
        stats.bytes_out += bytes_out;
        stats.sent[key.transport.to_byte() as usize] += msgs_out;
        drop(stats);
        let acked = conn.acked_bytes();
        while let Some(frame) = channel.queue.pop_acked(acked) {
            // The transport acked the frame's last byte: transmission and
            // the whole message lifecycle complete here.
            if let Some(token) = frame.finish(&self.tracer, now_ns, 0) {
                io.notify(token, DeliveryStatus::Sent);
            }
        }
    }

    /// Removes `key`'s channel and fails every frame it held — the
    /// at-most-once end of a channel.
    fn remove_and_fail(&mut self, now_ns: u64, io: &mut impl Io<W>, key: ChannelKey) {
        if let Some(mut channel) = self.channels.remove(&key) {
            self.fail_frames(
                now_ns,
                io,
                channel.queue.take_all(),
                SendError::ChannelClosed,
            );
        }
    }

    /// Gives up on the frames of a dead queue, in the order given: the one
    /// place a frame's spans close as failed. Only a frame with a notify
    /// token counts as a failed send.
    fn fail_frames(
        &self,
        now_ns: u64,
        io: &mut impl Io<W>,
        frames: impl Iterator<Item = Frame>,
        error: SendError,
    ) {
        for frame in frames {
            if let Some(token) = frame.finish(&self.tracer, now_ns, SPAN_FAILED) {
                self.stats.lock().count_failure(error);
                io.notify(token, DeliveryStatus::Failed(error));
            }
        }
    }

    // --- supervision ----------------------------------------------------

    /// Reacts to an unexpected connection loss on a known channel: a
    /// channel this side dialled is supervised (rewind + backoff redial,
    /// then probes once the budget is spent); an accepted one, which its
    /// peer's supervisor redials, fails everything (at-most-once).
    fn channel_down(&mut self, now: SimTime, io: &mut impl Io<W>, key: ChannelKey) {
        let now_ns = now.as_nanos();
        let (tr, rc) = (&self.tracer, &self.reconnect);
        let channel = match self.channels.get_mut(&key) {
            Some(channel) if channel.originated => channel,
            _ => return self.remove_and_fail(now_ns, io, key),
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
            // A probe redial failed; keep probing.
            Phase::Dropped => self.schedule_probe(io, key),
            Phase::Reconnecting { attempts } if attempts >= rc.max_retries => {
                // Budget exhausted: fail queued frames, report, keep the
                // entry so failover sees the dropped state and probes can
                // restore it.
                channel.phase = Phase::Dropped;
                let ended_outage = std::mem::take(&mut channel.outage_span);
                let failed = channel.queue.take_all();
                tr.close_with(now_ns, ended_outage, SPAN_FAILED);
                self.fail_frames(now_ns, io, failed, SendError::RetryBudgetExhausted);
                self.stats.lock().channels_dropped += 1;
                io.status(key, ConnStatus::ConnectionDropped);
                self.schedule_probe(io, key);
            }
            phase => {
                let attempts = match phase {
                    Phase::Reconnecting { attempts } => attempts + 1,
                    _ => 1,
                };
                channel.phase = Phase::Reconnecting { attempts };
                if matches!(phase, Phase::Connecting | Phase::Established) {
                    io.status(key, ConnStatus::ConnectionLost);
                }
                let delay = backoff(rc, attempts, &mut self.jitter_rng);
                self.retry_timers.insert(io.schedule(delay), key);
                // `backoff` covers timer armed → fired (closed in
                // `redial`); one per attempt, keyed by the attempt number.
                channel.backoff_span = tr.open(
                    now_ns,
                    SpanKind::Backoff,
                    outage,
                    outage,
                    u64::from(attempts),
                );
            }
        }
    }

    /// After the budget is spent, a slow probe keeps testing the peer.
    fn schedule_probe(&mut self, io: &mut impl Io<W>, key: ChannelKey) {
        let probe = io.schedule(self.reconnect.probe_interval);
        self.retry_timers.insert(probe, key);
    }

    /// Dials the channel again (retry-timer and probe-timer handler).
    fn redial(&mut self, now: SimTime, io: &mut impl Io<W>, key: ChannelKey) {
        let now_ns = now.as_nanos();
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
        match self.dial(io, key) {
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
                channel.conn = Some(conn);
                // The new stream starts at a frame boundary: whatever part
                // of a frame the old one left behind ended with it.
                channel.decoder = FrameDecoder::new();
                channel.redial_span = redial;
            }
            // Local dial failure (port space exhausted): treat it like a
            // failed attempt so the backoff/budget machinery applies.
            Err(_) => self.channel_down(now, io, key),
        }
    }
}

#[cfg(test)]
mod tests {
    //! Supervision as scripts: each case drives the machine input by input
    //! over fake connections and reads its effects off the fake `Io`.

    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    use kmsg_netsim::packet::NodeId;
    use kmsg_netsim::rng::SeedSource;
    use kmsg_telemetry::Recorder;

    use super::*;

    /// A scripted connection: takes at most `room` bytes in all, keeps what
    /// it took and reports `acked` as the peer's acknowledgement.
    #[derive(Clone)]
    struct Fake(Rc<FakeConn>);

    struct FakeConn {
        id: u64,
        room: Cell<usize>,
        wire: RefCell<Vec<u8>>,
        acked: Cell<u64>,
    }

    impl Wire for Fake {
        type Id = u64;

        fn id(&self) -> u64 {
            self.0.id
        }

        fn send(&self, bytes: Bytes) -> usize {
            let n = bytes.len().min(self.0.room.get());
            self.0.room.set(self.0.room.get() - n);
            self.0.wire.borrow_mut().extend_from_slice(&bytes[..n]);
            n
        }

        fn acked_bytes(&self) -> u64 {
            self.0.acked.get()
        }

        fn close(&self) {}
    }

    impl Fake {
        fn wire(&self) -> Vec<u8> {
            self.0.wire.borrow().clone()
        }
    }

    /// The world as the machine sees it: every dial succeeds with a fresh
    /// fake of `room` bytes, and every effect is kept in order.
    struct Script {
        room: usize,
        dials: Vec<Fake>,
        timers: Vec<(TimeoutId, Duration)>,
        statuses: Vec<ConnStatus>,
        notifies: Vec<(u64, DeliveryStatus)>,
    }

    impl Script {
        /// A fresh connection `id` with `room` bytes of send buffer.
        fn fake(&self, id: u64) -> Fake {
            let (room, wire, acked) = (Cell::new(self.room), RefCell::default(), Cell::new(0));
            Fake(Rc::new(FakeConn {
                id,
                room,
                wire,
                acked,
            }))
        }
    }

    impl Io<Fake> for Script {
        fn dial(&mut self, _key: ChannelKey) -> Result<Fake, BindError> {
            let conn = self.fake(self.dials.len() as u64 + 1);
            self.dials.push(conn.clone());
            Ok(conn)
        }

        fn status(&mut self, _key: ChannelKey, status: ConnStatus) {
            self.statuses.push(status);
        }

        fn notify(&mut self, token: NotifyToken, status: DeliveryStatus) {
            self.notifies.push((token.id, status));
        }

        fn schedule(&mut self, delay: Duration) -> TimeoutId {
            let id = TimeoutId(self.timers.len() as u64 + 1);
            self.timers.push((id, delay));
            id
        }
    }

    /// The channel every script drives.
    const KEY: ChannelKey = ChannelKey {
        remote: Endpoint {
            node: NodeId::from_index(1),
            port: 7000,
        },
        transport: Transport::Tcp,
    };

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn at(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    /// A machine (jitter seed 7) and its script; each input that names a
    /// connection or a timer names the latest one.
    struct Rig {
        m: Machine<Fake>,
        io: Script,
        stats: StatsHandle,
    }

    impl Rig {
        /// Supervision with a 100 ms → 400 ms backoff and 5 s probes;
        /// dials get `room` bytes of send buffer.
        fn new(max_retries: u32, room: usize) -> Rig {
            let rc = ReconnectConfig {
                max_retries,
                base_backoff: ms(100),
                max_backoff: ms(400),
                probe_interval: Duration::from_secs(5),
            };
            let rng = SeedSource::new(7).stream("net-supervisor");
            let m = Machine::new(rc, rng, Recorder::new().tracer());
            let stats = m.stats.clone();
            let (dials, timers, statuses, notifies) = Default::default();
            let io = Script {
                room,
                dials,
                timers,
                statuses,
                notifies,
            };
            Rig { m, io, stats }
        }

        fn conn(&self) -> Fake {
            self.io.dials.last().expect("dialled").clone()
        }

        /// Queues frame `token`: ten bytes of `token`.
        fn send(&mut self, now: u64, token: u8) -> Result<(), SendError> {
            let frame = Bytes::from(vec![token; 10]);
            let notify = Some(NotifyToken::new(u64::from(token)));
            self.m
                .send(at(now), &mut self.io, KEY, frame, notify, SpanId::NONE)
        }

        fn connected(&mut self, now: u64) {
            let id = self.conn().id();
            self.m.connected(at(now), &mut self.io, id);
        }

        fn closed(&mut self, now: u64) {
            let id = self.conn().id();
            self.m.closed(at(now), &mut self.io, id);
        }

        /// The peer acknowledges all it got, and says it has room.
        fn acked(&mut self, now: u64) {
            let conn = self.conn();
            conn.0.acked.set(conn.wire().len() as u64);
            self.m.writable(at(now), &mut self.io, conn.id());
        }

        /// Fires the latest timer.
        fn fire(&mut self, now: u64) {
            let timer = self.io.timers.last().expect("armed").0;
            assert!(
                self.m.timeout(at(now), &mut self.io, timer),
                "the machine's timer"
            );
        }
    }

    /// The backoff delays of `attempts` failed redials, read off the
    /// script's timers.
    fn backoff_schedule(attempts: u64) -> Vec<Duration> {
        let mut r = Rig::new(100, usize::MAX);
        r.send(0, 1).unwrap();
        r.connected(1);
        for i in 0..attempts {
            r.closed(2 + i);
            r.fire(2 + i);
        }
        assert_eq!(
            r.io.statuses,
            [ConnStatus::ConnectionLost],
            "one loss, however long"
        );
        r.io.timers.iter().map(|&(_, delay)| delay).collect()
    }

    #[test]
    fn backoff_doubles_to_the_cap_within_the_jitter_band_and_replays() {
        let delays = backoff_schedule(10);
        assert_eq!(delays.len(), 10);
        for (i, delay) in delays.iter().enumerate() {
            let raw = ms(100 << i.min(2)).as_secs_f64();
            let band = raw * 0.75..raw * 1.25;
            assert!(
                band.contains(&delay.as_secs_f64()),
                "attempt {}: {delay:?}",
                i + 1
            );
        }
        assert_eq!(
            delays,
            backoff_schedule(10),
            "the jittered schedule replays exactly"
        );
    }

    #[test]
    fn flaps_while_reconnecting_alternate_lost_and_restored() {
        let mut r = Rig::new(60, usize::MAX);
        r.send(0, 1).unwrap();
        r.connected(1);
        for flap in 0..3 {
            let t = 1_000 * (flap + 1);
            r.closed(t);
            r.send(t, 2 * flap as u8 + 2).unwrap();
            r.send(t, 2 * flap as u8 + 3).unwrap();
            // A redial in flight fails: no second loss.
            r.fire(t + 100);
            r.closed(t + 101);
            r.fire(t + 300);
            r.connected(t + 301);
            r.acked(t + 302);
        }
        let flap = [
            ConnStatus::ConnectionLost,
            ConnStatus::ConnectionRestored { attempts: 2 },
        ];
        assert_eq!(r.io.statuses, flap.repeat(3));
        let sent: Vec<_> = (1..=7).map(|t| (t, DeliveryStatus::Sent)).collect();
        assert_eq!(r.io.notifies, sent, "every frame survives the flaps, once");
        let s = r.stats.lock();
        assert_eq!(
            (s.reconnects, s.reconnect_attempts, s.channels_dropped),
            (3, 6, 0)
        );
    }

    #[test]
    fn an_accepted_channel_fails_its_frames_once_when_its_connection_dies() {
        let mut r = Rig::new(8, 25);
        let peer = r.io.fake(100);
        r.m.accepted(KEY, peer.clone());
        for token in 1..=4 {
            r.send(0, token).unwrap();
        }
        assert_eq!(
            peer.wire().len(),
            25,
            "1 and 2 written, 3 part-written, 4 waiting"
        );
        r.m.closed(at(1), &mut r.io, peer.id());
        let closed = DeliveryStatus::Failed(SendError::ChannelClosed);
        assert_eq!(
            r.io.notifies,
            [3, 4, 1, 2].map(|token| (token, closed)),
            "each frame fails once: the waiting ones first, then the unacknowledged"
        );
        assert!(
            r.io.dials.is_empty() && r.io.timers.is_empty() && r.io.statuses.is_empty(),
            "the peer's supervisor redials an accepted channel, not this side"
        );
        r.send(2, 5).unwrap();
        assert_eq!(r.io.dials.len(), 1, "the next send dials afresh");
    }

    #[test]
    fn exhausted_budget_drops_then_a_probe_restores_with_zero_attempts() {
        let mut r = Rig::new(2, usize::MAX);
        r.send(0, 1).unwrap();
        r.connected(1);
        r.closed(2);
        for t in [300, 600] {
            r.fire(t);
            r.closed(t + 1);
        }
        assert_eq!(
            r.io.statuses,
            [ConnStatus::ConnectionLost, ConnStatus::ConnectionDropped]
        );
        let failed = DeliveryStatus::Failed(SendError::RetryBudgetExhausted);
        assert_eq!(
            r.io.notifies,
            [(1, failed)],
            "the queued frame fails with the budget"
        );
        assert_eq!(
            r.io.timers.last().unwrap().1,
            Duration::from_secs(5),
            "a probe is armed"
        );
        assert_eq!(r.send(700, 2), Err(SendError::RetryBudgetExhausted));
        assert_eq!(
            r.m.failover(KEY.remote, Transport::Tcp),
            Some(Transport::Udt)
        );

        r.fire(5_601);
        r.connected(5_602);
        assert_eq!(
            r.io.statuses[2..],
            [ConnStatus::ConnectionRestored { attempts: 0 }]
        );
        assert_eq!(
            r.m.failover(KEY.remote, Transport::Tcp),
            None,
            "DATA returns to TCP"
        );
        let s = r.stats.lock();
        assert_eq!((s.channels_dropped, s.reconnects), (1, 1));
    }
}
