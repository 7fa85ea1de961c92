//! Packet-level simulated TCP with pluggable congestion control (Reno with
//! NewReno partial-ACK recovery by default; CUBIC and BBR via
//! [`crate::cc`]).
//!
//! Implements the mechanisms responsible for TCP's behaviour in the paper's
//! experiments: slow start and AIMD congestion avoidance, fast
//! retransmit/fast recovery on triple duplicate ACKs, retransmission
//! timeouts with exponential backoff (RFC 6298-style RTT estimation via
//! timestamp echo), receiver flow control (advertised window bounded by the
//! receive buffer), and delayed ACKs. Window/rate evolution is delegated to
//! the flow's `CongestionController` ([`TcpConfig::cc`] selects it);
//! rate-based controllers pace data segments on a per-flow virtual-time
//! pacer timer.
//!
//! On clean low-RTT paths TCP fills the link; on high bandwidth-delay
//! product paths with random loss its average window follows the well-known
//! `MSS/(RTT·√p)` law, producing the sharp throughput drop-off of the
//! paper's Figure 9.
//!
//! # Flow storage
//!
//! Slab, demux, listeners, timer arming, handle lifetime and the stream
//! buffer are the shared `crate::flowstack` core; this file is what is
//! actually TCP: config, segment format, sequence space, the `Flow` state
//! machine — steps of one flow, which never see a lock — and its three
//! timers.

use std::fmt;
use std::time::Duration;

use kmsg_telemetry::bytes::Bytes;
use kmsg_telemetry::{EventKind, Recorder, SpanKind};

use crate::cc::{self, CcConfig, CcCtx, CongestionController};
use crate::flowstack::{
    self, Chunk, Conn, FlowHeader, FlowTable, Listener, LossMark, NodePool, Phase, Protocol,
    SendQueue, Stream,
};
use crate::iface::{CloseReason, Connection};
use crate::memscope;
use crate::network::NetInner;
use crate::packet::{PacketBody, SeqRanges, WireProtocol};
use crate::time::SimTime;

/// TCP tuning parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TcpConfig {
    /// Maximum segment payload in bytes.
    pub mss: usize,
    /// Send buffer capacity (unsent + unacknowledged bytes).
    pub send_buf: usize,
    /// Receive buffer capacity; bounds the advertised window.
    pub recv_buf: usize,
    /// Lower bound on the retransmission timeout.
    pub min_rto: Duration,
    /// Upper bound on the retransmission timeout.
    pub max_rto: Duration,
    /// SYN retransmission attempts before the connect fails.
    pub syn_retries: u32,
    /// Consecutive retransmission timeouts on an established connection
    /// before the stack gives up and closes with `CloseReason::Timeout`
    /// (Linux `tcp_retries2` analog). Lower values make channel death — and
    /// thus middleware supervision — observable within short outages.
    pub max_consecutive_timeouts: u32,
    /// Congestion-controller selection and tuning (Reno, CUBIC, or BBR);
    /// part of config interning, so flows sharing a controller variant
    /// share one table entry.
    pub cc: CcConfig,
    /// Test-only fault: skip the multiplicative decrease (and its
    /// `fast_recovery` telemetry event) when receiver-reported holes signal
    /// a fresh loss episode, while still fast-retransmitting the holes.
    /// This breaks Reno legality — fast retransmits appear without any
    /// recorded loss signal — and exists solely so `kmsg-oracle` tests can
    /// prove the TCP oracle catches it. Never enable outside tests.
    #[doc(hidden)]
    pub buggy_no_fast_recovery: bool,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1448,
            send_buf: 4 * 1024 * 1024,
            recv_buf: 4 * 1024 * 1024,
            min_rto: Duration::from_millis(200),
            max_rto: Duration::from_secs(60),
            syn_retries: 6,
            max_consecutive_timeouts: 15,
            cc: CcConfig::default(),
            buggy_no_fast_recovery: false,
        }
    }
}

/// TCP segment control flags.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SegFlags {
    /// Synchronize: part of the connection handshake.
    pub(crate) syn: bool,
    /// The `ack` field is valid.
    pub(crate) ack: bool,
    /// Sender has no more data.
    pub(crate) fin: bool,
}

/// A TCP segment on the wire.
#[derive(Debug, Clone)]
pub struct TcpSegment {
    /// First sequence number covered by this segment.
    pub(crate) seq: u64,
    /// Cumulative acknowledgement (next expected byte).
    pub(crate) ack: u64,
    /// Control flags.
    pub(crate) flags: SegFlags,
    /// Advertised receive window in bytes.
    pub(crate) wnd: u64,
    /// Sender timestamp (for RTT estimation via echo).
    pub(crate) ts: SimTime,
    /// Echoed peer timestamp.
    pub(crate) ts_echo: Option<SimTime>,
    /// SACK-style hole report: `[from, to)` byte ranges the receiver is
    /// missing below its highest out-of-order data (capped at 16 ranges).
    pub(crate) holes: SeqRanges,
    /// Payload bytes.
    pub(crate) payload: Bytes,
}

/// Per-connection counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpConnStats {
    /// Payload bytes accepted from the application.
    pub(crate) bytes_sent: u64,
    /// Payload bytes acknowledged by the peer.
    pub(crate) bytes_acked: u64,
    /// Payload bytes delivered to the application.
    pub bytes_delivered: u64,
    /// Segments retransmitted (fast retransmit or timeout).
    pub retransmits: u64,
    /// Retransmission timeouts fired.
    pub timeouts: u64,
    /// Fast-recovery episodes entered.
    pub fast_recoveries: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    SynSent,
    SynRcvd,
    Established,
    Closed,
}

/// A data segment or the FIN in flight: where it lies in the sequence
/// space. A data segment's bytes are the stream's, at offset `seq - 1`.
#[derive(Debug, Default)]
pub(crate) struct SentSeg {
    /// First sequence number the segment covers.
    seq: u64,
    /// Payload length (0 for the FIN).
    len: u32,
    fin: bool,
    /// Resent at least once, last at `last_rexmit`.
    retransmitted: bool,
    /// Marked lost: a receiver-reported hole or the RTO's go-back-N, not
    /// yet retransmitted.
    lost: bool,
    last_rexmit: SimTime,
    /// Raw `seg` causal-span id covering first transmission to cumulative
    /// ack (0 for control segments or while tracing is off).
    span: u64,
}

impl LossMark for SentSeg {
    fn lost(&mut self) -> &mut bool {
        &mut self.lost
    }
}

/// `seg` span closed clean: acknowledged without any retransmission.
const SEG_ACKED: u64 = 0;
/// `seg` span closed after at least one retransmission.
const SEG_REXMIT: u64 = 1;
/// `seg` span closed because the flow died with the segment unacked.
const SEG_ABORTED: u64 = 2;

/// `seg`-span correlation key: connection id over the low 32 bits of the
/// sequence number, so `TcpRetransmit { conn, seq }` events join back to
/// the covering span.
fn seg_span_key(conn: u64, seq: u64) -> u64 {
    (conn << 32) | (seq & 0xffff_ffff)
}

/// Opens a `seg` span at a data segment's first transmission; returns the
/// raw id (0 while the recorder is disabled — one relaxed load).
fn open_seg_span(rec: &Recorder, now: SimTime, conn: u64, seq: u64) -> u64 {
    if !rec.is_enabled() {
        return 0;
    }
    rec.tracer()
        .open_root(now.as_nanos(), SpanKind::Seg, seg_span_key(conn, seq))
        .raw()
}

/// Closes a `seg` span; no-op for 0 (never opened).
fn close_seg_span(rec: &Recorder, now: SimTime, span: u64, key: u64) {
    if span != 0 {
        rec.record(now.as_nanos(), EventKind::SpanClose { span, key });
    }
}

/// Closes every outstanding `seg` span on a dying flow (timeout death,
/// peer-initiated close with data in flight, app dropping the handle).
fn close_all_seg_spans(flow: &Flow, pool: &mut NodePool<SentSeg>, rec: &Recorder, now: SimTime) {
    flow.sent.for_each_mut(pool, |seg| {
        let span = std::mem::take(&mut seg.span);
        close_seg_span(rec, now, span, SEG_ABORTED);
    });
}

/// Per-flow timer kinds (see the token layout in [`crate::flowstack`]).
const KIND_RTO: u64 = 0;
const KIND_DELACK: u64 = 1;
const KIND_PACER: u64 = 2;

/// Full per-flow TCP state: one slab slot, no interior `Arc`s.
pub(crate) struct Flow {
    hdr: FlowHeader,
    stream: Stream,
    state: State,

    // --- send side ---
    snd_una: u64,
    snd_nxt: u64,
    /// The retransmission queue: every data segment and FIN in
    /// `[snd_una, snd_nxt)`, ordered by `seq` by construction — a segment
    /// is only ever appended, at `snd_nxt`, and only ever released from the
    /// front — with its loss marks. The opening SYN is no entry: the
    /// handshake states resend it from flow state.
    sent: SendQueue,
    cwnd: f64,
    ssthresh: f64,
    peer_wnd: u64,
    in_recovery: bool,
    recover: u64,
    srtt: Option<f64>,
    rttvar: f64,
    rto: Duration,
    /// An RTO timer is outstanding. Re-arming moves `rto_timer`'s deadline;
    /// a firing before the deadline is stale and ignored (the timer keeps
    /// an event pending at or before the deadline, so the live deadline is
    /// always covered).
    rto_armed: bool,
    rto_timer: flowstack::FlowTimer,
    /// The flow's congestion controller (built from `cfg.cc`); owns all
    /// algorithm-private state, while `cwnd`/`ssthresh` stay here for the
    /// send path.
    cc: Box<dyn CongestionController>,
    /// A pacer timer is outstanding (same staleness discipline as the RTO:
    /// a firing earlier than `pacer_deadline` is stale and ignored).
    pacer_armed: bool,
    pacer_deadline: SimTime,
    /// Earliest instant the pacer gate allows the next data segment
    /// (rate-paced controllers only; `ZERO` sends immediately).
    pacer_next: SimTime,
    consecutive_timeouts: u32,
    syn_retries_left: u32,
    /// The FIN went out, at the sequence number past the last data byte.
    fin_sent: bool,
    fin_acked: bool,

    // --- receive side ---
    rcv_nxt: u64,
    /// The hole report last sent, which an unchanged one shares.
    last_report: SeqRanges,
    ts_recent: Option<SimTime>,
    /// An in-order segment waits for its delayed ACK.
    delack_pending: bool,
    delack_timer: flowstack::FlowTimer,
    /// Where the peer's FIN sits in its sequence space; `u64::MAX` until one
    /// arrives.
    peer_fin_seq: u64,
    fin_received: bool,

    // --- counters (the byte counts are the stream's) ---
    retransmits: u64,
    timeouts: u64,
    fast_recoveries: u64,
}

/// Initial congestion window, in segments.
const INITIAL_CWND: usize = 10;

impl Flow {
    fn new(hdr: FlowHeader, cfg: &TcpConfig, state: State) -> Flow {
        let cwnd = (INITIAL_CWND * cfg.mss) as f64;
        Flow {
            hdr,
            stream: Stream::default(),
            state,
            snd_una: 0,
            snd_nxt: 0,
            sent: SendQueue::default(),
            cwnd,
            ssthresh: f64::INFINITY,
            peer_wnd: cfg.recv_buf as u64,
            in_recovery: false,
            recover: 0,
            srtt: None,
            rttvar: 0.0,
            rto: Duration::from_secs(1),
            rto_armed: false,
            rto_timer: flowstack::FlowTimer::IDLE,
            cc: cc::build(&cfg.cc),
            pacer_armed: false,
            pacer_deadline: SimTime::ZERO,
            pacer_next: SimTime::ZERO,
            consecutive_timeouts: 0,
            syn_retries_left: cfg.syn_retries,
            fin_sent: false,
            fin_acked: false,
            rcv_nxt: 0,
            last_report: SeqRanges::default(),
            ts_recent: None,
            delack_pending: false,
            delack_timer: flowstack::FlowTimer::IDLE,
            peer_fin_seq: u64::MAX,
            fin_received: false,
            retransmits: 0,
            timeouts: 0,
            fast_recoveries: 0,
        }
    }

    fn flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    fn send_window(&self) -> u64 {
        (self.cwnd as u64).min(self.peer_wnd)
    }
}

fn my_wnd(flow: &Flow, cfg: &TcpConfig) -> u64 {
    (cfg.recv_buf.saturating_sub(flow.stream.held_bytes())) as u64
}

type Action = flowstack::Action<TcpSegment>;
type Out = flowstack::Out<TcpConfig>;

fn on_rto_fired(flow: &mut Flow, cfg: &TcpConfig, rec: &Recorder, now: SimTime, out: &mut Out) {
    // Deadline check replaces the old generation counter: every re-arm
    // moves the deadline and the timer keeps an event pending at or before
    // it, so an early firing is always stale.
    let due = flow.state != State::Closed && flow.rto_timer.fired(KIND_RTO, now, out);
    if !due || !flow.rto_armed {
        return;
    }
    flow.rto_armed = false;
    if flow.flight() == 0 {
        return;
    }
    flow.timeouts += 1;
    flow.consecutive_timeouts += 1;
    if flow.state == State::SynSent || flow.state == State::SynRcvd {
        if flow.syn_retries_left == 0 {
            flow.state = State::Closed;
            close_all_seg_spans(flow, &mut out.sent, rec, now);
            flow.hdr.notify_closed(CloseReason::Timeout, out);
            return;
        }
        flow.syn_retries_left -= 1;
    } else if flow.consecutive_timeouts > cfg.max_consecutive_timeouts {
        // The peer is unreachable; give up like a real stack would.
        flow.state = State::Closed;
        close_all_seg_spans(flow, &mut out.sent, rec, now);
        flow.hdr.notify_closed(CloseReason::Timeout, out);
        return;
    }
    // Timeout response is the controller's call (Reno: RFC 5681 collapse
    // to one MSS); episode bookkeeping stays here.
    flow.in_recovery = true;
    flow.recover = flow.snd_nxt;
    flow.rto = (flow.rto * 2).min(cfg.max_rto);
    rec.record(
        now.as_nanos(),
        EventKind::TcpRto {
            conn: flow.hdr.conn_id,
            rto_us: flow.rto.as_micros() as u64,
            consecutive: u64::from(flow.consecutive_timeouts),
        },
    );
    with_cc(flow, cfg, rec, |cc, ctx| cc.on_rto(ctx, now));
    if flow.state == State::Established {
        // Go-back-N style: everything unacknowledged is presumed lost;
        // retransmission is paced by returning ACKs.
        flow.sent.mark_all(&mut out.sent);
        resend_lost(flow, cfg, rec, now, out);
    } else {
        resend_syn(flow, cfg, rec, now, out);
    }
    arm_rto(flow, now, out);
}

fn on_pacer_fired(flow: &mut Flow, cfg: &TcpConfig, rec: &Recorder, now: SimTime, out: &mut Out) {
    if !flow.pacer_armed || now < flow.pacer_deadline || flow.state == State::Closed {
        return;
    }
    flow.pacer_armed = false;
    try_send(flow, cfg, rec, now, out);
}

fn on_delack_fired(flow: &mut Flow, cfg: &TcpConfig, now: SimTime, out: &mut Out) {
    let due = flow.state != State::Closed && flow.delack_timer.fired(KIND_DELACK, now, out);
    if !due || !flow.delack_pending {
        return;
    }
    flow.delack_pending = false;
    out.push(Action::Send(pure_ack(flow, cfg, now, &out.pool)));
}

/// What is TCP about the flow core; the config type names the protocol.
impl Protocol for TcpConfig {
    type Flow = Flow;
    type Wire = TcpSegment;
    type Sent = SentSeg;

    const WIRE: WireProtocol = WireProtocol::Tcp;
    const SCOPE: usize = memscope::SCOPE_TCP;
    const CONN_NAME: &'static str = "TcpConn";
    const LISTENER_NAME: &'static str = "TcpListener";

    fn table(net: &mut NetInner) -> &mut FlowTable<TcpConfig> {
        &mut net.tcp
    }

    fn new_flow(hdr: FlowHeader, cfg: &TcpConfig, _now: SimTime, active: bool) -> Flow {
        Flow::new(
            hdr,
            cfg,
            if active {
                State::SynSent
            } else {
                State::SynRcvd
            },
        )
    }

    fn hdr(flow: &Flow) -> &FlowHeader {
        &flow.hdr
    }

    fn hdr_mut(flow: &mut Flow) -> &mut FlowHeader {
        &mut flow.hdr
    }

    fn connection(conn: TcpConn) -> Connection {
        Connection::Tcp(conn)
    }

    fn into_body(seg: TcpSegment) -> (usize, PacketBody) {
        (seg.payload.len(), PacketBody::Tcp(seg))
    }

    fn from_body(body: PacketBody) -> Option<TcpSegment> {
        match body {
            PacketBody::Tcp(seg) => Some(seg),
            _ => None,
        }
    }

    fn opens(seg: &TcpSegment) -> bool {
        seg.flags.syn && !seg.flags.ack
    }

    /// Sends the SYN.
    fn start_active(
        flow: &mut Flow,
        cfg: &TcpConfig,
        _rec: &Recorder,
        now: SimTime,
        out: &mut Out,
    ) {
        send_syn(flow, cfg, now, out);
    }

    /// Answers the SYN with a SYN-ACK.
    fn start_passive(
        flow: &mut Flow,
        cfg: &TcpConfig,
        _rec: &Recorder,
        now: SimTime,
        out: &mut Out,
        seg: TcpSegment,
    ) {
        flow.rcv_nxt = seg.seq + 1;
        flow.ts_recent = Some(seg.ts);
        flow.peer_wnd = seg.wnd;
        send_syn(flow, cfg, now, out);
    }

    fn on_wire(
        flow: &mut Flow,
        cfg: &TcpConfig,
        rec: &Recorder,
        now: SimTime,
        out: &mut Out,
        seg: TcpSegment,
    ) {
        match flow.state {
            State::Closed => {
                // Re-acknowledge a retransmitted FIN so the peer can finish.
                if seg.flags.fin {
                    out.push(Action::Send(pure_ack(flow, cfg, now, &out.pool)));
                }
            }
            // Either handshake state drops an acknowledgement of anything
            // but the open it sent, as `process_ack` does once established.
            State::SynSent => {
                if seg.flags.syn && seg.flags.ack && (1..=flow.snd_nxt).contains(&seg.ack) {
                    complete_handshake_active(flow, cfg, rec, &seg, now, out);
                }
            }
            State::SynRcvd => {
                if seg.flags.ack && (1..=flow.snd_nxt).contains(&seg.ack) {
                    flow.state = State::Established;
                    flow.snd_una = seg.ack.max(flow.snd_una);
                    flow.peer_wnd = seg.wnd;
                    // A completed handshake breaks any SYN timeout streak;
                    // without this reset the first post-handshake RTO would
                    // report `consecutive > 1` against a freshly measured
                    // RTO, which violates the doubling invariant the
                    // oracle checks.
                    flow.consecutive_timeouts = 0;
                    disarm_rto(flow);
                    out.push(Action::Connected);
                    // The final handshake ACK may carry data.
                    if !seg.payload.is_empty() || seg.flags.fin {
                        receive_data(flow, cfg, seg, now, out);
                    }
                    try_send(flow, cfg, rec, now, out);
                } else if seg.flags.syn && !seg.flags.ack {
                    // Duplicate SYN: retransmit SYN-ACK.
                    resend_syn(flow, cfg, rec, now, out);
                }
            }
            State::Established => {
                if seg.flags.ack {
                    process_ack(flow, cfg, rec, &seg, now, out);
                    resend_lost(flow, cfg, rec, now, out);
                }
                if !seg.payload.is_empty() || seg.flags.fin {
                    receive_data(flow, cfg, seg, now, out);
                }
                try_send(flow, cfg, rec, now, out);
                maybe_close(flow, rec, now, out);
            }
        }
    }

    fn on_timer(
        flow: &mut Flow,
        cfg: &TcpConfig,
        rec: &Recorder,
        now: SimTime,
        out: &mut Out,
        kind: u64,
        _aux: u32,
    ) {
        match kind {
            KIND_RTO => on_rto_fired(flow, cfg, rec, now, out),
            KIND_DELACK => on_delack_fired(flow, cfg, now, out),
            KIND_PACER => on_pacer_fired(flow, cfg, rec, now, out),
            _ => {}
        }
    }

    fn timer(flow: &mut Flow, kind: u64) -> &mut flowstack::FlowTimer {
        match kind {
            KIND_RTO => &mut flow.rto_timer,
            KIND_DELACK => &mut flow.delack_timer,
            _ => unreachable!("only the RTO and the delayed ACK reserve"),
        }
    }

    fn kill(flow: &mut Flow, out: &mut Out, rec: &Recorder, now: SimTime) {
        flow.state = State::Closed;
        flow.rto_armed = false;
        flow.pacer_armed = false;
        flow.delack_pending = false;
        flow.stream.free_buffers(&mut out.pool);
        close_all_seg_spans(flow, &mut out.sent, rec, now);
        flow.sent.clear(&mut out.sent);
        flow.last_report = SeqRanges::default();
    }

    fn debug_state(flow: Option<&Flow>, out: &mut fmt::DebugStruct<'_, '_>) {
        out.field("state", &flow.map(|fl| fl.state));
    }

    fn stream<'a>(flow: &'a mut Flow, cfg: &TcpConfig) -> (&'a mut Stream, Phase, usize) {
        let phase = match flow.state {
            State::SynSent | State::SynRcvd => Phase::Connecting,
            State::Established => Phase::Established,
            State::Closed => Phase::Closed,
        };
        (&mut flow.stream, phase, cfg.send_buf)
    }

    fn kick(flow: &mut Flow, cfg: &TcpConfig, rec: &Recorder, now: SimTime, out: &mut Out) {
        try_send(flow, cfg, rec, now, out);
    }
}

/// Puts the opening SYN or SYN-ACK in flight: sequence number 0, covered by
/// the retransmission timer like any other unacknowledged segment.
fn send_syn(flow: &mut Flow, cfg: &TcpConfig, now: SimTime, out: &mut Out) {
    let seg = segment(flow, cfg, now, 0, true, false, Bytes::new());
    flow.snd_nxt = 1;
    out.push(Action::Send(seg));
    arm_rto(flow, now, out);
}

fn complete_handshake_active(
    flow: &mut Flow,
    cfg: &TcpConfig,
    rec: &Recorder,
    seg: &TcpSegment,
    now: SimTime,
    out: &mut Out,
) {
    flow.state = State::Established;
    flow.snd_una = seg.ack;
    flow.rcv_nxt = seg.seq + 1;
    flow.peer_wnd = seg.wnd;
    // SYN timeout streaks do not carry into the established connection
    // (same reasoning as the SynRcvd transition).
    flow.consecutive_timeouts = 0;
    flow.ts_recent = Some(seg.ts);
    if let Some(echo) = seg.ts_echo {
        update_rtt(flow, cfg, now, echo);
    }
    disarm_rto(flow);
    out.push(Action::Connected);
    // Pure ACK completes the handshake; data may follow immediately.
    out.push(Action::Send(pure_ack(flow, cfg, now, &out.pool)));
    try_send(flow, cfg, rec, now, out);
}

/// Runs a congestion-controller hook with the window state borrowed
/// piecewise out of the flow (cwnd/ssthresh mutably, the rest by value).
fn with_cc(
    flow: &mut Flow,
    cfg: &TcpConfig,
    rec: &Recorder,
    f: impl FnOnce(&mut dyn CongestionController, &mut CcCtx<'_>),
) {
    let flight = flow.flight() as f64;
    let conn = flow.hdr.conn_id;
    let Flow {
        cwnd, ssthresh, cc, ..
    } = flow;
    let mut ctx = CcCtx {
        cwnd,
        ssthresh,
        mss: cfg.mss as f64,
        flight,
        conn,
        rec,
    };
    f(cc.as_mut(), &mut ctx);
}

fn update_rtt(flow: &mut Flow, cfg: &TcpConfig, now: SimTime, echo: SimTime) {
    let sample = now.duration_since(echo).as_secs_f64();
    match flow.srtt {
        None => {
            flow.srtt = Some(sample);
            flow.rttvar = sample / 2.0;
        }
        Some(srtt) => {
            let err = (sample - srtt).abs();
            flow.rttvar = 0.75 * flow.rttvar + 0.25 * err;
            flow.srtt = Some(0.875 * srtt + 0.125 * sample);
        }
    }
    let rto = flow.srtt.unwrap_or(1.0) + 4.0 * flow.rttvar;
    flow.rto = Duration::from_secs_f64(rto)
        .max(cfg.min_rto)
        .min(cfg.max_rto);
    flow.cc.on_rtt_sample(sample, now);
}

/// A segment of this flow from `seq`, which acknowledges what has arrived
/// (every segment but the opening SYN).
fn segment(
    flow: &Flow,
    cfg: &TcpConfig,
    now: SimTime,
    seq: u64,
    syn: bool,
    fin: bool,
    payload: Bytes,
) -> TcpSegment {
    TcpSegment {
        seq,
        ack: flow.rcv_nxt,
        flags: SegFlags {
            syn,
            ack: flow.state != State::SynSent,
            fin,
        },
        wnd: my_wnd(flow, cfg),
        ts: now,
        ts_echo: flow.ts_recent,
        holes: SeqRanges::default(),
        payload,
    }
}

fn pure_ack(flow: &mut Flow, cfg: &TcpConfig, now: SimTime, pool: &NodePool<Chunk>) -> TcpSegment {
    let holes = compute_holes(flow, pool);
    let seq = flow.snd_nxt;
    TcpSegment {
        holes,
        ..segment(flow, cfg, now, seq, false, false, Bytes::new())
    }
}

/// The receiver's missing `[from, to)` byte ranges below its highest
/// buffered out-of-order segment (capped at 16), kept as the last report.
fn compute_holes(flow: &mut Flow, pool: &NodePool<Chunk>) -> SeqRanges {
    let mut holes = [(0, 0); 16];
    let mut n = 0;
    let mut expect = flow.rcv_nxt;
    for (seq, data) in flow.stream.held(pool) {
        if seq > expect {
            holes[n] = (expect, seq);
            n += 1;
            if n == holes.len() {
                break;
            }
        }
        expect = expect.max(seq + data.len() as u64);
    }
    flow.last_report.update(&holes[..n])
}

fn arm_rto(flow: &mut Flow, now: SimTime, out: &mut Out) {
    flow.rto_armed = true;
    out.push(flow.rto_timer.arm(KIND_RTO, now, flow.rto));
}

/// Schedules a pacer wake-up at the flow's next pacing gate (rate-based
/// controllers only). Idempotent per gate: re-arming moves the deadline and
/// earlier firings go stale.
fn arm_pacer(flow: &mut Flow, now: SimTime, out: &mut Out) {
    if flow.pacer_armed && flow.pacer_deadline == flow.pacer_next {
        return;
    }
    flow.pacer_armed = true;
    flow.pacer_deadline = flow.pacer_next;
    let delay = flow.pacer_next.duration_since(now);
    out.push(Action::Arm {
        kind: KIND_PACER,
        delay,
        aux: 0,
    });
}

fn disarm_rto(flow: &mut Flow) {
    flow.rto_armed = false;
}

/// Resends the opening SYN or SYN-ACK (the handshake's timeout, or a
/// duplicate SYN).
fn resend_syn(flow: &mut Flow, cfg: &TcpConfig, rec: &Recorder, now: SimTime, out: &mut Out) {
    let seg = segment(flow, cfg, now, 0, true, false, Bytes::new());
    retransmit(flow, rec, now, seg, false, out);
}

/// Sends `seg` again, `fast` (loss-driven) or not (the SYN's timeout).
fn retransmit(
    flow: &mut Flow,
    rec: &Recorder,
    now: SimTime,
    seg: TcpSegment,
    fast: bool,
    out: &mut Out,
) {
    flow.retransmits += 1;
    let (conn, seq) = (flow.hdr.conn_id, seg.seq);
    rec.record(now.as_nanos(), EventKind::TcpRetransmit { conn, seq, fast });
    out.push(Action::Send(seg));
}

fn process_ack(
    flow: &mut Flow,
    cfg: &TcpConfig,
    rec: &Recorder,
    seg: &TcpSegment,
    now: SimTime,
    out: &mut Out,
) {
    // An acknowledgement of what was never sent is not acceptable (RFC 793).
    if seg.ack > flow.snd_nxt {
        return;
    }
    flow.peer_wnd = seg.wnd;
    note_holes(flow, cfg, rec, &seg.holes, now, &mut out.sent);
    if seg.ack > flow.snd_una {
        let newly = seg.ack - flow.snd_una;
        flow.snd_una = seg.ack;
        flow.consecutive_timeouts = 0;
        // Release every segment that starts below the acknowledgement,
        // closing their `seg` spans in sequence order (close key records
        // whether the segment needed retransmission); their loss marks
        // leave with them.
        let mut acked = 0;
        while let Some(s) = flow.sent.pop_front_if(&mut out.sent, |s| s.seq < seg.ack) {
            acked += s.len as usize;
            let key = if s.retransmitted {
                SEG_REXMIT
            } else {
                SEG_ACKED
            };
            close_seg_span(rec, now, s.span, key);
        }
        if let Some(echo) = seg.ts_echo {
            update_rtt(flow, cfg, now, echo);
        }
        if flow.fin_sent && seg.ack > 1 + flow.stream.bytes_sent {
            flow.fin_acked = true;
        }
        if flow.in_recovery && flow.snd_una >= flow.recover {
            flow.in_recovery = false;
            with_cc(flow, cfg, rec, |cc, ctx| cc.on_recovery_exit(ctx, now));
        }
        with_cc(flow, cfg, rec, |cc, ctx| cc.on_ack(ctx, newly, now));
        if flow.flight() > 0 {
            arm_rto(flow, now, out);
        } else {
            disarm_rto(flow);
        }
        flow.stream.acked(acked, cfg.send_buf, cfg.mss, out);
    }
}

/// Registers receiver-reported holes as lost segments (once per ~RTT per
/// segment) and reacts with one multiplicative decrease per loss episode.
fn note_holes(
    flow: &mut Flow,
    cfg: &TcpConfig,
    rec: &Recorder,
    holes: &[(u64, u64)],
    now: SimTime,
    pool: &mut NodePool<SentSeg>,
) {
    if holes.is_empty() {
        return;
    }
    let srtt = flow.srtt.unwrap_or(0.1);
    let reinsert_after = Duration::from_secs_f64((srtt * 1.2).max(0.005));
    let mut fresh_loss = false;
    // The segments that start in a hole `[from, to)`, in one walk.
    let holes = holes.iter().copied();
    flow.sent.mark_ranges(
        pool,
        holes,
        |_, s| s.seq,
        |_, seg| {
            let eligible =
                !seg.retransmitted || now.duration_since(seg.last_rexmit) >= reinsert_after;
            let fresh = !seg.lost && eligible;
            fresh_loss |= fresh && !seg.retransmitted;
            fresh
        },
    );
    if fresh_loss && !flow.in_recovery && !cfg.buggy_no_fast_recovery {
        flow.in_recovery = true;
        flow.recover = flow.snd_nxt;
        flow.fast_recoveries += 1;
        with_cc(flow, cfg, rec, |cc, ctx| cc.on_loss(ctx, now));
    }
}

/// Retransmits queued-lost segments, paced by the congestion window: each
/// invocation (i.e. each returning ACK) may resend up to `cwnd/4` worth of
/// segments, so recovery self-clocks and ramps with slow start after an RTO.
fn resend_lost(flow: &mut Flow, cfg: &TcpConfig, rec: &Recorder, now: SimTime, out: &mut Out) {
    let budget = ((flow.cwnd / cfg.mss as f64 / 4.0) as usize).max(1);
    let mut sent = 0;
    while sent < budget {
        let Some((_, s)) = flow.sent.take(&mut out.sent) else {
            break;
        };
        s.retransmitted = true;
        s.last_rexmit = now;
        let (seq, len, fin) = (s.seq, s.len as usize, s.fin);
        let payload = if fin {
            Bytes::new()
        } else {
            flow.stream.resend(seq - 1, len, &out.pool)
        };
        let seg = segment(flow, cfg, now, seq, false, fin, payload);
        retransmit(flow, rec, now, seg, true, out);
        sent += 1;
    }
}

fn receive_data(flow: &mut Flow, cfg: &TcpConfig, seg: TcpSegment, now: SimTime, out: &mut Out) {
    let plen = seg.payload.len();
    if seg.flags.fin {
        flow.peer_fin_seq = seg.seq + plen as u64;
    }
    let seq = seg.seq;
    if plen > 0 {
        if seq == flow.rcv_nxt {
            flow.ts_recent = Some(seg.ts);
            flow.rcv_nxt += plen as u64;
            // The segment is consumed here, so its payload handle moves
            // straight into the delivery without a refcount round-trip.
            flow.stream.deliver(seg.payload, out);
            // Drain any now-contiguous out-of-order data.
            while let Some(len) = flow.stream.deliver_held(flow.rcv_nxt, out) {
                flow.rcv_nxt += len as u64;
            }
            schedule_ack(flow, cfg, now, out, false);
        } else if seq > flow.rcv_nxt {
            // Out of order: buffer if the receive buffer allows, dup-ACK
            // immediately either way.
            flow.stream
                .hold(seq, seg.payload, cfg.recv_buf, &mut out.pool);
            schedule_ack(flow, cfg, now, out, true);
        } else {
            // Duplicate of already-delivered data.
            schedule_ack(flow, cfg, now, out, true);
        }
    }
    if flow.rcv_nxt == flow.peer_fin_seq && !flow.fin_received {
        flow.fin_received = true;
        flow.rcv_nxt += 1;
        schedule_ack(flow, cfg, now, out, true);
    }
}

/// Delayed-ACK timer.
const DELACK_TIMEOUT: Duration = Duration::from_millis(40);

fn schedule_ack(flow: &mut Flow, cfg: &TcpConfig, now: SimTime, out: &mut Out, immediate: bool) {
    if immediate || flow.delack_pending {
        // Clearing the pending flag cancels any outstanding delack timer:
        // it fires, sees `delack_pending` false, and no-ops.
        flow.delack_pending = false;
        out.push(Action::Send(pure_ack(flow, cfg, now, &out.pool)));
    } else {
        flow.delack_pending = true;
        out.push(flow.delack_timer.arm(KIND_DELACK, now, DELACK_TIMEOUT));
    }
}

fn try_send(flow: &mut Flow, cfg: &TcpConfig, rec: &Recorder, now: SimTime, out: &mut Out) {
    if flow.state != State::Established {
        return;
    }
    loop {
        let wnd = flow.send_window();
        if flow.flight() >= wnd {
            break;
        }
        if !flow.stream.has_queued() {
            if flow.stream.fin_queued && !flow.fin_sent {
                let seg = segment(flow, cfg, now, flow.snd_nxt, false, true, Bytes::new());
                flow.fin_sent = true;
                let fin = SentSeg {
                    seq: flow.snd_nxt,
                    fin: true,
                    ..SentSeg::default()
                };
                flow.sent.push_back(&mut out.sent, fin);
                flow.snd_nxt += 1;
                out.push(Action::Send(seg));
            }
            break;
        }
        // Rate pacing: a controller with a pacing rate gates each data
        // segment on the virtual-time pacer instead of bursting the whole
        // window (ACK clocking alone).
        if flow.cc.pacing_rate().is_some() && now < flow.pacer_next {
            arm_pacer(flow, now, out);
            break;
        }
        let (_, payload) = flow
            .stream
            .next_payload(cfg.mss, &out.pool)
            .expect("bytes queued");
        let take = payload.len();
        let seg = segment(flow, cfg, now, flow.snd_nxt, false, false, payload);
        let sent = SentSeg {
            seq: flow.snd_nxt,
            len: take as u32,
            span: open_seg_span(rec, now, flow.hdr.conn_id, flow.snd_nxt),
            ..SentSeg::default()
        };
        flow.sent.push_back(&mut out.sent, sent);
        flow.snd_nxt += take as u64;
        out.push(Action::Send(seg));
        // Advance the pacing gate by this segment's serialization time at
        // the controller's rate.
        if let Some(rate) = flow.cc.pacing_rate() {
            if rate > 0.0 {
                let gap = Duration::from_secs_f64(take as f64 / rate);
                flow.pacer_next = flow.pacer_next.max(now) + gap;
            }
        }
    }
    if flow.flight() > 0 && !flow.rto_armed {
        arm_rto(flow, now, out);
    }
}

fn maybe_close(flow: &mut Flow, rec: &Recorder, now: SimTime, out: &mut Out) {
    if flow.state == State::Closed {
        return;
    }
    let local_done = !flow.stream.fin_queued || flow.fin_acked;
    // Closed once the peer's FIN is in and ours (if any) is acknowledged,
    // or once we initiated and the peer acknowledged: linger until the
    // peer's FIN or just report closure (simplified half-close).
    if (flow.fin_received && local_done) || (flow.stream.fin_queued && flow.fin_acked) {
        flow.state = State::Closed;
        close_all_seg_spans(flow, &mut out.sent, rec, now);
        disarm_rto(flow);
        flow.hdr.notify_closed(CloseReason::Normal, out);
    }
}

/// A simulated TCP connection handle.
pub type TcpConn = Conn<TcpConfig>;

impl TcpConn {
    /// Per-connection counters.
    #[must_use]
    pub fn stats(&self) -> TcpConnStats {
        self.peek(|f, _| TcpConnStats {
            bytes_sent: f.stream.bytes_sent,
            bytes_acked: f.stream.bytes_acked,
            bytes_delivered: f.stream.bytes_delivered,
            retransmits: f.retransmits,
            timeouts: f.timeouts,
            fast_recoveries: f.fast_recoveries,
        })
        .unwrap_or_default()
    }
}

/// A TCP listening socket that accepts incoming connections.
pub type TcpListener = Listener<TcpConfig>;

/// What the shared handle-lifecycle tests in [`crate::flowstack`] need to
/// know about TCP.
#[cfg(test)]
impl Flow {
    /// Killed in place: closed, nothing armed, every buffer released.
    pub(crate) fn is_dead(&self) -> bool {
        self.state == State::Closed
            && !self.rto_armed
            && !self.pacer_armed
            && !self.delack_pending
            && self.stream.is_freed()
            && self.sent.is_clear()
            && self.last_report.is_empty()
    }

    /// `(snd_una, snd_nxt)`.
    pub(crate) fn unacked(&self) -> (u64, u64) {
        (self.snd_una, self.snd_nxt)
    }

    /// The smoothed RTT in seconds, once an ACK has echoed a timestamp.
    pub(crate) fn rtt(&self) -> Option<f64> {
        self.srtt
    }

    /// First sequence number of every segment in the retransmission queue,
    /// in queue order.
    fn sent_seqs(&self, pool: &NodePool<SentSeg>) -> Vec<u64> {
        self.sent.iter(pool).map(|s| s.seq).collect()
    }

    /// The queued segments that have been retransmitted, likewise.
    fn rexmit_seqs(&self, pool: &NodePool<SentSeg>) -> Vec<u64> {
        let rexmit = self.sent.iter(pool).filter(|s| s.retransmitted);
        rexmit.map(|s| s.seq).collect()
    }

    /// The segments marked lost, ascending.
    fn lost_seqs(&self, pool: &NodePool<SentSeg>) -> Vec<u64> {
        let lost = self.sent.iter(pool).filter(|s| s.lost);
        lost.map(|s| s.seq).collect()
    }
}

/// An RTO firing while its deadline has moved on (data in flight re-arms it).
#[cfg(test)]
pub(crate) const STALE_TIMER: (u64, u32) = (KIND_RTO, 0);

/// A pure ACK: cannot open a connection.
#[cfg(test)]
pub(crate) fn stray_segment() -> TcpSegment {
    TcpSegment {
        seq: 7,
        ack: 7,
        flags: SegFlags {
            syn: false,
            ack: true,
            fin: false,
        },
        wnd: 65_535,
        ts: SimTime::ZERO,
        ts_echo: None,
        holes: SeqRanges::default(),
        payload: Bytes::new(),
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::engine::Sim;
    use crate::iface::{StreamAccept, StreamEvents};
    use crate::link::LinkConfig;
    use crate::network::Network;
    use crate::packet::{Endpoint, NodeId};
    use crate::testutil::{pattern_bytes, CollectingTracer, PatternSender, Recorder, SinkEvents};
    use crate::trace::PacketEvent;

    fn setup(link: LinkConfig) -> (Sim, Network, NodeId, NodeId) {
        let sim = Sim::new(11);
        let net = Network::new(&sim);
        let a = net.add_node("a");
        let b = net.add_node("b");
        net.connect_duplex(a, b, link);
        (sim, net, a, b)
    }

    struct AcceptRecorder {
        rec: Arc<Recorder>,
    }
    impl StreamAccept for AcceptRecorder {
        fn on_accept(&self, _conn: &Connection) -> Arc<dyn StreamEvents> {
            self.rec.clone()
        }
    }

    #[test]
    fn bulk_transfer_reaches_link_rate_on_clean_path() {
        let (sim, net, a, b) = setup(LinkConfig::new(10e6, Duration::from_millis(5)));
        let server = Arc::new(Recorder::with_sim(&sim));
        let _l = TcpListener::bind(
            &net,
            b,
            80,
            TcpConfig::default(),
            Arc::new(AcceptRecorder {
                rec: server.clone(),
            }),
        )
        .unwrap();
        let total = 20_000_000usize; // 20 MB over a 10 MB/s link: ~2 s
        let pump = PatternSender::new(total);
        let conn =
            TcpConn::connect(&net, a, Endpoint::new(b, 80), TcpConfig::default(), pump).unwrap();
        let _ = conn;
        sim.run_for(Duration::from_secs(10));
        assert_eq!(server.data_len(), total, "all bytes must arrive");
        let rate = server.goodput();
        assert!(
            rate > 8e6 && rate <= 10.2e6,
            "clean-path TCP should run near line rate, got {rate:.0} B/s"
        );
    }

    #[test]
    fn receiver_window_caps_throughput_at_high_rtt() {
        // 125 MB/s link, 100 ms RTT, 256 KiB receive buffer:
        // max ~2.56 MB/s, far below the link rate.
        let cfg = TcpConfig {
            recv_buf: 256 * 1024,
            ..TcpConfig::default()
        };
        let (sim, net, a, b) = setup(LinkConfig::new(125e6, Duration::from_millis(50)));
        let server = Arc::new(Recorder::with_sim(&sim));
        let _l = TcpListener::bind(
            &net,
            b,
            80,
            cfg.clone(),
            Arc::new(AcceptRecorder {
                rec: server.clone(),
            }),
        )
        .unwrap();
        let total = 10_000_000usize;
        let pump = PatternSender::new(total);
        let conn = TcpConn::connect(&net, a, Endpoint::new(b, 80), cfg, pump).unwrap();
        let _ = conn;
        sim.run_for(Duration::from_secs(30));
        assert_eq!(server.data_len(), total);
        let rate = server.goodput();
        assert!(
            rate < 3.5e6,
            "window-capped flow must stay near wnd/RTT (~2.6 MB/s), got {rate:.0}"
        );
    }

    #[test]
    fn rtt_estimate_tracks_path() {
        let (sim, net, a, b) = setup(LinkConfig::new(10e6, Duration::from_millis(25)));
        let server = Arc::new(Recorder::default());
        let _l = TcpListener::bind(
            &net,
            b,
            80,
            TcpConfig::default(),
            Arc::new(AcceptRecorder { rec: server }),
        )
        .unwrap();
        let client = Arc::new(Recorder::default());
        let conn =
            TcpConn::connect(&net, a, Endpoint::new(b, 80), TcpConfig::default(), client).unwrap();
        conn.send(Bytes::from(vec![1u8; 100_000]));
        sim.run_for(Duration::from_secs(3));
        let rtt = conn.peek(|f, _| f.rtt()).flatten().expect("rtt sampled");
        assert!(
            (0.04..0.2).contains(&rtt),
            "srtt should be near 50 ms (+delack), got {rtt}"
        );
    }

    const MSS: u64 = 1448;

    /// An established connection whose path has then gone dark, with
    /// `segments` full segments written into it: they sit unacknowledged at
    /// sequence numbers 1, 1 + MSS, … for the tests below to acknowledge,
    /// report missing or time out by hand.
    fn dark_flow(segments: u64) -> (Sim, Network, TcpConn) {
        let sim = Sim::new(11);
        let net = Network::new(&sim);
        let a = net.add_node("a");
        let b = net.add_node("b");
        let (ab, ba) = net.connect_duplex(a, b, LinkConfig::new(10e6, Duration::from_millis(5)));
        let accept = Arc::new(AcceptRecorder {
            rec: Arc::new(Recorder::default()),
        });
        TcpListener::bind(&net, b, 80, TcpConfig::default(), accept).unwrap();
        let client = Arc::new(Recorder::default());
        let conn =
            TcpConn::connect(&net, a, Endpoint::new(b, 80), TcpConfig::default(), client).unwrap();
        sim.run_for(Duration::from_millis(100));
        assert!(conn.is_established());
        net.link(ab).set_up(false);
        net.link(ba).set_up(false);
        let len = (segments * MSS) as usize;
        assert_eq!(conn.send(Bytes::from(vec![7u8; len])), len);
        let seqs: Vec<u64> = (0..segments).map(|i| 1 + i * MSS).collect();
        assert_eq!(
            conn.peek_out(|f, _, out| f.sent_seqs(&out.sent)),
            Some(seqs)
        );
        (sim, net, conn)
    }

    /// What the silent peer would have said: a pure ACK.
    fn forged_ack(ack: u64) -> TcpSegment {
        TcpSegment {
            seq: 1,
            ack,
            ..stray_segment()
        }
    }

    /// Steps the flow with `seg` as if it had just arrived.
    fn arrive(conn: &TcpConn, seg: TcpSegment) {
        conn.process(|flow, cfg, rec, now, out| TcpConfig::on_wire(flow, cfg, rec, now, out, seg));
    }

    #[test]
    fn ack_inside_a_segment_releases_it() {
        let (_sim, _net, conn) = dark_flow(3);
        arrive(&conn, forged_ack(1 + MSS + 10));
        // Every segment that starts below the ACK goes, the second with
        // only ten of its bytes acknowledged; release is counted in whole
        // segments.
        assert_eq!(
            conn.peek_out(|f, _, out| f.sent_seqs(&out.sent)),
            Some(vec![1 + 2 * MSS])
        );
        assert_eq!(
            conn.peek(|f, _| f.unacked()),
            Some((1 + MSS + 10, 1 + 3 * MSS))
        );
        assert_eq!(conn.stats().bytes_acked, 2 * MSS);
        assert_eq!(conn.unacked_bytes() as u64, MSS);
    }

    #[test]
    fn holes_mark_exactly_the_segments_starting_in_range() {
        let (_sim, _net, conn) = dark_flow(5);
        let lost_after = |holes: &[(u64, u64)]| {
            conn.process(|flow, cfg, rec, now, out| {
                note_holes(flow, cfg, rec, holes, now, &mut out.sent);
            });
            conn.peek_out(|f, _, out| f.lost_seqs(&out.sent)).unwrap()
        };
        // `to` is exclusive.
        assert_eq!(
            lost_after(&[(1 + MSS, 1 + 3 * MSS)]),
            [1 + MSS, 1 + 2 * MSS]
        );
        // A segment the range only cuts into (the fourth) is not marked.
        assert_eq!(
            lost_after(&[(2 + 3 * MSS, 1 + 5 * MSS)]),
            [1 + MSS, 1 + 2 * MSS, 1 + 4 * MSS]
        );
        assert_eq!(conn.stats().fast_recoveries, 1, "one loss episode");
    }

    #[test]
    fn rto_marks_every_unacknowledged_segment_lost_in_ascending_order() {
        let (sim, _net, conn) = dark_flow(4);
        // The first timeout (200 ms after the write) and not yet the second.
        sim.run_for(Duration::from_millis(250));
        assert_eq!(conn.stats().timeouts, 1);
        // All four were marked; the collapsed window resent the oldest.
        assert_eq!(
            conn.peek_out(|f, _, out| f.rexmit_seqs(&out.sent)),
            Some(vec![1])
        );
        assert_eq!(
            conn.peek_out(|f, _, out| f.lost_seqs(&out.sent)),
            Some(vec![1 + MSS, 1 + 2 * MSS, 1 + 3 * MSS])
        );
        // Each returning ACK clocks out the next one up.
        arrive(&conn, forged_ack(1));
        assert_eq!(
            conn.peek_out(|f, _, out| f.rexmit_seqs(&out.sent)),
            Some(vec![1, 1 + MSS])
        );
        assert_eq!(
            conn.peek_out(|f, _, out| f.lost_seqs(&out.sent)),
            Some(vec![1 + 2 * MSS, 1 + 3 * MSS])
        );
    }

    #[test]
    fn an_unchanged_hole_report_shares_its_block_and_a_changed_one_does_not() {
        let (_sim, _net, conn) = dark_flow(0);
        // Ten bytes at each `seq`, ahead of the next expected byte, 1.
        let ahead = |seq| {
            let payload = Bytes::from_static(&[1; 10]);
            arrive(
                &conn,
                TcpSegment {
                    seq,
                    payload,
                    ..forged_ack(1)
                },
            );
        };
        let report = || {
            conn.peek_out(|f, cfg, out| pure_ack(f, cfg, SimTime::ZERO, &out.pool).holes)
                .unwrap()
        };
        ahead(11);
        ahead(31);
        let first = report();
        assert_eq!(*first, [(1, 11), (21, 31)]);
        let again = report();
        assert_eq!(again.as_ptr(), first.as_ptr(), "the same block");
        ahead(51);
        let changed = report();
        assert_eq!(*changed, [(1, 11), (21, 31), (41, 51)]);
        assert_ne!(changed.as_ptr(), first.as_ptr(), "a block of its own");
        assert_eq!(report().as_ptr(), changed.as_ptr(), "and it is kept");
    }

    /// Re-arms the RTO from now, as an acknowledgement of new data would.
    fn rearm_rto(conn: &TcpConn) {
        conn.process(|flow, _cfg, _rec, now, out| arm_rto(flow, now, out));
    }

    #[test]
    fn rearming_a_pending_timer_later_adds_no_event_and_earlier_adds_one() {
        let (sim, _net, conn) = dark_flow(1);
        sim.run_for(Duration::from_millis(10));
        let before = sim.events_pending();
        rearm_rto(&conn);
        assert_eq!(sim.events_pending(), before, "only the deadline moves");
        conn.process(|flow, _cfg, _rec, now, out| {
            flow.rto = Duration::from_millis(50);
            arm_rto(flow, now, out);
        });
        assert_eq!(
            sim.events_pending(),
            before + 1,
            "an earlier deadline files one event"
        );
        sim.run_for(Duration::from_millis(50));
        assert_eq!(conn.stats().timeouts, 1);
    }

    #[test]
    fn rto_fires_exactly_at_the_last_deadline_of_a_silent_peer() {
        let (sim, _net, conn) = dark_flow(1);
        // Each re-arm pushes the deadline past the event already pending.
        for _ in 0..3 {
            sim.run_for(Duration::from_millis(70));
            rearm_rto(&conn);
        }
        let rto = conn.peek(|f, _| f.rto).expect("live flow");
        let deadline = (sim.now() + rto).as_nanos();
        sim.run_until(SimTime::from_nanos(deadline - 1));
        assert_eq!(conn.stats().timeouts, 0);
        sim.run_until(SimTime::from_nanos(deadline));
        assert_eq!(conn.stats().timeouts, 1);
    }

    /// Arms the RTO for the deadline `at`.
    fn arm_rto_for(conn: &TcpConn, at: SimTime) {
        conn.process(|flow, _cfg, _rec, now, out| {
            flow.rto = at.duration_since(now);
            arm_rto(flow, now, out);
        });
    }

    #[test]
    fn a_deadline_moved_away_and_back_comes_due_under_its_last_arm() {
        // DESIGN.md §16's one inexact case of the sequence rule. One event
        // per arm would act at (D, first arm for D), ahead of anything
        // scheduled for D after that arm; the timer acts there only while
        // the deadline stays put. Moved to D' > D and back, it files its
        // event under the last arm's number, behind such an event.
        for away in [false, true] {
            // The RTO armed by the write is pending at `pending`.
            let (sim, _net, conn) = dark_flow(1);
            let pending = sim.now() + conn.peek(|f, _| f.rto).expect("live flow");
            sim.run_for(Duration::from_millis(10));
            let d = pending + Duration::from_millis(50);
            arm_rto_for(&conn, d);
            let seen = Arc::new(std::sync::atomic::AtomicU64::new(u64::MAX));
            let (probe, timeouts) = (conn.clone(), seen.clone());
            sim.schedule_at(d, move |_| {
                timeouts.store(probe.stats().timeouts, std::sync::atomic::Ordering::SeqCst);
            });
            if away {
                arm_rto_for(&conn, d + Duration::from_millis(60));
                arm_rto_for(&conn, d);
            }
            sim.run_until(SimTime::from_nanos(d.as_nanos() - 1));
            assert_eq!(conn.stats().timeouts, 0, "away: {away}");
            sim.run_until(d);
            assert_eq!(conn.stats().timeouts, 1, "away: {away}");
            let at_probe = seen.load(std::sync::atomic::Ordering::SeqCst);
            assert_eq!(
                at_probe,
                u64::from(!away),
                "timeouts when the probe ran, away: {away}"
            );
        }
    }

    #[test]
    fn a_cancelled_delayed_ack_stays_silent() {
        let (sim, net, conn) = dark_flow(0);
        // Ten bytes at `seq`, each segment the next one expected.
        let data = |seq| TcpSegment {
            seq,
            payload: Bytes::from_static(&[1; 10]),
            ..forged_ack(1)
        };
        let sent = net.stats().sent;
        arrive(&conn, data(1));
        sim.run_for(Duration::from_millis(100));
        assert_eq!(
            net.stats().sent,
            sent + 1,
            "the delayed ACK of a lone segment"
        );
        // The first of the next two arms a delayed ACK; the second is
        // acknowledged at once, cancelling it.
        arrive(&conn, data(11));
        arrive(&conn, data(21));
        assert_eq!(
            conn.peek(|f, _| (f.rcv_nxt, f.stream.bytes_delivered)),
            Some((31, 30)),
            "all 30 bytes taken in order"
        );
        let sent = net.stats().sent;
        sim.run_for(Duration::from_millis(100));
        assert_eq!(net.stats().sent, sent);
    }

    /// Keeps the connection it accepts; its events go to `rec`.
    #[derive(Default)]
    struct Keep {
        conn: std::sync::Mutex<Option<TcpConn>>,
        rec: Arc<Recorder>,
    }
    impl StreamAccept for Keep {
        fn on_accept(&self, conn: &Connection) -> Arc<dyn StreamEvents> {
            if let Connection::Tcp(conn) = conn {
                *self.conn.lock().unwrap() = Some(conn.clone());
            }
            self.rec.clone()
        }
    }
    impl Keep {
        fn conn(&self) -> Option<TcpConn> {
            self.conn.lock().unwrap().clone()
        }
    }

    /// The segments in the send queue, and whether the flow is
    /// established.
    fn queue_of(conn: &TcpConn) -> (usize, bool) {
        (
            conn.peek_out(|f, _, out| f.sent.iter(&out.sent).count())
                .unwrap(),
            conn.is_established(),
        )
    }

    #[test]
    fn a_flow_that_only_receives_allocates_no_send_queue() {
        let (sim, net, a, b) = setup(LinkConfig::new(10e6, Duration::from_millis(5)));
        let keep = Arc::new(Keep::default());
        let _l = TcpListener::bind(&net, b, 80, TcpConfig::default(), keep.clone()).unwrap();
        let client = TcpConn::connect(
            &net,
            a,
            Endpoint::new(b, 80),
            TcpConfig::default(),
            Arc::new(SinkEvents),
        )
        .unwrap();
        let len = 100_000;
        let mut written = false;
        for _ in 0..500 {
            sim.run_for(Duration::from_millis(1));
            if let Some(server) = keep.conn() {
                assert_eq!(queue_of(&server).0, 0, "at {:?}", sim.now());
            }
            if client.is_established() && !written {
                assert_eq!(client.send(pattern_bytes(0, len)), len);
                client.close();
                written = true;
            }
        }
        let server = keep.conn().expect("accepted");
        assert_eq!(keep.rec.data_len(), len);
        assert!(keep.rec.in_order());
        assert_eq!(server.peek(|f, _| f.fin_received), Some(true));
        assert_eq!(queue_of(&server).0, 0);
    }

    /// Steps `conn`'s flow with `step` in the world; what it sends.
    fn sends_of(
        conn: &TcpConn,
        step: impl FnOnce(&mut Flow, &TcpConfig, &kmsg_telemetry::Recorder, SimTime, &mut Out),
    ) -> Vec<TcpSegment> {
        let mut sent = Vec::new();
        conn.process(|flow, cfg, rec, now, out| {
            let from = out.actions().len();
            step(flow, cfg, rec, now, out);
            for action in &out.actions()[from..] {
                if let Action::Send(seg) = action {
                    sent.push(seg.clone());
                }
            }
        });
        sent
    }

    /// The flow's RTO comes due now.
    fn time_out(
        flow: &mut Flow,
        cfg: &TcpConfig,
        rec: &kmsg_telemetry::Recorder,
        now: SimTime,
        out: &mut Out,
    ) {
        out.push(flow.rto_timer.arm(KIND_RTO, now, Duration::ZERO));
        TcpConfig::on_timer(flow, cfg, rec, now, out, KIND_RTO, 0);
    }

    /// `seg` with its timestamp cleared, printed: what a resend repeats.
    fn untimed(seg: &TcpSegment) -> String {
        format!(
            "{:?}",
            TcpSegment {
                ts: SimTime::ZERO,
                ..seg.clone()
            }
        )
    }

    #[test]
    fn a_lost_syn_and_a_lost_syn_ack_are_resent_from_flow_state() {
        let sim = Sim::new(11);
        let net = Network::new(&sim);
        let a = net.add_node("a");
        let b = net.add_node("b");
        let (_, ba) = net.connect_duplex(a, b, LinkConfig::new(10e6, Duration::from_millis(5)));
        sim.recorder().enable();
        // Every SYN-ACK dies on the way back.
        net.link(ba).set_up(false);
        let keep = Arc::new(Keep::default());
        let _l = TcpListener::bind(&net, b, 80, TcpConfig::default(), keep.clone()).unwrap();
        let client = TcpConn::connect(
            &net,
            a,
            Endpoint::new(b, 80),
            TcpConfig::default(),
            Arc::new(SinkEvents),
        )
        .unwrap();
        sim.run_for(Duration::from_millis(20));
        let server = keep.conn().expect("the SYN arrived");
        // Each handshake state resends its open from flow state: the SYN
        // on a timeout, the SYN-ACK on a timeout and on a duplicate SYN.
        let syn = sends_of(&client, time_out);
        let flags = SegFlags {
            syn: true,
            ack: false,
            fin: false,
        };
        assert_eq!(syn.len(), 1);
        assert_eq!((syn[0].seq, syn[0].ack, syn[0].flags), (0, 0, flags));
        assert!(syn[0].payload.is_empty() && syn[0].ts_echo.is_none());
        let syn_ack = sends_of(&server, time_out);
        let dup = TcpSegment {
            seq: 0,
            ack: 0,
            flags,
            ..stray_segment()
        };
        let again = sends_of(&server, |f, cfg, rec, now, out| {
            TcpConfig::on_wire(f, cfg, rec, now, out, dup);
        });
        let flags = SegFlags { ack: true, ..flags };
        assert_eq!(syn_ack.len(), 1);
        assert_eq!(
            (syn_ack[0].seq, syn_ack[0].ack, syn_ack[0].flags),
            (0, 1, flags)
        );
        assert_eq!(syn_ack[0].ts_echo, Some(SimTime::ZERO));
        assert_eq!(again.len(), 1);
        assert_eq!(untimed(&again[0]), untimed(&syn_ack[0]));
        // One `TcpRetransmit { seq: 0 }` per resend, none of them fast.
        let resends = |conn: &TcpConn| {
            let id = conn.id().raw();
            let events = sim.recorder().events();
            let of_conn = events.iter().filter(|e| match e.kind {
                EventKind::TcpRetransmit { conn, seq, fast } => {
                    assert_eq!((seq, fast), (0, false));
                    conn == id
                }
                _ => false,
            });
            of_conn.count() as u64
        };
        assert_eq!((resends(&client), resends(&server)), (1, 2));
        assert_eq!(queue_of(&client), (0, false));
        assert_eq!(queue_of(&server), (0, false));
        // Back in the world: the timeouts resend until the path heals.
        sim.run_for(Duration::from_secs(2));
        net.link(ba).set_up(true);
        sim.run_for(Duration::from_secs(10));
        assert_eq!(queue_of(&client), (0, true));
        assert_eq!(queue_of(&server), (0, true));
        assert_eq!(resends(&client), client.stats().retransmits);
        assert_eq!(resends(&server), server.stats().retransmits);
        assert!(resends(&client) > 1 && resends(&server) > 2);
    }

    #[test]
    fn same_instant_rearms_retransmit_in_arming_order() {
        let sim = Sim::new(11);
        let net = Network::new(&sim);
        let a = net.add_node("a");
        let b = net.add_node("b");
        let (ab, ba) = net.connect_duplex(a, b, LinkConfig::new(10e6, Duration::from_millis(5)));
        let tracer = Arc::new(CollectingTracer::default());
        net.set_tracer(tracer.clone());
        let accept = Arc::new(AcceptRecorder {
            rec: Arc::new(Recorder::default()),
        });
        let _listener = TcpListener::bind(&net, b, 80, TcpConfig::default(), accept).unwrap();
        let dial = || {
            let events = Arc::new(SinkEvents);
            TcpConn::connect(&net, a, Endpoint::new(b, 80), TcpConfig::default(), events).unwrap()
        };
        let (x, y) = (dial(), dial());
        sim.run_for(Duration::from_millis(100));
        assert!(x.is_established() && y.is_established());
        net.link(ab).set_up(false);
        net.link(ba).set_up(false);
        // Both RTOs armed at one instant with one RTO, `x`'s first; then
        // re-armed at the same instants, `y`'s first.
        for conn in [&x, &y] {
            assert_eq!(
                conn.send(Bytes::from(vec![7u8; MSS as usize])),
                MSS as usize
            );
        }
        for _ in 0..3 {
            sim.run_for(Duration::from_millis(30));
            rearm_rto(&y);
            rearm_rto(&x);
        }
        let quiet = sim.now();
        sim.run_for(Duration::from_secs(5));
        let mut retransmits: Vec<(SimTime, Vec<u16>)> = Vec::new();
        for r in tracer.records() {
            if r.event != PacketEvent::Sent || r.time <= quiet {
                continue;
            }
            match retransmits.last_mut() {
                Some((at, ports)) if *at == r.time => ports.push(r.src.port),
                _ => retransmits.push((r.time, vec![r.src.port])),
            }
        }
        assert!(retransmits.len() > 2, "{retransmits:?}");
        for (at, ports) in retransmits {
            assert_eq!(ports, [y.local().port, x.local().port], "at {at:?}");
        }
    }
}
