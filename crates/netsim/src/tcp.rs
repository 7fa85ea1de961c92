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
//! the flow's [`CongestionController`] ([`TcpConfig::cc`] selects it);
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
//! Slab, demux, listeners, timer arming and handle lifetime are the shared
//! [`crate::flowstack`] core; this file is what is actually TCP: config,
//! segment format, the [`Flow`] state machine — steps of one flow, which
//! never see a lock — and its three timers.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::time::Duration;

use bytes::Bytes;
use kmsg_telemetry::{EventKind, Recorder, SpanKind};

use crate::cc::{self, CcConfig, CcCtx, CongestionController};
use crate::flowstack::{self, release_drained, Conn, FlowHeader, FlowTable, Listener, Protocol};
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
    /// Initial congestion window, in segments.
    pub initial_cwnd: usize,
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
    /// Delayed-ACK timer.
    pub delack_timeout: Duration,
    /// Fire `on_writable` on every acknowledgement that frees send-buffer
    /// space (not just when a blocked writer can resume). Lets middleware
    /// track delivery progress for acked-based notifications.
    pub ack_progress_events: bool,
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
            initial_cwnd: 10,
            min_rto: Duration::from_millis(200),
            max_rto: Duration::from_secs(60),
            syn_retries: 6,
            max_consecutive_timeouts: 15,
            delack_timeout: Duration::from_millis(40),
            ack_progress_events: true,
            cc: CcConfig::default(),
            buggy_no_fast_recovery: false,
        }
    }
}

/// TCP segment control flags.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegFlags {
    /// Synchronize: part of the connection handshake.
    pub syn: bool,
    /// The `ack` field is valid.
    pub ack: bool,
    /// Sender has no more data.
    pub fin: bool,
}

/// A TCP segment on the wire.
#[derive(Debug, Clone)]
pub struct TcpSegment {
    /// First sequence number covered by this segment.
    pub seq: u64,
    /// Cumulative acknowledgement (next expected byte).
    pub ack: u64,
    /// Control flags.
    pub flags: SegFlags,
    /// Advertised receive window in bytes.
    pub wnd: u64,
    /// Sender timestamp (for RTT estimation via echo).
    pub ts: SimTime,
    /// Echoed peer timestamp.
    pub ts_echo: Option<SimTime>,
    /// SACK-style hole report: `[from, to)` byte ranges the receiver is
    /// missing below its highest out-of-order data (capped at 16 ranges).
    pub holes: SeqRanges,
    /// Payload bytes.
    pub payload: Bytes,
}

impl TcpSegment {
    /// Sequence space consumed by this segment (payload + SYN/FIN flags).
    #[must_use]
    pub fn seq_len(&self) -> u64 {
        self.payload.len() as u64
            + u64::from(self.flags.syn)
            + u64::from(self.flags.fin)
    }
}

/// Per-connection counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpConnStats {
    /// Payload bytes accepted from the application.
    pub bytes_sent: u64,
    /// Payload bytes acknowledged by the peer.
    pub bytes_acked: u64,
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

#[derive(Debug)]
struct SentSeg {
    /// First sequence number the segment covers.
    seq: u64,
    payload: Bytes,
    syn: bool,
    fin: bool,
    retransmitted: bool,
    last_rexmit: Option<SimTime>,
    /// Raw `seg` causal-span id covering first transmission to cumulative
    /// ack (0 for control segments or while tracing is off).
    span: u64,
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
fn close_all_seg_spans(flow: &mut Flow, rec: &Recorder, now: SimTime) {
    for seg in &mut flow.sent {
        let span = seg.span;
        seg.span = 0;
        close_seg_span(rec, now, span, SEG_ABORTED);
    }
}

/// Per-flow timer kinds (see the token layout in [`crate::flowstack`]).
const KIND_RTO: u64 = 0;
const KIND_DELACK: u64 = 1;
const KIND_PACER: u64 = 2;

/// Full per-flow TCP state: one slab slot, no interior `Arc`s.
pub(crate) struct Flow {
    hdr: FlowHeader,
    state: State,

    // --- send side ---
    snd_una: u64,
    snd_nxt: u64,
    send_q: VecDeque<Bytes>,
    send_q_bytes: usize,
    unacked_bytes: usize,
    /// The retransmission queue: every segment in `[snd_una, snd_nxt)`,
    /// ordered by `seq` by construction — a segment is only ever appended,
    /// at `snd_nxt`, and only ever released from the front.
    sent: VecDeque<SentSeg>,
    lost: BTreeSet<u64>,
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
    fin_queued: bool,
    fin_sent: bool,
    fin_seq: u64,
    fin_acked: bool,

    // --- receive side ---
    rcv_nxt: u64,
    ooo: BTreeMap<u64, Bytes>,
    ooo_bytes: usize,
    ts_recent: Option<SimTime>,
    delack_pending: u32,
    delack_timer: flowstack::FlowTimer,
    /// Where the peer's FIN sits in its sequence space; `u64::MAX` until one
    /// arrives.
    peer_fin_seq: u64,
    fin_received: bool,

    // --- notifications ---
    app_blocked: bool,
    connected_notified: bool,

    stats: TcpConnStats,
}

impl Flow {
    fn new(hdr: FlowHeader, cfg: &TcpConfig, state: State) -> Flow {
        let cwnd = (cfg.initial_cwnd * cfg.mss) as f64;
        Flow {
            hdr,
            state,
            snd_una: 0,
            snd_nxt: 0,
            send_q: VecDeque::new(),
            send_q_bytes: 0,
            unacked_bytes: 0,
            sent: VecDeque::new(),
            lost: BTreeSet::new(),
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
            fin_queued: false,
            fin_sent: false,
            fin_seq: 0,
            fin_acked: false,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            ooo_bytes: 0,
            ts_recent: None,
            delack_pending: 0,
            delack_timer: flowstack::FlowTimer::IDLE,
            peer_fin_seq: u64::MAX,
            fin_received: false,
            app_blocked: false,
            connected_notified: false,
            stats: TcpConnStats::default(),
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
    (cfg.recv_buf.saturating_sub(flow.ooo_bytes)) as u64
}

type Action = flowstack::Action<TcpSegment>;

fn on_rto_fired(flow: &mut Flow, cfg: &TcpConfig, rec: &Recorder, now: SimTime, out: &mut Vec<Action>) {
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
    flow.stats.timeouts += 1;
    flow.consecutive_timeouts += 1;
    if flow.state == State::SynSent || flow.state == State::SynRcvd {
        if flow.syn_retries_left == 0 {
            flow.state = State::Closed;
            close_all_seg_spans(flow, rec, now);
            if !flow.hdr.closed_notified {
                flow.hdr.closed_notified = true;
                out.push(Action::Closed(CloseReason::Timeout));
            }
            return;
        }
        flow.syn_retries_left -= 1;
    } else if flow.consecutive_timeouts > cfg.max_consecutive_timeouts {
        // The peer is unreachable; give up like a real stack would.
        flow.state = State::Closed;
        close_all_seg_spans(flow, rec, now);
        if !flow.hdr.closed_notified {
            flow.hdr.closed_notified = true;
            out.push(Action::Closed(CloseReason::Timeout));
        }
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
        flow.lost.extend(flow.sent.iter().map(|s| s.seq));
        resend_lost(flow, cfg, rec, now, out);
    } else {
        retransmit_first(flow, cfg, rec, now, out);
    }
    arm_rto(flow, now, out);
}

fn on_pacer_fired(flow: &mut Flow, cfg: &TcpConfig, rec: &Recorder, now: SimTime, out: &mut Vec<Action>) {
    if !flow.pacer_armed || now < flow.pacer_deadline || flow.state == State::Closed {
        return;
    }
    flow.pacer_armed = false;
    try_send(flow, cfg, rec, now, out);
}

fn on_delack_fired(flow: &mut Flow, cfg: &TcpConfig, now: SimTime, out: &mut Vec<Action>) {
    let due = flow.state != State::Closed && flow.delack_timer.fired(KIND_DELACK, now, out);
    if !due || flow.delack_pending == 0 {
        return;
    }
    flow.delack_pending = 0;
    out.push(Action::Send(pure_ack(flow, cfg, now)));
}

/// What is TCP about the flow core; the config type names the protocol.
impl Protocol for TcpConfig {
    type Flow = Flow;
    type Wire = TcpSegment;

    const WIRE: WireProtocol = WireProtocol::Tcp;
    const SCOPE: usize = memscope::SCOPE_TCP;
    const CONN_NAME: &'static str = "TcpConn";
    const LISTENER_NAME: &'static str = "TcpListener";

    fn table(net: &mut NetInner) -> &mut FlowTable<TcpConfig> {
        &mut net.tcp
    }

    fn new_flow(hdr: FlowHeader, cfg: &TcpConfig, _now: SimTime, active: bool) -> Flow {
        Flow::new(hdr, cfg, if active { State::SynSent } else { State::SynRcvd })
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
    fn start_active(flow: &mut Flow, cfg: &TcpConfig, _rec: &Recorder, now: SimTime, out: &mut Vec<Action>) {
        let seg = TcpSegment {
            seq: 0,
            ack: 0,
            flags: SegFlags {
                syn: true,
                ack: false,
                fin: false,
            },
            wnd: my_wnd(flow, cfg),
            ts: now,
            ts_echo: None,
            holes: SeqRanges::default(),
            payload: Bytes::new(),
        };
        queue_syn(flow, seg, now, out);
    }

    /// Answers the SYN with a SYN-ACK.
    fn start_passive(
        flow: &mut Flow,
        cfg: &TcpConfig,
        _rec: &Recorder,
        now: SimTime,
        out: &mut Vec<Action>,
        seg: TcpSegment,
    ) {
        flow.rcv_nxt = seg.seq + 1;
        flow.ts_recent = Some(seg.ts);
        flow.peer_wnd = seg.wnd;
        let synack = TcpSegment {
            seq: 0,
            ack: flow.rcv_nxt,
            flags: SegFlags {
                syn: true,
                ack: true,
                fin: false,
            },
            wnd: my_wnd(flow, cfg),
            ts: now,
            ts_echo: flow.ts_recent,
            holes: SeqRanges::default(),
            payload: Bytes::new(),
        };
        queue_syn(flow, synack, now, out);
    }

    fn on_wire(
        flow: &mut Flow,
        cfg: &TcpConfig,
        rec: &Recorder,
        now: SimTime,
        out: &mut Vec<Action>,
        seg: TcpSegment,
    ) {
        match flow.state {
            State::Closed => {
                // Re-acknowledge a retransmitted FIN so the peer can finish.
                if seg.flags.fin {
                    out.push(Action::Send(pure_ack(flow, cfg, now)));
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
                    flow.sent.retain(|s| s.seq >= flow.snd_una);
                    flow.peer_wnd = seg.wnd;
                    // A completed handshake breaks any SYN timeout streak;
                    // without this reset the first post-handshake RTO would
                    // report `consecutive > 1` against a freshly measured
                    // RTO, which violates the doubling invariant the
                    // oracle checks.
                    flow.consecutive_timeouts = 0;
                    disarm_rto(flow);
                    if !flow.connected_notified {
                        flow.connected_notified = true;
                        out.push(Action::Connected);
                    }
                    // The final handshake ACK may carry data.
                    if !seg.payload.is_empty() || seg.flags.fin {
                        receive_data(flow, cfg, seg, now, out);
                    }
                    try_send(flow, cfg, rec, now, out);
                } else if seg.flags.syn && !seg.flags.ack {
                    // Duplicate SYN: retransmit SYN-ACK.
                    retransmit_first(flow, cfg, rec, now, out);
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
        out: &mut Vec<Action>,
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

    fn kill(flow: &mut Flow, rec: &Recorder, now: SimTime) {
        flow.state = State::Closed;
        flow.rto_armed = false;
        flow.pacer_armed = false;
        flow.delack_pending = 0;
        // Fresh containers rather than clear(): a killed flow's slot
        // lingers in the slab, and VecDeque::clear keeps its ring
        // buffer allocated (the B-tree containers free on clear).
        flow.send_q = VecDeque::new();
        flow.send_q_bytes = 0;
        close_all_seg_spans(flow, rec, now);
        flow.sent = VecDeque::new();
        flow.lost.clear();
        flow.ooo.clear();
        flow.ooo_bytes = 0;
    }

    fn debug_state(flow: Option<&Flow>, out: &mut fmt::DebugStruct<'_, '_>) {
        out.field("state", &flow.map(|fl| fl.state));
    }
}

/// Puts the opening SYN or SYN-ACK in flight: sequence number 0, covered by
/// the retransmission timer like any other unacknowledged segment.
fn queue_syn(flow: &mut Flow, seg: TcpSegment, now: SimTime, out: &mut Vec<Action>) {
    flow.sent.push_back(SentSeg {
        seq: 0,
        payload: Bytes::new(),
        syn: true,
        fin: false,
        retransmitted: false,
        last_rexmit: None,
        span: 0,
    });
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
    out: &mut Vec<Action>,
) {
    flow.state = State::Established;
    flow.snd_una = seg.ack;
    flow.sent.clear();
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
    flow.connected_notified = true;
    out.push(Action::Connected);
    // Pure ACK completes the handshake; data may follow immediately.
    out.push(Action::Send(pure_ack(flow, cfg, now)));
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
    let Flow { cwnd, ssthresh, cc, .. } = flow;
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

fn pure_ack(flow: &Flow, cfg: &TcpConfig, now: SimTime) -> TcpSegment {
    TcpSegment {
        seq: flow.snd_nxt,
        ack: flow.rcv_nxt,
        flags: SegFlags {
            syn: false,
            ack: true,
            fin: false,
        },
        wnd: my_wnd(flow, cfg),
        ts: now,
        ts_echo: flow.ts_recent,
        holes: compute_holes(flow),
        payload: Bytes::new(),
    }
}

/// The receiver's missing `[from, to)` byte ranges below its highest
/// buffered out-of-order segment (capped at 16).
fn compute_holes(flow: &Flow) -> SeqRanges {
    if flow.ooo.is_empty() {
        return SeqRanges::default();
    }
    let mut holes = [(0, 0); 16];
    let mut n = 0;
    let mut expect = flow.rcv_nxt;
    for (&seq, data) in &flow.ooo {
        if seq > expect {
            holes[n] = (expect, seq);
            n += 1;
            if n == holes.len() {
                break;
            }
        }
        expect = expect.max(seq + data.len() as u64);
    }
    SeqRanges::from(&holes[..n])
}

fn arm_rto(flow: &mut Flow, now: SimTime, out: &mut Vec<Action>) {
    flow.rto_armed = true;
    out.push(flow.rto_timer.arm(KIND_RTO, now, flow.rto));
}

/// Schedules a pacer wake-up at the flow's next pacing gate (rate-based
/// controllers only). Idempotent per gate: re-arming moves the deadline and
/// earlier firings go stale.
fn arm_pacer(flow: &mut Flow, now: SimTime, out: &mut Vec<Action>) {
    if flow.pacer_armed && flow.pacer_deadline == flow.pacer_next {
        return;
    }
    flow.pacer_armed = true;
    flow.pacer_deadline = flow.pacer_next;
    let delay = flow.pacer_next.duration_since(now);
    out.push(Action::Arm { kind: KIND_PACER, delay, aux: 0 });
}

fn disarm_rto(flow: &mut Flow) {
    flow.rto_armed = false;
}

fn retransmit_first(
    flow: &mut Flow,
    cfg: &TcpConfig,
    rec: &Recorder,
    now: SimTime,
    out: &mut Vec<Action>,
) {
    let wnd = my_wnd(flow, cfg);
    let rcv_nxt = flow.rcv_nxt;
    let ts_echo = flow.ts_recent;
    let is_syn_sent = flow.state == State::SynSent;
    let conn_id = flow.hdr.conn_id;
    let Some(seg) = flow.sent.front_mut() else {
        return;
    };
    seg.retransmitted = true;
    let seq = seg.seq;
    let segment = TcpSegment {
        seq,
        ack: rcv_nxt,
        flags: SegFlags {
            syn: seg.syn,
            ack: !is_syn_sent,
            fin: seg.fin,
        },
        wnd,
        ts: now,
        ts_echo,
        holes: SeqRanges::default(),
        payload: seg.payload.clone(),
    };
    flow.stats.retransmits += 1;
    rec.record(
        now.as_nanos(),
        EventKind::TcpRetransmit {
            conn: conn_id,
            seq,
            fast: false,
        },
    );
    out.push(Action::Send(segment));
}

fn process_ack(
    flow: &mut Flow,
    cfg: &TcpConfig,
    rec: &Recorder,
    seg: &TcpSegment,
    now: SimTime,
    out: &mut Vec<Action>,
) {
    // An acknowledgement of what was never sent is not acceptable (RFC 793).
    if seg.ack > flow.snd_nxt {
        return;
    }
    flow.peer_wnd = seg.wnd;
    note_holes(flow, cfg, rec, &seg.holes, now);
    if seg.ack > flow.snd_una {
        let newly = seg.ack - flow.snd_una;
        flow.snd_una = seg.ack;
        flow.consecutive_timeouts = 0;
        // Release every segment that starts below the acknowledgement,
        // closing their `seg` spans in sequence order (close key records
        // whether the segment needed retransmission).
        let mut acked: u64 = 0;
        while let Some(s) = flow.sent.front() {
            if s.seq >= seg.ack {
                break;
            }
            acked += s.payload.len() as u64;
            let key = if s.retransmitted { SEG_REXMIT } else { SEG_ACKED };
            close_seg_span(rec, now, s.span, key);
            flow.sent.pop_front();
        }
        release_drained(&mut flow.sent);
        flow.unacked_bytes = flow.unacked_bytes.saturating_sub(acked as usize);
        flow.stats.bytes_acked += acked;
        if let Some(echo) = seg.ts_echo {
            update_rtt(flow, cfg, now, echo);
        }
        if flow.fin_sent && seg.ack > flow.fin_seq {
            flow.fin_acked = true;
        }
        // Drop stale loss markers.
        while flow.lost.first().is_some_and(|&s| s < seg.ack) {
            flow.lost.pop_first();
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
        if cfg.ack_progress_events && acked > 0 {
            flow.app_blocked = false;
            out.push(Action::Writable);
        } else {
            maybe_writable(flow, cfg, out);
        }
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
) {
    if holes.is_empty() {
        return;
    }
    let srtt = flow.srtt.unwrap_or(0.1);
    let reinsert_after = Duration::from_secs_f64((srtt * 1.2).max(0.005));
    let mut fresh_loss = false;
    for &(from, to) in holes {
        // The segments that start in `[from, to)`.
        let starts = flow.sent.partition_point(|s| s.seq < from);
        let ends = flow.sent.partition_point(|s| s.seq < to);
        for i in starts..ends {
            let seg = &flow.sent[i];
            if seg.seq < flow.snd_una || flow.lost.contains(&seg.seq) {
                continue;
            }
            let eligible = seg
                .last_rexmit
                .is_none_or(|t| now.duration_since(t) >= reinsert_after);
            if eligible {
                flow.lost.insert(seg.seq);
                if seg.last_rexmit.is_none() {
                    fresh_loss = true;
                }
            }
        }
    }
    if fresh_loss && !flow.in_recovery && !cfg.buggy_no_fast_recovery {
        flow.in_recovery = true;
        flow.recover = flow.snd_nxt;
        flow.stats.fast_recoveries += 1;
        with_cc(flow, cfg, rec, |cc, ctx| cc.on_loss(ctx, now));
    }
}

/// Retransmits queued-lost segments, paced by the congestion window: each
/// invocation (i.e. each returning ACK) may resend up to `cwnd/4` worth of
/// segments, so recovery self-clocks and ramps with slow start after an RTO.
fn resend_lost(
    flow: &mut Flow,
    cfg: &TcpConfig,
    rec: &Recorder,
    now: SimTime,
    out: &mut Vec<Action>,
) {
    let budget = ((flow.cwnd / cfg.mss as f64 / 4.0) as usize).max(1);
    let mut sent = 0;
    while sent < budget {
        let Some(seq) = flow.lost.pop_first() else {
            break;
        };
        if seq < flow.snd_una {
            continue;
        }
        let wnd = my_wnd(flow, cfg);
        let rcv_nxt = flow.rcv_nxt;
        let ts_echo = flow.ts_recent;
        let conn_id = flow.hdr.conn_id;
        let Ok(at) = flow.sent.binary_search_by_key(&seq, |s| s.seq) else {
            continue;
        };
        let seg = &mut flow.sent[at];
        seg.retransmitted = true;
        seg.last_rexmit = Some(now);
        let segment = TcpSegment {
            seq,
            ack: rcv_nxt,
            flags: SegFlags {
                syn: seg.syn,
                ack: true,
                fin: seg.fin,
            },
            wnd,
            ts: now,
            ts_echo,
            holes: SeqRanges::default(),
            payload: seg.payload.clone(),
        };
        flow.stats.retransmits += 1;
        rec.record(
            now.as_nanos(),
            EventKind::TcpRetransmit {
                conn: conn_id,
                seq,
                fast: true,
            },
        );
        out.push(Action::Send(segment));
        sent += 1;
    }
}

fn receive_data(
    flow: &mut Flow,
    cfg: &TcpConfig,
    seg: TcpSegment,
    now: SimTime,
    out: &mut Vec<Action>,
) {
    let plen = seg.payload.len();
    if seg.flags.fin {
        flow.peer_fin_seq = seg.seq + plen as u64;
    }
    let seq = seg.seq;
    if plen > 0 {
        if seq == flow.rcv_nxt {
            flow.ts_recent = Some(seg.ts);
            flow.rcv_nxt += plen as u64;
            flow.stats.bytes_delivered += plen as u64;
            // The segment is consumed here, so its payload handle moves
            // straight into the delivery without a refcount round-trip.
            out.push(Action::Deliver(seg.payload));
            // Drain any now-contiguous out-of-order data.
            while let Some(entry) = flow.ooo.first_entry() {
                if *entry.key() != flow.rcv_nxt {
                    break;
                }
                let data = entry.remove();
                flow.ooo_bytes -= data.len();
                flow.rcv_nxt += data.len() as u64;
                flow.stats.bytes_delivered += data.len() as u64;
                out.push(Action::Deliver(data));
            }
            schedule_ack(flow, cfg, now, out, false);
        } else if seq > flow.rcv_nxt {
            // Out of order: buffer if the receive buffer allows, dup-ACK
            // immediately either way.
            if !flow.ooo.contains_key(&seq) && flow.ooo_bytes + plen <= cfg.recv_buf {
                flow.ooo_bytes += plen;
                flow.ooo.insert(seq, seg.payload);
            }
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

fn schedule_ack(
    flow: &mut Flow,
    cfg: &TcpConfig,
    now: SimTime,
    out: &mut Vec<Action>,
    immediate: bool,
) {
    if immediate || flow.delack_pending >= 1 {
        // Clearing the pending count cancels any outstanding delack timer:
        // it fires, sees `delack_pending == 0`, and no-ops.
        flow.delack_pending = 0;
        out.push(Action::Send(pure_ack(flow, cfg, now)));
    } else {
        flow.delack_pending += 1;
        out.push(flow.delack_timer.arm(KIND_DELACK, now, cfg.delack_timeout));
    }
}

fn try_send(
    flow: &mut Flow,
    cfg: &TcpConfig,
    rec: &Recorder,
    now: SimTime,
    out: &mut Vec<Action>,
) {
    if flow.state != State::Established {
        return;
    }
    loop {
        let wnd = flow.send_window();
        if flow.flight() >= wnd {
            break;
        }
        if flow.send_q.is_empty() {
            if flow.fin_queued && !flow.fin_sent {
                let seg = TcpSegment {
                    seq: flow.snd_nxt,
                    ack: flow.rcv_nxt,
                    flags: SegFlags {
                        syn: false,
                        ack: true,
                        fin: true,
                    },
                    wnd: my_wnd(flow, cfg),
                    ts: now,
                    ts_echo: flow.ts_recent,
                    holes: SeqRanges::default(),
                    payload: Bytes::new(),
                };
                flow.fin_seq = flow.snd_nxt;
                flow.fin_sent = true;
                flow.sent.push_back(SentSeg {
                    seq: flow.snd_nxt,
                    payload: Bytes::new(),
                    syn: false,
                    fin: true,
                    retransmitted: false,
                    last_rexmit: None,
                    span: 0,
                });
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
        let head = flow.send_q.front_mut().expect("non-empty send queue");
        let take = head.len().min(cfg.mss);
        let payload = head.split_to(take);
        if head.is_empty() {
            flow.send_q.pop_front();
            release_drained(&mut flow.send_q);
        }
        flow.send_q_bytes -= take;
        let seg = TcpSegment {
            seq: flow.snd_nxt,
            ack: flow.rcv_nxt,
            flags: SegFlags {
                syn: false,
                ack: true,
                fin: false,
            },
            wnd: my_wnd(flow, cfg),
            ts: now,
            ts_echo: flow.ts_recent,
            holes: SeqRanges::default(),
            payload: payload.clone(),
        };
        flow.sent.push_back(SentSeg {
            seq: flow.snd_nxt,
            payload,
            syn: false,
            fin: false,
            retransmitted: false,
            last_rexmit: None,
            span: open_seg_span(rec, now, flow.hdr.conn_id, flow.snd_nxt),
        });
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

fn maybe_writable(flow: &mut Flow, cfg: &TcpConfig, out: &mut Vec<Action>) {
    // `unacked_bytes` counts everything accepted but not yet acknowledged
    // (queued + in flight), i.e. the occupied send buffer.
    if flow.app_blocked && cfg.send_buf.saturating_sub(flow.unacked_bytes) >= cfg.mss {
        flow.app_blocked = false;
        out.push(Action::Writable);
    }
}

fn maybe_close(flow: &mut Flow, rec: &Recorder, now: SimTime, out: &mut Vec<Action>) {
    if flow.hdr.closed_notified || flow.state == State::Closed {
        return;
    }
    let local_done = !flow.fin_queued || flow.fin_acked;
    if flow.fin_received && local_done {
        flow.state = State::Closed;
        flow.hdr.closed_notified = true;
        close_all_seg_spans(flow, rec, now);
        disarm_rto(flow);
        out.push(Action::Closed(CloseReason::Normal));
    } else if flow.fin_queued && flow.fin_acked && !flow.fin_received {
        // We initiated and the peer acknowledged; linger until the peer's
        // FIN or just report closure (simplified half-close).
        flow.state = State::Closed;
        flow.hdr.closed_notified = true;
        close_all_seg_spans(flow, rec, now);
        disarm_rto(flow);
        out.push(Action::Closed(CloseReason::Normal));
    }
}

/// A simulated TCP connection handle.
pub type TcpConn = Conn<TcpConfig>;

impl TcpConn {
    /// Whether the handshake completed and the connection is open.
    #[must_use]
    pub fn is_established(&self) -> bool {
        self.peek(|f, _| f.state == State::Established)
            .unwrap_or(false)
    }

    /// Appends bytes to the send buffer; returns how many were accepted.
    pub fn send(&self, data: Bytes) -> usize {
        let mut accepted = 0;
        self.process(|flow, cfg, rec, now, out| {
            if flow.state == State::Closed || flow.fin_queued {
                return;
            }
            let space = cfg.send_buf.saturating_sub(flow.unacked_bytes);
            let take = space.min(data.len());
            if take < data.len() {
                flow.app_blocked = true;
            }
            if take > 0 {
                let chunk = data.slice(0..take);
                flow.send_q_bytes += take;
                flow.unacked_bytes += take;
                flow.stats.bytes_sent += take as u64;
                flow.send_q.push_back(chunk);
                try_send(flow, cfg, rec, now, out);
            }
            accepted = take;
        });
        accepted
    }

    /// Free space in the send buffer.
    #[must_use]
    pub fn free_send_buffer(&self) -> usize {
        self.peek(|f, cfg| cfg.send_buf.saturating_sub(f.unacked_bytes))
            .unwrap_or(0)
    }

    /// Bytes accepted but not yet acknowledged by the peer (queued + in
    /// flight).
    #[must_use]
    pub fn unacked_bytes(&self) -> usize {
        self.peek(|f, _| f.unacked_bytes).unwrap_or(0)
    }

    /// Cumulative payload bytes acknowledged by the peer.
    #[must_use]
    pub fn acked_bytes(&self) -> u64 {
        self.peek(|f, _| f.stats.bytes_acked).unwrap_or(0)
    }

    /// Smoothed RTT estimate, if any ACK carried a timestamp echo yet.
    #[must_use]
    pub fn rtt_estimate(&self) -> Option<Duration> {
        self.peek(|f, _| f.srtt)?.map(Duration::from_secs_f64)
    }

    /// Orderly close: a FIN is sent after all buffered data.
    pub fn close(&self) {
        self.process(|flow, cfg, rec, now, out| {
            if flow.fin_queued || flow.state == State::Closed {
                return;
            }
            flow.fin_queued = true;
            try_send(flow, cfg, rec, now, out);
        });
    }

    /// Per-connection counters.
    #[must_use]
    pub fn stats(&self) -> TcpConnStats {
        self.peek(|f, _| f.stats).unwrap_or_default()
    }

    /// Current congestion window in bytes (diagnostics).
    #[must_use]
    pub fn cwnd(&self) -> f64 {
        self.peek(|f, _| f.cwnd).unwrap_or(0.0)
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
            && self.delack_pending == 0
            && self.send_q.capacity() == 0
            && self.send_q_bytes == 0
            && self.sent.capacity() == 0
            && self.lost.is_empty()
            && self.ooo.is_empty()
            && self.ooo_bytes == 0
    }

    /// `(snd_una, snd_nxt)`.
    pub(crate) fn unacked(&self) -> (u64, u64) {
        (self.snd_una, self.snd_nxt)
    }

    /// First sequence number of every segment in the retransmission queue,
    /// in queue order.
    fn sent_seqs(&self) -> Vec<u64> {
        self.sent.iter().map(|s| s.seq).collect()
    }

    /// The queued segments that have been retransmitted, likewise.
    fn rexmit_seqs(&self) -> Vec<u64> {
        let rexmit = self.sent.iter().filter(|s| s.retransmitted);
        rexmit.map(|s| s.seq).collect()
    }

    /// The loss markers, ascending.
    fn lost_seqs(&self) -> Vec<u64> {
        self.lost.iter().copied().collect()
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
    use crate::network::Network;
    use crate::packet::{Endpoint, NodeId};
    use crate::link::LinkConfig;
    use crate::testutil::{CollectingTracer, PatternSender, Recorder, SinkEvents};
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
    fn handshake_completes() {
        let (sim, net, a, b) = setup(LinkConfig::new(10e6, Duration::from_millis(5)));
        let server = Arc::new(Recorder::default());
        let _listener = TcpListener::bind(
            &net,
            b,
            80,
            TcpConfig::default(),
            Arc::new(AcceptRecorder { rec: server.clone() }),
        )
        .unwrap();
        let client = Arc::new(Recorder::default());
        let conn = TcpConn::connect(
            &net,
            a,
            Endpoint::new(b, 80),
            TcpConfig::default(),
            client.clone(),
        )
        .unwrap();
        assert!(!conn.is_established());
        sim.run_for(Duration::from_secs(1));
        assert!(conn.is_established());
        assert_eq!(client.connected(), 1);
        assert_eq!(server.connected(), 1);
    }

    #[test]
    fn small_transfer_delivers_in_order() {
        let (sim, net, a, b) = setup(LinkConfig::new(10e6, Duration::from_millis(5)));
        let server = Arc::new(Recorder::default());
        let _l = TcpListener::bind(
            &net,
            b,
            80,
            TcpConfig::default(),
            Arc::new(AcceptRecorder { rec: server.clone() }),
        )
        .unwrap();
        let client = Arc::new(Recorder::default());
        let conn = TcpConn::connect(
            &net,
            a,
            Endpoint::new(b, 80),
            TcpConfig::default(),
            client,
        )
        .unwrap();
        let msg: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let accepted = conn.send(Bytes::from(msg.clone()));
        assert_eq!(accepted, msg.len());
        sim.run_for(Duration::from_secs(2));
        assert_eq!(server.data(), msg);
        assert_eq!(conn.stats().retransmits, 0);
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
            Arc::new(AcceptRecorder { rec: server.clone() }),
        )
        .unwrap();
        let total = 20_000_000usize; // 20 MB over a 10 MB/s link: ~2 s
        let pump = PatternSender::new(&sim, total);
        let conn = TcpConn::connect(&net, a, Endpoint::new(b, 80), TcpConfig::default(), pump)
            .unwrap();
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
    fn recovers_from_random_loss() {
        let (sim, net, a, b) = setup(
            LinkConfig::new(10e6, Duration::from_millis(10)).random_loss(0.01),
        );
        let server = Arc::new(Recorder::default());
        let _l = TcpListener::bind(
            &net,
            b,
            80,
            TcpConfig::default(),
            Arc::new(AcceptRecorder { rec: server.clone() }),
        )
        .unwrap();
        let total = 2_000_000usize;
        let pump = PatternSender::new(&sim, total);
        let conn =
            TcpConn::connect(&net, a, Endpoint::new(b, 80), TcpConfig::default(), pump).unwrap();
        sim.run_for(Duration::from_secs(60));
        assert_eq!(server.data_len(), total, "reliable despite 1% loss");
        assert!(conn.stats().retransmits > 0, "loss must trigger retransmits");
        assert!(server.in_order(), "delivery must stay in order");
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
            Arc::new(AcceptRecorder { rec: server.clone() }),
        )
        .unwrap();
        let total = 10_000_000usize;
        let pump = PatternSender::new(&sim, total);
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
    fn send_buffer_backpressure_and_writable() {
        let cfg = TcpConfig {
            send_buf: 64 * 1024,
            ..TcpConfig::default()
        };
        let (sim, net, a, b) = setup(LinkConfig::new(1e6, Duration::from_millis(5)));
        let server = Arc::new(Recorder::default());
        let _l = TcpListener::bind(
            &net,
            b,
            80,
            TcpConfig::default(),
            Arc::new(AcceptRecorder { rec: server.clone() }),
        )
        .unwrap();
        let client = Arc::new(Recorder::default());
        let conn = TcpConn::connect(&net, a, Endpoint::new(b, 80), cfg, client.clone()).unwrap();
        sim.run_for(Duration::from_millis(100));
        let big = Bytes::from(vec![7u8; 200 * 1024]);
        let accepted = conn.send(big);
        assert!(accepted < 200 * 1024, "send buffer must refuse the excess");
        assert!(accepted >= 63 * 1024);
        sim.run_for(Duration::from_secs(5));
        assert!(client.writable() > 0, "writable notification expected");
    }

    #[test]
    fn close_notifies_both_sides() {
        let (sim, net, a, b) = setup(LinkConfig::new(10e6, Duration::from_millis(2)));
        let server = Arc::new(Recorder::default());
        let _l = TcpListener::bind(
            &net,
            b,
            80,
            TcpConfig::default(),
            Arc::new(AcceptRecorder { rec: server.clone() }),
        )
        .unwrap();
        let client = Arc::new(Recorder::default());
        let conn = TcpConn::connect(
            &net,
            a,
            Endpoint::new(b, 80),
            TcpConfig::default(),
            client.clone(),
        )
        .unwrap();
        conn.send(Bytes::from_static(b"bye"));
        conn.close();
        sim.run_for(Duration::from_secs(5));
        assert_eq!(server.data(), b"bye");
        assert!(server.closed() >= 1, "server should observe the close");
        assert!(client.closed() >= 1, "client should observe FIN-ACK close");
    }

    #[test]
    fn connect_to_black_hole_times_out() {
        let (sim, net, a, b) = setup(LinkConfig::new(10e6, Duration::from_millis(2)));
        let client = Arc::new(Recorder::default());
        let cfg = TcpConfig {
            syn_retries: 2,
            ..TcpConfig::default()
        };
        let conn = TcpConn::connect(&net, a, Endpoint::new(b, 81), cfg, client.clone()).unwrap();
        sim.run_for(Duration::from_secs(120));
        assert!(!conn.is_established());
        assert_eq!(client.closed(), 1, "connect failure reported as close");
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
        let conn = TcpConn::connect(
            &net,
            a,
            Endpoint::new(b, 80),
            TcpConfig::default(),
            client,
        )
        .unwrap();
        conn.send(Bytes::from(vec![1u8; 100_000]));
        sim.run_for(Duration::from_secs(3));
        let rtt = conn.rtt_estimate().expect("rtt sampled").as_secs_f64();
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
        assert_eq!(conn.peek(|f, _| f.sent_seqs()), Some(seqs));
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
        assert_eq!(conn.peek(|f, _| f.sent_seqs()), Some(vec![1 + 2 * MSS]));
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
            conn.process(|flow, cfg, rec, now, _out| {
                note_holes(flow, cfg, rec, holes, now);
            });
            conn.peek(|f, _| f.lost_seqs()).unwrap()
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
        assert_eq!(conn.peek(|f, _| f.rexmit_seqs()), Some(vec![1]));
        assert_eq!(
            conn.peek(|f, _| f.lost_seqs()),
            Some(vec![1 + MSS, 1 + 2 * MSS, 1 + 3 * MSS])
        );
        // Each returning ACK clocks out the next one up.
        arrive(&conn, forged_ack(1));
        assert_eq!(conn.peek(|f, _| f.rexmit_seqs()), Some(vec![1, 1 + MSS]));
        assert_eq!(
            conn.peek(|f, _| f.lost_seqs()),
            Some(vec![1 + 2 * MSS, 1 + 3 * MSS])
        );
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
        assert_eq!(sim.events_pending(), before + 1, "an earlier deadline files one event");
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
            assert_eq!(at_probe, u64::from(!away), "timeouts when the probe ran, away: {away}");
        }
    }

    #[test]
    fn a_cancelled_delayed_ack_stays_silent() {
        let (sim, net, conn) = dark_flow(0);
        let data = |seq| TcpSegment {
            payload: Bytes::from_static(&[1; 10]),
            ..forged_ack(seq)
        };
        let sent = net.stats().sent;
        arrive(&conn, data(1));
        sim.run_for(Duration::from_millis(100));
        assert_eq!(net.stats().sent, sent + 1, "the delayed ACK of a lone segment");
        // The second segment is acknowledged at once, cancelling the
        // delayed ACK the first armed.
        arrive(&conn, data(11));
        arrive(&conn, data(21));
        let sent = net.stats().sent;
        sim.run_for(Duration::from_millis(100));
        assert_eq!(net.stats().sent, sent);
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
        let accept = Arc::new(AcceptRecorder { rec: Arc::new(Recorder::default()) });
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
            assert_eq!(conn.send(Bytes::from(vec![7u8; MSS as usize])), MSS as usize);
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

    #[test]
    fn sinkevents_trait_object_compiles() {
        // Connection enum works through the shared StreamEvents trait.
        let ev: Arc<dyn StreamEvents> = Arc::new(SinkEvents);
        let _ = ev;
    }
}
