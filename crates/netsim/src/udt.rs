//! Packet-level simulated UDT (UDP-based Data Transfer protocol,
//! Gu & Grossman 2007).
//!
//! UDT is a reliable, ordered stream over UDP with *rate-based* congestion
//! control (DAIMD): the sender paces packets at an inter-packet period,
//! increases its rate every `SYN` (10 ms) interval proportionally to the
//! estimated residual bandwidth, and multiplicatively backs off by 1/9 when
//! the receiver reports loss via NAK packets. Link capacity is estimated
//! from packet pairs (every 16th packet is sent back to back). Because loss
//! recovery is NAK-driven rather than window-driven, UDT sustains high
//! throughput on high bandwidth-delay-product paths where TCP collapses —
//! the core phenomenon of the paper's Figure 9.
//!
//! Two calibrated costs mirror the paper's observations:
//!
//! * a per-packet **receive-processing delay** (Netty/UDT implementation
//!   overhead) that caps UDT near ~11 MB/s even on loopback, and
//! * the UDP **policer** on EC2-like links (see
//!   [`PolicerConfig::ec2_udp`](crate::link::PolicerConfig::ec2_udp)) that
//!   pins wide-area UDT near 10 MB/s.
//!
//! The protocol buffer sizes (paper: raised from 12 MB to 100 MB) bound the
//! flow window; an undersized buffer caps throughput at `window/RTT`,
//! reproducing why the authors had to raise it.
//!
//! # Flow storage
//!
//! Slab, demux, listeners, timer arming and handle lifetime are the shared
//! [`crate::flowstack`] core; this file is what is actually UDT: config,
//! packet format, the [`Flow`] state machine — steps of one flow, which
//! never see a lock — and its five timers (pacer, `SYN` tick, expiration
//! tick, receive-processing completion, handshake retry).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::time::Duration;

use bytes::Bytes;
use kmsg_telemetry::{EventKind, Recorder, SpanKind};

use crate::flowstack::{self, release_drained, Conn, FlowHeader, FlowTable, Listener, Protocol};
use crate::iface::{CloseReason, Connection};
use crate::memscope;
use crate::network::NetInner;
use crate::packet::{PacketBody, SeqRanges, WireProtocol};
use crate::time::SimTime;

/// UDT tuning parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct UdtConfig {
    /// Payload bytes per data packet.
    pub mss: usize,
    /// Send (protocol) buffer in bytes. The paper's deployment default was
    /// 12 MB, raised to 100 MB for high-BDP links.
    pub snd_buf: usize,
    /// Receive (protocol) buffer in bytes; advertised as the flow window.
    pub rcv_buf: usize,
    /// Rate-control interval (UDT's `SYN`).
    pub syn: Duration,
    /// Initial sending rate in packets per second.
    pub initial_rate_pps: f64,
    /// Per-packet receive processing time (implementation overhead).
    /// `Duration::ZERO` disables the bottleneck.
    pub rx_proc_delay: Duration,
    /// Receive processing queue depth in packets; overflow drops packets.
    pub rx_proc_backlog: usize,
    /// Expiration timeout: with in-flight data and no feedback for this
    /// long, everything unacknowledged is scheduled for retransmission.
    pub exp_timeout: Duration,
    /// How many consecutive expirations before the connection is declared
    /// dead.
    pub max_expirations: u32,
    /// Fire `on_writable` on every acknowledgement that frees send-buffer
    /// space (delivery-progress tracking for middleware).
    pub ack_progress_events: bool,
}

impl Default for UdtConfig {
    fn default() -> Self {
        UdtConfig {
            mss: 1448,
            snd_buf: 12 * 1024 * 1024,
            rcv_buf: 12 * 1024 * 1024,
            syn: Duration::from_millis(10),
            initial_rate_pps: 1000.0,
            rx_proc_delay: Duration::from_micros(130),
            rx_proc_backlog: 2048,
            exp_timeout: Duration::from_millis(300),
            max_expirations: 30,
            ack_progress_events: true,
        }
    }
}

impl UdtConfig {
    /// The paper's tuned configuration: 100 MB protocol buffers.
    #[must_use]
    pub fn tuned_buffers() -> Self {
        UdtConfig {
            snd_buf: 100 * 1024 * 1024,
            rcv_buf: 100 * 1024 * 1024,
            ..UdtConfig::default()
        }
    }
}

/// UDT control & data packets.
#[derive(Debug, Clone)]
pub enum UdtPacket {
    /// Connection request carrying the sender's flow window (receive buffer).
    Handshake {
        /// Advertised receive buffer in bytes.
        flow_window: u64,
    },
    /// Connection confirmation.
    HandshakeAck {
        /// Advertised receive buffer in bytes.
        flow_window: u64,
    },
    /// A data packet.
    Data {
        /// Packet sequence number.
        seq: u64,
        /// Whether this packet is the second of a back-to-back packet pair
        /// (bandwidth probe).
        probe: bool,
        /// Payload bytes.
        payload: Bytes,
    },
    /// Cumulative acknowledgement, sent every `SYN` interval.
    Ack {
        /// Next expected in-order packet sequence.
        ack_seq: u64,
        /// Receiver's observed arrival rate, packets/s.
        rcv_rate_pps: f64,
        /// Receiver's packet-pair link capacity estimate, packets/s.
        capacity_pps: f64,
    },
    /// Negative acknowledgement listing lost packet ranges (inclusive).
    Nak {
        /// Lost `(from, to)` ranges, inclusive.
        ranges: SeqRanges,
    },
    /// Orderly shutdown after `final_seq` packets.
    Fin {
        /// Total number of data packets in the stream.
        final_seq: u64,
    },
    /// Confirms a [`UdtPacket::Fin`] after full delivery.
    FinAck,
}

impl UdtPacket {
    fn payload_len(&self) -> usize {
        match self {
            UdtPacket::Data { payload, .. } => payload.len(),
            UdtPacket::Nak { ranges } => 8 + ranges.len() * 16,
            _ => 16,
        }
    }
}

/// Per-connection counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UdtConnStats {
    /// Payload bytes accepted from the application.
    pub bytes_sent: u64,
    /// Payload bytes acknowledged by the receiver.
    pub bytes_acked: u64,
    /// Payload bytes delivered to the application.
    pub bytes_delivered: u64,
    /// Data packets transmitted (including retransmissions).
    pub packets_sent: u64,
    /// Data packets retransmitted.
    pub retransmits: u64,
    /// NAKs received (sender side).
    pub naks_received: u64,
    /// Multiplicative rate decreases performed.
    pub rate_decreases: u64,
    /// Packets dropped by the receive-processing queue.
    pub rx_proc_drops: u64,
    /// Expiration events (no feedback while data in flight).
    pub expirations: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Connecting,
    Established,
    Closed,
}

/// Per-flow timer kinds (see the token layout in [`crate::flowstack`]).
///
/// The token's `aux` word carries the pacer generation (truncated to 32
/// bits and compared truncated on both sides) for `KIND_PACER`, and the
/// attempt counter for `KIND_HS_RETRY`; the periodic ticks and the
/// receive-processing queue don't need it (processing completions are
/// consumed strictly in FIFO order from the flow's own queue).
const KIND_PACER: u64 = 0;
const KIND_SYN_TICK: u64 = 1;
const KIND_EXP_TICK: u64 = 2;
const KIND_PROC: u64 = 3;
const KIND_HS_RETRY: u64 = 4;

/// Packet-pair capacity samples kept for the median.
const PAIR_SAMPLES: usize = 16;

/// Full per-flow UDT state: one slab slot, no interior `Arc`s.
pub(crate) struct Flow {
    hdr: FlowHeader,
    state: State,
    /// Whether this side sent the initial handshake (diagnostics / Debug).
    is_initiator: bool,
    handshake_sent_at: SimTime,
    rtt: Option<f64>,

    // --- sender side ---
    send_q: VecDeque<Bytes>,
    send_q_bytes: usize,
    unacked_bytes: usize,
    /// The send buffer: packet `snd_una + i` at index `i`. Sequence numbers
    /// are consecutive, so a packet is appended at `snd_nxt` and released
    /// from the front.
    packets: VecDeque<Bytes>,
    snd_nxt: u64,
    snd_una: u64,
    loss_list: BTreeSet<u64>,
    /// Raw `nak_recovery` causal-span id covering the window from the
    /// first loss-listed sequence to the loss list draining (0 outside a
    /// recovery episode or while tracing is off).
    nak_span: u64,
    snd_period_us: f64,
    last_dec_seq: u64,
    last_dec_at: SimTime,
    nak_in_syn: bool,
    sent_in_syn: u64,
    capacity_est_pps: f64,
    peer_flow_window: u64,
    pacer_active: bool,
    pacer_gen: u64,
    fin_queued: bool,
    fin_sent: bool,
    fin_acked: bool,
    last_feedback_at: SimTime,
    last_progress_at: SimTime,
    expirations_in_row: u32,

    // --- receiver side ---
    rcv_nxt: u64,
    expected_max: u64,
    ooo: BTreeMap<u64, Bytes>,
    ooo_bytes: usize,
    missing: BTreeSet<u64>,
    pkts_since_ack: u64,
    rate_ewma_pps: f64,
    prev_arrival: Option<(u64, SimTime)>,
    pair_samples: VecDeque<f64>,
    proc_busy_until: SimTime,
    /// Packets waiting in the modelled receive-processing queue, in
    /// completion order. `proc_busy_until` is monotone, so completion
    /// events fire in push order and each pops the front.
    proc_fifo: VecDeque<(u64, bool)>,
    peer_fin_seq: Option<u64>,

    // --- notifications ---
    app_blocked: bool,
    connected_notified: bool,

    stats: UdtConnStats,
}

impl Flow {
    fn new(hdr: FlowHeader, cfg: &UdtConfig, now: SimTime, is_initiator: bool) -> Flow {
        let snd_period_us = 1e6 / cfg.initial_rate_pps;
        Flow {
            hdr,
            state: State::Connecting,
            is_initiator,
            handshake_sent_at: now,
            rtt: None,
            send_q: VecDeque::new(),
            send_q_bytes: 0,
            unacked_bytes: 0,
            packets: VecDeque::new(),
            snd_nxt: 0,
            snd_una: 0,
            loss_list: BTreeSet::new(),
            nak_span: 0,
            snd_period_us,
            last_dec_seq: 0,
            last_dec_at: SimTime::ZERO,
            nak_in_syn: false,
            sent_in_syn: 0,
            capacity_est_pps: 0.0,
            peer_flow_window: cfg.rcv_buf as u64,
            pacer_active: false,
            pacer_gen: 0,
            fin_queued: false,
            fin_sent: false,
            fin_acked: false,
            last_feedback_at: now,
            last_progress_at: now,
            expirations_in_row: 0,
            rcv_nxt: 0,
            expected_max: 0,
            ooo: BTreeMap::new(),
            ooo_bytes: 0,
            missing: BTreeSet::new(),
            pkts_since_ack: 0,
            rate_ewma_pps: 0.0,
            prev_arrival: None,
            pair_samples: VecDeque::with_capacity(PAIR_SAMPLES),
            proc_busy_until: now,
            proc_fifo: VecDeque::new(),
            peer_fin_seq: None,
            app_blocked: false,
            connected_notified: false,
            stats: UdtConnStats::default(),
        }
    }

    fn flight_pkts(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// The payload of packet `seq`, while it is unacknowledged.
    fn packet(&self, seq: u64) -> Option<&Bytes> {
        let at = seq.checked_sub(self.snd_una)?;
        self.packets.get(usize::try_from(at).ok()?)
    }

    fn current_rate_pps(&self) -> f64 {
        1e6 / self.snd_period_us
    }

    fn capacity_median_pps(&self) -> f64 {
        let n = self.pair_samples.len();
        if n == 0 {
            return 0.0;
        }
        let mut v: [f64; PAIR_SAMPLES] =
            std::array::from_fn(|i| self.pair_samples.get(i).copied().unwrap_or_default());
        v[..n].sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN capacity sample"));
        v[n / 2]
    }
}

fn flow_window_pkts(flow: &Flow, cfg: &UdtConfig) -> u64 {
    let bytes = (cfg.snd_buf as u64).min(flow.peer_flow_window);
    (bytes / cfg.mss as u64).max(2)
}

type Action = flowstack::Action<UdtPacket>;

fn arm(kind: u64, delay: Duration, aux: u32) -> Action {
    Action::Arm { kind, delay, aux }
}

/// Rate control + receiver-side ACK emission, every `SYN`. The tick chain
/// re-arms itself until the flow closes.
fn on_syn_tick(flow: &mut Flow, cfg: &UdtConfig, rec: &Recorder, now: SimTime, out: &mut Vec<Action>) {
    if flow.state == State::Closed {
        return;
    }
    if flow.state != State::Established {
        out.push(arm(KIND_SYN_TICK, cfg.syn, 0));
        return;
    }
    // --- receiver duties: emit cumulative ACK with rate estimates.
    let interval = cfg.syn.as_secs_f64();
    let cur_rate = flow.pkts_since_ack as f64 / interval;
    flow.rate_ewma_pps = if flow.rate_ewma_pps == 0.0 {
        cur_rate
    } else {
        0.875 * flow.rate_ewma_pps + 0.125 * cur_rate
    };
    flow.pkts_since_ack = 0;
    out.push(Action::Send(UdtPacket::Ack {
        ack_seq: flow.rcv_nxt,
        rcv_rate_pps: flow.rate_ewma_pps,
        capacity_pps: flow.capacity_median_pps(),
    }));
    // Re-request persistently missing packets.
    if !flow.missing.is_empty() {
        let ranges = collect_ranges(&flow.missing, 64);
        let losses = ranges.iter().map(|(f, t)| t - f + 1).sum();
        rec.record(
            now.as_nanos(),
            EventKind::UdtNak {
                conn: flow.hdr.conn_id,
                sent: true,
                losses,
            },
        );
        out.push(Action::Send(UdtPacket::Nak { ranges }));
    }

    // --- sender duties: DAIMD rate increase (UDT4 formula).
    if !flow.nak_in_syn && flow.sent_in_syn > 0 {
        let mss = cfg.mss as f64;
        let c_pps = flow.current_rate_pps();
        let l_pps = flow.capacity_est_pps;
        let b = l_pps - c_pps;
        let inc = if b <= 0.0 {
            1.0 / mss
        } else {
            let bits = b * mss * 8.0;
            (10f64.powf(bits.log10().ceil()) * 1.5e-6 / mss).max(1.0 / mss)
        };
        let syn_us = cfg.syn.as_secs_f64() * 1e6;
        flow.snd_period_us = (flow.snd_period_us * syn_us) / (flow.snd_period_us * inc + syn_us);
        flow.snd_period_us = flow.snd_period_us.max(1.0);
        rec.record(
            now.as_nanos(),
            EventKind::UdtRate {
                conn: flow.hdr.conn_id,
                period_us: flow.snd_period_us,
                rate_pps: flow.current_rate_pps(),
                cause: "syn_increase",
            },
        );
    }
    flow.nak_in_syn = false;
    flow.sent_in_syn = 0;
    // Tail-loss probe: the receiver cannot NAK a loss at the very end of
    // the stream (no later packet exposes the gap), and its periodic ACKs
    // keep resetting the expiration timer. If the cumulative ACK has not
    // advanced for a couple of RTTs while data is in flight, retransmit the
    // first unacknowledged packet.
    if flow.flight_pkts() > 0 {
        let rtt = flow.rtt.unwrap_or(0.1);
        let stale = Duration::from_secs_f64((2.5 * rtt).max(0.05));
        if now.duration_since(flow.last_progress_at) > stale {
            flow.loss_list.insert(flow.snd_una);
            flow.last_progress_at = now;
        }
    } else if flow.fin_sent && !flow.fin_acked {
        let rtt = flow.rtt.unwrap_or(0.1);
        let stale = Duration::from_secs_f64((2.5 * rtt).max(0.05));
        if now.duration_since(flow.last_progress_at) > stale {
            out.push(Action::Send(UdtPacket::Fin {
                final_seq: flow.snd_nxt,
            }));
            flow.last_progress_at = now;
        }
    }
    restart_pacer(flow, cfg, out);
    out.push(arm(KIND_SYN_TICK, cfg.syn, 0));
}

/// Expiration: no feedback while data is in flight. Re-arms itself until
/// the flow closes.
fn on_exp_tick(flow: &mut Flow, cfg: &UdtConfig, now: SimTime, out: &mut Vec<Action>) {
    if flow.state == State::Closed {
        return;
    }
    if flow.state != State::Established {
        out.push(arm(KIND_EXP_TICK, cfg.exp_timeout, 0));
        return;
    }
    let idle = now.duration_since(flow.last_feedback_at);
    // Scale the expiration threshold with the measured RTT so a long path
    // does not trigger spurious go-back-N floods.
    let rtt = flow.rtt.unwrap_or(0.2);
    let threshold = cfg.exp_timeout.max(Duration::from_secs_f64(3.0 * rtt));
    if idle < threshold {
        flow.expirations_in_row = 0;
        out.push(arm(KIND_EXP_TICK, cfg.exp_timeout, 0));
        return;
    }
    let has_unacked = flow.flight_pkts() > 0 || (flow.fin_sent && !flow.fin_acked);
    if !has_unacked {
        flow.expirations_in_row = 0;
        out.push(arm(KIND_EXP_TICK, cfg.exp_timeout, 0));
        return;
    }
    flow.stats.expirations += 1;
    flow.expirations_in_row += 1;
    if flow.expirations_in_row > cfg.max_expirations {
        flow.state = State::Closed;
        if !flow.hdr.closed_notified {
            flow.hdr.closed_notified = true;
            out.push(Action::Closed(CloseReason::Timeout));
        }
        return;
    }
    // Schedule all in-flight packets for retransmission.
    let in_flight = flow.snd_una..flow.snd_una + flow.packets.len() as u64;
    flow.loss_list.extend(in_flight);
    if flow.fin_sent && !flow.fin_acked {
        let final_seq = flow.snd_nxt;
        out.push(Action::Send(UdtPacket::Fin { final_seq }));
    }
    restart_pacer(flow, cfg, out);
    out.push(arm(KIND_EXP_TICK, cfg.exp_timeout, 0));
}

/// The pacing clock: transmit one packet, reschedule.
fn on_pacer(flow: &mut Flow, cfg: &UdtConfig, now: SimTime, out: &mut Vec<Action>, gen: u32) {
    if gen != flow.pacer_gen as u32 || flow.state != State::Established {
        return;
    }
    match send_one(flow, cfg, now, out) {
        Some(seq) => {
            // Packet pairs: the packet after every 16th is sent back to
            // back as a bandwidth probe.
            let delay = if seq % 16 == 15 {
                Duration::ZERO
            } else {
                Duration::from_secs_f64(flow.snd_period_us / 1e6)
            };
            flow.pacer_gen += 1;
            out.push(arm(KIND_PACER, delay, flow.pacer_gen as u32));
        }
        None => {
            flow.pacer_active = false;
        }
    }
}

/// A data packet cleared the receive-processing queue.
fn on_data_processed(flow: &mut Flow, rec: &Recorder, now: SimTime, out: &mut Vec<Action>) {
    // Pop unconditionally: the completion event consumed its queue entry
    // even if the flow died in the meantime.
    let Some((seq, probe)) = flow.proc_fifo.pop_front() else {
        return;
    };
    release_drained(&mut flow.proc_fifo);
    if flow.state == State::Closed {
        return;
    }
    receive_data_packet(flow, rec, seq, probe, now, out);
}

/// Handshake (re)transmission. `attempt` rides the timer token.
fn on_hs_retry(flow: &mut Flow, cfg: &UdtConfig, out: &mut Vec<Action>, attempt: u32) {
    if flow.state != State::Connecting {
        return;
    }
    if attempt > 12 {
        if !flow.hdr.closed_notified {
            flow.state = State::Closed;
            flow.hdr.closed_notified = true;
            out.push(Action::Closed(CloseReason::Timeout));
        }
        return;
    }
    out.push(Action::Send(UdtPacket::Handshake {
        flow_window: cfg.rcv_buf as u64,
    }));
    out.push(arm(KIND_HS_RETRY, Duration::from_millis(250), attempt + 1));
}

/// What is UDT about the flow core; the config type names the protocol.
impl Protocol for UdtConfig {
    type Flow = Flow;
    type Wire = UdtPacket;

    const WIRE: WireProtocol = WireProtocol::Udt;
    const SCOPE: usize = memscope::SCOPE_UDT;
    const CONN_NAME: &'static str = "UdtConn";
    const LISTENER_NAME: &'static str = "UdtListener";

    fn table(net: &mut NetInner) -> &mut FlowTable<UdtConfig> {
        &mut net.udt
    }

    fn new_flow(hdr: FlowHeader, cfg: &UdtConfig, now: SimTime, active: bool) -> Flow {
        Flow::new(hdr, cfg, now, active)
    }

    fn hdr(flow: &Flow) -> &FlowHeader {
        &flow.hdr
    }

    fn hdr_mut(flow: &mut Flow) -> &mut FlowHeader {
        &mut flow.hdr
    }

    fn connection(conn: UdtConn) -> Connection {
        Connection::Udt(conn)
    }

    fn into_body(pkt: UdtPacket) -> (usize, PacketBody) {
        (pkt.payload_len(), PacketBody::Udt(pkt))
    }

    fn from_body(body: PacketBody) -> Option<UdtPacket> {
        match body {
            PacketBody::Udt(pkt) => Some(pkt),
            _ => None,
        }
    }

    fn opens(pkt: &UdtPacket) -> bool {
        matches!(pkt, UdtPacket::Handshake { .. })
    }

    /// Starts the periodic tick chains, sends the first handshake and arms
    /// its retry.
    fn start_active(_flow: &mut Flow, cfg: &UdtConfig, _rec: &Recorder, _now: SimTime, out: &mut Vec<Action>) {
        out.push(arm(KIND_SYN_TICK, cfg.syn, 0));
        out.push(arm(KIND_EXP_TICK, cfg.exp_timeout, 0));
        out.push(Action::Send(UdtPacket::Handshake {
            flow_window: cfg.rcv_buf as u64,
        }));
        out.push(arm(KIND_HS_RETRY, Duration::from_millis(250), 1));
    }

    /// Starts the periodic tick chains, then processes the handshake (which
    /// flips the flow to Established and answers with a HandshakeAck).
    fn start_passive(
        flow: &mut Flow,
        cfg: &UdtConfig,
        rec: &Recorder,
        now: SimTime,
        out: &mut Vec<Action>,
        pkt: UdtPacket,
    ) {
        out.push(arm(KIND_SYN_TICK, cfg.syn, 0));
        out.push(arm(KIND_EXP_TICK, cfg.exp_timeout, 0));
        Self::on_wire(flow, cfg, rec, now, out, pkt);
    }

    fn on_wire(
        flow: &mut Flow,
        cfg: &UdtConfig,
        rec: &Recorder,
        now: SimTime,
        out: &mut Vec<Action>,
        pkt: UdtPacket,
    ) {
        match pkt {
            UdtPacket::Handshake { flow_window } => {
                flow.peer_flow_window = flow_window;
                out.push(Action::Send(UdtPacket::HandshakeAck {
                    flow_window: cfg.rcv_buf as u64,
                }));
                if flow.state == State::Connecting {
                    flow.state = State::Established;
                    if !flow.connected_notified {
                        flow.connected_notified = true;
                        out.push(Action::Connected);
                    }
                }
            }
            UdtPacket::HandshakeAck { flow_window } => {
                if flow.state == State::Connecting {
                    flow.peer_flow_window = flow_window;
                    flow.state = State::Established;
                    flow.rtt =
                        Some(now.duration_since(flow.handshake_sent_at).as_secs_f64());
                    if !flow.connected_notified {
                        flow.connected_notified = true;
                        out.push(Action::Connected);
                    }
                    restart_pacer(flow, cfg, out);
                }
            }
            UdtPacket::Data { seq, probe, payload } => {
                if flow.state != State::Established {
                    return;
                }
                flow.pkts_since_ack += 1;
                if cfg.rx_proc_delay.is_zero() {
                    store_incoming(flow, cfg, seq, payload);
                    receive_data_packet(flow, rec, seq, probe, now, out);
                } else {
                    let backlog = flow
                        .proc_busy_until
                        .duration_since(now)
                        .as_secs_f64()
                        / cfg.rx_proc_delay.as_secs_f64();
                    if backlog as usize >= cfg.rx_proc_backlog {
                        flow.stats.rx_proc_drops += 1;
                        return; // overload drop: will be NAKed
                    }
                    store_incoming(flow, cfg, seq, payload);
                    flow.proc_busy_until = flow.proc_busy_until.max(now) + cfg.rx_proc_delay;
                    flow.proc_fifo.push_back((seq, probe));
                    // The matching `(seq, probe)` rides `proc_fifo`.
                    let wait = flow.proc_busy_until.duration_since(now);
                    out.push(arm(KIND_PROC, wait, 0));
                }
            }
            UdtPacket::Ack {
                ack_seq,
                rcv_rate_pps: _,
                capacity_pps,
            } => {
                // Nor does an acknowledgement of what was never sent count.
                if flow.state != State::Established || ack_seq > flow.snd_nxt {
                    return;
                }
                flow.last_feedback_at = now;
                flow.expirations_in_row = 0;
                if capacity_pps > 0.0 {
                    flow.capacity_est_pps = capacity_pps;
                }
                if ack_seq > flow.snd_una {
                    let acked = (ack_seq - flow.snd_una) as usize;
                    let acked_bytes: usize = flow.packets.drain(..acked).map(|p| p.len()).sum();
                    release_drained(&mut flow.packets);
                    flow.unacked_bytes = flow.unacked_bytes.saturating_sub(acked_bytes);
                    flow.stats.bytes_acked += acked_bytes as u64;
                    flow.snd_una = ack_seq;
                    flow.last_progress_at = now;
                    if cfg.ack_progress_events && acked_bytes > 0 {
                        flow.app_blocked = false;
                        out.push(Action::Writable);
                    }
                    while flow.loss_list.first().is_some_and(|&s| s < ack_seq) {
                        flow.loss_list.pop_first();
                    }
                    maybe_writable(flow, cfg, out);
                    restart_pacer(flow, cfg, out);
                }
                if flow.fin_sent && !flow.fin_acked && flow.snd_una >= flow.snd_nxt {
                    // All data acknowledged; FIN outcome decided by FinAck.
                }
            }
            UdtPacket::Nak { ranges } => {
                if flow.state != State::Established {
                    return;
                }
                flow.last_feedback_at = now;
                flow.stats.naks_received += 1;
                flow.nak_in_syn = true;
                let mut first_lost = u64::MAX;
                let mut reported = 0u64;
                for &(from, to) in ranges.iter() {
                    // Nothing below `snd_una` is resent: a forged range
                    // costs the window, not the sequence space below it.
                    let to = to.min(flow.snd_nxt.saturating_sub(1));
                    for seq in from.max(flow.snd_una)..=to {
                        if flow.packet(seq).is_some() {
                            flow.loss_list.insert(seq);
                            first_lost = first_lost.min(seq);
                            reported += 1;
                        }
                    }
                }
                rec.record(
                    now.as_nanos(),
                    EventKind::UdtNak {
                        conn: flow.hdr.conn_id,
                        sent: false,
                        losses: reported,
                    },
                );
                // One multiplicative decrease per congestion epoch. An
                // epoch ends when loss is seen beyond the last decrease
                // point, or — when retransmissions themselves are being
                // dropped and sequence numbers stop advancing — after
                // roughly one RTT of wall time.
                if first_lost != u64::MAX {
                    let rtt = flow.rtt.unwrap_or(0.1);
                    let epoch =
                        Duration::from_secs_f64(rtt.max(4.0 * cfg.syn.as_secs_f64()));
                    let new_epoch = first_lost > flow.last_dec_seq
                        || now.duration_since(flow.last_dec_at) > epoch;
                    if new_epoch {
                        flow.snd_period_us *= 1.125;
                        flow.last_dec_seq = flow.snd_nxt;
                        flow.last_dec_at = now;
                        flow.stats.rate_decreases += 1;
                        rec.record(
                            now.as_nanos(),
                            EventKind::UdtRate {
                                conn: flow.hdr.conn_id,
                                period_us: flow.snd_period_us,
                                rate_pps: flow.current_rate_pps(),
                                cause: "nak_decrease",
                            },
                        );
                    }
                }
                restart_pacer(flow, cfg, out);
            }
            UdtPacket::Fin { final_seq } => {
                flow.peer_fin_seq = Some(final_seq);
                try_finish_receive(flow, out);
            }
            UdtPacket::FinAck => {
                flow.fin_acked = true;
                if !flow.hdr.closed_notified {
                    flow.hdr.closed_notified = true;
                    flow.state = State::Closed;
                    out.push(Action::Closed(CloseReason::Normal));
                }
            }
        }
    }

    fn on_timer(
        flow: &mut Flow,
        cfg: &UdtConfig,
        rec: &Recorder,
        now: SimTime,
        out: &mut Vec<Action>,
        kind: u64,
        aux: u32,
    ) {
        match kind {
            KIND_PACER => on_pacer(flow, cfg, now, out, aux),
            KIND_SYN_TICK => on_syn_tick(flow, cfg, rec, now, out),
            KIND_EXP_TICK => on_exp_tick(flow, cfg, now, out),
            KIND_PROC => on_data_processed(flow, rec, now, out),
            KIND_HS_RETRY => on_hs_retry(flow, cfg, out, aux),
            _ => {}
        }
    }

    fn kill(flow: &mut Flow, rec: &Recorder, now: SimTime) {
        flow.state = State::Closed;
        flow.pacer_active = false;
        // Fresh containers rather than clear(): a killed flow's slot
        // lingers in the slab, and VecDeque::clear keeps its ring
        // buffer allocated (the B-tree containers free on clear).
        flow.send_q = VecDeque::new();
        flow.send_q_bytes = 0;
        flow.packets = VecDeque::new();
        flow.loss_list.clear();
        Self::after_step(flow, rec, now);
        flow.ooo.clear();
        flow.ooo_bytes = 0;
        flow.missing.clear();
        flow.proc_fifo = VecDeque::new();
        flow.pair_samples = VecDeque::new();
    }

    /// `nak_recovery` span maintenance: every state transition runs through
    /// a step of the core, so the loss list's empty/non-empty edges are
    /// all observable here — open on the first loss of an episode, close
    /// when recovery drains it (or the flow dies).
    fn after_step(flow: &mut Flow, rec: &Recorder, now: SimTime) {
        let in_loss = !flow.loss_list.is_empty() && flow.state != State::Closed;
        if flow.nak_span == 0 && in_loss && rec.is_enabled() {
            flow.nak_span = rec
                .tracer()
                .open_root(now.as_nanos(), SpanKind::NakRecovery, flow.hdr.conn_id)
                .raw();
        } else if flow.nak_span != 0 && !in_loss {
            rec.record(
                now.as_nanos(),
                EventKind::SpanClose {
                    span: flow.nak_span,
                    key: u64::from(flow.state == State::Closed),
                },
            );
            flow.nak_span = 0;
        }
    }

    fn debug_state(flow: Option<&Flow>, out: &mut fmt::DebugStruct<'_, '_>) {
        let (state, initiator, rate) = match flow {
            Some(fl) => (Some(fl.state), fl.is_initiator, fl.current_rate_pps()),
            None => (None, false, 0.0),
        };
        out.field("state", &state)
            .field("initiator", &initiator)
            .field("rate_pps", &rate);
    }
}

/// Stores an arriving payload for ordered delivery (bounded by `rcv_buf`).
fn store_incoming(flow: &mut Flow, cfg: &UdtConfig, seq: u64, payload: Bytes) {
    if seq < flow.rcv_nxt || flow.ooo.contains_key(&seq) {
        return; // duplicate
    }
    if flow.ooo_bytes + payload.len() > cfg.rcv_buf {
        flow.stats.rx_proc_drops += 1;
        return; // receive buffer overflow: packet is effectively lost
    }
    flow.ooo_bytes += payload.len();
    flow.ooo.insert(seq, payload);
}

/// Loss detection + in-order delivery once a packet has been "processed".
///
/// Packet-pair capacity samples are taken here, after the receive
/// processing stage, so the estimate reflects whichever of the wire or the
/// endpoint is the real bottleneck.
fn receive_data_packet(
    flow: &mut Flow,
    rec: &Recorder,
    seq: u64,
    probe: bool,
    now: SimTime,
    out: &mut Vec<Action>,
) {
    if let Some((prev_seq, prev_at)) = flow.prev_arrival {
        if probe && prev_seq + 1 == seq {
            let d = now.duration_since(prev_at).as_secs_f64();
            if d > 0.0 {
                let pps = 1.0 / d;
                if flow.pair_samples.len() == PAIR_SAMPLES {
                    flow.pair_samples.pop_front();
                }
                flow.pair_samples.push_back(pps);
            }
        }
    }
    flow.prev_arrival = Some((seq, now));
    if seq >= flow.expected_max {
        // NAK any fresh gap immediately (UDT reports loss eagerly).
        if seq > flow.expected_max {
            let from = flow.expected_max;
            let to = seq - 1;
            for s in from..=to {
                flow.missing.insert(s);
            }
            rec.record(
                now.as_nanos(),
                EventKind::UdtNak {
                    conn: flow.hdr.conn_id,
                    sent: true,
                    losses: to - from + 1,
                },
            );
            out.push(Action::Send(UdtPacket::Nak {
                ranges: SeqRanges::one(from, to),
            }));
        }
        flow.expected_max = seq + 1;
    }
    flow.missing.remove(&seq);
    // Deliver contiguous data.
    while let Some(entry) = flow.ooo.first_entry() {
        if *entry.key() != flow.rcv_nxt {
            break;
        }
        let data = entry.remove();
        flow.ooo_bytes -= data.len();
        flow.rcv_nxt += 1;
        flow.stats.bytes_delivered += data.len() as u64;
        out.push(Action::Deliver(data));
    }
    try_finish_receive(flow, out);
}

fn try_finish_receive(flow: &mut Flow, out: &mut Vec<Action>) {
    if let Some(final_seq) = flow.peer_fin_seq {
        if flow.rcv_nxt >= final_seq {
            out.push(Action::Send(UdtPacket::FinAck));
            if !flow.hdr.closed_notified {
                flow.hdr.closed_notified = true;
                flow.state = State::Closed;
                out.push(Action::Closed(CloseReason::Normal));
            }
        }
    }
}

/// Collects up to `cap` (at most 64) inclusive ranges from a sorted set.
fn collect_ranges(set: &BTreeSet<u64>, cap: usize) -> SeqRanges {
    let mut ranges = [(0, 0); 64];
    let mut n = 0;
    for &s in set {
        match ranges[..n].last_mut() {
            Some((_, to)) if *to + 1 == s => *to = s,
            _ => {
                if n == cap {
                    break;
                }
                ranges[n] = (s, s);
                n += 1;
            }
        }
    }
    SeqRanges::from(&ranges[..n])
}

/// Transmits one packet if allowed: retransmissions first, then new data,
/// then a pending FIN. Returns the sequence sent (for pair scheduling).
fn send_one(flow: &mut Flow, cfg: &UdtConfig, _now: SimTime, out: &mut Vec<Action>) -> Option<u64> {
    // 1. Retransmission.
    while let Some(seq) = flow.loss_list.pop_first() {
        // A marker the cumulative ACK has since passed names no packet.
        if let Some(payload) = flow.packet(seq).cloned() {
            flow.stats.retransmits += 1;
            flow.stats.packets_sent += 1;
            flow.sent_in_syn += 1;
            out.push(Action::Send(UdtPacket::Data {
                seq,
                probe: false,
                payload,
            }));
            return Some(seq);
        }
    }
    // 2. New data, if the flow window allows.
    if !flow.send_q.is_empty() && flow.flight_pkts() < flow_window_pkts(flow, cfg) {
        let head = flow.send_q.front_mut().expect("non-empty send queue");
        let take = head.len().min(cfg.mss);
        let payload = head.split_to(take);
        if head.is_empty() {
            flow.send_q.pop_front();
            release_drained(&mut flow.send_q);
        }
        flow.send_q_bytes -= take;
        let seq = flow.snd_nxt;
        flow.snd_nxt += 1;
        flow.packets.push_back(payload.clone());
        flow.stats.packets_sent += 1;
        flow.sent_in_syn += 1;
        out.push(Action::Send(UdtPacket::Data {
            seq,
            probe: seq.is_multiple_of(16) && seq > 0,
            payload,
        }));
        return Some(seq);
    }
    // 3. FIN once everything is out.
    if flow.fin_queued && !flow.fin_sent && flow.send_q.is_empty() {
        flow.fin_sent = true;
        out.push(Action::Send(UdtPacket::Fin {
            final_seq: flow.snd_nxt,
        }));
    }
    None
}

fn restart_pacer(flow: &mut Flow, cfg: &UdtConfig, out: &mut Vec<Action>) {
    if flow.pacer_active || flow.state != State::Established {
        return;
    }
    let work = !flow.loss_list.is_empty()
        || (!flow.send_q.is_empty() && flow.flight_pkts() < flow_window_pkts(flow, cfg))
        || (flow.fin_queued && !flow.fin_sent);
    if work {
        flow.pacer_active = true;
        flow.pacer_gen += 1;
        out.push(arm(KIND_PACER, Duration::ZERO, flow.pacer_gen as u32));
    }
}

fn maybe_writable(flow: &mut Flow, cfg: &UdtConfig, out: &mut Vec<Action>) {
    if flow.app_blocked && cfg.snd_buf.saturating_sub(flow.unacked_bytes) >= cfg.mss {
        flow.app_blocked = false;
        out.push(Action::Writable);
    }
}

/// A simulated UDT connection handle.
pub type UdtConn = Conn<UdtConfig>;

impl UdtConn {
    /// Whether the handshake completed and the connection is open.
    #[must_use]
    pub fn is_established(&self) -> bool {
        self.peek(|f, _| f.state == State::Established)
            .unwrap_or(false)
    }

    /// Appends bytes to the send buffer; returns how many were accepted.
    pub fn send(&self, data: Bytes) -> usize {
        let mut accepted = 0;
        self.process(|flow, cfg, _rec, _now, out| {
            if flow.state == State::Closed || flow.fin_queued {
                return;
            }
            let space = cfg.snd_buf.saturating_sub(flow.unacked_bytes);
            let take = space.min(data.len());
            if take < data.len() {
                flow.app_blocked = true;
            }
            if take > 0 {
                flow.send_q.push_back(data.slice(0..take));
                flow.send_q_bytes += take;
                flow.unacked_bytes += take;
                flow.stats.bytes_sent += take as u64;
                restart_pacer(flow, cfg, out);
            }
            accepted = take;
        });
        accepted
    }

    /// Free space in the send buffer.
    #[must_use]
    pub fn free_send_buffer(&self) -> usize {
        self.peek(|f, cfg| cfg.snd_buf.saturating_sub(f.unacked_bytes))
            .unwrap_or(0)
    }

    /// Bytes accepted but not yet acknowledged (queued + in flight).
    #[must_use]
    pub fn unacked_bytes(&self) -> usize {
        self.peek(|f, _| f.unacked_bytes).unwrap_or(0)
    }

    /// Cumulative payload bytes acknowledged by the receiver.
    #[must_use]
    pub fn acked_bytes(&self) -> u64 {
        self.peek(|f, _| f.stats.bytes_acked).unwrap_or(0)
    }

    /// RTT measured during the handshake (initiator side only).
    #[must_use]
    pub fn rtt_estimate(&self) -> Option<Duration> {
        self.peek(|f, _| f.rtt)?.map(Duration::from_secs_f64)
    }

    /// Orderly close: a FIN follows the last buffered byte.
    pub fn close(&self) {
        self.process(|flow, cfg, _rec, _now, out| {
            if flow.fin_queued || flow.state == State::Closed {
                return;
            }
            flow.fin_queued = true;
            restart_pacer(flow, cfg, out);
        });
    }

    /// Per-connection counters.
    #[must_use]
    pub fn stats(&self) -> UdtConnStats {
        self.peek(|f, _| f.stats).unwrap_or_default()
    }

    /// Current pacing rate in packets per second (diagnostics).
    #[must_use]
    pub fn rate_pps(&self) -> f64 {
        self.peek(|f, _| f.current_rate_pps()).unwrap_or(0.0)
    }
}

/// A UDT listening socket that accepts incoming connections.
pub type UdtListener = Listener<UdtConfig>;

/// What the shared handle-lifecycle tests in [`crate::flowstack`] need to
/// know about UDT.
#[cfg(test)]
impl Flow {
    /// Killed in place: closed, pacer stopped, every buffer released.
    pub(crate) fn is_dead(&self) -> bool {
        self.state == State::Closed
            && !self.pacer_active
            && self.nak_span == 0
            && self.send_q.capacity() == 0
            && self.send_q_bytes == 0
            && self.packets.capacity() == 0
            && self.loss_list.is_empty()
            && self.ooo.is_empty()
            && self.ooo_bytes == 0
            && self.missing.is_empty()
            && self.proc_fifo.capacity() == 0
            && self.pair_samples.capacity() == 0
    }

    /// `(snd_una, snd_nxt)`.
    pub(crate) fn unacked(&self) -> (u64, u64) {
        (self.snd_una, self.snd_nxt)
    }
}

/// A pacer firing of a generation the flow never reaches.
#[cfg(test)]
pub(crate) const STALE_TIMER: (u64, u32) = (KIND_PACER, u32::MAX);

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::engine::Sim;
    use crate::iface::{StreamAccept, StreamEvents};
    use crate::network::Network;
    use crate::packet::{Endpoint, NodeId};
    use crate::link::{LinkConfig, PolicerConfig};
    use crate::testutil::{PatternSender, Recorder};

    struct AcceptRecorder {
        rec: Arc<Recorder>,
    }
    impl StreamAccept for AcceptRecorder {
        fn on_accept(&self, _conn: &Connection) -> Arc<dyn StreamEvents> {
            self.rec.clone()
        }
    }

    fn setup(link: LinkConfig) -> (Sim, Network, NodeId, NodeId) {
        let sim = Sim::new(21);
        let net = Network::new(&sim);
        let a = net.add_node("a");
        let b = net.add_node("b");
        net.connect_duplex(a, b, link);
        (sim, net, a, b)
    }

    fn listen(net: &Network, b: NodeId, rec: &Arc<Recorder>, cfg: UdtConfig) -> UdtListener {
        UdtListener::bind(net, b, 90, cfg, Arc::new(AcceptRecorder { rec: rec.clone() }))
            .expect("bind")
    }

    #[test]
    fn handshake_completes() {
        let (sim, net, a, b) = setup(LinkConfig::new(10e6, Duration::from_millis(5)));
        let server = Arc::new(Recorder::default());
        let _l = listen(&net, b, &server, UdtConfig::default());
        let client = Arc::new(Recorder::default());
        let conn = UdtConn::connect(
            &net,
            a,
            Endpoint::new(b, 90),
            UdtConfig::default(),
            client.clone(),
        )
        .unwrap();
        sim.run_for(Duration::from_secs(1));
        assert!(conn.is_established());
        assert_eq!(client.connected(), 1);
        assert_eq!(server.connected(), 1);
        let rtt = conn.rtt_estimate().expect("handshake RTT").as_secs_f64();
        assert!((0.009..0.02).contains(&rtt), "rtt {rtt}");
    }

    #[test]
    fn small_transfer_in_order() {
        let (sim, net, a, b) = setup(LinkConfig::new(10e6, Duration::from_millis(5)));
        let server = Arc::new(Recorder::default());
        let _l = listen(&net, b, &server, UdtConfig::default());
        let pump = PatternSender::new(&sim, 100_000);
        let _conn = UdtConn::connect(&net, a, Endpoint::new(b, 90), UdtConfig::default(), pump)
            .unwrap();
        sim.run_for(Duration::from_secs(5));
        assert_eq!(server.data_len(), 100_000);
        assert!(server.in_order());
    }

    #[test]
    fn high_rtt_throughput_beats_windowed_tcp_shape() {
        // 125 MB/s link, 320 ms RTT, clean except the processing cap:
        // UDT should ramp to ~10 MB/s (1/130 µs per packet) regardless of
        // the huge BDP.
        let (sim, net, a, b) = setup(LinkConfig::new(125e6, Duration::from_millis(160)));
        let server = Arc::new(Recorder::with_sim(&sim));
        let _l = listen(&net, b, &server, UdtConfig::tuned_buffers());
        let total = 40_000_000usize;
        let pump = PatternSender::new(&sim, total);
        let conn = UdtConn::connect(
            &net,
            a,
            Endpoint::new(b, 90),
            UdtConfig::tuned_buffers(),
            pump,
        )
        .unwrap();
        sim.run_for(Duration::from_secs(60));
        assert_eq!(server.data_len(), total, "all bytes must arrive");
        assert!(server.in_order());
        let rate = server.goodput();
        assert!(
            rate > 5e6,
            "UDT must sustain multi-MB/s at 320 ms RTT, got {rate:.0} B/s"
        );
        let _ = conn;
    }

    #[test]
    fn policer_pins_rate_near_10mbps() {
        let link = LinkConfig::new(125e6, Duration::from_millis(77))
            .udp_policer(PolicerConfig::ec2_udp());
        let (sim, net, a, b) = setup(link);
        let server = Arc::new(Recorder::with_sim(&sim));
        let _l = listen(&net, b, &server, UdtConfig::tuned_buffers());
        let total = 60_000_000usize;
        let pump = PatternSender::new(&sim, total);
        let conn = UdtConn::connect(
            &net,
            a,
            Endpoint::new(b, 90),
            UdtConfig::tuned_buffers(),
            pump,
        )
        .unwrap();
        sim.run_for(Duration::from_secs(120));
        assert_eq!(server.data_len(), total);
        let rate = server.goodput();
        assert!(
            (4e6..11e6).contains(&rate),
            "policed UDT should sit below the 10 MB/s policer, got {rate:.0}"
        );
        assert!(conn.stats().naks_received > 0, "policer drops must cause NAKs");
        assert!(conn.stats().rate_decreases > 0);
    }

    #[test]
    fn small_flow_window_caps_throughput() {
        // The paper's motivation for raising protocol buffers from 12 MB to
        // 100 MB: a small window caps throughput at window/RTT.
        let small = UdtConfig {
            snd_buf: 512 * 1024,
            rcv_buf: 512 * 1024,
            ..UdtConfig::default()
        };
        let (sim, net, a, b) = setup(LinkConfig::new(125e6, Duration::from_millis(160)));
        let server = Arc::new(Recorder::with_sim(&sim));
        let _l = listen(&net, b, &server, small.clone());
        let total = 10_000_000usize;
        let pump = PatternSender::new(&sim, total);
        let _conn = UdtConn::connect(&net, a, Endpoint::new(b, 90), small, pump).unwrap();
        sim.run_for(Duration::from_secs(60));
        assert_eq!(server.data_len(), total);
        let rate = server.goodput();
        // window/RTT = 512 KiB / 0.32 s ~ 1.6 MB/s
        assert!(
            rate < 2.5e6,
            "window-limited UDT must stay near window/RTT, got {rate:.0}"
        );
    }

    #[test]
    fn recovers_from_random_loss_in_order() {
        let (sim, net, a, b) = setup(
            LinkConfig::new(20e6, Duration::from_millis(20)).random_loss(0.01),
        );
        let server = Arc::new(Recorder::default());
        let _l = listen(&net, b, &server, UdtConfig::default());
        let total = 3_000_000usize;
        let pump = PatternSender::new(&sim, total);
        let conn = UdtConn::connect(&net, a, Endpoint::new(b, 90), UdtConfig::default(), pump)
            .unwrap();
        sim.run_for(Duration::from_secs(60));
        assert_eq!(server.data_len(), total, "reliable despite 1% loss");
        assert!(server.in_order());
        assert!(conn.stats().retransmits > 0);
    }

    #[test]
    fn close_handshake_notifies_both_sides() {
        let (sim, net, a, b) = setup(LinkConfig::new(10e6, Duration::from_millis(5)));
        let server = Arc::new(Recorder::default());
        let _l = listen(&net, b, &server, UdtConfig::default());
        let pump = PatternSender::closing(&sim, 50_000);
        let client_events = pump.clone();
        let _conn =
            UdtConn::connect(&net, a, Endpoint::new(b, 90), UdtConfig::default(), client_events)
                .unwrap();
        sim.run_for(Duration::from_secs(10));
        assert_eq!(server.data_len(), 50_000);
        assert_eq!(server.closed(), 1, "receiver must see Normal close");
        assert_eq!(server.close_reasons(), vec![CloseReason::Normal]);
    }

    #[test]
    fn connect_to_black_hole_times_out() {
        let (sim, net, a, b) = setup(LinkConfig::new(10e6, Duration::from_millis(5)));
        let client = Arc::new(Recorder::default());
        let conn =
            UdtConn::connect(&net, a, Endpoint::new(b, 91), UdtConfig::default(), client.clone())
                .unwrap();
        sim.run_for(Duration::from_secs(30));
        assert!(!conn.is_established());
        assert_eq!(client.closed(), 1);
        assert_eq!(client.close_reasons(), vec![CloseReason::Timeout]);
    }

    #[test]
    fn a_forged_nak_costs_the_window_not_the_sequence_space() {
        let (sim, net, a, b) = setup(LinkConfig::new(10e6, Duration::from_millis(5)));
        let server = Arc::new(Recorder::default());
        let _l = listen(&net, b, &server, UdtConfig::default());
        let client = Arc::new(Recorder::default());
        let conn =
            UdtConn::connect(&net, a, Endpoint::new(b, 90), UdtConfig::default(), client).unwrap();
        sim.run_for(Duration::from_secs(1));
        assert!(conn.is_established());
        sim.recorder().enable();
        // Far into a long transfer, eight packets unacknowledged; the NAK
        // claims everything from 0 up to the second, and from the sixth on.
        let una = 1 << 40;
        conn.process(|flow, cfg, rec, now, out| {
            flow.snd_una = una;
            flow.snd_nxt = una + 8;
            flow.packets = (0..8).map(|_| Bytes::from_static(b"x")).collect();
            let ranges = SeqRanges::from(&[(0, una + 1), (una + 5, u64::MAX)][..]);
            UdtConfig::on_wire(flow, cfg, rec, now, out, UdtPacket::Nak { ranges });
        });
        let lost = conn.peek(|f, _| f.loss_list.iter().copied().collect::<Vec<_>>());
        assert_eq!(lost.unwrap(), [una, una + 1, una + 5, una + 6, una + 7]);
        let losses: Vec<u64> = (sim.recorder().events().iter())
            .filter_map(|e| match e.kind {
                EventKind::UdtNak { sent, losses, .. } if !sent => Some(losses),
                _ => None,
            })
            .collect();
        assert_eq!(losses, [5]);
    }

    #[test]
    fn collect_ranges_merges_runs() {
        let set: BTreeSet<u64> = [1, 2, 3, 7, 9, 10].into_iter().collect();
        assert_eq!(*collect_ranges(&set, 64), [(1, 3), (7, 7), (9, 10)]);
        assert_eq!(*collect_ranges(&set, 2), [(1, 3), (7, 7)]);
        assert!(collect_ranges(&BTreeSet::new(), 4).is_empty());
    }
}
