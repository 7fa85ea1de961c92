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
//! Slab, demux, listeners, timer arming, handle lifetime and the stream
//! buffer are the shared `crate::flowstack` core; this file is what is
//! actually UDT: config, packet format, sequence space, the `Flow` state
//! machine — steps of one flow, which never see a lock — and its five
//! timers (pacer, `SYN` tick, expiration tick, receive-processing
//! completion, handshake retry).

use std::collections::{BTreeSet, VecDeque};
use std::fmt;
use std::time::Duration;

use kmsg_telemetry::bytes::Bytes;
use kmsg_telemetry::{EventKind, Recorder, SpanKind};

use crate::flowstack::{
    self, release_drained, Conn, FlowHeader, FlowTable, Listener, LossMark, Phase, Protocol,
    SendQueue, Stream,
};
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
    /// Expiration timeout: with in-flight data and no feedback for this
    /// long, everything unacknowledged is scheduled for retransmission.
    pub exp_timeout: Duration,
    /// How many consecutive expirations before the connection is declared
    /// dead.
    pub max_expirations: u32,
}

impl Default for UdtConfig {
    fn default() -> Self {
        UdtConfig {
            mss: 1448,
            snd_buf: 12 * 1024 * 1024,
            rcv_buf: 12 * 1024 * 1024,
            syn: Duration::from_millis(10),
            exp_timeout: Duration::from_millis(300),
            max_expirations: 30,
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
    pub(crate) bytes_sent: u64,
    /// Payload bytes acknowledged by the receiver.
    pub(crate) bytes_acked: u64,
    /// Payload bytes delivered to the application.
    pub bytes_delivered: u64,
    /// Data packets transmitted (including retransmissions).
    pub(crate) packets_sent: u64,
    /// Data packets retransmitted.
    pub(crate) retransmits: u64,
    /// NAKs received (sender side).
    pub(crate) naks_received: u64,
    /// Multiplicative rate decreases performed.
    pub(crate) rate_decreases: u64,
    /// Packets dropped by the receive-processing queue.
    pub(crate) rx_proc_drops: u64,
    /// Packets dropped because the receive buffer (`rcv_buf`) was full.
    pub(crate) rcv_buf_drops: u64,
    /// Expiration events (no feedback while data in flight).
    pub(crate) expirations: u64,
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

/// An unacknowledged packet: where its payload lies in the stream.
#[derive(Default)]
pub(crate) struct Unacked {
    /// Stream offset of the payload's first byte.
    offset: u64,
    len: u32,
    /// Reported lost (NAK, tail-loss probe, expiration), not yet resent.
    lost: bool,
}

impl LossMark for Unacked {
    fn lost(&mut self) -> &mut bool {
        &mut self.lost
    }
}

/// Full per-flow UDT state: one slab slot, no interior `Arc`s.
pub(crate) struct Flow {
    hdr: FlowHeader,
    stream: Stream,
    state: Phase,
    /// Whether this side sent the initial handshake (diagnostics / Debug).
    is_initiator: bool,
    handshake_sent_at: SimTime,
    rtt: Option<f64>,

    // --- sender side ---
    /// The send queue, with its loss marks: packet `snd_una + i` is the
    /// `i`th from the head. Sequence numbers are consecutive, so a packet
    /// is appended at `snd_nxt` and released from the front.
    packets: SendQueue,
    snd_nxt: u64,
    snd_una: u64,
    /// Raw `nak_recovery` causal-span id covering the window from the
    /// first loss mark until no packet is marked (0 outside a recovery
    /// episode or while tracing is off).
    nak_span: u64,
    snd_period_us: f64,
    last_dec_seq: u64,
    last_dec_at: SimTime,
    nak_in_syn: bool,
    /// A packet went out since the last SYN tick.
    sent_in_syn: bool,
    capacity_est_pps: f64,
    peer_flow_window: u64,
    pacer_active: bool,
    pacer_gen: u64,
    fin_sent: bool,
    fin_acked: bool,
    last_feedback_at: SimTime,
    last_progress_at: SimTime,
    expirations_in_row: u32,

    // --- receiver side ---
    rcv_nxt: u64,
    expected_max: u64,
    missing: BTreeSet<u64>,
    /// The periodic NAK last built from `missing`, which an unchanged one
    /// shares.
    last_nak: SeqRanges,
    prev_arrival: Option<(u64, SimTime)>,
    pair_samples: VecDeque<f64>,
    proc_busy_until: SimTime,
    /// Packets waiting in the modelled receive-processing queue, in
    /// completion order. `proc_busy_until` is monotone, so completion
    /// events fire in push order and each pops the front.
    proc_fifo: VecDeque<(u64, bool)>,
    /// The peer's packet count from its FIN; `u64::MAX` until one arrives.
    peer_fin_seq: u64,

    // --- counters (the byte counts are the stream's) ---
    packets_sent: u64,
    retransmits: u64,
    naks_received: u64,
    rate_decreases: u64,
    rx_proc_drops: u64,
    rcv_buf_drops: u64,
    expirations: u64,
}

/// Initial sending rate in packets per second.
const INITIAL_RATE_PPS: f64 = 1000.0;

impl Flow {
    fn new(hdr: FlowHeader, cfg: &UdtConfig, now: SimTime, is_initiator: bool) -> Flow {
        let snd_period_us = 1e6 / INITIAL_RATE_PPS;
        Flow {
            hdr,
            stream: Stream::default(),
            state: Phase::Connecting,
            is_initiator,
            handshake_sent_at: now,
            rtt: None,
            packets: SendQueue::default(),
            snd_nxt: 0,
            snd_una: 0,
            nak_span: 0,
            snd_period_us,
            last_dec_seq: 0,
            last_dec_at: SimTime::ZERO,
            nak_in_syn: false,
            sent_in_syn: false,
            capacity_est_pps: 0.0,
            peer_flow_window: cfg.rcv_buf as u64,
            pacer_active: false,
            pacer_gen: 0,
            fin_sent: false,
            fin_acked: false,
            last_feedback_at: now,
            last_progress_at: now,
            expirations_in_row: 0,
            rcv_nxt: 0,
            expected_max: 0,
            missing: BTreeSet::new(),
            last_nak: SeqRanges::default(),
            prev_arrival: None,
            pair_samples: VecDeque::with_capacity(PAIR_SAMPLES),
            proc_busy_until: now,
            proc_fifo: VecDeque::new(),
            peer_fin_seq: u64::MAX,
            packets_sent: 0,
            retransmits: 0,
            naks_received: 0,
            rate_decreases: 0,
            rx_proc_drops: 0,
            rcv_buf_drops: 0,
            expirations: 0,
        }
    }

    fn flight_pkts(&self) -> u64 {
        self.snd_nxt - self.snd_una
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
type Out = flowstack::Out<UdtConfig>;

fn arm(kind: u64, delay: Duration, aux: u32) -> Action {
    Action::Arm { kind, delay, aux }
}

/// Rate control + receiver-side ACK emission, every `SYN`. The tick chain
/// re-arms itself until the flow closes.
fn on_syn_tick(flow: &mut Flow, cfg: &UdtConfig, rec: &Recorder, now: SimTime, out: &mut Out) {
    if flow.state == Phase::Closed {
        return;
    }
    if flow.state != Phase::Established {
        out.push(arm(KIND_SYN_TICK, cfg.syn, 0));
        return;
    }
    // --- receiver duties: emit cumulative ACK with the capacity estimate.
    out.push(Action::Send(UdtPacket::Ack {
        ack_seq: flow.rcv_nxt,
        capacity_pps: flow.capacity_median_pps(),
    }));
    // Re-request persistently missing packets.
    let ranges = collect_ranges(&flow.missing, 64, &mut flow.last_nak);
    if !ranges.is_empty() {
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
    if !flow.nak_in_syn && flow.sent_in_syn {
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
    flow.sent_in_syn = false;
    // Tail-loss probe: the receiver cannot NAK a loss at the very end of
    // the stream (no later packet exposes the gap), and its periodic ACKs
    // keep resetting the expiration timer. If the cumulative ACK has not
    // advanced for a couple of RTTs while data is in flight, retransmit the
    // first unacknowledged packet.
    if flow.flight_pkts() > 0 {
        let rtt = flow.rtt.unwrap_or(0.1);
        let stale = Duration::from_secs_f64((2.5 * rtt).max(0.05));
        if now.duration_since(flow.last_progress_at) > stale {
            let first = |i: u32, _: &Unacked| u64::from(i);
            flow.packets
                .mark_ranges(&mut out.sent, [(0, 1)], first, |_, _| true);
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
fn on_exp_tick(flow: &mut Flow, cfg: &UdtConfig, now: SimTime, out: &mut Out) {
    if flow.state == Phase::Closed {
        return;
    }
    if flow.state != Phase::Established {
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
    flow.expirations += 1;
    flow.expirations_in_row += 1;
    if flow.expirations_in_row > cfg.max_expirations {
        flow.state = Phase::Closed;
        flow.hdr.notify_closed(CloseReason::Timeout, out);
        return;
    }
    // Schedule all in-flight packets for retransmission.
    flow.packets.mark_all(&mut out.sent);
    if flow.fin_sent && !flow.fin_acked {
        let final_seq = flow.snd_nxt;
        out.push(Action::Send(UdtPacket::Fin { final_seq }));
    }
    restart_pacer(flow, cfg, out);
    out.push(arm(KIND_EXP_TICK, cfg.exp_timeout, 0));
}

/// The pacing clock: transmit one packet, reschedule.
fn on_pacer(flow: &mut Flow, cfg: &UdtConfig, now: SimTime, out: &mut Out, gen: u32) {
    if gen != flow.pacer_gen as u32 || flow.state != Phase::Established {
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
fn on_data_processed(flow: &mut Flow, rec: &Recorder, now: SimTime, out: &mut Out) {
    // Pop unconditionally: the completion event consumed its queue entry
    // even if the flow died in the meantime.
    let Some((seq, probe)) = flow.proc_fifo.pop_front() else {
        return;
    };
    release_drained(&mut flow.proc_fifo);
    if flow.state == Phase::Closed {
        return;
    }
    receive_data_packet(flow, rec, seq, probe, now, out);
}

/// Handshake (re)transmission. `attempt` rides the timer token.
fn on_hs_retry(flow: &mut Flow, cfg: &UdtConfig, out: &mut Out, attempt: u32) {
    if flow.state != Phase::Connecting {
        return;
    }
    if attempt > 12 {
        flow.state = Phase::Closed;
        flow.hdr.notify_closed(CloseReason::Timeout, out);
        return;
    }
    out.push(Action::Send(UdtPacket::Handshake {
        flow_window: cfg.rcv_buf as u64,
    }));
    out.push(arm(KIND_HS_RETRY, Duration::from_millis(250), attempt + 1));
}

/// Per-packet receive processing time (implementation overhead).
const RX_PROC_DELAY: Duration = Duration::from_micros(130);

/// Receive processing queue depth in packets; overflow drops packets.
const RX_PROC_BACKLOG: usize = 2048;

/// What is UDT about the flow core; the config type names the protocol.
impl Protocol for UdtConfig {
    type Flow = Flow;
    type Wire = UdtPacket;
    type Sent = Unacked;

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
    fn start_active(
        _flow: &mut Flow,
        cfg: &UdtConfig,
        _rec: &Recorder,
        _now: SimTime,
        out: &mut Out,
    ) {
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
        out: &mut Out,
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
        out: &mut Out,
        pkt: UdtPacket,
    ) {
        match pkt {
            UdtPacket::Handshake { flow_window } => {
                flow.peer_flow_window = flow_window;
                out.push(Action::Send(UdtPacket::HandshakeAck {
                    flow_window: cfg.rcv_buf as u64,
                }));
                if flow.state == Phase::Connecting {
                    flow.state = Phase::Established;
                    out.push(Action::Connected);
                }
            }
            UdtPacket::HandshakeAck { flow_window } => {
                if flow.state == Phase::Connecting {
                    flow.peer_flow_window = flow_window;
                    flow.state = Phase::Established;
                    flow.rtt = Some(now.duration_since(flow.handshake_sent_at).as_secs_f64());
                    out.push(Action::Connected);
                    restart_pacer(flow, cfg, out);
                }
            }
            UdtPacket::Data {
                seq,
                probe,
                payload,
            } => {
                if flow.state != Phase::Established {
                    return;
                }
                let backlog = flow.proc_busy_until.duration_since(now).as_secs_f64()
                    / RX_PROC_DELAY.as_secs_f64();
                if backlog as usize >= RX_PROC_BACKLOG {
                    flow.rx_proc_drops += 1;
                    return; // overload drop: will be NAKed
                }
                // What overflows the receive buffer is effectively lost.
                if seq >= flow.rcv_nxt
                    && !flow.stream.hold(seq, payload, cfg.rcv_buf, &mut out.pool)
                {
                    flow.rcv_buf_drops += 1;
                }
                flow.proc_busy_until = flow.proc_busy_until.max(now) + RX_PROC_DELAY;
                flow.proc_fifo.push_back((seq, probe));
                // The matching `(seq, probe)` rides `proc_fifo`.
                let wait = flow.proc_busy_until.duration_since(now);
                out.push(arm(KIND_PROC, wait, 0));
            }
            UdtPacket::Ack {
                ack_seq,
                capacity_pps,
            } => {
                // Nor does an acknowledgement of what was never sent count.
                if flow.state != Phase::Established || ack_seq > flow.snd_nxt {
                    return;
                }
                flow.last_feedback_at = now;
                flow.expirations_in_row = 0;
                if capacity_pps > 0.0 {
                    flow.capacity_est_pps = capacity_pps;
                }
                if ack_seq > flow.snd_una {
                    let mut acked_bytes = 0;
                    for _ in flow.snd_una..ack_seq {
                        let p = flow.packets.pop_front_if(&mut out.sent, |_| true);
                        acked_bytes += p.expect("packets below snd_nxt are queued").len as usize;
                    }
                    flow.snd_una = ack_seq;
                    flow.last_progress_at = now;
                    flow.stream.acked(acked_bytes, cfg.snd_buf, cfg.mss, out);
                    restart_pacer(flow, cfg, out);
                }
            }
            UdtPacket::Nak { ranges } => {
                if flow.state != Phase::Established {
                    return;
                }
                flow.last_feedback_at = now;
                flow.naks_received += 1;
                flow.nak_in_syn = true;
                let mut first_reported = u64::MAX;
                let mut reported = 0u64;
                // The queued packets in each inclusive range, in one walk:
                // nothing outside `[snd_una, snd_nxt)` is resent, so a
                // forged range costs the window, not the sequence space.
                let ranges = ranges
                    .iter()
                    .map(|&(from, to)| (from, to.saturating_add(1)));
                let snd_una = flow.snd_una;
                let seq = |i: u32, _: &Unacked| snd_una + u64::from(i);
                flow.packets
                    .mark_ranges(&mut out.sent, ranges, seq, |seq, _| {
                        first_reported = first_reported.min(seq);
                        reported += 1;
                        true
                    });
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
                if first_reported != u64::MAX {
                    let rtt = flow.rtt.unwrap_or(0.1);
                    let epoch = Duration::from_secs_f64(rtt.max(4.0 * cfg.syn.as_secs_f64()));
                    let new_epoch = first_reported > flow.last_dec_seq
                        || now.duration_since(flow.last_dec_at) > epoch;
                    if new_epoch {
                        flow.snd_period_us *= 1.125;
                        flow.last_dec_seq = flow.snd_nxt;
                        flow.last_dec_at = now;
                        flow.rate_decreases += 1;
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
                flow.peer_fin_seq = final_seq;
                try_finish_receive(flow, out);
            }
            UdtPacket::FinAck => {
                flow.fin_acked = true;
                flow.state = Phase::Closed;
                flow.hdr.notify_closed(CloseReason::Normal, out);
            }
        }
    }

    fn on_timer(
        flow: &mut Flow,
        cfg: &UdtConfig,
        rec: &Recorder,
        now: SimTime,
        out: &mut Out,
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

    fn kill(flow: &mut Flow, out: &mut Out, rec: &Recorder, now: SimTime) {
        flow.state = Phase::Closed;
        flow.pacer_active = false;
        flow.stream.free_buffers(&mut out.pool);
        flow.packets.clear(&mut out.sent);
        Self::after_step(flow, rec, now);
        // Fresh rings rather than clear(): a killed flow's slot lingers in
        // the slab, and VecDeque::clear keeps its ring buffer allocated
        // (the B-tree container frees on clear).
        flow.missing.clear();
        flow.last_nak = SeqRanges::default();
        flow.proc_fifo = VecDeque::new();
        flow.pair_samples = VecDeque::new();
    }

    /// `nak_recovery` span maintenance: every state transition runs through
    /// a step of the core, so the edges between no packet marked lost and
    /// some are all observable here — open on the first loss of an
    /// episode, close when recovery has resent the last (or the flow dies).
    fn after_step(flow: &mut Flow, rec: &Recorder, now: SimTime) {
        let in_loss = flow.packets.any_lost() && flow.state != Phase::Closed;
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
                    key: u64::from(flow.state == Phase::Closed),
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

    fn stream<'a>(flow: &'a mut Flow, cfg: &UdtConfig) -> (&'a mut Stream, Phase, usize) {
        (&mut flow.stream, flow.state, cfg.snd_buf)
    }

    fn kick(flow: &mut Flow, cfg: &UdtConfig, _rec: &Recorder, _now: SimTime, out: &mut Out) {
        restart_pacer(flow, cfg, out);
    }
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
    out: &mut Out,
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
    while flow.stream.deliver_held(flow.rcv_nxt, out).is_some() {
        flow.rcv_nxt += 1;
    }
    try_finish_receive(flow, out);
}

fn try_finish_receive(flow: &mut Flow, out: &mut Out) {
    if flow.rcv_nxt >= flow.peer_fin_seq {
        out.push(Action::Send(UdtPacket::FinAck));
        flow.state = Phase::Closed;
        flow.hdr.notify_closed(CloseReason::Normal, out);
    }
}

/// Collects up to `cap` (at most 64) inclusive ranges from a sorted set,
/// kept as the `last` report.
fn collect_ranges(set: &BTreeSet<u64>, cap: usize, last: &mut SeqRanges) -> SeqRanges {
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
    last.update(&ranges[..n])
}

/// Transmits one packet if allowed: retransmissions first, then new data,
/// then a pending FIN. Returns the sequence sent (for pair scheduling).
fn send_one(flow: &mut Flow, cfg: &UdtConfig, _now: SimTime, out: &mut Out) -> Option<u64> {
    // 1. Retransmission.
    if let Some((at, packet)) = flow.packets.take(&mut out.sent) {
        let seq = flow.snd_una + u64::from(at);
        let (offset, len) = (packet.offset, packet.len);
        flow.retransmits += 1;
        flow.packets_sent += 1;
        flow.sent_in_syn = true;
        out.push(Action::Send(UdtPacket::Data {
            seq,
            probe: false,
            payload: flow.stream.resend(offset, len as usize, &out.pool),
        }));
        return Some(seq);
    }
    // 2. New data, if the flow window allows.
    if flow.stream.has_queued() && flow.flight_pkts() < flow_window_pkts(flow, cfg) {
        let (offset, payload) = flow
            .stream
            .next_payload(cfg.mss, &out.pool)
            .expect("bytes queued");
        let seq = flow.snd_nxt;
        flow.snd_nxt += 1;
        let packet = Unacked {
            offset,
            len: payload.len() as u32,
            lost: false,
        };
        flow.packets.push_back(&mut out.sent, packet);
        flow.packets_sent += 1;
        flow.sent_in_syn = true;
        out.push(Action::Send(UdtPacket::Data {
            seq,
            probe: seq.is_multiple_of(16) && seq > 0,
            payload,
        }));
        return Some(seq);
    }
    // 3. FIN once everything is out.
    if flow.stream.fin_queued && !flow.fin_sent && !flow.stream.has_queued() {
        flow.fin_sent = true;
        out.push(Action::Send(UdtPacket::Fin {
            final_seq: flow.snd_nxt,
        }));
    }
    None
}

fn restart_pacer(flow: &mut Flow, cfg: &UdtConfig, out: &mut Out) {
    if flow.pacer_active || flow.state != Phase::Established {
        return;
    }
    let work = flow.packets.any_lost()
        || (flow.stream.has_queued() && flow.flight_pkts() < flow_window_pkts(flow, cfg))
        || (flow.stream.fin_queued && !flow.fin_sent);
    if work {
        flow.pacer_active = true;
        flow.pacer_gen += 1;
        out.push(arm(KIND_PACER, Duration::ZERO, flow.pacer_gen as u32));
    }
}

/// A simulated UDT connection handle.
pub type UdtConn = Conn<UdtConfig>;

impl UdtConn {
    /// Per-connection counters.
    #[must_use]
    pub fn stats(&self) -> UdtConnStats {
        self.peek(|f, _| UdtConnStats {
            bytes_sent: f.stream.bytes_sent,
            bytes_acked: f.stream.bytes_acked,
            bytes_delivered: f.stream.bytes_delivered,
            packets_sent: f.packets_sent,
            retransmits: f.retransmits,
            naks_received: f.naks_received,
            rate_decreases: f.rate_decreases,
            rx_proc_drops: f.rx_proc_drops,
            rcv_buf_drops: f.rcv_buf_drops,
            expirations: f.expirations,
        })
        .unwrap_or_default()
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
        self.state == Phase::Closed
            && !self.pacer_active
            && self.nak_span == 0
            && self.stream.is_freed()
            && self.packets.is_clear()
            && self.missing.is_empty()
            && self.last_nak.is_empty()
            && self.proc_fifo.capacity() == 0
            && self.pair_samples.capacity() == 0
    }

    /// `(snd_una, snd_nxt)`.
    pub(crate) fn unacked(&self) -> (u64, u64) {
        (self.snd_una, self.snd_nxt)
    }

    /// The handshake RTT in seconds (initiator side only).
    pub(crate) fn rtt(&self) -> Option<f64> {
        self.rtt
    }

    /// The packets marked lost, ascending.
    fn lost_seqs(&self, pool: &flowstack::NodePool<Unacked>) -> Vec<u64> {
        let marked = self.packets.iter(pool).enumerate().filter(|(_, p)| p.lost);
        marked.map(|(i, _)| self.snd_una + i as u64).collect()
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
    use crate::link::{LinkConfig, PolicerConfig};
    use crate::network::Network;
    use crate::packet::{Endpoint, NodeId};
    use crate::testutil::{pattern_bytes, PatternSender, Recorder};

    /// The paper's tuned configuration: 100 MB protocol buffers.
    fn tuned_buffers() -> UdtConfig {
        UdtConfig {
            snd_buf: 100 * 1024 * 1024,
            rcv_buf: 100 * 1024 * 1024,
            ..UdtConfig::default()
        }
    }

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
        UdtListener::bind(
            net,
            b,
            90,
            cfg,
            Arc::new(AcceptRecorder { rec: rec.clone() }),
        )
        .expect("bind")
    }

    #[test]
    fn high_rtt_throughput_beats_windowed_tcp_shape() {
        // 125 MB/s link, 320 ms RTT, clean except the processing cap:
        // UDT should ramp to ~10 MB/s (1/130 µs per packet) regardless of
        // the huge BDP.
        let (sim, net, a, b) = setup(LinkConfig::new(125e6, Duration::from_millis(160)));
        let server = Arc::new(Recorder::with_sim(&sim));
        let _l = listen(&net, b, &server, tuned_buffers());
        let total = 40_000_000usize;
        let pump = PatternSender::new(total);
        let conn = UdtConn::connect(&net, a, Endpoint::new(b, 90), tuned_buffers(), pump).unwrap();
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
        let link =
            LinkConfig::new(125e6, Duration::from_millis(77)).udp_policer(PolicerConfig::ec2_udp());
        let (sim, net, a, b) = setup(link);
        let server = Arc::new(Recorder::with_sim(&sim));
        let _l = listen(&net, b, &server, tuned_buffers());
        let total = 60_000_000usize;
        let pump = PatternSender::new(total);
        let conn = UdtConn::connect(&net, a, Endpoint::new(b, 90), tuned_buffers(), pump).unwrap();
        sim.run_for(Duration::from_secs(120));
        assert_eq!(server.data_len(), total);
        let rate = server.goodput();
        assert!(
            (4e6..11e6).contains(&rate),
            "policed UDT should sit below the 10 MB/s policer, got {rate:.0}"
        );
        assert!(
            conn.stats().naks_received > 0,
            "policer drops must cause NAKs"
        );
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
        let pump = PatternSender::new(total);
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
        in_flight(&conn, una, 8);
        conn.process(|flow, cfg, rec, now, out| {
            let ranges = SeqRanges::from(&[(0, una + 1), (una + 5, u64::MAX)][..]);
            UdtConfig::on_wire(flow, cfg, rec, now, out, UdtPacket::Nak { ranges });
        });
        let lost = conn.peek_out(|f, _, out| f.lost_seqs(&out.sent));
        assert_eq!(lost.unwrap(), [una, una + 1, una + 5, una + 6, una + 7]);
        assert_eq!(
            resend_all(&conn, una),
            [una, una + 1, una + 5, una + 6, una + 7]
        );
        let losses: Vec<u64> = (sim.recorder().events().iter())
            .filter_map(|e| match e.kind {
                EventKind::UdtNak { sent, losses, .. } if !sent => Some(losses),
                _ => None,
            })
            .collect();
        assert_eq!(losses, [5]);
    }

    const MSS: usize = 1448;

    /// Writes `packets` full packets of pattern bytes into the established
    /// `conn` and sends them as packets `una..una + packets`: in flight,
    /// none acknowledged, their bytes in the stream.
    fn in_flight(conn: &UdtConn, una: u64, packets: u64) {
        let len = packets as usize * MSS;
        assert_eq!(conn.send(pattern_bytes(0, len)), len);
        conn.process(|flow, cfg, _rec, now, out| {
            (flow.snd_una, flow.snd_nxt) = (una, una);
            for _ in 0..packets {
                send_one(flow, cfg, now, out);
            }
            assert_eq!(flow.packets.iter(&out.sent).count() as u64, packets);
        });
    }

    /// Lets the pacer resend every packet marked lost; their sequence
    /// numbers, in sending order. Each carries the bytes first sent as
    /// packet `seq` of [`in_flight`]'s.
    fn resend_all(conn: &UdtConn, una: u64) -> Vec<u64> {
        conn.peek_out(|flow, cfg, out| {
            let resent = std::iter::from_fn(|| send_one(flow, cfg, SimTime::ZERO, out)).collect();
            for action in out.actions() {
                let flowstack::Action::Send(UdtPacket::Data { seq, payload, .. }) = action else {
                    panic!("only data is resent");
                };
                let at = (seq - una) as usize * MSS;
                assert_eq!(*payload, pattern_bytes(at, MSS), "packet {seq}");
            }
            resent
        })
        .unwrap()
    }

    #[test]
    fn a_nak_marks_its_packets_an_ack_clears_them_and_the_pacer_resends_in_order() {
        let (sim, net, a, b) = setup(LinkConfig::new(10e6, Duration::from_millis(5)));
        let _l = listen(
            &net,
            b,
            &Arc::new(Recorder::default()),
            UdtConfig::default(),
        );
        let client = Arc::new(Recorder::default());
        let conn =
            UdtConn::connect(&net, a, Endpoint::new(b, 90), UdtConfig::default(), client).unwrap();
        sim.run_for(Duration::from_secs(1));
        assert!(conn.is_established());
        // Ten packets in flight from 100.
        let una = 100;
        let lost = || conn.peek_out(|f, _, out| f.lost_seqs(&out.sent)).unwrap();
        let arrive = |pkt: UdtPacket| {
            conn.process(|flow, cfg, rec, now, out| {
                UdtConfig::on_wire(flow, cfg, rec, now, out, pkt)
            });
        };
        in_flight(&conn, una, 10);
        let nak = |ranges: &[(u64, u64)]| UdtPacket::Nak {
            ranges: SeqRanges::from(ranges),
        };
        arrive(nak(&[(una + 7, una + 8), (una + 1, una + 3)]));
        assert_eq!(lost(), [una + 1, una + 2, una + 3, una + 7, una + 8]);
        arrive(UdtPacket::Ack {
            ack_seq: una + 2,
            capacity_pps: 0.0,
        });
        assert_eq!(lost(), [una + 2, una + 3, una + 7, una + 8]);
        // A mark below the next one to resend comes first; the resends
        // slice the stream the acknowledgement trimmed.
        arrive(nak(&[(una + 5, una + 5)]));
        assert_eq!(
            resend_all(&conn, una),
            [una + 2, una + 3, una + 5, una + 7, una + 8]
        );
        assert_eq!(lost(), [], "each resend clears its mark");
        assert!(!conn.peek(|f, _| f.packets.any_lost()).unwrap());
    }

    #[test]
    fn a_full_receive_buffer_counts_its_own_drops() {
        let (sim, net, a, b) = setup(LinkConfig::new(10e6, Duration::from_millis(5)));
        let server = Arc::new(Recorder::default());
        let _l = listen(&net, b, &server, UdtConfig::default());
        let small = UdtConfig {
            rcv_buf: 2_000,
            ..UdtConfig::default()
        };
        let client = Arc::new(Recorder::default());
        let conn = UdtConn::connect(&net, a, Endpoint::new(b, 90), small, client).unwrap();
        sim.run_for(Duration::from_secs(1));
        assert!(conn.is_established());
        // Packet 0 never arrives, so 1 and 2 wait behind the hole and fill
        // the 2 000-byte buffer; 3 does not fit.
        conn.process(|flow, cfg, rec, now, out| {
            for seq in 1..=3 {
                let payload = Bytes::from(vec![0; 1_000]);
                let data = UdtPacket::Data {
                    seq,
                    probe: false,
                    payload,
                };
                UdtConfig::on_wire(flow, cfg, rec, now, out, data);
            }
        });
        let stats = conn.stats();
        assert_eq!((stats.rcv_buf_drops, stats.rx_proc_drops), (1, 0));
    }

    #[test]
    fn collect_ranges_merges_runs() {
        let set: BTreeSet<u64> = [1, 2, 3, 7, 9, 10].into_iter().collect();
        let mut last = SeqRanges::default();
        assert_eq!(
            *collect_ranges(&set, 64, &mut last),
            [(1, 3), (7, 7), (9, 10)]
        );
        assert_eq!(*collect_ranges(&set, 2, &mut last), [(1, 3), (7, 7)]);
        assert_eq!(*last, [(1, 3), (7, 7)], "the last report is kept");
        assert!(collect_ranges(&BTreeSet::new(), 4, &mut last).is_empty());
        assert!(last.is_empty(), "an empty report is kept too");
    }
}
