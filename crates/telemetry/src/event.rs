//! Flight-recorder event schema.
//!
//! Every event pairs a virtual-clock timestamp with one [`EventKind`]
//! variant. The variants mirror the instrumented subsystems of the
//! simulator: TCP congestion control, UDT rate control, link queues,
//! packet lifecycles, the component scheduler and the Sarsa(λ) learner.
//! Fields are plain numbers (or `&'static str` labels) so recording never
//! allocates on the common paths; only packet-lifecycle events carry
//! endpoint strings, and those are built solely when the recorder is
//! enabled.
//!
//! The schema is declared once, in the `event_kinds!` table at the
//! bottom of this file: a kind's variant, its wire label and its fields in
//! wire order. The enum, [`KIND_LABELS`], [`KIND_COUNT`],
//! [`EventKind::index`] and the JSON field writer are all generated from
//! it, so adding a kind is one table entry.

use crate::export::push_field;

/// One recorded flight-recorder event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Virtual-clock timestamp in nanoseconds ([`crate::Recorder::record`]
    /// never reads the wall clock, so output is deterministic per seed).
    pub time_ns: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Declares the event schema: per kind its doc comment, variant, wire label
/// and documented, typed fields in wire order (`field as "name"` where the
/// JSON key differs from the field). Generates everything that must agree
/// on that list.
macro_rules! event_kinds {
    ($(
        $(#[$kind_doc:meta])+
        $variant:ident = $label:literal {
            $( $(#[$field_doc:meta])+ $field:ident $(as $wire:literal)? : $ty:ty, )+
        }
    )+) => {
        /// The structured payload of an [`Event`].
        #[derive(Debug, Clone, PartialEq)]
        pub enum EventKind {
            $( $(#[$kind_doc])+ $variant { $( $(#[$field_doc])+ $field: $ty, )+ }, )+
        }

        /// Stable snake_case labels, indexed by [`EventKind::index`].
        pub const KIND_LABELS: [&str; KIND_COUNT] = [$($label),+];

        /// Number of [`EventKind`] variants — sizes per-kind tally arrays.
        pub const KIND_COUNT: usize = [$($label),+].len();

        /// The variants without their fields: a discriminant is an index.
        enum Slot {
            $($variant),+
        }

        impl EventKind {
            /// Dense variant index into [`KIND_LABELS`] and per-kind tallies.
            #[must_use]
            pub fn index(&self) -> usize {
                match self {
                    $( EventKind::$variant { .. } => Slot::$variant as usize, )+
                }
            }

            /// Appends `,"field":value` for each of the variant's fields, in
            /// wire order.
            pub(crate) fn push_json_fields(&self, out: &mut String) {
                match self {
                    $( EventKind::$variant { $($field),+ } => {
                        $( push_field(out, event_kinds!(@key $field $($wire)?), $field); )+
                    } )+
                }
            }
        }
    };
    (@key $field:ident) => { stringify!($field) };
    (@key $field:ident $wire:literal) => { $wire };
}

impl EventKind {
    /// Stable snake_case label of the variant, used as the JSON `kind`
    /// field and for per-kind event counts in snapshots.
    #[must_use]
    pub fn label(&self) -> &'static str {
        KIND_LABELS[self.index()]
    }
}

event_kinds! {
    /// TCP congestion-window transition (slow-start/recovery boundaries,
    /// not per-ACK growth).
    TcpCwnd = "tcp_cwnd" {
        /// Connection id.
        conn: u64,
        /// New congestion window, bytes.
        cwnd: f64,
        /// New slow-start threshold, bytes.
        ssthresh: f64,
        /// What triggered the transition (`"rto"`, `"fast_recovery"`,
        /// `"recovery_exit"`, ...).
        cause: &'static str,
    }
    /// TCP retransmission timeout fired.
    TcpRto = "tcp_rto" {
        /// Connection id.
        conn: u64,
        /// Back-off-doubled RTO now armed, microseconds.
        rto_us: u64,
        /// Consecutive timeouts on this connection.
        consecutive: u64,
    }
    /// TCP segment (re)sent by loss recovery.
    TcpRetransmit = "tcp_retransmit" {
        /// Connection id.
        conn: u64,
        /// Sequence number of the retransmitted segment.
        seq: u64,
        /// `true` for fast retransmit, `false` for RTO-driven resend.
        fast: bool,
    }
    /// UDT sending-rate update (DAIMD increase or NAK-driven decrease).
    UdtRate = "udt_rate" {
        /// Connection id.
        conn: u64,
        /// New inter-packet sending period, microseconds.
        period_us: f64,
        /// Equivalent packet rate, packets/second.
        rate_pps: f64,
        /// `"syn_increase"` or `"nak_decrease"`.
        cause: &'static str,
    }
    /// UDT NAK round (loss report sent by the receiver or processed by the
    /// sender).
    UdtNak = "udt_nak" {
        /// Connection id.
        conn: u64,
        /// `true` when this side emitted the NAK, `false` when it received
        /// one.
        sent: bool,
        /// Number of sequence numbers reported lost.
        losses: u64,
    }
    /// Link queue occupancy sampled after a transmit decision.
    LinkQueue = "link_queue" {
        /// Link id.
        link: u64,
        /// Backlogged bytes waiting for the wire.
        backlog_bytes: u64,
        /// Queue capacity, bytes.
        capacity_bytes: u64,
    }
    /// Packet dropped at a link.
    LinkDrop = "link_drop" {
        /// Link id.
        link: u64,
        /// Drop reason label (`"queue_overflow"`, `"random_loss"`,
        /// `"policed"`, `"link_down"`).
        reason: &'static str,
        /// Wire size of the dropped packet, bytes.
        wire_size: u64,
    }
    /// Packet lifecycle record, folded in from the simulator's packet
    /// tracer.
    Packet = "packet" {
        /// Source endpoint, formatted `node:port`.
        src: String,
        /// Destination endpoint, formatted `node:port`.
        dst: String,
        /// Wire protocol label (`"tcp"`, `"udp"`, `"udt"`).
        proto: &'static str,
        /// Wire size, bytes.
        wire_size: u64,
        /// Lifecycle outcome (`"sent"`, `"delivered"`,
        /// `"dropped:queue_overflow"`, ...).
        outcome: String,
    }
    /// Component-scheduler ready-queue depth right after an enqueue.
    SchedulerQueue = "scheduler_queue" {
        /// Components queued (including the one just enqueued).
        depth: u64,
    }
    /// One component execute batch.
    ComponentExec = "component_exec" {
        /// Component id.
        component: u64,
        /// Messages/events handled in this batch. Deliberately a
        /// deterministic count, not a wall-clock duration — see the
        /// determinism notes in DESIGN.md §8.
        handled: u64,
    }
    /// One Sarsa(λ) decision.
    Decision = "decision" {
        /// Flow label of the learner instance.
        flow: u64,
        /// Learner step counter at decision time.
        step: u64,
        /// Discretised state index the decision was made in.
        state: u64,
        /// Chosen action index.
        action: u64,
        /// Reward observed for the previous action.
        reward: f64,
        /// Exploration rate at decision time.
        epsilon: f64,
        /// Whether the chosen action was the greedy one.
        greedy: bool,
    }
    /// A scripted fault injection or heal applied to a link (one event per
    /// affected link, in plan order — chaos runs replay byte-for-byte).
    Fault = "fault" {
        /// Action label (`"sever"`, `"link_down"`, `"link_up"`,
        /// `"burst_on"`, `"burst_off"`, `"latency_spike"`,
        /// `"latency_clear"`).
        action: &'static str,
        /// Link id the action was applied to.
        link: u64,
    }
    /// Middleware channel status transition (supervision observed an
    /// outage, a successful reconnect, or gave up).
    ConnStatus = "conn_status" {
        /// Remote peer encoded as `node_index << 16 | port`.
        peer: u64,
        /// Transport label of the supervised channel.
        transport: &'static str,
        /// `"lost"`, `"restored"` or `"dropped"`.
        status: &'static str,
        /// Reconnect attempts so far (meaningful for `"restored"`).
        attempts: u64,
    }
    /// Synthetic truncation marker: the ring evicted events it can no
    /// longer show (currently emitted by [`crate::Recorder::set_capacity`]
    /// when shrinking mid-run). Oracles that need a complete stream —
    /// e.g. packet conservation — treat any trace containing this marker
    /// (or a nonzero [`crate::Recorder::evicted`] count) as truncated and
    /// skip instead of false-failing.
    Overflow = "overflow" {
        /// Events evicted by the truncation this marker stands in for.
        evicted: u64,
    }
    /// Generic instrumentation marker for tests and harnesses.
    Mark = "mark" {
        /// Caller-defined marker id.
        id: u64,
        /// Caller-defined value.
        value: u64,
    }
    /// A causal span opened (see [`crate::trace`]). Spans form a forest
    /// per trace: `parent == 0` marks a root. All fields are plain
    /// numbers or static labels so the record path never allocates.
    SpanOpen = "span_open" {
        /// Packed span id ([`crate::trace::SpanId`]): kind byte in the
        /// top 8 bits, per-recorder sequence below.
        span: u64,
        /// Packed id of the enclosing span, `0` for roots.
        parent: u64,
        /// Trace id this span belongs to (the root span's id), `0` when
        /// the work is not attributed to one application message.
        trace: u64,
        /// Span kind label (`"msg"`, `"enqueue"`, `"xmit"`, `"outage"`,
        /// `"backoff"`, `"redial"`, `"seg"`, `"hop"`, ...).
        kind as "span_kind": &'static str,
        /// Kind-specific correlation key (channel key, `conn << 32 | seq`,
        /// link id, ...). `0` when unused.
        key: u64,
    }
    /// A causal span closed. Every [`EventKind::SpanOpen`] in a complete
    /// trace has exactly one close at `time_ns >=` its open time (checked
    /// by the span oracle in `kmsg-oracle`).
    SpanClose = "span_close" {
        /// Packed id of the span being closed.
        span: u64,
        /// Kind-specific outcome key (`0` = normal; e.g. `1` on a `seg`
        /// span that was retransmitted, drop-reason index on a `hop`).
        key: u64,
    }
    /// One pub/sub overlay action (publish, route selection, reroute,
    /// delivery, or a drop). All fields are plain numbers so recording
    /// never allocates; the overlay oracle reconstructs loop-freedom and
    /// at-most-once delivery from these.
    Overlay = "overlay" {
        /// Action label (`"publish"`, `"route"`, `"reroute"`, `"deliver"`,
        /// `"dup_drop"`, `"no_route"`, `"stale_drop"`, `"ttl_drop"`,
        /// `"link_down"`, `"link_up"`).
        action: &'static str,
        /// Overlay message id (`origin_node << 32 | seq`), `0` when the
        /// action is not tied to one message.
        msg: u64,
        /// Node index where the action happened.
        node: u64,
        /// Action-specific payload: the packed relay path on
        /// `route`/`reroute` (one node index + 1 per byte, low byte first,
        /// `u64::MAX` = unencodable), the subject hash on
        /// `publish`/`deliver`, the peer node on `link_down`/`link_up`.
        aux: u64,
    }
    /// One gossip digest sent to a peer (periodic anti-entropy round or
    /// an event-driven flood after a local table change).
    Gossip = "gossip" {
        /// Sending node index.
        node: u64,
        /// Receiving peer node index.
        peer: u64,
        /// Link-state plus subscription entries carried in the digest.
        entries: u64,
    }
    /// Congestion-window transition of a pluggable (non-Reno) congestion
    /// controller. Reno keeps emitting [`EventKind::TcpCwnd`] (byte-stable
    /// legacy stream); CUBIC and BBR emit this richer record so the
    /// per-controller oracles can check window-growth legality.
    CcWindow = "cc_window" {
        /// Connection id.
        conn: u64,
        /// Controller label (`"cubic"`, `"bbr"`).
        controller: &'static str,
        /// Transition cause (`"epoch"`, `"growth"`, `"loss"`, `"rto"`).
        cause: &'static str,
        /// Congestion window before the transition, bytes.
        prev_cwnd: f64,
        /// Congestion window after the transition, bytes.
        cwnd: f64,
        /// Slow-start threshold after the transition, bytes.
        ssthresh: f64,
        /// Controller-specific reference window, bytes (CUBIC `W_max`;
        /// `0` when the controller has none).
        w_max: f64,
    }
    /// BBR-style controller state checkpoint: emitted on every phase
    /// transition and whenever the bottleneck-bandwidth estimate is
    /// re-adopted, so the BBR oracle can bound pacing rate and cwnd
    /// against the estimated BDP.
    BbrState = "bbr_state" {
        /// Connection id.
        conn: u64,
        /// Phase label (`"startup"`, `"drain"`, `"probe_bw"`).
        phase: &'static str,
        /// Current pacing rate, bytes/second.
        pacing_rate_bps: f64,
        /// Windowed-max bottleneck bandwidth estimate, bytes/second.
        btl_bw_bps: f64,
        /// Windowed-min RTT estimate, microseconds.
        min_rtt_us: u64,
        /// Congestion window (inflight cap), bytes.
        cwnd: f64,
    }
    /// A per-destination congestion-controller swap decision on the DATA
    /// policy surface: the stack policy re-selected the controller for a
    /// peer, optionally recycling the live TCP channel so the change takes
    /// effect immediately.
    CcSwap = "cc_swap" {
        /// Peer key (`node_index << 16 | port`, the `ConnStatus` encoding).
        peer: u64,
        /// The controller now selected (`"reno"`, `"cubic"`, `"bbr"`).
        controller: &'static str,
        /// Whether a live channel was recycled onto the new controller
        /// (`false` when the swap only affects future dials).
        recycled: bool,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// One value of every kind, in declaration order, carrying the values
    /// JSON encoders get wrong: the `u64` extremes, non-finite and signed-zero
    /// floats, a float past 2⁵³, and every class of escaped character.
    pub(crate) fn one_of_every_kind() -> Vec<EventKind> {
        vec![
            EventKind::TcpCwnd {
                conn: u64::MAX,
                cwnd: f64::NAN,
                ssthresh: f64::INFINITY,
                cause: "r\"t\\o",
            },
            EventKind::TcpRto { conn: 1, rto_us: u64::MAX, consecutive: 0 },
            EventKind::TcpRetransmit { conn: 2, seq: 3, fast: true },
            EventKind::UdtRate {
                conn: 4,
                period_us: -0.0,
                rate_pps: 1e21,
                cause: "syn\nincrease",
            },
            EventKind::UdtNak { conn: 5, sent: false, losses: 6 },
            EventKind::LinkQueue { link: 7, backlog_bytes: 0, capacity_bytes: u64::MAX },
            EventKind::LinkDrop { link: 8, reason: "queue\u{1}overflow", wire_size: 1500 },
            EventKind::Packet {
                src: "a\"0\":1".to_string(),
                dst: "b\\1:2".to_string(),
                proto: "udp",
                wire_size: 9,
                outcome: "dropped:\tpoliced\r".to_string(),
            },
            EventKind::SchedulerQueue { depth: 10 },
            EventKind::ComponentExec { component: 11, handled: 12 },
            EventKind::Decision {
                flow: 13,
                step: 14,
                state: 15,
                action: 16,
                reward: f64::NEG_INFINITY,
                epsilon: 1e-7,
                greedy: false,
            },
            EventKind::Fault { action: "sever", link: 17 },
            EventKind::ConnStatus { peer: 18, transport: "tcp", status: "lost", attempts: 19 },
            EventKind::Overflow { evicted: 20 },
            EventKind::Mark { id: 21, value: 22 },
            EventKind::SpanOpen { span: 23, parent: 0, trace: 23, kind: "seg", key: u64::MAX },
            EventKind::SpanClose { span: 23, key: 1 },
            EventKind::Overlay { action: "route", msg: 24, node: 25, aux: u64::MAX },
            EventKind::Gossip { node: 26, peer: 27, entries: 28 },
            EventKind::CcWindow {
                conn: 29,
                controller: "cubic",
                cause: "loss",
                prev_cwnd: 2920.0,
                cwnd: 0.5,
                ssthresh: -1.25,
                w_max: 1e16,
            },
            EventKind::BbrState {
                conn: 30,
                phase: "probe_bw",
                pacing_rate_bps: 1.5e6,
                btl_bw_bps: f64::NAN,
                min_rtt_us: 31,
                cwnd: 0.0,
            },
            EventKind::CcSwap { peer: 32, controller: "bbr", recycled: true },
        ]
    }

    #[test]
    fn labels_are_unique_and_index_is_a_bijection() {
        let mut labels = KIND_LABELS.to_vec();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), KIND_COUNT, "duplicate label in {KIND_LABELS:?}");

        let kinds = one_of_every_kind();
        let indices: Vec<usize> = kinds.iter().map(EventKind::index).collect();
        assert_eq!(indices, (0..KIND_COUNT).collect::<Vec<_>>());
        for k in &kinds {
            assert_eq!(KIND_LABELS[k.index()], k.label());
        }
    }

    /// DESIGN.md §8's source → events table is the catalogue people read;
    /// it lists every kind or this fails.
    #[test]
    fn design_doc_catalogues_every_kind() {
        let design = include_str!("../../../DESIGN.md");
        let section = design.split("\n## ").find(|s| s.starts_with("8. Telemetry"));
        let section = section.expect("DESIGN.md has a section 8, Telemetry");
        for label in KIND_LABELS {
            assert!(section.contains(&format!("`{label}`")), "DESIGN.md §8 does not list `{label}`");
        }
    }
}
