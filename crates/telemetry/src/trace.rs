//! Causal spans over the flight recorder.
//!
//! A **span** is an interval of virtual time attributed to one stage of a
//! message's life (queueing, transmission, a link hop, a reconnect
//! episode, ...). Spans are recorded as plain flight-recorder events —
//! [`EventKind::SpanOpen`] / [`EventKind::SpanClose`] — so they inherit
//! every property of the ring: lock-free single-writer recording,
//! deterministic sim-time stamps, JSONL export, and ~zero cost while the
//! recorder is disabled.
//!
//! Span ids are **packed 8-byte handles** in the slab-handle idiom: the
//! top byte carries the [`SpanKind`], the low 56 bits a per-recorder
//! sequence number. The hot path allocates nothing — opening a span is
//! one relaxed `fetch_add` plus one ring append, and a disabled recorder
//! returns [`SpanId::NONE`] after a single relaxed load.
//!
//! Spans form a forest: a root span (opened with [`Tracer::open_root`])
//! doubles as the **trace id** for the whole message, and children carry
//! both their parent's id and the trace id so consumers can reconstruct
//! per-message critical paths ([`crate::critical_path`]) without a join
//! over intermediate spans.

use crate::event::EventKind;
use crate::Recorder;

/// What a span measures. The discriminant is packed into the top byte of
/// every [`SpanId`], so a raw id is self-describing even without its
/// open event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SpanKind {
    /// Whole application message: middleware `send` to acked delivery.
    Msg = 1,
    /// Frame waiting in a channel's pending queue.
    Enqueue = 2,
    /// Frame on the wire: first byte written to fully acknowledged.
    Xmit = 3,
    /// Transport resolution for one message (DATA striping / failover).
    ChannelPick = 4,
    /// Supervision episode: channel lost to restored (or dropped).
    Outage = 5,
    /// Reconnect backoff timer armed to fired.
    Backoff = 6,
    /// One redial attempt: connect issued to established (or failed).
    Redial = 7,
    /// Unacked frames requeued ahead of pending on channel death.
    Requeue = 8,
    /// DATA frame rerouted to the surviving transport.
    Failover = 9,
    /// Frame handed to the destination port (delivery edge).
    Deliver = 10,
    /// Receiver-side duplicate absorbed by session dedup.
    Dedup = 11,
    /// One transport segment: first transmission to cumulative ack.
    Seg = 12,
    /// UDT loss recovery: first NAK-listed packet to loss list drained.
    NakRecovery = 13,
    /// Packet in flight across the fabric: injected to delivered/dropped.
    Flight = 14,
    /// One link traversal (queue + wire + propagation) of one packet.
    Hop = 15,
    /// One learner decision (Sarsa step) — instant.
    Decide = 16,
}

impl SpanKind {
    /// Stable label used in span events and trace exports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Msg => "msg",
            SpanKind::Enqueue => "enqueue",
            SpanKind::Xmit => "xmit",
            SpanKind::ChannelPick => "channel_pick",
            SpanKind::Outage => "outage",
            SpanKind::Backoff => "backoff",
            SpanKind::Redial => "redial",
            SpanKind::Requeue => "requeue",
            SpanKind::Failover => "failover",
            SpanKind::Deliver => "deliver",
            SpanKind::Dedup => "dedup",
            SpanKind::Seg => "seg",
            SpanKind::NakRecovery => "nak_recovery",
            SpanKind::Flight => "flight",
            SpanKind::Hop => "hop",
            SpanKind::Decide => "decide",
        }
    }

    /// Recovers the kind from a packed id's top byte.
    #[must_use]
    pub(crate) fn from_byte(b: u8) -> Option<SpanKind> {
        Some(match b {
            1 => SpanKind::Msg,
            2 => SpanKind::Enqueue,
            3 => SpanKind::Xmit,
            4 => SpanKind::ChannelPick,
            5 => SpanKind::Outage,
            6 => SpanKind::Backoff,
            7 => SpanKind::Redial,
            8 => SpanKind::Requeue,
            9 => SpanKind::Failover,
            10 => SpanKind::Deliver,
            11 => SpanKind::Dedup,
            12 => SpanKind::Seg,
            13 => SpanKind::NakRecovery,
            14 => SpanKind::Flight,
            15 => SpanKind::Hop,
            16 => SpanKind::Decide,
            _ => return None,
        })
    }
}

/// Packed 8-byte span handle: `kind << 56 | sequence`.
///
/// `SpanId::NONE` (all zeros) means "no span" — it is what every tracer
/// call returns while the recorder is disabled, and closing it is a
/// no-op, so instrumented code threads ids around unconditionally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SpanId(u64);

impl SpanId {
    /// The null span: never recorded, closing it is a no-op.
    pub const NONE: SpanId = SpanId(0);

    /// Rebuilds a handle from its raw packed value (e.g. a field carried
    /// through an in-memory struct).
    #[must_use]
    pub fn from_raw(raw: u64) -> SpanId {
        SpanId(raw)
    }

    /// The raw packed value (0 for [`SpanId::NONE`]).
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Whether this is the null span.
    #[must_use]
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// The kind packed into the top byte, if the id is valid.
    #[must_use]
    pub fn kind(self) -> Option<SpanKind> {
        SpanKind::from_byte((self.0 >> 56) as u8)
    }
}

/// Span recording front-end: a thin, cloneable wrapper over a
/// [`Recorder`] that allocates ids and stamps open/close events.
#[derive(Debug, Clone)]
pub struct Tracer {
    rec: Recorder,
}

impl Tracer {
    /// A tracer recording into `rec`.
    #[must_use]
    pub(crate) fn new(rec: Recorder) -> Tracer {
        Tracer { rec }
    }

    /// Opens a span at virtual time `time_ns`. Returns [`SpanId::NONE`]
    /// without recording anything while the recorder is disabled.
    #[inline]
    pub fn open(
        &self,
        time_ns: u64,
        kind: SpanKind,
        parent: SpanId,
        trace: SpanId,
        key: u64,
    ) -> SpanId {
        if !self.rec.is_enabled() {
            return SpanId::NONE;
        }
        let id = SpanId(((kind as u64) << 56) | self.rec.next_span_seq());
        self.rec.record(
            time_ns,
            EventKind::SpanOpen {
                span: id.0,
                parent: parent.0,
                trace: trace.0,
                kind: kind.label(),
                key,
            },
        );
        id
    }

    /// Opens a root span whose id doubles as the trace id for all its
    /// descendants.
    #[inline]
    pub fn open_root(&self, time_ns: u64, kind: SpanKind, key: u64) -> SpanId {
        if !self.rec.is_enabled() {
            return SpanId::NONE;
        }
        let id = SpanId(((kind as u64) << 56) | self.rec.next_span_seq());
        self.rec.record(
            time_ns,
            EventKind::SpanOpen {
                span: id.0,
                parent: 0,
                trace: id.0,
                kind: kind.label(),
                key,
            },
        );
        id
    }

    /// Closes a span with outcome key 0. No-op for [`SpanId::NONE`].
    #[inline]
    pub fn close(&self, time_ns: u64, span: SpanId) {
        self.close_with(time_ns, span, 0);
    }

    /// Closes a span with a kind-specific outcome key. No-op for
    /// [`SpanId::NONE`] — which is also what keeps the disabled path
    /// free: a span that was never opened is never closed.
    #[inline]
    pub fn close_with(&self, time_ns: u64, span: SpanId, key: u64) {
        if span.is_none() {
            return;
        }
        self.rec
            .record(time_ns, EventKind::SpanClose { span: span.0, key });
    }

    /// Records a zero-duration span (open + close at the same instant) —
    /// for lifecycle *edges* (a requeue, a dedup hit, a learner decision)
    /// where the interesting datum is when it happened and its key.
    #[inline]
    pub fn instant(&self, time_ns: u64, kind: SpanKind, parent: SpanId, trace: SpanId, key: u64) {
        let id = self.open(time_ns, kind, parent, trace, key);
        self.close(time_ns, id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SpanId {
        /// The low 56-bit allocation sequence number.
        #[must_use]
        fn seq(self) -> u64 {
            self.0 & ((1 << 56) - 1)
        }
    }

    #[test]
    fn disabled_tracer_is_free_and_returns_none() {
        let rec = Recorder::new();
        let tr = rec.tracer();
        let id = tr.open_root(5, SpanKind::Msg, 9);
        assert!(id.is_none());
        tr.close(6, id);
        tr.instant(7, SpanKind::Requeue, id, id, 0);
        assert_eq!(rec.event_count(), 0);
        assert_eq!(rec.recorded_total(), 0);
    }

    #[test]
    fn ids_pack_kind_and_sequence() {
        let rec = Recorder::new();
        rec.enable();
        let tr = rec.tracer();
        let root = tr.open_root(1, SpanKind::Msg, 0);
        let child = tr.open(2, SpanKind::Xmit, root, root, 42);
        assert_eq!(root.kind(), Some(SpanKind::Msg));
        assert_eq!(child.kind(), Some(SpanKind::Xmit));
        assert_eq!(root.seq(), 1);
        assert_eq!(child.seq(), 2);
        assert_eq!(SpanId::from_raw(child.raw()), child);
        assert!(!child.is_none());
        tr.close(3, child);
        tr.close(4, root);
        let evs = rec.events();
        assert_eq!(evs.len(), 4);
        match evs[1].kind {
            EventKind::SpanOpen {
                span,
                parent,
                trace,
                kind,
                key,
            } => {
                assert_eq!(span, child.raw());
                assert_eq!(parent, root.raw());
                assert_eq!(trace, root.raw());
                assert_eq!(kind, "xmit");
                assert_eq!(key, 42);
            }
            ref k => panic!("unexpected {k:?}"),
        }
        match evs[3].kind {
            EventKind::SpanClose { span, key } => {
                assert_eq!(span, root.raw());
                assert_eq!(key, 0);
            }
            ref k => panic!("unexpected {k:?}"),
        }
    }

    #[test]
    fn same_inputs_allocate_identical_ids() {
        let run = || {
            let rec = Recorder::new();
            rec.enable();
            let tr = rec.tracer();
            let a = tr.open_root(1, SpanKind::Msg, 0);
            let b = tr.open(2, SpanKind::Seg, a, a, 7);
            tr.close(3, b);
            tr.close(4, a);
            (a.raw(), b.raw(), rec.to_jsonl())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn kind_round_trips_through_byte() {
        for k in [
            SpanKind::Msg,
            SpanKind::Enqueue,
            SpanKind::Xmit,
            SpanKind::ChannelPick,
            SpanKind::Outage,
            SpanKind::Backoff,
            SpanKind::Redial,
            SpanKind::Requeue,
            SpanKind::Failover,
            SpanKind::Deliver,
            SpanKind::Dedup,
            SpanKind::Seg,
            SpanKind::NakRecovery,
            SpanKind::Flight,
            SpanKind::Hop,
            SpanKind::Decide,
        ] {
            assert_eq!(SpanKind::from_byte(k as u8), Some(k), "{}", k.label());
        }
        assert_eq!(SpanKind::from_byte(0), None);
        assert_eq!(SpanKind::from_byte(200), None);
    }
}
