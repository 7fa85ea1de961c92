//! The per-channel mechanism: the row a channel has in the component's
//! table, and its send queue — one queue with a write cursor.
//!
//! A channel's frames sit in one queue in send order from the send request
//! until the transport has acknowledged their last byte. The cursor
//! (`sent`, `written`) splits the queue into frames fully handed to the
//! transport (`frames[..sent]`, retained so a fresh connection can carry
//! them again), the frame being written (`frames[sent]`, `written` bytes
//! taken so far) and the frames waiting behind it. Everything that moves
//! the cursor lives here; *when* to redial, fail or swap is the
//! component's policy (`net/mod.rs`).

use std::collections::VecDeque;

use bytes::Bytes;
use kmsg_netsim::iface::Connection;
use kmsg_netsim::time::SimTime;
use kmsg_telemetry::{SpanId, SpanKind, Tracer};

use super::frame::FrameDecoder;
use crate::msg::NotifyToken;

/// Span close key: the covered work failed (send error, channel death,
/// retry budget exhausted).
pub(super) const SPAN_FAILED: u64 = 1;

/// One queued message, from the send request to the transport's
/// acknowledgement of its last byte.
pub(super) struct Frame {
    bytes: Bytes,
    notify: Option<NotifyToken>,
    /// The message's `msg` root span (`NONE` when tracing is off).
    msg_span: SpanId,
    /// The open span of the frame's current stage: `enqueue` until the
    /// transport has taken its last byte, `xmit` from then until that byte
    /// is acknowledged.
    stage_span: SpanId,
    /// `written_total` at the frame's end, once fully written.
    end: u64,
}

impl Frame {
    /// Ends the frame's stage and `msg` spans with `outcome` and hands back
    /// the notification its requester is owed.
    pub(super) fn finish(self, tr: &Tracer, now_ns: u64, outcome: u64) -> Option<NotifyToken> {
        tr.close_with(now_ns, self.stage_span, outcome);
        tr.close_with(now_ns, self.msg_span, outcome);
        self.notify
    }
}

/// Every frame of one channel the transport has not acknowledged yet, in
/// send order, and how far into them the current connection has written.
#[derive(Default)]
pub(super) struct SendQueue {
    frames: VecDeque<Frame>,
    /// How many frames from the front are fully written.
    sent: usize,
    /// Bytes of `frames[sent]` the transport has taken so far.
    written: usize,
    /// Bytes handed to the current connection so far.
    written_total: u64,
}

impl SendQueue {
    /// Nothing waiting to be written and nothing awaiting acknowledgement.
    pub(super) fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Queues a frame under a fresh `enqueue` span, which covers its wait
    /// until its last byte is handed to the transport.
    pub(super) fn push(
        &mut self,
        tr: &Tracer,
        now_ns: u64,
        span_key: u64,
        bytes: Bytes,
        notify: Option<NotifyToken>,
        msg_span: SpanId,
    ) {
        self.frames.push_back(Frame {
            bytes,
            notify,
            msg_span,
            stage_span: tr.open(now_ns, SpanKind::Enqueue, msg_span, msg_span, span_key),
            end: 0,
        });
    }

    /// Offers bytes to the transport's `send` from the cursor on, until it
    /// takes fewer than offered (its buffer is full; the caller resumes on
    /// `Writable`). Returns the `(bytes, frames)` written.
    pub(super) fn drain(
        &mut self,
        tr: &Tracer,
        now_ns: u64,
        mut send: impl FnMut(Bytes) -> usize,
    ) -> (u64, u64) {
        let (mut bytes_out, mut frames_out) = (0, 0);
        while let Some(frame) = self.frames.get_mut(self.sent) {
            let accepted = send(frame.bytes.slice(self.written..));
            self.written += accepted;
            self.written_total += accepted as u64;
            bytes_out += accepted as u64;
            if self.written < frame.bytes.len() {
                break;
            }
            // Queue wait over; the frame is now the transport's problem —
            // `xmit` covers it until its last byte is acked. It stays in
            // the queue until then: notifications fire at the ack, and a
            // fresh connection can carry it again if this one dies first.
            tr.close(now_ns, frame.stage_span);
            let msg = frame.msg_span;
            frame.stage_span = tr.open(now_ns, SpanKind::Xmit, msg, msg, self.written_total);
            frame.end = self.written_total;
            self.sent += 1;
            self.written = 0;
            frames_out += 1;
        }
        (bytes_out, frames_out)
    }

    /// Pops the oldest frame if the transport, having acknowledged `acked`
    /// bytes, has acknowledged its last one. Never a waiting frame.
    pub(super) fn pop_acked(&mut self, acked: u64) -> Option<Frame> {
        if self.sent == 0 || self.frames.front()?.end > acked {
            return None;
        }
        self.sent -= 1;
        self.frames.pop_front()
    }

    /// Moves the cursor back to the head of the queue for a fresh
    /// connection: every interrupted transmission ends and its frame
    /// re-enters the queue under a fresh `enqueue` span on the same trace,
    /// ahead of the waiting frames because it is older. At-least-once;
    /// exactly-once stays at the session layer. Returns how many frames
    /// will be written again.
    pub(super) fn rewind(&mut self, tr: &Tracer, now_ns: u64, span_key: u64) -> u64 {
        // Newest first: span ids are handed out in call order.
        for frame in self.frames.range_mut(..self.sent).rev() {
            tr.close_with(now_ns, frame.stage_span, SPAN_FAILED);
            let msg = frame.msg_span;
            frame.stage_span = tr.open(now_ns, SpanKind::Enqueue, msg, msg, span_key);
        }
        let requeued = self.sent as u64;
        self.sent = 0;
        self.written = 0;
        self.written_total = 0;
        requeued
    }

    /// Empties the queue of a channel that is giving up: the waiting
    /// frames first, then the written-but-unacknowledged ones.
    pub(super) fn take_all(&mut self) -> impl Iterator<Item = Frame> {
        let waiting = self.frames.split_off(self.sent);
        self.sent = 0;
        self.written = 0;
        waiting.into_iter().chain(std::mem::take(&mut self.frames))
    }
}

/// Lifecycle of a supervised channel (DESIGN.md §9); the transitions are
/// the component's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Phase {
    /// Initial dial in progress.
    Connecting,
    /// Handshake complete; frames flow.
    Established,
    /// Unexpected close observed; `attempts` redials made so far.
    Reconnecting {
        /// Redial attempts made so far (1-based once the first is due).
        attempts: u32,
    },
    /// Retry budget exhausted; queued frames were failed. Probe redials
    /// may still restore the channel.
    Dropped,
}

/// One row of the component's channel table.
pub(super) struct ChannelState {
    pub(super) conn: Option<Connection>,
    pub(super) phase: Phase,
    /// Whether this side dialled the channel. Only originated channels are
    /// supervised — for accepted channels the peer's supervisor redials.
    pub(super) originated: bool,
    pub(super) queue: SendQueue,
    pub(super) decoder: FrameDecoder,
    pub(super) last_activity: SimTime,
    /// The open `outage` supervision span (`NONE` while healthy). Opened
    /// at the `ConnectionLost` transition, closed at `ConnectionRestored`
    /// (key 0) or `ConnectionDropped` (key 1) — the same code points and
    /// timestamps as the status events, so the span window equals the
    /// observed recovery latency exactly.
    pub(super) outage_span: SpanId,
    /// The open `backoff` span (retry timer armed → fired).
    pub(super) backoff_span: SpanId,
    /// The open `redial` span (connect issued → Connected or the attempt's
    /// Closed event).
    pub(super) redial_span: SpanId,
}

impl ChannelState {
    pub(super) fn new(conn: Connection, phase: Phase, originated: bool, now: SimTime) -> Self {
        ChannelState {
            conn: Some(conn),
            phase,
            originated,
            queue: SendQueue::default(),
            decoder: FrameDecoder::new(),
            last_activity: now,
            outage_span: SpanId::NONE,
            backoff_span: SpanId::NONE,
            redial_span: SpanId::NONE,
        }
    }

    /// Gives the channel the connection that replaces the one it lost. The
    /// new stream starts at a frame boundary: whatever part of a frame the
    /// old one left behind ended with it.
    pub(super) fn attach(&mut self, conn: Connection) {
        self.conn = Some(conn);
        self.decoder = FrameDecoder::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmsg_telemetry::Recorder;

    /// Frames `[1; 10]`, `[2; 10]`, … under tokens 1, 2, …, and a tracer
    /// whose recorder is off (every span is `NONE`).
    fn queue(n: u8) -> (SendQueue, Tracer) {
        let tr = Recorder::new().tracer();
        let mut q = SendQueue::default();
        for i in 1..=n {
            let token = NotifyToken::new(u64::from(i));
            q.push(
                &tr,
                0,
                0,
                Bytes::from(vec![i; 10]),
                Some(token),
                SpanId::NONE,
            );
        }
        (q, tr)
    }

    /// A transport with `room` bytes of send buffer left, writing to `wire`.
    fn transport(wire: &mut Vec<u8>, mut room: usize) -> impl FnMut(Bytes) -> usize + '_ {
        move |bytes| {
            let n = bytes.len().min(room);
            room -= n;
            wire.extend_from_slice(&bytes[..n]);
            n
        }
    }

    fn tokens(frames: impl Iterator<Item = Frame>) -> Vec<u64> {
        frames.filter_map(|f| f.notify).map(|t| t.id).collect()
    }

    #[test]
    fn rewind_after_a_partial_write_restarts_at_byte_zero_in_send_order() {
        let (mut q, tr) = queue(3);
        let mut wire = Vec::new();
        // Frame 1 whole, four bytes of frame 2.
        assert_eq!(q.drain(&tr, 0, transport(&mut wire, 14)), (14, 1));
        assert_eq!(
            q.rewind(&tr, 0, 0),
            1,
            "one frame was written and unacknowledged"
        );
        let mut fresh = Vec::new();
        assert_eq!(q.drain(&tr, 0, transport(&mut fresh, usize::MAX)), (30, 3));
        assert_eq!(fresh, [[1u8; 10], [2; 10], [3; 10]].concat());
        // Byte counts restart with the connection.
        assert_eq!(tokens(std::iter::from_fn(|| q.pop_acked(20))), [1, 2]);
    }

    #[test]
    fn pop_acked_takes_frames_up_to_the_ack_and_never_a_waiting_one() {
        let (mut q, tr) = queue(3);
        let mut wire = Vec::new();
        // Frames 1 and 2 whole (ending at bytes 10 and 20), half of frame 3.
        assert_eq!(q.drain(&tr, 0, transport(&mut wire, 25)), (25, 2));
        assert!(q.pop_acked(9).is_none());
        assert_eq!(tokens(std::iter::from_fn(|| q.pop_acked(19))), [1]);
        assert_eq!(tokens(std::iter::from_fn(|| q.pop_acked(25))), [2]);
        assert!(
            q.pop_acked(u64::MAX).is_none(),
            "frame 3 is still being written"
        );
        assert!(!q.is_empty());
    }

    #[test]
    fn take_all_yields_waiting_frames_then_unacknowledged_ones() {
        let (mut q, tr) = queue(4);
        let mut wire = Vec::new();
        // 1 and 2 written, 3 part-written, 4 waiting.
        assert_eq!(q.drain(&tr, 0, transport(&mut wire, 25)), (25, 2));
        assert_eq!(tokens(q.take_all()), [3, 4, 1, 2]);
        assert!(q.is_empty());
    }
}
