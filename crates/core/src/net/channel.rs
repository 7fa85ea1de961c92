//! The per-channel mechanism: a channel's send queue — one queue with a
//! write cursor.
//!
//! A channel's frames sit in one queue in send order from the send request
//! until the transport has acknowledged their last byte. The cursor
//! (`sent`, `written`) splits the queue into frames fully handed to the
//! transport (`frames[..sent]`, retained so a fresh connection can carry
//! them again), the frame being written (`frames[sent]`, `written` bytes
//! taken so far) and the frames waiting behind it. Everything that moves
//! the cursor lives here; *when* to redial or fail is the channel table's
//! policy (`net/machine.rs`).

use std::collections::VecDeque;

use kmsg_telemetry::bytes::Bytes;
use kmsg_telemetry::{SpanId, SpanKind, Tracer};

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
        assert!(!q.frames.is_empty());
    }

    #[test]
    fn take_all_yields_waiting_frames_then_unacknowledged_ones() {
        let (mut q, tr) = queue(4);
        let mut wire = Vec::new();
        // 1 and 2 written, 3 part-written, 4 waiting.
        assert_eq!(q.drain(&tr, 0, transport(&mut wire, 25)), (25, 2));
        assert_eq!(tokens(q.take_all()), [3, 4, 1, 2]);
        assert!(q.frames.is_empty());
    }
}
