//! Per-stack timer coalescing.
//!
//! The transport stacks used to schedule one engine event per flow timer:
//! every RTO re-arm, delayed-ACK deadline and pacer gate became its own
//! [`EventTarget`](crate::engine::EventTarget) entry cascading through the
//! global timing wheel — at 10⁴ flows, timer events outnumber packet
//! events. [`StackTimerWheel`] batches them: all per-flow timer tokens due
//! at the same tick are registered in one bucket, and only the *first*
//! registration for a tick schedules an engine event. When that event
//! fires, the stack drains the whole bucket and services every flow in
//! registration order — N timers, one engine dispatch.
//!
//! Cancellation is implicit: stacks never unregister a token. The per-flow
//! staleness discipline (a firing earlier than the flow's current deadline
//! is ignored, and a killed flow stays closed in its never-reused slot)
//! already makes spurious firings no-ops, so a bucket may contain stale tokens and
//! servicing them is harmless. This mirrors how the stacks already treated
//! per-timer engine events before coalescing — the wheel changes *where*
//! tokens wait, not how they are validated.
//!
//! Bucket storage is recycled (bounded spare list) so steady-state
//! registration allocates nothing.

use std::collections::BTreeMap;

use crate::time::SimTime;

/// Most spare bucket vectors retained for reuse.
const MAX_SPARE: usize = 64;

/// A tick-keyed batch store for per-flow timer tokens (see [module
/// docs](self)).
#[derive(Default)]
pub struct StackTimerWheel {
    /// Tick → tokens registered for that tick, in registration order.
    buckets: BTreeMap<SimTime, Vec<u64>>,
    /// Recycled bucket storage.
    spare: Vec<Vec<u64>>,
}

impl StackTimerWheel {
    /// An empty wheel.
    #[must_use]
    pub fn new() -> Self {
        StackTimerWheel {
            buckets: BTreeMap::new(),
            spare: Vec::new(),
        }
    }

    /// Registers `token` to be serviced at `at`. Returns `true` when this
    /// is the first registration for the tick — the caller must then
    /// schedule exactly one engine event for `at`.
    pub fn register(&mut self, at: SimTime, token: u64) -> bool {
        match self.buckets.entry(at) {
            std::collections::btree_map::Entry::Occupied(mut e) => {
                e.get_mut().push(token);
                false
            }
            std::collections::btree_map::Entry::Vacant(v) => {
                let mut bucket = self.spare.pop().unwrap_or_default();
                bucket.push(token);
                v.insert(bucket);
                true
            }
        }
    }

    /// Removes and returns the batch for `at` (tokens in registration
    /// order), or `None` if the tick has no bucket (already drained).
    #[must_use]
    pub fn take(&mut self, at: SimTime) -> Option<Vec<u64>> {
        self.buckets.remove(&at)
    }

    /// Returns drained bucket storage for reuse.
    pub fn recycle(&mut self, mut bucket: Vec<u64>) {
        if self.spare.len() < MAX_SPARE {
            bucket.clear();
            self.spare.push(bucket);
        }
    }

    /// Number of ticks with a pending bucket.
    #[must_use]
    pub fn pending_ticks(&self) -> usize {
        self.buckets.len()
    }

    /// Total tokens currently registered (including stale ones).
    #[must_use]
    pub fn pending_tokens(&self) -> usize {
        self.buckets.values().map(Vec::len).sum()
    }
}

impl std::fmt::Debug for StackTimerWheel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StackTimerWheel")
            .field("ticks", &self.buckets.len())
            .field("tokens", &self.pending_tokens())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_registration_per_tick_requests_event() {
        let mut w = StackTimerWheel::new();
        let t = SimTime::from_millis(5);
        assert!(w.register(t, 1));
        assert!(!w.register(t, 2));
        assert!(!w.register(t, 3));
        assert!(w.register(SimTime::from_millis(6), 4));
        assert_eq!(w.pending_ticks(), 2);
        assert_eq!(w.pending_tokens(), 4);
    }

    #[test]
    fn take_preserves_registration_order() {
        let mut w = StackTimerWheel::new();
        let t = SimTime::from_millis(1);
        w.register(t, 10);
        w.register(t, 7);
        w.register(t, 10);
        assert_eq!(w.take(t), Some(vec![10, 7, 10]));
        assert_eq!(w.take(t), None, "second take of a tick is empty");
        assert_eq!(w.pending_ticks(), 0);
    }

    #[test]
    fn recycled_buckets_are_reused_empty() {
        let mut w = StackTimerWheel::new();
        let t = SimTime::from_millis(1);
        w.register(t, 1);
        let b = w.take(t).unwrap();
        let cap = b.capacity();
        w.recycle(b);
        // Next fresh tick reuses the storage, starting empty.
        assert!(w.register(SimTime::from_millis(2), 9));
        let b2 = w.take(SimTime::from_millis(2)).unwrap();
        assert_eq!(b2, vec![9]);
        assert_eq!(b2.capacity(), cap);
    }

    #[test]
    fn re_registration_after_drain_requests_new_event() {
        let mut w = StackTimerWheel::new();
        let t = SimTime::from_millis(3);
        assert!(w.register(t, 1));
        let _ = w.take(t);
        // A token armed for the same tick after the batch drained needs its
        // own engine event again.
        assert!(w.register(t, 2));
    }
}
