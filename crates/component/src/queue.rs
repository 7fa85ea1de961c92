//! The FIFO behind every port, self-port, control queue and timeout queue.
//!
//! A `Mutex<VecDeque>` whose length is mirrored in an atomic that is only
//! ever stored under the lock. Most polls find their queue empty — a batch
//! tries every port of a component until none yields — so [`pop`] on an
//! empty queue is one `Acquire` load and takes no lock.
//!
//! The load can miss a push that is in flight on another thread. That push
//! is no worse off than one that lands just after a locked poll has found
//! the queue empty: either way the pusher's
//! [`notify`](crate::component::ComponentCore::notify) follows its push and
//! sets the component's `dirty` flag, and `run_batch`'s swaps order the
//! batch against it, so the batch sees the push or reschedules the
//! component on its way out (DESIGN.md §2).
//!
//! [`pop`]: EventQueue::pop

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

pub(crate) struct EventQueue<T> {
    items: Mutex<VecDeque<T>>,
    /// `items.len()`, stored (`Release`) under the lock after every change
    /// and loaded (`Acquire`) to skip the lock. It publishes no element —
    /// the lock does — only whether a poll may find one.
    len: AtomicUsize,
}

impl<T> EventQueue<T> {
    pub(crate) const fn new() -> Self {
        EventQueue {
            items: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
        }
    }

    /// A panic while the lock is held cannot leave the deque half-changed
    /// (`push_back` and `pop_front` either happen or not), so a poisoned
    /// lock is taken as it is.
    fn items(&self) -> MutexGuard<'_, VecDeque<T>> {
        self.items.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends at the back.
    pub(crate) fn push(&self, value: T) {
        let mut items = self.items();
        items.push_back(value);
        self.len.store(items.len(), Ordering::Release);
    }

    /// Takes from the front; an empty queue costs one load.
    pub(crate) fn pop(&self) -> Option<T> {
        if self.len() == 0 {
            return None;
        }
        let mut items = self.items();
        let value = items.pop_front();
        self.len.store(items.len(), Ordering::Release);
        value
    }

    /// Elements queued, as of the last completed push or pop.
    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_push_order() {
        let q = EventQueue::new();
        for i in 0..100 {
            q.push(i);
        }
        let popped: Vec<u32> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(popped, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn len_is_pushes_minus_pops() {
        let q = EventQueue::new();
        let (mut pushes, mut pops) = (0usize, 0usize);
        for round in 0..50 {
            for _ in 0..round % 7 {
                q.push(round);
                pushes += 1;
            }
            for _ in 0..round % 5 {
                if q.pop().is_some() {
                    pops += 1;
                }
            }
            assert_eq!(q.len(), pushes - pops);
        }
    }

    #[test]
    fn empty_poll_is_none() {
        let q: EventQueue<String> = EventQueue::new();
        assert_eq!(q.pop(), None);
        q.push("a".into());
        assert_eq!(q.pop().as_deref(), Some("a"));
        assert_eq!(q.pop(), None);
        assert_eq!(q.len(), 0);
    }
}
