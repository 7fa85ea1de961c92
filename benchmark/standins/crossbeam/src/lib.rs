//! Stand-in for `crossbeam`: [`queue::SegQueue`] and an unbounded
//! multi-producer multi-consumer [`channel`], both a `Mutex<VecDeque>`.
//! The real crate's versions are lock-free; inside one single-threaded
//! simulated world the lock is never contended.

/// Concurrent queues.
pub mod queue {
    use std::collections::VecDeque;
    use std::sync::{Mutex, PoisonError};

    /// An unbounded FIFO queue usable through `&self`.
    #[derive(Debug)]
    pub struct SegQueue<T> {
        items: Mutex<VecDeque<T>>,
    }

    impl<T> Default for SegQueue<T> {
        fn default() -> Self {
            SegQueue::new()
        }
    }

    impl<T> SegQueue<T> {
        /// An empty queue.
        #[must_use]
        pub const fn new() -> SegQueue<T> {
            SegQueue {
                items: Mutex::new(VecDeque::new()),
            }
        }

        fn items(&self) -> std::sync::MutexGuard<'_, VecDeque<T>> {
            self.items.lock().unwrap_or_else(PoisonError::into_inner)
        }

        /// Appends at the back.
        pub fn push(&self, value: T) {
            self.items().push_back(value);
        }

        /// Takes from the front.
        pub fn pop(&self) -> Option<T> {
            self.items().pop_front()
        }

        /// Elements queued.
        #[must_use]
        pub fn len(&self) -> usize {
            self.items().len()
        }

        /// Whether nothing is queued.
        #[must_use]
        pub fn is_empty(&self) -> bool {
            self.items().is_empty()
        }
    }
}

/// Multi-producer multi-consumer channels.
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, PoisonError};

    struct Shared<T> {
        queue: Mutex<VecDeque<T>>,
        ready: Condvar,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    /// The value could not be sent: every receiver is gone.
    #[derive(Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    /// The channel is empty and every sender is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Sending half.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// Receiving half (cloneable: each message goes to one receiver).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Creates an unbounded channel.
    #[must_use]
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (
            Sender {
                shared: shared.clone(),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Queues `value`.
        ///
        /// # Errors
        ///
        /// Returns the value back if every receiver was dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            // SeqCst: pairs with the receiver-drop decrement, so a send
            // that starts after the last receiver is gone is refused.
            if self.shared.receivers.load(Ordering::SeqCst) == 0 {
                return Err(SendError(value));
            }
            self.shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push_back(value);
            self.shared.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.senders.fetch_add(1, Ordering::SeqCst);
            Sender {
                shared: self.shared.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.shared.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
                // Take the lock so a receiver between its emptiness check
                // and its wait cannot miss this wake-up.
                let _q = self
                    .shared
                    .queue
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                self.shared.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks for the next message.
        ///
        /// # Errors
        ///
        /// Returns [`RecvError`] once the channel is empty and every
        /// sender was dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut q = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(v) = q.pop_front() {
                    return Ok(v);
                }
                if self.shared.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvError);
                }
                q = self
                    .shared
                    .ready
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.receivers.fetch_add(1, Ordering::SeqCst);
            Receiver {
                shared: self.shared.clone(),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.shared.receivers.fetch_sub(1, Ordering::SeqCst);
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{unbounded, RecvError};
    use super::queue::SegQueue;

    #[test]
    fn queue_is_fifo() {
        let q = SegQueue::new();
        q.push(1);
        q.push(2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert!(q.is_empty());
    }

    #[test]
    fn channel_delivers_then_disconnects() {
        let (tx, rx) = unbounded();
        let rx2 = rx.clone();
        let worker = std::thread::spawn(move || {
            let mut got = Vec::new();
            while let Ok(v) = rx2.recv() {
                got.push(v);
            }
            got
        });
        for i in 0..100 {
            tx.send(i).expect("receiver alive");
        }
        drop(tx);
        let got = worker.join().expect("worker");
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        assert_eq!(rx.recv(), Err(RecvError));
    }
}
