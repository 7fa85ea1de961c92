//! The original binary-heap event engine, kept as a correctness oracle and
//! benchmark baseline.
//!
//! [`ReferenceSim`] is the engine [`Sim`](crate::engine::Sim) shipped with
//! before the timing-wheel rewrite: a single mutex-guarded `BinaryHeap` of
//! boxed closures keyed by `(time, seq)`, locked once per event. It defines
//! the `(time, seq)` determinism contract the wheel engine must reproduce
//! exactly:
//!
//! * the property tests in `crates/netsim/tests/engine_determinism.rs` run
//!   randomized schedules through both engines and require identical
//!   execution traces;
//! * `timing_probe` in `crates/bench` measures the wheel engine's speedup
//!   against this implementation (`BENCH_engine.json`).
//!
//! It intentionally has no RNG plumbing — only the scheduling surface the
//! comparison needs.
//!
//! # Examples
//!
//! ```
//! use kmsg_netsim::reference::ReferenceSim;
//! use kmsg_netsim::time::SimTime;
//! use std::time::Duration;
//!
//! let sim = ReferenceSim::new();
//! sim.schedule_in(Duration::from_millis(1), |_| {});
//! assert_eq!(sim.run_until(SimTime::from_secs(1)), 1);
//! ```

use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::time::SimTime;

/// A scheduled reference-engine event.
pub type ReferenceEventFn = Box<dyn FnOnce(&ReferenceSim) + Send>;

struct Scheduled {
    at: SimTime,
    seq: u64,
    run: ReferenceEventFn,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
    fn cmp(&self, other: &Self) -> CmpOrdering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

struct Inner {
    now: SimTime,
    seq: u64,
    executed: u64,
    queue: BinaryHeap<Scheduled>,
}

/// Handle to the heap-based reference engine. Cheaply cloneable; see the
/// [module documentation](self).
#[derive(Clone)]
pub struct ReferenceSim {
    inner: Arc<Mutex<Inner>>,
}

impl fmt::Debug for ReferenceSim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("ReferenceSim")
            .field("now", &inner.now)
            .field("pending", &inner.queue.len())
            .field("executed", &inner.executed)
            .finish()
    }
}

impl Default for ReferenceSim {
    fn default() -> Self {
        Self::new()
    }
}

impl ReferenceSim {
    /// Creates an empty reference engine at time zero.
    #[must_use]
    pub fn new() -> Self {
        ReferenceSim {
            inner: Arc::new(Mutex::new(Inner {
                now: SimTime::ZERO,
                seq: 0,
                executed: 0,
                queue: BinaryHeap::new(),
            })),
        }
    }

    /// The current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.inner.lock().now
    }

    /// Schedules `f` at absolute time `at`; past times clamp to "now" but
    /// still run after already-queued events with the same timestamp.
    pub fn schedule_at<F>(&self, at: SimTime, f: F)
    where
        F: FnOnce(&ReferenceSim) + Send + 'static,
    {
        let mut inner = self.inner.lock();
        let at = at.max(inner.now);
        let seq = inner.seq;
        inner.seq += 1;
        inner.queue.push(Scheduled {
            at,
            seq,
            run: Box::new(f),
        });
    }

    /// Schedules `f` after `delay` of virtual time.
    pub fn schedule_in<F>(&self, delay: Duration, f: F)
    where
        F: FnOnce(&ReferenceSim) + Send + 'static,
    {
        let at = self.now() + delay;
        self.schedule_at(at, f);
    }

    /// Runs events up to `horizon` (clock advances to `horizon` on return).
    /// Returns the number of events executed.
    pub fn run_until(&self, horizon: SimTime) -> u64 {
        let mut count = 0;
        loop {
            let event = {
                let mut inner = self.inner.lock();
                match inner.queue.peek() {
                    Some(head) if head.at <= horizon => {
                        let ev = inner.queue.pop().expect("peeked event vanished");
                        inner.now = ev.at;
                        inner.executed += 1;
                        ev
                    }
                    _ => {
                        inner.now = inner.now.max(horizon);
                        break;
                    }
                }
            };
            (event.run)(self);
            count += 1;
        }
        count
    }

    /// Runs events for `span` of virtual time from the current clock value.
    pub fn run_for(&self, span: Duration) -> u64 {
        let horizon = self.now() + span;
        self.run_until(horizon)
    }

    /// Runs until the queue is fully drained.
    pub fn run_to_completion(&self) -> u64 {
        let mut count = 0;
        loop {
            let before = count;
            count += self.run_until(SimTime::MAX);
            if count == before {
                break;
            }
        }
        count
    }

    /// Number of events executed so far.
    #[must_use]
    pub fn events_executed(&self) -> u64 {
        self.inner.lock().executed
    }

    /// Number of events currently pending.
    #[must_use]
    pub fn events_pending(&self) -> usize {
        self.inner.lock().queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_time_and_insertion_order() {
        let sim = ReferenceSim::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for (i, us) in [(0u32, 30u64), (1, 10), (2, 10), (3, 20)] {
            let log = log.clone();
            sim.schedule_in(Duration::from_micros(us), move |_| log.lock().push(i));
        }
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(*log.lock(), vec![1, 2, 3, 0]);
        assert_eq!(sim.events_executed(), 4);
        assert_eq!(sim.events_pending(), 0);
        assert!(format!("{sim:?}").contains("ReferenceSim"));
    }

    #[test]
    fn horizon_and_clock_match_engine_semantics() {
        let sim = ReferenceSim::new();
        sim.schedule_in(Duration::from_secs(5), |_| {});
        assert_eq!(sim.run_until(SimTime::from_secs(1)), 0);
        assert_eq!(sim.now(), SimTime::from_secs(1));
        assert_eq!(sim.run_to_completion(), 1);
    }
}
