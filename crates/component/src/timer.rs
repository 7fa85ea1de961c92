//! Timer facilities: one-shot and periodic timeouts delivered to
//! components through
//! [`ComponentDefinition::on_timeout`](crate::component::ComponentDefinition::on_timeout).

use std::sync::{Arc, Weak};
use std::time::Duration;

use kmsg_netsim::engine::{EventTarget, Sim};
use kmsg_netsim::time::SimTime;

use crate::component::ComponentCore;

/// Identifies a scheduled timeout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimeoutId(pub u64);

/// Source of timer expirations, and the clock they are scheduled on.
pub trait TimerSource: Send + Sync {
    /// The current time (virtual or wall, depending on the system mode).
    fn now(&self) -> SimTime;

    /// Delivers `id` to `target` once, after `delay`.
    fn schedule_once(&self, delay: Duration, target: Arc<ComponentCore>, id: TimeoutId);

    /// Delivers `id` to `target` after `delay` and then every `period`,
    /// until cancelled through the component's context.
    fn schedule_periodic(
        &self,
        delay: Duration,
        period: Duration,
        target: Arc<ComponentCore>,
        id: TimeoutId,
    );
}

/// Virtual-time timers and clock driven by a [`Sim`].
#[derive(Debug, Clone)]
pub struct SimTimer {
    sim: Sim,
}

impl SimTimer {
    /// Creates a timer source on `sim`'s event loop.
    #[must_use]
    pub fn new(sim: &Sim) -> Self {
        SimTimer { sim: sim.clone() }
    }
}

impl TimerSource for SimTimer {
    fn now(&self) -> SimTime {
        self.sim.now()
    }

    fn schedule_once(&self, delay: Duration, target: Arc<ComponentCore>, id: TimeoutId) {
        // The per-core timeout sink is created once and reused for every
        // one-shot; the timeout id rides in the event token, so scheduling
        // a timer allocates nothing.
        let sink = target.timeout_sink();
        self.sim.schedule_target_in(delay, sink, id.0);
    }

    fn schedule_periodic(
        &self,
        delay: Duration,
        period: Duration,
        target: Arc<ComponentCore>,
        id: TimeoutId,
    ) {
        let sink = Arc::new(PeriodicSink {
            core: Arc::downgrade(&target),
            period,
            id,
        });
        self.sim.schedule_target_in(delay, sink, id.0);
    }
}

/// Per-core one-shot timeout receiver: fires `TimeoutId(token)` into the
/// component. One allocation per component, shared by all its one-shots.
pub(crate) struct TimeoutSink {
    pub(crate) core: Weak<ComponentCore>,
}

impl EventTarget for TimeoutSink {
    fn fire(self: Arc<Self>, _sim: &Sim, token: u64) {
        if let Some(core) = self.core.upgrade() {
            core.push_timeout(TimeoutId(token));
        }
    }
}

/// A periodic timeout chain: one allocation at set-up, then the sink
/// reschedules its own `Arc` every period until cancelled or the component
/// is destroyed.
struct PeriodicSink {
    core: Weak<ComponentCore>,
    period: Duration,
    id: TimeoutId,
}

impl EventTarget for PeriodicSink {
    fn fire(self: Arc<Self>, sim: &Sim, _token: u64) {
        let Some(core) = self.core.upgrade() else {
            return;
        };
        if core.is_timeout_cancelled(self.id) {
            // Consume the cancellation so the id can be reused safely.
            core.cancelled_timeouts.lock().remove(&self.id);
            return;
        }
        if core.lifecycle_state() == crate::component::LifecycleState::Destroyed {
            return;
        }
        core.push_timeout(self.id);
        let (period, token) = (self.period, self.id.0);
        sim.schedule_target_in(period, self, token);
    }
}

/// Wall-clock timers and clock for threaded systems, backed by one timer
/// thread with a monotonic heap.
pub struct WallTimer {
    inner: Arc<WallTimerInner>,
}

impl std::fmt::Debug for WallTimer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WallTimer").finish_non_exhaustive()
    }
}

struct PendingTimer {
    at: std::time::Instant,
    seq: u64,
    target: Arc<ComponentCore>,
    id: TimeoutId,
    period: Option<Duration>,
}

impl PartialEq for PendingTimer {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for PendingTimer {}
impl PartialOrd for PendingTimer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingTimer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

struct WallTimerInner {
    heap: parking_lot::Mutex<std::collections::BinaryHeap<PendingTimer>>,
    condvar: parking_lot::Condvar,
    guard: parking_lot::Mutex<bool>, // shutdown flag
    epoch: std::time::Instant,
    seq: std::sync::atomic::AtomicU64,
}

impl WallTimer {
    /// Creates the timer source and spawns its timer thread.
    #[must_use]
    pub fn new() -> Self {
        let inner = Arc::new(WallTimerInner {
            heap: parking_lot::Mutex::new(std::collections::BinaryHeap::new()),
            condvar: parking_lot::Condvar::new(),
            guard: parking_lot::Mutex::new(false),
            epoch: std::time::Instant::now(),
            seq: std::sync::atomic::AtomicU64::new(0),
        });
        let weak = Arc::downgrade(&inner);
        std::thread::Builder::new()
            .name("kmsg-timer".into())
            .spawn(move || loop {
                let Some(inner) = weak.upgrade() else {
                    return;
                };
                let mut down = inner.guard.lock();
                if *down {
                    return;
                }
                let now = std::time::Instant::now();
                let mut due = Vec::new();
                let wait = {
                    let mut heap = inner.heap.lock();
                    while let Some(head) = heap.peek() {
                        if head.at <= now {
                            due.push(heap.pop().expect("peeked"));
                        } else {
                            break;
                        }
                    }
                    heap.peek().map(|h| h.at.saturating_duration_since(now))
                };
                for t in &due {
                    if t.target.is_timeout_cancelled(t.id) {
                        t.target.cancelled_timeouts.lock().remove(&t.id);
                        continue;
                    }
                    t.target.push_timeout(t.id);
                    if let Some(period) = t.period {
                        let seq = inner.seq.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        inner.heap.lock().push(PendingTimer {
                            at: now + period,
                            seq,
                            target: t.target.clone(),
                            id: t.id,
                            period: Some(period),
                        });
                    }
                }
                match wait {
                    Some(d) => {
                        let _ = inner
                            .condvar
                            .wait_for(&mut down, d.min(Duration::from_millis(100)));
                    }
                    None => {
                        let _ = inner
                            .condvar
                            .wait_for(&mut down, Duration::from_millis(100));
                    }
                }
            })
            .expect("spawn timer thread");
        WallTimer { inner }
    }

    fn push(
        &self,
        at: std::time::Instant,
        target: Arc<ComponentCore>,
        id: TimeoutId,
        period: Option<Duration>,
    ) {
        let seq = self
            .inner
            .seq
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.inner.heap.lock().push(PendingTimer {
            at,
            seq,
            target,
            id,
            period,
        });
        self.inner.condvar.notify_all();
    }
}

impl Default for WallTimer {
    fn default() -> Self {
        Self::new()
    }
}

impl TimerSource for WallTimer {
    fn now(&self) -> SimTime {
        SimTime::from_nanos(
            u64::try_from(self.inner.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX),
        )
    }

    fn schedule_once(&self, delay: Duration, target: Arc<ComponentCore>, id: TimeoutId) {
        self.push(std::time::Instant::now() + delay, target, id, None);
    }

    fn schedule_periodic(
        &self,
        delay: Duration,
        period: Duration,
        target: Arc<ComponentCore>,
        id: TimeoutId,
    ) {
        self.push(std::time::Instant::now() + delay, target, id, Some(period));
    }
}

impl Drop for WallTimer {
    fn drop(&mut self) {
        *self.inner.guard.lock() = true;
        self.inner.condvar.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::ComponentId;
    use std::sync::Weak;

    #[test]
    fn sim_timer_delivers_once() {
        let sim = Sim::new(1);
        let timer = SimTimer::new(&sim);
        let core = ComponentCore::new(ComponentId(1), Weak::new());
        timer.schedule_once(Duration::from_millis(5), core.clone(), TimeoutId(42));
        sim.run_for(Duration::from_millis(10));
        assert_eq!(core.timeout_q.pop(), Some(TimeoutId(42)));
        assert!(core.timeout_q.pop().is_none());
    }

    #[test]
    fn sim_timer_periodic_fires_until_cancelled() {
        let sim = Sim::new(1);
        let timer = SimTimer::new(&sim);
        let core = ComponentCore::new(ComponentId(1), Weak::new());
        timer.schedule_periodic(
            Duration::from_millis(1),
            Duration::from_millis(1),
            core.clone(),
            TimeoutId(7),
        );
        sim.run_for(Duration::from_millis(5));
        let mut fired = 0;
        while core.timeout_q.pop().is_some() {
            fired += 1;
        }
        assert!(fired >= 4, "expected several periodic firings, got {fired}");
        core.cancelled_timeouts.lock().insert(TimeoutId(7));
        sim.run_for(Duration::from_millis(5));
        // One extra firing may have been queued before cancellation took
        // effect, but the chain must stop.
        sim.run_for(Duration::from_millis(5));
        let residual = core.timeout_q.len();
        assert!(
            residual <= 1,
            "periodic chain must stop, residual {residual}"
        );
    }

    #[test]
    fn sim_clock_reads_virtual_time() {
        let sim = Sim::new(1);
        let timer = SimTimer::new(&sim);
        sim.run_for(Duration::from_secs(3));
        assert_eq!(timer.now(), SimTime::from_secs(3));
    }

    #[test]
    fn wall_timer_delivers() {
        let timer = WallTimer::new();
        let core = ComponentCore::new(ComponentId(1), Weak::new());
        timer.schedule_once(Duration::from_millis(10), core.clone(), TimeoutId(9));
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(core.timeout_q.pop(), Some(TimeoutId(9)));
    }
}
