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

/// Virtual-time timers and clock driven by a [`Sim`].
#[derive(Debug, Clone)]
pub(crate) struct SimTimer {
    sim: Sim,
}

impl SimTimer {
    /// Creates a timer source on `sim`'s event loop.
    #[must_use]
    pub(crate) fn new(sim: &Sim) -> Self {
        SimTimer { sim: sim.clone() }
    }

    /// The current virtual time.
    #[must_use]
    pub(crate) fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Delivers `id` to `target` once, after `delay`.
    pub(crate) fn schedule_once(&self, delay: Duration, target: Arc<ComponentCore>, id: TimeoutId) {
        // The per-core timeout sink is created once and reused for every
        // one-shot; the timeout id rides in the event token, so scheduling
        // a timer allocates nothing.
        let sink = target.timeout_sink();
        self.sim.schedule_target_in(delay, sink, id.0);
    }

    /// Delivers `id` to `target` after `delay` and then every `period`,
    /// until cancelled through the component's context.
    pub(crate) fn schedule_periodic(
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::ComponentId;
    use std::sync::Weak;

    #[test]
    fn sim_timer_delivers_once() {
        let sim = Sim::new(1);
        let timer = SimTimer::new(&sim);
        let core = ComponentCore::new(ComponentId(1), Weak::new(), Arc::default(), 50);
        timer.schedule_once(Duration::from_millis(5), core.clone(), TimeoutId(42));
        sim.run_for(Duration::from_millis(10));
        assert_eq!(core.timeout_q.pop(), Some(TimeoutId(42)));
        assert!(core.timeout_q.pop().is_none());
    }

    #[test]
    fn sim_timer_periodic_fires_until_cancelled() {
        let sim = Sim::new(1);
        let timer = SimTimer::new(&sim);
        let core = ComponentCore::new(ComponentId(1), Weak::new(), Arc::default(), 50);
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
}
