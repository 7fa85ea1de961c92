//! The component scheduler: [`SimulationScheduler`] executes components
//! with pending work as events on a [`kmsg_netsim::engine::Sim`]
//! virtual-time loop — fully deterministic, used by all experiments.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use kmsg_netsim::engine::Sim;
use kmsg_telemetry::EventKind;

use crate::component::ComponentCore;

/// Executes components as simulation events (deterministic virtual time).
#[derive(Debug, Clone)]
pub(crate) struct SimulationScheduler {
    sim: Sim,
    /// Component executions scheduled on the engine but not yet run — the
    /// component-layer queue depth reported to telemetry. Every core of the
    /// system holds a clone and counts it down from `run`.
    pub(crate) depth: Arc<AtomicU64>,
}

impl SimulationScheduler {
    /// Creates a scheduler driving components on `sim`'s event loop.
    #[must_use]
    pub(crate) fn new(sim: &Sim) -> Self {
        SimulationScheduler {
            sim: sim.clone(),
            depth: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Enqueues a component for execution. Called at most once per
    /// component until its `run` completes (the core's `scheduled` flag
    /// guards re-entry).
    pub(crate) fn schedule(&self, core: Arc<ComponentCore>) {
        let depth = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        let rec = self.sim.recorder();
        if rec.is_enabled() {
            rec.record(
                self.sim.now().as_nanos(),
                EventKind::SchedulerQueue { depth },
            );
        }
        // Scheduling at "now" preserves FIFO order among ready components
        // (ties broken by insertion order in the engine's now lane). The
        // core itself is the event target, so this allocates nothing —
        // every component execution used to box a closure here. A core
        // holds no `Sim`: it waits in the engine's event store, and would
        // keep the engine alive.
        self.sim
            .schedule_target_in(std::time::Duration::ZERO, core, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::ComponentId;
    use std::sync::Weak;

    fn core(sched: &SimulationScheduler, id: u64) -> Arc<ComponentCore> {
        ComponentCore::new(ComponentId(id), Weak::new(), sched.depth.clone(), 50)
    }

    #[test]
    fn sim_scheduler_runs_core() {
        let sim = Sim::new(1);
        let sched = SimulationScheduler::new(&sim);
        sched.schedule(core(&sched, 7));
        // Core has no runner: run() is a no-op, but the event must execute.
        let executed = sim.run_for(std::time::Duration::from_millis(1));
        assert_eq!(executed, 1);
    }

    #[test]
    fn sim_scheduler_reports_queue_and_exec_telemetry() {
        let sim = Sim::new(2);
        sim.recorder().enable();
        let sched = SimulationScheduler::new(&sim);
        sched.schedule(core(&sched, 11));
        sim.run_for(std::time::Duration::from_millis(1));
        let events = sim.recorder().events();
        let kinds: Vec<&str> = events.iter().map(|e| e.kind.label()).collect();
        assert_eq!(kinds, vec!["scheduler_queue", "component_exec"]);
        match events[0].kind {
            EventKind::SchedulerQueue { depth } => assert_eq!(depth, 1),
            ref other => panic!("unexpected {other:?}"),
        }
        match events[1].kind {
            EventKind::ComponentExec { component, handled } => {
                assert_eq!(component, 11);
                assert_eq!(handled, 0, "core without a runner handles nothing");
            }
            ref other => panic!("unexpected {other:?}"),
        }
    }
}
