//! Component schedulers: where and when a component with pending work runs.
//!
//! * [`SimulationScheduler`] executes components as events on a
//!   [`kmsg_netsim::engine::Sim`] virtual-time loop — fully
//!   deterministic, used by all experiments.
//! * [`ThreadPoolScheduler`] runs components on a pool of worker threads —
//!   the "production" mode exploiting the parallelism of the component
//!   graph.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Receiver, Sender};

use kmsg_netsim::engine::Sim;
use kmsg_telemetry::EventKind;

use crate::component::ComponentCore;

/// Dispatches components that have pending work.
pub trait Scheduler: Send + Sync {
    /// Enqueues a component for execution. Called at most once per
    /// component until its `run` completes (the core's `scheduled` flag
    /// guards re-entry).
    fn schedule(&self, core: Arc<ComponentCore>);

    /// Shuts the scheduler down, releasing worker threads if any.
    fn shutdown(&self) {}
}

/// Executes components as simulation events (deterministic virtual time).
#[derive(Debug, Clone)]
pub struct SimulationScheduler {
    sim: Sim,
    /// Component executions scheduled on the engine but not yet run — the
    /// component-layer queue depth reported to telemetry.
    depth: Arc<AtomicU64>,
}

impl SimulationScheduler {
    /// Creates a scheduler driving components on `sim`'s event loop.
    #[must_use]
    pub fn new(sim: &Sim) -> Self {
        SimulationScheduler {
            sim: sim.clone(),
            depth: Arc::new(AtomicU64::new(0)),
        }
    }
}

impl Scheduler for SimulationScheduler {
    fn schedule(&self, core: Arc<ComponentCore>) {
        // First schedule wires the core to this scheduler's gauge, which
        // the core counts down from `run`. A core holds no `Sim`: it waits
        // in the engine's event store, and would keep the engine alive.
        let depth = core.depth.get_or_init(|| self.depth.clone());
        let depth = depth.fetch_add(1, Ordering::Relaxed) + 1;
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
        // every component execution used to box a closure here.
        self.sim
            .schedule_target_in(std::time::Duration::ZERO, core, 0);
    }
}

/// What a pool worker receives: a component to run, or an orderly stop.
///
/// The explicit shutdown message replaces the old hack of sending dummy
/// `ComponentCore`s with a sentinel id: because the channel is FIFO and the
/// stop message is enqueued *behind* real work, workers finish everything
/// scheduled before `shutdown` was called, and no id can collide with a
/// user component.
enum WorkerMsg {
    Run(Arc<ComponentCore>),
    Shutdown,
}

/// Executes components on a fixed pool of worker threads.
pub struct ThreadPoolScheduler {
    tx: Sender<WorkerMsg>,
    workers: parking_lot::Mutex<Vec<JoinHandle<()>>>,
    down: AtomicBool,
}

impl std::fmt::Debug for ThreadPoolScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPoolScheduler")
            .field("workers", &self.workers.lock().len())
            .finish()
    }
}

impl ThreadPoolScheduler {
    /// Spawns `threads` workers (at least one).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let (tx, rx): (Sender<WorkerMsg>, Receiver<WorkerMsg>) = unbounded();
        let mut workers = Vec::with_capacity(threads);
        for i in 0..threads {
            let rx = rx.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("kmsg-worker-{i}"))
                    .spawn(move || {
                        while let Ok(msg) = rx.recv() {
                            match msg {
                                WorkerMsg::Run(core) => {
                                    core.run();
                                }
                                WorkerMsg::Shutdown => break,
                            }
                        }
                    })
                    .expect("spawn worker thread"),
            );
        }
        ThreadPoolScheduler {
            tx,
            workers: parking_lot::Mutex::new(workers),
            down: AtomicBool::new(false),
        }
    }
}

impl Scheduler for ThreadPoolScheduler {
    fn schedule(&self, core: Arc<ComponentCore>) {
        // After shutdown this is a documented no-op (the workers are gone).
        if self.down.load(Ordering::Acquire) {
            return;
        }
        let _ = self.tx.send(WorkerMsg::Run(core));
    }

    fn shutdown(&self) {
        if self.down.swap(true, Ordering::AcqRel) {
            return; // idempotent
        }
        let mut workers = self.workers.lock();
        // One stop message per worker, queued behind all real work: each
        // worker drains work in FIFO order and exits on its stop message.
        for _ in workers.iter() {
            let _ = self.tx.send(WorkerMsg::Shutdown);
        }
        for w in workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for ThreadPoolScheduler {
    fn drop(&mut self) {
        if !self.down.load(Ordering::Acquire) {
            self.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{
        AbstractComponent, Component, ComponentContext, ComponentDefinition, ComponentId,
        ControlEvent,
    };
    use parking_lot::Mutex;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Weak;

    #[test]
    fn sim_scheduler_runs_core() {
        let sim = Sim::new(1);
        let sched = SimulationScheduler::new(&sim);
        let core = ComponentCore::new(crate::component::ComponentId(7), std::sync::Weak::new());
        sched.schedule(core);
        // Core has no runner: run() is a no-op, but the event must execute.
        let executed = sim.run_for(std::time::Duration::from_millis(1));
        assert_eq!(executed, 1);
    }

    #[test]
    fn sim_scheduler_reports_queue_and_exec_telemetry() {
        let sim = Sim::new(2);
        sim.recorder().enable();
        let sched = SimulationScheduler::new(&sim);
        let core = ComponentCore::new(ComponentId(11), Weak::new());
        sched.schedule(core);
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

    #[test]
    fn thread_pool_starts_and_shuts_down() {
        let sched = ThreadPoolScheduler::new(2);
        let core = ComponentCore::new(crate::component::ComponentId(8), std::sync::Weak::new());
        sched.schedule(core);
        std::thread::sleep(std::time::Duration::from_millis(20));
        sched.shutdown();
        // Idempotent and safe after workers are gone.
        sched.shutdown();
        let core = ComponentCore::new(crate::component::ComponentId(9), std::sync::Weak::new());
        sched.schedule(core);
    }

    struct CountStarts(Arc<AtomicUsize>);
    impl ComponentDefinition for CountStarts {
        fn execute(&mut self, _: &mut ComponentContext, _: usize) -> usize {
            0
        }
        fn handle_control(&mut self, _: &mut ComponentContext, event: ControlEvent) {
            if event == ControlEvent::Start {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    #[test]
    fn shutdown_drains_already_scheduled_work() {
        // Regression test for the dummy-sentinel shutdown: work enqueued
        // before shutdown() must run, not be dropped on the floor.
        let sched = ThreadPoolScheduler::new(2);
        let started = Arc::new(AtomicUsize::new(0));
        let mut components = Vec::new();
        const N: usize = 64;
        for i in 0..N {
            let core = ComponentCore::new(ComponentId(i as u64), Weak::new());
            let component = Arc::new(Component {
                core: core.clone(),
                definition: Mutex::new(CountStarts(started.clone())),
            });
            let abstract_ref: Arc<dyn AbstractComponent> = component.clone();
            core.runner
                .set(Arc::downgrade(&abstract_ref))
                .unwrap_or_else(|_| unreachable!("runner set twice"));
            core.control_q.push(ControlEvent::Start);
            components.push(component);
            sched.schedule(core);
        }
        sched.shutdown();
        assert_eq!(started.load(Ordering::SeqCst), N);
    }
}
