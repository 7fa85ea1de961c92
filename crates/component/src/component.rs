//! Component definitions, cores, lifecycle, and execution context.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::Duration;

use parking_lot::Mutex;

use kmsg_netsim::time::SimTime;

use crate::queue::EventQueue;
use crate::system::SystemInner;
use crate::timer::TimeoutId;

/// Lifecycle events delivered to every component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlEvent {
    /// The component was started and will now execute queued events.
    Start,
    /// The component was paused; queued events are retained.
    Stop,
    /// The component was destroyed; queued events are dropped.
    Kill,
}

/// Lifecycle state of a component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleState {
    /// Created but not yet started; events queue up.
    Passive,
    /// Running: scheduled whenever it has queued events.
    Active,
    /// Destroyed: never scheduled again.
    Destroyed,
}

const STATE_PASSIVE: u8 = 0;
const STATE_ACTIVE: u8 = 1;
const STATE_DESTROYED: u8 = 2;

/// User-implemented component behaviour.
///
/// The definition owns the component's state and ports. `execute` drains the
/// ports (typically via [`execute_ports!`](crate::execute_ports)) and is
/// guaranteed to run on at most one thread at a time, so the definition
/// needs no internal synchronisation — the Kompics concurrency model.
pub trait ComponentDefinition: Send + 'static {
    /// Drains up to `max_events` events from this component's ports,
    /// returning how many were handled.
    fn execute(&mut self, ctx: &mut ComponentContext, max_events: usize) -> usize;

    /// Reacts to lifecycle transitions. Default: ignore.
    fn handle_control(&mut self, ctx: &mut ComponentContext, event: ControlEvent) {
        let _ = (ctx, event);
    }

    /// Reacts to a timer expiry scheduled through
    /// [`ComponentContext::schedule_once`] /
    /// [`ComponentContext::schedule_periodic`]. Default: ignore.
    fn on_timeout(&mut self, ctx: &mut ComponentContext, id: TimeoutId) {
        let _ = (ctx, id);
    }
}

/// Handles an event type delivered through a
/// [`SelfPort`](crate::port::SelfPort).
pub trait HandleSelf<Ev>: ComponentDefinition {
    /// Handles one self-event.
    fn handle_self(&mut self, ctx: &mut ComponentContext, event: Ev);
}

/// Handles requests on a provided port `P`.
pub trait Provide<P: crate::port::Port>: ComponentDefinition {
    /// Handles one request.
    fn handle(&mut self, ctx: &mut ComponentContext, event: P::Request);
}

/// Handles indications on a required port `P`.
pub trait Require<P: crate::port::Port>: ComponentDefinition {
    /// Handles one indication.
    fn handle(&mut self, ctx: &mut ComponentContext, event: P::Indication);
}

/// Exposes a component's provided port of type `P` for wiring.
pub trait ProvideRef<P: crate::port::Port>: ComponentDefinition {
    /// Mutable access to the provided port field.
    fn provided_port(&mut self) -> &mut crate::port::ProvidedPort<P>;
}

/// Exposes a component's required port of type `P` for wiring.
pub trait RequireRef<P: crate::port::Port>: ComponentDefinition {
    /// Mutable access to the required port field.
    fn required_port(&mut self) -> &mut crate::port::RequiredPort<P>;
}

/// Unique component id within a system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ComponentId(pub(crate) u64);

/// The scheduling core shared by all handles to one component.
pub struct ComponentCore {
    pub(crate) id: ComponentId,
    pub(crate) system: Weak<SystemInner>,
    pub(crate) state: AtomicU8,
    pub(crate) dirty: AtomicBool,
    pub(crate) scheduled: AtomicBool,
    pub(crate) control_q: EventQueue<ControlEvent>,
    pub(crate) timeout_q: EventQueue<TimeoutId>,
    pub(crate) cancelled_timeouts: Mutex<HashSet<TimeoutId>>,
    pub(crate) runner: OnceLock<Weak<dyn AbstractComponent>>,
    /// Lazily-created shared receiver for one-shot timeouts, so scheduling
    /// a timer never allocates per event.
    timeout_sink: OnceLock<Arc<crate::timer::TimeoutSink>>,
    /// The queue-depth gauge of the system's
    /// [`SimulationScheduler`](crate::scheduler::SimulationScheduler).
    depth: Arc<AtomicU64>,
    /// The system's `max_events_per_scheduling`, fixed at creation.
    max_events: usize,
}

impl std::fmt::Debug for ComponentCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ComponentCore")
            .field("id", &self.id)
            .field("state", &self.lifecycle_state())
            .finish()
    }
}

impl ComponentCore {
    pub(crate) fn new(
        id: ComponentId,
        system: Weak<SystemInner>,
        depth: Arc<AtomicU64>,
        max_events: usize,
    ) -> Arc<Self> {
        Arc::new(ComponentCore {
            id,
            system,
            depth,
            max_events,
            state: AtomicU8::new(STATE_PASSIVE),
            dirty: AtomicBool::new(false),
            scheduled: AtomicBool::new(false),
            control_q: EventQueue::new(),
            timeout_q: EventQueue::new(),
            cancelled_timeouts: Mutex::new(HashSet::new()),
            runner: OnceLock::new(),
            timeout_sink: OnceLock::new(),
        })
    }

    /// The shared one-shot timeout receiver for this core.
    pub(crate) fn timeout_sink(self: &Arc<Self>) -> Arc<crate::timer::TimeoutSink> {
        self.timeout_sink
            .get_or_init(|| {
                Arc::new(crate::timer::TimeoutSink {
                    core: Arc::downgrade(self),
                })
            })
            .clone()
    }

    /// This component's id.
    #[must_use]
    pub fn id(&self) -> ComponentId {
        self.id
    }

    /// Current lifecycle state.
    #[must_use]
    pub fn lifecycle_state(&self) -> LifecycleState {
        match self.state.load(Ordering::Acquire) {
            STATE_PASSIVE => LifecycleState::Passive,
            STATE_ACTIVE => LifecycleState::Active,
            _ => LifecycleState::Destroyed,
        }
    }

    /// Marks the component as having pending work and schedules it if it is
    /// not already queued for execution.
    pub fn notify(self: &Arc<Self>) {
        self.dirty.store(true, Ordering::Release);
        if self.state.load(Ordering::Acquire) == STATE_DESTROYED {
            return;
        }
        if !self.scheduled.swap(true, Ordering::AcqRel) {
            if let Some(system) = self.system.upgrade() {
                system.scheduler.schedule(self.clone());
            }
        }
    }

    pub(crate) fn push_control(self: &Arc<Self>, event: ControlEvent) {
        self.control_q.push(event);
        self.notify();
    }

    pub(crate) fn push_timeout(self: &Arc<Self>, id: TimeoutId) {
        self.timeout_q.push(id);
        self.notify();
    }

    pub(crate) fn is_timeout_cancelled(&self, id: TimeoutId) -> bool {
        self.cancelled_timeouts.lock().contains(&id)
    }

    /// Executes one scheduling batch: control events, timeouts, then up to
    /// the system's `max_events` port events. Re-schedules itself if new
    /// work arrived during execution or the batch limit was hit. Returns
    /// how many events the batch handled.
    pub(crate) fn run(self: &Arc<Self>) -> usize {
        // The engine has dequeued this execution; a reschedule below counts
        // as a fresh queue entry.
        self.depth.fetch_sub(1, Ordering::Relaxed);
        self.run_batch()
    }

    fn run_batch(self: &Arc<Self>) -> usize {
        let Some(runner) = self.runner.get().and_then(Weak::upgrade) else {
            self.scheduled.store(false, Ordering::Release);
            return 0;
        };
        // Both resets are read-modify-writes, so a concurrent `notify` is
        // ordered against each (DESIGN.md §2): if it set `dirty` first, this
        // swap makes its push visible to the batch's polls; if its
        // `scheduled` swap comes first, the one below makes its `dirty`
        // visible to the load after it.
        self.dirty.swap(false, Ordering::AcqRel);
        let handled = runner.execute_batch(self.max_events);
        self.scheduled.swap(false, Ordering::AcqRel);
        if self.state.load(Ordering::Acquire) == STATE_DESTROYED {
            return handled;
        }
        if (self.dirty.load(Ordering::Acquire) || handled >= self.max_events)
            && !self.scheduled.swap(true, Ordering::AcqRel)
        {
            if let Some(system) = self.system.upgrade() {
                // Back of the queue: fairness between busy components.
                system.scheduler.schedule(self.clone());
            }
        }
        handled
    }
}

/// The simulation scheduler schedules a core's execution as an engine event
/// with the core itself as the target — no per-execution allocation.
impl kmsg_netsim::engine::EventTarget for ComponentCore {
    fn fire(self: Arc<Self>, sim: &kmsg_netsim::engine::Sim, _token: u64) {
        let handled = self.run();
        let rec = sim.recorder();
        if rec.is_enabled() {
            rec.record(
                sim.now().as_nanos(),
                kmsg_telemetry::EventKind::ComponentExec {
                    component: self.id.0,
                    handled: handled as u64,
                },
            );
        }
    }
}

/// Object-safe view of a typed [`Component`], held by the scheduler.
pub(crate) trait AbstractComponent: Send + Sync {
    fn execute_batch(&self, max_events: usize) -> usize;
}

/// A typed component: its definition plus its scheduling core.
pub struct Component<C: ComponentDefinition> {
    pub(crate) core: Arc<ComponentCore>,
    pub(crate) definition: Mutex<C>,
}

impl<C: ComponentDefinition> std::fmt::Debug for Component<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Component")
            .field("core", &self.core)
            .finish()
    }
}

impl<C: ComponentDefinition> AbstractComponent for Component<C> {
    fn execute_batch(&self, max_events: usize) -> usize {
        let mut definition = self.definition.lock();
        let mut ctx = ComponentContext {
            core: self.core.clone(),
        };
        let mut handled = 0usize;

        while let Some(ctrl) = self.core.control_q.pop() {
            let new_state = match ctrl {
                ControlEvent::Start => STATE_ACTIVE,
                ControlEvent::Stop => STATE_PASSIVE,
                ControlEvent::Kill => STATE_DESTROYED,
            };
            self.core.state.store(new_state, Ordering::Release);
            definition.handle_control(&mut ctx, ctrl);
            handled += 1;
            if ctrl == ControlEvent::Kill {
                return handled;
            }
        }
        if self.core.state.load(Ordering::Acquire) != STATE_ACTIVE {
            return handled;
        }
        while handled < max_events {
            let Some(id) = self.core.timeout_q.pop() else {
                break;
            };
            let cancelled = {
                let mut set = self.core.cancelled_timeouts.lock();
                set.take(&id).is_some()
            };
            if !cancelled {
                definition.on_timeout(&mut ctx, id);
                handled += 1;
            }
        }
        if handled < max_events {
            handled += definition.execute(&mut ctx, max_events - handled);
        }
        handled
    }
}

/// Execution context handed to every handler invocation.
///
/// Provides access to the clock, timer scheduling, and the component's own
/// identity. Deliberately *not* a general system handle: components
/// communicate through ports, never by reaching into each other.
pub struct ComponentContext {
    pub(crate) core: Arc<ComponentCore>,
}

impl std::fmt::Debug for ComponentContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ComponentContext")
            .field("id", &self.core.id)
            .finish()
    }
}

impl ComponentContext {
    /// The id of the executing component.
    #[must_use]
    pub fn id(&self) -> ComponentId {
        self.core.id
    }

    /// The simulation's virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.core
            .system
            .upgrade()
            .map_or(SimTime::ZERO, |s| s.timer.now())
    }

    /// Schedules a one-shot timeout; `on_timeout` fires after `delay`.
    pub fn schedule_once(&mut self, delay: Duration) -> TimeoutId {
        let system = self.core.system.upgrade().expect("system gone");
        let id = system.fresh_timeout_id();
        system.timer.schedule_once(delay, self.core.clone(), id);
        id
    }

    /// Schedules a periodic timeout firing every `period` after an initial
    /// `delay`.
    pub fn schedule_periodic(&mut self, delay: Duration, period: Duration) -> TimeoutId {
        let system = self.core.system.upgrade().expect("system gone");
        let id = system.fresh_timeout_id();
        system
            .timer
            .schedule_periodic(delay, period, self.core.clone(), id);
        id
    }

    /// Cancels a scheduled timeout. Expiries already queued are suppressed.
    pub fn cancel_timer(&mut self, id: TimeoutId) {
        self.core.cancelled_timeouts.lock().insert(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_states_map() {
        let core = ComponentCore::new(ComponentId(1), Weak::new(), Arc::default(), 50);
        assert_eq!(core.lifecycle_state(), LifecycleState::Passive);
        core.state.store(STATE_ACTIVE, Ordering::Release);
        assert_eq!(core.lifecycle_state(), LifecycleState::Active);
        core.state.store(STATE_DESTROYED, Ordering::Release);
        assert_eq!(core.lifecycle_state(), LifecycleState::Destroyed);
        assert_eq!(core.id(), ComponentId(1));
    }

    #[test]
    fn notify_without_system_is_safe() {
        let core = ComponentCore::new(ComponentId(2), Weak::new(), Arc::default(), 50);
        core.notify(); // system is gone: no panic
        assert!(core.dirty.load(Ordering::Acquire));
    }
}
