//! The component system: creation, wiring, lifecycle management.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use kmsg_netsim::engine::Sim;
use kmsg_netsim::time::SimTime;

use crate::component::{
    AbstractComponent, Component, ComponentCore, ComponentDefinition, ComponentId, ControlEvent,
    ProvideRef, RequireRef,
};
use crate::port::{ChannelToProvider, ChannelToRequirer, Port, Selector, SelfPort, SelfRef};
use crate::scheduler::SimulationScheduler;
use crate::timer::SimTimer;

pub(crate) struct SystemInner {
    pub(crate) scheduler: SimulationScheduler,
    pub(crate) timer: SimTimer,
    max_events_per_scheduling: usize,
    components: Mutex<Vec<Arc<dyn AbstractComponent>>>,
    next_component: AtomicU64,
    next_timeout: AtomicU64,
}

impl SystemInner {
    pub(crate) fn fresh_timeout_id(&self) -> crate::timer::TimeoutId {
        crate::timer::TimeoutId(self.next_timeout.fetch_add(1, Ordering::Relaxed))
    }
}

/// Configuration for a [`ComponentSystem`].
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Maximum events a component handles per scheduling before yielding —
    /// the Kompics throughput/fairness trade-off knob (§II-A of the paper).
    pub max_events_per_scheduling: usize,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            max_events_per_scheduling: 50,
        }
    }
}

/// A running component system.
///
/// See the [crate documentation](crate) for a complete ping-pong example.
#[derive(Clone)]
pub struct ComponentSystem {
    inner: Arc<SystemInner>,
}

impl std::fmt::Debug for ComponentSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ComponentSystem")
            .field("components", &self.inner.components.lock().len())
            .field("max_events", &self.inner.max_events_per_scheduling)
            .finish()
    }
}

/// A typed handle to a created component.
pub struct ComponentRef<C: ComponentDefinition> {
    pub(crate) component: Arc<Component<C>>,
}

impl<C: ComponentDefinition> Clone for ComponentRef<C> {
    fn clone(&self) -> Self {
        ComponentRef {
            component: self.component.clone(),
        }
    }
}

impl<C: ComponentDefinition> std::fmt::Debug for ComponentRef<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ComponentRef")
            .field("id", &self.component.core.id)
            .finish()
    }
}

impl ComponentSystem {
    /// Creates a deterministic system driven by a simulation's virtual time.
    #[must_use]
    pub fn simulation(sim: &Sim, config: SystemConfig) -> Self {
        ComponentSystem {
            inner: Arc::new(SystemInner {
                scheduler: SimulationScheduler::new(sim),
                timer: SimTimer::new(sim),
                max_events_per_scheduling: config.max_events_per_scheduling,
                components: Mutex::new(Vec::new()),
                next_component: AtomicU64::new(0),
                next_timeout: AtomicU64::new(0),
            }),
        }
    }

    /// Creates a component from its definition. The component starts
    /// passive; call [`ComponentSystem::start`].
    pub fn create<C, F>(&self, f: F) -> ComponentRef<C>
    where
        C: ComponentDefinition,
        F: FnOnce() -> C,
    {
        let inner = &self.inner;
        let id = ComponentId(inner.next_component.fetch_add(1, Ordering::Relaxed));
        let core = ComponentCore::new(
            id,
            Arc::downgrade(inner),
            inner.scheduler.depth.clone(),
            inner.max_events_per_scheduling,
        );
        let component = Arc::new(Component {
            core: core.clone(),
            definition: Mutex::new(f()),
        });
        let abstract_ref: Arc<dyn AbstractComponent> = component.clone();
        core.runner
            .set(Arc::downgrade(&abstract_ref))
            .unwrap_or_else(|_| unreachable!("runner set twice"));
        inner.components.lock().push(abstract_ref);
        ComponentRef { component }
    }

    /// Connects `provider`'s provided port `P` to `requirer`'s required
    /// port `P` with an unfiltered channel.
    pub fn connect<P, A, B>(&self, provider: &ComponentRef<A>, requirer: &ComponentRef<B>)
    where
        P: Port,
        A: ProvideRef<P>,
        B: RequireRef<P>,
    {
        self.connect_filtered::<P, A, B>(provider, requirer, None, None);
    }

    /// Connects with optional channel selectors: `request_filter` gates
    /// events travelling to the provider, `indication_filter` gates events
    /// travelling to the requirer (Kompics `ChannelSelector`s; used for
    /// virtual-node routing).
    pub fn connect_filtered<P, A, B>(
        &self,
        provider: &ComponentRef<A>,
        requirer: &ComponentRef<B>,
        request_filter: Option<Selector<P::Request>>,
        indication_filter: Option<Selector<P::Indication>>,
    ) where
        P: Port,
        A: ProvideRef<P>,
        B: RequireRef<P>,
    {
        let provider_core = provider.component.core.clone();
        let requirer_core = requirer.component.core.clone();
        let prov_q = {
            let mut def = provider.component.definition.lock();
            def.provided_port().inbound.clone()
        };
        let req_q = {
            let mut def = requirer.component.definition.lock();
            def.required_port().inbound.clone()
        };
        provider
            .component
            .definition
            .lock()
            .provided_port()
            .outbound
            .push(ChannelToRequirer {
                queue: req_q,
                cell: requirer_core,
                filter: indication_filter,
            });
        requirer
            .component
            .definition
            .lock()
            .required_port()
            .outbound
            .push(ChannelToProvider {
                queue: prov_q,
                cell: provider_core,
                filter: request_filter,
            });
    }

    /// Starts a component (delivers [`ControlEvent::Start`]).
    pub fn start<C: ComponentDefinition>(&self, comp: &ComponentRef<C>) {
        comp.component.core.push_control(ControlEvent::Start);
    }

    /// Stops a component (delivers [`ControlEvent::Stop`]).
    pub fn stop<C: ComponentDefinition>(&self, comp: &ComponentRef<C>) {
        comp.component.core.push_control(ControlEvent::Stop);
    }

    /// Destroys a component (delivers [`ControlEvent::Kill`]).
    pub fn kill<C: ComponentDefinition>(&self, comp: &ComponentRef<C>) {
        comp.component.core.push_control(ControlEvent::Kill);
    }

    /// The system clock.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.inner.timer.now()
    }

    /// Number of components created in this system.
    #[must_use]
    pub fn component_count(&self) -> usize {
        self.inner.components.lock().len()
    }

    /// Does nothing: a simulated system holds no threads, and its
    /// components stop running when the [`Sim`] does. Kept for callers
    /// that end a run with it.
    pub fn shutdown(&self) {}
}

impl<C: ComponentDefinition> ComponentRef<C> {
    /// Runs `f` with exclusive access to the definition (setup or
    /// inspection). Blocks if the component is currently executing.
    pub fn on_definition<R>(&self, f: impl FnOnce(&mut C) -> R) -> R {
        let mut def = self.component.definition.lock();
        f(&mut def)
    }

    /// Binds a [`SelfPort`] field to this component and returns a
    /// cloneable injector handle for use outside the component system.
    pub fn self_ref<Ev: Send + 'static>(
        &self,
        f: impl FnOnce(&mut C) -> &mut SelfPort<Ev>,
    ) -> SelfRef<Ev> {
        let core = self.component.core.clone();
        let mut def = self.component.definition.lock();
        let port = f(&mut def);
        let _ = port.cell.set(core.clone());
        SelfRef {
            queue: port.queue.clone(),
            cell: core,
        }
    }

    /// Current lifecycle state.
    #[must_use]
    pub fn lifecycle_state(&self) -> crate::component::LifecycleState {
        self.component.core.lifecycle_state()
    }
}

#[cfg(test)]
mod send_sync_tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    struct Nop;
    impl crate::component::ComponentDefinition for Nop {
        fn execute(&mut self, _: &mut crate::component::ComponentContext, _: usize) -> usize {
            0
        }
    }

    #[test]
    fn public_types_are_send_sync() {
        assert_send_sync::<ComponentSystem>();
        assert_send_sync::<ComponentRef<Nop>>();
        assert_send_sync::<crate::component::ComponentCore>();
        assert_send_sync::<crate::port::SelfRef<u32>>();
    }
}
