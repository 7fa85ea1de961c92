//! # kmsg-component — a Kompics-style component model for Rust
//!
//! Implements the programming model of the Kompics framework (§II-A of
//! *Fast and Flexible Networking for Message-oriented Middleware*,
//! ICDCS 2017): event-driven **components** connected by FIFO,
//! exactly-once **channels** through typed **ports**. Events are broadcast
//! on all connected channels (subject to per-channel selectors) and
//! components silently ignore events they don't subscribe to. A component
//! executes on at most one thread at a time and handles up to a
//! configurable number of events per scheduling — the throughput vs.
//! fairness knob described in the paper.
//!
//! Components run as events on a [`kmsg_netsim::engine::Sim`] virtual-time
//! loop, so every run is deterministic; timers fire in virtual time too.
//! Events may still be pushed into a component from any thread (a
//! [`SelfRef`](prelude::SelfRef) is `Send + Sync`), and a whole system can run on a worker
//! thread of its own.
//!
//! # Example
//!
//! ```
//! use kmsg_component::prelude::*;
//! use kmsg_netsim::engine::Sim;
//! use std::time::Duration;
//!
//! // 1. Declare a port type.
//! #[derive(Debug, Clone)]
//! pub struct Ping(pub u64);
//! #[derive(Debug, Clone)]
//! pub struct Pong(pub u64);
//! pub struct PingPort;
//! impl Port for PingPort {
//!     type Request = Ping;      // requirer -> provider
//!     type Indication = Pong;   // provider -> requirer
//! }
//!
//! // 2. A provider component: answers every Ping with a Pong.
//! #[derive(Default)]
//! pub struct Ponger {
//!     port: ProvidedPort<PingPort>,
//! }
//! impl ComponentDefinition for Ponger {
//!     fn execute(&mut self, ctx: &mut ComponentContext, max: usize) -> usize {
//!         execute_ports!(self, ctx, max, [provided port: PingPort])
//!     }
//! }
//! impl Provide<PingPort> for Ponger {
//!     fn handle(&mut self, _ctx: &mut ComponentContext, ping: Ping) {
//!         self.port.trigger(Pong(ping.0));
//!     }
//! }
//! impl ProvideRef<PingPort> for Ponger {
//!     fn provided_port(&mut self) -> &mut ProvidedPort<PingPort> {
//!         &mut self.port
//!     }
//! }
//!
//! // 3. A requirer component: sends Pings on start, counts Pongs.
//! #[derive(Default)]
//! pub struct Pinger {
//!     port: RequiredPort<PingPort>,
//!     pub pongs: u64,
//! }
//! impl ComponentDefinition for Pinger {
//!     fn execute(&mut self, ctx: &mut ComponentContext, max: usize) -> usize {
//!         execute_ports!(self, ctx, max, [required port: PingPort])
//!     }
//!     fn handle_control(&mut self, _ctx: &mut ComponentContext, event: ControlEvent) {
//!         if event == ControlEvent::Start {
//!             for i in 0..10 {
//!                 self.port.trigger(Ping(i));
//!             }
//!         }
//!     }
//! }
//! impl Require<PingPort> for Pinger {
//!     fn handle(&mut self, _ctx: &mut ComponentContext, _pong: Pong) {
//!         self.pongs += 1;
//!     }
//! }
//! impl RequireRef<PingPort> for Pinger {
//!     fn required_port(&mut self) -> &mut RequiredPort<PingPort> {
//!         &mut self.port
//!     }
//! }
//!
//! // 4. Wire and run under virtual time.
//! let sim = Sim::new(1);
//! let system = ComponentSystem::simulation(&sim, SystemConfig::default());
//! let ponger = system.create(Ponger::default);
//! let pinger = system.create(Pinger::default);
//! system.connect::<PingPort, _, _>(&ponger, &pinger);
//! system.start(&ponger);
//! system.start(&pinger);
//! sim.run_for(Duration::from_secs(1));
//! assert_eq!(pinger.on_definition(|p| p.pongs), 10);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![deny(unconditional_recursion)]

pub mod component;
pub mod port;
mod queue;
mod scheduler;
mod sink;
pub mod system;
mod timer;

/// Everything needed to define and wire components.
pub mod prelude {
    pub use crate::component::{
        ComponentContext, ComponentDefinition, ControlEvent, HandleSelf, LifecycleState, Provide,
        ProvideRef, Require, RequireRef,
    };
    pub use crate::execute_ports;
    pub use crate::port::{Port, ProvidedPort, RequiredPort, SelfPort, SelfRef};
    pub use crate::sink::PortSink;
    pub use crate::system::{ComponentRef, ComponentSystem, SystemConfig};
    pub use crate::timer::TimeoutId;
}

/// Implements a component's `execute` by draining its ports round-robin.
///
/// Each entry is `kind field: Type` where `kind` is one of:
///
/// * `provided` — `field: ProvidedPort<Type>`, dispatching to
///   [`Provide<Type>::handle`](crate::component::Provide::handle);
/// * `required` — `field: RequiredPort<Type>`, dispatching to
///   [`Require<Type>::handle`](crate::component::Require::handle);
/// * `selfport` — `field: SelfPort<Type>`, dispatching to
///   [`HandleSelf<Type>::handle_self`](crate::component::HandleSelf::handle_self).
///
/// Returns the number of events handled (at most `max`).
///
/// See the [crate documentation](crate) for a complete example.
#[macro_export]
macro_rules! execute_ports {
    ($self:ident, $ctx:ident, $max:ident, [ $($kind:ident $field:ident : $ty:ty),* $(,)? ]) => {{
        let mut handled = 0usize;
        let mut progress = true;
        while progress && handled < $max {
            progress = false;
            $(
                if handled < $max {
                    if let Some(ev) = $self.$field.take() {
                        $crate::execute_ports!(@dispatch $kind, $self, $ctx, ev, $ty);
                        handled += 1;
                        progress = true;
                    }
                }
            )*
        }
        handled
    }};
    (@dispatch provided, $self:ident, $ctx:ident, $ev:ident, $ty:ty) => {
        <Self as $crate::component::Provide<$ty>>::handle($self, $ctx, $ev)
    };
    (@dispatch required, $self:ident, $ctx:ident, $ev:ident, $ty:ty) => {
        <Self as $crate::component::Require<$ty>>::handle($self, $ctx, $ev)
    };
    (@dispatch selfport, $self:ident, $ctx:ident, $ev:ident, $ty:ty) => {
        <Self as $crate::component::HandleSelf<$ty>>::handle_self($self, $ctx, $ev)
    };
}
