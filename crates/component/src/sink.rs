//! The requiring end of a port, driven from outside the component system.

use crate::component::{ComponentContext, ComponentDefinition, HandleSelf, Require, RequireRef};
use crate::port::{Port, RequiredPort, SelfPort};

/// Requires `P`, records every indication in arrival order, and triggers
/// on `P` each request pushed into [`requests`](Self::requests) through a
/// [`SelfRef`](crate::port::SelfRef) — from a test, or from whatever
/// drives a run. A batch polls the required port before the self-port.
pub struct PortSink<P: Port> {
    port: RequiredPort<P>,
    /// Requests to trigger on `P`; bind it with
    /// [`ComponentRef::self_ref`](crate::system::ComponentRef::self_ref).
    pub requests: SelfPort<P::Request>,
    /// Every indication received, in arrival order.
    pub received: Vec<P::Indication>,
}

impl<P: Port> Default for PortSink<P> {
    fn default() -> Self {
        PortSink {
            port: RequiredPort::new(),
            requests: SelfPort::new(),
            received: Vec::new(),
        }
    }
}

impl<P: Port> ComponentDefinition for PortSink<P> {
    fn execute(&mut self, ctx: &mut ComponentContext, max: usize) -> usize {
        crate::execute_ports!(self, ctx, max, [
            required port: P,
            selfport requests: P::Request,
        ])
    }
}

impl<P: Port> Require<P> for PortSink<P> {
    fn handle(&mut self, _ctx: &mut ComponentContext, event: P::Indication) {
        self.received.push(event);
    }
}

impl<P: Port> HandleSelf<P::Request> for PortSink<P> {
    fn handle_self(&mut self, _ctx: &mut ComponentContext, request: P::Request) {
        self.port.trigger(request);
    }
}

impl<P: Port> RequireRef<P> for PortSink<P> {
    fn required_port(&mut self) -> &mut RequiredPort<P> {
        &mut self.port
    }
}
