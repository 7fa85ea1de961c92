//! Typed ports and channels.
//!
//! A [`Port`] declares a bidirectional "service": *requests* travel from the
//! component that **requires** the port to the component that **provides**
//! it, and *indications* travel the opposite way. Components own
//! [`ProvidedPort`] / [`RequiredPort`] instances as fields and are connected
//! with [`ComponentSystem::connect`](crate::system::ComponentSystem::connect).
//!
//! Channels follow Kompics semantics: FIFO per channel, exactly-once per
//! receiver, and *broadcast* — a triggered event is delivered on every
//! connected channel (subject to the channel's selector), and receivers
//! silently drop events they don't care about.

use std::sync::Arc;

use crate::component::ComponentCore;
use crate::queue::EventQueue;

/// A port type: the "service specification" naming the event types that
/// travel in each direction.
///
/// # Examples
///
/// ```
/// use kmsg_component::port::Port;
///
/// #[derive(Debug, Clone)]
/// pub struct Ping(pub u64);
/// #[derive(Debug, Clone)]
/// pub struct Pong(pub u64);
///
/// /// Requests are `Ping`s (from the requirer), indications are `Pong`s.
/// pub struct PingPort;
/// impl Port for PingPort {
///     type Request = Ping;
///     type Indication = Pong;
/// }
/// ```
pub trait Port: 'static {
    /// Event type travelling from requirer to provider.
    type Request: Clone + Send + std::fmt::Debug + 'static;
    /// Event type travelling from provider to requirer.
    type Indication: Clone + Send + std::fmt::Debug + 'static;
}

/// Predicate deciding whether a channel carries a given event
/// (Kompics' `ChannelSelector`).
pub(crate) type Selector<Ev> = Arc<dyn Fn(&Ev) -> bool + Send + Sync>;

pub(crate) struct ChannelToRequirer<P: Port> {
    pub(crate) queue: Arc<EventQueue<P::Indication>>,
    pub(crate) cell: Arc<ComponentCore>,
    pub(crate) filter: Option<Selector<P::Indication>>,
}

pub(crate) struct ChannelToProvider<P: Port> {
    pub(crate) queue: Arc<EventQueue<P::Request>>,
    pub(crate) cell: Arc<ComponentCore>,
    pub(crate) filter: Option<Selector<P::Request>>,
}

/// The providing side of a port: receives requests, triggers indications.
///
/// Owned as a field by a component definition; see the
/// [crate documentation](crate) for a complete example.
pub struct ProvidedPort<P: Port> {
    pub(crate) inbound: Arc<EventQueue<P::Request>>,
    pub(crate) outbound: Vec<ChannelToRequirer<P>>,
}

impl<P: Port> Default for ProvidedPort<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Port> std::fmt::Debug for ProvidedPort<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProvidedPort")
            .field("pending", &self.inbound.len())
            .field("channels", &self.outbound.len())
            .finish()
    }
}

impl<P: Port> ProvidedPort<P> {
    /// Creates an unconnected provided port.
    #[must_use]
    pub fn new() -> Self {
        ProvidedPort {
            inbound: Arc::new(EventQueue::new()),
            outbound: Vec::new(),
        }
    }

    /// Publishes an indication on every connected channel whose selector
    /// accepts it.
    pub fn trigger(&self, event: P::Indication) {
        fan_out(&self.outbound, event, |c| (&c.queue, &c.cell, &c.filter));
    }

    /// Takes the next queued request, if any.
    pub fn take(&mut self) -> Option<P::Request> {
        self.inbound.pop()
    }
}

/// The requiring side of a port: receives indications, triggers requests.
pub struct RequiredPort<P: Port> {
    pub(crate) inbound: Arc<EventQueue<P::Indication>>,
    pub(crate) outbound: Vec<ChannelToProvider<P>>,
}

impl<P: Port> Default for RequiredPort<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Port> std::fmt::Debug for RequiredPort<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RequiredPort")
            .field("pending", &self.inbound.len())
            .field("channels", &self.outbound.len())
            .finish()
    }
}

impl<P: Port> RequiredPort<P> {
    /// Creates an unconnected required port.
    #[must_use]
    pub fn new() -> Self {
        RequiredPort {
            inbound: Arc::new(EventQueue::new()),
            outbound: Vec::new(),
        }
    }

    /// Publishes a request on every connected channel whose selector
    /// accepts it.
    pub fn trigger(&self, event: P::Request) {
        fan_out(&self.outbound, event, |c| (&c.queue, &c.cell, &c.filter));
    }

    /// Takes the next queued indication, if any.
    pub fn take(&mut self) -> Option<P::Indication> {
        self.inbound.pop()
    }
}

fn fan_out<C, Ev: Clone>(
    channels: &[C],
    event: Ev,
    parts: impl Fn(
        &C,
    ) -> (
        &Arc<EventQueue<Ev>>,
        &Arc<ComponentCore>,
        &Option<Selector<Ev>>,
    ),
) {
    // Deliver a clone on every accepting channel. The last accepting channel
    // could take the original, but uniform cloning keeps the code simple and
    // events are expected to be cheap to clone (Arc/Bytes payloads).
    for c in channels {
        let (queue, cell, filter) = parts(c);
        if filter.as_ref().is_none_or(|f| f(&event)) {
            queue.push(event.clone());
            cell.notify();
        }
    }
}

/// A queue feeding a component from *outside* the component system (e.g.
/// network callbacks). Drained inside the component's `execute` like a port.
pub struct SelfPort<Ev> {
    pub(crate) queue: Arc<EventQueue<Ev>>,
    pub(crate) cell: std::sync::OnceLock<Arc<ComponentCore>>,
}

impl<Ev> Default for SelfPort<Ev> {
    fn default() -> Self {
        Self::new()
    }
}

impl<Ev> std::fmt::Debug for SelfPort<Ev> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SelfPort")
            .field("pending", &self.queue.len())
            .finish()
    }
}

impl<Ev> SelfPort<Ev> {
    /// Creates an unbound self-port.
    #[must_use]
    pub fn new() -> Self {
        SelfPort {
            queue: Arc::new(EventQueue::new()),
            cell: std::sync::OnceLock::new(),
        }
    }

    /// Takes the next queued event, if any.
    pub fn take(&mut self) -> Option<Ev> {
        self.queue.pop()
    }

    /// Number of queued events.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

/// A cloneable, thread-safe handle that injects events into a component's
/// [`SelfPort`]. Obtained via
/// [`ComponentRef::self_ref`](crate::system::ComponentRef::self_ref).
pub struct SelfRef<Ev> {
    pub(crate) queue: Arc<EventQueue<Ev>>,
    pub(crate) cell: Arc<ComponentCore>,
}

impl<Ev> Clone for SelfRef<Ev> {
    fn clone(&self) -> Self {
        SelfRef {
            queue: self.queue.clone(),
            cell: self.cell.clone(),
        }
    }
}

impl<Ev> std::fmt::Debug for SelfRef<Ev> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SelfRef").finish_non_exhaustive()
    }
}

impl<Ev: Send + 'static> SelfRef<Ev> {
    /// Enqueues an event and wakes the owning component.
    pub fn push(&self, event: Ev) {
        self.queue.push(event);
        self.cell.notify();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<P: Port> ProvidedPort<P> {
        /// Number of connected channels.
        fn channel_count(&self) -> usize {
            self.outbound.len()
        }
    }

    impl<P: Port> RequiredPort<P> {
        /// Number of indications currently queued.
        fn pending(&self) -> usize {
            self.inbound.len()
        }
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Ping(u64);
    #[derive(Debug, Clone, PartialEq)]
    struct Pong(u64);
    struct PingPort;
    impl Port for PingPort {
        type Request = Ping;
        type Indication = Pong;
    }

    #[test]
    fn unconnected_trigger_is_noop() {
        let port: ProvidedPort<PingPort> = ProvidedPort::new();
        port.trigger(Pong(1)); // no channels: silently dropped
        assert_eq!(port.channel_count(), 0);
    }

    #[test]
    fn take_from_empty_is_none() {
        let mut port: RequiredPort<PingPort> = RequiredPort::new();
        assert!(port.take().is_none());
        assert_eq!(port.pending(), 0);
    }

    #[test]
    fn self_port_fifo() {
        let mut sp: SelfPort<u32> = SelfPort::new();
        sp.queue.push(1);
        sp.queue.push(2);
        assert_eq!(sp.pending(), 2);
        assert_eq!(sp.take(), Some(1));
        assert_eq!(sp.take(), Some(2));
        assert_eq!(sp.take(), None);
    }

    #[test]
    fn debug_impls_nonempty() {
        let p: ProvidedPort<PingPort> = ProvidedPort::new();
        let r: RequiredPort<PingPort> = RequiredPort::new();
        let s: SelfPort<u32> = SelfPort::new();
        assert!(format!("{p:?}").contains("ProvidedPort"));
        assert!(format!("{r:?}").contains("RequiredPort"));
        assert!(format!("{s:?}").contains("SelfPort"));
    }
}
