//! Adaptive transport selection (§IV): the `DATA` meta-protocol.
//!
//! * `ratio` — the target TCP/UDT mix and its representations;
//! * `psp` — per-message protocol selection policies (random, pattern);
//! * `prp` — per-episode protocol ratio policies (static, TD(λ) learner);
//! * `machine` — the `data-network-interceptor`'s windows, queues, release
//!   and episodes; [`DataNetworkComponent`] is its shell.

mod machine;
pub(crate) mod prp;
pub(crate) mod psp;
pub(crate) mod ratio;

pub use machine::{DataNetworkConfig, FlowPoint, PrpKind, PspKind};
pub use prp::{TdConfig, ValueBackend};
pub use psp::{
    build_pattern, max_prefix_deviation, p_pattern_rest, p_plus_one_pattern_rest, PatternKind,
    PatternSelection, ProtocolSelectionPolicy, RandomSelection,
};
pub use ratio::Ratio;

use kmsg_component::prelude::*;
use kmsg_netsim::network::{BindError, Network};
use kmsg_netsim::packet::Endpoint;

use crate::msg::{NetIndication, NetRequest, NetworkPort};
use crate::net::{create_network, NetworkComponent, NetworkConfig};
use machine::{DataStatsHandle, Io, Machine, EPISODE};

/// The interceptor component. Create with [`create_data_network`] or wire
/// manually between an application and a network component.
pub struct DataNetworkComponent {
    /// Application-facing network port.
    app_port: ProvidedPort<NetworkPort>,
    /// Network-facing port.
    net_port: RequiredPort<NetworkPort>,
    machine: Machine,
    episode_timer: Option<TimeoutId>,
}

/// The machine's [`Io`]: requests down the network-facing port,
/// indications up the application-facing one.
impl Io for (&ProvidedPort<NetworkPort>, &RequiredPort<NetworkPort>) {
    fn down(&mut self, req: NetRequest) {
        self.1.trigger(req);
    }

    fn up(&mut self, ind: NetIndication) {
        self.0.trigger(ind);
    }
}

impl DataNetworkComponent {
    /// The flow telemetry handle.
    #[must_use]
    pub fn stats(&self) -> DataStatsHandle {
        self.machine.stats.clone()
    }

    /// The current target ratio of the flow to `dst`, if it exists.
    #[must_use]
    pub fn flow_target(&self, dst: Endpoint) -> Option<Ratio> {
        self.machine.flow_target(dst)
    }
}

impl ComponentDefinition for DataNetworkComponent {
    fn execute(&mut self, ctx: &mut ComponentContext, max: usize) -> usize {
        execute_ports!(self, ctx, max, [
            provided app_port: NetworkPort,
            required net_port: NetworkPort,
        ])
    }

    fn handle_control(&mut self, ctx: &mut ComponentContext, event: ControlEvent) {
        if event == ControlEvent::Start && self.episode_timer.is_none() {
            self.episode_timer = Some(ctx.schedule_periodic(EPISODE, EPISODE));
        }
    }

    fn on_timeout(&mut self, ctx: &mut ComponentContext, id: TimeoutId) {
        if Some(id) == self.episode_timer {
            self.machine
                .episode(ctx.now(), &mut (&self.app_port, &self.net_port));
        }
    }
}

impl Provide<NetworkPort> for DataNetworkComponent {
    fn handle(&mut self, ctx: &mut ComponentContext, event: NetRequest) {
        self.machine
            .request(ctx.now(), &mut (&self.app_port, &self.net_port), event);
    }
}

impl Require<NetworkPort> for DataNetworkComponent {
    fn handle(&mut self, ctx: &mut ComponentContext, event: NetIndication) {
        self.machine
            .indication(ctx.now(), &mut (&self.app_port, &self.net_port), event);
    }
}

impl ProvideRef<NetworkPort> for DataNetworkComponent {
    fn provided_port(&mut self) -> &mut ProvidedPort<NetworkPort> {
        &mut self.app_port
    }
}

impl RequireRef<NetworkPort> for DataNetworkComponent {
    fn required_port(&mut self) -> &mut RequiredPort<NetworkPort> {
        &mut self.net_port
    }
}

/// The paper's `DataNetwork` wrapper: a network component plus the data
/// interceptor in front of it, pre-wired. Applications connect to
/// [`DataNetwork::interceptor`]'s provided network port.
#[derive(Debug, Clone)]
pub struct DataNetwork {
    /// The interceptor (application-facing).
    pub interceptor: ComponentRef<DataNetworkComponent>,
    /// The underlying network component.
    pub network: ComponentRef<NetworkComponent>,
}

impl DataNetwork {
    /// Starts both components.
    pub fn start(&self, system: &ComponentSystem) {
        system.start(&self.network);
        system.start(&self.interceptor);
    }
}

/// Creates and wires a [`DataNetwork`]: the network component's listeners
/// are bound and the interceptor is connected on top.
///
/// # Errors
///
/// Returns [`BindError`] if the network address is already bound.
pub fn create_data_network(
    system: &ComponentSystem,
    net: &Network,
    net_cfg: NetworkConfig,
    data_cfg: DataNetworkConfig,
) -> Result<DataNetwork, BindError> {
    let network = create_network(system, net, net_cfg)?;
    let interceptor = system.create(|| DataNetworkComponent {
        app_port: ProvidedPort::new(),
        net_port: RequiredPort::new(),
        machine: Machine::new(data_cfg),
        episode_timer: None,
    });
    system.connect::<NetworkPort, _, _>(&network, &interceptor);
    Ok(DataNetwork {
        interceptor,
        network,
    })
}
