//! Adaptive transport selection (§IV): the `DATA` meta-protocol.
//!
//! * `ratio` — the target TCP/UDT mix and its representations;
//! * `psp` — per-message protocol selection policies (random, pattern);
//! * `prp` — per-episode protocol ratio policies (static, TD(λ) learner);
//! * `interceptor` — the `data-network-interceptor` component wiring the
//!   policies into the message path.

pub(crate) mod interceptor;
pub(crate) mod prp;
pub(crate) mod psp;
pub(crate) mod ratio;

pub use interceptor::{DataNetworkComponent, DataNetworkConfig, FlowPoint, PrpKind, PspKind};
pub use prp::{TdConfig, ValueBackend};
pub use psp::{
    build_pattern, max_prefix_deviation, p_pattern_rest, p_plus_one_pattern_rest, PatternKind,
    PatternSelection, ProtocolSelectionPolicy, RandomSelection,
};
pub use ratio::Ratio;

use kmsg_component::prelude::*;
use kmsg_netsim::network::{BindError, Network};

use crate::msg::NetworkPort;
use crate::net::{create_network, NetworkComponent, NetworkConfig};

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
    let interceptor = system.create(|| DataNetworkComponent::new(data_cfg));
    system.connect::<NetworkPort, _, _>(&network, &interceptor);
    Ok(DataNetwork {
        interceptor,
        network,
    })
}
