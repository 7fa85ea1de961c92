//! Addresses: where messages come from and go to.
//!
//! Mirrors the paper's `Address` interface (listing 4): an address exposes
//! its socket (here a simulated [`Endpoint`]) and a `same_host_as` check —
//! the hook that lets the network component *reflect* messages between
//! virtual nodes on the same host without serialising them (§III-B).
//!
//! [`NetAddress`] is the default implementation, extended — exactly as the
//! paper suggests — with an optional *virtual node* id that disambiguates
//! component subtrees sharing one network interface.

use kmsg_netsim::packet::{Endpoint, NodeId};

/// The minimum features the network layer requires of an address
/// (the paper's `Address` interface).
pub trait Address: Clone + std::fmt::Debug + Send + 'static {
    /// The host (the simulated analog of the IP address).
    fn node(&self) -> NodeId;
    /// The port.
    fn port(&self) -> u16;
    /// The address as a socket endpoint.
    fn as_socket(&self) -> Endpoint;
    /// Whether two addresses live on the same host (enables local
    /// reflection of messages without serialisation).
    fn same_host_as(&self, other: &Self) -> bool {
        self.node() == other.node()
    }
}

/// Identifies a virtual node (a component subtree sharing a host's network
/// interface, §III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VnodeId(pub u64);

/// The default address: a socket endpoint plus an optional virtual-node id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NetAddress {
    socket: Endpoint,
    vnode: Option<VnodeId>,
}

impl NetAddress {
    /// An address for a plain (non-virtual) endpoint.
    #[must_use]
    pub fn new(node: NodeId, port: u16) -> Self {
        NetAddress {
            socket: Endpoint::new(node, port),
            vnode: None,
        }
    }

    /// Builds an address from an existing socket endpoint.
    #[must_use]
    pub(crate) fn from_socket(socket: Endpoint) -> Self {
        NetAddress {
            socket,
            vnode: None,
        }
    }

    /// A copy of this address scoped to the given virtual node.
    #[must_use]
    pub fn with_vnode(self, id: VnodeId) -> Self {
        NetAddress {
            socket: self.socket,
            vnode: Some(id),
        }
    }

    /// The virtual-node id, if any.
    #[must_use]
    pub fn vnode(&self) -> Option<VnodeId> {
        self.vnode
    }
}

impl Address for NetAddress {
    fn node(&self) -> NodeId {
        self.socket.node
    }

    fn port(&self) -> u16 {
        self.socket.port
    }

    fn as_socket(&self) -> Endpoint {
        self.socket
    }
}

impl std::fmt::Display for NetAddress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.vnode {
            Some(VnodeId(id)) => write!(f, "{}#{}", self.socket, id),
            None => write!(f, "{}", self.socket),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmsg_netsim::engine::Sim;
    use kmsg_netsim::network::Network;

    fn nodes() -> (NodeId, NodeId) {
        let sim = Sim::new(1);
        let net = Network::new(&sim);
        (net.add_node("a"), net.add_node("b"))
    }

    #[test]
    fn same_host_ignores_port_and_vnode() {
        let (a, _b) = nodes();
        let x = NetAddress::new(a, 100);
        let y = NetAddress::new(a, 200).with_vnode(VnodeId(5));
        assert!(x.same_host_as(&y));
    }

    #[test]
    fn different_hosts_differ() {
        let (a, b) = nodes();
        assert!(!NetAddress::new(a, 1).same_host_as(&NetAddress::new(b, 1)));
    }

    #[test]
    fn vnode_round_trip() {
        let (a, _) = nodes();
        let addr = NetAddress::new(a, 8080).with_vnode(VnodeId(9));
        assert_eq!(addr.vnode(), Some(VnodeId(9)));
        assert_eq!(addr.port(), 8080);
        assert_eq!(addr.as_socket(), Endpoint::new(a, 8080));
    }

    #[test]
    fn display_formats() {
        let (a, _) = nodes();
        let addr = NetAddress::new(a, 8080);
        assert_eq!(addr.to_string(), "n0:8080");
        assert_eq!(addr.with_vnode(VnodeId(3)).to_string(), "n0:8080#3");
    }
}
