//! Per-destination congestion-controller stack policy.
//!
//! The paper's `DATA` meta-protocol picks a *transport* per message; this
//! module widens the choice to the transport **stack**: which congestion
//! controller the TCP side of the mix runs, per destination. A
//! [`StackPolicy`] is a shared directory of per-peer controller
//! overrides consulted by the network component every time it dials (or
//! redials) a TCP channel, and
//! [`NetworkComponent::swap_controller`](crate::net::NetworkComponent::swap_controller)
//! applies a change at runtime by recycling the live channel. Today an
//! experiment's scheduled [`CcAlgorithm`] swap drives it; no learner does.

use std::collections::HashMap;

use parking_lot::Mutex;

use kmsg_netsim::cc::CcAlgorithm;
use kmsg_netsim::packet::Endpoint;

/// Shared per-destination congestion-controller directory.
///
/// Cloning the [`std::sync::Arc`] it is typically wrapped in gives every
/// holder (the network component, the experiment driver, a learner) the
/// same view; an entry applies from the next dial to that peer onwards.
#[derive(Debug, Default)]
pub struct StackPolicy {
    overrides: Mutex<HashMap<Endpoint, CcAlgorithm>>,
}

impl StackPolicy {
    /// An empty policy: every peer uses the configured `TcpConfig::cc`.
    #[must_use]
    pub fn new() -> Self {
        StackPolicy::default()
    }

    /// The controller override for `remote`, if any.
    #[must_use]
    pub fn lookup(&self, remote: Endpoint) -> Option<CcAlgorithm> {
        self.overrides.lock().get(&remote).copied()
    }

    /// Sets the controller for `remote`; returns `true` if this changed
    /// the effective selection.
    pub fn set(&self, remote: Endpoint, algo: CcAlgorithm) -> bool {
        self.overrides.lock().insert(remote, algo) != Some(algo)
    }

    /// Removes the override for `remote`, restoring the configured
    /// default; returns the removed controller.
    pub fn clear(&self, remote: Endpoint) -> Option<CcAlgorithm> {
        self.overrides.lock().remove(&remote)
    }

    /// Number of peers with an override.
    #[must_use]
    pub fn len(&self) -> usize {
        self.overrides.lock().len()
    }

    /// Whether no peer has an override.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.overrides.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmsg_netsim::packet::NodeId;

    fn ep(port: u16) -> Endpoint {
        Endpoint::new(NodeId::from_index(1), port)
    }

    #[test]
    fn empty_policy_has_no_overrides() {
        let p = StackPolicy::new();
        assert!(p.is_empty());
        assert_eq!(p.lookup(ep(80)), None);
    }

    #[test]
    fn set_reports_effective_changes_only() {
        let p = StackPolicy::new();
        assert!(p.set(ep(80), CcAlgorithm::Cubic));
        assert!(!p.set(ep(80), CcAlgorithm::Cubic), "same algo is a no-op");
        assert!(p.set(ep(80), CcAlgorithm::Bbr));
        assert_eq!(p.lookup(ep(80)), Some(CcAlgorithm::Bbr));
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn clear_restores_the_default() {
        let p = StackPolicy::new();
        p.set(ep(80), CcAlgorithm::Bbr);
        assert_eq!(p.clear(ep(80)), Some(CcAlgorithm::Bbr));
        assert_eq!(p.lookup(ep(80)), None);
        assert_eq!(p.clear(ep(80)), None);
    }

    #[test]
    fn overrides_are_per_peer() {
        let p = StackPolicy::new();
        p.set(ep(80), CcAlgorithm::Cubic);
        p.set(ep(81), CcAlgorithm::Bbr);
        assert_eq!(p.lookup(ep(80)), Some(CcAlgorithm::Cubic));
        assert_eq!(p.lookup(ep(81)), Some(CcAlgorithm::Bbr));
        assert_eq!(p.lookup(ep(82)), None);
    }
}
