//! The layer ledger: who spent the timed phase's CPU.
//!
//! Each probed layer is charged `count on the workload × probed unit
//! cost`, per message. On a middleware workload what is left is booked to
//! `core.net` — the one layer with no isolated probe (the network
//! component cannot run without a fabric beneath it), so its self time is
//! the depth ladder's remainder. Whatever the shares still do not cover
//! is `ledger.unattributed_share`: on `fanin_10k` that is the remainder
//! itself; on a middleware workload it is zero unless the probes charge
//! more than was spent, in which case it goes negative by the excess.

/// One layer's charge.
#[derive(Debug, Clone, PartialEq)]
pub struct Charge {
    /// Layer (module) name.
    pub layer: &'static str,
    /// Nanoseconds of CPU per message charged to the layer.
    pub ns_per_msg: f64,
}

/// The settled ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    /// `(layer, share of the measured CPU)`, `core.net` included when the
    /// workload runs the middleware.
    pub shares: Vec<(&'static str, f64)>,
    /// `core.net`'s self time per message (0 without middleware).
    pub core_net_self_ns: f64,
    /// `1 − Σ shares`.
    pub unattributed_share: f64,
}

impl Ledger {
    /// The share booked to `layer` (0 if it has no entry).
    #[must_use]
    pub fn share(&self, layer: &str) -> f64 {
        self.shares
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0.0, |(_, s)| *s)
    }
}

/// Settles the ledger for one workload.
#[must_use]
pub fn settle(cpu_ns_per_msg: f64, charges: &[Charge], middleware: bool) -> Ledger {
    let mut shares: Vec<(&'static str, f64)> = charges
        .iter()
        .map(|c| (c.layer, c.ns_per_msg / cpu_ns_per_msg))
        .collect();
    let charged: f64 = charges.iter().map(|c| c.ns_per_msg).sum();
    let core_net_self_ns = if middleware {
        (cpu_ns_per_msg - charged).max(0.0)
    } else {
        0.0
    };
    if middleware {
        shares.push(("core.net", core_net_self_ns / cpu_ns_per_msg));
    }
    let unattributed_share = 1.0 - shares.iter().map(|(_, s)| s).sum::<f64>();
    Ledger {
        shares,
        core_net_self_ns,
        unattributed_share,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn charges(ns: &[(&'static str, f64)]) -> Vec<Charge> {
        ns.iter()
            .map(|&(layer, ns_per_msg)| Charge { layer, ns_per_msg })
            .collect()
    }

    #[test]
    fn shares_sum_to_one_minus_unattributed() {
        let c = charges(&[
            ("netsim.engine", 300.0),
            ("netsim.fabric", 100.0),
            ("netsim.tcp", 350.0),
        ]);
        let raw = settle(1000.0, &c, false);
        let sum: f64 = raw.shares.iter().map(|(_, s)| s).sum();
        assert!((sum + raw.unattributed_share - 1.0).abs() < 1e-12);
        assert!((raw.unattributed_share - 0.25).abs() < 1e-12);
        assert_eq!(raw.share("netsim.tcp"), 0.35);
        assert_eq!(raw.share("core.net"), 0.0);
        assert_eq!(raw.core_net_self_ns, 0.0);
    }

    #[test]
    fn middleware_remainder_goes_to_core_net() {
        let c = charges(&[("netsim.engine", 300.0), ("component", 200.0)]);
        let mw = settle(1000.0, &c, true);
        assert_eq!(mw.core_net_self_ns, 500.0);
        assert_eq!(mw.share("core.net"), 0.5);
        assert!(mw.unattributed_share.abs() < 1e-12);
        let sum: f64 = mw.shares.iter().map(|(_, s)| s).sum();
        assert!((sum + mw.unattributed_share - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overcharging_probes_show_as_negative_unattributed() {
        let c = charges(&[("netsim.engine", 700.0), ("component", 400.0)]);
        let mw = settle(1000.0, &c, true);
        assert_eq!(mw.core_net_self_ns, 0.0);
        assert!((mw.unattributed_share + 0.1).abs() < 1e-12);
    }
}
