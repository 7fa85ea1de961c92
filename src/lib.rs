//! # kompics-messaging — fast and flexible networking for
//! message-oriented middleware
//!
//! A comprehensive Rust reproduction of *Fast and Flexible Networking for
//! Message-oriented Middleware* (Kroll, Ormenisan, Dowling — ICDCS 2017):
//! the **KompicsMessaging** middleware, every substrate it depends on, and
//! the paper's full experimental evaluation.
//!
//! This facade crate re-exports the workspace:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`component`] | `kmsg-component` | Kompics component model: typed ports, FIFO channels, selectors, schedulers |
//! | [`netsim`] | `kmsg-netsim` | deterministic discrete-event network simulator: packet-level TCP, UDP, UDT |
//! | [`learning`] | `kmsg-learning` | Sarsa(λ), eligibility traces, value-function backends |
//! | [`core`] | `kmsg-core` | the middleware: per-message transport selection, `DATA` meta-protocol, vnodes, routing |
//! | [`apps`] | `kmsg-apps` | evaluation workloads: file transfer, ping/pong, EC2-like scenarios |
//!
//! ## Quickstart
//!
//! ```
//! use kompics_messaging::prelude::*;
//! use std::time::Duration;
//!
//! // A deterministic world: two hosts, 3 ms RTT VPC link.
//! let world = two_host_world(42, &Setup::EuVpc);
//! let a = NetAddress::new(world.host_a, 7000);
//! let b = NetAddress::new(world.host_b, 7000);
//!
//! // Full middleware stacks on both hosts.
//! let stack_a = create_network(&world.system, &world.net, NetworkConfig::new(a)).unwrap();
//! let stack_b = create_network(&world.system, &world.net, NetworkConfig::new(b)).unwrap();
//! world.system.start(&stack_a);
//! world.system.start(&stack_b);
//!
//! // Middleware stats are observable live.
//! let stats = stack_a.on_definition(|n| n.stats());
//! world.sim.run_for(Duration::from_secs(1));
//! assert_eq!(stats.lock().total_sent(), 0);
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and `kmsg-bench`'s
//! `paper_gate` binary, whose rows regenerate every figure of the paper's
//! evaluation and check its claims.

pub use kmsg_apps as apps;
pub use kmsg_component as component;
pub use kmsg_core as core;
pub use kmsg_learning as learning;
pub use kmsg_netsim as netsim;

/// One-stop imports for building applications on the middleware.
pub mod prelude {
    pub use kmsg_apps::{
        run_experiment, two_host_world, Dataset, ExperimentConfig, ExperimentResult,
        FileReceiver, FileSender, PingSettings, Pinger, PingerConfig, Ponger, ReceiverConfig,
        SenderConfig, Setup, TwoHostWorld,
    };
    pub use kmsg_component::prelude::*;
    pub use kmsg_core::prelude::*;
    pub use kmsg_netsim::{
        engine::Sim, link::LinkConfig, link::PolicerConfig, network::Network, rng::SeedSource,
        time::SimTime,
    };
}
