//! # kmsg-apps — evaluation applications for KompicsMessaging
//!
//! The workloads of the paper's evaluation (§V): bulk file transfer with
//! 65 kB chunking and `MessageNotify`-based pipelining ([`transfer`]),
//! timing-sensitive ping/pong control traffic (`ping`), deterministic
//! synthetic datasets with controllable compressibility ([`dataset`]),
//! sequential-disk models ([`disk`]), the calibrated EC2-like environments
//! ([`scenario`]), a one-call experiment harness (`experiment`), the
//! seeded scenario generator behind the simulation fuzzer ([`fuzz`]).

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![deny(unconditional_recursion)]

pub mod dataset;
pub mod disk;
mod experiment;
pub mod fuzz;
pub mod msgs;
mod ping;
pub mod scenario;
pub mod topology;
pub mod transfer;

pub use dataset::{Dataset, PAPER_DATASET_SIZE};
pub use disk::DiskModel;
pub use experiment::{
    run_experiment, run_in_world, ExperimentConfig, ExperimentResult, PingSettings,
};
pub use ping::{Pinger, PingerConfig, Ponger};
pub use scenario::{two_host_world, Setup, TwoHostWorld};
pub use topology::{run_converging_senders, star_fanin, ConvergeSpec, CONVERGE_PORT};
pub use transfer::{FileReceiver, FileSender, ReceiverConfig, ReceiverSample, SenderConfig};
