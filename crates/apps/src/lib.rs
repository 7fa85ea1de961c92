//! # kmsg-apps — evaluation applications for KompicsMessaging
//!
//! The workloads of the paper's evaluation (§V): bulk file transfer with
//! 65 kB chunking and `MessageNotify`-based pipelining ([`transfer`]),
//! timing-sensitive ping/pong control traffic ([`ping`]), deterministic
//! synthetic datasets with controllable compressibility ([`dataset`]),
//! sequential-disk models ([`disk`]), the calibrated EC2-like environments
//! ([`scenario`]), a one-call experiment harness ([`experiment`]), the
//! seeded scenario generator behind the simulation fuzzer ([`fuzz`]).

#![warn(missing_docs)]

pub mod dataset;
pub mod disk;
pub mod experiment;
pub mod fuzz;
pub mod msgs;
pub mod ping;
pub mod scenario;
pub mod topology;
pub mod transfer;

pub use dataset::{Dataset, DatasetKind, PAPER_CHUNK_SIZE, PAPER_DATASET_SIZE};
pub use disk::{DiskModel, DISK_RATE, MEMORY_RATE};
pub use experiment::{
    run_experiment, run_in_world, ExperimentConfig, ExperimentResult, PingSettings,
};
pub use fuzz::{
    build_chain_world, run_scenario, ChainWorld, FaultKind, FaultSpec, FuzzRun, ScenarioSpec,
};
pub use msgs::{ChunkMsg, PingMsg, PongMsg};
pub use ping::{PingStats, PingStatsHandle, Pinger, PingerConfig, Ponger};
pub use scenario::{two_host_world, Setup, TwoHostWorld};
pub use topology::{
    build_converge_world, run_converging_senders, star_fanin, ConvergeReport, ConvergeSpec,
    ConvergeWorld, Topology, CONVERGE_PORT,
};
pub use transfer::{
    FileReceiver, FileSender, ReceiverConfig, ReceiverSample, ReceiverStats, SenderConfig,
    SenderStats,
};
