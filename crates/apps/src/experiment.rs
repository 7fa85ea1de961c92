//! The reusable two-host experiment harness driving the paper's
//! evaluation scenarios: a (possibly absent) bulk transfer between host A
//! and host B, optionally with parallel ping/pong control traffic, over a
//! chosen transport — including the adaptive `DATA` meta-protocol.
//!
//! Every figure-regeneration binary in `kmsg-bench` is a thin loop over
//! [`run_experiment`].

use std::time::Duration;

use kmsg_core::data::FlowPoint;
use kmsg_core::prelude::*;
use kmsg_netsim::rng::SeedSource;
use kmsg_netsim::{FaultController, FaultPlan, Recorder, RecorderTracer};

use crate::dataset::Dataset;
use crate::ping::{PingStats, Pinger, PingerConfig, Ponger};
use crate::scenario::{two_host_world, Setup, TwoHostWorld};
use crate::transfer::{FileReceiver, FileSender, ReceiverConfig, ReceiverSample, SenderConfig};

/// Ports used by the harness.
const SENDER_PORT: u16 = 7000;
const RECEIVER_PORT: u16 = 7001;

/// Ping sub-configuration.
#[derive(Debug, Clone)]
pub struct PingSettings {
    /// Transport for the pings.
    pub transport: Transport,
    /// Ping interval.
    pub interval: Duration,
}

impl Default for PingSettings {
    fn default() -> Self {
        PingSettings {
            transport: Transport::Tcp,
            interval: Duration::from_millis(250),
        }
    }
}

/// A complete experiment description.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Which environment to run in.
    pub setup: Setup,
    /// Root seed (vary per repetition).
    pub seed: u64,
    /// Transport for the bulk data: `Tcp`, `Udt` or `Data`.
    pub(crate) data_transport: Transport,
    /// The dataset to transfer; `None` disables the bulk transfer
    /// (ping-only runs).
    pub(crate) transfer: Option<Dataset>,
    /// Parallel control traffic, if any.
    pub ping: Option<PingSettings>,
    /// Interceptor configuration (used when `data_transport` is `Data`).
    pub data_cfg: DataNetworkConfig,
    /// Network/transport configuration template (address is overwritten).
    pub net_template: Option<NetworkConfig>,
    /// Back-to-back transfer rounds over the SAME long-lived middleware:
    /// the learner persists between rounds (the paper repeats runs against
    /// a standing deployment). Timing and throughput are reported for the
    /// LAST round.
    pub transfer_rounds: u32,
    /// Model disks at the endpoints (the paper's disk-to-disk runs).
    pub use_disk: bool,
    /// Hard wall on simulated time.
    pub max_sim_time: Duration,
    /// Receiver sampling window (throughput / wire-ratio series).
    pub(crate) sample_every: Duration,
    /// Scripted fault injections applied to the world (chaos runs);
    /// `None` leaves the network healthy.
    pub faults: Option<FaultPlan>,
    /// Enable the flight recorder: every layer's telemetry events (TCP
    /// cwnd transitions, UDT rate updates, link drops, scheduler depth,
    /// learner decisions, per-packet traces) are captured in the sim's
    /// [`Recorder`], exposed via [`ExperimentResult::recorder`].
    pub telemetry: bool,
    /// Flight-recorder ring capacity override. Long chaos runs overflow
    /// the default 65 536-event ring and evict the mid-run supervision
    /// events; `None` keeps the default.
    pub telemetry_capacity: Option<usize>,
}

impl ExperimentConfig {
    /// A disk-to-disk transfer of `dataset` over `transport` in `setup`.
    #[must_use]
    pub fn transfer(setup: Setup, transport: Transport, dataset: Dataset, seed: u64) -> Self {
        ExperimentConfig {
            setup,
            seed,
            data_transport: transport,
            transfer: Some(dataset),
            ping: None,
            data_cfg: DataNetworkConfig {
                seeds: SeedSource::new(seed),
                ..DataNetworkConfig::default()
            },
            net_template: None,
            transfer_rounds: 1,
            use_disk: true,
            max_sim_time: Duration::from_secs(1200),
            sample_every: Duration::from_secs(1),
            faults: None,
            telemetry: false,
            telemetry_capacity: None,
        }
    }

    /// A ping-only run (control-message baseline).
    #[must_use]
    pub fn ping_only(setup: Setup, ping: PingSettings, seed: u64, duration: Duration) -> Self {
        ExperimentConfig {
            setup,
            seed,
            data_transport: Transport::Tcp,
            transfer: None,
            ping: Some(ping),
            data_cfg: DataNetworkConfig {
                seeds: SeedSource::new(seed),
                ..DataNetworkConfig::default()
            },
            net_template: None,
            transfer_rounds: 1,
            use_disk: true,
            max_sim_time: duration,
            sample_every: Duration::from_secs(1),
            faults: None,
            telemetry: false,
            telemetry_capacity: None,
        }
    }
}

/// What an experiment produced.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Disk-to-disk transfer time, if the transfer completed.
    pub transfer_time: Option<Duration>,
    /// Goodput over the whole transfer, bytes/s.
    pub throughput: Option<f64>,
    /// Whether the received data verified against the dataset checksum.
    pub verified: bool,
    /// Receiver-side windows (throughput + true wire ratio).
    pub receiver_samples: Vec<ReceiverSample>,
    /// Interceptor flow telemetry (only for `DATA` runs).
    pub flow_points: Vec<FlowPoint>,
    /// Ping statistics, if pings ran.
    pub ping: Option<PingStats>,
    /// Sender-side middleware counters (bytes on wire, per-transport
    /// messages, reflections, …).
    pub sender_net: MiddlewareStats,
    /// Receiver-side middleware counters.
    pub receiver_net: MiddlewareStats,
    /// Duplicate chunks the receiver deduplicated (at-least-once
    /// redelivery during supervised reconnects surfaces here).
    pub duplicates: u64,
    /// Fresh chunks that arrived below the highest offset seen so far
    /// (out-of-order arrivals; zero on a calm single-channel run).
    pub out_of_order: u64,
    /// Link-level fault actions the scripted plan applied.
    pub faults_applied: u64,
    /// Simulation events executed (diagnostics).
    pub events: u64,
    /// The simulation's telemetry recorder — populated when
    /// [`ExperimentConfig::telemetry`] was on, otherwise empty. Export with
    /// [`Recorder::write_snapshot`] / [`Recorder::write_jsonl`].
    pub recorder: Recorder,
}

/// Runs one experiment to completion (transfer finished or the time wall).
///
/// # Panics
///
/// Panics if the network stacks fail to bind (ports are fixed and worlds
/// are fresh, so this indicates a harness bug).
#[must_use]
pub fn run_experiment(cfg: &ExperimentConfig) -> ExperimentResult {
    let world = two_host_world(cfg.seed, &cfg.setup);
    run_in_world(&world, cfg)
}

/// Runs one experiment inside an already-built world.
///
/// [`run_experiment`] builds the standard two-host world from
/// [`ExperimentConfig::setup`]; this entry point lets callers (notably the
/// scenario fuzzer) supply arbitrary topologies — relay chains, asymmetric
/// links — as long as `world.host_a` can reach `world.host_b` and back.
/// `cfg.setup` is ignored.
///
/// # Panics
///
/// Panics if the network stacks fail to bind (ports are fixed and worlds
/// are fresh, so this indicates a harness bug).
#[must_use]
pub fn run_in_world(world: &TwoHostWorld, cfg: &ExperimentConfig) -> ExperimentResult {
    if cfg.telemetry {
        if let Some(cap) = cfg.telemetry_capacity {
            world.sim.recorder().set_capacity(cap);
        }
        world.sim.recorder().enable();
        // Fold the packet tracer into the same flight-recorder stream.
        world
            .net
            .set_tracer(RecorderTracer::new(world.sim.recorder().clone()));
    }
    let fault_ctl = cfg
        .faults
        .clone()
        .filter(|p| !p.is_empty())
        .map(|p| FaultController::install(&world.net, p));
    let a_addr = NetAddress::new(world.host_a, SENDER_PORT);
    let b_addr = NetAddress::new(world.host_b, RECEIVER_PORT);

    let mk_net_cfg = |addr: NetAddress| match &cfg.net_template {
        Some(t) => NetworkConfig { addr, ..t.clone() },
        None => NetworkConfig::new(addr),
    };

    // Host A: full DataNetwork stack (interceptor is pass-through for
    // non-DATA traffic, so it is always safe to include).
    let data_cfg = DataNetworkConfig {
        seeds: SeedSource::new(cfg.seed ^ 0xD47A),
        recorder: world.sim.recorder().clone(),
        ..cfg.data_cfg.clone()
    };
    let dn = kmsg_core::data::create_data_network(
        &world.system,
        &world.net,
        mk_net_cfg(a_addr),
        data_cfg,
    )
    .expect("bind sender stack");
    let data_stats = dn.interceptor.on_definition(|c| c.stats());
    let a_net_stats = dn.network.on_definition(|n| n.stats());

    // Host B: plain network stack.
    let b_net = kmsg_core::net::create_network(&world.system, &world.net, mk_net_cfg(b_addr))
        .expect("bind receiver stack");
    let b_net_stats = b_net.on_definition(|n| n.stats());

    // Transfer components.
    let disk_rate = if cfg.use_disk {
        Some(crate::disk::DISK_RATE)
    } else {
        None
    };
    let transfer_parts = cfg.transfer.map(|dataset| {
        let sender = world.system.create(|| {
            FileSender::new(SenderConfig {
                disk_rate,
                rounds: cfg.transfer_rounds.max(1),
                ..SenderConfig::new(dataset, a_addr, b_addr, cfg.data_transport)
            })
        });
        world
            .system
            .connect::<NetworkPort, _, _>(&dn.interceptor, &sender);
        let receiver = world.system.create(|| {
            FileReceiver::new(ReceiverConfig {
                disk_rate,
                rounds: cfg.transfer_rounds.max(1),
                sample_every: cfg.sample_every,
                ..ReceiverConfig::new(dataset)
            })
        });
        world.system.connect::<NetworkPort, _, _>(&b_net, &receiver);
        // Free while the recorder is disabled: instants check the enable
        // flag before allocating a span id.
        let tracer = world.sim.recorder().tracer();
        receiver.on_definition(move |r| r.attach_tracer(tracer));
        let rx_stats = receiver.on_definition(|r| r.stats());
        (sender, receiver, rx_stats, dataset)
    });

    // Ping components.
    let ping_parts = cfg.ping.as_ref().map(|ping| {
        let pinger = world.system.create(|| {
            Pinger::new(PingerConfig {
                transport: ping.transport,
                interval: ping.interval,
                ..PingerConfig::new(a_addr, b_addr)
            })
        });
        world
            .system
            .connect::<NetworkPort, _, _>(&dn.interceptor, &pinger);
        let ponger = world.system.create(|| Ponger::new(b_addr));
        world.system.connect::<NetworkPort, _, _>(&b_net, &ponger);
        let stats = pinger.on_definition(|p| p.stats());
        world.system.start(&pinger);
        world.system.start(&ponger);
        stats
    });

    dn.start(&world.system);
    world.system.start(&b_net);
    if let Some((sender, receiver, _, _)) = &transfer_parts {
        world.system.start(receiver);
        world.system.start(sender);
    }

    // Drive the simulation until the transfer completes (or the wall).
    let step = Duration::from_millis(200);
    let mut elapsed = Duration::ZERO;
    while elapsed < cfg.max_sim_time {
        world.sim.run_for(step);
        elapsed += step;
        if let Some((_, _, rx_stats, _)) = &transfer_parts {
            if rx_stats.lock().done_at.is_some() {
                // Small grace period so trailing notifies and pongs land.
                world.sim.run_for(Duration::from_millis(500));
                break;
            }
        }
    }

    let (transfer_time, throughput, verified, receiver_samples) = match &transfer_parts {
        Some((_, receiver, rx_stats, dataset)) => {
            let stats = rx_stats.lock().clone();
            // Report the LAST round: earlier rounds warm the middleware.
            let time = match stats.round_done_at.len() {
                0 => None,
                1 => stats
                    .round_done_at
                    .first()
                    .map(|t| t.duration_since(kmsg_netsim::time::SimTime::ZERO)),
                n => Some(stats.round_done_at[n - 1].duration_since(stats.round_done_at[n - 2])),
            };
            let complete = stats.done_at.is_some();
            let time = if complete { time } else { None };
            let thr = time.map(|t| dataset.size as f64 / t.as_secs_f64());
            let verified = receiver.on_definition(kmsg_apps_receiver_verified);
            (time, thr, verified, stats.samples)
        }
        None => (None, None, true, Vec::new()),
    };

    let flow_points = data_stats
        .lock()
        .get(&b_addr.as_socket())
        .cloned()
        .unwrap_or_default();
    let ping = ping_parts.map(|h| h.lock().clone());

    let sender_net = a_net_stats.lock().clone();
    let receiver_net = b_net_stats.lock().clone();
    let (duplicates, out_of_order) = transfer_parts.as_ref().map_or((0, 0), |(_, _, rx, _)| {
        let stats = rx.lock();
        (stats.duplicates, stats.out_of_order)
    });
    ExperimentResult {
        transfer_time,
        throughput,
        verified,
        receiver_samples,
        flow_points,
        ping,
        sender_net,
        receiver_net,
        duplicates,
        out_of_order,
        faults_applied: fault_ctl.map_or(0, |c| c.applied()),
        events: world.sim.events_executed(),
        recorder: world.sim.recorder().clone(),
    }
}

// Free function to satisfy the closure signature of `on_definition`.
fn kmsg_apps_receiver_verified(r: &mut FileReceiver) -> bool {
    r.verified()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_transfer_on_vpc_is_disk_limited() {
        let dataset = Dataset::random(20_000_000, 5);
        let cfg = ExperimentConfig::transfer(Setup::EuVpc, Transport::Tcp, dataset, 1);
        let result = run_experiment(&cfg);
        assert!(result.verified, "content must verify");
        let thr = result.throughput.expect("completed");
        assert!(
            thr > 50e6,
            "VPC TCP should run near disk speed, got {:.1} MB/s",
            thr / 1e6
        );
    }

    #[test]
    fn udt_policed_near_10mbps_on_wan() {
        let dataset = Dataset::random(15_000_000, 5);
        let cfg = ExperimentConfig::transfer(Setup::Eu2Us, Transport::Udt, dataset, 2);
        let result = run_experiment(&cfg);
        assert!(result.verified);
        let thr = result.throughput.expect("completed");
        assert!(
            (2e6..12e6).contains(&thr),
            "WAN UDT sits under the 10 MB/s policer, got {:.1} MB/s",
            thr / 1e6
        );
    }

    #[test]
    fn tcp_collapses_at_eu2au() {
        let dataset = Dataset::random(3_000_000, 5);
        let cfg = ExperimentConfig::transfer(Setup::Eu2Au, Transport::Tcp, dataset, 3);
        let result = run_experiment(&cfg);
        assert!(result.verified);
        let thr = result.throughput.expect("completed");
        assert!(
            thr < 3e6,
            "lossy 320 ms TCP must collapse, got {:.1} MB/s",
            thr / 1e6
        );
    }

    #[test]
    fn telemetry_streams_are_byte_identical_per_seed() {
        // The full stack instrumented (transports, links, scheduler,
        // learner, packet tracer): two runs with the same seed must emit
        // byte-identical flight-recorder JSONL and snapshot JSON.
        let run = || {
            let dataset = Dataset::random(2_000_000, 5);
            let mut cfg = ExperimentConfig::transfer(Setup::Eu2Us, Transport::Data, dataset, 77);
            cfg.max_sim_time = Duration::from_secs(30);
            cfg.telemetry = true;
            let result = run_experiment(&cfg);
            (result.recorder.to_jsonl(), result.recorder.snapshot_json())
        };
        let (jsonl_a, snap_a) = run();
        let (jsonl_b, snap_b) = run();
        assert!(!jsonl_a.is_empty(), "telemetry must capture events");
        assert!(
            jsonl_a.lines().count() > 100,
            "a DATA transfer should produce a rich event stream, got {}",
            jsonl_a.lines().count()
        );
        assert_eq!(
            jsonl_a, jsonl_b,
            "flight-recorder JSONL must be reproducible"
        );
        assert_eq!(snap_a, snap_b, "snapshot JSON must be reproducible");
    }

    #[test]
    fn telemetry_off_keeps_recorder_empty() {
        let cfg = ExperimentConfig::ping_only(
            Setup::EuVpc,
            PingSettings::default(),
            5,
            Duration::from_secs(2),
        );
        let result = run_experiment(&cfg);
        assert_eq!(result.recorder.event_count(), 0);
        assert_eq!(result.recorder.recorded_total(), 0);
    }

    #[test]
    fn ping_only_baseline_matches_rtt() {
        let cfg = ExperimentConfig::ping_only(
            Setup::Eu2Us,
            PingSettings::default(),
            4,
            Duration::from_secs(10),
        );
        let result = run_experiment(&cfg);
        let ping = result.ping.expect("ping stats");
        assert!(ping.received > 20);
        let mean = ping.mean().expect("rtts").as_secs_f64();
        assert!(
            (0.15..0.18).contains(&mean),
            "ping-only RTT should be ~155 ms, got {mean}"
        );
    }
}
