//! Calibration probe: prints the baseline behaviours the experiment
//! environments are calibrated to (see DESIGN.md §3) — a raw event-engine
//! throughput probe, then one full-size transfer per (setup, transport)
//! pair of interest, with simulated time, throughput and event counts.
//!
//! Emits the machine-readable part to `BENCH_engine.json` and a
//! datacenter-scaling section (star fan-in worlds at increasing host
//! counts: setup time, events/sec, per-flow heap bytes) to
//! `BENCH_scale.json`; prints a sweep-throughput table (fuzz-scenario
//! worlds/sec at several `--jobs` levels through `kmsg_bench::sweep`) and
//! asserts that the sweep's outcome is the same at every level.
//!
//! ```text
//! cargo run --release -p kmsg-bench --bin timing_probe [--quick]
//! ```

#![warn(unreachable_pub)]
#![deny(unconditional_recursion)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::Rng;

use kmsg_apps::*;
use kmsg_core::Transport;
use kmsg_netsim::engine::{EventTarget, Sim};
use kmsg_netsim::iface::{Connection, StreamAccept, StreamEvents};
use kmsg_netsim::memscope;
use kmsg_netsim::network::Network;
use kmsg_netsim::packet::Endpoint;
use kmsg_netsim::rng::SeedSource;
use kmsg_netsim::tcp::{TcpConfig, TcpConn, TcpListener};
use kmsg_netsim::time::SimTime;
use kmsg_telemetry::json::Json;

/// Counting allocator so the scaling section can report live heap bytes
/// per flow (the same measurement the pre-slab baseline in docs/lab/PR-15.md
/// "Scaling" was taken with) and allocation calls per subsystem (tagged
/// through `memscope`, so a regression in `allocs_per_event` names its
/// offender).
struct CountingAlloc;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

#[allow(clippy::declare_interior_mutable_const)]
const ZERO_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_CALLS: [AtomicU64; memscope::N_SCOPES] = [ZERO_CALLS; memscope::N_SCOPES];

fn alloc_snapshot() -> [u64; memscope::N_SCOPES] {
    std::array::from_fn(|i| ALLOC_CALLS[i].load(Ordering::Relaxed))
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(l.size(), Ordering::Relaxed);
        ALLOC_CALLS[memscope::current()].fetch_add(1, Ordering::Relaxed);
        System.alloc(l)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        LIVE_BYTES.fetch_sub(l.size(), Ordering::Relaxed);
        System.dealloc(p, l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(l.size(), Ordering::Relaxed);
        ALLOC_CALLS[memscope::current()].fetch_add(1, Ordering::Relaxed);
        System.realloc(p, l, new)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct EngineProbe {
    name: &'static str,
    events: u64,
    wall_secs: f64,
    events_per_sec: f64,
}

struct TransferProbe {
    setup: String,
    proto: String,
    sim_secs: f64,
    throughput_mbps: f64,
    events: u64,
    wall_secs: f64,
}

struct CountTarget(AtomicU64);
impl EventTarget for CountTarget {
    fn fire(self: Arc<Self>, _sim: &Sim, _token: u64) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

fn probe(name: &'static str, events: u64, run: impl FnOnce() -> u64) -> EngineProbe {
    let wall = Instant::now();
    let executed = run();
    let wall_secs = wall.elapsed().as_secs_f64();
    assert_eq!(executed, events, "{name}: probe must drain exactly");
    EngineProbe {
        name,
        events,
        wall_secs,
        events_per_sec: events as f64 / wall_secs,
    }
}

/// Raw engine throughput: the now-lane fast path (zero-delay), a jittered
/// schedule spread across wheel levels, and the zero-alloc target path.
fn engine_probes(events: u64) -> Vec<EngineProbe> {
    let delays: Vec<u64> = {
        let mut rng = SeedSource::new(42).stream("engine-bench-jitter");
        (0..events)
            .map(|_| rng.gen_range(1_000u64..=50_000_000))
            .collect()
    };

    vec![
        probe("wheel/zero_delay", events, || {
            let sim = Sim::new(1);
            let hits = Arc::new(AtomicU64::new(0));
            for _ in 0..events {
                let h = hits.clone();
                sim.schedule_in(Duration::ZERO, move |_| {
                    h.fetch_add(1, Ordering::Relaxed);
                });
            }
            sim.run_until(SimTime::ZERO);
            sim.events_executed()
        }),
        probe("wheel/jittered", events, || {
            let sim = Sim::new(1);
            for &d in &delays {
                sim.schedule_at(SimTime::from_nanos(d), |_| {});
            }
            sim.run_to_completion();
            sim.events_executed()
        }),
        probe("wheel/zero_delay_targets", events, || {
            let sim = Sim::new(1);
            let target = Arc::new(CountTarget(AtomicU64::new(0)));
            for i in 0..events {
                sim.schedule_target_in(Duration::ZERO, target.clone(), i);
            }
            sim.run_until(SimTime::ZERO);
            sim.events_executed()
        }),
    ]
}

fn write_json(engine_events: u64, engines: &[EngineProbe], transfers: &[TransferProbe]) {
    let engines = engines
        .iter()
        .map(|p| {
            Json::obj(vec![
                ("name", Json::Str(p.name.to_string())),
                ("events", Json::Num(p.events as f64)),
                ("wall_secs", Json::Num(p.wall_secs)),
                ("events_per_sec", Json::Num(p.events_per_sec)),
            ])
        })
        .collect();
    let transfers = transfers
        .iter()
        .map(|t| {
            Json::obj(vec![
                ("setup", Json::Str(t.setup.clone())),
                ("transport", Json::Str(t.proto.clone())),
                ("sim_secs", Json::Num(t.sim_secs)),
                ("throughput_mbps", Json::Num(t.throughput_mbps)),
                ("events", Json::Num(t.events as f64)),
                ("wall_secs", Json::Num(t.wall_secs)),
                (
                    "events_per_wall_sec",
                    Json::Num(t.events as f64 / t.wall_secs),
                ),
            ])
        })
        .collect();
    let doc = Json::obj(vec![
        ("benchmark", Json::Str("engine".into())),
        ("events_per_run", Json::Num(engine_events as f64)),
        ("engines", Json::Arr(engines)),
        ("transfers", Json::Arr(transfers)),
    ]);
    std::fs::write("BENCH_engine.json", doc.render() + "\n").expect("write BENCH_engine.json");
}

struct SweepProbe {
    jobs: usize,
    wall_secs: f64,
    worlds_per_sec: f64,
}

/// Sweep throughput: the same batch of fuzz-scenario worlds executed
/// through the sweep runner at increasing `--jobs` levels. Every level
/// produces identical verdicts (asserted); only wall-clock time may move.
fn sweep_probes(worlds: u64) -> Vec<SweepProbe> {
    let mut levels = vec![1usize, 2, 4, kmsg_bench::sweep::default_jobs()];
    levels.sort_unstable();
    levels.dedup();
    let mut out = Vec::new();
    let mut reference: Option<Vec<usize>> = None;
    for jobs in levels {
        let wall = Instant::now();
        let verdicts = kmsg_bench::fuzzer::sweep_seeds(0, worlds, jobs, None, |seed| {
            let v = kmsg_bench::fuzzer::check_seed(seed);
            (!v.is_empty()).then_some(v.len())
        });
        let wall_secs = wall.elapsed().as_secs_f64();
        let summary = vec![
            usize::try_from(verdicts.ran).expect("fits"),
            usize::try_from(verdicts.clean).expect("fits"),
        ];
        match &reference {
            None => reference = Some(summary),
            Some(r) => assert_eq!(*r, summary, "sweep outcome must not depend on jobs"),
        }
        out.push(SweepProbe {
            jobs,
            wall_secs,
            worlds_per_sec: worlds as f64 / wall_secs,
        });
    }
    out
}

/// The pre-slab per-flow heap cost (bytes) measured with this same idle
/// fan-in probe at 1000 flows — the reference the scaling rows compare
/// against (docs/lab/PR-15.md "Scaling").
const BASELINE_BYTES_PER_FLOW: f64 = 6169.4;

struct ScaleRow {
    hosts: usize,
    setup_secs: f64,
    events: u64,
    run_secs: f64,
    events_per_sec: f64,
    sim_secs: f64,
    delivered_bytes: u64,
    bytes_per_flow: f64,
    established: usize,
    /// Allocator calls per executed event over the converging-senders
    /// world (setup included — constant-per-world costs amortize away at
    /// the large host counts the metric is judged at).
    allocs_per_event: f64,
    /// Allocator-call delta per `memscope` subsystem over the same run.
    allocs_by_scope: [u64; memscope::N_SCOPES],
}

struct Quiet;
impl StreamEvents for Quiet {}

struct AcceptQuiet;
impl StreamAccept for AcceptQuiet {
    fn on_accept(&self, _conn: &Connection) -> Arc<dyn StreamEvents> {
        Arc::new(Quiet)
    }
}

/// Live heap bytes attributable to one established-but-idle flow: build a
/// star fan-in world, settle it, open `flows` connections, and divide the
/// live-bytes delta by the flow count. Identical in shape and parameters
/// to the probe that produced [`BASELINE_BYTES_PER_FLOW`].
fn idle_flow_bytes(flows: usize) -> (f64, usize) {
    let sim = Sim::new(42);
    let net = Network::new(&sim);
    let topo = star_fanin(&net, flows);
    let _listener = TcpListener::bind(
        &net,
        topo.sink,
        CONVERGE_PORT,
        TcpConfig::default(),
        Arc::new(AcceptQuiet),
    )
    .expect("bind idle sink");
    sim.run_for(Duration::from_millis(10));
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    // Ramp the dials: the hub's drop-tail queue holds ~4k SYNs (256 KiB),
    // so a single instantaneous burst of 10⁵ dials drops most of the herd
    // and exponential backoff pushes its tail past any fixed settle
    // window. Chunks under the queue depth with a short gap dial cleanly;
    // rows at or below the chunk size still burst exactly as before.
    let mut conns: Vec<TcpConn> = Vec::with_capacity(flows);
    for chunk in topo.senders.chunks(2048) {
        for &s in chunk {
            conns.push(
                TcpConn::connect(
                    &net,
                    s,
                    Endpoint::new(topo.sink, CONVERGE_PORT),
                    TcpConfig::default(),
                    Arc::new(Quiet),
                )
                .expect("idle connect"),
            );
        }
        sim.run_for(Duration::from_millis(20));
    }
    sim.run_for(Duration::from_secs(5));
    let established = conns.iter().filter(|c| c.is_established()).count();
    let after = LIVE_BYTES.load(Ordering::Relaxed);
    let delta = after as isize - before as isize;
    (delta as f64 / flows as f64, established)
}

/// Datacenter-scaling probe: per host count, an idle-flow memory
/// measurement plus a full converging-senders run (64 KiB per sender into
/// one sink) timing world setup and event throughput.
fn scale_probes(host_counts: &[usize], seed: u64) -> Vec<ScaleRow> {
    let mut rows = Vec::with_capacity(host_counts.len());
    for &hosts in host_counts {
        let (bytes_per_flow, established) = idle_flow_bytes(hosts);
        let before = alloc_snapshot();
        let r = run_converging_senders(&ConvergeSpec::star(seed, hosts));
        let after = alloc_snapshot();
        assert_eq!(
            r.delivered_bytes,
            r.flows as u64 * 64 * 1024,
            "scale run at {hosts} hosts must deliver everything"
        );
        assert_eq!(
            r.closed_flows, r.flows,
            "all flows must close at {hosts} hosts"
        );
        let allocs_by_scope: [u64; memscope::N_SCOPES] =
            std::array::from_fn(|i| after[i] - before[i]);
        let total_allocs: u64 = allocs_by_scope.iter().sum();
        rows.push(ScaleRow {
            hosts,
            setup_secs: r.setup_secs,
            events: r.events,
            run_secs: r.run_secs,
            events_per_sec: r.events as f64 / r.run_secs,
            sim_secs: r.sim_secs,
            delivered_bytes: r.delivered_bytes,
            bytes_per_flow,
            established,
            allocs_per_event: total_allocs as f64 / r.events as f64,
            allocs_by_scope,
        });
    }
    rows
}

fn write_scale_json(rows: &[ScaleRow]) {
    let rows = rows
        .iter()
        .map(|r| {
            let by_scope = memscope::SCOPE_LABELS
                .iter()
                .zip(r.allocs_by_scope.iter())
                .map(|(label, &n)| (*label, Json::Num(n as f64)))
                .collect();
            Json::obj(vec![
                ("hosts", Json::Num(r.hosts as f64)),
                ("flows", Json::Num(r.hosts as f64)),
                ("setup_secs", Json::Num(r.setup_secs)),
                ("events", Json::Num(r.events as f64)),
                ("run_secs", Json::Num(r.run_secs)),
                ("events_per_sec", Json::Num(r.events_per_sec)),
                ("sim_secs", Json::Num(r.sim_secs)),
                ("delivered_bytes", Json::Num(r.delivered_bytes as f64)),
                ("bytes_per_flow", Json::Num(r.bytes_per_flow)),
                (
                    "reduction_vs_baseline",
                    Json::Num(1.0 - r.bytes_per_flow / BASELINE_BYTES_PER_FLOW),
                ),
                ("established", Json::Num(r.established as f64)),
                ("allocs_per_event", Json::Num(r.allocs_per_event)),
                ("allocs_by_scope", Json::obj(by_scope)),
            ])
        })
        .collect();
    let doc = Json::obj(vec![
        ("benchmark", Json::Str("scale".into())),
        ("topology", Json::Str("star-fanin".into())),
        ("bytes_per_sender", Json::Num(65536.0)),
        (
            "baseline_bytes_per_flow",
            Json::Num(BASELINE_BYTES_PER_FLOW),
        ),
        ("rows", Json::Arr(rows)),
    ]);
    std::fs::write("BENCH_scale.json", doc.render() + "\n").expect("write BENCH_scale.json");
}

fn main() {
    let args = kmsg_bench::BenchArgs::parse();
    // Full length in `--quick` too: the engine rows are gated against the
    // committed ones, which a shorter run would not compare with (a second
    // at most; only the transfers and the scale rows shrink).
    let engine_events: u64 = 1_000_000;

    kmsg_telemetry::log_info!("Engine throughput probe ({engine_events} events per run):\n");
    kmsg_telemetry::log_info!(
        "{:<26} {:>12} {:>10} {:>16}",
        "engine/workload",
        "events",
        "wall",
        "events/sec"
    );
    kmsg_bench::rule(68);
    let engines = engine_probes(engine_events);
    for p in &engines {
        kmsg_telemetry::log_info!(
            "{:<26} {:>12} {:>8.3} s {:>16.0}",
            p.name,
            p.events,
            p.wall_secs,
            p.events_per_sec
        );
    }

    let dataset_size = if args.quick {
        args.size
    } else {
        PAPER_DATASET_SIZE
    };
    kmsg_telemetry::log_info!(
        "\nCalibration probe ({} MB dataset):\n",
        dataset_size / (1024 * 1024)
    );
    kmsg_telemetry::log_info!(
        "{:<8} {:<5} {:>10} {:>12} {:>12} {:>9}",
        "setup",
        "proto",
        "sim time",
        "throughput",
        "events",
        "wall"
    );
    kmsg_bench::rule(62);
    let mut transfers = Vec::new();
    for (setup, proto) in [
        (Setup::Local, Transport::Tcp),
        (Setup::Local, Transport::Udt),
        (Setup::EuVpc, Transport::Tcp),
        (Setup::EuVpc, Transport::Udt),
        (Setup::Eu2Us, Transport::Tcp),
        (Setup::Eu2Us, Transport::Udt),
        (Setup::Eu2Au, Transport::Tcp),
        (Setup::Eu2Au, Transport::Udt),
    ] {
        let dataset = Dataset::climate(dataset_size, args.seed);
        let cfg = ExperimentConfig::transfer(setup.clone(), proto, dataset, args.seed);
        let wall = Instant::now();
        let r = run_experiment(&cfg);
        assert!(r.verified, "calibration transfers must verify");
        let wall_secs = wall.elapsed().as_secs_f64();
        kmsg_telemetry::log_info!(
            "{:<8} {:<5} {:>8.1} s {:>9.2} MB/s {:>12} {:>7.1} s",
            setup.label(),
            proto.to_string(),
            r.transfer_time.expect("completed").as_secs_f64(),
            r.throughput.expect("completed") / 1e6,
            r.events,
            wall_secs
        );
        transfers.push(TransferProbe {
            setup: setup.label().to_string(),
            proto: proto.to_string(),
            sim_secs: r.transfer_time.expect("completed").as_secs_f64(),
            throughput_mbps: r.throughput.expect("completed") / 1e6,
            events: r.events,
            wall_secs,
        });
    }
    kmsg_telemetry::log_info!(
        "\nCalibration targets (paper, §V): TCP disk-limited (~110 MB/s) at\n\
         Local/EU-VPC and collapsing to ~1-2 MB/s on the lossy WAN paths;\n\
         UDT near the ~10 MB/s EC2 UDP policer on every real-network setup."
    );

    write_json(engine_events, &engines, &transfers);

    // Sweep throughput: how fast the parallel runner turns over whole
    // worlds. Wall-clock scaling tracks the machine's core count (a
    // single-core container shows ~1.0x at every level — the byte-identity
    // assertion still exercises the parallel path).
    let sweep_worlds: u64 = if args.quick { 24 } else { 96 };
    kmsg_telemetry::log_info!(
        "\nSweep throughput probe ({sweep_worlds} fuzz-scenario worlds, \
         {} cores available):\n",
        kmsg_bench::sweep::default_jobs()
    );
    kmsg_telemetry::log_info!(
        "{:<8} {:>10} {:>16} {:>10}",
        "jobs",
        "wall",
        "worlds/sec",
        "speedup"
    );
    kmsg_bench::rule(48);
    let sweeps = sweep_probes(sweep_worlds);
    let base = sweeps.first().map_or(f64::NAN, |p| p.worlds_per_sec);
    for p in &sweeps {
        kmsg_telemetry::log_info!(
            "{:<8} {:>8.3} s {:>16.2} {:>9.2}x",
            p.jobs,
            p.wall_secs,
            p.worlds_per_sec,
            p.worlds_per_sec / base
        );
    }

    // Datacenter scaling: star fan-in worlds at increasing host counts.
    // Each row pairs an idle-flow heap measurement with a full converging
    // transfer (10⁵ hosts in the full run; CI's --quick stops at the 10⁴
    // smoke row).
    let host_counts: &[usize] = if args.quick {
        &[100, 1_000, 10_000]
    } else {
        &[100, 1_000, 10_000, 100_000]
    };
    kmsg_telemetry::log_info!(
        "\nScaling probe (star fan-in, 64 KiB per sender, baseline {:.1} B/flow):\n",
        BASELINE_BYTES_PER_FLOW
    );
    kmsg_telemetry::log_info!(
        "{:<8} {:>10} {:>12} {:>14} {:>12} {:>10} {:>10}",
        "hosts",
        "setup",
        "events",
        "events/sec",
        "B/flow",
        "vs base",
        "allocs/ev"
    );
    kmsg_bench::rule(84);
    let scale_rows = scale_probes(host_counts, args.seed);
    for r in &scale_rows {
        kmsg_telemetry::log_info!(
            "{:<8} {:>8.3} s {:>12} {:>14.0} {:>12.1} {:>9.1}% {:>10.3}",
            r.hosts,
            r.setup_secs,
            r.events,
            r.events_per_sec,
            r.bytes_per_flow,
            (1.0 - r.bytes_per_flow / BASELINE_BYTES_PER_FLOW) * 100.0,
            r.allocs_per_event
        );
        assert_eq!(
            r.established, r.hosts,
            "every idle probe flow must establish at {} hosts",
            r.hosts
        );
    }
    write_scale_json(&scale_rows);

    // Flight-recorder sample: one small mixed-transport transfer on the
    // lossy WAN path with telemetry enabled. The exported files contain
    // only sim-time-derived data (wall-clock rates stay in
    // BENCH_engine.json), so they are byte-identical for a given seed.
    let tel_size = 4 * 1024 * 1024;
    let dataset = Dataset::climate(tel_size, args.seed);
    let mut cfg = ExperimentConfig::transfer(Setup::Eu2Us, Transport::Data, dataset, args.seed);
    cfg.telemetry = true;
    let r = run_experiment(&cfg);
    kmsg_bench::write_trace_out(&args, &r.recorder);
    r.recorder
        .write_snapshot("telemetry.json")
        .expect("write telemetry.json");
    r.recorder
        .write_jsonl("telemetry.jsonl")
        .expect("write telemetry.jsonl");
    kmsg_telemetry::log_info!(
        "\nWrote BENCH_engine.json, BENCH_scale.json, telemetry.json, \
         telemetry.jsonl ({} events recorded, {} retained)",
        r.recorder.recorded_total(),
        r.recorder.event_count()
    );
}
