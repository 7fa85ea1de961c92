//! **cc_compare** — congestion controllers head-to-head on the lossy WAN.
//!
//! The same bulk TCP transfer (fixed dataset, fixed seed) runs over the
//! calibrated EU2US environment — 125 MB/s, 155 ms RTT, 5·10⁻⁵ random
//! loss — once per congestion controller (Reno, CUBIC, BBR). The compared
//! metric is disk-to-disk **goodput** in simulated time: on a long fat
//! lossy pipe the loss-tolerant controllers must not fall behind Reno,
//! whose AIMD halving on every stray loss starves the window.
//!
//! Every variant runs twice through the sweep runner and must replay
//! byte-identically (flight-recorder streams compared), the transfer must
//! verify under every controller, and the run writes the `BENCH_cc.json`
//! row file the perf gate diffs against its committed baseline — goodput
//! here is virtual-time and deterministic per seed, so any change past
//! the gate's tolerance is a genuine controller behaviour change, not
//! runner noise.
//!
//! ```text
//! cargo run --release -p kmsg-bench --bin cc_compare [-- --seed N] [--jobs N]
//! ```

#![warn(unreachable_pub)]
#![deny(unconditional_recursion)]

use kmsg_apps::{run_experiment, Dataset, ExperimentConfig, ExperimentResult, Setup};
use kmsg_core::prelude::*;
use kmsg_netsim::cc::CcAlgorithm;
use kmsg_netsim::packet::NodeId;
use kmsg_telemetry::json::Json;

/// Transfer size: large enough that every controller reaches its steady
/// state on a 155 ms RTT pipe, small enough to execute in seconds.
const TRANSFER_BYTES: usize = 16_000_000;

/// One EU2US bulk-transfer config pinned to `cc`.
fn cc_config(seed: u64, cc: CcAlgorithm) -> ExperimentConfig {
    let dataset = Dataset::random(TRANSFER_BYTES, 5);
    let mut cfg = ExperimentConfig::transfer(Setup::Eu2Us, Transport::Tcp, dataset, seed);
    // The harness overwrites the address per host.
    let mut tpl = NetworkConfig::new(NetAddress::new(NodeId::from_index(0), 0));
    tpl.tcp.cc.algorithm = cc;
    cfg.net_template = Some(tpl);
    cfg.max_sim_time = std::time::Duration::from_secs(300);
    cfg.telemetry = true;
    cfg.telemetry_capacity = Some(1 << 21);
    cfg
}

fn goodput_mbps(result: &ExperimentResult) -> f64 {
    result.throughput.expect("transfer must complete") / 1e6
}

fn main() {
    let args = kmsg_bench::BenchArgs::parse();

    kmsg_telemetry::log_info!("cc_compare — Reno vs CUBIC vs BBR on the EU2US lossy WAN");
    kmsg_telemetry::log_info!(
        "{} MB bulk TCP transfer, 125 MB/s, 155 ms RTT, 5e-5 loss, seed {}\n",
        TRANSFER_BYTES / 1_000_000,
        args.seed
    );

    // Each controller runs twice (independent worlds) through the sweep
    // runner; the second run is the byte-identity replay.
    let controllers = CcAlgorithm::all();
    let jobs: Vec<CcAlgorithm> = controllers.iter().flat_map(|&cc| [cc, cc]).collect();
    let mut runs = kmsg_bench::sweep::map(args.jobs, jobs, |_idx, cc| {
        run_experiment(&cc_config(args.seed, cc))
    });

    let mut rows = Vec::new();
    let mut last_result = None;
    kmsg_telemetry::log_info!(
        "{:<10} {:>14} {:>12} {:>12}",
        "controller",
        "goodput MB/s",
        "xfer s",
        "wire MB"
    );
    kmsg_bench::rule(52);
    for &cc in &controllers {
        let result = runs.remove(0);
        let replay = runs.remove(0);
        assert!(
            result.recorder.to_jsonl() == replay.recorder.to_jsonl(),
            "same-seed {} runs diverged: the flight-recorder streams differ",
            cc.label()
        );
        assert!(
            result.verified,
            "the {} transfer must complete and verify",
            cc.label()
        );
        let goodput = goodput_mbps(&result);
        let secs = result
            .transfer_time
            .expect("transfer completed")
            .as_secs_f64();
        kmsg_telemetry::log_info!(
            "{:<10} {:>14.2} {:>12.2} {:>12.2}",
            cc.label(),
            goodput,
            secs,
            result.sender_net.bytes_out as f64 / 1e6
        );
        rows.push((cc, goodput));
        last_result = Some(result);
    }
    kmsg_telemetry::log_info!("\nreplay check: every controller byte-identical across two runs");

    // Publish gauges on the last run's recorder so trace exports carry
    // the comparison.
    let last = last_result.expect("at least one controller ran");
    let rec = &last.recorder;
    for &(cc, goodput) in &rows {
        rec.set_gauge(&format!("cc/{}/goodput_mbps", cc.label()), goodput);
    }
    rec.publish_overflow_gauges();

    // Row file for the perf gate's baseline diff.
    let doc = Json::obj(vec![
        ("benchmark", Json::Str("cc_compare".to_string())),
        (
            "setup",
            Json::Str("eu2us-125MBs-155ms-5e-5loss".to_string()),
        ),
        ("transfer_bytes", Json::Num(TRANSFER_BYTES as f64)),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|&(cc, goodput)| {
                        Json::obj(vec![
                            ("name", Json::Str(cc.label().to_string())),
                            ("goodput_mbps", Json::Num(goodput)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::write("BENCH_cc.json", doc.render() + "\n").expect("write BENCH_cc.json");
    kmsg_bench::write_trace_out(&args, rec);
    kmsg_telemetry::log_info!("wrote BENCH_cc.json");
}
