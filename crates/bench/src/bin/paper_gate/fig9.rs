//! **Figure 9** — data transfer throughput for different RTTs, over TCP,
//! UDT and the adaptive DATA meta-protocol (error bars: 95% confidence
//! intervals; repetitions until the relative standard error < 10%, as in
//! the paper).
//!
//! Expected shape: TCP excels at low RTT (disk-limited at ~110 MB/s
//! locally and in the VPC) but collapses on the lossy high-BDP paths; UDT
//! sits near the 10 MB/s UDP policer everywhere; DATA tracks whichever is
//! better, with some ramp-up cost and higher variance. The predicates are
//! `kmsg_bench::paper::fig9_checks`.

use kmsg_apps::{run_experiment, Dataset, ExperimentConfig, Setup};
use kmsg_bench::paper::{fig9_checks, Fig9Row};
use kmsg_core::Transport;

use crate::RowOutput;

pub fn row(args: &kmsg_bench::BenchArgs) -> RowOutput {
    let dataset = Dataset::climate(args.size, args.seed);
    kmsg_telemetry::log_info!(
        "Figure 9 — disk-to-disk transfer throughput vs RTT ({} MB dataset, \
         >= {} runs, RSE < 10% stopping rule)",
        args.size / (1024 * 1024),
        args.min_reps
    );
    kmsg_telemetry::log_info!(
        "\n{:<8} {:>8} | {:>22} {:>22} {:>22}",
        "setup", "RTT", "TCP (MB/s ± CI95)", "UDT (MB/s ± CI95)", "DATA (MB/s ± CI95)"
    );
    kmsg_bench::rule(92);
    let mut rows = Vec::new();
    for setup in Setup::paper_setups() {
        let mut row = format!(
            "{:<8} {:>5.0} ms |",
            setup.label(),
            setup.rtt().as_secs_f64() * 1e3
        );
        let mut mbps = [0.0; 3];
        for (i, transport) in [Transport::Tcp, Transport::Udt, Transport::Data]
            .into_iter()
            .enumerate()
        {
            let stats = kmsg_bench::repeat_until_stable(args.min_reps, args.reps, |rep| {
                let mut cfg = ExperimentConfig::transfer(
                    setup.clone(),
                    transport,
                    dataset,
                    args.seed.wrapping_mul(1000) + rep,
                );
                if transport == Transport::Data {
                    // The paper measures repeated runs against a standing
                    // deployment, so the learner arrives warm; model that
                    // with warm-up rounds and report the last round.
                    cfg.transfer_rounds = if setup.rtt() < std::time::Duration::from_millis(50) {
                        10
                    } else {
                        2
                    };
                    cfg.max_sim_time = std::time::Duration::from_secs(2400);
                }
                let result = run_experiment(&cfg);
                assert!(result.verified, "transfer must verify ({transport})");
                result.throughput.expect("transfer completed") / 1e6
            });
            mbps[i] = stats.mean();
            row.push_str(&format!(
                " {:>12.2} ± {:>6.2}",
                stats.mean(),
                stats.ci95_half_width()
            ));
        }
        kmsg_telemetry::log_info!("{row}");
        rows.push(Fig9Row { setup, mbps });
    }
    RowOutput::gated(fig9_checks(&rows))
}
