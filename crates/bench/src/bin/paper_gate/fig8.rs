//! **Figure 8** — RTTs for simple "Ping" control messages over different
//! distances, with and without parallel data transfer using different
//! protocols.
//!
//! Series (the paper's §V-C combinations):
//!
//! 1. TCP pings only (baseline);
//! 2. UDT pings only (baseline);
//! 3. TCP pings + TCP data — control messages queue behind data sharing
//!    the TCP channel: a latency penalty of orders of magnitude;
//! 4. TCP pings + UDT data — separate channels barely interfere;
//! 5. TCP pings + DATA data — in between, thanks to the interceptor's
//!    shallow-queue release.
//!
//! One world per setup and series; the predicates are
//! `kmsg_bench::paper::fig8_checks`.

use std::time::Duration;

use kmsg_apps::{run_experiment, Dataset, ExperimentConfig, PingSettings, Setup};
use kmsg_bench::paper::{fig8_checks, Fig8Row, Pings};
use kmsg_core::Transport;

use crate::RowOutput;

fn mean_rtt_ms(cfg: &ExperimentConfig) -> Pings {
    let result = run_experiment(cfg);
    let ping = result.ping.expect("ping stats");
    Pings {
        mean_ms: ping.mean().map_or(f64::NAN, |d| d.as_secs_f64() * 1e3),
        received: ping.received,
    }
}

pub(crate) fn row(args: &kmsg_bench::BenchArgs) -> RowOutput {
    // The transfer must run long enough for pings to sample the congested
    // state; the full dataset does that everywhere.
    let dataset = Dataset::climate(args.size, args.seed);
    let ping = PingSettings {
        transport: Transport::Tcp,
        interval: Duration::from_millis(250),
    };
    let udp_ping = PingSettings {
        transport: Transport::Udp,
        interval: Duration::from_millis(250),
    };
    let baseline_time = Duration::from_secs(30);

    kmsg_telemetry::log_info!(
        "Figure 8 — control-message RTTs (ms), with and without parallel {} MB data transfer",
        args.size / (1024 * 1024)
    );
    kmsg_telemetry::log_info!(
        "\n{:<8} {:>12} {:>12} {:>16} {:>16} {:>17}",
        "setup",
        "TCP pings",
        "UDP pings",
        "TCP ping+TCPdata",
        "TCP ping+UDTdata",
        "TCP ping+DATAdata"
    );
    kmsg_bench::rule(88);
    let worlds: Vec<(Setup, usize)> = Setup::paper_setups()
        .into_iter()
        .flat_map(|setup| (0..5).map(move |series| (setup.clone(), series)))
        .collect();
    let pings = kmsg_bench::sweep::map(args.jobs, worlds, |_idx, (setup, series)| {
        let cfg = match series {
            // Baselines: pings only.
            0 | 1 => {
                let p = if series == 0 { &ping } else { &udp_ping };
                ExperimentConfig::ping_only(setup, p.clone(), args.seed, baseline_time)
            }
            // Parallel transfer over TCP / UDT / DATA.
            _ => {
                let transport = [Transport::Tcp, Transport::Udt, Transport::Data][series - 2];
                let mut cfg = ExperimentConfig::transfer(setup, transport, dataset, args.seed);
                cfg.ping = Some(ping.clone());
                cfg
            }
        };
        mean_rtt_ms(&cfg)
    });
    let rows: Vec<Fig8Row> = Setup::paper_setups()
        .into_iter()
        .zip(pings.chunks(5))
        .map(|(setup, series)| Fig8Row {
            setup,
            series: series.try_into().expect("five series per setup"),
        })
        .collect();
    for r in &rows {
        let mut row = format!("{:<8}", r.setup.label());
        for (p, width) in r.series.iter().zip([12, 12, 16, 16, 17]) {
            row.push_str(&format!(" {:>width$.2}", p.mean_ms));
        }
        kmsg_telemetry::log_info!("{row}");
    }
    RowOutput::gated(fig8_checks(&rows))
}
