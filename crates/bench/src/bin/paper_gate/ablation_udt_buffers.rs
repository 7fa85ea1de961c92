//! **Ablation A** — UDT protocol buffer sizing (§V-A): the paper had to
//! raise Netty's UDT send/receive buffers from 12 MB to 100 MB for its
//! high bandwidth-delay-product links. The flow window is bounded by the
//! buffers, so an undersized buffer caps throughput near `window / RTT`.
//! Each buffer size is an independent world. Not gated yet.

use kmsg_apps::{run_experiment, Dataset, ExperimentConfig, Setup};
use kmsg_core::{NetworkConfig, Transport};
use kmsg_netsim::udt::UdtConfig;

use crate::RowOutput;

pub fn row(args: &kmsg_bench::BenchArgs) -> RowOutput {
    let size = 64 * 1024 * 1024;
    let dataset = Dataset::climate(size, args.seed);
    kmsg_telemetry::log_info!(
        "Ablation A — UDT throughput at EU2AU (320 ms RTT) vs protocol buffer size\n"
    );
    kmsg_telemetry::log_info!("{:>10} {:>14} {:>16}", "buffers", "window/RTT cap", "throughput");
    kmsg_bench::rule(44);
    let rows = kmsg_bench::sweep::map(
        args.jobs,
        vec![1usize, 2, 4, 8, 12, 32, 100],
        |_idx, buf_mb| {
            let buf = buf_mb * 1024 * 1024;
            let setup = Setup::Eu2Au;
            let cap = buf as f64 / setup.rtt().as_secs_f64();
            let mut cfg = ExperimentConfig::transfer(setup, Transport::Udt, dataset, args.seed);
            let mut net_cfg = NetworkConfig::new(kmsg_core::NetAddress::new(
                kmsg_netsim::packet::NodeId::from_index(0),
                0,
            ));
            net_cfg.udt = UdtConfig {
                snd_buf: buf,
                rcv_buf: buf,
                ..UdtConfig::default()
            };
            cfg.net_template = Some(net_cfg);
            let result = run_experiment(&cfg);
            assert!(result.verified);
            let thr = result.throughput.expect("completed");
            format!(
                "{:>7} MB {:>11.2} MB/s {:>13.2} MB/s",
                buf_mb,
                cap / 1e6,
                thr / 1e6
            )
        },
    );
    for row in rows {
        kmsg_telemetry::log_info!("{row}");
    }
    kmsg_telemetry::log_info!(
        "\nExpected shape: throughput grows with the buffer while window/RTT\n\
         binds, then saturates once the ~10 MB/s policer (not the window)\n\
         becomes the bottleneck — the paper's 12 MB -> 100 MB fix moves the\n\
         deployment safely into the saturated regime."
    );
    RowOutput::default()
}
