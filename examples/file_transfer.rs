//! Bulk file transfer across the paper's four EC2 setups, comparing TCP
//! and UDT — a miniature of the paper's Figure 9 experiment.
//!
//! ```text
//! cargo run --release --example file_transfer
//! ```

use kompics_messaging::prelude::*;

fn main() {
    // A 24 MB climate-like dataset keeps the example fast; the bench
    // binaries run the full 395 MB.
    let dataset = Dataset::climate(24 * 1024 * 1024, 7);

    println!(
        "transferring {} MB, disk-to-disk:\n",
        dataset.size / (1024 * 1024)
    );
    println!("{:<8} {:>10} {:>14} {:>14}", "setup", "RTT", "TCP", "UDT");
    for setup in Setup::paper_setups() {
        let mut row = format!(
            "{:<8} {:>7.0} ms",
            setup.label(),
            setup.rtt().as_secs_f64() * 1e3
        );
        for transport in [Transport::Tcp, Transport::Udt] {
            let cfg = ExperimentConfig::transfer(setup.clone(), transport, dataset, 1);
            let result = run_experiment(&cfg);
            assert!(result.verified, "transfer must verify");
            match result.throughput {
                Some(thr) => row.push_str(&format!(" {:>9.2} MB/s", thr / 1e6)),
                None => row.push_str(&format!("{:>14}", "timed out")),
            }
        }
        println!("{row}");
    }
    println!("\nTCP wins on short paths; UDT holds ~10 MB/s regardless of RTT.");
}
