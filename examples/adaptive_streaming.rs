//! The adaptive `DATA` meta-protocol in action: a stream starts with no
//! knowledge of the path, and the TD(λ) learner shifts it towards the
//! better transport while it runs (the paper's §IV machinery end-to-end).
//!
//! ```text
//! cargo run --release --example adaptive_streaming
//! ```

use kompics_messaging::prelude::*;

fn main() {
    // EU2AU: 320 ms RTT with light loss — TCP collapses, UDT is capped
    // near the 10 MB/s UDP policer, so the learner should drive the ratio
    // towards UDT (+1).
    let dataset = Dataset::climate(48 * 1024 * 1024, 3);
    let cfg = ExperimentConfig::transfer(Setup::Eu2Au, Transport::Data, dataset, 11);
    println!(
        "adaptive DATA stream on {} ({} ms RTT):\n",
        cfg.setup.label(),
        cfg.setup.rtt().as_millis()
    );
    let result = run_experiment(&cfg);
    assert!(result.verified, "content must verify");

    println!(
        "{:>6} {:>14} {:>9} {:>9}",
        "t", "throughput", "target", "achieved"
    );
    for p in &result.flow_points {
        println!(
            "{:>5.0}s {:>11.2} MB/s {:>+9.2} {:>+9.2}",
            p.time.as_secs_f64(),
            p.throughput / 1e6,
            p.target_ratio,
            p.achieved_ratio,
        );
    }
    let thr = result.throughput.expect("completed");
    println!(
        "\ntransfer finished in {:.1} s at {:.2} MB/s overall",
        result.transfer_time.expect("completed").as_secs_f64(),
        thr / 1e6
    );
    let last = result.flow_points.last().expect("episodes ran");
    println!(
        "final target ratio {:+.2} (-1 = all TCP, +1 = all UDT)",
        last.target_ratio
    );
}
