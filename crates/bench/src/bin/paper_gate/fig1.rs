//! **Figure 1** — Distribution of observed selection ratios of the
//! probabilistic (Random) and the Pattern protocol selection policies,
//! compared to the target ratio.
//!
//! The paper's setting (§IV-B2): on a 100 MB/s link with 10 ms delay and
//! 65 kB messages, one 1 s learning episode covers ~1600 messages and ~16
//! messages are concurrently on the wire. For each target ratio the
//! selectors emit a long stream; sliding windows of 1600 ("Episode") and
//! 16 ("Wire") messages yield ~160 000 observed-ratio entries per dataset,
//! summarised as min / p25 / median / p75 / max boxes.
//!
//! The table is `--seed`'s; the predicates (`kmsg_bench::paper::fig1_checks`)
//! run on it and the next four seeds.

use kmsg_bench::fig1_core::{cells, run_cell, CellResult, ENTRIES};
use kmsg_bench::paper::fig1_checks;
use kmsg_netsim::rng::SeedSource;

use crate::RowOutput;

/// Seeds the predicates run on, `--seed` first.
const SEEDS: u64 = 5;

pub fn row(args: &kmsg_bench::BenchArgs) -> RowOutput {
    kmsg_telemetry::log_info!("Figure 1 — observed selection ratio distributions");
    kmsg_telemetry::log_info!("(signed form: -1.0 = 100% TCP, +1.0 = 100% UDT)\n");
    kmsg_telemetry::log_info!(
        "{:>7} {:>8} {:<16} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "target", "(signed)", "dataset", "min", "p25", "median", "p75", "max", "mean"
    );
    kmsg_bench::rule(96);

    let mut outcome = RowOutput::default();
    for seed in args.seed..args.seed + SEEDS {
        let seeds = SeedSource::new(seed);
        // Each cell is an independent world; compute in parallel, then
        // print in submission order so output never depends on thread
        // scheduling.
        let results = kmsg_bench::sweep::map(args.jobs, cells(), |_idx, cell| {
            run_cell(&cell, seeds, ENTRIES)
        });
        if seed == args.seed {
            for (i, r) in results.iter().enumerate() {
                kmsg_telemetry::log_info!("{}", r.row);
                if (i + 1) % 4 == 0 {
                    kmsg_bench::rule(96);
                }
            }
            outcome.cells = results.iter().map(CellResult::to_json).collect();
        }
        outcome.checks.extend(fig1_checks(&results));
    }
    outcome
}
