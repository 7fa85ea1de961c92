//! **paper_gate** — the paper's evaluation (§V) as one table of claim
//! rows. Each row prints its figure's table; the gated ones (`fig1`,
//! `fig8`, `fig9`) then check the figure's claims (`kmsg_bench::paper`),
//! and a failed predicate makes the run exit nonzero, naming the claim,
//! the measured value and the bound.
//!
//! ```text
//! cargo run --release -p kmsg-bench --bin paper_gate [-- ROW...] [--seed N]
//!     [--jobs N] [--size-mb N] [--reps N] [--verbose]
//! ```
//!
//! With no row names, every row runs, in [`ROWS`] order. Multi-world rows
//! shard their worlds across `--jobs` workers; their output is
//! byte-identical at any job count (`kmsg_bench::sweep`). Every run
//! writes `BENCH_paper.json`: one row per predicate (claim, predicate,
//! measured, bound, margin, seeds passed) plus Figure 1's per-cell median,
//! mean and IQR. `--quick` is refused (Fig. 9 loses its shape at its
//! 24 MB), and so is `--trace-out` (no row records a trace).

#![warn(unreachable_pub)]
#![deny(unconditional_recursion)]

mod ablation_learners;
mod ablation_patterns;
mod ablation_udt_buffers;
mod fig1;
mod fig8;
mod fig9;
mod learners;

use kmsg_bench::paper::{fold, Check, Verdict};
use kmsg_bench::BenchArgs;
use kmsg_telemetry::json::Json;

/// What a row hands the gate: its predicates' checks (one per predicate
/// per seed) and any per-cell figures for `BENCH_paper.json`.
#[derive(Default)]
struct RowOutput {
    checks: Vec<Check>,
    cells: Vec<Json>,
}

impl RowOutput {
    fn gated(checks: Vec<Check>) -> Self {
        RowOutput {
            checks,
            cells: Vec::new(),
        }
    }
}

/// A row's body: prints its table, returns its checks.
type Row = fn(&BenchArgs) -> RowOutput;

/// The claim table: each row's name and its body.
const ROWS: [(&str, Row); 10] = [
    ("fig1", fig1::row),
    ("fig2", learners::fig2),
    ("fig4", learners::fig4),
    ("fig5", learners::fig5),
    ("fig6", learners::fig6),
    ("fig8", fig8::row),
    ("fig9", fig9::row),
    ("ablation_udt_buffers", ablation_udt_buffers::row),
    ("ablation_patterns", ablation_patterns::row),
    ("ablation_learners", ablation_learners::row),
];

const OUT: &str = "BENCH_paper.json";

fn main() {
    let (args, names) = BenchArgs::parse_with_names();
    if args.quick || args.trace_out.is_some() {
        kmsg_telemetry::log_error!("paper_gate takes neither --quick nor --trace-out");
        std::process::exit(2);
    }
    if let Some(bad) = names.iter().find(|n| !ROWS.iter().any(|(row, _)| row == n)) {
        let known: Vec<&str> = ROWS.iter().map(|(row, _)| *row).collect();
        kmsg_telemetry::log_error!("no row {bad}; rows: {}", known.join(" "));
        std::process::exit(2);
    }
    let mut verdicts = Vec::new();
    let mut cells = Vec::new();
    for (name, row) in ROWS {
        if !names.is_empty() && !names.iter().any(|n| n == name) {
            continue;
        }
        let outcome = row(&args);
        let row_verdicts = fold(outcome.checks);
        if !row_verdicts.is_empty() {
            kmsg_telemetry::log_info!("");
        }
        for v in &row_verdicts {
            kmsg_telemetry::log_info!("{}", v.line());
        }
        kmsg_telemetry::log_info!("");
        verdicts.extend(row_verdicts);
        cells.extend(outcome.cells);
    }

    let doc = Json::obj(vec![
        ("benchmark", Json::Str("paper_gate".into())),
        (
            "rows",
            Json::Arr(verdicts.iter().map(Verdict::to_json).collect()),
        ),
        ("cells", Json::Arr(cells)),
    ]);
    std::fs::write(OUT, doc.render() + "\n").unwrap_or_else(|e| panic!("write {OUT}: {e}"));

    let failed: Vec<_> = verdicts.iter().filter(|v| !v.holds()).collect();
    for v in &failed {
        kmsg_telemetry::log_error!("{}", v.line());
    }
    if !failed.is_empty() {
        kmsg_telemetry::log_error!("{} of {} predicates failed", failed.len(), verdicts.len());
        std::process::exit(1);
    }
    kmsg_telemetry::log_info!("{} predicates hold; wrote {OUT}", verdicts.len());
}
