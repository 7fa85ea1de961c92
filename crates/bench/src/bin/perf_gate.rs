//! **perf_gate** — CI guard against engine performance regressions.
//!
//! Compares a freshly produced `BENCH_engine.json` / `BENCH_scale.json`
//! (written by the `timing_probe` binary), `BENCH_reroute.json` (the
//! `reroute` binary) and `BENCH_cc.json` (the `cc_compare` binary) against
//! the committed baselines at the repository root and exits nonzero when
//! any tracked metric regressed beyond the tolerance, or when one of the
//! eight files cannot be read (the message names it). Rows are matched by
//! key (engine name, host count, reroute variant, controller), so a
//! `--quick` probe that covers only a subset of the committed rows gates
//! exactly that subset.
//!
//! ```text
//! cargo run --release -p kmsg-bench --bin perf_gate -- \
//!     [--baseline-dir DIR] [--fresh-dir DIR] [--tolerance FRAC]
//! ```
//!
//! * `--baseline-dir` — directory holding the committed baselines
//!   (default `.`). CI copies them aside before `timing_probe` overwrites
//!   the working tree.
//! * `--fresh-dir` — directory holding the fresh probe output
//!   (default `.`).
//! * `--tolerance` — allowed relative slowdown as a fraction
//!   (default `0.5`, i.e. a metric may be up to 50% worse than the
//!   baseline before the gate trips — wall-clock rates on shared CI
//!   runners are noisy; the gate catches step-change regressions, not
//!   single-digit drift).
//!
//! Tracked metrics:
//!
//! * engine: `events_per_sec` per engine/workload row (higher is better);
//! * scale: `events_per_sec` per host-count row (higher is better),
//!   `bytes_per_flow` and `allocs_per_event` (both lower is better —
//!   allocation accounting is deterministic per seed, so a real increase
//!   always means a real regression);
//! * scale shape: inside the fresh file alone, set-up time per host and run
//!   time per event at the largest row against the 10³-host row — a cost
//!   that grows with the world cannot hide behind a faster runner;
//! * reroute: `gap_ms` per variant row (lower is better — virtual-time
//!   outage gaps, deterministic per seed);
//! * cc: `goodput_mbps` per controller row on the fixed lossy-WAN scenario
//!   (higher is better — virtual time again).

use std::process::ExitCode;

use kmsg_telemetry::json::Json;

/// One gated comparison: a labelled metric with its direction.
struct Check {
    label: String,
    baseline: f64,
    fresh: f64,
    /// `true` when larger values are better (throughput-style metrics).
    higher_is_better: bool,
}

impl Check {
    /// Relative change from the baseline (`0` where there is none to
    /// divide by).
    fn change(&self) -> f64 {
        if self.baseline == 0.0 {
            return 0.0;
        }
        (self.fresh - self.baseline) / self.baseline
    }

    /// Relative change in the "worse" direction (positive = regressed).
    fn regression(&self) -> f64 {
        if self.higher_is_better {
            -self.change()
        } else {
            self.change()
        }
    }
}

/// Reads one row file; the error names it.
fn load(dir: &str, file: &str) -> Result<Json, String> {
    let path = format!("{dir}/{file}");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))
}

fn num(doc: &Json, row: &Json, field: &str, what: &str) -> Option<f64> {
    let v = row.get(field).and_then(Json::as_f64);
    if v.is_none() {
        kmsg_telemetry::log_info!(
            "perf_gate: note: {what} row missing numeric '{field}' in {}",
            doc.get("benchmark")
                .and_then(Json::as_str)
                .unwrap_or("<unnamed>")
        );
    }
    v
}

/// One gated row file, `BENCH_<what>.json`: where its rows are, what names
/// a row, and which fields are compared (`true` = higher is better).
struct Gate {
    what: &'static str,
    rows: &'static str,
    key: &'static str,
    fields: &'static [(&'static str, bool)],
}

/// The four gates, in the order their rows print. `events_per_sec` is a
/// wall-clock rate; everything else is deterministic per seed — virtual-time
/// outage gaps and goodput, allocator accounting — so a move past the
/// tolerance there is a behaviour change, not runner noise. A row written
/// before a field existed lacks it and skips that check (`num` logs a note).
const GATES: [Gate; 4] = [
    Gate {
        what: "engine",
        rows: "engines",
        key: "name",
        fields: &[("events_per_sec", true)],
    },
    Gate {
        what: "scale",
        rows: "rows",
        key: "hosts",
        fields: &[("events_per_sec", true), ("bytes_per_flow", false), ("allocs_per_event", false)],
    },
    Gate {
        what: "reroute",
        rows: "rows",
        key: "name",
        fields: &[("gap_ms", false)],
    },
    Gate {
        what: "cc",
        rows: "rows",
        key: "name",
        fields: &[("goodput_mbps", true)],
    },
];

/// Pairs each baseline row with the fresh row of the same key and compares
/// the gate's fields. A row is labelled by its key: a name as it stands, a
/// number with the key's name (`1000-hosts`).
fn row_checks(gate: &Gate, baseline: &Json, fresh: &Json, out: &mut Vec<Check>) {
    let rows = |doc| Json::get(doc, gate.rows).and_then(Json::as_arr).unwrap_or(&[]);
    for b in rows(baseline) {
        let id = match b.get(gate.key) {
            Some(Json::Str(name)) => name.clone(),
            Some(Json::Num(n)) => format!("{n}-{}", gate.key),
            _ => continue,
        };
        let Some(f) = rows(fresh).iter().find(|r| r.get(gate.key) == b.get(gate.key)) else {
            kmsg_telemetry::log_info!(
                "perf_gate: note: {} '{id}' absent from fresh run",
                gate.what
            );
            continue;
        };
        for &(field, higher_is_better) in gate.fields {
            if let (Some(bv), Some(fv)) = (
                num(baseline, b, field, gate.what),
                num(fresh, f, field, gate.what),
            ) {
                out.push(Check {
                    label: format!("{}/{id}/{field}", gate.what),
                    baseline: bv,
                    fresh: fv,
                    higher_is_better,
                });
            }
        }
    }
}

/// Most a host may cost to set up, or an event to run, in the largest world
/// of one scale file relative to its 10³-host world. Both come from one run,
/// so the machine cancels. Twice the ×1.9 measured at 10⁵ hosts after PR 15;
/// the hash-collision chains it removed measured ×27 and ×13.
const SCALE_SHAPE_LIMIT: f64 = 4.0;

/// How many unit costs of `fresh` outgrew [`SCALE_SHAPE_LIMIT`].
fn scale_shape_failures(fresh: &Json) -> usize {
    let rows = fresh.get("rows").and_then(Json::as_arr).unwrap_or(&[]);
    let hosts = |r: &&Json| r.get("hosts").and_then(Json::as_u64);
    let reference = rows.iter().find(|r| hosts(r) == Some(1000));
    let (Some(reference), Some(largest)) = (reference, rows.iter().max_by_key(hosts)) else {
        return 0;
    };
    let mut failures = 0;
    for (cost, per) in [("setup_secs", "hosts"), ("run_secs", "events")] {
        let unit = |row| Some(num(fresh, row, cost, "scale")? / num(fresh, row, per, "scale")?);
        let (Some(small), Some(large)) = (unit(reference), unit(largest)) else {
            continue;
        };
        let bad = large > small * SCALE_SHAPE_LIMIT;
        failures += usize::from(bad);
        kmsg_telemetry::log_info!(
            "scale shape: {cost} per {per}, largest row vs 1000 hosts: x{:.2} of x{SCALE_SHAPE_LIMIT}  {}",
            large / small,
            if bad { "GREW" } else { "ok" }
        );
    }
    failures
}

/// Runs the four gates and the shape check and prints the table. `Ok` is
/// the number of metrics that regressed; `Err` names what could not be read.
fn run(baseline_dir: &str, fresh_dir: &str, tolerance: f64) -> Result<usize, String> {
    let mut checks = Vec::new();
    for gate in &GATES {
        let file = format!("BENCH_{}.json", gate.what);
        let (baseline, fresh) = (load(baseline_dir, &file)?, load(fresh_dir, &file)?);
        row_checks(gate, &baseline, &fresh, &mut checks);
    }
    if checks.is_empty() {
        return Err("no comparable rows between baseline and fresh output".to_string());
    }

    kmsg_telemetry::log_info!(
        "perf gate — tolerance {:.0}% ({} comparable metrics)\n",
        tolerance * 100.0,
        checks.len()
    );
    kmsg_telemetry::log_info!(
        "{:<36} {:>14} {:>14} {:>9}  verdict",
        "metric", "baseline", "fresh", "change"
    );
    kmsg_bench::rule(88);

    let mut regressed = 0usize;
    for c in &checks {
        let bad = c.regression() > tolerance;
        if bad {
            regressed += 1;
        }
        kmsg_telemetry::log_info!(
            "{:<36} {:>14.1} {:>14.1} {:>+8.1}%  {}",
            c.label,
            c.baseline,
            c.fresh,
            c.change() * 100.0,
            if bad { "REGRESSED" } else { "ok" }
        );
    }
    Ok(regressed + scale_shape_failures(&load(fresh_dir, "BENCH_scale.json")?))
}

fn main() -> ExitCode {
    let mut baseline_dir = ".".to_string();
    let mut fresh_dir = ".".to_string();
    let mut tolerance = 0.5_f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline-dir" => {
                baseline_dir = args.next().expect("--baseline-dir takes a directory");
            }
            "--fresh-dir" => {
                fresh_dir = args.next().expect("--fresh-dir takes a directory");
            }
            "--tolerance" => {
                tolerance = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--tolerance takes a fraction, e.g. 0.5");
            }
            other => panic!("perf_gate: unknown flag {other}"),
        }
    }
    assert!(
        tolerance >= 0.0 && tolerance.is_finite(),
        "--tolerance must be a non-negative fraction"
    );

    match run(&baseline_dir, &fresh_dir, tolerance) {
        Ok(0) => {
            kmsg_telemetry::log_info!("\nperf gate passed: no metric regressed beyond the tolerance");
            ExitCode::SUCCESS
        }
        Ok(regressed) => {
            kmsg_telemetry::log_info!(
                "\nperf gate FAILED: {regressed} metric(s) regressed beyond {:.0}%",
                tolerance * 100.0
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            kmsg_telemetry::log_info!("perf gate FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Label and verdict (at a 10 % tolerance) of every check the `what` gate
    /// makes between two documents.
    fn verdicts(what: &str, baseline: &str, fresh: &str) -> Vec<(String, bool)> {
        let baseline = Json::parse(baseline).expect("baseline parses");
        let fresh = Json::parse(fresh).expect("fresh parses");
        let mut checks = Vec::new();
        let gate = GATES.iter().find(|g| g.what == what).expect("a gate of that name");
        row_checks(gate, &baseline, &fresh, &mut checks);
        checks.iter().map(|c| (c.label.clone(), c.regression() > 0.1)).collect()
    }

    /// Rows `worse` and `better` move 20 % each way; `gone` is missing from
    /// the fresh side, `new` from the baseline, `bare` loses its field on one
    /// side: only the first two are compared, and only `worse` trips.
    #[test]
    fn name_keyed_gates_compare_matching_rows_in_their_direction() {
        for (what, rows, field, worse, better) in [
            ("engine", "engines", "events_per_sec", 80, 120),
            ("reroute", "rows", "gap_ms", 120, 80),
            ("cc", "rows", "goodput_mbps", 80, 120),
        ] {
            let baseline = format!(
                r#"{{"benchmark":"{what}","{rows}":[{{"name":"worse","{field}":100}},
                {{"name":"better","{field}":100}},{{"name":"gone","{field}":100}},
                {{"name":"bare","{field}":100}},{{"{field}":100}}]}}"#
            );
            let fresh = format!(
                r#"{{"{rows}":[{{"name":"better","{field}":{better}}},{{"name":"bare"}},
                {{"name":"new","{field}":1}},{{"name":"worse","{field}":{worse}}}]}}"#
            );
            assert_eq!(
                verdicts(what, &baseline, &fresh),
                [(format!("{what}/worse/{field}"), true), (format!("{what}/better/{field}"), false)]
            );
            // Read the other way round, the rows keep their names and trade
            // their fates; order follows the baseline document.
            assert_eq!(
                verdicts(what, &fresh, &baseline),
                [(format!("{what}/better/{field}"), true), (format!("{what}/worse/{field}"), false)]
            );
        }
    }

    #[test]
    fn scale_gate_keys_on_hosts_and_compares_three_fields() {
        let baseline = r#"{"benchmark":"scale","rows":[
            {"hosts":100,"events_per_sec":100,"bytes_per_flow":100,"allocs_per_event":1.0},
            {"hosts":1000,"events_per_sec":100,"bytes_per_flow":100},
            {"hosts":100000,"events_per_sec":100,"bytes_per_flow":100,"allocs_per_event":1.0}]}"#;
        let fresh = r#"{"rows":[
            {"hosts":1000,"events_per_sec":120,"bytes_per_flow":80,"allocs_per_event":0.5},
            {"hosts":10,"events_per_sec":1,"bytes_per_flow":1,"allocs_per_event":1},
            {"hosts":100,"events_per_sec":80,"bytes_per_flow":120,"allocs_per_event":1.2}]}"#;
        assert_eq!(
            verdicts("scale", baseline, fresh),
            [
                ("scale/100-hosts/events_per_sec".to_string(), true),
                ("scale/100-hosts/bytes_per_flow".to_string(), true),
                ("scale/100-hosts/allocs_per_event".to_string(), true),
                ("scale/1000-hosts/events_per_sec".to_string(), false),
                ("scale/1000-hosts/bytes_per_flow".to_string(), false),
            ]
        );
    }
}
