//! **perf_gate** — CI guard against engine performance regressions.
//!
//! Compares a freshly produced `BENCH_engine.json` / `BENCH_scale.json`
//! (written by the `timing_probe` binary) and `BENCH_reroute.json`
//! (written by the `reroute` binary) against the committed baselines
//! at the repository root and exits nonzero when any tracked metric
//! regressed beyond the tolerance. Rows are matched by key (engine name,
//! host count, reroute variant), so a `--quick` probe that covers only a
//! subset of the committed rows gates exactly that subset.
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
//!   outage gaps, deterministic per seed).

use std::process::ExitCode;

use kmsg_oracle::Json;

/// One gated comparison: a labelled metric with its direction.
struct Check {
    label: String,
    baseline: f64,
    fresh: f64,
    /// `true` when larger values are better (throughput-style metrics).
    higher_is_better: bool,
}

impl Check {
    /// Relative change in the "worse" direction (positive = regressed).
    fn regression(&self) -> f64 {
        if self.baseline == 0.0 {
            return 0.0;
        }
        let delta = (self.fresh - self.baseline) / self.baseline;
        if self.higher_is_better {
            -delta
        } else {
            delta
        }
    }
}

fn load(dir: &str, file: &str) -> Json {
    let path = format!("{dir}/{file}");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("perf_gate: cannot read {path}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("perf_gate: {path} is not valid JSON: {e}"))
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

/// Engine probe: rows keyed by `name`, gated on `events_per_sec`.
fn engine_checks(baseline: &Json, fresh: &Json, out: &mut Vec<Check>) {
    let base_rows = baseline.get("engines").and_then(Json::as_arr).unwrap_or(&[]);
    let fresh_rows = fresh.get("engines").and_then(Json::as_arr).unwrap_or(&[]);
    for b in base_rows {
        let Some(name) = b.get("name").and_then(Json::as_str) else {
            continue;
        };
        let Some(f) = fresh_rows
            .iter()
            .find(|r| r.get("name").and_then(Json::as_str) == Some(name))
        else {
            kmsg_telemetry::log_info!("perf_gate: note: engine '{name}' absent from fresh run");
            continue;
        };
        if let (Some(bv), Some(fv)) = (
            num(baseline, b, "events_per_sec", "engine"),
            num(fresh, f, "events_per_sec", "engine"),
        ) {
            out.push(Check {
                label: format!("engine/{name}/events_per_sec"),
                baseline: bv,
                fresh: fv,
                higher_is_better: true,
            });
        }
    }
}

/// Reroute bench: rows keyed by `name`, gated on `gap_ms` (lower is
/// better). Outage gaps are virtual-time and deterministic per seed, so
/// any change past the tolerance is a genuine behaviour change in
/// overlay rerouting or channel supervision, not runner noise.
fn reroute_checks(baseline: &Json, fresh: &Json, out: &mut Vec<Check>) {
    let base_rows = baseline.get("rows").and_then(Json::as_arr).unwrap_or(&[]);
    let fresh_rows = fresh.get("rows").and_then(Json::as_arr).unwrap_or(&[]);
    for b in base_rows {
        let Some(name) = b.get("name").and_then(Json::as_str) else {
            continue;
        };
        let Some(f) = fresh_rows
            .iter()
            .find(|r| r.get("name").and_then(Json::as_str) == Some(name))
        else {
            kmsg_telemetry::log_info!("perf_gate: note: reroute '{name}' absent from fresh run");
            continue;
        };
        if let (Some(bv), Some(fv)) = (
            num(baseline, b, "gap_ms", "reroute"),
            num(fresh, f, "gap_ms", "reroute"),
        ) {
            out.push(Check {
                label: format!("reroute/{name}/gap_ms"),
                baseline: bv,
                fresh: fv,
                higher_is_better: false,
            });
        }
    }
}

/// Congestion-controller comparison: rows keyed by `name` (controller
/// label), gated on `goodput_mbps` (higher is better). Goodput on the
/// fixed lossy-WAN scenario is virtual-time and deterministic per seed,
/// so a drop past tolerance is a genuine controller behaviour change.
fn cc_checks(baseline: &Json, fresh: &Json, out: &mut Vec<Check>) {
    let base_rows = baseline.get("rows").and_then(Json::as_arr).unwrap_or(&[]);
    let fresh_rows = fresh.get("rows").and_then(Json::as_arr).unwrap_or(&[]);
    for b in base_rows {
        let Some(name) = b.get("name").and_then(Json::as_str) else {
            continue;
        };
        let Some(f) = fresh_rows
            .iter()
            .find(|r| r.get("name").and_then(Json::as_str) == Some(name))
        else {
            kmsg_telemetry::log_info!("perf_gate: note: cc '{name}' absent from fresh run");
            continue;
        };
        if let (Some(bv), Some(fv)) = (
            num(baseline, b, "goodput_mbps", "cc"),
            num(fresh, f, "goodput_mbps", "cc"),
        ) {
            out.push(Check {
                label: format!("cc/{name}/goodput_mbps"),
                baseline: bv,
                fresh: fv,
                higher_is_better: true,
            });
        }
    }
}

/// Scale probe: rows keyed by `hosts`, gated on `events_per_sec`,
/// `bytes_per_flow` and `allocs_per_event`. Rows written before the
/// allocator counters existed simply lack the field and skip that check
/// (the `num` helper logs a note).
fn scale_checks(baseline: &Json, fresh: &Json, out: &mut Vec<Check>) {
    let base_rows = baseline.get("rows").and_then(Json::as_arr).unwrap_or(&[]);
    let fresh_rows = fresh.get("rows").and_then(Json::as_arr).unwrap_or(&[]);
    for b in base_rows {
        let Some(hosts) = b.get("hosts").and_then(Json::as_u64) else {
            continue;
        };
        let Some(f) = fresh_rows
            .iter()
            .find(|r| r.get("hosts").and_then(Json::as_u64) == Some(hosts))
        else {
            kmsg_telemetry::log_info!(
                "perf_gate: note: {hosts}-host row absent from fresh run (quick probe)"
            );
            continue;
        };
        for (field, higher_is_better) in [
            ("events_per_sec", true),
            ("bytes_per_flow", false),
            ("allocs_per_event", false),
        ] {
            if let (Some(bv), Some(fv)) = (
                num(baseline, b, field, "scale"),
                num(fresh, f, field, "scale"),
            ) {
                out.push(Check {
                    label: format!("scale/{hosts}-hosts/{field}"),
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

    let mut checks = Vec::new();
    engine_checks(
        &load(&baseline_dir, "BENCH_engine.json"),
        &load(&fresh_dir, "BENCH_engine.json"),
        &mut checks,
    );
    let fresh_scale = load(&fresh_dir, "BENCH_scale.json");
    scale_checks(
        &load(&baseline_dir, "BENCH_scale.json"),
        &fresh_scale,
        &mut checks,
    );
    reroute_checks(
        &load(&baseline_dir, "BENCH_reroute.json"),
        &load(&fresh_dir, "BENCH_reroute.json"),
        &mut checks,
    );
    cc_checks(
        &load(&baseline_dir, "BENCH_cc.json"),
        &load(&fresh_dir, "BENCH_cc.json"),
        &mut checks,
    );
    assert!(
        !checks.is_empty(),
        "perf_gate: no comparable rows between baseline and fresh output"
    );

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
        let delta = if c.baseline == 0.0 {
            0.0
        } else {
            (c.fresh - c.baseline) / c.baseline
        };
        let bad = c.regression() > tolerance;
        if bad {
            regressed += 1;
        }
        kmsg_telemetry::log_info!(
            "{:<36} {:>14.1} {:>14.1} {:>+8.1}%  {}",
            c.label,
            c.baseline,
            c.fresh,
            delta * 100.0,
            if bad { "REGRESSED" } else { "ok" }
        );
    }
    regressed += scale_shape_failures(&fresh_scale);

    if regressed > 0 {
        kmsg_telemetry::log_info!(
            "\nperf gate FAILED: {regressed} metric(s) regressed beyond {:.0}%",
            tolerance * 100.0
        );
        return ExitCode::FAILURE;
    }
    kmsg_telemetry::log_info!("\nperf gate passed: no metric regressed beyond the tolerance");
    ExitCode::SUCCESS
}
