//! **Fuzz** — seeded scenario fuzzing with protocol invariant oracles.
//!
//! For every seed in the range, a [`ScenarioSpec`] is generated
//! deterministically (topology, link shape, workload, healing fault
//! schedule), executed in the simulator with full telemetry, and the
//! recorded trace plus end-of-run facts are judged by the whole
//! `kmsg-oracle` suite. On a violation the scenario is shrunk to a minimal
//! spec that still trips the same rule, and the run writes replayable
//! artifacts — `failing_seed.json` (minimized + original spec + verdict)
//! and `failing_trace.jsonl` (the minimized run's flight-recorder stream) —
//! then exits nonzero so CI can upload them.
//!
//! ```text
//! cargo run --release -p kmsg-bench --bin fuzz -- \
//!     [--seeds A..B] [--jobs N] [--budget-secs N] [--out DIR] \
//!     [--selftest] [--replay failing_seed.json] [--quick] [--verbose]
//! ```
//!
//! * `--seeds A..B` — half-open seed range to fuzz (default `0..200`).
//! * `--jobs N` — worker threads sharding the seed range (default: all
//!   cores). Output is byte-identical to `--jobs 1`: every world is
//!   isolated and the first failing seed is resolved in submission
//!   order (see `kmsg_bench::sweep`).
//! * `--budget-secs N` — soft wall-clock budget: no new scenario starts
//!   after it expires (already-started runs finish; default unlimited).
//! * `--out DIR` — artifact directory (default `fuzz_artifacts`).
//! * `--selftest` — before fuzzing, run the first seed twice and fail
//!   unless trace and verdict are byte-identical.
//! * `--replay FILE` — run one scenario from an artifact (either a bare
//!   spec document or a `failing_seed.json`) instead of fuzzing.
//! * `--overlay-seeds A..B` — additionally sweep the mesh pub/sub overlay
//!   scenario family ([`OverlaySpec`]) over its own seed range after the
//!   chain sweep: gossip-maintained routing tables, scripted partitions
//!   and rerouting, judged by the same oracle suite (which then includes
//!   the overlay rules). Disabled by default.
//! * `--quick` — shorthand for `--seeds 0..25`.

use std::time::{Duration, Instant};

use kmsg_apps::fuzz::ScenarioSpec;
use kmsg_apps::OverlaySpec;
use kmsg_bench::fuzzer::{check_overlay_spec, check_spec, sweep_seeds};
use kmsg_oracle::{minimize, render_verdict, Violation};
use kmsg_telemetry::json::Json;

/// Parsed command line.
struct FuzzArgs {
    seed_from: u64,
    seed_to: u64,
    jobs: usize,
    budget_secs: Option<u64>,
    out_dir: String,
    selftest: bool,
    replay: Option<String>,
    overlay_seeds: Option<(u64, u64)>,
}

fn parse_args() -> FuzzArgs {
    let mut out = FuzzArgs {
        seed_from: 0,
        seed_to: 200,
        jobs: kmsg_bench::sweep::default_jobs(),
        budget_secs: None,
        out_dir: "fuzz_artifacts".to_string(),
        selftest: false,
        replay: None,
        overlay_seeds: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seeds" => {
                let v = args.next().expect("--seeds takes A..B");
                let (a, b) = v.split_once("..").expect("--seeds takes A..B");
                out.seed_from = a.parse().expect("--seeds lower bound");
                out.seed_to = b.parse().expect("--seeds upper bound");
                assert!(out.seed_to > out.seed_from, "--seeds range is empty");
            }
            "--jobs" => {
                out.jobs = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--jobs takes a number");
            }
            "--budget-secs" => {
                out.budget_secs = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .expect("--budget-secs takes a number"),
                );
            }
            "--overlay-seeds" => {
                let v = args.next().expect("--overlay-seeds takes A..B");
                let (a, b) = v.split_once("..").expect("--overlay-seeds takes A..B");
                let from = a.parse().expect("--overlay-seeds lower bound");
                let to = b.parse().expect("--overlay-seeds upper bound");
                assert!(to > from, "--overlay-seeds range is empty");
                out.overlay_seeds = Some((from, to));
            }
            "--out" => out.out_dir = args.next().expect("--out takes a directory"),
            "--selftest" => out.selftest = true,
            "--replay" => out.replay = Some(args.next().expect("--replay takes a file")),
            "--quick" => {
                out.seed_from = 0;
                out.seed_to = 25;
            }
            "--verbose" => kmsg_telemetry::log::set_verbose(true),
            other => panic!("unknown flag {other}; see the fuzz binary docs"),
        }
    }
    out
}

/// Whether a spec still trips the rule that made the original run fail.
fn still_fails(spec: &ScenarioSpec, oracle: &str, rule: &str) -> bool {
    check_spec(spec)
        .1
        .iter()
        .any(|v| v.oracle == oracle && v.rule == rule)
}

/// Shrinks a failing spec and writes the replayable artifacts. Returns the
/// rendered `failing_seed.json` document.
fn minimize_and_write(
    original: &ScenarioSpec,
    violations: &[Violation],
    out_dir: &str,
) -> String {
    let first = violations.first().expect("at least one violation");
    let (oracle, rule) = (first.oracle, first.rule);
    kmsg_telemetry::log_info!(
        "seed {}: minimizing against [{oracle}/{rule}] …",
        original.seed
    );
    let (minimized, tested) =
        minimize(original.clone(), |s| still_fails(s, oracle, rule));
    kmsg_telemetry::log_info!(
        "minimized after {tested} candidate runs: complexity {} -> {}",
        kmsg_oracle::Shrinkable::complexity(original),
        kmsg_oracle::Shrinkable::complexity(&minimized)
    );
    let (run, min_violations) = check_spec(&minimized);
    let doc = Json::obj(vec![
        ("spec", minimized.to_json()),
        ("original", original.to_json()),
        ("oracle", Json::Str(oracle.to_string())),
        ("rule", Json::Str(rule.to_string())),
        ("verdict", Json::Str(render_verdict(&min_violations))),
    ]);
    let rendered = doc.render();
    std::fs::create_dir_all(out_dir).expect("create artifact directory");
    let seed_path = format!("{out_dir}/failing_seed.json");
    let trace_path = format!("{out_dir}/failing_trace.jsonl");
    std::fs::write(&seed_path, &rendered).expect("write failing_seed.json");
    std::fs::write(&trace_path, run.result.recorder.to_jsonl())
        .expect("write failing_trace.jsonl");
    kmsg_telemetry::log_info!("wrote {seed_path} and {trace_path}");
    rendered
}

/// Loads a spec from an artifact file: a bare spec document or a
/// `failing_seed.json` wrapper (its `spec` field wins).
fn load_replay(path: &str) -> ScenarioSpec {
    let text = std::fs::read_to_string(path).expect("read replay artifact");
    let doc = Json::parse(&text).expect("parse replay artifact");
    let spec_doc = doc.get("spec").unwrap_or(&doc);
    ScenarioSpec::from_json(spec_doc).expect("decode replay spec")
}

fn selftest(seed: u64) {
    let spec = ScenarioSpec::generate(seed);
    let run_once = || {
        let (run, violations) = check_spec(&spec);
        (run.result.recorder.to_jsonl(), render_verdict(&violations))
    };
    let (jsonl_a, verdict_a) = run_once();
    let (jsonl_b, verdict_b) = run_once();
    assert!(
        jsonl_a == jsonl_b,
        "selftest: same-seed traces diverged (seed {seed})"
    );
    assert_eq!(
        verdict_a, verdict_b,
        "selftest: same-seed verdicts diverged (seed {seed})"
    );
    kmsg_telemetry::log_info!(
        "selftest: seed {seed} byte-identical across two runs ({} trace bytes)",
        jsonl_a.len()
    );
}

fn main() {
    let args = parse_args();

    if let Some(path) = &args.replay {
        let spec = load_replay(path);
        kmsg_telemetry::log_info!("replaying {path} (seed {})", spec.seed);
        let (_, violations) = check_spec(&spec);
        kmsg_telemetry::log_info!("{}", render_verdict(&violations).trim_end());
        if !violations.is_empty() {
            // Reproduced the recorded failure: exit nonzero like the
            // original fuzz run did.
            std::process::exit(1);
        }
        return;
    }

    if args.selftest {
        selftest(args.seed_from);
    }

    let started = Instant::now();
    let deadline = args
        .budget_secs
        .map(|secs| started + Duration::from_secs(secs));
    let outcome = sweep_seeds(args.seed_from, args.seed_to, args.jobs, deadline, |seed| {
        let spec = ScenarioSpec::generate(seed);
        let violations = check_spec(&spec).1;
        (!violations.is_empty()).then_some((spec, violations))
    });
    if outcome.budget_hit {
        kmsg_telemetry::log_info!(
            "budget of {}s exhausted after {} scenarios; stopping early",
            args.budget_secs.unwrap_or(0),
            outcome.ran
        );
    }
    if let Some((seed, (spec, violations))) = outcome.failure {
        kmsg_telemetry::log_info!(
            "seed {seed} VIOLATES {} invariant(s):\n{}",
            violations.len(),
            render_verdict(&violations).trim_end()
        );
        minimize_and_write(&spec, &violations, &args.out_dir);
        std::process::exit(1);
    }
    kmsg_telemetry::log_info!(
        "fuzz: {}/{} scenarios oracle-clean in {:.1}s (seeds {}..{})",
        outcome.clean,
        outcome.ran,
        started.elapsed().as_secs_f64(),
        args.seed_from,
        args.seed_from + outcome.ran
    );

    if let Some((from, to)) = args.overlay_seeds {
        let overlay_started = Instant::now();
        let outcome = sweep_seeds(from, to, args.jobs, deadline, |seed| {
            let spec = OverlaySpec::generate(seed);
            let violations = check_overlay_spec(&spec).1;
            (!violations.is_empty()).then_some((spec, violations))
        });
        if outcome.budget_hit {
            kmsg_telemetry::log_info!(
                "budget exhausted after {} overlay scenarios; stopping early",
                outcome.ran
            );
        }
        if let Some((seed, (spec, violations))) = outcome.failure {
            kmsg_telemetry::log_info!(
                "overlay seed {seed} VIOLATES {} invariant(s):\n{}",
                violations.len(),
                render_verdict(&violations).trim_end()
            );
            // Overlay specs replay from the seed alone, so the artifact
            // records the seed, verdict and trace rather than a shrunk
            // spec document.
            let (report, _) = check_overlay_spec(&spec);
            std::fs::create_dir_all(&args.out_dir).expect("create artifact directory");
            let doc = Json::obj(vec![
                ("overlay_seed", Json::Num(seed as f64)),
                ("verdict", Json::Str(render_verdict(&violations))),
                ("report", Json::Str(report.render())),
            ]);
            let seed_path = format!("{}/overlay_failing_seed.json", args.out_dir);
            let trace_path = format!("{}/overlay_failing_trace.jsonl", args.out_dir);
            std::fs::write(&seed_path, doc.render()).expect("write overlay_failing_seed.json");
            std::fs::write(&trace_path, report.recorder.to_jsonl())
                .expect("write overlay_failing_trace.jsonl");
            kmsg_telemetry::log_info!("wrote {seed_path} and {trace_path}");
            std::process::exit(1);
        }
        kmsg_telemetry::log_info!(
            "fuzz: {}/{} overlay scenarios oracle-clean in {:.1}s (seeds {}..{})",
            outcome.clean,
            outcome.ran,
            overlay_started.elapsed().as_secs_f64(),
            from,
            from + outcome.ran
        );
    }
}
