//! The repo's benchmark: one command runs a named workload, prints every
//! metric by name and unit, checks that the outputs are correct and ends
//! with one JSON line for the driver. README.md is the manual.
//!
//! ```text
//! kmsg-benchmark --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! kmsg-benchmark --selfcheck
//! kmsg-benchmark --agree [--quick]
//! ```

mod alloc;
mod catalog;
mod clock;
mod ledger;
mod probes;
mod report;
mod spans;
mod stats;
mod twin;
mod workloads;

use std::process::ExitCode;

use catalog::{Better, Clock, ALLOCATOR_SLACK, END_TO_END, PER_LAYER};
use report::{fmt_num, LayerInputs, Value};
use workloads::{sizes, Rep, RepSpec, Workload, TIMED_REPS};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Size of a `--quick` run, relative to full size.
const QUICK_SCALE: f64 = 0.1;
/// Size of the `--selfcheck` repetitions.
const SELFCHECK_SCALE: f64 = 0.05;

#[derive(Debug, Clone, PartialEq)]
enum Mode {
    Run(Vec<Workload>),
    SelfCheck,
    Agree,
    EmitBenchmarkJson,
}

#[derive(Debug, Clone)]
struct Args {
    mode: Mode,
    seed: u64,
    seconds: u64,
    /// `Some(false)`: end-to-end only; `Some(true)`: per-layer only;
    /// `None`: both.
    trace: Option<bool>,
    quick: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            mode: Mode::Run(Vec::new()),
            seed: 1,
            seconds: sizes::DEFAULT_SECONDS,
            trace: None,
            quick: false,
        };
        let mut it = argv.iter();
        let number = |flag: &str, v: Option<&String>| -> Result<u64, String> {
            v.ok_or(format!("{flag} needs a value"))?
                .parse()
                .map_err(|_| format!("{flag} needs a whole number"))
        };
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--workload" => {
                    let name = it.next().ok_or("--workload needs a name")?;
                    args.mode = Mode::Run(if name == "all" {
                        Workload::ALL.to_vec()
                    } else {
                        vec![Workload::from_name(name).ok_or(format!(
                            "unknown workload {name}; one of rpc_small, bulk_vpc, adaptive_wan, fanin_10k, all"
                        ))?]
                    });
                }
                "--seed" => args.seed = number(flag, it.next())?,
                "--seconds" => args.seconds = number(flag, it.next())?.clamp(1, 60),
                "--trace" => {
                    args.trace = Some(match number(flag, it.next())? {
                        0 => false,
                        1 => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    });
                }
                "--quick" => args.quick = true,
                "--selfcheck" => args.mode = Mode::SelfCheck,
                "--agree" => args.mode = Mode::Agree,
                "--emit-benchmark-json" => args.mode = Mode::EmitBenchmarkJson,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if args.mode == Mode::Run(Vec::new()) {
            return Err("nothing to do: pass --workload <name|all>, --selfcheck or --agree".into());
        }
        Ok(args)
    }

    /// Size multiplier on the frozen counts.
    fn scale(&self) -> f64 {
        self.seconds as f64 / sizes::DEFAULT_SECONDS as f64
            * if self.quick { QUICK_SCALE } else { 1.0 }
    }

    /// The spec of repetition slot `slot` at `scale`. `--seed` seeds the
    /// inputs only; slot `i` always runs world `1 + i` (see [`RepSpec`]).
    fn spec(&self, slot: u64, scale: f64, traced: bool) -> RepSpec {
        RepSpec {
            world_seed: 1 + slot,
            input_seed: self.seed + slot,
            scale,
            traced,
        }
    }
}

/// What one workload's run produced.
#[derive(Default)]
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    end_to_end: Vec<(&'static str, Value)>,
    per_layer: Vec<(&'static str, Value)>,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

fn rep_ok(rep: &Rep) -> bool {
    rep.verified && rep.failed == 0
}

fn print_rep(label: &str, rep: &Rep) {
    println!(
        "  {label:<10} msgs {:>8}  failed {}  verified {}  setup {:.3} s  timed {:.3} s wall / {:.3} s cpu  sim {:.3} s  fingerprint {:016x}",
        rep.msgs(),
        rep.failed,
        rep.verified,
        rep.setup_cpu_s,
        rep.timed_wall_s,
        rep.timed_cpu_s,
        rep.sim_span_ns as f64 / 1e9,
        rep.fingerprint
    );
}

fn print_values(title: &str, values: &[(&'static str, Value)], extra: impl Fn(&str) -> String) {
    println!("\n{title}");
    println!(
        "  {:<40} {:<7} {:>14} {:>14} {:>14} {:>3}  note",
        "metric", "unit", "q1", "median", "q3", "n"
    );
    for (name, v) in values {
        println!(
            "  {:<40} {:<7} {:>14} {:>14} {:>14} {:>3}  {}",
            name,
            unit_of(name),
            fmt_num(v.q1),
            fmt_num(v.median),
            fmt_num(v.q3),
            v.n,
            extra(name)
        );
    }
}

/// Where artifacts go: `benchmark/out` from the repo root, `out` from
/// inside the package.
fn out_dir() -> std::path::PathBuf {
    if std::path::Path::new("benchmark/Cargo.toml").is_file() {
        "benchmark/out".into()
    } else {
        "out".into()
    }
}

fn run_workload(w: Workload, args: &Args) -> Outcome {
    let scale = args.scale();
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    println!(
        "== {} ==  seed {}  size x{:.3}  ({})",
        w.name(),
        args.seed,
        scale,
        catalog::why(w)
    );

    // A twin-size untraced repetition warms the process up in both modes.
    let small_scale = scale / w.twin_divisor();
    let warmup = w.run(&args.spec(0, small_scale, false));
    print_rep("warm-up", &warmup);
    out.correct &= rep_ok(&warmup);

    let mut timed = Vec::new();
    if args.trace != Some(true) {
        for slot in 0..TIMED_REPS {
            let rep = w.run(&args.spec(slot, scale, false));
            print_rep(&format!("timed {}", slot + 1), &rep);
            out.correct &= rep_ok(&rep);
            out.attempted += rep.attempted;
            out.failed += rep.failed;
            timed.push(rep);
        }
        out.end_to_end = report::end_to_end(&timed);
        let (_, beyond) = stats::tail_quantile(timed[0].latencies_ns.len());
        print_values(
            "end-to-end (a run reports the median over its timed repetitions)",
            &out.end_to_end,
            |name| {
                let m = END_TO_END
                    .iter()
                    .find(|m| m.name == name)
                    .expect("catalogued");
                let tail = if name == "sim_lat_p99_ms" {
                    format!(
                        ", {} latency samples, {beyond} beyond",
                        timed[0].latencies_ns.len()
                    )
                } else {
                    String::new()
                };
                format!(
                    "{}; {} is better, bound {}{tail}",
                    m.clock.label(),
                    m.better.label(),
                    m.bound
                )
            },
        );
    }

    if args.trace != Some(false) {
        let counted;
        let full = match timed.first() {
            Some(rep) => rep,
            None => {
                counted = w.run(&args.spec(0, scale, false));
                print_rep("counted", &counted);
                out.correct &= rep_ok(&counted);
                out.attempted += counted.attempted;
                out.failed += counted.failed;
                &counted
            }
        };
        spans::set_enabled(true);
        let probes = probes::run(w, args.seed);
        // What the twin is compared with runs right before it: the machine's
        // speed drifts over the seconds the probes take.
        let small = w.run(&args.spec(0, small_scale, false));
        print_rep("untraced", &small);
        out.correct &= rep_ok(&small) && small.fingerprint == warmup.fingerprint;
        let twin = {
            let _s = spans::open("twin", 0);
            w.run(&args.spec(0, small_scale, true))
        };
        spans::set_enabled(false);
        print_rep("twin", &twin);
        out.correct &= rep_ok(&twin);
        if twin.fingerprint != small.fingerprint {
            println!("  !! the traced twin's fingerprint differs from the untraced run's: the recorder changed the simulation");
            out.correct = false;
        }
        let (values, ledger) = report::per_layer(&LayerInputs {
            workload: w,
            full,
            probes: &probes,
            small: &small,
            twin: &twin,
        });
        print_values(
            "per-layer (probe / count / twin / ledger)",
            &values,
            |name| {
                let m = PER_LAYER
                    .iter()
                    .find(|m| m.name == name)
                    .expect("catalogued");
                format!("{}; moves {}", m.source.label(), m.moves)
            },
        );
        println!(
            "\nledger: share of the timed phase's CPU ({:.3} us per message)",
            full.timed_cpu_s * 1e6 / full.msgs().max(1) as f64
        );
        for (layer, share) in &ledger.shares {
            println!("  {layer:<16} {:>8.4}", share);
        }
        println!(
            "  {:<16} {:>8.4}",
            "unattributed", ledger.unattributed_share
        );
        out.per_layer = values;

        let recorded = spans::drain();
        let dir = out_dir();
        let path = dir.join(format!("{}.spans.json", w.name()));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, spans::to_json(w.name(), args.seed, &recorded)));
        match written {
            Ok(()) => println!(
                "\nwrote {} host-time spans to {}",
                recorded.len(),
                path.display()
            ),
            Err(e) => {
                println!("\n!! could not write {}: {e}", path.display());
                out.correct = false;
            }
        }
    }
    out.correct &= out.failed == 0 && out.attempted > 0;
    out
}

fn print_json(o: &Outcome) {
    let metrics: Vec<_> = o.end_to_end.iter().chain(&o.per_layer).copied().collect();
    println!(
        "{}",
        report::json_line(o.correct, o.attempted, o.failed, &metrics, unit_of)
    );
}

/// `--selfcheck`: small, twice untraced and once traced on one seed.
fn selfcheck(args: &Args) -> bool {
    let mut ok = true;
    let mut check = |what: String, holds: bool| {
        println!("  [{}] {what}", if holds { "ok" } else { "FAIL" });
        ok &= holds;
    };
    for w in Workload::ALL {
        println!("== selfcheck {} ==", w.name());
        let a = w.run(&args.spec(0, SELFCHECK_SCALE, false));
        let b = w.run(&args.spec(0, SELFCHECK_SCALE, false));
        spans::set_enabled(true);
        let t = w.run(&args.spec(0, SELFCHECK_SCALE, true));
        spans::set_enabled(false);
        drop(spans::drain());
        let tw = t.twin.clone().unwrap_or_default();
        check(
            format!("nothing failed ({} messages)", a.msgs()),
            rep_ok(&a) && rep_ok(&b) && rep_ok(&t),
        );
        check(
            "same seed, same fingerprint".into(),
            a.fingerprint == b.fingerprint,
        );
        check(
            "the recorder changed nothing".into(),
            a.fingerprint == t.fingerprint,
        );
        check(
            format!(
                "allocations repeat ({} and {} in the timed phase)",
                a.allocs, b.allocs
            ),
            a.allocs.abs_diff(b.allocs) as f64 <= 2.0 + ALLOCATOR_SLACK * a.allocs as f64,
        );
        check(
            "counts repeat exactly".into(),
            a.net == b.net
                && a.mw == b.mw
                && a.tcp == b.tcp
                && a.data == b.data
                && a.attempted == b.attempted,
        );
        check("recorder evicted nothing".into(), tw.evicted == 0);
        if w != Workload::AdaptiveWan {
            check("netsim.udt is bypassed".into(), tw.udt_packets == 0);
        } else {
            check("netsim.udt carries traffic".into(), tw.udt_data_packets > 0);
        }
        if w.uses_middleware() {
            check(
                "component and core.net run".into(),
                tw.component_events > 0 && a.mw.is_some_and(|m| m.sent > 0),
            );
        } else {
            check(
                "component and core.* are bypassed".into(),
                tw.component_events == 0 && a.mw.is_none(),
            );
        }
        let random_drops = a.net.drops_loss + a.net.drops_policer + a.net.drops_other;
        match w {
            Workload::RpcSmall => check(
                "loss-free, queue-free path: no drops, no recovery".into(),
                random_drops + a.net.drops_queue == 0
                    && tw.tcp == workloads::TcpRecovery::default(),
            ),
            // Slow start overshoots the VPC link's one-BDP queue once per
            // transfer, so queue drops (and their fast recovery) do occur.
            Workload::BulkVpc => check(
                format!(
                    "loss-free path: no random or policer drops ({} queue drops)",
                    a.net.drops_queue
                ),
                random_drops == 0 && tw.tcp.timeouts == 0,
            ),
            Workload::AdaptiveWan | Workload::Fanin10k => {}
        }
    }
    ok
}

/// `--agree`: the full set twice back to back, both medians side by side.
/// Host times must agree within their bound, simulated figures and counts
/// exactly, allocator figures within [`ALLOCATOR_SLACK`].
fn agree(args: &Args) -> bool {
    let e2e_only = Args {
        trace: Some(false),
        ..args.clone()
    };
    let mut ok = true;
    let mut rows = Vec::new();
    for w in Workload::ALL {
        let first = run_workload(w, &e2e_only);
        let second = run_workload(w, &e2e_only);
        ok &= first.correct && second.correct;
        for ((name, a), (_, b)) in first.end_to_end.iter().zip(&second.end_to_end) {
            let m = END_TO_END
                .iter()
                .find(|m| m.name == *name)
                .expect("catalogued");
            let rel = if a.median == 0.0 {
                0.0
            } else {
                (b.median - a.median) / a.median
            };
            let worse = match m.better {
                Better::Lower => rel,
                Better::Higher => -rel,
            };
            let (allowed, within) = match m.clock {
                Clock::HostCpu | Clock::HostWall => (m.bound, worse <= m.bound),
                Clock::Simulated | Clock::Count => (0.0, a.median == b.median),
                Clock::Allocator => (ALLOCATOR_SLACK, rel.abs() <= ALLOCATOR_SLACK),
            };
            rows.push((w.name(), *name, a.median, b.median, rel, allowed, within));
        }
    }
    println!("\n== agreement of two back-to-back sets ==");
    println!(
        "  {:<13} {:<28} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "rel diff", "allowed"
    );
    for (w, name, a, b, rel, allowed, within) in rows {
        println!(
            "  {w:<13} {name:<28} {:>14} {:>14} {:>+9.4} {allowed:>7} {}",
            fmt_num(a),
            fmt_num(b),
            rel,
            if within { "" } else { "BREACH" }
        );
        ok &= within;
    }
    ok
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kmsg-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match &args.mode {
        Mode::Run(list) => {
            let mut ok = true;
            for &w in list {
                let outcome = run_workload(w, &args);
                ok &= outcome.correct;
                print_json(&outcome);
            }
            ok
        }
        Mode::SelfCheck => selfcheck(&args),
        Mode::Agree => agree(&args),
        Mode::EmitBenchmarkJson => {
            print!("{}", catalog::benchmark_json());
            true
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
