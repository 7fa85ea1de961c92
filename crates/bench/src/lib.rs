//! # kmsg-bench — the experiment harness
//!
//! Every figure and ablation of the paper's evaluation is a row of the
//! `paper_gate` binary (`cargo run --release -p kmsg-bench --bin
//! paper_gate -- fig1 fig8`; no row names runs them all), whose claims are
//! the predicates of [`paper`]. Shared table-printing and repetition
//! helpers live here. Micro-benchmark rows live in `timing_probe`
//! (`BENCH_engine.json`) and the per-layer catalogue of `benchmark/`.
//!
//! Common flags understood by the binaries:
//!
//! * `--size-mb N` — dataset size in MiB (default: the paper's 395);
//! * `--reps N` — maximum repetitions per data point (default 10);
//! * `--seed N` — root experiment seed (default 1);
//! * `--jobs N` — worker threads for sweep parallelism (default: all
//!   cores; `--jobs 1` reproduces the sequential runner exactly — see
//!   [`sweep`] for the byte-identity guarantee);
//! * `--quick` — shorthand for a small dataset and few reps (CI-speed;
//!   `paper_gate` refuses it);
//! * `--verbose` — raise the log level to `Debug` (extra diagnostics).

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![deny(unconditional_recursion)]

pub mod fig1_core;
pub mod fuzzer;
pub mod paper;
pub mod sweep;

use kmsg_telemetry::metrics::OnlineStats;

/// Parsed common command-line options.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Dataset size in bytes.
    pub size: usize,
    /// Maximum repetitions per point.
    pub reps: u32,
    /// Minimum repetitions before the RSE early-exit applies.
    pub min_reps: u32,
    /// Root seed.
    pub seed: u64,
    /// Worker threads for sweeps (`--jobs N`; default = available cores,
    /// `1` = fully sequential in the calling thread).
    pub jobs: usize,
    /// Quick mode (CI-scale).
    pub quick: bool,
    /// Verbose mode: `--verbose` raises logging to `Debug`.
    pub(crate) verbose: bool,
    /// `--trace-out FILE`: write the run's causal spans as a Chrome
    /// trace-event JSON file (open in Perfetto / `chrome://tracing`).
    pub trace_out: Option<String>,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            size: kmsg_apps::PAPER_DATASET_SIZE,
            reps: 10,
            min_reps: 5,
            seed: 1,
            jobs: sweep::default_jobs(),
            quick: false,
            verbose: false,
            trace_out: None,
        }
    }
}

impl BenchArgs {
    /// Parses `std::env::args` and applies the logging flags (so every
    /// binary honours `--verbose` without extra wiring).
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed flags and on positional
    /// arguments.
    #[must_use]
    pub fn parse() -> Self {
        let (out, names) = Self::parse_with_names();
        if let Some(name) = names.first() {
            panic!("unexpected argument {name}; see kmsg-bench docs");
        }
        out
    }

    /// [`BenchArgs::parse`] that also returns the positional arguments
    /// (`paper_gate`'s row names), in order.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed flags.
    #[must_use]
    pub fn parse_with_names() -> (Self, Vec<String>) {
        let mut out = BenchArgs::default();
        let mut names = Vec::new();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--size-mb" => {
                    let v: usize = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .expect("--size-mb takes a number");
                    out.size = v * 1024 * 1024;
                }
                "--reps" => {
                    out.reps = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .expect("--reps takes a number");
                    out.min_reps = out.min_reps.min(out.reps);
                }
                "--seed" => {
                    out.seed = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .expect("--seed takes a number");
                }
                "--jobs" => {
                    out.jobs = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .expect("--jobs takes a number");
                }
                "--quick" => {
                    out.quick = true;
                    out.size = 24 * 1024 * 1024;
                    out.reps = 3;
                    out.min_reps = 3;
                }
                "--verbose" => out.verbose = true,
                "--trace-out" => {
                    out.trace_out = Some(args.next().expect("--trace-out takes a file path"));
                }
                other if other.starts_with('-') => {
                    panic!("unknown flag {other}; see kmsg-bench docs")
                }
                name => names.push(name.to_string()),
            }
        }
        kmsg_telemetry::log::set_verbose(out.verbose);
        (out, names)
    }
}

/// Honours `--trace-out`: writes the recorder's events as a Chrome
/// trace-event JSON file (openable in Perfetto or `chrome://tracing`).
/// No-op when the flag was not given.
pub fn write_trace_out(args: &BenchArgs, rec: &kmsg_telemetry::Recorder) {
    let Some(path) = &args.trace_out else {
        return;
    };
    let trace = kmsg_telemetry::export::to_chrome_trace(&rec.events());
    std::fs::write(path, &trace).expect("write --trace-out file");
    kmsg_telemetry::log_info!("trace: wrote {} bytes to {path}", trace.len());
}

/// Repeats `run` (seeded per repetition) until the relative standard error
/// of the mean drops below 10% — the paper's stopping rule — with at least
/// `min_reps` and at most `max_reps` repetitions. Returns the accumulated
/// statistics.
pub fn repeat_until_stable(
    min_reps: u32,
    max_reps: u32,
    mut run: impl FnMut(u64) -> f64,
) -> OnlineStats {
    let mut stats = OnlineStats::new();
    for rep in 0..max_reps.max(1) {
        stats.push(run(u64::from(rep) + 1));
        if rep + 1 >= min_reps && stats.relative_stderr() < 0.10 {
            break;
        }
    }
    stats
}

/// Prints a horizontal rule sized to `width` (at `Info` level).
pub fn rule(width: usize) {
    kmsg_telemetry::log_info!("{}", "-".repeat(width));
}

/// Formats a `[-1, 1]` signed ratio.
#[must_use]
fn fmt_ratio(r: f64) -> String {
    format!("{r:+.2}")
}

/// Formats bytes/s as MB/s with two decimals.
#[must_use]
pub fn fmt_mbps(bps: f64) -> String {
    format!("{:.2}", bps / 1e6)
}

/// Shared environment for the learner experiments (Figures 2 and 4–6):
/// the §IV-B2 analysis link (100 MB/s, 10 ms delay) where plain TCP
/// reaches ~100 MB/s and UDT is capped near ~11 MB/s by its
/// receive-processing cost — so the optimal ratio is "very close to −1".
pub mod learner_env {
    use std::time::Duration;

    use kmsg_apps::{run_experiment, Dataset, ExperimentConfig, ExperimentResult, Setup};
    use kmsg_core::data::{
        DataNetworkConfig, PatternKind, PrpKind, PspKind, TdConfig, ValueBackend,
    };
    use kmsg_core::Transport;
    use kmsg_learning::{EpsilonGreedyConfig, SarsaConfig};
    use kmsg_netsim::rng::SeedSource;

    /// Runs a timed (never-completing) transfer on the analysis link and
    /// returns its full telemetry.
    #[must_use]
    pub fn run_timed(
        transport: Transport,
        data_cfg: Option<DataNetworkConfig>,
        secs: u64,
        seed: u64,
    ) -> ExperimentResult {
        // Large enough to outlast the run at link speed.
        let size = usize::try_from(secs).expect("secs fits") * 120 * 1024 * 1024;
        let dataset = Dataset::climate(size, seed);
        let mut cfg = ExperimentConfig::transfer(Setup::analysis_link(), transport, dataset, seed);
        cfg.use_disk = false;
        cfg.max_sim_time = Duration::from_secs(secs);
        if let Some(d) = data_cfg {
            cfg.data_cfg = d;
        }
        run_experiment(&cfg)
    }

    /// The TD learner configuration for a figure: value backend plus the
    /// figure's exploration schedule (Fig. 4 uses ε 0.8→0.1; Figs. 5 and 6
    /// use ε_max = 0.3).
    #[must_use]
    pub fn td_data_cfg(
        backend: ValueBackend,
        eps_max: f64,
        psp: PspKind,
        seed: u64,
    ) -> DataNetworkConfig {
        DataNetworkConfig {
            psp,
            prp: PrpKind::Td(TdConfig {
                backend,
                sarsa: SarsaConfig {
                    exploration: EpsilonGreedyConfig {
                        epsilon_max: eps_max,
                        epsilon_min: 0.1,
                        epsilon_decay: 0.01,
                    },
                    ..SarsaConfig::default()
                },
                ..TdConfig::default()
            }),
            seeds: SeedSource::new(seed),
            ..DataNetworkConfig::default()
        }
    }

    /// Prints the standard learner time-series table: per second, the
    /// receiver-observed throughput and true wire ratio, with TCP/UDT
    /// reference means in the header.
    pub fn print_learner_table(label: &str, result: &ExperimentResult, refs: (f64, f64)) {
        kmsg_telemetry::log_info!(
            "\n{label}  (references: TCP {} MB/s, UDT {} MB/s)",
            crate::fmt_mbps(refs.0),
            crate::fmt_mbps(refs.1)
        );
        kmsg_telemetry::log_info!(
            "{:>5} {:>14} {:>12} {:>12}",
            "t",
            "throughput",
            "target r",
            "wire r"
        );
        let mut flow = result.flow_points.iter().peekable();
        for s in &result.receiver_samples {
            // Align the flow point closest (<=) to this sample time.
            let mut target = f64::NAN;
            while let Some(p) = flow.peek() {
                if p.time <= s.time {
                    target = p.target_ratio;
                    flow.next();
                } else {
                    break;
                }
            }
            kmsg_telemetry::log_info!(
                "{:>4.0}s {:>11.2} MB/s {:>12} {:>12}",
                s.time.as_secs_f64(),
                s.throughput / 1e6,
                if target.is_nan() {
                    "-".to_string()
                } else {
                    crate::fmt_ratio(target)
                },
                s.wire_ratio().map_or("-".to_string(), crate::fmt_ratio),
            );
        }
    }

    /// A learner figure (4, 5 or 6), whole: the TCP and UDT reference runs,
    /// the traced run of `backend` exploring from `eps_max` with its
    /// per-second table under `label`, three more seeds' tails for context,
    /// and the paper's `expected` shape to read them against. The figures
    /// differ in exactly these arguments.
    pub fn figure(
        args: &crate::BenchArgs,
        title: &str,
        label: &str,
        backend: ValueBackend,
        eps_max: f64,
        expected: &str,
    ) {
        let secs = 120;
        kmsg_telemetry::log_info!("{title} ({secs} s, analysis link)");
        let tcp_ref = reference_throughput(Transport::Tcp, 20, args.seed);
        let udt_ref = reference_throughput(Transport::Udt, 20, args.seed);
        let run = |seed| {
            let psp = PspKind::Pattern(PatternKind::MinimalRest);
            run_timed(
                Transport::Data,
                Some(td_data_cfg(backend, eps_max, psp, seed)),
                secs,
                seed,
            )
        };
        print_learner_table(label, &run(args.seed), (tcp_ref, udt_ref));
        // Single traces are seed-noisy; summarise a few seeds for context.
        kmsg_telemetry::log_info!("\nmulti-seed tails (final quarter):");
        for seed in args.seed + 1..args.seed + 4 {
            let (thr, ratio) = crate::learner_summary::tail(&run(seed));
            kmsg_telemetry::log_info!(
                "  seed {seed}: mean tail throughput {} MB/s, mean tail ratio {}",
                crate::fmt_mbps(thr),
                crate::fmt_ratio(ratio)
            );
        }
        kmsg_telemetry::log_info!("\nExpected shape (paper): {expected}");
    }

    /// Mean receiver throughput of a reference (plain-transport) run,
    /// averaged over the tail half so slow start and early queue overshoot
    /// recovery do not bias the reference line.
    #[must_use]
    pub fn reference_throughput(transport: Transport, secs: u64, seed: u64) -> f64 {
        let secs = secs.max(40);
        let r = run_timed(transport, None, secs, seed);
        let tail: Vec<f64> = r
            .receiver_samples
            .iter()
            .skip(r.receiver_samples.len() / 2)
            .map(|s| s.throughput)
            .collect();
        if tail.is_empty() {
            0.0
        } else {
            tail.iter().sum::<f64>() / tail.len() as f64
        }
    }
}

/// Compact per-run summary for the learner figures: mean throughput and
/// mean target ratio over the final quarter of the run.
mod learner_summary {
    use kmsg_apps::ExperimentResult;

    /// `(mean tail throughput B/s, mean tail target ratio)`.
    #[must_use]
    pub(crate) fn tail(result: &ExperimentResult) -> (f64, f64) {
        let n = result.receiver_samples.len();
        let thr: Vec<f64> = result.receiver_samples[n - n / 4..]
            .iter()
            .map(|s| s.throughput)
            .collect();
        let m = result.flow_points.len();
        let ratio: Vec<f64> = result.flow_points[m - m / 4..]
            .iter()
            .map(|p| p.target_ratio)
            .collect();
        let mean = |v: &[f64]| {
            if v.is_empty() {
                f64::NAN
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        (mean(&thr), mean(&ratio))
    }
}

#[cfg(test)]
mod summary_tests {
    use kmsg_apps::{ExperimentResult, ReceiverSample};
    use kmsg_core::data::FlowPoint;
    use kmsg_core::MiddlewareStats;
    use kmsg_netsim::time::SimTime;

    #[test]
    fn learner_summary_uses_final_quarter() {
        let samples: Vec<ReceiverSample> = (0..8)
            .map(|i| ReceiverSample {
                time: SimTime::from_secs(i),
                throughput: if i < 6 { 1.0 } else { 100.0 },
                tcp_msgs: 1,
                udt_msgs: 0,
            })
            .collect();
        let flow_points: Vec<FlowPoint> = (0..8)
            .map(|i| FlowPoint {
                time: SimTime::from_secs(i),
                throughput: 0.0,
                target_ratio: if i < 6 { 0.0 } else { -1.0 },
                achieved_ratio: 0.0,
                messages: 1,
            })
            .collect();
        let result = ExperimentResult {
            transfer_time: None,
            throughput: None,
            verified: true,
            receiver_samples: samples,
            flow_points,
            ping: None,
            sender_net: MiddlewareStats::default(),
            receiver_net: MiddlewareStats::default(),
            duplicates: 0,
            out_of_order: 0,
            faults_applied: 0,
            events: 0,
            recorder: kmsg_telemetry::Recorder::new(),
        };
        let (thr, ratio) = crate::learner_summary::tail(&result);
        assert_eq!(thr, 100.0, "tail = last quarter only");
        assert_eq!(ratio, -1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_stops_when_stable() {
        let mut calls = 0;
        let stats = repeat_until_stable(3, 100, |_seed| {
            calls += 1;
            10.0 // zero variance: stable immediately after min reps
        });
        assert_eq!(calls, 3);
        assert_eq!(stats.count(), 3);
    }

    #[test]
    fn repeat_caps_at_max() {
        let mut x = 0.0;
        let stats = repeat_until_stable(2, 5, |_| {
            x += 100.0; // diverging: never stable
            x
        });
        assert_eq!(stats.count(), 5);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_ratio(-1.0), "-1.00");
        assert_eq!(fmt_mbps(10e6), "10.00");
    }
}
