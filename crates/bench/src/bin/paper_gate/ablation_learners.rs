//! **Ablation C** — control-algorithm and trace-style choices beyond the
//! paper: on-policy Sarsa(λ) (the paper's algorithm) vs off-policy
//! Watkins Q(λ), and replacing vs accumulating eligibility traces, on a
//! synthetic quadratic reward environment (the paper's assumed shape).
//!
//! Reported: mean |final position − peak| over seeds (lower is better)
//! and the mean number of episodes until first reaching the peak state.
//! The 6 variants × 16 seeds are 96 independent learner worlds. Not
//! gated yet.

use kmsg_core::data::ValueBackend;
use kmsg_learning::prelude::*;
use rand::SeedableRng;

use crate::RowOutput;

const EPISODES: usize = 150;
const SEEDS: u64 = 16;

fn reward(space: RatioSpace, s: StateIdx, peak: f64) -> f64 {
    let x = space.state_value(s);
    (1.0 - (x - peak) * (x - peak) / 4.0).max(0.05) * 10.0
}

struct Outcome {
    final_err: f64,
    episodes_to_peak: Option<usize>,
}

fn run(cfg: SarsaConfig, backend: ValueBackend, peak: f64, seed: u64) -> Outcome {
    let space = RatioSpace::default();
    let value: Box<dyn ActionValue> = match backend {
        ValueBackend::Matrix => Box::new(MatrixQ::new(space)),
        ValueBackend::Model => Box::new(ModelV::new(space)),
        ValueBackend::Approx => Box::new(ApproxV::new(space)),
    };
    let mut learner = Sarsa::new(
        space,
        cfg,
        value,
        rand_chacha::ChaCha12Rng::seed_from_u64(seed),
    );
    let mut s = space.nearest_state(0.0);
    let mut a = learner.begin(s);
    let peak_state = space.nearest_state(peak);
    let mut first_hit = None;
    let mut tail = Vec::new();
    for ep in 0..EPISODES {
        let s2 = space.transition(s, a);
        a = learner.step(reward(space, s2, peak), s2);
        s = s2;
        if s == peak_state && first_hit.is_none() {
            first_hit = Some(ep);
        }
        if ep >= EPISODES * 3 / 4 {
            tail.push(space.state_value(s));
        }
    }
    let mean_tail = tail.iter().sum::<f64>() / tail.len() as f64;
    Outcome {
        final_err: (mean_tail - peak).abs(),
        episodes_to_peak: first_hit,
    }
}

pub fn row(args: &kmsg_bench::BenchArgs) -> RowOutput {
    kmsg_telemetry::log_info!(
        "Ablation C — learner variants on the synthetic quadratic environment \
         (peak at -0.8, {EPISODES} episodes, {SEEDS} seeds)\n"
    );
    kmsg_telemetry::log_info!(
        "{:<34} {:>12} {:>18}",
        "variant", "final |err|", "episodes to peak"
    );
    kmsg_bench::rule(66);
    let variants: Vec<(&str, SarsaConfig, ValueBackend)> = vec![
        (
            "sarsa/replacing/matrix (paper f4)",
            SarsaConfig::default(),
            ValueBackend::Matrix,
        ),
        (
            "sarsa/replacing/model (paper f5)",
            SarsaConfig::default(),
            ValueBackend::Model,
        ),
        (
            "sarsa/replacing/approx (paper f6)",
            SarsaConfig::default(),
            ValueBackend::Approx,
        ),
        (
            "sarsa/accumulating/approx",
            SarsaConfig {
                trace: TraceKind::Accumulating,
                ..SarsaConfig::default()
            },
            ValueBackend::Approx,
        ),
        (
            "watkins-q/replacing/approx",
            SarsaConfig {
                algo: ControlAlgo::WatkinsQ,
                ..SarsaConfig::default()
            },
            ValueBackend::Approx,
        ),
        (
            "watkins-q/replacing/model",
            SarsaConfig {
                algo: ControlAlgo::WatkinsQ,
                ..SarsaConfig::default()
            },
            ValueBackend::Model,
        ),
    ];
    // One world per (variant, seed) cell; the reduction walks cells in
    // submission order, so per-variant aggregates are order-independent.
    let worlds: Vec<(usize, u64)> = (0..variants.len())
        .flat_map(|v| (0..SEEDS).map(move |seed| (v, seed)))
        .collect();
    let outcomes = kmsg_bench::sweep::map(args.jobs, worlds, |_idx, (v, seed)| {
        let (_, cfg, backend) = variants[v];
        run(cfg, backend, -0.8, seed)
    });
    for (v, (name, _, _)) in variants.iter().enumerate() {
        let mut err_sum = 0.0;
        let mut hit_sum = 0usize;
        let mut hits = 0usize;
        for out in &outcomes[v * SEEDS as usize..(v + 1) * SEEDS as usize] {
            err_sum += out.final_err;
            if let Some(ep) = out.episodes_to_peak {
                hit_sum += ep;
                hits += 1;
            }
        }
        let mean_err = err_sum / SEEDS as f64;
        let hit_str = if hits == 0 {
            "never".to_string()
        } else {
            format!("{:.0} ({}/{} seeds)", hit_sum as f64 / hits as f64, hits, SEEDS)
        };
        kmsg_telemetry::log_info!("{name:<34} {mean_err:>12.3} {hit_str:>18}");
    }
    kmsg_telemetry::log_info!(
        "\nExpected shape: the model/approx backends dominate the dense matrix;\n\
         the paper's replacing trace is at least as stable as accumulating;\n\
         Watkins Q(lambda) is competitive but its trace cutting discards\n\
         credit on this exploration-heavy schedule."
    );
    RowOutput::default()
}
