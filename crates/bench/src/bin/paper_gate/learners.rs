//! The learner figures on the §IV-B2 analysis link (100 MB/s, 10 ms):
//! Figure 2 and Figures 4–6, which differ only in the arguments of
//! `kmsg_bench::learner_env::figure`. Not gated yet.

use kmsg_bench::learner_env;
use kmsg_bench::BenchArgs;
use kmsg_core::data::{PatternKind, PspKind, ValueBackend};
use kmsg_core::Transport;

use crate::RowOutput;

/// **Figure 2** — Impact of the protocol selection policy on throughput
/// and true protocol ratio: the TD learner running with Pattern vs
/// Probabilistic selection.
///
/// The paper's observation: probabilistic ratio selection is less
/// accurate (smoother wire ratio) and converges slightly more slowly in
/// throughput; both eventually reach the same performance.
pub fn fig2(args: &BenchArgs) -> RowOutput {
    let secs = 60;
    kmsg_telemetry::log_info!(
        "Figure 2 — PSP impact on throughput and true protocol ratio ({secs} s, analysis link)"
    );

    let tcp_ref = learner_env::reference_throughput(Transport::Tcp, secs.min(20), args.seed);
    let udt_ref = learner_env::reference_throughput(Transport::Udt, secs.min(20), args.seed);

    for (label, psp) in [
        ("Pattern selection", PspKind::Pattern(PatternKind::MinimalRest)),
        ("Probabilistic selection", PspKind::Random),
    ] {
        let cfg = learner_env::td_data_cfg(ValueBackend::Approx, 0.3, psp, args.seed);
        let result = learner_env::run_timed(Transport::Data, Some(cfg), secs, args.seed);
        learner_env::print_learner_table(label, &result, (tcp_ref, udt_ref));
    }
    kmsg_telemetry::log_info!(
        "\nExpected shape (paper): both learners converge to the same\n\
         throughput; the probabilistic run's wire ratio is smoother but less\n\
         accurate, costing it slightly slower convergence."
    );
    RowOutput::default()
}

/// **Figure 4** — TD learner with the dense matrix `Q(s, a)`
/// implementation (11 states × 5 actions = 55 entries), ε: 0.8 → 0.1,
/// Δε = 0.01: for large state-action spaces the model converges too
/// slowly to be useful within a transfer.
pub fn fig4(args: &BenchArgs) -> RowOutput {
    learner_env::figure(
        args,
        "Figure 4 — TD learner, dense matrix Q(s,a)",
        "matrix Q(s,a)",
        ValueBackend::Matrix,
        0.8,
        "the 55-entry table stays under-explored; the\n\
         ratio keeps wandering and throughput settles late, if at all. Note:\n\
         this implementation adopts the full TD target on first visits\n\
         (DESIGN.md §6.6), which softens the paper's worst case — the matrix\n\
         backend here converges late/noisily rather than never. The robust\n\
         multi-seed comparison across backends is the `ablation_learners` row.",
    );
    RowOutput::default()
}

/// **Figure 5** — TD learner with `Q(s, a)` collapsed into a state-value
/// vector `V(s)` through the environment model `M(s, a) → s'`: the space
/// shrinks from 55 to 11 entries and the learner converges in ~20 s
/// (ε_max lowered to 0.3 to avoid over-exploration after convergence).
pub fn fig5(args: &BenchArgs) -> RowOutput {
    learner_env::figure(
        args,
        "Figure 5 — TD learner, model-collapsed V(s)",
        "model-collapsed V(s)",
        ValueBackend::Model,
        0.3,
        "convergence to a TCP-heavy ratio within\n\
         roughly 20 s, then throughput tracking the TCP reference.",
    );
    RowOutput::default()
}

/// **Figure 6** — TD learner with `V(s)` plus least-squares quadratic
/// value approximation: unexplored states get extrapolated values (never
/// overriding learned ones), so the policy can act greedily after only a
/// couple of observations — converging within seconds and avoiding late
/// backtracking.
pub fn fig6(args: &BenchArgs) -> RowOutput {
    learner_env::figure(
        args,
        "Figure 6 — TD learner, V(s) + quadratic approximation",
        "V(s) + quadratic fit",
        ValueBackend::Approx,
        0.3,
        "reasonable performance after a few seconds\n\
         and no significant backtracking late in the run.",
    );
    RowOutput::default()
}
