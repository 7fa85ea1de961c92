//! **Ablation B** — pattern construction choices (§IV-B4): for a sweep of
//! target ratios, compare the `p`-pattern, the `p+1`-pattern, the paper's
//! minimal-rest rule, and the probabilistic baseline on (a) the rest `c`
//! and (b) the worst prefix deviation from the target.
//! Each target ratio is an independent cell. Not gated yet.

use kmsg_core::data::{
    build_pattern, max_prefix_deviation, p_pattern_rest, p_plus_one_pattern_rest, PatternKind,
    ProtocolSelectionPolicy, RandomSelection, Ratio,
};
use kmsg_netsim::rng::SeedSource;

use crate::RowOutput;

pub(crate) fn row(args: &kmsg_bench::BenchArgs) -> RowOutput {
    let seeds = SeedSource::new(3);
    kmsg_telemetry::log_info!(
        "Ablation B — pattern construction (deviation = worst prefix |achieved - target|)\n"
    );
    kmsg_telemetry::log_info!(
        "{:>7} {:>5} {:>5} | {:>6} {:>6} | {:>8} {:>8} {:>8} {:>8}",
        "target",
        "p",
        "q",
        "c(p)",
        "c(p+1)",
        "dev(p)",
        "dev(p+1)",
        "dev(min)",
        "dev(rand)"
    );
    kmsg_bench::rule(84);
    let probs = vec![0.03, 0.1, 0.125, 0.2, 0.25, 1.0 / 3.0, 0.4, 0.45, 0.5];
    let rows = kmsg_bench::sweep::map(args.jobs, probs, |_idx, prob| {
        let ratio = Ratio::from_prob_udt(prob);
        let f = ratio.fraction(100);
        let dev = |kind| {
            let pat = build_pattern(&f, kind);
            max_prefix_deviation(&pat, prob)
        };
        // Probabilistic baseline measured over one pattern-length run,
        // averaged over several seeds (stateless named streams, so this
        // cell is identical no matter which worker runs it).
        let pattern_len = (f.p + f.q) as usize;
        let mut rand_dev = 0.0;
        let reps = 32;
        for rep in 0..reps {
            let mut rng = RandomSelection::new(
                ratio,
                seeds.stream(&format!("ablation-patterns-{prob}-{rep}")),
            );
            let run: Vec<_> = (0..pattern_len).map(|_| rng.select()).collect();
            rand_dev += max_prefix_deviation(&run, prob);
        }
        rand_dev /= f64::from(reps);
        format!(
            "{:>7.3} {:>5} {:>5} | {:>6} {:>6} | {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
            prob,
            f.p,
            f.q,
            p_pattern_rest(&f),
            p_plus_one_pattern_rest(&f),
            dev(PatternKind::P),
            dev(PatternKind::PPlusOne),
            dev(PatternKind::MinimalRest),
            rand_dev,
        )
    });
    for row in rows {
        kmsg_telemetry::log_info!("{row}");
    }
    kmsg_telemetry::log_info!(
        "\nExpected shape: deterministic patterns dominate the probabilistic\n\
         baseline everywhere; where c(p+1) < c(p) the minimal-rest rule adopts\n\
         the p+1 construction and its deviation column tracks the better one."
    );
    RowOutput::default()
}
