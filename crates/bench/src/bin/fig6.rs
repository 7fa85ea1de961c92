//! **Figure 6** — TD learner with `V(s)` plus least-squares quadratic
//! value approximation: unexplored states get extrapolated values (never
//! overriding learned ones), so the policy can act greedily after only a
//! couple of observations — converging within seconds and avoiding late
//! backtracking.
//!
//! ```text
//! cargo run --release -p kmsg-bench --bin fig6 [--quick]
//! ```

use kmsg_bench::learner_env;
use kmsg_core::data::ValueBackend;

fn main() {
    learner_env::figure(
        "Figure 6 — TD learner, V(s) + quadratic approximation",
        "V(s) + quadratic fit",
        ValueBackend::Approx,
        0.3,
        "reasonable performance after a few seconds\n\
         and no significant backtracking late in the run.",
    );
}
