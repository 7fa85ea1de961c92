//! **Figure 5** — TD learner with `Q(s, a)` collapsed into a state-value
//! vector `V(s)` through the environment model `M(s, a) → s'`: the space
//! shrinks from 55 to 11 entries and the learner converges in ~20 s
//! (ε_max lowered to 0.3 to avoid over-exploration after convergence).
//!
//! ```text
//! cargo run --release -p kmsg-bench --bin fig5 [--quick]
//! ```

use kmsg_bench::learner_env;
use kmsg_core::data::ValueBackend;

fn main() {
    learner_env::figure(
        "Figure 5 — TD learner, model-collapsed V(s)",
        "model-collapsed V(s)",
        ValueBackend::Model,
        0.3,
        "convergence to a TCP-heavy ratio within\n\
         roughly 20 s, then throughput tracking the TCP reference.",
    );
}
