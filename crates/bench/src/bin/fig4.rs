//! **Figure 4** — TD learner with the dense matrix `Q(s, a)`
//! implementation (11 states × 5 actions = 55 entries), ε: 0.8 → 0.1,
//! Δε = 0.01: for large state-action spaces the model converges too
//! slowly to be useful within a transfer.
//!
//! ```text
//! cargo run --release -p kmsg-bench --bin fig4 [--quick]
//! ```

use kmsg_bench::learner_env;
use kmsg_core::data::ValueBackend;

fn main() {
    learner_env::figure(
        "Figure 4 — TD learner, dense matrix Q(s,a)",
        "matrix Q(s,a)",
        ValueBackend::Matrix,
        0.8,
        "the 55-entry table stays under-explored; the\n\
         ratio keeps wandering and throughput settles late, if at all. Note:\n\
         this implementation adopts the full TD target on first visits\n\
         (DESIGN.md §6.6), which softens the paper's worst case — the matrix\n\
         backend here converges late/noisily rather than never. The robust\n\
         multi-seed comparison across backends is `ablation_learners`.",
    );
}
