//! # kmsg-learning — online RL for adaptive transport selection
//!
//! The reinforcement-learning substrate of the KompicsMessaging
//! reproduction (§II-C and §IV-C of *Fast and Flexible Networking for
//! Message-oriented Middleware*, ICDCS 2017): an on-policy **Sarsa(λ)**
//! learner with eligibility traces and ε-greedy exploration, over the
//! paper's discretised protocol-ratio space, with three value-function
//! backends of increasing sample efficiency:
//!
//! | Backend | Paper figure | Behaviour |
//! |---------|--------------|-----------|
//! | [`value::MatrixQ`]  | Fig. 4 | dense 11×5 table; too slow to converge |
//! | [`value::ModelV`]   | Fig. 5 | `Q(s,a) = V(M(s,a))`; converges ≈ 20 s |
//! | [`value::ApproxV`]  | Fig. 6 | + quadratic extrapolation; seconds |
//!
//! # Example
//!
//! ```
//! use kmsg_learning::prelude::*;
//! use rand::SeedableRng;
//!
//! let space = RatioSpace::default(); // 11 states x 5 actions
//! let mut learner = Sarsa::new(
//!     space,
//!     SarsaConfig::default(),
//!     ModelV::new(space),
//!     rand_chacha::ChaCha12Rng::seed_from_u64(42),
//! );
//! // Environment: reward peaks at ratio -1 (TCP-favoured, like a LAN).
//! let reward = |s: StateIdx| {
//!     let x = space.state_value(s);
//!     1.0 - (x + 1.0) * (x + 1.0)
//! };
//! let mut s = space.nearest_state(0.0);
//! let mut a = learner.begin(s);
//! for _ in 0..200 {
//!     let s2 = space.transition(s, a);
//!     a = learner.step(reward(s2), s2);
//!     s = s2;
//! }
//! // The learner has settled on the TCP side of the space.
//! assert!(space.state_value(s) < 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]
#![deny(unconditional_recursion)]

pub mod policy;
pub mod sarsa;
pub mod space;
pub mod value;

pub use policy::EpsilonGreedyConfig;
pub use sarsa::{DecisionRecord, Sarsa, SarsaConfig};
pub use space::RatioSpace;
pub use value::ApproxV;

/// Common imports for learner users.
pub mod prelude {
    pub use crate::sarsa::{ControlAlgo, DecisionRecord, Sarsa, SarsaConfig, TraceKind};
    pub use crate::space::{RatioSpace, StateIdx};
    pub use crate::value::{ActionValue, ApproxV, MatrixQ, ModelV};
}
