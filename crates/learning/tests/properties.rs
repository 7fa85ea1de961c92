//! Property tests for the learning crate: invariants of the replacing
//! eligibility trace, the ε-greedy decay schedule, and the α = 0 step-size
//! degeneracy of Sarsa(λ). Each property holds for *every* sampled
//! configuration, not just the paper's defaults; cases are drawn by the
//! deterministic [`PropRunner`], so any failure names the seeded stream
//! that replays it.

use kmsg_learning::policy::{EpsilonGreedy, EpsilonGreedyConfig};
use kmsg_learning::sarsa::{Sarsa, SarsaConfig, TraceKind};
use kmsg_learning::space::RatioSpace;
use kmsg_learning::value::{ActionValue, MatrixQ, ModelV};
use kmsg_netsim::testutil::PropRunner;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// Drives `steps` Sarsa(λ) control steps through the ratio space with a
/// deterministic quadratic reward, calling `inspect` after every step.
fn drive<V: ActionValue>(
    mut learner: Sarsa<V, ChaCha12Rng>,
    steps: usize,
    mut inspect: impl FnMut(&Sarsa<V, ChaCha12Rng>),
) {
    let space = learner.space();
    let mut s = space.nearest_state(0.0);
    let mut a = learner.begin(s);
    for _ in 0..steps {
        let s_next = space.transition(s, a);
        let x = space.state_value(s_next);
        a = learner.step(1.0 - x * x, s_next);
        s = s_next;
        inspect(&learner);
    }
}

/// Replacing traces are set to exactly 1 on visit and only ever decay by
/// γλ ∈ [0, 1] afterwards, so every entry stays within [0, 1] at every
/// step, for any (γ, λ) in the unit square.
#[test]
fn replacing_traces_stay_within_unit_interval() {
    PropRunner::new("sarsa-replacing-trace-unit-interval")
        .cases(64)
        .run(
            |rng| {
                (
                    rng.gen_range(0u64..1_000),
                    rng.gen_range(0.0f64..=1.0),
                    rng.gen_range(0.0f64..=1.0),
                    rng.gen_range(1usize..80),
                )
            },
            |&(seed, gamma, lambda, steps)| {
                let space = RatioSpace::default();
                let cfg = SarsaConfig {
                    gamma,
                    lambda,
                    trace: TraceKind::Replacing,
                    ..SarsaConfig::default()
                };
                let learner = Sarsa::new(
                    space,
                    cfg,
                    ModelV::new(space),
                    ChaCha12Rng::seed_from_u64(seed),
                );
                drive(learner, steps, |l| {
                    for (i, &e) in l.trace_values().iter().enumerate() {
                        assert!(
                            (0.0..=1.0).contains(&e),
                            "replacing trace escaped [0, 1]: e[{i}] = {e} \
                             (gamma={gamma}, lambda={lambda})"
                        );
                    }
                });
            },
        );
}

/// The linear ε decay clamps at `epsilon_min`: for any schedule with a
/// non-negative floor, ε never undershoots the floor and never goes
/// negative, no matter how many decisions are taken or how large the
/// per-step decay is.
#[test]
fn epsilon_decay_never_negative_and_respects_floor() {
    PropRunner::new("epsilon-greedy-decay-floor").cases(64).run(
        |rng| {
            (
                rng.gen_range(0u64..1_000),
                rng.gen_range(0.0f64..=1.0),
                rng.gen_range(0.0f64..=1.0),
                rng.gen_range(0.0f64..=0.5),
                rng.gen_range(1usize..200),
            )
        },
        |&(seed, lo, hi, decay, decisions)| {
            let (epsilon_min, epsilon_max) = if lo <= hi { (lo, hi) } else { (hi, lo) };
            let cfg = EpsilonGreedyConfig {
                epsilon_max,
                epsilon_min,
                epsilon_decay: decay,
            };
            let mut policy = EpsilonGreedy::new(cfg, ChaCha12Rng::seed_from_u64(seed));
            let q = vec![Some(1.0), Some(0.0), None];
            for _ in 0..decisions {
                let _ = policy.select(&q);
                assert!(
                    policy.epsilon() >= 0.0,
                    "epsilon went negative: {}",
                    policy.epsilon()
                );
                assert!(
                    policy.epsilon() >= epsilon_min - 1e-12,
                    "epsilon {} undershot the floor {epsilon_min}",
                    policy.epsilon()
                );
                assert!(policy.epsilon() <= epsilon_max + 1e-12);
            }
        },
    );
}

/// With every (s, a) entry pre-initialised (so the first-visit adoption
/// path never fires), a step size of α = 0 makes the Sarsa(λ) update a
/// no-op: the value table is bit-identical before and after any number of
/// control steps.
#[test]
fn alpha_zero_never_changes_initialised_values() {
    PropRunner::new("sarsa-alpha-zero-is-noop").cases(64).run(
        |rng| {
            (
                rng.gen_range(0u64..1_000),
                rng.gen_range(0.0f64..=1.0),
                rng.gen_range(0.0f64..=1.0),
                rng.gen_range(1usize..60),
            )
        },
        |&(seed, gamma, lambda, steps)| {
            let space = RatioSpace::default();
            let mut backend = MatrixQ::new(space);
            let mut init_rng = ChaCha12Rng::seed_from_u64(seed ^ 0x9e37_79b9);
            for s in space.states() {
                for a in space.actions() {
                    backend.update(s, a, init_rng.gen_range(-2.0..2.0));
                }
            }
            let before: Vec<Option<f64>> = space
                .states()
                .flat_map(|s| space.actions().map(move |a| (s, a)))
                .map(|(s, a)| backend.q(s, a))
                .collect();
            let cfg = SarsaConfig {
                alpha: 0.0,
                gamma,
                lambda,
                ..SarsaConfig::default()
            };
            let mut learner = Sarsa::new(space, cfg, backend, ChaCha12Rng::seed_from_u64(seed));
            let mut s = space.nearest_state(0.0);
            let mut a = learner.begin(s);
            for _ in 0..steps {
                let s_next = space.transition(s, a);
                a = learner.step(1.0, s_next);
                s = s_next;
            }
            let after: Vec<Option<f64>> = space
                .states()
                .flat_map(|s| space.actions().map(move |a| (s, a)))
                .map(|(s, a)| learner.value().q(s, a))
                .collect();
            assert_eq!(
                before, after,
                "alpha = 0 must leave the value table untouched"
            );
        },
    );
}
