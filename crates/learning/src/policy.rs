//! ε-greedy action selection with linear decay.
//!
//! The paper starts with a relatively high ε and decays it linearly per
//! time step towards a minimum ("similar to the approach of simulated
//! annealing", §II-C), e.g. ε: 0.8 → 0.1 with Δε = 0.01 per step in
//! Figure 4.

use rand::Rng;

use crate::space::ActionIdx;

/// Configuration for [`EpsilonGreedy`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpsilonGreedyConfig {
    /// Initial exploration probability.
    pub epsilon_max: f64,
    /// Floor for the exploration probability.
    pub epsilon_min: f64,
    /// Linear decay applied after every decision.
    pub epsilon_decay: f64,
}

impl Default for EpsilonGreedyConfig {
    /// The paper's Figure 4 parameters: ε 0.8 → 0.1, Δε = 0.01.
    fn default() -> Self {
        EpsilonGreedyConfig {
            epsilon_max: 0.8,
            epsilon_min: 0.1,
            epsilon_decay: 0.01,
        }
    }
}

/// ε-greedy policy over a slice of (possibly uninitialised) action values.
#[derive(Debug, Clone)]
pub struct EpsilonGreedy<R: Rng> {
    cfg: EpsilonGreedyConfig,
    epsilon: f64,
    rng: R,
}

impl<R: Rng> EpsilonGreedy<R> {
    /// Creates the policy with ε starting at `cfg.epsilon_max`.
    pub fn new(cfg: EpsilonGreedyConfig, rng: R) -> Self {
        EpsilonGreedy {
            epsilon: cfg.epsilon_max,
            cfg,
            rng,
        }
    }

    /// Current exploration probability.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Picks an action: with probability ε a uniformly random one;
    /// otherwise the greedy argmax over the known values. If the greedy
    /// choice is uninitialised (no value known at all), the decision is
    /// random — the paper's rule for unexplored entries.
    ///
    /// Decays ε after the decision.
    ///
    /// # Panics
    ///
    /// Panics if `q_values` is empty.
    pub fn select(&mut self, q_values: &[Option<f64>]) -> ActionIdx {
        assert!(!q_values.is_empty(), "no actions to select from");
        let explore = self.rng.gen::<f64>() < self.epsilon;
        let choice = if explore {
            ActionIdx(self.rng.gen_range(0..q_values.len()))
        } else {
            let best = q_values
                .iter()
                .enumerate()
                .filter_map(|(i, v)| v.map(|x| (i, x)))
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("NaN action value"));
            match best {
                Some((i, _)) => ActionIdx(i),
                None => ActionIdx(self.rng.gen_range(0..q_values.len())),
            }
        };
        self.epsilon = (self.epsilon - self.cfg.epsilon_decay).max(self.cfg.epsilon_min);
        choice
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn policy(cfg: EpsilonGreedyConfig) -> EpsilonGreedy<ChaCha12Rng> {
        EpsilonGreedy::new(cfg, ChaCha12Rng::seed_from_u64(7))
    }

    #[test]
    fn greedy_when_epsilon_zero() {
        let mut p = policy(EpsilonGreedyConfig {
            epsilon_max: 0.0,
            epsilon_min: 0.0,
            epsilon_decay: 0.0,
        });
        let q = vec![Some(0.1), Some(0.9), Some(0.5)];
        for _ in 0..20 {
            assert_eq!(p.select(&q), ActionIdx(1));
        }
    }

    #[test]
    fn random_when_uninitialised() {
        let mut p = policy(EpsilonGreedyConfig {
            epsilon_max: 0.0,
            epsilon_min: 0.0,
            epsilon_decay: 0.0,
        });
        let q = vec![None, None, None, None];
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(p.select(&q).0);
        }
        assert!(
            seen.len() > 1,
            "uninitialised values must give random picks"
        );
    }

    #[test]
    fn epsilon_decays_to_minimum() {
        let mut p = policy(EpsilonGreedyConfig {
            epsilon_max: 0.5,
            epsilon_min: 0.1,
            epsilon_decay: 0.1,
        });
        let q = vec![Some(1.0)];
        for _ in 0..10 {
            let _ = p.select(&q);
        }
        assert!((p.epsilon() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn explores_at_high_epsilon() {
        let mut p = policy(EpsilonGreedyConfig {
            epsilon_max: 1.0,
            epsilon_min: 1.0,
            epsilon_decay: 0.0,
        });
        let q = vec![Some(100.0), Some(0.0), Some(0.0), Some(0.0)];
        let mut non_greedy = 0;
        for _ in 0..200 {
            if p.select(&q) != ActionIdx(0) {
                non_greedy += 1;
            }
        }
        assert!(
            non_greedy > 100,
            "always-explore must pick non-greedy often"
        );
    }
}
