//! On-policy Sarsa(λ) control (Sutton & Barto; the paper's Figure 3).
//!
//! The learner maintains an eligibility trace `e(s, a)` that decays by
//! `γλ` each step; TD errors are applied to every eligible state-action
//! pair. The paper uses the *replacing* trace ("to avoid heavily visited
//! state-action pairs having unreasonably high eligibility") and, per
//! Figure 3 lines 9–11, clears the traces of sibling actions of the taken
//! state.

use rand::Rng;

use crate::policy::{EpsilonGreedy, EpsilonGreedyConfig};
use crate::space::{ActionIdx, RatioSpace, StateIdx};
use crate::value::ActionValue;

/// Trace accumulation style.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceKind {
    /// `e(s, a) ← 1` on visit (the paper's choice).
    #[default]
    Replacing,
    /// `e(s, a) ← e(s, a) + 1` on visit (classic accumulating trace).
    Accumulating,
}

/// Which TD control algorithm drives the updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ControlAlgo {
    /// On-policy Sarsa(λ): bootstrap from the action actually taken
    /// (the paper's algorithm, Figure 3).
    #[default]
    Sarsa,
    /// Off-policy Watkins Q(λ): bootstrap from the greedy action; traces
    /// are cut after exploratory actions. An extension beyond the paper,
    /// compared in the `ablation_learners` bench.
    WatkinsQ,
}

/// Sarsa(λ) hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SarsaConfig {
    /// Step size α for value updates.
    pub alpha: f64,
    /// Discount factor γ.
    pub gamma: f64,
    /// Eligibility decay λ.
    pub lambda: f64,
    /// Trace style.
    pub trace: TraceKind,
    /// Control algorithm.
    pub algo: ControlAlgo,
    /// Exploration schedule.
    pub exploration: EpsilonGreedyConfig,
}

impl Default for SarsaConfig {
    /// The paper's parameters: α = 0.5, γ = 0.5, λ = 0.85,
    /// ε: 0.8 → 0.1 with Δε = 0.01.
    fn default() -> Self {
        SarsaConfig {
            alpha: 0.5,
            gamma: 0.5,
            lambda: 0.85,
            trace: TraceKind::Replacing,
            algo: ControlAlgo::Sarsa,
            exploration: EpsilonGreedyConfig::default(),
        }
    }
}

/// One decision the learner took, as reported to an observer installed
/// with [`Sarsa::set_probe`]. The crate stays dependency-free: richer
/// telemetry backends wrap the probe callback rather than this crate
/// depending on them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionRecord {
    /// Zero-based step index (the value of [`Sarsa::steps`] when the
    /// decision was made).
    pub step: u64,
    /// The state the environment transitioned into.
    pub state: usize,
    /// The action chosen for that state.
    pub action: usize,
    /// The reward observed for the previous action.
    pub reward: f64,
    /// Exploration probability in effect when the action was chosen.
    pub epsilon: f64,
    /// Whether the chosen action was the greedy one (`false` both for
    /// exploratory picks and when every action value is uninitialised).
    pub greedy: bool,
}

/// Observer invoked once per [`Sarsa::step`] with the decision taken.
pub(crate) type DecisionProbe = Box<dyn FnMut(DecisionRecord) + Send>;

/// The Sarsa(λ) learner over the paper's [`RatioSpace`], generic over the
/// value-function backend.
pub struct Sarsa<V: ActionValue, R: Rng> {
    space: RatioSpace,
    cfg: SarsaConfig,
    value: V,
    policy: EpsilonGreedy<R>,
    traces: Vec<f64>,
    last: Option<(StateIdx, ActionIdx)>,
    steps: u64,
    probe: Option<DecisionProbe>,
}

impl<V: ActionValue, R: Rng> std::fmt::Debug for Sarsa<V, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sarsa")
            .field("backend", &self.value.name())
            .field("steps", &self.steps)
            .field("epsilon", &self.policy.epsilon())
            .finish()
    }
}

impl<V: ActionValue, R: Rng> Sarsa<V, R> {
    /// Creates a learner over `space` with backend `value`.
    pub fn new(space: RatioSpace, cfg: SarsaConfig, value: V, rng: R) -> Self {
        let traces = vec![0.0; space.num_states() * space.num_actions()];
        Sarsa {
            space,
            policy: EpsilonGreedy::new(cfg.exploration, rng),
            cfg,
            value,
            traces,
            last: None,
            steps: 0,
            probe: None,
        }
    }

    /// Installs (or removes) a decision observer. The probe fires once per
    /// [`Sarsa::step`], after action selection and before the value update;
    /// it never influences the learning trajectory.
    pub fn set_probe(&mut self, probe: Option<DecisionProbe>) {
        self.probe = probe;
    }

    fn trace_idx(&self, s: StateIdx, a: ActionIdx) -> usize {
        s.0 * self.space.num_actions() + a.0
    }

    fn q_row(&self, s: StateIdx) -> Vec<Option<f64>> {
        self.space.actions().map(|a| self.value.q(s, a)).collect()
    }

    /// Starts (or restarts) an episode at state `s0`, returning the first
    /// action to take.
    pub fn begin(&mut self, s0: StateIdx) -> ActionIdx {
        self.traces.iter_mut().for_each(|e| *e = 0.0);
        let a0 = self.policy.select(&self.q_row(s0));
        self.last = Some((s0, a0));
        a0
    }

    /// One Sarsa(λ) step: the previously returned action was taken, reward
    /// `r` was observed, and the environment is now in `s_next`. Returns
    /// the next action to take.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Sarsa::begin`].
    pub fn step(&mut self, reward: f64, s_next: StateIdx) -> ActionIdx {
        let (s, a) = self.last.expect("step() before begin()");
        let a_next = self.policy.select(&self.q_row(s_next));

        let greedy_next = self.greedy_action(s_next);
        if let Some(probe) = self.probe.as_mut() {
            probe(DecisionRecord {
                step: self.steps,
                state: s_next.0,
                action: a_next.0,
                reward,
                epsilon: self.policy.epsilon(),
                greedy: greedy_next == Some(a_next),
            });
        }
        let bootstrap_action = match self.cfg.algo {
            ControlAlgo::Sarsa => a_next,
            ControlAlgo::WatkinsQ => greedy_next.unwrap_or(a_next),
        };
        let q_next = self.value.q(s_next, bootstrap_action).unwrap_or(0.0);
        let target = reward + self.cfg.gamma * q_next;
        // First visit adopts the full sample: a single bootstrapped
        // alpha-step from zero would make rarely-visited good states look
        // worse than frequently-visited mediocre ones (whose values pump
        // towards r/(1-gamma)) and strand the policy.
        if self.value.q(s, a).is_none() {
            self.value.update(s, a, target);
        }
        let q_sa = self.value.q(s, a).unwrap_or(0.0);
        let delta = target - q_sa;

        // Visit (s, a): replacing or accumulating; clear sibling actions
        // (Figure 3, lines 8-11).
        let i = self.trace_idx(s, a);
        match self.cfg.trace {
            TraceKind::Replacing => self.traces[i] = 1.0,
            TraceKind::Accumulating => self.traces[i] += 1.0,
        }
        for other in self.space.actions() {
            if other != a {
                let j = self.trace_idx(s, other);
                self.traces[j] = 0.0;
            }
        }

        // Apply the TD error to all eligible pairs, then decay.
        let decay = self.cfg.gamma * self.cfg.lambda;
        for st in self.space.states() {
            for ac in self.space.actions() {
                let j = self.trace_idx(st, ac);
                let e = self.traces[j];
                if e != 0.0 {
                    self.value.update(st, ac, self.cfg.alpha * delta * e);
                    self.traces[j] = e * decay;
                }
            }
        }

        // Watkins: an exploratory (non-greedy) next action invalidates the
        // eligibility of the past trajectory.
        if self.cfg.algo == ControlAlgo::WatkinsQ && greedy_next.is_some_and(|g| g != a_next) {
            self.traces.iter_mut().for_each(|e| *e = 0.0);
        }

        self.last = Some((s_next, a_next));
        self.steps += 1;
        a_next
    }

    /// Steps taken since creation.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Read-only view of the eligibility traces, laid out
    /// `state * num_actions + action` (diagnostics and property tests).
    #[must_use]
    pub fn trace_values(&self) -> &[f64] {
        &self.traces
    }

    /// Current exploration probability.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.policy.epsilon()
    }

    /// The value-function backend (diagnostics).
    #[must_use]
    pub fn value(&self) -> &V {
        &self.value
    }

    /// The state/action space.
    #[must_use]
    pub fn space(&self) -> RatioSpace {
        self.space
    }

    /// The greedy action at `s` (ignoring exploration); `None` if every
    /// action value is uninitialised.
    #[must_use]
    pub(crate) fn greedy_action(&self, s: StateIdx) -> Option<ActionIdx> {
        self.q_row(s)
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.map(|x| (i, x)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("NaN"))
            .map(|(i, _)| ActionIdx(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{ApproxV, MatrixQ, ModelV};
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    /// A deterministic quadratic reward over the ratio space, peaking at
    /// `peak` — the paper's assumed reward shape.
    fn reward_at(space: RatioSpace, s: StateIdx, peak: f64) -> f64 {
        let x = space.state_value(s);
        1.0 - (x - peak) * (x - peak)
    }

    /// Runs an episodic control loop; returns the mean state value over the
    /// final quarter of steps (the converged operating point).
    fn run_control_seeded<V: ActionValue>(
        value: V,
        peak: f64,
        steps: usize,
        cfg: SarsaConfig,
        seed: u64,
    ) -> f64 {
        let space = RatioSpace::default();
        let mut learner = Sarsa::new(space, cfg, value, ChaCha12Rng::seed_from_u64(seed));
        let mut s = space.nearest_state(0.0);
        let mut a = learner.begin(s);
        let mut tail = Vec::new();
        for i in 0..steps {
            let s_next = space.transition(s, a);
            let r = reward_at(space, s_next, peak);
            a = learner.step(r, s_next);
            s = s_next;
            if i >= steps * 3 / 4 {
                tail.push(space.state_value(s));
            }
        }
        tail.iter().sum::<f64>() / tail.len() as f64
    }

    #[test]
    fn model_v_converges_to_peak() {
        let space = RatioSpace::default();
        let cfg = SarsaConfig::default();
        let final_pos = run_control_seeded(ModelV::new(space), -0.8, 400, cfg, 3);
        assert!(
            final_pos < -0.4,
            "model-based learner should settle near the -0.8 peak, got {final_pos}"
        );
    }

    #[test]
    fn approx_v_converges_faster_than_matrix() {
        let space = RatioSpace::default();
        let cfg = SarsaConfig::default();
        // Short horizon, averaged over seeds: the approximated backend
        // should be at the +1 peak while the dense matrix still wanders
        // (the paper's Figure 4 vs Figure 6 contrast).
        let seeds = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let mean = |mk: &dyn Fn() -> Box<dyn FnOnce(u64) -> f64>| -> f64 {
            seeds.iter().map(|&sd| (mk())(sd)).sum::<f64>() / seeds.len() as f64
        };
        let approx_mean = mean(&|| {
            Box::new(move |sd| run_control_seeded(ApproxV::new(space), 1.0, 120, cfg, sd))
        });
        let matrix_mean = mean(&|| {
            Box::new(move |sd| run_control_seeded(MatrixQ::new(space), 1.0, 120, cfg, sd))
        });
        assert!(
            approx_mean > 0.5,
            "approximated V should reach the +1 peak quickly, got {approx_mean}"
        );
        assert!(
            approx_mean >= matrix_mean,
            "approx ({approx_mean}) should not trail matrix ({matrix_mean}) on average"
        );
    }

    #[test]
    fn matrix_q_leaves_entries_unexplored_on_short_runs() {
        let space = RatioSpace::default();
        let mut learner = Sarsa::new(
            space,
            SarsaConfig::default(),
            MatrixQ::new(space),
            ChaCha12Rng::seed_from_u64(5),
        );
        let mut s = space.nearest_state(0.0);
        let mut a = learner.begin(s);
        for _ in 0..60 {
            let s_next = space.transition(s, a);
            a = learner.step(reward_at(space, s_next, -1.0), s_next);
            s = s_next;
        }
        // 55 entries cannot all be visited in 60 steps along one trajectory.
        let filled = learner.value().initialized_entries();
        assert!(
            filled < 55,
            "60 steps cannot explore the whole 11x5 matrix, filled={filled}"
        );
    }

    #[test]
    fn traces_decay_and_propagate() {
        let space = RatioSpace::default();
        let mut learner = Sarsa::new(
            space,
            SarsaConfig {
                exploration: EpsilonGreedyConfig {
                    epsilon_max: 0.0,
                    epsilon_min: 0.0,
                    epsilon_decay: 0.0,
                },
                ..SarsaConfig::default()
            },
            ModelV::new(space),
            ChaCha12Rng::seed_from_u64(5),
        );
        let s0 = space.nearest_state(0.0);
        let mut a = learner.begin(s0);
        let mut s = s0;
        for _ in 0..3 {
            let s_next = space.transition(s, a);
            a = learner.step(1.0, s_next);
            s = s_next;
        }
        // A reward must have propagated into earlier states through the
        // eligibility trace: state s0's neighbourhood has learned values.
        let known: usize = learner
            .value()
            .values()
            .iter()
            .filter(|v| v.is_some())
            .count();
        assert!(
            known >= 2,
            "trace should update multiple states, got {known}"
        );
    }

    #[test]
    fn accumulating_trace_differs_from_replacing() {
        let space = RatioSpace::default();
        let mk = |kind| SarsaConfig {
            trace: kind,
            exploration: EpsilonGreedyConfig {
                epsilon_max: 0.0,
                epsilon_min: 0.0,
                epsilon_decay: 0.0,
            },
            ..SarsaConfig::default()
        };
        // Hammer the same state-action repeatedly. Pre-initialising V(0)
        // makes the greedy choice deterministic, so with epsilon = 0 the
        // same action repeats and the accumulating trace can build up.
        let run = |cfg: SarsaConfig| {
            let mut backend = ModelV::new(space);
            backend.update(StateIdx(0), space.noop_action(), 0.0);
            let mut l = Sarsa::new(space, cfg, backend, ChaCha12Rng::seed_from_u64(9));
            let s = StateIdx(0);
            let _ = l.begin(s);
            for _ in 0..5 {
                let _ = l.step(1.0, s);
            }
            l.value().values()[0].unwrap_or(0.0)
        };
        let repl = run(mk(TraceKind::Replacing));
        let acc = run(mk(TraceKind::Accumulating));
        assert!(
            acc > repl,
            "accumulating trace over-rewards hot pairs (acc={acc}, repl={repl})"
        );
    }

    #[test]
    fn greedy_action_none_when_unexplored() {
        let space = RatioSpace::default();
        let learner = Sarsa::new(
            space,
            SarsaConfig::default(),
            MatrixQ::new(space),
            ChaCha12Rng::seed_from_u64(1),
        );
        assert_eq!(learner.greedy_action(StateIdx(5)), None);
    }

    #[test]
    fn watkins_also_converges_to_peak() {
        let space = RatioSpace::default();
        let cfg = SarsaConfig {
            algo: ControlAlgo::WatkinsQ,
            ..SarsaConfig::default()
        };
        let final_pos = run_control_seeded(ModelV::new(space), -0.8, 400, cfg, 3);
        assert!(
            final_pos < -0.3,
            "Watkins Q(lambda) should also find the -0.8 peak, got {final_pos}"
        );
    }

    #[test]
    fn watkins_cuts_traces_on_exploration() {
        let space = RatioSpace::default();
        // Always explore: every step is non-greedy once values exist, so
        // traces must stay cut and only the visited pair updates.
        let cfg = SarsaConfig {
            algo: ControlAlgo::WatkinsQ,
            exploration: EpsilonGreedyConfig {
                epsilon_max: 1.0,
                epsilon_min: 1.0,
                epsilon_decay: 0.0,
            },
            ..SarsaConfig::default()
        };
        let mut l = Sarsa::new(
            space,
            cfg,
            ModelV::new(space),
            ChaCha12Rng::seed_from_u64(4),
        );
        let mut s = space.nearest_state(0.0);
        let mut a = l.begin(s);
        for _ in 0..30 {
            let s2 = space.transition(s, a);
            a = l.step(1.0, s2);
            s = s2;
        }
        // No assertion beyond termination + sane values: the trace-cut path
        // must not corrupt the value function.
        for st in space.states() {
            for ac in space.actions() {
                if let Some(v) = l.value().q(st, ac) {
                    assert!(v.is_finite());
                }
            }
        }
    }

    #[test]
    fn probe_sees_every_decision() {
        use std::sync::{Arc, Mutex};
        let space = RatioSpace::default();
        let mut learner = Sarsa::new(
            space,
            SarsaConfig::default(),
            ModelV::new(space),
            ChaCha12Rng::seed_from_u64(11),
        );
        let seen: Arc<Mutex<Vec<DecisionRecord>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        learner.set_probe(Some(Box::new(move |d| sink.lock().unwrap().push(d))));
        let mut s = space.nearest_state(0.0);
        let mut a = learner.begin(s);
        for _ in 0..5 {
            let s_next = space.transition(s, a);
            a = learner.step(0.25, s_next);
            s = s_next;
        }
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 5);
        for (i, d) in seen.iter().enumerate() {
            assert_eq!(d.step, i as u64);
            assert_eq!(d.reward, 0.25);
            assert!(d.state < space.num_states());
            assert!(d.action < space.num_actions());
            assert!((0.0..=1.0).contains(&d.epsilon));
        }
    }

    #[test]
    #[should_panic(expected = "before begin")]
    fn step_requires_begin() {
        let space = RatioSpace::default();
        let mut learner = Sarsa::new(
            space,
            SarsaConfig::default(),
            MatrixQ::new(space),
            ChaCha12Rng::seed_from_u64(1),
        );
        let _ = learner.step(0.0, StateIdx(0));
    }
}
