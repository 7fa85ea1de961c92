//! Protocol ratio policies (§IV-C): decide the *target* TCP/UDT mix for a
//! `DATA` stream, once per learning episode.
//!
//! * `StaticRatio` — fixed mix, set at startup (testing & baselines);
//! * `TdRatioLearner` — the paper's TD(λ)/Sarsa(λ) learner over the
//!   discretised ratio space, with a pluggable value-function backend
//!   ([`ValueBackend`]) reproducing Figures 4–6.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use kmsg_learning::prelude::*;
use kmsg_learning::DecisionRecord;
use kmsg_netsim::rng::RngStream;
use kmsg_netsim::time::SimTime;
use kmsg_telemetry::{EventKind, Recorder};

use crate::data::ratio::Ratio;

/// What a flow observed during one learning episode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct EpisodeObservation {
    /// Simulation time at the end of the episode (timestamps any
    /// telemetry the ratio policy emits).
    pub(crate) time: SimTime,
    /// Delivered throughput over the episode, bytes/second.
    pub(crate) throughput: f64,
    /// The ratio actually achieved on the wire during the episode.
    pub(crate) achieved_ratio: Ratio,
}

/// Chooses the target protocol ratio, episode by episode.
pub(crate) trait ProtocolRatioPolicy: Send {
    /// The ratio to start with (also re-initialises internal state).
    fn initial_ratio(&mut self) -> Ratio;

    /// Consumes one episode's observation, returns the next target ratio.
    fn episode_update(&mut self, obs: &EpisodeObservation) -> Ratio;
}

/// A fixed target ratio (§IV-C1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct StaticRatio(pub(crate) Ratio);

impl ProtocolRatioPolicy for StaticRatio {
    fn initial_ratio(&mut self) -> Ratio {
        self.0
    }

    fn episode_update(&mut self, _obs: &EpisodeObservation) -> Ratio {
        self.0
    }
}

/// The value-function backend for `TdRatioLearner`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ValueBackend {
    /// Dense `Q(s,a)` matrix (Figure 4: converges too slowly).
    Matrix,
    /// Model-collapsed `V(s)` (Figure 5: ≈20 s).
    Model,
    /// `V(s)` with quadratic approximation (Figure 6: seconds; default).
    #[default]
    Approx,
}

/// Configuration for `TdRatioLearner`.
#[derive(Debug, Clone)]
pub struct TdConfig {
    /// Value-function backend.
    pub backend: ValueBackend,
    /// Sarsa(λ) hyper-parameters (the paper: α=.5, γ=.5, λ=.85).
    pub sarsa: SarsaConfig,
    /// Discretised ratio space (the paper: κ=1/5, two-step actions).
    pub space: RatioSpace,
}

impl Default for TdConfig {
    fn default() -> Self {
        TdConfig {
            backend: ValueBackend::Approx,
            sarsa: SarsaConfig::default(),
            space: RatioSpace::default(),
        }
    }
}

/// Reward = throughput / `REWARD_SCALE` (bytes/s): 10 MB/s ⇒ reward 1.
const REWARD_SCALE: f64 = 10e6;

/// The ratio to start exploring from.
const INITIAL_RATIO: Ratio = Ratio::BALANCED;

/// The TD(λ) ratio learner (§IV-C2).
pub(crate) struct TdRatioLearner {
    cfg: TdConfig,
    sarsa: Sarsa<Box<dyn ActionValue>, RngStream>,
    /// The state currently in effect (the ratio the flow is running at).
    current: StateIdx,
    started: bool,
    /// Episode-end sim time in nanoseconds, stored at `episode_update`
    /// entry so the decision probe (which fires inside the Sarsa step)
    /// can timestamp its events.
    now_ns: Arc<AtomicU64>,
}

impl std::fmt::Debug for TdRatioLearner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TdRatioLearner")
            .field("backend", &self.cfg.backend)
            .field("epsilon", &self.sarsa.epsilon())
            .field("steps", &self.sarsa.steps())
            .finish()
    }
}

impl TdRatioLearner {
    /// Creates the learner with its own deterministic random stream.
    #[must_use]
    pub(crate) fn new(cfg: TdConfig, rng: RngStream) -> Self {
        let space = cfg.space;
        let value: Box<dyn ActionValue> = match cfg.backend {
            ValueBackend::Matrix => Box::new(MatrixQ::new(space)),
            ValueBackend::Model => Box::new(ModelV::new(space)),
            ValueBackend::Approx => Box::new(ApproxV::new(space)),
        };
        let current = space.nearest_state(INITIAL_RATIO.signed());
        TdRatioLearner {
            sarsa: Sarsa::new(space, cfg.sarsa, value, rng),
            cfg,
            current,
            started: false,
            now_ns: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Bridges this learner's decisions into a telemetry recorder as
    /// [`EventKind::Decision`] events tagged with `flow`. Timestamps come
    /// from the [`EpisodeObservation::time`] of the episode being consumed,
    /// so two same-seed runs emit identical streams. Each decision also
    /// leaves a root `decide` instant span keyed by the flow, so traces
    /// show when the learner adjusted the split ratio.
    pub(crate) fn attach_recorder(&mut self, rec: Recorder, flow: u64) {
        let now_ns = self.now_ns.clone();
        let tracer = rec.tracer();
        self.sarsa
            .set_probe(Some(Box::new(move |d: DecisionRecord| {
                let t = now_ns.load(Ordering::Relaxed);
                tracer.instant(
                    t,
                    kmsg_telemetry::SpanKind::Decide,
                    kmsg_telemetry::SpanId::NONE,
                    kmsg_telemetry::SpanId::NONE,
                    flow,
                );
                rec.record(
                    t,
                    EventKind::Decision {
                        flow,
                        step: d.step,
                        state: d.state as u64,
                        action: d.action as u64,
                        reward: d.reward,
                        epsilon: d.epsilon,
                        greedy: d.greedy,
                    },
                );
            })));
    }
}

impl ProtocolRatioPolicy for TdRatioLearner {
    fn initial_ratio(&mut self) -> Ratio {
        let space = self.cfg.space;
        self.current = space.nearest_state(INITIAL_RATIO.signed());
        let action = self.sarsa.begin(self.current);
        self.current = space.transition(self.current, action);
        self.started = true;
        Ratio::from_signed(space.state_value(self.current))
    }

    fn episode_update(&mut self, obs: &EpisodeObservation) -> Ratio {
        if !self.started {
            return self.initial_ratio();
        }
        self.now_ns.store(obs.time.as_nanos(), Ordering::Relaxed);
        let space = self.cfg.space;
        let reward = obs.throughput / REWARD_SCALE;
        // We are *at* `current` (the result of the last action); feed the
        // reward, get the next action, move.
        let action = self.sarsa.step(reward, self.current);
        self.current = space.transition(self.current, action);
        Ratio::from_signed(space.state_value(self.current))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmsg_netsim::rng::SeedSource;

    fn obs(throughput: f64, achieved: Ratio) -> EpisodeObservation {
        EpisodeObservation {
            time: SimTime::ZERO,
            throughput,
            achieved_ratio: achieved,
        }
    }

    /// A synthetic environment whose throughput is a quadratic with a peak
    /// at the given signed ratio (the paper's assumed reward shape).
    fn env_throughput(ratio: Ratio, peak: f64) -> f64 {
        let x = ratio.signed();
        let base = 1.0 - (x - peak) * (x - peak) / 4.0;
        base.max(0.05) * 100e6
    }

    fn run_learner(backend: ValueBackend, peak: f64, episodes: usize, seed: u64) -> Vec<f64> {
        let cfg = TdConfig {
            backend,
            ..TdConfig::default()
        };
        let mut learner = TdRatioLearner::new(cfg, SeedSource::new(seed).stream("prp-test"));
        let mut ratio = learner.initial_ratio();
        let mut history = Vec::new();
        for _ in 0..episodes {
            let throughput = env_throughput(ratio, peak);
            ratio = learner.episode_update(&obs(throughput, ratio));
            history.push(ratio.signed());
        }
        history
    }

    #[test]
    fn static_policy_never_moves() {
        let mut p = StaticRatio(Ratio::from_signed(-0.4));
        assert_eq!(p.initial_ratio(), Ratio::from_signed(-0.4));
        assert_eq!(
            p.episode_update(&obs(1e6, Ratio::BALANCED)),
            Ratio::from_signed(-0.4)
        );
    }

    #[test]
    fn model_learner_finds_tcp_favoured_peak() {
        // Average the tail over several seeds: the learner must sit on the
        // TCP side when the reward peaks at -1 (fast LAN).
        let mut tail_sum = 0.0;
        let seeds = 6;
        for seed in 0..seeds {
            let h = run_learner(ValueBackend::Model, -1.0, 120, seed);
            let tail = &h[h.len() - 30..];
            tail_sum += tail.iter().sum::<f64>() / tail.len() as f64;
        }
        let mean_tail = tail_sum / f64::from(seeds as u32);
        assert!(
            mean_tail < -0.3,
            "model learner should settle TCP-side, got {mean_tail}"
        );
    }

    #[test]
    fn approx_learner_converges_quickly() {
        // The paper runs the model-based/approximated learners with a
        // lower eps_max = 0.3 (Figures 5 and 6).
        let cfg = TdConfig {
            backend: ValueBackend::Approx,
            sarsa: SarsaConfig {
                exploration: kmsg_learning::EpsilonGreedyConfig {
                    epsilon_max: 0.3,
                    epsilon_min: 0.1,
                    epsilon_decay: 0.01,
                },
                ..SarsaConfig::default()
            },
            ..TdConfig::default()
        };
        let mut tail_sum = 0.0;
        let seeds = 6;
        for seed in 0..seeds {
            let mut learner =
                TdRatioLearner::new(cfg.clone(), SeedSource::new(seed).stream("prp-test"));
            let mut ratio = learner.initial_ratio();
            let mut tail = Vec::new();
            for ep in 0..60 {
                let throughput = env_throughput(ratio, 1.0);
                ratio = learner.episode_update(&obs(throughput, ratio));
                if ep >= 30 {
                    tail.push(ratio.signed());
                }
            }
            tail_sum += tail.iter().sum::<f64>() / tail.len() as f64;
        }
        let mean_tail = tail_sum / f64::from(seeds as u32);
        assert!(
            mean_tail > 0.3,
            "approx learner should be near the UDT peak within 60 episodes, got {mean_tail}"
        );
    }

    #[test]
    fn matrix_learner_explores_slowly() {
        // With the paper's parameters the matrix backend should on average
        // be farther from the peak than the approx backend after the same
        // number of episodes (Figure 4 vs 6).
        let episodes = 60;
        let seeds = 8;
        let mean_dist = |backend| {
            let mut sum = 0.0;
            for seed in 0..seeds {
                let h = run_learner(backend, 1.0, episodes, seed);
                let tail = &h[episodes - 15..];
                let pos = tail.iter().sum::<f64>() / tail.len() as f64;
                sum += (1.0 - pos).abs();
            }
            sum / f64::from(seeds as u32)
        };
        let matrix = mean_dist(ValueBackend::Matrix);
        let approx = mean_dist(ValueBackend::Approx);
        assert!(
            approx <= matrix + 0.05,
            "approx ({approx}) should track the peak at least as well as matrix ({matrix})"
        );
    }

    #[test]
    fn update_before_init_initialises() {
        let mut learner =
            TdRatioLearner::new(TdConfig::default(), SeedSource::new(2).stream("prp"));
        let r = learner.episode_update(&obs(1e6, Ratio::BALANCED));
        assert!((-1.0..=1.0).contains(&r.signed()));
    }

    #[test]
    fn attached_recorder_sees_decisions_with_episode_times() {
        let rec = Recorder::new();
        rec.enable();
        let mut learner =
            TdRatioLearner::new(TdConfig::default(), SeedSource::new(4).stream("prp"));
        learner.attach_recorder(rec.clone(), 7);
        let mut ratio = learner.initial_ratio();
        for ep in 1..=5u64 {
            let mut o = obs(10e6, ratio);
            o.time = SimTime::from_nanos(ep * 1_000_000_000);
            ratio = learner.episode_update(&o);
        }
        let events = rec.events();
        // Each episode records one Decision plus a zero-duration `decide`
        // span (open + close instants) on the same timestamp.
        assert_eq!(events.len(), 15, "three events per episode");
        let mut spans = 0usize;
        let mut decisions = Vec::new();
        for e in &events {
            match e.kind {
                EventKind::Decision {
                    flow, step, reward, ..
                } => {
                    assert_eq!(flow, 7);
                    assert!((reward - 1.0).abs() < 1e-9, "10 MB/s scales to reward 1");
                    decisions.push((e.time_ns, step));
                }
                EventKind::SpanOpen { kind, key, .. } => {
                    assert_eq!(kind, "decide");
                    assert_eq!(key, 7);
                    spans += 1;
                }
                EventKind::SpanClose { .. } => {}
                ref other => panic!("unexpected event {other:?}"),
            }
        }
        assert_eq!(spans, 5, "one decide span per episode");
        assert_eq!(decisions.len(), 5);
        for (i, (t, step)) in decisions.iter().enumerate() {
            assert_eq!(*t, (i as u64 + 1) * 1_000_000_000);
            assert_eq!(*step, i as u64);
        }
    }

    #[test]
    fn ratio_moves_in_discrete_steps() {
        let mut learner =
            TdRatioLearner::new(TdConfig::default(), SeedSource::new(3).stream("prp"));
        let mut prev = learner.initial_ratio().signed();
        for _ in 0..50 {
            let next = learner
                .episode_update(&obs(50e6, Ratio::from_signed(prev)))
                .signed();
            let step = (next - prev).abs();
            assert!(
                step < 0.4001,
                "actions move at most two kappa steps, got {step}"
            );
            prev = next;
        }
    }
}
