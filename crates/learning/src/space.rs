//! The discretised state and action space of the protocol-ratio learner.
//!
//! The paper (§IV-C3) discretises the protocol ratio `r ∈ [-1, 1]` with a
//! fixed step `κ = 1/5`, giving `2/κ + 1 = 11` states, and allows actions
//! of up to two steps in either direction, giving 5 actions. The
//! environment model `M(s, a)` (§IV-C4) maps a state and an action to the
//! successor state with clamping at the edges:
//!
//! ```text
//! M(s, a) = min(s + a, max(S))  for s + a >= 0
//!           max(s + a, min(S))  for s + a <  0
//! ```
//!
//! [`RatioSpace`] is that space; the learner and the value backends take
//! it directly.

/// Index of a state in a [`RatioSpace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateIdx(pub usize);

/// Index of an action in a [`RatioSpace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActionIdx(pub usize);

/// The discretised ratio space `[-1, 1]` with step `κ = 1/steps_per_side`,
/// and actions of up to `max_step` steps in either direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RatioSpace {
    steps_per_side: usize,
    max_step: usize,
}

impl Default for RatioSpace {
    /// The paper's configuration: κ = 1/5 (11 states), two-step actions
    /// (5 actions) — an 11 × 5 `Q(s, a)` matrix with 55 entries.
    fn default() -> Self {
        RatioSpace::new(5, 2)
    }
}

impl RatioSpace {
    /// Creates a space with `steps_per_side` intervals on each side of zero
    /// (κ = 1/steps_per_side) and actions up to `max_step` steps.
    ///
    /// # Panics
    ///
    /// Panics if `steps_per_side` is zero or `max_step` is zero.
    #[must_use]
    pub fn new(steps_per_side: usize, max_step: usize) -> Self {
        assert!(steps_per_side > 0, "steps_per_side must be positive");
        assert!(max_step > 0, "max_step must be positive");
        RatioSpace {
            steps_per_side,
            max_step,
        }
    }

    /// Number of states (`2·steps_per_side + 1`).
    #[must_use]
    pub fn num_states(&self) -> usize {
        2 * self.steps_per_side + 1
    }

    /// Number of actions (`2·max_step + 1`).
    #[must_use]
    pub fn num_actions(&self) -> usize {
        2 * self.max_step + 1
    }

    /// The discretisation step κ.
    #[must_use]
    pub fn kappa(&self) -> f64 {
        1.0 / self.steps_per_side as f64
    }

    /// The ratio value in `[-1, 1]` of a state.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    #[must_use]
    pub fn state_value(&self, s: StateIdx) -> f64 {
        assert!(s.0 < self.num_states(), "state index out of range");
        (s.0 as f64 - self.steps_per_side as f64) / self.steps_per_side as f64
    }

    /// The signed step count of an action (e.g. -2..=2).
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    #[must_use]
    pub fn action_steps(&self, a: ActionIdx) -> isize {
        assert!(a.0 < self.num_actions(), "action index out of range");
        a.0 as isize - self.max_step as isize
    }

    /// The ratio delta of an action (e.g. -2/5..=2/5).
    #[must_use]
    pub fn action_value(&self, a: ActionIdx) -> f64 {
        self.action_steps(a) as f64 / self.steps_per_side as f64
    }

    /// The state whose value is nearest to `ratio ∈ [-1, 1]`.
    #[must_use]
    pub fn nearest_state(&self, ratio: f64) -> StateIdx {
        let clamped = ratio.clamp(-1.0, 1.0);
        let idx = ((clamped + 1.0) * self.steps_per_side as f64).round() as usize;
        StateIdx(idx.min(self.num_states() - 1))
    }

    /// The environment model `M(s, a)`: the successor state, clamped at the
    /// edges of the space.
    #[must_use]
    pub fn transition(&self, s: StateIdx, a: ActionIdx) -> StateIdx {
        let next = s.0 as isize + self.action_steps(a);
        StateIdx(next.clamp(0, self.num_states() as isize - 1) as usize)
    }

    /// The index of the "do nothing" action.
    #[must_use]
    pub fn noop_action(&self) -> ActionIdx {
        ActionIdx(self.max_step)
    }

    /// Iterates over all states.
    pub fn states(&self) -> impl Iterator<Item = StateIdx> {
        (0..self.num_states()).map(StateIdx)
    }

    /// Iterates over all actions.
    pub fn actions(&self) -> impl Iterator<Item = ActionIdx> {
        (0..self.num_actions()).map(ActionIdx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_dimensions() {
        let space = RatioSpace::default();
        assert_eq!(space.num_states(), 11);
        assert_eq!(space.num_actions(), 5);
        assert_eq!(space.num_states() * space.num_actions(), 55);
        assert!((space.kappa() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn state_values_span_minus_one_to_one() {
        let space = RatioSpace::default();
        assert_eq!(space.state_value(StateIdx(0)), -1.0);
        assert_eq!(space.state_value(StateIdx(5)), 0.0);
        assert_eq!(space.state_value(StateIdx(10)), 1.0);
        assert!((space.state_value(StateIdx(6)) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn action_values() {
        let space = RatioSpace::default();
        let vals: Vec<f64> = space.actions().map(|a| space.action_value(a)).collect();
        assert_eq!(vals, vec![-0.4, -0.2, 0.0, 0.2, 0.4]);
        assert_eq!(space.noop_action(), ActionIdx(2));
        assert_eq!(space.action_steps(ActionIdx(0)), -2);
    }

    #[test]
    fn transition_clamps_at_edges() {
        let space = RatioSpace::default();
        // M(-1, -1/5) = -1 (paper's example)
        assert_eq!(space.transition(StateIdx(0), ActionIdx(1)), StateIdx(0));
        assert_eq!(space.transition(StateIdx(10), ActionIdx(4)), StateIdx(10));
        assert_eq!(space.transition(StateIdx(5), ActionIdx(4)), StateIdx(7));
        assert_eq!(space.transition(StateIdx(5), ActionIdx(0)), StateIdx(3));
    }

    #[test]
    fn nearest_state_round_trip() {
        let space = RatioSpace::default();
        for s in space.states() {
            assert_eq!(space.nearest_state(space.state_value(s)), s);
        }
        assert_eq!(space.nearest_state(-2.0), StateIdx(0));
        assert_eq!(space.nearest_state(2.0), StateIdx(10));
        assert_eq!(space.nearest_state(0.09), StateIdx(5));
        assert_eq!(space.nearest_state(0.11), StateIdx(6));
    }

    #[test]
    #[should_panic(expected = "state index out of range")]
    fn state_value_bounds_checked() {
        let space = RatioSpace::default();
        let _ = space.state_value(StateIdx(11));
    }
}
