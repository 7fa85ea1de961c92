//! Action-value function backends for the TD(λ) learner.
//!
//! The paper evaluates three (§IV-C3..5):
//!
//! 1. [`MatrixQ`] — a dense `Q(s, a)` table. With 55 entries and ε decaying
//!    within ~70 steps, exploration cannot fill the table in time and the
//!    learner fails to converge (Figure 4).
//! 2. [`ModelV`] — collapses `Q(s, a) = V(M(s, a))` using the environment
//!    model, shrinking the space to 11 values; converges in ~20 s
//!    (Figure 5).
//! 3. [`ApproxV`] — additionally extrapolates unexplored `V` entries with a
//!    least-squares quadratic (the paper's assumption: the reward over the
//!    ratio space is unimodal quadratic), enabling greedy decisions after
//!    only two observations; converges within seconds and avoids late
//!    backtracking (Figure 6).

use crate::space::{ActionIdx, RatioSpace, StateIdx};

/// An action-value estimator `Q(s, a)` over a [`RatioSpace`].
pub trait ActionValue: Send {
    /// The learned estimate for `(s, a)`, or `None` if that entry has never
    /// been updated (and cannot be extrapolated).
    fn q(&self, s: StateIdx, a: ActionIdx) -> Option<f64>;

    /// Applies a TD update `Q(s, a) += increment` to the backing store.
    fn update(&mut self, s: StateIdx, a: ActionIdx, increment: f64);

    /// A short human-readable name for reports.
    fn name(&self) -> &'static str;
}

impl ActionValue for Box<dyn ActionValue> {
    fn q(&self, s: StateIdx, a: ActionIdx) -> Option<f64> {
        (**self).q(s, a)
    }

    fn update(&mut self, s: StateIdx, a: ActionIdx, increment: f64) {
        (**self).update(s, a, increment);
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// Dense `Q(s, a)` matrix (the paper's default, Figure 4).
#[derive(Debug, Clone)]
pub struct MatrixQ {
    space: RatioSpace,
    q: Vec<Option<f64>>,
}

impl MatrixQ {
    /// Creates an all-uninitialised matrix.
    #[must_use]
    pub fn new(space: RatioSpace) -> Self {
        MatrixQ {
            space,
            q: vec![None; space.num_states() * space.num_actions()],
        }
    }

    fn idx(&self, s: StateIdx, a: ActionIdx) -> usize {
        s.0 * self.space.num_actions() + a.0
    }

    /// Number of initialised entries (diagnostics: exploration coverage).
    #[must_use]
    pub fn initialized_entries(&self) -> usize {
        self.q.iter().filter(|v| v.is_some()).count()
    }
}

impl ActionValue for MatrixQ {
    fn q(&self, s: StateIdx, a: ActionIdx) -> Option<f64> {
        self.q[self.idx(s, a)]
    }

    fn update(&mut self, s: StateIdx, a: ActionIdx, increment: f64) {
        let i = self.idx(s, a);
        let v = self.q[i].unwrap_or(0.0) + increment;
        self.q[i] = Some(v);
    }

    fn name(&self) -> &'static str {
        "matrix-q"
    }
}

/// Model-collapsed state-value function: `Q(s, a) = V(M(s, a))`
/// (Figure 5).
#[derive(Debug, Clone)]
pub struct ModelV {
    space: RatioSpace,
    v: Vec<Option<f64>>,
}

impl ModelV {
    /// Creates an all-uninitialised state-value vector.
    #[must_use]
    pub fn new(space: RatioSpace) -> Self {
        ModelV {
            space,
            v: vec![None; space.num_states()],
        }
    }

    /// The learned `V(s)` entries (diagnostics).
    #[must_use]
    pub fn values(&self) -> &[Option<f64>] {
        &self.v
    }
}

impl ActionValue for ModelV {
    fn q(&self, s: StateIdx, a: ActionIdx) -> Option<f64> {
        self.v[self.space.transition(s, a).0]
    }

    fn update(&mut self, s: StateIdx, a: ActionIdx, increment: f64) {
        let target = self.space.transition(s, a).0;
        let v = self.v[target].unwrap_or(0.0) + increment;
        self.v[target] = Some(v);
    }

    fn name(&self) -> &'static str {
        "model-v"
    }
}

/// Model-collapsed `V(s)` with least-squares quadratic extrapolation of
/// unexplored entries (Figure 6).
///
/// Learned values always win; the fit only fills gaps, and only once at
/// least two observations exist (two points: linear fit; three or more:
/// quadratic fit).
#[derive(Debug, Clone)]
pub struct ApproxV {
    inner: ModelV,
}

impl ApproxV {
    /// Creates an empty approximated value function.
    #[must_use]
    pub fn new(space: RatioSpace) -> Self {
        ApproxV {
            inner: ModelV::new(space),
        }
    }

    /// The fitted value at ratio `x`, if enough observations exist.
    #[must_use]
    pub fn fitted(&self, x: f64) -> Option<f64> {
        let pts: Vec<(f64, f64)> = self
            .inner
            .values()
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.map(|y| (self.inner.space.state_value(StateIdx(i)), y)))
            .collect();
        match pts.len() {
            0 | 1 => None,
            2 => {
                let (x0, y0) = pts[0];
                let (x1, y1) = pts[1];
                let slope = (y1 - y0) / (x1 - x0);
                Some(y0 + slope * (x - x0))
            }
            _ => {
                let (a, b, c) = fit_quadratic(&pts)?;
                Some(a * x * x + b * x + c)
            }
        }
    }

    /// The learned (non-approximated) `V(s)` entries.
    #[must_use]
    pub fn learned_values(&self) -> &[Option<f64>] {
        self.inner.values()
    }
}

impl ActionValue for ApproxV {
    fn q(&self, s: StateIdx, a: ActionIdx) -> Option<f64> {
        let target = self.inner.space.transition(s, a);
        // Never use an approximated value when a learned one exists.
        self.inner.v[target.0].or_else(|| self.fitted(self.inner.space.state_value(target)))
    }

    fn update(&mut self, s: StateIdx, a: ActionIdx, increment: f64) {
        // The fit acts as a prior: a state's first real update starts from
        // its extrapolated value rather than zero.
        let target = self.inner.space.transition(s, a);
        if self.inner.v[target.0].is_none() {
            if let Some(prior) = self.fitted(self.inner.space.state_value(target)) {
                self.inner.v[target.0] = Some(prior);
            }
        }
        self.inner.update(s, a, increment);
    }

    fn name(&self) -> &'static str {
        "approx-v"
    }
}

/// Least-squares quadratic fit `y = a·x² + b·x + c` through `pts`
/// (normal equations, Gaussian elimination). Returns `None` if the system
/// is singular (e.g. all x identical).
#[must_use]
pub fn fit_quadratic(pts: &[(f64, f64)]) -> Option<(f64, f64, f64)> {
    if pts.len() < 3 {
        return None;
    }
    // Normal equations A^T A x = A^T y with rows [x^2, x, 1].
    let mut m = [[0.0f64; 4]; 3];
    for &(x, y) in pts {
        let r = [x * x, x, 1.0];
        for i in 0..3 {
            for j in 0..3 {
                m[i][j] += r[i] * r[j];
            }
            m[i][3] += r[i] * y;
        }
    }
    // Gaussian elimination with partial pivoting.
    for col in 0..3 {
        let pivot = (col..3).max_by(|&i, &j| {
            m[i][col]
                .abs()
                .partial_cmp(&m[j][col].abs())
                .expect("NaN in fit")
        })?;
        if m[pivot][col].abs() < 1e-12 {
            return None;
        }
        m.swap(col, pivot);
        for row in 0..3 {
            if row != col {
                let f = m[row][col] / m[col][col];
                let pivot_row = m[col];
                for (k, cell) in m[row].iter_mut().enumerate().skip(col) {
                    *cell -= f * pivot_row[k];
                }
            }
        }
    }
    Some((m[0][3] / m[0][0], m[1][3] / m[1][1], m[2][3] / m[2][2]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> RatioSpace {
        RatioSpace::default()
    }

    #[test]
    fn matrix_q_starts_uninitialised() {
        let q = MatrixQ::new(space());
        assert_eq!(q.initialized_entries(), 0);
        assert_eq!(q.q(StateIdx(0), ActionIdx(0)), None);
    }

    #[test]
    fn matrix_q_updates_accumulate() {
        let mut q = MatrixQ::new(space());
        q.update(StateIdx(3), ActionIdx(1), 0.5);
        q.update(StateIdx(3), ActionIdx(1), 0.25);
        assert_eq!(q.q(StateIdx(3), ActionIdx(1)), Some(0.75));
        assert_eq!(q.initialized_entries(), 1);
        assert_eq!(q.name(), "matrix-q");
    }

    #[test]
    fn model_v_collapses_state_space() {
        let mut v = ModelV::new(space());
        // Updating (s=5, a=+1 step) writes V(6); querying (s=7, a=-1 step)
        // reads the same entry.
        v.update(StateIdx(5), ActionIdx(3), 1.0);
        assert_eq!(v.q(StateIdx(7), ActionIdx(1)), Some(1.0));
        assert_eq!(v.q(StateIdx(5), ActionIdx(3)), Some(1.0));
        assert_eq!(v.q(StateIdx(5), ActionIdx(1)), None);
    }

    #[test]
    fn model_v_edge_clamping_shares_entries() {
        let mut v = ModelV::new(space());
        // At the left edge, all leftward actions collapse to state 0.
        v.update(StateIdx(0), ActionIdx(0), 2.0);
        assert_eq!(v.q(StateIdx(0), ActionIdx(1)), Some(2.0));
        assert_eq!(v.q(StateIdx(1), ActionIdx(1)), Some(2.0));
    }

    #[test]
    fn fit_quadratic_recovers_parabola() {
        let pts: Vec<(f64, f64)> = [-1.0, -0.5, 0.0, 0.5, 1.0]
            .iter()
            .map(|&x| (x, 2.0 * x * x - 3.0 * x + 1.0))
            .collect();
        let (a, b, c) = fit_quadratic(&pts).expect("fit");
        assert!((a - 2.0).abs() < 1e-9);
        assert!((b + 3.0).abs() < 1e-9);
        assert!((c - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fit_quadratic_rejects_degenerate() {
        assert!(fit_quadratic(&[(0.0, 1.0), (0.0, 2.0), (0.0, 3.0)]).is_none());
        assert!(fit_quadratic(&[(0.0, 1.0)]).is_none());
    }

    #[test]
    fn approx_v_prefers_learned_values() {
        let mut v = ApproxV::new(space());
        for (s, val) in [(0usize, 0.0), (5, 1.0), (10, 0.2)] {
            // Write via a no-op action so M(s, noop) = s.
            v.update(StateIdx(s), space().noop_action(), val);
        }
        // Learned value returned exactly.
        assert_eq!(v.q(StateIdx(5), space().noop_action()), Some(1.0));
        // Unexplored state gets a fitted value.
        let fitted = v.q(StateIdx(3), space().noop_action()).expect("fitted");
        assert!(fitted.is_finite());
        // Fitted parabola through (-1,0),(0,1),(1,0.2) peaks between -1..1.
        assert!(fitted > 0.0);
    }

    #[test]
    fn approx_v_linear_with_two_points() {
        let mut v = ApproxV::new(space());
        v.update(StateIdx(0), space().noop_action(), 0.0);
        v.update(StateIdx(10), space().noop_action(), 1.0);
        let mid = v.q(StateIdx(5), space().noop_action()).expect("linear fit");
        assert!((mid - 0.5).abs() < 1e-9);
    }

    #[test]
    fn approx_v_none_with_one_point() {
        let mut v = ApproxV::new(space());
        v.update(StateIdx(5), space().noop_action(), 1.0);
        assert_eq!(v.q(StateIdx(3), space().noop_action()), None);
    }
}
