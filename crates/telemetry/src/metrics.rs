//! A run's numbers: summary statistics over samples.
//!
//! Provides Welford online mean/variance ([`OnlineStats`]), five-number
//! summaries with percentiles ([`Summary`], `percentile_sorted`) and 95%
//! confidence intervals for the sample mean (as used for the paper's
//! Figure 9 error bars). A value a run publishes by name goes to
//! [`Recorder::set_gauge`](crate::Recorder::set_gauge) instead, and from
//! there into the snapshot's `gauges` section.

/// Online mean / variance accumulator (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use kmsg_telemetry::metrics::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert!((s.stddev() - 2.138).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for OnlineStats {
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples seen.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than two samples).
    #[must_use]
    pub(crate) fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    #[must_use]
    pub(crate) fn stderr(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.stddev() / (self.n as f64).sqrt()
        }
    }

    /// Relative standard error (stderr / |mean|); infinite for a zero mean.
    ///
    /// The paper repeats runs "until the relative standard error dropped
    /// below 10% of the sample mean".
    #[must_use]
    pub fn relative_stderr(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            f64::INFINITY
        } else {
            self.stderr() / m.abs()
        }
    }

    /// Half-width of the 95% confidence interval for the mean, using
    /// Student's t critical value for the sample size.
    #[must_use]
    pub fn ci95_half_width(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        t_critical_95((self.n - 1) as usize) * self.stderr()
    }
}

/// Two-sided 95% Student-t critical value for `df` degrees of freedom.
fn t_critical_95(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::INFINITY,
        n if n <= 30 => TABLE[n - 1],
        n if n <= 60 => 2.02,
        n if n <= 120 => 1.98,
        _ => 1.96,
    }
}

/// Five-number summary (min / p25 / median / p75 / max) plus mean, over a
/// batch of samples. Used for the paper's Figure 1 box plots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Minimum.
    pub min: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub p75: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Summary {
    /// Computes the summary of `samples`, or `None` when `samples` is
    /// empty (there is no meaningful five-number summary of nothing).
    ///
    /// # Panics
    ///
    /// Panics if `samples` contains NaN.
    #[must_use]
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        Some(Summary {
            count: sorted.len(),
            min: sorted[0],
            p25: percentile_sorted(&sorted, 0.25),
            median: percentile_sorted(&sorted, 0.5),
            p75: percentile_sorted(&sorted, 0.75),
            max: sorted[sorted.len() - 1],
            mean,
        })
    }
}

/// Linear-interpolated percentile of an ascending-sorted slice, `q` in
/// `[0, 1]`. Returns 0.0 for an empty slice (documented sentinel, so
/// report-generation code never panics on a dataset that produced no
/// samples).
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`.
#[must_use]
pub(crate) fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "percentile rank out of range");
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            let frac = pos - lo as f64;
            sorted[lo] + (sorted[hi] - sorted[lo]) * frac
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl OnlineStats {
        /// Smallest sample seen (NaN-free; +inf if empty).
        #[must_use]
        fn min(&self) -> f64 {
            self.min
        }

        /// Largest sample seen (-inf if empty).
        #[must_use]
        fn max(&self) -> f64 {
            self.max
        }

        /// Merges another accumulator into this one (parallel Welford).
        fn merge(&mut self, other: &OnlineStats) {
            if other.n == 0 {
                return;
            }
            if self.n == 0 {
                *self = *other;
                return;
            }
            let n1 = self.n as f64;
            let n2 = other.n as f64;
            let delta = other.mean - self.mean;
            let total = n1 + n2;
            self.mean += delta * n2 / total;
            self.m2 += other.m2 + delta * delta * n1 * n2 / total;
            self.n += other.n;
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        for x in [1.0, 2.0, 3.0, 4.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert!((s.variance() - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
    }

    #[test]
    fn default_starts_min_and_max_at_the_infinities() {
        let mut s = OnlineStats::default();
        assert_eq!(s, OnlineStats::new());
        s.push(2.0);
        s.push(3.0);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 3.0);
    }

    #[test]
    fn online_stats_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = OnlineStats::new();
        for &x in &xs {
            all.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
        assert_eq!(a.count(), 100);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        let before = a;
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);
        let mut e = OnlineStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn ci95_small_sample() {
        let mut s = OnlineStats::new();
        for x in [10.0, 12.0, 11.0, 13.0, 9.0] {
            s.push(x);
        }
        // df = 4 -> t = 2.776
        let expected = 2.776 * s.stderr();
        assert!((s.ci95_half_width() - expected).abs() < 1e-12);
    }

    #[test]
    fn ci95_large_sample_uses_normal() {
        let mut s = OnlineStats::new();
        for i in 0..1000 {
            s.push(i as f64);
        }
        assert!((s.ci95_half_width() - 1.96 * s.stderr()).abs() < 1e-9);
    }

    #[test]
    fn relative_stderr_shrinks() {
        let mut s = OnlineStats::new();
        s.push(100.0);
        s.push(110.0);
        let r2 = s.relative_stderr();
        for _ in 0..20 {
            s.push(105.0);
        }
        assert!(s.relative_stderr() < r2);
    }

    #[test]
    fn summary_quartiles() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).expect("non-empty");
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.p25, 2.0);
        assert_eq!(s.p75, 4.0);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.count, 5);
    }

    #[test]
    fn summary_of_empty_is_none() {
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [0.0, 10.0];
        assert_eq!(percentile_sorted(&v, 0.5), 5.0);
        assert_eq!(percentile_sorted(&v, 0.0), 0.0);
        assert_eq!(percentile_sorted(&v, 1.0), 10.0);
        assert_eq!(percentile_sorted(&[7.0], 0.3), 7.0);
        assert_eq!(percentile_sorted(&[], 0.9), 0.0, "empty-slice sentinel");
    }
}
