//! The arithmetic the report rests on: quartiles, the tail-percentile
//! rule, and the simulated fingerprint hash.

/// `(q1, median, q3)` by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which is what the
/// driver computes over its runs. A single sample is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of nothing");
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let n = x.len();
    if n == 1 {
        return (x[0], x[0], x[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The median alone.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// The tail percentile a sample of `n` supports: 0.99 when at least ten
/// samples lie beyond it, otherwise the highest quantile that still has
/// ten beyond (for `n <= 10`, the maximum). Returns `(quantile, beyond)`.
#[must_use]
pub fn tail_quantile(n: usize) -> (f64, usize) {
    if n == 0 {
        return (1.0, 0);
    }
    let rank_p99 = (0.99 * n as f64).ceil() as usize;
    if n - rank_p99 >= 10 {
        (0.99, n - rank_p99)
    } else if n > 10 {
        ((n - 10) as f64 / n as f64, 10)
    } else {
        (1.0, 0)
    }
}

/// Value at quantile `q` of an ascending slice, interpolated linearly
/// between the two nearest order statistics (position `q · (n − 1)`), so
/// that it moves with every change to the sample and never sits on a
/// plateau while samples are added or removed below it.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn quantile_sorted(sorted: &[u64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of nothing");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let below = sorted[pos.floor() as usize] as f64;
    let above = sorted[pos.ceil() as usize] as f64;
    below + (above - below) * pos.fract()
}

/// FNV-1a over 64-bit words: the simulated fingerprint's hash.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Folds one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Folds a sequence in, length first.
    pub fn words(&mut self, ws: impl ExactSizeIterator<Item = u64>) {
        self.word(ws.len() as u64);
        for w in ws {
            self.word(w);
        }
    }

    /// Folds a multiset in: the order the samples were collected in does
    /// not matter.
    pub fn multiset(&mut self, samples: &[u64]) {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        self.words(sorted.into_iter());
    }

    /// The hash so far.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(100_000), (0.99, 1000));
        assert_eq!(tail_quantile(1000), (0.99, 10));
        // 999 samples: p99 would leave only 9 beyond, so fall back.
        let (q, beyond) = tail_quantile(999);
        assert_eq!(beyond, 10);
        assert!((q - 989.0 / 999.0).abs() < 1e-12);
        assert_eq!(tail_quantile(413), (403.0 / 413.0, 10));
        assert_eq!(tail_quantile(10), (1.0, 0));
        assert_eq!(tail_quantile(0), (1.0, 0));
    }

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 500.5);
        assert!((quantile_sorted(&v, 0.99) - 990.01).abs() < 1e-9);
        assert_eq!(quantile_sorted(&v, 1.0), 1000.0);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&[7], 0.5), 7.0);
        assert_eq!(quantile_sorted(&[10, 20], 0.25), 12.5);
        // About ten samples lie beyond the supported tail quantile.
        let (q, beyond) = tail_quantile(413);
        let small: Vec<u64> = (1..=413).collect();
        let at = quantile_sorted(&small, q);
        assert!((at - (413 - beyond) as f64).abs() < 1.0, "{at}");
    }

    #[test]
    fn fingerprint_ignores_sample_order_but_not_content() {
        let mut a = Fingerprint::default();
        a.word(42);
        a.multiset(&[3, 1, 2, 2]);
        let mut b = Fingerprint::default();
        b.word(42);
        b.multiset(&[2, 3, 2, 1]);
        assert_eq!(a.value(), b.value());
        let mut c = Fingerprint::default();
        c.word(42);
        c.multiset(&[2, 3, 2, 2]);
        assert_ne!(a.value(), c.value());
        // Length is part of the hash: [1] then [2] differs from [1, 2].
        let mut d = Fingerprint::default();
        d.multiset(&[1]);
        d.multiset(&[2]);
        let mut e = Fingerprint::default();
        e.multiset(&[1, 2]);
        assert_ne!(d.value(), e.value());
    }
}
