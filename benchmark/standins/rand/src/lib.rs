//! Stand-in for `rand` 0.8 (with the `rand_core` traits folded in): the
//! [`RngCore`] / [`SeedableRng`] / [`Rng`] surface the kmsg crates use.
//!
//! The sampling algorithms follow rand 0.8.5 — `seed_from_u64` expands
//! through PCG32, integers in a range use the widening-multiply rejection
//! zone, `f64` takes the top 53 bits, `gen_bool` compares against
//! `p · 2⁶⁴` — so a generator that yields the same words yields the same
//! draws. That equivalence is by construction, not checked against the
//! published crate (the registry is unreachable here).

use std::ops::{Range, RangeInclusive};

/// The core of a random number generator.
pub trait RngCore {
    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest);
    }
}

/// A generator constructible from a seed.
pub trait SeedableRng: Sized {
    /// The seed type (a byte array).
    type Seed: Sized + Default + AsMut<[u8]>;

    /// Builds the generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds the generator from a `u64`, expanded through PCG32 exactly
    /// as `rand_core` 0.6 does.
    fn seed_from_u64(mut state: u64) -> Self {
        fn pcg32(state: &mut u64) -> [u8; 4] {
            const MUL: u64 = 6_364_136_223_846_793_005;
            const INC: u64 = 11_634_580_027_462_260_723;
            *state = state.wrapping_mul(MUL).wrapping_add(INC);
            let state = *state;
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let rot = (state >> 59) as u32;
            xorshifted.rotate_right(rot).to_le_bytes()
        }
        let mut seed = Self::Seed::default();
        let mut chunks = seed.as_mut().chunks_exact_mut(4);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&pcg32(&mut state));
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let n = rem.len();
            rem.copy_from_slice(&pcg32(&mut state)[..n]);
        }
        Self::from_seed(seed)
    }
}

/// Distributions and uniform range sampling.
pub mod distributions {
    use super::Rng;

    /// Types that can produce values of `T` from a generator.
    pub trait Distribution<T> {
        /// Draws one value.
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;

        /// An endless iterator of draws.
        fn sample_iter<R>(self, rng: R) -> DistIter<Self, R, T>
        where
            R: Rng,
            Self: Sized,
        {
            DistIter {
                distr: self,
                rng,
                _marker: std::marker::PhantomData,
            }
        }
    }

    /// Iterator returned by [`Distribution::sample_iter`].
    #[derive(Debug)]
    pub struct DistIter<D, R, T> {
        distr: D,
        rng: R,
        _marker: std::marker::PhantomData<T>,
    }

    impl<D: Distribution<T>, R: Rng, T> Iterator for DistIter<D, R, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            Some(self.distr.sample(&mut self.rng))
        }
    }

    /// The "natural" distribution of a type: all integers equally likely,
    /// floats uniform in `[0, 1)`, booleans fair.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Standard;

    macro_rules! standard_int {
        ($($ty:ty => $via:ident),* $(,)?) => {$(
            impl Distribution<$ty> for Standard {
                #[inline]
                fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> $ty {
                    rng.$via() as $ty
                }
            }
        )*};
    }
    standard_int!(
        u8 => next_u32, u16 => next_u32, u32 => next_u32, u64 => next_u64, usize => next_u64,
        i8 => next_u32, i16 => next_u32, i32 => next_u32, i64 => next_u64, isize => next_u64,
    );

    impl Distribution<bool> for Standard {
        #[inline]
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
            (rng.next_u32() as i32) < 0
        }
    }

    impl Distribution<f64> for Standard {
        #[inline]
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
            (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    /// Uniform sampling from a range.
    pub mod uniform {
        use super::super::{Range, RangeInclusive, Rng};
        use super::{Distribution, Standard};

        /// Types `gen_range` can sample.
        pub trait SampleUniform: Sized + PartialOrd {
            /// One draw from `[low, high)`.
            fn sample_exclusive<R: Rng + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
            /// One draw from `[low, high]`.
            fn sample_inclusive<R: Rng + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
        }

        /// Range expressions `gen_range` accepts.
        pub trait SampleRange<T> {
            /// One draw from the range.
            fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T;
            /// Whether the range holds no value.
            fn is_empty(&self) -> bool;
        }

        impl<T: SampleUniform> SampleRange<T> for Range<T> {
            fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T {
                T::sample_exclusive(self.start, self.end, rng)
            }
            // Negated on purpose: a NaN bound makes the range empty.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            fn is_empty(&self) -> bool {
                !(self.start < self.end)
            }
        }

        impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
            fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T {
                let (low, high) = self.into_inner();
                T::sample_inclusive(low, high, rng)
            }
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            fn is_empty(&self) -> bool {
                !(self.start() <= self.end())
            }
        }

        // rand 0.8.5 `UniformInt::sample_single_inclusive`: multiply a
        // random word by the range width and keep the high half, rejecting
        // the low halves above a conservatively rounded zone.
        macro_rules! uniform_int {
            ($($ty:ty, $unsigned:ty, $large:ty, $wide:ty);* $(;)?) => {$(
                impl SampleUniform for $ty {
                    #[inline]
                    fn sample_exclusive<R: Rng + ?Sized>(low: $ty, high: $ty, rng: &mut R) -> $ty {
                        assert!(low < high, "gen_range: low >= high");
                        Self::sample_inclusive(low, high - 1, rng)
                    }

                    #[inline]
                    fn sample_inclusive<R: Rng + ?Sized>(low: $ty, high: $ty, rng: &mut R) -> $ty {
                        assert!(low <= high, "gen_range: low > high");
                        let range = high.wrapping_sub(low).wrapping_add(1) as $unsigned as $large;
                        if range == 0 {
                            // The full domain: any value will do.
                            return Standard.sample(rng);
                        }
                        let zone = if <$unsigned>::MAX as u128 <= u128::from(u16::MAX) {
                            let ints_to_reject = (<$large>::MAX - range + 1) % range;
                            <$large>::MAX - ints_to_reject
                        } else {
                            (range << range.leading_zeros()).wrapping_sub(1)
                        };
                        loop {
                            let v: $large = Standard.sample(rng);
                            let wide = (v as $wide) * (range as $wide);
                            let hi = (wide >> <$large>::BITS) as $large;
                            let lo = wide as $large;
                            if lo <= zone {
                                return low.wrapping_add(hi as $ty);
                            }
                        }
                    }
                }
            )*};
        }
        uniform_int!(
            u8, u8, u32, u64; u16, u16, u32, u64; u32, u32, u32, u64;
            u64, u64, u64, u128; usize, usize, usize, u128;
            i8, u8, u32, u64; i16, u16, u32, u64; i32, u32, u32, u64;
            i64, u64, u64, u128; isize, usize, usize, u128;
        );

        macro_rules! uniform_float {
            ($($ty:ty, $bits:ty, $discard:expr, $exp_one:expr);* $(;)?) => {$(
                impl SampleUniform for $ty {
                    fn sample_exclusive<R: Rng + ?Sized>(low: $ty, high: $ty, rng: &mut R) -> $ty {
                        assert!(low < high, "gen_range: low >= high");
                        let mut scale = high - low;
                        assert!(scale.is_finite(), "gen_range: range overflow");
                        loop {
                            let word: $bits = Standard.sample(rng);
                            // A float in [1, 2) from the top mantissa bits.
                            let value1_2 = <$ty>::from_bits($exp_one | (word >> $discard));
                            let res = (value1_2 - 1.0) * scale + low;
                            if res < high {
                                return res;
                            }
                            // Rounding hit `high`: shrink the scale by one ulp.
                            scale = <$ty>::from_bits(scale.to_bits() - 1);
                        }
                    }

                    fn sample_inclusive<R: Rng + ?Sized>(low: $ty, high: $ty, rng: &mut R) -> $ty {
                        assert!(low <= high, "gen_range: low > high");
                        let max_rand = 1.0 - <$ty>::EPSILON;
                        let scale = (high - low) / max_rand;
                        let word: $bits = Standard.sample(rng);
                        let value1_2 = <$ty>::from_bits($exp_one | (word >> $discard));
                        ((value1_2 - 1.0) * scale + low).min(high)
                    }
                }
            )*};
        }
        uniform_float!(
            f64, u64, 12, 1023u64 << 52;
        );
    }
}

use distributions::uniform::{SampleRange, SampleUniform};
use distributions::{Distribution, Standard};

/// Types `Rng::fill` can fill.
pub trait Fill {
    /// Fills `self` with random data.
    fn fill_from<R: Rng + ?Sized>(&mut self, rng: &mut R);
}

impl Fill for [u8] {
    fn fill_from<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        rng.fill_bytes(self);
    }
}

/// Convenience sampling methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// A value from the [`Standard`] distribution.
    #[inline]
    fn gen<T>(&mut self) -> T
    where
        Standard: Distribution<T>,
    {
        Standard.sample(self)
    }

    /// A value uniformly drawn from `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: SampleRange<T>,
    {
        assert!(!range.is_empty(), "cannot sample empty range");
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p <= 1`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p = {p} outside [0, 1]");
        if p == 1.0 {
            return true;
        }
        // 2⁶⁴ as a float: the scale rand's Bernoulli multiplies by.
        let p_int = (p * (2.0 * (1u64 << 63) as f64)) as u64;
        self.next_u64() < p_int
    }

    /// An endless iterator of draws from `distr`.
    fn sample_iter<T, D>(self, distr: D) -> distributions::DistIter<D, Self, T>
    where
        D: Distribution<T>,
        Self: Sized,
    {
        distr.sample_iter(self)
    }

    /// Fills `dest` with random data.
    fn fill<T: Fill + ?Sized>(&mut self, dest: &mut T) {
        dest.fill_from(self);
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts upward: makes the range arithmetic checkable by hand.
    struct Counter(u64);
    impl RngCore for Counter {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            self.0
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for b in dest {
                *b = self.next_u64() as u8;
            }
        }
    }

    #[test]
    fn ranges_stay_inside() {
        let mut rng = Counter(1);
        for _ in 0..10_000 {
            let a = rng.gen_range(10..20u64);
            assert!((10..20).contains(&a));
            let b = rng.gen_range(-5..=5i32);
            assert!((-5..=5).contains(&b));
            let c = rng.gen_range(0..3usize);
            assert!(c < 3);
            let d = rng.gen_range(1.5..2.5f64);
            assert!((1.5..2.5).contains(&d));
            let e: f64 = rng.gen();
            assert!((0.0..1.0).contains(&e));
        }
    }

    #[test]
    fn range_uses_high_half_of_widening_multiply() {
        // One word w, range 10: result = (w * 10) >> 64.
        let mut rng = Counter(0);
        let w = 0x9e37_79b9_7f4a_7c15u64;
        let expect = ((u128::from(w) * 10) >> 64) as u64;
        assert_eq!(rng.gen_range(0..10u64), expect);
    }

    #[test]
    fn gen_bool_edges() {
        let mut rng = Counter(7);
        assert!(rng.gen_bool(1.0));
        assert!(!rng.gen_bool(0.0));
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "{hits}");
    }
}
