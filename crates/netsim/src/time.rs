//! Virtual time for the discrete-event simulation.
//!
//! [`SimTime`] is an instant on the simulation clock, measured in nanoseconds
//! since the start of the simulation. Durations are expressed with the
//! standard [`std::time::Duration`] so that simulation code reads like
//! ordinary time-based code.
//!
//! # Examples
//!
//! ```
//! use kmsg_netsim::time::SimTime;
//! use std::time::Duration;
//!
//! let t0 = SimTime::ZERO;
//! let t1 = t0 + Duration::from_millis(5);
//! assert_eq!(t1.duration_since(t0), Duration::from_millis(5));
//! assert!(t1 > t0);
//! ```

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// An instant on the simulation clock (nanoseconds since simulation start).
///
/// `SimTime` is a monotonically non-decreasing virtual clock value. It is
/// `Copy` and cheap to pass around. Arithmetic with [`Duration`] is provided
/// via the standard operator traits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// The latest representable instant; useful as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a `SimTime` from nanoseconds since simulation start.
    #[must_use]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates a `SimTime` from whole seconds since simulation start.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000_000)
    }

    /// Creates a `SimTime` from whole milliseconds since simulation start.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000_000)
    }

    /// Creates a `SimTime` from fractional seconds since simulation start.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid simulation time");
        SimTime((secs * 1e9).round() as u64)
    }

    /// Nanoseconds since simulation start.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds since simulation start.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration elapsed from `earlier` to `self`.
    ///
    /// Saturates to zero if `earlier` is later than `self`.
    #[must_use]
    pub fn duration_since(self, earlier: SimTime) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    #[must_use]
    pub(crate) fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    #[must_use]
    pub(crate) fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

fn duration_to_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Add<Duration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: Duration) -> SimTime {
        SimTime(
            self.0
                .checked_add(duration_to_nanos(rhs))
                .expect("simulation clock overflow"),
        )
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;

    fn sub(self, rhs: SimTime) -> Duration {
        self.duration_since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SimTime {
        /// Creates a `SimTime` from whole microseconds since simulation start.
        #[must_use]
        pub(crate) const fn from_micros(micros: u64) -> Self {
            SimTime(micros * 1_000)
        }

        /// Saturating addition of a duration.
        #[must_use]
        fn saturating_add(self, d: Duration) -> SimTime {
            SimTime(self.0.saturating_add(duration_to_nanos(d)))
        }
    }

    #[test]
    fn zero_is_default() {
        assert_eq!(SimTime::default(), SimTime::ZERO);
        assert_eq!(SimTime::ZERO.as_nanos(), 0);
    }

    #[test]
    fn add_duration() {
        let t = SimTime::from_secs(1) + Duration::from_millis(500);
        assert_eq!(t.as_nanos(), 1_500_000_000);
    }

    #[test]
    fn add_assign_duration() {
        let mut t = SimTime::ZERO;
        t += Duration::from_micros(3);
        assert_eq!(t.as_nanos(), 3_000);
    }

    #[test]
    fn duration_since_saturates() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(b.duration_since(a), Duration::from_secs(1));
        assert_eq!(a.duration_since(b), Duration::ZERO);
        assert_eq!(a - b, Duration::ZERO);
    }

    #[test]
    fn from_millis_and_micros() {
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimTime::from_micros(7).as_nanos(), 7_000);
        assert_eq!(SimTime::from_millis(1_000), SimTime::from_secs(1));
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(SimTime::from_secs_f64(0.5).as_nanos(), 500_000_000);
        assert_eq!(SimTime::from_secs_f64(0.0), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "invalid simulation time")]
    fn from_secs_f64_rejects_negative() {
        let _ = SimTime::from_secs_f64(-1.0);
    }

    #[test]
    fn min_max() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(b.max(a), b);
    }

    #[test]
    fn ordering_and_display() {
        assert!(SimTime::from_nanos(1) < SimTime::from_nanos(2));
        assert_eq!(format!("{}", SimTime::from_secs(1)), "1.000000s");
    }

    #[test]
    fn saturating_add_caps() {
        assert_eq!(
            SimTime::MAX.saturating_add(Duration::from_secs(1)),
            SimTime::MAX
        );
    }
}
