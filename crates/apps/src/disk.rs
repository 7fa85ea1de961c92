//! A sequential-disk model.
//!
//! The paper's local (0 ms RTT) setup "simply measures disk throughput":
//! the file transfer is disk-to-disk, so both ends are rate-limited by
//! storage. [`DiskModel`] serialises accesses analytically, exactly like
//! the link model: each access occupies the disk for `bytes / rate` and
//! completes when the backlog before it has drained.

use kmsg_netsim::time::SimTime;
use std::time::Duration;

/// Sequential throughput of the c3.2xlarge SSDs in the paper's setup,
/// bytes/second (the observed disk-limited transfer rate).
pub const DISK_RATE: f64 = 110e6;

/// Memory-to-memory rate observed in the paper ("memory to memory we
/// reached even higher throughput of around 150 MB/s").
pub(crate) const MEMORY_RATE: f64 = 150e6;

/// An analytic sequential disk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskModel {
    rate: f64,
    busy_until: SimTime,
}

impl DiskModel {
    /// A disk with the given sequential rate in bytes/second.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not positive.
    #[must_use]
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0, "disk rate must be positive");
        DiskModel {
            rate,
            busy_until: SimTime::ZERO,
        }
    }

    /// Queues an access of `bytes` at `now`; returns when it completes.
    pub fn access(&mut self, now: SimTime, bytes: usize) -> SimTime {
        let start = self.busy_until.max(now);
        self.busy_until = start + Duration::from_secs_f64(bytes as f64 / self.rate);
        self.busy_until
    }

    /// When the disk becomes idle.
    #[must_use]
    pub(crate) fn busy_until(&self) -> SimTime {
        self.busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accesses_serialise() {
        let mut d = DiskModel::new(100e6);
        let t0 = SimTime::ZERO;
        let first = d.access(t0, 50_000_000); // 0.5 s
        let second = d.access(t0, 50_000_000); // queued behind: 1.0 s
        assert_eq!(first, SimTime::from_secs_f64(0.5));
        assert_eq!(second, SimTime::from_secs(1));
    }

    #[test]
    fn idle_disk_starts_immediately() {
        let mut d = DiskModel::new(100e6);
        let _ = d.access(SimTime::ZERO, 100_000_000);
        // After the backlog drains, a later access starts at `now`.
        let later = SimTime::from_secs(10);
        let done = d.access(later, 100_000_000);
        assert_eq!(done, SimTime::from_secs(11));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let _ = DiskModel::new(0.0);
    }
}
