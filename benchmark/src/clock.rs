//! The two host clocks every figure is read from.
//!
//! *Wall* is `Instant` (monotonic). *CPU* is the process CPU-time clock:
//! on a shared two-core box it is the steadier of the two, because time
//! the process spends descheduled does not count.

use std::sync::OnceLock;
use std::time::Instant;

/// Monotonic wall-clock nanoseconds since the first call.
#[must_use]
pub fn wall_ns() -> u64 {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    ANCHOR.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[cfg(target_os = "linux")]
mod sys {
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }
    pub const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    extern "C" {
        pub fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
    }
}

/// CPU nanoseconds this process has consumed (user + system, all threads).
#[cfg(target_os = "linux")]
#[must_use]
pub fn cpu_ns() -> u64 {
    let mut ts = sys::Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `timespec` through the pointer,
    // which refers to a live, correctly laid out (two 64-bit fields on
    // every 64-bit Linux target) stack value; the symbol comes from the
    // libc that std already links.
    let rc = unsafe { sys::clock_gettime(sys::CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Without a process CPU clock the wall clock stands in.
#[cfg(not(target_os = "linux"))]
#[must_use]
pub fn cpu_ns() -> u64 {
    wall_ns()
}

/// A wall + CPU reading, for taking differences.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    /// Wall nanoseconds.
    pub wall: u64,
    /// Process CPU nanoseconds.
    pub cpu: u64,
}

impl Stamp {
    /// Reads both clocks.
    #[must_use]
    pub fn now() -> Stamp {
        Stamp {
            wall: wall_ns(),
            cpu: cpu_ns(),
        }
    }

    /// Wall seconds since `earlier`.
    #[must_use]
    pub fn wall_s_since(&self, earlier: &Stamp) -> f64 {
        (self.wall - earlier.wall) as f64 / 1e9
    }

    /// CPU seconds since `earlier`.
    #[must_use]
    pub fn cpu_s_since(&self, earlier: &Stamp) -> f64 {
        (self.cpu - earlier.cpu) as f64 / 1e9
    }
}
