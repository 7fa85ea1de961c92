//! Counting global allocator: calls, live bytes and their high-water
//! mark, and — only while switched on — calls split by the simulator's
//! `memscope` tag (engine / fabric / tcp / udt / other).
//!
//! The harness is one thread, so the counters never race; they are
//! atomics only because a `GlobalAlloc` must be `Sync`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};

use kmsg_netsim::memscope;

/// The allocator installed in the benchmark binary.
pub struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static SPLIT_ON: AtomicBool = AtomicBool::new(false);
#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static BY_SCOPE: [AtomicU64; memscope::N_SCOPES] = [ZERO; memscope::N_SCOPES];

#[inline]
fn count(grow: usize) {
    CALLS.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(grow, Relaxed) + grow;
    if live > PEAK.load(Relaxed) {
        PEAK.store(live, Relaxed);
    }
    if SPLIT_ON.load(Relaxed) {
        BY_SCOPE[memscope::current()].fetch_add(1, Relaxed);
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the bookkeeping around it touches only atomics and
// `memscope::current`, which is documented as allocation-free and
// callable from inside an allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        count(l.size());
        System.alloc(l)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        count(l.size());
        System.alloc_zeroed(l)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        LIVE.fetch_sub(l.size(), Relaxed);
        System.dealloc(p, l);
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new: usize) -> *mut u8 {
        LIVE.fetch_sub(l.size(), Relaxed);
        count(new);
        System.realloc(p, l, new)
    }
}

/// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) so far.
#[must_use]
pub fn calls() -> u64 {
    CALLS.load(Relaxed)
}

/// Bytes currently allocated.
#[must_use]
pub fn live_bytes() -> usize {
    LIVE.load(Relaxed)
}

/// Restarts the high-water mark at the current live size.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Highest live size since the last [`reset_peak`].
#[must_use]
pub fn peak_bytes() -> usize {
    PEAK.load(Relaxed)
}

/// Switches the per-scope split on or off (off for every timed repetition).
pub fn set_split(on: bool) {
    SPLIT_ON.store(on, Relaxed);
}

/// Calls per `memscope` tag, counted only while the split was on.
#[must_use]
pub fn by_scope() -> [u64; memscope::N_SCOPES] {
    std::array::from_fn(|i| BY_SCOPE[i].load(Relaxed))
}

/// Allocator calls made by `f`, total and (with the split on for the
/// duration) per scope.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, [u64; memscope::N_SCOPES]) {
    let was_on = SPLIT_ON.swap(true, Relaxed);
    let (c0, s0) = (calls(), by_scope());
    let out = f();
    let (c1, s1) = (calls(), by_scope());
    SPLIT_ON.store(was_on, Relaxed);
    (out, c1 - c0, std::array::from_fn(|i| s1[i] - s0[i]))
}
