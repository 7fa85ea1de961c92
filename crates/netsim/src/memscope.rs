//! Thread-local allocation-scope tags for per-subsystem attribution.
//!
//! The scaling benchmark runs under a counting `GlobalAlloc` and wants to
//! report not just *how many* allocations each event costs but *which
//! subsystem* made them, so a regression names its offender. The hot-path
//! entry points (engine scheduling, fabric dispatch, the TCP/UDT stacks)
//! tag their extent with a scope id via `enter`; an instrumenting
//! allocator reads [`current`] — which never allocates and is safe from
//! inside `GlobalAlloc` — and attributes the allocation.
//!
//! The cost when nobody is counting is two thread-local `Cell` operations
//! per tagged entry point (an event-granularity cost, not per-allocation),
//! which is noise next to the mutex acquisitions those paths already do.

use std::cell::Cell;

/// Allocations outside any tagged extent.
pub const SCOPE_OTHER: usize = 0;
/// The simulation engine: event store growth (lane, wheel, cohorts).
pub const SCOPE_ENGINE: usize = 1;
/// The network fabric: routes, links, the packet pool.
pub const SCOPE_FABRIC: usize = 2;
/// The TCP stack: flows, segment buffers, timer buckets.
pub(crate) const SCOPE_TCP: usize = 3;
/// The UDT stack.
pub(crate) const SCOPE_UDT: usize = 4;
/// Number of distinct scopes.
pub const N_SCOPES: usize = 5;
/// Stable snake_case labels, indexed by scope id.
pub const SCOPE_LABELS: [&str; N_SCOPES] = ["other", "engine", "fabric", "tcp", "udt"];

thread_local! {
    static CURRENT: Cell<usize> = const { Cell::new(SCOPE_OTHER) };
}

/// The scope tag of the calling thread's current extent.
///
/// Never allocates and never panics (falls back to [`SCOPE_OTHER`] during
/// thread teardown), so it is callable from a `GlobalAlloc` implementation.
#[inline]
#[must_use]
pub fn current() -> usize {
    CURRENT.try_with(Cell::get).unwrap_or(SCOPE_OTHER)
}

/// Tags the calling thread with `scope` until the guard drops, restoring
/// the previous tag (scopes nest; the innermost wins).
#[inline]
#[must_use]
pub(crate) fn enter(scope: usize) -> ScopeGuard {
    debug_assert!(scope < N_SCOPES);
    let prev = CURRENT
        .try_with(|c| c.replace(scope))
        .unwrap_or(SCOPE_OTHER);
    ScopeGuard { prev }
}

/// Restores the previous scope tag on drop (see [`enter`]).
#[derive(Debug)]
pub(crate) struct ScopeGuard {
    prev: usize,
}

impl Drop for ScopeGuard {
    #[inline]
    fn drop(&mut self) {
        let _ = CURRENT.try_with(|c| c.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_nest_and_restore() {
        assert_eq!(current(), SCOPE_OTHER);
        {
            let _a = enter(SCOPE_TCP);
            assert_eq!(current(), SCOPE_TCP);
            {
                let _b = enter(SCOPE_ENGINE);
                assert_eq!(current(), SCOPE_ENGINE);
            }
            assert_eq!(current(), SCOPE_TCP);
        }
        assert_eq!(current(), SCOPE_OTHER);
    }

    #[test]
    fn labels_cover_all_scopes() {
        assert_eq!(SCOPE_LABELS.len(), N_SCOPES);
        for l in SCOPE_LABELS {
            assert!(!l.is_empty());
        }
    }
}
