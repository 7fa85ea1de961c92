//! Parallel multi-world sweep runner.
//!
//! The paper's evaluation is a parameter sweep: many independent,
//! self-contained simulation worlds (fuzz seeds, figure data points,
//! ablation cells). Each world is deterministic given its spec, so the
//! sweep is embarrassingly parallel — the only thing that must *not*
//! change with parallelism is the output. This module shards worlds
//! across a small work-stealing thread pool and reduces results in
//! **submission order**, so the artifacts a sweep produces (verdict
//! lists, figure tables, JSON exports) are byte-identical at `--jobs 1`
//! and `--jobs N`.
//!
//! Determinism model:
//!
//! * **Worlds never cross threads.** A task is a spec (seed, cell
//!   parameters); the worker thread that claims it constructs *and* runs
//!   the world. Nothing about a `Sim` needs to be `Send`.
//! * **Per-world isolation.** Every world owns its RNG streams, its
//!   flight recorder and its connection-id counter (all per-`Sim` since
//!   PR 2), so concurrent worlds cannot observe each other.
//! * **Ordered reduction.** Results land in a slot keyed by submission
//!   index; the caller reads them back as a `Vec` in submission order.
//!   Thread scheduling affects only wall-clock time, never output.
//!
//! For early-exit sweeps (the fuzzer stops at the first failing seed)
//! use `map_cancel` with a `SweepCtl`: `cancel_after(i)` guarantees
//! every index `<= i` still runs to completion while indices `> i` may
//! be skipped — so the *smallest* failing index is found exactly as the
//! sequential loop would find it, regardless of which thread saw a
//! failure first.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

/// Number of worker threads to use by default: the machine's available
/// parallelism, or 1 if it cannot be determined.
#[must_use]
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Cancellation handle passed to every task in [`map_cancel`].
///
/// `cancel_after(i)` sets a cutoff: indices greater than `i` may be
/// skipped, indices up to and including `i` always run. Calling it from
/// several tasks keeps the smallest cutoff, so the winning index is the
/// smallest one that requested cancellation — matching a sequential
/// early-exit loop.
#[derive(Debug)]
pub(crate) struct SweepCtl {
    /// Exclusive upper bound of indices that must still run.
    cutoff: AtomicUsize,
}

impl SweepCtl {
    fn new(len: usize) -> Self {
        SweepCtl {
            cutoff: AtomicUsize::new(len),
        }
    }

    /// Requests that indices strictly greater than `idx` be skipped.
    pub(crate) fn cancel_after(&self, idx: usize) {
        self.cutoff
            .fetch_min(idx.saturating_add(1), Ordering::SeqCst);
    }

    /// Whether `idx` is still required to run.
    #[must_use]
    pub(crate) fn wanted(&self, idx: usize) -> bool {
        idx < self.cutoff.load(Ordering::SeqCst)
    }
}

/// Runs `f` over every task, returning results in submission order.
///
/// `jobs <= 1` (or a sweep of one task) runs everything sequentially on
/// the calling thread — zero threads spawned, exactly today's behaviour.
/// Otherwise `min(jobs, tasks)` workers share the tasks through
/// work-stealing deques: each worker drains its own shard front-to-back
/// and steals from the back of a sibling's deque when idle.
pub fn map<T, R, F>(jobs: usize, tasks: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    map_cancel(jobs, tasks, |_ctl, idx, task| f(idx, task))
        .into_iter()
        .map(|r| r.expect("no cancellation requested"))
        .collect()
}

/// [`map`] with cooperative early exit. Skipped tasks yield `None`; the
/// prefix of indices below the final cutoff is always fully `Some`.
pub(crate) fn map_cancel<T, R, F>(jobs: usize, tasks: Vec<T>, f: F) -> Vec<Option<R>>
where
    T: Send,
    R: Send,
    F: Fn(&SweepCtl, usize, T) -> R + Sync,
{
    let n = tasks.len();
    let ctl = SweepCtl::new(n);
    let workers = jobs.clamp(1, n.max(1));
    if workers <= 1 {
        // Sequential fast path: no threads, no slots, no locking.
        let mut out = Vec::with_capacity(n);
        for (idx, task) in tasks.into_iter().enumerate() {
            if ctl.wanted(idx) {
                out.push(Some(f(&ctl, idx, task)));
            } else {
                out.push(None);
            }
        }
        return out;
    }

    // Task and result slots, keyed by submission index. A worker claims
    // an index from a deque, takes the task out of its slot, runs it on
    // this thread, and parks the result in the matching result slot.
    let task_slots: Vec<Mutex<Option<T>>> =
        tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let result_slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();

    // Round-robin pre-shard: worker w owns indices w, w+jobs, w+2*jobs…
    // Low indices are spread across workers, so under cancellation the
    // still-wanted prefix drains with full parallelism.
    let deques: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new((w..n).step_by(workers).collect()))
        .collect();

    let run_one = |idx: usize| {
        let task = task_slots[idx].lock().take();
        if let Some(task) = task {
            if ctl.wanted(idx) {
                let r = f(&ctl, idx, task);
                *result_slots[idx].lock() = Some(r);
            }
        }
    };

    std::thread::scope(|scope| {
        for me in 0..workers {
            let deques = &deques;
            let run_one = &run_one;
            scope.spawn(move || {
                loop {
                    // Own shard first (front: submission order)…
                    let idx = deques[me].lock().pop_front();
                    if let Some(idx) = idx {
                        run_one(idx);
                        continue;
                    }
                    // …then steal from a sibling's back.
                    let mut stole = false;
                    for other in (0..deques.len()).filter(|&o| o != me) {
                        let idx = deques[other].lock().pop_back();
                        if let Some(idx) = idx {
                            run_one(idx);
                            stole = true;
                            break;
                        }
                    }
                    if !stole {
                        break; // every deque empty: sweep drained
                    }
                }
            });
        }
    });

    result_slots.iter().map(|s| s.lock().take()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn preserves_submission_order_under_adversarial_delays() {
        // Early tasks sleep longest, so with several workers the results
        // *complete* in roughly reverse order — the output must still be
        // in submission order.
        let tasks: Vec<usize> = (0..24).collect();
        let out = map(4, tasks, |idx, v| {
            assert_eq!(idx, v);
            std::thread::sleep(Duration::from_millis(((24 - v) % 7) as u64));
            v * 10
        });
        assert_eq!(out, (0..24).map(|v| v * 10).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let work = |idx: usize, v: u64| -> u64 { v.wrapping_mul(31).wrapping_add(idx as u64) };
        let tasks: Vec<u64> = (0..57).map(|i| i * 3 + 1).collect();
        let seq = map(1, tasks.clone(), work);
        let par = map(4, tasks, work);
        assert_eq!(seq, par);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let calls = AtomicUsize::new(0);
        let out = map(8, (0..100).collect::<Vec<usize>>(), |_idx, v| {
            calls.fetch_add(1, Ordering::SeqCst);
            v
        });
        assert_eq!(calls.load(Ordering::SeqCst), 100);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn jobs_zero_and_one_run_in_caller_thread() {
        let caller = std::thread::current().id();
        for jobs in [0, 1] {
            let out = map(jobs, vec![1, 2, 3], |_idx, v| {
                assert_eq!(std::thread::current().id(), caller);
                v * 2
            });
            assert_eq!(out, vec![2, 4, 6]);
        }
    }

    #[test]
    fn cancel_after_keeps_the_full_prefix() {
        // Every task above 10 asks for cancellation; the smallest cutoff
        // must win and indices 0..=10 must all have run.
        let out = map_cancel(4, (0..64).collect::<Vec<usize>>(), |ctl, idx, v| {
            if idx >= 10 {
                ctl.cancel_after(10);
            }
            v
        });
        for (idx, slot) in out.iter().enumerate().take(11) {
            assert_eq!(slot.as_ref(), Some(&idx), "prefix index {idx} must run");
        }
        // Everything past the cutoff that did get skipped is None, and
        // nothing reordered: present values equal their index.
        for (idx, slot) in out.iter().enumerate() {
            if let Some(v) = slot {
                assert_eq!(*v, idx);
            }
        }
        assert!(out[11..].iter().any(Option::is_none), "some tail skipped");
    }

    #[test]
    fn cancel_smallest_failure_wins_regardless_of_discovery_order() {
        // Two "failures" at 5 and 20; whichever is discovered first, the
        // prefix up to 5 always runs, so a submission-order scan finds 5.
        for jobs in [1, 2, 4, 8] {
            let out = map_cancel(jobs, (0..40).collect::<Vec<usize>>(), |ctl, idx, v| {
                let failed = idx == 5 || idx == 20;
                if failed {
                    ctl.cancel_after(idx);
                }
                (v, failed)
            });
            let first_failure = out
                .iter()
                .enumerate()
                .find_map(|(i, r)| r.as_ref().and_then(|(_, f)| f.then_some(i)));
            assert_eq!(first_failure, Some(5), "jobs={jobs}");
        }
    }

    #[test]
    fn empty_sweep() {
        let out: Vec<u32> = map(4, Vec::<u32>::new(), |_i, v| v);
        assert!(out.is_empty());
    }
}
