//! Library core of the `fuzz` binary: seed checking and the parallel
//! first-failure sweep.
//!
//! Factored out of `bin/fuzz.rs` so integration tests can assert that the
//! parallel sweep is byte-identical to the sequential one without
//! spawning processes, and so other drivers (CI, the timing probe) can
//! reuse the world-checking logic.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use kmsg_apps::fuzz::{oracle_config, run_scenario, FuzzRun, ScenarioSpec};
use kmsg_oracle::{check_all, Violation};

use crate::sweep;

/// Runs a spec and applies the full oracle suite to its trace.
#[must_use]
pub fn check_spec(spec: &ScenarioSpec) -> (FuzzRun, Vec<Violation>) {
    let run = run_scenario(spec);
    let events = run.result.recorder.events();
    let violations = check_all(&events, &run.facts, &oracle_config(spec));
    (run, violations)
}

/// Generates and checks one seed, returning only the violations.
#[must_use]
pub fn check_seed(seed: u64) -> Vec<Violation> {
    check_spec(&ScenarioSpec::generate(seed)).1
}

/// Outcome of a first-failure sweep over a seed range.
#[derive(Debug)]
pub struct SweepOutcome<R> {
    /// Scenarios counted as run — sequential semantics: everything up to
    /// and including the first failure (worlds a parallel run completed
    /// beyond the failure are not counted, so the summary line matches
    /// `--jobs 1` byte for byte).
    pub ran: u64,
    /// Scenarios among `ran` that were oracle-clean.
    pub clean: u64,
    /// The first failure in **submission order** (the smallest failing
    /// seed the sequential loop would have hit), with the checker's
    /// payload for it.
    pub failure: Option<(u64, R)>,
    /// Whether the wall-clock budget expired before the range was done.
    pub budget_hit: bool,
}

/// Sweeps `seed_from..seed_to`, sharding seeds across `jobs` workers, and
/// stops at the first failure in submission order.
///
/// `check` returns `None` for a clean seed or `Some(payload)` for a
/// violating one. On a violation the sweep cancels every *later* seed
/// that has not started while guaranteeing all earlier seeds still run —
/// so the reported failure is exactly the one the sequential loop finds,
/// no matter which worker saw a failure first.
///
/// `deadline`, when set, is the soft wall-clock budget: no new world
/// starts after it passes (the first seed always runs). Budget expiry is
/// inherently wall-clock-dependent and therefore excluded from the
/// byte-identity guarantee.
pub fn sweep_seeds<R, C>(
    seed_from: u64,
    seed_to: u64,
    jobs: usize,
    deadline: Option<Instant>,
    check: C,
) -> SweepOutcome<R>
where
    R: Send,
    C: Fn(u64) -> Option<R> + Sync,
{
    let seeds: Vec<u64> = (seed_from..seed_to).collect();
    let budget_hit = AtomicBool::new(false);
    let results = sweep::map_cancel(jobs, seeds, |ctl, idx, seed| {
        if idx > 0 {
            if let Some(deadline) = deadline {
                if Instant::now() >= deadline {
                    budget_hit.store(true, Ordering::SeqCst);
                    return None; // never started
                }
            }
        }
        let verdict = check(seed);
        if verdict.is_some() {
            ctl.cancel_after(idx);
        }
        Some((seed, verdict))
    });

    let mut out = SweepOutcome {
        ran: 0,
        clean: 0,
        failure: None,
        budget_hit: budget_hit.load(Ordering::SeqCst),
    };
    for slot in results {
        match slot {
            // Skipped by cancellation, or budget expired before start.
            None | Some(None) => {}
            Some(Some((seed, verdict))) => {
                if out.failure.is_some() {
                    continue; // completed beyond the first failure
                }
                out.ran += 1;
                match verdict {
                    None => out.clean += 1,
                    Some(payload) => out.failure = Some((seed, payload)),
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_counts_match_sequential_semantics() {
        // Failures at seeds 7 and 13: the sweep must report 7, count ran=8
        // (seeds 0..=7) and clean=7, at any parallelism.
        for jobs in [1, 4] {
            let out = sweep_seeds(0, 30, jobs, None, |seed| {
                (seed == 7 || seed == 13).then(|| format!("boom {seed}"))
            });
            assert_eq!(out.ran, 8, "jobs={jobs}");
            assert_eq!(out.clean, 7, "jobs={jobs}");
            assert_eq!(out.failure, Some((7, "boom 7".to_string())), "jobs={jobs}");
            assert!(!out.budget_hit);
        }
    }

    #[test]
    fn clean_sweep_counts_everything() {
        for jobs in [1, 3] {
            let out = sweep_seeds(10, 25, jobs, None, |_| None::<()>);
            assert_eq!(out.ran, 15);
            assert_eq!(out.clean, 15);
            assert!(out.failure.is_none());
        }
    }

    #[test]
    fn expired_budget_still_runs_first_seed() {
        let past = Instant::now() - std::time::Duration::from_secs(1);
        let out = sweep_seeds(0, 50, 4, Some(past), |_| None::<()>);
        assert!(out.ran >= 1, "the first seed always runs");
        assert!(out.budget_hit);
    }
}
