//! Parallel-vs-sequential byte-identity for the sweep runner.
//!
//! The sweep runner's contract (see `kmsg_bench::sweep`) is that
//! `--jobs N` changes wall-clock time only: every artifact a sweep
//! produces — fuzz verdicts and flight-recorder traces, figure tables
//! and `BENCH_paper.json` rows — must be byte-identical to the sequential
//! run. These tests execute real worlds at `jobs = 1` and `jobs = 4`
//! and compare the artifacts byte for byte.

use kmsg_apps::fuzz::ScenarioSpec;
use kmsg_bench::fig1_core::{cells, run_cell, CellResult};
use kmsg_bench::fuzzer::check_spec;
use kmsg_bench::sweep;
use kmsg_netsim::rng::SeedSource;
use kmsg_oracle::render_verdict;
use kmsg_telemetry::json::Json;

/// Runs the fuzz sweep at a given parallelism, returning per-seed
/// (verdict text, flight-recorder JSONL) artifacts in submission order.
fn fuzz_artifacts(jobs: usize, seeds: std::ops::Range<u64>) -> Vec<(String, String)> {
    sweep::map(jobs, seeds.collect(), |_idx, seed: u64| {
        let spec = ScenarioSpec::generate(seed);
        let (run, violations) = check_spec(&spec);
        (render_verdict(&violations), run.result.recorder.to_jsonl())
    })
}

#[test]
fn fuzz_sweep_byte_identical_at_jobs_1_and_4() {
    let sequential = fuzz_artifacts(1, 0..8);
    let parallel = fuzz_artifacts(4, 0..8);
    assert_eq!(sequential.len(), parallel.len());
    for (seed, (s, p)) in sequential.iter().zip(&parallel).enumerate() {
        assert_eq!(s.0, p.0, "seed {seed}: verdicts diverged");
        assert!(
            s.1 == p.1,
            "seed {seed}: flight-recorder JSONL diverged ({} vs {} bytes)",
            s.1.len(),
            p.1.len()
        );
    }
}

/// Runs one fuzz scenario under the sweep runner and exports its causal
/// spans as a Chrome trace (`--trace-out` format).
fn chrome_trace_artifacts(jobs: usize, seeds: std::ops::Range<u64>) -> Vec<String> {
    sweep::map(jobs, seeds.collect(), |_idx, seed: u64| {
        let spec = ScenarioSpec::generate(seed);
        let (run, _) = check_spec(&spec);
        kmsg_telemetry::export::to_chrome_trace(&run.result.recorder.events())
    })
}

#[test]
fn chrome_trace_byte_identical_at_jobs_1_and_4() {
    // The trace export is a pure function of the event stream and span ids
    // come from a per-world counter, so the rendered Perfetto JSON must be
    // byte-identical at any sweep width.
    let sequential = chrome_trace_artifacts(1, 0..6);
    let parallel = chrome_trace_artifacts(4, 0..6);
    assert_eq!(sequential.len(), parallel.len());
    for (seed, (s, p)) in sequential.iter().zip(&parallel).enumerate() {
        assert!(
            s == p,
            "seed {seed}: chrome traces diverged ({} vs {} bytes)",
            s.len(),
            p.len()
        );
        assert!(
            s.contains("\"traceEvents\":["),
            "seed {seed}: trace export missing its envelope"
        );
    }
}

/// Runs the Figure 1 sweep at a given parallelism, returning the table
/// rows and the rendered `BENCH_paper.json` cell rows.
fn fig1_artifacts(jobs: usize, entries: usize) -> (Vec<String>, String) {
    let seeds = SeedSource::new(1);
    let results = sweep::map(jobs, cells(), |_idx, cell| run_cell(&cell, seeds, entries));
    let json = Json::Arr(results.iter().map(CellResult::to_json).collect()).render();
    let rows = results.into_iter().map(|r| r.row).collect();
    (rows, json)
}

#[test]
fn fig1_sweep_byte_identical_at_jobs_1_and_4() {
    let entries = 5_000; // CI-scale stream; identity must hold at any size
    let (rows_seq, json_seq) = fig1_artifacts(1, entries);
    let (rows_par, json_par) = fig1_artifacts(4, entries);
    assert_eq!(rows_seq, rows_par, "table rows diverged");
    assert!(
        json_seq == json_par,
        "BENCH_paper.json cell rows diverged ({} vs {} bytes)",
        json_seq.len(),
        json_par.len()
    );
}

#[test]
fn first_failure_matches_sequential_with_real_worlds() {
    // Treat an arbitrary scenario property as a "failure" so the sweep
    // exercises cancellation on real worlds: the first seed whose run
    // delivers out of order. The parallel sweep must report exactly the
    // seed the sequential scan finds (or agree there is none).
    let find = |jobs: usize| {
        kmsg_bench::fuzzer::sweep_seeds(0, 10, jobs, None, |seed| {
            let spec = ScenarioSpec::generate(seed);
            let (run, _) = check_spec(&spec);
            (run.result.out_of_order > 0).then_some(run.result.out_of_order)
        })
    };
    let seq = find(1);
    let par = find(4);
    assert_eq!(seq.failure, par.failure);
    assert_eq!(seq.ran, par.ran);
    assert_eq!(seq.clean, par.clean);
}
