//! Differential determinism tests for the timing-wheel engine.
//!
//! The heap-based [`ReferenceSim`] defines the `(time, seq)` execution
//! contract. These properties run randomized schedules — past events that
//! clamp to "now", zero-delay now-lane events, far-future events that land
//! in high wheel levels or the overflow heap, and re-entrant scheduling
//! from inside executing events — through both engines and require
//! identical traces: same `(fire time, label)` sequence, same per-phase
//! executed counts, same final clock and counters. Sampled schedules run on
//! the crate's own deterministic [`PropRunner`].

use rand::Rng;

use kmsg_netsim::engine::Sim;
use kmsg_netsim::reference::ReferenceSim;
use kmsg_netsim::rng::RngStream;
use kmsg_netsim::testutil::{run_churn, ChurnEvent, ChurnPhase, PropRunner};

/// Randomized schedules per property.
const CASES: u64 = 256;

/// Child delays relative to the parent's fire time; heavily weighted toward
/// the zero-delay now lane (the simulation hot path).
fn child_delay(rng: &mut RngStream) -> u64 {
    match rng.gen_range(0u32..8) {
        0..=2 => 0,
        3..=4 => rng.gen_range(1u64..2_000),
        5..=6 => rng.gen_range(1u64..5_000_000),
        _ => 1u64 << rng.gen_range(20u32..=40),
    }
}

/// Absolute due times for top-level events: some in the (likely) past, some
/// near phase horizons, some far enough out to exercise the coarsest wheel
/// levels and the overflow heap.
fn root_time(rng: &mut RngStream) -> u64 {
    match rng.gen_range(0u32..7) {
        0..=2 => rng.gen_range(0u64..1 << 22),
        3..=5 => rng.gen_range(0u64..30_000_000),
        _ => 1u64 << rng.gen_range(30u32..=44),
    }
}

fn children(rng: &mut RngStream, depth: u32) -> Vec<ChurnEvent> {
    (0..rng.gen_range(0usize..3))
        .map(|_| churn_event(rng, depth))
        .collect()
}

/// An event that re-schedules up to `depth` further generations from inside
/// its own execution (half of the non-bottom events are leaves).
fn churn_event(rng: &mut RngStream, depth: u32) -> ChurnEvent {
    ChurnEvent {
        time: child_delay(rng),
        label: rng.gen(),
        children: if depth == 0 || rng.gen_bool(0.5) {
            Vec::new()
        } else {
            children(rng, depth - 1)
        },
    }
}

fn root_event(rng: &mut RngStream) -> ChurnEvent {
    ChurnEvent {
        time: root_time(rng),
        label: rng.gen(),
        children: children(rng, 2),
    }
}

fn phases(rng: &mut RngStream) -> Vec<ChurnPhase> {
    let mut horizon = 0u64;
    let mut phases: Vec<ChurnPhase> = (0..rng.gen_range(1usize..5))
        .map(|_| {
            horizon += rng.gen_range(1u64..10_000_000);
            let ops = (0..rng.gen_range(0usize..12))
                .map(|_| root_event(rng))
                .collect();
            ChurnPhase { horizon, ops }
        })
        .collect();
    // Final drain phase: far past every possible far-future event.
    phases.push(ChurnPhase {
        horizon: 1 << 46,
        ops: Vec::new(),
    });
    phases
}

/// Two same-seed runs with enabled flight recorders emit byte-identical
/// JSONL: every churn event records a `mark` via [`ChurnEngine::record_mark`]
/// at its virtual fire time, so equality here covers event order,
/// timestamps and serialisation.
///
/// [`ChurnEngine::record_mark`]: kmsg_netsim::testutil::ChurnEngine::record_mark
#[test]
fn same_seed_runs_emit_byte_identical_jsonl() {
    let phases = vec![
        ChurnPhase {
            horizon: 5_000_000,
            ops: vec![
                ChurnEvent {
                    time: 1_000,
                    label: 1,
                    children: vec![
                        ChurnEvent {
                            time: 0,
                            label: 2,
                            children: Vec::new(),
                        },
                        ChurnEvent {
                            time: 2_500,
                            label: 3,
                            children: Vec::new(),
                        },
                    ],
                },
                ChurnEvent {
                    time: 4_000_000,
                    label: 4,
                    children: Vec::new(),
                },
            ],
        },
        ChurnPhase {
            horizon: 1 << 40,
            ops: vec![ChurnEvent {
                time: 1 << 35,
                label: 5,
                children: Vec::new(),
            }],
        },
    ];
    let run = || {
        let sim = Sim::new(7);
        sim.recorder().enable();
        let trace = run_churn(&sim, &phases);
        (trace, sim.recorder().to_jsonl())
    };
    let (trace_a, jsonl_a) = run();
    let (trace_b, jsonl_b) = run();
    assert_eq!(trace_a, trace_b);
    assert_eq!(
        jsonl_a, jsonl_b,
        "flight-recorder JSONL must be byte-identical for equal seeds"
    );
    assert_eq!(jsonl_a.lines().count(), 5, "one mark per churn event");
    assert!(jsonl_a.lines().all(|l| l.contains("\"kind\":\"mark\"")));
}

/// The wheel engine and the heap oracle execute any schedule identically.
#[test]
fn wheel_engine_matches_heap_oracle() {
    PropRunner::new("engine-wheel-matches-heap")
        .cases(CASES)
        .run(phases, |phases| {
            let wheel = run_churn(&Sim::new(1), phases);
            let heap = run_churn(&ReferenceSim::new(), phases);
            assert_eq!(wheel, heap);
            // The drain phase must have flushed everything.
            assert_eq!(wheel.events_pending, 0);
        });
}

/// Two runs of the same schedule on the wheel engine are identical.
#[test]
fn wheel_engine_is_deterministic() {
    PropRunner::new("engine-wheel-deterministic")
        .cases(CASES)
        .run(phases, |phases| {
            let a = run_churn(&Sim::new(7), phases);
            let b = run_churn(&Sim::new(7), phases);
            assert_eq!(a, b);
        });
}
