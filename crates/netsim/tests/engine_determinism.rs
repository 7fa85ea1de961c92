//! Differential determinism tests for the timing-wheel engine.
//!
//! The `(time, seq)` execution contract is defined by [`heap_model`], a
//! pure binary-heap model of the schedule. These properties run randomized
//! schedules — past events that clamp to "now", zero-delay now-lane
//! events, far-future events that land in high wheel levels or the
//! overflow heap, and re-entrant scheduling from inside executing events —
//! through the engine and the model and require identical traces: same
//! `(fire time, label)` sequence, same per-phase executed counts, same
//! final clock and counters. Sampled schedules run on the crate's own
//! deterministic [`PropRunner`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::Rng;

use kmsg_netsim::engine::Sim;
use kmsg_netsim::rng::RngStream;
use kmsg_netsim::testutil::{run_churn, ChurnEvent, ChurnPhase, ChurnTrace, PropRunner};

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

/// The trace any engine honouring the `(time, seq)` contract produces for
/// `phases`: a min-heap keyed on `(due time, seq)`, where `seq` numbers
/// schedulings in order, so events due at the same time run in the order
/// they were scheduled. A due time in the past clamps to the clock, and
/// each phase's run leaves the clock at its horizon.
fn heap_model(phases: &[ChurnPhase]) -> ChurnTrace {
    // `scheduled[seq]` is the event scheduled with sequence number `seq`.
    let mut scheduled: Vec<&ChurnEvent> = Vec::new();
    let mut queue = BinaryHeap::new();
    let mut now = 0u64;
    let mut trace = ChurnTrace {
        firings: Vec::new(),
        executed_per_phase: Vec::new(),
        events_executed: 0,
        events_pending: 0,
        final_now: 0,
    };
    for phase in phases {
        for op in &phase.ops {
            queue.push(Reverse((op.time.max(now), scheduled.len())));
            scheduled.push(op);
        }
        let mut executed = 0;
        while let Some(&Reverse((at, seq))) = queue.peek() {
            if at > phase.horizon {
                break;
            }
            queue.pop();
            now = at;
            executed += 1;
            let event = scheduled[seq];
            trace.firings.push((at, event.label));
            for child in &event.children {
                queue.push(Reverse((at.saturating_add(child.time), scheduled.len())));
                scheduled.push(child);
            }
        }
        now = now.max(phase.horizon);
        trace.executed_per_phase.push(executed);
        trace.events_executed += executed;
    }
    trace.events_pending = queue.len();
    trace.final_now = now;
    trace
}

fn leaf(time: u64, label: u32) -> ChurnEvent {
    ChurnEvent {
        time,
        label,
        children: Vec::new(),
    }
}

/// Two same-seed runs with enabled flight recorders emit byte-identical
/// JSONL: [`run_churn`] records a `mark` for every churn event at its
/// virtual fire time, so equality here covers event order, timestamps and
/// serialisation.
#[test]
fn same_seed_runs_emit_byte_identical_jsonl() {
    let phases = vec![
        ChurnPhase {
            horizon: 5_000_000,
            ops: vec![
                ChurnEvent {
                    time: 1_000,
                    label: 1,
                    children: vec![leaf(0, 2), leaf(2_500, 3)],
                },
                leaf(4_000_000, 4),
            ],
        },
        ChurnPhase {
            horizon: 1 << 40,
            ops: vec![leaf(1 << 35, 5)],
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

/// The wheel engine executes any schedule as the heap model does, and both
/// produce the exact traces of two fixed schedules.
#[test]
fn wheel_engine_matches_heap_oracle() {
    PropRunner::new("engine-wheel-matches-heap")
        .cases(CASES)
        .run(phases, |phases| {
            let wheel = run_churn(&Sim::new(1), phases);
            assert_eq!(wheel, heap_model(phases));
            // The drain phase must have flushed everything.
            assert_eq!(wheel.events_pending, 0);
        });

    const SEC: u64 = 1_000_000_000;
    let fixed = [
        // Time order first, insertion order among events due together.
        (
            vec![ChurnPhase {
                horizon: SEC,
                ops: vec![
                    leaf(30_000, 0),
                    leaf(10_000, 1),
                    leaf(10_000, 2),
                    leaf(20_000, 3),
                ],
            }],
            ChurnTrace {
                firings: vec![(10_000, 1), (10_000, 2), (20_000, 3), (30_000, 0)],
                executed_per_phase: vec![4],
                events_executed: 4,
                events_pending: 0,
                final_now: SEC,
            },
        ),
        // A horizon with nothing due before it still advances the clock
        // (the past-due event of the second phase fires at 1 s), and a
        // far horizon drains what is left.
        (
            vec![
                ChurnPhase {
                    horizon: SEC,
                    ops: vec![leaf(5 * SEC, 0)],
                },
                ChurnPhase {
                    horizon: 1 << 46,
                    ops: vec![leaf(0, 1)],
                },
            ],
            ChurnTrace {
                firings: vec![(SEC, 1), (5 * SEC, 0)],
                executed_per_phase: vec![0, 2],
                events_executed: 2,
                events_pending: 0,
                final_now: 1 << 46,
            },
        ),
    ];
    for (phases, expected) in fixed {
        assert_eq!(heap_model(&phases), expected);
        assert_eq!(run_churn(&Sim::new(1), &phases), expected);
    }
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
