//! Reusable test fixtures for transport-level tests.
//!
//! Public (not `cfg(test)`) so that integration tests and downstream crates
//! can drive simulated connections without re-implementing boilerplate.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use parking_lot::Mutex;

use crate::engine::Sim;
use crate::iface::{CloseReason, Connection, StreamEvents};
use crate::time::SimTime;
use crate::trace::{PacketRecord, PacketTracer};

/// A [`PacketTracer`] that keeps every record, in order.
#[derive(Debug, Default)]
pub struct CollectingTracer(Mutex<Vec<PacketRecord>>);

impl CollectingTracer {
    /// Everything recorded so far, oldest first.
    #[must_use]
    pub fn records(&self) -> Vec<PacketRecord> {
        self.0.lock().clone()
    }
}

impl PacketTracer for CollectingTracer {
    fn record(&self, record: PacketRecord) {
        self.0.lock().push(record);
    }
}

/// A no-op [`StreamEvents`] implementation.
#[derive(Debug, Clone, Copy, Default)]
pub struct SinkEvents;

impl StreamEvents for SinkEvents {}

#[derive(Default)]
struct RecorderInner {
    data: Vec<u8>,
    connected: usize,
    writable: usize,
    closed: usize,
    close_reasons: Vec<CloseReason>,
    last_data_at: Option<SimTime>,
    first_data_at: Option<SimTime>,
}

/// Records everything a connection delivers; used to assert on transfer
/// contents, ordering and timing.
pub struct Recorder {
    sim: Option<Sim>,
    inner: Mutex<RecorderInner>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            sim: None,
            inner: Mutex::new(RecorderInner::default()),
        }
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Recorder")
            .field("data_len", &inner.data.len())
            .field("connected", &inner.connected)
            .field("closed", &inner.closed)
            .finish()
    }
}

impl Recorder {
    /// A recorder that timestamps arrivals on the given simulation clock.
    #[must_use]
    pub fn with_sim(sim: &Sim) -> Self {
        Recorder {
            sim: Some(sim.clone()),
            inner: Mutex::new(RecorderInner::default()),
        }
    }

    /// All delivered bytes, concatenated in delivery order.
    #[must_use]
    pub fn data(&self) -> Vec<u8> {
        self.inner.lock().data.clone()
    }

    /// Number of delivered bytes.
    #[must_use]
    pub fn data_len(&self) -> usize {
        self.inner.lock().data.len()
    }

    /// How many times `on_connected` fired.
    #[must_use]
    pub fn connected(&self) -> usize {
        self.inner.lock().connected
    }

    /// How many times `on_writable` fired.
    #[must_use]
    pub fn writable(&self) -> usize {
        self.inner.lock().writable
    }

    /// How many times `on_closed` fired.
    #[must_use]
    pub fn closed(&self) -> usize {
        self.inner.lock().closed
    }

    /// Close reasons observed, in order.
    #[must_use]
    pub fn close_reasons(&self) -> Vec<CloseReason> {
        self.inner.lock().close_reasons.clone()
    }

    /// Whether the delivered bytes follow the [`pattern_byte`] sequence,
    /// i.e. the stream arrived complete and in order.
    #[must_use]
    pub fn in_order(&self) -> bool {
        let inner = self.inner.lock();
        inner
            .data
            .iter()
            .enumerate()
            .all(|(i, &b)| b == pattern_byte(i))
    }

    /// Time of the last data delivery (requires [`Recorder::with_sim`]).
    #[must_use]
    pub fn last_data_at(&self) -> Option<SimTime> {
        self.inner.lock().last_data_at
    }

    /// Time of the first data delivery (requires [`Recorder::with_sim`]).
    #[must_use]
    pub fn first_data_at(&self) -> Option<SimTime> {
        self.inner.lock().first_data_at
    }

    /// Average goodput from simulation start to the last delivery, B/s.
    ///
    /// # Panics
    ///
    /// Panics if nothing was delivered or the recorder has no clock.
    #[must_use]
    pub fn goodput(&self) -> f64 {
        let inner = self.inner.lock();
        let last = inner.last_data_at.expect("no data recorded");
        inner.data.len() as f64 / last.as_secs_f64()
    }
}

impl StreamEvents for Recorder {
    fn on_connected(&self, _conn: &Connection) {
        self.inner.lock().connected += 1;
    }

    fn on_data(&self, _conn: &Connection, data: Bytes) {
        let mut inner = self.inner.lock();
        inner.data.extend_from_slice(&data);
        if let Some(sim) = &self.sim {
            let now = sim.now();
            inner.last_data_at = Some(now);
            inner.first_data_at.get_or_insert(now);
        }
    }

    fn on_writable(&self, _conn: &Connection) {
        self.inner.lock().writable += 1;
    }

    fn on_closed(&self, _conn: &Connection, reason: CloseReason) {
        let mut inner = self.inner.lock();
        inner.closed += 1;
        inner.close_reasons.push(reason);
    }
}

/// The deterministic byte at stream offset `i` used by [`PatternSender`].
#[must_use]
pub fn pattern_byte(i: usize) -> u8 {
    (i % 251) as u8
}

/// Builds the pattern slice for stream offsets `[offset, offset + len)`.
#[must_use]
pub fn pattern_bytes(offset: usize, len: usize) -> Bytes {
    Bytes::from((offset..offset + len).map(pattern_byte).collect::<Vec<u8>>())
}

struct PatternSenderInner {
    sent: usize,
    total: usize,
    done_sending_at: Option<SimTime>,
}

/// Pumps a deterministic byte pattern of `total` bytes into a connection,
/// refilling the send buffer from `on_connected` / `on_writable` callbacks.
pub struct PatternSender {
    sim: Sim,
    chunk: usize,
    close_when_done: bool,
    inner: Mutex<PatternSenderInner>,
}

impl std::fmt::Debug for PatternSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("PatternSender")
            .field("sent", &inner.sent)
            .field("total", &inner.total)
            .finish()
    }
}

impl PatternSender {
    /// Creates a sender for `total` pattern bytes.
    #[must_use]
    pub fn new(sim: &Sim, total: usize) -> Arc<Self> {
        Arc::new(PatternSender {
            sim: sim.clone(),
            chunk: 64 * 1024,
            close_when_done: false,
            inner: Mutex::new(PatternSenderInner {
                sent: 0,
                total,
                done_sending_at: None,
            }),
        })
    }

    /// Like [`PatternSender::new`] but closes the connection after the last
    /// byte is buffered.
    #[must_use]
    pub fn closing(sim: &Sim, total: usize) -> Arc<Self> {
        Arc::new(PatternSender {
            sim: sim.clone(),
            chunk: 64 * 1024,
            close_when_done: true,
            inner: Mutex::new(PatternSenderInner {
                sent: 0,
                total,
                done_sending_at: None,
            }),
        })
    }

    /// Starts pumping into an already-created connection (useful when the
    /// connection was opened before the sender existed).
    pub fn start(&self, conn: &Connection) {
        self.pump(conn);
    }

    /// Bytes accepted by the connection so far.
    #[must_use]
    pub fn sent(&self) -> usize {
        self.inner.lock().sent
    }

    /// When the final byte was accepted into the send buffer.
    #[must_use]
    pub fn done_sending_at(&self) -> Option<Duration> {
        self.inner
            .lock()
            .done_sending_at
            .map(|t| Duration::from_nanos(t.as_nanos()))
    }

    fn pump(&self, conn: &Connection) {
        loop {
            let (offset, want) = {
                let inner = self.inner.lock();
                if inner.sent >= inner.total {
                    return;
                }
                (inner.sent, (inner.total - inner.sent).min(self.chunk))
            };
            let accepted = conn.send(pattern_bytes(offset, want));
            let mut inner = self.inner.lock();
            inner.sent += accepted;
            if inner.sent >= inner.total {
                inner.done_sending_at = Some(self.sim.now());
                drop(inner);
                if self.close_when_done {
                    conn.close();
                }
                return;
            }
            if accepted < want {
                return; // buffer full; resume on on_writable
            }
        }
    }
}

impl StreamEvents for PatternSender {
    fn on_connected(&self, conn: &Connection) {
        self.pump(conn);
    }

    fn on_writable(&self, conn: &Connection) {
        self.pump(conn);
    }
}

/// One event in an engine-churn workload (see [`run_churn`]).
///
/// For top-level events of a [`ChurnPhase`], `time` is the *absolute* due
/// time in nanoseconds — possibly in the past, exercising clamp-to-now. For
/// `children`, `time` is a *delay* relative to the parent's fire time
/// (zero lands in the engine's now lane), exercising re-entrant scheduling
/// from inside an executing event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnEvent {
    /// Absolute due time (roots) or parent-relative delay (children), ns.
    pub time: u64,
    /// Identifies the event in the resulting trace.
    pub label: u32,
    /// Events this one schedules from inside its own execution.
    pub children: Vec<ChurnEvent>,
}

/// One scheduling phase: inject `ops`, then run to `horizon` (absolute ns).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnPhase {
    /// Horizon passed to `run_until` after scheduling this phase's ops.
    pub horizon: u64,
    /// Events scheduled (in order) before running.
    pub ops: Vec<ChurnEvent>,
}

/// Everything observable about one churn run; any engine implementing the
/// `(time, seq)` contract produces the same trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnTrace {
    /// `(fire time ns, label)` for every executed event, in execution order.
    pub firings: Vec<(u64, u32)>,
    /// Events executed per phase, as reported by `run_until`.
    pub executed_per_phase: Vec<u64>,
    /// Final cumulative `events_executed` counter.
    pub events_executed: u64,
    /// Events still pending after the last phase.
    pub events_pending: usize,
    /// Final clock value in ns.
    pub final_now: u64,
}

fn schedule_churn(sim: &Sim, log: Arc<Mutex<Vec<(u64, u32)>>>, at: u64, event: ChurnEvent) {
    sim.schedule_at(SimTime::from_nanos(at), move |sim: &Sim| {
        let now = sim.now().as_nanos();
        log.lock().push((now, event.label));
        sim.recorder().record(
            now,
            kmsg_telemetry::EventKind::Mark {
                id: u64::from(event.label),
                value: sim.events_executed(),
            },
        );
        for child in event.children {
            schedule_churn(sim, log.clone(), now.saturating_add(child.time), child);
        }
    });
}

/// Runs a churn workload on `sim` and returns its execution trace. Every
/// executed event also records a flight-recorder `mark` (its label, and
/// the executed-events counter) at its fire time.
///
/// Used by the engine determinism tests to compare the timing-wheel engine
/// against a heap model of the `(time, seq)` contract on randomized
/// schedules.
pub fn run_churn(sim: &Sim, phases: &[ChurnPhase]) -> ChurnTrace {
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut executed_per_phase = Vec::with_capacity(phases.len());
    for phase in phases {
        for op in &phase.ops {
            schedule_churn(sim, log.clone(), op.time, op.clone());
        }
        executed_per_phase.push(sim.run_until(SimTime::from_nanos(phase.horizon)));
    }
    let firings = log.lock().clone();
    ChurnTrace {
        firings,
        executed_per_phase,
        events_executed: sim.events_executed(),
        events_pending: sim.events_pending(),
        final_now: sim.now().as_nanos(),
    }
}

/// A minimal deterministic property-test runner with no dependencies
/// beyond the crate's own seeded RNG streams.
///
/// Each case draws its inputs from
/// `SeedSource::new(case).stream(<property name>)`, so a failure report
/// pins down the exact case: rebuilding that one stream replays the
/// failing inputs bit-for-bit, with no shrink corpus or state file on
/// disk. When a case's check panics, a drop guard prepends the property
/// name, case index and the `Debug` rendering of the generated input to
/// stderr before the panic unwinds into the test harness.
///
/// ```
/// use kmsg_netsim::testutil::PropRunner;
/// use rand::Rng;
///
/// PropRunner::new("doc-addition-commutes").cases(16).run(
///     |rng| (rng.gen_range(0i64..100), rng.gen_range(0i64..100)),
///     |&(a, b)| assert_eq!(a + b, b + a),
/// );
/// ```
#[derive(Debug, Clone)]
pub struct PropRunner {
    name: &'static str,
    cases: u64,
}

/// Prints replay instructions if dropped while the thread is panicking —
/// i.e. when the case's check failed.
struct CaseReport {
    name: &'static str,
    case: u64,
    input: String,
    armed: bool,
}

impl Drop for CaseReport {
    fn drop(&mut self) {
        if self.armed && std::thread::panicking() {
            eprintln!(
                "property {:?} failed on case {} — replay with \
                 SeedSource::new({}).stream({:?}); input: {}",
                self.name, self.case, self.case, self.name, self.input
            );
        }
    }
}

impl PropRunner {
    /// A runner for the named property. The name doubles as the RNG
    /// stream label, so distinct properties see distinct inputs even for
    /// equal case indices.
    #[must_use]
    pub fn new(name: &'static str) -> PropRunner {
        PropRunner { name, cases: 32 }
    }

    /// Overrides the number of cases (default 32).
    #[must_use]
    pub fn cases(mut self, cases: u64) -> PropRunner {
        self.cases = cases;
        self
    }

    /// Generates and checks every case. `generate` draws one input from
    /// the case's seeded stream; `check` panics (asserts) on violation.
    pub fn run<T: std::fmt::Debug>(
        &self,
        mut generate: impl FnMut(&mut crate::rng::RngStream) -> T,
        mut check: impl FnMut(&T),
    ) {
        for case in 0..self.cases {
            let mut rng = crate::rng::SeedSource::new(case).stream(self.name);
            let input = generate(&mut rng);
            let mut report = CaseReport {
                name: self.name,
                case,
                input: format!("{input:?}"),
                armed: true,
            };
            check(&input);
            report.armed = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prop_runner_replays_identical_inputs() {
        use rand::Rng;
        let sample = || {
            let mut seen = Vec::new();
            {
                let seen = &mut seen;
                PropRunner::new("testutil-replay").cases(8).run(
                    |rng| {
                        let v: u64 = rng.gen();
                        seen.push(v);
                        v
                    },
                    |_| {},
                );
            }
            seen
        };
        let a = sample();
        let b = sample();
        assert_eq!(a.len(), 8, "one input per case");
        assert_eq!(a, b, "same property and case must regenerate the same input");
    }

    #[test]
    fn pattern_bytes_are_deterministic() {
        let a = pattern_bytes(10, 100);
        let b = pattern_bytes(10, 100);
        assert_eq!(a, b);
        assert_eq!(a[0], pattern_byte(10));
        assert_eq!(a.len(), 100);
    }

    #[test]
    fn recorder_in_order_detects_corruption() {
        let rec = Recorder::default();
        {
            let mut inner = rec.inner.lock();
            inner.data.extend_from_slice(&pattern_bytes(0, 50));
        }
        assert!(rec.in_order());
        rec.inner.lock().data[10] ^= 0xff;
        assert!(!rec.in_order());
    }
}
