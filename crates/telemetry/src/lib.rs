//! # kmsg-telemetry — deterministic sim-time telemetry
//!
//! Observability substrate for the KompicsMessaging reproduction: named
//! gauges, summary statistics ([`metrics`]), a **flight recorder**
//! capturing structured protocol events to a bounded in-memory ring,
//! JSON/JSONL exporters over the workspace's one JSON module ([`json`]),
//! and leveled logging for binaries.
//!
//! Three properties drive the design:
//!
//! * **Near-zero cost when off.** A [`Recorder`] starts disabled; every
//!   [`Recorder::record`] and [`Recorder::set_gauge`] call first checks
//!   one atomic flag, so instrumented hot paths pay a relaxed load and a
//!   predictable branch until someone calls [`Recorder::enable`]. Call
//!   sites whose event payload is expensive to build (formatting,
//!   sampling a queue) use [`Recorder::record_with`], which defers the
//!   construction behind the same check.
//! * **Mutex-free recording.** The flight-recorder ring is a
//!   *single-writer* structure: each simulated world owns exactly one
//!   recording thread, so [`Recorder::record`] claims the ring with one
//!   atomic flag (a single uncontended compare-exchange — no `Mutex`, no
//!   parking, no poisoning) and appends. Cross-thread export
//!   ([`Recorder::events`], [`Recorder::to_jsonl`], …) takes the same
//!   claim, so concurrent readers are safe; they simply spin for the
//!   duration of one append in the worst case. This is what lets a
//!   parallel sweep run many worlds — each with its own recorder — with
//!   zero shared lock traffic on the per-event path.
//! * **Determinism.** Timestamps are caller-supplied virtual-clock
//!   nanoseconds — never the wall clock — and exporters iterate sorted
//!   maps with fixed key orders, so the same seed yields byte-identical
//!   `telemetry.json` / JSONL output across runs.
//!
//! ```
//! use kmsg_telemetry::{EventKind, Recorder};
//!
//! let rec = Recorder::new();
//! rec.record(0, EventKind::Mark { id: 1, value: 7 }); // no-op: disabled
//! rec.enable();
//! rec.set_gauge("goodput_bps", 1.5e6);
//! rec.record(1_000, EventKind::Mark { id: 1, value: 8 });
//! assert_eq!(rec.event_count(), 1);
//! let jsonl = rec.to_jsonl();
//! assert_eq!(jsonl, "{\"t\":1000,\"kind\":\"mark\",\"id\":1,\"value\":8}\n");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]
#![deny(unconditional_recursion)]

pub mod bytes;
pub mod critical_path;
mod event;
pub mod export;
pub mod json;
pub mod log;
pub mod metrics;
mod trace;

use std::cell::UnsafeCell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

pub use event::{Event, EventKind};
pub use trace::{SpanId, SpanKind, Tracer};

use export::push_event_json;

/// Default flight-recorder capacity (events retained before the oldest are
/// evicted).
const DEFAULT_RING_CAPACITY: usize = 65_536;

struct Ring {
    buf: VecDeque<Event>,
    cap: usize,
}

struct RecorderInner {
    enabled: AtomicBool,
    recorded: AtomicU64,
    evicted: AtomicU64,
    /// Ring-full drops tallied per [`EventKind::index`] — truncated runs
    /// stay self-describing (which kinds the lost events were).
    evicted_by_kind: [AtomicU64; event::KIND_COUNT],
    /// Next causal-span sequence number (see [`trace`]). Relaxed
    /// `fetch_add`: with one writer per world (the same invariant the
    /// ring relies on) allocation order — and therefore every span id —
    /// is deterministic per seed.
    next_span: AtomicU64,
    /// Claim flag for `ring`: `true` while some thread holds the ring.
    /// The record hot path takes this with a single compare-exchange —
    /// with one writer per world (the invariant every simulation upholds)
    /// the claim is always uncontended, so recording never parks, never
    /// touches a `Mutex` and never risks poisoning.
    ring_claim: AtomicBool,
    /// The flight-recorder ring, guarded exclusively by `ring_claim`.
    ring: UnsafeCell<Ring>,
    /// Named gauges, last value wins, exported in name order.
    gauges: Mutex<BTreeMap<String, f64>>,
}

// SAFETY: `ring` is only ever touched through `RingGuard`, which takes
// `ring_claim` via an acquire compare-exchange and releases it on drop, so
// access to the `UnsafeCell` contents is mutually exclusive and properly
// synchronised (acquire on claim, release on release).
unsafe impl Sync for RecorderInner {}

/// Exclusive access to the ring, released on drop.
struct RingGuard<'a> {
    inner: &'a RecorderInner,
}

impl RecorderInner {
    /// Claims the ring. One CAS in the uncontended single-writer case;
    /// spins (without parking) if an exporter briefly holds it.
    #[inline]
    fn claim(&self) -> RingGuard<'_> {
        loop {
            if self
                .ring_claim
                .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                return RingGuard { inner: self };
            }
            std::hint::spin_loop();
        }
    }
}

impl RingGuard<'_> {
    #[inline]
    #[allow(clippy::mut_from_ref)]
    fn ring(&mut self) -> &mut Ring {
        // SAFETY: the claim flag grants exclusive access (see `claim`),
        // and the returned borrow is tied to `&mut self`, so it cannot
        // outlive or alias another guard access.
        unsafe { &mut *self.inner.ring.get() }
    }
}

impl Drop for RingGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        self.inner.ring_claim.store(false, Ordering::Release);
    }
}

/// Handle to a telemetry recorder: named gauges + flight-recorder ring.
///
/// Cloning is cheap and every clone shares the same state, so a recorder
/// can be threaded through all layers of a simulation and enabled once,
/// from anywhere. Recorders start **disabled**: all recording calls are
/// no-ops (one relaxed atomic load) until [`Recorder::enable`].
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<RecorderInner>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.is_enabled())
            .field("events", &self.event_count())
            .finish()
    }
}

impl Recorder {
    /// A disabled recorder with the `DEFAULT_RING_CAPACITY`.
    #[must_use]
    pub fn new() -> Self {
        Recorder::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A disabled recorder retaining at most `capacity` flight-recorder
    /// events (oldest evicted first).
    #[must_use]
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Recorder {
            inner: Arc::new(RecorderInner {
                enabled: AtomicBool::new(false),
                recorded: AtomicU64::new(0),
                evicted: AtomicU64::new(0),
                evicted_by_kind: std::array::from_fn(|_| AtomicU64::new(0)),
                next_span: AtomicU64::new(1),
                ring_claim: AtomicBool::new(false),
                ring: UnsafeCell::new(Ring {
                    buf: VecDeque::with_capacity(capacity.min(1024)),
                    cap: capacity.max(1),
                }),
                gauges: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// Whether recording is currently on.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on for this recorder and every clone of it.
    pub fn enable(&self) {
        self.inner.enabled.store(true, Ordering::Relaxed);
    }

    /// Records a flight-recorder event at virtual time `time_ns`
    /// (nanoseconds). No-op while disabled.
    ///
    /// The fast path never takes a `Mutex`: one relaxed load for the
    /// enabled check, then a single uncontended compare-exchange to claim
    /// the single-writer ring (see the module docs).
    #[inline]
    pub fn record(&self, time_ns: u64, kind: EventKind) {
        if !self.is_enabled() {
            return;
        }
        self.push(Event { time_ns, kind });
    }

    /// Records an event whose payload is only built if the recorder is
    /// enabled.
    ///
    /// Use this at call sites where constructing the [`EventKind`]
    /// allocates or computes (formatting endpoints, sampling a queue):
    /// `record` evaluates its argument before the enabled check, whereas
    /// this defers it behind the check entirely.
    #[inline]
    pub fn record_with<F: FnOnce() -> EventKind>(&self, time_ns: u64, kind: F) {
        if !self.is_enabled() {
            return;
        }
        self.push(Event {
            time_ns,
            kind: kind(),
        });
    }

    fn push(&self, ev: Event) {
        self.inner.recorded.fetch_add(1, Ordering::Relaxed);
        let mut guard = self.inner.claim();
        let ring = guard.ring();
        if ring.buf.len() == ring.cap {
            if let Some(old) = ring.buf.pop_front() {
                self.inner.evicted_by_kind[old.kind.index()].fetch_add(1, Ordering::Relaxed);
            }
            self.inner.evicted.fetch_add(1, Ordering::Relaxed);
        }
        ring.buf.push_back(ev);
    }

    /// Allocates the next causal-span sequence number (a per-recorder
    /// monotone counter starting at 1 — see [`trace::SpanId`]).
    #[inline]
    pub(crate) fn next_span_seq(&self) -> u64 {
        self.inner.next_span.fetch_add(1, Ordering::Relaxed)
    }

    /// Events currently retained in the ring, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        let mut guard = self.inner.claim();
        guard.ring().buf.iter().cloned().collect()
    }

    /// Number of events currently retained.
    #[must_use]
    pub fn event_count(&self) -> usize {
        self.inner.claim().ring().buf.len()
    }

    /// Total events recorded since creation (including evicted ones).
    #[must_use]
    pub fn recorded_total(&self) -> u64 {
        self.inner.recorded.load(Ordering::Relaxed)
    }

    /// Events evicted from the ring because it was full.
    #[must_use]
    pub fn evicted(&self) -> u64 {
        self.inner.evicted.load(Ordering::Relaxed)
    }

    /// Ring-full drops per event kind: `(label, count)` for every kind
    /// that lost at least one event, sorted by label (the same order the
    /// snapshot's `by_kind` section uses).
    #[must_use]
    pub(crate) fn evicted_by_kind(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = self
            .inner
            .evicted_by_kind
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let n = c.load(Ordering::Relaxed);
                (n > 0).then(|| (event::KIND_LABELS[i], n))
            })
            .collect();
        out.sort_by_key(|(label, _)| *label);
        out
    }

    /// Publishes the per-kind eviction tally as `recorder/dropped/<kind>`
    /// gauges (only kinds that actually lost events), so a truncated run's
    /// metrics snapshot says *what* the ring dropped, not just how much.
    pub fn publish_overflow_gauges(&self) {
        for (label, n) in self.evicted_by_kind() {
            self.set_gauge(&format!("recorder/dropped/{label}"), n as f64);
        }
    }

    /// A span tracer bound to this recorder (cheap, cloneable).
    #[must_use]
    pub fn tracer(&self) -> Tracer {
        Tracer::new(self.clone())
    }

    /// Resizes the flight-recorder ring. Long chaos runs overflow the
    /// default capacity and evict the early supervision events; raise it
    /// before the run when the whole stream matters.
    ///
    /// Shrinking evicts the oldest retained events immediately and leaves
    /// a synthetic [`EventKind::Overflow`] marker in their place, stamped
    /// with the oldest surviving timestamp, so trace consumers can tell a
    /// truncated stream from a complete one.
    pub fn set_capacity(&self, capacity: usize) {
        let mut guard = self.inner.claim();
        let ring = guard.ring();
        ring.cap = capacity.max(1);
        if ring.buf.len() <= ring.cap {
            return;
        }
        // One extra eviction buys the slot the marker itself occupies, so
        // the ring still honours the new capacity afterwards.
        let evict = ring.buf.len() - ring.cap + 1;
        for _ in 0..evict {
            if let Some(old) = ring.buf.pop_front() {
                self.inner.evicted_by_kind[old.kind.index()].fetch_add(1, Ordering::Relaxed);
            }
        }
        self.inner
            .evicted
            .fetch_add(evict as u64, Ordering::Relaxed);
        let time_ns = ring.buf.front().map_or(0, |e| e.time_ns);
        ring.buf.push_front(Event {
            time_ns,
            kind: EventKind::Overflow {
                evicted: evict as u64,
            },
        });
    }

    /// Sets the gauge `name` to `value`, replacing any earlier value
    /// (no-op while the recorder is disabled).
    pub fn set_gauge(&self, name: &str, value: f64) {
        if self.is_enabled() {
            let mut gauges = self.inner.gauges.lock().expect("telemetry gauges poisoned");
            gauges.insert(name.to_string(), value);
        }
    }

    /// Serialises the retained flight-recorder events as JSONL: one JSON
    /// object per line, oldest first, each line terminated by `\n`.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut guard = self.inner.claim();
        let ring = guard.ring();
        let mut out = String::with_capacity(ring.buf.len() * 64);
        for ev in &ring.buf {
            push_event_json(&mut out, ev);
            out.push('\n');
        }
        out
    }

    /// Serialises an event-count + gauge snapshot as pretty-printed JSON
    /// (the `telemetry.json` format, version 2).
    ///
    /// Gauges are emitted in name order and per-kind event counts in
    /// label order, so equal recorded data yields byte-identical text.
    #[must_use]
    pub fn snapshot_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"version\": 2,\n");

        // Event section.
        let mut by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
        let retained = {
            let mut guard = self.inner.claim();
            let ring = guard.ring();
            for ev in &ring.buf {
                *by_kind.entry(ev.kind.label()).or_insert(0) += 1;
            }
            ring.buf.len()
        };
        out.push_str("  \"events\": {\n");
        out.push_str(&format!(
            "    \"recorded\": {},\n    \"retained\": {},\n    \"evicted\": {},\n",
            self.recorded_total(),
            retained,
            self.evicted()
        ));
        let count = |out: &mut String, n: u64| out.push_str(&n.to_string());
        push_map(&mut out, "    ", "by_kind", by_kind, count);
        out.push_str(",\n");
        push_map(
            &mut out,
            "    ",
            "evicted_by_kind",
            self.evicted_by_kind(),
            count,
        );
        out.push_str("\n  },\n");

        let gauges = self.inner.gauges.lock().expect("telemetry gauges poisoned");
        push_map(&mut out, "  ", "gauges", gauges.iter(), |out, v| {
            json::push_f64(out, *v)
        });
        out.push_str("\n}\n");
        out
    }

    /// Writes [`Recorder::snapshot_json`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write_snapshot(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.snapshot_json())
    }

    /// Writes [`Recorder::to_jsonl`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }
}

/// Appends `"name": {`, one `"key": value` line per entry two spaces
/// further in, and the closing `}` — on the opening line when the map is
/// empty. The separator after it is the caller's.
fn push_map<K: AsRef<str>, V>(
    out: &mut String,
    indent: &str,
    name: &str,
    entries: impl IntoIterator<Item = (K, V)>,
    mut push_value: impl FnMut(&mut String, V),
) {
    out.push_str(&format!("{indent}\"{name}\": {{"));
    let mut separator = "";
    for (key, value) in entries {
        out.push_str(&format!("{separator}\n{indent}  "));
        json::push_str(out, key.as_ref());
        out.push_str(": ");
        push_value(out, value);
        separator = ",";
    }
    if !separator.is_empty() {
        out.push_str(&format!("\n{indent}"));
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Recorder {
        /// Turns recording off again.
        fn disable(&self) {
            self.inner.enabled.store(false, Ordering::Relaxed);
        }

        /// Visits every retained event in order, oldest first, without
        /// cloning the ring.
        fn for_each_event<F: FnMut(&Event)>(&self, mut f: F) {
            let mut guard = self.inner.claim();
            for ev in &guard.ring().buf {
                f(ev);
            }
        }

        /// Runs `f` over the retained events as contiguous slices (oldest
        /// first) and returns its result. Zero-copy companion to
        /// [`Recorder::events`] for consumers that want to fold the stream.
        fn with_events<R, F: FnOnce(&[Event], &[Event]) -> R>(&self, f: F) -> R {
            let mut guard = self.inner.claim();
            let (a, b) = guard.ring().buf.as_slices();
            f(a, b)
        }
    }

    #[test]
    fn disabled_recorder_drops_everything() {
        let rec = Recorder::new();
        rec.record(1, EventKind::Mark { id: 0, value: 0 });
        assert_eq!(rec.event_count(), 0);
        assert_eq!(rec.recorded_total(), 0);
    }

    #[test]
    fn record_with_defers_construction_behind_enabled_check() {
        let rec = Recorder::new();
        let mut built = 0u32;
        rec.record_with(1, || {
            built += 1;
            EventKind::Mark { id: 0, value: 0 }
        });
        assert_eq!(built, 0, "disabled recorder must not build the payload");
        assert_eq!(rec.event_count(), 0);
        rec.enable();
        rec.record_with(2, || {
            built += 1;
            EventKind::Mark { id: 1, value: 7 }
        });
        assert_eq!(built, 1);
        assert_eq!(rec.event_count(), 1);
        match rec.events()[0].kind {
            EventKind::Mark { id, value } => {
                assert_eq!((id, value), (1, 7));
            }
            ref k => panic!("unexpected kind {k:?}"),
        }
    }

    #[test]
    fn concurrent_export_while_recording_is_safe() {
        // The ring claim must let an exporter thread read (spinning briefly)
        // while the world's single writer keeps appending. This exercises
        // the claim/release protocol under real contention.
        let rec = Recorder::with_capacity(512);
        rec.enable();
        let writer = {
            let rec = rec.clone();
            std::thread::spawn(move || {
                for i in 0..20_000u64 {
                    rec.record(i, EventKind::Mark { id: i, value: i });
                }
            })
        };
        let mut snapshots = 0usize;
        let mut last = 0usize;
        while snapshots < 200 {
            let evs = rec.events();
            assert!(evs.len() >= last.min(512), "retained count must not shrink");
            // Within one snapshot the ids are strictly increasing: no torn
            // or duplicated entries under concurrent appends.
            for w in evs.windows(2) {
                match (&w[0].kind, &w[1].kind) {
                    (EventKind::Mark { id: a, .. }, EventKind::Mark { id: b, .. }) => {
                        assert!(a < b, "snapshot order corrupted: {a} !< {b}");
                    }
                    _ => unreachable!(),
                }
            }
            last = evs.len();
            snapshots += 1;
        }
        writer.join().expect("writer thread");
        assert_eq!(rec.recorded_total(), 20_000);
        assert_eq!(rec.event_count(), 512);
    }

    #[test]
    fn ring_evicts_oldest_and_counts() {
        let rec = Recorder::with_capacity(3);
        rec.enable();
        for i in 0..5u64 {
            rec.record(i, EventKind::Mark { id: i, value: i });
        }
        assert_eq!(rec.event_count(), 3);
        assert_eq!(rec.recorded_total(), 5);
        assert_eq!(rec.evicted(), 2);
        let ids: Vec<u64> = rec
            .events()
            .iter()
            .map(|e| match e.kind {
                EventKind::Mark { id, .. } => id,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, vec![2, 3, 4]);
    }

    #[test]
    fn eviction_tallies_per_kind() {
        let rec = Recorder::with_capacity(2);
        rec.enable();
        rec.record(1, EventKind::SchedulerQueue { depth: 1 });
        rec.record(2, EventKind::Mark { id: 0, value: 0 });
        rec.record(3, EventKind::Mark { id: 1, value: 1 });
        rec.record(4, EventKind::Mark { id: 2, value: 2 });
        // scheduler_queue then the first mark were evicted.
        assert_eq!(
            rec.evicted_by_kind(),
            vec![("mark", 1), ("scheduler_queue", 1)]
        );
        rec.publish_overflow_gauges();
        let snap = rec.snapshot_json();
        assert!(snap.contains("\"recorder/dropped/mark\": 1"), "{snap}");
        assert!(snap.contains("\"evicted_by_kind\": {"), "{snap}");
        assert!(
            snap.contains("\"scheduler_queue\": 1"),
            "tally in snapshot: {snap}"
        );
        // Shrink-evictions count too (capacity 1 evicts both retained
        // marks: one for the new cap, one for the marker's slot).
        rec.set_capacity(1);
        assert_eq!(
            rec.evicted_by_kind(),
            vec![("mark", 3), ("scheduler_queue", 1)]
        );
    }

    #[test]
    fn shrink_leaves_overflow_marker() {
        let rec = Recorder::with_capacity(8);
        rec.enable();
        for i in 0..6u64 {
            rec.record(i * 10, EventKind::Mark { id: i, value: i });
        }
        rec.set_capacity(3);
        let evs = rec.events();
        assert_eq!(evs.len(), 3);
        match evs[0].kind {
            EventKind::Overflow { evicted } => assert_eq!(evicted, 4),
            ref k => panic!("expected overflow marker first, got {k:?}"),
        }
        // Marker is stamped with the oldest surviving timestamp so the
        // stream stays time-ordered.
        assert_eq!(evs[0].time_ns, evs[1].time_ns);
        assert_eq!(rec.evicted(), 4);
        // Growing (or an equal-size resize) never truncates, so no marker.
        let rec2 = Recorder::with_capacity(4);
        rec2.enable();
        rec2.record(1, EventKind::Mark { id: 0, value: 0 });
        rec2.set_capacity(16);
        assert_eq!(rec2.event_count(), 1);
        assert_eq!(rec2.evicted(), 0);
    }

    #[test]
    fn typed_iteration_matches_events() {
        let rec = Recorder::with_capacity(4);
        rec.enable();
        for i in 0..6u64 {
            rec.record(i, EventKind::Mark { id: i, value: i });
        }
        let mut seen = Vec::new();
        rec.for_each_event(|e| seen.push(e.clone()));
        assert_eq!(seen, rec.events());
        let total = rec.with_events(|a, b| a.len() + b.len());
        assert_eq!(total, rec.event_count());
    }

    #[test]
    fn clones_share_state() {
        let rec = Recorder::new();
        let clone = rec.clone();
        clone.enable();
        assert!(rec.is_enabled());
        rec.record(5, EventKind::Mark { id: 1, value: 2 });
        assert_eq!(clone.event_count(), 1);
        rec.set_gauge("x", 4.0);
        assert!(clone.snapshot_json().contains("\"x\": 4"));
    }

    #[test]
    fn set_gauge_while_disabled_is_a_noop() {
        let rec = Recorder::new();
        rec.set_gauge("g", 3.5);
        assert!(rec.snapshot_json().contains("\"gauges\": {}"));
        rec.enable();
        rec.set_gauge("g", 3.5);
        rec.disable();
        rec.set_gauge("g", 7.0);
        assert!(rec.snapshot_json().contains("\"g\": 3.5"));
    }

    #[test]
    fn identical_recordings_export_identically() {
        let run = || {
            let rec = Recorder::new();
            rec.enable();
            rec.set_gauge("sent", 3.0);
            rec.set_gauge("ratio", -0.25);
            rec.record(10, EventKind::SchedulerQueue { depth: 2 });
            rec.record(
                20,
                EventKind::Decision {
                    flow: 1,
                    step: 0,
                    state: 4,
                    action: 1,
                    reward: 0.5,
                    epsilon: 0.1,
                    greedy: true,
                },
            );
            (rec.to_jsonl(), rec.snapshot_json())
        };
        let (jl_a, js_a) = run();
        let (jl_b, js_b) = run();
        assert_eq!(jl_a, jl_b);
        assert_eq!(js_a, js_b);
        assert!(jl_a.lines().count() == 2);
        assert!(js_a.contains("\"sent\": 3"));
        assert!(js_a.contains("\"ratio\": -0.25"));
        assert!(js_a.contains("\"decision\": 1"));
    }

    /// The snapshot's layout, byte for byte, at the edges of its map
    /// sections: none empty-handed (`{}` on one line), one entry, two.
    #[test]
    fn snapshot_matches_its_literal_layout() {
        assert_eq!(
            Recorder::new().snapshot_json(),
            r#"{
  "version": 2,
  "events": {
    "recorded": 0,
    "retained": 0,
    "evicted": 0,
    "by_kind": {},
    "evicted_by_kind": {}
  },
  "gauges": {}
}
"#
        );
        let rec = Recorder::with_capacity(1);
        rec.enable();
        rec.set_gauge("c\"x", 3.0);
        rec.set_gauge("d", 0.0);
        rec.set_gauge("g", -0.25);
        rec.record(1, EventKind::SchedulerQueue { depth: 1 });
        rec.record(2, EventKind::Mark { id: 0, value: 0 });
        assert_eq!(
            rec.snapshot_json(),
            r#"{
  "version": 2,
  "events": {
    "recorded": 2,
    "retained": 1,
    "evicted": 1,
    "by_kind": {
      "mark": 1
    },
    "evicted_by_kind": {
      "scheduler_queue": 1
    }
  },
  "gauges": {
    "c\"x": 3,
    "d": 0,
    "g": -0.25
  }
}
"#
        );
    }
}
