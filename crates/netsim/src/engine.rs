//! The discrete-event simulation engine.
//!
//! [`Sim`] owns a virtual clock and a `World`: the pending-event store and
//! the network fabric's state, side by side behind the world's one mutex.
//! Events execute in `(timestamp, insertion order)` sequence, which makes
//! runs fully deterministic.
//!
//! # Event store
//!
//! The store keeps two structures:
//!
//! * a **now lane** — a FIFO `VecDeque` holding every event due at exactly
//!   the current clock value. Zero-delay scheduling (the component
//!   scheduler's fast path, loopback delivery, same-timestamp fan-out)
//!   appends here in O(1) with no ordering work at all;
//! * a hierarchical [timing wheel](crate::wheel) holding every event due in
//!   the future, extracted one timestamp-cohort at a time.
//!
//! The invariant tying them together: every now-lane event is stamped with
//! the current clock value, and every wheel entry is strictly in the future.
//! When the clock advances to the wheel's next deadline, that whole cohort
//! moves into the lane. `run_until` drains the lane a batch at a time —
//! one lock acquisition per batch, not per event — and executes events
//! *without* holding the world lock, so re-entrant scheduling from inside
//! handlers is always safe. (Re-entrant `run_*` calls from inside an event
//! are not supported.) The fabric's own events — packet hops and flow
//! timers — carry no handle: each takes the world lock once, and what it
//! schedules (the next hop) it stores in that scope. No code takes the lock
//! while it holds it.
//!
//! The clock is one atomic word beside that mutex: [`Sim::now`] — half of
//! all the engine's lock acquisitions when it took the lock — reads it
//! without locking. Only `run_until` writes it, with the world lock held, so
//! whoever holds the lock reads the exact value; the word publishes no other
//! data, hence `Relaxed`. The insertion sequence number is a plain field of
//! the store.
//!
//! # Zero-allocation scheduling
//!
//! Beyond boxed closures ([`Sim::schedule_at`] / [`Sim::schedule_in`]), the
//! engine understands two preboxed event shapes that cover the simulation
//! hot paths and allocate nothing per event:
//!
//! * [`Sim::schedule_target_at`] — fire an [`EventTarget`] (e.g. run a
//!   component core, deliver a timeout) identified by a shared `Arc` plus a
//!   `u64` token;
//! * the fabric's own: packet hops, which advance a packet along its route,
//!   and flow timers (scheduled internally by
//!   [`Network`] and its flows).
//!
//! Event payloads live inline in the lane/wheel vectors, whose allocations
//! are recycled across batches, so steady-state dispatch is allocation-free.
//!
//! # Examples
//!
//! ```
//! use kmsg_netsim::engine::Sim;
//! use kmsg_netsim::time::SimTime;
//! use std::sync::atomic::{AtomicUsize, Ordering};
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! let sim = Sim::new(42);
//! let hits = Arc::new(AtomicUsize::new(0));
//! let h = hits.clone();
//! sim.schedule_in(Duration::from_millis(10), move |sim| {
//!     assert_eq!(sim.now(), SimTime::from_nanos(10_000_000));
//!     h.fetch_add(1, Ordering::SeqCst);
//! });
//! sim.run_until(SimTime::from_secs(1));
//! assert_eq!(hits.load(Ordering::SeqCst), 1);
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::mem;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use kmsg_telemetry::Recorder;
use parking_lot::{Mutex, MutexGuard};

use crate::memscope;
use crate::network::{NetInner, Network, RouteRef};
use crate::packet::WireProtocol;
use crate::pool::PacketHandle;
use crate::rng::{RngStream, SeedSource};
use crate::time::SimTime;
use crate::trace::PacketTracer;
use crate::wheel::{TimingWheel, WheelEntry};

/// A scheduled simulation event: a one-shot closure run at its timestamp.
pub type EventFn = Box<dyn FnOnce(&Sim) + Send>;

/// A reusable event receiver for allocation-free scheduling.
///
/// Implementors are shared via `Arc` and fired with a caller-chosen `u64`
/// token, so one long-lived allocation serves any number of scheduled
/// events — the component scheduler and timers use this instead of boxing a
/// closure per event. See [`Sim::schedule_target_at`].
pub trait EventTarget: Send + Sync {
    /// Called when the event's timestamp is reached. Receives the firing
    /// `Arc` itself (so periodic targets can reschedule without cloning
    /// state) and the token passed at scheduling time.
    fn fire(self: Arc<Self>, sim: &Sim, token: u64);
}

/// One pending event, in any of the engine's preboxed shapes.
enum EventKind {
    /// A boxed one-shot closure (the flexible, allocating shape).
    Closure(EventFn),
    /// Fire a shared [`EventTarget`] with a token. No per-event allocation.
    Target {
        target: Arc<dyn EventTarget>,
        token: u64,
    },
    /// Advance a packet to hop `idx` of its route (deliver when past the
    /// end). The route is an 8-byte span handle into the network's
    /// flattened link arena, not a refcounted pointer, and the packet lives
    /// in the network's [`PacketPool`](crate::pool::PacketPool) — the event
    /// carries an 8-byte generation-checked handle, the slot is claimed at
    /// `send_packet` time and recycled at delivery or drop. Hop events stay
    /// small (the event store holds thousands of them inline in wheel
    /// slots) and hops themselves never allocate.
    PacketHop {
        pkt: PacketHandle,
        route: RouteRef,
        idx: u32,
    },
    /// A flow timer of the `wire` protocol's flow table came due.
    FlowTimer { wire: WireProtocol, token: u64 },
}

/// The pending-event store.
struct Store {
    executed: u64,
    /// Next per-simulation connection id (deterministic per seed).
    next_conn_id: u64,
    /// The next insertion sequence number.
    seq: u64,
    /// Events due at exactly `now`, in insertion (= seq) order.
    now_lane: VecDeque<EventKind>,
    /// Events strictly after `now`.
    wheel: TimingWheel<EventKind>,
    /// Scratch buffer for wheel cohort extraction (capacity recycled).
    cohort: Vec<WheelEntry<EventKind>>,
    /// Spare batch buffer so `run_until` reuses capacity across calls.
    spare: VecDeque<EventKind>,
}

/// Everything behind a world's one lock: the event store and the fabric.
pub(crate) struct World {
    store: Store,
    pub(crate) net: NetInner,
}

impl World {
    /// Stamps and stores one event under `seq` (the next number if `None`):
    /// the now lane if due at `now`, the wheel otherwise. Past times clamp.
    fn schedule(&mut self, now: SimTime, at: SimTime, seq: Option<u64>, event: EventKind) {
        let _scope = memscope::enter(memscope::SCOPE_ENGINE);
        let at = at.max(now);
        let seq = seq.unwrap_or_else(|| self.next_seq());
        if at == now {
            self.store.now_lane.push_back(event);
        } else {
            self.store.wheel.insert(at, seq, event);
        }
    }

    /// Schedules a packet-hop event: at `at`, the packet continues at hop
    /// `idx` of `route` (delivery once past the last hop). `now` is the
    /// clock as read with the lock held.
    pub(crate) fn schedule_hop(
        &mut self,
        now: SimTime,
        at: SimTime,
        pkt: PacketHandle,
        route: RouteRef,
        idx: u32,
    ) {
        self.schedule(now, at, None, EventKind::PacketHop { pkt, route, idx });
    }

    /// Takes the next sequence number as scheduling would, storing nothing.
    pub(crate) fn next_seq(&mut self) -> u64 {
        let seq = self.store.seq;
        self.store.seq += 1;
        seq
    }

    /// Allocates the next connection id of this world.
    ///
    /// Ids are assigned from a per-world counter (not a process-global one)
    /// so two same-seed runs label their connections — and hence their
    /// telemetry events — identically.
    pub(crate) fn next_conn_id(&mut self) -> u64 {
        let id = self.store.next_conn_id;
        self.store.next_conn_id += 1;
        id
    }
}

/// What every handle to one engine shares.
struct Engine {
    /// The clock, in nanoseconds (see the module documentation).
    now: AtomicU64,
    world: Mutex<World>,
    seeds: SeedSource,
    recorder: Recorder,
    /// The fabric's packet tracer, read on every packet event with no lock.
    tracer: OnceLock<Arc<dyn PacketTracer>>,
}

/// Handle to the discrete-event simulation engine.
///
/// Cloning is cheap (an [`Arc`] bump); all clones refer to the same clock and
/// event store. See the [module documentation](self) for an example.
#[derive(Clone)]
pub struct Sim(Arc<Engine>);

impl fmt::Debug for Sim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = &self.0.world.lock().store;
        f.debug_struct("Sim")
            .field("now", &self.now())
            .field("pending", &(inner.now_lane.len() + inner.wheel.len()))
            .field("executed", &inner.executed)
            .field("seed", &self.0.seeds.root())
            .finish()
    }
}

impl Sim {
    /// Creates a new simulation with the given experiment seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Sim(Arc::new(Engine {
            now: AtomicU64::new(SimTime::ZERO.as_nanos()),
            world: Mutex::new(World {
                store: Store {
                    executed: 0,
                    next_conn_id: 1,
                    seq: 0,
                    now_lane: VecDeque::new(),
                    wheel: TimingWheel::new(),
                    cohort: Vec::new(),
                    spare: VecDeque::new(),
                },
                net: NetInner::new(),
            }),
            seeds: SeedSource::new(seed),
            recorder: Recorder::new(),
            tracer: OnceLock::new(),
        }))
    }

    /// The telemetry recorder attached to this simulation.
    ///
    /// Starts disabled (all recording is a no-op); call
    /// [`Recorder::enable`] on it to start capturing. Every clone of the
    /// `Sim` shares the same recorder.
    #[must_use]
    pub fn recorder(&self) -> &Recorder {
        &self.0.recorder
    }

    /// The current virtual time. Takes no lock.
    #[must_use]
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.0.now.load(Ordering::Relaxed))
    }

    /// Advances the clock; `run_until` alone, with the world lock held.
    fn set_now(&self, now: SimTime) {
        self.0.now.store(now.as_nanos(), Ordering::Relaxed);
    }

    /// Takes the world lock.
    pub(crate) fn lock(&self) -> MutexGuard<'_, World> {
        self.0.world.lock()
    }

    /// The slot of the fabric's packet tracer.
    pub(crate) fn tracer(&self) -> &OnceLock<Arc<dyn PacketTracer>> {
        &self.0.tracer
    }

    /// The seed source for deriving named deterministic random streams.
    #[must_use]
    pub fn seeds(&self) -> SeedSource {
        self.0.seeds
    }

    /// Derives the named deterministic random stream (see [`SeedSource`]).
    #[must_use]
    pub fn rng(&self, name: &str) -> RngStream {
        self.0.seeds.stream(name)
    }

    /// Stores one event under `seq` (the next number if `None`); see
    /// [`World::schedule`].
    fn schedule_event(&self, at: SimTime, seq: Option<u64>, event: EventKind) {
        let mut world = self.lock();
        world.schedule(self.now(), at, seq, event);
    }

    /// Schedules the flow timer `token` of the `wire` protocol's flows at
    /// `at`, under `seq` if given: a number [taken](World::next_seq) earlier,
    /// of which none is consumed. Such an `at` must lie ahead, for the now
    /// lane is ordered by arrival, not by number.
    pub(crate) fn schedule_flow_timer(
        &self,
        at: SimTime,
        seq: Option<u64>,
        wire: WireProtocol,
        token: u64,
    ) {
        debug_assert!(
            seq.is_none() || at > self.now(),
            "a reserved number filed for now"
        );
        self.schedule_event(at, seq, EventKind::FlowTimer { wire, token });
    }

    /// Schedules `f` to run at absolute time `at`.
    ///
    /// Events scheduled in the past run "now": they are clamped to the
    /// current clock value but still execute after already-queued events with
    /// the same timestamp.
    pub fn schedule_at<F>(&self, at: SimTime, f: F)
    where
        F: FnOnce(&Sim) + Send + 'static,
    {
        self.schedule_event(at, None, EventKind::Closure(Box::new(f)));
    }

    /// Schedules `f` to run after `delay` of virtual time.
    pub fn schedule_in<F>(&self, delay: Duration, f: F)
    where
        F: FnOnce(&Sim) + Send + 'static,
    {
        let at = self.now() + delay;
        self.schedule_at(at, f);
    }

    /// Schedules `target` to [`fire`](EventTarget::fire) with `token` at
    /// absolute time `at`, with the same clamping rules as
    /// [`Sim::schedule_at`] — but without allocating: the only per-event
    /// cost is an `Arc` clone held inline in the event store.
    pub fn schedule_target_at(&self, at: SimTime, target: Arc<dyn EventTarget>, token: u64) {
        self.schedule_event(at, None, EventKind::Target { target, token });
    }

    /// Schedules `target` to [`fire`](EventTarget::fire) with `token` after
    /// `delay` of virtual time. Allocation-free; see
    /// [`Sim::schedule_target_at`].
    pub fn schedule_target_in(&self, delay: Duration, target: Arc<dyn EventTarget>, token: u64) {
        let at = self.now() + delay;
        self.schedule_target_at(at, target, token);
    }

    fn dispatch(&self, event: EventKind) {
        match event {
            EventKind::Closure(f) => f(self),
            EventKind::Target { target, token } => target.fire(self, token),
            EventKind::PacketHop { pkt, route, idx } => {
                Network::new(self).packet_hop(pkt, route, idx)
            }
            EventKind::FlowTimer { wire, token } => Network::new(self).flow_timer(wire, token),
        }
    }

    /// Runs events until the store is empty or the clock would pass
    /// `horizon`. Returns the number of events executed.
    ///
    /// The clock is advanced to `horizon` on return (even if the store
    /// drained earlier), so back-to-back `run_until` calls observe a
    /// monotonic clock. Events execute without the world lock held; one
    /// lock acquisition drains a whole same-timestamp batch. Must not be
    /// called re-entrantly from inside an event.
    pub fn run_until(&self, horizon: SimTime) -> u64 {
        let mut count: u64 = 0;
        let mut batch = mem::take(&mut self.lock().store.spare);
        loop {
            {
                let _scope = memscope::enter(memscope::SCOPE_ENGINE);
                let mut world = self.lock();
                let inner = &mut world.store;
                if inner.now_lane.is_empty() {
                    match inner.wheel.next_at() {
                        Some(t) if t <= horizon => {
                            self.set_now(t);
                            let mut cohort = mem::take(&mut inner.cohort);
                            inner.wheel.pop_cohort(t, &mut cohort);
                            inner.now_lane.extend(cohort.drain(..).map(|e| e.value));
                            inner.cohort = cohort;
                        }
                        _ => {
                            self.set_now(self.now().max(horizon));
                            inner.wheel.advance_to(horizon);
                            break;
                        }
                    }
                }
                if self.now() > horizon {
                    // Lane events are stamped `now`, already past the
                    // horizon: leave them for a later run.
                    break;
                }
                debug_assert!(batch.is_empty());
                mem::swap(&mut batch, &mut inner.now_lane);
                inner.executed += batch.len() as u64;
            }
            count += batch.len() as u64;
            for event in batch.drain(..) {
                self.dispatch(event);
            }
        }
        self.lock().store.spare = batch;
        count
    }

    /// Runs events for `span` of virtual time from the current clock value.
    pub fn run_for(&self, span: Duration) -> u64 {
        let horizon = self.now() + span;
        self.run_until(horizon)
    }

    /// Runs until the event store is fully drained.
    ///
    /// Careful with self-rescheduling events (e.g. periodic timers): this
    /// will never return while any are alive. Returns the number of events
    /// executed.
    pub fn run_to_completion(&self) -> u64 {
        let mut count = 0;
        loop {
            let before = count;
            count += self.run_until(SimTime::MAX);
            if count == before {
                break;
            }
        }
        count
    }

    /// Number of events executed so far. Events count as executed when
    /// their batch is claimed for dispatch.
    #[must_use]
    pub fn events_executed(&self) -> u64 {
        self.lock().store.executed
    }

    /// Number of events currently pending in the store.
    #[must_use]
    pub fn events_pending(&self) -> usize {
        let inner = &self.lock().store;
        inner.now_lane.len() + inner.wheel.len()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Weak;

    /// A handle to a world that does not keep it alive.
    #[derive(Clone)]
    pub(crate) struct WeakSim(Weak<Engine>);

    impl WeakSim {
        pub(crate) fn upgrade(&self) -> Option<Sim> {
            self.0.upgrade().map(Sim)
        }
    }

    impl Sim {
        pub(crate) fn downgrade(&self) -> WeakSim {
            WeakSim(Arc::downgrade(&self.0))
        }

        /// The world lock, if it is free.
        pub(crate) fn try_lock(&self) -> Option<MutexGuard<'_, World>> {
            self.0.world.try_lock()
        }

        fn reserve_seq(&self) -> u64 {
            self.lock().next_seq()
        }

        fn file_target(&self, at: SimTime, seq: u64, target: Arc<dyn EventTarget>, token: u64) {
            self.schedule_event(at, Some(seq), EventKind::Target { target, token });
        }
    }

    #[test]
    fn runs_in_time_order() {
        let sim = Sim::new(0);
        let log = Arc::new(Mutex::new(Vec::new()));
        for (i, ms) in [(0u32, 30u64), (1, 10), (2, 20)] {
            let log = log.clone();
            sim.schedule_in(Duration::from_millis(ms), move |_| log.lock().push(i));
        }
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(*log.lock(), vec![1, 2, 0]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let sim = Sim::new(0);
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..10u32 {
            let log = log.clone();
            sim.schedule_at(SimTime::from_secs(1), move |_| log.lock().push(i));
        }
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(*log.lock(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let sim = Sim::new(0);
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        sim.schedule_in(Duration::from_millis(1), move |sim| {
            let h2 = h.clone();
            sim.schedule_in(Duration::from_millis(1), move |_| {
                h2.fetch_add(1, Ordering::SeqCst);
            });
            h.fetch_add(1, Ordering::SeqCst);
        });
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn horizon_respected_and_clock_advances() {
        let sim = Sim::new(0);
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        sim.schedule_in(Duration::from_secs(5), move |_| {
            h.fetch_add(1, Ordering::SeqCst);
        });
        let ran = sim.run_until(SimTime::from_secs(1));
        assert_eq!(ran, 0);
        assert_eq!(sim.now(), SimTime::from_secs(1));
        assert_eq!(hits.load(Ordering::SeqCst), 0);
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert_eq!(sim.events_executed(), 1);
    }

    #[test]
    fn past_events_clamp_to_now() {
        let sim = Sim::new(0);
        sim.run_until(SimTime::from_secs(1));
        let fired_at = Arc::new(Mutex::new(SimTime::ZERO));
        let f = fired_at.clone();
        sim.schedule_at(SimTime::ZERO, move |sim| *f.lock() = sim.now());
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(*fired_at.lock(), SimTime::from_secs(1));
    }

    #[test]
    fn now_is_the_event_timestamp_then_the_horizon_on_every_clone() {
        let sim = Sim::new(0);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let stamps = [SimTime::from_millis(3), SimTime::from_millis(7)];
        for at in stamps {
            let seen = seen.clone();
            sim.schedule_at(at, move |sim| seen.lock().push(sim.now()));
        }
        let horizon = SimTime::from_secs(1);
        sim.run_until(horizon);
        assert_eq!(*seen.lock(), stamps);
        assert_eq!(sim.now(), horizon);
        let clone = sim.clone();
        let elsewhere = std::thread::spawn(move || clone.now())
            .join()
            .expect("reader thread");
        assert_eq!(elsewhere, horizon);
    }

    #[test]
    fn run_for_advances_relative() {
        let sim = Sim::new(0);
        sim.run_for(Duration::from_secs(1));
        sim.run_for(Duration::from_secs(1));
        assert_eq!(sim.now(), SimTime::from_secs(2));
    }

    #[test]
    fn run_to_completion_drains() {
        let sim = Sim::new(0);
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..5 {
            let h = hits.clone();
            sim.schedule_in(Duration::from_secs(3600), move |_| {
                h.fetch_add(1, Ordering::SeqCst);
            });
        }
        let ran = sim.run_to_completion();
        assert_eq!(ran, 5);
        assert_eq!(hits.load(Ordering::SeqCst), 5);
        assert_eq!(sim.events_pending(), 0);
    }

    #[test]
    fn debug_is_nonempty() {
        let sim = Sim::new(3);
        assert!(format!("{sim:?}").contains("Sim"));
    }

    #[test]
    fn zero_delay_events_run_fifo() {
        // The now-lane fast path: a chain of zero-delay events interleaved
        // with fresh zero-delay inserts must preserve global FIFO order.
        let sim = Sim::new(0);
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..4u32 {
            let log = log.clone();
            sim.schedule_in(Duration::ZERO, move |sim| {
                log.lock().push(i);
                if i == 0 {
                    let log = log.clone();
                    sim.schedule_in(Duration::ZERO, move |_| log.lock().push(100));
                }
            });
        }
        sim.run_until(SimTime::ZERO);
        assert_eq!(*log.lock(), vec![0, 1, 2, 3, 100]);
    }

    #[test]
    fn now_lane_respects_horizon_already_passed() {
        // An event stamped "now" after the clock passed the next horizon
        // must not run early — matches the heap engine's behaviour.
        let sim = Sim::new(0);
        sim.run_until(SimTime::from_secs(2));
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        sim.schedule_in(Duration::ZERO, move |_| {
            h.fetch_add(1, Ordering::SeqCst);
        });
        // Horizon before `now`: nothing may run, clock must not regress.
        let ran = sim.run_until(SimTime::from_secs(1));
        assert_eq!(ran, 0);
        assert_eq!(sim.now(), SimTime::from_secs(2));
        assert_eq!(sim.events_pending(), 1);
        let ran = sim.run_until(SimTime::from_secs(2));
        assert_eq!(ran, 1);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    struct CountTarget(AtomicUsize, Mutex<Vec<u64>>);
    impl EventTarget for CountTarget {
        fn fire(self: Arc<Self>, _sim: &Sim, token: u64) {
            self.0.fetch_add(1, Ordering::SeqCst);
            self.1.lock().push(token);
        }
    }

    #[test]
    fn target_events_fire_with_tokens_in_order() {
        let sim = Sim::new(0);
        let target = Arc::new(CountTarget(AtomicUsize::new(0), Mutex::new(Vec::new())));
        sim.schedule_target_in(Duration::from_millis(2), target.clone(), 7);
        sim.schedule_target_in(Duration::from_millis(1), target.clone(), 3);
        sim.schedule_target_at(SimTime::ZERO, target.clone(), 1);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(target.0.load(Ordering::SeqCst), 3);
        assert_eq!(*target.1.lock(), vec![1, 3, 7]);
        assert_eq!(sim.events_executed(), 3);
    }

    #[test]
    fn closures_and_targets_interleave_deterministically() {
        let sim = Sim::new(0);
        let target = Arc::new(CountTarget(AtomicUsize::new(0), Mutex::new(Vec::new())));
        let log = Arc::new(Mutex::new(Vec::new()));
        let at = SimTime::from_millis(5);
        for i in 0..6u64 {
            if i % 2 == 0 {
                sim.schedule_target_at(at, target.clone(), i);
            } else {
                let log = log.clone();
                sim.schedule_at(at, move |_| log.lock().push(i));
            }
        }
        sim.run_until(SimTime::from_secs(1));
        // Targets saw even tokens in order, closures odd — both FIFO.
        assert_eq!(*target.1.lock(), vec![0, 2, 4]);
        assert_eq!(*log.lock(), vec![1, 3, 5]);
    }

    /// Logs when each timer token fired, and each packet arrived as token 0.
    #[derive(Default)]
    struct Arrivals(Mutex<Vec<(SimTime, u64)>>);
    impl EventTarget for Arrivals {
        fn fire(self: Arc<Self>, sim: &Sim, token: u64) {
            self.0.lock().push((sim.now(), token));
        }
    }
    impl crate::network::PacketSink for Arrivals {
        fn on_packet(&self, net: &crate::network::Network, _pkt: crate::packet::Packet) {
            self.0.lock().push((net.now(), 0));
        }
    }

    /// Token 1 filed at `at` under a number reserved at time zero, token 2
    /// scheduled for `at` after the reservation; the clock runs to `midway`
    /// between storing the one stored first (`filed_first` picks which) and
    /// the other.
    fn reserved_and_later(at: SimTime, midway: SimTime, filed_first: bool) -> Vec<(SimTime, u64)> {
        let sim = Sim::new(0);
        let log = Arc::new(Arrivals::default());
        let seq = sim.reserve_seq();
        let store = |filed: bool| {
            if filed {
                sim.file_target(at, seq, log.clone(), 1);
            } else {
                sim.schedule_target_at(at, log.clone(), 2);
            }
        };
        store(filed_first);
        sim.run_until(midway);
        store(!filed_first);
        sim.run_until(SimTime::MAX);
        let arrivals = log.0.lock().clone();
        arrivals
    }

    #[test]
    fn a_reserved_number_runs_before_later_events_of_its_nanosecond() {
        let near = SimTime::from_micros(5);
        // 50 ms is a coarse wheel slot from time zero, one tick from there.
        let far = SimTime::from_millis(50);
        let just_before_far = SimTime::from_nanos(far.as_nanos() - 10_000);
        // Past the wheel's span: the overflow heap.
        let beyond = SimTime::from_nanos(1 << 47);
        for (at, midway, filed_first) in [
            (near, SimTime::ZERO, true),
            (near, SimTime::ZERO, false),
            // Whichever was stored first cascades into the slot the other
            // went to directly.
            (far, just_before_far, true),
            (far, just_before_far, false),
            (beyond, SimTime::ZERO, true),
            (beyond, SimTime::ZERO, false),
        ] {
            let got = reserved_and_later(at, midway, filed_first);
            assert_eq!(
                got,
                [(at, 1), (at, 2)],
                "at {at:?}, filed first: {filed_first}"
            );
        }
    }

    #[test]
    fn reserving_consumes_a_number_and_stores_nothing() {
        let sim = Sim::new(0);
        let log = Arc::new(Arrivals::default());
        let at = SimTime::from_millis(1);
        sim.schedule_target_at(at, log.clone(), 1);
        let skipped = sim.reserve_seq();
        sim.schedule_target_at(at, log.clone(), 3);
        assert_eq!(sim.events_pending(), 2);
        sim.file_target(at, skipped, log.clone(), 2);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(*log.0.lock(), [1, 2, 3].map(|token| (at, token)));
        assert_eq!(sim.events_executed(), 3);
    }

    #[test]
    fn timers_and_packet_hops_of_one_nanosecond_run_in_insertion_order() {
        use crate::packet::{Endpoint, Packet, PacketBody, WireProtocol};
        use kmsg_telemetry::bytes::Bytes;
        // A flow timer is a target event and a packet in flight a hop event;
        // both wait in the one store, so only (timestamp, insertion) orders
        // them. Loop-back packets make the hop's timestamp exact.
        let sim = Sim::new(0);
        let net = crate::network::Network::new(&sim);
        let a = net.add_node("a");
        let log = Arc::new(Arrivals::default());
        net.bind(a, WireProtocol::Udp, 9, log.clone())
            .expect("bind");
        let here = Endpoint::new(a, 9);
        let probe = || {
            Packet::new(
                here,
                here,
                WireProtocol::Udp,
                1,
                PacketBody::Udp(Bytes::new()),
            )
        };
        net.send_packet(probe());
        sim.run_for(Duration::from_secs(1));
        let (arrived, _) = log.0.lock().pop().expect("loop-back delivery");

        let at = sim.now() + arrived.duration_since(SimTime::ZERO);
        sim.schedule_target_at(at, log.clone(), 1);
        net.send_packet(probe());
        sim.schedule_target_at(at, log.clone(), 2);
        net.send_packet(probe());
        sim.schedule_target_at(at, log.clone(), 3);
        sim.run_for(Duration::from_secs(1));
        assert_eq!(*log.0.lock(), [1, 0, 2, 0, 3].map(|token| (at, token)));
    }
}
