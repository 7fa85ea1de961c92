//! Integration tests for the component model: Kompics semantics
//! (broadcast, FIFO, exactly-once, selectors), lifecycle, timers, self
//! ports, fairness, pushes from other threads, and the `PortSink`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use kmsg_component::prelude::*;
use kmsg_netsim::engine::Sim;

#[derive(Debug, Clone, PartialEq)]
struct Num(u64);

struct NumPort;
impl Port for NumPort {
    type Request = Num;
    type Indication = Num;
}

/// Echoes every request back as an indication.
#[derive(Default)]
struct Echo {
    port: ProvidedPort<NumPort>,
    seen: Vec<u64>,
}

impl ComponentDefinition for Echo {
    fn execute(&mut self, ctx: &mut ComponentContext, max: usize) -> usize {
        execute_ports!(self, ctx, max, [provided port: NumPort])
    }
}
impl Provide<NumPort> for Echo {
    fn handle(&mut self, _ctx: &mut ComponentContext, ev: Num) {
        self.seen.push(ev.0);
        self.port.trigger(ev);
    }
}
impl ProvideRef<NumPort> for Echo {
    fn provided_port(&mut self) -> &mut ProvidedPort<NumPort> {
        &mut self.port
    }
}

/// Sends a burst on start, records indications.
#[derive(Default)]
struct Client {
    port: RequiredPort<NumPort>,
    burst: u64,
    received: Vec<u64>,
}

impl ComponentDefinition for Client {
    fn execute(&mut self, ctx: &mut ComponentContext, max: usize) -> usize {
        execute_ports!(self, ctx, max, [required port: NumPort])
    }
    fn handle_control(&mut self, _ctx: &mut ComponentContext, event: ControlEvent) {
        if event == ControlEvent::Start {
            for i in 0..self.burst {
                self.port.trigger(Num(i));
            }
        }
    }
}
impl Require<NumPort> for Client {
    fn handle(&mut self, _ctx: &mut ComponentContext, ev: Num) {
        self.received.push(ev.0);
    }
}
impl RequireRef<NumPort> for Client {
    fn required_port(&mut self) -> &mut RequiredPort<NumPort> {
        &mut self.port
    }
}

fn sim_system() -> (Sim, ComponentSystem) {
    let sim = Sim::new(99);
    let system = ComponentSystem::simulation(&sim, SystemConfig::default());
    (sim, system)
}

#[test]
fn fifo_exactly_once_round_trip() {
    let (sim, system) = sim_system();
    let echo = system.create(Echo::default);
    let client = system.create(|| Client {
        burst: 100,
        ..Client::default()
    });
    system.connect::<NumPort, _, _>(&echo, &client);
    system.start(&echo);
    system.start(&client);
    sim.run_for(Duration::from_secs(1));
    let received = client.on_definition(|c| c.received.clone());
    assert_eq!(received, (0..100).collect::<Vec<_>>(), "FIFO exactly-once");
    assert_eq!(echo.on_definition(|e| e.seen.len()), 100);
}

#[test]
fn broadcast_to_multiple_requirers() {
    let (sim, system) = sim_system();
    let echo = system.create(Echo::default);
    let c1 = system.create(|| Client {
        burst: 1,
        ..Client::default()
    });
    let c2 = system.create(|| Client {
        burst: 0,
        ..Client::default()
    });
    system.connect::<NumPort, _, _>(&echo, &c1);
    system.connect::<NumPort, _, _>(&echo, &c2);
    system.start(&echo);
    system.start(&c1);
    system.start(&c2);
    sim.run_for(Duration::from_secs(1));
    // c1's single ping is answered; the indication broadcasts to BOTH
    // requirers (Kompics channel semantics).
    assert_eq!(c1.on_definition(|c| c.received.clone()), vec![0]);
    assert_eq!(c2.on_definition(|c| c.received.clone()), vec![0]);
}

#[test]
fn channel_selectors_route_indications() {
    let (sim, system) = sim_system();
    let echo = system.create(Echo::default);
    let even = system.create(|| Client {
        burst: 10,
        ..Client::default()
    });
    let odd = system.create(|| Client {
        burst: 0,
        ..Client::default()
    });
    system.connect_filtered::<NumPort, _, _>(
        &echo,
        &even,
        None,
        Some(Arc::new(|n: &Num| n.0.is_multiple_of(2))),
    );
    system.connect_filtered::<NumPort, _, _>(
        &echo,
        &odd,
        None,
        Some(Arc::new(|n: &Num| n.0 % 2 == 1)),
    );
    system.start(&echo);
    system.start(&even);
    system.start(&odd);
    sim.run_for(Duration::from_secs(1));
    assert_eq!(
        even.on_definition(|c| c.received.clone()),
        vec![0, 2, 4, 6, 8]
    );
    assert_eq!(
        odd.on_definition(|c| c.received.clone()),
        vec![1, 3, 5, 7, 9]
    );
}

#[test]
fn passive_components_queue_until_started() {
    let (sim, system) = sim_system();
    let echo = system.create(Echo::default);
    let client = system.create(|| Client {
        burst: 5,
        ..Client::default()
    });
    system.connect::<NumPort, _, _>(&echo, &client);
    system.start(&client); // echo stays passive
    sim.run_for(Duration::from_secs(1));
    assert_eq!(
        echo.on_definition(|e| e.seen.len()),
        0,
        "passive: must not run"
    );
    assert_eq!(echo.lifecycle_state(), LifecycleState::Passive);
    system.start(&echo);
    sim.run_for(Duration::from_secs(1));
    assert_eq!(echo.on_definition(|e| e.seen.len()), 5, "events retained");
    assert_eq!(client.on_definition(|c| c.received.len()), 5);
}

#[test]
fn killed_component_stops_processing() {
    let (sim, system) = sim_system();
    let echo = system.create(Echo::default);
    let client = system.create(|| Client {
        burst: 1,
        ..Client::default()
    });
    system.connect::<NumPort, _, _>(&echo, &client);
    system.start(&echo);
    system.start(&client);
    sim.run_for(Duration::from_secs(1));
    system.kill(&echo);
    sim.run_for(Duration::from_millis(10));
    assert_eq!(echo.lifecycle_state(), LifecycleState::Destroyed);
    // New requests are ignored.
    client.on_definition(|c| c.port.trigger(Num(7)));
    sim.run_for(Duration::from_secs(1));
    assert_eq!(echo.on_definition(|e| e.seen.len()), 1);
}

/// A component that counts timer firings and cancels after five.
#[derive(Default)]
struct Ticker {
    ticks: u32,
    timer: Option<TimeoutId>,
}

impl ComponentDefinition for Ticker {
    fn execute(&mut self, _ctx: &mut ComponentContext, _max: usize) -> usize {
        0
    }
    fn handle_control(&mut self, ctx: &mut ComponentContext, event: ControlEvent) {
        if event == ControlEvent::Start {
            self.timer =
                Some(ctx.schedule_periodic(Duration::from_millis(10), Duration::from_millis(10)));
        }
    }
    fn on_timeout(&mut self, ctx: &mut ComponentContext, id: TimeoutId) {
        if Some(id) == self.timer {
            self.ticks += 1;
            if self.ticks == 5 {
                ctx.cancel_timer(id);
            }
        }
    }
}

#[test]
fn periodic_timer_fires_and_cancels() {
    let (sim, system) = sim_system();
    let ticker = system.create(Ticker::default);
    system.start(&ticker);
    sim.run_for(Duration::from_secs(2));
    assert_eq!(ticker.on_definition(|t| t.ticks), 5);
}

/// A component fed exclusively through a self port.
#[derive(Default)]
struct Injected {
    inbox: SelfPort<String>,
    log: Vec<String>,
}

impl ComponentDefinition for Injected {
    fn execute(&mut self, ctx: &mut ComponentContext, max: usize) -> usize {
        execute_ports!(self, ctx, max, [selfport inbox: String])
    }
}
impl HandleSelf<String> for Injected {
    fn handle_self(&mut self, _ctx: &mut ComponentContext, event: String) {
        self.log.push(event);
    }
}

#[test]
fn self_port_injection_from_outside() {
    let (sim, system) = sim_system();
    let comp = system.create(Injected::default);
    let handle = comp.self_ref(|c| &mut c.inbox);
    system.start(&comp);
    handle.push("hello".to_string());
    handle.push("world".to_string());
    sim.run_for(Duration::from_secs(1));
    assert_eq!(
        comp.on_definition(|c| c.log.clone()),
        vec!["hello", "world"]
    );
}

/// An echo variant that records how many events each `execute` batch
/// handled, to verify the `max_events_per_scheduling` fairness knob.
#[derive(Default)]
struct BatchEcho {
    port: ProvidedPort<NumPort>,
    batches: Vec<usize>,
    total: usize,
}

impl ComponentDefinition for BatchEcho {
    fn execute(&mut self, ctx: &mut ComponentContext, max: usize) -> usize {
        let handled = execute_ports!(self, ctx, max, [provided port: NumPort]);
        if handled > 0 {
            self.batches.push(handled);
            self.total += handled;
        }
        handled
    }
}
impl Provide<NumPort> for BatchEcho {
    fn handle(&mut self, _ctx: &mut ComponentContext, ev: Num) {
        self.port.trigger(ev);
    }
}
impl ProvideRef<NumPort> for BatchEcho {
    fn provided_port(&mut self) -> &mut ProvidedPort<NumPort> {
        &mut self.port
    }
}

/// Fairness: a component with a huge backlog yields after
/// `max_events_per_scheduling` events and is rescheduled at the back of
/// the queue rather than monopolising the scheduler.
#[test]
fn max_events_per_scheduling_bounds_batches() {
    let sim = Sim::new(5);
    let system = ComponentSystem::simulation(
        &sim,
        SystemConfig {
            max_events_per_scheduling: 10,
        },
    );
    let echo = system.create(BatchEcho::default);
    let client = system.create(|| Client {
        burst: 1000,
        ..Client::default()
    });
    system.connect::<NumPort, _, _>(&echo, &client);
    system.start(&echo);
    system.start(&client);
    sim.run_for(Duration::from_secs(1));
    let (batches, total) = echo.on_definition(|e| (e.batches.clone(), e.total));
    assert_eq!(total, 1000);
    assert!(
        batches.iter().all(|&b| b <= 10),
        "batch exceeded limit: {batches:?}"
    );
    assert!(
        batches.len() >= 100,
        "expected >= 100 batches, got {}",
        batches.len()
    );
    assert_eq!(client.on_definition(|c| c.received.len()), 1000);
}

/// Counts self-port events per producer, checking each producer's order.
#[derive(Default)]
struct Tally {
    inbox: SelfPort<(usize, u64)>,
    /// Events handled per producer, read by the producers' flow control.
    done: Arc<[AtomicU64; 4]>,
}

impl ComponentDefinition for Tally {
    fn execute(&mut self, ctx: &mut ComponentContext, max: usize) -> usize {
        execute_ports!(self, ctx, max, [selfport inbox: (usize, u64)])
    }
}
impl HandleSelf<(usize, u64)> for Tally {
    fn handle_self(&mut self, _ctx: &mut ComponentContext, (producer, seq): (usize, u64)) {
        let done = &self.done[producer];
        assert_eq!(
            seq,
            done.load(Ordering::Relaxed),
            "producer {producer} out of order"
        );
        done.store(seq + 1, Ordering::Release);
    }
}

/// Four threads push into one component while the test thread runs the
/// simulation in short slices. Each keeps at most two events unhandled, so
/// a push often lands while the component is finishing a batch that found
/// its queue empty; a lost wake-up then stalls its producer instead of
/// hiding behind later pushes. A push mid-run is safe: the engine clamps
/// an event scheduled in its past to `now`.
#[test]
fn concurrent_producers_are_each_handled_once() {
    const PER_PRODUCER: u64 = 10_000;
    const WINDOW: u64 = 2;
    let (sim, system) = sim_system();
    let tally = system.create(Tally::default);
    let inbox = tally.self_ref(|t| &mut t.inbox);
    let done = tally.on_definition(|t| t.done.clone());
    system.start(&tally);
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let wait_until = move |done: &AtomicU64, target: u64| {
        while done.load(Ordering::Acquire) < target {
            let n = done.load(Ordering::Acquire);
            assert!(
                std::time::Instant::now() < deadline,
                "stalled at {n}/{target}"
            );
            std::thread::yield_now();
        }
    };
    let producers: Vec<_> = (0..4)
        .map(|producer| {
            let (inbox, done) = (inbox.clone(), done.clone());
            std::thread::spawn(move || {
                for seq in 0..PER_PRODUCER {
                    wait_until(&done[producer], (seq + 1).saturating_sub(WINDOW));
                    inbox.push((producer, seq));
                }
                wait_until(&done[producer], PER_PRODUCER);
            })
        })
        .collect();
    while !producers.iter().all(std::thread::JoinHandle::is_finished) {
        sim.run_for(Duration::from_micros(1));
    }
    for p in producers {
        p.join().expect("producer thread");
    }
    let (handled, pending) = tally.on_definition(|t| {
        let handled: Vec<u64> = t.done.iter().map(|d| d.load(Ordering::Acquire)).collect();
        (handled, t.inbox.pending())
    });
    assert_eq!(handled, [PER_PRODUCER; 4]);
    assert_eq!(pending, 0);
}

/// Records its self-port events and, once it has handled one, pushes one
/// more through its own `SelfRef` after the batch's last poll.
#[derive(Default)]
struct LatePusher {
    inbox: SelfPort<u64>,
    me: Option<SelfRef<u64>>,
    handled: Vec<u64>,
}

impl ComponentDefinition for LatePusher {
    fn execute(&mut self, ctx: &mut ComponentContext, max: usize) -> usize {
        let handled = execute_ports!(self, ctx, max, [selfport inbox: u64]);
        if let Some(me) = self.me.take_if(|_| !self.handled.is_empty()) {
            me.push(2);
        }
        handled
    }
}
impl HandleSelf<u64> for LatePusher {
    fn handle_self(&mut self, _ctx: &mut ComponentContext, event: u64) {
        self.handled.push(event);
    }
}

/// The lost wake-up the threaded test above races for, on every run: the
/// push lands while the component is still marked scheduled and its queue
/// has been polled for the last time, so only the batch's `dirty` test
/// reschedules it.
#[test]
fn a_push_after_the_last_poll_of_a_batch_is_handled() {
    let (sim, system) = sim_system();
    let pusher = system.create(LatePusher::default);
    let me = pusher.self_ref(|p| &mut p.inbox);
    pusher.on_definition(|p| p.me = Some(me.clone()));
    system.start(&pusher);
    me.push(1);
    sim.run_for(Duration::from_secs(1));
    assert_eq!(pusher.on_definition(|p| p.handled.clone()), [1, 2]);
}

/// A `PortSink` records indications in arrival order: here a burst the
/// echo broadcasts in answer to another client's requests.
#[test]
fn port_sink_records_indications_in_arrival_order() {
    let (sim, system) = sim_system();
    let echo = system.create(Echo::default);
    let client = system.create(|| Client {
        burst: 20,
        ..Client::default()
    });
    let sink = system.create(PortSink::<NumPort>::default);
    system.connect::<NumPort, _, _>(&echo, &client);
    system.connect::<NumPort, _, _>(&echo, &sink);
    system.start(&echo);
    system.start(&client);
    system.start(&sink);
    sim.run_for(Duration::from_secs(1));
    let got: Vec<u64> = sink.on_definition(|s| s.received.iter().map(|n| n.0).collect());
    assert_eq!(got, (0..20).collect::<Vec<_>>());
}

/// A request pushed into a `PortSink` from a thread other than the
/// simulation's is triggered on the sink's port once.
#[test]
fn port_sink_forwards_a_request_from_another_thread_once() {
    let (sim, system) = sim_system();
    let echo = system.create(Echo::default);
    let sink = system.create(PortSink::<NumPort>::default);
    system.connect::<NumPort, _, _>(&echo, &sink);
    let requests = sink.self_ref(|s| &mut s.requests);
    system.start(&echo);
    system.start(&sink);
    std::thread::spawn(move || requests.push(Num(7)))
        .join()
        .expect("pusher thread");
    sim.run_for(Duration::from_secs(1));
    assert_eq!(echo.on_definition(|e| e.seen.clone()), [7]);
    assert_eq!(sink.on_definition(|s| s.received.clone()), [Num(7)]);
}

#[test]
fn system_clock_advances_with_sim() {
    let (sim, system) = sim_system();
    assert_eq!(system.now(), kmsg_netsim::time::SimTime::ZERO);
    sim.run_for(Duration::from_secs(4));
    assert_eq!(system.now(), kmsg_netsim::time::SimTime::from_secs(4));
}

#[test]
fn component_count_tracks_creation() {
    let (_sim, system) = sim_system();
    assert_eq!(system.component_count(), 0);
    let _a = system.create(Echo::default);
    let _b = system.create(Echo::default);
    assert_eq!(system.component_count(), 2);
}

/// Request-direction selectors: a provider only receives the requests its
/// channel's filter accepts (the mirror image of the indication selectors
/// used for virtual-node routing).
#[test]
fn channel_selectors_route_requests() {
    let sim = Sim::new(123);
    let system = ComponentSystem::simulation(&sim, SystemConfig::default());
    let even_echo = system.create(Echo::default);
    let odd_echo = system.create(Echo::default);
    let client = system.create(|| Client {
        burst: 10,
        ..Client::default()
    });
    system.connect_filtered::<NumPort, _, _>(
        &even_echo,
        &client,
        Some(Arc::new(|n: &Num| n.0.is_multiple_of(2))),
        None,
    );
    system.connect_filtered::<NumPort, _, _>(
        &odd_echo,
        &client,
        Some(Arc::new(|n: &Num| n.0 % 2 == 1)),
        None,
    );
    system.start(&even_echo);
    system.start(&odd_echo);
    system.start(&client);
    sim.run_for(Duration::from_secs(1));
    assert_eq!(
        even_echo.on_definition(|e| e.seen.clone()),
        vec![0, 2, 4, 6, 8]
    );
    assert_eq!(
        odd_echo.on_definition(|e| e.seen.clone()),
        vec![1, 3, 5, 7, 9]
    );
    // The client hears every echo twice? No: each request went to exactly
    // one provider, and each provider broadcasts its indication to its own
    // channel back to the client.
    assert_eq!(client.on_definition(|c| c.received.len()), 10);
}

/// Stop pauses a component (events queue); start resumes with events
/// retained.
#[test]
fn stop_and_restart_retains_events() {
    let sim = Sim::new(7);
    let system = ComponentSystem::simulation(&sim, SystemConfig::default());
    let echo = system.create(Echo::default);
    let client = system.create(|| Client {
        burst: 3,
        ..Client::default()
    });
    system.connect::<NumPort, _, _>(&echo, &client);
    system.start(&echo);
    system.start(&client);
    sim.run_for(Duration::from_secs(1));
    assert_eq!(echo.on_definition(|e| e.seen.len()), 3);
    system.stop(&echo);
    sim.run_for(Duration::from_millis(10));
    assert_eq!(echo.lifecycle_state(), LifecycleState::Passive);
    client.on_definition(|c| {
        for i in 100..105 {
            c.port.trigger(Num(i));
        }
    });
    sim.run_for(Duration::from_secs(1));
    assert_eq!(
        echo.on_definition(|e| e.seen.len()),
        3,
        "paused: nothing handled"
    );
    system.start(&echo);
    sim.run_for(Duration::from_secs(1));
    assert_eq!(
        echo.on_definition(|e| e.seen.clone())[3..],
        [100, 101, 102, 103, 104]
    );
}
