//! Engine-event and heap-growth guard for many small round trips.
//!
//! The `rpc_small` shape: 64 requesters on one host, each with one 64-byte
//! request outstanding to an echo on the other, all over one TCP
//! connection. A round trip used to cost 13.0 engine events, 3.0 of them
//! TCP timer firings that did nothing — every re-arm of the RTO and every
//! delayed ACK was an event of its own — and those stale events, parked in
//! the timing wheel's slots, grew the heap by ~145 B per message
//! (docs/lab/PR-25.md "Timers that cannot fire"). A flow timer now keeps one
//! pending event however often it is re-armed; this test fails if either
//! figure creeps back.
//!
//! Past the warm-up the exchange keeps a steady number of events pending,
//! so the live heap must stay flat: the wheel's coarse levels hold entries
//! in one pool bounded by the most ever pending, not in slots that each
//! keep their own peak (those grew it 183 552 B here as the wheel's
//! position reached slots it had not used yet; docs/lab/PR-49.md "A wheel
//! that holds what is pending"). The heap budget is the allowance for any
//! such growth, a few kilobytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

use kmsg_apps::scenario::{two_host_world, Setup};
use kmsg_component::prelude::*;
use kmsg_core::prelude::*;
use kmsg_telemetry::bytes::Bytes;

struct CountingAlloc;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(l.size(), Relaxed);
        System.alloc(l)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        LIVE_BYTES.fetch_sub(l.size(), Relaxed);
        System.dealloc(p, l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new, Relaxed);
        LIVE_BYTES.fetch_sub(l.size(), Relaxed);
        System.realloc(p, l, new)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Measured 9.99; 12.98 while every timer arm was an engine event.
const EVENTS_PER_ROUND_TRIP_BUDGET: f64 = 10.5;
/// Measured 0 B; 183 552 B while each wheel slot kept its own peak, 7.2 MB
/// while stale timer events piled up.
const HEAP_GROWTH_BUDGET: usize = 16 * 1024;
const REQUESTERS: u64 = 64;
const EARLY: u64 = 4_000;
const LATE: u64 = 40_000;

static PAYLOAD: [u8; 64] = [7; 64];

/// Keeps one request outstanding to `to` (or, with none, echoes whatever
/// arrives back to its source).
struct Peer {
    net: RequiredPort<NetworkPort>,
    addr: NetAddress,
    to: Option<NetAddress>,
    round_trips: Arc<AtomicU64>,
}

impl Peer {
    fn send(&mut self, to: NetAddress, payload: Bytes) {
        let msg = NetMessage::new(self.addr, to, Transport::Tcp, payload);
        self.net.trigger(NetRequest::Msg(msg));
    }
}

impl ComponentDefinition for Peer {
    fn execute(&mut self, ctx: &mut ComponentContext, max: usize) -> usize {
        execute_ports!(self, ctx, max, [required net: NetworkPort])
    }

    fn handle_control(&mut self, _ctx: &mut ComponentContext, event: ControlEvent) {
        if let (ControlEvent::Start, Some(to)) = (event, self.to) {
            self.send(to, Bytes::from_static(&PAYLOAD));
        }
    }
}

impl Require<NetworkPort> for Peer {
    fn handle(&mut self, _ctx: &mut ComponentContext, ev: NetIndication) {
        let NetIndication::Msg(msg) = ev else {
            return;
        };
        let payload = msg.try_deserialise::<Bytes, Bytes>().expect("bytes");
        let to = match self.to {
            Some(to) => {
                self.round_trips.fetch_add(1, Relaxed);
                to
            }
            None => *msg.header().source(),
        };
        self.send(to, payload);
    }
}

impl RequireRef<NetworkPort> for Peer {
    fn required_port(&mut self) -> &mut RequiredPort<NetworkPort> {
        &mut self.net
    }
}

#[test]
fn small_round_trips_stay_under_event_and_heap_budgets() {
    let world = two_host_world(42, &Setup::EuVpc);
    let a_addr = NetAddress::new(world.host_a, 7000);
    let b_addr = NetAddress::new(world.host_b, 7001);
    let round_trips = Arc::new(AtomicU64::new(0));
    let bind =
        |addr| create_network(&world.system, &world.net, NetworkConfig::new(addr)).expect("bind");
    let (a_net, b_net) = (bind(a_addr), bind(b_addr));
    let peer = |addr, to| Peer {
        net: RequiredPort::new(),
        addr,
        to,
        round_trips: round_trips.clone(),
    };
    let echo = world.system.create(|| peer(b_addr, None));
    world.system.connect::<NetworkPort, _, _>(&b_net, &echo);
    let requesters: Vec<_> = (1..=REQUESTERS)
        .map(|i| {
            let vnode = VnodeId(i);
            let req = world
                .system
                .create(|| peer(a_addr.with_vnode(vnode), Some(b_addr)));
            connect_vnode(&world.system, &a_net, &req, vnode);
            req
        })
        .collect();
    world.system.start(&a_net);
    world.system.start(&b_net);
    world.system.start(&echo);
    for req in &requesters {
        world.system.start(req);
    }

    // 64 round trips take 3 ms of simulated time.
    let run_until = |target: u64| {
        while round_trips.load(Relaxed) < target {
            assert!(
                world.sim.now().as_nanos() < 60_000_000_000,
                "the exchange stalled"
            );
            world.sim.run_for(Duration::from_millis(3));
        }
        (
            round_trips.load(Relaxed),
            world.sim.events_executed(),
            LIVE_BYTES.load(Relaxed),
        )
    };
    let (trips_early, events_early, heap_early) = run_until(EARLY);
    let (trips_late, events_late, heap_late) = run_until(LATE);
    let per_trip = (events_late - events_early) as f64 / (trips_late - trips_early) as f64;
    assert!(
        per_trip <= EVENTS_PER_ROUND_TRIP_BUDGET,
        "a 64-byte round trip costs {per_trip:.2} engine events \
         (budget {EVENTS_PER_ROUND_TRIP_BUDGET})"
    );
    let growth = heap_late.saturating_sub(heap_early);
    assert!(
        growth <= HEAP_GROWTH_BUDGET,
        "the live heap grew {growth} B between {trips_early} and {trips_late} round trips \
         (budget {HEAP_GROWTH_BUDGET} B)"
    );
    world.system.shutdown();
}
