//! Per-flow memory regression guard.
//!
//! The slab/handle flow representation (DESIGN.md §12) cut the heap cost
//! of an established-but-idle TCP flow from ~6.2 KB to ~3.4 KB, and later
//! changes to ~3.0 KB; a timing wheel whose coarse levels share one node
//! pool, instead of keeping every slot's peak, to ~2.7 KB; a handshake
//! that keeps its SYN as flow state, so that neither side of an idle flow
//! allocates a send queue, to ~2.1 KB; a stream whose buffers are lists in
//! its table's node pool, 40 B smaller on each side, to ~2.0 KB. This test
//! re-measures that cost with a counting allocator on a 1000-flow star
//! fan-in world and fails if it creeps back over budget. The budget sits
//! ~4% above the measured value and below the last one, so a stream that
//! keeps containers of its own again (2115.5 B, docs/lab/PR-54.md) or a SYN
//! back in the send queue (2691.5 B, docs/lab/PR-50.md "Each byte held
//! once") fails here before it reaches a benchmark run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use kmsg_apps::{star_fanin, CONVERGE_PORT};
use kmsg_netsim::engine::Sim;
use kmsg_netsim::iface::{Connection, StreamAccept, StreamEvents};
use kmsg_netsim::network::Network;
use kmsg_netsim::packet::Endpoint;
use kmsg_netsim::tcp::{TcpConfig, TcpConn, TcpListener};

struct CountingAlloc;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(l.size(), Ordering::Relaxed);
        System.alloc(l)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        LIVE_BYTES.fetch_sub(l.size(), Ordering::Relaxed);
        System.dealloc(p, l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(l.size(), Ordering::Relaxed);
        System.realloc(p, l, new)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The measured 1982.1 B plus ~1.4%, under the 2020.2 B the flows took
/// while each kept its send queue's `VecDeque` in its slab slot.
const BYTES_PER_FLOW_BUDGET: f64 = 2010.0;
const FLOWS: usize = 1000;

struct Quiet;
impl StreamEvents for Quiet {}

struct AcceptQuiet;
impl StreamAccept for AcceptQuiet {
    fn on_accept(&self, _conn: &Connection) -> Arc<dyn StreamEvents> {
        Arc::new(Quiet)
    }
}

#[test]
fn idle_flow_memory_stays_under_budget() {
    let sim = Sim::new(42);
    let net = Network::new(&sim);
    let topo = star_fanin(&net, FLOWS);
    let _listener = TcpListener::bind(
        &net,
        topo.sink,
        CONVERGE_PORT,
        TcpConfig::default(),
        Arc::new(AcceptQuiet),
    )
    .expect("bind");

    // Settle the world so the delta below is pure per-flow state.
    sim.run_for(Duration::from_millis(10));
    let before = LIVE_BYTES.load(Ordering::Relaxed);

    let conns: Vec<TcpConn> = topo
        .senders
        .iter()
        .map(|&s| {
            TcpConn::connect(
                &net,
                s,
                Endpoint::new(topo.sink, CONVERGE_PORT),
                TcpConfig::default(),
                Arc::new(Quiet),
            )
            .expect("connect")
        })
        .collect();
    sim.run_for(Duration::from_secs(5));

    let established = conns.iter().filter(|c| c.is_established()).count();
    assert_eq!(established, FLOWS, "all probe flows must establish");

    let after = LIVE_BYTES.load(Ordering::Relaxed);
    let per_flow = (after as isize - before as isize) as f64 / FLOWS as f64;
    assert!(
        per_flow < BYTES_PER_FLOW_BUDGET,
        "per-flow heap cost regressed: {per_flow:.1} B/flow (budget {BYTES_PER_FLOW_BUDGET} B; \
         measured 1982.1 B; 2020.2 B while each flow kept its send queue's `VecDeque` in its slot, \
         2115.5 B while each stream kept a `VecDeque` and a `BTreeMap` of its \
         own, 2691.5 B while each side queued its SYN, pre-slab baseline 6169.4 B)"
    );
}
