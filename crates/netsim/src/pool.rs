//! Pooled storage for in-flight packets.
//!
//! Every packet injected into the fabric used to ride in its own
//! `Box<Packet>`: one malloc at [`send_packet`](crate::network::Network::send_packet)
//! time, one free at delivery or drop. At datacenter scale that is a heap
//! round-trip per packet — the single largest allocation term in the
//! per-event cost profile of large worlds.
//!
//! [`PacketPool`] replaces the box with a slot in a `Slab<Packet>`: hop
//! events and in-flight sets carry an 8-byte generation-checked
//! [`PacketHandle`] instead of an owning pointer, and the slot storage is
//! recycled across packets (LIFO, so the hot slots stay cache-warm). The
//! [`Bytes`](kmsg_telemetry::bytes::Bytes) payload inside the packet is refcounted
//! separately and is unaffected — pooling recycles the ~160-byte packet
//! header/body shell, which is the part that was churning the allocator.
//!
//! # Lifecycle and leak accounting
//!
//! A slot is allocated exactly once per fabric injection and freed at
//! exactly one of the packet's terminal outcomes: delivery to a sink, a
//! link-level drop, a missing route/sink, or death-by-[`sever`]
//! (mid-flight packets whose link was severed are freed at their arrival
//! check). [`PacketPool::live`] therefore counts packets currently in
//! flight; a drained simulation must report zero, which the fault-path
//! leak tests and the fuzz conservation oracle assert.
//!
//! Generation checking makes stale handles harmless: a handle freed and
//! reused resolves to `None` rather than aliasing the new occupant (the
//! classic ABA hazard of index-based pools), and a double free is rejected
//! instead of corrupting the free list.
//!
//! [`sever`]: crate::link::Link::sever

use crate::packet::Packet;
use crate::slab::{Handle, Slab};

/// Generation-checked, 8-byte, `Copy` reference to a pooled in-flight
/// packet. Carried by packet-hop events instead of a `Box<Packet>`.
pub type PacketHandle = Handle<Packet>;

/// A recycling arena for in-flight packets (see the [module docs](self)).
#[derive(Default)]
pub struct PacketPool {
    slab: Slab<Packet>,
    /// Total slots ever allocated (monotonic; for telemetry/diagnostics).
    allocated: u64,
    /// High-water mark of simultaneously live packets.
    high_water: usize,
}

impl PacketPool {
    /// An empty pool (no allocation until the first packet).
    #[must_use]
    pub fn new() -> Self {
        PacketPool {
            slab: Slab::new(),
            allocated: 0,
            high_water: 0,
        }
    }

    /// Stores a packet, returning its handle. The slot is recycled storage
    /// when one is free (LIFO), a fresh slot otherwise.
    pub fn alloc(&mut self, pkt: Packet) -> PacketHandle {
        self.allocated += 1;
        let h = self.slab.insert(pkt);
        if self.slab.len() > self.high_water {
            self.high_water = self.slab.len();
        }
        h
    }

    /// Frees the slot behind `h`, returning the packet by value. `None` if
    /// the handle is stale (already freed — double frees are rejected, not
    /// undefined).
    pub fn free(&mut self, h: PacketHandle) -> Option<Packet> {
        self.slab.remove(h)
    }

    /// Resolves a live handle.
    #[must_use]
    pub fn get(&self, h: PacketHandle) -> Option<&Packet> {
        self.slab.get(h)
    }

    /// Mutable variant of [`PacketPool::get`].
    #[must_use]
    pub(crate) fn get_mut(&mut self, h: PacketHandle) -> Option<&mut Packet> {
        self.slab.get_mut(h)
    }

    /// True if `h` refers to a live (not yet freed) packet.
    #[must_use]
    pub fn contains(&self, h: PacketHandle) -> bool {
        self.slab.contains(h)
    }

    /// Packets currently in flight. A drained world must report zero —
    /// anything else is a leaked slot.
    #[must_use]
    pub fn live(&self) -> usize {
        self.slab.len()
    }

    /// Total packets ever pooled (monotonic).
    #[must_use]
    pub fn total_allocated(&self) -> u64 {
        self.allocated
    }

    /// Most packets ever simultaneously live.
    #[must_use]
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

impl std::fmt::Debug for PacketPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PacketPool")
            .field("live", &self.live())
            .field("high_water", &self.high_water)
            .field("allocated", &self.allocated)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Endpoint, NodeId, PacketBody, WireProtocol};
    use kmsg_telemetry::bytes::Bytes;

    fn pkt(tag: u16) -> Packet {
        Packet::new(
            Endpoint::new(NodeId::from_index(0), tag),
            Endpoint::new(NodeId::from_index(1), 80),
            WireProtocol::Udp,
            100,
            PacketBody::Udp(Bytes::new()),
        )
    }

    #[test]
    fn alloc_free_roundtrip() {
        let mut pool = PacketPool::new();
        let h = pool.alloc(pkt(7));
        assert_eq!(pool.live(), 1);
        assert_eq!(pool.get(h).unwrap().src.port, 7);
        let out = pool.free(h).unwrap();
        assert_eq!(out.src.port, 7);
        assert_eq!(pool.live(), 0);
    }

    #[test]
    fn double_free_rejected() {
        let mut pool = PacketPool::new();
        let h = pool.alloc(pkt(1));
        assert!(pool.free(h).is_some());
        assert!(pool.free(h).is_none(), "second free must be rejected");
        assert_eq!(pool.live(), 0);
    }

    #[test]
    fn stale_handle_does_not_alias_recycled_slot() {
        let mut pool = PacketPool::new();
        let a = pool.alloc(pkt(1));
        pool.free(a);
        let b = pool.alloc(pkt(2));
        // Same slot, new generation: the old handle must not resolve.
        assert_eq!(a.index(), b.index(), "LIFO recycling should reuse the slot");
        assert!(pool.get(a).is_none());
        assert!(!pool.contains(a));
        assert_eq!(pool.get(b).unwrap().src.port, 2);
    }

    #[test]
    fn counters_track_lifecycle() {
        let mut pool = PacketPool::new();
        let hs: Vec<_> = (0..10).map(|i| pool.alloc(pkt(i))).collect();
        assert_eq!(pool.high_water(), 10);
        assert_eq!(pool.total_allocated(), 10);
        for h in hs {
            pool.free(h);
        }
        assert_eq!(pool.live(), 0);
        // High water and total stay monotonic.
        pool.alloc(pkt(0));
        assert_eq!(pool.high_water(), 10);
        assert_eq!(pool.total_allocated(), 11);
    }
}
