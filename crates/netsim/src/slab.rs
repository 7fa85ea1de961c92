//! Dense, generation-checked storage for simulator state.
//!
//! At datacenter scale (10⁴ hosts, 10⁴ concurrent flows) the old
//! `Arc<Mutex<...>>`-per-connection representation is memory- and
//! cache-hostile: every flow is its own heap allocation, every timer
//! callback boxes a closure capturing a `Weak`, and every packet hop clones
//! refcounted pointers. This module provides the compact alternative:
//!
//! * [`Slab<T>`] — a dense arena with an intrusive free list. Slots are
//!   addressed by [`Handle`]s: a packed `(index, generation)` pair that fits
//!   in 8 bytes and is `Copy`, so packet hops and timer tokens can carry it
//!   by value instead of bumping refcounts.
//! * Generation checking — every slot carries a generation that is bumped on
//!   `remove`, so a stale handle (e.g. a timer that fires after its flow was
//!   torn down) resolves to `None` instead of aliasing an unrelated flow
//!   that happens to reuse the slot.
//! * [`FxHasher`] — a dependency-free port of the Firefox/rustc hash used
//!   for the hot-path maps the dense tables don't subsume (routes, sink and
//!   flow demux, listener connection tables). The default `SipHash` is
//!   DoS-resistant but ~4x slower for the short fixed-width keys the
//!   simulator uses, and the simulator is not an open network service.
//!
//! Memory accounting: [`Slab::mem_bytes`] reports the retained capacity in
//! bytes, which is what the scaling benchmark and the memory-regression
//! test use as an RSS proxy for bytes/flow.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::marker::PhantomData;

/// A generation-checked index into a [`Slab<T>`].
///
/// 8 bytes, `Copy`, and typed by the slot it refers to, so a flow handle
/// cannot be confused with a link handle at compile time. The generation
/// makes stale handles safe at runtime: after the slot is freed and reused,
/// old handles no longer resolve.
pub struct Handle<T> {
    idx: u32,
    gen: u32,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Handle<T> {
    /// The raw slot index (for dense side tables indexed the same way).
    #[must_use]
    pub fn index(self) -> usize {
        self.idx as usize
    }

    /// The slot generation this handle was issued for.
    #[must_use]
    pub fn generation(self) -> u32 {
        self.gen
    }

    /// Packs the handle into a `u64` (`index << 32 | generation`) so it can
    /// ride in an event token without any allocation.
    #[must_use]
    pub fn pack(self) -> u64 {
        (u64::from(self.idx) << 32) | u64::from(self.gen)
    }

    /// Reverses [`Handle::pack`].
    #[must_use]
    pub fn from_packed(bits: u64) -> Self {
        Handle {
            idx: (bits >> 32) as u32,
            gen: bits as u32,
            _marker: PhantomData,
        }
    }
}

// Manual impls: `derive` would bound them on `T`, but the handle is just an
// index — it is Copy/Eq/Hash regardless of what the slab stores.
impl<T> Clone for Handle<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Handle<T> {}
impl<T> PartialEq for Handle<T> {
    fn eq(&self, other: &Self) -> bool {
        self.idx == other.idx && self.gen == other.gen
    }
}
impl<T> Eq for Handle<T> {}
impl<T> std::hash::Hash for Handle<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.pack());
    }
}
impl<T> std::fmt::Debug for Handle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Handle({}v{})", self.idx, self.gen)
    }
}

enum Slot<T> {
    /// Free slot; value is the index of the next free slot (or `u32::MAX`).
    Vacant(u32),
    Occupied(T),
}

/// A dense arena of `T` with O(1) insert/remove and generation-checked
/// handles. Slots are reused LIFO so long-running worlds with connection
/// churn stay compact.
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    gens: Vec<u32>,
    free_head: u32,
    live: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// An empty slab (no allocation until the first insert).
    #[must_use]
    pub fn new() -> Self {
        Slab {
            slots: Vec::new(),
            gens: Vec::new(),
            free_head: u32::MAX,
            live: 0,
        }
    }

    /// An empty slab with room for `cap` slots.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Slab {
            slots: Vec::with_capacity(cap),
            gens: Vec::with_capacity(cap),
            free_head: u32::MAX,
            live: 0,
        }
    }

    /// Number of live (occupied) slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no slot is occupied.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Retained capacity in bytes — the RSS proxy used by the scaling
    /// benchmark (slot storage plus generation table).
    #[must_use]
    pub fn mem_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot<T>>()
            + self.gens.capacity() * std::mem::size_of::<u32>()
    }

    /// Inserts a value, reusing a free slot if one exists.
    pub fn insert(&mut self, value: T) -> Handle<T> {
        self.live += 1;
        if self.free_head != u32::MAX {
            let idx = self.free_head;
            match self.slots[idx as usize] {
                Slot::Vacant(next) => self.free_head = next,
                Slot::Occupied(_) => unreachable!("free list points at occupied slot"),
            }
            self.slots[idx as usize] = Slot::Occupied(value);
            Handle {
                idx,
                gen: self.gens[idx as usize],
                _marker: PhantomData,
            }
        } else {
            let idx = u32::try_from(self.slots.len()).expect("slab index overflow");
            // Grow in 25% steps instead of `Vec`'s doubling: at datacenter
            // scale the retained-capacity slack is a real memory term (a
            // 20k-flow world under doubling strands 12k slots), and slabs
            // grow one slot at a time so the extra realloc count is cheap.
            if self.slots.len() == self.slots.capacity() {
                let extra = (self.slots.len() / 4).max(64);
                self.slots.reserve_exact(extra);
                self.gens.reserve_exact(extra);
            }
            self.slots.push(Slot::Occupied(value));
            self.gens.push(0);
            Handle {
                idx,
                gen: 0,
                _marker: PhantomData,
            }
        }
    }

    fn check(&self, h: Handle<T>) -> bool {
        (h.idx as usize) < self.slots.len() && self.gens[h.idx as usize] == h.gen
    }

    /// True if the handle still refers to a live slot.
    #[must_use]
    pub fn contains(&self, h: Handle<T>) -> bool {
        self.check(h) && matches!(self.slots[h.idx as usize], Slot::Occupied(_))
    }

    /// Resolves a handle, or `None` if it is stale or out of range.
    #[must_use]
    pub fn get(&self, h: Handle<T>) -> Option<&T> {
        if !self.check(h) {
            return None;
        }
        match &self.slots[h.idx as usize] {
            Slot::Occupied(v) => Some(v),
            Slot::Vacant(_) => None,
        }
    }

    /// Mutable variant of [`Slab::get`].
    #[must_use]
    pub fn get_mut(&mut self, h: Handle<T>) -> Option<&mut T> {
        if !self.check(h) {
            return None;
        }
        match &mut self.slots[h.idx as usize] {
            Slot::Occupied(v) => Some(v),
            Slot::Vacant(_) => None,
        }
    }

    /// Reconstructs the current-generation handle for a raw slot index, or
    /// `None` if the slot is vacant or out of range. Used to resolve packed
    /// event tokens (which carry the index and the generation they were
    /// issued for) back into checked handles.
    #[must_use]
    pub fn handle_at(&self, index: u32) -> Option<Handle<T>> {
        match self.slots.get(index as usize) {
            Some(Slot::Occupied(_)) => Some(Handle {
                idx: index,
                gen: self.gens[index as usize],
                _marker: PhantomData,
            }),
            _ => None,
        }
    }

    /// Removes the value behind `h`, bumping the slot generation so every
    /// outstanding copy of the handle goes stale.
    pub fn remove(&mut self, h: Handle<T>) -> Option<T> {
        if !self.contains(h) {
            return None;
        }
        let idx = h.idx as usize;
        let old = std::mem::replace(&mut self.slots[idx], Slot::Vacant(self.free_head));
        self.free_head = h.idx;
        self.gens[idx] = self.gens[idx].wrapping_add(1);
        self.live -= 1;
        match old {
            Slot::Occupied(v) => Some(v),
            Slot::Vacant(_) => unreachable!("contains() said occupied"),
        }
    }

    /// Iterates live slots in index order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = (Handle<T>, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(i, s)| match s {
                Slot::Occupied(v) => Some((
                    Handle {
                        idx: i as u32,
                        gen: self.gens[i],
                        _marker: PhantomData,
                    },
                    v,
                )),
                Slot::Vacant(_) => None,
            })
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Slab<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slab")
            .field("live", &self.live)
            .field("capacity", &self.slots.capacity())
            .finish()
    }
}

/// The Firefox/rustc "Fx" hash: a single multiply-rotate per word. Not
/// DoS-resistant — fine for a simulator whose keys come from its own node
/// and port allocators, and measurably faster than SipHash on the 8- and
/// 16-byte keys of the route, sink and flow demux tables.
///
/// Bit *j* of a product depends only on bits ≤ *j* of its factors, `HashMap`
/// takes the bucket from the *low* bits of the hash (and a 7-bit tag from
/// the top), and those keys differ *high* (`src << 32 | dst`, `node << 32 |
/// proto << 16 | port`): so `finish` rotates state bits 44.. down to the
/// bucket index and bits 37..44 up to the tag. Without it every route to one
/// sink shares a bucket; under rustc-hash's 26 the tag would see six key bits.
#[derive(Default, Clone, Debug)]
pub struct FxHasher {
    state: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state.rotate_left(20)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.mix(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(u64::from(v));
    }
    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.mix(u64::from(v));
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }
    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.mix(v as u64);
        self.mix((v >> 64) as u64);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// `HashMap` keyed with [`FxHasher`]. Nothing in this crate iterates one, so
/// no simulated outcome depends on the hash; where an order is needed, sort.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

/// Retained bytes of an `FxHashMap`/`HashMap`: a conservative capacity-based
/// estimate (hashbrown stores one control byte plus one `(K, V)` pair per
/// bucket). Used by the memory accounting in the scaling probe.
#[must_use]
pub fn map_mem_bytes<K, V, S>(map: &HashMap<K, V, S>) -> usize {
    // hashbrown allocates buckets = capacity / 7 * 8 rounded to a power of
    // two; capacity() already reflects the usable size, so this slightly
    // underestimates. Good enough for a regression *budget*.
    map.capacity() * (std::mem::size_of::<(K, V)>() + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut slab: Slab<String> = Slab::new();
        let a = slab.insert("a".into());
        let b = slab.insert("b".into());
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.get(a).unwrap(), "a");
        assert_eq!(slab.get(b).unwrap(), "b");
        assert_eq!(slab.remove(a).unwrap(), "a");
        assert_eq!(slab.len(), 1);
        assert!(slab.get(a).is_none());
        assert_eq!(slab.get(b).unwrap(), "b");
    }

    #[test]
    fn stale_handle_rejected_after_reuse() {
        let mut slab: Slab<u32> = Slab::new();
        let a = slab.insert(1);
        slab.remove(a);
        // The freed slot is reused by the next insert...
        let b = slab.insert(2);
        assert_eq!(b.index(), a.index());
        // ...but the old handle must not alias the new occupant.
        assert!(slab.get(a).is_none());
        assert!(!slab.contains(a));
        assert_eq!(*slab.get(b).unwrap(), 2);
        assert_ne!(a, b);
    }

    #[test]
    fn pack_roundtrip() {
        let mut slab: Slab<u8> = Slab::new();
        let h = {
            let a = slab.insert(0);
            slab.remove(a);
            slab.insert(7) // generation 1
        };
        assert_eq!(h.generation(), 1);
        let packed = h.pack();
        let back: Handle<u8> = Handle::from_packed(packed);
        assert_eq!(back, h);
        assert_eq!(*slab.get(back).unwrap(), 7);
    }

    #[test]
    fn free_list_is_lifo_and_dense() {
        let mut slab: Slab<usize> = Slab::new();
        let hs: Vec<_> = (0..10).map(|i| slab.insert(i)).collect();
        slab.remove(hs[3]);
        slab.remove(hs[7]);
        let x = slab.insert(100);
        let y = slab.insert(200);
        // LIFO reuse: most recently freed slot first.
        assert_eq!(x.index(), 7);
        assert_eq!(y.index(), 3);
        assert_eq!(slab.len(), 10);
    }

    #[test]
    fn iter_is_index_ordered() {
        let mut slab: Slab<u32> = Slab::new();
        let a = slab.insert(10);
        let _b = slab.insert(20);
        let _c = slab.insert(30);
        slab.remove(a);
        let vals: Vec<u32> = slab.iter().map(|(_, v)| *v).collect();
        assert_eq!(vals, vec![20, 30]);
        let idxs: Vec<usize> = slab.iter().map(|(h, _)| h.index()).collect();
        assert_eq!(idxs, vec![1, 2]);
    }

    #[test]
    fn mem_bytes_tracks_capacity() {
        let mut slab: Slab<[u64; 8]> = Slab::with_capacity(16);
        let base = slab.mem_bytes();
        assert!(base >= 16 * std::mem::size_of::<[u64; 8]>());
        for _ in 0..16 {
            slab.insert([0; 8]);
        }
        // No growth within reserved capacity.
        assert_eq!(slab.mem_bytes(), base);
    }

    #[test]
    fn growth_slack_stays_under_a_third() {
        // 20k one-at-a-time inserts (a 10k-host converging-senders world)
        // must not strand doubling-sized capacity: the 25% growth policy
        // bounds retained slack.
        let mut slab: Slab<[u64; 4]> = Slab::new();
        for i in 0..20_000u64 {
            slab.insert([i; 4]);
        }
        let per_slot = std::mem::size_of::<Slot<[u64; 4]>>() + std::mem::size_of::<u32>();
        let implied_cap = slab.mem_bytes() / per_slot;
        assert!(
            implied_cap < 20_000 * 4 / 3,
            "slab capacity {implied_cap} for 20000 live slots — growth slack too large"
        );
    }

    #[test]
    fn fx_hash_is_deterministic_and_spreads() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(0xdead_beef);
        b.write_u64(0xdead_beef);
        assert_eq!(a.finish(), b.finish());

        // Sanity: nearby keys land on distinct hashes.
        let mut seen = std::collections::HashSet::new();
        for i in 0u64..1000 {
            let mut h = FxHasher::default();
            h.write_u64(i);
            seen.insert(h.finish());
        }
        assert_eq!(seen.len(), 1000);
    }

    fn fx<K: std::hash::Hash>(key: K) -> u64 {
        use std::hash::BuildHasher;
        BuildHasherDefault::<FxHasher>::default().hash_one(key)
    }

    /// Holds the hashes of one map's keys to what `std`'s `HashMap` needs
    /// of them: it reads the bucket from the low bits of a table sized to
    /// 8/7 of the entries, probes 16 buckets at a time, and tells the
    /// entries of a probe apart by the top 7 bits.
    fn assert_spreads(what: &str, hashes: &[u64]) {
        let buckets = (hashes.len() * 8 / 7).next_power_of_two();
        let mut load = vec![0u32; buckets];
        let mut tag_seen = [false; 128];
        for &h in hashes {
            load[h as usize & (buckets - 1)] += 1;
            tag_seen[(h >> 57) as usize] = true;
        }
        let fullest = load.iter().max().expect("at least one bucket");
        assert!(
            *fullest <= 8,
            "{what}: {fullest} of {} keys share one of {buckets} buckets",
            hashes.len()
        );
        let tags = tag_seen.iter().filter(|&&seen| seen).count();
        assert!(tags >= 100, "{what}: only {tags} of 128 tag values in use");
    }

    /// The keys of the four hot tables as `star_fanin` fills them: the sink
    /// is the first node added, the hub the second, and every sender dials
    /// the sink's listener from its first ephemeral port. All of the
    /// difference between two keys of a table then sits above bit 16, or
    /// above bit 32.
    #[test]
    fn fx_spreads_the_keys_of_a_fanin_world() {
        use crate::flowstack::{ep_key, pair_key};
        use crate::network::{route_key, sink_key, EPHEMERAL_LO};
        use crate::packet::{Endpoint, NodeId, WireProtocol};

        let sink = NodeId::from_index(0);
        let listener = Endpoint::new(sink, 7001);
        for n in [10_000u32, 100_000] {
            let senders = || (2..n + 2).map(NodeId::from_index);
            let dials = || senders().map(|s| Endpoint::new(s, EPHEMERAL_LO));

            let routes: Vec<u64> = senders()
                .flat_map(|s| [route_key(s, sink), route_key(sink, s)])
                .map(fx)
                .collect();
            assert_spreads(&format!("routes, {n} senders"), &routes);
            let to_sink: Vec<u64> = senders().map(|s| fx(route_key(s, sink))).collect();
            assert_spreads(&format!("routes to the sink, {n} senders"), &to_sink);

            let ports: Vec<u64> = senders()
                .map(|s| fx(sink_key(s, WireProtocol::Tcp, EPHEMERAL_LO)))
                .collect();
            assert_spreads(&format!("port bindings, {n} senders"), &ports);

            let accepted: Vec<u64> = dials().map(|d| fx(ep_key(d))).collect();
            assert_spreads(&format!("a listener's peers, {n} senders"), &accepted);

            let flows: Vec<u64> = dials()
                .flat_map(|d| [pair_key(d, listener), pair_key(listener, d)])
                .map(fx)
                .collect();
            assert_spreads(&format!("flow demux, {n} senders"), &flows);
            let at_sink: Vec<u64> = dials().map(|d| fx(pair_key(listener, d))).collect();
            assert_spreads(&format!("flow demux at the sink, {n} senders"), &at_sink);

            // What the multiply alone was already good at.
            let indices: Vec<u64> = (0..u64::from(n)).map(fx).collect();
            assert_spreads(&format!("slab indices below {n}"), &indices);
            let nodes: Vec<u64> = senders().map(fx).collect();
            assert_spreads(&format!("{n} node ids"), &nodes);
        }
    }

    #[test]
    fn fx_map_smoke() {
        let mut m: FxHashMap<(u32, u16), u64> = FxHashMap::default();
        for i in 0..100u32 {
            m.insert((i, i as u16), u64::from(i) * 3);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m[&(42, 42)], 126);
        assert!(map_mem_bytes(&m) > 0);
    }

    #[test]
    fn handle_is_8_bytes() {
        assert_eq!(std::mem::size_of::<Handle<String>>(), 8);
        assert!(std::mem::size_of::<Option<Handle<String>>>() <= 12);
    }
}
