//! A hierarchical timing wheel for delayed simulation events.
//!
//! [`TimingWheel`] stores `(time, seq, value)` entries and yields them in
//! strict `(time, seq)` order, like a priority queue, but with O(1) insertion
//! and cohort-at-a-time extraction: all entries sharing the earliest
//! timestamp are removed in one call, which lets the engine drain a whole
//! ready batch under a single lock acquisition.
//!
//! # Structure
//!
//! The wheel is the tokio/Kompact design: [`LEVELS`] levels of [`SLOTS`]
//! slots each, with a tick of 2^[`TICK_SHIFT`] nanoseconds (1.024 µs). Level
//! 0 resolves single ticks; each higher level covers [`SLOTS`]× the span of
//! the one below, so the wheel spans 2^36 ticks (≈ 19.5 hours) ahead of the
//! current position. Entries beyond that land in a fallback binary heap and
//! migrate into the wheel when it drains. Per-level occupancy bitmasks make
//! "find the next deadline" a handful of bit operations; entries in slots
//! that become current *cascade* down to finer levels.
//!
//! Slot storage is plain `Vec`s, each keeping its own allocation (a
//! cascade drains a slot in place), so steady-state operation performs no
//! allocation and no slot inherits another's peak capacity.
//!
//! # Ordering contract
//!
//! Entries with unique `seq`s are returned in ascending `(time, seq)` order
//! by repeated [`TimingWheel::next_at`] / [`TimingWheel::pop_cohort`] calls,
//! exactly matching a binary heap with a `(time, seq)` key — whatever order
//! they were inserted in: an entry may arrive carrying a `seq` older than
//! entries already held (the engine files a coalesced flow timer under a
//! number reserved at its arm), and `pop_cohort` sorts each cohort by `seq`.
//! This is the determinism contract the simulation engine
//! relies on; `crates/netsim/tests/engine_determinism.rs` property-tests it
//! against the heap-based [`reference`](crate::reference) implementation.
//!
//! # Examples
//!
//! ```
//! use kmsg_netsim::time::SimTime;
//! use kmsg_netsim::wheel::TimingWheel;
//!
//! let mut wheel = TimingWheel::new();
//! wheel.insert(SimTime::from_millis(5), 0, "later");
//! wheel.insert(SimTime::from_millis(2), 1, "sooner");
//! let t = wheel.next_at().unwrap();
//! assert_eq!(t, SimTime::from_millis(2));
//! let mut cohort = Vec::new();
//! wheel.pop_cohort(t, &mut cohort);
//! assert_eq!(cohort.len(), 1);
//! assert_eq!(cohort[0].value, "sooner");
//! ```

use std::collections::BinaryHeap;
use std::fmt;

use crate::time::SimTime;

/// Nanoseconds per tick, as a shift: one tick is 2^10 ns = 1.024 µs.
pub const TICK_SHIFT: u32 = 10;
/// Slots per level, as a shift: 2^6 = 64 slots.
pub const SLOT_BITS: u32 = 6;
/// Slots per level.
pub const SLOTS: usize = 1 << SLOT_BITS;
/// Number of wheel levels.
pub const LEVELS: usize = 6;

const SLOT_MASK: u64 = (SLOTS as u64) - 1;
/// Total tick bits the wheel resolves; beyond this entries overflow to a heap.
const WHEEL_BITS: u32 = SLOT_BITS * LEVELS as u32;

/// An entry stored in (and returned from) a [`TimingWheel`].
#[derive(Debug, Clone)]
pub struct WheelEntry<T> {
    /// Absolute due time.
    pub at: SimTime,
    /// Insertion sequence number; ties on `at` resolve in `seq` order.
    pub seq: u64,
    /// The caller's payload.
    pub value: T,
}

/// Min-orders the overflow heap by `(at, seq)`; the payload is ignored.
struct OverflowEntry<T>(WheelEntry<T>);

impl<T> PartialEq for OverflowEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.at == other.0.at && self.0.seq == other.0.seq
    }
}
impl<T> Eq for OverflowEntry<T> {}
impl<T> PartialOrd for OverflowEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for OverflowEntry<T> {
    // BinaryHeap is a max-heap; invert so the earliest (at, seq) is on top.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.0.at, other.0.seq).cmp(&(self.0.at, self.0.seq))
    }
}

struct Level<T> {
    occupied: u64,
    slots: [Vec<WheelEntry<T>>; SLOTS],
}

impl<T> Level<T> {
    fn new() -> Self {
        Level {
            occupied: 0,
            slots: std::array::from_fn(|_| Vec::new()),
        }
    }
}

/// A hierarchical timing wheel; see the [module documentation](self).
///
/// # Invariants
///
/// * `elapsed` (the wheel's internal tick position) never passes a pending
///   entry: it only advances to the tick of the minimum pending entry
///   ([`next_at`](Self::next_at) / [`pop_cohort`](Self::pop_cohort)) or to a
///   caller-certified event-free time ([`advance_to`](Self::advance_to)).
/// * Consequently every occupied slot sits at or ahead of the current slot
///   of its level, and all entries of one exact timestamp are extracted
///   together by `pop_cohort`.
pub struct TimingWheel<T> {
    levels: Vec<Level<T>>,
    overflow: BinaryHeap<OverflowEntry<T>>,
    /// Current position, in ticks.
    elapsed: u64,
    len: usize,
}

impl<T> Default for TimingWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> fmt::Debug for TimingWheel<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TimingWheel")
            .field("len", &self.len)
            .field("elapsed_ticks", &self.elapsed)
            .field("overflow", &self.overflow.len())
            .finish()
    }
}

fn tick_of(at: SimTime) -> u64 {
    at.as_nanos() >> TICK_SHIFT
}

fn level_for(masked: u64) -> usize {
    if masked == 0 {
        0
    } else {
        (63 - masked.leading_zeros()) as usize / SLOT_BITS as usize
    }
}

impl<T> TimingWheel<T> {
    /// Creates an empty wheel positioned at time zero.
    #[must_use]
    pub fn new() -> Self {
        TimingWheel {
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            overflow: BinaryHeap::new(),
            elapsed: 0,
            len: 0,
        }
    }

    /// Number of pending entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the wheel holds no pending entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts an entry due at `at`.
    ///
    /// `seq` must be unique among pending entries for the `(time, seq)`
    /// ordering contract to hold; it need not exceed theirs. Times at or
    /// before the wheel's current position are treated as due at the
    /// earliest representable future point (the engine clamps to "now"
    /// before inserting).
    pub fn insert(&mut self, at: SimTime, seq: u64, value: T) {
        self.len += 1;
        self.place(WheelEntry { at, seq, value });
    }

    /// Places an entry into the correct level/slot (or overflow heap)
    /// without touching `len`. Shared by insert, cascade and migration.
    fn place(&mut self, entry: WheelEntry<T>) {
        let tick = tick_of(entry.at).max(self.elapsed);
        let masked = tick ^ self.elapsed;
        if masked >> WHEEL_BITS != 0 {
            self.overflow.push(OverflowEntry(entry));
            return;
        }
        let level = level_for(masked);
        let shift = SLOT_BITS * level as u32;
        let slot = ((tick >> shift) & SLOT_MASK) as usize;
        let lv = &mut self.levels[level];
        lv.occupied |= 1 << slot;
        lv.slots[slot].push(entry);
    }

    /// The exact due time of the earliest pending entry, or `None` if the
    /// wheel is empty.
    ///
    /// Takes `&mut self` because finding the minimum may advance the wheel
    /// position and cascade coarse slots down to finer levels — which is
    /// always safe, as the wheel only ever advances to the minimum pending
    /// deadline.
    pub fn next_at(&mut self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        loop {
            // Pick the occupied slot with the minimum start tick across all
            // levels; ties go to the coarser level so stale coarse slots
            // cascade before a level-0 answer is trusted. (An entry due at
            // tick K can legally sit at a coarse level whose slot also
            // starts at K while a later-inserted entry for the same tick
            // already sits at level 0.)
            let mut best: Option<(usize, usize, u64)> = None;
            for (level, lv) in self.levels.iter().enumerate() {
                if lv.occupied == 0 {
                    continue;
                }
                let shift = SLOT_BITS * level as u32;
                let cur = (self.elapsed >> shift) & SLOT_MASK;
                let dist = u64::from(lv.occupied.rotate_right(cur as u32).trailing_zeros());
                debug_assert!(
                    cur + dist < SLOTS as u64,
                    "occupied slot behind current position at level {level}"
                );
                let slot = ((cur + dist) & SLOT_MASK) as usize;
                let width = 1u64 << shift;
                let rotation = width << SLOT_BITS;
                let start = (self.elapsed & !(rotation - 1)) + slot as u64 * width;
                match best {
                    Some((_, _, best_start)) if best_start < start => {}
                    _ => best = Some((level, slot, start)),
                }
            }
            match best {
                None => {
                    // Everything pending lives in the overflow heap: jump to
                    // its minimum (safe: it is the global minimum) and
                    // migrate that window into the wheel.
                    let min_at = self.overflow.peek().expect("len > 0 but wheel empty").0.at;
                    self.elapsed = self.elapsed.max(tick_of(min_at));
                    while let Some(head) = self.overflow.peek() {
                        if (tick_of(head.0.at) ^ self.elapsed) >> WHEEL_BITS != 0 {
                            break;
                        }
                        let entry = self.overflow.pop().expect("peeked entry vanished").0;
                        self.place(entry);
                    }
                }
                Some((0, slot, _)) => {
                    // Level-0 slots span one tick: any coarser slot with a
                    // later start holds strictly later entries, so the slot
                    // minimum is the global minimum.
                    let min = self.levels[0].slots[slot]
                        .iter()
                        .map(|e| e.at)
                        .min()
                        .expect("occupied level-0 slot is empty");
                    return Some(min);
                }
                Some((level, slot, start)) => {
                    // Advance to the slot boundary (it lower-bounds every
                    // pending entry) and cascade the slot to finer levels.
                    self.elapsed = self.elapsed.max(start);
                    self.cascade(level, slot);
                }
            }
        }
    }

    /// Redistributes one coarse slot's entries to finer levels, then gives
    /// the slot its emptied buffer back. Strictly decreases each entry's
    /// level, so cascading terminates.
    fn cascade(&mut self, level: usize, slot: usize) {
        let lv = &mut self.levels[level];
        lv.occupied &= !(1 << slot);
        let mut buf = std::mem::take(&mut lv.slots[slot]);
        for entry in buf.drain(..) {
            self.place(entry);
        }
        self.levels[level].slots[slot] = buf;
    }

    /// Removes every entry due exactly at `at` and appends them to `out` in
    /// ascending `seq` order.
    ///
    /// `at` must be the value just returned by [`next_at`](Self::next_at),
    /// with no intervening inserts — that guarantees all entries for this
    /// timestamp sit in a single level-0 slot.
    pub fn pop_cohort(&mut self, at: SimTime, out: &mut Vec<WheelEntry<T>>) {
        let tick = tick_of(at).max(self.elapsed);
        self.elapsed = tick;
        let slot = (tick & SLOT_MASK) as usize;
        let lv = &mut self.levels[0];
        if lv.occupied & (1 << slot) == 0 {
            return;
        }
        let start = out.len();
        let slot_vec = &mut lv.slots[slot];
        // In-place partition: matching entries swap-remove into `out`;
        // same-tick later-nanosecond entries keep their slot (their level-0
        // placement cannot change, so re-placing them would be pure churn).
        let mut i = 0;
        while i < slot_vec.len() {
            if slot_vec[i].at == at {
                out.push(slot_vec.swap_remove(i));
            } else {
                i += 1;
            }
        }
        if slot_vec.is_empty() {
            lv.occupied &= !(1 << slot);
        }
        self.len -= out.len() - start;
        // Entries may arrive out of seq order when a cascade interleaved
        // older entries with directly-inserted ones, or one was filed under
        // a reserved number; seqs are unique.
        out[start..].sort_unstable_by_key(|e| e.seq);
    }

    /// Advances the wheel position to `to` without extracting anything.
    ///
    /// The caller must guarantee no pending entry is due at or before `to`
    /// (i.e. [`next_at`](Self::next_at) returned `None` or a later time);
    /// the engine uses this when a `run_until` horizon falls short of the
    /// next event.
    pub fn advance_to(&mut self, to: SimTime) {
        self.elapsed = self.elapsed.max(tick_of(to));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Drains the wheel completely, returning `(at, seq)` pairs in pop order.
    fn drain<T>(wheel: &mut TimingWheel<T>) -> Vec<(u64, u64)> {
        let mut order = Vec::new();
        let mut cohort = Vec::new();
        while let Some(t) = wheel.next_at() {
            cohort.clear();
            wheel.pop_cohort(t, &mut cohort);
            assert!(!cohort.is_empty(), "next_at returned a time with no cohort");
            for e in &cohort {
                assert_eq!(e.at, t);
                order.push((e.at.as_nanos(), e.seq));
            }
        }
        assert!(wheel.is_empty());
        order
    }

    #[test]
    fn empty_wheel_has_no_next() {
        let mut w: TimingWheel<()> = TimingWheel::new();
        assert_eq!(w.next_at(), None);
        assert_eq!(w.len(), 0);
        assert!(format!("{w:?}").contains("TimingWheel"));
    }

    #[test]
    fn orders_within_one_slot_and_across_levels() {
        let mut w = TimingWheel::new();
        // Scattered over several orders of magnitude, inserted shuffled.
        let times = [
            5u64,
            1_000,
            1_023,
            1_024,
            70_000,
            1 << 20,
            (1 << 30) + 17,
            (1 << 38) + 5,
        ];
        let mut items: Vec<(u64, u64)> = times.iter().enumerate().map(|(i, &t)| (t, i as u64)).collect();
        items.reverse();
        for &(t, s) in &items {
            w.insert(SimTime::from_nanos(t), s, ());
        }
        let mut expect: Vec<(u64, u64)> = times.iter().enumerate().map(|(i, &t)| (t, i as u64)).collect();
        expect.sort_unstable();
        assert_eq!(drain(&mut w), expect);
    }

    #[test]
    fn ties_resolve_by_seq() {
        let mut w = TimingWheel::new();
        for seq in 0..20u64 {
            w.insert(SimTime::from_micros(50), seq, ());
        }
        let order = drain(&mut w);
        assert_eq!(order.len(), 20);
        for (i, &(_, seq)) in order.iter().enumerate() {
            assert_eq!(seq, i as u64);
        }
    }

    #[test]
    fn same_timestamp_split_across_levels() {
        // Regression guard: an entry inserted far ahead lands on a coarse
        // level; after the wheel advances close to its deadline, a second
        // entry for the SAME timestamp lands directly on level 0. Both must
        // come out together, in seq order.
        let mut w = TimingWheel::new();
        let far = SimTime::from_nanos(3_000_000); // ~2930 ticks ahead: level 1
        w.insert(far, 0, "early-insert");
        // An intermediate event pulls the wheel forward when popped.
        let near = SimTime::from_nanos(2_900_000);
        w.insert(near, 1, "intermediate");
        assert_eq!(w.next_at(), Some(near));
        let mut cohort = Vec::new();
        w.pop_cohort(near, &mut cohort);
        assert_eq!(cohort.len(), 1);
        // Now the same timestamp as the far entry, inserted late.
        w.insert(far, 2, "late-insert");
        assert_eq!(w.next_at(), Some(far));
        cohort.clear();
        w.pop_cohort(far, &mut cohort);
        let got: Vec<_> = cohort.iter().map(|e| (e.seq, e.value)).collect();
        assert_eq!(got, vec![(0, "early-insert"), (2, "late-insert")]);
        assert!(w.is_empty());
    }

    #[test]
    fn sub_tick_entries_separate() {
        // Two entries in the same 1024 ns tick but at different nanoseconds
        // must pop as two distinct cohorts in time order.
        let mut w = TimingWheel::new();
        w.insert(SimTime::from_nanos(2_050), 0, ());
        w.insert(SimTime::from_nanos(2_049), 1, ());
        assert_eq!(drain(&mut w), vec![(2_049, 1), (2_050, 0)]);
    }

    #[test]
    fn overflow_heap_round_trips() {
        let mut w = TimingWheel::new();
        // > 2^36 ticks ahead (≈ 19.5 h in ticks → as nanos, shift back up).
        let huge = SimTime::from_nanos(1u64 << 48);
        let huge2 = SimTime::from_nanos((1u64 << 48) + 1);
        w.insert(huge2, 0, ());
        w.insert(huge, 1, ());
        w.insert(SimTime::from_nanos(100), 2, ());
        assert_eq!(
            drain(&mut w),
            vec![(100, 2), (1u64 << 48, 1), ((1u64 << 48) + 1, 0)]
        );
    }

    #[test]
    fn advance_to_skips_event_free_span() {
        let mut w = TimingWheel::new();
        w.insert(SimTime::from_secs(10), 0, ());
        w.advance_to(SimTime::from_secs(5));
        assert_eq!(w.next_at(), Some(SimTime::from_secs(10)));
        let mut cohort = Vec::new();
        w.pop_cohort(SimTime::from_secs(10), &mut cohort);
        assert_eq!(cohort.len(), 1);
    }

    #[test]
    fn matches_sorted_model_on_random_workload() {
        // Model-based check: interleave inserts and pops against a sorted
        // vector oracle, across a spread of magnitudes that exercises every
        // level and the overflow heap. Some numbers are reserved and used
        // rounds later, so entries also arrive older than ones already held.
        let mut rng = crate::rng::SeedSource::new(0x77ee1).stream("wheel-model");
        let mut w = TimingWheel::new();
        let mut model: Vec<(u64, u64)> = Vec::new(); // (at, seq), kept sorted
        let mut seq = 0u64;
        let mut reserved: Vec<u64> = Vec::new();
        let mut now = 0u64;
        let mut cohort = Vec::new();
        for round in 0..2_000 {
            let n_insert = rng.gen_range(0..4);
            for _ in 0..n_insert {
                let exp = rng.gen_range(0..40u32);
                let delta = rng.gen_range(1..=(1u64 << exp).max(1));
                let at = now + delta;
                let fresh = seq;
                seq += 1;
                let use_seq = match rng.gen_range(0..4) {
                    0 => {
                        reserved.push(fresh);
                        continue;
                    }
                    1 if !reserved.is_empty() => {
                        let i = rng.gen_range(0..reserved.len());
                        reserved.swap_remove(i)
                    }
                    _ => fresh,
                };
                w.insert(SimTime::from_nanos(at), use_seq, ());
                model.push((at, use_seq));
            }
            if round % 3 != 0 {
                continue;
            }
            // Pop one cohort and compare with the model's minimum group.
            if let Some(t) = w.next_at() {
                cohort.clear();
                w.pop_cohort(t, &mut cohort);
                model.sort_unstable();
                let t_ns = t.as_nanos();
                assert_eq!(t_ns, model[0].0, "wheel min disagrees with model");
                let expect: Vec<(u64, u64)> =
                    model.iter().take_while(|&&(at, _)| at == t_ns).copied().collect();
                let got: Vec<(u64, u64)> =
                    cohort.iter().map(|e| (e.at.as_nanos(), e.seq)).collect();
                assert_eq!(got, expect);
                model.drain(0..expect.len());
                now = t_ns;
            } else {
                assert!(model.is_empty());
            }
            assert_eq!(w.len(), model.len());
        }
        // Drain what remains.
        model.sort_unstable();
        let rest = drain(&mut w);
        assert_eq!(rest, model);
    }

    #[test]
    fn len_tracks_inserts_and_pops() {
        let mut w = TimingWheel::new();
        for i in 0..10u64 {
            w.insert(SimTime::from_micros(i + 1), i, ());
        }
        assert_eq!(w.len(), 10);
        let t = w.next_at().unwrap();
        let mut cohort = Vec::new();
        w.pop_cohort(t, &mut cohort);
        assert_eq!(w.len(), 9);
        assert!(!w.is_empty());
    }
}
