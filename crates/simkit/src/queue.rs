//! Future-event list: a calendar queue keyed on ([`SimTime`], insertion
//! sequence) with O(1) slot-table cancellation.
//!
//! Ties are broken by insertion order so that two events scheduled for the
//! same instant fire in the order they were scheduled. This determinism
//! matters: disk-array response times are sensitive to who wins a
//! simultaneous arrival at a queue.
//!
//! ## Calendar layout
//!
//! Events live in a power-of-two ring of buckets, each `width` nanoseconds
//! wide. Bucket `home & (nbuckets - 1)` holds the events whose home bucket
//! `home = at / width` falls inside the sliding window
//! `[cur, cur + nbuckets)`; events beyond the window wait in an overflow
//! calendar (an ordered map keyed by home bucket) and migrate into the
//! ring as the window advances — each migration pops exactly the buckets
//! entering the window, so far-future events cost O(log overflow) to park
//! and O(1) amortized to migrate, never a scan of the whole list. With the
//! width matched to the trace's mean event spacing (see
//! [`EventQueue::with_profile`]), a pop touches one short bucket instead of
//! a log-depth heap, and the bucket scan is a linear pass over a small
//! contiguous `Vec` — the common case is O(1).
//!
//! An occupancy bitmap (one bit per bucket) lets the pop path skip runs of
//! empty buckets 64 at a time, so sparse stretches of simulated time cost
//! a handful of word scans rather than a bucket-by-bucket walk.
//!
//! ## Slot table
//!
//! Every scheduled event owns a slot in a `Vec`-backed table; its
//! [`EventId`] is the (slot, generation) pair. The slot records where its
//! entry currently lives (ring bucket and position, or overflow home
//! bucket and position), so
//! cancellation removes the entry eagerly — O(1) `swap_remove`, no
//! tombstones, no lazy draining. Slots are recycled through a free list;
//! the generation counter bumps on every reuse, so a stale id (fired or
//! cancelled long ago) can never cancel the slot's new occupant. A slot
//! whose generation reaches `u32::MAX` is retired instead of wrapping:
//! wrapping would reissue generation 0 and let an ancient id alias the
//! slot's new occupant.

use crate::time::SimTime;
use std::collections::BTreeMap;

/// Opaque handle to a scheduled event, usable for cancellation.
///
/// Internally a (slot, generation) pair into the queue's slot table;
/// generations make ids single-use, so an id kept past its event's firing
/// or cancellation is harmlessly rejected even after the slot is reused.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId {
    slot: u32,
    gen: u32,
}

struct Entry<E> {
    at: SimTime,
    seq: u64,
    slot: u32,
    event: E,
}

/// Where a live entry currently resides.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Loc {
    /// No pending entry (slot free, or retired).
    Free,
    /// In ring bucket `bucket` at index `pos`.
    Ring { bucket: u32, pos: u32 },
    /// In the overflow calendar under key `home`, at index `pos` within
    /// that bucket's vector.
    Over { home: u64, pos: u32 },
}

/// One slot of the location table. `loc` is `Free` from the event's pop or
/// cancellation until the slot's next reuse; `gen` counts reuses.
#[derive(Clone, Copy)]
struct Slot {
    gen: u32,
    loc: Loc,
}

/// Priority queue of future events.
///
/// `pop` returns events in nondecreasing time order; events with equal
/// timestamps come out in scheduling order (the (time, seq) tie-break).
/// `cancel` is O(1): the slot table records the entry's exact location and
/// it is removed on the spot.
///
/// All bookkeeping lives in flat `Vec`s (bucket ring + slot table + free
/// list + bitmap) — no ordered sets, no hashing — so the structure is
/// cache-friendly and trivially deterministic.
pub struct EventQueue<E> {
    /// `ring[home & mask]` holds entries with `home ∈ [cur, cur+nbuckets)`.
    ring: Vec<Vec<Entry<E>>>,
    /// One bit per ring bucket: set iff the bucket is non-empty.
    occ: Vec<u64>,
    /// Entries whose home bucket is beyond the current window, keyed by
    /// home bucket. The ordered map makes the overflow minimum and the
    /// in-window range cheap to find, so migration touches only the
    /// entries actually entering the window — never the whole overflow.
    over: BTreeMap<u64, Vec<Entry<E>>>,
    /// Bucket width in nanoseconds (≥ 1).
    width: u64,
    /// `nbuckets - 1`; `nbuckets` is a power of two.
    mask: usize,
    /// Current absolute bucket: no live entry has `home < cur`.
    cur: u64,
    /// Entries currently in the ring.
    ring_live: usize,
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Scheduled minus popped minus cancelled.
    live_count: usize,
    /// High-water mark of `live_count` over the queue's lifetime.
    peak_live: usize,
    next_seq: u64,
    /// Test-only work meter: bitmap words, ring entries, and overflow
    /// buckets visited, so tests can bound the work per pop.
    #[cfg(test)]
    work: std::cell::Cell<u64>,
}

/// Default bucket width: ~131 µs. Together with [`DEFAULT_NBUCKETS`] this
/// spans a ~134 ms window — generous for unit-test workloads; simulators
/// should size the calendar from their trace via [`EventQueue::with_profile`].
const DEFAULT_WIDTH_NS: u64 = 1 << 17;
const DEFAULT_NBUCKETS: usize = 1024;

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Pre-size the slot table for `cap` simultaneously pending events
    /// (all structures still grow on demand past that).
    pub fn with_capacity(cap: usize) -> Self {
        Self::with_profile_capacity(DEFAULT_WIDTH_NS, DEFAULT_NBUCKETS, cap)
    }

    /// Size the calendar from the workload's event-time distribution:
    /// `width_ns` should approximate the mean spacing between consecutive
    /// event times (so each pop scans ~one bucket) and `nbuckets` the
    /// typical pending-event count (rounded up to a power of two). Both are
    /// performance knobs only — ordering is exact for any values.
    pub fn with_profile(width_ns: u64, nbuckets: usize) -> Self {
        Self::with_profile_capacity(width_ns, nbuckets, 0)
    }

    fn with_profile_capacity(width_ns: u64, nbuckets: usize, cap: usize) -> Self {
        let nbuckets = nbuckets.max(2).next_power_of_two();
        EventQueue {
            ring: (0..nbuckets).map(|_| Vec::new()).collect(),
            occ: vec![0u64; nbuckets.div_ceil(64)],
            over: BTreeMap::new(),
            width: width_ns.max(1),
            mask: nbuckets - 1,
            cur: 0,
            ring_live: 0,
            slots: Vec::with_capacity(cap),
            free: Vec::with_capacity(cap),
            live_count: 0,
            peak_live: 0,
            next_seq: 0,
            #[cfg(test)]
            work: std::cell::Cell::new(0),
        }
    }

    /// Add `n` units to the test-only work meter (a no-op in other builds).
    #[inline(always)]
    fn tally(&self, n: usize) {
        #[cfg(test)]
        self.work.set(self.work.get() + n as u64);
        #[cfg(not(test))]
        let _ = n;
    }

    #[inline]
    fn nbuckets(&self) -> u64 {
        (self.mask + 1) as u64
    }

    /// Home bucket of an event time, clamped so nothing lands before `cur`
    /// (past-time events go into the current bucket; the in-bucket min scan
    /// still orders them exactly).
    #[inline]
    fn home_of(&self, at: SimTime) -> u64 {
        (at.0 / self.width).max(self.cur)
    }

    #[inline]
    fn push_ring(&mut self, home: u64, e: Entry<E>) {
        let bucket = (home & self.mask as u64) as usize;
        self.slots[e.slot as usize].loc = Loc::Ring {
            bucket: bucket as u32,
            pos: self.ring[bucket].len() as u32,
        };
        self.ring[bucket].push(e);
        self.occ[bucket / 64] |= 1u64 << (bucket % 64);
        self.ring_live += 1;
    }

    /// Remove and return the entry at `ring[bucket][pos]`, patching the
    /// location of whichever entry `swap_remove` moved into its place.
    fn remove_ring(&mut self, bucket: u32, pos: u32) -> Entry<E> {
        let b = bucket as usize;
        let e = self.ring[b].swap_remove(pos as usize);
        if let Some(moved) = self.ring[b].get(pos as usize) {
            self.slots[moved.slot as usize].loc = Loc::Ring { bucket, pos };
        }
        if self.ring[b].is_empty() {
            self.occ[b / 64] &= !(1u64 << (b % 64));
        }
        self.ring_live -= 1;
        e
    }

    /// Minimum home bucket over the overflow; `u64::MAX` when empty.
    #[inline]
    fn over_min_home(&self) -> u64 {
        self.over
            .first_key_value()
            .map_or(u64::MAX, |(&home, _)| home)
    }

    /// Remove and return the entry at `over[home][pos]`, patching the moved
    /// entry's location and dropping the bucket once it empties.
    fn remove_over(&mut self, home: u64, pos: u32) -> Entry<E> {
        #[expect(clippy::expect_used, reason = "`Loc::Over` always names a live bucket")]
        let bucket = self
            .over
            .get_mut(&home)
            .expect("overflow location names a missing bucket");
        let e = bucket.swap_remove(pos as usize);
        if let Some(moved) = bucket.get(pos as usize) {
            self.slots[moved.slot as usize].loc = Loc::Over { home, pos };
        }
        if bucket.is_empty() {
            self.over.remove(&home);
        }
        e
    }

    /// Move every overflow entry whose home has entered the window into the
    /// ring. The overflow is keyed by home bucket, so this pops exactly the
    /// buckets entering the window — O(moved) with no scan of the rest.
    fn migrate_overflow(&mut self) {
        let nb = self.nbuckets();
        loop {
            self.tally(1);
            let Some(entry) = self.over.first_entry() else {
                break;
            };
            let home = *entry.key();
            if home.saturating_sub(self.cur) >= nb {
                break;
            }
            for e in entry.remove() {
                self.push_ring(home, e);
            }
        }
    }

    /// Distance from `cur` to the first occupied ring bucket (0 if the
    /// current bucket is occupied); `None` when the ring is empty.
    fn next_occupied_delta(&self) -> Option<u64> {
        if self.ring_live == 0 {
            return None;
        }
        let nb = self.mask + 1;
        let nwords = self.occ.len();
        let start = (self.cur & self.mask as u64) as usize;
        let mut bit = start % 64;
        for k in 0..=nwords {
            self.tally(1);
            let word = (start / 64 + k) % nwords;
            let w = self.occ[word] & (!0u64 << bit);
            if w != 0 {
                let b = word * 64 + w.trailing_zeros() as usize;
                return Some(((b + nb - start) & self.mask) as u64);
            }
            bit = 0;
        }
        unreachable!("ring_live > 0 but no occupancy bit set");
    }

    /// Index of the (time, seq)-minimum entry in `ring[bucket]`.
    fn bucket_min(&self, bucket: usize) -> usize {
        let v = &self.ring[bucket];
        self.tally(v.len());
        let mut best = 0;
        for i in 1..v.len() {
            if (v[i].at, v[i].seq) < (v[best].at, v[best].seq) {
                best = i;
            }
        }
        best
    }

    fn alloc_slot(&mut self) -> u32 {
        match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(Slot {
                    gen: 0,
                    loc: Loc::Free,
                });
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Retire `slot` back to the free list, invalidating outstanding ids.
    /// A slot that has exhausted its generation space is retired for good:
    /// wrapping to generation 0 would let an ancient id alias the slot's
    /// next occupant.
    #[inline]
    fn release_slot(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.loc = Loc::Free;
        if s.gen == u32::MAX {
            return; // retired: never reused, stale ids stay inert
        }
        s.gen += 1;
        self.free.push(slot);
    }

    /// Schedule `event` to fire at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventId {
        let slot = self.alloc_slot();
        let gen = self.slots[slot as usize].gen;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live_count += 1;
        if self.live_count > self.peak_live {
            self.peak_live = self.live_count;
        }
        let home = self.home_of(at);
        let e = Entry {
            at,
            seq,
            slot,
            event,
        };
        if home - self.cur < self.nbuckets() {
            self.push_ring(home, e);
        } else {
            let bucket = self.over.entry(home).or_default();
            self.slots[slot as usize].loc = Loc::Over {
                home,
                pos: bucket.len() as u32,
            };
            bucket.push(e);
        }
        EventId { slot, gen }
    }

    /// Cancel a previously scheduled event. Returns `true` if the event was
    /// still pending (i.e. not yet popped or already cancelled). A stale id
    /// — fired, already cancelled, or from a recycled slot — is rejected by
    /// the generation check and never touches the slot's current occupant.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let Some(slot) = self.slots.get(id.slot as usize) else {
            return false;
        };
        if slot.gen != id.gen {
            return false;
        }
        match slot.loc {
            Loc::Free => false,
            Loc::Ring { bucket, pos } => {
                self.remove_ring(bucket, pos);
                self.release_slot(id.slot);
                self.live_count -= 1;
                true
            }
            Loc::Over { home, pos } => {
                self.remove_over(home, pos);
                self.release_slot(id.slot);
                self.live_count -= 1;
                true
            }
        }
    }

    /// Remove and return the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.live_count == 0 {
            return None;
        }
        if self.ring_live == 0 {
            // Ring drained: jump the window straight to the earliest
            // overflow home instead of stepping bucket by bucket.
            self.cur = self.over_min_home();
        }
        if self.over_min_home().saturating_sub(self.cur) < self.nbuckets() {
            self.migrate_overflow();
        }
        #[expect(
            clippy::expect_used,
            reason = "`len > 0` guarantees an occupied bucket"
        )]
        let delta = self
            .next_occupied_delta()
            .expect("live events but empty calendar");
        self.cur += delta;
        let bucket = (self.cur & self.mask as u64) as usize;
        let best = self.bucket_min(bucket);
        let e = self.remove_ring(bucket as u32, best as u32);
        self.release_slot(e.slot);
        self.live_count -= 1;
        Some((e.at, e.event))
    }

    /// Timestamp of the earliest pending event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.live_count == 0 {
            return None;
        }
        let ring_best = self.next_occupied_delta().map(|delta| {
            let bucket = ((self.cur + delta) & self.mask as u64) as usize;
            let e = &self.ring[bucket][self.bucket_min(bucket)];
            ((e.at, e.seq), self.cur + delta)
        });
        match ring_best {
            // The overflow can only beat the ring when its earliest home is
            // at or before the ring candidate's bucket; otherwise every
            // overflow entry is at least a full bucket later.
            Some((key, home)) if self.over_min_home() > home => Some(key.0),
            other => {
                // The global overflow minimum lives in the minimum-home
                // bucket: a smaller `at` means a home at most as large, and
                // equal `at`s share a home.
                let over_best = self
                    .over
                    .first_key_value()
                    .and_then(|(_, v)| v.iter().map(|e| (e.at, e.seq)).min());
                let best = match (other.map(|(k, _)| k), over_best) {
                    (Some(a), Some(b)) => a.min(b),
                    (Some(a), None) => a,
                    (None, Some(b)) => b,
                    (None, None) => return None,
                };
                Some(best.0)
            }
        }
    }

    /// Number of live (non-cancelled) pending events.
    pub fn len(&self) -> usize {
        self.live_count
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Most events simultaneously pending over the queue's lifetime.
    pub fn peak_len(&self) -> usize {
        self.peak_live
    }

    /// Test-only: pin a slot's generation counter, simulating the slot
    /// having been recycled that many times.
    #[cfg(test)]
    fn force_slot_gen(&mut self, slot: u32, gen: u32) {
        self.slots[slot as usize].gen = gen;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ms(5), "c");
        q.schedule(SimTime::from_ms(1), "a");
        q.schedule(SimTime::from_ms(3), "b");
        assert_eq!(q.pop(), Some((SimTime::from_ms(1), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_ms(3), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_ms(5), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ms(2);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn cancellation_skips_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_ms(1), "a");
        q.schedule(SimTime::from_ms(2), "b");
        assert_eq!(q.len(), 2);
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double-cancel reports false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_ms(2), "b")));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_unknown_id_is_noop() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId { slot: 42, gen: 0 }));
    }

    /// Regression: cancelling an id that already fired used to insert a
    /// tombstone that nothing could consume, making `len()` underflow.
    #[test]
    fn cancel_of_fired_event_is_rejected() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_ms(1), "a");
        assert_eq!(q.pop(), Some((SimTime::from_ms(1), "a")));
        assert!(!q.cancel(a), "cancel of a fired event must report false");
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
        // The queue remains fully usable afterwards.
        q.schedule(SimTime::from_ms(2), "b");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_ms(2), "b")));
        assert_eq!(q.pop(), None);
    }

    /// Regression: the same stale-cancel scenario with another event still
    /// pending; `len()` must not drift.
    #[test]
    fn stale_cancel_does_not_corrupt_len() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_ms(1), "a");
        q.schedule(SimTime::from_ms(5), "b");
        assert_eq!(q.pop(), Some((SimTime::from_ms(1), "a")));
        assert!(!q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_ms(5)));
        assert_eq!(q.pop(), Some((SimTime::from_ms(5), "b")));
        assert!(q.is_empty());
    }

    /// A fired event's slot is recycled by the next schedule; the stale id
    /// must not cancel (or even see) the slot's new occupant.
    #[test]
    fn stale_id_does_not_cancel_slot_reuser() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_ms(1), "a");
        assert_eq!(q.pop(), Some((SimTime::from_ms(1), "a")));
        // Slot is reused with a bumped generation.
        let b = q.schedule(SimTime::from_ms(2), "b");
        assert!(!q.cancel(a), "stale id must not cancel the new occupant");
        assert_eq!(q.len(), 1, "the new occupant is untouched");
        assert_eq!(q.pop(), Some((SimTime::from_ms(2), "b")));
        assert!(!q.cancel(b), "fired reuser's own id is stale too");
    }

    /// Same, when the first occupant was cancelled rather than popped: the
    /// cancelled id stays dead through the slot's next life.
    #[test]
    fn cancelled_id_stays_dead_after_slot_reuse() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_ms(1), "a");
        assert!(q.cancel(a));
        // Cancellation removes the entry eagerly, so the slot is free.
        let b = q.schedule(SimTime::from_ms(3), "b");
        assert!(!q.cancel(a), "cancelled id is single-use");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_ms(3), "b")));
        assert!(!q.cancel(b));
        assert_eq!(q.pop(), None);
    }

    /// Ids from consecutive lives of one slot are distinct values.
    #[test]
    fn recycled_slot_yields_distinct_ids() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_ms(1), 0);
        q.pop();
        let b = q.schedule(SimTime::from_ms(1), 1);
        assert_ne!(a, b, "generation must differ on slot reuse");
    }

    /// Regression (generation wraparound): a slot whose generation counter
    /// has exhausted `u32` must be retired, not wrapped. Pre-fix, releasing
    /// a generation-`u32::MAX` occupant wrapped the counter to 0 and the
    /// next schedule on that slot aliased the oldest possible id — an
    /// ancient, long-dead `EventId` could then cancel a brand-new event.
    #[test]
    fn generation_wraparound_retires_slot_instead_of_aliasing() {
        let mut q = EventQueue::new();
        let ancient = q.schedule(SimTime::from_ms(1), "a"); // slot 0, gen 0
        assert_eq!(q.pop(), Some((SimTime::from_ms(1), "a")));
        // Simulate the slot having lived through the whole generation space.
        q.force_slot_gen(0, u32::MAX);
        let b = q.schedule(SimTime::from_ms(2), "b"); // slot 0, gen u32::MAX
        assert!(q.cancel(b)); // releases the slot at the end of its gen space
        let _c = q.schedule(SimTime::from_ms(3), "c");
        assert!(
            !q.cancel(ancient),
            "an id from a wrapped-around slot must never cancel the new occupant"
        );
        assert_eq!(q.len(), 1, "the new event must survive the stale cancel");
        assert_eq!(q.pop(), Some((SimTime::from_ms(3), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peek_time_skips_cancelled_events() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_ms(1), "a");
        q.schedule(SimTime::from_ms(9), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_ms(9)));
        assert_eq!(q.pop(), Some((SimTime::from_ms(9), "b")));
        assert_eq!(q.peek_time(), None);
    }

    /// Cancelling an entry buried behind others must remove exactly it;
    /// `peek_time` must never report it.
    #[test]
    fn buried_cancellation_is_skipped_when_it_surfaces() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ms(1), "a");
        let b = q.schedule(SimTime::from_ms(2), "b");
        q.schedule(SimTime::from_ms(3), "c");
        assert!(q.cancel(b));
        assert_eq!(q.peek_time(), Some(SimTime::from_ms(1)));
        assert_eq!(q.pop(), Some((SimTime::from_ms(1), "a")));
        assert_eq!(q.peek_time(), Some(SimTime::from_ms(3)));
        assert_eq!(q.pop(), Some((SimTime::from_ms(3), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peak_len_tracks_high_water_mark() {
        let mut q = EventQueue::new();
        assert_eq!(q.peak_len(), 0);
        q.schedule(SimTime::from_ms(1), "a");
        q.schedule(SimTime::from_ms(2), "b");
        q.schedule(SimTime::from_ms(3), "c");
        assert_eq!(q.peak_len(), 3);
        q.pop();
        q.pop();
        q.schedule(SimTime::from_ms(4), "d");
        assert_eq!(q.peak_len(), 3, "peak is a lifetime high-water mark");
    }

    /// Events beyond the calendar window park in the overflow list and must
    /// still interleave exactly with ring events as the window slides.
    #[test]
    fn overflow_entries_interleave_with_ring_entries() {
        // 4 buckets × 100 ns: a 400 ns window, so 10 µs is deep overflow.
        let mut q = EventQueue::with_profile(100, 4);
        q.schedule(SimTime::from_ns(10_000), "far");
        q.schedule(SimTime::from_ns(50), "near");
        q.schedule(SimTime::from_ns(350), "mid");
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(50)));
        assert_eq!(q.pop(), Some((SimTime::from_ns(50), "near")));
        // Scheduling relative to an advanced window still orders exactly.
        q.schedule(SimTime::from_ns(9_999), "almost");
        assert_eq!(q.pop(), Some((SimTime::from_ns(350), "mid")));
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(9_999)));
        assert_eq!(q.pop(), Some((SimTime::from_ns(9_999), "almost")));
        assert_eq!(q.pop(), Some((SimTime::from_ns(10_000), "far")));
        assert_eq!(q.pop(), None);
    }

    /// Cancelling overflow entries — including the overflow minimum — keeps
    /// ordering and `len` exact.
    #[test]
    fn cancel_in_overflow_updates_minimum() {
        let mut q = EventQueue::with_profile(100, 4);
        let far_a = q.schedule(SimTime::from_ns(5_000), "far_a");
        q.schedule(SimTime::from_ns(9_000), "far_b");
        q.schedule(SimTime::from_ns(10), "near");
        assert!(q.cancel(far_a), "overflow entry is cancellable");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((SimTime::from_ns(10), "near")));
        assert_eq!(q.pop(), Some((SimTime::from_ns(9_000), "far_b")));
        assert_eq!(q.pop(), None);
    }

    /// Saturated far-future timestamps (u64::MAX-adjacent) must be
    /// schedulable, poppable, and cancellable without overflow panics.
    #[test]
    fn u64_max_adjacent_times_are_handled() {
        let mut q = EventQueue::with_profile(1, 8);
        q.schedule(SimTime::MAX, "end");
        q.schedule(SimTime::from_ns(u64::MAX - 1), "almost");
        q.schedule(SimTime::ZERO, "start");
        assert_eq!(q.pop(), Some((SimTime::ZERO, "start")));
        assert_eq!(q.pop(), Some((SimTime::from_ns(u64::MAX - 1), "almost")));
        assert_eq!(q.pop(), Some((SimTime::MAX, "end")));
        assert_eq!(q.pop(), None);
    }

    /// Far-future events park in the overflow and migrate into the ring as
    /// the window reaches them: 10k events at LCG-spread times over ~5 h,
    /// against a ~134 ms default window, so nearly every event waits in the
    /// overflow until its own pop. Migration must pop only the overflow
    /// buckets entering the window — a pop costs a few bitmap words, ring
    /// entries, and overflow buckets, never a scan of the whole overflow
    /// (which made this pattern two orders of magnitude slower).
    #[test]
    fn overflow_heavy_pops_do_constant_work() {
        const N: u64 = 10_000;
        let mut q = EventQueue::with_capacity(N as usize);
        let mut t = 0x12345u64;
        for i in 0..N {
            t = t
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            q.schedule(SimTime::from_ns(t >> 20), i);
        }
        assert!(
            q.over.len() as u64 > N * 9 / 10,
            "the case must live in the overflow"
        );
        let before = q.work.get();
        let mut last = SimTime::ZERO;
        let mut popped = 0;
        while let Some((at, _)) = q.pop() {
            assert!(at >= last, "pop order broken");
            last = at;
            popped += 1;
        }
        assert_eq!(popped, N);
        let per_pop = (q.work.get() - before) as f64 / N as f64;
        assert!(per_pop <= 8.0, "{per_pop:.1} units of work per pop");
    }

    /// Naive reference model: the observable behavior the calendar queue
    /// must reproduce exactly. Linear scans everywhere — unambiguously
    /// correct, hopelessly slow.
    struct ModelQueue {
        // (time_ns, seq, cancelled)
        pending: Vec<(u64, u64, bool)>,
        next_seq: u64,
    }

    impl ModelQueue {
        fn new() -> Self {
            ModelQueue {
                pending: Vec::new(),
                next_seq: 0,
            }
        }

        fn schedule(&mut self, t: u64) -> u64 {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.pending.push((t, seq, false));
            seq
        }

        /// Cancel by scheduling sequence; true iff still pending.
        fn cancel(&mut self, seq: u64) -> bool {
            match self.pending.iter_mut().find(|e| e.1 == seq && !e.2) {
                Some(e) => {
                    e.2 = true;
                    true
                }
                None => false,
            }
        }

        fn pop(&mut self) -> Option<(u64, u64)> {
            let i = self
                .pending
                .iter()
                .enumerate()
                .filter(|(_, e)| !e.2)
                .min_by_key(|(_, e)| (e.0, e.1))
                .map(|(i, _)| i)?;
            let e = self.pending.remove(i);
            self.pending.retain(|x| !x.2);
            Some((e.0, e.1))
        }

        fn peek_time(&self) -> Option<u64> {
            self.pending
                .iter()
                .filter(|e| !e.2)
                .map(|e| (e.0, e.1))
                .min()
                .map(|(t, _)| t)
        }

        fn len(&self) -> usize {
            self.pending.iter().filter(|e| !e.2).count()
        }
    }

    /// One step of the differential interpreter.
    #[derive(Clone, Debug)]
    enum Op {
        Schedule(u64),
        /// Cancel the id issued by the i-th Schedule so far (mod count);
        /// may be live, fired, cancelled, or from a since-recycled slot.
        Cancel(usize),
        Pop,
        Peek,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            3 => (0u64..10_000).prop_map(Op::Schedule),
            2 => (0usize..64).prop_map(Op::Cancel),
            2 => Just(Op::Pop),
            1 => Just(Op::Peek),
        ]
    }

    fn run_differential(mut real: EventQueue<u64>, ops: Vec<Op>) -> Result<(), TestCaseError> {
        let mut model = ModelQueue::new();
        // i-th Schedule's handles in both worlds: (EventId, model seq).
        let mut issued: Vec<(EventId, u64)> = Vec::new();
        for op in ops {
            match op {
                Op::Schedule(t) => {
                    let seq = model.schedule(t);
                    let id = real.schedule(SimTime::from_ns(t), seq);
                    issued.push((id, seq));
                }
                Op::Cancel(i) => {
                    if issued.is_empty() {
                        continue;
                    }
                    let (id, seq) = issued[i % issued.len()];
                    prop_assert_eq!(
                        real.cancel(id),
                        model.cancel(seq),
                        "cancel of schedule #{} disagrees",
                        i
                    );
                }
                Op::Pop => {
                    let got = real.pop().map(|(at, seq)| (at.as_ns(), seq));
                    prop_assert_eq!(got, model.pop());
                }
                Op::Peek => {
                    let got = real.peek_time().map(|t| t.as_ns());
                    prop_assert_eq!(got, model.peek_time());
                }
            }
            prop_assert_eq!(real.len(), model.len());
            prop_assert_eq!(real.is_empty(), model.len() == 0);
            // peek is pure: always consistent with len.
            prop_assert_eq!(real.peek_time().is_some(), !real.is_empty());
        }
        // Drain both to the end: same residue in the same order.
        loop {
            let got = real.pop().map(|(at, seq)| (at.as_ns(), seq));
            let want = model.pop();
            prop_assert_eq!(got, want);
            if got.is_none() {
                break;
            }
        }
        Ok(())
    }

    proptest! {
        /// Popped timestamps are nondecreasing, and every scheduled,
        /// non-cancelled event comes out exactly once.
        #[test]
        fn prop_time_order_and_completeness(
            times in proptest::collection::vec(0u64..10_000, 1..200),
            cancel_mask in proptest::collection::vec(any::<bool>(), 1..200),
        ) {
            let mut q = EventQueue::new();
            let mut ids = Vec::new();
            for (i, &t) in times.iter().enumerate() {
                ids.push((q.schedule(SimTime::from_ns(t), i), t));
            }
            let mut live = Vec::new();
            for (i, (id, t)) in ids.into_iter().enumerate() {
                if *cancel_mask.get(i).unwrap_or(&false) {
                    prop_assert!(q.cancel(id));
                } else {
                    live.push((t, i));
                }
            }
            let mut out = Vec::new();
            let mut last = SimTime::ZERO;
            while let Some((at, idx)) = q.pop() {
                prop_assert!(at >= last);
                last = at;
                out.push((at.as_ns(), idx));
            }
            live.sort();
            out.sort();
            prop_assert_eq!(live, out);
        }

        /// Differential property: drive the calendar queue and the naive
        /// reference model through a random interleaving of schedule /
        /// cancel / pop / peek — including cancels of stale and recycled
        /// ids — and require identical observable behavior at every step.
        /// Run with the default profile (everything in one bucket at these
        /// timescales) to stress in-bucket ordering.
        #[test]
        fn prop_differential_against_model(
            ops in proptest::collection::vec(op_strategy(), 1..300),
        ) {
            run_differential(EventQueue::new(), ops)?;
        }

        /// Same differential, with a deliberately tiny calendar (64 ns × 8
        /// buckets against 10 µs timestamps) so almost everything churns
        /// through the overflow list, window jumps, and migrations.
        #[test]
        fn prop_differential_with_tiny_calendar(
            ops in proptest::collection::vec(op_strategy(), 1..300),
        ) {
            run_differential(EventQueue::with_profile(64, 8), ops)?;
        }
    }
}
