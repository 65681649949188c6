//! Hierarchical timing wheel — the simulator's O(1) event scheduler.
//!
//! The event loop used to pay an O(log n) `BinaryHeap` pop per event,
//! where n is every pending event across every flow; at 100+ contending
//! flows the heap holds tens of thousands of entries and the comparisons
//! (plus their cache misses) dominate the run. This wheel replaces the
//! heap with slot indexing:
//!
//! * the **inner wheel** (level 0) has 64 slots of 2²⁰ ns ≈ 1.05 ms —
//!   TTI-scale granularity, matching the millisecond cadence of cell
//!   delivery opportunities and the 5 ms ε epochs;
//! * each of the 5 **overflow levels** covers 64× the span of the level
//!   below (level 5 slots are ≈ 13 days wide, for a total horizon of
//!   ≈ 2.3 simulated years); events beyond that go to an overflow list
//!   that is re-placed if the cursor ever gets there;
//! * every level keeps a 64-bit **occupancy bitmap**, so "find the next
//!   non-empty slot" is a rotate + `trailing_zeros`, not a scan.
//!
//! Scheduling an event indexes a slot and pushes onto its `Vec`; popping
//! takes from the *current bucket*, the events of the granule being
//! processed (a few entries, L1-resident) as one `Vec` sorted in
//! descending `(time, tie)` order, so a pop is a `Vec::pop` from the
//! back. A level-0 slot becomes the bucket whole — its `Vec` is swapped
//! in and sorted once — a cascade appends the events of the new cursor
//! granule and sorts once, and an event scheduled into the granule being
//! drained is inserted at its binary-searched position. Slot `Vec`s and
//! the bucket trade places but keep their capacity, so steady state
//! allocates nothing.
//!
//! ## Determinism
//!
//! Events are delivered in exactly the global `(time, tie)` order a
//! `BinaryHeap` would produce: the caller's tie-breaker is part of the
//! sort key inside each granule bucket, and granules are visited in
//! time order. Ties need not be globally monotone — the event loop's
//! canonical ties (per-flow counters, see `crate::sim`) interleave
//! freely — they only have to make `(time, tie)` unique among pending
//! events, which is also why an unstable sort of the bucket is exact.
//! `tests::matches_reference_heap` pins this against a `BinaryHeap`
//! oracle over adversarial schedules.
//!
//! ## Cascading correctness
//!
//! A refill must *compare level candidates by slot start time* rather
//! than greedily serving level 0: an event parked at level 1 (it was
//! ≥ 64 granules away when inserted) can become nearer than a level-0
//! event once the cursor advances, and must cascade down before the
//! level-0 slot after it is consumed. Ties between levels cascade the
//! higher level first so equal-granule events merge before popping.
//!
//! That tie rule also ends the common refill early: a level-0 slot is
//! only chosen when every outer slot starts strictly later, and outer
//! slots start on granule boundaries, so once a level-0 slot is taken
//! no other slot can share its granule and the refill is done. A refill
//! that finds the bucket empty and a level-0 slot nearest is one pass
//! over the levels.

use verus_nettypes::SimTime;

/// log2 of the inner-slot width in nanoseconds (2²⁰ ns ≈ 1.05 ms).
/// Crate-visible: the event loop quantizes RTO deadlines to this
/// granule so per-ACK deadline churn costs one insert per granule.
pub(crate) const GRAN_BITS: u32 = 20;

/// Width of one inner-wheel granule (2²⁰ ns ≈ 1.05 ms) as a duration —
/// the wheel's scheduling resolution. External consumers (the transport
/// shard server quantizes its RTO re-arms exactly like the event loop
/// does) size their deadline coalescing from this instead of hardcoding
/// a copy of `GRAN_BITS`.
#[must_use]
pub fn granule() -> verus_nettypes::SimDuration {
    verus_nettypes::SimDuration::from_nanos(1 << GRAN_BITS)
}
/// log2 of the slot count per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels above the current-granule bucket.
const LEVELS: usize = 6;

/// One scheduled entry, ordered by [`Entry::key`]: `(time, tie)` is a
/// total order because ties are unique.
struct Entry<K> {
    time: u64,
    tie: u64,
    kind: K,
}

impl<K> Entry<K> {
    fn key(&self) -> (u64, u64) {
        (self.time, self.tie)
    }
}

struct Level<K> {
    /// Bit i set ⇔ `slots[i]` is non-empty.
    occ: u64,
    slots: Vec<Vec<Entry<K>>>,
}

impl<K> Level<K> {
    fn new() -> Self {
        Self {
            occ: 0,
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
        }
    }
}

/// Bit shift from a time to its slot index at `level`.
fn shift(level: usize) -> u32 {
    GRAN_BITS + SLOT_BITS * u32::try_from(level).unwrap_or(0)
}

/// Sorts a bucket into pop order: descending `(time, tie)`, so the
/// earliest event is last.
fn sort_bucket<K>(bucket: &mut [Entry<K>]) {
    bucket.sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
}

/// A hierarchical timing wheel over nanosecond [`SimTime`] stamps.
///
/// `K` is the event payload. The caller supplies a `tie` making
/// `(time, tie)` unique; [`TimingWheel::pop_next`] returns events in
/// `(time, tie)` order.
pub struct TimingWheel<K> {
    /// Cursor: every event with `time < cur` has been popped. Always a
    /// lower bound on the earliest pending event.
    cur: u64,
    /// The granule currently being drained, sorted in descending
    /// `(time, tie)` order: the next event to pop is last.
    current: Vec<Entry<K>>,
    levels: Vec<Level<K>>,
    /// Events beyond the top level's horizon (≈ 2.3 simulated years).
    overflow: Vec<Entry<K>>,
    len: usize,
}

impl<K> Default for TimingWheel<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K> TimingWheel<K> {
    /// An empty wheel with its cursor at time zero.
    #[must_use]
    pub fn new() -> Self {
        Self {
            cur: 0,
            current: Vec::new(),
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            overflow: Vec::new(),
            len: 0,
        }
    }

    /// Pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `kind` at `time`. `(time, tie)` must be unique among
    /// pending events (ties may otherwise repeat or decrease across
    /// calls); `time` must be no earlier than the last popped event's
    /// time.
    pub fn schedule(&mut self, time: SimTime, tie: u64, kind: K) {
        self.len += 1;
        self.place(Entry {
            time: time.as_nanos(),
            tie,
            kind,
        });
    }

    /// Removes and returns the earliest event as `(time, tie, kind)`.
    pub fn pop_next(&mut self) -> Option<(SimTime, u64, K)> {
        if self.current.is_empty() && !self.refill() {
            return None;
        }
        let e = self.current.pop()?;
        self.len -= 1;
        Some((SimTime::from_nanos(e.time), e.tie, e.kind))
    }

    /// The earliest pending event's `(time, tie)` without removing it —
    /// the deadline a wall-clock driver sleeps toward. Takes `&mut self`
    /// because finding the minimum may refill the current bucket (and so
    /// advance the cursor); as documented on [`TimingWheel::pop_next_before`],
    /// that is safe for later `schedule` calls.
    pub fn peek_next(&mut self) -> Option<(SimTime, u64)> {
        if self.current.is_empty() && !self.refill() {
            return None;
        }
        self.current
            .last()
            .map(|e| (SimTime::from_nanos(e.time), e.tie))
    }

    /// Like [`TimingWheel::pop_next`], but only if the earliest event's
    /// time is `≤ bound`; otherwise returns `None` and leaves the event
    /// pending. Wall-clock loops (the transport timer plane and
    /// emulator delay line) drain everything due by `now` with this.
    ///
    /// A `None` may still have advanced the cursor to the (out-of-bound)
    /// earliest event's granule. That is safe for later `schedule` calls
    /// with times in `(bound, earliest]`: `place` routes a time at or
    /// before the cursor's granule into the current bucket at its
    /// sorted position, so `(time, tie)` pop order is preserved. The
    /// bounded-oracle tests below pin exactly this shape.
    pub fn pop_next_before(&mut self, bound: SimTime) -> Option<(SimTime, u64, K)> {
        if self.current.is_empty() && !self.refill() {
            return None;
        }
        // After a refill the current bucket holds the earliest pending
        // granule, and every slot/overflow event is in a strictly later
        // granule — so the bucket's last entry is the global minimum.
        if self.current.last()?.time > bound.as_nanos() {
            return None;
        }
        let e = self.current.pop()?;
        self.len -= 1;
        Some((SimTime::from_nanos(e.time), e.tie, e.kind))
    }

    /// Routes an entry to the current bucket (at its sorted position), a
    /// wheel slot, or overflow.
    fn place(&mut self, e: Entry<K>) {
        if let Some(e) = self.park(e) {
            let key = e.key();
            let at = self.current.partition_point(|x| x.key() > key);
            self.current.insert(at, e);
        }
    }

    /// Puts an entry in a wheel slot or the overflow list, or hands it
    /// back when it belongs in the current bucket: the granule being
    /// drained (or, defensively, the past — the simulator never
    /// schedules before its own clock).
    fn park(&mut self, e: Entry<K>) -> Option<Entry<K>> {
        if e.time >> GRAN_BITS <= self.cur >> GRAN_BITS {
            return Some(e);
        }
        for (l, level) in self.levels.iter_mut().enumerate() {
            let shift = shift(l);
            if (e.time >> shift) - (self.cur >> shift) < SLOTS as u64 {
                // Masked to 6 bits, so the cast cannot truncate.
                let slot = ((e.time >> shift) & 63) as usize; // verus-check: allow(no-truncating-cast)
                level.slots[slot].push(e);
                level.occ |= 1 << slot;
                return None;
            }
        }
        self.overflow.push(e);
        None
    }

    /// Start time of level `l`'s nearest non-empty slot, if any.
    fn next_start(&self, l: usize) -> Option<u64> {
        let occ = self.levels[l].occ;
        if occ == 0 {
            return None;
        }
        let shift = shift(l);
        let cur_idx = self.cur >> shift;
        // Rotate the bitmap so bit k means "k slots ahead of the
        // cursor"; all live slots are < 64 ahead by invariant.
        let base = u32::try_from(cur_idx & 63).unwrap_or(0);
        let k = u64::from(occ.rotate_right(base).trailing_zeros());
        Some((cur_idx + k) << shift)
    }

    /// Empties level `l`'s slot starting at `start` after moving the
    /// cursor there: events of the cursor's granule join the current
    /// bucket, which is sorted once; an outer slot's other events are
    /// re-placed one level (or more) down.
    fn take_slot(&mut self, l: usize, start: u64) {
        // Masked to 6 bits, so the cast cannot truncate.
        let idx = ((start >> shift(l)) & 63) as usize; // verus-check: allow(no-truncating-cast)
        self.cur = self.cur.max(start);
        self.levels[l].occ &= !(1u64 << idx);
        if l == 0 && self.current.is_empty() {
            // The slot becomes the bucket; the bucket's empty `Vec`
            // (with its capacity) becomes the slot.
            std::mem::swap(&mut self.levels[0].slots[idx], &mut self.current);
            sort_bucket(&mut self.current);
            return;
        }
        // A level-0 slot joining a bucket an outer level cascaded into
        // first, or an outer slot cascading down.
        let mut events = std::mem::take(&mut self.levels[l].slots[idx]);
        let held = self.current.len();
        for e in events.drain(..) {
            if let Some(e) = self.park(e) {
                self.current.push(e);
            }
        }
        if self.current.len() > held {
            sort_bucket(&mut self.current);
        }
        // Hand the (empty) Vec back so the slot keeps its capacity.
        self.levels[l].slots[idx] = events;
    }

    /// Advances the cursor to the next non-empty slot (cascading outer
    /// levels as needed) and loads it into the current bucket, which
    /// must be empty on entry. Returns `false` when the wheel is empty.
    ///
    /// It keeps consuming candidate slots until *no remaining slot can
    /// hold an event in the current bucket's granule*: a level-0 slot
    /// and an outer-level slot can share the same start granule, and
    /// both must merge into the bucket before anything pops, or the
    /// bucket would emit a later event while an equal-granule slot still
    /// holds an earlier one.
    fn refill(&mut self) -> bool {
        debug_assert!(self.current.is_empty());
        loop {
            // Candidate = (slot start time, level). Pick the earliest
            // start; on equal starts cascade the *higher* level first so
            // its events trickle down before lower slots drain.
            let mut best: Option<(u64, usize)> = None;
            for l in 0..LEVELS {
                let Some(start) = self.next_start(l) else {
                    continue;
                };
                if best.is_none_or(|(t, _)| start <= t) {
                    best = Some((start, l));
                }
            }
            let Some((start, l)) = best else {
                if !self.current.is_empty() {
                    return true;
                }
                // Every level empty: pull the overflow back in, if any.
                if self.overflow.is_empty() {
                    return false;
                }
                let min_t = self.overflow.iter().map(|e| e.time).min().unwrap_or(0);
                self.cur = self.cur.max((min_t >> GRAN_BITS) << GRAN_BITS);
                let pending = std::mem::take(&mut self.overflow);
                for e in pending {
                    self.place(e);
                }
                continue;
            };
            if !self.current.is_empty() {
                // The bucket holds the cursor's granule. Stop once the
                // nearest slot starts past that granule — it cannot hold
                // an event that should pop before the bucket drains.
                let granule_end = ((self.cur >> GRAN_BITS) + 1) << GRAN_BITS;
                if start >= granule_end {
                    return true;
                }
            }
            self.take_slot(l, start);
            if l == 0 {
                // Level 0 wins only if every outer slot starts strictly
                // later, hence in a later granule: the bucket is whole.
                debug_assert!((0..LEVELS).all(|k| {
                    self.next_start(k)
                        .is_none_or(|s| s >> GRAN_BITS > start >> GRAN_BITS)
                }));
                return true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impairment::SplitMix64;

    /// Drains `wheel` and a reference heap in lockstep, asserting
    /// identical `(time, tie, kind)` streams.
    fn assert_matches_heap(mut wheel: TimingWheel<u32>, mut heap: Vec<(u64, u64, u32)>) {
        heap.sort_by_key(|&(t, tie, _)| (t, tie));
        let mut got = Vec::new();
        while let Some((t, tie, k)) = wheel.pop_next() {
            got.push((t.as_nanos(), tie, k));
        }
        assert_eq!(got, heap);
        assert!(wheel.is_empty());
    }

    #[test]
    fn empty_wheel_pops_none() {
        let mut w: TimingWheel<u32> = TimingWheel::new();
        assert!(w.pop_next().is_none());
        assert!(w.is_empty());
    }

    #[test]
    fn same_time_events_pop_fifo() {
        let mut w = TimingWheel::new();
        for tie in 0..100u64 {
            w.schedule(SimTime::from_millis(5), tie, tie as u32);
        }
        let mut last = None;
        while let Some((t, tie, _)) = w.pop_next() {
            assert_eq!(t, SimTime::from_millis(5));
            assert!(last < Some(tie), "FIFO order violated");
            last = Some(tie);
        }
    }

    #[test]
    fn matches_reference_heap_random_batch() {
        let mut rng = SplitMix64::new(7);
        let mut w = TimingWheel::new();
        let mut reference = Vec::new();
        for tie in 0..20_000u64 {
            // Mix of granule-local, near, far, and very far times.
            let t = match rng.next_u64() % 4 {
                0 => rng.next_u64() % 1_000_000,                 // sub-granule
                1 => rng.next_u64() % 100_000_000,               // level 0/1
                2 => rng.next_u64() % 600_000_000_000,           // 10 min
                _ => rng.next_u64() % (86_400_000_000_000 * 30), // a month
            };
            w.schedule(SimTime::from_nanos(t), tie, (tie % 97) as u32);
            reference.push((t, tie, (tie % 97) as u32));
        }
        assert_matches_heap(w, reference);
    }

    #[test]
    fn matches_reference_heap_interleaved_pop_push() {
        // The adversarial shape for cascading: schedule relative to the
        // *popped* time so events constantly land near (and sometimes
        // just beyond) level boundaries while the cursor moves.
        let mut rng = SplitMix64::new(99);
        let mut w = TimingWheel::new();
        let mut pending: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u64)>> =
            std::collections::BinaryHeap::new();
        let mut tie = 0u64;
        let sched = |w: &mut TimingWheel<u32>,
                         pending: &mut std::collections::BinaryHeap<_>,
                         t: u64,
                         tie: &mut u64| {
            w.schedule(SimTime::from_nanos(t), *tie, 0);
            pending.push(std::cmp::Reverse((t, *tie)));
            *tie += 1;
        };
        for _ in 0..50 {
            sched(&mut w, &mut pending, rng.next_u64() % 10_000_000, &mut tie);
        }
        let mut now = 0u64;
        for _ in 0..30_000 {
            let Some((t, got_tie, _)) = w.pop_next() else {
                break;
            };
            let std::cmp::Reverse((et, etie)) = pending.pop().expect("reference non-empty");
            assert_eq!((t.as_nanos(), got_tie), (et, etie), "order diverged");
            assert!(t.as_nanos() >= now, "time went backwards");
            now = t.as_nanos();
            // Keep ~2 new events per pop, biased to boundary distances.
            for _ in 0..(rng.next_u64() % 3) {
                let delta = match rng.next_u64() % 5 {
                    0 => rng.next_u64() % (1 << GRAN_BITS),          // same granule
                    1 => (1 << GRAN_BITS) * 63 + rng.next_u64() % (1 << GRAN_BITS) * 2,
                    2 => rng.next_u64() % (1 << (GRAN_BITS + SLOT_BITS)),
                    3 => rng.next_u64() % (1 << (GRAN_BITS + 2 * SLOT_BITS)),
                    _ => rng.next_u64() % 50_000,
                };
                sched(&mut w, &mut pending, now + delta, &mut tie);
            }
        }
        // Drain both to the end.
        while let Some((t, got_tie, _)) = w.pop_next() {
            let std::cmp::Reverse((et, etie)) = pending.pop().expect("reference non-empty");
            assert_eq!((t.as_nanos(), got_tie), (et, etie));
        }
        assert!(pending.is_empty());
    }

    #[test]
    fn bounded_pop_respects_the_bound() {
        let mut w = TimingWheel::new();
        w.schedule(SimTime::from_nanos(100), 0, 1);
        w.schedule(SimTime::from_nanos(200), 1, 2);
        w.schedule(SimTime::from_millis(500), 2, 3);
        assert_eq!(
            w.pop_next_before(SimTime::from_nanos(150)).map(|(_, _, k)| k),
            Some(1)
        );
        assert_eq!(w.pop_next_before(SimTime::from_nanos(150)), None);
        assert_eq!(w.len(), 2);
        assert_eq!(
            w.pop_next_before(SimTime::from_nanos(200)).map(|(_, _, k)| k),
            Some(2)
        );
        // The remaining event is far future; a bounded pop refuses it
        // even after the refill has advanced the cursor toward it.
        assert_eq!(w.pop_next_before(SimTime::from_millis(1)), None);
        assert_eq!(w.pop_next().map(|(_, _, k)| k), Some(3));
        assert!(w.pop_next_before(SimTime::from_secs(10)).is_none());
    }

    #[test]
    fn schedule_between_bound_and_refused_event_still_pops_in_order() {
        // A timer loop's shape: a bounded pop refuses a far-future
        // event (cursor may now sit at its granule), then the loop
        // schedules timers *earlier* than that event but after the
        // bound. They must pop before the refused event.
        let g = 1u64 << GRAN_BITS;
        let mut w = TimingWheel::new();
        w.schedule(SimTime::from_nanos(10), 0, 10);
        w.schedule(SimTime::from_nanos(90 * g), 1, 90);
        assert_eq!(w.pop_next_before(SimTime::from_nanos(50)).map(|(_, _, k)| k), Some(10));
        // Bound well before the granule-90 event: refused.
        assert_eq!(w.pop_next_before(SimTime::from_nanos(2 * g)), None);
        // Batch arrivals between the bound and the refused event, one of
        // them in the refused event's own granule.
        w.schedule(SimTime::from_nanos(5 * g), 2, 5);
        w.schedule(SimTime::from_nanos(90 * g - 1), 3, 89);
        w.schedule(SimTime::from_nanos(90 * g + 1), 4, 91);
        assert_eq!(w.pop_next().map(|(_, _, k)| k), Some(5));
        assert_eq!(w.pop_next().map(|(_, _, k)| k), Some(89));
        assert_eq!(w.pop_next().map(|(_, _, k)| k), Some(90));
        assert_eq!(w.pop_next().map(|(_, _, k)| k), Some(91));
        assert!(w.is_empty());
    }

    #[test]
    fn bounded_pop_matches_reference_heap_rounds() {
        // Round-based oracle: drain in bounded windows with fresh events
        // scheduled between rounds, against a sorted reference.
        let mut rng = SplitMix64::new(41);
        let mut w = TimingWheel::new();
        let mut reference: Vec<(u64, u64)> = Vec::new();
        let mut tie = 0u64;
        let mut now = 0u64;
        for round in 1..=200u64 {
            let bound = round * 5_000_000; // 5 ms rounds
            for _ in 0..(rng.next_u64() % 8) {
                let t = now + rng.next_u64() % 40_000_000;
                w.schedule(SimTime::from_nanos(t), tie, 0);
                reference.push((t, tie));
                tie += 1;
            }
            reference.sort_unstable();
            let mut idx = 0;
            while let Some((t, got_tie, _)) = w.pop_next_before(SimTime::from_nanos(bound)) {
                assert_eq!((t.as_nanos(), got_tie), reference[idx], "round {round}");
                assert!(t.as_nanos() <= bound);
                now = now.max(t.as_nanos());
                idx += 1;
            }
            if idx < reference.len() {
                assert!(reference[idx].0 > bound, "stopped early in round {round}");
            }
            reference.drain(..idx);
            now = now.max(bound);
        }
        let mut idx = 0;
        while let Some((t, got_tie, _)) = w.pop_next() {
            assert_eq!((t.as_nanos(), got_tie), reference[idx]);
            idx += 1;
        }
        assert_eq!(idx, reference.len());
    }

    #[test]
    fn peek_matches_the_next_pop_without_consuming() {
        let mut w = TimingWheel::new();
        assert_eq!(w.peek_next(), None);
        let g = 1u64 << GRAN_BITS;
        // One near event, one parked on an outer level.
        w.schedule(SimTime::from_nanos(500), 3, 50u32);
        w.schedule(SimTime::from_nanos(70 * g), 4, 70);
        for _ in 0..3 {
            assert_eq!(w.peek_next(), Some((SimTime::from_nanos(500), 3)));
        }
        assert_eq!(w.len(), 2, "peek must not consume");
        assert_eq!(w.pop_next().map(|(_, _, k)| k), Some(50));
        // The outer-level event cascades in through peek's refill.
        assert_eq!(w.peek_next(), Some((SimTime::from_nanos(70 * g), 4)));
        assert_eq!(w.pop_next().map(|(_, _, k)| k), Some(70));
        assert_eq!(w.peek_next(), None);
        // Scheduling after a peek-driven refill stays ordered.
        w.schedule(SimTime::from_nanos(70 * g + 1), 5, 71);
        w.schedule(SimTime::from_nanos(71 * g), 6, 72);
        assert_eq!(w.peek_next(), Some((SimTime::from_nanos(70 * g + 1), 5)));
        assert_eq!(w.pop_next().map(|(_, _, k)| k), Some(71));
        assert_eq!(w.pop_next().map(|(_, _, k)| k), Some(72));
    }

    #[test]
    fn level1_and_level0_slots_sharing_a_granule_merge_before_popping() {
        // Two events parked at level 1 (≥ 64 granules ahead when
        // scheduled) and two scheduled into level 0 after the cursor
        // moved, all in granule 64. Serving the level-0 slot alone would
        // pop 20 before 15 or 10 before 5.
        let g = 1u64 << GRAN_BITS;
        let mut w = TimingWheel::new();
        w.schedule(SimTime::from_nanos(64 * g + 10), 0, 10u32);
        w.schedule(SimTime::from_nanos(64 * g + 15), 1, 15);
        w.schedule(SimTime::from_nanos(g), 2, 1);
        assert_eq!(w.pop_next().map(|(_, _, k)| k), Some(1));
        // Cursor at granule 1: granule 64 is 63 ahead, so level 0.
        w.schedule(SimTime::from_nanos(64 * g + 5), 3, 5);
        w.schedule(SimTime::from_nanos(64 * g + 20), 4, 20);
        // Same time as a level-1 event, smaller tie: must pop first.
        w.schedule(SimTime::from_nanos(64 * g + 15), 0, 14);
        let order: Vec<u32> = std::iter::from_fn(|| w.pop_next().map(|(_, _, k)| k)).collect();
        assert_eq!(order, vec![5, 10, 14, 15, 20]);
    }

    #[test]
    fn shared_granules_across_levels_match_reference_heap() {
        // Randomised form of the test above: from many cursor positions,
        // park events exactly on level-1 and level-2 slot boundaries
        // while other events reach the same granules through level 0.
        let mut rng = SplitMix64::new(2024);
        let g = 1u64 << GRAN_BITS;
        let mut w = TimingWheel::new();
        let mut reference = std::collections::BinaryHeap::new();
        let mut tie = 0u64;
        let mut now = 0u64;
        for _ in 0..2_000 {
            for _ in 0..(rng.next_u64() % 4) {
                let level = 1 + u32::from(rng.next_u64().is_multiple_of(2));
                let span = 1u64 << (GRAN_BITS + SLOT_BITS * level);
                // The next one to three outer-slot boundaries, plus a
                // sub-granule offset.
                let boundary = (now / span + 1 + rng.next_u64() % 3) * span;
                let t = boundary + rng.next_u64() % (g / 4);
                // Scrambled, unique ties: not monotone in schedule order.
                let k = tie.reverse_bits();
                w.schedule(SimTime::from_nanos(t), k, 0u32);
                reference.push(std::cmp::Reverse((t, k)));
                tie += 1;
            }
            for _ in 0..(rng.next_u64() % 3) {
                let t = now + rng.next_u64() % (70 * g);
                let k = tie.reverse_bits();
                w.schedule(SimTime::from_nanos(t), k, 0);
                reference.push(std::cmp::Reverse((t, k)));
                tie += 1;
            }
            for _ in 0..(rng.next_u64() % 3) {
                let Some((t, k, _)) = w.pop_next() else { break };
                let std::cmp::Reverse(want) = reference.pop().expect("reference non-empty");
                assert_eq!((t.as_nanos(), k), want);
                now = t.as_nanos();
            }
        }
        while let Some((t, k, _)) = w.pop_next() {
            let std::cmp::Reverse(want) = reference.pop().expect("reference non-empty");
            assert_eq!((t.as_nanos(), k), want);
        }
        assert!(reference.is_empty());
    }

    #[test]
    fn inserts_into_the_granule_being_drained_keep_order() {
        // Pop from a busy granule, then schedule more events into that
        // same granule: later and earlier than what is still pending,
        // at equal times with smaller and larger ties.
        let mut rng = SplitMix64::new(5);
        let g = 1u64 << GRAN_BITS;
        let mut w = TimingWheel::new();
        let mut reference = std::collections::BinaryHeap::new();
        let mut tie = 0u64;
        let mut now = 0u64;
        for round in 0..500u64 {
            let base = (round * 3 + 1) * g;
            for _ in 0..(1 + rng.next_u64() % 6) {
                let t = base + rng.next_u64() % g;
                let k = tie.reverse_bits();
                w.schedule(SimTime::from_nanos(t), k, 0u32);
                reference.push(std::cmp::Reverse((t, k)));
                tie += 1;
            }
            while let Some((t, k, _)) = w.pop_next() {
                let std::cmp::Reverse(want) = reference.pop().expect("reference non-empty");
                assert_eq!((t.as_nanos(), k), want, "round {round}");
                now = t.as_nanos();
                if reference.is_empty() || rng.next_u64().is_multiple_of(3) {
                    continue;
                }
                // Somewhere in [now, end of now's granule]; sometimes
                // exactly `now` so only the tie orders it.
                let granule_end = ((now >> GRAN_BITS) + 1) << GRAN_BITS;
                let t = match rng.next_u64() % 3 {
                    0 => now,
                    _ => now + rng.next_u64() % (granule_end - now),
                };
                let k = tie.reverse_bits();
                w.schedule(SimTime::from_nanos(t), k, 0);
                reference.push(std::cmp::Reverse((t, k)));
                tie += 1;
            }
            assert!(reference.is_empty());
            assert!(now >= base);
        }
    }

    #[test]
    fn a_crowd_of_same_instant_timers_cascades_in_tie_order() {
        // Quantized RTO deadlines: thousands of timers share one instant
        // on an outer level's slot boundary, armed with ascending ties.
        // The cascade drops them straight into the bucket, where they
        // merge with same-instant timers that arrived through level 0.
        let g = 1u64 << GRAN_BITS;
        let at = 192 * g; // start of level-1 slot 3
        let mut w = TimingWheel::new();
        let mut want = Vec::new();
        for i in 0..5_000u64 {
            w.schedule(SimTime::from_nanos(at), 2 * i, 0u32);
            want.push((at, 2 * i));
        }
        w.schedule(SimTime::from_nanos(150 * g), u64::MAX, 0);
        assert_eq!(w.pop_next().map(|(t, _, _)| t.as_nanos()), Some(150 * g));
        // Granule 192 is now 42 ahead: level 0.
        for i in 0..300u64 {
            let t = at + i % 3;
            w.schedule(SimTime::from_nanos(t), 2 * i + 1, 0);
            want.push((t, 2 * i + 1));
        }
        want.sort_unstable();
        let got: Vec<(u64, u64)> =
            std::iter::from_fn(|| w.pop_next().map(|(t, k, _)| (t.as_nanos(), k))).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn bounded_pop_across_a_level0_refill_keeps_order() {
        // A bounded pop finds the bucket empty, refills it from a lone
        // level-0 slot (no outer slot ties it) in one pass, and refuses
        // its events:
        // the cursor now sits on that slot's granule. Events scheduled
        // afterwards between the bound and the refused events, in earlier
        // granules and inside the refused granule, must still pop first.
        let g = 1u64 << GRAN_BITS;
        let mut w = TimingWheel::new();
        w.schedule(SimTime::from_nanos(40 * g + 500), 0, 40u32);
        w.schedule(SimTime::from_nanos(40 * g + 900), 1, 41);
        w.schedule(SimTime::from_nanos(200 * g), 2, 200); // level 1
        assert_eq!(w.pop_next_before(SimTime::from_nanos(3 * g)), None);
        assert_eq!(w.peek_next(), Some((SimTime::from_nanos(40 * g + 500), 0)));
        w.schedule(SimTime::from_nanos(10 * g), 3, 10);
        w.schedule(SimTime::from_nanos(40 * g + 500), 4, 39); // tie breaks it
        w.schedule(SimTime::from_nanos(40 * g + 100), 5, 38);
        w.schedule(SimTime::from_nanos(41 * g), 6, 42);
        assert_eq!(
            w.pop_next_before(SimTime::from_nanos(10 * g))
                .map(|(_, _, k)| k),
            Some(10)
        );
        assert_eq!(w.pop_next_before(SimTime::from_nanos(10 * g)), None);
        let order: Vec<u32> = std::iter::from_fn(|| {
            w.pop_next_before(SimTime::from_nanos(300 * g))
                .map(|(_, _, k)| k)
        })
        .collect();
        assert_eq!(order, vec![38, 40, 39, 41, 42, 200]);
        assert!(w.is_empty());
    }

    #[test]
    fn bounded_pops_with_sub_granule_bounds_match_reference_heap() {
        // Randomised form of the test above: bounds fall inside granules,
        // so refills regularly refuse a freshly loaded bucket, and new
        // events land between the bound and the refused event.
        let mut rng = SplitMix64::new(77);
        let g = 1u64 << GRAN_BITS;
        let mut w = TimingWheel::new();
        let mut reference = std::collections::BinaryHeap::new();
        let mut tie = 0u64;
        let mut bound = 0u64;
        for _ in 0..5_000 {
            bound += rng.next_u64() % (3 * g);
            for _ in 0..(rng.next_u64() % 3) {
                let reach = if rng.next_u64().is_multiple_of(4) {
                    100 * g
                } else {
                    2 * g
                };
                let t = bound + 1 + rng.next_u64() % reach;
                let k = tie.reverse_bits();
                w.schedule(SimTime::from_nanos(t), k, 0u32);
                reference.push(std::cmp::Reverse((t, k)));
                tie += 1;
            }
            while let Some((t, k, _)) = w.pop_next_before(SimTime::from_nanos(bound)) {
                let std::cmp::Reverse(want) = reference.pop().expect("reference non-empty");
                assert_eq!((t.as_nanos(), k), want);
                assert!(t.as_nanos() <= bound);
            }
            if let Some(std::cmp::Reverse((t, _))) = reference.peek() {
                assert!(*t > bound, "bounded pop stopped early");
            }
        }
        while let Some((t, k, _)) = w.pop_next() {
            let std::cmp::Reverse(want) = reference.pop().expect("reference non-empty");
            assert_eq!((t.as_nanos(), k), want);
        }
        assert!(reference.is_empty());
    }

    #[test]
    fn granule_matches_gran_bits() {
        assert_eq!(granule().as_nanos(), 1u64 << GRAN_BITS);
    }

    #[test]
    fn far_future_overflow_events_still_arrive_in_order() {
        let mut w = TimingWheel::new();
        let three_years = 3 * 365 * 86_400_000_000_000u64;
        w.schedule(SimTime::from_nanos(three_years), 0, 1);
        w.schedule(SimTime::from_nanos(5), 1, 2);
        w.schedule(SimTime::from_nanos(three_years + 7), 2, 3);
        assert_eq!(w.len(), 3);
        assert_eq!(w.pop_next().map(|(_, _, k)| k), Some(2));
        assert_eq!(w.pop_next().map(|(_, _, k)| k), Some(1));
        assert_eq!(w.pop_next().map(|(_, _, k)| k), Some(3));
        assert!(w.pop_next().is_none());
    }

    #[test]
    fn parked_outer_event_cascades_before_nearer_inner_event() {
        // Regression shape for the refill candidate comparison: an event
        // parked at level 1 becomes *earlier* than a level-0 event after
        // the cursor advances, and must still pop first.
        let g = 1u64 << GRAN_BITS;
        let mut w = TimingWheel::new();
        w.schedule(SimTime::from_nanos(70 * g), 0, 70); // level 1 (≥ 64 granules)
        w.schedule(SimTime::from_nanos(63 * g), 1, 63); // level 0
        // Pop the granule-63 event: cursor advances to granule 63.
        assert_eq!(w.pop_next().map(|(_, _, k)| k), Some(63));
        // Granule 80 is now < 64 granules ahead → level 0; granule 70 is
        // still parked at level 1 and must cascade down first.
        w.schedule(SimTime::from_nanos(80 * g), 2, 80);
        assert_eq!(w.pop_next().map(|(_, _, k)| k), Some(70));
        assert_eq!(w.pop_next().map(|(_, _, k)| k), Some(80));
    }
}
