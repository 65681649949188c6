//! Ring-buffer table of in-flight packets, keyed by sequence number.
//!
//! Each flow used to track its outstanding packets in a
//! `BTreeMap<u64, PacketMeta>` — O(log w) per send/ACK with pointer
//! chasing on every node, paid on *every* packet of *every* flow. But
//! the key space is almost perfectly dense: sequence numbers are
//! assigned contiguously, ACKs remove mostly from the front, and fast
//! retransmits punch short-lived holes. That is a ring buffer, not a
//! search tree.
//!
//! [`OutstandingTable`] stores `Option<V>` slots in a `VecDeque`
//! indexed by `seq - head`. Insert-at-tail, lookup, and remove are
//! O(1); removal compacts the front (and trims the back) so the window
//! only spans live entries. The deque's allocation is reused as the
//! window slides, so steady state allocates nothing — a flow in
//! equilibrium re-uses the same ~cwnd slots forever.
//!
//! Iteration order (`iter`, `front`, `retain_below`) is ascending
//! sequence number, matching the BTreeMap semantics the simulator's
//! loss-detection scan relies on.

/// Ring-buffer map from (mostly contiguous, monotonically inserted)
/// sequence numbers to per-packet state.
#[derive(Debug, Clone)]
pub struct OutstandingTable<V> {
    /// Sequence number of `slots[0]`.
    head: u64,
    slots: std::collections::VecDeque<Option<V>>,
    live: usize,
}

impl<V> Default for OutstandingTable<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> OutstandingTable<V> {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        Self {
            head: 0,
            slots: std::collections::VecDeque::new(),
            live: 0,
        }
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the table has no live entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    fn idx(&self, seq: u64) -> Option<usize> {
        let off = seq.checked_sub(self.head)?;
        let off = usize::try_from(off).ok()?;
        (off < self.slots.len()).then_some(off)
    }

    /// Inserts `value` at `seq`, returning any previous value. Sends are
    /// sequential, so this is almost always a push at the tail;
    /// retransmissions overwrite in place.
    pub fn insert(&mut self, seq: u64, value: V) -> Option<V> {
        if self.slots.is_empty() {
            self.head = seq;
        }
        if seq < self.head {
            // Re-inserting below the window (retransmit after the front
            // compacted past it): grow the front. Rare, bounded by cwnd.
            let gap = self.head - seq;
            let gap = usize::try_from(gap).unwrap_or(usize::MAX);
            for _ in 0..gap {
                self.slots.push_front(None);
            }
            self.head = seq;
        }
        let off = seq - self.head;
        let off = usize::try_from(off).unwrap_or(usize::MAX);
        while self.slots.len() <= off {
            self.slots.push_back(None);
        }
        let prev = self.slots[off].replace(value);
        if prev.is_none() {
            self.live += 1;
        }
        prev
    }

    /// Looks up the entry at `seq`.
    #[must_use]
    pub fn get(&self, seq: u64) -> Option<&V> {
        self.idx(seq).and_then(|i| self.slots[i].as_ref())
    }

    /// Mutable lookup at `seq`.
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut V> {
        self.idx(seq).and_then(|i| self.slots[i].as_mut())
    }

    /// Removes and returns the entry at `seq`, compacting dead slots off
    /// both ends of the window.
    pub fn remove(&mut self, seq: u64) -> Option<V> {
        let i = self.idx(seq)?;
        let v = self.slots[i].take()?;
        self.live -= 1;
        self.compact();
        Some(v)
    }

    fn compact(&mut self) {
        while matches!(self.slots.front(), Some(None)) {
            self.slots.pop_front();
            self.head += 1;
        }
        while matches!(self.slots.back(), Some(None)) {
            self.slots.pop_back();
        }
        if self.slots.is_empty() {
            self.head = 0;
        }
    }

    /// The lowest live `(seq, value)` — the oldest outstanding packet.
    #[must_use]
    pub fn front(&self) -> Option<(u64, &V)> {
        // After compaction slot 0 is live whenever the table is non-empty.
        self.slots
            .front()
            .and_then(|s| s.as_ref())
            .map(|v| (self.head, v))
    }

    /// Iterates live entries in ascending sequence order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(i, s)| s.as_ref().map(|v| (self.head + i as u64, v)))
    }

    /// Mutably iterates live entries with `seq < bound` in ascending
    /// sequence order (the `range_mut(..bound)` of the old BTreeMap).
    pub fn iter_below_mut(&mut self, bound: u64) -> impl Iterator<Item = (u64, &mut V)> + '_ {
        let head = self.head;
        let take = usize::try_from(bound.saturating_sub(head)).unwrap_or(usize::MAX);
        self.slots
            .iter_mut()
            .take(take)
            .enumerate()
            .filter_map(move |(i, s)| s.as_mut().map(|v| (head + i as u64, v)))
    }

    /// Drops every entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.head = 0;
        self.live = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_insert_remove_is_fifo() {
        let mut t = OutstandingTable::new();
        for seq in 10..20u64 {
            assert!(t.insert(seq, seq * 2).is_none());
        }
        assert_eq!(t.len(), 10);
        assert_eq!(t.front(), Some((10, &20)));
        for seq in 10..20u64 {
            assert_eq!(t.remove(seq), Some(seq * 2));
        }
        assert!(t.is_empty());
        assert_eq!(t.front(), None);
    }

    #[test]
    fn holes_and_out_of_order_removal_match_btreemap() {
        let mut t = OutstandingTable::new();
        let mut reference = std::collections::BTreeMap::new();
        // Deterministic scramble of inserts/removes across a window.
        let mut x = 12345u64;
        for step in 0..10_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let seq = 1000 + (x >> 33) % 64 + step / 100;
            if x % 3 == 0 {
                assert_eq!(t.remove(seq), reference.remove(&seq), "step {step}");
            } else {
                assert_eq!(t.insert(seq, step), reference.insert(seq, step), "step {step}");
            }
            assert_eq!(t.len(), reference.len(), "step {step}");
            assert_eq!(
                t.front(),
                reference.iter().next().map(|(k, v)| (*k, v)),
                "step {step}"
            );
            // The loss-detection scan: every bound from below the head
            // to past the tail, mutating through the iterator.
            let bound = 990 + (x >> 17) % 90 + step / 100;
            let got: Vec<(u64, u64)> = t
                .iter_below_mut(bound)
                .map(|(k, v)| {
                    *v += 1;
                    (k, *v)
                })
                .collect();
            let want: Vec<(u64, u64)> = reference
                .range_mut(..bound)
                .map(|(k, v)| {
                    *v += 1;
                    (*k, *v)
                })
                .collect();
            assert_eq!(got, want, "step {step}, bound {bound}");
            assert!(
                t.iter()
                    .map(|(k, v)| (k, *v))
                    .eq(reference.iter().map(|(k, v)| (*k, *v))),
                "step {step}: mutation through iter_below_mut did not stick"
            );
        }
        let got: Vec<_> = t.iter().map(|(k, v)| (k, *v)).collect();
        let want: Vec<_> = reference.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn iter_below_mut_matches_range_mut() {
        let mut t = OutstandingTable::new();
        for seq in [5u64, 6, 8, 11, 12] {
            t.insert(seq, 0u32);
        }
        t.remove(6);
        let visited: Vec<u64> = t.iter_below_mut(11).map(|(s, _)| s).collect();
        assert_eq!(visited, vec![5, 8]);
        // Bound below the head visits nothing.
        assert_eq!(t.iter_below_mut(3).count(), 0);
        // Bound above the tail visits everything live.
        assert_eq!(t.iter_below_mut(u64::MAX).count(), 4);
    }

    #[test]
    fn reinsert_below_head_grows_front() {
        let mut t = OutstandingTable::new();
        t.insert(100, "a");
        t.insert(101, "b");
        t.remove(100);
        assert_eq!(t.front(), Some((101, &"b")));
        // A retransmit re-tracks a seq the window already slid past.
        t.insert(99, "r");
        assert_eq!(t.front(), Some((99, &"r")));
        assert_eq!(t.get(100), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn clear_resets_but_allows_reuse() {
        let mut t = OutstandingTable::new();
        for seq in 0..50u64 {
            t.insert(seq, seq);
        }
        t.clear();
        assert!(t.is_empty());
        t.insert(7, 7);
        assert_eq!(t.front(), Some((7, &7)));
    }
}
