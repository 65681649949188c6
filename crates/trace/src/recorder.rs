//! The bounded ring-buffer recorder.
//!
//! All storage is preallocated at construction, so recording an event
//! never allocates and never blocks beyond the handle's uncontended
//! mutex. When a stream's buffer fills, further records of that type
//! are *dropped and counted* — a nonzero drop counter in the exported
//! summary means the buffer was undersized for the run, which CI treats
//! as a failure (silent truncation would read as "the run ended early").
//!
//! The one deliberate exception to "no allocation": a
//! [`ProfileSnapshot`] owns its sampled curve (a `Vec` built by the
//! instrumented controller at refit time, roughly once per second —
//! nowhere near the per-packet hot path).

use crate::schema::{EpochRecord, PacketRecord, ProfileSnapshot};
use crate::sink::{TraceHandle, TraceSink};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Per-stream drop counters (events discarded because a buffer filled).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DropCounts {
    /// Epoch records dropped.
    pub epochs: u64,
    /// Packet records dropped.
    pub packets: u64,
    /// Profile snapshots dropped.
    pub profiles: u64,
}

impl DropCounts {
    /// Total records dropped across all streams.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.epochs + self.packets + self.profiles
    }
}

/// A `Recorder` behind the shared handle returned by
/// [`Recorder::shared`]; lock it after the run to export.
pub type SharedRecorder = Arc<Mutex<Recorder>>;

/// Bounded in-memory trace storage implementing [`TraceSink`].
#[derive(Debug)]
pub struct Recorder {
    epochs: Vec<EpochRecord>,
    packets: Vec<PacketRecord>,
    profiles: Vec<ProfileSnapshot>,
    // Parallel lane columns (see [`crate::lane`]): `*_lanes[i]` is the
    // flow tag the thread carried when record `i` arrived. Kept outside
    // the record structs so the wire schema and every existing consumer
    // are untouched; the JSONL exporter uses them only as a sort key.
    epoch_lanes: Vec<u32>,
    packet_lanes: Vec<u32>,
    profile_lanes: Vec<u32>,
    dropped: DropCounts,
    /// Substrate summary counters (ledger totals, emulator forwarded/
    /// dropped, …) exported into the trace summary record.
    counters: BTreeMap<String, u64>,
}

impl Recorder {
    /// Default epoch-record capacity: 65 536 epochs ≈ 327 s of ε = 5 ms
    /// ticks.
    pub const DEFAULT_EPOCHS: usize = 65_536;
    /// Default packet-record capacity (sends + ACKs + losses).
    pub const DEFAULT_PACKETS: usize = 262_144;
    /// Default profile-snapshot capacity (~one refit per second).
    pub const DEFAULT_PROFILES: usize = 1_024;

    /// A recorder with the default capacities.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(
            Self::DEFAULT_EPOCHS,
            Self::DEFAULT_PACKETS,
            Self::DEFAULT_PROFILES,
        )
    }

    /// A recorder with explicit per-stream capacities (all storage is
    /// allocated here, up front).
    #[must_use]
    pub fn with_capacity(epochs: usize, packets: usize, profiles: usize) -> Self {
        Self {
            epochs: Vec::with_capacity(epochs),
            packets: Vec::with_capacity(packets),
            profiles: Vec::with_capacity(profiles),
            epoch_lanes: Vec::with_capacity(epochs),
            packet_lanes: Vec::with_capacity(packets),
            profile_lanes: Vec::with_capacity(profiles),
            dropped: DropCounts::default(),
            counters: BTreeMap::new(),
        }
    }

    /// Wraps this recorder for sharing: the returned [`TraceHandle`]
    /// goes to the instrumented controller, the [`SharedRecorder`] stays
    /// with the harness for post-run export.
    #[must_use]
    pub fn shared(self) -> (TraceHandle, SharedRecorder) {
        let shared: SharedRecorder = Arc::new(Mutex::new(self));
        (TraceHandle::new(shared.clone()), shared)
    }

    /// Recorded epoch records, in arrival order.
    #[must_use]
    pub fn epochs(&self) -> &[EpochRecord] {
        &self.epochs
    }

    /// Recorded packet records, in arrival order.
    #[must_use]
    pub fn packets(&self) -> &[PacketRecord] {
        &self.packets
    }

    /// Recorded profile snapshots, in arrival order.
    #[must_use]
    pub fn profiles(&self) -> &[ProfileSnapshot] {
        &self.profiles
    }

    /// Lane tags parallel to [`Self::epochs`] (see [`crate::lane`]).
    #[must_use]
    pub fn epoch_lanes(&self) -> &[u32] {
        &self.epoch_lanes
    }

    /// Lane tags parallel to [`Self::packets`].
    #[must_use]
    pub fn packet_lanes(&self) -> &[u32] {
        &self.packet_lanes
    }

    /// Lane tags parallel to [`Self::profiles`].
    #[must_use]
    pub fn profile_lanes(&self) -> &[u32] {
        &self.profile_lanes
    }

    /// Drop counters.
    #[must_use]
    pub fn dropped(&self) -> DropCounts {
        self.dropped
    }

    /// Sets (or overwrites) a summary counter, e.g. the simulator's
    /// conservation-ledger totals or the emulator's forwarded/dropped
    /// counts, so per-run ledger residuals travel with the trace.
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// The summary counters in name order.
    #[must_use]
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// Discards all recorded data, drop counts, and summary counters
    /// while keeping the preallocated buffer capacity. Benchmarks use
    /// this between a warmup pass and the measured pass so the measured
    /// run writes into already-faulted pages (steady-state cost, not
    /// first-touch cost).
    pub fn clear(&mut self) {
        self.epochs.clear();
        self.packets.clear();
        self.profiles.clear();
        self.epoch_lanes.clear();
        self.packet_lanes.clear();
        self.profile_lanes.clear();
        self.dropped = DropCounts::default();
        self.counters.clear();
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceSink for Recorder {
    #[inline]
    fn on_epoch(&mut self, rec: &EpochRecord) {
        if self.epochs.len() < self.epochs.capacity() {
            self.epochs.push(*rec);
            self.epoch_lanes.push(crate::lane::current());
        } else {
            self.dropped.epochs += 1;
        }
    }

    #[inline]
    fn on_packet(&mut self, rec: &PacketRecord) {
        if self.packets.len() < self.packets.capacity() {
            self.packets.push(*rec);
            self.packet_lanes.push(crate::lane::current());
        } else {
            self.dropped.packets += 1;
        }
    }

    fn on_profile(&mut self, snap: &ProfileSnapshot) {
        if self.profiles.len() < self.profiles.capacity() {
            self.profiles.push(snap.clone());
            self.profile_lanes.push(crate::lane::current());
        } else {
            self.dropped.profiles += 1;
        }
    }

    // The bulk paths arrive from one handle's staging buffer, and a
    // handle belongs to one instrumented controller — every staged
    // record shares the flushing thread's current lane.
    fn on_epochs(&mut self, recs: &[EpochRecord]) {
        let free = self.epochs.capacity() - self.epochs.len();
        let take = recs.len().min(free);
        self.epochs.extend_from_slice(&recs[..take]);
        self.epoch_lanes
            .resize(self.epochs.len(), crate::lane::current());
        self.dropped.epochs += (recs.len() - take) as u64;
    }

    fn on_packets(&mut self, recs: &[PacketRecord]) {
        let free = self.packets.capacity() - self.packets.len();
        let take = recs.len().min(free);
        self.packets.extend_from_slice(&recs[..take]);
        self.packet_lanes
            .resize(self.packets.len(), crate::lane::current());
        self.dropped.packets += (recs.len() - take) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DeltaDecision, PacketKind, TracePhase};

    fn pkt(seq: u64) -> PacketRecord {
        PacketRecord {
            t_ns: seq * 1_000,
            kind: PacketKind::Send,
            seq,
            bytes: 1400,
            window: 4.0,
            rtt_ms: None,
        }
    }

    #[test]
    fn records_in_order_until_full_then_counts_drops() {
        let mut r = Recorder::with_capacity(4, 2, 1);
        for seq in 0..5 {
            r.on_packet(&pkt(seq));
        }
        assert_eq!(r.packets().len(), 2);
        assert_eq!(r.packets()[0].seq, 0);
        assert_eq!(r.packets()[1].seq, 1);
        assert_eq!(r.dropped().packets, 3);
        assert_eq!(r.dropped().total(), 3);
    }

    #[test]
    fn capacity_is_not_exceeded_and_never_reallocates() {
        let mut r = Recorder::with_capacity(2, 2, 2);
        let cap_before = r.packets.capacity();
        for seq in 0..100 {
            r.on_packet(&pkt(seq));
        }
        assert_eq!(r.packets.capacity(), cap_before);
        assert_eq!(r.dropped().packets, 98);
    }

    #[test]
    fn epoch_and_profile_streams_are_independent() {
        let mut r = Recorder::with_capacity(1, 8, 1);
        let e = EpochRecord {
            t_ns: 0,
            epoch: 1,
            phase: TracePhase::SlowStart,
            window: 1.0,
            dest_ms: None,
            delay_ms: None,
            decision: DeltaDecision::None,
            headroom: None,
        };
        r.on_epoch(&e);
        r.on_epoch(&e);
        let s = ProfileSnapshot {
            t_ns: 0,
            generation: 1,
            samples: vec![(1.0, 20.0)],
        };
        r.on_profile(&s);
        r.on_profile(&s);
        assert_eq!(r.epochs().len(), 1);
        assert_eq!(r.profiles().len(), 1);
        assert_eq!(
            r.dropped(),
            DropCounts {
                epochs: 1,
                packets: 0,
                profiles: 1,
            }
        );
    }

    #[test]
    fn shared_handle_feeds_the_recorder() {
        let (mut handle, shared) = Recorder::with_capacity(8, 8, 8).shared();
        handle.packet(&pkt(7));
        drop(handle); // flushes the staging buffer
        let rec = shared.lock().expect("unpoisoned");
        assert_eq!(rec.packets().len(), 1);
        assert_eq!(rec.packets()[0].seq, 7);
    }

    #[test]
    fn batch_ingest_respects_capacity_and_counts_drops() {
        let mut r = Recorder::with_capacity(4, 3, 4);
        let batch: Vec<PacketRecord> = (0..5).map(pkt).collect();
        let cap_before = r.packets.capacity();
        r.on_packets(&batch);
        assert_eq!(r.packets().len(), 3);
        assert_eq!(r.packets()[2].seq, 2);
        assert_eq!(r.dropped().packets, 2);
        r.on_packets(&batch);
        assert_eq!(r.packets().len(), 3);
        assert_eq!(r.dropped().packets, 7);
        assert_eq!(r.packets.capacity(), cap_before);
    }

    #[test]
    fn clear_resets_state_but_keeps_capacity() {
        let mut r = Recorder::with_capacity(2, 2, 2);
        for seq in 0..5 {
            r.on_packet(&pkt(seq));
        }
        r.set_counter("sent", 5);
        let cap = r.packets.capacity();
        r.clear();
        assert!(r.packets().is_empty());
        assert_eq!(r.dropped(), DropCounts::default());
        assert!(r.counters().is_empty());
        assert_eq!(r.packets.capacity(), cap);
    }

    #[test]
    fn counters_are_sorted_and_overwritable() {
        let mut r = Recorder::new();
        r.set_counter("zeta", 1);
        r.set_counter("alpha", 2);
        r.set_counter("zeta", 3);
        let names: Vec<&str> = r.counters().keys().map(String::as_str).collect();
        assert_eq!(names, ["alpha", "zeta"]);
        assert_eq!(r.counters()["zeta"], 3);
    }
}
