//! The sink trait and the shareable handle instrumented code holds.
//!
//! Instrumented crates (`verus-core` above all) never do I/O: they call
//! [`TraceHandle`] methods, which forward to whatever [`TraceSink`] the
//! harness installed. A disabled handle (`TraceHandle::default()`) is a
//! `None` inside — every emit method is a single branch on an `Option`,
//! so untraced runs pay nothing measurable.

use crate::schema::{EpochRecord, PacketRecord, ProfileSnapshot};
use std::fmt;
use std::sync::{Arc, Mutex};

/// Receives trace events. Implementations must be cheap and must never
/// block for long: the hooks sit on the transport hot path.
pub trait TraceSink: Send {
    /// An ε-epoch completed.
    fn on_epoch(&mut self, rec: &EpochRecord);
    /// A packet lifecycle event occurred.
    fn on_packet(&mut self, rec: &PacketRecord);
    /// The delay profile was re-interpolated.
    fn on_profile(&mut self, snap: &ProfileSnapshot);

    /// A batch of epoch records ([`TraceHandle`] flushes its staging
    /// buffer through this). The default forwards one at a time; sinks
    /// with a bulk ingest path (e.g. [`crate::Recorder`]'s `memcpy`)
    /// override it.
    fn on_epochs(&mut self, recs: &[EpochRecord]) {
        for rec in recs {
            self.on_epoch(rec);
        }
    }

    /// A batch of packet records (see [`Self::on_epochs`]).
    fn on_packets(&mut self, recs: &[PacketRecord]) {
        for rec in recs {
            self.on_packet(rec);
        }
    }
}

/// A sink that discards everything (for tests and explicit opt-out; a
/// default [`TraceHandle`] is cheaper still — it skips the lock).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn on_epoch(&mut self, _rec: &EpochRecord) {}
    fn on_packet(&mut self, _rec: &PacketRecord) {}
    fn on_profile(&mut self, _snap: &ProfileSnapshot) {}
}

/// A cloneable, shareable reference to a sink, suitable for embedding
/// in controllers that are themselves `Clone` (clones share the sink;
/// each clone starts with its own empty staging buffers).
///
/// Emits are *batched*: records are staged in small handle-local
/// buffers (L1-resident) and pushed to the sink under a single lock per
/// [`Self::BATCH`] records, because an uncontended mutex round-trip per
/// record costs more than the record itself on the per-packet path.
/// Per-stream ordering is preserved — each stream flushes in arrival
/// order — and dropping the handle flushes the tail, so a sink owned by
/// the harness is complete once the instrumented controller is gone.
/// Call [`Self::flush`] to observe records mid-run.
#[derive(Default)]
pub struct TraceHandle {
    sink: Option<Arc<Mutex<dyn TraceSink>>>,
    epochs: Vec<EpochRecord>,
    packets: Vec<PacketRecord>,
}

impl TraceHandle {
    /// Records staged per stream before the sink is locked. 64 epoch
    /// records is ~5 KiB of staging — comfortably cache-resident while
    /// amortizing the lock to a fraction of a nanosecond per record.
    pub const BATCH: usize = 64;

    /// A handle forwarding to `sink`.
    #[must_use]
    pub fn new(sink: Arc<Mutex<dyn TraceSink>>) -> Self {
        Self {
            sink: Some(sink),
            epochs: Vec::with_capacity(Self::BATCH),
            packets: Vec::with_capacity(Self::BATCH),
        }
    }

    /// The no-op handle (same as `Default`).
    #[must_use]
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether any sink is attached. Instrumentation guards expensive
    /// record construction (e.g. profile-curve sampling) behind this.
    ///
    /// The emit methods below are `#[inline]` because they are called
    /// from other crates on per-packet paths and the workspace builds
    /// without cross-crate LTO: without the hint every disabled-handle
    /// call would still pay a full function call to test one `Option`.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Stages an epoch record (no-op when disabled).
    #[inline]
    pub fn epoch(&mut self, rec: &EpochRecord) {
        if self.sink.is_some() {
            self.epochs.push(*rec);
            if self.epochs.len() >= Self::BATCH {
                self.flush();
            }
        }
    }

    /// Stages a packet record (no-op when disabled).
    #[inline]
    pub fn packet(&mut self, rec: &PacketRecord) {
        if self.sink.is_some() {
            self.packets.push(*rec);
            if self.packets.len() >= Self::BATCH {
                self.flush();
            }
        }
    }

    /// Emits a profile snapshot (no-op when disabled). Snapshots are
    /// rare (~one per refit) and own a heap-allocated curve, so they go
    /// straight to the sink instead of through a staging buffer.
    pub fn profile(&mut self, snap: &ProfileSnapshot) {
        if let Some(sink) = &self.sink {
            if let Ok(mut s) = sink.lock() {
                s.on_profile(snap);
            }
        }
    }

    /// Pushes all staged records to the sink under one lock.
    pub fn flush(&mut self) {
        if self.epochs.is_empty() && self.packets.is_empty() {
            return;
        }
        if let Some(sink) = &self.sink {
            if let Ok(mut s) = sink.lock() {
                s.on_epochs(&self.epochs);
                s.on_packets(&self.packets);
            }
        }
        self.epochs.clear();
        self.packets.clear();
    }
}

impl Clone for TraceHandle {
    fn clone(&self) -> Self {
        match &self.sink {
            Some(sink) => Self::new(sink.clone()),
            None => Self::default(),
        }
    }
}

impl Drop for TraceHandle {
    fn drop(&mut self) {
        self.flush();
    }
}

impl fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.is_enabled() {
            "TraceHandle(enabled)"
        } else {
            "TraceHandle(disabled)"
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DeltaDecision, TracePhase};

    struct Counting(u64);
    impl TraceSink for Counting {
        fn on_epoch(&mut self, _: &EpochRecord) {
            self.0 += 1;
        }
        fn on_packet(&mut self, _: &PacketRecord) {
            self.0 += 1;
        }
        fn on_profile(&mut self, _: &ProfileSnapshot) {
            self.0 += 1;
        }
    }

    fn epoch() -> EpochRecord {
        EpochRecord {
            t_ns: 5_000_000,
            epoch: 1,
            phase: TracePhase::SlowStart,
            window: 1.0,
            dest_ms: None,
            delay_ms: None,
            decision: DeltaDecision::None,
            headroom: None,
        }
    }

    #[test]
    fn disabled_handle_is_a_noop() {
        let mut h = TraceHandle::disabled();
        assert!(!h.is_enabled());
        h.epoch(&epoch()); // must not panic (and must not stage)
        drop(h);
    }

    #[test]
    fn enabled_handle_forwards_and_clones_share() {
        let sink = Arc::new(Mutex::new(Counting(0)));
        let mut h = TraceHandle::new(sink.clone());
        let mut h2 = h.clone();
        assert!(h.is_enabled() && h2.is_enabled());
        h.epoch(&epoch());
        h2.epoch(&epoch());
        drop(h); // dropping flushes staged records
        drop(h2);
        assert_eq!(sink.lock().expect("unpoisoned").0, 2);
    }

    #[test]
    fn emits_are_batched_and_flush_drains() {
        let sink = Arc::new(Mutex::new(Counting(0)));
        let mut h = TraceHandle::new(sink.clone());
        for _ in 0..TraceHandle::BATCH - 1 {
            h.epoch(&epoch());
        }
        // Still staged: nothing has reached the sink yet.
        assert_eq!(sink.lock().expect("unpoisoned").0, 0);
        h.epoch(&epoch()); // BATCH-th record triggers the flush
        assert_eq!(sink.lock().expect("unpoisoned").0, TraceHandle::BATCH as u64);
        h.epoch(&epoch());
        h.flush(); // explicit mid-run flush
        assert_eq!(
            sink.lock().expect("unpoisoned").0,
            TraceHandle::BATCH as u64 + 1
        );
    }

    #[test]
    fn debug_does_not_leak_sink_contents() {
        assert_eq!(format!("{:?}", TraceHandle::disabled()), "TraceHandle(disabled)");
    }
}
