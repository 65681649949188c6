//! Runtime simulator invariants: packet conservation, plus the gap-timer
//! check that no hole below an ACK is left unarmed.
//!
//! Every packet a flow hands to the network is, at any instant, in
//! exactly one place:
//!
//! ```text
//! sent + dup_injected = radio_lost + impaired_lost + queue_drops
//!                     + corrupt_dropped + shed_dropped
//!                     + in_queue + in_transit + delivered
//! ```
//!
//! The left side is everything that entered the network (packets the
//! flow created, plus duplicates injected by the impairment layer); the
//! right side is where each of them is now. `impaired_lost` counts
//! blackout and Gilbert–Elliott/Bernoulli impairment losses;
//! `corrupt_dropped` counts packets discarded by the receiver's
//! checksum after traversing the link; `shed_dropped` counts packets
//! the sender's overload guard refused to launch (they consumed a
//! sequence number and congestion-control credit but never touched the
//! link — explicit shedding instead of invisible blocking).
//!
//! The simulator maintains per-flow location counters and asserts this
//! equation (plus queue-occupancy accounting) after **every** dispatched
//! event. The accounting is by physical location, not loss declaration,
//! so it stays exact even when the transport's loss detectors are wrong
//! (a spuriously "lost" packet still sits in the queue and may still be
//! delivered).
//!
//! Like `verus_core::invariants`, the check bodies are compiled only
//! under `debug_assertions` or the `strict-invariants` feature; plain
//! release builds get empty `#[inline]` stubs.

/// Whether the invariant layer is compiled into this build.
pub const ENABLED: bool = cfg!(any(debug_assertions, feature = "strict-invariants"));

/// Per-flow packet-location counters for the conservation equation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Packets the flow handed to the network.
    pub sent: u64,
    /// Duplicate copies injected by the impairment layer.
    pub dup_injected: u64,
    /// Lost on the radio link before the queue (base stochastic loss).
    pub radio_lost: u64,
    /// Lost to the impairment pipeline (blackouts, burst loss).
    pub impaired_lost: u64,
    /// Dropped by the bottleneck queue (tail-drop or RED).
    pub queue_drops: u64,
    /// Corrupted in flight and discarded at the receiver.
    pub corrupt_dropped: u64,
    /// Shed by the sender's overload guard before reaching the link.
    pub shed_dropped: u64,
    /// Currently waiting in the bottleneck queue.
    pub in_queue: u64,
    /// Departed the bottleneck, not yet delivered.
    pub in_transit: u64,
    /// Delivered to the receiver.
    pub delivered: u64,
}

impl Ledger {
    /// Whether the conservation equation balances.
    #[must_use]
    pub fn balances(&self) -> bool {
        self.sent + self.dup_injected
            == self.radio_lost
                + self.impaired_lost
                + self.queue_drops
                + self.corrupt_dropped
                + self.shed_dropped
                + self.in_queue
                + self.in_transit
                + self.delivered
    }
}

/// Asserts the per-flow packet-conservation equation.
#[inline]
pub fn packet_conservation(flow: usize, ledger: &Ledger) {
    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    assert!(
        ledger.balances(),
        "packet conservation violated for flow {flow}: {ledger:?}"
    );
    #[cfg(not(any(debug_assertions, feature = "strict-invariants")))]
    let _ = (flow, ledger);
}

/// The flows' `in_queue` counters must sum to the bottleneck queue's
/// actual occupancy.
#[inline]
pub fn queue_accounting(flows_in_queue: u64, queue_len: usize) {
    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    assert!(
        flows_in_queue == queue_len as u64,
        "queue accounting violated: flows say {flows_in_queue} packet(s) queued, \
         queue holds {queue_len}"
    );
    #[cfg(not(any(debug_assertions, feature = "strict-invariants")))]
    let _ = (flows_in_queue, queue_len);
}

/// After gap-timer arming on an ACK for `acked`, every live entry below
/// it must carry an armed timer: the visit cursor may skip only holes an
/// earlier ACK already armed. `holes` yields `(seq, armed)` for the live
/// entries below `acked`.
#[inline]
pub fn holes_armed(flow: usize, acked: u64, holes: impl Iterator<Item = (u64, bool)>) {
    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    for (seq, armed) in holes {
        assert!(
            armed,
            "gap timer missing for flow {flow}: seq {seq} is outstanding below ACK {acked} unarmed"
        );
    }
    #[cfg(not(any(debug_assertions, feature = "strict-invariants")))]
    let _ = (flow, acked, holes);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger() -> Ledger {
        Ledger {
            sent: 11,
            dup_injected: 2,
            radio_lost: 1,
            impaired_lost: 2,
            queue_drops: 2,
            corrupt_dropped: 1,
            shed_dropped: 1,
            in_queue: 3,
            in_transit: 1,
            delivered: 2,
        }
    }

    #[test]
    fn balanced_ledger_passes() {
        assert!(ledger().balances());
        packet_conservation(0, &ledger());
        queue_accounting(3, 3);
    }

    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    mod firing {
        use super::*;

        #[test]
        #[should_panic(expected = "packet conservation violated")]
        fn unbalanced_ledger_fires() {
            let mut l = ledger();
            l.delivered -= 1; // one packet vanished without a bucket
            packet_conservation(0, &l);
        }

        #[test]
        #[should_panic(expected = "packet conservation violated")]
        fn uncounted_duplicate_fires() {
            let mut l = ledger();
            l.dup_injected -= 1; // a duplicate entered but was not counted
            packet_conservation(0, &l);
        }

        #[test]
        #[should_panic(expected = "packet conservation violated")]
        fn uncounted_shed_fires() {
            let mut l = ledger();
            l.shed_dropped -= 1; // a shed packet left no ledger trace
            packet_conservation(0, &l);
        }

        #[test]
        #[should_panic(expected = "queue accounting violated")]
        fn queue_mismatch_fires() {
            queue_accounting(4, 3);
        }

        #[test]
        #[should_panic(expected = "gap timer missing")]
        fn unarmed_hole_fires() {
            holes_armed(0, 10, [(7, true), (8, false)].into_iter());
        }
    }
}
