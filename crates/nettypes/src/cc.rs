//! The congestion-control interface shared by all five protocols.
//!
//! The paper evaluates Verus against Sprout, TCP Cubic, TCP NewReno and
//! TCP Vegas on the same transport substrate (OPNET in §6.2, a dumbbell
//! testbed in §7). This trait is that substrate's plug-in point: the
//! transport endpoint (simulated in `verus-netsim`, real sockets in
//! `verus-transport`) owns sequencing, loss detection and retransmission,
//! and asks the congestion controller only *how many packets it may send
//! right now*.
//!
//! Two families of protocols have to coexist behind one interface:
//!
//! * **window-based** (the TCP variants): allowed in-flight = cwnd, so
//!   `quota = cwnd − in_flight`;
//! * **epoch/quota-based** (Verus, Sprout): a periodic tick computes a
//!   budget (Verus' `S_{i+1}` of Eq. 5 every ε = 5 ms; Sprout's forecast
//!   window every 20 ms), which drains as packets go out.
//!
//! The trait supports both: controllers that need a clock return a period
//! from [`CongestionControl::tick_interval`] and receive
//! [`CongestionControl::on_tick`] callbacks.

use crate::time::{SimDuration, SimTime};
pub use verus_trace::TraceHandle;

/// Information delivered to the controller for every (first-time) ACK.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AckEvent {
    /// Sequence number acknowledged.
    pub seq: u64,
    /// Payload bytes newly acknowledged.
    pub bytes: u64,
    /// Round-trip-time sample for this packet.
    pub rtt: SimDuration,
    /// One-way (network) delay sample when receiver timestamps are
    /// trusted; otherwise `rtt/2`. Verus' delay profile is built on this.
    pub delay: SimDuration,
    /// The sending window the acknowledged packet was sent under
    /// (echoed from the packet header; the x-coordinate of the delay
    /// profile point this sample updates).
    pub send_window: f64,
    /// ABC-style explicit bottleneck feedback echoed by the receiver:
    /// `Some(true)` = the router stamped this packet *accelerate*,
    /// `Some(false)` = *brake*, `None` = the path does not mark (every
    /// pre-ABC configuration). Controllers other than ABC ignore it.
    pub abc_mark: Option<bool>,
}

/// How a loss was detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossKind {
    /// Inferred from reordering (Verus' 3×delay gap timer, TCP's three
    /// duplicate ACKs): the network is still delivering packets.
    FastRetransmit,
    /// Retransmission timeout: nothing has come back for a full RTO.
    Timeout,
}

/// Information delivered to the controller when the transport declares a
/// packet lost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossEvent {
    /// Sequence number declared lost.
    pub seq: u64,
    /// The sending window the lost packet was sent under — paper Eq. 6
    /// multiplies *this* (`W_loss`), not the current window.
    pub send_window: f64,
    /// Detection mechanism.
    pub kind: LossKind,
}

/// A congestion-control algorithm, driven by the transport endpoint.
///
/// Contract (enforced by the shared conformance tests in
/// `verus-baselines`): after any sequence of callbacks,
/// [`Self::quota`] is finite and `window()` is `≥ 0`.
pub trait CongestionControl: Send {
    /// Short human-readable protocol name ("verus", "cubic", …).
    fn name(&self) -> &'static str;

    /// Number of packets the sender may transmit *right now*, given that
    /// `in_flight` packets are currently unacknowledged.
    fn quota(&mut self, now: SimTime, in_flight: usize) -> usize;

    /// A data packet left the sender.
    fn on_packet_sent(&mut self, now: SimTime, seq: u64, bytes: u64);

    /// A new (non-duplicate) acknowledgment arrived.
    fn on_ack(&mut self, now: SimTime, ev: &AckEvent);

    /// The transport declared a packet lost.
    fn on_loss(&mut self, now: SimTime, ev: &LossEvent);

    /// Periodic tick period, if the controller is clock-driven
    /// (ε = 5 ms for Verus, 20 ms for Sprout; `None` for the TCPs).
    fn tick_interval(&self) -> Option<SimDuration> {
        None
    }

    /// Clock tick (only called when [`Self::tick_interval`] is `Some`).
    fn on_tick(&mut self, _now: SimTime) {}

    /// Installs a trace handle for protocol introspection (`verus-trace`).
    ///
    /// Controllers that support tracing store the handle and emit
    /// epoch/packet/profile records through it; the default ignores it,
    /// so untraced protocols need no changes. Harnesses call this once,
    /// before the first callback.
    fn attach_trace(&mut self, _trace: TraceHandle) {}

    /// The session layer re-established a connection after a disruption
    /// (blackout, silent peer) and is resuming this controller instead
    /// of constructing a fresh one.
    ///
    /// Controllers that learn link state (Verus' delay profile) use this
    /// to warm-restart: keep the learned model, clear disruption-era
    /// transients (RTO escalation, loss bookkeeping), and re-enter a
    /// sane phase at a conservative window. The default does nothing —
    /// memoryless controllers just keep going, which is also the
    /// pre-session-layer behaviour.
    fn on_session_resumed(&mut self, _now: SimTime) {}

    /// Current window/budget in packets, for logging and plots.
    fn window(&self) -> f64;

    /// Downcast hook so harnesses can inspect protocol internals (e.g.
    /// sample the live Verus delay profile for Figures 5/7b) without the
    /// transport knowing concrete types.
    fn as_any(&self) -> &dyn std::any::Any;
}

/// A trivial fixed-window controller.
///
/// Serves two roles: the CBR-style probe traffic of the paper's §3
/// measurements (fixed number of packets in flight ≈ fixed rate over a
/// fixed-delay path), and a reference implementation for transport tests.
#[derive(Debug, Clone)]
pub struct FixedWindow {
    window: usize,
}

impl FixedWindow {
    /// Creates a controller that always allows `window` packets in flight.
    #[must_use]
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "fixed window must be positive");
        Self { window }
    }
}

impl CongestionControl for FixedWindow {
    fn name(&self) -> &'static str {
        "fixed"
    }

    fn quota(&mut self, _now: SimTime, in_flight: usize) -> usize {
        self.window.saturating_sub(in_flight)
    }

    fn on_packet_sent(&mut self, _now: SimTime, _seq: u64, _bytes: u64) {}

    fn on_ack(&mut self, _now: SimTime, _ev: &AckEvent) {}

    fn on_loss(&mut self, _now: SimTime, _ev: &LossEvent) {}

    fn window(&self) -> f64 {
        self.window as f64
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_window_quota_subtracts_in_flight() {
        let mut cc = FixedWindow::new(10);
        assert_eq!(cc.quota(SimTime::ZERO, 0), 10);
        assert_eq!(cc.quota(SimTime::ZERO, 4), 6);
        assert_eq!(cc.quota(SimTime::ZERO, 10), 0);
        assert_eq!(cc.quota(SimTime::ZERO, 15), 0); // never negative
    }

    #[test]
    fn fixed_window_ignores_all_events() {
        let mut cc = FixedWindow::new(5);
        let ack = AckEvent {
            seq: 1,
            bytes: 1400,
            rtt: SimDuration::from_millis(20),
            delay: SimDuration::from_millis(10),
            send_window: 5.0,
            abc_mark: None,
        };
        cc.on_ack(SimTime::ZERO, &ack);
        cc.on_loss(
            SimTime::ZERO,
            &LossEvent {
                seq: 2,
                send_window: 5.0,
                kind: LossKind::Timeout,
            },
        );
        assert_eq!(cc.window(), 5.0);
    }

    #[test]
    fn fixed_window_has_no_tick() {
        let cc = FixedWindow::new(1);
        assert_eq!(cc.tick_interval(), None);
    }

    #[test]
    fn trait_object_safety() {
        // The transport stores controllers as Box<dyn CongestionControl>.
        let mut boxed: Box<dyn CongestionControl> = Box::new(FixedWindow::new(3));
        assert_eq!(boxed.name(), "fixed");
        assert_eq!(boxed.quota(SimTime::ZERO, 1), 2);
    }
}
