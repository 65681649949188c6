//! ABC sender (Goyal et al., *ABC: A Simple Explicit Congestion
//! Controller for Wireless Networks*, NSDI 2020).
//!
//! ABC moves the congestion decision into the cellular bottleneck: the
//! router stamps every departing packet *accelerate* or *brake* from
//! its current rate/queue state (see `verus_netsim::abc` for the marker
//! this repo implements), the receiver echoes the stamp on the ACK, and
//! the sender's job is almost trivial:
//!
//! * ACK marked **accelerate** → `cwnd += 1` (send two packets for this
//!   ACK: the window both replaces the ACKed packet and grows);
//! * ACK marked **brake** → `cwnd −= 1` (send nothing for this ACK);
//! * loss is still the sender's problem: multiplicative decrease on
//!   fast retransmit, collapse on timeout (the paper's TCP-compatible
//!   fallback).
//!
//! On a path that does not mark (`abc_mark == None` — every non-ABC
//! configuration, and the shared conformance storms) the sender falls
//! back to plain AIMD growth so it remains a well-behaved, if
//! unremarkable, TCP: exactly the paper's incremental-deployment story.

use verus_nettypes::{AckEvent, CongestionControl, LossEvent, LossKind, SimTime};

/// Initial window, packets.
const INITIAL_WINDOW: f64 = 2.0;
/// Minimum window, packets.
const MIN_WINDOW: f64 = 2.0;

/// The ABC sender: window slave to the router's accelerate/brake marks.
#[derive(Debug, Clone, Default)]
pub struct AbcCc {
    cwnd: f64,
    /// Fractional AIMD accumulator for the unmarked-path fallback.
    ca_accum: f64,
    /// Marked/unmarked ACK tallies (harness introspection).
    accelerates: u64,
    brakes: u64,
    unmarked: u64,
}

impl AbcCc {
    /// Creates an ABC sender at the initial window.
    #[must_use]
    pub fn new() -> Self {
        Self {
            cwnd: INITIAL_WINDOW,
            ca_accum: 0.0,
            accelerates: 0,
            brakes: 0,
            unmarked: 0,
        }
    }

    /// `(accelerate, brake, unmarked)` ACK counts seen so far.
    #[must_use]
    pub fn mark_counts(&self) -> (u64, u64, u64) {
        (self.accelerates, self.brakes, self.unmarked)
    }
}

impl CongestionControl for AbcCc {
    fn name(&self) -> &'static str {
        "abc"
    }

    fn quota(&mut self, _now: SimTime, in_flight: usize) -> usize {
        (self.cwnd as usize).saturating_sub(in_flight)
    }

    fn on_packet_sent(&mut self, _now: SimTime, _seq: u64, _bytes: u64) {}

    fn on_ack(&mut self, _now: SimTime, ev: &AckEvent) {
        // Default-constructed state heals
        // to the initial window on first contact.
        if self.cwnd < MIN_WINDOW {
            self.cwnd = INITIAL_WINDOW;
        }
        match ev.abc_mark {
            Some(true) => {
                self.accelerates += 1;
                self.cwnd += 1.0;
            }
            Some(false) => {
                self.brakes += 1;
                self.cwnd = (self.cwnd - 1.0).max(MIN_WINDOW);
            }
            None => {
                // Unmarked path: behave like plain AIMD so the protocol
                // stays deployable where no router cooperates.
                self.unmarked += 1;
                self.ca_accum += 1.0 / self.cwnd.max(1.0);
                if self.ca_accum >= 1.0 {
                    self.ca_accum -= 1.0;
                    self.cwnd += 1.0;
                }
            }
        }
    }

    fn on_loss(&mut self, _now: SimTime, ev: &LossEvent) {
        if self.cwnd < MIN_WINDOW {
            self.cwnd = INITIAL_WINDOW;
        }
        match ev.kind {
            LossKind::FastRetransmit => {
                self.cwnd = (self.cwnd / 2.0).max(MIN_WINDOW);
            }
            LossKind::Timeout => {
                self.cwnd = MIN_WINDOW;
            }
        }
        self.ca_accum = 0.0;
    }

    fn window(&self) -> f64 {
        self.cwnd.max(MIN_WINDOW)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use verus_nettypes::SimDuration;

    const T: SimTime = SimTime::ZERO;

    fn ack(mark: Option<bool>) -> AckEvent {
        AckEvent {
            seq: 0,
            bytes: 1400,
            rtt: SimDuration::from_millis(40),
            delay: SimDuration::from_millis(20),
            send_window: 4.0,
            abc_mark: mark,
        }
    }

    #[test]
    fn accelerate_adds_one_per_ack() {
        let mut cc = AbcCc::new();
        let w0 = cc.window();
        for _ in 0..5 {
            cc.on_ack(T, &ack(Some(true)));
        }
        assert_eq!(cc.window(), w0 + 5.0);
        assert_eq!(cc.mark_counts().0, 5);
    }

    #[test]
    fn brake_subtracts_one_with_floor() {
        let mut cc = AbcCc::new();
        cc.cwnd = 10.0;
        for _ in 0..20 {
            cc.on_ack(T, &ack(Some(false)));
        }
        assert_eq!(cc.window(), MIN_WINDOW, "brakes floor at the min window");
        assert_eq!(cc.mark_counts().1, 20);
    }

    #[test]
    fn unmarked_path_grows_like_aimd() {
        let mut cc = AbcCc::new();
        cc.cwnd = 10.0;
        // Two cwnds' worth of unmarked ACKs ≈ +2 packets (float
        // accumulation makes the exact crossing step inexact).
        for _ in 0..21 {
            cc.on_ack(T, &ack(None));
        }
        assert!(
            (cc.window() - 12.0).abs() < 0.2,
            "window {} after 21 unmarked ACKs",
            cc.window()
        );
        assert_eq!(cc.mark_counts().2, 21);
    }

    #[test]
    fn loss_reactions_are_tcp_compatible() {
        let mut cc = AbcCc::new();
        cc.cwnd = 40.0;
        cc.on_loss(
            T,
            &LossEvent {
                seq: 1,
                send_window: 40.0,
                kind: LossKind::FastRetransmit,
            },
        );
        assert_eq!(cc.window(), 20.0);
        cc.on_loss(
            T,
            &LossEvent {
                seq: 2,
                send_window: 20.0,
                kind: LossKind::Timeout,
            },
        );
        assert_eq!(cc.window(), MIN_WINDOW);
    }

    #[test]
    fn mixed_marks_track_the_net() {
        let mut cc = AbcCc::new();
        cc.cwnd = 20.0;
        // 6 accelerates, 4 brakes → net +2.
        for i in 0..10 {
            cc.on_ack(T, &ack(Some(i < 6)));
        }
        assert_eq!(cc.window(), 22.0);
    }
}
