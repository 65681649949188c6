//! TCP NewReno (RFC 5681 congestion control + RFC 6582 fast recovery).
//!
//! The paper runs NewReno with "default parameters according to …
//! Windows 7" in the OPNET comparison (§6.2). The transport layer handles
//! duplicate-ACK counting and retransmission; this controller implements
//! the window dynamics:
//!
//! * slow start: `cwnd += 1` per ACK while `cwnd < ssthresh`;
//! * congestion avoidance: `cwnd += 1/cwnd` per ACK;
//! * fast retransmit/recovery: on loss, `ssthresh = cwnd/2`,
//!   `cwnd = ssthresh`, and further losses within the same window (i.e.
//!   of packets sent before the recovery point) do not halve again —
//!   NewReno's partial-ACK behaviour mapped onto the event interface;
//! * timeout: `ssthresh = cwnd/2`, `cwnd = 1`, back to slow start.

use verus_nettypes::{AckEvent, CongestionControl, LossEvent, LossKind, SimTime};

/// Initial window (RFC 6928's IW is 10 segments on Linux; classic hosts
/// use up to 4; the paper's era defaults were small, so 2 keeps slow
/// start visible in short traces).
const INITIAL_WINDOW: f64 = 2.0;
/// Minimum window after any reduction.
const MIN_WINDOW: f64 = 1.0;

/// TCP NewReno congestion control.
#[derive(Debug, Clone)]
pub struct NewReno {
    cwnd: f64,
    ssthresh: f64,
    /// Highest sequence number handed to the network so far.
    highest_sent: u64,
    /// While in fast recovery, losses of packets with `seq <=
    /// recovery_point` belong to the same congestion event.
    recovery_point: Option<u64>,
}

impl Default for NewReno {
    fn default() -> Self {
        Self::new()
    }
}

impl NewReno {
    /// Creates a NewReno controller in slow start.
    #[must_use]
    pub fn new() -> Self {
        Self {
            cwnd: INITIAL_WINDOW,
            ssthresh: f64::INFINITY,
            highest_sent: 0,
            recovery_point: None,
        }
    }

    /// Current slow-start threshold (for tests and logging).
    #[must_use]
    pub fn ssthresh(&self) -> f64 {
        self.ssthresh
    }

    /// Whether the controller is in slow start.
    #[must_use]
    pub fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    /// Whether the controller is in fast recovery.
    #[must_use]
    pub fn in_recovery(&self) -> bool {
        self.recovery_point.is_some()
    }
}

impl CongestionControl for NewReno {
    fn name(&self) -> &'static str {
        "newreno"
    }

    fn quota(&mut self, _now: SimTime, in_flight: usize) -> usize {
        (self.cwnd as usize).saturating_sub(in_flight)
    }

    fn on_packet_sent(&mut self, _now: SimTime, seq: u64, _bytes: u64) {
        self.highest_sent = self.highest_sent.max(seq);
    }

    fn on_ack(&mut self, _now: SimTime, ev: &AckEvent) {
        // Leaving recovery: an ACK for data sent after the recovery point
        // means the whole lossy window has been repaired.
        if let Some(point) = self.recovery_point {
            if ev.seq > point {
                self.recovery_point = None;
            } else {
                // Partial ACK: stay in recovery, don't grow.
                return;
            }
        }
        if self.in_slow_start() {
            self.cwnd += 1.0;
        } else {
            self.cwnd += 1.0 / self.cwnd.max(1.0);
        }
    }

    fn on_loss(&mut self, _now: SimTime, ev: &LossEvent) {
        match ev.kind {
            LossKind::Timeout => {
                // RFC 5681 §3.1: collapse to one segment, re-enter slow start.
                self.ssthresh = (self.cwnd / 2.0).max(2.0);
                self.cwnd = MIN_WINDOW;
                self.recovery_point = None;
            }
            LossKind::FastRetransmit => {
                // One multiplicative decrease per congestion event.
                if self
                    .recovery_point
                    .is_none_or(|point| ev.seq > point)
                {
                    self.ssthresh = (self.cwnd / 2.0).max(2.0);
                    self.cwnd = self.ssthresh.max(MIN_WINDOW);
                    self.recovery_point = Some(self.highest_sent);
                }
            }
        }
    }

    fn window(&self) -> f64 {
        self.cwnd
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use verus_nettypes::SimDuration;

    fn ack(seq: u64) -> AckEvent {
        AckEvent {
            seq,
            bytes: 1400,
            rtt: SimDuration::from_millis(50),
            delay: SimDuration::from_millis(25),
            send_window: 10.0,
            abc_mark: None,
        }
    }

    fn loss(seq: u64, kind: LossKind) -> LossEvent {
        LossEvent {
            seq,
            send_window: 10.0,
            kind,
        }
    }

    const T: SimTime = SimTime::ZERO;

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut cc = NewReno::new();
        assert!(cc.in_slow_start());
        let w0 = cc.window();
        // one ACK per outstanding packet → +1 each → doubles per RTT
        for s in 0..w0 as u64 {
            cc.on_ack(T, &ack(s));
        }
        assert_eq!(cc.window(), w0 * 2.0);
    }

    #[test]
    fn congestion_avoidance_is_additive() {
        let mut cc = NewReno::new();
        cc.ssthresh = 4.0;
        cc.cwnd = 8.0; // past ssthresh → CA
        assert!(!cc.in_slow_start());
        for s in 0..8 {
            cc.on_ack(T, &ack(s));
        }
        // +1/cwnd per ACK ≈ +1 per RTT (slightly more as cwnd grows slowly)
        assert!((cc.window() - 9.0).abs() < 0.05, "cwnd {}", cc.window());
    }

    #[test]
    fn fast_retransmit_halves_once_per_event() {
        let mut cc = NewReno::new();
        cc.cwnd = 16.0;
        cc.ssthresh = 8.0;
        cc.on_packet_sent(T, 100, 1400);
        cc.on_loss(T, &loss(90, LossKind::FastRetransmit));
        assert_eq!(cc.window(), 8.0);
        assert!(cc.in_recovery());
        // second loss from the same flight (seq <= 100) must not halve again
        cc.on_loss(T, &loss(95, LossKind::FastRetransmit));
        assert_eq!(cc.window(), 8.0);
    }

    #[test]
    fn new_event_after_recovery_halves_again() {
        let mut cc = NewReno::new();
        cc.cwnd = 16.0;
        cc.ssthresh = 8.0;
        cc.on_packet_sent(T, 100, 1400);
        cc.on_loss(T, &loss(90, LossKind::FastRetransmit));
        // exit recovery via ACK beyond the recovery point
        cc.on_ack(T, &ack(101));
        assert!(!cc.in_recovery());
        // The recovery-exiting ACK also counts for CA growth: 8 + 1/8.
        assert_eq!(cc.window(), 8.125);
        cc.on_packet_sent(T, 120, 1400);
        cc.on_loss(T, &loss(110, LossKind::FastRetransmit));
        assert_eq!(cc.window(), 8.125 / 2.0);
    }

    #[test]
    fn partial_acks_do_not_grow_window() {
        let mut cc = NewReno::new();
        cc.cwnd = 16.0;
        cc.ssthresh = 8.0;
        cc.on_packet_sent(T, 100, 1400);
        cc.on_loss(T, &loss(50, LossKind::FastRetransmit));
        let w = cc.window();
        cc.on_ack(T, &ack(60)); // partial: below recovery point
        assert_eq!(cc.window(), w);
        assert!(cc.in_recovery());
    }

    #[test]
    fn timeout_collapses_to_one() {
        let mut cc = NewReno::new();
        cc.cwnd = 20.0;
        cc.ssthresh = 10.0;
        cc.on_loss(T, &loss(5, LossKind::Timeout));
        assert_eq!(cc.window(), 1.0);
        assert_eq!(cc.ssthresh(), 10.0);
        assert!(cc.in_slow_start());
    }

    #[test]
    fn quota_is_window_minus_in_flight() {
        let mut cc = NewReno::new();
        cc.cwnd = 10.7;
        assert_eq!(cc.quota(T, 3), 7);
        assert_eq!(cc.quota(T, 10), 0);
        assert_eq!(cc.quota(T, 50), 0);
    }

    #[test]
    fn no_tick_needed() {
        assert_eq!(NewReno::new().tick_interval(), None);
    }
}
