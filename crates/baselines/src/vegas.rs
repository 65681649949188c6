//! TCP Vegas (Brakmo & Peterson 1994) — the classic delay-based control
//! the paper names as Verus' inspiration ("drawing inspiration from
//! protocols like TCP Vegas", §2).
//!
//! Vegas compares the *expected* rate `cwnd/baseRTT` with the *actual*
//! rate `cwnd/RTT` and converts the difference into packets parked in the
//! bottleneck queue:
//!
//! ```text
//! diff = cwnd · (1 − baseRTT/RTT)      [packets in queue]
//! ```
//!
//! Once per RTT: `diff < α` → cwnd += 1; `diff > β` → cwnd −= 1; else
//! hold. Standard `α = 2`, `β = 4`. Slow start doubles every *other* RTT
//! and exits when `diff > γ = 1`.
//!
//! On cellular links Vegas' fixed α/β queue target is the problem the
//! paper highlights: the bandwidth-delay product swings by orders of
//! magnitude within seconds, so a 2–4 packet queue target leaves the link
//! idle after every capacity jump (visible as Vegas' low throughput in
//! Figure 8).

use verus_nettypes::{AckEvent, CongestionControl, LossEvent, LossKind, SimDuration, SimTime};

/// Lower queue-occupancy target, packets.
const ALPHA: f64 = 2.0;
/// Upper queue-occupancy target, packets.
const BETA: f64 = 4.0;
/// Slow-start exit threshold, packets.
const GAMMA: f64 = 1.0;
/// Initial window.
const INITIAL_WINDOW: f64 = 2.0;
/// Minimum window.
const MIN_WINDOW: f64 = 2.0;

/// TCP Vegas congestion control.
#[derive(Debug, Clone)]
pub struct Vegas {
    cwnd: f64,
    base_rtt: Option<SimDuration>,
    /// Minimum RTT seen during the current RTT round.
    round_min_rtt: Option<SimDuration>,
    /// ACKs counted this round (a round ≈ one cwnd of ACKs).
    round_acks: f64,
    in_slow_start: bool,
    /// Slow start doubles every other round.
    ss_grow_this_round: bool,
}

impl Default for Vegas {
    fn default() -> Self {
        Self::new()
    }
}

impl Vegas {
    /// Creates a Vegas controller in slow start.
    #[must_use]
    pub fn new() -> Self {
        Self {
            cwnd: INITIAL_WINDOW,
            base_rtt: None,
            round_min_rtt: None,
            round_acks: 0.0,
            in_slow_start: true,
            ss_grow_this_round: true,
        }
    }

    /// The current queue-occupancy estimate `diff`, if measurable.
    #[must_use]
    pub fn diff_packets(&self) -> Option<f64> {
        let base = self.base_rtt?.as_secs_f64();
        let rtt = self.round_min_rtt?.as_secs_f64();
        if rtt <= 0.0 {
            return None;
        }
        Some(self.cwnd * (1.0 - base / rtt))
    }

    /// Whether the controller is in slow start (for tests).
    #[must_use]
    pub fn in_slow_start(&self) -> bool {
        self.in_slow_start
    }

    fn end_round(&mut self) {
        let Some(diff) = self.diff_packets() else {
            return;
        };
        if self.in_slow_start {
            if diff > GAMMA {
                // Queue building: leave slow start, correct the overshoot.
                self.in_slow_start = false;
                self.cwnd = (self.cwnd - (diff - GAMMA)).max(MIN_WINDOW);
            } else if self.ss_grow_this_round {
                self.cwnd *= 2.0;
            }
            self.ss_grow_this_round = !self.ss_grow_this_round;
        } else if diff < ALPHA {
            self.cwnd += 1.0;
        } else if diff > BETA {
            self.cwnd = (self.cwnd - 1.0).max(MIN_WINDOW);
        }
        self.round_min_rtt = None;
    }
}

impl CongestionControl for Vegas {
    fn name(&self) -> &'static str {
        "vegas"
    }

    fn quota(&mut self, _now: SimTime, in_flight: usize) -> usize {
        (self.cwnd as usize).saturating_sub(in_flight)
    }

    fn on_packet_sent(&mut self, _now: SimTime, _seq: u64, _bytes: u64) {}

    fn on_ack(&mut self, _now: SimTime, ev: &AckEvent) {
        self.base_rtt = Some(match self.base_rtt {
            Some(b) if b <= ev.rtt => b,
            _ => ev.rtt,
        });
        self.round_min_rtt = Some(match self.round_min_rtt {
            Some(m) if m <= ev.rtt => m,
            _ => ev.rtt,
        });
        self.round_acks += 1.0;
        if self.round_acks >= self.cwnd.floor().max(1.0) {
            self.round_acks = 0.0;
            self.end_round();
        }
    }

    fn on_loss(&mut self, _now: SimTime, ev: &LossEvent) {
        match ev.kind {
            LossKind::FastRetransmit => {
                self.cwnd = (self.cwnd / 2.0).max(MIN_WINDOW);
            }
            LossKind::Timeout => {
                self.cwnd = MIN_WINDOW;
                self.in_slow_start = true;
                self.ss_grow_this_round = true;
            }
        }
        self.round_acks = 0.0;
        self.round_min_rtt = None;
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

    fn ack_rtt(ms: u64) -> AckEvent {
        AckEvent {
            seq: 0,
            bytes: 1400,
            rtt: SimDuration::from_millis(ms),
            delay: SimDuration::from_millis(ms / 2),
            send_window: 4.0,
            abc_mark: None,
        }
    }

    const T: SimTime = SimTime::ZERO;

    /// Feed one full round of ACKs at a fixed RTT.
    fn run_round(cc: &mut Vegas, rtt_ms: u64) {
        let n = cc.window().floor().max(1.0) as usize;
        for _ in 0..n {
            cc.on_ack(T, &ack_rtt(rtt_ms));
        }
    }

    #[test]
    fn slow_start_doubles_every_other_round() {
        let mut cc = Vegas::new();
        let w0 = cc.window();
        run_round(&mut cc, 100); // grow round
        assert_eq!(cc.window(), w0 * 2.0);
        run_round(&mut cc, 100); // hold round
        assert_eq!(cc.window(), w0 * 2.0);
        run_round(&mut cc, 100); // grow round
        assert_eq!(cc.window(), w0 * 4.0);
    }

    #[test]
    fn exits_slow_start_when_queue_builds() {
        let mut cc = Vegas::new();
        run_round(&mut cc, 100); // base = 100 ms, cwnd 4
        run_round(&mut cc, 100); // cwnd 4 (hold round)
        run_round(&mut cc, 100); // cwnd 8
        // now inflate RTT so diff = cwnd(1 − 100/200) = cwnd/2 > γ
        run_round(&mut cc, 200);
        assert!(!cc.in_slow_start());
    }

    #[test]
    fn additive_increase_when_queue_below_alpha() {
        let mut cc = Vegas::new();
        cc.in_slow_start = false;
        cc.cwnd = 10.0;
        cc.base_rtt = Some(SimDuration::from_millis(100));
        // RTT 110 ms → diff = 10·(1−100/110) ≈ 0.9 < α
        run_round(&mut cc, 110);
        assert_eq!(cc.window(), 11.0);
    }

    #[test]
    fn additive_decrease_when_queue_above_beta() {
        let mut cc = Vegas::new();
        cc.in_slow_start = false;
        cc.cwnd = 10.0;
        cc.base_rtt = Some(SimDuration::from_millis(100));
        // RTT 200 ms → diff = 5 > β
        run_round(&mut cc, 200);
        assert_eq!(cc.window(), 9.0);
    }

    #[test]
    fn holds_between_alpha_and_beta() {
        let mut cc = Vegas::new();
        cc.in_slow_start = false;
        cc.cwnd = 10.0;
        cc.base_rtt = Some(SimDuration::from_millis(100));
        // RTT ≈ 143 ms → diff = 10·(1−100/143) ≈ 3 ∈ (α, β)
        run_round(&mut cc, 143);
        assert_eq!(cc.window(), 10.0);
    }

    #[test]
    fn loss_halves_timeout_collapses() {
        let mut cc = Vegas::new();
        cc.in_slow_start = false;
        cc.cwnd = 20.0;
        cc.on_loss(
            T,
            &LossEvent {
                seq: 1,
                send_window: 20.0,
                kind: LossKind::FastRetransmit,
            },
        );
        assert_eq!(cc.window(), 10.0);
        cc.on_loss(
            T,
            &LossEvent {
                seq: 2,
                send_window: 10.0,
                kind: LossKind::Timeout,
            },
        );
        assert_eq!(cc.window(), MIN_WINDOW);
        assert!(cc.in_slow_start());
    }

    #[test]
    fn diff_uses_round_min_rtt() {
        let mut cc = Vegas::new();
        cc.cwnd = 10.0;
        cc.base_rtt = Some(SimDuration::from_millis(100));
        cc.on_ack(T, &ack_rtt(300));
        cc.on_ack(T, &ack_rtt(150));
        // min of round = 150 → diff = 10·(1−100/150) ≈ 3.33
        assert!((cc.diff_packets().unwrap() - 10.0 * (1.0 - 100.0 / 150.0)).abs() < 1e-9);
    }
}
