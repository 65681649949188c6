//! TCP CUBIC (Ha, Rhee & Xu 2008), the Linux default the paper compares
//! against most often.
//!
//! Window dynamics: after a loss at window `W_max`, the window follows
//! `W(t) = C·(t − K)³ + W_max` with `K = ∛(W_max·β/C)`, so it grows fast
//! away from `W_max`, plateaus near it, then probes beyond. Standard
//! constants `C = 0.4`, `β = 0.7`. The TCP-friendly region keeps CUBIC at
//! least as aggressive as AIMD Reno on short-RTT paths, and fast
//! convergence releases bandwidth when the loss rate suggests a new flow.
//!
//! On cellular channels this curve is exactly what the paper faults:
//! CUBIC keeps pushing into the over-dimensioned base-station buffer until
//! a loss finally occurs, accumulating seconds of "bufferbloat" delay
//! (Figure 8 shows CUBIC an order of magnitude above Verus in delay).

use verus_nettypes::{AckEvent, CongestionControl, LossEvent, LossKind, SimTime};

/// CUBIC aggressiveness constant (packets/s³).
const C: f64 = 0.4;
/// Multiplicative decrease factor.
const BETA: f64 = 0.7;
/// Initial window, matching the NewReno baseline.
const INITIAL_WINDOW: f64 = 2.0;
/// Minimum window after any reduction.
const MIN_WINDOW: f64 = 2.0;

/// TCP CUBIC congestion control.
#[derive(Debug, Clone)]
pub struct Cubic {
    cwnd: f64,
    ssthresh: f64,
    /// Window where the last loss happened (the curve's plateau).
    w_max: f64,
    /// Start of the current congestion-avoidance epoch.
    epoch_start: Option<SimTime>,
    /// Time offset of the plateau: W(K) = W_max.
    k: f64,
    /// Reno-friendly window estimate for the TCP-friendly region.
    w_tcp: f64,
    /// Smoothed RTT copy for the friendly-region update.
    last_rtt_s: f64,
    /// Highest sequence sent (same per-event loss logic as NewReno).
    highest_sent: u64,
    recovery_point: Option<u64>,
}

impl Default for Cubic {
    fn default() -> Self {
        Self::new()
    }
}

impl Cubic {
    /// Creates a CUBIC controller in slow start.
    #[must_use]
    pub fn new() -> Self {
        Self {
            cwnd: INITIAL_WINDOW,
            ssthresh: f64::INFINITY,
            w_max: 0.0,
            epoch_start: None,
            k: 0.0,
            w_tcp: INITIAL_WINDOW,
            last_rtt_s: 0.1,
            highest_sent: 0,
            recovery_point: None,
        }
    }

    /// Whether the controller is in slow start.
    #[must_use]
    pub fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    /// The cubic window target at elapsed epoch time `t` seconds.
    fn w_cubic(&self, t: f64) -> f64 {
        C * (t - self.k).powi(3) + self.w_max
    }

    fn begin_epoch(&mut self, now: SimTime) {
        self.epoch_start = Some(now);
        self.k = if self.cwnd < self.w_max {
            ((self.w_max - self.cwnd) / C).cbrt()
        } else {
            0.0
        };
        self.w_tcp = self.cwnd;
    }
}

impl CongestionControl for Cubic {
    fn name(&self) -> &'static str {
        "cubic"
    }

    fn quota(&mut self, _now: SimTime, in_flight: usize) -> usize {
        (self.cwnd as usize).saturating_sub(in_flight)
    }

    fn on_packet_sent(&mut self, _now: SimTime, seq: u64, _bytes: u64) {
        self.highest_sent = self.highest_sent.max(seq);
    }

    fn on_ack(&mut self, now: SimTime, ev: &AckEvent) {
        self.last_rtt_s = ev.rtt.as_secs_f64().max(1e-4);
        if let Some(point) = self.recovery_point {
            if ev.seq > point {
                self.recovery_point = None;
                self.begin_epoch(now);
            } else {
                return;
            }
        }
        if self.in_slow_start() {
            self.cwnd += 1.0;
            return;
        }
        let epoch_start = match self.epoch_start {
            Some(t) => t,
            None => {
                self.begin_epoch(now);
                now
            }
        };
        let t = now.saturating_since(epoch_start).as_secs_f64();

        // TCP-friendly region (the AIMD window Reno would have reached).
        self.w_tcp += 3.0 * (1.0 - BETA) / (1.0 + BETA) / self.cwnd.max(1.0);

        let target = self.w_cubic(t + self.last_rtt_s).max(self.w_tcp);
        if target > self.cwnd {
            // Standard cwnd approach: close the gap over one window of ACKs.
            self.cwnd += (target - self.cwnd) / self.cwnd.max(1.0);
        } else {
            // In the plateau/concave region: tiny probe growth.
            self.cwnd += 0.01 / self.cwnd.max(1.0);
        }
    }

    fn on_loss(&mut self, _now: SimTime, ev: &LossEvent) {
        match ev.kind {
            LossKind::Timeout => {
                self.ssthresh = (self.cwnd * BETA).max(MIN_WINDOW);
                self.w_max = self.cwnd;
                self.cwnd = MIN_WINDOW.min(self.ssthresh);
                self.epoch_start = None;
                self.recovery_point = None;
            }
            LossKind::FastRetransmit => {
                if self
                    .recovery_point
                    .is_none_or(|point| ev.seq > point)
                {
                    // Fast convergence: if losses come before regaining the
                    // previous W_max, release extra bandwidth.
                    if self.cwnd < self.w_max {
                        self.w_max = self.cwnd * (1.0 + BETA) / 2.0;
                    } else {
                        self.w_max = self.cwnd;
                    }
                    self.cwnd = (self.cwnd * BETA).max(MIN_WINDOW);
                    self.ssthresh = self.cwnd;
                    self.epoch_start = None;
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

    fn ack_at(seq: u64, rtt_ms: u64) -> AckEvent {
        AckEvent {
            seq,
            bytes: 1400,
            rtt: SimDuration::from_millis(rtt_ms),
            delay: SimDuration::from_millis(rtt_ms / 2),
            send_window: 10.0,
            abc_mark: None,
        }
    }

    fn loss(seq: u64) -> LossEvent {
        LossEvent {
            seq,
            send_window: 10.0,
            kind: LossKind::FastRetransmit,
        }
    }

    #[test]
    fn slow_start_grows_exponentially() {
        let mut cc = Cubic::new();
        let w0 = cc.window();
        for s in 0..w0 as u64 {
            cc.on_ack(SimTime::ZERO, &ack_at(s, 50));
        }
        assert_eq!(cc.window(), w0 * 2.0);
    }

    #[test]
    fn loss_multiplies_by_beta() {
        let mut cc = Cubic::new();
        cc.cwnd = 100.0;
        cc.ssthresh = 50.0;
        cc.on_packet_sent(SimTime::ZERO, 10, 1400);
        cc.on_loss(SimTime::ZERO, &loss(5));
        assert!((cc.window() - 70.0).abs() < 1e-9);
    }

    #[test]
    #[allow(clippy::explicit_counter_loop)]
    fn window_plateaus_near_w_max_then_probes() {
        let mut cc = Cubic::new();
        cc.cwnd = 70.0;
        cc.ssthresh = 70.0;
        cc.w_max = 100.0;
        cc.begin_epoch(SimTime::ZERO);
        // drive ACK clocks for 20 simulated seconds
        let mut seq = 0u64;
        let mut w_at_k = None;
        for step in 0..2000 {
            let now = SimTime::from_millis(step * 10);
            cc.on_ack(now, &ack_at(seq, 10));
            seq += 1;
            if w_at_k.is_none() && now.as_secs_f64() >= cc.k {
                w_at_k = Some(cc.window());
            }
        }
        // at t = K the window should be near W_max…
        let w_at_k = w_at_k.unwrap();
        assert!((w_at_k - 100.0).abs() < 15.0, "w(K) = {w_at_k}");
        // …and by the end it probes beyond it.
        assert!(cc.window() > 100.0, "end window {}", cc.window());
    }

    #[test]
    fn fast_convergence_shrinks_w_max() {
        let mut cc = Cubic::new();
        cc.cwnd = 60.0;
        cc.ssthresh = 60.0;
        cc.w_max = 100.0; // previous peak not regained
        cc.on_packet_sent(SimTime::ZERO, 10, 1400);
        cc.on_loss(SimTime::ZERO, &loss(5));
        // w_max ← cwnd·(1+β)/2 = 60·0.85 = 51
        assert!((cc.w_max - 51.0).abs() < 1e-9);
    }

    #[test]
    fn one_decrease_per_congestion_event() {
        let mut cc = Cubic::new();
        cc.cwnd = 100.0;
        cc.ssthresh = 100.0;
        cc.on_packet_sent(SimTime::ZERO, 50, 1400);
        cc.on_loss(SimTime::ZERO, &loss(10));
        let w = cc.window();
        cc.on_loss(SimTime::ZERO, &loss(20)); // same flight
        assert_eq!(cc.window(), w);
        cc.on_loss(SimTime::ZERO, &loss(60)); // next flight
        assert!(cc.window() < w);
    }

    #[test]
    fn timeout_collapses_window() {
        let mut cc = Cubic::new();
        cc.cwnd = 100.0;
        cc.ssthresh = 100.0;
        cc.on_loss(
            SimTime::ZERO,
            &LossEvent {
                seq: 1,
                send_window: 100.0,
                kind: LossKind::Timeout,
            },
        );
        assert_eq!(cc.window(), MIN_WINDOW);
    }

    #[test]
    fn k_is_zero_when_starting_above_w_max() {
        let mut cc = Cubic::new();
        cc.cwnd = 120.0;
        cc.w_max = 100.0;
        cc.begin_epoch(SimTime::ZERO);
        assert_eq!(cc.k, 0.0);
    }
}
