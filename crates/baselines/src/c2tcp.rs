//! C2TCP (Abbasloo et al., *Cellular Controlled Delay TCP*, and its
//! journal follow-up) — the delay-centric successor PAPERS.md names as
//! the protocol that later beat Verus in its own regime.
//!
//! C2TCP is deliberately *not* a new control law: it rides on top of a
//! throughput-oriented TCP (the authors use Cubic) and adds a
//! CoDel-inspired condition monitor around a **target-delay setpoint**.
//! While packets arrive under the target, the underlying TCP grows
//! normally and keeps the link full. The first packet over the target
//! starts an observation interval; if the condition persists to the end
//! of the interval the window is cut multiplicatively, and subsequent
//! cuts come on CoDel's square-root cadence (`interval/√n` after the
//! n-th consecutive cut) so a standing queue is worked off aggressively
//! while a one-TTI cellular delay spike costs at most one cut. Dropping
//! back under the target resets the monitor.
//!
//! The underlying TCP here is standard slow-start + AIMD (NewReno-style
//! growth); the point of C2TCP — and what the tournament measures — is
//! the delay governor, which is identical regardless of the carrier.

use verus_nettypes::{AckEvent, CongestionControl, LossEvent, LossKind, SimDuration, SimTime};

/// Initial window, packets.
const INITIAL_WINDOW: f64 = 2.0;
/// Minimum window, packets.
const MIN_WINDOW: f64 = 2.0;
/// Multiplicative cut applied when the delay condition fires (the
/// C2TCP prototype's 0.7, gentler than a loss halving — cuts recur on
/// the √-cadence if the queue persists).
const CUT_FACTOR: f64 = 0.7;

/// C2TCP: a target-delay governor over an AIMD carrier.
#[derive(Debug, Clone)]
pub struct C2Tcp {
    /// One-way-delay setpoint the governor defends.
    target: SimDuration,
    /// Base observation interval before the first cut.
    interval: SimDuration,
    cwnd: f64,
    ssthresh: f64,
    in_slow_start: bool,
    /// Fractional congestion-avoidance accumulator (1/cwnd per ACK).
    ca_accum: f64,
    /// When the delay first exceeded the target, if it still does.
    first_above_at: Option<SimTime>,
    /// Next scheduled cut while the condition persists.
    next_cut_at: Option<SimTime>,
    /// Consecutive cuts in this above-target episode (√-law divisor).
    cut_count: u32,
}

impl Default for C2Tcp {
    fn default() -> Self {
        Self::new(SimDuration::from_millis(50), SimDuration::from_millis(100))
    }
}

impl C2Tcp {
    /// Creates a controller defending `target` one-way delay, checking
    /// the condition over `interval` (both positive).
    #[must_use]
    pub fn new(target: SimDuration, interval: SimDuration) -> Self {
        assert!(target > SimDuration::ZERO, "target delay must be positive");
        assert!(interval > SimDuration::ZERO, "interval must be positive");
        Self {
            target,
            interval,
            cwnd: INITIAL_WINDOW,
            ssthresh: f64::INFINITY,
            in_slow_start: true,
            ca_accum: 0.0,
            first_above_at: None,
            next_cut_at: None,
            cut_count: 0,
        }
    }

    /// The delay setpoint (for harness introspection).
    #[must_use]
    pub fn target(&self) -> SimDuration {
        self.target
    }

    /// Whether the governor currently sees an above-target episode.
    #[must_use]
    pub fn above_target(&self) -> bool {
        self.first_above_at.is_some()
    }

    /// Underlying-TCP growth for one ACK (only taken under the target).
    fn grow(&mut self) {
        if self.in_slow_start {
            self.cwnd += 1.0;
            if self.cwnd >= self.ssthresh {
                self.in_slow_start = false;
            }
        } else {
            self.ca_accum += 1.0 / self.cwnd.max(1.0);
            if self.ca_accum >= 1.0 {
                self.ca_accum -= 1.0;
                self.cwnd += 1.0;
            }
        }
    }

    fn cut(&mut self, now: SimTime) {
        self.cwnd = (self.cwnd * CUT_FACTOR).max(MIN_WINDOW);
        self.in_slow_start = false;
        self.cut_count += 1;
        // CoDel cadence: interval / √(cuts so far) until the queue drains.
        let next = self
            .interval
            .mul_f64(1.0 / f64::from(self.cut_count).sqrt());
        self.next_cut_at = Some(now + next);
    }
}

impl CongestionControl for C2Tcp {
    fn name(&self) -> &'static str {
        "c2tcp"
    }

    fn quota(&mut self, _now: SimTime, in_flight: usize) -> usize {
        (self.cwnd as usize).saturating_sub(in_flight)
    }

    fn on_packet_sent(&mut self, _now: SimTime, _seq: u64, _bytes: u64) {}

    fn on_ack(&mut self, now: SimTime, ev: &AckEvent) {
        if ev.delay < self.target {
            // Condition cleared: reset the monitor, grow normally.
            self.first_above_at = None;
            self.next_cut_at = None;
            self.cut_count = 0;
            self.grow();
            return;
        }
        match self.first_above_at {
            None => {
                // First packet over the target: observe for one interval
                // before acting (a lone spike must not cost a cut).
                self.first_above_at = Some(now);
                self.next_cut_at = Some(now + self.interval);
            }
            Some(_) => {
                if self.next_cut_at.is_some_and(|at| now >= at) {
                    self.cut(now);
                }
            }
        }
    }

    fn on_loss(&mut self, _now: SimTime, ev: &LossEvent) {
        match ev.kind {
            LossKind::FastRetransmit => {
                self.cwnd = (self.cwnd / 2.0).max(MIN_WINDOW);
                self.ssthresh = self.cwnd;
                self.in_slow_start = false;
            }
            LossKind::Timeout => {
                self.ssthresh = (self.cwnd / 2.0).max(MIN_WINDOW);
                self.cwnd = MIN_WINDOW;
                self.in_slow_start = true;
            }
        }
        self.ca_accum = 0.0;
        self.first_above_at = None;
        self.next_cut_at = None;
        self.cut_count = 0;
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

    fn ack_delay(ms: u64) -> AckEvent {
        AckEvent {
            seq: 0,
            bytes: 1400,
            rtt: SimDuration::from_millis(2 * ms),
            delay: SimDuration::from_millis(ms),
            send_window: 4.0,
            abc_mark: None,
        }
    }

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn grows_while_under_target() {
        let mut cc = C2Tcp::default();
        let w0 = cc.window();
        for i in 0..10 {
            cc.on_ack(at(i), &ack_delay(10));
        }
        assert!(cc.window() > w0, "under-target ACKs must grow the window");
        assert!(!cc.above_target());
    }

    #[test]
    fn single_spike_does_not_cut() {
        let mut cc = C2Tcp::default();
        for i in 0..10 {
            cc.on_ack(at(i), &ack_delay(10));
        }
        let w = cc.window();
        // One above-target packet, then back under: window untouched.
        cc.on_ack(at(20), &ack_delay(200));
        assert_eq!(cc.window(), w);
        cc.on_ack(at(21), &ack_delay(10));
        assert!(!cc.above_target());
    }

    #[test]
    fn persistent_delay_cuts_on_interval() {
        let mut cc = C2Tcp::default();
        cc.cwnd = 100.0;
        cc.in_slow_start = false;
        cc.on_ack(at(0), &ack_delay(200)); // arm the monitor
        cc.on_ack(at(50), &ack_delay(200)); // inside the interval: no cut
        assert_eq!(cc.window(), 100.0);
        cc.on_ack(at(100), &ack_delay(200)); // interval elapsed: cut
        assert!((cc.window() - 70.0).abs() < 1e-9);
    }

    #[test]
    fn cut_cadence_follows_sqrt_law() {
        let mut cc = C2Tcp::default();
        cc.cwnd = 1000.0;
        cc.in_slow_start = false;
        cc.on_ack(at(0), &ack_delay(200));
        cc.on_ack(at(100), &ack_delay(200)); // first cut at t=100
        let w1 = cc.window();
        // Second cut due at 100 + 100/√1 = 200... but cut_count=1 →
        // next = interval/√1 = 100 ms. Third at +100/√2 ≈ 70.7 ms.
        cc.on_ack(at(150), &ack_delay(200));
        assert_eq!(cc.window(), w1, "before the √-cadence deadline");
        cc.on_ack(at(200), &ack_delay(200));
        assert!(cc.window() < w1, "second cut on the cadence");
    }

    #[test]
    fn recovery_resets_episode() {
        let mut cc = C2Tcp::default();
        cc.cwnd = 100.0;
        cc.in_slow_start = false;
        cc.on_ack(at(0), &ack_delay(200));
        cc.on_ack(at(100), &ack_delay(200));
        assert!(cc.above_target());
        cc.on_ack(at(101), &ack_delay(10));
        assert!(!cc.above_target());
        let w = cc.window();
        // A fresh episode observes a full interval again before cutting.
        cc.on_ack(at(102), &ack_delay(200));
        cc.on_ack(at(150), &ack_delay(200));
        assert_eq!(cc.window(), w);
    }

    #[test]
    fn loss_reactions_match_tcp() {
        let mut cc = C2Tcp::default();
        cc.cwnd = 40.0;
        cc.in_slow_start = false;
        cc.on_loss(
            at(0),
            &LossEvent {
                seq: 1,
                send_window: 40.0,
                kind: LossKind::FastRetransmit,
            },
        );
        assert_eq!(cc.window(), 20.0);
        cc.on_loss(
            at(1),
            &LossEvent {
                seq: 2,
                send_window: 20.0,
                kind: LossKind::Timeout,
            },
        );
        assert_eq!(cc.window(), MIN_WINDOW);
    }

    #[test]
    fn window_never_below_min() {
        let mut cc = C2Tcp::default();
        for i in 0..500u64 {
            cc.on_ack(at(i * 200), &ack_delay(500));
        }
        assert!(cc.window() >= MIN_WINDOW);
    }
}
