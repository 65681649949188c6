//! RFC 6298 round-trip-time estimation.
//!
//! Every transport endpoint (TCP baselines and Verus alike) needs a
//! smoothed RTT and a retransmission timeout. Verus additionally uses the
//! smoothed RTT as the sliding-window horizon over which the sending
//! window is maintained (`n = ⌈RTT/ε⌉` in paper Eq. 5).

use crate::time::SimDuration;

/// Classic SRTT/RTTVAR estimator with RFC 6298 constants
/// (α = 1/8, β = 1/4, RTO = SRTT + 4·RTTVAR, clamped).
#[derive(Debug, Clone)]
pub struct RttEstimator {
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    min_rtt: Option<SimDuration>,
    min_rto: SimDuration,
    max_rto: SimDuration,
}

impl Default for RttEstimator {
    fn default() -> Self {
        // The paper's cellular RTTs are tens of milliseconds; a 200 ms
        // floor (Linux's default) and 60 s ceiling are standard.
        Self::new(SimDuration::from_millis(200), SimDuration::from_secs(60))
    }
}

impl RttEstimator {
    /// Creates an estimator with the given RTO clamp range.
    #[must_use]
    pub fn new(min_rto: SimDuration, max_rto: SimDuration) -> Self {
        assert!(min_rto <= max_rto, "min RTO must not exceed max RTO");
        Self {
            srtt: None,
            rttvar: SimDuration::ZERO,
            min_rtt: None,
            min_rto,
            max_rto,
        }
    }

    /// Feeds one RTT sample.
    pub fn on_sample(&mut self, rtt: SimDuration) {
        self.min_rtt = Some(match self.min_rtt {
            Some(m) if m <= rtt => m,
            _ => rtt,
        });
        match self.srtt {
            None => {
                // First measurement: SRTT = R, RTTVAR = R/2.
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                // RTTVAR = 3/4·RTTVAR + 1/4·|SRTT − R|
                let err = if srtt >= rtt { srtt - rtt } else { rtt - srtt };
                self.rttvar = self.rttvar.mul_f64(0.75) + err.mul_f64(0.25);
                // SRTT = 7/8·SRTT + 1/8·R
                self.srtt = Some(srtt.mul_f64(0.875) + rtt.mul_f64(0.125));
            }
        }
    }

    /// Smoothed RTT, if at least one sample has been seen.
    #[must_use]
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }

    /// Smoothed RTT, or `default` before the first sample.
    #[must_use]
    pub fn srtt_or(&self, default: SimDuration) -> SimDuration {
        self.srtt.unwrap_or(default)
    }

    /// Smallest RTT ever observed (the propagation-delay proxy that Verus
    /// uses as `Dmin`'s floor and Vegas as `baseRTT`).
    #[must_use]
    pub fn min_rtt(&self) -> Option<SimDuration> {
        self.min_rtt
    }

    /// Current retransmission timeout: `max(SRTT + 4·RTTVAR, 2·SRTT)`,
    /// clamped to the configured range; the initial-RTO default (1 s per
    /// RFC 6298) before any sample.
    ///
    /// The `2·SRTT` floor is a deliberate hardening for bufferbloated
    /// cellular paths: when competing flows inflate the queue, the RTT
    /// climbs faster than RTTVAR tracks it, and the textbook formula
    /// fires spurious timeouts that collapse small-window flows (kernels
    /// counter the same effect with F-RTO undo).
    #[must_use]
    pub fn rto(&self) -> SimDuration {
        let raw = match self.srtt {
            None => SimDuration::from_secs(1),
            Some(srtt) => (srtt + self.rttvar.mul_f64(4.0)).max(srtt.mul_f64(2.0)),
        };
        raw.clamp(self.min_rto, self.max_rto)
    }

    /// Exponential backoff of the RTO after `retries` consecutive
    /// timeouts (doubling, clamped to the max).
    #[must_use]
    pub fn backed_off_rto(&self, retries: u32) -> SimDuration {
        let factor = 1u64 << retries.min(16);
        let base = self.rto();
        let scaled = base.as_nanos().saturating_mul(factor);
        SimDuration::from_nanos(scaled).min(self.max_rto)
    }

    /// Clears the estimator (new connection).
    pub fn reset(&mut self) {
        self.srtt = None;
        self.rttvar = SimDuration::ZERO;
        self.min_rtt = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn first_sample_initializes() {
        let mut e = RttEstimator::default();
        e.on_sample(ms(100));
        assert_eq!(e.srtt(), Some(ms(100)));
        assert_eq!(e.min_rtt(), Some(ms(100)));
        // RTO = 100 + 4·50 = 300 ms.
        assert_eq!(e.rto(), ms(300));
    }

    #[test]
    fn smooths_with_rfc_constants() {
        let mut e = RttEstimator::default();
        e.on_sample(ms(100));
        e.on_sample(ms(200));
        // SRTT = 7/8·100 + 1/8·200 = 112.5 ms
        assert_eq!(e.srtt(), Some(SimDuration::from_micros(112_500)));
        // RTTVAR = 3/4·50 + 1/4·100 = 62.5 ms
        assert_eq!(e.rto(), SimDuration::from_micros(112_500 + 4 * 62_500));
    }

    #[test]
    fn min_rtt_tracks_floor() {
        let mut e = RttEstimator::default();
        e.on_sample(ms(80));
        e.on_sample(ms(40));
        e.on_sample(ms(120));
        assert_eq!(e.min_rtt(), Some(ms(40)));
    }

    #[test]
    fn rto_clamps_to_floor() {
        let mut e = RttEstimator::default();
        for _ in 0..50 {
            e.on_sample(ms(10)); // variance collapses to ~0
        }
        assert_eq!(e.rto(), ms(200)); // min RTO floor
    }

    #[test]
    fn initial_rto_is_one_second() {
        let e = RttEstimator::default();
        assert_eq!(e.rto(), SimDuration::from_secs(1));
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let mut e = RttEstimator::new(ms(200), SimDuration::from_secs(2));
        e.on_sample(ms(100));
        let rto = e.rto();
        assert_eq!(e.backed_off_rto(0), rto);
        assert_eq!(e.backed_off_rto(1), rto.mul_f64(2.0));
        assert_eq!(e.backed_off_rto(10), SimDuration::from_secs(2));
    }

    #[test]
    fn reset_clears_everything() {
        let mut e = RttEstimator::default();
        e.on_sample(ms(30));
        e.reset();
        assert_eq!(e.srtt(), None);
        assert_eq!(e.min_rtt(), None);
        assert_eq!(e.rto(), SimDuration::from_secs(1));
    }
}
