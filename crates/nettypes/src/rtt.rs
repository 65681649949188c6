//! RFC 6298 round-trip-time estimation.
//!
//! Every transport endpoint (TCP baselines and Verus alike) needs a
//! smoothed RTT and a retransmission timeout. Verus additionally uses the
//! smoothed RTT as the sliding-window horizon over which the sending
//! window is maintained (`n = ⌈RTT/ε⌉` in paper Eq. 5).

use crate::time::SimDuration;

/// `d · num / 2^shift`, rounded half up to whole nanoseconds: bit for
/// bit `d.mul_f64(num / 2^shift)`, without the float round trip.
///
/// While `d · num < 2^53` the f64 product is exact (both `d` and the
/// dyadic factor are representable and the scaled product fits the
/// mantissa), so `mul_f64` rounds the exact quotient half up, which is
/// `(d · num + 2^(shift−1)) >> shift`. At or above the bound (from
/// `d` ≈ 13 days for `num = 7`) the f64 product may round, so that range
/// falls back to `mul_f64` itself.
#[inline]
fn mul_ratio(d: SimDuration, num: u32, shift: u32) -> SimDuration {
    match d.as_nanos().checked_mul(u64::from(num)) {
        Some(p) if p < 1 << 53 => SimDuration::from_nanos((p + ((1 << shift) >> 1)) >> shift),
        // Both operands are small integers, so the factor is exact.
        _ => d.mul_f64(f64::from(num) / f64::from(1u32 << shift)),
    }
}

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
                self.rttvar = mul_ratio(self.rttvar, 3, 2) + mul_ratio(err, 1, 2);
                // SRTT = 7/8·SRTT + 1/8·R
                self.srtt = Some(mul_ratio(srtt, 7, 3) + mul_ratio(rtt, 1, 3));
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
            Some(srtt) => (srtt + mul_ratio(self.rttvar, 4, 0)).max(mul_ratio(srtt, 2, 0)),
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
    use proptest::prelude::*;

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

    /// The factors the estimator scales by, as `(num, shift, f64)`.
    const RATIOS: [(u32, u32, f64); 6] = [
        (3, 2, 0.75),
        (1, 2, 0.25),
        (7, 3, 0.875),
        (1, 3, 0.125),
        (4, 0, 4.0),
        (2, 0, 2.0),
    ];

    fn assert_ratios_exact(x: u64) {
        let d = SimDuration::from_nanos(x);
        for (num, shift, k) in RATIOS {
            assert_eq!(mul_ratio(d, num, shift), d.mul_f64(k), "{x} ns × {k}");
        }
    }

    #[test]
    fn mul_ratio_is_exact_at_the_edges() {
        for x in (0..4096).chain(u64::MAX - 4096..=u64::MAX) {
            assert_ratios_exact(x);
        }
        for bit in 40..64 {
            let p = 1u64 << bit;
            for x in p - 64..p + 64 {
                assert_ratios_exact(x);
            }
        }
        // Where `x · num` crosses 2^53, the switch to the fallback.
        for (num, ..) in RATIOS {
            let edge = (1u64 << 53).div_ceil(u64::from(num));
            for x in edge - 64..edge + 64 {
                assert_ratios_exact(x);
            }
        }
    }

    /// RFC 6298 on `mul_f64`, as the estimator computed it before its
    /// products became integer arithmetic.
    struct FloatReference {
        srtt: Option<SimDuration>,
        rttvar: SimDuration,
    }

    impl FloatReference {
        fn on_sample(&mut self, rtt: SimDuration) {
            match self.srtt {
                None => {
                    self.srtt = Some(rtt);
                    self.rttvar = rtt / 2;
                }
                Some(srtt) => {
                    let err = if srtt >= rtt { srtt - rtt } else { rtt - srtt };
                    self.rttvar = self.rttvar.mul_f64(0.75) + err.mul_f64(0.25);
                    self.srtt = Some(srtt.mul_f64(0.875) + rtt.mul_f64(0.125));
                }
            }
        }

        fn raw_rto(&self) -> Option<SimDuration> {
            self.srtt
                .map(|srtt| (srtt + self.rttvar.mul_f64(4.0)).max(srtt.mul_f64(2.0)))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Random durations of every magnitude, and the bands just
        /// below and above each factor's 2^53 switch and `u64::MAX`.
        #[test]
        fn mul_ratio_matches_mul_f64(
            width in 0u32..65,
            bits in 0u64..u64::MAX,
            offset in 0u64..(1 << 20),
        ) {
            assert_ratios_exact(bits.checked_shr(64 - width).unwrap_or(0));
            for bit in 50..=53 {
                assert_ratios_exact((1u64 << bit) - offset);
                assert_ratios_exact((1u64 << bit) + offset);
            }
            assert_ratios_exact(u64::MAX - offset);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Long sample sequences: SRTT, RTTVAR and the unclamped RTO stay
        /// equal to the float reference after every sample.
        #[test]
        fn estimator_matches_the_float_reference(
            scale in 0u32..61,
            samples in proptest::collection::vec((0u64..u64::MAX, 0u32..8), 2_000..4_000),
        ) {
            let mut est = RttEstimator::new(SimDuration::ZERO, SimDuration::from_nanos(u64::MAX));
            let mut reference = FloatReference { srtt: None, rttvar: SimDuration::ZERO };
            for (bits, pick) in samples {
                // Mostly in [2^scale, 2^(scale+1)) ns, one in eight
                // anywhere below 2^scale; under 2^61, so no sum overflows.
                let spread = bits >> (64 - scale.max(1));
                let rtt = SimDuration::from_nanos(if pick == 0 { spread } else { (1 << scale) + spread });
                est.on_sample(rtt);
                reference.on_sample(rtt);
                prop_assert_eq!(est.srtt, reference.srtt);
                prop_assert_eq!(est.rttvar, reference.rttvar);
                prop_assert_eq!(Some(est.rto()), reference.raw_rto());
            }
        }
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
