//! ABC-style router feedback: per-packet accelerate/brake marks.
//!
//! ABC (Goyal et al., *ABC: A Simple Explicit Congestion Controller for
//! Wireless Networks*, NSDI 2020) has the cellular bottleneck stamp one
//! bit on every departing packet: *accelerate* (the sender may grow by
//! one window slot when the mark is echoed) or *brake* (shrink by one).
//! The router chooses marks so that the accelerate rate tracks a target
//!
//! ```text
//! tr(t) = η·μ(t) − (μ(t)/δ)·max(0, x(t) − d_t)
//! ```
//!
//! where `μ` is the link's current delivery rate, `x` the queueing
//! delay at the head of the queue, `d_t` the target delay and `δ` the
//! horizon over which standing queue should drain. The paper dilutes
//! marks probabilistically; this simulator must not draw RNG on the
//! channel path (the draw order is part of the scheduler byte-identity
//! contract), so the marker uses the deterministic
//! token-bucket formulation instead: tokens accrue at `tr`, each
//! departing packet that finds a full token's worth is stamped
//! *accelerate* and spends it, every other packet is stamped *brake*.
//! Long-run accelerate throughput equals `tr` either way, without a
//! single random draw.
//!
//! The marker lives inside the cell service ([`crate::sim`]) and is
//! allocated only when
//! [`crate::SimConfig`] opts in via `abc: Some(..)`. With the default
//! `None` every packet's mark stays `None` and the pre-ABC byte-identity
//! suites are untouched.

use verus_nettypes::{SimDuration, SimTime};

/// Router-side ABC marking parameters (§5.1 of the ABC paper, defaults
/// per its recommended operating point).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbcConfig {
    /// Target utilization `η` ∈ (0, 1]: the fraction of the measured
    /// link rate the accelerate stream aims for (0.95 keeps a small
    /// headroom so queues drain).
    pub eta: f64,
    /// Target queueing delay `d_t`: head-of-line waits above this
    /// subtract from the target rate.
    pub delay_target: SimDuration,
    /// Drain horizon `δ`: how fast standing queue above `d_t` should be
    /// worked off (larger = gentler braking).
    pub drain_slope: SimDuration,
    /// Token-bucket cap in bytes: bounds how large an accelerate burst
    /// a long idle-free period can bank (the paper's "burst tolerance").
    pub burst_bytes: u64,
    /// EWMA weight on history for the delivery-rate estimate `μ`
    /// (per-opportunity update; 0.875 ≈ the classic 1/8 gain).
    pub rate_ewma: f64,
}

impl Default for AbcConfig {
    fn default() -> Self {
        Self {
            eta: 0.95,
            delay_target: SimDuration::from_millis(60),
            drain_slope: SimDuration::from_millis(133),
            burst_bytes: 20 * 1400,
            rate_ewma: 0.875,
        }
    }
}

impl AbcConfig {
    /// Validates parameter ranges.
    ///
    /// # Errors
    /// Describes the first out-of-range field.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.eta > 0.0 && self.eta <= 1.0) {
            return Err(format!("abc.eta must be in (0, 1], got {}", self.eta));
        }
        if self.delay_target <= SimDuration::ZERO {
            return Err("abc.delay_target must be positive".into());
        }
        if self.drain_slope <= SimDuration::ZERO {
            return Err("abc.drain_slope must be positive".into());
        }
        if self.burst_bytes == 0 {
            return Err("abc.burst_bytes must be positive".into());
        }
        if !(self.rate_ewma >= 0.0 && self.rate_ewma < 1.0) {
            return Err(format!(
                "abc.rate_ewma must be in [0, 1), got {}",
                self.rate_ewma
            ));
        }
        Ok(())
    }
}

/// The marker state: a token bucket filled at the ABC target rate.
/// Purely deterministic — updated once per delivery opportunity and
/// once per departing packet, no RNG, no clocks.
#[derive(Debug, Clone)]
pub(crate) struct AbcMarker {
    cfg: AbcConfig,
    /// Accelerate credit in (fractional) bytes.
    tokens: f64,
    /// EWMA delivery-rate estimate `μ`, bytes/second.
    rate: f64,
    /// Previous opportunity's timestamp, for the accrual interval.
    last_opp: Option<SimTime>,
}

impl AbcMarker {
    pub(crate) fn new(cfg: AbcConfig) -> Self {
        Self {
            cfg,
            tokens: 0.0,
            rate: 0.0,
            last_opp: None,
        }
    }

    /// One delivery opportunity with a backlog behind it: update `μ`
    /// from this opportunity's bytes, then accrue tokens at the target
    /// rate over the interval since the previous opportunity.
    /// `head_wait` is the queueing delay of the head packet (the `x(t)`
    /// of the target-rate law).
    pub(crate) fn on_opportunity(&mut self, now: SimTime, opp_bytes: u32, head_wait: SimDuration) {
        let dt = match self.last_opp {
            Some(prev) => now.saturating_since(prev).as_secs_f64(),
            None => 0.0,
        };
        self.last_opp = Some(now);
        if dt <= 0.0 {
            return;
        }
        let sample = f64::from(opp_bytes) / dt;
        self.rate = if self.rate == 0.0 {
            sample
        } else {
            self.cfg.rate_ewma * self.rate + (1.0 - self.cfg.rate_ewma) * sample
        };
        let over = (head_wait.as_secs_f64() - self.cfg.delay_target.as_secs_f64()).max(0.0);
        let target = self.cfg.eta * self.rate
            - (self.rate / self.cfg.drain_slope.as_secs_f64()) * over;
        self.tokens = (self.tokens + target.max(0.0) * dt).min(self.cfg.burst_bytes as f64);
    }

    /// A wasted opportunity (blackout, or nothing queued): like the
    /// byte credit itself, accelerate credit does not bank across
    /// idle/outage periods — the radio capacity it represents is gone.
    pub(crate) fn on_idle(&mut self, now: SimTime) {
        self.last_opp = Some(now);
        self.tokens = 0.0;
    }

    /// Classifies one departing packet: `true` = accelerate (a token's
    /// worth of credit was available and is spent), `false` = brake.
    pub(crate) fn mark(&mut self, bytes: u32) -> bool {
        let b = f64::from(bytes);
        if self.tokens >= b {
            self.tokens -= b;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(n)
    }

    #[test]
    fn default_config_validates() {
        AbcConfig::default().validate().unwrap();
    }

    #[test]
    fn bad_configs_are_rejected() {
        for cfg in [
            AbcConfig {
                eta: 0.0,
                ..Default::default()
            },
            AbcConfig {
                eta: 1.5,
                ..Default::default()
            },
            AbcConfig {
                delay_target: SimDuration::ZERO,
                ..Default::default()
            },
            AbcConfig {
                drain_slope: SimDuration::ZERO,
                ..Default::default()
            },
            AbcConfig {
                burst_bytes: 0,
                ..Default::default()
            },
            AbcConfig {
                rate_ewma: 1.0,
                ..Default::default()
            },
        ] {
            assert!(cfg.validate().is_err(), "{cfg:?} should be rejected");
        }
    }

    #[test]
    fn low_delay_marks_mostly_accelerate() {
        // 1400 B every 1 ms with no standing queue: target ≈ 0.95 μ, so
        // roughly 19 of every 20 packets should carry accelerate.
        let mut m = AbcMarker::new(AbcConfig::default());
        let mut accel = 0;
        for i in 0..1000u64 {
            m.on_opportunity(ms(i), 1400, SimDuration::from_millis(5));
            if m.mark(1400) {
                accel += 1;
            }
        }
        assert!(
            (900..1000).contains(&accel),
            "accelerate count {accel} should be near η·1000"
        );
    }

    #[test]
    fn deep_queue_marks_brake() {
        // Head-of-line wait far above target: the target rate clamps to
        // zero and every packet brakes once the bucket drains.
        let mut m = AbcMarker::new(AbcConfig::default());
        let mut tail_accels = 0;
        for i in 0..200u64 {
            m.on_opportunity(ms(i), 1400, SimDuration::from_millis(500));
            if m.mark(1400) && i >= 50 {
                tail_accels += 1;
            }
        }
        assert_eq!(tail_accels, 0, "standing queue must force brake marks");
    }

    #[test]
    fn idle_resets_credit() {
        let mut m = AbcMarker::new(AbcConfig::default());
        for i in 0..100u64 {
            m.on_opportunity(ms(i), 1400, SimDuration::ZERO);
        }
        m.on_idle(ms(100));
        assert!(!m.mark(1), "tokens must not survive an idle opportunity");
    }

    #[test]
    fn marking_is_deterministic() {
        let run = || {
            let mut m = AbcMarker::new(AbcConfig::default());
            let mut marks = Vec::new();
            for i in 0..500u64 {
                m.on_opportunity(ms(i), 1200 + (i % 3) as u32 * 100, SimDuration::from_millis(i % 90));
                marks.push(m.mark(1400));
            }
            marks
        };
        assert_eq!(run(), run());
    }
}
