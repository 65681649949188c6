//! Bottleneck link models.
//!
//! Two variants cover the paper's two testbeds:
//!
//! * [`FixedParams`]/fixed link — §7's dumbbell, where `tc` pins rate,
//!   RTT and loss. A schedule of parameter steps reproduces Figure 11's
//!   "every five seconds the whole network parameters … are changed".
//! * trace-driven cell link — §6.2's OPNET shaper: queued bytes are
//!   released at each delivery opportunity of a cellular
//!   [`verus_cellular::Trace`] (looped to cover the run).
//!
//! The queue in front of the link lives in [`crate::queue`]; this module
//! only describes the *service* process. The event bookkeeping (what
//! departs when) is executed by [`crate::sim`].

use verus_cellular::Trace;
use verus_nettypes::{SimDuration, SimTime};

/// Parameters of the fixed (dumbbell) link at one point in time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedParams {
    /// Service rate, bits per second.
    pub rate_bps: f64,
    /// Stochastic loss probability applied on enqueue (cellular losses
    /// unrelated to congestion; Figure 11 varies it 0–1%).
    pub loss: f64,
    /// Base (propagation) RTT added on top of queueing; split evenly
    /// between the forward and ACK directions.
    pub base_rtt: SimDuration,
}

impl FixedParams {
    /// Validates the parameter set.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.rate_bps > 0.0 && self.rate_bps.is_finite()) {
            return Err(format!("rate must be positive, got {}", self.rate_bps));
        }
        if !(0.0..=1.0).contains(&self.loss) {
            return Err(format!("loss must be a probability, got {}", self.loss));
        }
        Ok(())
    }

    /// Serialization time of `bytes` at the current rate.
    #[must_use]
    pub fn serialize_time(&self, bytes: u32) -> SimDuration {
        SimDuration::from_secs_f64(f64::from(bytes) * 8.0 / self.rate_bps)
    }
}

/// The bottleneck's service model.
#[derive(Debug, Clone)]
pub enum BottleneckConfig {
    /// Fixed-rate link with a step schedule: entry `(t, params)` applies
    /// `params` from time `t` on. Must start at `t = 0`.
    Fixed {
        /// Parameter steps, sorted by time, first at `t = 0`.
        schedule: Vec<(SimTime, FixedParams)>,
    },
    /// Trace-driven cellular downlink: opportunities release queued bytes.
    Cell {
        /// The delivery-opportunity trace (looped if shorter than the run).
        trace: Trace,
        /// Base RTT (propagation, both directions combined).
        base_rtt: SimDuration,
        /// Stochastic loss probability on enqueue.
        loss: f64,
    },
}

impl BottleneckConfig {
    /// A constant fixed link (no steps).
    #[must_use]
    pub fn fixed(rate_bps: f64, base_rtt: SimDuration, loss: f64) -> Self {
        Self::Fixed {
            schedule: vec![(
                SimTime::ZERO,
                FixedParams {
                    rate_bps,
                    loss,
                    base_rtt,
                },
            )],
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            Self::Fixed { schedule } => {
                if schedule.is_empty() {
                    return Err("fixed link needs at least one schedule entry".into());
                }
                if schedule[0].0 != SimTime::ZERO {
                    return Err("fixed-link schedule must start at t = 0".into());
                }
                for w in schedule.windows(2) {
                    if w[1].0 <= w[0].0 {
                        return Err("fixed-link schedule must be strictly increasing".into());
                    }
                }
                for (_, p) in schedule {
                    p.validate()?;
                }
                Ok(())
            }
            Self::Cell { trace, loss, .. } => {
                if trace.is_empty() {
                    return Err("cell link trace is empty".into());
                }
                if !(0.0..=1.0).contains(loss) {
                    return Err(format!("loss must be a probability, got {loss}"));
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialize_time_matches_rate() {
        let p = FixedParams {
            rate_bps: 8e6, // 1 byte per microsecond
            loss: 0.0,
            base_rtt: SimDuration::from_millis(20),
        };
        assert_eq!(p.serialize_time(1000), SimDuration::from_micros(1000));
    }

    #[test]
    fn schedule_validation() {
        let p = FixedParams {
            rate_bps: 1e6,
            loss: 0.0,
            base_rtt: SimDuration::from_millis(10),
        };
        // must start at zero
        let bad = BottleneckConfig::Fixed {
            schedule: vec![(SimTime::from_secs(1), p)],
        };
        assert!(bad.validate().is_err());
        // must be increasing
        let bad = BottleneckConfig::Fixed {
            schedule: vec![(SimTime::ZERO, p), (SimTime::ZERO, p)],
        };
        assert!(bad.validate().is_err());
        // good
        let good = BottleneckConfig::Fixed {
            schedule: vec![(SimTime::ZERO, p), (SimTime::from_secs(5), p)],
        };
        assert!(good.validate().is_ok());
    }

    #[test]
    fn param_validation() {
        let bad_rate = FixedParams {
            rate_bps: 0.0,
            loss: 0.0,
            base_rtt: SimDuration::ZERO,
        };
        assert!(bad_rate.validate().is_err());
        let bad_loss = FixedParams {
            rate_bps: 1e6,
            loss: 1.5,
            base_rtt: SimDuration::ZERO,
        };
        assert!(bad_loss.validate().is_err());
    }

    #[test]
    fn constant_fixed_helper() {
        let b = BottleneckConfig::fixed(5e6, SimDuration::from_millis(40), 0.001);
        assert!(b.validate().is_ok());
        let BottleneckConfig::Fixed { schedule } = b else {
            panic!()
        };
        assert_eq!(schedule.len(), 1);
        assert_eq!(schedule[0].1.rate_bps, 5e6);
    }
}
