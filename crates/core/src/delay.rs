//! The Delay Estimator (paper §4, Eqs. 2–3).
//!
//! Collects every packet delay reported within the current ε epoch into
//! the vector `D⃗ᵢ`, and at each epoch boundary produces
//!
//! ```text
//! Dmax,i = α · Dmax,i−1 + (1 − α) · max(D⃗ᵢ)        (Eq. 2)
//! ΔDᵢ    = Dmax,i − Dmax,i−1                        (Eq. 3)
//! ```
//!
//! plus the minimum delay `Dmin` (the propagation-delay proxy used by
//! Eq. 4's ratio test and floor).
//!
//! **`Dmin` is a sliding-window minimum**, not an all-time one. The paper
//! writes "the minimum delay experienced by Verus" without a horizon, but
//! a literal forever-minimum wedges the protocol the moment the path's
//! base RTT *rises* (e.g. Figure 11's 10 ms → 100 ms steps, or a handover
//! to a farther base station): `Dmax/Dmin > R` then holds permanently and
//! Eq. 4 pins the window at its floor. A 10-second horizon (the same
//! order as BBR's min-RTT window) keeps `Dmin` meaningful across path
//! changes while still spanning hundreds of epochs of queue drainage.

use std::collections::VecDeque;
use verus_nettypes::{SimDuration, SimTime};
use verus_stats::Ewma;

/// Output of one epoch boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochDelays {
    /// Smoothed per-epoch maximum delay `Dmax,i`, milliseconds.
    pub dmax_ms: f64,
    /// Unsmoothed `max(D⃗ᵢ)` of the epoch, milliseconds.
    pub raw_max_ms: f64,
    /// Trend `ΔDᵢ = Dmax,i − Dmax,i−1`, milliseconds (signed).
    pub delta_d_ms: f64,
    /// Number of delay samples the epoch contained.
    pub samples: usize,
}

/// The delay estimator: per-epoch max tracking with EWMA smoothing and a
/// sliding-window minimum.
#[derive(Debug, Clone)]
pub struct DelayEstimator {
    ewma: Ewma,
    /// max(D⃗ᵢ) of the epoch in progress.
    epoch_max_ms: Option<f64>,
    epoch_samples: usize,
    /// Dmax,i−1 (previous epoch's smoothed max).
    prev_dmax_ms: Option<f64>,
    /// Sliding-min window length.
    dmin_window: SimDuration,
    /// Monotonic deque of `(expiry time, delay)` candidates: delays
    /// non-decreasing front to back; the front is the current minimum.
    dmin_deque: VecDeque<(SimTime, f64)>,
}

impl DelayEstimator {
    /// Creates an estimator with EWMA weight `alpha` on history (Eq. 2's
    /// α) and a 10 s Dmin window.
    #[must_use]
    pub fn new(alpha: f64) -> Self {
        Self::with_dmin_window(alpha, SimDuration::from_secs(10))
    }

    /// Creates an estimator with an explicit Dmin window
    /// (`SimDuration::MAX` = the paper's literal all-time minimum).
    #[must_use]
    pub fn with_dmin_window(alpha: f64, dmin_window: SimDuration) -> Self {
        assert!(dmin_window > SimDuration::ZERO, "Dmin window must be positive");
        Self {
            ewma: Ewma::new(alpha),
            epoch_max_ms: None,
            epoch_samples: 0,
            prev_dmax_ms: None,
            dmin_window,
            dmin_deque: VecDeque::new(),
        }
    }

    /// Records one packet-delay sample (from an ACK) observed at `now`.
    pub fn record(&mut self, now: SimTime, delay: SimDuration) {
        let ms = delay.as_millis_f64();
        self.epoch_max_ms = Some(match self.epoch_max_ms {
            Some(m) => m.max(ms),
            None => ms,
        });
        self.epoch_samples += 1;

        // Sliding-window minimum (monotonic deque).
        let expiry = now.checked_add(self.dmin_window).unwrap_or(SimTime::MAX);
        while self
            .dmin_deque
            .back()
            .is_some_and(|&(_, v)| v >= ms)
        {
            self.dmin_deque.pop_back();
        }
        self.dmin_deque.push_back((expiry, ms));
        self.expire(now);
    }

    fn expire(&mut self, now: SimTime) {
        while self
            .dmin_deque
            .front()
            .is_some_and(|&(exp, _)| exp <= now)
        {
            // Never empty the deque entirely: some Dmin is better than
            // none when the flow has been silent for a whole window.
            if self.dmin_deque.len() == 1 {
                break;
            }
            self.dmin_deque.pop_front();
        }
    }

    /// Closes the current epoch and returns its smoothed statistics, or
    /// `None` if the epoch had no delay samples (silent epoch: `Dmax`
    /// holds and `ΔD` is undefined — the caller decides what to do,
    /// see `sender.rs`).
    pub fn end_epoch(&mut self) -> Option<EpochDelays> {
        let raw_max = self.epoch_max_ms.take()?;
        let samples = std::mem::take(&mut self.epoch_samples);
        let dmax = self.ewma.update(raw_max);
        let delta = match self.prev_dmax_ms {
            Some(prev) => dmax - prev,
            None => 0.0,
        };
        self.prev_dmax_ms = Some(dmax);
        Some(EpochDelays {
            dmax_ms: dmax,
            raw_max_ms: raw_max,
            delta_d_ms: delta,
            samples,
        })
    }

    /// The windowed minimum delay `Dmin`, if any sample has been seen.
    #[must_use]
    pub fn dmin(&self) -> Option<SimDuration> {
        self.dmin_ms().map(SimDuration::from_millis_f64)
    }

    /// `Dmin` in milliseconds (the unit Eq. 4 works in).
    #[must_use]
    pub fn dmin_ms(&self) -> Option<f64> {
        self.dmin_deque.front().map(|&(_, v)| v)
    }

    /// The latest smoothed maximum `Dmax,i`, if any epoch has closed.
    #[must_use]
    pub fn dmax_ms(&self) -> Option<f64> {
        self.prev_dmax_ms
    }

    /// Resets min-delay tracking (used when the path may have changed).
    pub fn reset_dmin(&mut self) {
        self.dmin_deque.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: f64) -> SimDuration {
        SimDuration::from_millis_f64(v)
    }

    const T0: SimTime = SimTime::ZERO;

    #[test]
    fn first_epoch_initializes_ewma_exactly() {
        let mut de = DelayEstimator::new(0.875);
        de.record(T0, ms(30.0));
        de.record(T0, ms(50.0));
        de.record(T0, ms(40.0));
        let e = de.end_epoch().unwrap();
        assert_eq!(e.dmax_ms, 50.0); // EWMA seeds from first sample
        assert_eq!(e.delta_d_ms, 0.0); // no previous epoch
        assert_eq!(e.samples, 3);
    }

    #[test]
    fn ewma_follows_eq2() {
        let mut de = DelayEstimator::new(0.5);
        de.record(T0, ms(100.0));
        de.end_epoch().unwrap();
        de.record(T0, ms(50.0));
        let e = de.end_epoch().unwrap();
        // Dmax = 0.5·100 + 0.5·50 = 75
        assert_eq!(e.dmax_ms, 75.0);
        assert_eq!(e.delta_d_ms, -25.0);
    }

    #[test]
    fn delta_d_signs_track_trend() {
        let mut de = DelayEstimator::new(0.5);
        de.record(T0, ms(40.0));
        de.end_epoch().unwrap();
        de.record(T0, ms(80.0)); // rising
        assert!(de.end_epoch().unwrap().delta_d_ms > 0.0);
        de.record(T0, ms(10.0)); // falling
        assert!(de.end_epoch().unwrap().delta_d_ms < 0.0);
    }

    #[test]
    fn empty_epoch_returns_none_and_preserves_state() {
        let mut de = DelayEstimator::new(0.875);
        de.record(T0, ms(60.0));
        de.end_epoch().unwrap();
        assert!(de.end_epoch().is_none());
        assert_eq!(de.dmax_ms(), Some(60.0));
        // next non-empty epoch picks up from the same EWMA state
        de.record(T0, ms(60.0));
        let e = de.end_epoch().unwrap();
        assert_eq!(e.dmax_ms, 60.0);
        assert_eq!(e.delta_d_ms, 0.0);
    }

    #[test]
    fn dmin_tracks_minimum_within_window() {
        let mut de = DelayEstimator::new(0.875);
        de.record(T0, ms(30.0));
        de.record(T0, ms(10.0));
        de.record(T0, ms(500.0));
        assert_eq!(de.dmin_ms(), Some(10.0));
    }

    #[test]
    fn dmin_expires_after_window() {
        // 10 ms base RTT, then the path changes to 100 ms: after the
        // window passes, Dmin must rise to the new base.
        let mut de = DelayEstimator::with_dmin_window(0.875, SimDuration::from_secs(10));
        de.record(SimTime::from_secs(0), ms(10.0));
        de.record(SimTime::from_secs(1), ms(12.0));
        assert_eq!(de.dmin_ms(), Some(10.0));
        for s in 2..25u64 {
            de.record(SimTime::from_secs(s), ms(100.0));
        }
        // The 10 ms sample expired at t = 10; only 100 ms samples remain.
        assert_eq!(de.dmin_ms(), Some(100.0));
    }

    #[test]
    fn dmin_never_becomes_none_after_first_sample() {
        let mut de = DelayEstimator::with_dmin_window(0.875, SimDuration::from_millis(100));
        de.record(SimTime::ZERO, ms(42.0));
        // Long silence: window expired but the last candidate is kept.
        de.record(SimTime::from_secs(100), ms(80.0));
        assert!(de.dmin_ms().is_some());
        assert_eq!(de.dmin_ms(), Some(80.0));
    }

    #[test]
    fn reset_dmin_clears_only_dmin() {
        let mut de = DelayEstimator::new(0.875);
        de.record(T0, ms(20.0));
        de.end_epoch().unwrap();
        de.reset_dmin();
        assert_eq!(de.dmin_ms(), None);
        assert!(de.dmax_ms().is_some());
    }

    #[test]
    fn max_within_epoch_is_used_not_mean() {
        let mut de = DelayEstimator::new(1.0); // α=1: never moves after init
        de.record(T0, ms(10.0));
        de.record(T0, ms(90.0));
        de.record(T0, ms(20.0));
        assert_eq!(de.end_epoch().unwrap().dmax_ms, 90.0);
    }

    #[test]
    fn max_window_disables_expiry() {
        let mut de = DelayEstimator::with_dmin_window(0.875, SimDuration::MAX);
        de.record(SimTime::ZERO, ms(5.0));
        de.record(SimTime::from_secs(1_000_000), ms(500.0));
        assert_eq!(de.dmin_ms(), Some(5.0));
    }
}
