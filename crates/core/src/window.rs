//! The Window Estimator (paper §4, Eqs. 4–5).
//!
//! Every epoch the estimator moves the delay set point `Dest`:
//!
//! ```text
//!            ⎧ Dest,i − δ₂                 if Dmax,i / Dmin > R
//! Dest,i+1 = ⎨ max[Dmin, Dest,i − δ₁]      else if ΔDᵢ > 0
//!            ⎩ Dest,i + δ₂                 otherwise            (Eq. 4)
//! ```
//!
//! then inverts the delay profile at `Dest,i+1` to obtain the next window
//! `W_{i+1}`, and finally converts the window into this epoch's send count
//!
//! ```text
//! S_{i+1} = max[0, W_{i+1} + (2−n)/(n−1) · Wᵢ],  n = ⌈RTT/ε⌉   (Eq. 5)
//! ```
//!
//! Intuition for Eq. 5: the window is maintained over one RTT spanning
//! `n` epochs, so in steady state (`W_{i+1} = Wᵢ = W`) each epoch sends
//! `S = W/(n−1)` — one window per RTT — while a jump in the target is
//! absorbed within a single epoch.

use verus_nettypes::SimDuration;

/// Inputs to one Eq. 4 step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayTrend {
    /// Smoothed per-epoch maximum delay `Dmax,i`, ms.
    pub dmax_ms: f64,
    /// Trend `ΔDᵢ`, ms.
    pub delta_d_ms: f64,
    /// Global minimum delay `Dmin`, ms.
    pub dmin_ms: f64,
}

/// The window estimator state: the delay set point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowEstimator {
    dest_ms: f64,
    delta1_ms: f64,
    delta2_ms: f64,
    r: f64,
}

impl WindowEstimator {
    /// Creates an estimator with initial set point `dest_ms` and the
    /// configured δ₁/δ₂/R.
    #[must_use]
    pub fn new(dest_ms: f64, delta1: SimDuration, delta2: SimDuration, r: f64) -> Self {
        Self {
            dest_ms,
            delta1_ms: delta1.as_millis_f64(),
            delta2_ms: delta2.as_millis_f64(),
            r,
        }
    }

    /// Current delay set point `Dest`, ms.
    #[must_use]
    pub fn dest_ms(&self) -> f64 {
        self.dest_ms
    }

    /// Re-seeds the set point (used after slow start and after timeouts).
    pub fn reset(&mut self, dest_ms: f64) {
        self.dest_ms = dest_ms;
    }

    /// Applies Eq. 4 and returns the new `Dest,i+1` (ms).
    ///
    /// All three branches floor at `Dmin`: the first branch's δ₂ decrement
    /// is not floored in the paper's notation, but a set point below the
    /// propagation delay is unreachable and would wedge the inverse
    /// lookup at the minimum window.
    pub fn step(&mut self, t: &DelayTrend) -> f64 {
        debug_assert!(t.dmin_ms > 0.0, "Dmin must be positive");
        let next = if t.dmax_ms / t.dmin_ms > self.r {
            self.dest_ms - self.delta2_ms
        } else if t.delta_d_ms > 0.0 {
            self.dest_ms - self.delta1_ms
        } else {
            self.dest_ms + self.delta2_ms
        };
        self.dest_ms = next.max(t.dmin_ms);
        self.dest_ms
    }

    /// Applies Eq. 5: packets to send in the next epoch.
    ///
    /// `w_next` is `W_{i+1}` (from the profile lookup), `w_cur` is `Wᵢ`,
    /// and `n = ⌈RTT/ε⌉` is clamped to at least 2 (the formula divides by
    /// `n − 1`; RTTs shorter than one epoch would otherwise degenerate).
    #[must_use]
    pub fn send_quota(w_next: f64, w_cur: f64, rtt: SimDuration, epoch: SimDuration) -> f64 {
        assert!(epoch > SimDuration::ZERO);
        let n = (rtt / epoch).ceil().max(2.0);
        (w_next + (2.0 - n) / (n - 1.0) * w_cur).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn estimator(dest: f64) -> WindowEstimator {
        WindowEstimator::new(
            dest,
            SimDuration::from_millis(1),
            SimDuration::from_millis(2),
            2.0,
        )
    }

    fn trend(dmax: f64, delta: f64, dmin: f64) -> DelayTrend {
        DelayTrend {
            dmax_ms: dmax,
            delta_d_ms: delta,
            dmin_ms: dmin,
        }
    }

    #[test]
    fn ratio_branch_decrements_by_delta2() {
        let mut e = estimator(100.0);
        // Dmax/Dmin = 50/10 = 5 > R=2 → −δ₂
        assert_eq!(e.step(&trend(50.0, -1.0, 10.0)), 98.0);
    }

    #[test]
    fn rising_delay_decrements_by_delta1() {
        let mut e = estimator(100.0);
        // ratio 1.5 ≤ R, ΔD > 0 → −δ₁
        assert_eq!(e.step(&trend(15.0, 3.0, 10.0)), 99.0);
    }

    #[test]
    fn falling_delay_increments_by_delta2() {
        let mut e = estimator(100.0);
        // ratio ≤ R, ΔD ≤ 0 → +δ₂
        assert_eq!(e.step(&trend(15.0, -3.0, 10.0)), 102.0);
    }

    #[test]
    fn zero_delta_counts_as_improving() {
        // Eq. 4's "otherwise" branch covers ΔD = 0.
        let mut e = estimator(50.0);
        assert_eq!(e.step(&trend(15.0, 0.0, 10.0)), 52.0);
    }

    #[test]
    fn dest_floors_at_dmin() {
        let mut e = estimator(10.5);
        // rising-delay branch: max[Dmin, Dest − δ₁]
        assert_eq!(e.step(&trend(15.0, 1.0, 10.0)), 10.0);
        // ratio branch also floors (documented deviation)
        let mut e = estimator(10.5);
        assert_eq!(e.step(&trend(50.0, 1.0, 10.0)), 10.0);
    }

    #[test]
    fn ratio_branch_takes_priority_over_trend() {
        // Both "ratio exceeded" and "delay falling" true → ratio wins.
        let mut e = estimator(100.0);
        assert_eq!(e.step(&trend(50.0, -5.0, 10.0)), 98.0);
    }

    #[test]
    fn send_quota_steady_state_is_w_over_n_minus_1() {
        // W constant, RTT = 50 ms, ε = 5 ms → n = 10 → S = W/9.
        let s = WindowEstimator::send_quota(
            90.0,
            90.0,
            SimDuration::from_millis(50),
            SimDuration::from_millis(5),
        );
        assert!((s - 10.0).abs() < 1e-9);
    }

    #[test]
    fn send_quota_absorbs_window_jumps() {
        let epoch = SimDuration::from_millis(5);
        let rtt = SimDuration::from_millis(50);
        // target doubled → big S this epoch
        let up = WindowEstimator::send_quota(180.0, 90.0, rtt, epoch);
        assert!(up > 90.0, "S = {up}");
        // target collapsed → S clamps at zero
        let down = WindowEstimator::send_quota(10.0, 90.0, rtt, epoch);
        assert_eq!(down, 0.0);
    }

    #[test]
    fn send_quota_clamps_n_at_2() {
        // RTT shorter than one epoch: n=2 → S = W_{i+1} − 0·W... with
        // n = 2 the factor is (2−2)/(2−1) = 0, so S = W_{i+1}.
        let s = WindowEstimator::send_quota(
            40.0,
            90.0,
            SimDuration::from_millis(1),
            SimDuration::from_millis(5),
        );
        assert_eq!(s, 40.0);
    }

    #[test]
    fn send_quota_never_negative() {
        let s = WindowEstimator::send_quota(
            0.0,
            1000.0,
            SimDuration::from_millis(100),
            SimDuration::from_millis(5),
        );
        assert_eq!(s, 0.0);
    }

    #[test]
    fn reset_reseeds_dest() {
        let mut e = estimator(100.0);
        e.reset(42.0);
        assert_eq!(e.dest_ms(), 42.0);
    }
}
