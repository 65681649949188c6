//! A first-order analytical model of Verus in steady state — the paper's
//! stated future work ("we plan to develop a model to more fully
//! characterize the behavior of Verus and other delay-based control
//! protocols", §7).
//!
//! # Setting
//!
//! A single Verus flow on a fixed-rate link: capacity `C` packets/s, base
//! round-trip `D₀`, no loss. The fluid approximation of the protocol's
//! closed loop:
//!
//! * delay response of the path: `D(W) = D₀ + max(0, W − C·D₀)/C`
//!   (propagation plus queue drain time);
//! * the profiler learns exactly this `D(W)` in steady state, so the
//!   window tracks the set point: `W(t) = W(Dest(t))`, the inverse of the
//!   delay response;
//! * Eq. 4 walks `Dest` up by `δ₂` per ε while the ratio guard is quiet
//!   and delay isn't rising faster than the EWMA notices, and pulls it
//!   down once `Dmax > R·Dmin`; `Dmin → D₀` because every down-phase
//!   drains the queue.
//!
//! # Predictions
//!
//! The set point therefore oscillates in a sawtooth over `[D₀, R·D₀]`:
//!
//! * **delay band**: `D₀ ≤ D ≤ R·D₀`, with mean ≈ `(1 + R)/2 · D₀`;
//! * **window band**: `C·D₀ ≤ W ≤ C·R·D₀` — the queue never fully
//!   starves the link (for `R > 1`), so **utilization ≈ 1**;
//! * **oscillation period**: `Dest` must traverse the band
//!   `(R − 1)·D₀` twice at `δ₂` per ε:
//!   `T ≈ 2 (R − 1) D₀ ε / δ₂` — e.g. R = 2, D₀ = 50 ms, δ₂ = 2 ms,
//!   ε = 5 ms gives T ≈ 250 ms, the fast sawtooth visible in the
//!   window traces.
//!
//! The model deliberately ignores slow start, the EWMA lag (which adds
//! hysteresis and widens the band slightly above `R·D₀`), burst quota
//! rounding, and loss — it is a *first-order* characterization, validated
//! against the simulator in `tests/model_validation.rs` (delay band and
//! utilization within the stated tolerances).
//!
//! **Known second-order effect — the Dmin ratchet.** `Dmin` is a sliding
//! minimum of *measured* delay, and the measured minimum is the bottom of
//! the oscillation band, not necessarily `D₀`: if a down-phase fails to
//! fully drain the queue, the next band sits on a higher floor, which is
//! again self-consistent (`W(Dmin_eff) > BDP` keeps the queue alive) — a
//! neutral equilibrium that can drift upward. The drift grows with `R`
//! (more band to wander in before the guard trips), so measured mean
//! delay at R = 6 exceeds the first-order prediction by up to ~2×. The
//! path-change detector (`dmin_pinned_reset`) bounds the drift from
//! above but does not remove it. A second-order model incorporating the
//! EWMA dynamics is genuinely future work.

use crate::config::VerusConfig;

/// Steady-state predictions for one Verus flow on a fixed link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SteadyState {
    /// Lower edge of the delay oscillation band, ms (= base RTT).
    pub delay_min_ms: f64,
    /// Upper edge of the delay band, ms (= R × base RTT).
    pub delay_max_ms: f64,
    /// Mean delay estimate, ms (band midpoint).
    pub mean_delay_ms: f64,
    /// Window oscillation band, packets.
    pub window_min: f64,
    /// Upper edge of the window band, packets.
    pub window_max: f64,
    /// Mean standing queue, packets.
    pub mean_queue_pkts: f64,
    /// Predicted link utilization (1.0 for R > 1 in the fluid limit).
    pub utilization: f64,
    /// Sawtooth period of the Dest oscillation, seconds.
    pub period_s: f64,
}

/// Predicts the steady state of one Verus flow.
///
/// ```
/// use verus_core::{model, VerusConfig};
/// // 10 Mbit/s of 1400-byte packets, 40 ms base RTT, R = 2:
/// let ss = model::steady_state(&VerusConfig::with_r(2.0), 892.9, 40.0);
/// assert_eq!(ss.mean_delay_ms, 60.0);     // (1+R)/2 × D0
/// assert_eq!(ss.delay_max_ms, 80.0);      // R × D0
/// assert!((ss.period_s - 0.2).abs() < 1e-9);
/// ```
///
/// * `config` — the protocol parameters (R, δ₂, ε are used);
/// * `capacity_pps` — link capacity in packets per second;
/// * `base_rtt_ms` — propagation round-trip in ms.
///
/// # Panics
/// Panics on non-positive capacity or RTT.
#[must_use]
pub fn steady_state(config: &VerusConfig, capacity_pps: f64, base_rtt_ms: f64) -> SteadyState {
    assert!(capacity_pps > 0.0, "capacity must be positive");
    assert!(base_rtt_ms > 0.0, "base RTT must be positive");
    let r = config.r;
    let d0 = base_rtt_ms;
    let delay_max = r * d0;
    let mean_delay = 0.5 * (1.0 + r) * d0;
    let c_ms = capacity_pps / 1000.0; // packets per ms
    let window_min = c_ms * d0; // the BDP
    let window_max = c_ms * delay_max;
    let mean_queue = c_ms * (mean_delay - d0);
    let delta2_ms = config.delta2.as_millis_f64();
    let eps_s = config.epoch.as_secs_f64();
    let period = 2.0 * (r - 1.0) * d0 * eps_s / delta2_ms.max(1e-9);
    SteadyState {
        delay_min_ms: d0,
        delay_max_ms: delay_max,
        mean_delay_ms: mean_delay,
        window_min,
        window_max,
        mean_queue_pkts: mean_queue,
        utilization: 1.0,
        period_s: period,
    }
}

/// The model's throughput prediction in Mbit/s for a given packet size.
#[must_use]
pub fn predicted_throughput_mbps(ss: &SteadyState, capacity_pps: f64, packet_bytes: u32) -> f64 {
    ss.utilization * capacity_pps * f64::from(packet_bytes) * 8.0 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VerusConfig;

    fn default_ss() -> SteadyState {
        // 10 Mbit/s of 1400 B packets ≈ 892.9 pps; 40 ms base RTT.
        steady_state(&VerusConfig::default(), 892.857, 40.0)
    }

    #[test]
    fn delay_band_is_dmin_to_r_dmin() {
        let ss = default_ss();
        assert_eq!(ss.delay_min_ms, 40.0);
        assert_eq!(ss.delay_max_ms, 80.0); // R = 2
        assert_eq!(ss.mean_delay_ms, 60.0);
    }

    #[test]
    fn window_band_brackets_the_bdp() {
        let ss = default_ss();
        // BDP = 892.857 pps × 40 ms ≈ 35.7 packets.
        assert!((ss.window_min - 35.7).abs() < 0.1);
        assert!((ss.window_max - 71.4).abs() < 0.1);
        assert!((ss.mean_queue_pkts - 17.9).abs() < 0.1);
    }

    #[test]
    fn period_formula() {
        // T = 2 (R−1) D₀ ε / δ₂ = 2·1·40·0.005/2 = 0.2 s.
        let ss = default_ss();
        assert!((ss.period_s - 0.2).abs() < 1e-9);
    }

    #[test]
    fn larger_r_means_longer_period_and_more_delay() {
        let r2 = steady_state(&VerusConfig::with_r(2.0), 1000.0, 50.0);
        let r6 = steady_state(&VerusConfig::with_r(6.0), 1000.0, 50.0);
        assert!(r6.mean_delay_ms > r2.mean_delay_ms);
        assert!(r6.period_s > r2.period_s);
        assert!(r6.window_max > r2.window_max);
    }

    #[test]
    fn throughput_prediction_is_capacity() {
        let ss = default_ss();
        let mbps = predicted_throughput_mbps(&ss, 892.857, 1400);
        assert!((mbps - 10.0).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn rejects_zero_capacity() {
        let _ = steady_state(&VerusConfig::default(), 0.0, 40.0);
    }
}
