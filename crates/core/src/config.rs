//! Verus parameters (paper §5.3 plus documented defaults for values the
//! paper leaves unstated).

use verus_nettypes::SimDuration;

/// Which interpolation backs the delay profile.
///
/// The prototype used ALGLIB's cubic spline (a natural cubic). A natural
/// spline fit to noisy profile points can oscillate and momentarily
/// invert; the Fritsch–Carlson monotone variant cannot. Both are provided
/// and compared in the `ablation_spline` bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplineKind {
    /// Natural cubic spline — the paper's choice.
    Natural,
    /// Monotone (Fritsch–Carlson) cubic.
    Monotone,
}

/// All Verus tunables.
///
/// Defaults follow §5.3's sensitivity analysis: ε = 5 ms, profile
/// re-interpolation every 1 s, δ₁ = 1 ms, δ₂ = 2 ms, slow-start delay
/// threshold N = 15, and R = 2 ("we set Verus' parameter R = 2 unless
/// otherwise stated", §6.2). Values the paper does not pin down are
/// documented at their fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerusConfig {
    /// Epoch length ε: how often the window estimator runs.
    pub epoch: SimDuration,
    /// Gentle `Dest` decrement δ₁ (applied when delay is rising).
    pub delta1: SimDuration,
    /// Aggressive `Dest` step δ₂ (decrement when `Dmax/Dmin > R`,
    /// increment when delay is falling).
    pub delta2: SimDuration,
    /// Maximum tolerable `Dmax/Dmin` ratio R — the throughput-vs-delay
    /// tuning knob of Figures 9/10.
    pub r: f64,
    /// EWMA weight on history for the per-epoch `Dmax` smoothing (Eq. 2's
    /// α). Unstated in the paper; 0.875 (TCP's SRTT gain) by default.
    pub ewma_alpha: f64,
    /// EWMA weight on history for per-ACK profile point updates (§5.1).
    /// Unstated in the paper; 0.875 by default.
    pub profile_alpha: f64,
    /// Delay-profile re-interpolation interval (1 s per §5.3).
    pub update_interval: SimDuration,
    /// Slow-start exit threshold N: leave slow start once a delay sample
    /// exceeds `N × Dmin` ("e.g., N = 15", §5.1).
    pub ss_exit_multiplier: f64,
    /// Multiplicative decrease factor M of Eq. 6. Unstated in the paper;
    /// TCP's 0.5 by default.
    pub loss_decrease: f64,
    /// Floor on the sending window, packets.
    pub min_window: f64,
    /// Cap on the sending window, packets (sanity bound, far above any
    /// bandwidth-delay product in the evaluation).
    pub max_window: f64,
    /// Whether per-ACK profile updates and periodic re-interpolation run
    /// at all — `false` reproduces Figure 15's "static delay profile"
    /// ablation.
    pub profile_updates: bool,
    /// Spline family for the profile curve.
    pub spline: SplineKind,
    /// Reordering tolerance: a gap is declared a loss after
    /// `reorder_delay_factor × current delay` (the prototype's "timeout
    /// timer of 3×delay", §5.2). Consumed by the transport layer.
    pub reorder_delay_factor: f64,
    /// Whether a retransmission timeout re-enters slow start (rebuilding
    /// the profile) instead of just collapsing the window. Off by
    /// default: the paper describes only window collapse.
    pub timeout_reenters_slow_start: bool,
    /// After this many *consecutive* retransmission timeouts (no ACK in
    /// between), re-enter slow start and rebuild the delay profile even
    /// when [`Self::timeout_reenters_slow_start`] is off. Repeated RTOs
    /// mean the channel went silent for longer than the backed-off RTO —
    /// a blackout, not congestion — so the profile describes a channel
    /// that no longer exists. `0` disables the escape hatch (the paper's
    /// literal collapse-only behaviour).
    pub slow_start_after_timeouts: u32,
    /// Cap on per-epoch window growth: `W_{i+1} ≤ growth_cap · Wᵢ + 2`.
    /// Bounds the burst when the profile lookup probes above everything
    /// it has observed (Dest beyond the curve's range); 1.25 per 5 ms
    /// epoch still doubles the window in ~15 ms — far faster than any
    /// fading process — without slamming a window-sized burst into the
    /// bottleneck buffer.
    pub growth_cap: f64,
    /// Path-change detection: if the window has been pinned at
    /// `min_window` by the ratio guard for this long and delay still
    /// exceeds `R × Dmin`, the base RTT itself must have risen (nothing
    /// left to drain) — `Dmin` is reset and re-learned. Without this the
    /// guard wedges for a full `dmin_window` after every RTT increase
    /// (Figure 11's 10 → 100 ms steps).
    pub dmin_pinned_reset: SimDuration,
    /// Sliding-window horizon for the minimum delay `Dmin`. The paper's
    /// "minimum delay experienced by Verus" has no stated horizon, but an
    /// all-time minimum permanently wedges Eq. 4's ratio guard when the
    /// base RTT rises (Figure 11's 10→100 ms steps); 10 s matches BBR's
    /// min-RTT window. `SimDuration::MAX` restores the literal reading.
    pub dmin_window: SimDuration,
    /// Profile points not updated for this long are dropped at the next
    /// re-interpolation (they describe a channel state that slow fading
    /// has long since replaced). The paper does not discuss point
    /// lifetime; without expiry, stale slow-start points pin the curve's
    /// shape forever and Figure 7b's evolution cannot happen.
    pub profile_point_max_age: SimDuration,
    /// Whether the profile freezes during loss recovery (§4: "during the
    /// loss recovery phase, the delay profile is no longer updated").
    /// `false` is the `ablation_freeze` bench's variant: post-loss
    /// (artificially low) delay samples are allowed to poison the
    /// profile.
    pub freeze_profile_in_recovery: bool,
}

impl Default for VerusConfig {
    fn default() -> Self {
        Self {
            epoch: SimDuration::from_millis(5),
            delta1: SimDuration::from_millis(1),
            delta2: SimDuration::from_millis(2),
            r: 2.0,
            ewma_alpha: 0.875,
            profile_alpha: 0.875,
            update_interval: SimDuration::from_secs(1),
            ss_exit_multiplier: 15.0,
            loss_decrease: 0.5,
            min_window: 2.0,
            max_window: 20_000.0,
            profile_updates: true,
            spline: SplineKind::Natural,
            reorder_delay_factor: 3.0,
            timeout_reenters_slow_start: false,
            slow_start_after_timeouts: 3,
            freeze_profile_in_recovery: true,
            growth_cap: 1.25,
            dmin_pinned_reset: SimDuration::from_secs(3),
            dmin_window: SimDuration::from_secs(10),
            profile_point_max_age: SimDuration::from_secs(20),
        }
    }
}

impl VerusConfig {
    /// The paper's macro-evaluation configuration with a specific R
    /// (Figures 8–10 sweep R ∈ {2, 4, 6}).
    #[must_use]
    pub fn with_r(r: f64) -> Self {
        Self {
            r,
            ..Self::default()
        }
    }

    /// Validates parameter relationships the paper requires
    /// (`δ₁ ≤ δ₂`, both in the 1–2 ms guideline band; `R > 1`;
    /// EWMA weights in `(0, 1]`; a sane window range).
    pub fn validate(&self) -> Result<(), String> {
        if self.epoch == SimDuration::ZERO {
            return Err("epoch must be positive".into());
        }
        if self.delta1 > self.delta2 {
            return Err(format!(
                "delta1 ({}) must not exceed delta2 ({}) (§5.3: δ1 ≤ δ2)",
                self.delta1, self.delta2
            ));
        }
        if self.r <= 1.0 {
            return Err(format!("R must exceed 1, got {}", self.r));
        }
        for (name, a) in [("ewma_alpha", self.ewma_alpha), ("profile_alpha", self.profile_alpha)] {
            if !(a > 0.0 && a <= 1.0) {
                return Err(format!("{name} must be in (0,1], got {a}"));
            }
        }
        if !(self.loss_decrease > 0.0 && self.loss_decrease < 1.0) {
            return Err(format!(
                "loss decrease M must be in (0,1), got {}",
                self.loss_decrease
            ));
        }
        if !(self.min_window >= 1.0 && self.min_window < self.max_window) {
            return Err(format!(
                "window range [{}, {}] is invalid",
                self.min_window, self.max_window
            ));
        }
        if self.ss_exit_multiplier <= 1.0 {
            return Err(format!(
                "slow-start exit multiplier must exceed 1, got {}",
                self.ss_exit_multiplier
            ));
        }
        if self.growth_cap <= 1.0 {
            return Err(format!(
                "growth cap must exceed 1, got {}",
                self.growth_cap
            ));
        }
        if self.reorder_delay_factor < 1.0 {
            return Err(format!(
                "reorder delay factor must be at least 1, got {}",
                self.reorder_delay_factor
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_section_5_3() {
        let c = VerusConfig::default();
        assert_eq!(c.epoch, SimDuration::from_millis(5));
        assert_eq!(c.delta1, SimDuration::from_millis(1));
        assert_eq!(c.delta2, SimDuration::from_millis(2));
        assert_eq!(c.update_interval, SimDuration::from_secs(1));
        assert_eq!(c.r, 2.0);
        assert_eq!(c.ss_exit_multiplier, 15.0);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn with_r_overrides_only_r() {
        let c = VerusConfig::with_r(6.0);
        assert_eq!(c.r, 6.0);
        assert_eq!(c.epoch, VerusConfig::default().epoch);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_delta_inversion() {
        let c = VerusConfig {
            delta1: SimDuration::from_millis(3),
            ..VerusConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("delta1"));
    }

    #[test]
    fn validation_rejects_bad_r() {
        let c = VerusConfig { r: 1.0, ..VerusConfig::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_bad_m() {
        let c = VerusConfig {
            loss_decrease: 1.0,
            ..VerusConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_window_inversion() {
        let c = VerusConfig {
            min_window: 100.0,
            max_window: 10.0,
            ..VerusConfig::default()
        };
        assert!(c.validate().is_err());
    }
}
