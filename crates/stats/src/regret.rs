//! Utility and regret: scoring every protocol against the omniscient
//! bound.
//!
//! Goyal et al. (*Optimal Congestion Control for Time-varying Wireless
//! Links*) score a congestion controller on a proportional-fairness
//! utility with a delay penalty:
//!
//! ```text
//! U = log(throughput) − δ · delay
//! ```
//!
//! and measure each protocol by its **regret** against the omniscient
//! schedule's utility on the same channel: `1 − U/U_opt`. Regret 0
//! means "as good as knowing the future"; regret 1 means "captured
//! none of the achievable utility".
//!
//! Conventions (documented because the raw formula is unbounded):
//!
//! * throughput enters in Mbit/s, shifted by +1 (`log1p`) so a silent
//!   protocol scores utility 0 instead of −∞ and utilities stay ≥ 0
//!   whenever the delay penalty does not exceed the throughput term;
//! * delay enters as the p95 in *seconds* (tail delay is what cellular
//!   applications feel; the paper's Figure 9 frames results the same
//!   way), weighted by `delta` per second;
//! * utilities clamp at 0 from below — a protocol whose delay penalty
//!   swamps its throughput has captured none of the link's value;
//! * regret clamps to [0, 1]: a feasible (causal) schedule cannot beat
//!   the omniscient bound, but measurement noise on a near-optimal run
//!   must not report a (meaningless) negative regret.

/// Default delay weight `δ`: one second of p95 delay costs as much
/// utility as one e-fold of throughput.
///
/// The weight must leave the omniscient bound a positive utility on
/// every channel it scores, or regret there is 0 for everyone and the
/// channel judges nobody. A single sender cannot avoid propagation and
/// serialization delay, so on a slow cell even the oracle pays: at
/// 0.7 Mbit/s with an 86 ms p95, `log1p(0.7)/0.086` caps δ at 6.2/s,
/// and 10/s would clamp such a cell to 0. δ = 1/s is the largest power
/// of ten under that cap; it still charges a multi-second bufferbloat
/// p95 more than any cellular throughput earns.
pub const DEFAULT_DELTA: f64 = 1.0;

/// The `log(1+throughput) − δ·delay` utility, clamped at 0 from below.
///
/// `throughput_mbps` and `delay_s` must be finite and non-negative;
/// returns 0.0 for degenerate (empty) runs.
#[must_use]
pub fn utility(throughput_mbps: f64, delay_s: f64, delta: f64) -> f64 {
    assert!(
        throughput_mbps.is_finite() && throughput_mbps >= 0.0,
        "invalid throughput {throughput_mbps}"
    );
    assert!(delay_s.is_finite() && delay_s >= 0.0, "invalid delay {delay_s}");
    assert!(delta.is_finite() && delta >= 0.0, "invalid delta {delta}");
    (throughput_mbps.ln_1p() - delta * delay_s).max(0.0)
}

/// Regret of a measured utility against the optimal one:
/// `1 − u/u_opt`, clamped to [0, 1].
///
/// `u_opt == 0` (a scenario where even the oracle achieves nothing —
/// e.g. a full-horizon blackout) yields regret 0 for everyone: there
/// was no utility to forgo.
#[must_use]
pub fn regret(u: f64, u_opt: f64) -> f64 {
    assert!(u.is_finite() && u >= 0.0, "invalid utility {u}");
    assert!(u_opt.is_finite() && u_opt >= 0.0, "invalid optimal utility {u_opt}");
    if u_opt == 0.0 {
        return 0.0;
    }
    (1.0 - u / u_opt).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn utility_grows_with_throughput_and_shrinks_with_delay() {
        let base = utility(10.0, 0.05, DEFAULT_DELTA);
        assert!(utility(20.0, 0.05, DEFAULT_DELTA) > base);
        assert!(utility(10.0, 0.10, DEFAULT_DELTA) < base);
    }

    #[test]
    fn silent_protocol_scores_zero_not_negative_infinity() {
        assert_eq!(utility(0.0, 0.0, DEFAULT_DELTA), 0.0);
        assert_eq!(utility(0.0, 3.0, DEFAULT_DELTA), 0.0);
    }

    #[test]
    fn delay_swamped_utility_clamps_at_zero() {
        // log1p(1) ≈ 0.69 < 1 · 1.0.
        assert_eq!(utility(1.0, 1.0, DEFAULT_DELTA), 0.0);
    }

    #[test]
    fn oracle_against_itself_has_zero_regret() {
        let u = utility(23.7, 0.031, DEFAULT_DELTA);
        assert_eq!(regret(u, u), 0.0);
    }

    #[test]
    fn zero_optimal_means_zero_regret_for_everyone() {
        assert_eq!(regret(0.0, 0.0), 0.0);
    }

    #[test]
    fn better_than_optimal_measurement_noise_clamps_to_zero() {
        assert_eq!(regret(1.0001, 1.0), 0.0);
    }

    proptest! {
        /// Any feasible (0 ≤ u ≤ u_opt) schedule has regret in [0, 1].
        #[test]
        fn regret_in_unit_interval_for_feasible_schedules(
            u_opt in 0.0f64..1e6,
            frac in 0.0f64..=1.0,
        ) {
            let u = u_opt * frac;
            let r = regret(u, u_opt);
            prop_assert!((0.0..=1.0).contains(&r), "regret {r}");
        }

        /// Even an infeasible (u > u_opt) measurement stays in [0, 1].
        #[test]
        fn regret_stays_clamped_for_any_utilities(
            u in 0.0f64..1e6,
            u_opt in 0.0f64..1e6,
        ) {
            let r = regret(u, u_opt);
            prop_assert!((0.0..=1.0).contains(&r), "regret {r}");
        }

        /// Utility is finite, non-negative, monotone in throughput.
        #[test]
        fn utility_is_sane(
            tput in 0.0f64..1e5,
            delay in 0.0f64..100.0,
            delta in 0.0f64..100.0,
        ) {
            let u = utility(tput, delay, delta);
            prop_assert!(u.is_finite() && u >= 0.0);
            prop_assert!(utility(tput + 1.0, delay, delta) >= u);
        }

        /// Regret of the oracle against its own utility is exactly 0
        /// for any operating point.
        #[test]
        fn self_regret_is_exactly_zero(
            tput in 0.0f64..1e5,
            delay in 0.0f64..10.0,
        ) {
            let u = utility(tput, delay, DEFAULT_DELTA);
            prop_assert_eq!(regret(u, u), 0.0);
        }
    }
}
