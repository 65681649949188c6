//! Runtime protocol invariants (Layer 2 of the correctness subsystem).
//!
//! The paper states properties of the Verus state machine that the code
//! historically only *implied*: the set point stays at or above the
//! propagation delay (§4.2), the window stays inside its configured
//! bounds, the per-epoch send quota is never negative (Eq. 5's outer
//! `max[0, ·]`), profile lookups return finite positive windows, and the
//! phase machine only takes the edges drawn in Figure 5. This module
//! makes each of those machine-checked at the call sites in
//! [`crate::sender`] and, for packet conservation, in `verus-netsim`.
//!
//! # Compilation model
//!
//! Every check body is gated on
//! `#[cfg(any(debug_assertions, feature = "strict-invariants"))]`.
//! Debug and test builds therefore always carry the checks; plain
//! release builds compile every function here to an empty `#[inline]`
//! stub — zero overhead, verifiable by `cfg` inspection rather than a
//! benchmark. Enable the `strict-invariants` feature to keep the checks
//! in optimized builds (e.g. long soak runs of the real transport).
//!
//! # Deviations from the paper, documented
//!
//! §4.2 suggests `Dest ≤ R·Dmin` as a steady-state property, but Eq. 4
//! is an *additive drift* law: while delay keeps falling, `Dest` rises
//! by δ₂ per epoch without a hard ceiling (and the reproduction's
//! `ca_low_delay_grows_window` test depends on that). What the update
//! rule actually guarantees — and what [`dest_step`] checks — is the
//! *response*: whenever `Dmax/Dmin > R` trips, the new set point cannot
//! exceed the old one (floored at `Dmin`), and in any epoch the set
//! point rises by at most δ₂.

use crate::sender::Phase;

/// Whether the invariant layer is compiled into this build.
pub const ENABLED: bool = cfg!(any(debug_assertions, feature = "strict-invariants"));

/// Tolerance for floating-point comparisons in the checks.
#[cfg(any(debug_assertions, feature = "strict-invariants"))]
const EPS: f64 = 1e-9;

/// The phase-transition legality table (paper Figure 5).
///
/// Self-edges are always legal. `SlowStart → Recovery` is the one
/// illegal edge: a loss during slow start must first build the delay
/// profile (`enter_congestion_avoidance`) so that recovery has a window
/// estimator to return to.
#[must_use]
pub fn legal_transition(from: Phase, to: Phase) -> bool {
    !matches!((from, to), (Phase::SlowStart, Phase::Recovery))
}

/// Checks one phase-machine edge against [`legal_transition`].
#[inline]
pub fn phase_transition(from: Phase, to: Phase) {
    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    assert!(
        legal_transition(from, to),
        "illegal phase transition {from:?} -> {to:?}"
    );
    #[cfg(not(any(debug_assertions, feature = "strict-invariants")))]
    let _ = (from, to);
}

/// A 3×3 tally of every phase-machine edge taken, including self-edges.
///
/// Unlike the point assertions above, the audit is *always* compiled in
/// (it is plain counting, not a check): after a run, tests and soak
/// harnesses can assert structural properties of the whole trajectory —
/// e.g. "the illegal `SlowStart → Recovery` edge was never taken" or
/// "a blackout produced at least one re-entry into slow start".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseAudit {
    counts: [[u64; 3]; 3],
}

const fn phase_index(p: Phase) -> usize {
    match p {
        Phase::SlowStart => 0,
        Phase::CongestionAvoidance => 1,
        Phase::Recovery => 2,
    }
}

impl PhaseAudit {
    /// Records one `from → to` edge.
    pub fn record(&mut self, from: Phase, to: Phase) {
        self.counts[phase_index(from)][phase_index(to)] += 1;
    }

    /// How many times the `from → to` edge was taken.
    #[must_use]
    pub fn count(&self, from: Phase, to: Phase) -> u64 {
        self.counts[phase_index(from)][phase_index(to)]
    }

    /// Total transitions recorded (including self-edges).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().flatten().sum()
    }

    /// Whether every recorded edge is legal per [`legal_transition`].
    #[must_use]
    pub fn all_legal(&self) -> bool {
        use Phase::{CongestionAvoidance as Ca, Recovery as Re, SlowStart as Ss};
        for from in [Ss, Ca, Re] {
            for to in [Ss, Ca, Re] {
                if !legal_transition(from, to) && self.count(from, to) > 0 {
                    return false;
                }
            }
        }
        true
    }
}

/// Recovery exits into congestion avoidance, so entering it requires a
/// window estimator (delay profile) to exist.
#[inline]
pub fn recovery_requires_profile(has_estimator: bool) {
    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    assert!(
        has_estimator,
        "entered Recovery without a window estimator (profile never built)"
    );
    #[cfg(not(any(debug_assertions, feature = "strict-invariants")))]
    let _ = has_estimator;
}

/// Window bounds: finite, at least the phase floor (1 packet in slow
/// start, `min_window` elsewhere), at most `max_window`.
#[inline]
pub fn window_bounds(phase: Phase, w: f64, min_window: f64, max_window: f64) {
    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    {
        assert!(w.is_finite(), "window is not finite: {w} in {phase:?}");
        let floor = match phase {
            Phase::SlowStart => 1.0,
            Phase::CongestionAvoidance | Phase::Recovery => min_window,
        };
        assert!(
            w >= floor - EPS,
            "window {w} below the {phase:?} floor {floor}"
        );
        assert!(
            w <= max_window + EPS,
            "window {w} above max_window {max_window} in {phase:?}"
        );
    }
    #[cfg(not(any(debug_assertions, feature = "strict-invariants")))]
    let _ = (phase, w, min_window, max_window);
}

/// One Eq. 4 step of the set point (§4.2):
///
/// * `Dest` stays finite, positive, and at or above `Dmin`;
/// * when the `Dmax/Dmin > R` guard trips, the set point does not rise;
/// * otherwise it rises by at most δ₂ in one epoch.
#[inline]
pub fn dest_step(prev_dest_ms: f64, dest_ms: f64, dmin_ms: f64, delta2_ms: f64, ratio_tripped: bool) {
    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    {
        assert!(
            dest_ms.is_finite() && dest_ms > 0.0,
            "Dest must be finite and positive, got {dest_ms}"
        );
        assert!(
            dest_ms >= dmin_ms - EPS,
            "Dest {dest_ms} fell below Dmin {dmin_ms} (§4.2 floor)"
        );
        let ceiling = if ratio_tripped {
            prev_dest_ms.max(dmin_ms)
        } else {
            prev_dest_ms.max(dmin_ms) + delta2_ms
        };
        assert!(
            dest_ms <= ceiling + EPS,
            "Dest {dest_ms} exceeded its per-epoch ceiling {ceiling} \
             (prev {prev_dest_ms}, Dmin {dmin_ms}, ratio_tripped {ratio_tripped})"
        );
    }
    #[cfg(not(any(debug_assertions, feature = "strict-invariants")))]
    let _ = (prev_dest_ms, dest_ms, dmin_ms, delta2_ms, ratio_tripped);
}

/// A profile lookup must yield a finite window inside the configured
/// clamp range.
#[inline]
pub fn profile_lookup(w_next: f64, min_window: f64, max_window: f64) {
    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    {
        assert!(
            w_next.is_finite() && w_next > 0.0,
            "profile lookup produced a non-finite/non-positive window: {w_next}"
        );
        assert!(
            (min_window - EPS..=max_window + EPS).contains(&w_next),
            "profile lookup {w_next} escaped [{min_window}, {max_window}]"
        );
    }
    #[cfg(not(any(debug_assertions, feature = "strict-invariants")))]
    let _ = (w_next, min_window, max_window);
}

/// Eq. 5's outer `max[0, ·]`: the epoch send quota is never negative
/// (and never NaN, which would poison every later comparison).
#[inline]
pub fn quota_non_negative(credit: f64) {
    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    assert!(
        credit.is_finite() && credit >= -EPS,
        "send credit must be finite and non-negative, got {credit}"
    );
    #[cfg(not(any(debug_assertions, feature = "strict-invariants")))]
    let _ = credit;
}

/// A delay sample entering the estimator/profiler: finite non-negative
/// delay, finite non-negative echoed send window.
#[inline]
pub fn delay_sample(send_window: f64, delay_ms: f64) {
    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    {
        assert!(
            delay_ms.is_finite() && delay_ms >= 0.0,
            "delay sample must be finite and non-negative, got {delay_ms} ms"
        );
        assert!(
            send_window.is_finite() && send_window >= 0.0,
            "echoed send window must be finite and non-negative, got {send_window}"
        );
    }
    #[cfg(not(any(debug_assertions, feature = "strict-invariants")))]
    let _ = (send_window, delay_ms);
}

/// A generic finite-and-positive check for derived protocol quantities
/// (e.g. the initial set point seeded on slow-start exit).
#[inline]
pub fn finite_positive(value: f64, what: &str) {
    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    assert!(
        value.is_finite() && value > 0.0,
        "{what} must be finite and positive, got {value}"
    );
    #[cfg(not(any(debug_assertions, feature = "strict-invariants")))]
    let _ = (value, what);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transition_table_matches_figure5() {
        use Phase::{CongestionAvoidance as Ca, Recovery as Re, SlowStart as Ss};
        for from in [Ss, Ca, Re] {
            assert!(legal_transition(from, from), "{from:?} self-edge");
        }
        assert!(legal_transition(Ss, Ca));
        assert!(legal_transition(Ca, Re));
        assert!(legal_transition(Re, Ca));
        assert!(legal_transition(Ca, Ss)); // timeout re-entry
        assert!(legal_transition(Re, Ss)); // timeout re-entry
        assert!(!legal_transition(Ss, Re), "SS must build a profile first");
    }

    // The firing tests only make sense when the layer is compiled in
    // (always true under `cargo test`, which uses debug_assertions).
    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    mod firing {
        use super::*;

        #[test]
        #[should_panic(expected = "illegal phase transition")]
        fn illegal_edge_fires() {
            phase_transition(Phase::SlowStart, Phase::Recovery);
        }

        #[test]
        #[should_panic(expected = "without a window estimator")]
        fn recovery_without_profile_fires() {
            recovery_requires_profile(false);
        }

        #[test]
        #[should_panic(expected = "below the")]
        fn window_below_floor_fires() {
            window_bounds(Phase::CongestionAvoidance, 1.0, 2.0, 100.0);
        }

        #[test]
        #[should_panic(expected = "above max_window")]
        fn window_above_cap_fires() {
            window_bounds(Phase::Recovery, 200.0, 2.0, 100.0);
        }

        #[test]
        #[should_panic(expected = "not finite")]
        fn nan_window_fires() {
            window_bounds(Phase::SlowStart, f64::NAN, 2.0, 100.0);
        }

        #[test]
        #[should_panic(expected = "fell below Dmin")]
        fn dest_below_dmin_fires() {
            dest_step(20.0, 5.0, 10.0, 2.0, false);
        }

        #[test]
        #[should_panic(expected = "exceeded its per-epoch ceiling")]
        fn dest_rise_under_tripped_ratio_fires() {
            dest_step(20.0, 21.0, 10.0, 2.0, true);
        }

        #[test]
        #[should_panic(expected = "exceeded its per-epoch ceiling")]
        fn dest_jump_beyond_delta2_fires() {
            dest_step(20.0, 25.0, 10.0, 2.0, false);
        }

        #[test]
        #[should_panic(expected = "escaped")]
        fn out_of_clamp_lookup_fires() {
            profile_lookup(500.0, 2.0, 100.0);
        }

        #[test]
        #[should_panic(expected = "non-finite/non-positive")]
        fn nan_lookup_fires() {
            profile_lookup(f64::NAN, 2.0, 100.0);
        }

        #[test]
        #[should_panic(expected = "send credit")]
        fn negative_quota_fires() {
            quota_non_negative(-0.5);
        }

        #[test]
        #[should_panic(expected = "delay sample")]
        fn nan_delay_sample_fires() {
            delay_sample(10.0, f64::NAN);
        }

        #[test]
        #[should_panic(expected = "must be finite and positive")]
        fn non_positive_seed_fires() {
            finite_positive(0.0, "initial set point");
        }

        #[test]
        fn clean_values_pass() {
            phase_transition(Phase::SlowStart, Phase::CongestionAvoidance);
            recovery_requires_profile(true);
            window_bounds(Phase::SlowStart, 1.0, 2.0, 100.0);
            window_bounds(Phase::CongestionAvoidance, 50.0, 2.0, 100.0);
            dest_step(20.0, 18.0, 10.0, 2.0, true);
            dest_step(20.0, 22.0, 10.0, 2.0, false);
            profile_lookup(50.0, 2.0, 100.0);
            quota_non_negative(0.0);
            delay_sample(10.0, 35.5);
            finite_positive(42.0, "set point");
        }
    }

    #[test]
    fn phase_audit_counts_edges() {
        use Phase::{CongestionAvoidance as Ca, Recovery as Re, SlowStart as Ss};
        let mut audit = PhaseAudit::default();
        assert_eq!(audit.total(), 0);
        assert!(audit.all_legal());
        audit.record(Ss, Ca);
        audit.record(Ca, Re);
        audit.record(Re, Ca);
        audit.record(Ca, Re);
        assert_eq!(audit.count(Ca, Re), 2);
        assert_eq!(audit.count(Ss, Ca), 1);
        assert_eq!(audit.count(Ss, Ss), 0);
        assert_eq!(audit.total(), 4);
        assert!(audit.all_legal());
        audit.record(Ss, Re); // the one illegal edge
        assert!(!audit.all_legal());
    }

    #[test]
    fn enabled_reflects_build_config() {
        // Under `cargo test` debug_assertions are on, so the layer must
        // report itself enabled; in a plain release build this constant
        // is false and every check above is an empty stub.
        assert_eq!(
            ENABLED,
            cfg!(any(debug_assertions, feature = "strict-invariants"))
        );
    }
}
