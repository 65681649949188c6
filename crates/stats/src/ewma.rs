//! Exponentially weighted moving average.
//!
//! Verus uses EWMAs in two places (paper §4, §5.1):
//!
//! * Eq. 2 smooths the per-epoch maximum delay:
//!   `Dmax,i = α · Dmax,i−1 + (1 − α) · max(D⃗i)`;
//! * every delay-profile point is updated per ACK with an EWMA so the
//!   profile "evolves" with the channel (Figure 7b).
//!
//! The weight convention here matches the paper: `alpha` is the weight on
//! the *previous* smoothed value, so larger `alpha` means slower adaptation.

/// An exponentially weighted moving average with weight `alpha` on history.
///
/// The first observation initializes the average exactly (no bias towards
/// zero), matching how the Verus prototype seeds `Dmax` from the first
/// epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates an EWMA with weight `alpha ∈ (0, 1]` on the previous value.
    ///
    /// # Panics
    /// Panics if `alpha` is outside `(0, 1]` or not finite — the paper's
    /// Eq. 2 constrains `0 < α ≤ 1`.
    #[must_use]
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha.is_finite() && alpha > 0.0 && alpha <= 1.0,
            "EWMA weight must satisfy 0 < alpha <= 1, got {alpha}"
        );
        Self { alpha, value: None }
    }

    /// Creates an EWMA pre-seeded with an initial value.
    #[must_use]
    pub fn with_initial(alpha: f64, initial: f64) -> Self {
        let mut e = Self::new(alpha);
        e.value = Some(initial);
        e
    }

    /// Feeds a new observation and returns the updated average.
    pub fn update(&mut self, sample: f64) -> f64 {
        let next = match self.value {
            None => sample,
            Some(prev) => self.alpha * prev + (1.0 - self.alpha) * sample,
        };
        self.value = Some(next);
        next
    }

    /// Current smoothed value, if any observation has been fed.
    #[must_use]
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// Current smoothed value, or `default` before the first observation.
    #[must_use]
    pub fn value_or(&self, default: f64) -> f64 {
        self.value.unwrap_or(default)
    }

    /// The weight on history.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Discards all history.
    pub fn reset(&mut self) {
        self.value = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_initializes_exactly() {
        let mut e = Ewma::new(0.875);
        assert_eq!(e.update(42.0), 42.0);
        assert_eq!(e.value(), Some(42.0));
    }

    #[test]
    fn follows_paper_recurrence() {
        // Dmax,i = α · Dmax,i−1 + (1 − α) · sample, with α = 0.5.
        let mut e = Ewma::new(0.5);
        e.update(100.0);
        assert!((e.update(50.0) - 75.0).abs() < 1e-12);
        assert!((e.update(75.0) - 75.0).abs() < 1e-12);
    }

    #[test]
    fn alpha_one_never_moves() {
        let mut e = Ewma::new(1.0);
        e.update(10.0);
        e.update(1000.0);
        assert_eq!(e.value(), Some(10.0));
    }

    #[test]
    fn with_initial_seeds_history() {
        let mut e = Ewma::with_initial(0.5, 10.0);
        assert!((e.update(20.0) - 15.0).abs() < 1e-12);
    }

    #[test]
    fn reset_clears() {
        let mut e = Ewma::new(0.5);
        e.update(5.0);
        e.reset();
        assert_eq!(e.value(), None);
        assert_eq!(e.update(7.0), 7.0);
    }

    #[test]
    #[should_panic(expected = "EWMA weight")]
    fn rejects_zero_alpha() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    #[should_panic(expected = "EWMA weight")]
    fn rejects_alpha_above_one() {
        let _ = Ewma::new(1.5);
    }

    #[test]
    fn converges_towards_constant_input() {
        let mut e = Ewma::new(0.9);
        e.update(0.0);
        for _ in 0..400 {
            e.update(1.0);
        }
        assert!((e.value().unwrap() - 1.0).abs() < 1e-6);
    }
}
