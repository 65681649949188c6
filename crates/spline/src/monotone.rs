//! Fritsch–Carlson monotone cubic interpolation (PCHIP).
//!
//! When the knot y-values are monotone, the fitted piecewise-cubic Hermite
//! interpolant is monotone too — it never overshoots between knots the way
//! a natural spline can on noisy delay-profile points. The Verus profiler
//! can be configured to use this instead of [`crate::NaturalCubic`]
//! (ablation `ablation_spline`).

use crate::{validate, Curve, SplineError};
use std::cell::Cell;

/// A fitted Fritsch–Carlson monotone cubic interpolant.
#[derive(Debug, Clone)]
pub struct MonotoneCubic {
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Tangents (first derivatives) at the knots.
    d: Vec<f64>,
    /// Last segment served by [`Self::segment`] (see
    /// [`crate::NaturalCubic`] for why: sweeps hit adjacent segments, so
    /// the cached hint makes them O(1) amortized).
    hint: Cell<usize>,
}

impl MonotoneCubic {
    /// Fits the interpolant through `knots` (strictly increasing x).
    pub fn fit(knots: &[(f64, f64)]) -> Result<Self, SplineError> {
        validate(knots)?;
        let n = knots.len();
        let xs: Vec<f64> = knots.iter().map(|k| k.0).collect();
        let ys: Vec<f64> = knots.iter().map(|k| k.1).collect();

        let h: Vec<f64> = xs.windows(2).map(|w| w[1] - w[0]).collect();
        let delta: Vec<f64> = (0..n - 1).map(|i| (ys[i + 1] - ys[i]) / h[i]).collect();

        // Initial tangents: three-point weighted harmonic-style average.
        let mut d = vec![0.0; n];
        d[0] = delta[0];
        d[n - 1] = delta[n - 2];
        for i in 1..n - 1 {
            if delta[i - 1] * delta[i] <= 0.0 {
                d[i] = 0.0; // local extremum: flat tangent preserves shape
            } else {
                d[i] = 0.5 * (delta[i - 1] + delta[i]);
            }
        }

        // Fritsch–Carlson monotonicity filter.
        for i in 0..n - 1 {
            if delta[i] == 0.0 {
                d[i] = 0.0;
                d[i + 1] = 0.0;
                continue;
            }
            let a = d[i] / delta[i];
            let b = d[i + 1] / delta[i];
            // Tangents pointing against the secant break monotonicity.
            if a < 0.0 {
                d[i] = 0.0;
            }
            if b < 0.0 {
                d[i + 1] = 0.0;
            }
            let s = a * a + b * b;
            if s > 9.0 {
                let t = 3.0 / s.sqrt();
                d[i] = t * a * delta[i];
                d[i + 1] = t * b * delta[i];
            }
        }

        Ok(Self {
            xs,
            ys,
            d,
            hint: Cell::new(0),
        })
    }

    /// Number of knots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether the interpolant has no knots (never true once fitted).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    fn segment(&self, x: f64) -> usize {
        let i = crate::segment_with_hint(&self.xs, x, &self.hint);
        self.hint.set(i);
        i
    }
}

impl Curve for MonotoneCubic {
    fn eval(&self, x: f64) -> f64 {
        let n = self.xs.len();
        if x < self.xs[0] {
            return self.ys[0] + self.d[0] * (x - self.xs[0]);
        }
        if x > self.xs[n - 1] {
            return self.ys[n - 1] + self.d[n - 1] * (x - self.xs[n - 1]);
        }
        let i = self.segment(x);
        let h = self.xs[i + 1] - self.xs[i];
        let t = (x - self.xs[i]) / h;
        // Cubic Hermite basis.
        let t2 = t * t;
        let t3 = t2 * t;
        let h00 = 2.0 * t3 - 3.0 * t2 + 1.0;
        let h10 = t3 - 2.0 * t2 + t;
        let h01 = -2.0 * t3 + 3.0 * t2;
        let h11 = t3 - t2;
        h00 * self.ys[i] + h10 * h * self.d[i] + h01 * self.ys[i + 1] + h11 * h * self.d[i + 1]
    }

    fn domain(&self) -> (f64, f64) {
        (self.xs[0], *self.xs.last().unwrap())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolates_through_knots() {
        let knots: Vec<(f64, f64)> = vec![(0.0, 0.0), (1.0, 2.0), (2.0, 2.5), (4.0, 10.0)];
        let s = MonotoneCubic::fit(&knots).unwrap();
        for &(x, y) in &knots {
            assert!((s.eval(x) - y).abs() < 1e-12);
        }
    }

    #[test]
    fn preserves_monotonicity_on_hard_case() {
        // The classic RPN-14 data that makes natural splines overshoot.
        let knots: Vec<(f64, f64)> = vec![
            (7.99, 0.0),
            (8.09, 2.76429e-5),
            (8.19, 4.37498e-2),
            (8.7, 0.169183),
            (9.2, 0.469428),
            (10.0, 0.943740),
            (12.0, 0.998636),
            (15.0, 0.999919),
            (20.0, 0.999994),
        ];
        let s = MonotoneCubic::fit(&knots).unwrap();
        let mut prev = s.eval(7.99);
        let mut x = 7.99;
        while x < 20.0 {
            x += 0.01;
            let y = s.eval(x);
            assert!(y >= prev - 1e-12, "not monotone at {x}: {y} < {prev}");
            prev = y;
        }
    }

    #[test]
    fn flat_segments_stay_flat() {
        let s = MonotoneCubic::fit(&[(0.0, 1.0), (1.0, 1.0), (2.0, 1.0)]).unwrap();
        for i in 0..=20 {
            assert!((s.eval(i as f64 * 0.1) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn local_extremum_gets_flat_tangent() {
        // y rises then falls; the middle knot must not overshoot.
        let s = MonotoneCubic::fit(&[(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]).unwrap();
        for i in 0..=100 {
            let y = s.eval(i as f64 * 0.02);
            assert!((-1e-12..=1.0 + 1e-12).contains(&y));
        }
    }

    #[test]
    fn extrapolates_linearly() {
        let s = MonotoneCubic::fit(&[(0.0, 0.0), (1.0, 1.0), (2.0, 4.0)]).unwrap();
        let a = s.eval(3.0);
        let b = s.eval(4.0);
        let c = s.eval(5.0);
        assert!(((b - a) - (c - b)).abs() < 1e-12);
    }

    #[test]
    fn solve_x_round_trip() {
        let knots: Vec<(f64, f64)> = (0..=30).map(|i| (i as f64, (i as f64).sqrt() * 10.0)).collect();
        let s = MonotoneCubic::fit(&knots).unwrap();
        for &target_x in &[0.5, 3.25, 17.0, 29.5] {
            let y = s.eval(target_x);
            let x = s.solve_x(y, 0.0, 30.0);
            assert!((s.eval(x) - y).abs() < 1e-9, "x={x}");
        }
    }

    #[test]
    fn two_knots_is_a_line() {
        let s = MonotoneCubic::fit(&[(0.0, 0.0), (10.0, 5.0)]).unwrap();
        assert!((s.eval(4.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn hinted_segment_lookup_matches_cold_lookup() {
        let knots: Vec<(f64, f64)> =
            (0..=30).map(|i| (i as f64, (i as f64).sqrt() * 10.0)).collect();
        let s = MonotoneCubic::fit(&knots).unwrap();
        let xs: Vec<f64> = (0..600)
            .map(|i| (i as f64 * 0.05) % 30.0)
            .chain((0..600).map(|i| 30.0 - (i as f64 * 0.05) % 30.0))
            .chain((0..100).map(|i| ((i * 53) % 301) as f64 / 10.0))
            .collect();
        for x in xs {
            let cold = MonotoneCubic::fit(&knots).unwrap();
            assert_eq!(s.eval(x).to_bits(), cold.eval(x).to_bits(), "at {x}");
        }
    }

    #[test]
    fn sample_lut_endpoints_are_knot_domain() {
        let s = MonotoneCubic::fit(&[(2.0, 1.0), (4.0, 3.0), (8.0, 9.0)]).unwrap();
        let lut = s.sample_lut(5);
        assert_eq!(lut[0], (2.0, 1.0));
        assert_eq!(lut[4].0, 8.0);
        assert_eq!(lut[4].1, 9.0);
    }
}
