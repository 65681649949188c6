//! Standard-normal sampling for the synthetic channel models.
//!
//! The cellular substrate (crate `verus-cellular`) drives its fading,
//! shadowing and drift processes with Gaussian innovations, two or three
//! per user per TTI. `rand` 0.8 only ships uniform sampling, so
//! [`Normal::standard`] implements the ziggurat of Marsaglia & Tsang
//! ("The Ziggurat Method for Generating Random Variables", J. Stat.
//! Softw. 5(8), 2000) with 256 layers:
//!
//! * one `u64` per attempt: its low 8 bits pick the layer `i`, its high
//!   53 bits give `u ∈ [−1, 1)` (the two sets of bits are disjoint);
//! * `x = u·X[i]` is accepted at once when `|x| < X[i+1]`, which is
//!   98.5 % of attempts;
//! * otherwise layer 0 draws from the tail beyond `R` (Marsaglia's
//!   exponential method), and every other layer accepts `x` when a
//!   uniform height in the layer lies under the density:
//!   `F[i+1] + (F[i]−F[i+1])·U < exp(−x²/2)`.
//!
//! The tables come from the recurrence `X[i]·(F[i+1] − F[i]) = V` (every
//! layer has area `V`) and are computed once per process. The sampler is
//! deterministic given a seeded RNG, which keeps the whole evaluation
//! pipeline reproducible run to run.
//!
//! Cost: only the accept path is inlined into the caller (the wedge, the
//! tail and the retry are a cold out-of-line continuation), so a draw is
//! one SplitMix64 step, one signed integer-to-float conversion, two
//! multiplies and a compare. On a 2-core x86-64 VM one draw costs about
//! 3 ns (2.9–3.4 ns, the fastest of 15 loops of 2·10⁷ draws), against
//! 4.4–5.9 ns with the whole algorithm in one loop.

use rand::Rng;
use std::sync::OnceLock;

/// Number of ziggurat layers.
const LAYERS: usize = 256;
/// Right edge of the base layer's rectangle; the tail lies beyond it.
const R: f64 = 3.654_152_885_361_009;
/// Area of every layer (and of the base strip including the tail) under
/// the unnormalized density `exp(−x²/2)`.
const V: f64 = 4.928_673_233_992_336e-3;

/// Layer edges `x` and the density `f = exp(−x²/2)` at each edge.
struct Tables {
    /// `x[0] = V / f(R)` (the base strip's pseudo-width), `x[1] = R`,
    /// strictly decreasing to `x[LAYERS] = 0`.
    x: [f64; LAYERS + 1],
    /// `f[i] = exp(−x[i]²/2)` for `i ≥ 1`, and `f[0] = 0` so the base
    /// strip's area is `x[0]·(f[1] − f[0])` like every other layer's.
    f: [f64; LAYERS + 1],
}

fn density(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

#[inline]
fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut x = [0.0; LAYERS + 1];
        let mut f = [0.0; LAYERS + 1];
        x[0] = V / density(R);
        x[1] = R;
        f[1] = density(R);
        for i in 1..LAYERS - 1 {
            x[i + 1] = (-2.0 * (V / x[i] + f[i]).ln()).sqrt();
            f[i + 1] = density(x[i + 1]);
        }
        // The top layer's apex: x = 0 exactly, where the density is 1.
        x[LAYERS] = 0.0;
        f[LAYERS] = 1.0;
        Tables { x, f }
    })
}

/// The standard normal distribution `N(0, 1)`; scale and shift a draw for
/// any other mean and standard deviation.
#[derive(Debug, Clone, Copy)]
pub struct Normal;

/// One ziggurat attempt's first step: draws a `u64` and returns its layer
/// `i`, `u ∈ [−1, 1)` and `x = u·X[i]`.
#[inline(always)]
fn attempt<G: Rng + ?Sized>(rng: &mut G, t: &Tables) -> (usize, f64, f64) {
    let bits: u64 = rng.gen();
    let i = (bits & 0xff) as usize;
    // 53 high bits → [0, 2) in steps of 2^-52, shifted to [−1, 1). The
    // value is below 2^53, where `as i64 as f64` is exact and equals
    // `as f64`, but it is one signed conversion instead of the unsigned
    // sequence baseline x86-64 needs.
    let u = (bits >> 11) as i64 as f64 * (1.0 / 4_503_599_627_370_496.0) - 1.0;
    (i, u, u * t.x[i])
}

impl Normal {
    /// Draws a standard-normal variate with the ziggurat method.
    ///
    /// Only the accept path (one `u64`, one compare; 98.5 % of draws) is
    /// inlined into the caller; the wedge, tail and retry live in
    /// [`Normal::rejected`].
    #[inline]
    pub fn standard<G: Rng + ?Sized>(rng: &mut G) -> f64 {
        let t = tables();
        let (i, u, x) = attempt(rng, t);
        if x.abs() < t.x[i + 1] {
            return x;
        }
        Self::rejected(rng, t, i, u, x)
    }

    /// Finishes a draw whose first attempt `(i, u, x)` missed layer `i`'s
    /// rectangle: the tail for the base layer, else the wedge test, then
    /// fresh attempts in the same order as the first until one accepts.
    #[cold]
    #[inline(never)]
    fn rejected<G: Rng + ?Sized>(rng: &mut G, t: &Tables, i: usize, u: f64, x: f64) -> f64 {
        let (mut i, mut u, mut x) = (i, u, x);
        loop {
            if i == 0 {
                return Self::tail(rng, u < 0.0);
            }
            let y = t.f[i + 1] + (t.f[i] - t.f[i + 1]) * rng.gen::<f64>();
            if y < density(x) {
                return x;
            }
            (i, u, x) = attempt(rng, t);
            if x.abs() < t.x[i + 1] {
                return x;
            }
        }
    }

    /// A variate from the normal tail beyond `R` (Marsaglia 1964): draw
    /// `x ~ Exp(R)` and `y ~ Exp(1)` until `2y > x²`, then return `R + x`.
    fn tail<G: Rng + ?Sized>(rng: &mut G, negative: bool) -> f64 {
        loop {
            // 1 − U lies in (0, 1], so both logarithms are finite.
            let x = -(1.0 - rng.gen::<f64>()).ln() / R;
            let y = -(1.0 - rng.gen::<f64>()).ln();
            if 2.0 * y > x * x {
                return if negative { -(R + x) } else { R + x };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Draws per statistical test. Miri interprets every draw, so it
    /// runs the same checks at a size it can afford; the bounds below
    /// scale with `N`, and the full-size run keeps the statistical power.
    const N: usize = if cfg!(miri) { 10_000 } else { 1_000_000 };

    fn draws(seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..N).map(|_| Normal::standard(&mut rng)).collect()
    }

    /// Complementary error function, Chebyshev fit with fractional error
    /// below 1.2e-7 everywhere (Press et al., *Numerical Recipes*, §6.2).
    fn erfc(x: f64) -> f64 {
        let z = x.abs();
        let t = 1.0 / (1.0 + 0.5 * z);
        let poly = -z * z - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77))))))));
        let r = t * poly.exp();
        if x >= 0.0 {
            r
        } else {
            2.0 - r
        }
    }

    fn normal_cdf(x: f64) -> f64 {
        0.5 * erfc(-x / std::f64::consts::SQRT_2)
    }

    #[test]
    fn erfc_matches_known_values() {
        // erfc at 0, 1, 2, 3/√2 and 4/√2 (the last two give the tail masses).
        let cases = [
            (0.0, 1.0),
            (1.0, 0.157_299_207_050_285_13),
            (2.0, 4.677_734_981_047_266e-3),
            (3.0 / std::f64::consts::SQRT_2, 2.699_796_063_260_207e-3),
            (4.0 / std::f64::consts::SQRT_2, 6.334_248_366_623_996e-5),
            (-1.0, 1.842_700_792_949_715),
        ];
        for (x, want) in cases {
            let got = erfc(x);
            assert!(
                ((got - want) / want).abs() <= 1.2e-7,
                "erfc({x}) = {got}, want {want}"
            );
        }
    }

    #[test]
    fn normal_moments_match() {
        let xs = draws(1);
        let n = N as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let m2 = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        let m4 = xs.iter().map(|x| (x - mean).powi(4)).sum::<f64>() / n;
        let kurtosis = m4 / (m2 * m2);
        // Bounds are 5 standard errors: 1/√n, √(2/n) and √(24/n).
        assert!(mean.abs() < 5.0 / n.sqrt(), "mean {mean}");
        assert!((m2 - 1.0).abs() < 5.0 * (2.0 / n).sqrt(), "variance {m2}");
        assert!(
            (kurtosis - 3.0).abs() < 5.0 * (24.0 / n).sqrt(),
            "kurtosis {kurtosis}"
        );
    }

    #[test]
    fn tail_masses_match() {
        let xs = draws(2);
        let n = N as f64;
        for (k, p) in [(3.0, 2.699_8e-3), (4.0, 6.334e-5)] {
            let observed = xs.iter().filter(|x| x.abs() > k).count() as f64 / n;
            let sd = (p * (1.0 - p) / n).sqrt();
            assert!(
                (observed - p).abs() <= 4.0 * sd,
                "P(|x| > {k}) = {observed}, want {p} ± {}",
                4.0 * sd
            );
        }
    }

    #[test]
    fn apex_mass_matches() {
        // The top layer spans |x| < X[255] and decides each of its draws
        // by the wedge test alone; a wedge that accepts the wrong side of
        // the curve moves those draws from the inner half outwards.
        let xs = draws(4);
        let n = N as f64;
        let edge = tables().x[LAYERS - 1];
        for k in [0.5 * edge, edge] {
            let p = 1.0 - erfc(k / std::f64::consts::SQRT_2);
            let observed = xs.iter().filter(|x| x.abs() < k).count() as f64 / n;
            let sd = (p * (1.0 - p) / n).sqrt();
            assert!(
                (observed - p).abs() <= 4.0 * sd,
                "P(|x| < {k}) = {observed}, want {p} ± {}",
                4.0 * sd
            );
        }
    }

    #[test]
    fn kolmogorov_smirnov_accepts_normal_cdf() {
        let mut xs = draws(3);
        xs.sort_by(f64::total_cmp);
        let n = N as f64;
        let d = xs
            .iter()
            .enumerate()
            .map(|(k, &x)| {
                let cdf = normal_cdf(x);
                (cdf - k as f64 / n).max((k + 1) as f64 / n - cdf)
            })
            .fold(0.0, f64::max);
        // The 1 % critical value of the one-sample KS statistic.
        assert!(d < 1.63 / n.sqrt(), "KS statistic {d}");
    }

    #[test]
    fn tables_tile_the_density() {
        let t = tables();
        assert_eq!(t.x[1].to_bits(), R.to_bits());
        assert_eq!(t.x[LAYERS].to_bits(), 0.0_f64.to_bits());
        assert!(
            t.x.windows(2).all(|w| w[0] > w[1]),
            "X not strictly decreasing"
        );
        for i in 0..LAYERS - 1 {
            let area = t.x[i] * (t.f[i + 1] - t.f[i]);
            assert!((area - V).abs() < 1e-12, "layer {i}: area {area}");
        }
        // The top layer is whatever the recurrence leaves under the apex;
        // R and V as published close it to 5.6e-12 (1.1e-9 of V).
        let top = t.x[LAYERS - 1] * (1.0 - t.f[LAYERS - 1]);
        assert!((top - V).abs() < 1e-11, "top layer: area {top}");
        // The base strip is R·f(R) plus the tail ∫_R^∞ f = √(π/2)·erfc(R/√2).
        let half_pi = std::f64::consts::FRAC_PI_2;
        let base = R * density(R) + half_pi.sqrt() * erfc(R / std::f64::consts::SQRT_2);
        assert!(((base - V) / V).abs() < 1e-6, "base strip {base} vs V {V}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..32).map(|_| Normal::standard(&mut rng)).collect()
        };
        let b: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..32).map(|_| Normal::standard(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
