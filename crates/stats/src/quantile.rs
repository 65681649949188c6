//! Percentiles and five-number summaries.
//!
//! Sprout's control law is built on the 5th percentile of a forecast
//! distribution, and the evaluation reports median/95th-percentile delays;
//! both use the linear-interpolation quantile estimator implemented here
//! (type 7 in the Hyndman–Fan taxonomy, the default of R and NumPy).

/// Computes the `q`-quantile (`0 ≤ q ≤ 1`) of `data` by sorting a copy.
///
/// Returns `None` for empty input. NaN values are rejected by panic since
/// they indicate a harness bug upstream.
#[must_use]
pub fn quantile(data: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1], got {q}");
    if data.is_empty() {
        return None;
    }
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    Some(quantile_sorted(&sorted, q))
}

/// Computes the `q`-quantile of already-sorted data (ascending).
#[must_use]
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty slice");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// A summary of a sample: count, mean, standard deviation and the
/// quantiles the paper's plots report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 95th percentile (the delay statistic Sprout optimizes for).
    pub p95: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Builds a summary from raw samples. Returns `None` when empty.
    #[must_use]
    pub fn from_samples(data: &[f64]) -> Option<Self> {
        if data.is_empty() {
            return None;
        }
        let mut sorted = data.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let n = sorted.len() as f64;
        let mean = sorted.iter().sum::<f64>() / n;
        let var = sorted.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        Some(Self {
            count: sorted.len(),
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            p25: quantile_sorted(&sorted, 0.25),
            median: quantile_sorted(&sorted, 0.5),
            p75: quantile_sorted(&sorted, 0.75),
            p95: quantile_sorted(&sorted, 0.95),
            max: *sorted.last().unwrap(),
        })
    }
}

/// Streaming quantile estimation with the P² algorithm (Jain & Chlamtac
/// 1985): five markers track the target quantile in O(1) memory and O(1)
/// per observation, without storing the sample.
///
/// The first five observations are kept exactly; until then
/// [`Self::estimate`] computes the exact type-7 quantile of what has been
/// seen, so small fixtures get identical answers to a sort-based
/// computation. From the sixth observation on, the marker heights are
/// adjusted with the parabolic (falling back to linear) P² update and the
/// estimate is the middle marker.
#[derive(Debug, Clone, Copy)]
pub struct P2Quantile {
    /// Target quantile in `[0, 1]`.
    p: f64,
    /// Observations seen.
    n: u64,
    /// Marker heights (the first `n` entries hold raw samples while
    /// `n < 5`).
    q: [f64; 5],
    /// Marker positions, 1-based as in the paper.
    pos: [f64; 5],
}

impl P2Quantile {
    /// Creates an estimator for quantile `p`.
    ///
    /// # Panics
    /// Panics unless `0 <= p <= 1`.
    #[must_use]
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "quantile must be in [0,1], got {p}");
        Self {
            p,
            n: 0,
            q: [0.0; 5],
            pos: [1.0, 2.0, 3.0, 4.0, 5.0],
        }
    }

    /// Target quantile this estimator tracks.
    #[must_use]
    pub fn quantile(&self) -> f64 {
        self.p
    }

    /// Observations seen so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "P2Quantile observed {x}");
        if self.n < 5 {
            self.q[self.n as usize] = x;
            self.n += 1;
            if self.n == 5 {
                self.q.sort_by(f64::total_cmp);
            }
            return;
        }
        self.n += 1;
        // Locate the cell k with q[k] <= x < q[k+1], extending the
        // extreme markers when x falls outside them.
        let k = if x < self.q[0] {
            self.q[0] = x;
            0
        } else if x >= self.q[4] {
            self.q[4] = self.q[4].max(x);
            3
        } else {
            // q[k] <= x < q[k+1] for some k in 1..=3 ∪ {0}.
            let mut k = 0;
            while k < 3 && x >= self.q[k + 1] {
                k += 1;
            }
            k
        };
        for i in (k + 1)..5 {
            self.pos[i] += 1.0;
        }
        // Desired positions for the current count.
        let nm1 = (self.n - 1) as f64;
        let dn = [0.0, self.p / 2.0, self.p, (1.0 + self.p) / 2.0, 1.0];
        for i in 1..4 {
            let desired = 1.0 + nm1 * dn[i];
            let d = desired - self.pos[i];
            if (d >= 1.0 && self.pos[i + 1] - self.pos[i] > 1.0)
                || (d <= -1.0 && self.pos[i - 1] - self.pos[i] < -1.0)
            {
                let d = d.signum();
                let candidate = self.parabolic(i, d);
                self.q[i] = if self.q[i - 1] < candidate && candidate < self.q[i + 1] {
                    candidate
                } else {
                    self.linear(i, d)
                };
                self.pos[i] += d;
            }
        }
    }

    /// P² piecewise-parabolic marker adjustment.
    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let q = &self.q;
        let n = &self.pos;
        q[i] + d / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1]))
    }

    /// Linear fallback when the parabola would leave the bracket.
    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        self.q[i] + d * (self.q[j] - self.q[i]) / (self.pos[j] - self.pos[i])
    }

    /// Current estimate, or `None` before any observation. Exact for
    /// fewer than five observations.
    #[must_use]
    pub fn estimate(&self) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        if self.n < 5 {
            let mut sorted = self.q[..self.n as usize].to_vec();
            sorted.sort_by(f64::total_cmp);
            return Some(quantile_sorted(&sorted, self.p));
        }
        Some(self.q[2])
    }

    /// Merges another estimator for the *same* quantile into this one.
    ///
    /// P² keeps five markers, not the sample, so a lossless merge is
    /// impossible in general — this combine is **approximate** and
    /// documented as such (the exact members of [`crate::StreamingStats`]
    /// — count, mean, variance, histogram — are what shard merges rely
    /// on for byte-stable numbers):
    ///
    /// * while the combined count is ≤ 5, both sides still hold raw
    ///   samples, so the merge replays them and stays *exact*;
    /// * when one side holds < 5 raw samples, they are replayed into the
    ///   converged side (exactly what pushing them in that order would
    ///   have done);
    /// * when both sides have converged, the interior marker heights are
    ///   combined as count-weighted averages, the extremes as min/max,
    ///   and the marker positions are reset to their desired values for
    ///   the combined count. For same-distribution shards (the transport
    ///   timer plane's per-shard lateness, say) the markers sit near the
    ///   same quantiles, so
    ///   the weighted average is a consistent estimator of the same
    ///   quantile; it is *not* bit-equal to the sequential estimate.
    ///
    /// The merge is deterministic: the result depends only on the two
    /// states, never on timing.
    ///
    /// # Panics
    /// Panics if the two estimators target different quantiles.
    pub fn merge(&mut self, other: &P2Quantile) {
        assert!(
            (self.p - other.p).abs() < 1e-12,
            "cannot merge P2 estimators for different quantiles ({} vs {})",
            self.p,
            other.p
        );
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        if other.n < 5 {
            // `other` still holds raw samples: replay them (exact).
            for &x in &other.q[..other.n as usize] {
                self.push(x);
            }
            return;
        }
        if self.n < 5 {
            // Symmetric case: replay our raw samples into the converged
            // side, then adopt it.
            let mut merged = *other;
            for &x in &self.q[..self.n as usize] {
                merged.push(x);
            }
            *self = merged;
            return;
        }
        // Both converged: count-weighted marker combine (approximate).
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let total = n1 + n2;
        for i in 1..4 {
            self.q[i] = (self.q[i] * n1 + other.q[i] * n2) / total;
        }
        self.q[0] = self.q[0].min(other.q[0]);
        self.q[4] = self.q[4].max(other.q[4]);
        self.n += other.n;
        // Reset positions to the desired values for the combined count so
        // subsequent pushes adjust from a consistent state.
        let nm1 = (self.n - 1) as f64;
        let dn = [0.0, self.p / 2.0, self.p, (1.0 + self.p) / 2.0, 1.0];
        for i in 0..5 {
            self.pos[i] = 1.0 + nm1 * dn[i];
        }
    }

    /// Smallest observation seen (marker 0), or `None` when empty.
    #[must_use]
    pub fn observed_min(&self) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        if self.n < 5 {
            let mut m = self.q[0];
            for &v in &self.q[1..self.n as usize] {
                m = m.min(v);
            }
            return Some(m);
        }
        Some(self.q[0])
    }

    /// Largest observation seen (marker 4), or `None` when empty.
    #[must_use]
    pub fn observed_max(&self) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        if self.n < 5 {
            let mut m = self.q[0];
            for &v in &self.q[1..self.n as usize] {
                m = m.max(v);
            }
            return Some(m);
        }
        Some(self.q[4])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_gives_none() {
        assert_eq!(quantile(&[], 0.5), None);
        assert!(Summary::from_samples(&[]).is_none());
    }

    #[test]
    fn single_element() {
        assert_eq!(quantile(&[7.0], 0.0), Some(7.0));
        assert_eq!(quantile(&[7.0], 1.0), Some(7.0));
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), Some(2.5));
    }

    #[test]
    fn linear_interpolation_between_order_stats() {
        // quartiles of 1..=5 under type-7: p25 = 2, p75 = 4.
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&xs, 0.25), Some(2.0));
        assert_eq!(quantile(&xs, 0.75), Some(4.0));
        // and an interior non-grid point.
        assert!((quantile(&xs, 0.1).unwrap() - 1.4).abs() < 1e-12);
    }

    #[test]
    fn extremes_are_min_max() {
        let xs = [9.0, -3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), Some(-3.0));
        assert_eq!(quantile(&xs, 1.0), Some(9.0));
    }

    #[test]
    fn summary_fields_consistent() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Summary::from_samples(&xs).unwrap();
        assert_eq!(s.count, 100);
        assert!((s.mean - 50.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.median - 50.5).abs() < 1e-12);
        assert!(s.p25 < s.median && s.median < s.p75 && s.p75 < s.p95);
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn rejects_out_of_range_q() {
        let _ = quantile(&[1.0], 1.5);
    }

    #[test]
    fn p2_is_exact_below_five_samples() {
        let mut p = P2Quantile::new(0.5);
        assert_eq!(p.estimate(), None);
        p.push(30.0);
        p.push(10.0);
        p.push(20.0);
        assert_eq!(p.estimate(), Some(20.0));
        assert_eq!(p.observed_min(), Some(10.0));
        assert_eq!(p.observed_max(), Some(30.0));
        assert_eq!(p.count(), 3);
    }

    #[test]
    fn p2_paper_worked_example() {
        // The 20 observations from Jain & Chlamtac's Table 1; their
        // median estimate after all 20 is ≈ 4.44 (true sample median
        // 4.445). Allow slack for the well-known arithmetic wobble.
        let obs = [
            0.02, 0.15, 0.74, 3.39, 0.83, 22.37, 10.15, 15.43, 38.62, 15.92, 34.60, 10.28, 1.47,
            0.40, 0.05, 11.39, 0.27, 0.42, 0.09, 11.37,
        ];
        let mut p = P2Quantile::new(0.5);
        for &x in &obs {
            p.push(x);
        }
        let est = p.estimate().unwrap();
        assert!((est - 4.44).abs() < 0.5, "got {est}");
    }

    #[test]
    fn p2_converges_on_uniform_stream() {
        // Deterministic LCG over [0, 100): p95 should land near 95.
        let mut state: u64 = 42;
        let mut p = P2Quantile::new(0.95);
        for _ in 0..100_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let x = (state >> 11) as f64 / (1u64 << 53) as f64 * 100.0;
            p.push(x);
        }
        let est = p.estimate().unwrap();
        assert!((est - 95.0).abs() < 1.0, "p95 estimate {est}");
    }

    #[test]
    fn p2_extremes_track_min_max() {
        let mut p = P2Quantile::new(0.5);
        for i in 0..100 {
            p.push(f64::from(i));
        }
        assert_eq!(p.observed_min(), Some(0.0));
        assert_eq!(p.observed_max(), Some(99.0));
        assert_eq!(p.count(), 100);
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn p2_rejects_bad_quantile() {
        let _ = P2Quantile::new(-0.1);
    }
}
