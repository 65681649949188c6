//! Linear- and log-binned histograms / empirical PDFs.
//!
//! Figure 2 of the paper plots probability density functions of burst size
//! (bytes, 10³–10⁶) and burst inter-arrival time (ms, 10⁰–10³) on log-log
//! axes; [`LogHistogram`] reproduces exactly that binning. [`Histogram`]
//! is the plain linear variant used for delay distributions.

/// A fixed-range, uniformly binned histogram.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` uniform bins.
    ///
    /// # Panics
    /// Panics if `lo >= hi` or `bins == 0`.
    #[must_use]
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo < hi, "histogram range must be non-empty ({lo}..{hi})");
        assert!(bins > 0, "histogram needs at least one bin");
        Self {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
            underflow: 0,
            overflow: 0,
        }
    }

    /// Adds one sample. Samples outside the range are tallied separately
    /// as under/overflow and excluded from [`Self::pdf`].
    pub fn add(&mut self, x: f64) {
        self.total += 1;
        if x < self.lo {
            self.underflow += 1;
            return;
        }
        if x >= self.hi {
            self.overflow += 1;
            return;
        }
        let frac = (x - self.lo) / (self.hi - self.lo);
        let idx = ((frac * self.counts.len() as f64) as usize).min(self.counts.len() - 1);
        self.counts[idx] += 1;
    }

    /// Number of bins.
    #[must_use]
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Total samples (including out-of-range).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Samples below/above the range.
    #[must_use]
    pub fn out_of_range(&self) -> (u64, u64) {
        (self.underflow, self.overflow)
    }

    /// Raw per-bin counts.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Bin centre of bin `i`.
    #[must_use]
    pub fn center(&self, i: usize) -> f64 {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + (i as f64 + 0.5) * w
    }

    /// Empirical PDF: `(bin centre, density)` pairs, where density integrates
    /// to the in-range probability mass.
    #[must_use]
    pub fn pdf(&self) -> Vec<(f64, f64)> {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        let n = self.total.max(1) as f64;
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.center(i), c as f64 / (n * w)))
            .collect()
    }

    /// Merges another histogram into this one by bin-wise addition.
    ///
    /// Because binning is a pure function of the sample value and the
    /// (shared) bin geometry, merging per-shard histograms bin-wise is
    /// *exact*: the result equals the histogram of the concatenated
    /// sample stream, whatever the split.
    ///
    /// # Panics
    /// Panics if the two histograms have different ranges or bin counts —
    /// merging incompatible geometries silently would corrupt every
    /// downstream CDF.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.lo == other.lo && self.hi == other.hi && self.counts.len() == other.counts.len(),
            "histogram merge needs identical geometry: [{}, {}) x{} vs [{}, {}) x{}",
            self.lo,
            self.hi,
            self.counts.len(),
            other.lo,
            other.hi,
            other.counts.len(),
        );
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.total += other.total;
        self.underflow += other.underflow;
        self.overflow += other.overflow;
    }

    /// Empirical CDF evaluated at bin upper edges.
    #[must_use]
    pub fn cdf(&self) -> Vec<(f64, f64)> {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        let n = self.total.max(1) as f64;
        let mut acc = self.underflow as f64;
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                acc += c as f64;
                (self.lo + (i as f64 + 1.0) * w, acc / n)
            })
            .collect()
    }
}

/// A histogram with logarithmically spaced bins, as used by Figure 2.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    log_lo: f64,
    log_hi: f64,
    counts: Vec<u64>,
    total: u64,
    out_of_range: u64,
}

impl LogHistogram {
    /// Creates a log histogram over `[lo, hi)` (both positive) with `bins`
    /// bins per the whole range, uniformly spaced in `log10`.
    #[must_use]
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo > 0.0 && hi > lo, "log histogram needs 0 < lo < hi");
        assert!(bins > 0, "histogram needs at least one bin");
        Self {
            log_lo: lo.log10(),
            log_hi: hi.log10(),
            counts: vec![0; bins],
            total: 0,
            out_of_range: 0,
        }
    }

    /// Adds one sample; non-positive or out-of-range samples are counted
    /// but not binned.
    pub fn add(&mut self, x: f64) {
        self.total += 1;
        if x <= 0.0 {
            self.out_of_range += 1;
            return;
        }
        let lx = x.log10();
        if lx < self.log_lo || lx >= self.log_hi {
            self.out_of_range += 1;
            return;
        }
        let frac = (lx - self.log_lo) / (self.log_hi - self.log_lo);
        let idx = ((frac * self.counts.len() as f64) as usize).min(self.counts.len() - 1);
        self.counts[idx] += 1;
    }

    /// Total samples (including out-of-range).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Samples that fell outside `[lo, hi)`.
    #[must_use]
    pub fn out_of_range(&self) -> u64 {
        self.out_of_range
    }

    /// Geometric bin centre of bin `i`.
    #[must_use]
    pub fn center(&self, i: usize) -> f64 {
        let w = (self.log_hi - self.log_lo) / self.counts.len() as f64;
        10f64.powf(self.log_lo + (i as f64 + 0.5) * w)
    }

    /// Probability *mass* per bin — `(geometric centre, fraction of samples)`,
    /// the quantity Figure 2 plots on its y axis.
    #[must_use]
    pub fn pmf(&self) -> Vec<(f64, f64)> {
        let n = self.total.max(1) as f64;
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.center(i), c as f64 / n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_binning_is_uniform() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..10 {
            h.add(i as f64 + 0.5);
        }
        assert!(h.counts().iter().all(|&c| c == 1));
        assert_eq!(h.total(), 10);
    }

    #[test]
    fn out_of_range_is_tracked_not_binned() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.add(-1.0);
        h.add(2.0);
        h.add(0.5);
        assert_eq!(h.out_of_range(), (1, 1));
        assert_eq!(h.counts().iter().sum::<u64>(), 1);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn upper_edge_is_exclusive() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.add(1.0);
        assert_eq!(h.out_of_range(), (0, 1));
    }

    #[test]
    fn pdf_integrates_to_in_range_mass() {
        let mut h = Histogram::new(0.0, 4.0, 8);
        for i in 0..100 {
            h.add((i % 4) as f64 + 0.25);
        }
        let w = 0.5;
        let total: f64 = h.pdf().iter().map(|&(_, d)| d * w).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let mut h = Histogram::new(0.0, 1.0, 16);
        for i in 0..1000 {
            h.add((i as f64 / 1000.0) * 0.999);
        }
        let cdf = h.cdf();
        for pair in cdf.windows(2) {
            assert!(pair[1].1 >= pair[0].1);
        }
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn log_bins_cover_decades() {
        let mut h = LogHistogram::new(1.0, 1000.0, 3);
        h.add(2.0); // decade 0
        h.add(20.0); // decade 1
        h.add(200.0); // decade 2
        assert_eq!(h.pmf().len(), 3);
        for (_, mass) in h.pmf() {
            assert!((mass - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn log_center_is_geometric() {
        let h = LogHistogram::new(1.0, 100.0, 2);
        // bins [1,10) and [10,100); geometric centres sqrt(10) and sqrt(1000).
        assert!((h.center(0) - 10f64.sqrt()).abs() < 1e-9);
        assert!((h.center(1) - 1000f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn log_rejects_nonpositive_samples() {
        let mut h = LogHistogram::new(1.0, 10.0, 4);
        h.add(0.0);
        h.add(-5.0);
        assert_eq!(h.out_of_range(), 2);
    }
}
