//! Radio-channel rate processes.
//!
//! §3 of the paper attributes cellular unpredictability to "the physical
//! properties of radio propagation such as path-loss and slow-fading" plus
//! fast fading, and §5.3 notes the three time scales explicitly: fast
//! fading (ms, handled by Verus' ε epochs), and path-loss/slow-fading
//! (seconds, handled by delay-profile updates). The synthetic channel
//! mirrors that decomposition as an SNR process in dB:
//!
//! ```text
//! snr(t) = mean + drift(t) + shadow(t) + fast(t)
//! ```
//!
//! * `fast` — Gauss–Markov AR(1), correlation set by a coherence time
//!   (mobility shortens it; Jakes' model relates it to Doppler);
//! * `shadow` — Ornstein–Uhlenbeck log-normal shadowing with a relaxation
//!   time of seconds;
//! * `drift` — a bounded random walk standing in for mobility-driven
//!   path-loss change (driving past buildings, entering the mall…).
//!
//! SNR maps to a per-TTI rate through a truncated-Shannon link budget
//! quantized to 15 CQI steps, like an LTE/HSPA modulation-and-coding
//! ladder. The result is a [`RateProcess`] yielding whole-cell bytes per
//! TTI, which the [`crate::scheduler`] divides among users.

use crate::trace::TraceError;
use rand::Rng;
use verus_nettypes::SimDuration;
use verus_stats::dist::Normal;

/// Parameters of the SNR process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FadingConfig {
    /// Long-term mean SNR in dB.
    pub mean_snr_db: f64,
    /// Standard deviation of the fast-fading component, dB.
    pub fast_sigma_db: f64,
    /// Coherence time of fast fading (smaller = faster variation).
    pub fast_coherence: SimDuration,
    /// Stationary standard deviation of shadowing, dB.
    pub shadow_sigma_db: f64,
    /// Relaxation time of shadowing.
    pub shadow_tau: SimDuration,
    /// Half-range of the mobility drift walk, dB (0 = stationary user).
    pub drift_range_db: f64,
    /// RMS drift speed, dB per second.
    pub drift_rate_db_per_s: f64,
}

impl FadingConfig {
    /// A stationary urban profile: moderate shadowing, slow drift off.
    #[must_use]
    pub fn stationary() -> Self {
        Self {
            mean_snr_db: 12.0,
            fast_sigma_db: 3.0,
            fast_coherence: SimDuration::from_millis(40),
            shadow_sigma_db: 2.5,
            shadow_tau: SimDuration::from_secs(12),
            drift_range_db: 0.0,
            drift_rate_db_per_s: 0.0,
        }
    }

    /// Pedestrian mobility: shorter coherence, gentle drift.
    #[must_use]
    pub fn pedestrian() -> Self {
        Self {
            fast_coherence: SimDuration::from_millis(20),
            drift_range_db: 3.0,
            drift_rate_db_per_s: 0.5,
            ..Self::stationary()
        }
    }

    /// Vehicular mobility: very short coherence, strong drift.
    #[must_use]
    pub fn driving() -> Self {
        Self {
            fast_sigma_db: 4.0,
            fast_coherence: SimDuration::from_millis(5),
            shadow_sigma_db: 4.0,
            shadow_tau: SimDuration::from_secs(5),
            drift_range_db: 8.0,
            drift_rate_db_per_s: 2.0,
            ..Self::stationary()
        }
    }
}

/// Link budget: how SNR becomes bytes per TTI.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkBudget {
    /// Peak cell rate in bits per second (reached at `snr_at_peak_db`).
    pub peak_rate_bps: f64,
    /// SNR at which the MCS ladder saturates.
    pub snr_at_peak_db: f64,
    /// Transmission Time Interval (1 ms LTE, 2 ms HSPA+).
    pub tti: SimDuration,
    /// Number of discrete MCS/CQI steps (15 for LTE CQI).
    pub cqi_steps: u32,
}

impl LinkBudget {
    /// LTE-like: 1 ms TTI, 15 CQI steps.
    #[must_use]
    pub fn lte(peak_rate_bps: f64) -> Self {
        Self {
            peak_rate_bps,
            snr_at_peak_db: 22.0,
            tti: SimDuration::from_millis(1),
            cqi_steps: 15,
        }
    }

    /// 3G/HSPA+-like: 2 ms TTI, 15 CQI steps, saturating earlier.
    #[must_use]
    pub fn hspa(peak_rate_bps: f64) -> Self {
        Self {
            peak_rate_bps,
            snr_at_peak_db: 18.0,
            tti: SimDuration::from_millis(2),
            cqi_steps: 15,
        }
    }

    /// Maps an SNR to the cell's deliverable bytes in one TTI.
    ///
    /// Truncated Shannon, normalized to the peak rate at
    /// `snr_at_peak_db`, quantized to `cqi_steps` levels. SNR at or
    /// below ~-6 dB yields zero (out of coverage for data).
    ///
    /// This is the only definition of the rate map; [`RateTable`]
    /// tabulates it for the per-TTI hot path.
    #[must_use]
    pub fn bytes_per_tti(&self, snr_db: f64) -> u32 {
        self.bytes_at(snr_db, spectral_efficiency(self.snr_at_peak_db))
    }

    /// [`LinkBudget::bytes_per_tti`] given `spectral_efficiency` at the
    /// saturation SNR, which [`RateTable::new`] computes once rather than
    /// once per probe.
    fn bytes_at(&self, snr_db: f64, peak_eff: f64) -> u32 {
        let eff = spectral_efficiency(snr_db.min(self.snr_at_peak_db));
        let ratio = (eff / peak_eff).clamp(0.0, 1.0);
        // CQI quantization (floor: the scheduler picks the highest MCS
        // that still decodes).
        let steps = self.cqi_steps as f64;
        let quantized = (ratio * steps).floor() / steps;
        let bits = self.peak_rate_bps * quantized * self.tti.as_secs_f64();
        (bits / 8.0).floor() as u32
    }

    /// Checks the budget describes a real MCS ladder: a positive TTI,
    /// 1..=[`MAX_CQI_STEPS`] steps, and a finite positive peak rate and
    /// saturation SNR.
    pub(crate) fn validate(&self) -> Result<(), TraceError> {
        let invalid = |field, requirement| Err(TraceError::InvalidCell { field, requirement });
        if self.tti <= SimDuration::ZERO {
            return invalid("budget.tti", "must be positive");
        }
        if !(1..=MAX_CQI_STEPS).contains(&self.cqi_steps) {
            return invalid("budget.cqi_steps", "must be in 1..=MAX_CQI_STEPS");
        }
        if !(self.peak_rate_bps.is_finite() && self.peak_rate_bps > 0.0) {
            return invalid("budget.peak_rate_bps", "must be finite and positive");
        }
        if !(self.snr_at_peak_db.is_finite() && self.snr_at_peak_db > 0.0) {
            return invalid("budget.snr_at_peak_db", "must be finite and positive");
        }
        Ok(())
    }
}

/// Shannon efficiency `log2(1 + SNR)` in bit/s/Hz at `db` dB.
fn spectral_efficiency(db: f64) -> f64 {
    (1.0 + 10f64.powf(db / 10.0)).log2()
}

/// Most CQI steps a [`LinkBudget`] may have. Real MCS ladders have 15
/// (LTE CQI) to 32 rungs; the cap bounds [`RateTable`]'s size and so the
/// cost of one lookup.
pub const MAX_CQI_STEPS: u32 = 64;

/// [`LinkBudget::bytes_per_tti`] as a lookup table.
///
/// The rate map is a step function of SNR with at most `cqi_steps + 1`
/// levels, but evaluating it costs a `powf` and two `log2`. The table
/// holds each level's bytes and the smallest SNR at which the level
/// starts, found by bisection over the ordered f64 bit patterns with
/// `bytes_per_tti` itself as the oracle. A lookup is then a branchless
/// count of the thresholds at or below the SNR (SSE2 compares, four
/// thresholds per step), and equals the formula on every input: a
/// threshold is the exact first f64 of its level. The count is still
/// about a fifth to a quarter of channel synthesis in a sampling profile
/// of `verus_single`'s 64 channels; the Gaussian draws and the fading
/// update take about half.
#[derive(Debug, Clone, PartialEq)]
pub struct RateTable {
    /// `thresholds[k]` is the smallest SNR at which `levels[k + 1]` applies.
    thresholds: Vec<f64>,
    /// `levels[0]` applies below every threshold, down to −∞.
    levels: Vec<u32>,
}

impl RateTable {
    /// Tabulates `budget`'s rate map, or returns
    /// [`TraceError::InvalidCell`] for a budget that is not a real MCS
    /// ladder: a zero TTI, `cqi_steps` outside 1..=[`MAX_CQI_STEPS`], or
    /// a peak rate or saturation SNR that is not finite and positive.
    pub fn new(budget: &LinkBudget) -> Result<Self, TraceError> {
        budget.validate()?;
        let peak_eff = spectral_efficiency(budget.snr_at_peak_db);
        let rate_at = |key: u64| budget.bytes_at(from_order_key(key), peak_eff);
        let top = order_key(f64::INFINITY);
        let mut lo = order_key(f64::NEG_INFINITY);
        let mut level = rate_at(lo);
        let mut table = Self {
            thresholds: Vec::new(),
            levels: vec![level],
        };
        while lo < top {
            // Invariant: rate_at(lo) == level; find the first key above
            // lo where the rate changes (if it does before +∞).
            let mut hi = top;
            if rate_at(hi) == level {
                break;
            }
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if rate_at(mid) == level {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            lo = hi;
            level = rate_at(hi);
            table.thresholds.push(from_order_key(hi));
            table.levels.push(level);
        }
        // NaN compares below no threshold, so it reads the top level —
        // which is what the formula gives it too (`f64::min` drops NaN,
        // leaving the saturation SNR).
        debug_assert_eq!(table.bytes(f64::NAN), budget.bytes_per_tti(f64::NAN));
        Ok(table)
    }

    /// The cell's deliverable bytes in one TTI at `snr_db`; equal to
    /// [`LinkBudget::bytes_per_tti`] for every `snr_db`.
    #[must_use]
    // `!(snr < t)` rather than `t <= snr`: NaN must pass every threshold.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn bytes(&self, snr_db: f64) -> u32 {
        let level = self.thresholds.iter().filter(|&&t| !(snr_db < t)).count();
        self.levels[level]
    }

    /// The SNRs at which the rate steps up, ascending: each is the
    /// smallest f64 giving its level.
    #[must_use]
    pub fn thresholds(&self) -> &[f64] {
        &self.thresholds
    }
}

/// Maps an f64 to a u64 whose unsigned order is the f64 order
/// (−∞ < … < −0.0 < +0.0 < … < +∞; NaNs lie outside that range).
fn order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Inverse of [`order_key`].
fn from_order_key(key: u64) -> f64 {
    if key >> 63 == 1 {
        f64::from_bits(key & !(1 << 63))
    } else {
        f64::from_bits(!key)
    }
}

/// The combined SNR → rate process, advanced one TTI at a time.
#[derive(Debug, Clone)]
pub struct RateProcess {
    config: FadingConfig,
    budget: LinkBudget,
    fast_db: f64,
    shadow_db: f64,
    drift_db: f64,
    drift_direction: f64,
    rho_fast: f64,
    shadow_step: f64,
    /// `sqrt(1 − ρ²)·σ_fast`: scale of the AR(1) innovation.
    fast_innovation: f64,
    /// `σ_shadow·sqrt(2·step)`: the OU diffusion per TTI.
    shadow_diffusion: f64,
    /// `drift rate · TTI`: the mean drift step.
    drift_step: f64,
}

impl RateProcess {
    /// Creates the process in its stationary state (fast/shadow start at
    /// zero deviation; drift starts centred).
    #[must_use]
    pub fn new(config: FadingConfig, budget: LinkBudget) -> Self {
        let tti_s = budget.tti.as_secs_f64();
        let rho_fast = (-tti_s / config.fast_coherence.as_secs_f64().max(1e-9)).exp();
        let shadow_step = tti_s / config.shadow_tau.as_secs_f64().max(1e-9);
        Self {
            config,
            budget,
            fast_db: 0.0,
            shadow_db: 0.0,
            drift_db: 0.0,
            drift_direction: 1.0,
            rho_fast,
            shadow_step,
            fast_innovation: (1.0 - rho_fast * rho_fast).sqrt() * config.fast_sigma_db,
            shadow_diffusion: config.shadow_sigma_db * (2.0 * shadow_step).sqrt(),
            drift_step: config.drift_rate_db_per_s * tti_s,
        }
    }

    /// The configured TTI.
    #[must_use]
    pub fn tti(&self) -> SimDuration {
        self.budget.tti
    }

    /// Current instantaneous SNR in dB.
    #[must_use]
    pub fn snr_db(&self) -> f64 {
        self.config.mean_snr_db + self.fast_db + self.shadow_db + self.drift_db
    }

    /// Advances one TTI and returns the new instantaneous SNR in dB.
    #[inline]
    pub fn advance<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        // Fast fading: AR(1) with stationary sigma fast_sigma_db.
        let innovation = self.fast_innovation * Normal::standard(rng);
        self.fast_db = self.rho_fast * self.fast_db + innovation;

        // Shadowing: Euler–Maruyama OU step towards 0.
        if self.config.shadow_sigma_db > 0.0 {
            self.shadow_db +=
                -self.shadow_step * self.shadow_db + self.shadow_diffusion * Normal::standard(rng);
        }

        // Mobility drift: reflecting random-ish walk in [-range, +range].
        if self.config.drift_range_db > 0.0 && self.config.drift_rate_db_per_s > 0.0 {
            let step = self.drift_step * (1.0 + 0.5 * Normal::standard(rng));
            self.drift_db += self.drift_direction * step;
            if self.drift_db.abs() > self.config.drift_range_db {
                self.drift_db = self
                    .drift_db
                    .clamp(-self.config.drift_range_db, self.config.drift_range_db);
                self.drift_direction = -self.drift_direction;
            }
        }

        self.snr_db()
    }

    /// Advances one TTI and returns the cell's deliverable bytes in it,
    /// straight from [`LinkBudget::bytes_per_tti`] (the cell scheduler
    /// reads the same map through a [`RateTable`]).
    pub fn next_tti<R: Rng + ?Sized>(&mut self, rng: &mut R) -> u32 {
        let snr_db = self.advance(rng);
        self.budget.bytes_per_tti(snr_db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use verus_stats::Running;

    #[test]
    fn budget_saturates_at_peak() {
        let b = LinkBudget::lte(10e6);
        let at_peak = b.bytes_per_tti(22.0);
        let above = b.bytes_per_tti(40.0);
        assert_eq!(at_peak, above);
        // 10 Mbit/s over 1 ms = 1250 bytes.
        assert_eq!(at_peak, 1250);
    }

    #[test]
    fn budget_is_monotone_in_snr() {
        let b = LinkBudget::hspa(5e6);
        let mut prev = 0;
        for snr10 in -100..300 {
            let r = b.bytes_per_tti(snr10 as f64 / 10.0);
            assert!(r >= prev, "rate dropped at snr {}", snr10 as f64 / 10.0);
            prev = r;
        }
    }

    #[test]
    fn budget_zero_deep_fade() {
        let b = LinkBudget::lte(10e6);
        assert_eq!(b.bytes_per_tti(-30.0), 0);
    }

    #[test]
    fn budget_is_quantized() {
        let b = LinkBudget::lte(15e6);
        let mut levels = std::collections::BTreeSet::new();
        for snr10 in -60..240 {
            levels.insert(b.bytes_per_tti(snr10 as f64 / 10.0));
        }
        // at most cqi_steps+1 distinct levels (incl. zero)
        assert!(levels.len() <= 16, "{} levels", levels.len());
        assert!(levels.len() >= 8, "{} levels", levels.len());
    }

    #[test]
    fn process_mean_rate_tracks_mean_snr() {
        let cfg = FadingConfig::stationary();
        let budget = LinkBudget::lte(10e6);
        let expected = budget.bytes_per_tti(cfg.mean_snr_db);
        let mut p = RateProcess::new(cfg, budget);
        let mut rng = StdRng::seed_from_u64(1);
        let mut r = Running::new();
        for _ in 0..200_000 {
            r.push(f64::from(p.next_tti(&mut rng)));
        }
        // Mean within 25% of the zero-deviation rate (fading is zero-mean
        // in dB but the rate map is concave, so some bias is expected).
        assert!(
            (r.mean() - f64::from(expected)).abs() < 0.25 * f64::from(expected),
            "mean {} vs {}",
            r.mean(),
            expected
        );
        // And it actually varies.
        assert!(r.std_dev() > 0.0);
    }

    #[test]
    fn driving_varies_more_than_stationary() {
        let budget = LinkBudget::lte(10e6);
        let run = |cfg: FadingConfig, seed: u64| {
            let mut p = RateProcess::new(cfg, budget);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut r = Running::new();
            // aggregate per-100ms windows to see slow-scale variation
            for _ in 0..600 {
                let mut w = 0.0;
                for _ in 0..100 {
                    w += f64::from(p.next_tti(&mut rng));
                }
                r.push(w);
            }
            r
        };
        let stationary = run(FadingConfig::stationary(), 7);
        let driving = run(FadingConfig::driving(), 7);
        assert!(
            driving.std_dev() / driving.mean() > stationary.std_dev() / stationary.mean(),
            "driving CoV {} <= stationary CoV {}",
            driving.std_dev() / driving.mean(),
            stationary.std_dev() / stationary.mean()
        );
    }

    #[test]
    fn drift_stays_bounded() {
        let cfg = FadingConfig::driving();
        let mut p = RateProcess::new(cfg, LinkBudget::lte(10e6));
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100_000 {
            p.next_tti(&mut rng);
            assert!(p.drift_db.abs() <= cfg.drift_range_db + 1e-9);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mk = || {
            let mut p = RateProcess::new(FadingConfig::pedestrian(), LinkBudget::hspa(5e6));
            let mut rng = StdRng::seed_from_u64(99);
            (0..1000).map(|_| p.next_tti(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }
}
