//! Composable link impairments: the fault-injection stage between the
//! flows and the bottleneck.
//!
//! The paper evaluates Verus under seven mobility scenarios whose worst
//! moments — handovers, deep fades, tunnel entries — show up to the
//! transport as burst loss, reordering and multi-second outages. The
//! simulator's base channel only models queueing drops and i.i.d. radio
//! loss, so the recovery machinery (gap timers, RTO backoff, slow-start
//! re-entry) was barely exercised. This module injects those stress
//! conditions deterministically:
//!
//! * **random / burst loss** — i.i.d. Bernoulli or a two-state
//!   Gilbert–Elliott chain (good/bad states with per-state loss rates);
//! * **reordering** — a packet is held back by an extra delay at the
//!   moment it leaves the bottleneck, so later packets overtake it;
//! * **duplication** — a second copy of the packet enters the queue;
//! * **corruption** — the packet traverses the link but fails its
//!   checksum at the receiver and is discarded;
//! * **blackouts** — timed link outages (handover gaps): packets sent
//!   during a blackout are lost and the bottleneck stops serving.
//!
//! Every injected event is counted in the packet-conservation ledger
//! (see [`crate::invariants::packet_conservation`]): an impaired packet
//! moves to `impaired_lost` / `corrupt_dropped`, and an injected
//! duplicate adds to `dup_injected` on the *sent* side of the equation,
//! so the ledger stays exact under any impairment mix.
//!
//! # Determinism
//!
//! All random decisions come from a private [SplitMix64] stream seeded
//! from the configured seed — not from the simulation's main RNG — so
//! adding or removing impairments never perturbs the base channel's
//! random sequence, and a given `(config, seed)` pair replays the exact
//! same fault schedule on both the simulator and the socket emulator.
//!
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c

use verus_nettypes::{SimDuration, SimTime};

/// Stochastic loss process applied to each packet entering the link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossModel {
    /// No stochastic impairment loss.
    None,
    /// Independent loss with probability `p` per packet.
    Bernoulli {
        /// Per-packet loss probability in `[0, 1]`.
        p: f64,
    },
    /// Two-state Gilbert–Elliott burst-loss chain. The chain steps once
    /// per packet; each state has its own loss rate.
    GilbertElliott {
        /// Transition probability good → bad (per packet).
        p_good_to_bad: f64,
        /// Transition probability bad → good (per packet).
        p_bad_to_good: f64,
        /// Loss rate while in the good state (usually ~0).
        loss_good: f64,
        /// Loss rate while in the bad state (usually high).
        loss_bad: f64,
    },
}

impl LossModel {
    /// Mean (stationary) loss rate of the model.
    #[must_use]
    pub fn mean_loss(&self) -> f64 {
        match *self {
            LossModel::None => 0.0,
            LossModel::Bernoulli { p } => p,
            LossModel::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                loss_good,
                loss_bad,
            } => {
                // Stationary distribution of the two-state chain.
                let denom = p_good_to_bad + p_bad_to_good;
                if denom <= 0.0 {
                    return loss_good;
                }
                let pi_bad = p_good_to_bad / denom;
                loss_good * (1.0 - pi_bad) + loss_bad * pi_bad
            }
        }
    }
}

/// A timed link outage (e.g. a handover gap): the link carries nothing
/// between `start` and `start + duration`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Blackout {
    /// When the outage begins.
    pub start: SimTime,
    /// How long it lasts.
    pub duration: SimDuration,
}

impl Blackout {
    /// Whether `now` falls inside the outage window.
    #[must_use]
    pub fn contains(&self, now: SimTime) -> bool {
        now >= self.start && now < self.start + self.duration
    }

    /// When the outage ends.
    #[must_use]
    pub fn end(&self) -> SimTime {
        self.start + self.duration
    }
}

/// The full impairment pipeline configuration. `Default` is a no-op
/// pipeline (every existing configuration keeps its behaviour).
#[derive(Debug, Clone, PartialEq)]
pub struct ImpairmentConfig {
    /// Stochastic loss process.
    pub loss: LossModel,
    /// Probability a departing packet is held back for
    /// [`Self::reorder_extra_delay`], letting later packets overtake it.
    pub reorder_prob: f64,
    /// Extra one-way delay applied to reordered packets.
    pub reorder_extra_delay: SimDuration,
    /// Probability a packet entering the link is duplicated.
    pub duplicate_prob: f64,
    /// Probability a departing packet is corrupted (delivered to the
    /// receiver's checksum, then discarded).
    pub corrupt_prob: f64,
    /// Scheduled link outages. Windows must be sorted by start time and
    /// non-overlapping ([`Self::validate`] rejects anything else): a
    /// schedule with touching-but-disjoint windows is unambiguous, while
    /// overlap almost always means two generators were merged without
    /// normalization — `crate::chaos` scripts emit pre-merged windows.
    pub blackouts: Vec<Blackout>,
    /// Seed for the private impairment RNG stream.
    pub seed: u64,
}

impl Default for ImpairmentConfig {
    fn default() -> Self {
        Self {
            loss: LossModel::None,
            reorder_prob: 0.0,
            reorder_extra_delay: SimDuration::from_millis(50),
            duplicate_prob: 0.0,
            corrupt_prob: 0.0,
            blackouts: Vec::new(),
            seed: 0,
        }
    }
}

impl ImpairmentConfig {
    /// Whether any impairment is actually configured.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.loss == LossModel::None
            && self.reorder_prob == 0.0
            && self.duplicate_prob == 0.0
            && self.corrupt_prob == 0.0
            && self.blackouts.is_empty()
    }

    /// Validates probability ranges and blackout windows.
    ///
    /// Probabilities must be finite and in `[0, 1]` — NaN and negative
    /// values get their own messages because they are the two silent
    /// config-generation bugs (a NaN compares false to everything, so a
    /// bare range check "passes through" it in the wrong direction; a
    /// negative probability usually means a subtraction underflowed).
    /// Blackout windows must be non-empty, sorted by start time, and
    /// non-overlapping.
    pub fn validate(&self) -> Result<(), String> {
        let probs: &[(&str, f64)] = &[
            ("reorder_prob", self.reorder_prob),
            ("duplicate_prob", self.duplicate_prob),
            ("corrupt_prob", self.corrupt_prob),
        ];
        for &(name, p) in probs {
            check_probability(name, p)?;
        }
        match self.loss {
            LossModel::None => {}
            LossModel::Bernoulli { p } => {
                check_probability("Bernoulli loss p", p)?;
            }
            LossModel::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                loss_good,
                loss_bad,
            } => {
                for (name, p) in [
                    ("Gilbert–Elliott p_good_to_bad", p_good_to_bad),
                    ("Gilbert–Elliott p_bad_to_good", p_bad_to_good),
                    ("Gilbert–Elliott loss_good", loss_good),
                    ("Gilbert–Elliott loss_bad", loss_bad),
                ] {
                    check_probability(name, p)?;
                }
            }
        }
        for (i, b) in self.blackouts.iter().enumerate() {
            if b.duration == SimDuration::ZERO {
                return Err(format!("blackout {i} has zero duration"));
            }
        }
        for (i, pair) in self.blackouts.windows(2).enumerate() {
            let (prev, next) = (&pair[0], &pair[1]);
            if next.start < prev.start {
                return Err(format!(
                    "blackouts must be sorted by start: window {} starts at {} ns, \
                     before window {} at {} ns",
                    i + 1,
                    next.start.as_nanos(),
                    i,
                    prev.start.as_nanos(),
                ));
            }
            if next.start < prev.end() {
                return Err(format!(
                    "blackouts must not overlap: window {} starts at {} ns, \
                     inside window {} (ends {} ns)",
                    i + 1,
                    next.start.as_nanos(),
                    i,
                    prev.end().as_nanos(),
                ));
            }
        }
        Ok(())
    }
}

/// Rejects NaN and out-of-range probabilities with cause-specific
/// messages (see [`ImpairmentConfig::validate`]).
fn check_probability(name: &str, p: f64) -> Result<(), String> {
    if p.is_nan() {
        return Err(format!("{name} must not be NaN"));
    }
    if p < 0.0 {
        return Err(format!("{name} must not be negative, got {p}"));
    }
    if p > 1.0 {
        return Err(format!("{name} must be in [0, 1], got {p}"));
    }
    Ok(())
}

/// Minimal deterministic PRNG (SplitMix64). The impairment layer owns
/// its own generator so fault schedules replay identically regardless of
/// what the rest of the system does with its RNG.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the stream.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform sample in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// What happens to a packet as it enters the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngressFate {
    /// Lost to a blackout or the stochastic loss process.
    Lost,
    /// Enters the queue normally.
    Pass {
        /// Whether a duplicate copy also enters the queue.
        duplicate: bool,
    },
}

/// What happens to a packet as it leaves the bottleneck.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EgressFate {
    /// The packet is corrupted and will be discarded at the receiver.
    pub corrupted: bool,
    /// Extra forward delay (reordering), if rolled.
    pub extra_delay: Option<SimDuration>,
}

/// Runtime state of the impairment pipeline: configuration + private RNG
/// + the Gilbert–Elliott chain state.
#[derive(Debug, Clone)]
pub struct Impairments {
    config: ImpairmentConfig,
    rng: SplitMix64,
    ge_bad: bool,
}

impl Impairments {
    /// Builds the pipeline. The Gilbert–Elliott chain starts in the good
    /// state.
    #[must_use]
    pub fn new(config: ImpairmentConfig) -> Self {
        let seed = config.seed;
        Self {
            config,
            rng: SplitMix64::new(seed),
            ge_bad: false,
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &ImpairmentConfig {
        &self.config
    }

    /// Whether the link is blacked out at `now`.
    #[must_use]
    pub fn in_blackout(&self, now: SimTime) -> bool {
        self.config.blackouts.iter().any(|b| b.contains(now))
    }

    /// When the blackout covering `now` ends (the latest end among
    /// overlapping windows), or `None` if the link is up.
    #[must_use]
    pub fn blackout_end(&self, now: SimTime) -> Option<SimTime> {
        let mut end: Option<SimTime> = None;
        let mut t = now;
        // Chase overlapping/adjacent windows to the union's end.
        loop {
            let Some(b) = self.config.blackouts.iter().find(|b| b.contains(t)) else {
                break;
            };
            t = b.end();
            end = Some(t);
        }
        end
    }

    /// All configured blackout end times (for pre-scheduling wake-ups).
    #[must_use]
    pub fn blackout_ends(&self) -> Vec<SimTime> {
        self.config.blackouts.iter().map(Blackout::end).collect()
    }

    /// Decides the fate of a packet entering the link at `now`. Steps
    /// the Gilbert–Elliott chain once per call.
    pub fn on_ingress(&mut self, now: SimTime) -> IngressFate {
        if self.in_blackout(now) {
            return IngressFate::Lost;
        }
        let loss_p = match self.config.loss {
            LossModel::None => 0.0,
            LossModel::Bernoulli { p } => p,
            LossModel::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                loss_good,
                loss_bad,
            } => {
                let flip = if self.ge_bad {
                    p_bad_to_good
                } else {
                    p_good_to_bad
                };
                if self.rng.next_f64() < flip {
                    self.ge_bad = !self.ge_bad;
                }
                if self.ge_bad {
                    loss_bad
                } else {
                    loss_good
                }
            }
        };
        if loss_p > 0.0 && self.rng.next_f64() < loss_p {
            return IngressFate::Lost;
        }
        let duplicate =
            self.config.duplicate_prob > 0.0 && self.rng.next_f64() < self.config.duplicate_prob;
        IngressFate::Pass { duplicate }
    }

    /// Decides the fate of a packet leaving the bottleneck: corruption
    /// (discard at the receiver) and reordering (extra delay).
    pub fn on_egress(&mut self) -> EgressFate {
        let corrupted =
            self.config.corrupt_prob > 0.0 && self.rng.next_f64() < self.config.corrupt_prob;
        let extra_delay = if !corrupted
            && self.config.reorder_prob > 0.0
            && self.rng.next_f64() < self.config.reorder_prob
        {
            Some(self.config.reorder_extra_delay)
        } else {
            None
        };
        EgressFate {
            corrupted,
            extra_delay,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_losses(mut imp: Impairments, n: usize) -> usize {
        (0..n)
            .filter(|_| imp.on_ingress(SimTime::ZERO) == IngressFate::Lost)
            .count()
    }

    #[test]
    fn default_config_is_noop() {
        let cfg = ImpairmentConfig::default();
        assert!(cfg.is_noop());
        assert!(cfg.validate().is_ok());
        let mut imp = Impairments::new(cfg);
        for _ in 0..100 {
            assert_eq!(imp.on_ingress(SimTime::ZERO), IngressFate::Pass { duplicate: false });
            let e = imp.on_egress();
            assert!(!e.corrupted);
            assert!(e.extra_delay.is_none());
        }
    }

    #[test]
    fn splitmix_is_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = SplitMix64::new(43);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn bernoulli_loss_rate_matches_p() {
        let cfg = ImpairmentConfig {
            loss: LossModel::Bernoulli { p: 0.1 },
            seed: 1,
            ..ImpairmentConfig::default()
        };
        let lost = count_losses(Impairments::new(cfg), 20_000);
        let rate = lost as f64 / 20_000.0;
        assert!((rate - 0.1).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn gilbert_elliott_losses_are_bursty() {
        // Mean loss ≈ 10% (π_bad = 0.02/(0.02+0.18) = 0.1, loss_bad = 1),
        // but delivered as bursts while the chain sits in the bad state.
        let cfg = ImpairmentConfig {
            loss: LossModel::GilbertElliott {
                p_good_to_bad: 0.02,
                p_bad_to_good: 0.18,
                loss_good: 0.0,
                loss_bad: 1.0,
            },
            seed: 2,
            ..ImpairmentConfig::default()
        };
        assert!((cfg.loss.mean_loss() - 0.1).abs() < 1e-9);
        let mut imp = Impairments::new(cfg);
        let fates: Vec<bool> = (0..50_000)
            .map(|_| imp.on_ingress(SimTime::ZERO) == IngressFate::Lost)
            .collect();
        let rate = fates.iter().filter(|&&l| l).count() as f64 / fates.len() as f64;
        assert!((rate - 0.1).abs() < 0.02, "mean rate {rate}");
        // Burstiness: P(loss | previous loss) must far exceed the mean
        // rate — the defining property of the Gilbert–Elliott model.
        let mut after_loss = 0usize;
        let mut loss_then_loss = 0usize;
        for w in fates.windows(2) {
            if w[0] {
                after_loss += 1;
                if w[1] {
                    loss_then_loss += 1;
                }
            }
        }
        let cond = loss_then_loss as f64 / after_loss.max(1) as f64;
        assert!(cond > 0.5, "P(loss|loss) = {cond}, not bursty");
    }

    #[test]
    fn blackout_windows_apply_and_union_overlaps() {
        let cfg = ImpairmentConfig {
            blackouts: vec![
                Blackout {
                    start: SimTime::from_secs(10),
                    duration: SimDuration::from_secs(3),
                },
                Blackout {
                    start: SimTime::from_secs(12),
                    duration: SimDuration::from_secs(2),
                },
            ],
            ..ImpairmentConfig::default()
        };
        let mut imp = Impairments::new(cfg);
        assert!(!imp.in_blackout(SimTime::from_secs(9)));
        assert!(imp.in_blackout(SimTime::from_secs(10)));
        assert!(imp.in_blackout(SimTime::from_millis(13_500)));
        assert!(!imp.in_blackout(SimTime::from_secs(14)));
        // Overlapping windows union: end is 14 s, not 13 s.
        assert_eq!(
            imp.blackout_end(SimTime::from_millis(10_500)),
            Some(SimTime::from_secs(14))
        );
        assert_eq!(imp.blackout_end(SimTime::from_secs(20)), None);
        assert_eq!(imp.on_ingress(SimTime::from_secs(11)), IngressFate::Lost);
    }

    #[test]
    fn duplication_and_corruption_roll() {
        let cfg = ImpairmentConfig {
            duplicate_prob: 0.5,
            corrupt_prob: 0.5,
            reorder_prob: 0.5,
            seed: 3,
            ..ImpairmentConfig::default()
        };
        let mut imp = Impairments::new(cfg);
        let mut dups = 0;
        let mut corrupts = 0;
        let mut reorders = 0;
        for _ in 0..2000 {
            if let IngressFate::Pass { duplicate: true } = imp.on_ingress(SimTime::ZERO) {
                dups += 1;
            }
            let e = imp.on_egress();
            if e.corrupted {
                corrupts += 1;
            }
            if e.extra_delay.is_some() {
                reorders += 1;
            }
        }
        assert!((800..1200).contains(&dups), "dups {dups}");
        assert!((800..1200).contains(&corrupts), "corrupts {corrupts}");
        // Reorder only rolls on non-corrupted packets: ≈ 0.5 · 0.5.
        assert!((300..700).contains(&reorders), "reorders {reorders}");
    }

    #[test]
    fn validation_rejects_bad_probabilities() {
        let bad = ImpairmentConfig {
            reorder_prob: 1.5,
            ..ImpairmentConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = ImpairmentConfig {
            loss: LossModel::GilbertElliott {
                p_good_to_bad: -0.1,
                p_bad_to_good: 0.5,
                loss_good: 0.0,
                loss_bad: 1.0,
            },
            ..ImpairmentConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = ImpairmentConfig {
            blackouts: vec![Blackout {
                start: SimTime::ZERO,
                duration: SimDuration::ZERO,
            }],
            ..ImpairmentConfig::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn validation_rejects_nan_probabilities_by_name() {
        let bad = ImpairmentConfig {
            corrupt_prob: f64::NAN,
            ..ImpairmentConfig::default()
        };
        let err = bad.validate().expect_err("NaN must be rejected");
        assert!(err.contains("corrupt_prob"), "{err}");
        assert!(err.contains("NaN"), "{err}");
        let bad = ImpairmentConfig {
            loss: LossModel::Bernoulli { p: f64::NAN },
            ..ImpairmentConfig::default()
        };
        let err = bad.validate().expect_err("NaN loss p must be rejected");
        assert!(err.contains("NaN"), "{err}");
        let bad = ImpairmentConfig {
            loss: LossModel::GilbertElliott {
                p_good_to_bad: 0.1,
                p_bad_to_good: 0.5,
                loss_good: 0.0,
                loss_bad: f64::NAN,
            },
            ..ImpairmentConfig::default()
        };
        let err = bad.validate().expect_err("NaN GE rate must be rejected");
        assert!(err.contains("loss_bad"), "{err}");
        assert!(err.contains("NaN"), "{err}");
    }

    #[test]
    fn validation_rejects_negative_probabilities_by_name() {
        let bad = ImpairmentConfig {
            duplicate_prob: -0.25,
            ..ImpairmentConfig::default()
        };
        let err = bad.validate().expect_err("negative must be rejected");
        assert!(err.contains("duplicate_prob"), "{err}");
        assert!(err.contains("negative"), "{err}");
    }

    #[test]
    fn validation_rejects_unsorted_blackouts() {
        let bad = ImpairmentConfig {
            blackouts: vec![
                Blackout {
                    start: SimTime::from_secs(10),
                    duration: SimDuration::from_secs(1),
                },
                Blackout {
                    start: SimTime::from_secs(5),
                    duration: SimDuration::from_secs(1),
                },
            ],
            ..ImpairmentConfig::default()
        };
        let err = bad.validate().expect_err("unsorted must be rejected");
        assert!(err.contains("sorted"), "{err}");
    }

    #[test]
    fn validation_rejects_overlapping_blackouts() {
        let bad = ImpairmentConfig {
            blackouts: vec![
                Blackout {
                    start: SimTime::from_secs(10),
                    duration: SimDuration::from_secs(3),
                },
                Blackout {
                    start: SimTime::from_secs(12),
                    duration: SimDuration::from_secs(2),
                },
            ],
            ..ImpairmentConfig::default()
        };
        let err = bad.validate().expect_err("overlap must be rejected");
        assert!(err.contains("overlap"), "{err}");
    }

    #[test]
    fn validation_accepts_touching_sorted_blackouts() {
        let ok = ImpairmentConfig {
            blackouts: vec![
                Blackout {
                    start: SimTime::from_secs(10),
                    duration: SimDuration::from_secs(2),
                },
                // Starts exactly where the previous ends: disjoint.
                Blackout {
                    start: SimTime::from_secs(12),
                    duration: SimDuration::from_secs(2),
                },
            ],
            ..ImpairmentConfig::default()
        };
        assert!(ok.validate().is_ok());
    }
}
