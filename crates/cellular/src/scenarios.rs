//! The paper's measurement scenarios as named channel models.
//!
//! §5.3 collects 5-minute traces on Etisalat's 3G HSPA+ network in seven
//! scenarios ("Campus stationary, Campus pedestrian, City stationary,
//! City driving, Highway driving, Shopping Mall and City waterfront"),
//! and §3 measures two operators (Etisalat and Du) on both 3G and LTE.
//! The real traces are proprietary; each scenario here is a parameter set
//! for the [`crate::scheduler`] cell model chosen to match the *described*
//! conditions: mobility class (stationary / pedestrian / vehicular) sets
//! the fading profile, venue sets the contention level (a shopping mall
//! has many competing users; a highway cell few), and the operator model
//! sets TTI length and peak rate.

use crate::fading::{FadingConfig, LinkBudget};
use crate::scheduler::{saturated_user_trace, Demand, UserConfig};
use crate::trace::{Trace, TraceError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use verus_nettypes::{SimDuration, SimTime};

/// Operator/technology models from the §3 measurements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperatorModel {
    /// Du 3G/HSPA+ (2 ms TTI).
    Du3G,
    /// Etisalat 3G/HSPA+ (2 ms TTI) — the network §5.3's traces come from.
    Etisalat3G,
    /// Du LTE (1 ms TTI): "more frequent smaller bursts".
    DuLte,
    /// Etisalat LTE (1 ms TTI).
    EtisalatLte,
}

impl OperatorModel {
    /// All four §3 models.
    #[must_use]
    pub fn all() -> [OperatorModel; 4] {
        [
            Self::Du3G,
            Self::Etisalat3G,
            Self::DuLte,
            Self::EtisalatLte,
        ]
    }

    /// Display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Du3G => "Du 3G",
            Self::Etisalat3G => "Etisalat 3G",
            Self::DuLte => "Du LTE",
            Self::EtisalatLte => "Etisalat LTE",
        }
    }

    /// Whether this is an LTE model (1 ms TTI).
    #[must_use]
    pub fn is_lte(&self) -> bool {
        matches!(self, Self::DuLte | Self::EtisalatLte)
    }

    /// The link budget: peak rate and TTI.
    ///
    /// The §5.3 measurements ran at 5 Mbit/s downlink on 3G "close to the
    /// upper limits of the network"; LTE measurements in §3 ran at
    /// 10 Mbit/s with headroom. Peaks are set accordingly, with a small
    /// operator split so Du/Etisalat PDFs in Figure 2 don't coincide.
    #[must_use]
    pub fn budget(&self) -> LinkBudget {
        match self {
            Self::Du3G => LinkBudget::hspa(7.0e6),
            Self::Etisalat3G => LinkBudget::hspa(8.0e6),
            Self::DuLte => LinkBudget::lte(18.0e6),
            Self::EtisalatLte => LinkBudget::lte(22.0e6),
        }
    }
}

/// The seven §5.3 measurement scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// Stationary on campus: clean channel, light contention.
    CampusStationary,
    /// Walking on campus.
    CampusPedestrian,
    /// Stationary downtown: moderate contention.
    CityStationary,
    /// Slow driving within the city with traffic signals.
    CityDriving,
    /// Fast driving on the highway.
    HighwayDriving,
    /// Shopping mall: heavy contention, indoor shadowing.
    ShoppingMall,
    /// City waterfront: open area, moderate everything.
    CityWaterfront,
}

impl Scenario {
    /// All seven scenarios.
    #[must_use]
    pub fn all() -> [Scenario; 7] {
        [
            Self::CampusStationary,
            Self::CampusPedestrian,
            Self::CityStationary,
            Self::CityDriving,
            Self::HighwayDriving,
            Self::ShoppingMall,
            Self::CityWaterfront,
        ]
    }

    /// The five scenarios the macro-evaluation reports over (Table 1's
    /// "average fairness index across all five different scenarios"):
    /// one per distinct mobility/venue class.
    #[must_use]
    pub fn evaluation_five() -> [Scenario; 5] {
        [
            Self::CampusStationary,
            Self::CampusPedestrian,
            Self::CityDriving,
            Self::HighwayDriving,
            Self::ShoppingMall,
        ]
    }

    /// Display name matching the paper's wording.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::CampusStationary => "Campus stationary",
            Self::CampusPedestrian => "Campus pedestrian",
            Self::CityStationary => "City stationary",
            Self::CityDriving => "City driving",
            Self::HighwayDriving => "Highway driving",
            Self::ShoppingMall => "Shopping mall",
            Self::CityWaterfront => "City waterfront",
        }
    }

    /// The measured user's radio environment in this scenario.
    #[must_use]
    pub fn fading(&self) -> FadingConfig {
        match self {
            Self::CampusStationary => FadingConfig::stationary(),
            Self::CampusPedestrian => FadingConfig::pedestrian(),
            Self::CityStationary => FadingConfig {
                mean_snr_db: 10.0,
                shadow_sigma_db: 3.5,
                ..FadingConfig::stationary()
            },
            Self::CityDriving => FadingConfig {
                // signals → stop-and-go: long shadow tau, big drift
                shadow_tau: SimDuration::from_secs(8),
                ..FadingConfig::driving()
            },
            Self::HighwayDriving => FadingConfig {
                fast_coherence: SimDuration::from_millis(3),
                drift_rate_db_per_s: 3.0,
                drift_range_db: 10.0,
                ..FadingConfig::driving()
            },
            Self::ShoppingMall => FadingConfig {
                mean_snr_db: 8.0, // indoor penetration loss
                shadow_sigma_db: 4.5,
                ..FadingConfig::pedestrian()
            },
            Self::CityWaterfront => FadingConfig {
                mean_snr_db: 14.0, // open area, line of sight
                shadow_sigma_db: 1.5,
                ..FadingConfig::pedestrian()
            },
        }
    }

    /// Background users contending in the cell (venue-dependent).
    #[must_use]
    pub fn background(&self) -> Vec<UserConfig> {
        let cbr = |rate_bps: f64| UserConfig {
            demand: Demand::Cbr { rate_bps },
            fading: FadingConfig::stationary(),
        };
        let onoff = |rate_bps: f64, on_s: u64, off_s: u64| UserConfig {
            demand: Demand::OnOff {
                rate_bps,
                on: SimDuration::from_secs(on_s),
                off: SimDuration::from_secs(off_s),
            },
            fading: FadingConfig::pedestrian(),
        };
        match self {
            Self::CampusStationary => vec![cbr(0.5e6)],
            Self::CampusPedestrian => vec![cbr(0.5e6), onoff(1.0e6, 20, 40)],
            Self::CityStationary => vec![cbr(1.0e6), onoff(2.0e6, 15, 30)],
            Self::CityDriving => vec![cbr(1.0e6), onoff(1.5e6, 10, 20)],
            Self::HighwayDriving => vec![cbr(0.3e6)],
            Self::ShoppingMall => vec![
                cbr(1.0e6),
                cbr(0.8e6),
                onoff(2.0e6, 10, 15),
                onoff(1.5e6, 20, 20),
            ],
            Self::CityWaterfront => vec![cbr(0.5e6), onoff(1.0e6, 30, 60)],
        }
    }

    /// Generates the capacity trace a saturating user sees in this
    /// scenario on `operator`'s network — the §5.3 trace-collection
    /// procedure, synthesized.
    pub fn generate_trace(
        &self,
        operator: OperatorModel,
        duration: SimDuration,
        seed: u64,
    ) -> Result<Trace, TraceError> {
        let mut rng = StdRng::seed_from_u64(seed);
        saturated_user_trace(
            format!("{} / {}", operator.name(), self.name()),
            operator.budget(),
            self.fading(),
            self.background(),
            duration,
            &mut rng,
        )
    }
}

/// An outage train: `repeats` link-dead windows of `outage`, separated
/// by `gap` of live link, starting at `start`.
///
/// Plain data on purpose: the cellular crate describes *what* the
/// channel does, and the simulator's chaos layer (which this crate
/// cannot depend on) compiles the same numbers into impairment
/// windows. Keeping the parameters here — single-sourced — is what
/// lets the tournament bench and the chaos soak impair the link
/// identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutageTrain {
    /// First outage onset.
    pub start: SimTime,
    /// Length of each outage.
    pub outage: SimDuration,
    /// Live time between consecutive outages.
    pub gap: SimDuration,
    /// Number of outages.
    pub repeats: u64,
}

impl OutageTrain {
    /// The `(start, end)` window of each outage, in order — the shape
    /// the omniscient planner consumes.
    #[must_use]
    pub fn windows(&self) -> Vec<(SimTime, SimTime)> {
        (0..self.repeats)
            .map(|i| {
                let s = self.start + (self.outage + self.gap) * i;
                (s, s + self.outage)
            })
            .collect()
    }
}

/// Stress scenarios beyond the paper's seven: the conditions the
/// successor literature (PAPERS.md) shows break delay-sensitive
/// controllers. Each is a *named parameter set* shared by the
/// tournament bench and the chaos soak so both harnesses exercise the
/// identical channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StressScenario {
    /// Periodic sub-second handover gaps with mild reordering while
    /// driving: the inter-cell mobility pattern.
    HandoverStorm,
    /// A deep-buffered cell shared by many saturating users — the
    /// bufferbloat regime Sprout/C2TCP target.
    DeepBufferMultiUser,
    /// Multi-second total blackouts with full recovery gaps: the
    /// paper's §6 outage experiment, repeated.
    BlackoutRecovery,
}

impl StressScenario {
    /// All three stress scenarios.
    #[must_use]
    pub fn all() -> [StressScenario; 3] {
        [
            Self::HandoverStorm,
            Self::DeepBufferMultiUser,
            Self::BlackoutRecovery,
        ]
    }

    /// Display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::HandoverStorm => "Handover storm",
            Self::DeepBufferMultiUser => "Deep-buffer multi-user",
            Self::BlackoutRecovery => "Blackout recovery",
        }
    }

    /// The outage train this scenario imposes on top of its capacity
    /// trace, if any. The deep-buffer cell keeps the link up — its
    /// stress is contention and standing queues, not outages.
    #[must_use]
    pub fn outage_train(&self) -> Option<OutageTrain> {
        match self {
            Self::HandoverStorm => Some(OutageTrain {
                // 400 ms gap every 4 s: the §3-style inter-cell
                // handover cadence of sustained driving.
                start: SimTime::from_secs(2),
                outage: SimDuration::from_millis(400),
                gap: SimDuration::from_millis(3600),
                repeats: 6,
            }),
            Self::DeepBufferMultiUser => None,
            Self::BlackoutRecovery => Some(OutageTrain {
                // The chaos soak's full-mode train: 2 s dead, 4 s to
                // recover, three times, first onset at 5 s.
                start: SimTime::from_secs(5),
                outage: SimDuration::from_secs(2),
                gap: SimDuration::from_secs(4),
                repeats: 3,
            }),
        }
    }

    /// Probability a packet is reordered (handovers shuffle in-flight
    /// packets between cells; the other scenarios deliver in order).
    #[must_use]
    pub fn reorder_prob(&self) -> f64 {
        match self {
            Self::HandoverStorm => 0.02,
            _ => 0.0,
        }
    }

    /// How many competing measured flows the scenario runs through the
    /// bottleneck (the deep-buffer cell is defined by its crowd).
    #[must_use]
    pub fn flows(&self) -> usize {
        match self {
            Self::DeepBufferMultiUser => 8,
            _ => 1,
        }
    }

    /// The measured user's radio environment.
    #[must_use]
    pub fn fading(&self) -> FadingConfig {
        match self {
            // Sustained driving between cells: fast fading, big drift.
            Self::HandoverStorm => FadingConfig {
                fast_coherence: SimDuration::from_millis(3),
                drift_rate_db_per_s: 3.0,
                ..FadingConfig::driving()
            },
            // Indoors among a crowd: penetration loss + shadowing.
            Self::DeepBufferMultiUser => FadingConfig {
                mean_snr_db: 9.0,
                shadow_sigma_db: 4.0,
                ..FadingConfig::pedestrian()
            },
            // The link itself is clean — the stress is the outages.
            Self::BlackoutRecovery => FadingConfig::stationary(),
        }
    }

    /// Background users contending in the cell.
    #[must_use]
    pub fn background(&self) -> Vec<UserConfig> {
        let cbr = |rate_bps: f64| UserConfig {
            demand: Demand::Cbr { rate_bps },
            fading: FadingConfig::stationary(),
        };
        let onoff = |rate_bps: f64, on_s: u64, off_s: u64| UserConfig {
            demand: Demand::OnOff {
                rate_bps,
                on: SimDuration::from_secs(on_s),
                off: SimDuration::from_secs(off_s),
            },
            fading: FadingConfig::pedestrian(),
        };
        match self {
            Self::HandoverStorm => vec![cbr(0.5e6)],
            // Heavier than the shopping mall: the cell is the stress.
            Self::DeepBufferMultiUser => vec![
                cbr(1.0e6),
                cbr(0.8e6),
                cbr(0.6e6),
                onoff(2.0e6, 10, 10),
                onoff(1.5e6, 15, 15),
                onoff(1.0e6, 20, 10),
            ],
            Self::BlackoutRecovery => vec![cbr(0.5e6)],
        }
    }

    /// Generates the capacity trace for this scenario (outages are NOT
    /// baked into the trace — they are applied by the simulator's
    /// impairment layer from [`Self::outage_train`], exactly as the
    /// chaos soak does, so the same trace serves both harnesses).
    pub fn generate_trace(
        &self,
        operator: OperatorModel,
        duration: SimDuration,
        seed: u64,
    ) -> Result<Trace, TraceError> {
        let mut rng = StdRng::seed_from_u64(seed);
        saturated_user_trace(
            format!("{} / {}", operator.name(), self.name()),
            operator.budget(),
            self.fading(),
            self.background(),
            duration,
            &mut rng,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::burst::{burst_stats, trace_bursts};

    const FIVE_SECONDS: SimDuration = SimDuration::from_secs(5);

    #[test]
    fn every_scenario_generates_a_trace() {
        for s in Scenario::all() {
            let t = s
                .generate_trace(OperatorModel::Etisalat3G, FIVE_SECONDS, 42)
                .unwrap();
            assert!(t.mean_rate_bps() > 0.5e6, "{}: {}", s.name(), t.mean_rate_bps());
            assert!(!t.is_empty());
        }
    }

    #[test]
    fn lte_has_more_frequent_smaller_bursts_than_3g() {
        // The §3 observation the models must reproduce.
        let s = Scenario::CampusStationary;
        let gap = SimDuration::from_millis_f64(0.5);
        let t3g = s
            .generate_trace(OperatorModel::Etisalat3G, SimDuration::from_secs(30), 7)
            .unwrap();
        let tlte = s
            .generate_trace(OperatorModel::EtisalatLte, SimDuration::from_secs(30), 7)
            .unwrap();
        let b3g = burst_stats(&trace_bursts(&t3g, gap)).unwrap();
        let blte = burst_stats(&trace_bursts(&tlte, gap)).unwrap();
        assert!(
            blte.count > b3g.count,
            "LTE bursts {} !> 3G bursts {}",
            blte.count,
            b3g.count
        );
        assert!(
            blte.inter_arrival_ms.mean < b3g.inter_arrival_ms.mean,
            "LTE gaps {} !< 3G gaps {}",
            blte.inter_arrival_ms.mean,
            b3g.inter_arrival_ms.mean
        );
    }

    #[test]
    fn mall_yields_less_capacity_than_campus() {
        let campus = Scenario::CampusStationary
            .generate_trace(OperatorModel::Etisalat3G, SimDuration::from_secs(30), 9)
            .unwrap();
        let mall = Scenario::ShoppingMall
            .generate_trace(OperatorModel::Etisalat3G, SimDuration::from_secs(30), 9)
            .unwrap();
        assert!(
            mall.mean_rate_bps() < campus.mean_rate_bps(),
            "mall {} !< campus {}",
            mall.mean_rate_bps(),
            campus.mean_rate_bps()
        );
    }

    #[test]
    fn traces_are_deterministic_per_seed() {
        let a = Scenario::CityDriving
            .generate_trace(OperatorModel::DuLte, FIVE_SECONDS, 5)
            .unwrap();
        let b = Scenario::CityDriving
            .generate_trace(OperatorModel::DuLte, FIVE_SECONDS, 5)
            .unwrap();
        assert_eq!(a, b);
        let c = Scenario::CityDriving
            .generate_trace(OperatorModel::DuLte, FIVE_SECONDS, 6)
            .unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn names_cover_paper_wording() {
        let names: Vec<_> = Scenario::all().iter().map(|s| s.name()).collect();
        assert!(names.contains(&"Campus stationary"));
        assert!(names.contains(&"Highway driving"));
        assert_eq!(names.len(), 7);
    }

    #[test]
    fn evaluation_five_is_subset_of_all() {
        let all = Scenario::all();
        for s in Scenario::evaluation_five() {
            assert!(all.contains(&s));
        }
    }

    #[test]
    fn every_stress_scenario_generates_a_trace() {
        for s in StressScenario::all() {
            let t = s
                .generate_trace(OperatorModel::Etisalat3G, FIVE_SECONDS, 42)
                .unwrap();
            assert!(t.mean_rate_bps() > 0.3e6, "{}: {}", s.name(), t.mean_rate_bps());
            assert!(!t.is_empty());
        }
    }

    #[test]
    fn stress_traces_are_deterministic_per_seed() {
        let a = StressScenario::HandoverStorm
            .generate_trace(OperatorModel::DuLte, FIVE_SECONDS, 5)
            .unwrap();
        let b = StressScenario::HandoverStorm
            .generate_trace(OperatorModel::DuLte, FIVE_SECONDS, 5)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn outage_trains_lay_out_disjoint_windows() {
        for s in StressScenario::all() {
            let Some(train) = s.outage_train() else {
                continue;
            };
            let windows = train.windows();
            assert_eq!(windows.len() as u64, train.repeats);
            for pair in windows.windows(2) {
                assert!(pair[1].0 > pair[0].1, "{}: overlap {windows:?}", s.name());
            }
        }
    }

    #[test]
    fn stress_parameters_match_their_stories() {
        // Handovers reorder; nothing else does.
        assert!(StressScenario::HandoverStorm.reorder_prob() > 0.0);
        assert_eq!(StressScenario::BlackoutRecovery.reorder_prob(), 0.0);
        // The deep-buffer cell is a crowd with the link up.
        assert_eq!(StressScenario::DeepBufferMultiUser.flows(), 8);
        assert!(StressScenario::DeepBufferMultiUser.outage_train().is_none());
        // The blackout train is the chaos soak's full-mode script.
        let t = StressScenario::BlackoutRecovery.outage_train().unwrap();
        assert_eq!(t.start, SimTime::from_secs(5));
        assert_eq!(t.outage, SimDuration::from_secs(2));
        assert_eq!(t.gap, SimDuration::from_secs(4));
        assert_eq!(t.repeats, 3);
    }
}
