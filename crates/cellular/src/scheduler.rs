//! The TTI radio scheduler model.
//!
//! §3's "burst scheduling" observation: "the radio scheduler serves users
//! at different one millisecond Transmission Time Intervals (TTI) and the
//! amount of data sent during the serving TTI is determined by radio
//! conditions, which leads to sending a burst of several packets". This
//! module models exactly that mechanism with a **proportional-fair (PF)
//! scheduler** over per-user fading processes:
//!
//! * each user has its own [`RateProcess`] (independent fast fading);
//! * each TTI the scheduler serves the backlogged user with the highest
//!   PF metric `instantaneous rate / smoothed served throughput`;
//! * a served user gets the whole TTI (one burst), so receiver-side
//!   arrivals are bursty with sizes set by radio conditions and gaps set
//!   by scheduling — reproducing Figures 1 and 2 without curve fitting;
//! * users compete for the *same* TTIs, so a saturating neighbour
//!   inflates a CBR user's queueing delay — Figure 3's effect.
//!
//! Per-user FIFO queues at the base station are modelled so the harness
//! can report per-packet queueing delays (what Figure 3 plots) as well as
//! delivery traces (what the trace-driven evaluation replays).

use crate::fading::{FadingConfig, LinkBudget, RateProcess, RateTable};
use crate::trace::{Opportunity, Trace, TraceError};
use rand::Rng;
use std::collections::VecDeque;
use verus_nettypes::{SimDuration, SimTime};

/// Offered load of one user.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Demand {
    /// Always has data to receive (full-buffer).
    Saturated,
    /// Constant bit rate in bits per second.
    Cbr {
        /// Offered rate.
        rate_bps: f64,
    },
    /// ON/OFF CBR (Figure 3's second user): `rate_bps` during ON periods,
    /// silent during OFF, starting ON at t = 0.
    OnOff {
        /// Offered rate while ON.
        rate_bps: f64,
        /// ON period length.
        on: SimDuration,
        /// OFF period length.
        off: SimDuration,
    },
}

/// One user attached to the cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UserConfig {
    /// Offered load.
    pub demand: Demand,
    /// Radio environment of this user.
    pub fading: FadingConfig,
}

/// The cell: link budget shared by all users.
#[derive(Debug, Clone, PartialEq)]
pub struct CellConfig {
    /// Technology link budget (TTI length, peak rate, MCS ladder).
    pub budget: LinkBudget,
    /// Attached users.
    pub users: Vec<UserConfig>,
    /// EWMA weight on history for the PF throughput average
    /// (0.99 ≈ a 100-TTI PF horizon, the classic choice).
    pub pf_alpha: f64,
    /// Packet size used to quantize CBR arrivals into queued packets.
    pub packet_bytes: u32,
    /// Per-user base-station buffer in bytes; CBR arrivals beyond it are
    /// dropped (cellular buffers are deep but finite — this is what turns
    /// persistent overload into bounded "bufferbloat" delay rather than
    /// an unbounded queue).
    pub user_queue_bytes: u64,
}

impl CellConfig {
    /// A cell with the given budget and users, default PF horizon and the
    /// paper's 1400-byte MTU.
    #[must_use]
    pub fn new(budget: LinkBudget, users: Vec<UserConfig>) -> Self {
        Self {
            budget,
            users,
            pf_alpha: 0.99,
            packet_bytes: 1400,
            user_queue_bytes: 400_000,
        }
    }
}

/// Per-user simulation outcome.
#[derive(Debug, Clone)]
pub struct UserResult {
    /// Delivery opportunities actually granted to this user.
    pub opportunities: Vec<Opportunity>,
    /// Per-packet queueing delays for CBR/OnOff users:
    /// `(departure time, delay in queue)`. Empty for saturated users
    /// (their queue is notional).
    pub delays: Vec<(SimTime, SimDuration)>,
    /// Total bytes delivered.
    pub delivered_bytes: u64,
    /// Packets dropped at the (finite) base-station buffer.
    pub dropped: u64,
}

impl UserResult {
    /// Converts the granted opportunities into a [`Trace`].
    pub fn into_trace(self, name: impl Into<String>) -> Result<Trace, TraceError> {
        Trace::new(name, self.opportunities)
    }
}

/// Most packets one user may be offered per TTI. Arrivals are queued one
/// packet at a time, so a larger offer would stall the run; 65 536
/// packets per 1 ms TTI is ~730 Gbit/s at the 1400-byte MTU.
pub const MAX_PACKETS_PER_TTI: f64 = 65_536.0;

impl CellConfig {
    /// Checks the configuration can be simulated: at least one user, a PF
    /// weight in (0, 1), a nonzero packet size, finite non-negative
    /// offered rates of at most [`MAX_PACKETS_PER_TTI`] packets per TTI,
    /// and a valid [`LinkBudget`].
    pub(crate) fn validate(&self) -> Result<(), TraceError> {
        let invalid = |field, requirement| Err(TraceError::InvalidCell { field, requirement });
        self.budget.validate()?;
        if self.users.is_empty() {
            return invalid("users", "must not be empty");
        }
        if !(self.pf_alpha > 0.0 && self.pf_alpha < 1.0) {
            return invalid("pf_alpha", "must be in (0, 1)");
        }
        if self.packet_bytes == 0 {
            return invalid("packet_bytes", "must be positive");
        }
        let packets_per_bps = self.budget.tti.as_secs_f64() / 8.0 / f64::from(self.packet_bytes);
        for u in &self.users {
            let rate_bps = match u.demand {
                Demand::Saturated => continue,
                Demand::Cbr { rate_bps } | Demand::OnOff { rate_bps, .. } => rate_bps,
            };
            if !(rate_bps.is_finite() && rate_bps >= 0.0) {
                return invalid("users[].demand.rate_bps", "must be finite and non-negative");
            }
            if rate_bps * packets_per_bps > MAX_PACKETS_PER_TTI {
                return invalid(
                    "users[].demand.rate_bps",
                    "must offer at most MAX_PACKETS_PER_TTI packets per TTI",
                );
            }
        }
        Ok(())
    }
}

struct UserState {
    process: RateProcess,
    demand: Demand,
    /// PF throughput average (bytes/TTI).
    pf_avg: f64,
    /// This TTI's deliverable bytes at the user's current SNR.
    capacity: u32,
    /// Queued packets: (arrival time, remaining bytes).
    queue: VecDeque<(SimTime, u32)>,
    /// Sum of the queue's remaining bytes.
    backlog_bytes: u64,
    /// Fractional-byte accumulator for CBR arrivals.
    arrival_accum: f64,
    result: UserResult,
}

impl UserState {
    fn backlogged(&self) -> bool {
        matches!(self.demand, Demand::Saturated) || !self.queue.is_empty()
    }
}

/// Runs the cell for `duration`, returning one [`UserResult`] per user in
/// input order, or [`TraceError::InvalidCell`] if `config` cannot be
/// simulated: no users, `pf_alpha` outside (0, 1), zero `packet_bytes`,
/// an offered rate that is not finite and non-negative or exceeds
/// [`MAX_PACKETS_PER_TTI`], or an invalid [`LinkBudget`] (see
/// [`RateTable::new`]).
pub fn run_cell<R: Rng + ?Sized>(
    config: &CellConfig,
    duration: SimDuration,
    rng: &mut R,
) -> Result<Vec<UserResult>, TraceError> {
    config.validate()?;
    let rate_table = RateTable::new(&config.budget)?;
    let tti = config.budget.tti;
    let tti_s = tti.as_secs_f64();
    let n_ttis = duration.as_nanos() / tti.as_nanos();
    let packet_bytes = f64::from(config.packet_bytes);

    let mut users: Vec<UserState> = config
        .users
        .iter()
        .map(|u| UserState {
            process: RateProcess::new(u.fading, config.budget),
            demand: u.demand,
            pf_avg: 1.0,
            capacity: 0,
            queue: VecDeque::new(),
            backlog_bytes: 0,
            arrival_accum: 0.0,
            result: UserResult {
                opportunities: Vec::new(),
                delays: Vec::new(),
                delivered_bytes: 0,
                dropped: 0,
            },
        })
        .collect();

    for tti_idx in 0..n_ttis {
        let now = SimTime::from_nanos(tti_idx * tti.as_nanos());

        // 1. Arrivals: CBR users accumulate packets into their queue.
        for u in &mut users {
            let rate = match u.demand {
                Demand::Saturated => 0.0,
                Demand::Cbr { rate_bps } => rate_bps,
                Demand::OnOff { rate_bps, on, off } => {
                    let cycle = (on + off).as_nanos().max(1);
                    let phase = now.as_nanos() % cycle;
                    if phase < on.as_nanos() {
                        rate_bps
                    } else {
                        0.0
                    }
                }
            };
            if rate > 0.0 {
                u.arrival_accum += rate * tti_s / 8.0;
                while u.arrival_accum >= packet_bytes {
                    u.arrival_accum -= packet_bytes;
                    if u.backlog_bytes + u64::from(config.packet_bytes) > config.user_queue_bytes {
                        u.result.dropped += 1;
                    } else {
                        u.queue.push_back((now, config.packet_bytes));
                        u.backlog_bytes += u64::from(config.packet_bytes);
                    }
                }
            }
        }

        // 2. Each user's radio advances every TTI regardless of service.
        for u in &mut users {
            u.capacity = rate_table.bytes(u.process.advance(rng));
        }

        // 3. PF selection among backlogged users with a usable channel.
        let winner = users
            .iter()
            .enumerate()
            .filter(|(_, u)| u.backlogged() && u.capacity > 0)
            .map(|(i, u)| (i, f64::from(u.capacity) / u.pf_avg.max(1e-9)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(i, _)| i);

        // 4. Service + PF average update.
        for (i, u) in users.iter_mut().enumerate() {
            let mut served: u32 = 0;
            if Some(i) == winner {
                let capacity = u.capacity;
                match u.demand {
                    Demand::Saturated => served = capacity,
                    _ => {
                        // Drain queued packets into this TTI.
                        let mut budget = capacity;
                        while budget > 0 {
                            let Some(&(arrived, remaining)) = u.queue.front() else {
                                break;
                            };
                            if remaining <= budget {
                                budget -= remaining;
                                u.queue.pop_front();
                                u.result.delays.push((now, now.saturating_since(arrived)));
                            } else {
                                // Partially served packet stays at head.
                                u.queue[0] = (arrived, remaining - budget);
                                budget = 0;
                            }
                        }
                        served = capacity - budget;
                        u.backlog_bytes -= u64::from(served);
                    }
                }
                if served > 0 {
                    u.result.opportunities.push(Opportunity {
                        time: now,
                        bytes: served,
                    });
                    u.result.delivered_bytes += u64::from(served);
                }
            }
            u.pf_avg = config.pf_alpha * u.pf_avg + (1.0 - config.pf_alpha) * f64::from(served);
        }
    }

    Ok(users.into_iter().map(|u| u.result).collect())
}

/// Convenience: the capacity trace seen by a saturated user competing
/// with `background` other users, each with the same fading profile.
pub fn saturated_user_trace<R: Rng + ?Sized>(
    name: impl Into<String>,
    budget: LinkBudget,
    fading: FadingConfig,
    background: Vec<UserConfig>,
    duration: SimDuration,
    rng: &mut R,
) -> Result<Trace, TraceError> {
    let mut users = vec![UserConfig {
        demand: Demand::Saturated,
        fading,
    }];
    users.extend(background);
    let config = CellConfig::new(budget, users);
    let mut results = run_cell(&config, duration, rng)?;
    results.remove(0).into_trace(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn budget() -> LinkBudget {
        LinkBudget::lte(10e6)
    }

    #[test]
    fn single_saturated_user_gets_all_ttis() {
        let cfg = CellConfig::new(
            budget(),
            vec![UserConfig {
                demand: Demand::Saturated,
                fading: FadingConfig::stationary(),
            }],
        );
        let duration = SimDuration::from_secs(5);
        let mut rng = StdRng::seed_from_u64(1);
        let res = run_cell(&cfg, duration, &mut rng).unwrap();
        let trace = res.into_iter().next().unwrap();
        // Alone in the cell, the user is served in every TTI its channel
        // allows, at that TTI's full capacity: replaying its rate process
        // from the same seed gives the delivered bytes and opportunities.
        let mut replay = RateProcess::new(FadingConfig::stationary(), budget());
        let mut rng = StdRng::seed_from_u64(1);
        let capacities: Vec<u32> = (0..duration.as_nanos() / budget().tti.as_nanos())
            .map(|_| replay.next_tti(&mut rng))
            .collect();
        assert_eq!(
            trace.delivered_bytes,
            capacities.iter().map(|&c| u64::from(c)).sum::<u64>()
        );
        assert_eq!(
            trace.opportunities.len(),
            capacities.iter().filter(|&&c| c > 0).count()
        );
        // No more than the 10 Mbit/s cell peak.
        let mbps = trace.delivered_bytes as f64 * 8.0 / 5.0 / 1e6;
        assert!(mbps <= 10.0, "rate {mbps} Mbit/s");
    }

    #[test]
    fn two_saturated_users_split_capacity_fairly() {
        let user = UserConfig {
            demand: Demand::Saturated,
            fading: FadingConfig::stationary(),
        };
        let cfg = CellConfig::new(budget(), vec![user, user]);
        let mut rng = StdRng::seed_from_u64(2);
        // PF equalizes throughput only on timescales long against the
        // shadowing process (τ = 12 s for the stationary profile): over a
        // few τ each user's shadow fade averages out, while a run
        // comparable to τ is a single quasi-static draw and any split is
        // possible. 60 s ≈ 5τ keeps the check meaningful and fast.
        let secs = 60.0;
        let res = run_cell(&cfg, SimDuration::from_secs(secs as u64), &mut rng).unwrap();
        let a = res[0].delivered_bytes as f64;
        let b = res[1].delivered_bytes as f64;
        assert!((a / b - 1.0).abs() < 0.15, "split {a} vs {b}");
        // PF exploits peaks: the sum should exceed half-capacity each.
        assert!(a + b > 0.5 * 10e6 / 8.0 * secs);
    }

    #[test]
    fn cbr_user_is_served_at_its_rate() {
        let cfg = CellConfig::new(
            budget(),
            vec![UserConfig {
                demand: Demand::Cbr { rate_bps: 2e6 },
                fading: FadingConfig::stationary(),
            }],
        );
        let mut rng = StdRng::seed_from_u64(3);
        let res = run_cell(&cfg, SimDuration::from_secs(10), &mut rng).unwrap();
        let mbps = res[0].delivered_bytes as f64 * 8.0 / 10.0 / 1e6;
        assert!((mbps - 2.0).abs() < 0.1, "CBR delivered {mbps} Mbit/s");
        // Uncontended CBR well below capacity ⇒ small delays.
        let mean_delay_ms = res[0]
            .delays
            .iter()
            .map(|(_, d)| d.as_millis_f64())
            .sum::<f64>()
            / res[0].delays.len() as f64;
        assert!(mean_delay_ms < 20.0, "mean delay {mean_delay_ms} ms");
    }

    #[test]
    fn competing_saturated_user_inflates_cbr_delay() {
        // Figure 3's mechanism: user 1 at a fixed rate, user 2 saturating.
        let cbr = UserConfig {
            demand: Demand::Cbr { rate_bps: 5e6 },
            fading: FadingConfig::stationary(),
        };
        let hog = UserConfig {
            demand: Demand::Saturated,
            fading: FadingConfig::stationary(),
        };
        let alone = CellConfig::new(budget(), vec![cbr]);
        let contended = CellConfig::new(budget(), vec![cbr, hog]);
        let mean_delay = |cfg: &CellConfig, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let res = run_cell(cfg, SimDuration::from_secs(20), &mut rng).unwrap();
            let d = &res[0].delays;
            d.iter().map(|(_, x)| x.as_millis_f64()).sum::<f64>() / d.len().max(1) as f64
        };
        let d_alone = mean_delay(&alone, 4);
        let d_contended = mean_delay(&contended, 4);
        assert!(
            d_contended > 2.0 * d_alone,
            "contention did not inflate delay: {d_alone} → {d_contended}"
        );
    }

    #[test]
    fn onoff_user_alternates() {
        let cfg = CellConfig::new(
            budget(),
            vec![UserConfig {
                demand: Demand::OnOff {
                    rate_bps: 4e6,
                    on: SimDuration::from_secs(1),
                    off: SimDuration::from_secs(1),
                },
                fading: FadingConfig::stationary(),
            }],
        );
        let mut rng = StdRng::seed_from_u64(5);
        let res = run_cell(&cfg, SimDuration::from_secs(10), &mut rng).unwrap();
        // ~half duty cycle → ~2 Mbit/s average.
        let mbps = res[0].delivered_bytes as f64 * 8.0 / 10.0 / 1e6;
        assert!((mbps - 2.0).abs() < 0.25, "OnOff delivered {mbps} Mbit/s");
        // All deliveries during ON phases (allowing queue drain spill-over
        // of a few ms into the OFF phase).
        for o in &res[0].opportunities {
            let phase_ms = o.time.as_millis() % 2000;
            assert!(phase_ms < 1100, "delivery deep into OFF at {phase_ms} ms");
        }
    }

    #[test]
    fn saturated_trace_helper_produces_valid_trace() {
        let mut rng = StdRng::seed_from_u64(6);
        let t = saturated_user_trace(
            "test",
            budget(),
            FadingConfig::pedestrian(),
            vec![],
            SimDuration::from_secs(3),
            &mut rng,
        )
        .unwrap();
        assert!(t.mean_rate_bps() > 1e6);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = CellConfig::new(
            budget(),
            vec![
                UserConfig {
                    demand: Demand::Saturated,
                    fading: FadingConfig::driving(),
                },
                UserConfig {
                    demand: Demand::Cbr { rate_bps: 1e6 },
                    fading: FadingConfig::stationary(),
                },
            ],
        );
        let run = || {
            let mut rng = StdRng::seed_from_u64(11);
            run_cell(&cfg, SimDuration::from_secs(2), &mut rng)
                .unwrap()
                .iter()
                .map(|r| r.delivered_bytes)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
