//! Property-based tests for the cellular substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use verus_cellular::burst::detect_bursts;
use verus_cellular::fading::{FadingConfig, LinkBudget, RateTable};
use verus_cellular::scheduler::{run_cell, CellConfig, Demand, UserConfig};
use verus_cellular::trace::{Opportunity, Trace, TraceError};
use verus_cellular::{OperatorModel, Scenario};
use verus_nettypes::{SimDuration, SimTime};

/// The f64 `k` representable steps above `x` (below, for negative `k`),
/// stepping through ±0.0 as adjacent values.
fn ulps_from(x: f64, k: i64) -> f64 {
    let bits = x.to_bits();
    let key = if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    };
    let key = key.wrapping_add_signed(k);
    if key >> 63 == 1 {
        f64::from_bits(key & !(1 << 63))
    } else {
        f64::from_bits(!key)
    }
}

/// A sorted trace of positive length: opportunities may sit at t = 0,
/// but the last one never does (`Trace::new` rejects a zero-length
/// trace; its own unit tests cover that).
fn arbitrary_trace() -> impl Strategy<Value = Trace> {
    proptest::collection::vec((0u64..5_000, 1u32..60_000), 1..200).prop_map(|mut items| {
        items.sort_by_key(|&(t, _)| t);
        if let Some(last) = items.last_mut() {
            last.0 = last.0.max(1);
        }
        Trace::new(
            "prop",
            items
                .into_iter()
                .map(|(t, bytes)| Opportunity {
                    time: SimTime::from_micros(t * 100),
                    bytes,
                })
                .collect(),
        )
        .expect("sorted, non-empty, positive length")
    })
}

/// Offered rates from zero (and the smallest subnormal) through a band
/// that straddles `MAX_PACKETS_PER_TTI` packets per TTI for both link
/// budgets, plus values `CellConfig::validate` must reject.
fn extreme_rate_bps() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(f64::from_bits(1)),
        Just(f64::MIN_POSITIVE),
        1.0f64..1e9,
        1e11f64..1e12,
        Just(1e30),
        Just(f64::INFINITY),
        Just(f64::NAN),
        Just(-1.0),
    ]
}

/// ON/OFF period lengths from zero through ones whose sum with any other
/// overflows a `SimDuration`.
fn extreme_period() -> impl Strategy<Value = SimDuration> {
    prop_oneof![
        Just(0u64),
        Just(1u64),
        1u64..10_000_000,
        Just(u64::MAX / 2),
        Just(u64::MAX / 2 + 1),
        u64::MAX - 1_000..u64::MAX,
        Just(u64::MAX),
    ]
    .prop_map(SimDuration::from_nanos)
}

fn extreme_demand() -> impl Strategy<Value = Demand> {
    prop_oneof![
        1 => Just(Demand::Saturated),
        2 => extreme_rate_bps().prop_map(|rate_bps| Demand::Cbr { rate_bps }),
        4 => (extreme_rate_bps(), extreme_period(), extreme_period())
            .prop_map(|(rate_bps, on, off)| Demand::OnOff { rate_bps, on, off }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Mahimahi round-trip preserves total capacity to within one MTU
    /// and never unsorts timestamps.
    #[test]
    fn mahimahi_preserves_capacity(trace in arbitrary_trace()) {
        let mut buf = Vec::new();
        trace.save_mahimahi(&mut buf).unwrap();
        if buf.is_empty() {
            // a tiny trace may not fill a single MTU — that's the only
            // case allowed to produce no lines
            prop_assert!(trace.total_bytes() < 1500);
            return Ok(());
        }
        let reloaded = Trace::load_mahimahi("r", &buf[..]).unwrap();
        let diff = trace.total_bytes().abs_diff(reloaded.total_bytes());
        prop_assert!(diff < 1500, "capacity drifted by {diff} B");
        for w in reloaded.opportunities().windows(2) {
            prop_assert!(w[1].time >= w[0].time);
        }
    }

    /// extend_to never shrinks and reaches the requested duration.
    #[test]
    fn extend_to_covers_duration(trace in arbitrary_trace(), extra_ms in 1u64..2_000) {
        let target = trace.duration() + SimDuration::from_millis(extra_ms);
        let extended = trace.extend_to(target);
        prop_assert!(extended.duration() >= target);
        prop_assert!(extended.len() >= trace.len());
    }

    /// scale_rate scales total bytes by the factor (within rounding).
    #[test]
    fn scale_rate_scales_bytes(trace in arbitrary_trace(), factor in 0.1f64..5.0) {
        let scaled = trace.scale_rate(factor);
        let expected = trace.total_bytes() as f64 * factor;
        let got = scaled.total_bytes() as f64;
        // each opportunity rounds to ≥ 1 byte
        let slack = trace.len() as f64 + expected * 0.01;
        prop_assert!((got - expected).abs() <= slack.max(1.0),
            "expected ~{expected}, got {got}");
    }

    /// Burst detection is a partition: packet and byte counts are
    /// conserved, and bursts are time-ordered and non-overlapping.
    #[test]
    fn bursts_partition_arrivals(trace in arbitrary_trace(), gap_us in 50u64..100_000) {
        let arrivals: Vec<(SimTime, u32)> = trace
            .opportunities()
            .iter()
            .map(|o| (o.time, o.bytes))
            .collect();
        let bursts = detect_bursts(&arrivals, SimDuration::from_micros(gap_us));
        let packets: u32 = bursts.iter().map(|b| b.packets).sum();
        let bytes: u64 = bursts.iter().map(|b| b.bytes).sum();
        prop_assert_eq!(packets as usize, arrivals.len());
        prop_assert_eq!(bytes, trace.total_bytes());
        for w in bursts.windows(2) {
            prop_assert!(w[0].end < w[1].start, "bursts overlap");
        }
        for b in &bursts {
            prop_assert!(b.start <= b.end);
        }
    }

    /// The link budget's rate map is monotone in SNR for any budget, and
    /// its lookup table equals the formula everywhere: on a 0.001 dB
    /// sweep, within ±256 ULPs of every threshold, and at ±∞ and NaN
    /// (the formula gives NaN the peak level, through `f64::min`).
    #[test]
    fn rate_map_monotone(
        peak_mbps in 0.1f64..200.0,
        snr_at_peak_db in 1.0f64..40.0,
        cqi_steps in 1u32..32,
        lte in proptest::bool::ANY,
    ) {
        let tti = if lte { LinkBudget::lte(1.0).tti } else { LinkBudget::hspa(1.0).tti };
        let budget = LinkBudget { peak_rate_bps: peak_mbps * 1e6, snr_at_peak_db, tti, cqi_steps };
        let table = RateTable::new(&budget).unwrap();
        let mut prev = 0u32;
        for snr_milli_db in -40_000i32..=40_000 {
            let snr = f64::from(snr_milli_db) / 1000.0;
            let r = budget.bytes_per_tti(snr);
            prop_assert!(r >= prev, "rate dropped at {snr} dB");
            prop_assert_eq!(table.bytes(snr), r, "at {} dB", snr);
            prev = r;
        }
        prop_assert!(table.thresholds().len() <= cqi_steps as usize);
        for &t in table.thresholds() {
            for k in -256i64..=256 {
                let snr = ulps_from(t, k);
                prop_assert_eq!(table.bytes(snr), budget.bytes_per_tti(snr), "at {:e} dB", snr);
            }
        }
        for snr in [f64::NEG_INFINITY, f64::INFINITY, f64::NAN, -f64::NAN, -0.0, 0.0] {
            prop_assert_eq!(table.bytes(snr), budget.bytes_per_tti(snr), "at {} dB", snr);
        }
    }

    /// Cell-scheduler conservation: per-user delivered bytes equal the
    /// sum of that user's granted opportunities, and CBR users never
    /// receive more than they offered.
    #[test]
    fn scheduler_conserves_bytes(
        rate_mbps in 0.2f64..5.0,
        seed in 0u64..500,
    ) {
        let cell = CellConfig::new(
            LinkBudget::hspa(8e6),
            vec![
                UserConfig {
                    demand: Demand::Saturated,
                    fading: FadingConfig::stationary(),
                },
                UserConfig {
                    demand: Demand::Cbr { rate_bps: rate_mbps * 1e6 },
                    fading: FadingConfig::pedestrian(),
                },
            ],
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let results = run_cell(&cell, SimDuration::from_secs(5), &mut rng).unwrap();
        for r in &results {
            let granted: u64 = r.opportunities.iter().map(|o| u64::from(o.bytes)).sum();
            prop_assert_eq!(granted, r.delivered_bytes);
        }
        // CBR user cannot exceed its offered load (+1 queued packet).
        let offered = rate_mbps * 1e6 / 8.0 * 5.0;
        prop_assert!(results[1].delivered_bytes as f64 <= offered + 1400.0 * 2.0,
            "CBR over-delivered: {} of {offered}", results[1].delivered_bytes);
    }
    /// Extreme demands never panic `run_cell`: it either runs or rejects
    /// the cell with `InvalidCell`, and an ON/OFF cycle whose `on + off`
    /// overflows is always rejected.
    #[test]
    fn extreme_demands_run_or_are_rejected(
        demands in proptest::collection::vec(extreme_demand(), 1..4),
        lte in proptest::bool::ANY,
        run_ms in 0u64..25,
        seed in 0u64..1_000,
    ) {
        let budget = if lte { LinkBudget::lte(10e6) } else { LinkBudget::hspa(8e6) };
        let users: Vec<UserConfig> = demands
            .iter()
            .map(|&demand| UserConfig { demand, fading: FadingConfig::driving() })
            .collect();
        let overflows = demands.iter().any(|d| match *d {
            Demand::OnOff { on, off, .. } => on.as_nanos().checked_add(off.as_nanos()).is_none(),
            _ => false,
        });
        let cell = CellConfig::new(budget, users);
        let mut rng = StdRng::seed_from_u64(seed);
        match run_cell(&cell, SimDuration::from_millis(run_ms), &mut rng) {
            Ok(results) => {
                prop_assert!(!overflows, "overflowing cycle accepted: {:?}", demands);
                prop_assert_eq!(results.len(), demands.len());
                for r in &results {
                    let granted: u64 = r.opportunities.iter().map(|o| u64::from(o.bytes)).sum();
                    prop_assert_eq!(granted, r.delivered_bytes);
                }
            }
            Err(TraceError::InvalidCell { .. }) => {}
            Err(e) => prop_assert!(false, "wrong error {} for {:?}", e, demands),
        }
    }
}

/// Scenario generation is total: every (scenario, operator) pair yields a
/// usable trace at several durations. (Plain test: the input space is
/// finite.)
#[test]
fn scenario_matrix_is_total() {
    for scenario in Scenario::all() {
        for op in OperatorModel::all() {
            let t = scenario
                .generate_trace(op, SimDuration::from_secs(3), 77)
                .expect("generation");
            assert!(t.mean_rate_bps() > 1e5, "{} / {}", scenario.name(), op.name());
        }
    }
}

/// The scheduler keeps each user's queued bytes as a running total; a
/// replay that re-sums the queue from scratch must agree with it. A CBR
/// user offered 3× the cell's peak rate fills its buffer and drops the
/// excess, never holds more than `user_queue_bytes`, and every packet
/// offered is fully delivered, still queued at the end, or dropped.
#[test]
fn overloaded_cbr_backlog_is_bounded_and_conserved() {
    let budget = LinkBudget::hspa(8e6);
    let rate_bps = 3.0 * budget.peak_rate_bps;
    let mut cell = CellConfig::new(
        budget,
        vec![UserConfig {
            demand: Demand::Cbr { rate_bps },
            fading: FadingConfig::stationary(),
        }],
    );
    cell.user_queue_bytes = 50_000;
    let duration = SimDuration::from_secs(10);
    let mut rng = StdRng::seed_from_u64(21);
    let result = run_cell(&cell, duration, &mut rng).unwrap().remove(0);
    assert!(result.dropped > 0, "a 3x overload must drop");

    // Replay the queue: arrivals follow the scheduler's CBR accumulator,
    // service is the granted opportunities (the user is alone in the
    // cell, so each TTI's grant is all its own).
    let packet = cell.packet_bytes;
    let tti = budget.tti;
    let mut queue: VecDeque<u32> = VecDeque::new();
    let (mut offered, mut dropped, mut completed) = (0u64, 0u64, 0u64);
    let mut accum = 0.0f64;
    let mut grants = result.opportunities.iter().peekable();
    for i in 0..duration.as_nanos() / tti.as_nanos() {
        let now = SimTime::from_nanos(i * tti.as_nanos());
        accum += rate_bps * tti.as_secs_f64() / 8.0;
        while accum >= f64::from(packet) {
            accum -= f64::from(packet);
            offered += 1;
            let backlog: u64 = queue.iter().map(|&b| u64::from(b)).sum();
            if backlog + u64::from(packet) > cell.user_queue_bytes {
                dropped += 1;
            } else {
                queue.push_back(packet);
            }
        }
        let backlog: u64 = queue.iter().map(|&b| u64::from(b)).sum();
        assert!(
            backlog <= cell.user_queue_bytes,
            "{backlog} B queued at {now:?}"
        );
        if let Some(grant) = grants.next_if(|o| o.time == now) {
            let mut left = grant.bytes;
            while left > 0 {
                let head = queue.front_mut().expect("granted more than the backlog");
                if *head <= left {
                    left -= *head;
                    queue.pop_front();
                    completed += 1;
                } else {
                    *head -= left;
                    left = 0;
                }
            }
        }
    }
    assert!(grants.next().is_none(), "grant outside the TTI grid");
    assert_eq!(dropped, result.dropped);
    assert_eq!(completed, result.delays.len() as u64);
    let queued = queue.len() as u64;
    assert!(
        queued > 0,
        "an overloaded queue is still backlogged at the end"
    );
    assert_eq!(offered, completed + queued + dropped);
    let expected = rate_bps / 8.0 * duration.as_secs_f64() / f64::from(packet);
    assert!(
        (offered as f64 - expected).abs() <= 1.0,
        "offered {offered} of {expected}"
    );
}
