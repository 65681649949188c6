//! Golden digests of generated channels.
//!
//! Every trace the cellular model synthesizes is a pure function of its
//! seed, and the committed figures, tournament and benchmark results are
//! functions of those traces. These tests pin an FNV-1a digest of each
//! trace's `(time_ns, bytes)` sequence, so any change to the generator
//! that alters a single RNG draw, a single f64 rounding or a single
//! scheduling decision fails here — not silently in a re-rendered figure.
//! A deliberate fidelity change re-pins the values and says why.

use rand::rngs::StdRng;
use rand::SeedableRng;
use verus_cellular::fading::{FadingConfig, LinkBudget, RateProcess};
use verus_cellular::scheduler::{run_cell, CellConfig, Demand, UserConfig, UserResult};
use verus_cellular::{OperatorModel, Scenario, StressScenario, Trace};
use verus_nettypes::SimDuration;

const SEED: u64 = 13;

/// 64-bit FNV-1a over a stream of integers (little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }
}

fn trace_digest(trace: &Trace) -> u64 {
    let mut h = Fnv::new();
    for o in trace.opportunities() {
        h.u64(o.time.as_nanos());
        h.u32(o.bytes);
    }
    h.0
}

fn result_digest(r: &UserResult) -> u64 {
    let mut h = Fnv::new();
    h.u64(r.opportunities.len() as u64);
    for o in &r.opportunities {
        h.u64(o.time.as_nanos());
        h.u32(o.bytes);
    }
    h.u64(r.delays.len() as u64);
    for (t, d) in &r.delays {
        h.u64(t.as_nanos());
        h.u64(d.as_nanos());
    }
    h.u64(r.delivered_bytes);
    h.u64(r.dropped);
    h.0
}

/// Compares `(label, digest)` pairs with the pinned table, reporting
/// every mismatch at once (and the full actual table, for re-pinning).
fn check(actual: &[(String, u64)], expected: &[u64]) {
    assert_eq!(actual.len(), expected.len(), "digest table size");
    let mismatches: Vec<String> = actual
        .iter()
        .zip(expected)
        .filter(|((_, got), want)| got != *want)
        .map(|((label, got), want)| format!("{label}: got {got:#018x}, pinned {want:#018x}"))
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} of {} digests changed:\n{}\nactual table:\n{}",
        mismatches.len(),
        actual.len(),
        mismatches.join("\n"),
        actual
            .iter()
            .map(|(label, d)| format!("    {d:#018x}, // {label}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Every §5.3 scenario on every operator model, 5 s at one seed.
#[test]
fn paper_scenario_traces_are_pinned() {
    let mut actual = Vec::new();
    for scenario in Scenario::all() {
        for op in OperatorModel::all() {
            let t = scenario
                .generate_trace(op, SimDuration::from_secs(5), SEED)
                .expect("generation");
            actual.push((t.name.clone(), trace_digest(&t)));
        }
    }
    check(&actual, &PAPER_DIGESTS);
}

/// Every stress scenario on the 3G model the tournament and the
/// benchmark use, 5 s at one seed.
#[test]
fn stress_scenario_traces_are_pinned() {
    let actual: Vec<(String, u64)> = StressScenario::all()
        .iter()
        .map(|s| {
            let t = s
                .generate_trace(OperatorModel::Etisalat3G, SimDuration::from_secs(5), SEED)
                .expect("generation");
            (t.name.clone(), trace_digest(&t))
        })
        .collect();
    check(&actual, &STRESS_DIGESTS);
}

/// A long LTE trace: 30 000 TTIs exercise the slow shadowing and drift
/// processes far past where the 5 s traces stop.
#[test]
fn long_lte_trace_is_pinned() {
    let t = Scenario::CityDriving
        .generate_trace(OperatorModel::EtisalatLte, SimDuration::from_secs(30), SEED)
        .expect("generation");
    check(&[(t.name.clone(), trace_digest(&t))], &[LONG_LTE_DIGEST]);
}

/// The SNR path itself, bit for bit. Traces quantize SNR to CQI levels,
/// so a one-ULP change in the fading arithmetic rarely reaches a trace;
/// this digest of every TTI's SNR bits (and the formula's rate) catches
/// it. Covers every fading profile the scenarios use, on both budgets.
#[test]
fn snr_paths_are_pinned() {
    let mut profiles = vec![
        ("stationary", FadingConfig::stationary()),
        ("pedestrian", FadingConfig::pedestrian()),
        ("driving", FadingConfig::driving()),
    ];
    for s in StressScenario::all() {
        if profiles.iter().all(|&(_, f)| f != s.fading()) {
            profiles.push((s.name(), s.fading()));
        }
    }
    let mut actual = Vec::new();
    for (name, fading) in profiles {
        for (tech, budget) in [
            ("LTE", LinkBudget::lte(10e6)),
            ("HSPA", LinkBudget::hspa(8e6)),
        ] {
            let mut process = RateProcess::new(fading, budget);
            let mut rng = StdRng::seed_from_u64(SEED);
            let mut h = Fnv::new();
            for _ in 0..20_000 {
                h.u32(process.next_tti(&mut rng));
                h.u64(process.snr_db().to_bits());
            }
            actual.push((format!("{name} / {tech}"), h.0));
        }
    }
    check(&actual, &SNR_DIGESTS);
}

/// The full per-user outcome of an overloaded cell like Figure 3's: a CBR
/// user offered more than the cell carries (so its buffer overflows and
/// drops), a saturated neighbour and an ON/OFF neighbour. Pins the
/// opportunities, the per-packet delays, and the drop count.
#[test]
fn overloaded_cell_outcome_is_pinned() {
    let cell = CellConfig::new(
        LinkBudget::hspa(8e6),
        vec![
            UserConfig {
                demand: Demand::Cbr { rate_bps: 10e6 },
                fading: FadingConfig::stationary(),
            },
            UserConfig {
                demand: Demand::Saturated,
                fading: FadingConfig::driving(),
            },
            UserConfig {
                demand: Demand::OnOff {
                    rate_bps: 4e6,
                    on: SimDuration::from_secs(2),
                    off: SimDuration::from_secs(3),
                },
                fading: FadingConfig::pedestrian(),
            },
        ],
    );
    let mut rng = StdRng::seed_from_u64(SEED);
    let results = run_cell(&cell, SimDuration::from_secs(20), &mut rng).expect("valid cell");
    assert!(
        results[0].dropped > 0,
        "the CBR user must overflow its buffer"
    );
    let actual: Vec<(String, u64)> = results
        .iter()
        .enumerate()
        .map(|(i, r)| (format!("user {i}"), result_digest(r)))
        .collect();
    check(&actual, &CELL_DIGESTS);
}

// Pinned digests, re-pinned when the ziggurat replaced Box–Muller as the
// normal sampler (a deliberate fidelity change: every Gaussian draw, and
// so every channel, moved). The per-TTI rate lookup table and the
// allocation-free scheduler loop are exact and moved none of them.
const PAPER_DIGESTS: [u64; 28] = [
    0xcc1e03ee35299303, // Du 3G / Campus stationary
    0x8693031bc873bb35, // Etisalat 3G / Campus stationary
    0x9e7c395e90256481, // Du LTE / Campus stationary
    0x94250e4706b25279, // Etisalat LTE / Campus stationary
    0x90405fd395b42508, // Du 3G / Campus pedestrian
    0x07d3706f970a11da, // Etisalat 3G / Campus pedestrian
    0x47c4fa17e9c8178b, // Du LTE / Campus pedestrian
    0x5698b3aa1a26fc51, // Etisalat LTE / Campus pedestrian
    0xed617c135f4e4c5e, // Du 3G / City stationary
    0x97f517303f9d163e, // Etisalat 3G / City stationary
    0xf1a7e1f31d170609, // Du LTE / City stationary
    0x5c0c3ed8f11d133d, // Etisalat LTE / City stationary
    0xf4a22c70e43b9470, // Du 3G / City driving
    0xdba62b4b0afcaf3a, // Etisalat 3G / City driving
    0x3a7933485e7c42f2, // Du LTE / City driving
    0x46825940d9111ac1, // Etisalat LTE / City driving
    0x8b47f2670a0dfe61, // Du 3G / Highway driving
    0xe619dbd26b3eb7d5, // Etisalat 3G / Highway driving
    0x524352beb90bcc3a, // Du LTE / Highway driving
    0xa11ac0aa3bc77f92, // Etisalat LTE / Highway driving
    0xe80554546ce4f4f8, // Du 3G / Shopping mall
    0x31f6a5a6fb0b825d, // Etisalat 3G / Shopping mall
    0x0d70f42f29b9eb06, // Du LTE / Shopping mall
    0xabe85ab157d41415, // Etisalat LTE / Shopping mall
    0x4b5d760faaf584e0, // Du 3G / City waterfront
    0x729d466d117f119e, // Etisalat 3G / City waterfront
    0x36f89fc48c55273b, // Du LTE / City waterfront
    0x2a819eed04139708, // Etisalat LTE / City waterfront
];

// Blackout recovery shares Campus stationary's channel (stationary
// fading, one 0.5 Mbit/s CBR neighbour), so at one seed and operator the
// two traces coincide.
const STRESS_DIGESTS: [u64; 3] = [
    0x491a7f0f58586565, // Etisalat 3G / Handover storm
    0x7b9dff22c5f03b21, // Etisalat 3G / Deep-buffer multi-user
    0x8693031bc873bb35, // Etisalat 3G / Blackout recovery
];

const LONG_LTE_DIGEST: u64 = 0xb885d1b166655320; // Etisalat LTE / City driving, 30 s

const CELL_DIGESTS: [u64; 3] = [
    0x7b53aa2018b09f3a, // user 0 (overloaded CBR)
    0x62952119341c9588, // user 1 (saturated)
    0x93d38de6b3de0267, // user 2 (ON/OFF)
];

const SNR_DIGESTS: [u64; 10] = [
    0xa82b6d50dd2377d8, // stationary / LTE
    0xca530c331529b6a2, // stationary / HSPA
    0x2f5ef117f3fd03dd, // pedestrian / LTE
    0x7257030168bf06e6, // pedestrian / HSPA
    0x4d1e71e819a06b62, // driving / LTE
    0xa15ed12a5abeae23, // driving / HSPA
    0xe25a1e02d65ebaa8, // Handover storm / LTE
    0x8e86b91c033fd838, // Handover storm / HSPA
    0x0edab9228c151ecc, // Deep-buffer multi-user / LTE
    0x7c6e683052d8a417, // Deep-buffer multi-user / HSPA
];
