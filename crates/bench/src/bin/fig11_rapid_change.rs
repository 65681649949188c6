//! Figure 11: rapidly changing networks — every five seconds the whole
//! network (capacity, RTT, loss rate) is re-drawn at random.
//!
//! * Scenario I: capacity 10–100 Mbit/s; Verus, TCP Cubic, TCP Vegas and
//!   Sprout (Sprout pinned by its 18 Mbit/s implementation cap);
//! * Scenario II: capacity 2–20 Mbit/s; Verus vs Sprout, throughput and
//!   delay (Sprout competitive here, but Verus still ahead on average —
//!   the paper's "up to 30% higher throughput" claim).
//!
//! RTT 10–100 ms, 500 s runs, one flow per protocol run on a `tc`-style
//! dumbbell (fixed link with a step schedule).
//!
//! **Loss-rate substitution**: the paper states "loss rate between 0%
//! and 1%", but a sustained ~0.5% i.i.d. loss bounds *any*
//! multiplicative-decrease protocol (Cubic's own response function gives
//! ≈ 1.5/√p ≈ 21 packets of window) far below the 60–100 Mbit/s the
//! paper's Figure 11a shows Verus reaching — the stated range cannot be
//! what the experiment effectively applied. We draw loss from 0–0.1%,
//! which preserves the figure's stressor (random non-congestion loss)
//! while keeping the envelope reachable; see EXPERIMENTS.md.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use verus_bench::{cc_by_name, guard_finite, print_table, write_json};
use verus_netsim::queue::QueueConfig;
use verus_netsim::{BottleneckConfig, FixedParams, FlowConfig, SimConfig, Simulation};
use verus_nettypes::{SimDuration, SimTime};
use verus_trace::json::Json;

const DURATION_S: u64 = 500;

/// Builds the 5-second random step schedule (same for every protocol,
/// seeded independently of the simulation RNG).
fn schedule(lo_mbps: f64, hi_mbps: f64, seed: u64) -> Vec<(SimTime, FixedParams)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..DURATION_S / 5)
        .map(|i| {
            (
                SimTime::from_secs(i * 5),
                FixedParams {
                    rate_bps: rng.gen_range(lo_mbps..hi_mbps) * 1e6,
                    loss: rng.gen_range(0.0..0.001),
                    base_rtt: SimDuration::from_millis(rng.gen_range(10..=100)),
                },
            )
        })
        .collect()
}

struct ProtocolRun {
    protocol: String,
    mean_mbps: f64,
    mean_delay_ms: f64,
    /// Per-second throughput series (Mbit/s).
    series: Vec<(f64, f64)>,
}

fn runs_json(runs: Vec<ProtocolRun>) -> Json {
    runs.into_iter()
        .map(|r| {
            Json::object()
                .field("protocol", r.protocol)
                .field("mean_mbps", r.mean_mbps)
                .field("mean_delay_ms", r.mean_delay_ms)
                .field("series", r.series)
        })
        .collect()
}

fn run_protocol(name: &str, sched: &[(SimTime, FixedParams)], seed: u64) -> ProtocolRun {
    let config = SimConfig {
        bottleneck: BottleneckConfig::Fixed {
            schedule: sched.to_vec(),
        },
        // A tc-style bottleneck buffer (≈250 packets): big enough for
        // burst absorption, small enough that a capacity step-down
        // converts standing overshoot into losses the protocols can see.
        queue: QueueConfig::DropTail {
            capacity_bytes: 375_000,
        },
        flows: vec![FlowConfig::new(cc_by_name(name, 2.0))],
        duration: SimDuration::from_secs(DURATION_S),
        seed,
        throughput_window: SimDuration::from_secs(1),
        impairments: Default::default(),
        abc: None,
    };
    let r = Simulation::new(config).unwrap().run().remove(0);
    ProtocolRun {
        protocol: name.to_string(),
        mean_mbps: r.mean_throughput_mbps(),
        mean_delay_ms: r.mean_delay_ms(),
        series: r.throughput.series_mbps(),
    }
}

fn utilization_table(runs: &[ProtocolRun], capacity_mbps: f64) -> Vec<Vec<String>> {
    runs.iter()
        .map(|r| {
            vec![
                r.protocol.clone(),
                format!("{:.2}", r.mean_mbps),
                format!("{:.0}%", 100.0 * r.mean_mbps / capacity_mbps),
                format!("{:.0}", r.mean_delay_ms),
            ]
        })
        .collect()
}

fn main() {
    // Scenario I: 10–100 Mbit/s.
    let sched1 = schedule(10.0, 100.0, 1600);
    let cap1: f64 = sched1.iter().map(|(_, p)| p.rate_bps).sum::<f64>()
        / sched1.len() as f64
        / 1e6;
    let runs1: Vec<ProtocolRun> = ["verus", "cubic", "vegas", "sprout"]
        .iter()
        .map(|n| run_protocol(n, &sched1, 1601))
        .collect();

    println!("Figure 11a — capacity steps 10–100 Mbit/s every 5 s (mean cap {cap1:.1} Mbit/s)");
    println!();
    print_table(
        &["protocol", "throughput (Mbit/s)", "utilization", "delay (ms)"],
        &utilization_table(&runs1, cap1),
    );
    println!();

    // Scenario II: 2–20 Mbit/s (inside Sprout's cap).
    let sched2 = schedule(2.0, 20.0, 1700);
    let cap2: f64 = sched2.iter().map(|(_, p)| p.rate_bps).sum::<f64>()
        / sched2.len() as f64
        / 1e6;
    let runs2: Vec<ProtocolRun> = ["verus", "sprout"]
        .iter()
        .map(|n| run_protocol(n, &sched2, 1701))
        .collect();

    println!("Figure 11b — capacity steps 2–20 Mbit/s every 5 s (mean cap {cap2:.1} Mbit/s)");
    println!();
    print_table(
        &["protocol", "throughput (Mbit/s)", "utilization", "delay (ms)"],
        &utilization_table(&runs2, cap2),
    );
    let (v, s) = (&runs2[0], &runs2[1]);
    println!();
    println!(
        "Verus vs Sprout throughput advantage: {:+.0}%",
        100.0 * (v.mean_mbps / s.mean_mbps - 1.0)
    );
    println!();
    println!("paper shape: in (a) Verus tracks the capacity steps while Sprout is");
    println!("pinned at its 18 Mbit/s cap; in (b) Sprout is competitive but Verus");
    println!("still averages higher throughput (paper: up to 30% higher).");

    let capacity_series: Vec<(f64, f64)> = sched1
        .iter()
        .map(|(t, p)| (t.as_secs_f64(), p.rate_bps / 1e6))
        .collect();
    let checks: Vec<(&str, f64)> = runs1
        .iter()
        .chain(runs2.iter())
        .flat_map(|r| [("mean throughput", r.mean_mbps), ("mean delay", r.mean_delay_ms)])
        .collect();
    guard_finite("fig11_rapid_change", &checks);
    write_json(
        "fig11_rapid_change",
        &Json::object()
            .field("capacity_series", capacity_series)
            .field("scenario1", runs_json(runs1))
            .field("scenario2", runs_json(runs2)),
    );
}
