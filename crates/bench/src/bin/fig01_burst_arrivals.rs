//! Figure 1: "LTE 10 Mbps burst arrival time" — per-packet delay over a
//! 250 ms zoom of an LTE downlink carrying a 10 Mbit/s CBR probe,
//! showing the sawtooth the TTI scheduler imprints on arrival delays.
//!
//! Paper setup: Sony Xperia Z1 on a commercial LTE downlink, UDP probe at
//! 0.4 ms send intervals. Here: the synthetic LTE cell (1 ms TTI,
//! proportional-fair scheduler) serving a 10 Mbit/s CBR user, with
//! per-packet queueing delays taken from the base-station queue model.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use verus_bench::{guard_finite, print_table, write_json};
use verus_cellular::fading::{FadingConfig, LinkBudget};
use verus_cellular::scheduler::{run_cell, CellConfig, Demand, UserConfig};
use verus_nettypes::SimDuration;
use verus_stats::Summary;

#[derive(Serialize)]
struct Fig1 {
    /// `(time s, delay ms)` for the zoom window.
    series: Vec<(f64, f64)>,
    window_start_s: f64,
    window_end_s: f64,
    delay_summary: Summary,
}

fn main() {
    // Peak 40 Mbit/s ⇒ ≈ 21 Mbit/s typical at the stationary SNR: the
    // 10 Mbit/s probe keeps headroom even through slow-fading dips, as in
    // the paper's measurement, so delays reflect TTI burst scheduling
    // rather than saturation.
    let cell = CellConfig::new(
        LinkBudget::lte(40e6),
        vec![
            UserConfig {
                demand: Demand::Cbr { rate_bps: 10e6 },
                fading: FadingConfig::stationary(),
            },
            // light background load, as in the paper's urban residential cell
            UserConfig {
                demand: Demand::Cbr { rate_bps: 2e6 },
                fading: FadingConfig::stationary(),
            },
        ],
    );
    let mut rng = StdRng::seed_from_u64(101);
    let results = run_cell(&cell, SimDuration::from_secs(90), &mut rng).expect("valid cell");
    let probe = &results[0];

    // The paper zooms into 85.05–85.30 s; use the same offsets.
    let (lo, hi) = (85.05, 85.30);
    let series: Vec<(f64, f64)> = probe
        .delays
        .iter()
        .map(|(t, d)| (t.as_secs_f64(), d.as_millis_f64() + 25.0)) // +25 ms core-network delay
        .filter(|(t, _)| *t >= lo && *t < hi)
        .collect();
    let all: Vec<f64> = probe
        .delays
        .iter()
        .map(|(_, d)| d.as_millis_f64() + 25.0)
        .collect();
    let summary = Summary::from_samples(&all).expect("probe delivered packets");

    println!("Figure 1 — LTE 10 Mbit/s downlink, per-packet delay ({lo}–{hi} s)");
    println!();
    let rows: Vec<Vec<String>> = series
        .iter()
        .step_by((series.len() / 40).max(1))
        .map(|(t, d)| vec![format!("{t:.4}"), format!("{d:.2}")])
        .collect();
    print_table(&["time (s)", "delay (ms)"], &rows);
    println!();
    println!(
        "over the whole trace: mean {:.1} ms, p95 {:.1} ms, max {:.1} ms ({} packets)",
        summary.mean, summary.p95, summary.max, summary.count
    );
    println!(
        "paper shape: delays oscillate in a ~30–50 ms band as the scheduler\n\
         drains the probe's queue in TTI bursts — {} distinct delay levels seen here",
        series.len()
    );

    guard_finite(
        "fig01_burst_arrivals",
        &[
            ("delay mean", summary.mean),
            ("delay p95", summary.p95),
            ("delay max", summary.max),
            ("series sum", series.iter().map(|&(_, d)| d).sum::<f64>()),
        ],
    );

    write_json(
        "fig01_burst_arrivals",
        &Fig1 {
            series,
            window_start_s: lo,
            window_end_s: hi,
            delay_summary: summary,
        },
    );
}
