//! Figure 12: Verus intra-fairness as flows arrive — seven Verus flows
//! share a 90 Mbit/s bottleneck, one new flow starting every 30 s.
//!
//! Shapes to reproduce: the first flow initially fills the link; each
//! arrival quickly carves out a share; late in the run all active flows
//! sit near the fair share.

use verus_bench::{guard_finite, print_table, write_json, DumbbellExperiment, ProtocolSpec};
use verus_netsim::queue::QueueConfig;
use verus_nettypes::{SimDuration, SimTime};
use verus_stats::jain_index;
use verus_trace::json::Json;

fn main() {
    let flows = (0..7u64)
        .map(|i| {
            (
                ProtocolSpec::verus(2.0),
                SimTime::from_secs(i * 30),
                SimDuration::ZERO,
            )
        })
        .collect();
    let exp = DumbbellExperiment {
        rate_bps: 90e6,
        base_rtt: SimDuration::from_millis(40),
        flows,
        duration: SimDuration::from_secs(220),
        queue: QueueConfig::DropTail {
            capacity_bytes: 1_500_000,
        },
        seed: 1800,
    };
    let reports = exp.run();

    let tail_rate = |r: &verus_netsim::FlowReport| {
        let s = r.throughput.series_mbps();
        let tail: Vec<f64> = s
            .iter()
            .filter(|(t, _)| *t >= 200.0)
            .map(|&(_, v)| v)
            .collect();
        tail.iter().sum::<f64>() / tail.len().max(1) as f64
    };
    let final_rates: Vec<f64> = reports.iter().map(tail_rate).collect();
    let final_jain = jain_index(&final_rates).unwrap_or(0.0);

    println!("Figure 12 — seven Verus flows on 90 Mbit/s, +1 flow every 30 s");
    println!();
    // First-flow share over time (the stepping-down staircase).
    let rows: Vec<Vec<String>> = (0..7)
        .map(|phase| {
            let t0 = phase as f64 * 30.0 + 10.0;
            let t1 = phase as f64 * 30.0 + 30.0;
            let mut cells = vec![format!("{}–{} s ({} active)", t0 as u64 - 10, t1 as u64, phase + 1)];
            let rate_in = |r: &verus_netsim::FlowReport| {
                let s = r.throughput.series_mbps();
                let w: Vec<f64> = s
                    .iter()
                    .filter(|(t, _)| *t >= t0 && *t < t1)
                    .map(|&(_, v)| v)
                    .collect();
                w.iter().sum::<f64>() / w.len().max(1) as f64
            };
            cells.push(format!("{:.1}", rate_in(&reports[0])));
            let active: Vec<f64> = reports[..=phase].iter().map(rate_in).collect();
            cells.push(format!(
                "{:.2}",
                jain_index(&active).unwrap_or(0.0)
            ));
            cells
        })
        .collect();
    print_table(
        &["window", "flow-1 rate (Mbit/s)", "Jain (active flows)"],
        &rows,
    );
    println!();
    println!(
        "final 20 s: rates {:?} Mbit/s, Jain = {final_jain:.2}",
        final_rates
            .iter()
            .map(|r| (r * 10.0).round() / 10.0)
            .collect::<Vec<_>>()
    );
    println!();
    println!("paper shape: flow 1 starts near 90 Mbit/s and steps down with each");
    println!("arrival; with all seven active the shares converge near 90/7 ≈ 13.");

    guard_finite(
        "fig12_flow_arrivals",
        &[
            ("final Jain", final_jain),
            ("final rates sum", final_rates.iter().sum::<f64>()),
        ],
    );

    // Per-flow per-second throughput series (Mbit/s), then Jain's index
    // and the mean per-flow rates over the final 20 s (all seven active).
    write_json(
        "fig12_flow_arrivals",
        &Json::object()
            .field(
                "series",
                reports
                    .iter()
                    .map(|r| r.throughput.series_mbps())
                    .collect::<Json>(),
            )
            .field("final_jain", final_jain)
            .field("final_rates_mbps", final_rates),
    );
}
