//! Figure 14: Verus fairness against legacy TCP — three Verus flows and
//! three TCP Cubic flows share a 60 Mbit/s bottleneck, one new flow
//! starting every 30 s (Verus first, then the Cubics).
//!
//! Shape to reproduce: "Verus shares the bottleneck capacity equally
//! with TCP Cubic" — with all six flows active, the two protocol groups
//! hold comparable aggregate shares.

use verus_bench::{guard_finite, print_table, write_json, DumbbellExperiment, ProtocolSpec};
use verus_netsim::queue::QueueConfig;
use verus_nettypes::{SimDuration, SimTime};
use verus_trace::json::Json;

fn main() {
    let mut flows: Vec<(ProtocolSpec, SimTime, SimDuration)> = Vec::new();
    for i in 0..3u64 {
        flows.push((
            ProtocolSpec::verus(2.0),
            SimTime::from_secs(i * 30),
            SimDuration::ZERO,
        ));
    }
    for i in 3..6u64 {
        flows.push((
            ProtocolSpec::baseline("cubic"),
            SimTime::from_secs(i * 30),
            SimDuration::ZERO,
        ));
    }
    let exp = DumbbellExperiment {
        rate_bps: 60e6,
        base_rtt: SimDuration::from_millis(40),
        flows,
        duration: SimDuration::from_secs(190),
        // Buffer ≈70 ms at 60 Mbit/s. Coexistence is knife-edge sensitive
        // to buffer depth: much below this Cubic's bursts are starved by
        // Verus' standing queue, much above it Cubic bloats past Verus'
        // R×Dmin delay bound and starves *it*. Near-equal sharing exists
        // only in the band where Verus' delay tolerance ≈ buffer depth —
        // the regime the paper's tc testbed evidently operated in (see
        // EXPERIMENTS.md).
        queue: QueueConfig::DropTail {
            capacity_bytes: 530_000,
        },
        seed: 2000,
    };
    let reports = exp.run();

    // Steady-state window with all six flows active.
    let tail_rate = |r: &verus_netsim::FlowReport| {
        let s = r.throughput.series_mbps();
        let tail: Vec<f64> = s
            .iter()
            .filter(|(t, _)| *t >= 165.0)
            .map(|&(_, v)| v)
            .collect();
        tail.iter().sum::<f64>() / tail.len().max(1) as f64
    };
    let rates: Vec<f64> = reports.iter().map(tail_rate).collect();
    let verus_share: f64 = rates[..3].iter().sum();
    let cubic_share: f64 = rates[3..].iter().sum();

    println!("Figure 14 — 3 Verus + 3 Cubic flows on 60 Mbit/s, staggered 30 s");
    println!();
    let rows: Vec<Vec<String>> = reports
        .iter()
        .zip(&rates)
        .map(|(r, rate)| vec![r.protocol.clone(), format!("{rate:.1}")])
        .collect();
    print_table(&["flow", "rate, all-active window (Mbit/s)"], &rows);
    println!();
    println!(
        "aggregate shares: Verus {verus_share:.1} Mbit/s vs Cubic {cubic_share:.1} Mbit/s \
         (ratio {:.2})",
        verus_share / cubic_share.max(1e-9)
    );
    println!();
    println!("paper shape: the two protocol groups end up with comparable shares of");
    println!("the bottleneck (Verus is TCP-friendly under loss-based contention).");

    guard_finite(
        "fig14_vs_cubic",
        &[
            ("verus share", verus_share),
            ("cubic share", cubic_share),
        ],
    );

    // Per-flow series (flows 0–2 Verus, 3–5 Cubic), the all-active
    // window's per-flow rates, and the two groups' shares.
    write_json(
        "fig14_vs_cubic",
        &Json::object()
            .field(
                "series",
                reports
                    .iter()
                    .map(|r| r.throughput.series_mbps())
                    .collect::<Json>(),
            )
            .field("rates_mbps", rates)
            .field("verus_share_mbps", verus_share)
            .field("cubic_share_mbps", cubic_share),
    );
}
