//! Figure 2: PDFs of (a) burst size and (b) burst inter-arrival time on
//! the downlink of Du/Etisalat × 3G/LTE.
//!
//! Paper setup: 5-minute stationary urban measurements with a CBR probe
//! below capacity (10 Mbit/s on LTE, 5 Mbit/s on 3G); arrivals at the
//! receiver come in scheduler bursts. Here: the synthetic cell serving
//! the same CBR probe; bursts are maximal runs of delivery opportunities
//! separated by less than one TTI plus slack. The shape to reproduce:
//! heavy-tailed distributions spanning decades, with LTE showing more
//! frequent, smaller bursts than 3G.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use verus_bench::{guard_finite, print_table, write_json};
use verus_cellular::burst::{burst_stats, detect_bursts, BurstStats};
use verus_cellular::fading::FadingConfig;
use verus_cellular::scheduler::{run_cell, CellConfig, Demand, UserConfig};
use verus_cellular::OperatorModel;
use verus_nettypes::{SimDuration, SimTime};

#[derive(Serialize)]
struct Fig2Entry {
    operator: String,
    probe_rate_mbps: f64,
    stats: BurstStats,
}

fn main() {
    let duration = SimDuration::from_secs(300); // the paper's 5 minutes
    let mut entries = Vec::new();
    let mut rows = Vec::new();

    for (i, op) in OperatorModel::all().into_iter().enumerate() {
        // The paper's probe rates: 10 Mbit/s on LTE, 5 Mbit/s on 3G.
        let probe_mbps = if op.is_lte() { 10.0 } else { 5.0 };
        let cell = CellConfig::new(
            op.budget(),
            vec![
                UserConfig {
                    demand: Demand::Cbr {
                        rate_bps: probe_mbps * 1e6,
                    },
                    fading: FadingConfig::stationary(),
                },
                // mixed urban background load: the irregular competing
                // demand is what breaks the probe's service into bursts
                // with variable gaps
                UserConfig {
                    demand: Demand::Cbr { rate_bps: 1.0e6 },
                    fading: FadingConfig::pedestrian(),
                },
                UserConfig {
                    demand: Demand::OnOff {
                        rate_bps: 2.0e6,
                        on: SimDuration::from_secs(7),
                        off: SimDuration::from_secs(13),
                    },
                    fading: FadingConfig::pedestrian(),
                },
                UserConfig {
                    demand: Demand::OnOff {
                        rate_bps: 1.0e6,
                        on: SimDuration::from_secs(3),
                        off: SimDuration::from_secs(5),
                    },
                    fading: FadingConfig::stationary(),
                },
            ],
        );
        let mut rng = StdRng::seed_from_u64(200 + i as u64);
        let results = run_cell(&cell, duration, &mut rng).expect("valid cell");
        let arrivals: Vec<(SimTime, u32)> = results[0]
            .opportunities
            .iter()
            .map(|o| (o.time, o.bytes))
            .collect();
        let tti = op.budget().tti;
        let gap = tti + SimDuration::from_millis_f64(0.5);
        let bursts = detect_bursts(&arrivals, gap);
        let stats = burst_stats(&bursts).expect("enough bursts");
        rows.push(vec![
            op.name().to_string(),
            format!("{}", stats.count),
            format!("{:.0}", stats.size_bytes.mean),
            format!("{:.0}", stats.size_bytes.p95),
            format!("{:.0}", stats.size_bytes.max),
            format!("{:.1}", stats.inter_arrival_ms.mean),
            format!("{:.1}", stats.inter_arrival_ms.p95),
            format!("{:.0}", stats.inter_arrival_ms.max),
        ]);
        entries.push(Fig2Entry {
            operator: op.name().to_string(),
            probe_rate_mbps: probe_mbps,
            stats,
        });
    }

    println!("Figure 2 — burst statistics, 5-minute CBR-probe downlink traces");
    println!();
    print_table(
        &[
            "network",
            "bursts",
            "size mean(B)",
            "size p95(B)",
            "size max(B)",
            "gap mean(ms)",
            "gap p95(ms)",
            "gap max(ms)",
        ],
        &rows,
    );
    println!();
    println!("PMF series (log bins) are in the JSON output — plot mass vs");
    println!("bin centre on log-log axes to reproduce the paper's panels.");
    println!();
    println!("paper shape: LTE rows show more bursts with smaller mean size and");
    println!("shorter inter-arrival gaps than the corresponding 3G rows, and both");
    println!("size and gap distributions span multiple decades.");

    let checks: Vec<(&str, f64)> = entries
        .iter()
        .flat_map(|e| {
            [
                ("burst size mean", e.stats.size_bytes.mean),
                ("burst gap mean", e.stats.inter_arrival_ms.mean),
            ]
        })
        .collect();
    guard_finite("fig02_burst_pdfs", &checks);

    write_json("fig02_burst_pdfs", &entries);
}
