//! Figure 8: the macro evaluation — averaged throughput vs delay of
//! Sprout, TCP Cubic, TCP Vegas and Verus (R=6) on 3G and LTE downlinks.
//!
//! Paper setup: three phones × three flows per protocol on Etisalat's
//! live network, 2-minute runs × 5 repetitions, stationary, late evening.
//! Here: nine flows per protocol over synthetic Etisalat 3G/LTE traces
//! (city stationary), 60 s × 3 seeds (shorter runs, the steady-state
//! means converge well before that).
//!
//! The headline shapes to reproduce:
//! * Verus' delay an order of magnitude below Cubic's and Vegas';
//! * Verus' throughput comparable to (or above) Cubic's;
//! * Verus vs Sprout: slightly higher throughput, slightly higher delay.

use verus_bench::{guard_finite, print_table, write_json, CellExperiment, ProtocolSpec};
use verus_cellular::{OperatorModel, Scenario};
use verus_netsim::queue::QueueConfig;
use verus_nettypes::SimDuration;
use verus_trace::json::Json;

fn main() {
    let protocols = [
        ProtocolSpec::baseline("cubic"),
        ProtocolSpec::baseline("vegas"),
        ProtocolSpec::verus(6.0),
        ProtocolSpec::baseline("sprout"),
    ];
    let mut out = Vec::new();
    let mut checks = Vec::new();

    for (tech, op) in [("3G", OperatorModel::Etisalat3G), ("LTE", OperatorModel::EtisalatLte)] {
        println!("== {tech} ==");
        let mut rows = Vec::new();
        for spec in protocols {
            // 3 phones × 3 flows: each phone is its own radio link
            // (its own trace); its three flows share that link.
            let mut points: Vec<(f64, f64)> = Vec::new();
            for rep in 0..2u64 {
                for phone in 0..3u64 {
                    let seed = 800 + rep * 10 + phone;
                    let trace = Scenario::CampusStationary
                        .generate_trace(op, SimDuration::from_secs(60), seed)
                        .expect("trace");
                    // Real-world setup (§6.1): deep base-station buffer,
                    // no AQM — the bufferbloat the paper measures.
                    let mut exp =
                        CellExperiment::new(trace, 3, SimDuration::from_secs(60), seed + 5);
                    exp.queue = QueueConfig::DropTail {
                        capacity_bytes: 2_250_000,
                    };
                    points.extend(exp.run(spec).iter().map(|r| {
                        (r.mean_throughput_mbps(), r.mean_delay_ms())
                    }));
                }
            }
            let n = points.len() as f64;
            let mean_mbps = points.iter().map(|p| p.0).sum::<f64>() / n;
            let mean_delay = points.iter().map(|p| p.1).sum::<f64>() / n;
            rows.push(vec![
                spec.label(),
                format!("{mean_mbps:.2}"),
                format!("{:.3}", mean_delay / 1000.0),
            ]);
            checks.push(("mean throughput", mean_mbps));
            checks.push(("mean delay", mean_delay));
            out.push(
                Json::object()
                    .field("tech", tech)
                    .field("protocol", spec.label())
                    .field("flow_points", points)
                    .field("mean_mbps", mean_mbps)
                    .field("mean_delay_ms", mean_delay),
            );
        }
        print_table(&["protocol", "throughput (Mbit/s)", "delay (s)"], &rows);
        println!();
    }

    println!("paper shape: Verus delay ≈ an order of magnitude below Cubic/Vegas at");
    println!("comparable (or higher) throughput; Verus vs Sprout trades slightly");
    println!("higher throughput for slightly higher delay.");
    guard_finite("fig08_macro_3g_lte", &checks);
    write_json("fig08_macro_3g_lte", &Json::Arr(out));
}
