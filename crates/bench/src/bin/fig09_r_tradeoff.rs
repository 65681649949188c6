//! Figure 9: the R knob — Verus with R ∈ {2, 4, 6} on 3G and LTE,
//! trading throughput against delay.
//!
//! Same harness as Figure 8; the shape to reproduce is a monotone
//! frontier: larger R ⇒ more throughput and more delay.

use verus_bench::{guard_finite, print_table, write_json, CellExperiment, ProtocolSpec};
use verus_cellular::{OperatorModel, Scenario};
use verus_netsim::queue::QueueConfig;
use verus_nettypes::SimDuration;
use verus_trace::json::Json;

fn main() {
    let mut out = Vec::new();
    let mut checks = Vec::new();
    for (tech, op) in [("3G", OperatorModel::Etisalat3G), ("LTE", OperatorModel::EtisalatLte)] {
        println!("== {tech} ==");
        let mut rows = Vec::new();
        for r in [2.0, 4.0, 6.0] {
            let spec = ProtocolSpec::verus(r);
            // 3 phones × 3 flows, each phone its own radio link (as in
            // Figure 8's harness).
            let mut points: Vec<(f64, f64)> = Vec::new();
            for rep in 0..2u64 {
                for phone in 0..3u64 {
                    let seed = 900 + rep * 10 + phone;
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
                    points.extend(
                        exp.run(spec)
                            .iter()
                            .map(|x| (x.mean_throughput_mbps(), x.mean_delay_ms())),
                    );
                }
            }
            let n = points.len() as f64;
            let mean_mbps = points.iter().map(|p| p.0).sum::<f64>() / n;
            let mean_delay = points.iter().map(|p| p.1).sum::<f64>() / n;
            rows.push(vec![
                format!("R = {r}"),
                format!("{mean_mbps:.2}"),
                format!("{:.1}", mean_delay),
            ]);
            checks.push(("mean throughput", mean_mbps));
            checks.push(("mean delay", mean_delay));
            out.push(
                Json::object()
                    .field("tech", tech)
                    .field("r", r)
                    .field("mean_mbps", mean_mbps)
                    .field("mean_delay_ms", mean_delay)
                    .field("flow_points", points),
            );
        }
        print_table(&["setting", "throughput (Mbit/s)", "delay (ms)"], &rows);
        println!();
    }
    println!("paper shape: R = 2 → lowest delay & throughput; R = 6 → highest of");
    println!("both; R = 4 in between (a monotone trade-off frontier).");
    guard_finite("fig09_r_tradeoff", &checks);
    write_json("fig09_r_tradeoff", &Json::Arr(out));
}
