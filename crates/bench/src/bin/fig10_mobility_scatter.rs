//! Figure 10: trace-driven delay–throughput scatter under contention —
//! 10 simultaneous flows of one protocol over a mobility-scenario trace,
//! behind the paper's shared RED queue (3 Mbit / 9 Mbit / 10%).
//!
//! Three panels: (a) campus pedestrian, (b) slow city driving,
//! (c) highway driving. Protocols: TCP Cubic, TCP NewReno, Verus with
//! R ∈ {2, 4, 6}.
//!
//! Shapes to reproduce: Verus (low R) an order of magnitude below the
//! TCPs in delay at comparable throughput; mobility widens the TCPs'
//! throughput spread across flows far more than Verus'.

use verus_bench::{guard_finite, print_table, write_json, CellExperiment, ProtocolSpec};
use verus_cellular::{OperatorModel, Scenario};
use verus_nettypes::SimDuration;
use verus_trace::json::Json;

fn main() {
    let scenarios = [
        Scenario::CampusPedestrian,
        Scenario::CityDriving,
        Scenario::HighwayDriving,
    ];
    let protocols = [
        ProtocolSpec::baseline("cubic"),
        ProtocolSpec::baseline("newreno"),
        ProtocolSpec::verus(2.0),
        ProtocolSpec::verus(4.0),
        ProtocolSpec::verus(6.0),
    ];
    let mut out = Vec::new();
    let mut checks = Vec::new();

    for (si, scenario) in scenarios.into_iter().enumerate() {
        println!("== {} ==", scenario.name());
        let trace = scenario
            .generate_trace(
                OperatorModel::Etisalat3G,
                SimDuration::from_secs(120),
                1000 + si as u64,
            )
            .expect("trace");
        let mut rows = Vec::new();
        for spec in protocols {
            let exp = CellExperiment::new(
                trace.clone(),
                10,
                SimDuration::from_secs(120),
                1100 + si as u64,
            );
            let points: Vec<(f64, f64)> = exp
                .run(spec)
                .iter()
                .map(|r| (r.mean_throughput_mbps(), r.mean_delay_ms()))
                .collect();
            let n = points.len() as f64;
            let mean_mbps = points.iter().map(|p| p.0).sum::<f64>() / n;
            let var_mbps = points
                .iter()
                .map(|p| (p.0 - mean_mbps) * (p.0 - mean_mbps))
                .sum::<f64>()
                / n;
            let mean_delay = points.iter().map(|p| p.1).sum::<f64>() / n;
            rows.push(vec![
                spec.label(),
                format!("{mean_mbps:.3}"),
                format!("{:.3}", var_mbps.sqrt()),
                format!("{mean_delay:.1}"),
            ]);
            checks.push(("mean throughput", mean_mbps));
            checks.push(("throughput std", var_mbps.sqrt()));
            checks.push(("mean delay", mean_delay));
            out.push(
                Json::object()
                    .field("scenario", scenario.name())
                    .field("protocol", spec.label())
                    .field("points", points) // per-flow (throughput Mbit/s, delay ms)
                    .field("mean_mbps", mean_mbps)
                    .field("std_mbps", var_mbps.sqrt())
                    .field("mean_delay_ms", mean_delay),
            );
        }
        print_table(
            &[
                "protocol",
                "mean tput (Mbit/s)",
                "tput std across flows",
                "mean delay (ms)",
            ],
            &rows,
        );
        println!();
    }
    println!("paper shape: Verus (R=2) delay an order of magnitude below the TCPs;");
    println!("higher R buys throughput for delay; under mobility the TCPs' per-flow");
    println!("throughput spread widens while Verus' stays small.");
    guard_finite("fig10_mobility_scatter", &checks);
    write_json("fig10_mobility_scatter", &Json::Arr(out));
}
