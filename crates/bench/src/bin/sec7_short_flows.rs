//! §7 "Short Flows": flow-completion times of finite transfers.
//!
//! The paper argues qualitatively that Verus handles short flows
//! naturally: "when considering a short flow that does not progress
//! beyond slow start, Verus behaves like legacy TCP due to the same slow
//! start mechanism; after slow start, Verus uses the recorded delay
//! profile to adapt quickly". This harness turns that paragraph into
//! numbers: flow-completion time (FCT) of 100 kB / 500 kB / 2 MB
//! transfers over a 3G trace for Verus, Cubic and Sprout.
//!
//! Shape to reproduce: for transfers that finish inside slow start
//! (~100 kB) Verus' FCT ≈ Cubic's; for larger transfers Verus stays
//! competitive while keeping its delay advantage.

use verus_bench::{cc_by_name, guard_finite, print_table, write_json};
use verus_cellular::{OperatorModel, Scenario};
use verus_netsim::queue::QueueConfig;
use verus_netsim::{BottleneckConfig, FlowConfig, SimConfig, Simulation};
use verus_nettypes::SimDuration;
use verus_trace::json::Json;

fn main() {
    let trace = Scenario::CampusStationary
        .generate_trace(OperatorModel::Etisalat3G, SimDuration::from_secs(60), 2800)
        .expect("trace");

    let mut rows = Vec::new();
    let mut out = Vec::new();
    let mut checks = Vec::new();
    for size_kb in [100u64, 500, 2000] {
        let mut row = vec![format!("{size_kb} kB")];
        for proto in ["verus", "cubic", "sprout"] {
            let config = SimConfig {
                bottleneck: BottleneckConfig::Cell {
                    trace: trace.clone(),
                    base_rtt: SimDuration::from_millis(40),
                    loss: 0.0,
                },
                queue: QueueConfig::deep_droptail(),
                flows: vec![
                    FlowConfig::new(cc_by_name(proto, 2.0)).with_transfer(size_kb * 1000),
                ],
                duration: SimDuration::from_secs(60),
                seed: 2801 + size_kb,
                throughput_window: SimDuration::from_secs(1),
                impairments: Default::default(),
                abc: None,
            };
            let report = Simulation::new(config).unwrap().run().remove(0);
            row.push(match report.completion_secs {
                Some(t) => format!("{t:.2}"),
                None => "DNF".into(),
            });
            if let Some(t) = report.completion_secs {
                checks.push(("completion time", t));
            }
            out.push(
                Json::object()
                    .field("size_kb", size_kb)
                    .field("protocol", proto)
                    .field("fct_s", report.completion_secs),
            );
        }
        rows.push(row);
    }

    println!("§7 short flows — flow-completion time (s) on a 3G campus trace");
    println!();
    print_table(&["transfer", "verus (R=2)", "cubic", "sprout"], &rows);
    println!();
    println!("paper shape: at 100 kB (inside slow start) Verus ≈ Cubic — identical");
    println!("startup; at larger sizes Verus stays within a small factor of Cubic");
    println!("(trading a little completion time for its delay bound).");

    guard_finite("sec7_short_flows", &checks);
    write_json("sec7_short_flows", &Json::Arr(out));
}
