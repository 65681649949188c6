//! Table 1: Jain's fairness index for TCP Cubic, TCP NewReno and Verus
//! (R=2) with 2 / 5 / 10 / 15 / 20 competing flows, averaged across the
//! five evaluation scenarios.
//!
//! Per the paper: the index is computed over one-second throughput
//! windows (Eq. 7) and averaged; the shape to reproduce is Cubic's
//! fairness collapsing under high contention (≈70% at 20 users) while
//! Verus and NewReno stay higher at scale.

use verus_bench::{guard_finite, print_table, write_json, CellExperiment, ProtocolSpec};
use verus_cellular::{OperatorModel, Scenario};
use verus_nettypes::SimDuration;
use verus_stats::windowed_jain_mean_from;
use verus_trace::json::Json;

fn main() {
    let user_counts = [2usize, 5, 10, 15, 20];
    let protocols = [
        ProtocolSpec::baseline("cubic"),
        ProtocolSpec::baseline("newreno"),
        ProtocolSpec::verus(2.0),
    ];
    let scenarios = Scenario::evaluation_five();
    let mut out = Vec::new();
    let mut checks = Vec::new();
    let mut rows = Vec::new();

    for users in user_counts {
        let mut row = vec![format!("{users} Users")];
        for spec in protocols {
            // Average the windowed Jain index across the five scenarios.
            let mut acc = 0.0;
            let mut n = 0usize;
            for (si, scenario) in scenarios.into_iter().enumerate() {
                // The paper's traces are five minutes long; run the full
                // length and skip the first 60 s of convergence.
                let trace = scenario
                    .generate_trace(
                        OperatorModel::Etisalat3G,
                        SimDuration::from_secs(300),
                        1200 + si as u64,
                    )
                    .expect("trace");
                let exp = CellExperiment::new(
                    trace,
                    users,
                    SimDuration::from_secs(300),
                    1300 + si as u64 + users as u64,
                );
                let reports = exp.run(spec);
                let series: Vec<&verus_stats::ThroughputSeries> =
                    reports.iter().map(|r| &r.throughput).collect();
                if let Some(j) = windowed_jain_mean_from(&series, 60) {
                    acc += j;
                    n += 1;
                }
            }
            let jain = 100.0 * acc / n.max(1) as f64;
            row.push(format!("{jain:.1}%"));
            checks.push(("Jain percent", jain));
            out.push(
                Json::object()
                    .field("users", users)
                    .field("protocol", spec.label())
                    .field("jain_percent", jain),
            );
        }
        rows.push(row);
    }

    println!("Table 1 — Jain's fairness index (1-second windows, averaged over the");
    println!("five evaluation scenarios)");
    println!();
    print_table(&["Scenario", "TCP Cubic", "TCP NewReno", "Verus (R=2)"], &rows);
    println!();
    println!("paper values: Cubic 98.1→70.1%, NewReno 89.7→82.0%, Verus 94.6→78.6%");
    println!("as users grow 2→20; the shape to match is Cubic degrading most under");
    println!("contention while NewReno stays flattest.");
    guard_finite("table1_jain_fairness", &checks);
    write_json("table1_jain_fairness", &Json::Arr(out));
}
