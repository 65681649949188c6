//! Figure 15: the paper's own ablation — Verus with the delay profile
//! updating normally (re-interpolated every second) versus frozen at the
//! first curve it builds, over the five collected traces.
//!
//! Shape to reproduce: "updating the curve has an impact on performance"
//! — the static profile loses throughput and/or delay because its
//! operating points no longer match the channel.

use verus_bench::{guard_finite, print_table, write_json, CellExperiment, ProtocolSpec};
use verus_cellular::{OperatorModel, Scenario};
use verus_nettypes::SimDuration;
use verus_trace::json::Json;

fn main() {
    let mut out = Vec::new();
    let mut rows = Vec::new();
    let mut checks = Vec::new();
    // Sums of updating Mbit/s, updating ms, static Mbit/s, static ms.
    let mut sums = [0.0; 4];
    for (si, scenario) in Scenario::evaluation_five().into_iter().enumerate() {
        let trace = scenario
            .generate_trace(
                OperatorModel::Etisalat3G,
                SimDuration::from_secs(120),
                2100 + si as u64,
            )
            .expect("trace");
        let exp = CellExperiment::new(
            trace,
            3,
            SimDuration::from_secs(120),
            2200 + si as u64,
        );
        let run = |name: &'static str| {
            let reports = exp.run(ProtocolSpec {
                name,
                r: 2.0,
            });
            let n = reports.len() as f64;
            (
                reports.iter().map(|r| r.mean_throughput_mbps()).sum::<f64>() / n,
                reports.iter().map(|r| r.mean_delay_ms()).sum::<f64>() / n,
            )
        };
        let (u_t, u_d) = run("verus");
        let (s_t, s_d) = run("verus-static-profile");
        rows.push(vec![
            scenario.name().to_string(),
            format!("{u_t:.2}"),
            format!("{u_d:.0}"),
            format!("{s_t:.2}"),
            format!("{s_d:.0}"),
        ]);
        for (sum, v) in sums.iter_mut().zip([u_t, u_d, s_t, s_d]) {
            *sum += v;
        }
        checks.extend([
            ("updating throughput", u_t),
            ("updating delay", u_d),
            ("static throughput", s_t),
            ("static delay", s_d),
        ]);
        out.push(
            Json::object()
                .field("scenario", scenario.name())
                .field("updating_mbps", u_t)
                .field("updating_delay_ms", u_d)
                .field("static_mbps", s_t)
                .field("static_delay_ms", s_d),
        );
    }

    println!("Figure 15 — Verus (R=2) with updating vs static delay profile");
    println!();
    print_table(
        &[
            "scenario",
            "updating Mbit/s",
            "updating ms",
            "static Mbit/s",
            "static ms",
        ],
        &rows,
    );
    // Aggregate comparison.
    let n = out.len() as f64;
    println!();
    println!(
        "averages: updating {:.2} Mbit/s @ {:.0} ms — static {:.2} Mbit/s @ {:.0} ms",
        sums[0] / n,
        sums[1] / n,
        sums[2] / n,
        sums[3] / n
    );
    println!();
    println!("paper shape: the static profile is strictly worse — lower throughput");
    println!("and/or higher delay — because the channel moves away from the curve.");

    guard_finite("fig15_static_profile", &checks);
    write_json("fig15_static_profile", &Json::Arr(out));
}
