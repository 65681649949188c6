//! Figure 4: data received on a 3G stationary downlink, aggregated in
//! (a) 100 ms and (b) 20 ms windows — the raw-variability figure that
//! motivates "adapt, don't predict".
//!
//! Paper setup: one user receiving 10 Mbit/s on a stationary 3G downlink
//! (campus parking lot), minute 2–3 of the trace shown. The shape:
//! dramatic window-to-window fluctuations, worse at 20 ms than 100 ms.

use verus_bench::{guard_finite, print_table, write_json};
use verus_cellular::{OperatorModel, Scenario};
use verus_nettypes::SimDuration;
use verus_trace::json::Json;

/// One window size over minute 2–3: its JSON record (with the
/// `(time s, kbit/s)` series) and its mean, standard deviation and
/// coefficient of variation.
fn series_for(trace: &verus_cellular::Trace, window_ms: u64) -> (Json, f64, f64, f64) {
    let series: Vec<(f64, f64)> = trace
        .windowed_rate_bps(SimDuration::from_millis(window_ms))
        .into_iter()
        .filter(|(t, _)| *t >= 120.0 && *t < 180.0)
        .map(|(t, bps)| (t, bps / 1e3))
        .collect();
    let n = series.len().max(1) as f64;
    let mean = series.iter().map(|&(_, v)| v).sum::<f64>() / n;
    let var = series
        .iter()
        .map(|&(_, v)| (v - mean) * (v - mean))
        .sum::<f64>()
        / n;
    let (std, cov) = (var.sqrt(), var.sqrt() / mean.max(1e-9));
    let json = Json::object()
        .field("window_ms", window_ms)
        .field("series", series)
        .field("mean_kbps", mean)
        .field("std_kbps", std)
        .field("cov", cov);
    (json, mean, std, cov)
}

fn main() {
    // Stationary 3G downlink, one 10 Mbit/s-class user.
    let trace = Scenario::CityStationary
        .generate_trace(OperatorModel::Etisalat3G, SimDuration::from_secs(200), 400)
        .expect("trace generation");

    let (w100, mean100, std100, cov100) = series_for(&trace, 100);
    let (w20, mean20, std20, cov20) = series_for(&trace, 20);

    println!("Figure 4 — received throughput in fixed windows, 3G stationary downlink");
    println!();
    let rows = vec![
        vec![
            "100 ms".into(),
            format!("{mean100:.0}"),
            format!("{std100:.0}"),
            format!("{cov100:.2}"),
        ],
        vec![
            "20 ms".into(),
            format!("{mean20:.0}"),
            format!("{std20:.0}"),
            format!("{cov20:.2}"),
        ],
    ];
    print_table(
        &["window", "mean (kbit/s)", "std (kbit/s)", "coeff. of variation"],
        &rows,
    );
    println!();
    println!("paper shape: both windows fluctuate strongly; the 20 ms series has a");
    println!("clearly higher coefficient of variation than the 100 ms series.");
    println!("(full series in the JSON output)");

    guard_finite(
        "fig04_throughput_windows",
        &[
            ("100 ms mean", mean100),
            ("100 ms cov", cov100),
            ("20 ms mean", mean20),
            ("20 ms cov", cov20),
        ],
    );

    write_json("fig04_throughput_windows", &Json::Arr(vec![w100, w20]));
}
