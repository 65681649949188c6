//! §3 "Channel Unpredictability": simple predictors — linear and k-step —
//! fail to track the channel even with the most recent samples.
//!
//! Setup: a 3G stationary downlink trace binned into 20 ms throughput
//! windows (Figure 4b's granularity); each predictor sees the series up
//! to index `i` and is scored at `i + k` for horizons of 1, 5 and 25
//! windows (20 ms, 100 ms, 500 ms ahead).
//!
//! Shape to reproduce: normalized RMSE stays a large fraction of the
//! mean at every horizon — the motivation for Verus adapting instead of
//! predicting.

use verus_bench::{guard_finite, print_table, write_json};
use verus_cellular::predictors::{
    evaluate, EwmaPredictor, LastValue, LinearPredictor, Predictor, PredictionError,
    SlidingMean,
};
use verus_cellular::{OperatorModel, Scenario};
use verus_nettypes::SimDuration;
use verus_trace::json::Json;

fn main() {
    let trace = Scenario::CityStationary
        .generate_trace(OperatorModel::Etisalat3G, SimDuration::from_secs(300), 2300)
        .expect("trace");
    let series: Vec<f64> = trace
        .windowed_rate_bps(SimDuration::from_millis(20))
        .into_iter()
        .map(|(_, bps)| bps / 1e3) // kbit/s per window
        .collect();
    let mean = series.iter().sum::<f64>() / series.len() as f64;

    let mut rows = Vec::new();
    let mut out = Vec::new();
    let mut checks = Vec::new();
    for k in [1usize, 5, 25] {
        let mut score = |name: String, err: Option<PredictionError>| {
            let err = err.expect("series long enough");
            rows.push(vec![
                name.clone(),
                format!("{k}"),
                format!("{:.2}", err.nrmse),
                format!("{:.0}", err.mae),
            ]);
            checks.push(("NRMSE", err.nrmse));
            checks.push(("MAE", err.mae));
            out.push(
                Json::object()
                    .field("predictor", name)
                    .field("k", k)
                    .field("nrmse", err.nrmse)
                    .field("mae_kbps", err.mae),
            );
        };
        let mut p = LastValue::new();
        score(p.name(), evaluate(&mut p, &series, k));
        let mut p = SlidingMean::new(10);
        score(p.name(), evaluate(&mut p, &series, k));
        let mut p = EwmaPredictor::new(0.9);
        score(p.name(), evaluate(&mut p, &series, k));
        let mut p = LinearPredictor::new(10);
        score(p.name(), evaluate(&mut p, &series, k));
    }

    println!("§3 — channel predictability, 20 ms windows, 3G stationary downlink");
    println!("series mean {mean:.0} kbit/s over {} windows", series.len());
    println!();
    print_table(
        &["predictor", "horizon k", "NRMSE", "MAE (kbit/s)"],
        &rows,
    );
    println!();
    println!("paper shape: every predictor's error is a large fraction of the mean");
    println!("(NRMSE ≫ 0) even one 20 ms step ahead, and the linear extrapolator is");
    println!("no better than naive hold-last — the channel resists prediction.");

    guard_finite("sec3_predictability", &checks);
    write_json("sec3_predictability", &Json::Arr(out));
}
