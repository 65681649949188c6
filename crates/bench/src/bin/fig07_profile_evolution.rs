//! Figure 7: (a) a 200 s fluctuating channel trace and (b) how the Verus
//! delay-profile curve evolves with it — "the smaller the available
//! throughput is, the steeper the delay profile becomes".
//!
//! Setup: one Verus flow over a 200 s driving-scenario LTE trace; the
//! profile curve is snapshotted every 5 s (the paper plots every fifth
//! 1-second re-interpolation).

use verus_bench::{guard_finite, print_table, write_json};
use verus_cellular::{OperatorModel, Scenario};
use verus_core::VerusCc;
use verus_netsim::queue::QueueConfig;
use verus_netsim::{BottleneckConfig, FlowConfig, SimConfig, Simulation};
use verus_nettypes::SimDuration;
use verus_trace::json::Json;

/// One 5-second snapshot of the profile curve.
struct Snapshot {
    t_s: f64,
    curve: Vec<(f64, f64)>,
    channel_mbps_last_5s: f64,
}

fn main() {
    let trace = Scenario::CityDriving
        .generate_trace(OperatorModel::EtisalatLte, SimDuration::from_secs(200), 700)
        .expect("trace generation");
    let channel_series: Vec<(f64, f64)> = trace
        .windowed_rate_bps(SimDuration::from_secs(1))
        .into_iter()
        .map(|(t, bps)| (t, bps / 1e6))
        .collect();

    let config = SimConfig {
        bottleneck: BottleneckConfig::Cell {
            trace,
            base_rtt: SimDuration::from_millis(40),
            loss: 0.0,
        },
        queue: QueueConfig::deep_droptail(),
        flows: vec![FlowConfig::new(Box::new(VerusCc::default()))],
        duration: SimDuration::from_secs(200),
        seed: 701,
        throughput_window: SimDuration::from_secs(1),
        impairments: Default::default(),
        abc: None,
    };

    let mut snapshots: Vec<Snapshot> = Vec::new();
    let channel_for_closure = channel_series.clone();
    let _ = Simulation::new(config).unwrap().run_observed(
        SimDuration::from_secs(5),
        |now, ccs| {
            let verus = ccs[0]
                .as_any()
                .downcast_ref::<VerusCc>()
                .expect("flow 0 is Verus");
            let t = now.as_secs_f64();
            let recent: Vec<f64> = channel_for_closure
                .iter()
                .filter(|(ts, _)| *ts >= t - 5.0 && *ts < t)
                .map(|&(_, v)| v)
                .collect();
            let mean = recent.iter().sum::<f64>() / recent.len().max(1) as f64;
            snapshots.push(Snapshot {
                t_s: t,
                curve: verus.profiler().curve_samples(40),
                channel_mbps_last_5s: mean,
            });
        },
    );

    println!("Figure 7 — channel trace and Verus delay-profile evolution (200 s)");
    println!();
    // The paper's claim: "the smaller the available throughput is, the
    // steeper the delay profile becomes". Steepness is summarized as the
    // curve's delay at a reference window of 40 packets; a slow channel
    // queues 40 packets for much longer.
    let ref_delay = |s: &Snapshot| -> Option<f64> {
        if s.curve.len() < 2 {
            return None;
        }
        // nearest curve sample to W = 40
        s.curve
            .iter()
            .min_by(|a, b| (a.0 - 40.0).abs().total_cmp(&(b.0 - 40.0).abs()))
            .map(|&(_, d)| d)
    };
    let rows: Vec<Vec<String>> = snapshots
        .iter()
        .filter(|s| ref_delay(s).is_some())
        .step_by(4)
        .map(|s| {
            vec![
                format!("{:.0}", s.t_s),
                format!("{:.2}", s.channel_mbps_last_5s),
                format!("{:.1}", ref_delay(s).unwrap()),
            ]
        })
        .collect();
    print_table(
        &["t (s)", "channel (Mbit/s, last 5 s)", "D(W=40) (ms)"],
        &rows,
    );
    // Pearson correlation over all snapshots: steepness vs channel rate
    // should be negative.
    let pairs: Vec<(f64, f64)> = snapshots
        .iter()
        .filter_map(|s| ref_delay(s).map(|d| (s.channel_mbps_last_5s, d)))
        .collect();
    let n = pairs.len() as f64;
    let mx = pairs.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pairs.iter().map(|p| p.1).sum::<f64>() / n;
    let cov = pairs.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum::<f64>() / n;
    let sx = (pairs.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum::<f64>() / n).sqrt();
    let sy = (pairs.iter().map(|p| (p.1 - my) * (p.1 - my)).sum::<f64>() / n).sqrt();
    let corr = cov / (sx * sy).max(1e-12);
    println!();
    println!("corr(channel rate, profile delay at W=40) = {corr:.2}  (expect < 0)");
    println!();
    println!("paper shape: the profile steepens (higher delay at the same window)");
    println!("whenever the channel rate drops, and flattens again as it returns.");

    guard_finite(
        "fig07_profile_evolution",
        &[
            ("correlation", corr),
            (
                "channel series sum",
                channel_series.iter().map(|&(_, v)| v).sum::<f64>(),
            ),
            (
                "snapshot curves sum",
                snapshots
                    .iter()
                    .flat_map(|s| s.curve.iter().map(|&(_, d)| d))
                    .sum::<f64>(),
            ),
        ],
    );

    // (a) the channel capacity per second in Mbit/s; (b) the profile
    // curve snapshots; and the steepness correlation printed above.
    let snapshots: Json = snapshots
        .into_iter()
        .map(|s| {
            Json::object()
                .field("t_s", s.t_s)
                .field("curve", s.curve)
                .field("channel_mbps_last_5s", s.channel_mbps_last_5s)
        })
        .collect();
    write_json(
        "fig07_profile_evolution",
        &Json::object()
            .field("channel_series", channel_series)
            .field("snapshots", snapshots)
            .field("corr_channel_vs_d40", corr),
    );
}
