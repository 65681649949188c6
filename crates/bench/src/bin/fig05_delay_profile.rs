//! Figure 5: an example Verus delay profile — the recorded
//! `(sending window, delay)` points and the interpolated spline curve,
//! plus the `Dest → W` inverse lookup the window estimator performs.
//!
//! Setup: one Verus flow over a 3G cellular trace for 30 s; the profile
//! is sampled at the end of the run.

use verus_bench::{guard_finite, print_table, write_json};
use verus_cellular::{OperatorModel, Scenario};
use verus_core::VerusCc;
use verus_netsim::queue::QueueConfig;
use verus_netsim::{BottleneckConfig, FlowConfig, SimConfig, Simulation};
use verus_nettypes::SimDuration;
use verus_trace::json::Json;

fn main() {
    let trace = Scenario::CampusStationary
        .generate_trace(OperatorModel::Etisalat3G, SimDuration::from_secs(30), 500)
        .expect("trace generation");
    let config = SimConfig {
        bottleneck: BottleneckConfig::Cell {
            trace,
            base_rtt: SimDuration::from_millis(40),
            loss: 0.0,
        },
        queue: QueueConfig::deep_droptail(),
        flows: vec![FlowConfig::new(Box::new(VerusCc::default()))],
        duration: SimDuration::from_secs(30),
        seed: 501,
        throughput_window: SimDuration::from_secs(1),
        impairments: Default::default(),
        abc: None,
    };

    // Recorded profile points `(window, delay ms)` (the green dots), the
    // interpolated curve samples (the red line), and the current delay
    // set point with its inverse lookup.
    let mut points: Vec<(f64, f64)> = Vec::new();
    let mut curve: Vec<(f64, f64)> = Vec::new();
    let (mut dest_ms, mut window_at_dest) = (0.0, 0.0);
    let _ = Simulation::new(config).unwrap().run_observed(
        SimDuration::from_secs(29),
        |_, ccs| {
            let verus = ccs[0]
                .as_any()
                .downcast_ref::<VerusCc>()
                .expect("flow 0 is Verus");
            points = verus.profiler().points();
            curve = verus.profiler().curve_samples(60);
            if let Some(dest) = verus.dest_ms() {
                dest_ms = dest;
                window_at_dest = verus
                    .profiler()
                    .lookup_window(dest, 2.0, 20_000.0)
                    .unwrap_or(0.0);
            }
        },
    );

    println!("Figure 5 — Verus delay profile after 30 s on a 3G trace");
    println!();
    let rows: Vec<Vec<String>> = curve
        .iter()
        .step_by(3)
        .map(|(w, d)| vec![format!("{w:.0}"), format!("{d:.1}")])
        .collect();
    print_table(&["window W (pkts)", "delay D(W) (ms)"], &rows);
    println!();
    println!(
        "{} recorded points; current Dest = {:.1} ms → W = {:.1} packets",
        points.len(),
        dest_ms,
        window_at_dest
    );
    println!("paper shape: delay grows monotonically with the sending window, with");
    println!("curvature set by the channel's queueing response (compare Figure 5).");

    guard_finite(
        "fig05_delay_profile",
        &[
            ("Dest", dest_ms),
            ("window at Dest", window_at_dest),
            ("curve sum", curve.iter().map(|&(_, d)| d).sum::<f64>()),
            ("points sum", points.iter().map(|&(_, d)| d).sum::<f64>()),
        ],
    );

    write_json(
        "fig05_delay_profile",
        &Json::object()
            .field("points", points)
            .field("curve", curve)
            .field("dest_ms", dest_ms)
            .field("window_at_dest", window_at_dest),
    );
}
