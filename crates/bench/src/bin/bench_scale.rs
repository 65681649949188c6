//! Crowd-scenario ledger smoke: a short 100-flow CUBIC crowd through
//! the paper's RED cellular bottleneck, with every flow's packet
//! conservation ledger re-checked from its report.
//!
//! CI runs it under `strict-invariants`, which additionally asserts
//! conservation after every event; the report-level check here guards
//! plain release builds too. It writes nothing. The crowd *benchmark*
//! is perfbench's `cubic_crowd` workload (`perfbench/README.md` maps the
//! committed `BENCH_2.json`/`BENCH_3.json` sweeps onto its metrics).
//!
//! The channel is `BENCH_3.json`'s N = 100 cell: the LTE model's
//! measured burst structure with its rate scaled 50×, so packet events
//! (not idle timers) stay the load.
//!
//! Usage: `bench_scale --smoke`.

use std::time::Instant;
use verus_bench::cc_by_name;
use verus_cellular::{OperatorModel, Scenario};
use verus_netsim::invariants::Ledger;
use verus_netsim::queue::QueueConfig;
use verus_netsim::{BottleneckConfig, FlowConfig, FlowReport, SimConfig, Simulation};
use verus_nettypes::{SimDuration, SimTime};

const FLOWS: u64 = 100;
const SEED: u64 = 7;

/// `FLOWS` full-buffer CUBIC flows with starts 50 ms apart, so
/// slow-start bursts don't all land on the empty queue in one granule.
fn crowd_config() -> SimConfig {
    let trace = Scenario::CampusStationary
        .generate_trace(OperatorModel::EtisalatLte, SimDuration::from_secs(10), 42)
        .expect("trace")
        .scale_rate(50.0);
    SimConfig {
        bottleneck: BottleneckConfig::Cell {
            trace,
            base_rtt: SimDuration::from_millis(40),
            loss: 0.0,
        },
        queue: QueueConfig::paper_red(),
        flows: (0..FLOWS)
            .map(|i| {
                FlowConfig::new(cc_by_name("cubic", 2.0)).starting_at(SimTime::from_millis(i * 50))
            })
            .collect(),
        duration: SimDuration::from_secs(10),
        seed: SEED,
        throughput_window: SimDuration::from_secs(1),
        impairments: Default::default(),
        abc: None,
    }
}

fn report_ledger(r: &FlowReport) -> Ledger {
    Ledger {
        sent: r.sent,
        dup_injected: r.dup_injected,
        radio_lost: r.radio_lost,
        impaired_lost: r.impaired_lost,
        queue_drops: r.queue_drops,
        corrupt_dropped: r.corrupt_dropped,
        shed_dropped: r.shed_dropped,
        in_queue: r.residual_in_queue,
        in_transit: r.residual_in_transit,
        delivered: r.delivered,
    }
}

fn main() {
    if !std::env::args().any(|a| a == "--smoke") {
        eprintln!("usage: bench_scale --smoke (the crowd benchmark is perfbench's cubic_crowd)");
        std::process::exit(2);
    }
    let sim = Simulation::new(crowd_config())
        .expect("valid config")
        .with_delay_samples(false);
    let t0 = Instant::now();
    let (reports, events) = sim.run_counted();
    let wall = t0.elapsed().as_secs_f64();
    assert_eq!(reports.len() as u64, FLOWS, "crowd run lost flows");
    let mut delivered = 0u64;
    for r in &reports {
        let ledger = report_ledger(r);
        assert!(
            ledger.balances(),
            "flow {} conservation ledger does not balance: {ledger:?}",
            r.flow
        );
        delivered += r.delivered;
    }
    assert!(delivered > 0, "crowd run delivered nothing");
    println!(
        "scale-smoke OK: {FLOWS} flows, {events} events in {wall:.2} s \
         ({:.0} events/s), {delivered} delivered, all ledgers balanced",
        events as f64 / wall
    );
}
