//! Cross-scheduler equivalence: the timing-wheel event core (with its
//! per-TTI delivery batching and coalesced RTO checks) and the
//! [`SchedulerKind::Reference`] heap (one event per packet and per RTO
//! arm) must be *indistinguishable* from the outside. For every scenario
//! × seed below, both schedulers must produce byte-identical
//! `FlowReport`s, and the traced runs byte-identical `verus-trace` JSONL.
//!
//! This is the wheel's oracle: it replaces the heap only because
//! dispatch order — and therefore every RNG draw, every controller
//! callback, and every metric sample — provably cannot change.

use verus_baselines::{Cubic, NewReno, Sprout, Vegas};
use verus_bench::cc_by_name;
use verus_cellular::{OperatorModel, Scenario, Trace};
use verus_core::VerusCc;
use verus_netsim::impairment::{Blackout, ImpairmentConfig, LossModel};
use verus_netsim::queue::QueueConfig;
use verus_netsim::{
    BottleneckConfig, FlowConfig, LossDetection, SchedulerKind, SimConfig, Simulation,
};
use verus_nettypes::{CongestionControl, SimDuration, SimTime};
use verus_trace::{to_jsonl, Recorder, TraceHandle};

const SEEDS: [u64; 3] = [11, 23, 47];
/// Seeds of the 2 s scaled-cell scenarios (mixed protocols, full
/// impairment pipeline, finite + shed flows, two traced flows).
const SHORT_SEEDS: [u64; 3] = [1, 7, 42];

fn cell_trace(seed: u64) -> Trace {
    Scenario::CampusStationary
        .generate_trace(OperatorModel::Etisalat3G, SimDuration::from_secs(10), seed)
        .expect("trace")
}

/// Scenario builders — a fresh `SimConfig` per call because flow
/// controllers are not cloneable.
fn single_flow_cell(seed: u64) -> SimConfig {
    SimConfig {
        bottleneck: BottleneckConfig::Cell {
            trace: cell_trace(seed),
            base_rtt: SimDuration::from_millis(40),
            loss: 0.005,
        },
        queue: QueueConfig::paper_red(),
        flows: vec![FlowConfig::new(cc_by_name("verus", 2.0))],
        duration: SimDuration::from_secs(8),
        seed,
        throughput_window: SimDuration::from_secs(1),
        impairments: ImpairmentConfig::default(),
        abc: None,
    }
}

fn ten_flow_red_cell(seed: u64) -> SimConfig {
    let flows = (0..10)
        .map(|i| {
            let name = if i % 2 == 0 { "verus" } else { "cubic" };
            let mut f = FlowConfig::new(cc_by_name(name, 2.0))
                .starting_at(SimTime::from_millis(i * 200));
            if i == 3 {
                // One duplicate-ACK-counting flow so the PacketThreshold
                // detector is exercised under both schedulers too.
                f.loss_detection = LossDetection::tcp();
            }
            f
        })
        .collect();
    SimConfig {
        bottleneck: BottleneckConfig::Cell {
            trace: cell_trace(seed ^ 0xA5),
            base_rtt: SimDuration::from_millis(40),
            loss: 0.0,
        },
        queue: QueueConfig::paper_red(),
        flows,
        duration: SimDuration::from_secs(6),
        seed,
        throughput_window: SimDuration::from_secs(1),
        impairments: ImpairmentConfig::default(),
        abc: None,
    }
}

fn impaired_gilbert_elliott(seed: u64) -> SimConfig {
    SimConfig {
        bottleneck: BottleneckConfig::Cell {
            trace: cell_trace(seed ^ 0x5A),
            base_rtt: SimDuration::from_millis(50),
            loss: 0.0,
        },
        queue: QueueConfig::paper_red(),
        flows: vec![
            FlowConfig::new(cc_by_name("verus", 2.0)),
            FlowConfig::new(cc_by_name("newreno", 2.0)),
        ],
        duration: SimDuration::from_secs(8),
        seed,
        throughput_window: SimDuration::from_secs(1),
        impairments: ImpairmentConfig {
            loss: LossModel::GilbertElliott {
                p_good_to_bad: 0.01,
                p_bad_to_good: 0.2,
                loss_good: 0.0,
                loss_bad: 0.5,
            },
            // Exercise every batch-splitting edge: reordering perturbs
            // arrival times, duplication inserts extra queue entries,
            // corruption drops packets mid-batch.
            reorder_prob: 0.01,
            reorder_extra_delay: SimDuration::from_millis(30),
            duplicate_prob: 0.005,
            corrupt_prob: 0.005,
            blackouts: Vec::new(),
            seed: seed.wrapping_mul(31),
        },
        abc: None,
    }
}

fn fixed_dumbbell(seed: u64) -> SimConfig {
    SimConfig {
        bottleneck: BottleneckConfig::fixed(8e6, SimDuration::from_millis(60), 0.01),
        queue: QueueConfig::deep_droptail(),
        flows: vec![
            FlowConfig::new(cc_by_name("verus", 2.0)),
            FlowConfig::new(cc_by_name("cubic", 2.0)).starting_at(SimTime::from_secs(1)),
        ],
        duration: SimDuration::from_secs(8),
        seed,
        throughput_window: SimDuration::from_secs(1),
        impairments: ImpairmentConfig::default(),
        abc: None,
    }
}

/// An 8×-scaled LTE cell for the short scenarios below.
fn lte_cell() -> BottleneckConfig {
    BottleneckConfig::Cell {
        trace: Scenario::CampusStationary
            .generate_trace(OperatorModel::EtisalatLte, SimDuration::from_secs(5), 42)
            .expect("trace")
            .scale_rate(8.0),
        base_rtt: SimDuration::from_millis(40),
        loss: 0.0,
    }
}

fn short_run(
    bottleneck: BottleneckConfig,
    queue: QueueConfig,
    flows: Vec<FlowConfig>,
    seed: u64,
) -> SimConfig {
    SimConfig {
        bottleneck,
        queue,
        flows,
        duration: SimDuration::from_secs(2),
        seed,
        throughput_window: SimDuration::from_secs(1),
        impairments: ImpairmentConfig::default(),
        abc: None,
    }
}

/// Five protocols (different tick cadences, loss detectors, and window
/// dynamics) with per-flow RTT diversity over a lossy 3G channel.
fn mixed_protocols(seed: u64) -> SimConfig {
    let ccs: Vec<Box<dyn CongestionControl>> = vec![
        Box::new(VerusCc::default()),
        Box::new(Cubic::new()),
        Box::new(NewReno::new()),
        Box::new(Vegas::new()),
        Box::new(Sprout::default()),
    ];
    let flows = ccs
        .into_iter()
        .enumerate()
        .map(|(i, cc)| {
            FlowConfig::new(cc)
                .starting_at(SimTime::from_millis(i as u64 * 120))
                .with_extra_rtt(SimDuration::from_millis(10 * i as u64))
        })
        .collect();
    let lossy_3g = BottleneckConfig::Cell {
        trace: Scenario::HighwayDriving
            .generate_trace(OperatorModel::Etisalat3G, SimDuration::from_secs(5), 9)
            .expect("trace")
            .scale_rate(6.0),
        base_rtt: SimDuration::from_millis(60),
        loss: 0.02,
    };
    short_run(lossy_3g, QueueConfig::deep_droptail(), flows, seed)
}

/// The full impairment pipeline — bursty loss, reordering,
/// duplication, corruption, and a mid-run blackout.
fn full_impairment_pipeline(seed: u64) -> SimConfig {
    let flows = (0..5)
        .map(|i| {
            let cc: Box<dyn CongestionControl> = if i % 2 == 0 {
                Box::new(VerusCc::default())
            } else {
                Box::new(Cubic::new())
            };
            FlowConfig::new(cc).starting_at(SimTime::from_millis(i * 70))
        })
        .collect();
    let mut config = short_run(lte_cell(), QueueConfig::paper_red(), flows, seed);
    config.impairments = ImpairmentConfig {
        loss: LossModel::GilbertElliott {
            p_good_to_bad: 0.01,
            p_bad_to_good: 0.3,
            loss_good: 0.0,
            loss_bad: 0.2,
        },
        reorder_prob: 0.05,
        reorder_extra_delay: SimDuration::from_millis(30),
        duplicate_prob: 0.02,
        corrupt_prob: 0.02,
        blackouts: vec![Blackout {
            start: SimTime::from_millis(1500),
            duration: SimDuration::from_millis(400),
        }],
        seed: seed ^ 0xD1CE,
    };
    config
}

/// Finite transfers completing mid-run plus shed-capped full-buffer
/// flows (completion times and the shed ledger).
fn finite_and_shed(seed: u64) -> SimConfig {
    let mut flows: Vec<FlowConfig> = (0..3)
        .map(|i| {
            FlowConfig::new(Box::new(NewReno::new()))
                .starting_at(SimTime::from_millis(i * 100))
                .with_transfer(200_000 + 50_000 * i)
        })
        .collect();
    flows.extend((0..3).map(|i| {
        FlowConfig::new(Box::new(Cubic::new()))
            .starting_at(SimTime::from_millis(40 * i))
            .with_shed_cap(64)
    }));
    short_run(lte_cell(), QueueConfig::paper_red(), flows, seed)
}

/// Runs `config` on the given scheduler and returns the reports'
/// canonical byte form. `Debug` covers every public field of every
/// report — throughput series, delay samples, streaming stats, ledger
/// residuals, completion times — so byte equality here is report
/// equality.
fn run_reports(config: SimConfig, kind: SchedulerKind) -> String {
    let sim = Simulation::new(config).expect("valid config").with_scheduler(kind);
    assert_eq!(sim.scheduler(), kind, "scheduler selection must stick");
    format!("{:#?}", sim.run())
}

/// Runs `config` with flow 0 traced on the given scheduler and returns
/// the full JSONL export.
fn run_jsonl(mut config: SimConfig, kind: SchedulerKind) -> String {
    let recorder = Recorder::new();
    let (handle, shared) = recorder.shared();
    let flow0 = config.flows.remove(0).with_trace(handle.clone());
    config.flows.insert(0, flow0);
    let _reports = Simulation::new(config)
        .expect("valid config")
        .with_scheduler(kind)
        .run();
    drop(handle);
    let rec = shared
        .lock()
        .map(|mut r| std::mem::take(&mut *r))
        .expect("recorder lock");
    to_jsonl(&rec, "netsim", "sim")
}

fn assert_equivalent(name: &str, mk: fn(u64) -> SimConfig, seeds: &[u64]) {
    for &seed in seeds {
        let wheel = run_reports(mk(seed), SchedulerKind::Wheel);
        let reference = run_reports(mk(seed), SchedulerKind::Reference);
        assert!(
            wheel == reference,
            "{name} seed {seed}: FlowReports diverged between Wheel and Reference\n\
             --- wheel ---\n{}\n--- reference ---\n{}",
            &wheel[..wheel.len().min(4000)],
            &reference[..reference.len().min(4000)],
        );
    }
}

#[test]
fn single_flow_cell_reports_match() {
    assert_equivalent("single-flow cell", single_flow_cell, &SEEDS);
}

#[test]
fn ten_flow_red_crowd_reports_match() {
    assert_equivalent("10-flow RED cell", ten_flow_red_cell, &SEEDS);
}

#[test]
fn impaired_gilbert_elliott_reports_match() {
    assert_equivalent("impaired Gilbert-Elliott", impaired_gilbert_elliott, &SEEDS);
}

#[test]
fn fixed_dumbbell_reports_match() {
    assert_equivalent("fixed dumbbell", fixed_dumbbell, &SEEDS);
}

#[test]
fn mixed_protocols_reports_match() {
    assert_equivalent("5-protocol mix", mixed_protocols, &SHORT_SEEDS);
}

#[test]
fn full_impairment_pipeline_reports_match() {
    assert_equivalent(
        "full impairment pipeline",
        full_impairment_pipeline,
        &SHORT_SEEDS,
    );
}

#[test]
fn finite_and_shed_flows_reports_match() {
    assert_equivalent("finite + shed-capped flows", finite_and_shed, &SHORT_SEEDS);
}

#[test]
fn trace_jsonl_is_byte_identical_across_schedulers() {
    for seed in SEEDS {
        let wheel = run_jsonl(single_flow_cell(seed), SchedulerKind::Wheel);
        let reference = run_jsonl(single_flow_cell(seed), SchedulerKind::Reference);
        assert!(!wheel.is_empty(), "trace export produced nothing");
        assert!(
            wheel == reference,
            "seed {seed}: verus-trace JSONL diverged between schedulers"
        );
    }
    // And under contention + impairments, where batching actually kicks in.
    let wheel = run_jsonl(impaired_gilbert_elliott(SEEDS[0]), SchedulerKind::Wheel);
    let reference = run_jsonl(impaired_gilbert_elliott(SEEDS[0]), SchedulerKind::Reference);
    assert!(
        wheel == reference,
        "impaired trace JSONL diverged between schedulers"
    );
}

/// Two instrumented Verus flows share one recorder, so the export has
/// to interleave their records by `(t_ns, flow lane)`; a third,
/// untraced flow competes for the cell.
#[test]
fn two_traced_flows_jsonl_is_byte_identical() {
    fn traced_run(kind: SchedulerKind, seed: u64) -> String {
        let (handle_a, shared) = Recorder::with_capacity(1 << 16, 1 << 16, 1 << 10).shared();
        let handle_b = TraceHandle::new(shared.clone());
        let flows = vec![
            FlowConfig::new(Box::new(VerusCc::default())).with_trace(handle_a),
            FlowConfig::new(Box::new(VerusCc::default()))
                .starting_at(SimTime::from_millis(80))
                .with_trace(handle_b),
            FlowConfig::new(Box::new(Cubic::new())).starting_at(SimTime::from_millis(30)),
        ];
        let config = short_run(lte_cell(), QueueConfig::paper_red(), flows, seed);
        let reports = Simulation::new(config)
            .expect("valid config")
            .with_scheduler(kind)
            .run();
        assert_eq!(reports.len(), 3);
        let rec = shared.lock().expect("recorder unpoisoned");
        assert_eq!(
            rec.dropped(),
            verus_trace::DropCounts::default(),
            "recorder overflowed; grow the capacity"
        );
        to_jsonl(&rec, "netsim", "sim")
    }
    for seed in SHORT_SEEDS {
        let wheel = traced_run(SchedulerKind::Wheel, seed);
        assert!(
            wheel.lines().count() > 10,
            "trace capture looks empty — instrumentation wiring broke"
        );
        let reference = traced_run(SchedulerKind::Reference, seed);
        assert!(
            wheel == reference,
            "seed {seed}: two-flow trace JSONL diverged between schedulers"
        );
    }
}

#[test]
fn batching_actually_reduces_event_count() {
    // Guard against the wheel silently falling back to per-packet
    // events: under a saturated cell bottleneck a batched pop retires
    // many logical events, while the reference pops once per event.
    let instrumented = |kind| {
        Simulation::new(ten_flow_red_cell(SEEDS[0]))
            .expect("valid config")
            .with_scheduler(kind)
            .run_instrumented()
    };
    let (_, wheel_events, wheel_pops) = instrumented(SchedulerKind::Wheel);
    let (_, reference_events, reference_pops) = instrumented(SchedulerKind::Reference);
    assert_eq!(
        reference_pops, reference_events,
        "the reference scheduler must pop once per logical event"
    );
    assert!(
        wheel_pops < wheel_events,
        "wheel popped {wheel_pops} times for {wheel_events} logical events: no batching"
    );
    assert!(
        wheel_pops < reference_pops,
        "wheel popped {wheel_pops} times, reference {reference_pops}: no saving"
    );
}
