//! Baseline tournament: every protocol on every scenario, scored
//! against the omniscient upper bound.
//!
//! The grid is 8 protocols — Verus, the four classic baselines, the
//! delay-centric successors C2TCP and ABC, and the `verus-oracle`
//! omniscient controller — times 10 scenarios: the paper's seven §5.3
//! measurement scenarios plus the three named stress scenarios
//! (`verus_cellular::StressScenario`) the chaos harness shares. Every
//! protocol in a scenario faces the *identical* channel: same generated
//! trace, same impairment schedule, same seed.
//!
//! Per cell the artifact records throughput, p95 one-way delay, the
//! `log(1+throughput) − δ·delay` utility (`verus_stats::regret`), and
//! **regret** against the scenario's optimal utility. The optimum is
//! what the omniscient controller itself achieves on the run — measured
//! through the same simulator, queue, and metrics pipeline as everyone
//! else, so the oracle's own regret is *exactly* 0 by construction and
//! every causal protocol lands in [0, 1].
//!
//! Choices worth noting:
//!
//! * The oracle always runs a single flow, even in the multi-user
//!   stress cell: the bound is "the best one sender knowing the future
//!   could extract from this channel". Multi-flow protocols are scored
//!   on their aggregate (summed throughput, pooled p95 delay).
//! * The ABC protocol's runs — and only those — enable the in-network
//!   marker (`SimConfig.abc`); every other cell runs with marks
//!   dormant, so the tournament perturbs no byte-identical path.
//! * Every cell, the deep-buffer crowd included, runs on the default
//!   timing-wheel scheduler.
//!
//! Output: `TOURNAMENT_0.json` (override with `VERUS_BENCH_OUT`),
//! with fixed-precision floats so same-seed runs are byte-identical. `--smoke` runs 3 scenarios at 8 s with the same
//! schema for CI.

use verus_bench::cc_by_name;
use verus_cellular::{OperatorModel, Scenario, StressScenario, Trace};
use verus_netsim::chaos::ChaosSchedule;
use verus_netsim::queue::QueueConfig;
use verus_netsim::{AbcConfig, BottleneckConfig, FlowConfig, FlowReport, SimConfig, Simulation};
use verus_nettypes::{CongestionControl, SimDuration};
use verus_oracle::{OracleCc, SchedulePlan};
use verus_stats::{regret, utility, DEFAULT_DELTA};
use verus_trace::json::Json;

const SEED: u64 = 7;
const BASE_RTT: SimDuration = SimDuration::from_millis(40);
const PACKET_BYTES: u32 = 1400;

/// Canonical protocol order of the artifact. The oracle is listed last
/// but always *runs* first in each scenario — its utility is the
/// denominator of everyone else's regret.
const PROTOCOLS: [&str; 8] = [
    "verus", "cubic", "newreno", "vegas", "sprout", "c2tcp", "abc", "oracle",
];

/// One row of the grid: a named channel every protocol runs through.
struct ScenarioSpec {
    name: &'static str,
    kind: &'static str,
    trace: Trace,
    flows: usize,
    queue: QueueConfig,
    impairments: ChaosSchedule,
    /// Outage windows the omniscient planner must schedule around.
    outages: Vec<(verus_nettypes::SimTime, verus_nettypes::SimTime)>,
}

fn scenarios(duration: SimDuration, smoke: bool) -> Vec<ScenarioSpec> {
    let mut specs = Vec::new();
    let paper: &[Scenario] = if smoke {
        &[Scenario::CampusStationary]
    } else {
        &Scenario::all()[..]
    };
    for (i, s) in paper.iter().enumerate() {
        specs.push(ScenarioSpec {
            name: s.name(),
            kind: "paper",
            trace: s
                .generate_trace(OperatorModel::Etisalat3G, duration, SEED + i as u64)
                .expect("paper scenario trace"),
            flows: 1,
            queue: QueueConfig::paper_red(),
            impairments: ChaosSchedule::new(SEED),
            outages: Vec::new(),
        });
    }
    let stress: &[StressScenario] = if smoke {
        &[StressScenario::HandoverStorm, StressScenario::BlackoutRecovery]
    } else {
        &StressScenario::all()[..]
    };
    for (i, s) in stress.iter().enumerate() {
        let crowd = s.flows() > 1;
        specs.push(ScenarioSpec {
            name: s.name(),
            kind: "stress",
            trace: s
                .generate_trace(OperatorModel::Etisalat3G, duration, SEED + 100 + i as u64)
                .expect("stress scenario trace"),
            flows: s.flows(),
            queue: if crowd {
                QueueConfig::deep_droptail()
            } else {
                QueueConfig::paper_red()
            },
            impairments: ChaosSchedule::for_stress(s, SEED),
            outages: s.outage_train().map(|t| t.windows()).unwrap_or_default(),
        });
    }
    specs
}

/// Builds `n` fresh controllers for `protocol` on this scenario's
/// channel. The oracle gets the full delivery plan; see the module doc
/// for why it is always a single flow.
fn build_flows(protocol: &str, spec: &ScenarioSpec, duration: SimDuration) -> Vec<FlowConfig> {
    let build: Box<dyn Fn() -> Box<dyn CongestionControl>> = if protocol == "oracle" {
        let plan = SchedulePlan::build(
            &spec.trace,
            duration,
            PACKET_BYTES,
            &spec.outages,
            SchedulePlan::DEFAULT_LEAD,
        );
        Box::new(move || Box::new(OracleCc::new(plan.clone())))
    } else {
        let name = protocol.to_string();
        Box::new(move || cc_by_name(&name, 2.0))
    };
    let flows = if protocol == "oracle" { 1 } else { spec.flows };
    (0..flows).map(|_| FlowConfig::new(build())).collect()
}

struct Cell {
    throughput_mbps: f64,
    p95_delay_ms: f64,
    delivered: u64,
    utility: f64,
}

/// Runs one (protocol, scenario) cell and aggregates its flows.
fn run_cell(protocol: &str, spec: &ScenarioSpec, duration: SimDuration) -> Cell {
    let config = SimConfig {
        bottleneck: BottleneckConfig::Cell {
            trace: spec.trace.clone(),
            base_rtt: BASE_RTT,
            loss: 0.0,
        },
        queue: spec.queue,
        flows: build_flows(protocol, spec, duration),
        duration,
        seed: SEED,
        throughput_window: SimDuration::from_secs(1),
        impairments: spec.impairments.compile().expect("impairments compile"),
        abc: if protocol == "abc" {
            Some(AbcConfig::default())
        } else {
            None
        },
    };
    let reports = Simulation::new(config).expect("valid config").run();
    aggregate(&reports)
}

/// Aggregate across flows: summed throughput, pooled p95 delay.
fn aggregate(reports: &[FlowReport]) -> Cell {
    let throughput_mbps: f64 = reports.iter().map(FlowReport::mean_throughput_mbps).sum();
    let mut delays: Vec<f64> = reports.iter().flat_map(|r| r.delays_ms.iter().copied()).collect();
    delays.sort_by(f64::total_cmp);
    let p95_delay_ms = if delays.is_empty() {
        0.0
    } else {
        delays[((delays.len() as f64 * 0.95).ceil() as usize).saturating_sub(1)]
    };
    let delivered = reports.iter().map(|r| r.delivered).sum();
    let utility = utility(throughput_mbps, p95_delay_ms / 1e3, DEFAULT_DELTA);
    Cell {
        throughput_mbps,
        p95_delay_ms,
        delivered,
        utility,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let duration = if smoke {
        SimDuration::from_secs(8)
    } else {
        SimDuration::from_secs(30)
    };
    let specs = scenarios(duration, smoke);
    println!(
        "tournament: {} protocols × {} scenarios, {} s each, seed {SEED}{}",
        PROTOCOLS.len(),
        specs.len(),
        duration.as_secs_f64(),
        if smoke { " [smoke]" } else { "" }
    );

    let mut scenarios = Vec::new();
    for spec in &specs {
        // The oracle defines the scenario's optimal utility; everyone
        // else is scored against it.
        let optimal = run_cell("oracle", spec, duration);
        println!(
            "  {:<24} optimal: {:.3} Mbit/s, p95 {:.1} ms, utility {:.4}",
            spec.name, optimal.throughput_mbps, optimal.p95_delay_ms, optimal.utility
        );
        let mut cells = Vec::new();
        for protocol in PROTOCOLS {
            let cell = if protocol == "oracle" {
                // Reuse the measured optimum — same config, same seed,
                // rerunning it would only burn time to get the same
                // bytes. Regret is 1 − u/u by definition: exactly 0.
                Cell { ..optimal }
            } else {
                run_cell(protocol, spec, duration)
            };
            let reg = regret(cell.utility, optimal.utility);
            println!(
                "    {:<8} {:>7.3} Mbit/s  p95 {:>8.1} ms  regret {:.4}",
                protocol, cell.throughput_mbps, cell.p95_delay_ms, reg
            );
            cells.push(
                Json::object()
                    .field("protocol", protocol)
                    .field("throughput_mbps", Json::fixed(cell.throughput_mbps, 4))
                    .field("p95_delay_ms", Json::fixed(cell.p95_delay_ms, 3))
                    .field("delivered", cell.delivered)
                    .field("utility", Json::fixed(cell.utility, 6))
                    .field("regret", Json::fixed(reg, 6)),
            );
        }
        scenarios.push(
            Json::object()
                .field("name", spec.name)
                .field("kind", spec.kind)
                .field("flows", spec.flows)
                .field("optimal_utility", Json::fixed(optimal.utility, 6))
                .field("cells", cells),
        );
    }
    let json = Json::object()
        .field("schema", "verus-tournament-v1")
        .field("smoke", smoke)
        .field("seed", SEED)
        .field("duration_secs", duration.as_secs_f64())
        .field("delta", Json::fixed(DEFAULT_DELTA, 1))
        .field("protocols", PROTOCOLS.len())
        .field("scenarios", scenarios);

    let path = std::env::var("VERUS_BENCH_OUT").unwrap_or_else(|_| "TOURNAMENT_0.json".into());
    std::fs::write(&path, json.pretty() + "\n").expect("write tournament record");
    println!("→ wrote {path}");
}
