//! The two simulator workloads, `verus_single` and `cubic_crowd`.
//!
//! Every run goes through the simulator's default entry point
//! (`Simulation::new(..).run_instrumented()` on the build's default
//! scheduler). One *pass* runs every channel of the workload once; each
//! pass sets up afresh (trace generation, flow construction,
//! `Simulation::new`) so set-up time is sampled as often as run time.

use crate::host::{self, fnv1a, measure, median, mix};
use crate::probe::{self, LayerSpans, Probe, Sink};
use crate::Outcome;
use std::time::{Duration, Instant};
use verus_baselines::Cubic;
use verus_cellular::{OperatorModel, Scenario, StressScenario, Trace};
use verus_core::{VerusCc, VerusConfig};
use verus_netsim::chaos::ChaosSchedule;
use verus_netsim::queue::QueueConfig;
use verus_netsim::{BottleneckConfig, FlowConfig, FlowReport, SimConfig, Simulation};
use verus_nettypes::{CongestionControl, SimDuration, SimTime, TraceHandle};
use verus_trace::{Recorder, SharedRecorder};

const BASE_RTT: SimDuration = SimDuration::from_millis(40);
/// Simulated length of each `verus_single` channel: long enough for the
/// last outage of either stress train (BlackoutRecovery ends at 23 s,
/// HandoverStorm at 25.4 s) to be followed by a recovery.
const SINGLE_DURATION: SimDuration = SimDuration::from_secs(30);
/// The crowd: N full-buffer CUBIC flows, starts spread over 5 s with a
/// seeded jitter, on BENCH_3's channel: the LTE trace of seed 42 scaled
/// by 50 × √(N/100). The channel is fixed; the seed draws the starts and
/// the RED stream.
const CROWD_FLOWS: usize = 10_000;
const CROWD_TRACE_SEED: u64 = 42;
const CROWD_DURATION: SimDuration = SimDuration::from_secs(10);
const CROWD_STAGGER_NS: u64 = 5_000_000_000;
/// Independent draws of every channel per pass. One Verus flow's cost
/// swings with its seed (one draw of the 16 channels delivered 60 % more
/// packets than another), so a pass averages several.
const SINGLE_DRAWS: usize = 4;
/// Timed passes per run, at least, whatever `--seconds` allows.
const MIN_PASSES: usize = 3;
/// Trace seed of the reference capacity each channel is scaled to.
const REFERENCE_SEED: u64 = 0;

#[derive(Clone, Copy)]
enum Channel {
    Paper(Scenario, OperatorModel),
    Stress(StressScenario),
    Crowd,
}

#[derive(Clone, Copy, PartialEq)]
enum Protocol {
    Verus,
    Cubic,
}

/// One simulation of a pass: everything is derived from the seed.
struct RunSpec {
    channel: Channel,
    protocol: Protocol,
    flows: usize,
    duration: SimDuration,
    trace_seed: u64,
    sim_seed: u64,
    /// Mean capacity every seed's trace is scaled to (see [`plan`]).
    target_bps: f64,
}

fn verus_single(seed: u64) -> Vec<RunSpec> {
    let mut channels = Vec::new();
    for op in [OperatorModel::Etisalat3G, OperatorModel::EtisalatLte] {
        for s in Scenario::all() {
            channels.push(Channel::Paper(s, op));
        }
    }
    channels.push(Channel::Stress(StressScenario::HandoverStorm));
    channels.push(Channel::Stress(StressScenario::BlackoutRecovery));
    let n = channels.len();
    (0..SINGLE_DRAWS * n)
        .map(|i| (i, channels[i % n]))
        .map(|(i, channel)| RunSpec {
            channel,
            protocol: Protocol::Verus,
            flows: 1,
            duration: SINGLE_DURATION,
            trace_seed: mix(seed, 2 * i as u64),
            sim_seed: mix(seed, 2 * i as u64 + 1),
            target_bps: 0.0,
        })
        .collect()
}

fn cubic_crowd(seed: u64) -> Vec<RunSpec> {
    vec![RunSpec {
        channel: Channel::Crowd,
        protocol: Protocol::Cubic,
        flows: CROWD_FLOWS,
        duration: CROWD_DURATION,
        trace_seed: CROWD_TRACE_SEED,
        sim_seed: mix(seed, 1),
        target_bps: 0.0,
    }]
}

/// How the controllers of a pass are instrumented.
#[derive(Clone, Copy)]
enum Flavor<'a> {
    Plain,
    Probed(&'a Sink),
    Recorded(&'a TraceHandle),
}

fn controller(p: Protocol) -> Box<dyn CongestionControl> {
    match p {
        Protocol::Verus => Box::new(VerusCc::new(VerusConfig::with_r(2.0))),
        Protocol::Cubic => Box::new(Cubic::new()),
    }
}

/// The channel's capacity trace as the cellular model generates it.
fn generate(spec: &RunSpec, seed: u64) -> Result<Trace, String> {
    match spec.channel {
        Channel::Paper(s, op) => s.generate_trace(op, spec.duration, seed),
        Channel::Stress(s) => s.generate_trace(OperatorModel::Etisalat3G, spec.duration, seed),
        Channel::Crowd => Scenario::CampusStationary.generate_trace(
            OperatorModel::EtisalatLte,
            spec.duration,
            seed,
        ),
    }
    .map_err(|e| format!("trace generation: {e:?}"))
}

/// The workload's runs for `seed`, with each trace's target capacity.
/// A single-flow channel's trace is drawn from the seed and scaled to the
/// mean capacity the channel has under a fixed reference seed, so seeds
/// vary the burst structure a channel offers but not how many packets it
/// can carry. The crowd's trace is fixed and scaled by √N.
fn plan(workload: &str, seed: u64) -> Result<Vec<RunSpec>, String> {
    let mut specs = match workload {
        "verus_single" => verus_single(seed),
        "cubic_crowd" => cubic_crowd(seed),
        other => return Err(format!("not a simulator workload: {other}")),
    };
    for spec in &mut specs {
        spec.target_bps = match spec.channel {
            Channel::Crowd => {
                let scale = 50.0 * (spec.flows as f64 / 100.0).sqrt();
                generate(spec, spec.trace_seed)?.mean_rate_bps() * scale
            }
            _ => generate(spec, REFERENCE_SEED)?.mean_rate_bps(),
        };
    }
    Ok(specs)
}

/// Builds one simulation; returns it with the trace-generation time.
fn build(spec: &RunSpec, flavor: Flavor) -> Result<(Simulation, f64), String> {
    let t0 = Instant::now();
    let raw = generate(spec, spec.trace_seed)?;
    let trace = raw.scale_rate(spec.target_bps / raw.mean_rate_bps());
    let trace_gen_s = t0.elapsed().as_secs_f64();
    let impairments = match spec.channel {
        Channel::Stress(s) => ChaosSchedule::for_stress(&s, mix(spec.sim_seed, 1)).compile()?,
        _ => Default::default(),
    };
    let stagger_ns = CROWD_STAGGER_NS / spec.flows as u64;
    let jitter_seed = mix(spec.sim_seed, 2);
    let flows = (0..spec.flows)
        .map(|i| {
            let cc = controller(spec.protocol);
            let cc = match flavor {
                Flavor::Probed(sink) => Probe::wrap(cc, sink),
                _ => cc,
            };
            let mut f = FlowConfig::new(cc);
            if spec.flows > 1 {
                let jitter = mix(jitter_seed, i as u64) % stagger_ns;
                f = f.starting_at(SimTime::from_nanos(i as u64 * stagger_ns + jitter));
            }
            if let Flavor::Recorded(handle) = flavor {
                f = f.with_trace(handle.clone());
            }
            f
        })
        .collect();
    let config = SimConfig {
        bottleneck: BottleneckConfig::Cell {
            trace,
            base_rtt: BASE_RTT,
            loss: 0.0,
        },
        queue: QueueConfig::paper_red(),
        flows,
        duration: spec.duration,
        seed: spec.sim_seed,
        throughput_window: SimDuration::from_secs(1),
        impairments,
        abc: None,
    };
    let sim = Simulation::new(config)?.with_delay_samples(false);
    Ok((sim, trace_gen_s))
}

/// Totals of one pass over every channel of the workload.
#[derive(Default)]
struct Pass {
    setup_s: f64,
    trace_gen_s: f64,
    run_s: f64,
    sim_s: f64,
    events: u64,
    pops: u64,
    sent: u64,
    delivered: u64,
    queue_drops: u64,
    fast_losses: u64,
    timeouts: u64,
    /// One digest per flow report, in channel then flow order.
    digests: Vec<u64>,
    /// Flows whose report is missing or whose ledger does not balance.
    bad_flows: u64,
    spans: LayerSpans,
    records: u64,
    records_dropped: u64,
    peak_rss_mb: f64,
    /// Run wall and CPU seconds of each channel, in channel order.
    chan_run_s: Vec<f64>,
    chan_cpu_s: Vec<f64>,
}

fn digest(r: &FlowReport) -> u64 {
    fnv1a(&format!("{r:?}"))
}

fn run_pass(
    specs: &[RunSpec],
    flavor: Flavor,
    sink: &Sink,
    rec: Option<&SharedRecorder>,
) -> Result<Pass, String> {
    let mut p = Pass::default();
    host::reset_peak_rss();
    for spec in specs {
        let t0 = Instant::now();
        let (sim, trace_gen_s) = build(spec, flavor)?;
        p.setup_s += t0.elapsed().as_secs_f64();
        p.trace_gen_s += trace_gen_s;
        let ((reports, events, pops), wall, cpu) = measure(|| sim.run_instrumented());
        p.run_s += wall;
        p.chan_run_s.push(wall);
        p.chan_cpu_s.push(cpu);
        p.sim_s += spec.duration.as_secs_f64();
        p.events += events;
        p.pops += pops;
        p.bad_flows += spec.flows.saturating_sub(reports.len()) as u64;
        for r in &reports {
            p.sent += r.sent;
            p.delivered += r.delivered;
            p.queue_drops += r.queue_drops;
            p.fast_losses += r.fast_losses;
            p.timeouts += r.timeouts;
            p.bad_flows += u64::from(!r.ledger_balances());
            p.digests.push(digest(r));
        }
        if let Some(rec) = rec {
            let mut rec = rec.lock().map_err(|_| "recorder lock poisoned")?;
            p.records += (rec.epochs().len() + rec.packets().len() + rec.profiles().len()) as u64;
            p.records_dropped += rec.dropped().total();
            rec.clear();
        }
    }
    p.spans = probe::drain(sink);
    p.peak_rss_mb = host::peak_rss_mb();
    Ok(p)
}

/// Counts flows whose digest differs from the reference pass.
fn mismatches(reference: &[u64], pass: &Pass) -> u64 {
    let differing = reference
        .iter()
        .zip(&pass.digests)
        .filter(|(a, b)| a != b)
        .count();
    (differing + reference.len().abs_diff(pass.digests.len())) as u64
}

/// Runs `workload` for about `seconds` and reports its metrics.
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let specs = plan(workload, seed)?;
    let flows_per_pass: usize = specs.iter().map(|s| s.flows).sum();
    let sink = probe::new_sink();
    let recording = trace && specs.iter().all(|s| s.protocol == Protocol::Verus);
    let (handle, shared) = Recorder::new().shared();

    // The variants one round runs: the timed run always, and in the
    // traced run also the probed run and (Verus only) the recorded run.
    let mut flavors = vec![Flavor::Plain];
    if trace {
        flavors.push(Flavor::Probed(&sink));
        if recording {
            flavors.push(Flavor::Recorded(&handle));
        }
    }
    let mut out = Outcome::default();
    let mut passes: Vec<Vec<Pass>> = flavors.iter().map(|_| Vec::new()).collect();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut reference: Option<Vec<u64>> = None;
    // Round 0 warms caches and allocators and is not timed.
    let mut round = 0;
    while round <= MIN_PASSES || start.elapsed() < budget {
        for (k, &flavor) in flavors.iter().enumerate() {
            let rec = matches!(flavor, Flavor::Recorded(_)).then_some(&shared);
            let pass = run_pass(&specs, flavor, &sink, rec)?;
            out.attempted += flows_per_pass as u64;
            out.failed += pass.bad_flows;
            let reference = reference.get_or_insert_with(|| pass.digests.clone());
            let differing = mismatches(reference, &pass);
            if differing > 0 {
                out.problems.push(format!(
                    "{differing} flow report(s) of a {} pass differ from the first pass",
                    ["plain", "probed", "recorded"][k]
                ));
                out.failed += differing;
            }
            if pass.records_dropped > 0 {
                out.problems
                    .push(format!("recorder dropped {} records", pass.records_dropped));
            }
            if round > 0 {
                passes[k].push(pass);
            }
        }
        round += 1;
    }
    drop(handle);

    let plain = &passes[0];
    let first = plain.first().ok_or("no timed pass")?;
    let med = |f: &dyn Fn(&Pass) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
    // Other tenants of the host only ever add time, so the run time of a
    // pass is taken as the sum over channels of each channel's fastest
    // timed run; every pass simulates the same inputs.
    let fastest = |chan: &dyn Fn(&Pass) -> &[f64]| -> f64 {
        (0..specs.len())
            .map(|c| {
                plain
                    .iter()
                    .map(|p| chan(p)[c])
                    .fold(f64::INFINITY, f64::min)
            })
            .sum()
    };
    let run_s = fastest(&|p| &p.chan_run_s);
    out.metric(
        "cpu_us_per_pkt",
        fastest(&|p| &p.chan_cpu_s) * 1e6 / first.delivered as f64,
    );
    out.metric("setup_s", med(&|p| p.setup_s));
    out.metric("bench.peak_rss_mb", med(&|p| p.peak_rss_mb));
    let walls: Vec<f64> = plain.iter().map(|p| p.run_s).collect();
    out.note(format!(
        "{} timed passes of {} flow(s) over {} channel(s), {:.0} simulated s each; \
         pass run wall min {:.4} / median {:.4} / max {:.4} s, channel-wise fastest {run_s:.4} s; \
         report digest {:016x}",
        plain.len(),
        flows_per_pass,
        specs.len(),
        first.sim_s,
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        median(&walls),
        walls.iter().copied().fold(0.0, f64::max),
        first.digests.iter().fold(0u64, |h, d| mix(h, *d)),
    ));
    if !trace {
        return Ok(out);
    }

    out.metric("netsim.events", first.events as f64);
    out.metric("netsim.sched_pops", first.pops as f64);
    out.metric(
        "netsim.pops_per_event",
        first.pops as f64 / first.events as f64,
    );
    out.metric("netsim.delivered", first.delivered as f64);
    out.metric(
        "netsim.useful_ratio",
        first.delivered as f64 / first.sent as f64,
    );
    out.metric("netsim.queue_drops", first.queue_drops as f64);
    out.metric("netsim.fast_losses", first.fast_losses as f64);
    out.metric("netsim.timeouts", first.timeouts as f64);
    out.metric("netsim.sim_s_per_wall_s", first.sim_s / run_s);
    out.metric("cellular.trace_gen_s", med(&|p| p.trace_gen_s));

    // Controller self times come from the probed pass of a round, with
    // the clock's own cost taken out; they are set against the untraced
    // pass of the same round, and the engine is charged with the rest of
    // that pass's wall time.
    let probed = &passes[1];
    let cost = probe::clock_cost_ns();
    out.note(format!(
        "clock cost {cost:.1} ns per timed call, taken out of self times"
    ));
    let spans = probed.first().ok_or("no probed pass")?.spans;
    out.metric("core.on_tick.calls", spans.core.tick.calls as f64);
    out.metric("core.on_ack.calls", spans.core.ack.calls as f64);
    out.metric("core.on_loss.calls", spans.core.loss.calls as f64);
    out.metric("baselines.on_ack.calls", spans.baselines.ack.calls as f64);
    let paired = |f: &dyn Fn(&Pass, &LayerSpans) -> f64| {
        let v: Vec<f64> = plain
            .iter()
            .zip(probed)
            .map(|(a, b)| f(a, &b.spans))
            .collect();
        median(&v)
    };
    out.metric(
        "core.on_tick.self_ns",
        paired(&|_, s| s.core.tick.self_ns(cost)),
    );
    out.metric(
        "core.on_ack.self_ns",
        paired(&|_, s| s.core.ack.self_ns(cost)),
    );
    out.metric(
        "core.quota.self_ns",
        paired(&|_, s| s.core.quota.self_ns(cost)),
    );
    out.metric(
        "baselines.on_ack.self_ns",
        paired(&|_, s| s.baselines.ack.self_ns(cost)),
    );
    out.metric("core.share", paired(&|p, s| s.core.self_s(cost) / p.run_s));
    out.metric(
        "baselines.share",
        paired(&|p, s| s.baselines.self_s(cost) / p.run_s),
    );
    let engine_s =
        |p: &Pass, s: &LayerSpans| p.run_s - s.core.self_s(cost) - s.baselines.self_s(cost);
    out.metric("netsim.share", paired(&|p, s| engine_s(p, s) / p.run_s));
    out.metric(
        "netsim.self_ns_per_event",
        paired(&|p, s| engine_s(p, s) * 1e9 / p.events as f64),
    );
    out.metric("bench.span_overhead_pct", overhead_pct(plain, probed));
    if recording {
        let recorded = &passes[2];
        out.metric("trace.overhead_pct", overhead_pct(plain, recorded));
        out.metric(
            "trace.records",
            recorded.first().map_or(0, |p| p.records) as f64,
        );
    }
    Ok(out)
}

/// Median over rounds of the run-time ratio of a variant to the plain
/// pass of the same round, as a percentage: passes of one round run back
/// to back, so drift in host speed across rounds cancels.
fn overhead_pct(plain: &[Pass], variant: &[Pass]) -> f64 {
    let ratios: Vec<f64> = plain
        .iter()
        .zip(variant)
        .map(|(a, b)| b.run_s / a.run_s)
        .collect();
    (median(&ratios) - 1.0) * 100.0
}
