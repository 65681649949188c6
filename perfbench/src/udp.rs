//! The `udp_crowd` workload: a crowd of Verus flows, each with a fixed
//! packet budget, sent over the host's loopback interface through the
//! sharded UDP server (`ShardServer::run`, one shard, the `IoMode::auto`
//! backend) to a batched receiver (`Receiver::spawn_batched`).
//!
//! Epochs fire on each flow's own schedule and the flows never wait for
//! one another, so the offered load is open-loop; the shards' timer
//! planes measure each epoch's lateness from when it was due.

use crate::host::{self, measure, median, mix};
use crate::probe::{self, LayerSpans, Probe, Sink};
use crate::Outcome;
use std::time::{Duration, Instant};
use verus_core::{VerusCc, VerusConfig};
use verus_nettypes::{CongestionControl, SimDuration};
use verus_transport::{
    FlowSpec, IoMode, LoadReport, Receiver, ShardServer, ShardServerConfig, WallClock,
};

/// One shard: with the receiver thread that is one thread per core on a
/// two-core host, and the partition stays fixed whatever the host.
pub const SHARDS: usize = 1;
const FLOWS: u32 = 1_000;
const PACKETS_PER_FLOW: u64 = 200;
const PACKET_BYTES: u32 = 0;
/// First epochs spread over this window.
const STAGGER: SimDuration = SimDuration::from_millis(500);
/// Graceful drain deadline: far beyond a healthy run, so only a stuck
/// plane reaches it (and then shows up as failed packets).
const DEADLINE: SimDuration = SimDuration::from_secs(60);
const MIN_PASSES: usize = 3;

struct Pass {
    setup_s: f64,
    run_s: f64,
    run_cpu_s: f64,
    peak_rss_mb: f64,
    report: LoadReport,
    spans: LayerSpans,
}

fn run_pass(seed: u64, sink: Option<&Sink>) -> Result<Pass, String> {
    host::reset_peak_rss();
    let t0 = Instant::now();
    let clock = WallClock::new();
    let rx = Receiver::spawn_batched("127.0.0.1:0", clock, IoMode::auto())
        .map_err(|e| format!("receiver: {e}"))?;
    let dest = rx.local_addr();
    let specs: Vec<FlowSpec> = (0..FLOWS)
        .map(|flow| {
            let cc: Box<dyn CongestionControl> = Box::new(VerusCc::new(VerusConfig::with_r(2.0)));
            FlowSpec {
                flow,
                dest,
                packets: PACKETS_PER_FLOW,
                cc: match sink {
                    Some(sink) => Probe::wrap(cc, sink),
                    None => cc,
                },
            }
        })
        .collect();
    let server = ShardServer::new(ShardServerConfig {
        shards: SHARDS,
        io_mode: IoMode::auto(),
        packet_bytes: PACKET_BYTES,
        stagger: STAGGER,
        deadline: DEADLINE,
        seed,
        ..ShardServerConfig::default()
    });
    let setup_s = t0.elapsed().as_secs_f64();
    let (report, run_s, run_cpu_s) = measure(|| server.run(specs, clock));
    rx.stop();
    let peak_rss_mb = host::peak_rss_mb();
    let report = report.map_err(|e| format!("shard server: {e}"))?;
    let spans = sink.map(probe::drain).unwrap_or_default();
    Ok(Pass {
        setup_s,
        run_s,
        run_cpu_s,
        peak_rss_mb,
        report,
        spans,
    })
}

/// Median epoch lateness (ms) of all shards, from their P² estimators.
fn lateness_p50_ms(report: &LoadReport) -> f64 {
    let mut all = report.jitters[0].clone();
    for s in &report.jitters[1..] {
        all.merge(s);
    }
    all.quantile(0.5).unwrap_or(f64::NAN)
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let sink = probe::new_sink();
    let offered = u64::from(FLOWS) * PACKETS_PER_FLOW;
    let mut plain: Vec<Pass> = Vec::new();
    let mut probed: Vec<Pass> = Vec::new();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut round = 0;
    let mut digest: Option<String> = None;
    while round <= MIN_PASSES || start.elapsed() < budget {
        // Each pass staggers its crowd with a fresh sub-seed of the
        // workload seed; the ledger must close exactly every time.
        let pass_seed = mix(seed, round as u64);
        for probe_on in [false, true] {
            if probe_on && !trace {
                continue;
            }
            let pass = run_pass(pass_seed, probe_on.then_some(&sink))?;
            let r = &pass.report;
            out.attempted += offered;
            let unacked = offered.saturating_sub(r.acked());
            out.failed += unacked + r.stuck();
            let exact = r.offered() == offered
                && r.residual() == 0
                && r.shed() == 0
                && r.stuck() == 0
                && r.closed() == u64::from(FLOWS);
            if !exact {
                out.problems.push(format!(
                    "ledger not exact: offered {} acked {} shed {} stuck {} closed {}",
                    r.offered(),
                    r.acked(),
                    r.shed(),
                    r.stuck(),
                    r.closed()
                ));
            }
            let d = r.deterministic_digest();
            if *digest.get_or_insert_with(|| d.clone()) != d {
                out.problems.push(format!("ledger digest changed: {d}"));
            }
            if round > 0 {
                if probe_on { &mut probed } else { &mut plain }.push(pass);
            }
        }
        round += 1;
    }

    let acked = |p: &Pass| p.report.acked() as f64;
    let med = |v: &[Pass], f: &dyn Fn(&Pass) -> f64| median(&v.iter().map(f).collect::<Vec<_>>());
    // Passes differ in their own right (each draws its own stagger, and
    // two threads share two cores), so the typical pass is the median.
    let cpu_us = |p: &Pass| p.run_cpu_s * 1e6 / acked(p);
    out.metric("cpu_us_per_pkt", med(&plain, &cpu_us));
    out.metric("setup_s", med(&plain, &|p| p.setup_s));
    out.metric("bench.peak_rss_mb", med(&plain, &|p| p.peak_rss_mb));
    let cpu: Vec<f64> = plain.iter().map(cpu_us).collect();
    out.note(format!(
        "{} timed passes of {FLOWS} flows x {PACKETS_PER_FLOW} packets of {PACKET_BYTES} B \
         over loopback, {SHARDS} shard; CPU per packet min {:.3} / max {:.3} us; \
         pass wall median {:.3} s; ledger digest {}",
        plain.len(),
        cpu.iter().copied().fold(f64::INFINITY, f64::min),
        cpu.iter().copied().fold(0.0, f64::max),
        med(&plain, &|p| p.run_s),
        digest.as_deref().unwrap_or("none"),
    ));
    if !trace {
        return Ok(out);
    }

    let io = |p: &Pass| p.report.io();
    out.metric(
        "transport.io.syscalls",
        med(&plain, &|p| io(p).syscalls() as f64),
    );
    out.metric(
        "transport.io.pkts_per_syscall",
        med(&plain, &|p| {
            io(p).packets() as f64 / io(p).syscalls() as f64
        }),
    );
    out.metric(
        "transport.io.syscalls_per_pkt",
        med(&plain, &|p| io(p).syscalls_per_packet()),
    );
    out.metric(
        "transport.io.send_failed",
        med(&plain, &|p| io(p).send_failed as f64),
    );
    let shards = |p: &Pass, f: &dyn Fn(&verus_transport::ShardSnapshot) -> u64| {
        p.report.shards.iter().map(f).sum::<u64>() as f64
    };
    out.metric(
        "transport.timer.fires",
        med(&plain, &|p| shards(p, &|s| s.timer_fires)),
    );
    out.metric(
        "transport.timer.epoch_fires",
        med(&plain, &|p| shards(p, &|s| s.epoch_fires)),
    );
    out.metric(
        "transport.timer.late_p50_ms",
        med(&plain, &|p| lateness_p50_ms(&p.report)),
    );
    out.metric(
        "transport.timer.late_p99_ms",
        med(&plain, &|p| p.report.jitter_p99_ms()),
    );
    out.metric(
        "transport.retransmits",
        med(&plain, &|p| shards(p, &|s| s.counters.retransmits)),
    );
    out.metric(
        "transport.timeouts",
        med(&plain, &|p| shards(p, &|s| s.counters.timeouts)),
    );
    out.metric(
        "transport.goodput_pps",
        med(&plain, &|p| acked(p) / p.run_s),
    );
    out.metric(
        "transport.useful_ratio",
        med(&plain, &|p| acked(p) / shards(p, &|s| s.counters.sent)),
    );

    let cost = probe::clock_cost_ns();
    out.note(format!(
        "clock cost {cost:.1} ns per timed call, taken out of self times"
    ));
    let calls = |f: &dyn Fn(&LayerSpans) -> u64| med(&probed, &|p| f(&p.spans) as f64);
    out.metric("core.on_tick.calls", calls(&|s| s.core.tick.calls));
    out.metric("core.on_ack.calls", calls(&|s| s.core.ack.calls));
    out.metric("core.on_loss.calls", calls(&|s| s.core.loss.calls));
    out.metric(
        "core.on_tick.self_ns",
        med(&probed, &|p| p.spans.core.tick.self_ns(cost)),
    );
    out.metric(
        "core.on_ack.self_ns",
        med(&probed, &|p| p.spans.core.ack.self_ns(cost)),
    );
    out.metric(
        "core.quota.self_ns",
        med(&probed, &|p| p.spans.core.quota.self_ns(cost)),
    );
    // The plane runs on two threads, so the share is of process CPU
    // time: controller self time of a probed pass over the CPU time of
    // the untraced pass of the same round.
    let shares: Vec<f64> = plain
        .iter()
        .zip(&probed)
        .map(|(a, b)| b.spans.core.self_s(cost) / a.run_cpu_s)
        .collect();
    out.metric("core.share", median(&shares));
    // The plane's wall time is set by the open-loop schedule, so the
    // cost of measuring shows in CPU time per packet.
    let ratios: Vec<f64> = plain
        .iter()
        .zip(&probed)
        .map(|(a, b)| (b.run_cpu_s / acked(b)) / (a.run_cpu_s / acked(a)))
        .collect();
    out.metric("bench.span_overhead_pct", (median(&ratios) - 1.0) * 100.0);
    Ok(out)
}
