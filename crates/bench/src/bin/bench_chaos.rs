//! Chaos soak: seeded adversarial runs on both substrates with
//! recovery SLOs.
//!
//! The resilience contract the session layer (DESIGN.md §12) makes:
//! after every outage window ends, the system is *measurably back* —
//! the simulator delivers packets again, and the transport sender's
//! session re-enters `Established` — within a fixed budget derived from
//! the reconnect backoff cap:
//!
//! ```text
//! slo_budget = 2 × backoff_cap
//! ```
//!
//! (One cap bounds the worst-case gap until the next probe fires after
//! the link returns; the second covers the probe's round trip and
//! scheduling noise with room to spare.)
//!
//! Both substrates run the same [`ChaosSchedule`] composition — a
//! flapping-blackout train over Gilbert–Elliott loss spikes — seeded,
//! so the simulator half of the output is bit-identical across runs
//! with the same seed. The transport half runs on the wall clock, so
//! only *judgements* (SLO booleans) are recorded for it, never raw
//! timings: the emitted artifact is byte-stable across same-seed runs
//! on any machine that meets the SLOs.
//!
//! Checked per run:
//! * recovery p99 ≤ `slo_budget` after each blackout end (both
//!   substrates; sim = first delivered throughput window, transport =
//!   first `Established` transition);
//! * zero stuck flows — the sim flow delivers after the last outage,
//!   the transport session ends `Closed` having reached `Established`;
//! * the conservation ledger balances, including the overload guard's
//!   `shed_dropped` column.
//!
//! Output: `CHAOS_0.json` (override with `VERUS_BENCH_OUT`). `--smoke`
//! runs a shortened schedule with the same schema — CI's chaos-smoke
//! job jq-validates that record.

use std::time::Duration;
use verus_core::VerusCc;
use verus_netsim::chaos::{ChaosSchedule, ChaosScript};
use verus_netsim::impairment::Blackout;
use verus_netsim::queue::QueueConfig;
use verus_netsim::{BottleneckConfig, FlowConfig, SimConfig, Simulation};
use verus_nettypes::{SimDuration, SimTime};
use verus_trace::json::Json;
use verus_transport::{
    Emulator, EmulatorConfig, FlowSpec, Receiver, SessionConfig, SessionState, ShardServer,
    ShardServerConfig, WallClock,
};

const SEED: u64 = 21;
const BACKOFF_CAP: SimDuration = SimDuration::from_millis(1000);
const SLO_BUDGET: SimDuration = SimDuration::from_millis(2000);

/// Synthetic constant-rate trace: one opportunity per millisecond,
/// looped for the run's lifetime (same shape as the fault-injection
/// soak's channel).
fn steady_trace(bytes_per_ms: u32, secs: u64) -> verus_cellular::Trace {
    verus_cellular::Trace::from_times(
        "steady",
        (0..secs * 1000).map(SimTime::from_millis),
        bytes_per_ms,
    )
    .expect("trace")
}

/// The adversarial script: a blackout train over burst loss. `start`,
/// `outage`, `gap`, `repeats` shape the train; loss spikes ride along
/// for the whole run.
fn schedule(start_s: u64, outage_ms: u64, gap_ms: u64, repeats: u64) -> ChaosSchedule {
    ChaosSchedule::new(SEED)
        .with(ChaosScript::FlappingBlackout {
            start: SimTime::from_secs(start_s),
            outage: SimDuration::from_millis(outage_ms),
            gap: SimDuration::from_millis(gap_ms),
            repeats,
        })
        .with(spikes())
}

/// Full mode runs the shared `BlackoutRecovery` stress scenario — the
/// same named outage train `bench_tournament` scores protocols on —
/// with the soak's loss spikes riding along.
fn full_sim_schedule() -> ChaosSchedule {
    ChaosSchedule::for_stress(&verus_cellular::StressScenario::BlackoutRecovery, SEED)
        .with(spikes())
}

fn spikes() -> ChaosScript {
    ChaosScript::LossSpikeTrain {
        p_enter: 0.02,
        p_exit: 0.5,
        base_loss: 0.0,
        spike_loss: 1.0,
    }
}

struct SimOutcome {
    blackouts: usize,
    recoveries_ms: Vec<f64>,
    ledger_balanced: bool,
    delivered: u64,
    shed_dropped: u64,
    timeouts: u64,
}

/// Runs the simulator soak and measures, for each blackout end, the
/// time until the first 100 ms throughput window with deliveries.
fn sim_soak(sched: &ChaosSchedule, duration: SimDuration) -> SimOutcome {
    let impairments = sched.compile().expect("chaos schedule compiles");
    let windows = sched.blackout_windows();
    let config = SimConfig {
        bottleneck: BottleneckConfig::Cell {
            trace: steady_trace(3500, 2), // 28 Mbit/s, looped
            base_rtt: SimDuration::from_millis(40),
            loss: 0.0,
        },
        queue: QueueConfig::DropTail {
            capacity_bytes: 1 << 20,
        },
        // The overload guard rides along: quota over the cap is shed
        // into the ledger's `shed_dropped` column, which the balance
        // check below must absorb exactly.
        flows: vec![FlowConfig::new(Box::new(VerusCc::default())).with_shed_cap(1024)],
        duration,
        seed: SEED,
        throughput_window: SimDuration::from_millis(100),
        impairments,
        abc: None,
    };
    let reports = Simulation::new(config).expect("valid config").run();
    let r = &reports[0];

    let series = r.throughput.series_bps();
    let recoveries_ms = windows
        .iter()
        .map(|b| {
            let end_s = b.end().as_secs_f64();
            let recovered_at = series
                .iter()
                .find(|&&(t, bps)| t >= end_s && bps > 0.0)
                .map(|&(t, _)| t);
            match recovered_at {
                Some(t) => (t - end_s) * 1e3,
                None => f64::INFINITY, // stuck: no delivery after this outage
            }
        })
        .collect();
    SimOutcome {
        blackouts: windows.len(),
        recoveries_ms,
        ledger_balanced: r.ledger_balances(),
        delivered: r.delivered,
        shed_dropped: r.shed_dropped,
        timeouts: r.timeouts,
    }
}

struct TransportOutcome {
    blackouts: usize,
    reached_established: bool,
    recovered_after_every_blackout: bool,
    recovery_p99_within_slo: bool,
    final_state_closed: bool,
    ledger_consistent: bool,
}

/// Runs one unbounded flow on a one-shard server through an impaired
/// emulator and judges
/// the recovery SLO from the session transition log: for each blackout
/// end, the first `Established` edge at or after it.
fn transport_soak(sched: &ChaosSchedule, duration: Duration) -> std::io::Result<TransportOutcome> {
    let impairments = sched.compile().expect("chaos schedule compiles");
    let windows = sched.blackout_windows();
    let clock = WallClock::new();
    let receiver = Receiver::spawn("127.0.0.1:0", clock)?;
    let mut emu_config = EmulatorConfig::new(steady_trace(1000, 2), receiver.local_addr());
    emu_config.impairments = impairments;
    let emulator = Emulator::spawn(emu_config, clock)?;

    let server = ShardServer::new(ShardServerConfig {
        deadline: SimDuration::from_std(duration),
        stagger: SimDuration::ZERO,
        session: SessionConfig {
            idle_degraded: SimDuration::from_millis(300),
            degraded_grace: SimDuration::from_millis(200),
            drain_timeout: SimDuration::from_secs(2),
            backoff_base: SimDuration::from_millis(50),
            backoff_cap: BACKOFF_CAP,
            seed: SEED,
            session_id: 0,
        },
        ..ShardServerConfig::default()
    });
    let flow = FlowSpec {
        flow: 0,
        dest: emulator.ingress_addr(),
        packets: u64::MAX,
        cc: Box::new(VerusCc::default()),
    };
    let report = server.run(vec![flow], clock)?.flows.remove(0);
    emulator.stop();
    receiver.stop();

    let recovery_for = |b: &Blackout| -> Option<SimDuration> {
        report
            .transitions
            .iter()
            .find(|t| t.to == SessionState::Established && t.at >= b.end())
            .map(|t| t.at.saturating_since(b.end()))
    };
    let recoveries: Vec<Option<SimDuration>> = windows.iter().map(recovery_for).collect();
    let recovered_all = recoveries.iter().all(Option::is_some);
    let p99_ok = recoveries
        .iter()
        .flatten()
        .all(|&d| d <= SLO_BUDGET);
    let s = &report.stats;
    Ok(TransportOutcome {
        blackouts: windows.len(),
        reached_established: report.reached_established(),
        recovered_after_every_blackout: recovered_all,
        recovery_p99_within_slo: recovered_all && p99_ok,
        final_state_closed: report.final_state == SessionState::Closed,
        ledger_consistent: s.acked <= s.sent - s.shed_dropped,
    })
}

fn p99(sorted_ms: &[f64]) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() as f64) * 0.99).ceil() as usize;
    sorted_ms[idx.saturating_sub(1).min(sorted_ms.len() - 1)]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Smoke: one short outage per substrate, ~12 s sim / 8 s wall.
    // Full: a 3-outage train over a 30 s soak on both substrates.
    let (sim_sched, sim_dur, tr_sched, tr_dur) = if smoke {
        (
            schedule(3, 1500, 3000, 2),
            SimDuration::from_secs(12),
            schedule(2, 1500, 3000, 1),
            Duration::from_secs(8),
        )
    } else {
        (
            full_sim_schedule(),
            SimDuration::from_secs(30),
            schedule(4, 2000, 6000, 3),
            Duration::from_secs(30),
        )
    };

    println!(
        "chaos soak: seed {SEED}, SLO budget {} ms (2 × {} ms backoff cap){}",
        SLO_BUDGET.as_millis_f64(),
        BACKOFF_CAP.as_millis_f64(),
        if smoke { " [smoke]" } else { "" }
    );

    let sim = sim_soak(&sim_sched, sim_dur);
    let mut sorted = sim.recoveries_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let sim_p99 = p99(&sorted);
    let sim_slo = sim_p99.is_finite() && sim_p99 <= SLO_BUDGET.as_millis_f64();
    println!(
        "  sim: {} blackouts, recoveries {:?} ms (p99 {sim_p99:.0} ms), \
         delivered {}, shed {}, timeouts {}, ledger {}",
        sim.blackouts,
        sim.recoveries_ms,
        sim.delivered,
        sim.shed_dropped,
        sim.timeouts,
        if sim.ledger_balanced { "balanced" } else { "BROKEN" },
    );
    assert!(sim.ledger_balanced, "sim conservation ledger does not balance");
    assert!(sim_slo, "sim recovery p99 {sim_p99:.0} ms exceeds the SLO budget");
    assert!(sim.delivered > 0, "sim flow stuck: nothing delivered");

    let tr = transport_soak(&tr_sched, tr_dur).expect("transport soak I/O");
    println!(
        "  transport: {} blackouts, established={}, recovered_all={}, \
         p99_within_slo={}, closed={}, ledger_consistent={}",
        tr.blackouts,
        tr.reached_established,
        tr.recovered_after_every_blackout,
        tr.recovery_p99_within_slo,
        tr.final_state_closed,
        tr.ledger_consistent,
    );
    assert!(tr.reached_established, "session never reached Established");
    assert!(
        tr.recovered_after_every_blackout,
        "session failed to re-establish after some outage"
    );
    assert!(tr.recovery_p99_within_slo, "transport recovery exceeded the SLO budget");
    assert!(tr.final_state_closed, "session stuck: did not drain to Closed");
    assert!(tr.ledger_consistent, "transport shed accounting inconsistent");

    let json = Json::object()
        .field("schema", "verus-chaos-soak-v1")
        .field("seed", SEED)
        .field("smoke", smoke)
        .field("backoff_cap_ms", Json::fixed(BACKOFF_CAP.as_millis_f64(), 0))
        .field("slo_budget_ms", Json::fixed(SLO_BUDGET.as_millis_f64(), 0))
        .field(
            "sim",
            Json::object()
                .field("duration_secs", Json::fixed(sim_dur.as_secs_f64(), 0))
                .field("blackouts", sim.blackouts)
                .field(
                    "recoveries_ms",
                    sim.recoveries_ms
                        .iter()
                        .map(|&ms| Json::fixed(ms, 1))
                        .collect::<Json>(),
                )
                .field("recovery_p99_ms", Json::fixed(sim_p99, 1))
                .field("slo_met", sim_slo)
                .field("ledger_balanced", sim.ledger_balanced)
                .field("delivered", sim.delivered)
                .field("shed_dropped", sim.shed_dropped)
                .field("timeouts", sim.timeouts),
        )
        .field(
            "transport",
            Json::object()
                .field("duration_secs", Json::fixed(tr_dur.as_secs_f64(), 0))
                .field("blackouts", tr.blackouts)
                .field("reached_established", tr.reached_established)
                .field("recovered_after_every_blackout", tr.recovered_after_every_blackout)
                .field("recovery_p99_within_slo", tr.recovery_p99_within_slo)
                .field("final_state_closed", tr.final_state_closed)
                .field("ledger_consistent", tr.ledger_consistent),
        );
    let path = std::env::var("VERUS_BENCH_OUT").unwrap_or_else(|_| "CHAOS_0.json".into());
    std::fs::write(&path, json.pretty() + "\n").expect("write chaos record");
    println!("→ wrote {path}");
}
