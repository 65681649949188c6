//! Chaos soak tests: seeded adversarial schedules on both substrates,
//! judged against the recovery SLOs of DESIGN.md §12.
//!
//! The fault-injection suite (`fault_injection.rs`) proves the sender
//! survives impairments; this suite points the same chaos at the
//! session layer and asserts the stronger resilience contract:
//!
//! * after every blackout window ends, the system recovers within
//!   `2 × backoff_cap` (sim: first delivered throughput window;
//!   transport: first `Established` transition);
//! * zero stuck flows — the sim flow keeps delivering after the last
//!   outage, the transport session drains to `Closed`;
//! * the conservation ledger balances exactly, including the overload
//!   guard's `shed_dropped` column.
//!
//! `bench_chaos` runs the same judgements standalone and emits the
//! committed `CHAOS_0.json`; these tests keep them in the tier-1 suite.

use verus_core::VerusCc;
use verus_netsim::chaos::{ChaosSchedule, ChaosScript};
use verus_netsim::queue::QueueConfig;
use verus_netsim::{BottleneckConfig, FlowConfig, SimConfig, Simulation};
use verus_nettypes::{SimDuration, SimTime};
use verus_transport::{
    Emulator, EmulatorConfig, FlowSpec, Receiver, SessionConfig, SessionState, ShardServer,
    ShardServerConfig, WallClock,
};

const SEED: u64 = 21;
const BACKOFF_CAP: SimDuration = SimDuration::from_millis(1000);
const SLO_BUDGET: SimDuration = SimDuration::from_millis(2000);

/// Synthetic constant-rate trace: one opportunity per millisecond.
fn steady_trace(bytes_per_ms: u32, secs: u64) -> verus_cellular::Trace {
    verus_cellular::Trace::from_times(
        "steady",
        (0..secs * 1000).map(SimTime::from_millis),
        bytes_per_ms,
    )
    .expect("trace")
}

/// Blackout train over Gilbert–Elliott loss spikes.
fn chaos(start_s: u64, outage_ms: u64, gap_ms: u64, repeats: u64) -> ChaosSchedule {
    ChaosSchedule::new(SEED)
        .with(ChaosScript::FlappingBlackout {
            start: SimTime::from_secs(start_s),
            outage: SimDuration::from_millis(outage_ms),
            gap: SimDuration::from_millis(gap_ms),
            repeats,
        })
        .with(ChaosScript::LossSpikeTrain {
            p_enter: 0.02,
            p_exit: 0.5,
            base_loss: 0.0,
            spike_loss: 1.0,
        })
}

#[test]
fn netsim_chaos_soak_meets_recovery_slos() {
    // The bench_chaos full schedule: 30 simulated seconds, three 2 s
    // outages, overload guard armed at 1024 outstanding.
    let sched = chaos(5, 2000, 4000, 3);
    let windows = sched.blackout_windows();
    let config = SimConfig {
        bottleneck: BottleneckConfig::Cell {
            trace: steady_trace(3500, 2),
            base_rtt: SimDuration::from_millis(40),
            loss: 0.0,
        },
        queue: QueueConfig::DropTail {
            capacity_bytes: 1 << 20,
        },
        flows: vec![FlowConfig::new(Box::new(VerusCc::default())).with_shed_cap(1024)],
        duration: SimDuration::from_secs(30),
        seed: SEED,
        throughput_window: SimDuration::from_millis(100),
        impairments: sched.compile().expect("chaos schedule compiles"),
        abc: None,
    };
    let reports = Simulation::new(config).expect("valid config").run();
    let r = &reports[0];

    assert!(r.ledger_balances(), "conservation ledger broken: {r:?}");
    assert!(
        r.shed_dropped > 0,
        "the overload guard never fired; the soak is not exercising shedding"
    );
    assert!(r.timeouts > 0, "the blackout train must force RTOs");

    // Recovery SLO per outage: a delivered throughput window within the
    // budget of each blackout's end.
    let series = r.throughput.series_bps();
    for b in &windows {
        let end_s = b.end().as_secs_f64();
        let recovered = series
            .iter()
            .find(|&&(t, bps)| t >= end_s && bps > 0.0)
            .map(|&(t, _)| SimDuration::from_millis_f64((t - end_s) * 1e3));
        let d = recovered.unwrap_or_else(|| panic!("stuck after the outage ending at {end_s} s"));
        assert!(
            d <= SLO_BUDGET,
            "recovery after the outage ending at {end_s} s took {} ms (budget {} ms)",
            d.as_millis_f64(),
            SLO_BUDGET.as_millis_f64(),
        );
    }

    // Zero stuck flows: still delivering after the last outage.
    let last_end = windows.last().expect("train has outages").end().as_secs_f64();
    let post: f64 = series
        .iter()
        .filter(|(t, _)| *t >= last_end)
        .map(|(_, bps)| bps)
        .sum();
    assert!(post > 0.0, "no throughput after the final outage");
}

#[test]
fn transport_chaos_soak_reestablishes_within_slo() {
    // One 1.5 s outage on the wall clock: long enough to drive the
    // session through Degraded → Reconnecting, short enough for tier-1.
    let sched = chaos(2, 1500, 3000, 1);
    let windows = sched.blackout_windows();

    let clock = WallClock::new();
    let receiver = Receiver::spawn("127.0.0.1:0", clock).unwrap();
    let mut emu_config = EmulatorConfig::new(steady_trace(1000, 2), receiver.local_addr());
    emu_config.impairments = sched.compile().expect("chaos schedule compiles");
    let emulator = Emulator::spawn(emu_config, clock).unwrap();

    let server = ShardServer::new(ShardServerConfig {
        deadline: SimDuration::from_secs(8),
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
    let report = server.run(vec![flow], clock).unwrap().flows.remove(0);
    emulator.stop();
    receiver.stop();

    assert!(report.reached_established(), "never established: {:?}", report.transitions);
    assert_eq!(
        report.final_state,
        SessionState::Closed,
        "session stuck: {:?}",
        report.transitions
    );
    assert!(
        report.reconnects() >= 1,
        "the outage must force a reconnect cycle: {:?}",
        report.transitions
    );
    assert!(report.probes >= 1, "reconnecting must probe");
    let s = &report.stats;
    assert!(s.acked > 0, "nothing acknowledged");
    assert!(
        s.acked <= s.sent - s.shed_dropped,
        "shed accounting inconsistent: {s:?}"
    );

    // Recovery SLO: first Established edge at or after each blackout
    // end lands within the budget.
    for b in &windows {
        let recovered = report
            .transitions
            .iter()
            .find(|t| t.to == SessionState::Established && t.at >= b.end())
            .map(|t| t.at.saturating_since(b.end()));
        let d = recovered.unwrap_or_else(|| {
            panic!(
                "no re-establishment after the outage ending at {:.1} s: {:?}",
                b.end().as_secs_f64(),
                report.transitions
            )
        });
        assert!(
            d <= SLO_BUDGET,
            "re-establishment took {} ms (budget {} ms): {:?}",
            d.as_millis_f64(),
            SLO_BUDGET.as_millis_f64(),
            report.transitions
        );
    }

    // The session layer's recovery bookkeeping agrees with the SLO
    // judgement: every recorded recovery is a real Reconnecting (or
    // Connecting) → Established edge with a measured duration.
    for d in report.recovery_times() {
        assert!(d <= SimDuration::from_secs(8), "nonsense recovery time {d:?}");
    }
}
