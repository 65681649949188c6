//! Fault-injection soak tests on both substrates.
//!
//! The robustness contract: under burst loss, reordering, duplication,
//! corruption and a multi-second blackout, the sender must recover
//! (slow-start re-entry after repeated RTOs), the packet-conservation
//! ledger must balance exactly, and every thread must shut down cleanly.

use std::time::Duration;
use verus_core::{Phase, VerusCc};
use verus_netsim::impairment::{Blackout, ImpairmentConfig, LossModel};
use verus_netsim::queue::QueueConfig;
use verus_netsim::{BottleneckConfig, FlowConfig, SimConfig, Simulation};
use verus_nettypes::{SimDuration, SimTime};
use verus_transport::{
    Emulator, EmulatorConfig, FlowSpec, Receiver, ShardServer, ShardServerConfig, WallClock,
};

/// Synthetic constant-rate trace: one opportunity per millisecond.
/// Deterministic (no RNG), loops for the run's lifetime.
fn steady_trace(bytes_per_ms: u32, secs: u64) -> verus_cellular::Trace {
    verus_cellular::Trace::from_times(
        "steady",
        (0..secs * 1000).map(SimTime::from_millis),
        bytes_per_ms,
    )
    .expect("trace")
}

/// Heavy impairment mix for the netsim soak: ~10% mean Gilbert–Elliott
/// loss in bursts, light reordering/duplication/corruption, and a 3 s
/// blackout from t = 10 s.
fn soak_impairments(seed: u64) -> ImpairmentConfig {
    ImpairmentConfig {
        loss: LossModel::GilbertElliott {
            p_good_to_bad: 0.05,
            p_bad_to_good: 0.45,
            loss_good: 0.0,
            loss_bad: 1.0,
        },
        reorder_prob: 0.01,
        reorder_extra_delay: SimDuration::from_millis(20),
        duplicate_prob: 0.01,
        corrupt_prob: 0.005,
        blackouts: vec![Blackout {
            start: SimTime::from_secs(10),
            duration: SimDuration::from_secs(3),
        }],
        seed,
    }
}

fn soak_config(impairment_seed: u64, duration: SimDuration) -> SimConfig {
    SimConfig {
        bottleneck: BottleneckConfig::Cell {
            trace: steady_trace(3500, 2), // 28 Mbit/s, looped
            base_rtt: SimDuration::from_millis(40),
            loss: 0.0,
        },
        queue: QueueConfig::DropTail {
            capacity_bytes: 1 << 20,
        },
        flows: vec![FlowConfig::new(Box::new(VerusCc::default()))],
        duration,
        seed: 7,
        throughput_window: SimDuration::from_secs(1),
        impairments: soak_impairments(impairment_seed),
        abc: None,
    }
}

#[test]
fn netsim_soak_recovers_from_blackout_and_balances_ledger() {
    let sim = Simulation::new(soak_config(42, SimDuration::from_secs(30))).unwrap();

    // Sample protocol internals every 500 ms: after the blackout the
    // controller must have taken a re-entry edge into slow start
    // (consecutive-RTO escape hatch) at some point.
    let mut reentered_slow_start = false;
    let reports = sim.run_observed(SimDuration::from_millis(500), |_, ccs| {
        if let Some(verus) = ccs[0].as_any().downcast_ref::<VerusCc>() {
            let audit = verus.phase_audit();
            assert!(audit.all_legal(), "illegal phase edge taken");
            if audit.count(Phase::Recovery, Phase::SlowStart)
                + audit.count(Phase::CongestionAvoidance, Phase::SlowStart)
                > 0
            {
                reentered_slow_start = true;
            }
        }
    });
    let r = &reports[0];

    // Exact packet conservation under the full impairment mix.
    assert!(r.ledger_balances(), "ledger does not balance: {r:?}");

    // The impairments actually fired.
    assert!(r.impaired_lost > 0, "no impairment losses recorded");
    assert!(r.dup_injected > 0, "no duplicates injected");
    assert!(r.corrupt_dropped > 0, "no corruption recorded");
    assert!(r.timeouts > 0, "the 3 s blackout must force RTOs");
    assert!(
        reentered_slow_start,
        "repeated RTOs during the blackout must re-enter slow start"
    );

    // Recovery: the flow delivers data again after the blackout ends at
    // t = 13 s.
    let post_blackout_bps: f64 = r
        .throughput
        .series_bps()
        .iter()
        .filter(|(t, _)| *t >= 14.0)
        .map(|(_, bps)| bps)
        .sum();
    assert!(
        post_blackout_bps > 0.0,
        "no throughput after the blackout ended"
    );
}

#[test]
fn netsim_impairments_are_deterministic_per_seed() {
    let key = |r: &verus_netsim::FlowReport| {
        (
            r.sent,
            r.delivered,
            r.impaired_lost,
            r.corrupt_dropped,
            r.dup_injected,
            r.timeouts,
        )
    };
    let dur = SimDuration::from_secs(8);
    let a = Simulation::new(soak_config(1, dur)).unwrap().run();
    let b = Simulation::new(soak_config(1, dur)).unwrap().run();
    assert_eq!(key(&a[0]), key(&b[0]), "same seed must replay identically");

    let c = Simulation::new(soak_config(2, dur)).unwrap().run();
    assert_ne!(
        key(&a[0]),
        key(&c[0]),
        "different impairment seeds must diverge"
    );
    for r in [&a[0], &b[0], &c[0]] {
        assert!(r.ledger_balances());
    }
}

#[test]
fn transport_soak_survives_blackout_and_joins_threads() {
    let clock = WallClock::new();
    let receiver = Receiver::spawn("127.0.0.1:0", clock).unwrap();

    let mut config = EmulatorConfig::new(steady_trace(1000, 2), receiver.local_addr());
    // Mild burst loss plus a 2 s blackout at t = 2 s on the shared
    // wall clock (the emulator spawns within milliseconds of it).
    config.impairments = ImpairmentConfig {
        loss: LossModel::GilbertElliott {
            p_good_to_bad: 0.02,
            p_bad_to_good: 0.5,
            loss_good: 0.0,
            loss_bad: 1.0,
        },
        blackouts: vec![Blackout {
            start: SimTime::from_secs(2),
            duration: SimDuration::from_secs(2),
        }],
        seed: 99,
        ..ImpairmentConfig::default()
    };
    let emulator = Emulator::spawn(config, clock).unwrap();

    let server = ShardServer::new(ShardServerConfig {
        deadline: SimDuration::from_secs(7),
        stagger: SimDuration::ZERO,
        ..ShardServerConfig::default()
    });
    let flow = FlowSpec {
        flow: 1,
        dest: emulator.ingress_addr(),
        packets: u64::MAX,
        cc: Box::new(VerusCc::default()),
    };
    let stats = server.run(vec![flow], clock).unwrap().flows.remove(0).stats;

    assert!(stats.acked > 0, "nothing acknowledged");
    assert!(
        stats.timeouts > 0,
        "the 2 s blackout must force at least one RTO"
    );
    // Recovery: ACK-clocked throughput exists after the blackout ends
    // at t = 4 s.
    let post_blackout_bps: f64 = stats
        .throughput
        .series_bps()
        .iter()
        .filter(|(t, _)| *t >= 5.0)
        .map(|(_, bps)| bps)
        .sum();
    assert!(
        post_blackout_bps > 0.0,
        "no throughput after the blackout ended"
    );

    assert!(emulator.received() > 0);
    assert!(emulator.impaired() > 0, "impairments never fired");
    assert!(!emulator.watchdog_fired());
    // Clean shutdown: stop() joins and propagates any ledger-assert
    // panic from the emulator thread.
    emulator.stop();
    receiver.stop();
}

#[test]
fn transport_watchdog_shuts_down_a_silent_emulator() {
    let clock = WallClock::new();
    let sink = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
    let mut config = EmulatorConfig::new(steady_trace(1000, 2), sink.local_addr().unwrap());
    config.watchdog_idle = Some(Duration::from_millis(300));
    let emulator = Emulator::spawn(config, clock).unwrap();

    // No peer ever speaks. The thread must terminate on its own.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !emulator.is_finished() && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        emulator.is_finished(),
        "watchdog failed to stop the idle emulator thread"
    );
    assert!(emulator.watchdog_fired());
    // The watchdog records *when* it fired (µs on the shared clock):
    // at least the 300 ms idle window, and not after this test's own
    // polling deadline.
    let at_us = emulator.watchdog_fired_at_us().expect("fired implies a timestamp");
    assert!(at_us >= 300_000, "fired after only {at_us} µs of idleness");
    assert!(
        at_us <= clock.now_micros(),
        "fire timestamp {at_us} µs is in the future"
    );
    emulator.stop();
}
