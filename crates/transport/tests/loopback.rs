//! Real-socket loopback tests: sender → emulator → receiver on 127.0.0.1
//! with actual UDP packets and wall-clock timing.
//!
//! These are the reproduction's stand-in for the paper's live
//! experiments: same endpoints, with the commercial cellular network
//! replaced by the trace-driven emulator. Assertions are deliberately
//! loose — wall-clock tests on shared CI machines jitter — but every run
//! must move real data and keep delays in a sane band.

use std::time::Duration;
use verus_baselines::Cubic;
use verus_cellular::{OperatorModel, Scenario};
use verus_core::VerusCc;
use verus_nettypes::SimDuration;
use verus_transport::{
    Emulator, EmulatorConfig, Receiver, SenderConfig, SupervisedSender, SupervisorConfig, WallClock,
};

fn trace(seed: u64) -> verus_cellular::Trace {
    Scenario::CampusStationary
        .generate_trace(OperatorModel::Etisalat3G, SimDuration::from_secs(10), seed)
        .unwrap()
}

#[test]
fn verus_over_emulated_cellular_loopback() {
    let clock = WallClock::new();
    let rx = Receiver::spawn("127.0.0.1:0", clock).unwrap();
    let emu = Emulator::spawn(EmulatorConfig::new(trace(1), rx.local_addr()), clock).unwrap();

    let mut sender = SupervisedSender::new(
        SupervisorConfig::new(SenderConfig::new(
            emu.ingress_addr(),
            Duration::from_secs(3),
        )),
        clock,
    );
    let stats = sender.run(Box::new(VerusCc::default())).unwrap().stats;

    assert!(stats.sent > 50, "sent only {} packets", stats.sent);
    assert!(
        stats.acked as f64 > stats.sent as f64 * 0.5,
        "acked {}/{} — transfer stalled",
        stats.acked,
        stats.sent
    );
    let mbps = stats.mean_throughput_mbps();
    assert!(mbps > 0.3, "throughput {mbps} Mbit/s too low");
    // One-way delay must include the 20 ms forward path but stay far from
    // bufferbloat territory on this ~5 Mbit/s trace.
    let d = stats.mean_delay_ms();
    assert!(d >= 15.0, "delay {d} ms below the configured floor");
    assert!(d < 2_000.0, "delay {d} ms — runaway queue");

    emu.stop();
    rx.stop();
}

#[test]
fn cubic_over_emulated_cellular_loopback() {
    let clock = WallClock::new();
    let rx = Receiver::spawn("127.0.0.1:0", clock).unwrap();
    let emu = Emulator::spawn(EmulatorConfig::new(trace(2), rx.local_addr()), clock).unwrap();

    let mut sender = SupervisedSender::new(
        SupervisorConfig::new(SenderConfig {
            gap_factor: 1.5, // duplicate-ACK-like for TCP
            ..SenderConfig::new(emu.ingress_addr(), Duration::from_secs(3))
        }),
        clock,
    );
    let stats = sender.run(Box::new(Cubic::new())).unwrap().stats;
    assert!(stats.acked > 50, "cubic moved only {} packets", stats.acked);
    assert!(stats.mean_throughput_mbps() > 0.3);

    emu.stop();
    rx.stop();
}

#[test]
fn emulator_applies_stochastic_loss() {
    let clock = WallClock::new();
    let rx = Receiver::spawn("127.0.0.1:0", clock).unwrap();
    let mut config = EmulatorConfig::new(trace(3), rx.local_addr());
    config.loss = 0.3; // heavy loss so the counter must move
    let emu = Emulator::spawn(config, clock).unwrap();

    let mut sender = SupervisedSender::new(
        SupervisorConfig::new(SenderConfig::new(
            emu.ingress_addr(),
            Duration::from_secs(2),
        )),
        clock,
    );
    let stats = sender.run(Box::new(VerusCc::default())).unwrap().stats;
    assert!(emu.dropped() > 0, "no drops despite 30% loss");
    assert!(
        stats.fast_losses + stats.timeouts > 0,
        "sender never noticed the losses"
    );
    emu.stop();
    rx.stop();
}

#[test]
fn direct_sender_receiver_without_emulator() {
    // Sanity: the sender and receiver interoperate at full loopback speed.
    let clock = WallClock::new();
    let rx = Receiver::spawn("127.0.0.1:0", clock).unwrap();
    let mut sender = SupervisedSender::new(
        SupervisorConfig::new(SenderConfig::new(
            rx.local_addr(),
            Duration::from_secs(1),
        )),
        clock,
    );
    let stats = sender.run(Box::new(VerusCc::default())).unwrap().stats;
    assert!(stats.acked > 100, "only {} acked", stats.acked);
    // Loopback delay is sub-millisecond.
    assert!(stats.mean_delay_ms() < 50.0);
    rx.stop();
}
