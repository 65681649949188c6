//! Real-socket loopback tests: sender → emulator → receiver on 127.0.0.1
//! with actual UDP packets and wall-clock timing.
//!
//! These are the reproduction's stand-in for the paper's live
//! experiments: same endpoints, with the commercial cellular network
//! replaced by the trace-driven emulator. Assertions are deliberately
//! loose — wall-clock tests on shared CI machines jitter — but every run
//! must move real data and keep delays in a sane band.

use std::net::SocketAddr;
use verus_baselines::Cubic;
use verus_cellular::{OperatorModel, Scenario};
use verus_core::VerusCc;
use verus_nettypes::{CongestionControl, SimDuration};
use verus_transport::{
    Emulator, EmulatorConfig, FlowSpec, Receiver, ShardServer, ShardServerConfig, TransferStats,
    WallClock,
};

fn trace(seed: u64) -> verus_cellular::Trace {
    Scenario::CampusStationary
        .generate_trace(OperatorModel::Etisalat3G, SimDuration::from_secs(10), seed)
        .unwrap()
}

/// Runs `cc` as one flow to `dest` for `secs`, then drains.
fn send(
    dest: SocketAddr,
    secs: u64,
    gap_factor: f64,
    cc: Box<dyn CongestionControl>,
    clock: WallClock,
) -> TransferStats {
    let server = ShardServer::new(ShardServerConfig {
        deadline: SimDuration::from_secs(secs),
        gap_factor,
        stagger: SimDuration::ZERO,
        ..ShardServerConfig::default()
    });
    let flow = FlowSpec {
        flow: 1,
        dest,
        packets: u64::MAX,
        cc,
    };
    server.run(vec![flow], clock).unwrap().flows.remove(0).stats
}

#[test]
fn verus_over_emulated_cellular_loopback() {
    let clock = WallClock::new();
    let rx = Receiver::spawn("127.0.0.1:0", clock).unwrap();
    let emu = Emulator::spawn(EmulatorConfig::new(trace(1), rx.local_addr()), clock).unwrap();

    let stats = send(
        emu.ingress_addr(),
        3,
        3.0,
        Box::new(VerusCc::default()),
        clock,
    );

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

    // Gap factor 1.5: duplicate-ACK-like for TCP.
    let stats = send(emu.ingress_addr(), 3, 1.5, Box::new(Cubic::new()), clock);
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

    let stats = send(
        emu.ingress_addr(),
        2,
        3.0,
        Box::new(VerusCc::default()),
        clock,
    );
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
    let stats = send(rx.local_addr(), 1, 3.0, Box::new(VerusCc::default()), clock);
    assert!(stats.acked > 100, "only {} acked", stats.acked);
    // Loopback delay is sub-millisecond.
    assert!(stats.mean_delay_ms() < 50.0);
    rx.stop();
}
