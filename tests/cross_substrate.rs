//! Cross-substrate consistency: the same protocol over the same channel
//! must behave comparably on the discrete-event simulator and on real
//! UDP sockets through the emulator. This is the check that the two
//! transports implement the same semantics.

use verus_bench::{CellExperiment, ProtocolSpec};
use verus_cellular::{OperatorModel, Scenario, Trace};
use verus_core::VerusCc;
use verus_netsim::queue::QueueConfig;
use verus_nettypes::SimDuration;
use verus_transport::{
    Emulator, EmulatorConfig, FlowSpec, Receiver, ShardServer, ShardServerConfig, WallClock,
};

fn shared_trace() -> Trace {
    Scenario::CampusStationary
        .generate_trace(OperatorModel::Etisalat3G, SimDuration::from_secs(12), 5000)
        .expect("trace")
}

#[test]
fn simulated_and_real_verus_agree_on_throughput_scale() {
    let trace = shared_trace();
    let capacity = trace.mean_rate_bps() / 1e6;

    // Simulated run: 8 s, 40 ms RTT, deep buffer.
    let mut exp = CellExperiment::new(trace.clone(), 1, SimDuration::from_secs(8), 5001);
    exp.queue = QueueConfig::DropTail {
        capacity_bytes: 1 << 20,
    };
    let sim = exp.run(ProtocolSpec::verus(2.0)).remove(0);

    // Real-socket run through the emulator: same trace, same RTT.
    let clock = WallClock::new();
    let receiver = Receiver::spawn("127.0.0.1:0", clock).unwrap();
    let emulator =
        Emulator::spawn(EmulatorConfig::new(trace, receiver.local_addr()), clock).unwrap();
    let server = ShardServer::new(ShardServerConfig {
        deadline: SimDuration::from_secs(8),
        stagger: SimDuration::ZERO,
        ..ShardServerConfig::default()
    });
    let flow = FlowSpec {
        flow: 1,
        dest: emulator.ingress_addr(),
        packets: u64::MAX,
        cc: Box::new(VerusCc::default()),
    };
    let real = server.run(vec![flow], clock).unwrap().flows.remove(0).stats;
    emulator.stop();
    receiver.stop();

    let sim_mbps = sim.mean_throughput_mbps();
    let real_mbps = real.mean_throughput_mbps();
    // Wall-clock jitter makes the real run noisier; demand agreement in
    // scale, not in digits: both within (25%, 115%) of capacity and
    // within 3x of each other.
    for (label, v) in [("sim", sim_mbps), ("real", real_mbps)] {
        assert!(
            v > 0.25 * capacity && v < 1.15 * capacity,
            "{label} throughput {v:.2} implausible vs capacity {capacity:.2}"
        );
    }
    let ratio = sim_mbps.max(real_mbps) / sim_mbps.min(real_mbps).max(1e-9);
    assert!(
        ratio < 3.0,
        "substrates disagree: sim {sim_mbps:.2} vs real {real_mbps:.2} Mbit/s"
    );
    // Both substrates must report delay above the propagation floor.
    assert!(sim.mean_delay_ms() >= 19.0);
    assert!(real.mean_delay_ms() >= 19.0);
}

#[test]
fn packet_format_is_shared_between_substrates() {
    // The simulator carries metadata structurally; the wire format is the
    // transport's. Confirm a packet built from simulator-style metadata
    // round-trips the real codec with the fields every CC needs.
    use verus_nettypes::{AckPacket, DataPacket};
    let pkt = DataPacket {
        flow: 9,
        seq: 777,
        send_time_us: 123_456,
        send_window: 33.5,
        payload_len: 1400,
    };
    let ack = AckPacket::for_packet(&pkt, 125_000);
    let decoded = AckPacket::decode(&ack.encode()).unwrap();
    assert_eq!(decoded.seq, 777);
    assert_eq!(decoded.echo_send_time_us, 123_456);
    assert!((decoded.send_window - 33.5).abs() < 1e-3);
    // RTT and one-way delay derivable exactly as the sim computes them.
    assert_eq!(decoded.recv_time_us - decoded.echo_send_time_us, 1_544);
}
