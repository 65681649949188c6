//! Real packets on real sockets: Verus over the trace-driven UDP channel
//! emulator (the mahimahi substitute), all on loopback.
//!
//! ```bash
//! cargo run --release -p verus-bench --example live_emulation
//! ```
//!
//! Topology (one process; sender, emulator and receiver threads):
//!
//! ```text
//! ShardServer, one flow (Verus, 5 ms wall-clock epochs)
//!     │ UDP
//!     ▼
//! Emulator (releases bytes at the trace's delivery opportunities,
//!     │      +20 ms propagation each way, DropTail buffer)
//!     ▼
//! Receiver (timestamps + ACKs every packet)
//! ```

use verus_cellular::{OperatorModel, Scenario};
use verus_core::{VerusCc, VerusConfig};
use verus_nettypes::SimDuration;
use verus_transport::{
    Emulator, EmulatorConfig, FlowSpec, Receiver, ShardServer, ShardServerConfig, WallClock,
};

fn main() -> std::io::Result<()> {
    let clock = WallClock::new();

    // A 3G city trace to emulate.
    let trace = Scenario::CityStationary
        .generate_trace(OperatorModel::Etisalat3G, SimDuration::from_secs(15), 21)
        .expect("trace generation");
    println!(
        "emulating: {} ({:.2} Mbit/s mean capacity)",
        trace.name,
        trace.mean_rate_bps() / 1e6
    );

    // Receiver, then the emulator pointing at it.
    let receiver = Receiver::spawn("127.0.0.1:0", clock)?;
    let emulator = Emulator::spawn(EmulatorConfig::new(trace, receiver.local_addr()), clock)?;
    println!(
        "receiver on {}, emulator ingress on {}",
        receiver.local_addr(),
        emulator.ingress_addr()
    );

    // A 10-second Verus transfer through the emulator.
    let server = ShardServer::new(ShardServerConfig {
        deadline: SimDuration::from_secs(10),
        stagger: SimDuration::ZERO,
        ..ShardServerConfig::default()
    });
    let flow = FlowSpec {
        flow: 1,
        dest: emulator.ingress_addr(),
        packets: u64::MAX,
        cc: Box::new(VerusCc::new(VerusConfig::default())),
    };
    println!("running Verus (R = 2) for 10 s of wall-clock time…");
    let stats = server.run(vec![flow], clock)?.flows.remove(0).stats;

    println!();
    println!("results:");
    println!(
        "  throughput : {:.2} Mbit/s ({} packets acked / {} sent)",
        stats.mean_throughput_mbps(),
        stats.acked,
        stats.sent
    );
    println!(
        "  delay      : mean {:.1} ms, p95 {:.1} ms (one-way, incl. 20 ms propagation)",
        stats.mean_delay_ms(),
        stats.delay_summary.map_or(0.0, |s| s.p95)
    );
    println!(
        "  losses     : {} fast-detected, {} timeouts, {} dropped at the emulator",
        stats.fast_losses,
        stats.timeouts,
        emulator.dropped()
    );

    emulator.stop();
    receiver.stop();
    Ok(())
}
