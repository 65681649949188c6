//! Packet-conservation checks: every packet handed to the simulator is
//! accounted for exactly once — lost on the radio, dropped by the queue,
//! still buffered/in flight, or delivered. In debug builds (and under the
//! `strict-invariants` feature) the simulator additionally re-checks the
//! per-flow ledger after every dispatched event, so simply running a lossy
//! simulation here exercises the runtime invariant on every step.

use verus_baselines::Cubic;
use verus_core::VerusCc;
use verus_netsim::queue::QueueConfig;
use verus_netsim::{BottleneckConfig, FlowConfig, FlowReport, SimConfig, Simulation};
use verus_nettypes::{CongestionControl, SimDuration, SimTime};

fn run_lossy(cc: Box<dyn CongestionControl>, seed: u64) -> FlowReport {
    // 8 Mbit/s link with 2% stochastic radio loss feeding a shallow
    // DropTail queue: both loss mechanisms fire.
    let config = SimConfig {
        bottleneck: BottleneckConfig::fixed(
            8e6,
            SimDuration::from_millis(40),
            0.02,
        ),
        queue: QueueConfig::DropTail {
            capacity_bytes: 30_000,
        },
        flows: vec![FlowConfig::new(cc)],
        duration: SimDuration::from_secs(20),
        seed,
        throughput_window: SimDuration::from_secs(1),
        impairments: Default::default(),
        abc: None,
    };
    Simulation::new(config).unwrap().run().remove(0)
}

/// The final ledger balances: packets that were neither delivered nor
/// destroyed must still have been somewhere (queue / in flight) when the
/// simulation stopped — never negative, and never more than a window's
/// worth unaccounted for.
#[test]
fn lossy_run_conserves_packets() {
    let r = run_lossy(Box::new(Cubic::new()), 42);
    assert!(r.radio_lost > 0, "radio loss never fired (seed too kind?)");
    assert!(r.queue_drops > 0, "queue never dropped (buffer too deep?)");
    let destroyed = r.radio_lost + r.queue_drops;
    assert!(
        r.delivered + destroyed <= r.sent,
        "ledger overflow: delivered {} + destroyed {} > sent {}",
        r.delivered,
        destroyed,
        r.sent
    );
    // Whatever is unaccounted for was in the queue or on the wire at the
    // end of the run; that residue is bounded by the bottleneck's storage,
    // not proportional to the run length.
    let residue = r.sent - r.delivered - destroyed;
    assert!(residue < 500, "{residue} packets vanished mid-network");
}

#[test]
fn verus_lossy_run_conserves_packets() {
    let r = run_lossy(Box::new(VerusCc::default()), 43);
    let destroyed = r.radio_lost + r.queue_drops;
    assert!(r.delivered + destroyed <= r.sent);
    assert!(r.sent - r.delivered - destroyed < 500);
    assert!(r.delivered > 0, "nothing delivered on a working link");
}

fn run_clean(secs: u64) -> FlowReport {
    let config = SimConfig {
        bottleneck: BottleneckConfig::fixed(10e6, SimDuration::from_millis(40), 0.0),
        queue: QueueConfig::deep_droptail(),
        flows: vec![FlowConfig::new(Box::new(VerusCc::default())).starting_at(SimTime::ZERO)],
        duration: SimDuration::from_secs(secs),
        seed: 44,
        throughput_window: SimDuration::from_secs(1),
        impairments: Default::default(),
        abc: None,
    };
    Simulation::new(config).unwrap().run().remove(0)
}

/// A lossless link with a deep DropTail buffer (1.125 MB, 900 ms at
/// 10 Mbit/s). Verus slow start, like the paper's, ends only on its
/// first loss, so it overruns the buffer once; after that the flow
/// never overflows it again, and the sender detects every drop.
#[test]
fn clean_link_drops_only_in_slow_start() {
    let prefix = run_clean(2);
    let r = run_clean(10);
    assert_eq!(r.radio_lost, 0);
    assert_eq!(
        r.queue_drops, prefix.queue_drops,
        "queue drops after the slow-start prefix (first 2 s)"
    );
    assert_eq!(
        r.fast_losses + r.timeouts,
        r.queue_drops,
        "every queue drop must be detected as a loss"
    );
    assert!(r.delivered <= r.sent);
}
