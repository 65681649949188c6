//! Tier-1 load test for the sharded transport plane: ~1k flows over a
//! local batched receiver, seconds per run, on every commit. The timing
//! side of the plane (syscalls per packet, epoch-timer lateness) is
//! perfbench's `udp_crowd` workload. What this suite pins down is the
//! part that must never regress:
//!
//! - **ledger balance** — every offered sequence ends exactly once in
//!   the `acked` or `shed` column (`residual() == 0`), on BOTH the
//!   `sendmmsg`/`recvmmsg` backend and the portable per-packet fallback;
//! - **no stuck sessions** — the supervisor-semantics lifecycle closes
//!   every flow before the server's deadline watchdog has to abort it;
//! - **deterministic digests** — two runs with the same seed produce
//!   byte-identical `deterministic_digest()` strings, and the batched
//!   backend's digest equals the per-packet fallback's: the fallback is
//!   the batched path's behavioural oracle.

use verus_core::VerusCc;
use verus_nettypes::{FixedWindow, SimDuration};
use verus_transport::{
    FlowSpec, IoMode, LoadReport, Receiver, ShardServer, ShardServerConfig, WallClock,
};

/// Runs `flows` FixedWindow flows of `packets` sequences each against a
/// batched loopback receiver and returns the ledger.
fn run_crowd(
    mode: IoMode,
    flows: u32,
    packets: u64,
    shards: usize,
    seed: u64,
    shed_cap: Option<usize>,
) -> LoadReport {
    let clock = WallClock::new();
    let rx = Receiver::spawn_batched("127.0.0.1:0", clock, mode).unwrap();
    let cfg = ShardServerConfig {
        shards,
        io_mode: mode,
        packet_bytes: 0, // header-only keeps the tier-1 run light
        epoch: SimDuration::from_millis_f64(20.0),
        stagger: SimDuration::from_millis_f64(100.0),
        shed_outstanding_cap: shed_cap,
        deadline: SimDuration::from_secs_f64(20.0),
        seed,
        ..ShardServerConfig::default()
    };
    let specs: Vec<FlowSpec> = (0..flows)
        .map(|i| FlowSpec {
            flow: i,
            dest: rx.local_addr(),
            packets,
            cc: Box::new(FixedWindow::new(4)),
        })
        .collect();
    let report = ShardServer::new(cfg).run(specs, clock).unwrap();
    rx.stop();
    report
}

#[test]
fn thousand_flows_balance_the_ledger_on_both_backends() {
    let mut digests = Vec::new();
    for mode in [IoMode::Batched, IoMode::PerPacket] {
        let a = run_crowd(mode, 1000, 4, 2, 7, None);
        assert_eq!(a.shards.len(), 2, "one snapshot per shard ({mode:?})");
        assert_eq!(a.offered(), 4000, "{mode:?}");
        assert_eq!(a.residual(), 0, "ledger must balance ({mode:?}): {a:?}");
        assert_eq!(a.stuck(), 0, "no stuck sessions ({mode:?})");
        assert_eq!(a.closed(), 1000, "every session closed ({mode:?})");
        assert_eq!(a.shed(), 0, "uncapped run sheds nothing ({mode:?})");
        assert_eq!(a.acked(), 4000, "{mode:?}");

        // Same seed, same crowd → byte-identical deterministic digest.
        let b = run_crowd(mode, 1000, 4, 2, 7, None);
        assert_eq!(
            a.deterministic_digest(),
            b.deterministic_digest(),
            "digest must be byte-stable across same-seed runs ({mode:?})"
        );
        digests.push(a.deterministic_digest());
    }
    assert_eq!(
        digests[0], digests[1],
        "the batched and per-packet backends disagree on the deterministic ledger"
    );
}

#[test]
fn shed_cap_accounts_overload_exactly() {
    // A zero in-flight cap forces every non-probe sequence through the
    // shed path: the ledger must still balance exactly — each sequence
    // lands in `acked` (the probed ones) or `shed` (the rest), never
    // both, never neither.
    let r = run_crowd(IoMode::Batched, 64, 16, 1, 11, Some(0));
    assert_eq!(r.offered(), 1024);
    assert_eq!(
        r.acked() + r.shed(),
        r.offered(),
        "shed + acked must cover the offer exactly: {r:?}"
    );
    assert_eq!(r.residual(), 0);
    assert_eq!(r.stuck(), 0);
    assert_eq!(r.closed(), 64);
    assert!(r.shed() > 0, "the cap must actually shed: {r:?}");
}

#[test]
fn verus_controller_closes_a_small_crowd() {
    // The real ε-epoch controller (its own tick cadence, delay-profile
    // window updates) through the same plane: completion and ledger
    // balance must not depend on the FixedWindow simplification.
    let clock = WallClock::new();
    let rx = Receiver::spawn_batched("127.0.0.1:0", clock, IoMode::Batched).unwrap();
    let cfg = ShardServerConfig {
        shards: 2,
        io_mode: IoMode::Batched,
        packet_bytes: 0,
        stagger: SimDuration::from_millis_f64(50.0),
        deadline: SimDuration::from_secs_f64(20.0),
        seed: 3,
        ..ShardServerConfig::default()
    };
    let specs: Vec<FlowSpec> = (0..32)
        .map(|i| FlowSpec {
            flow: i,
            dest: rx.local_addr(),
            packets: 8,
            cc: Box::new(VerusCc::default()),
        })
        .collect();
    let report = ShardServer::new(cfg).run(specs, clock).unwrap();
    rx.stop();
    assert_eq!(report.offered(), 256);
    assert_eq!(report.residual(), 0, "{report:?}");
    assert_eq!(report.stuck(), 0);
    assert_eq!(report.closed(), 32);
}
