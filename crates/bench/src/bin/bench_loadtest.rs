//! Transport-plane load benchmark: the sharded UDP server at 100k flows.
//!
//! Drives [`ShardServer`] — the thread-per-core sharded transport plane —
//! against a batched loopback receiver in two legs over the *same* crowd:
//!
//! 1. **baseline**: the portable per-packet backend (`send_to`/`recv_from`,
//!    one syscall per datagram) — the pre-batching transport's cost model;
//! 2. **batched**: the `sendmmsg`/`recvmmsg` backend, with UDP
//!    segmentation offload (GSO send, GRO receive), behind the same
//!    [`IoBatcher`] contract.
//!
//! Both legs must finish with an **exact packet ledger**: every offered
//! sequence ends in the `acked` column (no shed cap here), zero residual,
//! zero stuck sessions, and byte-identical deterministic digests between
//! the legs. The headline figure is the syscalls-per-packet ratio
//! (baseline ÷ batched), gated at ≥ [`RATIO_FLOOR`]× when the batched
//! backend actually is `mmsg`; the p99 epoch-timer lateness from the
//! shards' timing wheels is recorded and gated at [`JITTER_BUDGET_MS`]
//! when the host has ≥ 4 cores (on fewer cores the figure measures the
//! scheduler, not the timer plane — same honesty rule as BENCH_3's
//! speedup gate).
//!
//! This bin spawns no threads: all fan-out is `ShardServer`'s (enforced
//! by verus-check's `no-thread-outside-transport`), so the measurement
//! is of the plane, not of ad-hoc driver concurrency.
//!
//! Output: `BENCH_4.json` (override with `VERUS_BENCH_OUT`). The record
//! splits into a deterministic core — byte-stable across same-seed runs
//! on one host, which CI verifies with `jq -S 'del(.measured)'` on a
//! double smoke run — and a `measured` object holding the wall-clock and
//! syscall readings that legitimately vary. `--smoke` runs a 1k-flow
//! crowd through the identical two-leg pipeline and schema.

use std::fmt::Write as _;
use std::time::Instant;
use verus_bench::guard_finite;
use verus_nettypes::{FixedWindow, SimDuration};
use verus_transport::{
    FlowSpec, IoMode, LoadReport, Receiver, ShardServer, ShardServerConfig, WallClock,
};

const SEED: u64 = 7;
/// Batched-vs-baseline syscalls-per-packet improvement floor.
const RATIO_FLOOR: f64 = 8.0;
/// p99 epoch-timer lateness budget, enforced on ≥ 4-core hosts.
const JITTER_BUDGET_MS: f64 = 250.0;

struct CrowdShape {
    flows: u32,
    packets_per_flow: u64,
    epoch_ms: u64,
    stagger_ms: u64,
    deadline_secs: u64,
}

/// The headline crowd: 100k concurrent flows, their first epochs spread
/// over 5 s so the plane sees a sustained arrival wave rather than one
/// synchronized burst. The large ε keeps per-flow maintenance (not
/// timer churn) the measured load, matching the crowd scaling of the
/// netsim sweep.
const HEADLINE: CrowdShape = CrowdShape {
    flows: 100_000,
    packets_per_flow: 4,
    epoch_ms: 500,
    stagger_ms: 5_000,
    deadline_secs: 120,
};

/// CI smoke: same pipeline and schema, seconds not minutes.
const SMOKE: CrowdShape = CrowdShape {
    flows: 1_000,
    packets_per_flow: 4,
    epoch_ms: 25,
    stagger_ms: 200,
    deadline_secs: 20,
};

/// What a backend string for `mode` resolves to on this platform
/// (mirrors `batcher_for`'s cfg gate).
fn backend_name(mode: IoMode) -> &'static str {
    match mode {
        IoMode::Batched if cfg!(all(target_os = "linux", target_pointer_width = "64")) => "mmsg",
        _ => "per-packet",
    }
}

struct Leg {
    report: LoadReport,
    wall_secs: f64,
    backend: &'static str,
}

fn run_leg(mode: IoMode, shape: &CrowdShape, shards: usize) -> Leg {
    let clock = WallClock::new();
    let rx = Receiver::spawn_batched("127.0.0.1:0", clock, mode).expect("receiver");
    let cfg = ShardServerConfig {
        shards,
        io_mode: mode,
        packet_bytes: 0, // header-only datagrams: syscall count, not copy cost
        epoch: SimDuration::from_millis(shape.epoch_ms),
        stagger: SimDuration::from_millis(shape.stagger_ms),
        deadline: SimDuration::from_secs(shape.deadline_secs),
        seed: SEED,
        ..ShardServerConfig::default()
    };
    let specs: Vec<FlowSpec> = (0..shape.flows)
        .map(|i| FlowSpec {
            flow: i,
            dest: rx.local_addr(),
            packets: shape.packets_per_flow,
            cc: Box::new(FixedWindow::new(4)),
        })
        .collect();
    let t0 = Instant::now();
    let report = ShardServer::new(cfg).run(specs, clock).expect("load run");
    let wall_secs = t0.elapsed().as_secs_f64();
    rx.stop();

    let offered = report.offered();
    assert_eq!(
        report.residual(),
        0,
        "{mode:?}: ledger must balance exactly (offered {offered})"
    );
    assert_eq!(report.stuck(), 0, "{mode:?}: no session may end stuck");
    assert_eq!(report.closed(), u64::from(shape.flows), "{mode:?}: every session closes");
    assert_eq!(report.shed(), 0, "{mode:?}: uncapped run sheds nothing");
    assert_eq!(report.acked(), offered, "{mode:?}: every sequence ACKed");
    Leg {
        report,
        wall_secs,
        backend: backend_name(mode),
    }
}

/// FNV-1a of the plane's deterministic digest — 8 bytes instead of a
/// per-shard line dump in the record.
fn fnv(s: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let shape = if smoke { &SMOKE } else { &HEADLINE };
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    // One shard per core, capped: past 8 the loopback receiver — not the
    // plane — is the bottleneck, and the partition stays deterministic.
    let shards = cores.clamp(1, 8);
    let offered = u64::from(shape.flows) * shape.packets_per_flow;

    println!(
        "transport load test: {} flows x {} packets, {} shard(s), {} core(s), \
         epoch {} ms, stagger {} ms",
        shape.flows, shape.packets_per_flow, shards, cores, shape.epoch_ms, shape.stagger_ms
    );

    let base = run_leg(IoMode::PerPacket, shape, shards);
    let spp_base = base.report.io().syscalls_per_packet();
    println!(
        "  baseline ({}): {:.4} syscalls/packet, {:.1} datagrams/message, wall {:.2} s",
        base.backend,
        spp_base,
        base.report.io().datagrams_per_message(),
        base.wall_secs
    );

    let batched = run_leg(IoMode::Batched, shape, shards);
    let spp_batched = batched.report.io().syscalls_per_packet();
    let ratio = if spp_batched > 0.0 { spp_base / spp_batched } else { 0.0 };
    let jitter_p99 = batched.report.jitter_p99_ms();
    println!(
        "  batched ({}): {:.4} syscalls/packet, {:.1} datagrams/message, wall {:.2} s \
         -> ratio {:.1}x, epoch-timer p99 lateness {:.2} ms",
        batched.backend,
        spp_batched,
        batched.report.io().datagrams_per_message(),
        batched.wall_secs,
        ratio,
        jitter_p99
    );

    // Both legs completed the identical crowd: the deterministic ledger
    // digest must match across backends — the fallback is the batched
    // path's behavioural oracle.
    let digest = batched.report.deterministic_digest();
    assert_eq!(
        base.report.deterministic_digest(),
        digest,
        "backends disagreed on the deterministic ledger"
    );

    let ratio_enforced = batched.backend == "mmsg";
    if ratio_enforced {
        assert!(
            ratio >= RATIO_FLOOR,
            "syscall batching ratio {ratio:.2}x below the {RATIO_FLOOR}x floor \
             (baseline {spp_base:.4}, batched {spp_batched:.4})"
        );
    }
    let jitter_enforced = cores >= 4;
    if jitter_enforced {
        assert!(
            jitter_p99 <= JITTER_BUDGET_MS,
            "epoch-timer p99 lateness {jitter_p99:.2} ms above the {JITTER_BUDGET_MS} ms budget"
        );
    }
    guard_finite(
        "bench_loadtest",
        &[
            ("spp_base", spp_base),
            ("spp_batched", spp_batched),
            ("ratio", ratio),
            ("jitter_p99_ms", jitter_p99),
        ],
    );

    let bio = batched.report.io();
    let aio = base.report.io();
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"schema\": \"verus-bench-loadtest-v1\",\n  \
         \"smoke\": {smoke},\n  \
         \"seed\": {SEED},\n  \
         \"cores\": {cores},\n  \
         \"shards\": {shards},\n  \
         \"io_backend\": \"{}\",\n  \
         \"flows\": {},\n  \
         \"packets_per_flow\": {},\n  \
         \"offered\": {offered},\n  \
         \"epoch_ms\": {},\n  \
         \"stagger_ms\": {},\n  \
         \"syscall_ratio_floor\": {RATIO_FLOOR},\n  \
         \"jitter_budget_ms\": {JITTER_BUDGET_MS},\n  \
         \"ledger\": {{ \"acked\": {}, \"shed\": 0, \"residual\": 0, \"stuck\": 0, \"closed\": {} }},\n  \
         \"gates\": {{ \"ledger_exact\": true, \"digests_match_across_backends\": true, \
         \"syscall_ratio_enforced\": {ratio_enforced}, \"jitter_enforced\": {jitter_enforced} }},\n  \
         \"digest_fnv\": \"{:016x}\",\n  \
         \"notes\": \"Deterministic core only: `measured` holds the wall-clock and syscall readings and is excluded from the byte-stability comparison (jq del(.measured)). The syscall-ratio gate applies when the batched leg actually runs mmsg; the jitter gate applies on >=4-core hosts (below that the reading measures the scheduler, not the timer plane).\",\n  \
         \"measured\": {{\n    \
         \"baseline\": {{ \"backend\": \"{}\", \"syscalls\": {}, \"packets\": {}, \
         \"syscalls_per_packet\": {:.6}, \"send_failed\": {}, \"wall_secs\": {:.3} }},\n    \
         \"batched\": {{ \"backend\": \"{}\", \"syscalls\": {}, \"packets\": {}, \
         \"syscalls_per_packet\": {:.6}, \"send_failed\": {}, \"wall_secs\": {:.3}, \
         \"timer_fires\": {}, \"epoch_fires\": {}, \"jitter_p99_ms\": {:.3}, \
         \"retransmits\": {}, \"probes\": {}, \"timeouts\": {} }},\n    \
         \"syscall_ratio\": {:.3}\n  }}\n}}",
        batched.backend,
        shape.flows,
        shape.packets_per_flow,
        shape.epoch_ms,
        shape.stagger_ms,
        batched.report.acked(),
        batched.report.closed(),
        fnv(&digest),
        base.backend,
        aio.syscalls(),
        aio.packets(),
        spp_base,
        aio.send_failed,
        base.wall_secs,
        batched.backend,
        bio.syscalls(),
        bio.packets(),
        spp_batched,
        bio.send_failed,
        batched.wall_secs,
        batched.report.shards.iter().map(|s| s.timer_fires).sum::<u64>(),
        batched.report.shards.iter().map(|s| s.epoch_fires).sum::<u64>(),
        jitter_p99,
        batched.report.shards.iter().map(|s| s.counters.retransmits).sum::<u64>(),
        batched.report.shards.iter().map(|s| s.counters.probes).sum::<u64>(),
        batched.report.shards.iter().map(|s| s.counters.timeouts).sum::<u64>(),
        ratio,
    );
    let path = std::env::var("VERUS_BENCH_OUT").unwrap_or_else(|_| "BENCH_4.json".into());
    std::fs::write(&path, json + "\n").expect("write load record");
    println!("→ wrote {path}");
}
