//! Steady-state allocation gate for the UDP send and ACK path.
//!
//! A counting global allocator wraps the system one. The same loopback
//! crowd — a one-shard `ShardServer` sending to `Receiver::spawn_batched`,
//! the shape of perfbench's `udp_crowd` — runs at two packet budgets per
//! flow. Per-flow set-up (reports, bitmaps, timers, thread start) is the
//! same in both runs, so the difference in allocations divided by the
//! difference in ACKed packets is what each further packet costs. Data
//! packets and ACKs are encoded straight into each batcher's reused
//! `OutQueue`, so that marginal cost must stay well below one
//! allocation per packet.
//!
//! `scripts/ci.sh` also runs this test in release, the profile perfbench
//! measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use verus_core::{VerusCc, VerusConfig};
use verus_nettypes::{CongestionControl, SimDuration};
use verus_transport::{FlowSpec, IoMode, Receiver, ShardServer, ShardServerConfig, WallClock};

/// Counts every allocation and reallocation, from any thread.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` unchanged; the counter has
// no effect on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed); // ordering: a tally read after the threads joined
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed); // ordering: a tally read after the threads joined
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed); // ordering: a tally read after the threads joined
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const FLOWS: u32 = 100;

/// Runs the crowd at `packets` per flow; returns the allocations made
/// from spawning the receiver to joining it, and the packets ACKed.
fn run(packets: u64) -> (u64, u64) {
    let before = ALLOCS.load(Ordering::Relaxed); // ordering: read on the only thread running
    let clock = WallClock::new();
    let rx = Receiver::spawn_batched("127.0.0.1:0", clock, IoMode::auto()).expect("receiver");
    let specs: Vec<FlowSpec> = (0..FLOWS)
        .map(|flow| {
            let cc: Box<dyn CongestionControl> = Box::new(VerusCc::new(VerusConfig::with_r(2.0)));
            FlowSpec {
                flow,
                dest: rx.local_addr(),
                packets,
                cc,
            }
        })
        .collect();
    let report = ShardServer::new(ShardServerConfig {
        shards: 1,
        io_mode: IoMode::auto(),
        packet_bytes: 0,
        stagger: SimDuration::from_millis(100),
        deadline: SimDuration::from_secs(60),
        seed: 1,
        ..ShardServerConfig::default()
    })
    .run(specs, clock)
    .expect("shard server");
    rx.stop();
    let offered = u64::from(FLOWS) * packets;
    assert_eq!(report.offered(), offered, "{packets} per flow");
    assert_eq!(
        report.acked(),
        offered,
        "every packet ACKed ({packets} per flow)"
    );
    assert_eq!(report.shed(), 0, "{packets} per flow");
    assert_eq!(report.stuck(), 0, "{packets} per flow");
    assert_eq!(report.residual(), 0, "{packets} per flow");
    assert_eq!(report.closed(), u64::from(FLOWS), "{packets} per flow");
    let acked = report.acked();
    drop(report);
    (ALLOCS.load(Ordering::Relaxed) - before, acked) // ordering: every other thread has been joined
}

#[test]
fn send_and_ack_path_allocates_nothing_per_packet() {
    let (a1, p1) = run(200);
    let (a2, p2) = run(1_000);
    let marginal = (a2 as f64 - a1 as f64) / (p2 - p1) as f64;
    eprintln!("{a1} allocations for {p1} packets, {a2} for {p2}: {marginal:.4} per extra packet");
    assert!(
        marginal < 0.05,
        "{marginal:.4} allocations per extra ACKed packet \
         ({a1} allocations for {p1} packets, {a2} for {p2})"
    );
}
