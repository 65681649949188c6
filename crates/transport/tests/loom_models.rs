//! Model-checked replicas of the transport crate's thread handshakes.
//!
//! The emulator (`emulator.rs`) and receiver (`receiver.rs`) coordinate
//! their worker threads through atomics: an advisory `stop` flag, and
//! monotone packet counters (`received`, `forwarded`, `dropped`) that
//! snapshot methods read while the worker is still running. Every one of
//! those sites carries a `// ordering:` justification that `verus-check`
//! enforces; these tests make the *arguments in those comments
//! executable* by replaying the protocol shape under every sequentially
//! consistent interleaving with `verus-model`.
//!
//! Each model mirrors one protocol:
//! - worker loop: check `stop`, then `received += 1; forwarded += 1`
//!   per packet (the emulator increments `received` first — that is the
//!   invariant under test);
//! - snapshot readers: `trace_counters` reads `forwarded` *before*
//!   `received`, and `data_in_flight` uses a saturating subtraction —
//!   both choices exist because the naive alternative is wrong, and the
//!   `exists_failing` tests here prove the naive alternative wrong.
//!
//! Loops are bounded (2 packets) — the model requires finite schedules —
//! which is enough: every race these tests pin needs at most one
//! increment between two reads.

use std::sync::Arc;

use verus_model::sync::{AtomicBool, AtomicU64, Ordering};
use verus_model::{exists_failing, model, thread};

/// Model replica of `EmulatorShared`: the subset of fields involved in
/// the stop/counter handshakes.
#[derive(Default)]
struct Shared {
    stop: AtomicBool,
    received: AtomicU64,
    forwarded: AtomicU64,
    delivered: AtomicU64,
}

/// Worker loop shape from `emulator.rs::run_loop`: poll `stop`, then
/// account one packet — `received` strictly before `forwarded`.
fn run_worker(shared: &Shared, packets: u64) {
    for _ in 0..packets {
        if shared.stop.load(Ordering::Relaxed) {
            break;
        }
        shared.received.fetch_add(1, Ordering::Relaxed);
        shared.forwarded.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn stop_then_join_quiesces_the_counters() {
    // The `stop()`/`Drop` contract: after `stop.store(true)` + join, no
    // counter moves again — the post-join snapshot is final, and packet
    // conservation (received >= forwarded) holds at rest.
    let stats = model(|| {
        let shared = Arc::new(Shared::default());
        let worker = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || run_worker(&shared, 2))
        };
        shared.stop.store(true, Ordering::Relaxed);
        worker.join();
        let forwarded = shared.forwarded.load(Ordering::Relaxed);
        let received = shared.received.load(Ordering::Relaxed);
        assert_eq!(
            shared.forwarded.load(Ordering::Relaxed),
            forwarded,
            "counter moved after join"
        );
        assert!(received >= forwarded, "conservation broken at rest");
    });
    assert!(!stats.truncated, "handshake must be explored exhaustively");
}

#[test]
fn forwarded_before_received_read_order_upholds_conservation() {
    // `trace_counters` reads `forwarded` BEFORE `received` (see the
    // comment block in emulator.rs). Because the worker increments
    // `received` first, every interleaving of that read order satisfies
    // received >= forwarded.
    let stats = model(|| {
        let shared = Arc::new(Shared::default());
        let worker = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || run_worker(&shared, 2))
        };
        let forwarded = shared.forwarded.load(Ordering::Relaxed);
        let received = shared.received.load(Ordering::Relaxed);
        assert!(
            received >= forwarded,
            "snapshot saw forwarded={forwarded} > received={received}"
        );
        worker.join();
    });
    assert!(!stats.truncated);
}

#[test]
fn reversed_read_order_can_violate_conservation() {
    // The counter-example the comment in emulator.rs warns about: read
    // `received` first and the worker can slip both increments between
    // the two loads, yielding forwarded > received. This is why the
    // read order above is load-bearing and not a style choice.
    let found = exists_failing(|| {
        let shared = Arc::new(Shared::default());
        let worker = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || run_worker(&shared, 2))
        };
        let received = shared.received.load(Ordering::Relaxed);
        let forwarded = shared.forwarded.load(Ordering::Relaxed);
        assert!(received >= forwarded, "reversed snapshot order");
        worker.join();
    });
    assert!(found, "the reversed read order must have a failing schedule");
}

#[test]
fn delivered_can_exceed_a_stale_forwarded_snapshot() {
    // `data_in_flight` computes forwarded - delivered with
    // `saturating_sub`: a reader's `forwarded` snapshot can be stale by
    // the time it reads `delivered`, making the naive subtraction
    // underflow. The failing protocol here asserts delivered <= a
    // stale forwarded snapshot — the model finds the interleaving.
    let found = exists_failing(|| {
        let shared = Arc::new(Shared::default());
        let worker = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || {
                // Delivery trails forwarding, as in the emulator.
                shared.forwarded.fetch_add(1, Ordering::Relaxed);
                shared.delivered.fetch_add(1, Ordering::Relaxed);
            })
        };
        let forwarded = shared.forwarded.load(Ordering::Relaxed);
        let delivered = shared.delivered.load(Ordering::Relaxed);
        assert!(
            delivered <= forwarded,
            "stale snapshot: delivered={delivered} > forwarded={forwarded}"
        );
        worker.join();
    });
    assert!(
        found,
        "naive forwarded - delivered must underflow in some schedule"
    );
}

#[test]
fn double_stop_is_idempotent_and_race_free() {
    // Both `stop()` and `Drop` store the stop flag; a caller invoking
    // `stop()` while the emulator is being dropped produces two
    // concurrent stores. The worker must terminate and the flag must
    // read true in every interleaving — no schedule panics or deadlocks.
    let stats = model(|| {
        let shared = Arc::new(Shared::default());
        let worker = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || run_worker(&shared, 2))
        };
        let stopper = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || shared.stop.store(true, Ordering::Relaxed))
        };
        shared.stop.store(true, Ordering::Relaxed);
        stopper.join();
        worker.join();
        assert!(shared.stop.load(Ordering::Relaxed));
    });
    assert!(!stats.truncated);
}

#[test]
fn reconnect_claim_is_exactly_once_under_racing_probers() {
    // Session-layer reconnect shape (session.rs / shard_server.rs): a
    // flow's shard is single-threaded, but the *protocol* it
    // embodies — at most one live reconnect attempt per disruption, and
    // none once the session is closed — is an atomic-claim handshake.
    // Model it directly: two probers race to claim the reconnect slot
    // with an atomic swap; a stopper closes the session concurrently.
    // In every interleaving the claim is taken at most once, a winner
    // always completes (no deadlock), and after close + join no further
    // claim is possible.
    let stats = model(|| {
        let claim = Arc::new(AtomicBool::new(false));
        let closed = Arc::new(AtomicBool::new(false));
        let reconnects = Arc::new(AtomicU64::new(0));
        let prober = |claim: &Arc<AtomicBool>,
                      closed: &Arc<AtomicBool>,
                      reconnects: &Arc<AtomicU64>| {
            let (claim, closed, reconnects) =
                (Arc::clone(claim), Arc::clone(closed), Arc::clone(reconnects));
            thread::spawn(move || {
                if closed.load(Ordering::Relaxed) {
                    return; // Closed is terminal: never start a reconnect
                }
                // swap(true) returns the previous value: exactly one
                // prober sees `false` and owns the attempt.
                if !claim.swap(true, Ordering::Relaxed) {
                    reconnects.fetch_add(1, Ordering::Relaxed);
                }
            })
        };
        let a = prober(&claim, &closed, &reconnects);
        let b = prober(&claim, &closed, &reconnects);
        // The stopper races from the main thread, as `begin_drain` /
        // `abort` do from the driver: closing concurrently with the
        // probers' claim attempts.
        closed.store(true, Ordering::Relaxed);
        a.join();
        b.join();
        let n = reconnects.load(Ordering::Relaxed);
        assert!(n <= 1, "reconnect ran {n} times; the claim must be exclusive");
        // Post-join the state is at rest: the slot reads claimed iff
        // the reconnect actually ran (the flag only moves via the swap,
        // and every swap winner completes — no half-taken claims).
        assert!(closed.load(Ordering::Relaxed));
        assert_eq!(claim.load(Ordering::Relaxed), n == 1, "half-taken claim");
    });
    assert!(!stats.truncated, "reconnect handshake must be explored exhaustively");
}

#[test]
fn check_then_set_reconnect_claim_can_double_run() {
    // The counter-example that justifies the swap above: a naive
    // load-then-store claim lets both probers observe `false` before
    // either stores `true`, and the reconnect runs twice — duplicate
    // probe state, double `on_session_resumed`. The model finds the
    // interleaving.
    let found = exists_failing(|| {
        let claim = Arc::new(AtomicBool::new(false));
        let reconnects = Arc::new(AtomicU64::new(0));
        let prober = |claim: &Arc<AtomicBool>, reconnects: &Arc<AtomicU64>| {
            let (claim, reconnects) = (Arc::clone(claim), Arc::clone(reconnects));
            thread::spawn(move || {
                if !claim.load(Ordering::Relaxed) {
                    claim.store(true, Ordering::Relaxed);
                    reconnects.fetch_add(1, Ordering::Relaxed);
                }
            })
        };
        let a = prober(&claim, &reconnects);
        let b = prober(&claim, &reconnects);
        a.join();
        b.join();
        let n = reconnects.load(Ordering::Relaxed);
        assert!(n <= 1, "check-then-set double-ran the reconnect: {n}");
    });
    assert!(found, "the naive claim must have a double-run schedule");
}

#[test]
fn mailbox_payload_is_valid_whenever_the_seq_bump_is_seen() {
    // `ShardMailbox` hand-off (shard_server.rs): `post` stores the
    // command payload *first*, then bumps `seq` with a fetch_add; `take`
    // reads `seq` first and only then the payload. Because the payload
    // write precedes the seq bump in program order, any reader that
    // observes the bump observes a fully written command — never the
    // empty initial slot. Two racing posters are last-writer-wins: the
    // payload is always one of the posted commands.
    const DRAIN: u64 = 1;
    const ABORT: u64 = 2;
    let stats = model(|| {
        let payload = Arc::new(AtomicU64::new(0));
        let seq = Arc::new(AtomicU64::new(0));
        let poster = |cmd: u64, payload: &Arc<AtomicU64>, seq: &Arc<AtomicU64>| {
            let (payload, seq) = (Arc::clone(payload), Arc::clone(seq));
            thread::spawn(move || {
                payload.store(cmd, Ordering::Relaxed);
                seq.fetch_add(1, Ordering::Release);
            })
        };
        let a = poster(DRAIN, &payload, &seq);
        let b = poster(ABORT, &payload, &seq);
        // The worker-side `take`: seq first, payload second.
        if seq.load(Ordering::Acquire) > 0 {
            let cmd = payload.load(Ordering::Relaxed);
            assert!(
                cmd == DRAIN || cmd == ABORT,
                "seq bumped but payload empty/garbage: {cmd}"
            );
        }
        a.join();
        b.join();
        // At rest both posts landed; last writer wins, never a blend.
        assert_eq!(seq.load(Ordering::Acquire), 2);
        let cmd = payload.load(Ordering::Relaxed);
        assert!(cmd == DRAIN || cmd == ABORT);
    });
    assert!(!stats.truncated, "mailbox hand-off must be explored exhaustively");
}

#[test]
fn seq_first_mailbox_post_can_leak_an_empty_payload() {
    // The counter-example that makes `post`'s write order load-bearing:
    // bump `seq` before storing the payload and the worker's `take` can
    // slip between the two writes, observe the bump, and read the empty
    // slot — a spurious "command zero" the decoder would have to paper
    // over. The model finds the interleaving.
    const ABORT: u64 = 2;
    let found = exists_failing(|| {
        let payload = Arc::new(AtomicU64::new(0));
        let seq = Arc::new(AtomicU64::new(0));
        let poster = {
            let (payload, seq) = (Arc::clone(&payload), Arc::clone(&seq));
            thread::spawn(move || {
                seq.fetch_add(1, Ordering::Release); // mis-ordered: bump first
                payload.store(ABORT, Ordering::Relaxed);
            })
        };
        if seq.load(Ordering::Acquire) > 0 {
            assert_eq!(
                payload.load(Ordering::Relaxed),
                ABORT,
                "observed the seq bump but not the payload"
            );
        }
        poster.join();
    });
    assert!(found, "the seq-first post must have a leaking schedule");
}

#[test]
fn published_snapshots_are_exact_even_against_a_racing_reader() {
    // `ShardCounters` publication (shard_server.rs): workers bump the
    // live counters with relaxed adds, then `publish()` sets the flag
    // (Release) as the very last act — the `PublishOnExit` drop guard.
    // The watchdog polls `is_published()` (Acquire) and only trusts a
    // snapshot as *exact* once the flag reads true. Model: any reader
    // that sees the flag sees the final totals, and the cross-counter
    // ledger (acked counted with sent) holds exactly at that point.
    let stats = model(|| {
        let sent = Arc::new(AtomicU64::new(0));
        let acked = Arc::new(AtomicU64::new(0));
        let published = Arc::new(AtomicBool::new(false));
        let worker = {
            let (sent, acked, published) =
                (Arc::clone(&sent), Arc::clone(&acked), Arc::clone(&published));
            thread::spawn(move || {
                for _ in 0..2 {
                    sent.fetch_add(1, Ordering::Relaxed);
                    acked.fetch_add(1, Ordering::Relaxed);
                }
                published.store(true, Ordering::Release);
            })
        };
        let s = sent.load(Ordering::Relaxed);
        if published.load(Ordering::Acquire) {
            assert_eq!(sent.load(Ordering::Relaxed), 2, "published but not final");
            assert_eq!(acked.load(Ordering::Relaxed), 2, "published but not final");
        } else {
            // Pre-publication snapshots are monotone underestimates.
            assert!(s <= 2);
        }
        worker.join();
        assert!(published.load(Ordering::Acquire), "drop guard must publish");
    });
    assert!(!stats.truncated, "publish handshake must be explored exhaustively");
}

#[test]
fn unpublished_snapshots_can_tear_across_counters() {
    // The counter-example that justifies the publication flag: without
    // gating on `is_published()`, a reader sampling two related counters
    // mid-run can catch the worker between the paired bumps and see a
    // ledger that never existed (acked != sent at a quiescent point).
    // This is why `LoadReport` is only assembled after `all_published()`.
    let found = exists_failing(|| {
        let sent = Arc::new(AtomicU64::new(0));
        let acked = Arc::new(AtomicU64::new(0));
        let worker = {
            let (sent, acked) = (Arc::clone(&sent), Arc::clone(&acked));
            thread::spawn(move || {
                for _ in 0..2 {
                    sent.fetch_add(1, Ordering::Relaxed);
                    acked.fetch_add(1, Ordering::Relaxed);
                }
            })
        };
        let s = sent.load(Ordering::Relaxed);
        let a = acked.load(Ordering::Relaxed);
        assert_eq!(s, a, "unpublished snapshot tore: sent={s} acked={a}");
        worker.join();
    });
    assert!(found, "the flagless snapshot must have a tearing schedule");
}

#[test]
fn receiver_shutdown_handshake_terminates_with_consistent_totals() {
    // `ReceiverHandle::stop` / the receiver loop in receiver.rs: the
    // loop polls `stop` once per datagram and bumps `received` and
    // `bytes` together. After stop + join, the two totals must agree
    // (bytes == received * payload), in every interleaving — the
    // counters are only ever read via post-join or monotone snapshots.
    const PAYLOAD: u64 = 9;
    let stats = model(|| {
        let stop = Arc::new(AtomicBool::new(false));
        let received = Arc::new(AtomicU64::new(0));
        let bytes = Arc::new(AtomicU64::new(0));
        let worker = {
            let (stop, received, bytes) =
                (Arc::clone(&stop), Arc::clone(&received), Arc::clone(&bytes));
            thread::spawn(move || {
                for _ in 0..2 {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    received.fetch_add(1, Ordering::Relaxed);
                    bytes.fetch_add(PAYLOAD, Ordering::Relaxed);
                }
            })
        };
        stop.store(true, Ordering::Relaxed);
        worker.join();
        assert_eq!(
            bytes.load(Ordering::Relaxed),
            received.load(Ordering::Relaxed) * PAYLOAD,
            "totals diverged after shutdown"
        );
    });
    assert!(!stats.truncated);
}
