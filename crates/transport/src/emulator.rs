//! The trace-driven UDP channel emulator — the mahimahi substitute.
//!
//! The paper's trace-driven experiments replay recorded cellular
//! delivery opportunities against real protocol endpoints (mahimahi's
//! `mm-link` does this between Linux network namespaces; the paper's
//! OPNET shaper does it in simulation). This emulator does the same for
//! plain UDP sockets:
//!
//! ```text
//! sender ──▶ [ingress socket]  queue (DropTail, stochastic loss)
//!                    │   release at each trace opportunity (+ fwd delay)
//!                    ▼
//!             [egress socket] ──▶ receiver
//!             [egress socket] ◀── ACKs
//!                    │   fixed ACK-path delay
//!                    ▼
//! sender ◀── [ingress socket]
//! ```
//!
//! One thread owns both sockets; delivery opportunities come from a
//! looped [`Trace`]. Byte credit accumulates only while the queue is
//! backlogged, exactly like the simulator's cell link, so both testbeds
//! implement the same channel semantics.
//!
//! Internals are shared with the scale-out plane: the propagation delay
//! line is the netsim hierarchical [`TimingWheel`] (the same structure
//! the shard server runs its timers on), and both sockets are driven
//! through [`IoBatcher`](crate::io_batch::IoBatcher) — so a crowd of
//! senders pointed at one emulator costs batches of syscalls, not one
//! per datagram.

use crate::clock::WallClock;
use crate::io_batch::{batcher_for, IoBatcher, IoMode, OutQueue};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use verus_cellular::Trace;
use verus_netsim::impairment::{ImpairmentConfig, Impairments, IngressFate};
use verus_netsim::TimingWheel;
use verus_nettypes::{SimDuration, SimTime};

/// Emulator configuration.
#[derive(Debug, Clone)]
pub struct EmulatorConfig {
    /// Delivery-opportunity trace (looped for the emulator's lifetime).
    pub trace: Trace,
    /// Where to forward data packets (the receiver).
    pub receiver: SocketAddr,
    /// One-way forward propagation delay added after each opportunity.
    pub fwd_delay: SimDuration,
    /// ACK-path delay.
    pub ack_delay: SimDuration,
    /// Stochastic loss probability on the data path.
    pub loss: f64,
    /// DropTail buffer capacity in bytes.
    pub queue_capacity: u64,
    /// RNG seed for loss decisions.
    pub seed: u64,
    /// Fault-injection pipeline — the same knobs as the simulator's
    /// [`verus_netsim::impairment`] layer (burst loss, blackouts,
    /// reordering, duplication, corruption). `Default` injects nothing.
    /// Blackout windows are measured on the shared [`WallClock`], i.e.
    /// relative to process start, not emulator spawn.
    pub impairments: ImpairmentConfig,
    /// If set, the emulator thread shuts itself down cleanly after this
    /// long without hearing a packet from either peer (silent-peer
    /// watchdog). `None` disables the watchdog.
    pub watchdog_idle: Option<Duration>,
}

impl EmulatorConfig {
    /// Defaults: 20 ms each way, no stochastic loss, 1 MiB buffer.
    #[must_use]
    pub fn new(trace: Trace, receiver: SocketAddr) -> Self {
        Self {
            trace,
            receiver,
            fwd_delay: SimDuration::from_millis(20),
            ack_delay: SimDuration::from_millis(20),
            loss: 0.0,
            queue_capacity: 1 << 20,
            seed: 0,
            impairments: ImpairmentConfig::default(),
            watchdog_idle: None,
        }
    }
}

/// A packet riding the propagation-delay wheel.
struct Delayed {
    to_receiver: bool,
    payload: Vec<u8>,
}

/// State shared between the emulator thread and its handle: the stop
/// flag and the packet counters, behind a single `Arc`.
#[derive(Debug, Default)]
struct EmulatorShared {
    stop: AtomicBool,
    forwarded: AtomicU64,
    dropped: AtomicU64,
    received: AtomicU64,
    impaired: AtomicU64,
    /// Microseconds on the shared [`WallClock`] when the silent-peer
    /// watchdog fired; 0 = never (a genuine 0 µs fire is clamped to 1,
    /// losing nothing at the watchdog's multi-second timescale).
    watchdog_fired_at_us: AtomicU64,
}

/// A running emulator thread.
pub struct EmulatorHandle {
    shared: Arc<EmulatorShared>,
    thread: Option<JoinHandle<()>>,
    ingress_addr: SocketAddr,
    delivered: Option<Arc<AtomicU64>>,
}

/// The emulator factory.
pub struct Emulator;

impl Emulator {
    /// Spawns the emulator; senders should address
    /// [`EmulatorHandle::ingress_addr`].
    pub fn spawn(config: EmulatorConfig, clock: WallClock) -> std::io::Result<EmulatorHandle> {
        let ingress = UdpSocket::bind("127.0.0.1:0")?;
        let egress = UdpSocket::bind("127.0.0.1:0")?;
        let ingress_addr = ingress.local_addr()?;
        let ingress = batcher_for(ingress, IoMode::auto())?;
        let egress = batcher_for(egress, IoMode::auto())?;

        let shared = Arc::new(EmulatorShared::default());
        let t_shared = Arc::clone(&shared);

        let thread = std::thread::Builder::new()
            .name("verus-emulator".into())
            .spawn(move || {
                run_loop(&config, clock, ingress, egress, &t_shared);
            })?;

        Ok(EmulatorHandle {
            shared,
            thread: Some(thread),
            ingress_addr,
            delivered: None,
        })
    }
}

#[allow(clippy::too_many_lines)]
fn run_loop(
    config: &EmulatorConfig,
    clock: WallClock,
    mut ingress: Box<dyn IoBatcher>,
    mut egress: Box<dyn IoBatcher>,
    shared: &EmulatorShared,
) {
    let opportunities = config.trace.opportunities();
    let base = config.trace.duration();
    let start = clock.now();
    let mut opp_index = 0usize;
    let mut loop_offset = SimDuration::ZERO;
    let mut credit: u64 = 0;

    let mut queue: VecDeque<Vec<u8>> = VecDeque::new();
    let mut backlog: u64 = 0;
    // The propagation-delay line, on the netsim timing wheel. Entries
    // are always scheduled at `now + delay`, which satisfies the wheel's
    // monotone contract (pops never pass `now`).
    let mut delay_line: TimingWheel<Delayed> = TimingWheel::new();
    let mut tie = 0u64;
    // Data packets currently riding the wheel (ACK entries excluded),
    // for the exit conservation ledger.
    let mut data_in_wheel: u64 = 0;
    let mut fwd_out = OutQueue::new();
    let mut ack_out = OutQueue::new();
    let mut sender_addr: Option<SocketAddr> = None;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut impairments = Impairments::new(config.impairments.clone());

    // Local ledger: every data packet read from the ingress socket (plus
    // every injected duplicate) must end up in exactly one bucket. The
    // shared atomics mirror the publicly interesting ones.
    let mut dup_injected: u64 = 0;
    let mut corrupt_dropped: u64 = 0;
    let mut last_heard = Instant::now();

    while !shared.stop.load(Ordering::Relaxed) { // ordering: advisory stop flag; the 300 us socket timeout bounds shutdown latency
        let now = clock.now();

        // 1. Fire due delivery opportunities. During a blackout the link
        // is dead: opportunities pass by without accumulating credit,
        // exactly like the simulator's cell link.
        let blackout = impairments.in_blackout(now);
        loop {
            let opp = opportunities[opp_index];
            let opp_at = start + (opp.time.saturating_since(SimTime::ZERO) + loop_offset);
            if now < opp_at {
                break;
            }
            if blackout || queue.is_empty() {
                credit = 0;
            } else {
                credit += u64::from(opp.bytes);
                loop {
                    let fits = queue
                        .front()
                        .is_some_and(|head| head.len() as u64 <= credit);
                    if fits {
                        let Some(payload) = queue.pop_front() else {
                            break; // unreachable: front() was Some above
                        };
                        credit -= payload.len() as u64;
                        backlog -= payload.len() as u64;
                        let fate = impairments.on_egress();
                        if fate.corrupted {
                            // Discarded by the receiver's checksum.
                            corrupt_dropped += 1;
                            shared.impaired.fetch_add(1, Ordering::Relaxed); // ordering: monotonic stat counter; nothing else depends on it
                            continue;
                        }
                        let extra = fate.extra_delay.unwrap_or(SimDuration::ZERO);
                        tie += 1;
                        data_in_wheel += 1;
                        delay_line.schedule(
                            now + config.fwd_delay + extra,
                            tie,
                            Delayed {
                                to_receiver: true,
                                payload,
                            },
                        );
                    } else {
                        break;
                    }
                }
                if queue.is_empty() {
                    credit = 0;
                }
            }
            opp_index += 1;
            if opp_index >= opportunities.len() {
                opp_index = 0;
                loop_offset += base;
            }
        }

        // 2. Release due packets from the delay line into the send
        // batches, then flush each socket with one batched call.
        while let Some((_at, _tie, item)) = delay_line.pop_next_before(now) {
            if item.to_receiver {
                data_in_wheel -= 1;
                fwd_out
                    .push(config.receiver, item.payload.len())
                    .copy_from_slice(&item.payload);
            } else if let Some(addr) = sender_addr {
                ack_out
                    .push(addr, item.payload.len())
                    .copy_from_slice(&item.payload);
            }
        }
        if !fwd_out.is_empty() {
            // Kernel-refused datagrams land in the egress batcher's
            // `send_failed` counter (read in the exit ledger below).
            let Ok(n) = egress.send_batch(&mut fwd_out) else {
                return;
            };
            shared.forwarded.fetch_add(n as u64, Ordering::Relaxed); // ordering: monotonic stat counter; nothing else depends on it
        }
        if !ack_out.is_empty() && ingress.send_batch(&mut ack_out).is_err() {
            return;
        }

        // 3. Ingest data packets from the sender (one batched call: one
        // batch of messages, each one datagram or a coalesced run).
        let ingested = ingress.recv_batch(&mut |pkt, src| {
            sender_addr = Some(src);
            shared.received.fetch_add(1, Ordering::Relaxed); // ordering: monotonic stat counter; nothing else depends on it
            if config.loss > 0.0 && rng.gen::<f64>() < config.loss {
                shared.dropped.fetch_add(1, Ordering::Relaxed); // ordering: monotonic stat counter; nothing else depends on it
                return;
            }
            let copies = match impairments.on_ingress(clock.now()) {
                IngressFate::Lost => {
                    shared.impaired.fetch_add(1, Ordering::Relaxed); // ordering: monotonic stat counter; nothing else depends on it
                    return;
                }
                IngressFate::Pass { duplicate: false } => 1,
                IngressFate::Pass { duplicate: true } => {
                    dup_injected += 1;
                    2
                }
            };
            for _ in 0..copies {
                if backlog + pkt.len() as u64 > config.queue_capacity {
                    shared.dropped.fetch_add(1, Ordering::Relaxed); // ordering: monotonic stat counter; nothing else depends on it
                    continue;
                }
                backlog += pkt.len() as u64;
                queue.push_back(pkt.to_vec());
            }
        });
        let Ok(ingested) = ingested.map(|r| r.datagrams) else { return };

        // 4. Ingest ACKs from the receiver onto the delay line.
        let acks = egress.recv_batch(&mut |pkt, _src| {
            tie += 1;
            delay_line.schedule(
                clock.now() + config.ack_delay,
                tie,
                Delayed {
                    to_receiver: false,
                    payload: pkt.to_vec(),
                },
            );
        });
        let Ok(acks) = acks.map(|r| r.datagrams) else { return };
        if ingested > 0 || acks > 0 {
            last_heard = Instant::now();
        }

        // 5. Silent-peer watchdog: if both peers have gone quiet for too
        // long, terminate cleanly instead of spinning forever.
        if let Some(idle) = config.watchdog_idle {
            if last_heard.elapsed() > idle {
                shared
                    .watchdog_fired_at_us
                    .store(clock.now_micros().max(1), Ordering::Relaxed); // ordering: write-once status timestamp; readers only poll it
                break;
            }
        }
        // Pacing: batcher sockets are non-blocking, so an idle
        // iteration sleeps the same 300 µs the old read timeout gave.
        if ingested == 0 && acks == 0 {
            std::thread::sleep(Duration::from_micros(300));
        }
    }

    // Exit-path packet conservation: everything read from the ingress
    // socket (plus injected duplicates) is forwarded, dropped somewhere
    // specific, or still inside the emulator.
    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    {
        let in_flight = data_in_wheel;
        let send_failed = egress.counters().send_failed;
        let received = shared.received.load(Ordering::Relaxed); // ordering: same-thread read; the loop above has exited
        let forwarded = shared.forwarded.load(Ordering::Relaxed); // ordering: same-thread read; the loop above has exited
        let dropped = shared.dropped.load(Ordering::Relaxed); // ordering: same-thread read; the loop above has exited
        let impaired = shared.impaired.load(Ordering::Relaxed); // ordering: same-thread read; the loop above has exited
        let ingress_lost = impaired - corrupt_dropped;
        assert!(
            received + dup_injected
                == forwarded
                    + dropped
                    + ingress_lost
                    + corrupt_dropped
                    + send_failed
                    + queue.len() as u64
                    + in_flight,
            "emulator packet conservation violated: received {received} + dup {dup_injected} \
             != forwarded {forwarded} + dropped {dropped} + ingress_lost {ingress_lost} \
             + corrupt {corrupt_dropped} + send_failed {send_failed} \
             + queued {} + in_flight {in_flight}",
            queue.len(),
        );
    }
    #[cfg(not(any(debug_assertions, feature = "strict-invariants")))]
    let _ = (dup_injected, corrupt_dropped, data_in_wheel);
}

impl EmulatorHandle {
    /// Address senders should transmit to.
    #[must_use]
    pub fn ingress_addr(&self) -> SocketAddr {
        self.ingress_addr
    }

    /// Data packets forwarded to the receiver so far.
    #[must_use]
    pub fn forwarded(&self) -> u64 {
        self.shared.forwarded.load(Ordering::Relaxed) // ordering: monotone counter snapshot; staleness is acceptable
    }

    /// Data packets dropped (stochastic loss + queue overflow).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed) // ordering: monotone counter snapshot; staleness is acceptable
    }

    /// Data packets read from the ingress socket so far.
    #[must_use]
    pub fn received(&self) -> u64 {
        self.shared.received.load(Ordering::Relaxed) // ordering: monotone counter snapshot; staleness is acceptable
    }

    /// Data packets lost to the impairment pipeline (blackouts, burst
    /// loss, corruption).
    #[must_use]
    pub fn impaired(&self) -> u64 {
        self.shared.impaired.load(Ordering::Relaxed) // ordering: monotone counter snapshot; staleness is acceptable
    }

    /// Whether the silent-peer watchdog shut the emulator down.
    #[must_use]
    pub fn watchdog_fired(&self) -> bool {
        self.watchdog_fired_at_us().is_some()
    }

    /// *When* the watchdog fired, in microseconds on the shared
    /// [`WallClock`] — `None` if it never did. Post-mortems correlate
    /// this against the sender's session transitions to tell "emulator
    /// gave up" from "sender went quiet".
    #[must_use]
    pub fn watchdog_fired_at_us(&self) -> Option<u64> {
        let at = self.shared.watchdog_fired_at_us.load(Ordering::Relaxed); // ordering: write-once timestamp poll; staleness is acceptable
        (at != 0).then_some(at)
    }

    /// Wires in the receiver's delivered-packet counter (from
    /// [`crate::ReceiverHandle::delivered_counter`]) so
    /// [`Self::trace_counters`] can report the far end of the forward
    /// data path alongside the emulator's own tallies.
    pub fn attach_delivered(&mut self, counter: Arc<AtomicU64>) {
        self.delivered = Some(counter);
    }

    /// Data packets the attached receiver has delivered so far; `None`
    /// until [`Self::attach_delivered`] is called.
    #[must_use]
    pub fn delivered(&self) -> Option<u64> {
        self.delivered.as_ref().map(|c| c.load(Ordering::Relaxed)) // ordering: monotone counter snapshot; staleness is acceptable
    }

    /// The emulator's packet counters as named counters for a
    /// `verus-trace` summary record — the transport-side analogue of the
    /// simulator's conservation ledger (received = forwarded + dropped +
    /// impaired once the pipeline drains).
    ///
    /// With a receiver counter attached ([`Self::attach_delivered`]) the
    /// far end of the forward data path is reported too:
    /// `receiver_delivered`, plus `data_in_flight` = forwarded −
    /// delivered, the packets handed to the egress socket that the
    /// receiver has not yet counted. On a quiesced run that difference
    /// must drain to exactly zero; a packet lost on the loopback hop
    /// (e.g. receiver socket-buffer overflow) leaves a permanent
    /// residue, which is what the trace-parity hard equality catches.
    #[must_use]
    pub fn trace_counters(&self) -> Vec<(&'static str, u64)> {
        let forwarded = self.forwarded();
        let mut counters = vec![
            ("emulator_received", self.received()),
            ("emulator_forwarded", forwarded),
            ("emulator_dropped", self.dropped()),
            ("emulator_impaired", self.impaired()),
        ];
        if let Some(delivered) = self.delivered() {
            counters.push(("receiver_delivered", delivered));
            counters.push(("data_in_flight", forwarded.saturating_sub(delivered)));
        }
        counters
    }

    /// Whether the emulator thread has exited (watchdog or stop).
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.thread.as_ref().is_none_or(JoinHandle::is_finished)
    }

    /// Stops the emulator and joins its thread.
    ///
    /// # Panics
    /// Propagates a panic from the emulator thread (e.g. a failed
    /// packet-conservation assert in a debug/strict build) instead of
    /// swallowing it — soak tests rely on this.
    pub fn stop(mut self) {
        self.shared.stop.store(true, Ordering::Relaxed); // ordering: advisory flag; join() below is the synchronization
        if let Some(t) = self.thread.take() {
            assert!(t.join().is_ok(), "emulator thread panicked");
        }
    }
}

impl Drop for EmulatorHandle {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed); // ordering: advisory flag; join() below is the synchronization
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::UdpSocket;
    use std::time::Duration;
    use verus_nettypes::DataPacket;

    fn tiny_trace(mbps: f64) -> Trace {
        // One opportunity per ms at the requested rate, 2 s long.
        let bytes = (mbps * 1e6 / 8.0 / 1000.0) as u32;
        Trace::from_times(
            "tiny",
            (0..2000u64).map(verus_nettypes::SimTime::from_millis),
            bytes.max(1),
        )
        .unwrap()
    }

    fn data_packet(seq: u64) -> Vec<u8> {
        DataPacket {
            flow: 1,
            seq,
            send_time_us: 0,
            send_window: 4.0,
            payload_len: 1200,
        }
        .encode()
    }

    #[test]
    fn forwards_data_to_receiver_after_fwd_delay() {
        let clock = WallClock::new();
        let sink = UdpSocket::bind("127.0.0.1:0").unwrap();
        sink.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut config = EmulatorConfig::new(tiny_trace(8.0), sink.local_addr().unwrap());
        config.fwd_delay = SimDuration::from_millis(30);
        let emu = Emulator::spawn(config, clock).unwrap();

        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let sent_at = std::time::Instant::now();
        tx.send_to(&data_packet(1), emu.ingress_addr()).unwrap();

        let mut buf = [0u8; 2048];
        let (n, _) = sink.recv_from(&mut buf).unwrap();
        let elapsed = sent_at.elapsed();
        let pkt = DataPacket::decode(&buf[..n]).unwrap();
        assert_eq!(pkt.seq, 1);
        assert!(
            elapsed >= Duration::from_millis(25),
            "arrived after {elapsed:?}, before the 30 ms forward delay"
        );
        // The datagram can reach the sink a beat before the emulator
        // thread bumps its counter; give it a moment.
        let deadline = std::time::Instant::now() + Duration::from_millis(500);
        while emu.forwarded() != 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(emu.forwarded(), 1);
        assert_eq!(emu.received(), 1);
        emu.stop();
    }

    #[test]
    fn full_loss_drops_everything() {
        let clock = WallClock::new();
        let sink = UdpSocket::bind("127.0.0.1:0").unwrap();
        sink.set_read_timeout(Some(Duration::from_millis(300)))
            .unwrap();
        let mut config = EmulatorConfig::new(tiny_trace(8.0), sink.local_addr().unwrap());
        config.loss = 1.0;
        let emu = Emulator::spawn(config, clock).unwrap();

        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        for seq in 0..10 {
            tx.send_to(&data_packet(seq), emu.ingress_addr()).unwrap();
        }
        let mut buf = [0u8; 2048];
        assert!(sink.recv_from(&mut buf).is_err(), "packet leaked through");
        // Give the emulator thread a beat to count the drops.
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(emu.dropped(), 10);
        emu.stop();
    }

    #[test]
    fn droptail_buffer_limits_backlog() {
        let clock = WallClock::new();
        let sink = UdpSocket::bind("127.0.0.1:0").unwrap();
        // A glacial trace: 1 B/ms — nothing drains during the test.
        let mut config = EmulatorConfig::new(
            Trace::from_times(
                "slow",
                (0..2000u64).map(verus_nettypes::SimTime::from_millis),
                1,
            )
            .unwrap(),
            sink.local_addr().unwrap(),
        );
        config.queue_capacity = 3000; // fits 2 encoded packets
        let emu = Emulator::spawn(config, clock).unwrap();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        for seq in 0..10 {
            tx.send_to(&data_packet(seq), emu.ingress_addr()).unwrap();
        }
        std::thread::sleep(Duration::from_millis(200));
        assert!(emu.dropped() >= 7, "only {} dropped", emu.dropped());
        emu.stop();
    }
}
