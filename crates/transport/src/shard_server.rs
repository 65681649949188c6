//! Thread-per-core sharded UDP server for crowds of Verus flows.
//!
//! The per-socket transport ([`supervisor`](crate::supervisor)) spends
//! two threads and two blocking sockets per flow — faithful to the
//! paper's prototype, hopeless for load testing it. This module runs the
//! same per-flow machine — one [`FlowEngine`] per flow: session lifecycle,
//! RTO + reordering-gap loss detection, CC warm restart on resumption —
//! under a different execution model:
//!
//! * **Sharding** — flow specs are partitioned `spec index % shards`,
//!   and each shard thread owns its flows exclusively: no locks on any
//!   per-flow state, ever.
//! * **One socket per shard** — all of a shard's flows multiplex one
//!   UDP socket driven through [`IoBatcher`](crate::io_batch::IoBatcher)
//!   (`sendmmsg`/`recvmmsg` on Linux, per-packet elsewhere), so the
//!   syscall count scales with *batches*, not packets.
//! * **One timer plane per shard** — RTO and epoch deadlines for every
//!   flow live on a single netsim timing wheel
//!   ([`TimerPlane`](crate::timer_plane::TimerPlane)); the shard loop
//!   sleeps toward the earliest deadline instead of per-flow sleeps.
//! * **Lock-free stats** — each shard owns a cache-padded
//!   [`ShardCounters`] slab in a shared [`StatsPlane`]; writers bump
//!   relaxed atomics, readers take coherent-enough snapshots without
//!   ever touching a mutex on the hot path.
//! * **Mailbox control plane** — the coordinator talks to shards
//!   through a two-word atomic [`ShardMailbox`] (`Drain`, `Abort`),
//!   a seqlock-style publish protocol small enough to model-check.
//!
//! ## Protocol fidelity and the deterministic ledger
//!
//! The protocol is the engine's, so it matches the supervisor by
//! construction. What the shard adds is its sequence policy: reconnect
//! **probes retransmit the lowest unfinished sequence** instead of
//! consuming a fresh one, and an epoch fire retransmits sent-but-unfinished
//! sequences that have left the in-flight table (RTO-cleared or
//! gap-expired). That keeps the sequence space exactly `0..packets` per
//! flow, which is what makes the load-test ledger exact:
//! `offered = Σ packets`, and after retransmitting to quiescence
//! `offered − acked − shed == 0` with no slack term for probe traffic.
//! The gap sweep runs on each flow's epoch fire.
//!
//! Trace attribution uses the `verus-trace` lane mechanism: the shard
//! sets the flow's lane around every engine call that can reach the
//! controller, so per-flow records from a multiplexed thread land in the
//! right lane exactly as the simulator's do.

use std::collections::HashMap;
use std::convert::Infallible;
use std::fmt::Write as _;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use verus_netsim::impairment::SplitMix64;
use verus_nettypes::{AckPacket, CongestionControl, SimDuration, SimTime};
use verus_stats::StreamingStats;
use verus_trace::lane;

use crate::clock::WallClock;
use crate::flow::{FlowEngine, FlowParams, Pumped};
use crate::io_batch::{batcher_for, IoCounters, IoMode, OutPacket, BATCH};
use crate::session::{Session, SessionConfig};
use crate::timer_plane::{merged_jitter_p99_ms, TimerKind, TimerPlane};

/// Retransmissions injected per flow per epoch fire; bounds the work a
/// single (possibly very backlogged) flow can do in one sweep.
const RETX_BUDGET: usize = 64;

/// Pacing quantum: the shortest sleep between loop iterations when the
/// socket has no backlog. Half the timing wheel's granule (≈ 1.05 ms),
/// so timer lateness from pacing stays below the wheel's own resolution
/// — while arrivals coalesce into real `sendmmsg`/`recvmmsg` batches
/// instead of one syscall-per-datagram loop spins.
const SLEEP_MIN: Duration = Duration::from_micros(500);
/// Longest idle sleep — bounds epoch-timer lateness when the wheel is
/// briefly empty or the next deadline is far away.
const SLEEP_MAX: Duration = Duration::from_millis(5);

// ---------------------------------------------------------------------
// Control plane: coordinator → shard mailbox
// ---------------------------------------------------------------------

/// A coordinator command to a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum ShardCommand {
    /// Begin draining every flow (graceful deadline).
    Drain = 1,
    /// Abort every flow immediately (hard deadline).
    Abort = 2,
}

impl ShardCommand {
    /// Decodes a mailbox payload word; `None` for anything that is not
    /// a known command (including the initial zero).
    #[must_use]
    pub fn from_u64(raw: u64) -> Option<Self> {
        match raw {
            1 => Some(ShardCommand::Drain),
            2 => Some(ShardCommand::Abort),
            _ => None,
        }
    }
}

/// A single-slot, last-writer-wins mailbox from the coordinator to one
/// shard thread.
///
/// Publish protocol (seqlock-flavoured, one writer, one reader):
/// the writer stores the payload, *then* bumps `seq` with `Release`;
/// the reader loads `seq` with `Acquire` and only dereferences the
/// payload when the sequence number moved. The `Release`/`Acquire` pair
/// makes the payload store happen-before the reader's payload load. A
/// second `post` may overwrite an unread command — by design: `Abort`
/// subsumes `Drain`, and the coordinator only escalates.
#[derive(Debug, Default)]
pub struct ShardMailbox {
    payload: AtomicU64,
    seq: AtomicU64,
}

impl ShardMailbox {
    /// An empty mailbox (sequence 0, nothing to take).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Posts `cmd`, overwriting any unread command.
    pub fn post(&self, cmd: ShardCommand) {
        self.payload.store(cmd as u64, Ordering::Relaxed); // ordering: payload is published by the Release seq bump below, not by this store
        self.seq.fetch_add(1, Ordering::Release); // ordering: Release makes the payload store above happen-before any Acquire load that sees the new seq
    }

    /// Takes the pending command, if the sequence number moved past
    /// `last_seen` (which is updated). Returns `None` when nothing new
    /// was posted or the payload word is not a valid command.
    pub fn take(&self, last_seen: &mut u64) -> Option<ShardCommand> {
        let seq = self.seq.load(Ordering::Acquire); // ordering: Acquire pairs with post's Release bump; seeing the new seq makes the payload store visible
        if seq == *last_seen {
            return None;
        }
        *last_seen = seq;
        ShardCommand::from_u64(self.payload.load(Ordering::Relaxed)) // ordering: already synchronized by the Acquire seq load above
    }
}

// ---------------------------------------------------------------------
// Stats plane: per-shard cache-padded counters
// ---------------------------------------------------------------------

/// One shard's live counters, padded to its own cache line pair so
/// neighbouring shards never false-share.
///
/// Protocol: the owning shard bumps counters with `Relaxed` stores (no
/// cross-counter ordering is promised while the shard runs), then sets
/// `published` with `Release` exactly once, on exit. A reader that
/// observes `published` with `Acquire` therefore sees every final
/// counter value exactly. Snapshots taken *before* publication are
/// monotone progress readings, not a consistent cut.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct ShardCounters {
    /// Data packets handed to the I/O plane (fresh + retransmit + probe).
    pub sent: AtomicU64,
    /// Unique sequences acknowledged.
    pub acked: AtomicU64,
    /// Unique sequences shed by overload protection.
    pub shed: AtomicU64,
    /// Retransmissions injected by the sweep (excludes probes).
    pub retransmits: AtomicU64,
    /// Reconnect probes sent (each retransmits a pending sequence).
    pub probes: AtomicU64,
    /// RTO firings that cleared the in-flight table.
    pub timeouts: AtomicU64,
    /// Reordering-gap expiries (fast retransmit signals).
    pub fast_losses: AtomicU64,
    /// Flows that reached `Closed`.
    pub closed: AtomicU64,
    /// Flows that closed without finishing their packet budget.
    pub stuck: AtomicU64,
    published: AtomicBool,
}

/// Relaxed bump of a live counter (see [`ShardCounters`] protocol).
fn bump(counter: &AtomicU64) {
    bump_by(counter, 1);
}

/// Relaxed add of `n` to a live counter (see [`ShardCounters`] protocol).
fn bump_by(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed); // ordering: monotone tally; cross-counter consistency comes from the publish Release/Acquire pair
}

/// Relaxed read of a live counter (see [`ShardCounters`] protocol).
fn read(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed) // ordering: exact only after is_published()'s Acquire observed the Release publish
}

impl ShardCounters {
    /// Marks the counters final. Called once by the owning shard on
    /// every exit path.
    pub fn publish(&self) {
        self.published.store(true, Ordering::Release); // ordering: Release makes every prior Relaxed counter bump visible to an Acquire reader of the flag
    }

    /// Whether the owning shard has published its final values.
    #[must_use]
    pub fn is_published(&self) -> bool {
        self.published.load(Ordering::Acquire) // ordering: Acquire pairs with publish's Release; true means all counter values are final and visible
    }

    /// A plain-value snapshot. Exact once [`Self::is_published`]
    /// returned `true`; a monotone progress reading before that.
    #[must_use]
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            sent: read(&self.sent),
            acked: read(&self.acked),
            shed: read(&self.shed),
            retransmits: read(&self.retransmits),
            probes: read(&self.probes),
            timeouts: read(&self.timeouts),
            fast_losses: read(&self.fast_losses),
            closed: read(&self.closed),
            stuck: read(&self.stuck),
        }
    }
}

/// Plain-value copy of one shard's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// See [`ShardCounters::sent`].
    pub sent: u64,
    /// See [`ShardCounters::acked`].
    pub acked: u64,
    /// See [`ShardCounters::shed`].
    pub shed: u64,
    /// See [`ShardCounters::retransmits`].
    pub retransmits: u64,
    /// See [`ShardCounters::probes`].
    pub probes: u64,
    /// See [`ShardCounters::timeouts`].
    pub timeouts: u64,
    /// See [`ShardCounters::fast_losses`].
    pub fast_losses: u64,
    /// See [`ShardCounters::closed`].
    pub closed: u64,
    /// See [`ShardCounters::stuck`].
    pub stuck: u64,
}

/// The shared slab of per-shard counters.
#[derive(Debug, Default)]
pub struct StatsPlane {
    shards: Vec<ShardCounters>,
}

impl StatsPlane {
    /// A plane with `shards` zeroed counter slabs.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        Self {
            shards: (0..shards).map(|_| ShardCounters::default()).collect(),
        }
    }

    /// Shard `i`'s counters.
    #[must_use]
    pub fn get(&self, i: usize) -> &ShardCounters {
        &self.shards[i]
    }

    /// Number of shard slabs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the plane has no slabs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Whether every shard has published its final counters.
    #[must_use]
    pub fn all_published(&self) -> bool {
        self.shards.iter().all(ShardCounters::is_published)
    }
}

// ---------------------------------------------------------------------
// Configuration and flow specs
// ---------------------------------------------------------------------

/// Server-wide configuration.
#[derive(Debug, Clone)]
pub struct ShardServerConfig {
    /// Shard (worker thread) count; flows are partitioned round-robin.
    pub shards: usize,
    /// Socket driver selection per shard.
    pub io_mode: IoMode,
    /// Payload bytes per data packet (header is 34 bytes on top).
    pub packet_bytes: u32,
    /// Maintenance cadence per flow when its controller is not
    /// clock-driven: session poll, gap sweep, retransmit sweep, probes.
    /// Clock-driven controllers use their own `tick_interval` instead.
    pub epoch: SimDuration,
    /// First epochs are spread uniformly over this window so a crowd of
    /// flows does not fire in phase.
    pub stagger: SimDuration,
    /// Session lifecycle template; `session_id` is overridden per flow.
    pub session: SessionConfig,
    /// Overload shedding: with `Some(cap)`, fresh packets demanded while
    /// `cap` or more are already in flight are shed (counted, never
    /// sent) — the supervisor's `shed_dropped` ledger column.
    pub shed_outstanding_cap: Option<usize>,
    /// Graceful deadline: the coordinator posts `Drain` this long after
    /// start, and `Abort` a drain-timeout (plus slack) later.
    pub deadline: SimDuration,
    /// Reordering gap timer factor (§5.2: gap fires at
    /// `gap_factor × srtt` after an ACK overtakes the packet).
    pub gap_factor: f64,
    /// Seed for the per-flow epoch stagger.
    pub seed: u64,
}

impl Default for ShardServerConfig {
    fn default() -> Self {
        Self {
            shards: 1,
            io_mode: IoMode::auto(),
            packet_bytes: 0,
            epoch: SimDuration::from_millis(5),
            stagger: SimDuration::from_millis(100),
            session: SessionConfig::default(),
            shed_outstanding_cap: None,
            deadline: SimDuration::from_secs(30),
            gap_factor: 3.0,
            seed: 0,
        }
    }
}

/// One flow to run: identity, peer, workload, controller.
pub struct FlowSpec {
    /// Wire flow id (carried in every packet header).
    pub flow: u32,
    /// Where this flow's data packets go (its receiver or emulator).
    pub dest: SocketAddr,
    /// Packet budget: sequences `0..packets` are offered exactly once.
    pub packets: u64,
    /// The congestion controller driving the flow.
    pub cc: Box<dyn CongestionControl>,
}

// ---------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------

/// One shard's slice of the final report.
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    /// Shard index.
    pub shard: usize,
    /// Flows owned by this shard.
    pub flows: usize,
    /// Σ packet budgets of the owned flows.
    pub offered: u64,
    /// Final protocol counters.
    pub counters: CounterSnapshot,
    /// Final socket-driver counters.
    pub io: IoCounters,
    /// Wheel timers fired (all kinds).
    pub timer_fires: u64,
    /// Epoch timers fired (the jitter sample count).
    pub epoch_fires: u64,
}

/// The aggregated result of a [`ShardServer::run`].
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Per-shard snapshots, in shard order.
    pub shards: Vec<ShardSnapshot>,
    /// Per-shard epoch-fire lateness distributions, in shard order.
    pub jitters: Vec<StreamingStats>,
    /// Wall time from `run` start to the last shard's exit.
    pub wall: SimDuration,
}

impl LoadReport {
    /// Σ packet budgets across all flows.
    #[must_use]
    pub fn offered(&self) -> u64 {
        self.shards.iter().map(|s| s.offered).sum()
    }

    /// Unique sequences acknowledged.
    #[must_use]
    pub fn acked(&self) -> u64 {
        self.shards.iter().map(|s| s.counters.acked).sum()
    }

    /// Unique sequences shed by overload protection.
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.shards.iter().map(|s| s.counters.shed).sum()
    }

    /// Flows that closed without finishing their budget.
    #[must_use]
    pub fn stuck(&self) -> u64 {
        self.shards.iter().map(|s| s.counters.stuck).sum()
    }

    /// Flows that reached `Closed`.
    #[must_use]
    pub fn closed(&self) -> u64 {
        self.shards.iter().map(|s| s.counters.closed).sum()
    }

    /// Ledger residual `offered − acked − shed`. Zero iff every offered
    /// sequence was accounted for exactly once.
    #[must_use]
    pub fn residual(&self) -> u64 {
        self.offered()
            .saturating_sub(self.acked())
            .saturating_sub(self.shed())
    }

    /// Socket-driver counters merged across shards.
    #[must_use]
    pub fn io(&self) -> IoCounters {
        self.shards
            .iter()
            .fold(IoCounters::default(), |acc, s| acc.merged(&s.io))
    }

    /// Conservative p99 of epoch-timer lateness (ms) across all shards.
    #[must_use]
    pub fn jitter_p99_ms(&self) -> f64 {
        merged_jitter_p99_ms(&self.jitters)
    }

    /// A canonical string over the deterministic ledger columns —
    /// per-shard flow counts, offered/acked/shed/stuck. Two same-seed
    /// runs that executed the protocol identically produce identical
    /// digests even though timings differ.
    #[must_use]
    pub fn deterministic_digest(&self) -> String {
        let mut d = String::new();
        for s in &self.shards {
            let _ = write!(
                d,
                "s{}:flows={},offered={},acked={},shed={},stuck={};",
                s.shard, s.flows, s.offered, s.counters.acked, s.counters.shed, s.counters.stuck
            );
        }
        d
    }
}

// ---------------------------------------------------------------------
// Per-flow state (shard-private)
// ---------------------------------------------------------------------

/// One flow's driver state around its engine: the exact ledger over the
/// sequence space `0..target` and the wheel bookkeeping.
struct FlowState {
    engine: FlowEngine,
    dest: SocketAddr,
    target: u64,
    /// Bitmaps over `0..target`: ever-sent and finished (acked or shed).
    sent_bits: Vec<u64>,
    done_bits: Vec<u64>,
    next_fresh: u64,
    done_count: u64,
    /// Whether a wheel timer is pending for this flow's RTO. At most
    /// one lives on the wheel at a time; stale fires re-arm.
    rto_armed: bool,
    closed_noted: bool,
}

fn word_index(seq: u64) -> usize {
    usize::try_from(seq / 64).unwrap_or(usize::MAX)
}

/// Sets `seq`'s bit; returns whether it was newly set.
fn bit_set(bits: &mut [u64], seq: u64) -> bool {
    let w = word_index(seq);
    let mask = 1u64 << (seq % 64);
    let newly = bits[w] & mask == 0;
    bits[w] |= mask;
    newly
}

#[cfg(test)]
fn bit_get(bits: &[u64], seq: u64) -> bool {
    bits[word_index(seq)] & (1u64 << (seq % 64)) != 0
}

/// Lowest sequence below `target` whose bit is clear.
fn first_undone(done: &[u64], target: u64) -> Option<u64> {
    for (w, &word) in done.iter().enumerate() {
        if word == u64::MAX {
            continue;
        }
        let seq = (w as u64) * 64 + u64::from((!word).trailing_zeros());
        return (seq < target).then_some(seq);
    }
    None
}

fn flow_index(j: usize) -> u32 {
    u32::try_from(j).unwrap_or(u32::MAX)
}

/// Rounds a deadline up to the timing-wheel granule, so restamping an
/// RTO by less than a granule never schedules a new wheel entry.
fn quantize_up(t: SimTime) -> SimTime {
    let g = verus_netsim::wheel::granule().as_nanos().max(1);
    let n = t.as_nanos();
    SimTime::from_nanos(n.div_euclid(g).saturating_mul(g).saturating_add(if n % g == 0 { 0 } else { g }))
}

// ---------------------------------------------------------------------
// The shard itself
// ---------------------------------------------------------------------

struct Shard<'a> {
    c: &'a ShardCounters,
    flows: Vec<FlowState>,
    route: HashMap<u32, usize>,
    plane: TimerPlane,
    out: Vec<OutPacket>,
    closed: usize,
}

impl Shard<'_> {
    /// Queues one data packet for `seq` (a retransmit or a probe —
    /// callers attribute it) and arms the RTO.
    fn send_data(&mut self, j: usize, seq: u64, now: SimTime) {
        let f = &mut self.flows[j];
        lane::set(f.engine.flow());
        let pkt = f.engine.send(now, seq);
        lane::clear();
        bit_set(&mut f.sent_bits, seq);
        self.out.push(OutPacket {
            to: f.dest,
            bytes: pkt.encode().to_vec(),
        });
        bump(&self.c.sent);
        self.arm_rto(j);
    }

    /// Puts the flow's RTO deadline on the wheel if no timer is pending
    /// for it yet (one wheel entry per flow, quantized to the granule).
    fn arm_rto(&mut self, j: usize) {
        let f = &mut self.flows[j];
        let Some(d) = f.engine.rto_deadline() else { return };
        if f.rto_armed {
            return;
        }
        f.rto_armed = true;
        self.plane.arm(quantize_up(d), TimerKind::Rto { flow: flow_index(j) });
    }

    /// Sends fresh sequences up to the controller's quota, shedding
    /// into the ledger when the overload cap is hit.
    fn pump(&mut self, j: usize, now: SimTime) {
        let c = self.c;
        let out = &mut self.out;
        let FlowState {
            engine,
            dest,
            target,
            sent_bits,
            done_bits,
            next_fresh,
            done_count,
            ..
        } = &mut self.flows[j];
        let fresh = || {
            (*next_fresh < *target).then(|| {
                *next_fresh += 1;
                *next_fresh - 1
            })
        };
        lane::set(engine.flow());
        let pumped = engine.pump(now, fresh, |grant| {
            match grant {
                Pumped::Sent(pkt) => {
                    bit_set(sent_bits, pkt.seq);
                    out.push(OutPacket {
                        to: *dest,
                        bytes: pkt.encode().to_vec(),
                    });
                    bump(&c.sent);
                }
                Pumped::Shed(seq) => {
                    bit_set(sent_bits, seq);
                    // Only newly finished sequences enter the shed
                    // column — an already-ACKed probe stays `acked`.
                    if bit_set(done_bits, seq) {
                        *done_count += 1;
                        bump(&c.shed);
                    }
                }
            }
            Ok::<(), Infallible>(())
        });
        lane::clear();
        let Ok(()) = pumped;
        self.arm_rto(j);
    }

    /// Retransmits sequences that were sent, are not finished, and are
    /// no longer in flight (RTO-cleared or gap-expired), up to the
    /// per-epoch budget.
    fn retransmit_sweep(&mut self, j: usize, now: SimTime) {
        let mut picks = [0u64; RETX_BUDGET];
        let mut n = 0;
        {
            let f = &self.flows[j];
            'scan: for (w, &sent) in f.sent_bits.iter().enumerate() {
                let mut cand = sent & !f.done_bits[w];
                while cand != 0 {
                    let b = cand.trailing_zeros();
                    cand &= cand - 1;
                    let seq = (w as u64) * 64 + u64::from(b);
                    if seq >= f.target {
                        break 'scan;
                    }
                    if f.engine.is_in_flight(seq) {
                        continue;
                    }
                    picks[n] = seq;
                    n += 1;
                    if n == RETX_BUDGET {
                        break 'scan;
                    }
                }
            }
        }
        for &seq in &picks[..n] {
            bump(&self.c.retransmits);
            self.send_data(j, seq, now);
        }
    }

    /// All-finished check: drains and closes a flow whose every
    /// sequence is acked-or-shed, then records the closure.
    fn finish(&mut self, j: usize, now: SimTime) {
        let f = &mut self.flows[j];
        if !f.closed_noted && f.done_count == f.target && !f.engine.session().is_closed() {
            lane::set(f.engine.flow());
            f.engine.step_session(|s| s.begin_drain(now));
            f.engine.step_session(|s| s.drained(now));
            lane::clear();
        }
        self.note_if_closed(j);
    }

    /// Records a `Closed` flow exactly once (shard tally + stats plane,
    /// with the `stuck` column for unfinished budgets).
    fn note_if_closed(&mut self, j: usize) {
        let f = &mut self.flows[j];
        if f.engine.session().is_closed() && !f.closed_noted {
            f.closed_noted = true;
            self.closed += 1;
            bump(&self.c.closed);
            if f.done_count < f.target {
                bump(&self.c.stuck);
            }
        }
    }

    /// One epoch fire at boundary `at`: session upkeep, owed CC ticks,
    /// gap sweep, then the send path (pump + retransmit sweep, or a
    /// reconnect probe).
    fn epoch_fire(&mut self, j: usize, at: SimTime, now: SimTime) {
        let f = &mut self.flows[j];
        if f.closed_noted {
            return;
        }
        lane::set(f.engine.flow());
        while f.engine.step_session(|s| s.poll(now)).is_some() {}
        let live = !f.engine.session().is_closed();
        let next_epoch = live.then(|| f.engine.tick_through(at, now));
        if live {
            let losses = f.engine.sweep_gaps(now);
            bump_by(&self.c.fast_losses, losses);
        }
        lane::clear();
        if f.engine.session().may_send() {
            self.pump(j, now);
            self.retransmit_sweep(j, now);
        } else if live && f.engine.probe_due(now) {
            // Disconnected: probe on the backoff schedule. The probe
            // retransmits the lowest unfinished sequence — never a
            // fresh one — so the ledger's sequence space stays exact
            // (deliberate divergence from the per-socket supervisor).
            if let Some(seq) = first_undone(&f.done_bits, f.target) {
                bump(&self.c.probes);
                self.send_data(j, seq, now);
            }
        }
        self.finish(j, now);
        if !self.flows[j].closed_noted {
            if let Some(next) = next_epoch {
                self.plane.arm(next, TimerKind::Epoch { flow: flow_index(j) });
            }
        }
    }

    /// One RTO fire: a stale or restamped deadline re-arms; a genuine
    /// expiry clears the in-flight table (the sweep retransmits the
    /// cleared range) and backs the RTO off.
    fn rto_fire(&mut self, j: usize, now: SimTime) {
        let f = &mut self.flows[j];
        f.rto_armed = false;
        if f.closed_noted {
            return;
        }
        lane::set(f.engine.flow());
        if f.engine.expire_rto(now) {
            bump(&self.c.timeouts);
        }
        lane::clear();
        self.arm_rto(j);
    }

    /// One inbound datagram: decode, route, run the engine's ACK rules,
    /// and finish the sequence in the ledger — a late ACK for an
    /// RTO-cleared packet finishes it too, though it fed no CC event; an
    /// ACK the engine refuses finishes nothing.
    fn handle_ack(&mut self, buf: &[u8], now: SimTime) {
        let Ok(ack) = AckPacket::decode(buf) else { return };
        let Some(&j) = self.route.get(&ack.flow) else { return };
        let f = &mut self.flows[j];
        if f.closed_noted || ack.seq >= f.target {
            return;
        }
        lane::set(ack.flow);
        let accepted = f.engine.on_ack(now, &ack).is_some();
        lane::clear();
        if !accepted {
            return;
        }
        if bit_set(&mut f.done_bits, ack.seq) {
            f.done_count += 1;
            bump(&self.c.acked);
        }
        let finished = f.done_count == f.target;
        self.arm_rto(j);
        if finished {
            self.finish(j, now);
        }
    }

    /// A coordinator command to every live flow: `Drain` starts draining
    /// (flows still `Connecting` close at once — nothing to drain),
    /// `Abort` closes now.
    fn command_all(&mut self, cmd: ShardCommand, now: SimTime) {
        for j in 0..self.flows.len() {
            let f = &mut self.flows[j];
            if f.closed_noted {
                continue;
            }
            lane::set(f.engine.flow());
            f.engine.step_session(|s| match cmd {
                ShardCommand::Drain => s.begin_drain(now),
                ShardCommand::Abort => s.abort(now),
            });
            lane::clear();
            self.note_if_closed(j);
        }
    }
}

// ---------------------------------------------------------------------
// The worker thread
// ---------------------------------------------------------------------

struct WorkerInput {
    cfg: Arc<ShardServerConfig>,
    specs: Vec<FlowSpec>,
    mailbox: Arc<ShardMailbox>,
    stats: Arc<StatsPlane>,
    shard_index: usize,
    clock: WallClock,
    start: SimTime,
}

struct ShardOutcome {
    io: IoCounters,
    jitter: StreamingStats,
    timer_fires: u64,
    epoch_fires: u64,
}

/// Publishes the shard's counters on every exit path — including an
/// unwind — so the coordinator's watchdog never waits forever.
struct PublishOnExit<'a>(&'a ShardCounters);

impl Drop for PublishOnExit<'_> {
    fn drop(&mut self) {
        self.0.publish();
    }
}

fn run_worker(input: WorkerInput) -> io::Result<ShardOutcome> {
    let stats = Arc::clone(&input.stats);
    let c = stats.get(input.shard_index);
    let _publish = PublishOnExit(c);
    drive_shard(input, c)
}

fn drive_shard(input: WorkerInput, c: &ShardCounters) -> io::Result<ShardOutcome> {
    let cfg = Arc::clone(&input.cfg);
    let socket = UdpSocket::bind(("127.0.0.1", 0))?;
    let mut io = batcher_for(socket, cfg.io_mode)?;
    let mut shard = Shard {
        c,
        flows: Vec::with_capacity(input.specs.len()),
        route: HashMap::with_capacity(input.specs.len()),
        plane: TimerPlane::new(),
        out: Vec::new(),
        closed: 0,
    };
    let clock = input.clock;
    let mut stagger = SplitMix64::new(cfg.seed ^ (input.shard_index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    for (j, spec) in input.specs.into_iter().enumerate() {
        let mut scfg = cfg.session;
        scfg.session_id = u64::from(spec.flow);
        let words = usize::try_from(spec.packets / 64 + 1).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidInput, "flow packet budget too large")
        })?;
        let params = FlowParams {
            flow: spec.flow,
            packet_bytes: cfg.packet_bytes,
            gap_factor: cfg.gap_factor,
            shed_cap: cfg.shed_outstanding_cap,
            epoch: cfg.epoch,
        };
        shard.route.insert(spec.flow, j);
        shard.flows.push(FlowState {
            engine: FlowEngine::new(spec.cc, Session::new(scfg, input.start), params),
            dest: spec.dest,
            target: spec.packets,
            sent_bits: vec![0; words],
            done_bits: vec![0; words],
            next_fresh: 0,
            done_count: 0,
            rto_armed: false,
            closed_noted: false,
        });
        let offset_ns = stagger.next_u64() % cfg.stagger.as_nanos().max(1);
        shard.plane.arm(
            input.start + SimDuration::from_nanos(offset_ns),
            TimerKind::Epoch { flow: flow_index(j) },
        );
    }
    let total = shard.flows.len();
    let mut last_seen = 0u64;
    loop {
        let now = clock.now();
        if let Some(cmd) = input.mailbox.take(&mut last_seen) {
            shard.command_all(cmd, now);
        }
        while let Some((at, kind)) = shard.plane.pop_due(now) {
            let j = usize::try_from(kind.flow()).unwrap_or(usize::MAX);
            if j >= shard.flows.len() {
                continue;
            }
            match kind {
                TimerKind::Epoch { .. } => shard.epoch_fire(j, at, now),
                TimerKind::Rto { .. } => shard.rto_fire(j, now),
            }
        }
        let recv_now = clock.now();
        let mut backlog = false;
        loop {
            let got = io.recv_batch(&mut |buf, _from| shard.handle_ack(buf, recv_now))?;
            if !got.full {
                break;
            }
            // The kernel queue was deeper than one batch: keep draining
            // and skip the pacing sleep this iteration.
            backlog = true;
        }
        // Full batches go out eagerly; a partial tail stays queued to
        // coalesce with the next iteration's timer fires — that tail is
        // flushed below before any sleep, so no datagram ever waits on
        // the pacing clock. This is what amortizes sendmmsg: packets
        // accumulate across fires instead of leaving one tiny batch per
        // loop spin.
        if shard.out.len() >= BATCH {
            io.send_batch(&mut shard.out)?;
        }
        if total == 0 || shard.closed == total {
            if !shard.out.is_empty() {
                io.send_batch(&mut shard.out)?;
            }
            break;
        }
        if !backlog {
            if !shard.out.is_empty() {
                io.send_batch(&mut shard.out)?;
            }
            // Pace toward the earliest deadline; bounded below so the
            // loop never busy-spins syscalls on a quiet socket, and
            // above so a mailbox command is seen within SLEEP_MAX.
            let sleep = shard
                .plane
                .next_deadline()
                .map_or(SLEEP_MAX, |d| d.saturating_since(clock.now()).to_std())
                .clamp(SLEEP_MIN, SLEEP_MAX);
            thread::sleep(sleep);
        }
    }
    Ok(ShardOutcome {
        io: io.counters(),
        jitter: shard.plane.jitter().clone(),
        timer_fires: shard.plane.fires(),
        epoch_fires: shard.plane.epoch_fires(),
    })
}

// ---------------------------------------------------------------------
// The coordinator
// ---------------------------------------------------------------------

/// The sharded server: partitions flows, runs one thread per shard,
/// enforces the deadline through the mailboxes, aggregates the report.
#[derive(Debug, Clone)]
pub struct ShardServer {
    config: ShardServerConfig,
}

impl ShardServer {
    /// A server with `config` (validated at [`Self::run`]).
    #[must_use]
    pub fn new(config: ShardServerConfig) -> Self {
        Self { config }
    }

    /// The configuration this server runs with.
    #[must_use]
    pub fn config(&self) -> &ShardServerConfig {
        &self.config
    }

    /// Runs every flow to completion (or the deadline) and returns the
    /// aggregated ledger.
    ///
    /// # Errors
    /// Invalid configuration, socket setup failures, hard socket errors
    /// from any shard, or a panicked shard thread.
    pub fn run(&self, specs: Vec<FlowSpec>, clock: WallClock) -> io::Result<LoadReport> {
        if self.config.shards == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "shard count must be at least 1",
            ));
        }
        self.config
            .session
            .validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let shards = self.config.shards;
        let mut parts: Vec<Vec<FlowSpec>> = (0..shards).map(|_| Vec::new()).collect();
        for (i, spec) in specs.into_iter().enumerate() {
            parts[i % shards].push(spec);
        }
        let offered: Vec<u64> = parts
            .iter()
            .map(|p| p.iter().map(|s| s.packets).sum())
            .collect();
        let flows_per: Vec<usize> = parts.iter().map(Vec::len).collect();
        let stats = Arc::new(StatsPlane::new(shards));
        let mailboxes: Vec<Arc<ShardMailbox>> =
            (0..shards).map(|_| Arc::new(ShardMailbox::new())).collect();
        let cfg = Arc::new(self.config.clone());
        let start = clock.now();
        let mut handles = Vec::with_capacity(shards);
        for (i, specs) in parts.into_iter().enumerate() {
            let input = WorkerInput {
                cfg: Arc::clone(&cfg),
                specs,
                mailbox: Arc::clone(&mailboxes[i]),
                stats: Arc::clone(&stats),
                shard_index: i,
                clock,
                start,
            };
            let handle = thread::Builder::new()
                .name(format!("verus-shard-{i}"))
                .spawn(move || run_worker(input))?;
            handles.push(handle);
        }
        // Watchdog: graceful drain at the deadline, hard abort one
        // drain-timeout (plus scheduling slack) later. Runs until every
        // shard published — which the PublishOnExit guard guarantees
        // happens even on shard errors or panics.
        let drain_at = start.checked_add(self.config.deadline);
        let abort_at = drain_at
            .and_then(|d| d.checked_add(self.config.session.drain_timeout))
            .and_then(|d| d.checked_add(SimDuration::from_secs(1)));
        let mut drain_posted = false;
        let mut abort_posted = false;
        while !stats.all_published() {
            let now = clock.now();
            if !drain_posted && drain_at.is_some_and(|d| now >= d) {
                for mb in &mailboxes {
                    mb.post(ShardCommand::Drain);
                }
                drain_posted = true;
            }
            if !abort_posted && abort_at.is_some_and(|d| now >= d) {
                for mb in &mailboxes {
                    mb.post(ShardCommand::Abort);
                }
                abort_posted = true;
            }
            thread::sleep(Duration::from_millis(2));
        }
        let mut snapshots = Vec::with_capacity(shards);
        let mut jitters = Vec::with_capacity(shards);
        for (i, handle) in handles.into_iter().enumerate() {
            let outcome = handle
                .join()
                .map_err(|_| io::Error::new(io::ErrorKind::Other, "shard thread panicked"))??;
            snapshots.push(ShardSnapshot {
                shard: i,
                flows: flows_per[i],
                offered: offered[i],
                counters: stats.get(i).snapshot(),
                io: outcome.io,
                timer_fires: outcome.timer_fires,
                epoch_fires: outcome.epoch_fires,
            });
            jitters.push(outcome.jitter);
        }
        Ok(LoadReport {
            shards: snapshots,
            jitters,
            wall: clock.now().saturating_since(start),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mailbox_posts_and_takes_once() {
        let mb = ShardMailbox::new();
        let mut seen = 0u64;
        assert_eq!(mb.take(&mut seen), None, "fresh mailbox is empty");
        mb.post(ShardCommand::Drain);
        assert_eq!(mb.take(&mut seen), Some(ShardCommand::Drain));
        assert_eq!(mb.take(&mut seen), None, "a command is taken once");
        mb.post(ShardCommand::Abort);
        assert_eq!(mb.take(&mut seen), Some(ShardCommand::Abort));
    }

    #[test]
    fn mailbox_overwrite_is_last_writer_wins() {
        let mb = ShardMailbox::new();
        let mut seen = 0u64;
        mb.post(ShardCommand::Drain);
        mb.post(ShardCommand::Abort);
        assert_eq!(mb.take(&mut seen), Some(ShardCommand::Abort));
        assert_eq!(mb.take(&mut seen), None);
    }

    #[test]
    fn command_decoding_rejects_garbage() {
        assert_eq!(ShardCommand::from_u64(1), Some(ShardCommand::Drain));
        assert_eq!(ShardCommand::from_u64(2), Some(ShardCommand::Abort));
        assert_eq!(ShardCommand::from_u64(0), None);
        assert_eq!(ShardCommand::from_u64(3), None);
        assert_eq!(ShardCommand::from_u64(u64::MAX), None);
    }

    #[test]
    fn stats_plane_tracks_publication() {
        let plane = StatsPlane::new(2);
        assert_eq!(plane.len(), 2);
        assert!(!plane.is_empty());
        assert!(!plane.all_published());
        plane.get(0).publish();
        assert!(!plane.all_published());
        plane.get(1).publish();
        assert!(plane.all_published());
        assert!(plane.get(0).is_published());
    }

    #[test]
    fn counter_snapshot_reads_bumps() {
        let c = ShardCounters::default();
        bump(&c.sent);
        bump(&c.sent);
        bump(&c.acked);
        bump(&c.stuck);
        let s = c.snapshot();
        assert_eq!(s.sent, 2);
        assert_eq!(s.acked, 1);
        assert_eq!(s.stuck, 1);
        assert_eq!(s.shed, 0);
    }

    #[test]
    fn bitmap_helpers_track_the_sequence_space() {
        let mut bits = vec![0u64; 3];
        assert!(bit_set(&mut bits, 0), "first set is new");
        assert!(!bit_set(&mut bits, 0), "second set is not");
        assert!(bit_set(&mut bits, 65));
        assert!(bit_get(&bits, 0));
        assert!(bit_get(&bits, 65));
        assert!(!bit_get(&bits, 64));
        assert_eq!(first_undone(&bits, 100), Some(1));
        // Fill the first word; the scan jumps to the second.
        for s in 0..64 {
            bit_set(&mut bits, s);
        }
        assert_eq!(first_undone(&bits, 100), Some(64));
        let full = vec![u64::MAX; 2];
        assert_eq!(first_undone(&full, 128), None);
        assert_eq!(first_undone(&full, 1000), None, "target beyond the bitmap");
    }

    #[test]
    fn quantize_rounds_up_to_the_granule() {
        let g = verus_netsim::wheel::granule().as_nanos();
        let t = quantize_up(SimTime::from_nanos(1));
        assert_eq!(t.as_nanos(), g);
        let exact = quantize_up(SimTime::from_nanos(3 * g));
        assert_eq!(exact.as_nanos(), 3 * g, "exact multiples stay put");
        assert_eq!(quantize_up(SimTime::from_nanos(0)).as_nanos(), 0);
    }

    fn synthetic_report() -> LoadReport {
        let snap = |shard: usize, offered: u64, acked: u64, shed: u64, stuck: u64| ShardSnapshot {
            shard,
            flows: 10,
            offered,
            counters: CounterSnapshot {
                acked,
                shed,
                stuck,
                ..CounterSnapshot::default()
            },
            io: IoCounters {
                send_calls: 4,
                recv_calls: 6,
                sent_pkts: 100,
                recvd_pkts: 100,
                sent_msgs: 100,
                recvd_msgs: 100,
                send_failed: 0,
            },
            timer_fires: 50,
            epoch_fires: 40,
        };
        LoadReport {
            shards: vec![snap(0, 100, 90, 10, 0), snap(1, 100, 95, 0, 1)],
            jitters: Vec::new(),
            wall: SimDuration::from_secs(1),
        }
    }

    #[test]
    fn load_report_ledger_arithmetic() {
        let r = synthetic_report();
        assert_eq!(r.offered(), 200);
        assert_eq!(r.acked(), 185);
        assert_eq!(r.shed(), 10);
        assert_eq!(r.residual(), 5);
        assert_eq!(r.stuck(), 1);
        let io = r.io();
        assert_eq!(io.syscalls(), 20);
        assert_eq!(io.packets(), 400);
        assert!((io.syscalls_per_packet() - 0.05).abs() < 1e-12);
        assert_eq!(r.jitter_p99_ms(), 0.0, "no jitter samples collected");
    }

    #[test]
    fn deterministic_digest_is_stable_and_sensitive() {
        let r = synthetic_report();
        assert_eq!(r.deterministic_digest(), r.deterministic_digest());
        assert_eq!(
            r.deterministic_digest(),
            "s0:flows=10,offered=100,acked=90,shed=10,stuck=0;\
             s1:flows=10,offered=100,acked=95,shed=0,stuck=1;"
        );
        let mut other = synthetic_report();
        other.shards[1].counters.acked += 1;
        assert_ne!(r.deterministic_digest(), other.deterministic_digest());
    }

    #[test]
    fn zero_shards_is_rejected() {
        let server = ShardServer::new(ShardServerConfig {
            shards: 0,
            ..ShardServerConfig::default()
        });
        let err = server.run(Vec::new(), WallClock::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn empty_flow_set_returns_an_empty_ledger() {
        let server = ShardServer::new(ShardServerConfig {
            shards: 2,
            ..ShardServerConfig::default()
        });
        let r = server.run(Vec::new(), WallClock::new()).expect("runs");
        assert_eq!(r.offered(), 0);
        assert_eq!(r.residual(), 0);
        assert_eq!(r.closed(), 0);
        assert_eq!(r.shards.len(), 2);
    }
}
