//! Thread-per-core sharded UDP server: the crate's one sender driver.
//!
//! Every sender runs here, from one flow (`verus-send`, the loopback,
//! cross-substrate, trace-parity, fault-injection and chaos tests,
//! `bench_chaos`) to crowds of thousands (perfbench's `udp_crowd`, the
//! tier-1 load test), so the single-flow tests exercise the driver the
//! benchmark measures. Each flow is one [`FlowEngine`] — session
//! lifecycle, RTO + reordering-gap loss detection, CC warm restart on
//! resumption — and the server supplies the execution model:
//!
//! * **Sharding** — flow specs are partitioned `spec index % shards`,
//!   and each shard thread owns its flows exclusively: no locks on any
//!   per-flow state, ever.
//! * **One socket per shard** — all of a shard's flows multiplex one
//!   UDP socket, bound to [`ShardServerConfig::bind`] and driven through
//!   [`IoBatcher`](crate::io_batch::IoBatcher) (`sendmmsg`/`recvmmsg` on
//!   Linux, per-packet elsewhere), so the syscall count scales with
//!   *batches*, not packets.
//! * **One timer plane per shard** — RTO and epoch deadlines for every
//!   flow live on a single netsim timing wheel
//!   ([`TimerPlane`](crate::timer_plane::TimerPlane)); no per-flow sleeps.
//! * **Lock-free stats** — each shard owns a cache-padded
//!   [`ShardCounters`] slab in a shared [`StatsPlane`]; writers bump
//!   relaxed atomics, readers take coherent-enough snapshots without
//!   ever touching a mutex on the hot path. Each flow's own
//!   [`FlowReport`] comes back in the [`LoadReport`]; the server keeps
//!   at most `Reservoir::DEFAULT_CAP` delay samples across all flows.
//! * **Mailbox control plane** — the coordinator talks to shards
//!   through a two-word atomic [`ShardMailbox`] (`Drain`, `Abort`),
//!   a seqlock-style publish protocol small enough to model-check.
//!
//! ## The sequence policy and the deterministic ledger
//!
//! The protocol is the engine's; the shard adds the sequence policy.
//! Each flow's sequence space is `0..packets`:
//!
//! * a fresh send takes the next unused sequence;
//! * a sequence the engine declares lost (RTO-cleared or gap-expired) is
//!   retransmitted ahead of fresh ones, paid from the controller's quota
//!   like any other send, so a controller that cut its window after a
//!   timeout is not flooded past it;
//! * a reconnect probe retransmits the lowest unfinished sequence
//!   instead of consuming a fresh one (a probe that lands on the next
//!   fresh sequence consumes it).
//!
//! That keeps the load-test ledger exact: `offered = Σ packets`, and
//! after retransmitting to quiescence `offered − acked − shed == 0` with
//! no slack term for probe traffic. A budget of `u64::MAX` runs until
//! the deadline. A flow closes once every sequence is finished or, once
//! draining, as soon as nothing is in flight (at the latest when the
//! session's drain timeout passes). The gap sweep runs on each flow's
//! epoch fire.
//!
//! ## Pacing
//!
//! Between iterations without a socket backlog the loop sleeps a fixed
//! 0.5 ms (`PACING_SLEEP`). Sleeping toward the next timer deadline
//! instead would save wake-ups, but every ACK that arrives during the
//! sleep is stamped when the loop wakes, and Verus's delay signal is the
//! ACK's RTT: sleeping toward the next deadline (an epoch is 5 ms) added
//! a median 4.2 ms to the RTT a one-flow Verus run on loopback showed
//! its controller (`acks_are_stamped_within_half_an_epoch`).
//!
//! Trace attribution uses the `verus-trace` lane mechanism: the shard
//! sets the flow's lane around every engine call that can reach the
//! controller, so per-flow records from a multiplexed thread land in the
//! right lane exactly as the simulator's do.

use std::collections::{HashMap, VecDeque};
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
use verus_stats::{Reservoir, StreamingStats, Summary};
use verus_trace::{lane, SessionState};

use crate::clock::WallClock;
use crate::flow::{FlowEngine, FlowParams, Pumped};
use crate::io_batch::{batcher_for, IoCounters, IoMode, OutPacket, BATCH};
use crate::session::{Session, SessionConfig, Transition};
use crate::stats::TransferStats;
use crate::timer_plane::{merged_jitter_p99_ms, TimerKind, TimerPlane};

/// Pacing quantum: the sleep between loop iterations when the socket
/// has no backlog. Half the timing wheel's granule (≈ 1.05 ms), so timer
/// lateness from pacing stays below the wheel's own resolution, ACKs are
/// stamped within about 0.5 ms of arrival, and arrivals still coalesce
/// into real `sendmmsg`/`recvmmsg` batches instead of one
/// syscall-per-datagram loop spin.
const PACING_SLEEP: Duration = Duration::from_micros(500);

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
    /// Lost sequences retransmitted from the controller's quota
    /// (excludes probes).
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
    /// Local address every shard's socket binds (port 0: ephemeral;
    /// with several shards a fixed port can only be bound once).
    pub bind: SocketAddr,
    /// Socket driver selection per shard.
    pub io_mode: IoMode,
    /// Payload bytes per data packet (header is 34 bytes on top).
    pub packet_bytes: u32,
    /// Maintenance cadence per flow when its controller is not
    /// clock-driven: session poll, gap sweep, pump, probes.
    /// Clock-driven controllers use their own `tick_interval` instead.
    pub epoch: SimDuration,
    /// First epochs are spread uniformly over this window so a crowd of
    /// flows does not fire in phase.
    pub stagger: SimDuration,
    /// Session lifecycle template; `session_id` is overridden per flow.
    pub session: SessionConfig,
    /// Overload shedding: with `Some(cap)`, fresh packets demanded while
    /// `cap` or more are already in flight are shed (counted, never
    /// sent) — the `shed_dropped` ledger column.
    pub shed_outstanding_cap: Option<usize>,
    /// Graceful deadline: the coordinator posts `Drain` this long after
    /// start, and `Abort` a drain-timeout (plus slack) later. For an
    /// unbounded flow this is the transfer's duration.
    pub deadline: SimDuration,
    /// Reordering gap timer factor (§5.2: gap fires at
    /// `gap_factor × srtt` after an ACK overtakes the packet).
    pub gap_factor: f64,
    /// Seed for the per-flow epoch stagger and delay-sample reservoirs.
    pub seed: u64,
}

impl Default for ShardServerConfig {
    fn default() -> Self {
        Self {
            shards: 1,
            bind: SocketAddr::from(([127, 0, 0, 1], 0)),
            io_mode: IoMode::auto(),
            packet_bytes: 1400,
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
    /// `u64::MAX` means "run until the deadline": such a flow never
    /// finishes its budget, so it counts as `stuck` when it closes, and
    /// [`LoadReport::offered`] saturates.
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
    /// Σ packet budgets of the owned flows (saturating at `u64::MAX`).
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

/// One flow's outcome: its transfer statistics and session history.
#[derive(Debug, Clone)]
pub struct FlowReport {
    /// Packet-level statistics, including the shed count.
    pub stats: TransferStats,
    /// Every session-state edge taken, in order.
    pub transitions: Vec<Transition>,
    /// Session state when the shard finished (`Closed` unless the shard
    /// stopped on an error).
    pub final_state: SessionState,
    /// Reconnect/connect probe slots taken (one probe each).
    pub probes: u64,
}

impl FlowReport {
    /// Durations of every completed recovery (edges into `Established`
    /// out of `Connecting`/`Reconnecting`) — the SLO numerators.
    #[must_use]
    pub fn recovery_times(&self) -> Vec<SimDuration> {
        self.transitions
            .iter()
            .filter_map(|t| t.recovered_after)
            .collect()
    }

    /// Whether the session ever reached `Established`.
    #[must_use]
    pub fn reached_established(&self) -> bool {
        self.transitions
            .iter()
            .any(|t| t.to == SessionState::Established)
    }

    /// How many separate disruptions ended in a successful reconnect
    /// (recoveries out of `Reconnecting`, i.e. excluding the initial
    /// connect).
    #[must_use]
    pub fn reconnects(&self) -> u64 {
        self.transitions
            .iter()
            .filter(|t| t.from == SessionState::Reconnecting && t.to == SessionState::Established)
            .count() as u64
    }
}

/// The aggregated result of a [`ShardServer::run`].
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Per-shard snapshots, in shard order.
    pub shards: Vec<ShardSnapshot>,
    /// Per-flow reports, in spec order.
    pub flows: Vec<FlowReport>,
    /// Per-shard epoch-fire lateness distributions, in shard order.
    pub jitters: Vec<StreamingStats>,
    /// Wall time from `run` start to the last shard's exit.
    pub wall: SimDuration,
}

impl LoadReport {
    /// Σ packet budgets across all flows (saturating at `u64::MAX`).
    #[must_use]
    pub fn offered(&self) -> u64 {
        self.shards
            .iter()
            .fold(0, |acc, s| acc.saturating_add(s.offered))
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
/// sequence space `0..target`, the lost-sequence queue, the wheel
/// bookkeeping and what the flow's report is built from.
struct FlowState {
    engine: FlowEngine,
    dest: SocketAddr,
    target: u64,
    /// Finished (acked or shed) bits over the sequences sent so far; grows
    /// with the highest finished sequence. Every sent sequence is below
    /// `next_fresh`.
    done_bits: Vec<u64>,
    next_fresh: u64,
    done_count: u64,
    /// Sequences the engine declared lost, oldest first. Each takes a
    /// quota grant ahead of fresh sequences unless it finished or went
    /// back in flight (as a probe) meanwhile.
    lost: VecDeque<u64>,
    /// Whether a wheel timer is pending for this flow's RTO. At most
    /// one lives on the wheel at a time; stale fires re-arm.
    rto_armed: bool,
    closed_noted: bool,
    stats: TransferStats,
    /// The delay samples `stats.delay_summary` is computed from when
    /// the report is built; they are freed then, not kept in the report.
    delays: Reservoir,
    transitions: Vec<Transition>,
}

impl FlowState {
    /// A flow about to start at `start`: its session takes the server's
    /// template with the flow id as `session_id`, and it keeps up to
    /// `samples` delay samples.
    ///
    /// The buffers the report keeps — the throughput series' first
    /// window and room for the usual session edges — are allocated here,
    /// before the first packet, rather than among the run's per-packet
    /// allocations (see [`drive_shard`] for the sample storage).
    fn new(spec: FlowSpec, cfg: &ShardServerConfig, start: SimTime, samples: usize) -> Self {
        let mut session = cfg.session;
        session.session_id = u64::from(spec.flow);
        let mut stats = TransferStats::new(spec.cc.name());
        // A zero-byte record allocates the first window.
        stats.throughput.record(0.0, 0);
        let delays = Reservoir::new(
            samples,
            cfg.seed ^ u64::from(spec.flow).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        let params = FlowParams {
            flow: spec.flow,
            packet_bytes: cfg.packet_bytes,
            gap_factor: cfg.gap_factor,
            shed_cap: cfg.shed_outstanding_cap,
            epoch: cfg.epoch,
        };
        Self {
            engine: FlowEngine::new(spec.cc, Session::new(session, start), params),
            dest: spec.dest,
            target: spec.packets,
            done_bits: Vec::new(),
            next_fresh: 0,
            done_count: 0,
            lost: VecDeque::new(),
            rto_armed: false,
            closed_noted: false,
            stats,
            delays,
            transitions: Vec::with_capacity(4),
        }
    }

    /// Applies one session step, keeping the edge it took.
    fn step(&mut self, step: impl FnOnce(&mut Session) -> Option<Transition>) -> bool {
        let tr = self.engine.step_session(step);
        self.transitions.extend(tr);
        tr.is_some()
    }

    /// Records one one-way delay sample, ms.
    fn record_delay(&mut self, delay_ms: f64) {
        self.delays.push(delay_ms);
        self.stats.delay_stats.push(delay_ms);
    }

    /// The flow's final report; the transfer lasted until the flow began
    /// draining or closed.
    fn into_report(mut self, start: SimTime, end: SimTime) -> FlowReport {
        let stopped = self
            .transitions
            .iter()
            .find(|t| matches!(t.to, SessionState::Draining | SessionState::Closed))
            .map_or(end, |t| t.at);
        self.stats.duration_secs = stopped.saturating_since(start).as_secs_f64();
        self.stats.delay_summary = Summary::from_samples(self.delays.samples());
        FlowReport {
            stats: self.stats,
            final_state: self.engine.session().state(),
            probes: self.engine.session().total_retries(),
            transitions: self.transitions,
        }
    }
}

fn word_index(seq: u64) -> usize {
    usize::try_from(seq / 64).unwrap_or(usize::MAX)
}

/// Sets `seq`'s bit, growing the bitmap as needed; returns whether it
/// was newly set.
fn bit_set(bits: &mut Vec<u64>, seq: u64) -> bool {
    let w = word_index(seq);
    if w >= bits.len() {
        bits.resize(w + 1, 0);
    }
    let mask = 1u64 << (seq % 64);
    let newly = bits[w] & mask == 0;
    bits[w] |= mask;
    newly
}

/// Whether `seq`'s bit is set (bits past the end are clear).
fn bit_get(bits: &[u64], seq: u64) -> bool {
    bits.get(word_index(seq))
        .is_some_and(|w| w & (1u64 << (seq % 64)) != 0)
}

/// Lowest sequence below `target` whose bit is clear (bits past the end
/// of the bitmap are clear).
fn first_undone(done: &[u64], target: u64) -> Option<u64> {
    let w = done.iter().position(|&word| word != u64::MAX);
    let seq = w.map_or(done.len() as u64 * 64, |w| {
        (w as u64) * 64 + u64::from((!done[w]).trailing_zeros())
    });
    (seq < target).then_some(seq)
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
    /// Run start: the origin of every flow's throughput series.
    start: SimTime,
    packet_bytes: u64,
}

impl Shard<'_> {
    /// Queues one data packet for `seq` (a probe) and arms the RTO.
    fn send_data(&mut self, j: usize, seq: u64, now: SimTime) {
        let f = &mut self.flows[j];
        lane::set(f.engine.flow());
        let pkt = f.engine.send(now, seq);
        lane::clear();
        f.stats.sent += 1;
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

    /// Spends the controller's quota: lost sequences first, then fresh
    /// ones, shedding into the ledger when the overload cap is hit.
    fn pump(&mut self, j: usize, now: SimTime) {
        let c = self.c;
        let out = &mut self.out;
        let FlowState {
            engine,
            dest,
            target,
            done_bits,
            next_fresh,
            done_count,
            lost,
            stats,
            ..
        } = &mut self.flows[j];
        let mut shed: Vec<u64> = Vec::new();
        let next = |e: &FlowEngine| {
            while let Some(seq) = lost.pop_front() {
                if !bit_get(done_bits, seq) && !e.is_in_flight(seq) {
                    bump(&c.retransmits);
                    return Some(seq);
                }
            }
            (*next_fresh < *target).then(|| {
                *next_fresh += 1;
                *next_fresh - 1
            })
        };
        lane::set(engine.flow());
        let pumped = engine.pump(now, next, |grant| {
            stats.sent += 1;
            match grant {
                Pumped::Sent(pkt) => {
                    out.push(OutPacket {
                        to: *dest,
                        bytes: pkt.encode().to_vec(),
                    });
                    bump(&c.sent);
                }
                Pumped::Shed(seq) => shed.push(seq),
            }
            Ok::<(), Infallible>(())
        });
        lane::clear();
        let Ok(()) = pumped;
        // Sheds are finished here, after the pump: the sequence source
        // reads the done bits. Only newly finished sequences enter the
        // shed column (a sequence queued as lost twice can be shed twice
        // in one pump).
        for seq in shed {
            if bit_set(done_bits, seq) {
                *done_count += 1;
                stats.shed_dropped += 1;
                bump(&c.shed);
            }
        }
        self.arm_rto(j);
    }

    /// Closes a flow whose every sequence is acked-or-shed, or a
    /// draining flow with nothing in flight, then records the closure.
    fn finish(&mut self, j: usize, now: SimTime) {
        let f = &mut self.flows[j];
        if !f.closed_noted && !f.engine.session().is_closed() {
            let finished = f.done_count == f.target;
            lane::set(f.engine.flow());
            if finished {
                f.step(|s| s.begin_drain(now));
            }
            if finished || f.engine.in_flight() == 0 {
                f.step(|s| s.drained(now));
            }
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
    /// gap sweep, then the send path (pump, or a reconnect probe).
    fn epoch_fire(&mut self, j: usize, at: SimTime, now: SimTime) {
        let f = &mut self.flows[j];
        if f.closed_noted {
            return;
        }
        lane::set(f.engine.flow());
        while f.step(|s| s.poll(now)) {}
        let live = !f.engine.session().is_closed();
        let next_epoch = live.then(|| f.engine.tick_through(at, now));
        if live {
            let losses = f.engine.sweep_gaps(now, &mut f.lost);
            f.stats.fast_losses += losses;
            bump_by(&self.c.fast_losses, losses);
        }
        lane::clear();
        if f.engine.session().may_send() {
            self.pump(j, now);
        } else if live && f.engine.probe_due(now) {
            // Disconnected: probe on the backoff schedule. The probe
            // retransmits the lowest unfinished sequence, so the
            // ledger's sequence space stays exact.
            if let Some(seq) = first_undone(&f.done_bits, f.target) {
                if seq == f.next_fresh {
                    f.next_fresh += 1;
                }
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
    /// expiry clears the in-flight table into the lost queue (the next
    /// pumps retransmit it) and backs the RTO off.
    fn rto_fire(&mut self, j: usize, now: SimTime) {
        let f = &mut self.flows[j];
        f.rto_armed = false;
        if f.closed_noted {
            return;
        }
        lane::set(f.engine.flow());
        if f.engine.expire_rto(now, &mut f.lost) {
            f.stats.timeouts += 1;
            bump(&self.c.timeouts);
        }
        lane::clear();
        self.arm_rto(j);
        self.finish(j, now);
    }

    /// One inbound datagram: decode, route, run the engine's ACK rules,
    /// and finish the sequence in the ledger — a late ACK for an
    /// RTO-cleared packet finishes it too, though it fed no CC event; an
    /// ACK the engine refuses, or one for a sequence never sent,
    /// finishes nothing.
    fn handle_ack(&mut self, buf: &[u8], now: SimTime) {
        let Ok(ack) = AckPacket::decode(buf) else { return };
        let Some(&j) = self.route.get(&ack.flow) else { return };
        let f = &mut self.flows[j];
        if f.closed_noted || ack.seq >= f.next_fresh {
            return;
        }
        lane::set(ack.flow);
        let outcome = f.engine.on_ack(now, &ack);
        lane::clear();
        let Some(outcome) = outcome else { return };
        f.transitions.extend(outcome.transition);
        if let Some(delay) = outcome.delay {
            f.record_delay(delay.as_millis_f64());
        }
        if bit_set(&mut f.done_bits, ack.seq) {
            f.done_count += 1;
            f.stats.acked += 1;
            let at = now.saturating_since(self.start).as_secs_f64();
            f.stats.throughput.record(at, self.packet_bytes);
            bump(&self.c.acked);
        }
        let settle =
            f.done_count == f.target || f.engine.session().state() == SessionState::Draining;
        self.arm_rto(j);
        if settle {
            self.finish(j, now);
        }
    }

    /// A coordinator command to every live flow: `Drain` starts draining
    /// (flows still `Connecting`, or with nothing in flight, close at
    /// once), `Abort` closes now.
    fn command_all(&mut self, cmd: ShardCommand, now: SimTime) {
        for j in 0..self.flows.len() {
            let f = &mut self.flows[j];
            if f.closed_noted {
                continue;
            }
            lane::set(f.engine.flow());
            f.step(|s| match cmd {
                ShardCommand::Drain => s.begin_drain(now),
                ShardCommand::Abort => s.abort(now),
            });
            lane::clear();
            self.finish(j, now);
        }
    }
}

// ---------------------------------------------------------------------
// The worker thread
// ---------------------------------------------------------------------

struct WorkerInput {
    cfg: Arc<ShardServerConfig>,
    /// Delay samples each flow keeps.
    samples: usize,
    specs: Vec<FlowSpec>,
    mailbox: Arc<ShardMailbox>,
    stats: Arc<StatsPlane>,
    shard_index: usize,
    clock: WallClock,
    start: SimTime,
}

struct ShardOutcome {
    flows: Vec<FlowReport>,
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
    let socket = UdpSocket::bind(cfg.bind)?;
    let mut io = batcher_for(socket, cfg.io_mode)?;
    let mut shard = Shard {
        c,
        flows: Vec::with_capacity(input.specs.len()),
        route: HashMap::with_capacity(input.specs.len()),
        plane: TimerPlane::new(),
        out: Vec::new(),
        closed: 0,
        start: input.start,
        packet_bytes: u64::from(cfg.packet_bytes),
    };
    let clock = input.clock;
    let mut stagger = SplitMix64::new(cfg.seed ^ (input.shard_index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    for (j, spec) in input.specs.into_iter().enumerate() {
        shard.route.insert(spec.flow, j);
        shard.flows.push(FlowState::new(spec, &cfg, input.start, input.samples));
        let offset_ns = stagger.next_u64() % cfg.stagger.as_nanos().max(1);
        shard.plane.arm(
            input.start + SimDuration::from_nanos(offset_ns),
            TimerKind::Epoch { flow: flow_index(j) },
        );
    }
    // Every flow's sample storage is allocated after every flow's report
    // buffers, so that freeing it when the reports are built leaves one
    // free region, not a hole next to each flow's kept buffers. On
    // `udp_crowd`, whose perfbench passes all keep their reports, those
    // holes cost 15–20 % CPU per packet by the tenth pass.
    for f in &mut shard.flows {
        f.delays.preallocate();
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
            // A fixed quantum, not a sleep toward the next deadline:
            // ACKs that arrive meanwhile are stamped when the loop wakes
            // (see the module docs).
            thread::sleep(PACING_SLEEP);
        }
    }
    let end = clock.now();
    let start = shard.start;
    Ok(ShardOutcome {
        flows: shard
            .flows
            .into_iter()
            .map(|f| f.into_report(start, end))
            .collect(),
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
            .map(|p| {
                p.iter()
                    .fold(0, |acc: u64, s| acc.saturating_add(s.packets))
            })
            .collect();
        let flows_per: Vec<usize> = parts.iter().map(Vec::len).collect();
        let total: usize = flows_per.iter().sum();
        // The server keeps at most `Reservoir::DEFAULT_CAP` delay samples
        // in all, split evenly across its flows: one flow keeps them all,
        // a crowd's flows a few dozen each.
        let samples = (Reservoir::DEFAULT_CAP / total.max(1)).max(1);
        let stats = Arc::new(StatsPlane::new(shards));
        let mailboxes: Vec<Arc<ShardMailbox>> =
            (0..shards).map(|_| Arc::new(ShardMailbox::new())).collect();
        let cfg = Arc::new(self.config.clone());
        let start = clock.now();
        let mut handles = Vec::with_capacity(shards);
        for (i, specs) in parts.into_iter().enumerate() {
            let input = WorkerInput {
                cfg: Arc::clone(&cfg),
                samples,
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
        let mut flows_by_shard = Vec::with_capacity(shards);
        for (i, handle) in handles.into_iter().enumerate() {
            let outcome = handle
                .join()
                .map_err(|_| io::Error::new(io::ErrorKind::Other, "shard thread panicked"))??;
            flows_by_shard.push(outcome.flows.into_iter());
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
        // Spec i ran as shard i % shards's (i / shards)-th flow. One
        // shard's reports are in spec order already: its Vec is handed
        // over as is, since a fresh one per run fragments the heap the
        // next run allocates from when the caller keeps many reports
        // (it raised `udp_crowd`'s setup_s by a fifth).
        let flows = if shards == 1 {
            flows_by_shard
                .pop()
                .map_or_else(Vec::new, Iterator::collect)
        } else {
            (0..total)
                .filter_map(|i| flows_by_shard[i % shards].next())
                .collect()
        };
        Ok(LoadReport {
            shards: snapshots,
            flows,
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
        // The bitmap grows on demand, so bits past its end are clear.
        assert_eq!(
            first_undone(&full, 1000),
            Some(128),
            "target beyond the bitmap"
        );
        assert_eq!(first_undone(&[], 5), Some(0));
        let mut grown = Vec::new();
        assert!(bit_set(&mut grown, 200), "setting past the end grows");
        assert_eq!(grown.len(), 4);
        assert!(bit_get(&grown, 200));
        assert!(!bit_get(&grown, 10_000), "past the end reads clear");
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
            flows: Vec::new(),
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

    // -----------------------------------------------------------------
    // One-flow runs: the single-flow sender behaviours
    // -----------------------------------------------------------------

    use crate::receiver::Receiver;
    use std::sync::Mutex;
    use verus_core::VerusCc;
    use verus_nettypes::{AckEvent, DataPacket, FixedWindow, LossEvent};

    fn quick_session() -> SessionConfig {
        SessionConfig {
            idle_degraded: SimDuration::from_millis(150),
            degraded_grace: SimDuration::from_millis(100),
            drain_timeout: SimDuration::from_millis(500),
            backoff_base: SimDuration::from_millis(20),
            backoff_cap: SimDuration::from_millis(200),
            seed: 11,
            session_id: 1,
        }
    }

    /// Runs `cc` as the one unbounded flow of a one-shard server to
    /// `dest` for `deadline_ms`, with `cfg`'s other settings.
    fn one_flow(
        dest: SocketAddr,
        deadline_ms: u64,
        cfg: ShardServerConfig,
        cc: Box<dyn CongestionControl>,
    ) -> (LoadReport, FlowReport) {
        let server = ShardServer::new(ShardServerConfig {
            deadline: SimDuration::from_millis(deadline_ms),
            stagger: SimDuration::ZERO,
            ..cfg
        });
        let spec = FlowSpec {
            flow: 1,
            dest,
            packets: u64::MAX,
            cc,
        };
        let mut report = server.run(vec![spec], WallClock::new()).expect("run");
        let flow = report.flows.remove(0);
        (report, flow)
    }

    fn quick() -> ShardServerConfig {
        ShardServerConfig {
            session: quick_session(),
            ..ShardServerConfig::default()
        }
    }

    #[test]
    fn one_flow_establishes_transfers_and_drains() {
        let rx = Receiver::spawn("127.0.0.1:0", WallClock::new()).unwrap();
        let (_, report) = one_flow(rx.local_addr(), 400, quick(), Box::new(FixedWindow::new(4)));
        rx.stop();

        assert_eq!(report.final_state, SessionState::Closed);
        assert!(report.reached_established(), "never connected");
        assert!(report.stats.acked > 0, "no data acknowledged");
        assert_eq!(report.stats.shed_dropped, 0, "no cap configured");
        let recoveries = report.recovery_times();
        assert_eq!(recoveries.len(), 1, "exactly the initial connect");
        // First transition must be Connecting -> Established.
        assert_eq!(report.transitions[0].from, SessionState::Connecting);
        assert_eq!(report.transitions[0].to, SessionState::Established);
    }

    #[test]
    fn dead_peer_degrades_and_probes_at_backoff() {
        // Bind a socket that never answers: the session must probe at
        // its backoff and still close by the drain deadline.
        let dead = UdpSocket::bind("127.0.0.1:0").unwrap();
        let (_, report) = one_flow(
            dead.local_addr().unwrap(),
            600,
            quick(),
            Box::new(FixedWindow::new(2)),
        );

        assert_eq!(report.final_state, SessionState::Closed, "flow got stuck");
        assert!(!report.reached_established());
        assert!(
            report.probes >= 2,
            "only {} probes against a dead peer",
            report.probes
        );
        // Against a dead peer nothing is ever acked.
        assert_eq!(report.stats.acked, 0);
    }

    #[test]
    fn shed_cap_counts_refused_quota() {
        let rx = Receiver::spawn("127.0.0.1:0", WallClock::new()).unwrap();
        // Cap 0: the guard refuses every data-path quota grant, so the
        // only wire traffic is session probes — fully deterministic, no
        // race against how fast loopback ACKs drain the in-flight table.
        let cfg = ShardServerConfig {
            shed_outstanding_cap: Some(0),
            ..quick()
        };
        let (_, report) = one_flow(rx.local_addr(), 300, cfg, Box::new(FixedWindow::new(8)));
        rx.stop();
        assert!(report.reached_established(), "probe never connected");
        assert!(
            report.stats.shed_dropped > 0,
            "cap 0 under window 8 never shed"
        );
        // Sequence-number conservation: everything sent is either real
        // or shed, and acked packets were real.
        assert!(report.stats.acked <= report.stats.sent - report.stats.shed_dropped);
    }

    #[test]
    fn an_unbounded_flow_closes_soon_after_its_deadline() {
        // The flow drains as soon as nothing is in flight, instead of
        // waiting out the 2 s drain timeout, and its budget is not
        // allocated up front.
        let rx = Receiver::spawn("127.0.0.1:0", WallClock::new()).unwrap();
        let (load, report) = one_flow(
            rx.local_addr(),
            1_000,
            ShardServerConfig::default(),
            Box::new(FixedWindow::new(4)),
        );
        rx.stop();
        assert_eq!(report.final_state, SessionState::Closed);
        assert!(report.stats.acked > 0);
        assert!(
            load.wall < SimDuration::from_millis(1_500),
            "a 1 s run took {} ms",
            load.wall.as_millis_f64()
        );
        assert_eq!(load.offered(), u64::MAX);
    }

    /// Forwards to Verus and records what each ACK added to the one-way
    /// delay on the way back (`rtt − delay`), ms.
    struct ReturnPath {
        inner: VerusCc,
        samples: Arc<Mutex<Vec<f64>>>,
    }

    impl CongestionControl for ReturnPath {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn quota(&mut self, now: SimTime, in_flight: usize) -> usize {
            self.inner.quota(now, in_flight)
        }
        fn on_packet_sent(&mut self, now: SimTime, seq: u64, bytes: u64) {
            self.inner.on_packet_sent(now, seq, bytes);
        }
        fn on_ack(&mut self, now: SimTime, ev: &AckEvent) {
            let back = ev.rtt.as_millis_f64() - ev.delay.as_millis_f64();
            self.samples.lock().unwrap().push(back);
            self.inner.on_ack(now, ev);
        }
        fn on_loss(&mut self, now: SimTime, ev: &LossEvent) {
            self.inner.on_loss(now, ev);
        }
        fn tick_interval(&self) -> Option<SimDuration> {
            self.inner.tick_interval()
        }
        fn on_tick(&mut self, now: SimTime) {
            self.inner.on_tick(now);
        }
        fn window(&self) -> f64 {
            self.inner.window()
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    #[test]
    fn acks_are_stamped_within_half_an_epoch() {
        // On loopback the return path is microseconds, so what a
        // controller sees as `rtt − delay` is how late the shard stamped
        // the ACK. Verus's delay signal is the RTT, so the lag must stay
        // well under its 5 ms epoch.
        let samples = Arc::new(Mutex::new(Vec::new()));
        let cc = ReturnPath {
            inner: VerusCc::default(),
            samples: Arc::clone(&samples),
        };
        let rx = Receiver::spawn("127.0.0.1:0", WallClock::new()).unwrap();
        let (_, report) = one_flow(
            rx.local_addr(),
            1_000,
            ShardServerConfig::default(),
            Box::new(cc),
        );
        rx.stop();
        assert!(
            report.stats.acked > 100,
            "only {} acked",
            report.stats.acked
        );
        let mut v = samples.lock().unwrap().clone();
        v.sort_by(f64::total_cmp);
        let median = v[v.len() / 2];
        assert!(median < 2.5, "median ACK stamping lag {median:.3} ms");
    }

    /// A fixed window that logs every nonzero quota it grants.
    struct Granting {
        window: usize,
        grants: Arc<Mutex<Vec<usize>>>,
    }

    impl CongestionControl for Granting {
        fn name(&self) -> &'static str {
            "granting"
        }
        fn quota(&mut self, _now: SimTime, in_flight: usize) -> usize {
            let q = self.window.saturating_sub(in_flight);
            if q > 0 {
                self.grants.lock().unwrap().push(q);
            }
            q
        }
        fn on_packet_sent(&mut self, _now: SimTime, _seq: u64, _bytes: u64) {}
        fn on_ack(&mut self, _now: SimTime, _ev: &AckEvent) {}
        fn on_loss(&mut self, _now: SimTime, _ev: &LossEvent) {}
        fn window(&self) -> f64 {
            self.window as f64
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    #[test]
    fn delay_samples_are_capped_and_the_mean_stays_exact() {
        let spec = FlowSpec {
            flow: 3,
            dest: SocketAddr::from(([127, 0, 0, 1], 9)),
            packets: u64::MAX,
            cc: Box::new(FixedWindow::new(1)),
        };
        let mut f = FlowState::new(
            spec,
            &ShardServerConfig::default(),
            SimTime::ZERO,
            Reservoir::DEFAULT_CAP,
        );
        let n = Reservoir::DEFAULT_CAP as u64 * 3 + 17;
        for i in 0..n {
            f.record_delay(i as f64);
        }
        assert_eq!(f.delays.len(), Reservoir::DEFAULT_CAP);
        assert_eq!(f.delays.seen(), n);
        let report = f.into_report(SimTime::ZERO, SimTime::from_secs(1));
        let stats = &report.stats;
        assert_eq!(stats.delay_stats.count(), n);
        // The mean of 0..n is (n − 1) / 2: over every sample, not just
        // the retained ones.
        let want = (n - 1) as f64 / 2.0;
        assert!(
            (stats.mean_delay_ms() - want).abs() < 1e-6 * want,
            "mean {} vs {want}",
            stats.mean_delay_ms()
        );
        let summary = stats.delay_summary.expect("samples were kept");
        assert_eq!(summary.count, Reservoir::DEFAULT_CAP);
    }

    fn wire_seqs(out: &[OutPacket]) -> Vec<u64> {
        out.iter()
            .map(|p| DataPacket::decode(&p.bytes).unwrap().seq)
            .collect()
    }

    #[test]
    fn retransmissions_after_an_rto_spend_the_controllers_quota() {
        // A socket-free shard driven by hand: connect, send a window of
        // 4, lose all of it to an RTO, then check the next epoch fire.
        let ms = SimTime::from_millis;
        let grants = Arc::new(Mutex::new(Vec::new()));
        let cfg = ShardServerConfig {
            packet_bytes: 100,
            session: SessionConfig {
                idle_degraded: SimDuration::from_secs(60),
                ..SessionConfig::default()
            },
            ..ShardServerConfig::default()
        };
        let spec = FlowSpec {
            flow: 7,
            dest: SocketAddr::from(([127, 0, 0, 1], 9)),
            packets: 1_000,
            cc: Box::new(Granting {
                window: 4,
                grants: Arc::clone(&grants),
            }),
        };
        let counters = ShardCounters::default();
        let mut shard = Shard {
            c: &counters,
            flows: vec![FlowState::new(spec, &cfg, SimTime::ZERO, 64)],
            route: HashMap::from([(7, 0)]),
            plane: TimerPlane::new(),
            out: Vec::new(),
            closed: 0,
            start: SimTime::ZERO,
            packet_bytes: 100,
        };

        // Connecting: the first fire probes; its ACK establishes.
        shard.epoch_fire(0, ms(0), ms(0));
        assert_eq!(wire_seqs(&shard.out), vec![0]);
        let probe = DataPacket::decode(&shard.out[0].bytes).unwrap();
        let ack = AckPacket::for_packet(&probe, ms(5).as_micros());
        shard.handle_ack(&ack.encode(), ms(10));
        shard.out.clear();

        // Established: a window of fresh sequences, never acknowledged.
        shard.epoch_fire(0, ms(15), ms(15));
        assert_eq!(wire_seqs(&shard.out), vec![1, 2, 3, 4]);
        shard.out.clear();
        let rto = shard.flows[0].engine.rto_deadline().expect("RTO armed");
        shard.rto_fire(0, rto);
        assert_eq!(counters.snapshot().timeouts, 1);
        assert_eq!(shard.flows[0].engine.in_flight(), 0, "RTO cleared 4");

        grants.lock().unwrap().clear();
        let later = rto + SimDuration::from_millis(1);
        shard.epoch_fire(0, later, later);
        let granted: usize = grants.lock().unwrap().iter().sum();
        assert!(
            shard.out.len() <= granted,
            "sent {} packets on a grant of {granted}",
            shard.out.len()
        );
        assert_eq!(
            wire_seqs(&shard.out),
            vec![1, 2, 3, 4],
            "the lost sequences go first"
        );
        assert_eq!(counters.snapshot().retransmits, 4);
    }
}
