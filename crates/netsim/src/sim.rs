//! The event loop.
//!
//! One [`Simulation`] holds the flows, the bottleneck (fixed or
//! trace-driven) and its queue, and a time-ordered event scheduler.
//! Events are processed strictly in `(time, tie)` order, where the tie
//! is a *canonical* key rather than a global insertion counter: at equal
//! timestamps an `Observe` callback dispatches first, then flow events
//! in `(flow, per-flow schedule counter)` order, then channel events
//! (bottleneck service, link state) in the order they were scheduled.
//! Runs are deterministic per seed, and a flow's position in the
//! dispatch order does not depend on how *other* flows' events happened
//! to interleave in a shared counter.
//!
//! Two schedulers implement that order (see [`SchedulerKind`]): the
//! default hierarchical timing wheel ([`crate::wheel`], O(1) per event)
//! with per-TTI delivery batching and coalesced RTO checks, and a
//! [`Reference`](SchedulerKind::Reference) binary heap with one event
//! per packet and per RTO arm, kept as the equivalence oracle behind
//! [`Simulation::with_scheduler`]. The wheel's batch boundaries are
//! chosen so the dispatch order — and therefore every report and trace
//! byte — is identical to the reference.
//!
//! Transport model (identical for every protocol; only the congestion
//! controller differs):
//!
//! * a flow is full-buffer: whenever the controller grants quota, packets
//!   are created, stamped with `(seq, send time, current window)` and
//!   enqueued at the bottleneck;
//! * the receiver ACKs every delivered packet; ACKs travel back over an
//!   uncongested path with the flow's ACK delay (the paper's downlink
//!   experiments assume an unloaded uplink);
//! * loss detection is duplicate-ACK-equivalent packet counting for the
//!   TCP-style protocols and the 3×delay gap timer of §5.2 for Verus;
//!   an RFC 6298 RTO (with exponential backoff) backs both up;
//! * a retransmission is a fresh packet with a fresh sequence number
//!   (the Verus prototype's bookkeeping); since payloads are filler,
//!   goodput equals throughput and the reports count delivered packets.

use crate::bottleneck::{BottleneckConfig, FixedParams};
use crate::config::{LossDetection, SimConfig};
use crate::impairment::{Impairments, IngressFate};
use crate::metrics::FlowReport;
use crate::outstanding::OutstandingTable;
use crate::queue::{EnqueueResult, Queue, QueuedPacket};
use crate::wheel::TimingWheel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use verus_cellular::trace::Opportunity;
use verus_nettypes::{
    AckEvent, CongestionControl, LossEvent, LossKind, RttEstimator, SimDuration, SimTime,
};
use verus_stats::{Reservoir, Running, ThroughputSeries};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    /// Flow begins sending.
    FlowStart(usize),
    /// Controller clock tick (Verus ε epochs, Sprout 20 ms ticks).
    CcTick(usize),
    /// Fixed link finished serializing the packet in service.
    FixedDepart,
    /// Cell link delivery opportunity (index into the looped trace).
    CellOpportunity,
    /// Packet reaches the receiver.
    Deliver {
        flow: usize,
        seq: u64,
        bytes: u32,
        sent_at: SimTime,
        abc: Option<bool>,
    },
    /// ACK reaches the sender.
    AckArrive {
        flow: usize,
        seq: u64,
        bytes: u32,
        sent_at: SimTime,
        delivered_at: SimTime,
        abc: Option<bool>,
    },
    /// A whole TTI's worth of packets for one flow reaches the receiver
    /// (wheel scheduler only; index into the batch slab).
    DeliverBatch(usize),
    /// The ACKs for a delivered batch reach the sender (wheel scheduler
    /// only; index into the batch slab).
    AckBatch(usize),
    /// Verus-style reordering timer for a specific hole.
    GapTimer { flow: usize, seq: u64 },
    /// Retransmission-timeout check.
    RtoCheck(usize),
    /// Fixed-link parameter step (index into the schedule).
    ParamChange(usize),
    /// A scheduled link blackout ends: restart the bottleneck service.
    BlackoutEnd,
    /// Observer callback.
    Observe,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Event {
    time: SimTime,
    tie: u64,
    kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.tie).cmp(&(other.time, other.tie))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Which event scheduler a [`Simulation`] runs on.
///
/// Both produce the exact same dispatch order, so reports and traces
/// are byte-identical; only the cost differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Hierarchical timing wheel (O(1) schedule/pop) with per-TTI
    /// delivery batching and one pending RTO check per flow. The
    /// default.
    Wheel,
    /// The behaviour oracle: a `BinaryHeap` with one event per
    /// delivered packet and per ACK, and one `RtoCheck` event per RTO
    /// arm — everything the wheel optimises away at the simulation
    /// level, kept so the fast path has something to be compared to.
    Reference,
}

/// Tie-space classes (see the module doc). The tie is a 64-bit key:
///
/// * `Observe` uses tie `0` — first at its timestamp;
/// * flow events use `FLOW_CLASS | flow << 32 | ctr`, where `ctr` is the
///   flow's own monotone schedule counter, so same-timestamp flow events
///   dispatch in `(flow, schedule order)` — a canonical order that does
///   not depend on cross-flow interleaving;
/// * channel events use `CHAN_CLASS | ctr` (a channel-local counter) and
///   sort after every flow event at the same timestamp.
///
/// Tie values are *not* globally monotone (two flows' counters advance
/// independently); both schedulers order by the full `(time, tie)` key,
/// not by insertion.
const FLOW_CLASS: u64 = 1 << 62;
const CHAN_CLASS: u64 = 1 << 63;
const OBSERVE_TIE: u64 = 0;
/// Flow ids must fit the 30 bits between `FLOW_CLASS` and the counter.
const MAX_FLOWS: usize = 1 << 30;

/// The pluggable event queue: both variants pop in `(time, tie)` order.
enum Sched {
    Wheel(TimingWheel<EventKind>),
    Heap(BinaryHeap<Reverse<Event>>),
}

impl Sched {
    fn new(kind: SchedulerKind) -> Self {
        match kind {
            SchedulerKind::Wheel => Sched::Wheel(TimingWheel::new()),
            SchedulerKind::Reference => Sched::Heap(BinaryHeap::new()),
        }
    }

    fn push(&mut self, time: SimTime, tie: u64, kind: EventKind) {
        match self {
            Sched::Wheel(w) => w.schedule(time, tie, kind),
            Sched::Heap(h) => h.push(Reverse(Event { time, tie, kind })),
        }
    }

    fn pop_next(&mut self) -> Option<(SimTime, u64, EventKind)> {
        match self {
            Sched::Wheel(w) => w.pop_next(),
            Sched::Heap(h) => h.pop().map(|Reverse(e)| (e.time, e.tie, e.kind)),
        }
    }
}

/// One packet inside a delivery batch.
#[derive(Debug, Clone, Copy)]
struct BatchPkt {
    seq: u64,
    bytes: u32,
    sent_at: SimTime,
    /// ABC mark stamped at cell dequeue (rides the batch so the ACK
    /// can echo it; `None` when marking is off).
    abc: Option<bool>,
}

/// A TTI's worth of same-flow, same-arrival-time packets, carried first
/// by a `DeliverBatch` event and then re-armed as the matching
/// `AckBatch`. Slots live in a slab with a free list; the `pkts` Vec is
/// recycled with its capacity, so steady state allocates nothing.
struct Batch {
    flow: usize,
    delivered_at: SimTime,
    pkts: Vec<BatchPkt>,
}

#[derive(Debug, Clone, Copy)]
struct PacketMeta {
    send_window: f64,
    /// ACKs seen for later sequence numbers (duplicate-ACK equivalent).
    later_acks: u32,
    /// Armed gap timer, if any.
    gap_deadline: Option<SimTime>,
}

struct FlowState {
    cc: Box<dyn CongestionControl>,
    start: SimTime,
    extra_fwd_delay: SimDuration,
    extra_ack_delay: SimDuration,
    packet_bytes: u32,
    loss_detection: LossDetection,
    /// Monotone per-flow schedule counter — the low half of this flow's
    /// event ties (see [`FLOW_CLASS`]).
    ctr: u32,
    /// Finite-transfer limit (bytes) and completion bookkeeping.
    transfer_bytes: Option<u64>,
    delivered_bytes: u64,
    completed_at: Option<SimTime>,
    started: bool,
    next_seq: u64,
    outstanding: OutstandingTable<PacketMeta>,
    rtt: RttEstimator,
    rto_deadline: Option<SimTime>,
    /// Earliest pending `RtoCheck` event for this flow (wheel scheduler;
    /// always `None` under the reference, which does not coalesce).
    rto_check_at: Option<SimTime>,
    rto_retries: u32,
    // metrics
    throughput: ThroughputSeries,
    /// Raw per-delivery samples, reservoir-capped so long crowd runs
    /// stay bounded; left empty when sample buffering is off.
    delays: Reservoir,
    /// Exact delay moments over every delivery, always on.
    delay_stats: Running,
    sent: u64,
    delivered: u64,
    fast_losses: u64,
    timeouts: u64,
    // Packet-location ledger (see `crate::invariants`): every sent
    // packet (and every injected duplicate) is in exactly one of these
    // buckets or `delivered`.
    radio_lost: u64,
    queue_drops: u64,
    in_queue: u64,
    in_transit: u64,
    impaired_lost: u64,
    corrupt_dropped: u64,
    shed_dropped: u64,
    dup_injected: u64,
    /// Overload guard: outstanding-table occupancy above which new
    /// packets are shed into `shed_dropped` instead of launched
    /// (`None` = never shed; see [`crate::FlowConfig::with_shed_cap`]).
    shed_cap: Option<usize>,
}

impl FlowState {
    // Only the per-event conservation assert reads this; release builds
    // without `strict-invariants` check the report-level ledger instead.
    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    fn ledger(&self) -> crate::invariants::Ledger {
        crate::invariants::Ledger {
            sent: self.sent,
            dup_injected: self.dup_injected,
            radio_lost: self.radio_lost,
            impaired_lost: self.impaired_lost,
            queue_drops: self.queue_drops,
            corrupt_dropped: self.corrupt_dropped,
            shed_dropped: self.shed_dropped,
            in_queue: self.in_queue,
            in_transit: self.in_transit,
            delivered: self.delivered,
        }
    }
}

enum Service {
    Fixed {
        schedule: Vec<(SimTime, FixedParams)>,
        current: FixedParams,
        busy: bool,
    },
    Cell(CellService),
}

/// The trace-driven cell bottleneck: a looping schedule of delivery
/// opportunities and the byte credit they accumulate against a backlog.
///
/// An idle link parks, as the fixed link idles with `busy` off: a drain
/// that leaves the queue empty schedules no further opportunity, since
/// every one before the next enqueue would find nothing to send and
/// bank no credit. The next enqueue re-arms it ([`CellService::unpark`])
/// at the first opportunity at or after that moment. A cell with an ABC
/// marker never parks: the marker observes every idle opportunity.
struct CellService {
    opportunities: Vec<Opportunity>,
    /// The next opportunity not yet processed, and the start of the
    /// trace loop it belongs to.
    next_index: usize,
    base_duration: SimDuration,
    loop_offset: SimDuration,
    /// No `CellOpportunity` event is pending.
    parked: bool,
    /// Accumulated byte credit while the queue is backlogged.
    credit: u64,
    base_rtt: SimDuration,
    loss: f64,
    /// ABC accelerate/brake marker; allocated only when the simulation
    /// opts in, so the default path touches no marker state at all.
    abc: Option<crate::abc::AbcMarker>,
}

impl CellService {
    fn from_trace(
        trace: verus_cellular::Trace,
        base_rtt: SimDuration,
        loss: f64,
        abc: Option<crate::abc::AbcConfig>,
    ) -> Self {
        Self {
            base_duration: trace.duration(),
            opportunities: trace.into_opportunities(),
            next_index: 0,
            loop_offset: SimDuration::ZERO,
            parked: false,
            credit: 0,
            base_rtt,
            loss,
            abc: abc.map(crate::abc::AbcMarker::new),
        }
    }

    /// Processes one delivery opportunity: accumulates credit against a
    /// backlog, dequeues every packet the credit covers into
    /// `deliveries`, and returns the next opportunity's (loop-adjusted)
    /// time, or `None` when the link parks. During a blackout the
    /// opportunity is wasted — no drain, no banked credit; the radio is
    /// gone, not merely idle.
    fn drain(
        &mut self,
        now: SimTime,
        blackout: bool,
        queue: &mut Queue,
        deliveries: &mut Vec<QueuedPacket>,
    ) -> Option<SimTime> {
        let opp = self.opportunities[self.next_index];
        // Credit accumulates only against a backlog; capacity cannot
        // be banked while there is nothing to send (mahimahi
        // semantics).
        if blackout || queue.is_empty() {
            self.credit = 0;
            if let Some(m) = self.abc.as_mut() {
                m.on_idle(now);
            }
        } else {
            self.credit += u64::from(opp.bytes);
            if let Some(m) = self.abc.as_mut() {
                let head_wait = queue
                    .peek_enqueued()
                    .map_or(SimDuration::ZERO, |t| now.saturating_since(t));
                m.on_opportunity(now, opp.bytes, head_wait);
            }
            while let Some(head) = queue.peek_bytes() {
                if u64::from(head) > self.credit {
                    break;
                }
                let Some(mut pkt) = queue.dequeue() else { break };
                self.credit -= u64::from(head);
                if let Some(m) = self.abc.as_mut() {
                    pkt.abc_mark = Some(m.mark(head));
                }
                deliveries.push(pkt);
            }
            if queue.is_empty() {
                self.credit = 0;
            }
        }
        self.advance();
        if queue.is_empty() && self.abc.is_none() {
            self.parked = true;
            return None;
        }
        Some(self.next_time().max(now))
    }

    /// Moves to the next opportunity, looping the trace.
    fn advance(&mut self) {
        self.next_index += 1;
        if self.next_index >= self.opportunities.len() {
            self.next_index = 0;
            self.loop_offset += self.base_duration;
        }
    }

    /// The next opportunity's loop-adjusted time.
    fn next_time(&self) -> SimTime {
        self.opportunities[self.next_index].time + self.loop_offset
    }

    /// Re-arms a parked link after an enqueue at `now`: skips the
    /// opportunities before `now` (each would have found the queue empty)
    /// and returns the time of the first one at or after it. `None` if
    /// the link was not parked.
    fn unpark(&mut self, now: SimTime) -> Option<SimTime> {
        if !self.parked {
            return None;
        }
        self.parked = false;
        while self.next_time() < now {
            self.advance();
        }
        Some(self.next_time())
    }
}

/// Builds one flow's report at quiesce. The thread's trace lane is set
/// to the flow's id for the duration: consuming the `FlowState` drops
/// its controller, and a controller holding a `TraceHandle` flushes its
/// buffered tail records on drop — those must land on the flow's lane
/// like every other record it emitted.
fn build_report(flow: usize, f: FlowState, end_secs: f64) -> FlowReport {
    verus_trace::lane::set(u32::try_from(flow).unwrap_or(u32::MAX - 1));
    let report = FlowReport {
        protocol: f.cc.name().to_string(),
        flow,
        throughput: f.throughput,
        delays_ms: f.delays.into_samples(),
        delay_stats: f.delay_stats,
        sent: f.sent,
        delivered: f.delivered,
        fast_losses: f.fast_losses,
        timeouts: f.timeouts,
        radio_lost: f.radio_lost,
        queue_drops: f.queue_drops,
        impaired_lost: f.impaired_lost,
        corrupt_dropped: f.corrupt_dropped,
        shed_dropped: f.shed_dropped,
        dup_injected: f.dup_injected,
        residual_in_queue: f.in_queue,
        residual_in_transit: f.in_transit,
        active_secs: (end_secs - f.start.as_secs_f64()).max(0.0),
        completion_secs: f
            .completed_at
            .map(|t| t.saturating_since(f.start).as_secs_f64()),
    };
    // Drop the controller (and its trace tail) while the lane is still
    // set; the remaining fields are plain data.
    drop(f.cc);
    verus_trace::lane::clear();
    report
}

/// Rounds an RTO deadline up to the next timing-wheel granule boundary
/// (2²⁰ ns ≈ 1.05 ms). The deadline restarts on every ACK, so an exact
/// deadline almost never fires where it was armed, yet every distinct
/// value the tracked check re-arms at costs a scheduler insert.
/// Quantized, all re-arm targets inside one granule collapse to a single
/// deadline — one insert per (flow, granule). Applied identically under
/// every scheduler (including the reference) so the engines stay
/// byte-identical; an RTO fires at most ~1.05 ms later than the RFC 6298
/// value, well inside its own safety margin.
fn quantize_rto(deadline: SimTime) -> SimTime {
    let g = 1u64 << crate::wheel::GRAN_BITS;
    SimTime::from_nanos(deadline.as_nanos().saturating_add(g - 1) & !(g - 1))
}

/// Seed for a flow's delay-sample reservoir: derived from the run seed
/// but independent of the simulation's own RNG stream, and stable across
/// scheduler implementations.
fn delay_reservoir_seed(seed: u64, flow: usize) -> u64 {
    seed ^ (flow as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A configured, runnable simulation.
pub struct Simulation {
    now: SimTime,
    end: SimTime,
    sched: Sched,
    sched_kind: SchedulerKind,
    /// Monotone counter for channel-class event ties (see [`CHAN_CLASS`]).
    chan_ctr: u64,
    flows: Vec<FlowState>,
    queue: Queue,
    service: Service,
    rng: StdRng,
    impairments: Impairments,
    /// Whether raw per-delivery delay samples are buffered into
    /// `delays_ms` (the exact moments are recorded either way).
    record_delay_samples: bool,
    /// Logical events processed so far (throughput figure for the perf
    /// baseline). A delivery/ACK batch of k packets counts as k, so the
    /// figure stays comparable across schedulers.
    events: u64,
    /// Running sum of every flow's `in_queue` (for O(1) queue-occupancy
    /// invariant checks).
    in_queue_total: u64,
    /// Batch slab + free list for `DeliverBatch`/`AckBatch` events.
    batches: Vec<Batch>,
    batch_free: Vec<usize>,
    // Scratch buffers reused across events so the hot loop performs no
    // per-event heap allocation (they are taken, drained, and put back).
    scratch_deliveries: Vec<QueuedPacket>,
    scratch_condemned: Vec<u64>,
    scratch_arm: Vec<(u64, SimTime)>,
    /// Open delivery groups of the TTI being drained: `(flow,
    /// arrival time, batch slot)`.
    scratch_groups: Vec<(usize, SimTime, usize)>,
    /// Flows whose ledger the current event touched (invariant builds
    /// only) — conservation is checked per touched flow, not per flow.
    scratch_touched: Vec<usize>,
}

impl Simulation {
    /// Builds a simulation from a validated configuration.
    pub fn new(config: SimConfig) -> Result<Self, String> {
        config.validate()?;
        if config.flows.len() >= MAX_FLOWS {
            return Err(format!(
                "flow count {} exceeds the tie-encoding limit of {}",
                config.flows.len(),
                MAX_FLOWS
            ));
        }
        let end = SimTime::ZERO + config.duration;
        let window_s = config.throughput_window.as_secs_f64();
        let seed = config.seed;
        let flows: Vec<FlowState> = config
            .flows
            .into_iter()
            .enumerate()
            .map(|(i, f)| FlowState {
                cc: f.cc,
                start: f.start,
                extra_fwd_delay: f.extra_fwd_delay,
                extra_ack_delay: f.extra_ack_delay,
                packet_bytes: f.packet_bytes,
                loss_detection: f.loss_detection,
                ctr: 0,
                transfer_bytes: f.transfer_bytes,
                delivered_bytes: 0,
                completed_at: None,
                started: false,
                next_seq: 0,
                outstanding: OutstandingTable::new(),
                rtt: RttEstimator::default(),
                rto_deadline: None,
                rto_check_at: None,
                rto_retries: 0,
                throughput: ThroughputSeries::new(window_s),
                delays: Reservoir::new(Reservoir::DEFAULT_CAP, delay_reservoir_seed(seed, i)),
                delay_stats: Running::new(),
                sent: 0,
                delivered: 0,
                fast_losses: 0,
                timeouts: 0,
                radio_lost: 0,
                queue_drops: 0,
                in_queue: 0,
                in_transit: 0,
                impaired_lost: 0,
                corrupt_dropped: 0,
                shed_dropped: 0,
                dup_injected: 0,
                shed_cap: f.shed_outstanding_cap,
            })
            .collect();

        let service = match config.bottleneck {
            BottleneckConfig::Fixed { schedule } => Service::Fixed {
                current: schedule[0].1,
                schedule,
                busy: false,
            },
            BottleneckConfig::Cell {
                trace,
                base_rtt,
                loss,
            } => Service::Cell(CellService::from_trace(trace, base_rtt, loss, config.abc)),
        };

        let mut sim = Self {
            now: SimTime::ZERO,
            end,
            sched: Sched::new(SchedulerKind::Wheel),
            sched_kind: SchedulerKind::Wheel,
            chan_ctr: 0,
            flows,
            queue: Queue::new(config.queue),
            service,
            rng: StdRng::seed_from_u64(config.seed),
            impairments: Impairments::new(config.impairments),
            record_delay_samples: true,
            events: 0,
            in_queue_total: 0,
            batches: Vec::new(),
            batch_free: Vec::new(),
            scratch_deliveries: Vec::new(),
            scratch_condemned: Vec::new(),
            scratch_arm: Vec::new(),
            scratch_groups: Vec::new(),
            scratch_touched: Vec::new(),
        };

        for i in 0..sim.flows.len() {
            let start = sim.flows[i].start;
            sim.schedule_flow(i, start, EventKind::FlowStart(i));
        }
        // Wake the bottleneck when each blackout lifts (a blacked-out
        // fixed link refuses to start serving; something must restart it).
        for end_at in sim.impairments.blackout_ends() {
            sim.schedule_chan(end_at, EventKind::BlackoutEnd);
        }
        if let Service::Fixed { ref schedule, .. } = sim.service {
            let steps: Vec<(usize, SimTime)> = schedule
                .iter()
                .enumerate()
                .skip(1)
                .map(|(i, (t, _))| (i, *t))
                .collect();
            for (i, t) in steps {
                sim.schedule_chan(t, EventKind::ParamChange(i));
            }
        }
        if let Service::Cell(ref c) = sim.service {
            let first = c.opportunities[0].time;
            sim.schedule_chan(first, EventKind::CellOpportunity);
        }
        Ok(sim)
    }

    /// Schedules a flow-class event. The tie encodes `(flow, per-flow
    /// counter)`, so same-timestamp flow events dispatch in flow order
    /// and, within a flow, in the order they were scheduled — independent
    /// of any other flow's activity.
    fn schedule_flow(&mut self, flow: usize, time: SimTime, kind: EventKind) {
        let ctr = self.flows[flow].ctr;
        self.flows[flow].ctr = ctr + 1;
        let tie = FLOW_CLASS | ((flow as u64) << 32) | u64::from(ctr);
        self.sched.push(time, tie, kind);
    }

    /// Schedules a channel-class event (bottleneck service, link state).
    /// Channel events sort after every flow event at the same timestamp.
    fn schedule_chan(&mut self, time: SimTime, kind: EventKind) {
        self.chan_ctr += 1;
        let tie = CHAN_CLASS | self.chan_ctr;
        self.sched.push(time, tie, kind);
    }

    /// Records that the current event touched `flow`'s ledger, for the
    /// per-event conservation check. Compiles to nothing when the
    /// invariant layer is off.
    #[inline]
    fn touch(&mut self, flow: usize) {
        if crate::invariants::ENABLED {
            self.scratch_touched.push(flow);
        }
    }

    /// Disables (or re-enables) buffering of raw per-delivery delay
    /// samples into [`FlowReport::delays_ms`]. The exact moments in
    /// [`FlowReport::delay_stats`] are recorded regardless; without
    /// samples [`FlowReport::delay_summary`] is `None`, and long
    /// many-flow runs stay O(1) in memory per flow.
    #[must_use]
    pub fn with_delay_samples(mut self, enabled: bool) -> Self {
        self.record_delay_samples = enabled;
        self
    }

    /// Switches the event scheduler (see [`SchedulerKind`]), migrating
    /// any already-scheduled events with their dispatch order intact.
    /// Intended for construction time — the cross-scheduler equivalence
    /// suite uses it to run both implementations from one binary.
    #[must_use]
    pub fn with_scheduler(mut self, kind: SchedulerKind) -> Self {
        if kind == self.sched_kind {
            return self;
        }
        let mut pending = Vec::new();
        while let Some(ev) = self.sched.pop_next() {
            pending.push(ev);
        }
        self.sched = Sched::new(kind);
        for (time, tie, ev) in pending {
            self.sched.push(time, tie, ev);
        }
        self.sched_kind = kind;
        self
    }

    /// The active scheduler implementation.
    #[must_use]
    pub fn scheduler(&self) -> SchedulerKind {
        self.sched_kind
    }

    /// Runs to completion and returns per-flow reports.
    pub fn run(self) -> Vec<FlowReport> {
        self.run_observed(SimDuration::MAX, |_, _| {})
    }

    /// Runs to completion and returns `(reports, logical events, raw
    /// scheduler pops)`. Logical events credit a delivery/ACK batch with
    /// its packet count, so they are comparable across schedulers; raw
    /// pops count what the event core actually dequeued — the batched
    /// wheel retires many logical events per pop, the per-packet
    /// schedulers exactly one.
    pub fn run_instrumented(self) -> (Vec<FlowReport>, u64, u64) {
        let mut events = 0;
        let mut pops = 0;
        let reports =
            self.run_observed_counting(SimDuration::MAX, |_, _| {}, &mut events, &mut pops);
        (reports, events, pops)
    }

    /// Runs to completion, invoking `observer` every `interval` with the
    /// current time and the flows' controllers (for live sampling of
    /// protocol internals, e.g. Verus' delay profile for Figure 7b).
    pub fn run_observed<F>(self, interval: SimDuration, observer: F) -> Vec<FlowReport>
    where
        F: FnMut(SimTime, &[&dyn CongestionControl]),
    {
        let mut events = 0;
        let mut pops = 0;
        self.run_observed_counting(interval, observer, &mut events, &mut pops)
    }

    fn run_observed_counting<F>(
        mut self,
        interval: SimDuration,
        mut observer: F,
        events_out: &mut u64,
        pops_out: &mut u64,
    ) -> Vec<FlowReport>
    where
        F: FnMut(SimTime, &[&dyn CongestionControl]),
    {
        if interval < self.end.saturating_since(SimTime::ZERO) {
            self.sched
                .push(SimTime::ZERO + interval, OBSERVE_TIE, EventKind::Observe);
        }
        while let Some((time, _tie, kind)) = self.sched.pop_next() {
            if time > self.end {
                break;
            }
            self.now = time;
            self.events += 1;
            *pops_out += 1;
            match kind {
                EventKind::Observe => {
                    // Observer callbacks sample many flows' controllers;
                    // their records are not any one flow's lane.
                    verus_trace::lane::clear();
                    let ccs: Vec<&dyn CongestionControl> =
                        self.flows.iter().map(|f| f.cc.as_ref()).collect();
                    observer(self.now, &ccs);
                    let next = self.now + interval;
                    self.sched.push(next, OBSERVE_TIE, EventKind::Observe);
                }
                other => {
                    if crate::invariants::ENABLED {
                        self.scratch_touched.clear();
                    }
                    self.dispatch(other);
                    self.check_conservation();
                }
            }
        }
        let end_secs = self.end.as_secs_f64();
        *events_out = self.events;
        self.flows
            .into_iter()
            .enumerate()
            .map(|(i, f)| build_report(i, f, end_secs))
            .collect()
    }

    /// Verifies the packet-conservation ledger after an event (see
    /// [`crate::invariants`]); empty stub in plain release builds.
    ///
    /// Cost is O(flows touched by the event), not O(all flows): each
    /// event checks the ledgers it could have changed plus the running
    /// queue-occupancy total. A full every-flow sweep (which also
    /// re-derives the running total from scratch) runs every 4096 events
    /// so drift in the incremental bookkeeping itself cannot hide.
    fn check_conservation(&self) {
        #[cfg(any(debug_assertions, feature = "strict-invariants"))]
        {
            for &i in &self.scratch_touched {
                crate::invariants::packet_conservation(i, &self.flows[i].ledger());
            }
            crate::invariants::queue_accounting(self.in_queue_total, self.queue.len());
            if self.events % 4096 == 0 {
                let mut queued_total = 0u64;
                for (i, f) in self.flows.iter().enumerate() {
                    crate::invariants::packet_conservation(i, &f.ledger());
                    queued_total += f.in_queue;
                }
                assert_eq!(
                    queued_total, self.in_queue_total,
                    "running queue-occupancy total drifted from per-flow sum"
                );
                crate::invariants::queue_accounting(queued_total, self.queue.len());
            }
        }
    }

    /// Which flow's event this is, if it is flow-class (the trace-lane
    /// tag; see [`verus_trace::lane`]). Channel events return `None`.
    fn event_flow(&self, kind: &EventKind) -> Option<usize> {
        match *kind {
            EventKind::FlowStart(i) | EventKind::CcTick(i) | EventKind::RtoCheck(i) => Some(i),
            EventKind::Deliver { flow, .. }
            | EventKind::AckArrive { flow, .. }
            | EventKind::GapTimer { flow, .. } => Some(flow),
            EventKind::DeliverBatch(slot) | EventKind::AckBatch(slot) => {
                Some(self.batches[slot].flow)
            }
            EventKind::FixedDepart
            | EventKind::CellOpportunity
            | EventKind::ParamChange(_)
            | EventKind::BlackoutEnd
            | EventKind::Observe => None,
        }
    }

    fn dispatch(&mut self, kind: EventKind) {
        // Tag the thread with the flow whose event this is, so trace
        // records it emits (possibly via batched flushes) are exported in
        // `(t_ns, flow)` order. Channel events untag: their record
        // attribution (none in practice) must not leak a stale lane.
        match self.event_flow(&kind) {
            Some(f) => verus_trace::lane::set(u32::try_from(f).unwrap_or(u32::MAX - 1)),
            None => verus_trace::lane::clear(),
        }
        match kind {
            EventKind::FlowStart(i) => {
                self.touch(i);
                self.flows[i].started = true;
                if let Some(tick) = self.flows[i].cc.tick_interval() {
                    self.schedule_flow(i, self.now + tick, EventKind::CcTick(i));
                }
                self.pump(i);
            }
            EventKind::CcTick(i) => {
                self.touch(i);
                let now = self.now;
                self.flows[i].cc.on_tick(now);
                if let Some(tick) = self.flows[i].cc.tick_interval() {
                    self.schedule_flow(i, self.now + tick, EventKind::CcTick(i));
                }
                self.pump(i);
            }
            EventKind::FixedDepart => self.on_fixed_depart(),
            EventKind::CellOpportunity => self.on_cell_opportunity(),
            EventKind::Deliver {
                flow,
                seq,
                bytes,
                sent_at,
                abc,
            } => {
                self.touch(flow);
                self.record_delivery(flow, bytes, sent_at);
                // Receiver ACKs immediately; ACK path is uncongested.
                let ack_at = self.now + self.ack_delay(flow);
                self.schedule_flow(
                    flow,
                    ack_at,
                    EventKind::AckArrive {
                        flow,
                        seq,
                        bytes,
                        sent_at,
                        delivered_at: self.now,
                        abc,
                    },
                );
            }
            EventKind::DeliverBatch(slot) => {
                let flow = self.batches[slot].flow;
                self.touch(flow);
                let pkts = std::mem::take(&mut self.batches[slot].pkts);
                // A k-packet batch is k logical events (one was already
                // counted by the run loop).
                self.events += pkts.len() as u64 - 1;
                for p in &pkts {
                    self.record_delivery(flow, p.bytes, p.sent_at);
                }
                // Re-arm the same slot as the matching ACK batch: every
                // packet shares the flow's (uncongested) ACK path delay.
                self.batches[slot].delivered_at = self.now;
                self.batches[slot].pkts = pkts;
                let ack_at = self.now + self.ack_delay(flow);
                self.schedule_flow(flow, ack_at, EventKind::AckBatch(slot));
            }
            EventKind::AckArrive {
                flow,
                seq,
                bytes,
                sent_at,
                delivered_at,
                abc,
            } => {
                self.touch(flow);
                self.on_ack(flow, seq, bytes, sent_at, delivered_at, abc);
            }
            EventKind::AckBatch(slot) => {
                let flow = self.batches[slot].flow;
                let delivered_at = self.batches[slot].delivered_at;
                self.touch(flow);
                let mut pkts = std::mem::take(&mut self.batches[slot].pkts);
                self.events += pkts.len() as u64 - 1;
                // Process in delivery order — identical to the oracle's
                // back-to-back per-packet AckArrive dispatches.
                for p in pkts.drain(..) {
                    self.on_ack(flow, p.seq, p.bytes, p.sent_at, delivered_at, p.abc);
                }
                // Recycle the slot, keeping the Vec's capacity.
                self.batches[slot].pkts = pkts;
                self.batch_free.push(slot);
            }
            EventKind::GapTimer { flow, seq } => {
                self.touch(flow);
                let f = &mut self.flows[flow];
                let fire = match f.outstanding.get(seq) {
                    Some(meta) => meta.gap_deadline == Some(self.now),
                    None => false,
                };
                if fire {
                    self.declare_fast_loss(flow, seq);
                    self.pump(flow);
                }
            }
            EventKind::RtoCheck(i) => {
                self.touch(i);
                // Coalesced timers: only the tracked (earliest) check
                // re-arms; stale duplicates fall through as no-ops. The
                // reference scheduler tracks none and re-arms per ACK.
                let tracked = self.flows[i].rto_check_at == Some(self.now);
                if tracked {
                    self.flows[i].rto_check_at = None;
                }
                self.on_rto_check(i);
                if tracked {
                    if let Some(d) = self.flows[i].rto_deadline {
                        if d > self.now {
                            self.arm_rto_check(i, d);
                        }
                    }
                }
            }
            EventKind::ParamChange(idx) => {
                if let Service::Fixed {
                    ref schedule,
                    ref mut current,
                    ..
                } = self.service
                {
                    *current = schedule[idx].1;
                }
            }
            EventKind::BlackoutEnd => {
                // The link is (possibly) back up: a fixed link must be
                // kicked to resume serializing its backlog. (A cell link
                // resumes at its next opportunity on its own.)
                self.maybe_start_fixed_service();
            }
            EventKind::Observe => unreachable!("handled in run_observed"),
        }
    }

    // ---- path delays -------------------------------------------------

    fn base_rtt(&self) -> SimDuration {
        match &self.service {
            Service::Fixed { current, .. } => current.base_rtt,
            Service::Cell(c) => c.base_rtt,
        }
    }

    fn fwd_delay(&self, flow: usize) -> SimDuration {
        self.base_rtt() / 2 + self.flows[flow].extra_fwd_delay
    }

    fn ack_delay(&self, flow: usize) -> SimDuration {
        let rtt = self.base_rtt();
        (rtt - rtt / 2) + self.flows[flow].extra_ack_delay
    }

    fn loss_prob(&self) -> f64 {
        match &self.service {
            Service::Fixed { current, .. } => current.loss,
            Service::Cell(c) => c.loss,
        }
    }

    // ---- sending ------------------------------------------------------

    /// Sends as many packets as the controller currently allows (bounded
    /// by the remaining transfer size for finite flows).
    fn pump(&mut self, flow: usize) {
        if !self.flows[flow].started {
            return;
        }
        loop {
            let f = &self.flows[flow];
            // Finite transfer: stop creating new packets once every byte
            // has been handed to the network.
            if let Some(limit) = f.transfer_bytes {
                let sent_bytes = f.sent * u64::from(f.packet_bytes);
                if sent_bytes >= limit {
                    break;
                }
            }
            let in_flight = f.outstanding.len();
            let now = self.now;
            let quota = self.flows[flow].cc.quota(now, in_flight);
            if quota == 0 {
                break;
            }
            let remaining_pkts = match self.flows[flow].transfer_bytes {
                Some(limit) => {
                    let f = &self.flows[flow];
                    let sent_bytes = f.sent * u64::from(f.packet_bytes);
                    let pkts =
                        (limit.saturating_sub(sent_bytes)).div_ceil(u64::from(f.packet_bytes));
                    usize::try_from(pkts).unwrap_or(usize::MAX)
                }
                None => usize::MAX,
            };
            // Overload guard: above the configured outstanding cap, this
            // quota batch is shed explicitly into the ledger instead of
            // launched. One batch only, then stop pumping — shedding does
            // not grow `in_flight`, so a window-based controller would
            // grant the same quota forever if we looped.
            if let Some(cap) = self.flows[flow].shed_cap {
                if in_flight >= cap {
                    for _ in 0..quota.min(remaining_pkts) {
                        self.shed_packet(flow);
                    }
                    break;
                }
            }
            for _ in 0..quota.min(remaining_pkts) {
                self.send_packet(flow);
            }
            if remaining_pkts <= quota {
                break;
            }
        }
    }

    /// Sheds one packet at the overload guard: it consumes a sequence
    /// number and congestion-control credit exactly like a real send (so
    /// the controller's pacing sees it), but goes straight to the
    /// `shed_dropped` ledger bucket — never into the outstanding table,
    /// never onto the link, and it arms no retransmission timer.
    fn shed_packet(&mut self, flow: usize) {
        let now = self.now;
        let f = &mut self.flows[flow];
        let seq = f.next_seq;
        f.next_seq += 1;
        f.sent += 1;
        f.shed_dropped += 1;
        f.cc.on_packet_sent(now, seq, u64::from(f.packet_bytes));
    }

    fn send_packet(&mut self, flow: usize) {
        let now = self.now;
        let f = &mut self.flows[flow];
        let seq = f.next_seq;
        f.next_seq += 1;
        let bytes = f.packet_bytes;
        let meta = PacketMeta {
            send_window: f.cc.window().max(1.0),
            later_acks: 0,
            gap_deadline: None,
        };
        f.outstanding.insert(seq, meta);
        f.sent += 1;
        f.cc.on_packet_sent(now, seq, u64::from(bytes));
        if f.rto_deadline.is_none() {
            let deadline = quantize_rto(now + f.rtt.rto());
            f.rto_deadline = Some(deadline);
            self.arm_rto_check(flow, deadline);
        }
        // Stochastic (radio) loss happens before the queue: the packet
        // simply never arrives; the sender finds out via its detectors.
        let loss = self.loss_prob();
        if loss > 0.0 && self.rng.gen::<f64>() < loss {
            self.flows[flow].radio_lost += 1;
            return;
        }
        // Impairment stage (blackouts, burst loss, duplication); draws
        // from its own RNG stream, so a no-op pipeline leaves the base
        // channel's random sequence untouched.
        let copies = match self.impairments.on_ingress(now) {
            IngressFate::Lost => {
                self.flows[flow].impaired_lost += 1;
                return;
            }
            IngressFate::Pass { duplicate: false } => 1,
            IngressFate::Pass { duplicate: true } => {
                self.flows[flow].dup_injected += 1;
                2
            }
        };
        for _ in 0..copies {
            let uniform = self.rng.gen::<f64>();
            let pkt = QueuedPacket {
                flow,
                seq,
                bytes,
                enqueued: now,
                abc_mark: None,
            };
            if self.queue.enqueue(pkt, uniform) == EnqueueResult::Queued {
                self.flows[flow].in_queue += 1;
                self.in_queue_total += 1;
                // A no-op for the second copy: the link is already busy.
                self.maybe_start_fixed_service();
                self.maybe_unpark_cell();
            } else {
                self.flows[flow].queue_drops += 1;
            }
        }
    }

    // ---- bottleneck service --------------------------------------------

    /// Fixed link: if idle and the queue is backlogged, begin serializing
    /// the head packet. A blacked-out link serves nothing; the scheduled
    /// `BlackoutEnd` event restarts it.
    fn maybe_start_fixed_service(&mut self) {
        if self.impairments.in_blackout(self.now) {
            return;
        }
        let Service::Fixed {
            current,
            ref mut busy,
            ..
        } = self.service
        else {
            return;
        };
        if *busy {
            return;
        }
        let Some(bytes) = self.queue.peek_bytes() else {
            return; // empty queue: nothing to serialize
        };
        *busy = true;
        let done = self.now + current.serialize_time(bytes);
        self.schedule_chan(done, EventKind::FixedDepart);
    }

    /// Cell link: re-arms a parked link after an enqueue. Blackouts do
    /// not matter here: an opportunity in one wastes itself on firing.
    fn maybe_unpark_cell(&mut self) {
        let Service::Cell(ref mut cell) = self.service else {
            return;
        };
        if let Some(t) = cell.unpark(self.now) {
            self.schedule_chan(t, EventKind::CellOpportunity);
        }
    }

    fn on_fixed_depart(&mut self) {
        let Some(pkt) = self.queue.dequeue() else {
            debug_assert!(false, "FixedDepart scheduled against an empty queue");
            return;
        };
        if let Service::Fixed { ref mut busy, .. } = self.service {
            *busy = false;
        }
        self.depart(pkt);
        self.maybe_start_fixed_service();
    }

    /// Ledger + metrics bookkeeping for one packet reaching the
    /// receiver (shared by per-packet `Deliver` and `DeliverBatch`).
    fn record_delivery(&mut self, flow: usize, bytes: u32, sent_at: SimTime) {
        let f = &mut self.flows[flow];
        f.in_transit -= 1;
        f.delivered += 1;
        f.delivered_bytes += u64::from(bytes);
        if let Some(limit) = f.transfer_bytes {
            if f.completed_at.is_none() && f.delivered_bytes >= limit {
                f.completed_at = Some(self.now);
            }
        }
        let delay = self.now.saturating_since(sent_at);
        let delay_ms = delay.as_millis_f64();
        f.delay_stats.push(delay_ms);
        if self.record_delay_samples {
            f.delays.push(delay_ms);
        }
        f.throughput
            .record(self.now.as_secs_f64(), u64::from(bytes));
    }

    /// A packet leaves the bottleneck: apply egress impairments
    /// (corruption, reordering) and compute its arrival. Returns
    /// `None` when the packet was corrupted in flight, otherwise
    /// `(deliver_at, sent_at)` for the delivery event.
    fn process_departure(&mut self, pkt: &QueuedPacket) -> Option<(SimTime, SimTime)> {
        let base_delay = self.fwd_delay(pkt.flow);
        let fate = self.impairments.on_egress();
        self.touch(pkt.flow);
        let fs = &mut self.flows[pkt.flow];
        fs.in_queue -= 1;
        self.in_queue_total -= 1;
        if fate.corrupted {
            // Traverses the link but fails the receiver's checksum: the
            // sender learns of it only through its loss detectors.
            fs.corrupt_dropped += 1;
            return None;
        }
        fs.in_transit += 1;
        // `send_packet` stamps the queue entry with its send time, and a
        // sequence number is never sent twice, so that is `sent_at`.
        let deliver_at = self.now + base_delay + fate.extra_delay.unwrap_or(SimDuration::ZERO);
        Some((deliver_at, pkt.enqueued))
    }

    fn depart(&mut self, pkt: QueuedPacket) {
        if let Some((deliver_at, sent_at)) = self.process_departure(&pkt) {
            self.schedule_flow(
                pkt.flow,
                deliver_at,
                EventKind::Deliver {
                    flow: pkt.flow,
                    seq: pkt.seq,
                    bytes: pkt.bytes,
                    sent_at,
                    abc: pkt.abc_mark,
                },
            );
        }
    }

    /// Takes a batch slot off the free list (or grows the slab).
    fn alloc_batch(&mut self, flow: usize) -> usize {
        if let Some(slot) = self.batch_free.pop() {
            debug_assert!(self.batches[slot].pkts.is_empty());
            self.batches[slot].flow = flow;
            slot
        } else {
            self.batches.push(Batch {
                flow,
                delivered_at: SimTime::ZERO,
                pkts: Vec::new(),
            });
            self.batches.len() - 1
        }
    }

    /// Cell link: one delivery opportunity releases queued bytes.
    /// During a blackout the opportunity is wasted (no drain, no banked
    /// credit) — the radio is gone, not merely idle.
    fn on_cell_opportunity(&mut self) {
        let blackout = self.impairments.in_blackout(self.now);
        // Phase 1: drain the queue using the opportunity's byte budget.
        // The delivery buffer is owned by the simulation and reused across
        // events; taking it out keeps the borrow checker happy while
        // `self.queue` and `self.service` are borrowed.
        let mut deliveries = std::mem::take(&mut self.scratch_deliveries);
        debug_assert!(deliveries.is_empty());
        let now = self.now;
        let next = {
            let Service::Cell(ref mut cell) = self.service else {
                return;
            };
            cell.drain(now, blackout, &mut self.queue, &mut deliveries)
        };
        if let Some(t) = next {
            self.schedule_chan(t, EventKind::CellOpportunity);
        }
        // Phase 2: egress impairments + delivery scheduling. On the
        // wheel scheduler, *all* packets of one flow arriving at one
        // instant coalesce into a single `DeliverBatch` event, however
        // their drain positions interleaved with other flows.
        //
        // Equivalence with the per-packet oracle: under the canonical
        // tie order, the oracle dispatches this TTI's same-timestamp
        // `Deliver` events grouped by flow (flow ascending, then drain
        // order within the flow) no matter how the drain interleaved —
        // exactly the order a per-(flow, arrival) batch replays. Egress
        // impairment draws stay one-per-packet in drain order, so the
        // RNG streams are identical too. Corrupted packets produce no
        // event in either mode (and so never split a batch). Grouping
        // across the whole TTI is also the many-flow perf fix: round-
        // robin queue drains fragment *adjacent* runs into near-per-
        // packet batches, but per-(flow, arrival) groups stay whole.
        if self.sched_kind == SchedulerKind::Wheel {
            let mut groups = std::mem::take(&mut self.scratch_groups);
            debug_assert!(groups.is_empty());
            for pkt in deliveries.drain(..) {
                let Some((deliver_at, sent_at)) = self.process_departure(&pkt) else {
                    continue;
                };
                let bp = BatchPkt {
                    seq: pkt.seq,
                    bytes: pkt.bytes,
                    sent_at,
                    abc: pkt.abc_mark,
                };
                // A TTI holds a handful of (flow, arrival) groups —
                // linear scan beats hashing at this size.
                match groups
                    .iter()
                    .find(|&&(flow, at, _)| flow == pkt.flow && at == deliver_at)
                {
                    Some(&(_, _, slot)) => self.batches[slot].pkts.push(bp),
                    None => {
                        let slot = self.alloc_batch(pkt.flow);
                        self.batches[slot].pkts.push(bp);
                        groups.push((pkt.flow, deliver_at, slot));
                    }
                }
            }
            for (flow, at, slot) in groups.drain(..) {
                self.schedule_flow(flow, at, EventKind::DeliverBatch(slot));
            }
            self.scratch_groups = groups;
        } else {
            for pkt in deliveries.drain(..) {
                self.depart(pkt);
            }
        }
        self.scratch_deliveries = deliveries;
    }

    // ---- receiving ACKs ------------------------------------------------

    fn on_ack(
        &mut self,
        flow: usize,
        seq: u64,
        bytes: u32,
        sent_at: SimTime,
        delivered_at: SimTime,
        abc: Option<bool>,
    ) {
        let now = self.now;
        let rtt = now.saturating_since(sent_at);
        let one_way = delivered_at.saturating_since(sent_at);

        // A stale ACK for a packet we already declared lost: the
        // controller has been told it was lost, so no CC events — but the
        // RTT sample is still valid (per-packet send timestamps make
        // Karn's ambiguity impossible here) and feeding it is what stops
        // a spurious-timeout spiral: after an RTO clears the window, the
        // estimator must keep learning that the path is slow.
        let Some(meta) = self.flows[flow].outstanding.remove(seq) else {
            self.flows[flow].rtt.on_sample(rtt);
            return;
        };
        {
            let f = &mut self.flows[flow];
            f.rtt.on_sample(rtt);
            f.rto_retries = 0;
            // Restart the RTO from this ACK.
            f.rto_deadline = if f.outstanding.is_empty() {
                None
            } else {
                Some(quantize_rto(now + f.rtt.rto()))
            };
            f.cc.on_ack(
                now,
                &AckEvent {
                    seq,
                    bytes: u64::from(bytes),
                    rtt,
                    delay: one_way,
                    send_window: meta.send_window,
                    abc_mark: abc,
                },
            );
        }
        if let Some(deadline) = self.flows[flow].rto_deadline {
            self.arm_rto_check(flow, deadline);
        }

        // Loss detection on the holes below this ACK. Both work lists are
        // simulation-owned scratch buffers reused across events.
        let mut condemned = std::mem::take(&mut self.scratch_condemned);
        let mut to_arm = std::mem::take(&mut self.scratch_arm);
        debug_assert!(condemned.is_empty() && to_arm.is_empty());
        {
            let f = &mut self.flows[flow];
            match f.loss_detection {
                LossDetection::PacketThreshold { threshold } => {
                    for (hole, m) in f.outstanding.iter_below_mut(seq) {
                        m.later_acks += 1;
                        if m.later_acks >= threshold {
                            condemned.push(hole);
                        }
                    }
                }
                LossDetection::GapTimer { factor } => {
                    // A hole stays armed until it leaves the table, so
                    // only holes the visit cursor has not passed yet can
                    // still need a timer.
                    let srtt = f.rtt.srtt_or(SimDuration::from_millis(200));
                    f.outstanding.visit_below_once(seq, |hole, m| {
                        if m.gap_deadline.is_none() {
                            let deadline = now + srtt.mul_f64(factor);
                            m.gap_deadline = Some(deadline);
                            to_arm.push((hole, deadline));
                        }
                    });
                    if crate::invariants::ENABLED {
                        crate::invariants::holes_armed(
                            flow,
                            seq,
                            f.outstanding
                                .iter()
                                .take_while(|&(hole, _)| hole < seq)
                                .map(|(hole, m)| (hole, m.gap_deadline.is_some())),
                        );
                    }
                }
            }
        }
        for (hole, deadline) in to_arm.drain(..) {
            self.schedule_flow(flow, deadline, EventKind::GapTimer { flow, seq: hole });
        }
        for hole in condemned.drain(..) {
            self.declare_fast_loss(flow, hole);
        }
        self.scratch_condemned = condemned;
        self.scratch_arm = to_arm;
        self.pump(flow);
    }

    fn declare_fast_loss(&mut self, flow: usize, seq: u64) {
        let now = self.now;
        let f = &mut self.flows[flow];
        let Some(meta) = f.outstanding.remove(seq) else {
            return;
        };
        f.fast_losses += 1;
        f.cc.on_loss(
            now,
            &LossEvent {
                seq,
                send_window: meta.send_window,
                kind: LossKind::FastRetransmit,
            },
        );
    }

    fn on_rto_check(&mut self, flow: usize) {
        let now = self.now;
        let fire = {
            let f = &self.flows[flow];
            f.rto_deadline == Some(now) && !f.outstanding.is_empty()
        };
        if !fire {
            return;
        }
        let f = &mut self.flows[flow];
        let Some((oldest, meta)) = f.outstanding.front() else {
            return; // unreachable: `fire` requires a non-empty outstanding set
        };
        let send_window = meta.send_window;
        f.timeouts += 1;
        f.rto_retries += 1;
        // TCP-equivalent state reset: everything outstanding is treated
        // as lost; the controller hears one Timeout event.
        f.outstanding.clear();
        f.cc.on_loss(
            now,
            &LossEvent {
                seq: oldest,
                send_window,
                kind: LossKind::Timeout,
            },
        );
        // Re-arm with exponential backoff once the retransmission (from
        // pump below) goes out; pump's arming path would use the plain
        // RTO, so pre-arm here.
        let backoff = f.rtt.backed_off_rto(f.rto_retries);
        let deadline = quantize_rto(now + backoff);
        f.rto_deadline = Some(deadline);
        self.arm_rto_check(flow, deadline);
        self.pump(flow);
    }

    /// Ensures an `RtoCheck` event will fire at (or before, re-arming
    /// toward) `deadline`. The wheel keeps at most one *tracked* pending
    /// check per flow: a check scheduled for an earlier time covers every
    /// later deadline, because on firing it re-arms at the then-current
    /// deadline. The reference scheduler schedules one event per call.
    fn arm_rto_check(&mut self, flow: usize, deadline: SimTime) {
        if self.sched_kind == SchedulerKind::Reference {
            self.schedule_flow(flow, deadline, EventKind::RtoCheck(flow));
            return;
        }
        match self.flows[flow].rto_check_at {
            Some(t) if t <= deadline => {}
            _ => {
                self.flows[flow].rto_check_at = Some(deadline);
                self.schedule_flow(flow, deadline, EventKind::RtoCheck(flow));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::QueueConfig;
    use verus_nettypes::FixedWindow;
    use verus_stats::Summary;

    fn fixed_sim(
        rate_bps: f64,
        rtt_ms: u64,
        loss: f64,
        flows: Vec<crate::config::FlowConfig>,
        secs: u64,
        seed: u64,
    ) -> Vec<FlowReport> {
        let config = SimConfig {
            bottleneck: BottleneckConfig::fixed(
                rate_bps,
                SimDuration::from_millis(rtt_ms),
                loss,
            ),
            queue: QueueConfig::deep_droptail(),
            flows,
            duration: SimDuration::from_secs(secs),
            seed,
            throughput_window: SimDuration::from_secs(1),
            impairments: Default::default(),
            abc: None,
        };
        Simulation::new(config).unwrap().run()
    }

    #[test]
    fn fixed_window_flow_is_rate_limited_by_window() {
        // W=10, RTT=100 ms, 1400 B packets → ~10 pkt/RTT = 1.12 Mbit/s,
        // far below the 100 Mbit/s link.
        let flows = vec![crate::config::FlowConfig::new(Box::new(FixedWindow::new(
            10,
        )))];
        let reports = fixed_sim(100e6, 100, 0.0, flows, 20, 1);
        let mbps = reports[0].mean_throughput_mbps();
        assert!((mbps - 1.12).abs() < 0.15, "throughput {mbps} Mbit/s");
        assert_eq!(reports[0].fast_losses, 0);
        assert_eq!(reports[0].timeouts, 0);
    }

    #[test]
    fn fixed_window_flow_saturates_slow_link() {
        // Window big enough to fill 5 Mbit/s at 40 ms RTT.
        let flows = vec![crate::config::FlowConfig::new(Box::new(FixedWindow::new(
            200,
        )))];
        let reports = fixed_sim(5e6, 40, 0.0, flows, 20, 2);
        let mbps = reports[0].mean_throughput_mbps();
        assert!(mbps > 4.5 && mbps <= 5.05, "throughput {mbps} Mbit/s");
        // The standing queue shows up as delay well above base RTT/2.
        assert!(reports[0].mean_delay_ms() > 40.0);
    }

    #[test]
    fn one_way_delay_includes_queueing() {
        let small = vec![crate::config::FlowConfig::new(Box::new(FixedWindow::new(
            2,
        )))];
        let r_small = fixed_sim(10e6, 50, 0.0, small, 10, 3);
        // With 2 packets in flight over a fast link, delay ≈ prop = 25 ms.
        let d = r_small[0].mean_delay_ms();
        assert!((d - 25.0).abs() < 5.0, "delay {d} ms");
    }

    #[test]
    fn stochastic_loss_triggers_detection() {
        let flows = vec![crate::config::FlowConfig::new(Box::new(FixedWindow::new(
            50,
        )))];
        let reports = fixed_sim(10e6, 40, 0.02, flows, 20, 4);
        assert!(
            reports[0].fast_losses > 10,
            "expected detected losses, got {}",
            reports[0].fast_losses
        );
        // FixedWindow keeps sending, so the flow should still move data.
        assert!(reports[0].mean_throughput_mbps() > 1.0);
    }

    #[test]
    fn determinism_per_seed() {
        let run = |seed| {
            let flows = vec![crate::config::FlowConfig::new(Box::new(
                FixedWindow::new(30),
            ))];
            let r = fixed_sim(8e6, 60, 0.01, flows, 10, seed);
            (r[0].sent, r[0].delivered, r[0].fast_losses)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn two_flows_share_the_bottleneck() {
        let flows = vec![
            crate::config::FlowConfig::new(Box::new(FixedWindow::new(100))),
            crate::config::FlowConfig::new(Box::new(FixedWindow::new(100))),
        ];
        let reports = fixed_sim(10e6, 40, 0.0, flows, 30, 5);
        let a = reports[0].mean_throughput_mbps();
        let b = reports[1].mean_throughput_mbps();
        assert!((a + b) > 9.0, "sum {a}+{b}");
        assert!((a - b).abs() < 2.0, "unfair split {a} vs {b}");
    }

    #[test]
    fn param_change_takes_effect() {
        // 1 Mbit/s for 5 s, then 10 Mbit/s for 5 s.
        let p1 = FixedParams {
            rate_bps: 1e6,
            loss: 0.0,
            base_rtt: SimDuration::from_millis(20),
        };
        let p2 = FixedParams {
            rate_bps: 10e6,
            ..p1
        };
        let config = SimConfig {
            bottleneck: BottleneckConfig::Fixed {
                schedule: vec![(SimTime::ZERO, p1), (SimTime::from_secs(5), p2)],
            },
            queue: QueueConfig::deep_droptail(),
            flows: vec![crate::config::FlowConfig::new(Box::new(FixedWindow::new(
                400,
            )))],
            duration: SimDuration::from_secs(10),
            seed: 6,
            throughput_window: SimDuration::from_secs(1),
            impairments: Default::default(),
            abc: None,
        };
        let reports = Simulation::new(config).unwrap().run();
        let series = reports[0].throughput.series_mbps();
        let early: f64 = series[1..4].iter().map(|&(_, v)| v).sum::<f64>() / 3.0;
        let late: f64 = series[6..9].iter().map(|&(_, v)| v).sum::<f64>() / 3.0;
        assert!(early < 1.2, "early {early}");
        assert!(late > 5.0, "late {late}");
    }

    #[test]
    fn cell_link_caps_at_trace_rate() {
        use verus_cellular::{OperatorModel, Scenario};
        let trace = Scenario::CampusStationary
            .generate_trace(
                OperatorModel::Etisalat3G,
                SimDuration::from_secs(10),
                42,
            )
            .unwrap();
        let cap_mbps = trace.mean_rate_bps() / 1e6;
        let config = SimConfig {
            bottleneck: BottleneckConfig::Cell {
                trace,
                base_rtt: SimDuration::from_millis(40),
                loss: 0.0,
            },
            queue: QueueConfig::paper_red(),
            flows: vec![crate::config::FlowConfig::new(Box::new(FixedWindow::new(
                500,
            )))],
            duration: SimDuration::from_secs(20),
            seed: 9,
            throughput_window: SimDuration::from_secs(1),
            impairments: Default::default(),
            abc: None,
        };
        let reports = Simulation::new(config).unwrap().run();
        let mbps = reports[0].mean_throughput_mbps();
        assert!(
            mbps <= cap_mbps * 1.05,
            "throughput {mbps} exceeds trace capacity {cap_mbps}"
        );
        assert!(mbps > cap_mbps * 0.5, "throughput {mbps} far below {cap_mbps}");
    }

    #[test]
    fn idle_cell_link_parks_between_enqueues() {
        use verus_cellular::{OperatorModel, Scenario};
        let secs = 10;
        let trace = Scenario::CampusStationary
            .generate_trace(OperatorModel::Etisalat3G, SimDuration::from_secs(secs), 42)
            .unwrap();
        let end = SimTime::ZERO + SimDuration::from_secs(secs);
        let offered = trace
            .opportunities()
            .iter()
            .filter(|o| o.time <= end)
            .count() as u64;
        // Two packets per RTT leave the queue empty after almost every
        // opportunity that drains them.
        let config = SimConfig {
            bottleneck: BottleneckConfig::Cell {
                trace,
                base_rtt: SimDuration::from_millis(40),
                loss: 0.0,
            },
            queue: QueueConfig::paper_red(),
            flows: vec![crate::config::FlowConfig::new(Box::new(FixedWindow::new(
                2,
            )))],
            duration: SimDuration::from_secs(secs),
            seed: 9,
            throughput_window: SimDuration::from_secs(1),
            impairments: Default::default(),
            abc: None,
        };
        let (reports, _, pops) = Simulation::new(config).unwrap().run_instrumented();
        let r = &reports[0];
        // Every enqueue re-armed the link: the flow ran the whole time.
        assert!(r.delivered > 300, "delivered {}", r.delivered);
        assert_eq!(
            r.delivered + r.residual_in_queue + r.residual_in_transit,
            r.sent
        );
        // A link firing every opportunity pops at least `offered` events.
        assert!(
            pops < offered / 2,
            "{pops} pops for {offered} opportunities"
        );
    }

    #[test]
    fn parked_cell_rearms_at_the_first_opportunity_at_or_after_now() {
        let ms = |n: u64| SimTime::ZERO + SimDuration::from_millis(n);
        let opp = |n: u64| Opportunity {
            time: ms(n),
            bytes: 1500,
        };
        // Opportunities at 1, 2 and 3 ms; the trace loops every 3 ms.
        let trace = verus_cellular::Trace::new("t", vec![opp(1), opp(2), opp(3)]).unwrap();
        let mut cell = CellService::from_trace(trace.clone(), SimDuration::ZERO, 0.0, None);
        let mut queue = Queue::new(QueueConfig::deep_droptail());
        let mut out = Vec::new();
        assert_eq!(cell.unpark(ms(0)), None, "a fresh link is armed");
        // An idle opportunity parks the link; the one it fired is spent.
        assert_eq!(cell.drain(ms(1), false, &mut queue, &mut out), None);
        assert_eq!(cell.unpark(ms(1)), Some(ms(2)));
        assert_eq!(cell.unpark(ms(1)), None, "already re-armed");
        // An enqueue at an opportunity's own time catches it.
        assert_eq!(cell.drain(ms(2), false, &mut queue, &mut out), None);
        assert_eq!(cell.unpark(ms(5)), Some(ms(5)));
        // Otherwise the next one, across as many loops as it takes.
        assert_eq!(cell.drain(ms(5), false, &mut queue, &mut out), None);
        assert_eq!(
            cell.unpark(ms(5) + SimDuration::from_micros(500)),
            Some(ms(6))
        );
        assert_eq!(cell.drain(ms(6), false, &mut queue, &mut out), None);
        assert_eq!(cell.unpark(ms(100)), Some(ms(100)));
        assert!(out.is_empty());
        // The ABC marker observes every idle opportunity, so it never parks.
        let mut abc = CellService::from_trace(
            trace,
            SimDuration::ZERO,
            0.0,
            Some(crate::abc::AbcConfig::default()),
        );
        assert_eq!(abc.drain(ms(1), false, &mut queue, &mut out), Some(ms(2)));
    }

    #[test]
    fn rto_fires_when_link_dies() {
        // Loss = 100% after t=1s is impossible with one schedule entry, so
        // use an absurdly slow second phase instead: effectively dead.
        let p1 = FixedParams {
            rate_bps: 10e6,
            loss: 0.0,
            base_rtt: SimDuration::from_millis(20),
        };
        let p2 = FixedParams {
            rate_bps: 10e6,
            loss: 1.0,
            ..p1
        };
        let config = SimConfig {
            bottleneck: BottleneckConfig::Fixed {
                schedule: vec![(SimTime::ZERO, p1), (SimTime::from_secs(2), p2)],
            },
            queue: QueueConfig::deep_droptail(),
            flows: vec![crate::config::FlowConfig::new(Box::new(FixedWindow::new(
                20,
            )))],
            duration: SimDuration::from_secs(10),
            seed: 10,
            throughput_window: SimDuration::from_secs(1),
            impairments: Default::default(),
            abc: None,
        };
        let reports = Simulation::new(config).unwrap().run();
        assert!(reports[0].timeouts > 0, "no RTO fired on dead link");
    }

    #[test]
    fn finite_transfer_completes_and_stops() {
        let flows = vec![crate::config::FlowConfig::new(Box::new(FixedWindow::new(
            20,
        )))
        .with_transfer(140_000)]; // exactly 100 packets of 1400 B
        let config = SimConfig {
            bottleneck: BottleneckConfig::fixed(10e6, SimDuration::from_millis(20), 0.0),
            queue: QueueConfig::deep_droptail(),
            flows,
            duration: SimDuration::from_secs(10),
            seed: 21,
            throughput_window: SimDuration::from_secs(1),
            impairments: Default::default(),
            abc: None,
        };
        let reports = Simulation::new(config).unwrap().run();
        let r = &reports[0];
        assert_eq!(r.sent, 100, "sent exactly the transfer size");
        assert_eq!(r.delivered, 100);
        let fct = r.completion_secs.expect("transfer finished");
        // 1.12 Mbit over 10 Mbit/s plus ~6 RTT-limited rounds ≈ 0.1–0.3 s.
        assert!(fct > 0.05 && fct < 1.0, "FCT {fct}");
    }

    #[test]
    fn unfinished_transfer_has_no_completion_time() {
        let flows = vec![crate::config::FlowConfig::new(Box::new(FixedWindow::new(
            2,
        )))
        .with_transfer(100_000_000)]; // far more than 2 s can carry
        let config = SimConfig {
            bottleneck: BottleneckConfig::fixed(1e6, SimDuration::from_millis(20), 0.0),
            queue: QueueConfig::deep_droptail(),
            flows,
            duration: SimDuration::from_secs(2),
            seed: 22,
            throughput_window: SimDuration::from_secs(1),
            impairments: Default::default(),
            abc: None,
        };
        let reports = Simulation::new(config).unwrap().run();
        assert!(reports[0].completion_secs.is_none());
        assert!(reports[0].delivered > 0);
    }

    #[test]
    fn streaming_stats_match_buffered_samples() {
        let flows = vec![crate::config::FlowConfig::new(Box::new(FixedWindow::new(
            50,
        )))];
        let reports = fixed_sim(5e6, 40, 0.01, flows, 10, 13);
        let r = &reports[0];
        assert_eq!(r.delay_stats.count(), r.delays_ms.len() as u64);
        let exact = r.delays_ms.iter().sum::<f64>() / r.delays_ms.len() as f64;
        assert!((r.delay_stats.mean() - exact).abs() < 1e-9);
        assert_eq!(r.mean_delay_ms(), r.delay_stats.mean());
    }

    #[test]
    fn disabling_delay_samples_keeps_exact_moments() {
        let make = || {
            let config = SimConfig {
                bottleneck: BottleneckConfig::fixed(5e6, SimDuration::from_millis(40), 0.0),
                queue: QueueConfig::deep_droptail(),
                flows: vec![crate::config::FlowConfig::new(Box::new(FixedWindow::new(
                    50,
                )))],
                duration: SimDuration::from_secs(10),
                seed: 14,
                throughput_window: SimDuration::from_secs(1),
                impairments: Default::default(),
                abc: None,
            };
            Simulation::new(config).unwrap()
        };
        let with = &make().run()[0];
        let without = &make().with_delay_samples(false).run()[0];
        assert!(!with.delays_ms.is_empty());
        assert!(without.delays_ms.is_empty());
        // Same seed, same run: the moments are bit-equal either way.
        let moments = |r: &FlowReport| {
            let d = &r.delay_stats;
            (
                d.count(),
                d.mean().to_bits(),
                d.std_dev().to_bits(),
                d.min().map(f64::to_bits),
                d.max().map(f64::to_bits),
            )
        };
        assert!(with.delay_stats.count() > 0);
        assert_eq!(moments(with), moments(without));
        // Quantiles come only from buffered samples, and exactly.
        assert!(without.delay_summary().is_none());
        assert_eq!(
            with.delay_summary(),
            Summary::from_samples(&with.delays_ms)
        );
    }

    #[test]
    fn run_instrumented_reports_events() {
        let config = SimConfig {
            bottleneck: BottleneckConfig::fixed(5e6, SimDuration::from_millis(40), 0.0),
            queue: QueueConfig::deep_droptail(),
            flows: vec![crate::config::FlowConfig::new(Box::new(FixedWindow::new(
                10,
            )))],
            duration: SimDuration::from_secs(5),
            seed: 15,
            throughput_window: SimDuration::from_secs(1),
            impairments: Default::default(),
            abc: None,
        };
        let (reports, events, pops) = Simulation::new(config).unwrap().run_instrumented();
        // Every delivery implies at least a Deliver and an AckArrive event.
        assert!(events >= reports[0].delivered * 2);
        // A fixed link batches nothing: each pop is one logical event.
        assert_eq!(pops, events);
    }

    #[test]
    fn observer_is_invoked_periodically() {
        let flows = vec![crate::config::FlowConfig::new(Box::new(FixedWindow::new(
            5,
        )))];
        let config = SimConfig {
            bottleneck: BottleneckConfig::fixed(10e6, SimDuration::from_millis(20), 0.0),
            queue: QueueConfig::deep_droptail(),
            flows,
            duration: SimDuration::from_secs(5),
            seed: 11,
            throughput_window: SimDuration::from_secs(1),
            impairments: Default::default(),
            abc: None,
        };
        let mut calls = 0;
        let _ = Simulation::new(config)
            .unwrap()
            .run_observed(SimDuration::from_secs(1), |_, ccs| {
                calls += 1;
                assert_eq!(ccs.len(), 1);
                assert_eq!(ccs[0].name(), "fixed");
            });
        assert_eq!(calls, 5);
    }
}
