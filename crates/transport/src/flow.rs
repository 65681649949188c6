//! The per-flow transport machine, sans I/O.
//!
//! [`FlowEngine`] is one flow's sender state: its congestion controller,
//! [`Session`], RTT estimator, in-flight table with the §5.2 reordering
//! gap deadlines, and the RFC 6298 RTO with its backoff count. Every
//! method takes `now`; nothing here touches a socket or reads a clock,
//! so the whole machine is unit-tested without either. Its one driver,
//! [`ShardServer`](crate::ShardServer), owns the sockets, the clock, a
//! timer wheel and the sequence policy: which sequence a send, a
//! retransmission or a probe uses. So the engine hands every sequence it
//! declares lost back to the driver, and [`FlowEngine::pump`] asks the
//! driver for each sequence it sends.
//!
//! The engine's rules:
//!
//! * owed epoch ticks are stamped at their epoch boundaries, as in the
//!   simulator, not at the instant the driver noticed them;
//! * an RTO that comes due on an empty table clears the deadline;
//! * deadline arithmetic is `checked_add` — a deadline past
//!   [`SimTime::MAX`] means "never";
//! * the controller gets no ticks while the session is `Draining` (a
//!   draining flow sends nothing).

use verus_netsim::OutstandingTable;
use verus_nettypes::{
    AckEvent, AckPacket, CongestionControl, DataPacket, LossEvent, LossKind, RttEstimator,
    SimDuration, SimTime,
};

use crate::session::{Session, Transition};
use crate::SessionState;

/// Gap-timer base before the first RTT sample.
const GAP_SRTT_DEFAULT: SimDuration = SimDuration::from_millis(200);

/// The per-flow settings an engine is built with (each one comes from
/// the driver's existing configuration).
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlowParams {
    /// Wire flow id stamped into every data packet.
    pub(crate) flow: u32,
    /// Payload bytes per data packet.
    pub(crate) packet_bytes: u32,
    /// Gap-timer factor (§5.2's "3 × delay").
    pub(crate) gap_factor: f64,
    /// Overload guard: with `Some(cap)`, quota granted while `cap` or
    /// more packets are in flight is shed instead of sent.
    pub(crate) shed_cap: Option<usize>,
    /// Epoch cadence for controllers without a `tick_interval` (the
    /// driver's maintenance clock; such controllers get no ticks).
    pub(crate) epoch: SimDuration,
}

/// One in-flight packet's bookkeeping.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    /// Window echoed into loss events.
    send_window: f64,
    /// §5.2 reordering deadline, armed when an ACK overtakes the packet.
    gap_deadline: Option<SimTime>,
}

/// What one ACK did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AckOutcome {
    /// The session edge the ACK caused, if any (the warm-restart hook
    /// has already run).
    pub(crate) transition: Option<Transition>,
    /// The one-way delay, when the ACK covered an in-flight sequence.
    /// `None` for a stale ACK: it fed the RTT estimator and nothing
    /// else.
    pub(crate) delay: Option<SimDuration>,
}

/// One quota grant handed out by [`FlowEngine::pump`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Pumped {
    /// A data packet to put on the wire; it is in flight.
    Sent(DataPacket),
    /// A sequence shed by the overload guard: consumed, never in flight.
    Shed(u64),
}

/// One flow's sender state machine (see the module docs).
pub(crate) struct FlowEngine {
    cc: Box<dyn CongestionControl>,
    session: Session,
    rtt: RttEstimator,
    outstanding: OutstandingTable<InFlight>,
    /// Pending RTO deadline. It outlives an RTO that clears the table:
    /// the backed-off deadline then covers the next send.
    rto_deadline: Option<SimTime>,
    rto_retries: u32,
    /// The epoch period: the controller's `tick_interval`, or the
    /// fallback from [`FlowParams::epoch`].
    epoch: SimDuration,
    /// Whether the controller is clock-driven (`tick_interval` is set).
    ticks: bool,
    params: FlowParams,
    /// Reused scratch for the gap sweep's overdue `(seq, send_window)`.
    overdue: Vec<(u64, f64)>,
}

impl FlowEngine {
    /// An engine driving `cc` through `session`.
    #[must_use]
    pub(crate) fn new(
        cc: Box<dyn CongestionControl>,
        session: Session,
        params: FlowParams,
    ) -> Self {
        let tick = cc.tick_interval();
        Self {
            cc,
            session,
            rtt: RttEstimator::default(),
            outstanding: OutstandingTable::new(),
            rto_deadline: None,
            rto_retries: 0,
            epoch: tick.unwrap_or(params.epoch),
            ticks: tick.is_some(),
            params,
            overdue: Vec::new(),
        }
    }

    /// The wire flow id.
    #[must_use]
    pub(crate) fn flow(&self) -> u32 {
        self.params.flow
    }

    /// The session machine (read-only; edges go through
    /// [`Self::step_session`]).
    #[must_use]
    pub(crate) fn session(&self) -> &Session {
        &self.session
    }

    /// Packets in flight.
    #[must_use]
    pub(crate) fn in_flight(&self) -> usize {
        self.outstanding.len()
    }

    /// Whether `seq` is in flight.
    #[must_use]
    pub(crate) fn is_in_flight(&self, seq: u64) -> bool {
        self.outstanding.get(seq).is_some()
    }

    /// The pending RTO deadline, if anything is in flight or a timeout
    /// is backing off.
    #[must_use]
    pub(crate) fn rto_deadline(&self) -> Option<SimTime> {
        self.rto_deadline
    }

    /// Applies one session step (`|s| s.poll(now)`, `|s| s.begin_drain(now)`,
    /// …) and returns the edge it took. On Reconnecting → Established —
    /// a resumption, not the first connect — the controller warm-restarts
    /// from its learned link model.
    pub(crate) fn step_session(
        &mut self,
        step: impl FnOnce(&mut Session) -> Option<Transition>,
    ) -> Option<Transition> {
        let tr = step(&mut self.session)?;
        if tr.from == SessionState::Reconnecting && tr.to == SessionState::Established {
            self.cc.on_session_resumed(tr.at);
        }
        Some(tr)
    }

    /// Whether a reconnect probe is due (consumes the backoff slot; the
    /// driver must then send one probe through [`Self::send`]).
    pub(crate) fn probe_due(&mut self, now: SimTime) -> bool {
        self.session.probe_due(now)
    }

    /// Fires one controller tick per epoch boundary in `[due, now]`, each
    /// stamped at its boundary, and returns the first boundary after
    /// `now`. A late driver pays its tick debt instead of slowing the
    /// controller's clock. No ticks while `Draining` or `Closed`.
    pub(crate) fn tick_through(&mut self, mut due: SimTime, now: SimTime) -> SimTime {
        let live = self.ticks
            && !matches!(
                self.session.state(),
                SessionState::Draining | SessionState::Closed
            );
        while due <= now {
            if live {
                self.cc.on_tick(due);
            }
            let Some(next) = due.checked_add(self.epoch) else {
                return SimTime::MAX;
            };
            due = next;
        }
        due
    }

    /// Takes one decoded ACK: an RTT sample always; for an in-flight
    /// sequence also the controller's ACK event, an RTO restamp, and gap
    /// timers armed on every in-flight sequence below it.
    ///
    /// Returns `None`, having changed nothing, for an ACK that echoes a
    /// send time at or after `now`: no packet was sent then, and the zero
    /// RTT it would yield breaks delay-based controllers (Verus takes its
    /// congestion-avoidance set point from the delay samples).
    pub(crate) fn on_ack(&mut self, now: SimTime, ack: &AckPacket) -> Option<AckOutcome> {
        let sent_at = SimTime::from_micros(ack.echo_send_time_us);
        if sent_at >= now {
            return None;
        }
        let transition = self.step_session(|s| s.on_ack(now));
        let rtt = now.saturating_since(sent_at);
        // Stale ACKs (packet already declared lost) still carry valid
        // RTT samples; feeding them prevents a spurious-RTO spiral.
        self.rtt.on_sample(rtt);
        if self.outstanding.remove(ack.seq).is_none() {
            return Some(AckOutcome {
                transition,
                delay: None,
            });
        }
        let delay = SimTime::from_micros(ack.recv_time_us).saturating_since(sent_at);
        self.rto_retries = 0;
        self.cc.on_ack(
            now,
            &AckEvent {
                seq: ack.seq,
                bytes: u64::from(self.params.packet_bytes),
                rtt,
                delay,
                send_window: ack.send_window,
                abc_mark: None,
            },
        );
        self.rto_deadline = if self.outstanding.is_empty() {
            None
        } else {
            now.checked_add(self.rtt.rto())
        };
        let gap = self
            .rtt
            .srtt_or(GAP_SRTT_DEFAULT)
            .mul_f64(self.params.gap_factor);
        if let Some(gap_at) = now.checked_add(gap) {
            for (_, p) in self.outstanding.iter_below_mut(ack.seq) {
                if p.gap_deadline.is_none() {
                    p.gap_deadline = Some(gap_at);
                }
            }
        }
        Some(AckOutcome {
            transition,
            delay: Some(delay),
        })
    }

    /// Declares every overdue gap timer a `FastRetransmit` loss (the
    /// packet leaves the table and its sequence goes to `lost`) and
    /// returns how many fired.
    pub(crate) fn sweep_gaps(&mut self, now: SimTime, lost: &mut impl Extend<u64>) -> u64 {
        self.overdue.clear();
        self.overdue.extend(
            self.outstanding
                .iter()
                .filter(|(_, p)| p.gap_deadline.is_some_and(|d| d <= now))
                .map(|(seq, p)| (seq, p.send_window)),
        );
        for &(seq, send_window) in &self.overdue {
            self.outstanding.remove(seq);
            self.cc.on_loss(
                now,
                &LossEvent {
                    seq,
                    send_window,
                    kind: LossKind::FastRetransmit,
                },
            );
        }
        lost.extend(self.overdue.iter().map(|&(seq, _)| seq));
        self.overdue.len() as u64
    }

    /// Expires the RTO if it is due: the whole in-flight table is
    /// cleared as one `Timeout` on its oldest sequence (every cleared
    /// sequence goes to `lost`, in order), and the next deadline backs
    /// off exponentially. A deadline due on an empty table is simply
    /// cleared. Returns whether a timeout fired.
    pub(crate) fn expire_rto(&mut self, now: SimTime, lost: &mut impl Extend<u64>) -> bool {
        if self.rto_deadline.is_none_or(|d| now < d) {
            return false;
        }
        let Some((seq, send_window)) = self.outstanding.front().map(|(s, p)| (s, p.send_window))
        else {
            self.rto_deadline = None;
            return false;
        };
        lost.extend(self.outstanding.iter().map(|(seq, _)| seq));
        self.outstanding.clear();
        self.rto_retries = self.rto_retries.saturating_add(1);
        self.cc.on_loss(
            now,
            &LossEvent {
                seq,
                send_window,
                kind: LossKind::Timeout,
            },
        );
        self.rto_deadline = now.checked_add(self.rtt.backed_off_rto(self.rto_retries));
        true
    }

    /// Puts `seq` in flight and returns its data packet (send time
    /// `now`). Used for fresh sends, retransmissions and probes alike;
    /// stamps the RTO if none is pending.
    pub(crate) fn send(&mut self, now: SimTime, seq: u64) -> DataPacket {
        let send_window = self.cc.window().max(1.0);
        self.outstanding.insert(
            seq,
            InFlight {
                send_window,
                gap_deadline: None,
            },
        );
        self.cc
            .on_packet_sent(now, seq, u64::from(self.params.packet_bytes));
        if self.rto_deadline.is_none() {
            self.rto_deadline = now.checked_add(self.rtt.rto());
        }
        DataPacket {
            flow: self.params.flow,
            seq,
            send_time_us: now.as_micros(),
            send_window,
            payload_len: self.params.packet_bytes,
        }
    }

    /// Grants the controller's quota until it runs dry or `next_seq`
    /// has no sequence left, handing each grant to `out`. `next_seq`
    /// sees the engine, so the driver can skip a sequence that is back
    /// in flight. Above the shed cap one quota batch is shed instead
    /// (sequences consumed, never in flight) and the pump stops: a
    /// window-based controller would otherwise re-grant the same quota
    /// forever, since sheds never grow the in-flight count.
    ///
    /// # Errors
    /// The first error `out` returns.
    pub(crate) fn pump<E>(
        &mut self,
        now: SimTime,
        mut next_seq: impl FnMut(&Self) -> Option<u64>,
        mut out: impl FnMut(Pumped) -> Result<(), E>,
    ) -> Result<(), E> {
        loop {
            let in_flight = self.outstanding.len();
            let quota = self.cc.quota(now, in_flight);
            if quota == 0 {
                return Ok(());
            }
            let shed = self.params.shed_cap.is_some_and(|cap| in_flight >= cap);
            for _ in 0..quota {
                let Some(seq) = next_seq(self) else {
                    return Ok(());
                };
                if shed {
                    self.cc
                        .on_packet_sent(now, seq, u64::from(self.params.packet_bytes));
                    out(Pumped::Shed(seq))?;
                } else {
                    let pkt = self.send(now, seq);
                    out(Pumped::Sent(pkt))?;
                }
            }
            if shed {
                return Ok(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionConfig;
    use std::sync::{Arc, Mutex};
    use verus_core::VerusCc;
    use verus_netsim::impairment::SplitMix64;
    use verus_nettypes::packet::{ACK_LEN, DATA_HEADER_LEN, MAX_WIRE_TIME_US};
    use verus_nettypes::WireDecodeError;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    /// Everything a controller was told, in order.
    #[derive(Debug, Default)]
    struct Log {
        sent: Vec<u64>,
        acks: Vec<u64>,
        losses: Vec<(u64, LossKind)>,
        ticks: Vec<SimTime>,
        resumed: Vec<SimTime>,
    }

    type SharedLog = Arc<Mutex<Log>>;

    fn log_of(log: &SharedLog) -> std::sync::MutexGuard<'_, Log> {
        log.lock().unwrap()
    }

    /// A fixed-window controller that records every callback.
    struct Recorder {
        log: SharedLog,
        window: usize,
        tick: Option<SimDuration>,
    }

    impl CongestionControl for Recorder {
        fn name(&self) -> &'static str {
            "recorder"
        }
        fn quota(&mut self, _now: SimTime, in_flight: usize) -> usize {
            self.window.saturating_sub(in_flight)
        }
        fn on_packet_sent(&mut self, _now: SimTime, seq: u64, _bytes: u64) {
            log_of(&self.log).sent.push(seq);
        }
        fn on_ack(&mut self, _now: SimTime, ev: &AckEvent) {
            log_of(&self.log).acks.push(ev.seq);
        }
        fn on_loss(&mut self, _now: SimTime, ev: &LossEvent) {
            log_of(&self.log).losses.push((ev.seq, ev.kind));
        }
        fn tick_interval(&self) -> Option<SimDuration> {
            self.tick
        }
        fn on_tick(&mut self, now: SimTime) {
            log_of(&self.log).ticks.push(now);
        }
        fn on_session_resumed(&mut self, now: SimTime) {
            log_of(&self.log).resumed.push(now);
        }
        fn window(&self) -> f64 {
            self.window as f64
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    fn session_config() -> SessionConfig {
        SessionConfig {
            idle_degraded: SimDuration::from_millis(100),
            degraded_grace: SimDuration::from_millis(100),
            drain_timeout: SimDuration::from_millis(500),
            backoff_base: SimDuration::from_millis(10),
            backoff_cap: SimDuration::from_millis(100),
            seed: 3,
            session_id: 7,
        }
    }

    fn params(shed_cap: Option<usize>) -> FlowParams {
        FlowParams {
            flow: 7,
            packet_bytes: 100,
            gap_factor: 3.0,
            shed_cap,
            epoch: SimDuration::from_millis(5),
        }
    }

    fn engine_with(cc: Box<dyn CongestionControl>, shed_cap: Option<usize>) -> FlowEngine {
        FlowEngine::new(
            cc,
            Session::new(session_config(), SimTime::ZERO),
            params(shed_cap),
        )
    }

    fn recorder(
        window: usize,
        tick: Option<SimDuration>,
        shed_cap: Option<usize>,
    ) -> (FlowEngine, SharedLog) {
        let log = SharedLog::default();
        let cc = Recorder {
            log: Arc::clone(&log),
            window,
            tick,
        };
        (engine_with(Box::new(cc), shed_cap), log)
    }

    /// The ACK the receiver would send for `pkt`, stamped `recv`.
    fn ack_for(pkt: &DataPacket, recv: SimTime) -> AckPacket {
        AckPacket::for_packet(pkt, recv.as_micros())
    }

    #[test]
    fn stale_ack_feeds_the_rtt_estimator_but_not_the_controller() {
        let (mut e, log) = recorder(4, None, None);
        let pkt = e.send(ms(0), 0);
        let mut lost = Vec::new();
        assert!(e.expire_rto(ms(1_000), &mut lost), "initial RTO is 1 s");
        assert_eq!(e.in_flight(), 0);
        assert_eq!(lost, vec![0]);
        assert!(e.rtt.srtt().is_none());

        let out = e.on_ack(ms(1_100), &ack_for(&pkt, ms(1_050))).unwrap();
        assert_eq!(out.delay, None, "seq 0 was no longer in flight");
        assert_eq!(e.rtt.srtt(), Some(SimDuration::from_millis(1_100)));
        assert!(
            log_of(&log).acks.is_empty(),
            "a stale ACK fed the controller"
        );
        assert_eq!(e.rto_retries, 1, "a stale ACK does not reset the backoff");
    }

    #[test]
    fn an_ack_echoing_a_send_time_not_in_the_past_is_refused() {
        let (mut e, log) = recorder(4, None, None);
        let pkt = e.send(ms(10), 0);
        for echo in [ms(10), ms(11)] {
            let forged = AckPacket {
                echo_send_time_us: echo.as_micros(),
                ..ack_for(&pkt, ms(10))
            };
            assert_eq!(e.on_ack(ms(10), &forged), None);
        }
        assert!(e.is_in_flight(0));
        assert!(
            e.rtt.srtt().is_none(),
            "a forged echo fed the RTT estimator"
        );
        assert_eq!(e.session().state(), SessionState::Connecting);
        assert!(log_of(&log).acks.is_empty());
    }

    #[test]
    fn rto_clears_the_table_backs_off_and_resets_on_the_next_in_flight_ack() {
        let (mut e, log) = recorder(4, None, None);
        for seq in 0..3 {
            e.send(ms(0), seq);
        }
        assert_eq!(e.rto_deadline(), Some(ms(1_000)));
        let mut lost = Vec::new();
        assert!(!e.expire_rto(ms(999), &mut lost), "not due yet");
        assert!(lost.is_empty());
        assert!(e.expire_rto(ms(1_000), &mut lost));
        assert_eq!(e.in_flight(), 0);
        assert_eq!(lost, vec![0, 1, 2], "every cleared sequence is handed back");
        assert_eq!(log_of(&log).losses, vec![(0, LossKind::Timeout)]);
        assert_eq!(e.rto_retries, 1);
        assert_eq!(e.rto_deadline(), Some(ms(3_000)), "doubled from 1 s");

        // The backed-off deadline comes due on an empty table: cleared.
        assert!(!e.expire_rto(ms(3_000), &mut lost));
        assert_eq!(lost.len(), 3, "nothing more was lost");
        assert_eq!(e.rto_deadline(), None);
        assert_eq!(e.rto_retries, 1, "backoff survives until an ACK");

        let pkt = e.send(ms(3_100), 3);
        let out = e.on_ack(ms(3_150), &ack_for(&pkt, ms(3_120))).unwrap();
        assert_eq!(out.delay, Some(SimDuration::from_millis(20)));
        assert_eq!(e.rto_retries, 0);
        assert_eq!(e.rto_deadline(), None, "nothing left in flight");
        assert_eq!(log_of(&log).acks, vec![3]);
    }

    #[test]
    fn gap_timers_arm_only_below_the_ack_frontier_and_fire_as_fast_retransmit() {
        let (mut e, log) = recorder(8, None, None);
        let pkts: Vec<DataPacket> = (0..4).map(|seq| e.send(ms(0), seq)).collect();
        // ACK for seq 2 after 100 ms: srtt = 100 ms, so gap = 300 ms.
        e.on_ack(ms(100), &ack_for(&pkts[2], ms(60)));
        assert!(e
            .outstanding
            .get(0)
            .is_some_and(|p| p.gap_deadline == Some(ms(400))));
        assert!(e
            .outstanding
            .get(1)
            .is_some_and(|p| p.gap_deadline == Some(ms(400))));
        assert!(
            e.outstanding
                .get(3)
                .is_some_and(|p| p.gap_deadline.is_none()),
            "seq 3 is above the frontier"
        );
        let mut lost = Vec::new();
        assert_eq!(e.sweep_gaps(ms(399), &mut lost), 0);
        assert!(lost.is_empty());
        assert_eq!(e.sweep_gaps(ms(400), &mut lost), 2);
        assert_eq!(lost, vec![0, 1]);
        assert_eq!(
            log_of(&log).losses,
            vec![(0, LossKind::FastRetransmit), (1, LossKind::FastRetransmit)]
        );
        assert_eq!(e.in_flight(), 1);
        assert!(e.is_in_flight(3));
    }

    #[test]
    fn tick_catch_up_stamps_every_owed_boundary() {
        let (mut e, log) = recorder(4, Some(SimDuration::from_millis(5)), None);
        assert_eq!(e.epoch, SimDuration::from_millis(5));
        assert_eq!(e.tick_through(ms(5), ms(4)), ms(5), "nothing owed yet");
        assert_eq!(e.tick_through(ms(5), ms(17)), ms(20));
        assert_eq!(log_of(&log).ticks, vec![ms(5), ms(10), ms(15)]);
        assert_eq!(e.tick_through(SimTime::MAX, SimTime::MAX), SimTime::MAX);
    }

    #[test]
    fn controllers_without_a_tick_interval_get_no_ticks() {
        let (mut e, log) = recorder(4, None, None);
        assert_eq!(
            e.epoch,
            SimDuration::from_millis(5),
            "the maintenance cadence"
        );
        assert_eq!(e.tick_through(ms(5), ms(12)), ms(15));
        assert!(log_of(&log).ticks.is_empty());
    }

    #[test]
    fn no_ticks_while_draining() {
        let (mut e, log) = recorder(4, Some(SimDuration::from_millis(5)), None);
        let pkt = e.send(ms(0), 0);
        e.on_ack(ms(1), &ack_for(&pkt, ms(1)));
        assert_eq!(e.session().state(), SessionState::Established);
        assert!(e.step_session(|s| s.begin_drain(ms(2))).is_some());
        assert_eq!(e.tick_through(ms(5), ms(30)), ms(35));
        assert!(log_of(&log).ticks.is_empty(), "a draining flow was ticked");
    }

    #[test]
    fn resume_hook_fires_only_on_reconnecting_to_established() {
        let (mut e, log) = recorder(4, None, None);
        let mut seq = 0;
        // Sends one packet at `t` ms and takes its ACK 1 ms later.
        let mut ack_at = |e: &mut FlowEngine, t: u64| {
            let pkt = e.send(ms(t), seq);
            seq += 1;
            e.on_ack(ms(t + 1), &ack_for(&pkt, ms(t)))
                .unwrap()
                .transition
        };
        // Connecting → Established: the first connect is not a resume.
        let first = ack_at(&mut e, 0).expect("connects");
        assert_eq!(first.from, SessionState::Connecting);
        // Established → Degraded → Established: not a resume either.
        assert!(e.step_session(|s| s.poll(ms(101))).is_some());
        assert_eq!(e.session().state(), SessionState::Degraded);
        assert_eq!(
            ack_at(&mut e, 150).map(|t| t.from),
            Some(SessionState::Degraded)
        );
        assert!(log_of(&log).resumed.is_empty());
        // Degraded → Reconnecting → Established: the one resume.
        assert!(e.step_session(|s| s.poll(ms(251))).is_some());
        assert!(e.step_session(|s| s.poll(ms(351))).is_some());
        assert_eq!(e.session().state(), SessionState::Reconnecting);
        assert!(e.probe_due(ms(351)));
        assert_eq!(
            ack_at(&mut e, 360).map(|t| t.from),
            Some(SessionState::Reconnecting)
        );
        assert_eq!(log_of(&log).resumed, vec![ms(361)]);
        // Drain and close: no further resumes.
        assert!(e.step_session(|s| s.begin_drain(ms(400))).is_some());
        assert!(e.step_session(|s| s.drained(ms(400))).is_some());
        assert_eq!(log_of(&log).resumed.len(), 1);
    }

    #[test]
    fn a_shed_batch_consumes_sequences_but_never_enters_the_table() {
        let (mut e, log) = recorder(8, None, Some(3));
        let mut next = 0u64;
        let mut grants = Vec::new();
        // Under the cap: one full window goes on the wire.
        e.pump(
            ms(0),
            |_| {
                next += 1;
                Some(next - 1)
            },
            |g| {
                grants.push(g);
                Ok::<(), ()>(())
            },
        )
        .unwrap();
        assert_eq!(grants.len(), 8);
        assert!(grants.iter().all(|g| matches!(g, Pumped::Sent(_))));
        assert_eq!(e.in_flight(), 8);

        // Two ACKs free quota while 6 ≥ 3 are in flight: that quota
        // batch is shed, once, and the pump stops.
        for g in &grants[..2] {
            let Pumped::Sent(pkt) = g else { unreachable!() };
            e.on_ack(ms(10), &ack_for(pkt, ms(5)));
        }
        grants.clear();
        e.pump(
            ms(10),
            |_| {
                next += 1;
                Some(next - 1)
            },
            |g| {
                grants.push(g);
                Ok::<(), ()>(())
            },
        )
        .unwrap();
        assert_eq!(grants, vec![Pumped::Shed(8), Pumped::Shed(9)]);
        assert_eq!(e.in_flight(), 6);
        assert!(!e.is_in_flight(8) && !e.is_in_flight(9));
        assert_eq!(log_of(&log).sent, (0..10).collect::<Vec<_>>());
        assert_eq!(next, 10, "shed sequences are consumed");
    }

    #[test]
    fn the_pump_stops_when_the_sequence_source_runs_dry() {
        let (mut e, _log) = recorder(8, None, None);
        let mut left = 3u64;
        let mut sent = 0;
        e.pump(
            ms(0),
            |_| {
                left = left.checked_sub(1)?;
                Some(2 - left)
            },
            |_| {
                sent += 1;
                Ok::<(), ()>(())
            },
        )
        .unwrap();
        assert_eq!(sent, 3);
        assert_eq!(e.in_flight(), 3);
    }

    /// Forwards to a real controller and records which sequences it
    /// was told were acknowledged.
    struct Spy {
        inner: VerusCc,
        acks: Arc<Mutex<Vec<u64>>>,
    }

    impl CongestionControl for Spy {
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
            self.acks.lock().unwrap().push(ev.seq);
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

    /// Fills `buf` with `len` random bytes.
    fn random_bytes(rng: &mut SplitMix64, buf: &mut Vec<u8>, len: usize) {
        buf.clear();
        buf.extend((0..len).map(|_| rng.next_u64().to_le_bytes()[0]));
    }

    /// A timestamp at or past the `SimTime` edge, or an ordinary one
    /// up to just after `now_us`.
    fn edgy_time(rng: &mut SplitMix64, now_us: u64) -> u64 {
        let k = rng.next_u64() % 4;
        match rng.next_u64() % 8 {
            0 => MAX_WIRE_TIME_US - k,
            1 => MAX_WIRE_TIME_US + 1 + k,
            2 => u64::MAX - k,
            _ => rng.next_u64() % (now_us + 1_000),
        }
    }

    const CASES: u64 = 20_000;

    #[test]
    fn arbitrary_datagrams_never_panic_the_ack_path() {
        let mut rng = SplitMix64::new(0x5eed_ac4e);
        let acks = Arc::new(Mutex::new(Vec::new()));
        let spy = Spy {
            inner: VerusCc::default(),
            acks: Arc::clone(&acks),
        };
        let mut e = engine_with(Box::new(spy), None);
        let mut next_seq = 0u64;
        let mut buf = Vec::with_capacity(96);
        let (mut decoded, mut fed) = (0u64, 0u64);
        for case in 0..CASES {
            let now = ms(case);
            // Keep packets in flight so ACKs can land on them.
            while e.in_flight() < 16 {
                e.send(now, next_seq);
                next_seq += 1;
            }
            if rng.next_u64().is_multiple_of(2) {
                let len = usize::try_from(rng.next_u64() % 97).unwrap();
                random_bytes(&mut rng, &mut buf, len);
            } else {
                // Valid magic, hostile fields.
                let seq = match rng.next_u64() % 4 {
                    0 => u64::MAX - rng.next_u64() % 8,
                    1 => rng.next_u64(),
                    _ => next_seq.saturating_sub(1 + rng.next_u64() % 24),
                };
                let tail = usize::try_from(rng.next_u64() % 8).unwrap();
                random_bytes(&mut rng, &mut buf, tail);
                let mut head = Vec::with_capacity(ACK_LEN);
                head.extend_from_slice(&0x5641u16.to_be_bytes());
                head.extend_from_slice(&(rng.next_u64() as u32).to_be_bytes());
                head.extend_from_slice(&seq.to_be_bytes());
                head.extend_from_slice(&edgy_time(&mut rng, now.as_micros()).to_be_bytes());
                head.extend_from_slice(&edgy_time(&mut rng, now.as_micros()).to_be_bytes());
                let window = match rng.next_u64() % 3 {
                    0 => u64::MAX - rng.next_u64() % 1_000,
                    1 => rng.next_u64(),
                    _ => rng.next_u64() % 100_000,
                };
                head.extend_from_slice(&window.to_be_bytes());
                buf.splice(0..0, head);
            }
            let Ok(ack) = AckPacket::decode(&buf) else {
                let malformed = buf.len() < ACK_LEN
                    || buf[..2] != 0x5641u16.to_be_bytes()
                    || [6..14, 14..22, 22..30]
                        .into_iter()
                        .any(|r| u64::from_be_bytes(buf[r].try_into().unwrap()) > MAX_WIRE_TIME_US);
                assert!(malformed, "case {case}: well-formed ACK rejected: {buf:?}");
                continue;
            };
            decoded += 1;
            let was_in_flight = e.is_in_flight(ack.seq);
            let before = acks.lock().unwrap().len();
            let in_flight = e.in_flight();
            let Some(out) = e.on_ack(now, &ack) else {
                assert!(
                    ack.echo_send_time_us >= now.as_micros(),
                    "case {case}: ACK refused"
                );
                assert_eq!(
                    e.in_flight(),
                    in_flight,
                    "case {case}: a refused ACK changed the table"
                );
                assert_eq!(acks.lock().unwrap().len(), before);
                continue;
            };
            let seen = acks.lock().unwrap();
            if was_in_flight {
                fed += 1;
                assert_eq!(seen.len(), before + 1, "case {case}: in-flight ACK not fed");
                assert_eq!(seen.last(), Some(&ack.seq));
                assert!(out.delay.is_some());
            } else {
                assert_eq!(seen.len(), before, "case {case}: CC saw seq {}", ack.seq);
                assert!(out.delay.is_none());
            }
            assert!(!e.is_in_flight(ack.seq));
            assert_eq!(
                e.rto_deadline().is_some(),
                e.in_flight() > 0,
                "case {case}: RTO deadline out of step with the table"
            );
        }
        assert!(decoded > CASES / 5, "only {decoded} ACKs decoded");
        assert!(fed > CASES / 50, "only {fed} ACKs hit the in-flight table");
    }

    #[test]
    fn arbitrary_datagrams_never_panic_the_receiver_decode() {
        let mut rng = SplitMix64::new(0xda7a);
        let mut buf = Vec::with_capacity(96);
        let mut decoded = 0u64;
        for case in 0..CASES {
            let len = usize::try_from(rng.next_u64() % 97).unwrap();
            random_bytes(&mut rng, &mut buf, len);
            if rng.next_u64().is_multiple_of(2) && buf.len() >= DATA_HEADER_LEN {
                buf[..2].copy_from_slice(&0x5644u16.to_be_bytes());
                buf[14..22].copy_from_slice(&edgy_time(&mut rng, 1_000_000).to_be_bytes());
            }
            match DataPacket::decode(&buf) {
                Ok(pkt) => {
                    decoded += 1;
                    assert!(pkt.send_time_us <= MAX_WIRE_TIME_US);
                    // The receiver's reply must decode at the sender.
                    let recv_us = rng.next_u64() % (MAX_WIRE_TIME_US + 1);
                    let ack = AckPacket::decode(&AckPacket::for_packet(&pkt, recv_us).encode())
                        .unwrap_or_else(|err| panic!("case {case}: echo rejected: {err}"));
                    assert_eq!((ack.flow, ack.seq), (pkt.flow, pkt.seq));
                    assert_eq!(ack.echo_send_time_us, pkt.send_time_us);
                }
                Err(WireDecodeError::Truncated { got, .. }) => assert!(got < DATA_HEADER_LEN),
                Err(WireDecodeError::BadMagic { found }) => assert_ne!(found, 0x5644),
                Err(WireDecodeError::TimestampOutOfRange { us }) => {
                    assert!(us > MAX_WIRE_TIME_US);
                }
            }
        }
        assert!(decoded > CASES / 8, "only {decoded} data packets decoded");
    }
}
