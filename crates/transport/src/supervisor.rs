//! The supervised sender: one UDP socket, one wall-clock loop, one
//! [`FlowEngine`] — the paper's prototype sender (§5) inside a
//! [`Session`] lifecycle. Each loop iteration takes the session's owed
//! liveness edges (and starts draining once the duration is up), pays
//! owed ε-epoch ticks, runs the gap sweep and the RTO, drains ACKs, then
//! pumps the controller's quota — or, while disconnected, sends one
//! probe per [`BackoffSchedule`](crate::session::BackoffSchedule) slot —
//! and sleeps on the socket's 500 µs read timeout.
//!
//! The session layer adds what the paper's prototype leaves implicit:
//!
//! * **Liveness supervision** — per-state deadlines ([`SessionConfig`])
//!   notice a silent peer, degrade the session, and eventually move to
//!   explicit reconnect probing instead of hammering a dead link at the
//!   controller's pace.
//! * **Reconnect probes** — a probe is an ordinary data packet with a
//!   fresh sequence (the receiver ACKs all data packets), so the first
//!   ACK back both proves liveness and feeds the controller an RTT
//!   sample.
//! * **Session resumption** — on a reconnect the controller is *kept*,
//!   not rebuilt: [`CongestionControl::on_session_resumed`] lets it
//!   warm-restart from its learned link model.
//! * **Overload shedding** — above a configurable outstanding cap, new
//!   quota is shed: sequence numbers are consumed and counted
//!   ([`TransferStats::shed_dropped`]) but nothing hits the wire — the
//!   same column as the simulator's conservation ledger.
//!
//! Session transitions are emitted as `verus-trace` session records
//! when a trace handle is attached, and returned in the
//! [`SessionReport`] for SLO assertions (the chaos soak checks p99
//! time-to-recovery against these).

use crate::clock::WallClock;
use crate::flow::{FlowEngine, FlowParams, Pumped};
use crate::session::{Session, SessionConfig, Transition};
use crate::stats::TransferStats;
use std::net::{SocketAddr, UdpSocket};
use std::time::Duration;
use verus_nettypes::{AckPacket, CongestionControl, SimDuration, SimTime};
use verus_stats::{StreamingStats, ThroughputSeries};
use verus_trace::{SessionEventKind, SessionRecord, SessionState, TraceHandle};

/// Socket, pacing and duration configuration of one sender.
#[derive(Debug, Clone)]
pub struct SenderConfig {
    /// Destination (receiver or emulator ingress).
    pub dest: SocketAddr,
    /// Local bind address (use port 0 for ephemeral).
    pub bind: String,
    /// Payload bytes per packet (1400 in the paper).
    pub packet_bytes: u32,
    /// How long to send before draining.
    pub duration: Duration,
    /// Flow id stamped into packets.
    pub flow: u32,
    /// Gap-timer factor (§5.2's "3×delay"; window-based baselines
    /// approximate duplicate-ACK counting with a smaller factor).
    pub gap_factor: f64,
}

impl SenderConfig {
    /// Defaults for a Verus flow to `dest`.
    #[must_use]
    pub fn new(dest: SocketAddr, duration: Duration) -> Self {
        Self {
            dest,
            bind: "127.0.0.1:0".into(),
            packet_bytes: 1400,
            duration,
            flow: 1,
            gap_factor: 3.0,
        }
    }
}

/// Supervised-sender configuration: the sender's knobs plus the session
/// layer's.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Socket, pacing and duration configuration.
    pub sender: SenderConfig,
    /// Session liveness deadlines and backoff.
    pub session: SessionConfig,
    /// Overload guard: when this many packets are outstanding, further
    /// quota is shed instead of sent. `None` disables shedding.
    pub shed_outstanding_cap: Option<usize>,
}

impl SupervisorConfig {
    /// Defaults: the given sender config, default session deadlines, no
    /// shedding.
    #[must_use]
    pub fn new(sender: SenderConfig) -> Self {
        Self {
            sender,
            session: SessionConfig::default(),
            shed_outstanding_cap: None,
        }
    }
}

/// What a supervised run produced: transfer statistics plus the session
/// history the recovery SLOs are computed from.
#[derive(Debug)]
pub struct SessionReport {
    /// Packet-level statistics, including the shed count.
    pub stats: TransferStats,
    /// Every session-state edge taken, in order.
    pub transitions: Vec<Transition>,
    /// State at loop exit (always `Closed` unless the run was cut short
    /// by an I/O error).
    pub final_state: SessionState,
    /// Total reconnect/connect probes sent.
    pub probes_sent: u64,
}

impl SessionReport {
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
            .filter(|t| {
                t.from == SessionState::Reconnecting && t.to == SessionState::Established
            })
            .count() as u64
    }
}

/// The supervised sender: owns the socket, the flow engine and the
/// wall-clock loop.
pub struct SupervisedSender {
    config: SupervisorConfig,
    clock: WallClock,
    trace: TraceHandle,
}

impl SupervisedSender {
    /// Creates a supervised sender sharing `clock` with the local
    /// receiver/emulator, so one-way delays are exact.
    #[must_use]
    pub fn new(config: SupervisorConfig, clock: WallClock) -> Self {
        Self {
            config,
            clock,
            trace: TraceHandle::disabled(),
        }
    }

    /// Installs a trace handle; session transitions will be emitted as
    /// `verus-trace` session records.
    pub fn attach_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Runs `cc` under supervision until the configured duration
    /// elapses and the session drains, returning the report.
    ///
    /// # Errors
    /// Propagates socket setup/send/receive failures.
    pub fn run(&mut self, cc: Box<dyn CongestionControl>) -> std::io::Result<SessionReport> {
        let cfg = self.config.sender.clone();
        let socket = UdpSocket::bind(&cfg.bind)?;
        socket.connect(cfg.dest)?;
        socket.set_read_timeout(Some(Duration::from_micros(500)))?;

        let start = self.clock.now();
        let deadline = start + SimDuration::from_std(cfg.duration);
        let params = FlowParams {
            flow: cfg.flow,
            packet_bytes: cfg.packet_bytes,
            gap_factor: cfg.gap_factor,
            shed_cap: self.config.shed_outstanding_cap,
            // The loop itself is the maintenance clock: a controller
            // without a tick interval has no epochs here.
            epoch: SimDuration::MAX,
        };
        let mut stats = TransferStats {
            protocol: cc.name().to_string(),
            sent: 0,
            acked: 0,
            fast_losses: 0,
            timeouts: 0,
            shed_dropped: 0,
            throughput: ThroughputSeries::new(1.0),
            delays_ms: Vec::new(),
            delay_stats: StreamingStats::for_delays_ms(),
            duration_secs: cfg.duration.as_secs_f64(),
        };
        let mut engine = FlowEngine::new(cc, Session::new(self.config.session, start), params);
        let mut next_tick = start.checked_add(engine.epoch()).unwrap_or(SimTime::MAX);
        let mut transitions: Vec<Transition> = Vec::new();
        let mut last_change = start;
        let mut next_seq: u64 = 0;
        let mut buf = [0u8; 2048];
        let mut draining = false;
        while !engine.session().is_closed() {
            let now = self.clock.now();
            if now >= deadline && !draining {
                draining = true;
                if let Some(tr) = engine.step_session(|s| s.begin_drain(now)) {
                    self.note(tr, &mut last_change, &mut transitions);
                }
            }
            // A stalled loop can owe more than one liveness edge; take
            // them all.
            while let Some(tr) = engine.step_session(|s| s.poll(now)) {
                self.note(tr, &mut last_change, &mut transitions);
            }
            if engine.session().is_closed() {
                break;
            }

            next_tick = engine.tick_through(next_tick, now);
            stats.fast_losses += engine.sweep_gaps(now);
            if engine.expire_rto(now) {
                stats.timeouts += 1;
            }

            // Drain ACKs (bounded batch per iteration). Every valid ACK
            // is proof of peer liveness, even for a packet already
            // declared lost.
            for _ in 0..256 {
                match socket.recv(&mut buf) {
                    Ok(n) => {
                        let now = self.clock.now();
                        let Some(outcome) = AckPacket::decode(&buf[..n])
                            .ok()
                            .and_then(|ack| engine.on_ack(now, &ack))
                        else {
                            continue;
                        };
                        if let Some(tr) = outcome.transition {
                            self.note(tr, &mut last_change, &mut transitions);
                        }
                        if let Some(delay) = outcome.delay {
                            let delay_ms = delay.as_millis_f64();
                            stats.acked += 1;
                            stats.delay_stats.record(delay_ms);
                            stats.delays_ms.push(delay_ms);
                            let at = now.saturating_since(start).as_secs_f64();
                            stats.throughput.record(at, u64::from(cfg.packet_bytes));
                        }
                    }
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        break;
                    }
                    Err(e) => return Err(e),
                }
            }

            // Pump, or probe while disconnected. Every sequence is
            // fresh, probes included.
            let now = self.clock.now();
            if engine.session().may_send() {
                let fresh = || {
                    next_seq += 1;
                    Some(next_seq - 1)
                };
                engine.pump(now, fresh, |grant| {
                    stats.sent += 1;
                    match grant {
                        Pumped::Sent(pkt) => socket.send(&pkt.encode()).map(drop),
                        Pumped::Shed(_) => {
                            stats.shed_dropped += 1;
                            Ok(())
                        }
                    }
                })?;
            } else if engine.probe_due(now) {
                let pkt = engine.send(now, next_seq);
                next_seq += 1;
                stats.sent += 1;
                socket.send(&pkt.encode())?;
            }

            // Drain completion: everything out is accounted for.
            if draining && engine.in_flight() == 0 {
                let now = self.clock.now();
                if let Some(tr) = engine.step_session(|s| s.drained(now)) {
                    self.note(tr, &mut last_change, &mut transitions);
                }
            }
        }

        self.trace.flush();
        Ok(SessionReport {
            stats,
            final_state: engine.session().state(),
            probes_sent: engine.session().total_retries(),
            transitions,
        })
    }

    /// Records one session transition: trace records and report history
    /// (the engine already ran the resumption hook).
    fn note(
        &mut self,
        tr: Transition,
        last_change: &mut SimTime,
        transitions: &mut Vec<Transition>,
    ) {
        if self.trace.is_enabled() {
            self.trace.session(&SessionRecord {
                t_ns: tr.at.as_nanos(),
                kind: SessionEventKind::StateChange,
                state: tr.to,
                retries: tr.retries,
                elapsed_ns: tr.at.saturating_since(*last_change).as_nanos(),
            });
            if let Some(rec) = tr.recovered_after {
                self.trace.session(&SessionRecord {
                    t_ns: tr.at.as_nanos(),
                    kind: SessionEventKind::RecoveryComplete,
                    state: tr.to,
                    retries: tr.retries,
                    elapsed_ns: rec.as_nanos(),
                });
            }
        }
        *last_change = tr.at;
        transitions.push(tr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receiver::Receiver;
    use verus_nettypes::FixedWindow;

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

    #[test]
    fn supervised_run_establishes_transfers_and_drains() {
        let clock = WallClock::new();
        let rx = Receiver::spawn("127.0.0.1:0", clock).unwrap();
        let mut config = SupervisorConfig::new(SenderConfig::new(
            rx.local_addr(),
            Duration::from_millis(400),
        ));
        config.session = quick_session();
        let mut sender = SupervisedSender::new(config, clock);
        let report = sender.run(Box::new(FixedWindow::new(4))).unwrap();
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
        let clock = WallClock::new();
        // Bind a socket that never answers: the session must degrade,
        // reconnect-probe, and still close by the drain deadline.
        let dead = UdpSocket::bind("127.0.0.1:0").unwrap();
        let mut config = SupervisorConfig::new(SenderConfig::new(
            dead.local_addr().unwrap(),
            Duration::from_millis(600),
        ));
        config.session = quick_session();
        let mut sender = SupervisedSender::new(config, clock);
        let report = sender.run(Box::new(FixedWindow::new(2))).unwrap();

        assert_eq!(report.final_state, SessionState::Closed, "flow got stuck");
        assert!(!report.reached_established());
        assert!(
            report.probes_sent >= 2,
            "only {} probes against a dead peer",
            report.probes_sent
        );
        // Against a dead peer nothing is ever acked.
        assert_eq!(report.stats.acked, 0);
    }

    #[test]
    fn shed_cap_counts_refused_quota() {
        let clock = WallClock::new();
        let rx = Receiver::spawn("127.0.0.1:0", clock).unwrap();
        let mut config = SupervisorConfig::new(SenderConfig::new(
            rx.local_addr(),
            Duration::from_millis(300),
        ));
        config.session = quick_session();
        // Cap 0: the guard refuses every data-path quota grant, so the
        // only wire traffic is session probes — fully deterministic, no
        // race against how fast loopback ACKs drain `outstanding`.
        config.shed_outstanding_cap = Some(0);
        let mut sender = SupervisedSender::new(config, clock);
        let report = sender.run(Box::new(FixedWindow::new(8))).unwrap();
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
}
