//! The Verus sender state machine.
//!
//! [`VerusCc`] composes the four §4 elements — delay estimator, delay
//! profiler, window estimator, loss handler — into one
//! [`CongestionControl`] implementation driven by the transport:
//!
//! ```text
//!                    ┌────────────┐   delay > N·Dmin, or loss
//!          start ──▶ │ Slow start │ ─────────────┐
//!                    └────────────┘              ▼
//!                 ┌───────────────────┐   ┌──────────────┐
//!     loss ────▶  │   Loss recovery   │◀──│  Congestion  │◀─┐
//!                 │ (profile frozen,  │   │  avoidance   │  │ every ε:
//!                 │  W += 1/W per ACK)│──▶│ (ε epochs)   │──┘ Eq. 4+5
//!                 └───────────────────┘   └──────────────┘
//!                        ACK for post-loss packet
//! ```
//!
//! Phase behaviour:
//!
//! * **Slow start** (§5.1): window starts at one packet and grows by one
//!   per ACK; every `(send_window, delay)` pair seeds the delay profile.
//!   Exit on a loss or once a delay sample exceeds `N × Dmin`; the exit
//!   fits the initial profile curve.
//! * **Congestion avoidance**: window-estimator epochs every ε = 5 ms
//!   (Eq. 4 moves `Dest`, the profile inverts it to `W_{i+1}`, Eq. 5
//!   yields the epoch send quota `S_{i+1}`). Per-ACK profile point
//!   updates; curve re-interpolation once per second.
//! * **Loss recovery** (Eq. 6): window collapses to `M × W_loss`, profile
//!   freezes, TCP-style `1/W` growth per ACK, exit when an ACK echoes a
//!   sending window ≤ the current one (a post-loss packet).
//!
//! A **silent epoch** (no ACKs in ε ms) applies Eq. 4 with `ΔD = 0`,
//! which the equation's `otherwise` branch treats as "not worsening":
//! `Dest` drifts up unless the ratio guard `Dmax/Dmin > R` pulls it down.
//! This is the paper's literal reading; sustained silence is the RTO's
//! job, not the epoch loop's.

use crate::config::VerusConfig;
use crate::delay::DelayEstimator;
use crate::invariants;
use crate::loss::LossHandler;
use crate::profile::DelayProfiler;
use crate::window::{DelayTrend, WindowEstimator};
use serde::{Deserialize, Serialize};
use verus_nettypes::{
    AckEvent, CongestionControl, LossEvent, LossKind, RttEstimator, SimDuration, SimTime,
};
use verus_trace::{
    DeltaDecision, EpochRecord, PacketKind, PacketRecord, ProfileSnapshot, TraceHandle, TracePhase,
};

/// Protocol phase (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Phase {
    /// Exponential startup; builds the initial delay profile.
    SlowStart,
    /// Normal ε-epoch operation.
    CongestionAvoidance,
    /// Post-loss: profile frozen, TCP-style window growth.
    Recovery,
}

/// The Verus congestion controller.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VerusCc {
    config: VerusConfig,
    phase: Phase,
    delay_est: DelayEstimator,
    profiler: DelayProfiler,
    window_est: Option<WindowEstimator>,
    loss: LossHandler,
    rtt: RttEstimator,
    /// Current sending window `Wᵢ` (packets).
    w_cur: f64,
    /// Remaining send credit for the current epoch (`S` minus sends).
    credit: f64,
    /// Next scheduled profile re-interpolation.
    next_refit: SimTime,
    /// Highest sequence number handed to the network.
    highest_sent: u64,
    /// Losses of packets at or below this sequence belong to the current
    /// congestion event and must not collapse the window again
    /// (one Eq. 6 reduction per window of data, as in NewReno — the gap
    /// timer often condemns several packets of one event over a few
    /// epochs, and re-collapsing on each would stack reductions).
    loss_event_point: Option<u64>,
    /// Consecutive epochs spent pinned at the minimum window by the
    /// ratio guard (path-change detector, see config).
    epochs_pinned: u32,
    /// Raw per-epoch max delays observed while pinned (stability test).
    pinned_delays: Vec<f64>,
    /// Epochs elapsed (diagnostics).
    epochs: u64,
    /// Retransmission timeouts since the last ACK. Repeated back-to-back
    /// RTOs indicate a blackout; see
    /// [`VerusConfig::slow_start_after_timeouts`].
    consecutive_timeouts: u32,
    /// Tally of every phase-machine edge taken (diagnostics; see
    /// [`invariants::PhaseAudit`]).
    phase_audit: invariants::PhaseAudit,
    /// Telemetry sink (`verus-trace`): disabled by default, installed by
    /// the harness via [`CongestionControl::attach_trace`]. Never
    /// serialized — a deserialized controller comes back untraced —
    /// and clones share the same sink.
    #[serde(skip)]
    trace: TraceHandle,
    /// Profile re-interpolation count (the [`ProfileSnapshot`]
    /// generation). Counted on every refit so generation numbers are
    /// identical whether or not a trace sink is attached.
    #[serde(skip)]
    profile_generation: u64,
}

impl Default for VerusCc {
    fn default() -> Self {
        Self::new(VerusConfig::default())
    }
}

impl VerusCc {
    /// Creates a Verus controller in slow start.
    ///
    /// # Panics
    /// Panics if `config` fails [`VerusConfig::validate`].
    #[must_use]
    pub fn new(config: VerusConfig) -> Self {
        if let Err(e) = config.validate() {
            // Documented constructor contract (`# Panics` above): a bad
            // config is a programming error, not a runtime condition.
            panic!("invalid Verus config: {e}"); // verus-check: allow(no-unwrap-in-lib)
        }
        Self {
            config,
            phase: Phase::SlowStart,
            delay_est: DelayEstimator::with_dmin_window(config.ewma_alpha, config.dmin_window),
            profiler: DelayProfiler::with_max_age(
                config.profile_alpha,
                config.spline,
                config.profile_point_max_age,
            ),
            window_est: None,
            loss: LossHandler::new(config.loss_decrease),
            rtt: RttEstimator::default(),
            // §5.1: "the sender begins by sending a single packet".
            w_cur: 1.0,
            credit: 0.0,
            next_refit: SimTime::ZERO,
            highest_sent: 0,
            loss_event_point: None,
            epochs_pinned: 0,
            pinned_delays: Vec::new(),
            epochs: 0,
            consecutive_timeouts: 0,
            phase_audit: invariants::PhaseAudit::default(),
            trace: TraceHandle::disabled(),
            profile_generation: 0,
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &VerusConfig {
        &self.config
    }

    /// Current phase.
    #[must_use]
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Current delay set point `Dest` in ms (None during slow start).
    #[must_use]
    pub fn dest_ms(&self) -> Option<f64> {
        self.window_est.map(|w| w.dest_ms())
    }

    /// Minimum observed delay `Dmin`.
    #[must_use]
    pub fn dmin(&self) -> Option<SimDuration> {
        self.delay_est.dmin()
    }

    /// The delay profile (points + curve), e.g. for Figures 5 and 7b.
    #[must_use]
    pub fn profiler(&self) -> &DelayProfiler {
        &self.profiler
    }

    /// Epochs elapsed since start.
    #[must_use]
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Retransmission timeouts fired since the last ACK.
    #[must_use]
    pub fn consecutive_timeouts(&self) -> u32 {
        self.consecutive_timeouts
    }

    /// The phase-transition tally for this controller's lifetime.
    #[must_use]
    pub fn phase_audit(&self) -> &invariants::PhaseAudit {
        &self.phase_audit
    }

    /// Profile re-interpolations performed so far (the snapshot
    /// generation counter).
    #[must_use]
    pub fn profile_generation(&self) -> u64 {
        self.profile_generation
    }

    /// Curve samples captured per [`ProfileSnapshot`] (32 intervals).
    const PROFILE_SNAPSHOT_SAMPLES: usize = 33;

    fn trace_phase(&self) -> TracePhase {
        match self.phase {
            Phase::SlowStart => TracePhase::SlowStart,
            Phase::CongestionAvoidance => TracePhase::CongestionAvoidance,
            Phase::Recovery => TracePhase::Recovery,
        }
    }

    /// Remaining ratio-guard headroom `R − Dmax/Dmin` for the trace.
    fn trace_headroom(&self) -> Option<f64> {
        let dmax = self.delay_est.dmax_ms()?;
        let dmin = self.delay_est.dmin_ms()?.max(1e-3);
        Some(self.config.r - dmax / dmin)
    }

    /// Emits one [`EpochRecord`] (no-op when no sink is attached).
    fn trace_epoch(&mut self, now: SimTime, delay_ms: Option<f64>, decision: DeltaDecision) {
        if !self.trace.is_enabled() {
            return;
        }
        self.trace.epoch(&EpochRecord {
            t_ns: now.as_nanos(),
            epoch: self.epochs,
            phase: self.trace_phase(),
            window: self.w_cur,
            dest_ms: self.dest_ms(),
            delay_ms,
            decision,
            headroom: self.trace_headroom(),
        });
    }

    /// Emits a [`ProfileSnapshot`] of the current curve. Curve sampling
    /// is the one expensive emission, so it is fully gated on a sink
    /// being attached (refits happen ~once per second, not per packet).
    fn trace_profile_snapshot(&mut self, now: SimTime) {
        if !self.trace.is_enabled() {
            return;
        }
        self.trace.profile(&ProfileSnapshot {
            t_ns: now.as_nanos(),
            generation: self.profile_generation,
            samples: self.profiler.curve_samples(Self::PROFILE_SNAPSHOT_SAMPLES),
        });
    }

    /// Transitions slow start → congestion avoidance: fit the initial
    /// profile and seed `Dest` from the current smoothed maximum delay.
    /// Single phase-assignment choke point: every transition is checked
    /// against the legality table in [`crate::invariants`].
    fn set_phase(&mut self, to: Phase) {
        invariants::phase_transition(self.phase, to);
        if to == Phase::Recovery {
            invariants::recovery_requires_profile(self.window_est.is_some());
        }
        self.phase_audit.record(self.phase, to);
        self.phase = to;
    }

    fn enter_congestion_avoidance(&mut self, now: SimTime) {
        // Guarantee a fittable profile even on a pathologically early
        // exit (e.g. first-packet loss): synthesize a second point one
        // window above the only one we have.
        if self.profiler.len() < 2 {
            let base = self
                .delay_est
                .dmin_ms()
                .unwrap_or(self.config.epoch.as_millis_f64());
            self.profiler.add_sample(now, 1.0, base);
            self.profiler.add_sample(now, self.w_cur.max(2.0), base * 2.0);
        }
        self.profiler.refit(now);
        self.profile_generation += 1;
        self.trace_profile_snapshot(now);
        let dest0 = self
            .delay_est
            .dmax_ms()
            .or(self.delay_est.dmin_ms())
            .unwrap_or(self.config.epoch.as_millis_f64());
        invariants::finite_positive(dest0, "initial set point");
        self.window_est = Some(WindowEstimator::new(
            dest0,
            self.config.delta1,
            self.config.delta2,
            self.config.r,
        ));
        self.set_phase(Phase::CongestionAvoidance);
        self.next_refit = now + self.config.update_interval;
        self.credit = 0.0;
    }

    /// Runs one Eq. 4 + Eq. 5 epoch step (congestion avoidance only).
    /// `now` is only read by the trace hooks; the step itself is
    /// clocked by the tick cadence, not the timestamp.
    fn epoch_step(&mut self, now: SimTime) {
        let Some(ref mut west) = self.window_est else {
            self.trace_epoch(now, None, DeltaDecision::None);
            return;
        };
        let closed = self.delay_est.end_epoch();
        let (dmax, delta, raw_max) = match closed {
            Some(e) => (e.dmax_ms, e.delta_d_ms, Some(e.raw_max_ms)),
            // Silent epoch: ΔD = 0 with the previous Dmax (see module docs).
            None => match self.delay_est.dmax_ms() {
                Some(d) => (d, 0.0, None),
                None => {
                    // No delay information at all yet.
                    self.trace_epoch(now, None, DeltaDecision::None);
                    return;
                }
            },
        };
        let Some(dmin) = self.delay_est.dmin_ms() else {
            self.trace_epoch(now, Some(dmax), DeltaDecision::None);
            return;
        };
        let ratio_tripped = dmax / dmin.max(1e-3) > self.config.r;
        let prev_dest = west.dest_ms();
        let dest = west.step(&DelayTrend {
            dmax_ms: dmax,
            delta_d_ms: delta,
            dmin_ms: dmin.max(1e-3),
        });
        invariants::dest_step(
            prev_dest,
            dest,
            dmin.max(1e-3),
            self.config.delta2.as_millis_f64(),
            ratio_tripped,
        );
        let w_next = self
            .profiler
            .lookup_window(dest, self.config.min_window, self.config.max_window)
            .unwrap_or(self.w_cur)
            .min(self.w_cur * self.config.growth_cap + 2.0)
            .clamp(self.config.min_window, self.config.max_window);
        invariants::profile_lookup(w_next, self.config.min_window, self.config.max_window);
        // Path-change detection: pinned at the floor with the ratio guard
        // still tripping, delay no longer falling, AND delay *stable*
        // means the base RTT itself rose — re-learn Dmin. The stability
        // requirement is the discriminator against contention: with only
        // min_window packets of our own in flight, a path change shows a
        // flat delay floor, while competing traffic shows a noisy one
        // (and re-learning Dmin from a contended queue would ratchet the
        // protocol's delay bound upward without limit).
        if ratio_tripped && w_next <= self.config.min_window + 0.5 && delta > -0.1 {
            self.epochs_pinned += 1;
            if let Some(raw) = raw_max {
                self.pinned_delays.push(raw);
            }
            let pinned_for = self.config.epoch * u64::from(self.epochs_pinned);
            if pinned_for >= self.config.dmin_pinned_reset {
                let stable = match (
                    self.pinned_delays.iter().cloned().reduce(f64::min),
                    self.pinned_delays.iter().cloned().reduce(f64::max),
                ) {
                    (Some(lo), Some(hi)) if self.pinned_delays.len() >= 12 => {
                        hi <= lo * 1.15
                    }
                    _ => false,
                };
                if stable {
                    self.delay_est.reset_dmin();
                }
                self.epochs_pinned = 0;
                self.pinned_delays.clear();
            }
        } else {
            self.epochs_pinned = 0;
            self.pinned_delays.clear();
        }
        let rtt = self
            .rtt
            .srtt_or(self.config.epoch.mul_f64(4.0));
        let s = WindowEstimator::send_quota(w_next, self.w_cur, rtt, self.config.epoch);
        // Fresh quota each epoch; carry at most one packet of fractional
        // credit so sub-packet quotas still make progress.
        self.credit = s + self.credit.clamp(0.0, 1.0).fract();
        self.w_cur = w_next;
        invariants::quota_non_negative(self.credit);
        invariants::window_bounds(
            self.phase,
            self.w_cur,
            self.config.min_window,
            self.config.max_window,
        );
        // Mirror of WindowEstimator::step's branch order (Eq. 4).
        let decision = if ratio_tripped {
            DeltaDecision::RatioDown
        } else if delta > 0.0 {
            DeltaDecision::TrendDown
        } else {
            DeltaDecision::Up
        };
        self.trace_epoch(now, Some(dmax), decision);
    }
}

impl CongestionControl for VerusCc {
    fn name(&self) -> &'static str {
        "verus"
    }

    fn quota(&mut self, _now: SimTime, in_flight: usize) -> usize {
        match self.phase {
            Phase::SlowStart | Phase::Recovery => {
                (self.w_cur as usize).saturating_sub(in_flight)
            }
            Phase::CongestionAvoidance => {
                // Epoch-quota driven; the max_window cap bounds runaway
                // in-flight if ACKs stall.
                if in_flight as f64 >= self.config.max_window {
                    0
                } else {
                    self.credit.floor().max(0.0) as usize
                }
            }
        }
    }

    fn on_packet_sent(&mut self, now: SimTime, seq: u64, bytes: u64) {
        self.highest_sent = self.highest_sent.max(seq);
        if self.phase == Phase::CongestionAvoidance {
            self.credit = (self.credit - 1.0).max(0.0);
        }
        if self.trace.is_enabled() {
            self.trace.packet(&PacketRecord {
                t_ns: now.as_nanos(),
                kind: PacketKind::Send,
                seq,
                bytes,
                window: self.w_cur,
                rtt_ms: None,
            });
        }
    }

    fn on_ack(&mut self, now: SimTime, ev: &AckEvent) {
        if self.trace.is_enabled() {
            self.trace.packet(&PacketRecord {
                t_ns: now.as_nanos(),
                kind: PacketKind::Ack,
                seq: ev.seq,
                bytes: ev.bytes,
                window: ev.send_window,
                rtt_ms: Some(ev.rtt.as_millis_f64()),
            });
        }
        // Any ACK proves the channel is alive again.
        self.consecutive_timeouts = 0;
        // The prototype computes the packet round-trip delay at the sender
        // (§4 "Delay Estimator"); that RTT is the profile's y-axis. A
        // zero RTT (an ACK echoing a send time of `now`) is still an ACK
        // but no delay sample: as a Dmin of 0 it would end slow start on
        // the next ACK with a set point of 0. (Its zero delay can never
        // pass the slow-start exit test below.)
        let delay_ms = ev.rtt.as_millis_f64();
        invariants::delay_sample(ev.send_window, delay_ms);
        let delay_sample = ev.rtt > SimDuration::ZERO;
        if delay_sample {
            self.rtt.on_sample(ev.rtt);
            self.delay_est.record(now, ev.rtt);
        }

        // Profile point updates: always during slow start (initial
        // profile), frozen during recovery (§5.1), and gated by the
        // Figure 15 ablation flag afterwards.
        let update_profile = match self.phase {
            Phase::SlowStart => true,
            Phase::Recovery => !self.config.freeze_profile_in_recovery,
            Phase::CongestionAvoidance => self.config.profile_updates,
        };
        if delay_sample && update_profile {
            self.profiler.add_sample(now, ev.send_window.max(1.0), delay_ms);
        }

        match self.phase {
            Phase::SlowStart => {
                // Exponential growth, but never past the configured cap:
                // a slow start that outlives its welcome must not launch
                // an unbounded in-flight burst.
                self.w_cur = (self.w_cur + 1.0).min(self.config.max_window);
                if let Some(dmin) = self.delay_est.dmin_ms() {
                    if delay_ms > self.config.ss_exit_multiplier * dmin {
                        self.enter_congestion_avoidance(now);
                    }
                }
            }
            Phase::Recovery => {
                self.w_cur = self
                    .loss
                    .on_ack(self.w_cur, ev.send_window)
                    .min(self.config.max_window);
                if !self.loss.in_recovery() {
                    if self.window_est.is_some() {
                        self.set_phase(Phase::CongestionAvoidance);
                        // Re-anchor the set point at today's delay level.
                        if let (Some(w), Some(dmax)) =
                            (self.window_est.as_mut(), self.delay_est.dmax_ms())
                        {
                            w.reset(dmax);
                        }
                    } else {
                        // Loss ended a slow start that never built a
                        // profile: build it now.
                        self.enter_congestion_avoidance(now);
                    }
                }
            }
            Phase::CongestionAvoidance => {}
        }
        invariants::window_bounds(
            self.phase,
            self.w_cur,
            self.config.min_window,
            self.config.max_window,
        );
    }

    fn on_loss(&mut self, now: SimTime, ev: &LossEvent) {
        // Recorded at entry so the trace mirrors what the transport
        // declared, including stale losses the handler ignores below.
        if self.trace.is_enabled() {
            self.trace.packet(&PacketRecord {
                t_ns: now.as_nanos(),
                kind: match ev.kind {
                    LossKind::FastRetransmit => PacketKind::Loss,
                    LossKind::Timeout => PacketKind::Timeout,
                },
                seq: ev.seq,
                bytes: 0,
                window: ev.send_window,
                rtt_ms: None,
            });
        }
        // Losses mean contention, and contention inflates delay without
        // the base RTT changing — suppress the path-change detector.
        self.epochs_pinned = 0;
        match ev.kind {
            LossKind::FastRetransmit => {
                // Stale loss from an already-handled congestion event.
                if self
                    .loss_event_point
                    .is_some_and(|point| ev.seq <= point)
                {
                    return;
                }
                // A loss also terminates slow start (§5.1 exit condition 1).
                if self.phase == Phase::SlowStart {
                    self.enter_congestion_avoidance(now);
                }
                if let Some(w) = self.loss.on_loss(ev.send_window, self.config.min_window)
                {
                    self.w_cur = w.min(self.config.max_window);
                    self.set_phase(Phase::Recovery);
                    self.loss_event_point = Some(self.highest_sent);
                }
            }
            LossKind::Timeout => {
                // "Verus also uses a timeout mechanism similar to TCP in
                // case all packets are lost": collapse fully.
                self.consecutive_timeouts = self.consecutive_timeouts.saturating_add(1);
                self.loss_event_point = Some(self.highest_sent);
                self.w_cur = self.config.min_window;
                self.credit = 0.0;
                self.loss.reset();
                // Back-to-back RTOs (each one doubling the backed-off
                // timer) mean the channel was dark longer than any
                // congestion event: the profile is stale, so rebuild it
                // from scratch instead of probing with a dead curve.
                let blackout_escape = self.config.slow_start_after_timeouts > 0
                    && self.consecutive_timeouts >= self.config.slow_start_after_timeouts;
                if self.config.timeout_reenters_slow_start || blackout_escape {
                    self.set_phase(Phase::SlowStart);
                    self.w_cur = 1.0;
                    self.window_est = None;
                } else {
                    if self.phase == Phase::SlowStart {
                        self.enter_congestion_avoidance(now);
                    }
                    // Recovery semantics give the natural "wait until a
                    // post-collapse packet is ACKed" behaviour. The
                    // returned window is w_cur itself (M · w_cur/M floored
                    // at min_window, and w_cur == min_window here); only
                    // the armed recovery flag matters.
                    let _ = self.loss.on_loss(
                        self.w_cur / self.config.loss_decrease,
                        self.config.min_window,
                    );
                    self.set_phase(Phase::Recovery);
                }
            }
        }
        invariants::window_bounds(
            self.phase,
            self.w_cur,
            self.config.min_window,
            self.config.max_window,
        );
    }

    fn tick_interval(&self) -> Option<SimDuration> {
        Some(self.config.epoch)
    }

    fn on_tick(&mut self, now: SimTime) {
        self.epochs += 1;
        match self.phase {
            Phase::CongestionAvoidance => self.epoch_step(now),
            // Slow start and recovery are ACK-clocked; epochs only keep
            // the delay estimator's window aligned.
            Phase::SlowStart | Phase::Recovery => {
                let _ = self.delay_est.end_epoch();
                self.trace_epoch(now, self.delay_est.dmax_ms(), DeltaDecision::None);
            }
        }
        if self.config.profile_updates
            && self.phase != Phase::Recovery
            && now >= self.next_refit
            && self.window_est.is_some()
        {
            self.profiler.refit(now);
            self.profile_generation += 1;
            self.next_refit = now + self.config.update_interval;
            self.trace_profile_snapshot(now);
        }
    }

    fn attach_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    fn on_session_resumed(&mut self, now: SimTime) {
        // The session layer re-established the connection after a
        // disruption. Everything learned about the *link* (delay
        // profile, Dmin/Dmax estimates) is worth keeping; everything
        // that tracked the *disruption* (RTO escalation, recovery
        // bookkeeping, pin counters) is stale and must go, or the
        // resumed connection starts life half-collapsed.
        self.consecutive_timeouts = 0;
        self.loss.reset();
        self.loss_event_point = None;
        self.epochs_pinned = 0;
        self.pinned_delays.clear();
        self.credit = 0.0;
        if self.window_est.is_some() {
            // The learned model survived the disruption: resume in
            // congestion avoidance at a conservative window, with the
            // set point re-anchored at the current delay level so the
            // first post-resume epochs don't chase a pre-blackout Dest.
            self.set_phase(Phase::CongestionAvoidance);
            self.w_cur = self.config.min_window;
            if let (Some(w), Some(dmax)) =
                (self.window_est.as_mut(), self.delay_est.dmax_ms())
            {
                w.reset(dmax);
            }
            self.next_refit = now + self.config.update_interval;
        } else if self.phase == Phase::SlowStart && self.profiler.len() >= 2 {
            // A blackout escape dropped the estimator but the profiler
            // still holds the learned curve: rebuild the estimator from
            // it instead of re-probing the channel one packet at a time.
            self.enter_congestion_avoidance(now);
            self.w_cur = self.config.min_window;
        }
        // A genuinely cold controller (no profile yet) keeps probing in
        // slow start — resumption has nothing to warm-restart from.
        invariants::window_bounds(
            self.phase,
            self.w_cur,
            self.config.min_window,
            self.config.max_window,
        );
    }

    fn window(&self) -> f64 {
        self.w_cur
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
#[allow(clippy::explicit_counter_loop)]
mod tests {
    use super::*;

    fn ack(seq: u64, rtt_ms: f64, send_window: f64) -> AckEvent {
        AckEvent {
            seq,
            bytes: 1400,
            rtt: SimDuration::from_millis_f64(rtt_ms),
            delay: SimDuration::from_millis_f64(rtt_ms / 2.0),
            send_window,
            abc_mark: None,
        }
    }

    /// Drive slow start with a linear delay-vs-window channel until CA.
    /// delay(W) = base + slope·W ms.
    fn run_slow_start(cc: &mut VerusCc, base: f64, slope: f64) -> u64 {
        let mut seq = 0u64;
        let mut now = SimTime::ZERO;
        for _ in 0..10_000 {
            if cc.phase() != Phase::SlowStart {
                break;
            }
            let w = cc.window();
            cc.on_packet_sent(now, seq, 1400);
            cc.on_ack(now, &ack(seq, base + slope * w, w));
            seq += 1;
            now += SimDuration::from_millis(1);
            if seq.is_multiple_of(5) {
                cc.on_tick(now);
            }
        }
        seq
    }

    #[test]
    fn zero_rtt_ack_is_not_a_delay_sample() {
        // An ACK echoing a send time of `now` once set Dmin to 0; the
        // next ACK then left slow start with an initial set point of 0
        // and tripped the finite-positive invariant.
        let mut cc = VerusCc::default();
        cc.on_packet_sent(SimTime::ZERO, 0, 1400);
        cc.on_packet_sent(SimTime::ZERO, 1, 1400);
        cc.on_ack(SimTime::ZERO, &ack(0, 0.0, 1.0));
        assert_eq!(cc.window(), 2.0, "a zero-RTT ACK still grows the window");
        assert_eq!(cc.phase(), Phase::SlowStart);
        let now = SimTime::from_millis(50);
        cc.on_ack(now, &ack(1, 50.0, 2.0));
        assert_eq!(cc.phase(), Phase::SlowStart, "the first real sample is Dmin");
        assert_eq!(cc.window(), 3.0);
    }

    #[test]
    fn starts_in_slow_start_with_one_packet() {
        let cc = VerusCc::default();
        assert_eq!(cc.phase(), Phase::SlowStart);
        assert_eq!(cc.window(), 1.0);
        assert_eq!(cc.tick_interval(), Some(SimDuration::from_millis(5)));
    }

    #[test]
    fn slow_start_grows_per_ack_and_exits_on_delay() {
        let mut cc = VerusCc::default();
        // base 10 ms, slope 2 ms/packet → exit when 10+2W > 15·10 → W > 70
        run_slow_start(&mut cc, 10.0, 2.0);
        assert_eq!(cc.phase(), Phase::CongestionAvoidance);
        assert!(cc.window() > 60.0, "window {}", cc.window());
        assert!(cc.profiler().has_curve());
        assert!(cc.profiler().len() > 10);
        // Dest seeded near the exit-time Dmax.
        assert!(cc.dest_ms().unwrap() > 10.0);
    }

    #[test]
    fn slow_start_exits_on_loss_too() {
        let mut cc = VerusCc::default();
        let mut now = SimTime::ZERO;
        for s in 0..10u64 {
            let w = cc.window();
            cc.on_packet_sent(now, s, 1400);
            cc.on_ack(now, &ack(s, 20.0, w));
            now += SimDuration::from_millis(1);
        }
        cc.on_loss(
            now,
            &LossEvent {
                seq: 11,
                send_window: 10.0,
                kind: LossKind::FastRetransmit,
            },
        );
        assert_eq!(cc.phase(), Phase::Recovery);
        // Eq. 6: 0.5 · 10 = 5
        assert_eq!(cc.window(), 5.0);
        assert!(cc.profiler().has_curve());
    }

    #[test]
    fn ca_low_delay_grows_window() {
        let mut cc = VerusCc::default();
        run_slow_start(&mut cc, 10.0, 2.0);
        let w0 = cc.window();
        // Feed epochs whose delay is low (ratio ≤ R, falling trend):
        let mut now = SimTime::from_secs(1);
        let mut seq = 1000u64;
        for _ in 0..100 {
            cc.on_ack(now, &ack(seq, 12.0, cc.window()));
            seq += 1;
            now += SimDuration::from_millis(5);
            cc.on_tick(now);
        }
        // Dest rose by ~δ2 per epoch → window target climbed the profile.
        assert!(
            cc.window() >= w0,
            "window fell {w0} → {} despite improving delay",
            cc.window()
        );
        assert!(cc.dest_ms().unwrap() > 15.0);
    }

    #[test]
    fn ca_ratio_violation_shrinks_dest() {
        let mut cc = VerusCc::default();
        run_slow_start(&mut cc, 10.0, 2.0);
        let dest0 = cc.dest_ms().unwrap();
        let mut now = SimTime::from_secs(1);
        let mut seq = 1000u64;
        // delay 100 ms vs dmin 12 → ratio ≈ 8.3 > R = 2 → −δ2 per epoch
        for _ in 0..20 {
            cc.on_ack(now, &ack(seq, 100.0, cc.window()));
            seq += 1;
            now += SimDuration::from_millis(5);
            cc.on_tick(now);
        }
        assert!(
            cc.dest_ms().unwrap() < dest0,
            "Dest did not fall: {dest0} → {}",
            cc.dest_ms().unwrap()
        );
    }

    #[test]
    fn loss_in_ca_collapses_from_w_loss_and_freezes_profile() {
        let mut cc = VerusCc::default();
        run_slow_start(&mut cc, 10.0, 2.0);
        let points_before = cc.profiler().points();
        cc.on_loss(
            SimTime::from_secs(2),
            &LossEvent {
                seq: 5000,
                send_window: 40.0,
                kind: LossKind::FastRetransmit,
            },
        );
        assert_eq!(cc.phase(), Phase::Recovery);
        assert_eq!(cc.window(), 20.0);
        // ACKs during recovery must not move profile points.
        cc.on_ack(SimTime::from_secs(2), &ack(5001, 500.0, 80.0));
        assert_eq!(cc.profiler().points(), points_before);
    }

    #[test]
    fn recovery_exits_via_post_loss_ack_and_grows() {
        let mut cc = VerusCc::default();
        run_slow_start(&mut cc, 10.0, 2.0);
        cc.on_loss(
            SimTime::from_secs(2),
            &LossEvent {
                seq: 5000,
                send_window: 40.0,
                kind: LossKind::FastRetransmit,
            },
        );
        let w = cc.window(); // 20
        // Pre-loss ACK (echoed window 40 > 20): stays in recovery.
        cc.on_ack(SimTime::from_secs(2), &ack(5001, 30.0, 40.0));
        assert_eq!(cc.phase(), Phase::Recovery);
        assert!(cc.window() > w);
        // Post-loss ACK (echoed window ≤ current): exits.
        cc.on_ack(SimTime::from_secs(2), &ack(5002, 30.0, 10.0));
        assert_eq!(cc.phase(), Phase::CongestionAvoidance);
    }

    #[test]
    fn timeout_collapses_to_min_window() {
        let mut cc = VerusCc::default();
        run_slow_start(&mut cc, 10.0, 2.0);
        cc.on_loss(
            SimTime::from_secs(2),
            &LossEvent {
                seq: 1,
                send_window: 50.0,
                kind: LossKind::Timeout,
            },
        );
        assert_eq!(cc.window(), cc.config().min_window);
        assert_eq!(cc.phase(), Phase::Recovery);
    }

    #[test]
    fn timeout_can_reenter_slow_start() {
        let mut cc = VerusCc::new(VerusConfig {
            timeout_reenters_slow_start: true,
            ..VerusConfig::default()
        });
        run_slow_start(&mut cc, 10.0, 2.0);
        cc.on_loss(
            SimTime::from_secs(2),
            &LossEvent {
                seq: 1,
                send_window: 50.0,
                kind: LossKind::Timeout,
            },
        );
        assert_eq!(cc.phase(), Phase::SlowStart);
        assert_eq!(cc.window(), 1.0);
    }

    fn timeout_at(cc: &mut VerusCc, secs: u64, seq: u64) {
        cc.on_loss(
            SimTime::from_secs(secs),
            &LossEvent {
                seq,
                send_window: 50.0,
                kind: LossKind::Timeout,
            },
        );
    }

    #[test]
    fn repeated_timeouts_reenter_slow_start() {
        // Default config: collapse-only on isolated timeouts, but three
        // back-to-back RTOs (a blackout) rebuild the profile.
        let mut cc = VerusCc::default();
        assert_eq!(cc.config().slow_start_after_timeouts, 3);
        run_slow_start(&mut cc, 10.0, 2.0);
        timeout_at(&mut cc, 2, 1);
        assert_eq!(cc.phase(), Phase::Recovery);
        assert_eq!(cc.consecutive_timeouts(), 1);
        timeout_at(&mut cc, 3, 2);
        assert_eq!(cc.phase(), Phase::Recovery);
        timeout_at(&mut cc, 5, 3);
        assert_eq!(cc.phase(), Phase::SlowStart, "third RTO must re-enter slow start");
        assert_eq!(cc.window(), 1.0);
        assert_eq!(cc.consecutive_timeouts(), 3);
        assert!(cc.phase_audit().all_legal());
        assert_eq!(
            cc.phase_audit()
                .count(Phase::Recovery, Phase::SlowStart),
            1
        );
    }

    #[test]
    fn ack_resets_the_timeout_streak() {
        let mut cc = VerusCc::default();
        run_slow_start(&mut cc, 10.0, 2.0);
        timeout_at(&mut cc, 2, 1);
        timeout_at(&mut cc, 3, 2);
        assert_eq!(cc.consecutive_timeouts(), 2);
        // An ACK in between proves the channel is alive: the streak
        // restarts and the next isolated RTO only collapses the window.
        cc.on_ack(SimTime::from_millis(3500), &ack(4, 40.0, 2.0));
        assert_eq!(cc.consecutive_timeouts(), 0);
        timeout_at(&mut cc, 4, 5);
        assert_eq!(cc.consecutive_timeouts(), 1);
        assert_eq!(cc.phase(), Phase::Recovery);
    }

    #[test]
    fn zero_threshold_disables_blackout_escape() {
        let mut cc = VerusCc::new(VerusConfig {
            slow_start_after_timeouts: 0,
            ..VerusConfig::default()
        });
        run_slow_start(&mut cc, 10.0, 2.0);
        for (i, secs) in (2..8).enumerate() {
            timeout_at(&mut cc, secs, i as u64 + 1);
        }
        assert_eq!(cc.phase(), Phase::Recovery, "escape hatch must stay off");
        assert_eq!(cc.consecutive_timeouts(), 6);
    }

    #[test]
    fn session_resume_with_profile_reenters_ca_conservatively() {
        // Disruption short of a blackout escape: the estimator survives,
        // so resumption re-enters CA at the floor with clean loss state.
        let mut cc = VerusCc::default();
        run_slow_start(&mut cc, 10.0, 2.0);
        timeout_at(&mut cc, 2, 1);
        timeout_at(&mut cc, 3, 2);
        assert_eq!(cc.phase(), Phase::Recovery);
        cc.on_session_resumed(SimTime::from_secs(4));
        assert_eq!(cc.phase(), Phase::CongestionAvoidance);
        assert_eq!(cc.window(), cc.config().min_window);
        assert_eq!(cc.consecutive_timeouts(), 0, "RTO streak must clear");
        assert!(cc.window_est.is_some(), "learned estimator must survive");
        assert!(cc.phase_audit().all_legal());
    }

    #[test]
    fn session_resume_after_blackout_escape_warm_restarts_from_profiler() {
        // A full blackout escape dropped the estimator and re-entered
        // slow start — but the profiler still holds the learned curve,
        // so resumption rebuilds the estimator instead of probing from
        // one packet.
        let mut cc = VerusCc::default();
        run_slow_start(&mut cc, 10.0, 2.0);
        for secs in 2..5 {
            timeout_at(&mut cc, secs, secs - 1);
        }
        assert_eq!(cc.phase(), Phase::SlowStart);
        assert!(cc.window_est.is_none());
        cc.on_session_resumed(SimTime::from_secs(6));
        assert_eq!(
            cc.phase(),
            Phase::CongestionAvoidance,
            "resume must warm-restart, not cold slow start"
        );
        assert!(cc.window_est.is_some());
        assert_eq!(cc.window(), cc.config().min_window);
        assert!(cc.phase_audit().all_legal());
    }

    #[test]
    fn session_resume_on_cold_controller_keeps_probing() {
        // Nothing learned yet: resumption has no model to restore, so
        // the controller stays in slow start at one packet.
        let mut cc = VerusCc::default();
        cc.on_session_resumed(SimTime::from_secs(1));
        assert_eq!(cc.phase(), Phase::SlowStart);
        assert_eq!(cc.window(), 1.0);
        assert!(cc.window_est.is_none());
    }

    #[test]
    fn phase_audit_tracks_the_lifecycle() {
        let mut cc = VerusCc::default();
        assert_eq!(cc.phase_audit().total(), 0);
        run_slow_start(&mut cc, 10.0, 2.0);
        assert_eq!(
            cc.phase_audit()
                .count(Phase::SlowStart, Phase::CongestionAvoidance),
            1
        );
        timeout_at(&mut cc, 2, 1);
        assert_eq!(
            cc.phase_audit()
                .count(Phase::CongestionAvoidance, Phase::Recovery),
            1
        );
        assert!(cc.phase_audit().all_legal());
    }

    #[test]
    fn ca_quota_is_epoch_credit_not_window() {
        let mut cc = VerusCc::default();
        run_slow_start(&mut cc, 10.0, 2.0);
        let mut now = SimTime::from_secs(1);
        // Run epochs with ACKs until the estimator grants a quota (the
        // first epochs after slow start may legitimately send nothing
        // while the window target corrects the slow-start overshoot).
        let mut q = 0;
        let mut seq_probe = 999u64;
        for _ in 0..50 {
            cc.on_ack(now, &ack(seq_probe, 20.0, cc.window()));
            seq_probe += 1;
            now += SimDuration::from_millis(5);
            cc.on_tick(now);
            q = cc.quota(now, 0);
            if q > 0 {
                break;
            }
        }
        assert!(q > 0, "no epoch credit granted within 50 epochs");
        // Draining the credit brings quota to zero even with nothing in
        // flight — the defining difference from window-based control.
        for s in 0..q as u64 {
            cc.on_packet_sent(now, 10_000 + s, 1400);
        }
        assert_eq!(cc.quota(now, 0), 0);
    }

    #[test]
    fn steady_state_sends_about_one_window_per_rtt() {
        let mut cc = VerusCc::default();
        run_slow_start(&mut cc, 10.0, 2.0);
        // Pin the channel: every epoch, ACKs arrive with delay equal to
        // Dest so the profile and Dest agree; count what CA sends per RTT.
        let mut now = SimTime::from_secs(1);
        let mut seq = 10_000u64;
        let mut sent_per_epoch = Vec::new();
        for _ in 0..200 {
            let w = cc.window();
            cc.on_ack(now, &ack(seq, 10.0 + 2.0 * w, w));
            seq += 1;
            now += SimDuration::from_millis(5);
            cc.on_tick(now);
            let q = cc.quota(now, 0);
            for s in 0..q {
                cc.on_packet_sent(now, seq + 1000 + s as u64, 1400);
            }
            sent_per_epoch.push(q as f64);
        }
        let tail: Vec<f64> = sent_per_epoch[100..].to_vec();
        let per_epoch = tail.iter().sum::<f64>() / tail.len() as f64;
        let w = cc.window();
        // RTT here ≈ 10+2W ms → n ≈ ceil(rtt/5); S ≈ W/(n−1).
        let rtt_ms = 10.0 + 2.0 * w;
        let n = (rtt_ms / 5.0).ceil();
        let expected = w / (n - 1.0);
        assert!(
            (per_epoch - expected).abs() < expected * 0.6 + 1.0,
            "sent/epoch {per_epoch}, expected ≈ {expected} (W={w})"
        );
    }

    #[test]
    fn static_profile_ablation_freezes_points() {
        let mut cc = VerusCc::new(VerusConfig {
            profile_updates: false,
            ..VerusConfig::default()
        });
        run_slow_start(&mut cc, 10.0, 2.0);
        let before = cc.profiler().points();
        let mut now = SimTime::from_secs(1);
        for s in 0..50u64 {
            cc.on_ack(now, &ack(2000 + s, 300.0, 20.0));
            now += SimDuration::from_millis(5);
            cc.on_tick(now);
        }
        assert_eq!(cc.profiler().points(), before);
    }

    #[test]
    fn silent_epochs_do_not_panic_and_drift_dest_up() {
        let mut cc = VerusCc::default();
        run_slow_start(&mut cc, 10.0, 0.1); // low delays: ratio ≤ R at exit?
        // force a known state: ratio below R by resetting dest high… just
        // run silent epochs and check Dest moves monotonically.
        let d0 = cc.dest_ms().unwrap();
        let mut now = SimTime::from_secs(1);
        for _ in 0..10 {
            now += SimDuration::from_millis(5);
            cc.on_tick(now);
        }
        let d1 = cc.dest_ms().unwrap();
        assert!(d1 != d0, "Dest frozen across silent epochs");
        assert!(cc.window().is_finite());
    }

    #[test]
    #[should_panic(expected = "invalid Verus config")]
    fn rejects_invalid_config() {
        let _ = VerusCc::new(VerusConfig {
            r: 0.5,
            ..VerusConfig::default()
        });
    }
}
