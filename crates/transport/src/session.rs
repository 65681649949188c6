//! Session lifecycle: a supervised connection state machine.
//!
//! The paper's prototype assumes the channel eventually comes back and
//! simply keeps probing; a deployable sender needs an explicit notion of
//! *connection state* — is the peer answering, how long has it been
//! silent, when do we probe again, when do we give up. This module is
//! that notion, factored out of the I/O loop so it can be driven (and
//! model-checked) without sockets or threads:
//!
//! ```text
//!            first ACK                        idle deadline
//! Connecting ─────────▶ Established ─────────▶ Degraded
//!     ▲  │ probe at capped backoff    ▲            │ grace expires
//!     │  ▼                           ACK           ▼
//!     └─(retry)         Established ◀───────── Reconnecting ─┐
//!                            │                    ▲  │ probe │
//!                            │ drain requested    └──┘ at capped
//!                            ▼                         backoff
//!                        Draining ──▶ Closed  (◀─ abort from any state)
//! ```
//!
//! Everything is clock-injected: callers pass `now` ([`SimTime`] on the
//! shared [`crate::WallClock`]) into every method, so the machine is a
//! pure function of its inputs and replays identically under simulated
//! time — the chaos soak and the `verus-model` interleaving checks rely
//! on this.
//!
//! Probe pacing uses truncated binary exponential backoff with
//! deterministic jitter ([`BackoffSchedule`]):
//! `delay(n) = min(base · 2ⁿ · jₙ, cap)` with `jₙ ∈ [0.5, 1.0)` drawn
//! from a [`SplitMix64`] stream seeded by `(seed, session_id)`. The
//! half-open jitter keeps the sequence monotone below the cap
//! (`base·2ⁿ⁺¹·0.5 = base·2ⁿ ≥ base·2ⁿ·jₙ`) while desynchronizing
//! sessions that share a seed — a fleet reconnecting after one blackout
//! must not stampede the link in lockstep.

use verus_netsim::impairment::SplitMix64;
use verus_nettypes::{SimDuration, SimTime};
use verus_trace::SessionState;

/// Session-layer tunables. Durations are per-state liveness deadlines;
/// see the field docs for what each one watches.
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig {
    /// `Established` with no ACK for this long → `Degraded`. Should
    /// comfortably exceed the RTO so ordinary congestion events don't
    /// degrade the session.
    pub idle_degraded: SimDuration,
    /// `Degraded` with still no ACK for this long → `Reconnecting`
    /// (probing at backoff instead of trusting the normal send path).
    pub degraded_grace: SimDuration,
    /// `Draining` for this long → `Closed` even if ACKs are missing;
    /// bounds shutdown.
    pub drain_timeout: SimDuration,
    /// First-attempt reconnect probe spacing (`base` in the backoff).
    pub backoff_base: SimDuration,
    /// Backoff ceiling (`cap`); doubling stops here.
    pub backoff_cap: SimDuration,
    /// Jitter seed shared by a test/benchmark run.
    pub seed: u64,
    /// Distinguishes sessions sharing a seed (jitter decorrelation).
    pub session_id: u64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            idle_degraded: SimDuration::from_millis(500),
            degraded_grace: SimDuration::from_millis(500),
            drain_timeout: SimDuration::from_secs(2),
            backoff_base: SimDuration::from_millis(50),
            backoff_cap: SimDuration::from_secs(1),
            seed: 0,
            session_id: 0,
        }
    }
}

impl SessionConfig {
    /// Sanity-checks the deadlines (all must be positive, and the
    /// backoff cap must not undercut its base).
    ///
    /// # Errors
    /// A human-readable description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        for (name, d) in [
            ("idle_degraded", self.idle_degraded),
            ("degraded_grace", self.degraded_grace),
            ("drain_timeout", self.drain_timeout),
            ("backoff_base", self.backoff_base),
            ("backoff_cap", self.backoff_cap),
        ] {
            if d <= SimDuration::ZERO {
                return Err(format!("{name} must be positive"));
            }
        }
        if self.backoff_cap < self.backoff_base {
            return Err(format!(
                "backoff_cap ({:?}) must be >= backoff_base ({:?})",
                self.backoff_cap, self.backoff_base
            ));
        }
        Ok(())
    }
}

/// Truncated exponential backoff with deterministic jitter.
///
/// Stateful: each [`Self::delay`] call consumes one jitter draw, so a
/// schedule replays identically only from a fresh construction with the
/// same `(seed, session_id)` — which is exactly how [`Session`] uses it
/// (one schedule per disruption).
#[derive(Debug, Clone)]
pub struct BackoffSchedule {
    base: SimDuration,
    cap: SimDuration,
    rng: SplitMix64,
}

impl BackoffSchedule {
    /// A schedule growing from `base` to `cap`, jittered by a stream
    /// derived from `seed` and `session_id`.
    #[must_use]
    pub fn new(base: SimDuration, cap: SimDuration, seed: u64, session_id: u64) -> Self {
        // Decorrelate sessions sharing a seed: run the id through one
        // SplitMix64 scramble before folding it in, so adjacent ids
        // (flow 0, 1, 2…) land in unrelated parts of the stream.
        let id_hash = SplitMix64::new(session_id).next_u64();
        Self {
            base,
            cap,
            rng: SplitMix64::new(seed ^ id_hash),
        }
    }

    /// The delay before retry `attempt` (0-based):
    /// `min(base · 2^attempt · j, cap)` with `j ∈ [0.5, 1.0)`.
    pub fn delay(&mut self, attempt: u32) -> SimDuration {
        // j in [0.5, 1.0): half the mass keeps monotonicity, the open
        // top end keeps full-period draws distinct.
        let j = 0.5 + self.rng.next_f64() * 0.5;
        let base_ns = self.base.as_nanos();
        let cap_ns = self.cap.as_nanos();
        // 2^attempt saturates far above any sane cap; clamp the shift so
        // the multiply cannot overflow into a *small* delay.
        let doubled = base_ns.saturating_mul(1u64 << attempt.min(32));
        let jittered = (doubled as f64 * j).round();
        let ns = if jittered >= cap_ns as f64 {
            cap_ns
        } else {
            // In-range by the branch above; f64 holds every u64 below
            // the cap exactly enough for scheduling purposes.
            jittered as u64
        };
        SimDuration::from_nanos(ns.max(1))
    }
}

/// One observed state-machine edge, kept in order in each flow's
/// [`FlowReport`](crate::FlowReport).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// When the edge was taken.
    pub at: SimTime,
    /// State before.
    pub from: SessionState,
    /// State after.
    pub to: SessionState,
    /// Reconnect probes sent in the current disruption (0 outside one).
    pub retries: u64,
    /// For edges into `Established` out of `Connecting`/`Reconnecting`:
    /// how long the session was without a connection (the recovery-time
    /// SLO numerator). `None` on every other edge.
    pub recovered_after: Option<SimDuration>,
}

/// Whether the state machine allows `from → to`. Self-edges are not
/// transitions (callers never emit them); `Closed` is terminal.
#[must_use]
pub fn transition_is_legal(from: SessionState, to: SessionState) -> bool {
    use SessionState as S;
    match from {
        S::Connecting => matches!(to, S::Established | S::Closed),
        S::Established => matches!(to, S::Degraded | S::Draining | S::Closed),
        S::Degraded => matches!(to, S::Established | S::Reconnecting | S::Draining | S::Closed),
        S::Reconnecting => matches!(to, S::Established | S::Draining | S::Closed),
        S::Draining => matches!(to, S::Closed),
        S::Closed => false,
    }
}

/// The connection-lifecycle state machine (see module docs).
#[derive(Debug, Clone)]
pub struct Session {
    config: SessionConfig,
    state: SessionState,
    backoff: BackoffSchedule,
    /// Probes sent since the current disruption began (drives backoff).
    attempt: u32,
    /// Lifetime reconnect-probe total (diagnostics / trace records).
    total_retries: u64,
    /// When the next Connecting/Reconnecting probe is due.
    next_probe_at: SimTime,
    /// Last proof of peer liveness (ACK arrival).
    last_heard: SimTime,
    /// When the current state was entered (liveness deadlines).
    entered_at: SimTime,
    /// When connectivity was last known-lost (session start, or the
    /// moment `Established` was left) — recovery-time anchor.
    disconnected_at: SimTime,
}

impl Session {
    /// A new session in `Connecting`, with the first probe due
    /// immediately.
    ///
    /// # Panics
    /// Panics if `config` fails [`SessionConfig::validate`]: a bad
    /// session config is a programming error, not a runtime condition.
    #[must_use]
    pub fn new(config: SessionConfig, now: SimTime) -> Self {
        if let Err(e) = config.validate() {
            // Documented constructor contract (`# Panics` above); the
            // transport unwrap rule only covers `.unwrap()`/`.expect(`.
            panic!("invalid session config: {e}");
        }
        Self {
            config,
            state: SessionState::Connecting,
            backoff: BackoffSchedule::new(
                config.backoff_base,
                config.backoff_cap,
                config.seed,
                config.session_id,
            ),
            attempt: 0,
            total_retries: 0,
            next_probe_at: now,
            last_heard: now,
            entered_at: now,
            disconnected_at: now,
        }
    }

    /// Current state.
    #[must_use]
    pub fn state(&self) -> SessionState {
        self.state
    }

    /// Reconnect probes sent over the session's lifetime.
    #[must_use]
    pub fn total_retries(&self) -> u64 {
        self.total_retries
    }

    /// Whether the normal data path may transmit. Probes in
    /// `Connecting`/`Reconnecting` go through [`Self::probe_due`]
    /// instead, and `Degraded` keeps sending (the link may recover on
    /// its own — degradation only arms the reconnect timer).
    #[must_use]
    pub fn may_send(&self) -> bool {
        matches!(
            self.state,
            SessionState::Established | SessionState::Degraded
        )
    }

    /// Whether the session reached its terminal state.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.state == SessionState::Closed
    }

    fn enter(&mut self, to: SessionState, now: SimTime) -> Transition {
        debug_assert!(
            transition_is_legal(self.state, to),
            "illegal session transition {:?} -> {to:?}",
            self.state
        );
        let from = self.state;
        let recovered_after = if to == SessionState::Established
            && matches!(from, SessionState::Connecting | SessionState::Reconnecting)
        {
            Some(now.saturating_since(self.disconnected_at))
        } else {
            None
        };
        if to == SessionState::Reconnecting {
            // New disruption: restart the backoff ladder (each disruption
            // deserves a fast first probe) and the probe clock.
            self.attempt = 0;
            self.next_probe_at = now;
        }
        if matches!(to, SessionState::Degraded | SessionState::Reconnecting)
            && from == SessionState::Established
        {
            self.disconnected_at = now;
        }
        self.state = to;
        self.entered_at = now;
        Transition {
            at: now,
            from,
            to,
            retries: self.total_retries,
            recovered_after,
        }
    }

    /// An ACK (proof of peer liveness) arrived. Returns the transition
    /// it caused, if any.
    pub fn on_ack(&mut self, now: SimTime) -> Option<Transition> {
        self.last_heard = now;
        match self.state {
            SessionState::Connecting | SessionState::Reconnecting => {
                self.attempt = 0;
                Some(self.enter(SessionState::Established, now))
            }
            SessionState::Degraded => Some(self.enter(SessionState::Established, now)),
            SessionState::Established | SessionState::Draining | SessionState::Closed => None,
        }
    }

    /// Advances the per-state liveness deadlines to `now`. Returns the
    /// transition that fired, if any — callers loop until `None` if they
    /// want every deadline owed (a stalled driver can owe two: idle →
    /// `Degraded`, then grace → `Reconnecting`).
    ///
    /// Edges are stamped at the *deadline instant*, not at `now`: a
    /// driver that slept through a deadline records the transition when
    /// it actually expired, so downstream timers (the degraded grace,
    /// the recovery clock) measure real elapsed time, not driver lag.
    pub fn poll(&mut self, now: SimTime) -> Option<Transition> {
        match self.state {
            SessionState::Established => {
                let due = self.last_heard + self.config.idle_degraded;
                (now >= due).then(|| self.enter(SessionState::Degraded, due))
            }
            SessionState::Degraded => {
                let due = self.entered_at + self.config.degraded_grace;
                (now >= due).then(|| self.enter(SessionState::Reconnecting, due))
            }
            SessionState::Draining => {
                let due = self.entered_at + self.config.drain_timeout;
                (now >= due).then(|| self.enter(SessionState::Closed, due))
            }
            SessionState::Connecting | SessionState::Reconnecting | SessionState::Closed => None,
        }
    }

    /// Whether a reconnect probe is due. A `true` consumes the slot:
    /// the caller must send one probe, and the next becomes due a
    /// backoff delay later.
    pub fn probe_due(&mut self, now: SimTime) -> bool {
        if !matches!(
            self.state,
            SessionState::Connecting | SessionState::Reconnecting
        ) || now < self.next_probe_at
        {
            return false;
        }
        let delay = self.backoff.delay(self.attempt);
        self.attempt = self.attempt.saturating_add(1);
        self.total_retries += 1;
        self.next_probe_at = now + delay;
        true
    }

    /// Requests an orderly shutdown: stop sending new data, wait (up to
    /// the drain deadline) for outstanding ACKs. From `Connecting` there
    /// is nothing to drain, so the session closes immediately.
    pub fn begin_drain(&mut self, now: SimTime) -> Option<Transition> {
        match self.state {
            SessionState::Connecting => Some(self.enter(SessionState::Closed, now)),
            SessionState::Established | SessionState::Degraded | SessionState::Reconnecting => {
                Some(self.enter(SessionState::Draining, now))
            }
            SessionState::Draining | SessionState::Closed => None,
        }
    }

    /// All outstanding data is accounted for: finish the drain.
    pub fn drained(&mut self, now: SimTime) -> Option<Transition> {
        (self.state == SessionState::Draining).then(|| self.enter(SessionState::Closed, now))
    }

    /// Immediate teardown from any non-terminal state.
    pub fn abort(&mut self, now: SimTime) -> Option<Transition> {
        (self.state != SessionState::Closed).then(|| self.enter(SessionState::Closed, now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SessionConfig {
        SessionConfig {
            idle_degraded: SimDuration::from_millis(100),
            degraded_grace: SimDuration::from_millis(50),
            drain_timeout: SimDuration::from_millis(200),
            backoff_base: SimDuration::from_millis(10),
            backoff_cap: SimDuration::from_millis(80),
            seed: 7,
            session_id: 1,
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn lifecycle_happy_path() {
        let mut s = Session::new(cfg(), t(0));
        assert_eq!(s.state(), SessionState::Connecting);
        assert!(!s.may_send());
        assert!(s.probe_due(t(0)), "first probe is due immediately");
        let tr = s.on_ack(t(5)).expect("connect transition");
        assert_eq!(tr.to, SessionState::Established);
        assert_eq!(tr.recovered_after, Some(SimDuration::from_millis(5)));
        assert!(s.may_send());
        let tr = s.begin_drain(t(10)).expect("drain transition");
        assert_eq!(tr.to, SessionState::Draining);
        assert!(!s.may_send());
        let tr = s.drained(t(11)).expect("close transition");
        assert_eq!(tr.to, SessionState::Closed);
        assert!(s.is_closed());
    }

    #[test]
    fn idle_degrades_then_reconnects_then_recovers() {
        let mut s = Session::new(cfg(), t(0));
        s.on_ack(t(1));
        assert_eq!(s.state(), SessionState::Established);
        assert!(s.poll(t(50)).is_none(), "deadline not reached yet");
        let tr = s.poll(t(101)).expect("idle deadline fired");
        assert_eq!(tr.to, SessionState::Degraded);
        assert!(s.may_send(), "degraded keeps the data path open");
        let tr = s.poll(t(151)).expect("grace expired");
        assert_eq!(tr.to, SessionState::Reconnecting);
        assert!(!s.may_send());
        assert!(s.probe_due(t(151)), "reconnect probes start immediately");
        let tr = s.on_ack(t(180)).expect("recovery transition");
        assert_eq!(tr.to, SessionState::Established);
        assert_eq!(
            tr.recovered_after,
            Some(SimDuration::from_millis(180 - 101)),
            "recovery clock starts when Established was lost"
        );
        assert!(tr.retries >= 1);
    }

    #[test]
    fn ack_during_degraded_recovers_without_retries() {
        let mut s = Session::new(cfg(), t(0));
        assert!(s.probe_due(t(0)), "initial connect probe");
        s.on_ack(t(1));
        s.poll(t(101)).expect("degrade");
        let tr = s.on_ack(t(120)).expect("recover");
        assert_eq!(tr.to, SessionState::Established);
        assert_eq!(tr.recovered_after, None, "no reconnect happened");
        assert_eq!(s.total_retries(), 1, "only the initial connect probe");
    }

    #[test]
    fn stalled_driver_owes_both_deadlines() {
        let mut s = Session::new(cfg(), t(0));
        s.on_ack(t(1));
        // The driver slept through idle *and* grace: two polls at the
        // same instant take both edges in order.
        let tr = s.poll(t(500)).expect("first owed edge");
        assert_eq!(tr.to, SessionState::Degraded);
        let tr = s.poll(t(500)).expect("second owed edge");
        assert_eq!(tr.to, SessionState::Reconnecting);
        assert!(s.poll(t(500)).is_none());
    }

    #[test]
    fn drain_deadline_bounds_shutdown() {
        let mut s = Session::new(cfg(), t(0));
        s.on_ack(t(1));
        s.begin_drain(t(10));
        assert!(s.poll(t(100)).is_none(), "still inside the drain window");
        let tr = s.poll(t(211)).expect("drain timeout");
        assert_eq!(tr.to, SessionState::Closed);
    }

    #[test]
    fn probes_follow_the_backoff_ladder() {
        let mut s = Session::new(cfg(), t(0));
        assert!(s.probe_due(t(0)));
        assert!(!s.probe_due(t(0)), "slot consumed");
        // The first retry is due within [base/2, base] = [5, 10] ms.
        assert!(!s.probe_due(t(4)));
        assert!(s.probe_due(t(10)));
        assert_eq!(s.total_retries(), 2);
        // Closed sessions never probe.
        s.abort(t(11));
        assert!(!s.probe_due(t(1000)));
    }

    #[test]
    fn closed_is_terminal() {
        let mut s = Session::new(cfg(), t(0));
        s.abort(t(1)).expect("abort from connecting");
        assert!(s.abort(t(2)).is_none());
        assert!(s.on_ack(t(2)).is_none());
        assert!(s.poll(t(1000)).is_none());
        assert!(s.begin_drain(t(3)).is_none());
        assert!(s.drained(t(3)).is_none());
    }

    #[test]
    fn legality_table_matches_the_diagram() {
        use SessionState as S;
        let all = [
            S::Connecting,
            S::Established,
            S::Degraded,
            S::Reconnecting,
            S::Draining,
            S::Closed,
        ];
        for from in all {
            assert!(
                from == S::Closed || transition_is_legal(from, S::Closed),
                "abort must be legal from {from:?}"
            );
            assert!(!transition_is_legal(S::Closed, from), "Closed is terminal");
        }
        assert!(!transition_is_legal(S::Connecting, S::Degraded));
        assert!(!transition_is_legal(S::Established, S::Reconnecting));
        assert!(!transition_is_legal(S::Draining, S::Established));
    }

    // ---- Backoff property tests (ISSUE satellite: capped, monotone,
    // deterministic, jittered) ----

    #[test]
    fn backoff_is_monotone_nondecreasing_until_the_cap() {
        for seed in 0..50u64 {
            let mut b = BackoffSchedule::new(
                SimDuration::from_millis(10),
                SimDuration::from_secs(5),
                seed,
                3,
            );
            let mut prev = SimDuration::ZERO;
            for attempt in 0..16u32 {
                let d = b.delay(attempt);
                assert!(
                    d >= prev,
                    "seed {seed}: delay({attempt}) = {d:?} < previous {prev:?}"
                );
                prev = d;
            }
        }
    }

    #[test]
    fn backoff_never_exceeds_the_cap_and_never_underflows() {
        let cap = SimDuration::from_millis(300);
        for seed in 0..50u64 {
            let mut b = BackoffSchedule::new(SimDuration::from_millis(10), cap, seed, 0);
            for attempt in 0..64u32 {
                let d = b.delay(attempt);
                assert!(d <= cap, "seed {seed}: delay({attempt}) = {d:?} > cap");
                assert!(d > SimDuration::ZERO);
            }
        }
        // Huge attempt numbers (shift saturation) still land on the cap,
        // not wrap around to something tiny.
        let mut b = BackoffSchedule::new(SimDuration::from_millis(10), cap, 1, 0);
        assert_eq!(b.delay(u32::MAX), cap);
    }

    #[test]
    fn backoff_first_delay_is_within_half_to_full_base() {
        let base = SimDuration::from_millis(40);
        for seed in 0..100u64 {
            let mut b = BackoffSchedule::new(base, SimDuration::from_secs(10), seed, seed);
            let d = b.delay(0);
            assert!(d >= SimDuration::from_millis(20), "seed {seed}: {d:?}");
            assert!(d <= base, "seed {seed}: {d:?}");
        }
    }

    #[test]
    fn backoff_is_deterministic_per_seed_and_session() {
        let mk = |seed, id| {
            let mut b = BackoffSchedule::new(
                SimDuration::from_millis(10),
                SimDuration::from_secs(2),
                seed,
                id,
            );
            (0..12u32).map(|a| b.delay(a)).collect::<Vec<_>>()
        };
        assert_eq!(mk(42, 7), mk(42, 7), "same (seed, id) must replay");
        assert_ne!(mk(42, 7), mk(43, 7), "different seed must diverge");
        assert_ne!(mk(42, 7), mk(42, 8), "different session must diverge");
    }

    #[test]
    fn backoff_is_jittered_across_a_fleet() {
        // 64 sessions sharing one seed: first-retry delays must spread
        // out, or a fleet reconnects in lockstep after a blackout.
        let firsts: std::collections::BTreeSet<u64> = (0..64u64)
            .map(|id| {
                BackoffSchedule::new(
                    SimDuration::from_millis(10),
                    SimDuration::from_secs(2),
                    99,
                    id,
                )
                .delay(0)
                .as_nanos()
            })
            .collect();
        assert!(
            firsts.len() >= 48,
            "only {} distinct first delays across 64 sessions",
            firsts.len()
        );
    }
}
