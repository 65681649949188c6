//! The trace event schema.
//!
//! Three record types cover everything the paper's timeline figures
//! need (window/Dest/delay vs. time — Figs. 2, 7, 11 — and the delay
//! profile's evolution — Figs. 5, 7b):
//!
//! * [`EpochRecord`] — one per ε-epoch tick: phase, window `W`, set
//!   point `Dest`, smoothed max delay, the Eq. 4 branch taken, and the
//!   remaining ratio-guard headroom;
//! * [`PacketRecord`] — packet lifecycle: send / ack / loss / timeout
//!   with sequence number and timestamp;
//! * [`ProfileSnapshot`] — a sampled `f(W) → D` curve plus the refit
//!   generation that produced it.
//!
//! Timestamps are plain `u64` nanoseconds so the schema is identical on
//! both substrates: the simulator stamps simulated time, the transport
//! stamps wall-clock time measured from its shared [`WallClock`] epoch
//! (`verus-transport`). Nothing here depends on either crate.

/// Protocol phase, mirrored from `verus-core` without depending on it
/// (the dependency points the other way: core emits, trace defines).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePhase {
    /// Exponential startup building the initial delay profile.
    SlowStart,
    /// Normal ε-epoch operation (Eq. 4 + Eq. 5).
    CongestionAvoidance,
    /// Post-loss recovery (profile frozen, TCP-style growth).
    Recovery,
}

impl TracePhase {
    /// Stable wire name (the JSONL `phase` field).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            TracePhase::SlowStart => "slow_start",
            TracePhase::CongestionAvoidance => "congestion_avoidance",
            TracePhase::Recovery => "recovery",
        }
    }

    /// Parses a wire name back into a phase.
    #[must_use]
    pub fn from_str(s: &str) -> Option<Self> {
        match s {
            "slow_start" => Some(TracePhase::SlowStart),
            "congestion_avoidance" => Some(TracePhase::CongestionAvoidance),
            "recovery" => Some(TracePhase::Recovery),
            _ => None,
        }
    }
}

/// Which branch of Eq. 4 moved the set point this epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaDecision {
    /// `Dmax/Dmin > R` → `Dest -= δ₂` (the ratio guard).
    RatioDown,
    /// `ΔD > 0` (delay worsening) → `Dest -= δ₁`.
    TrendDown,
    /// Otherwise (delay flat or improving) → `Dest += δ₂`.
    Up,
    /// No Eq. 4 step ran this epoch (slow start, recovery, or no delay
    /// information yet).
    None,
}

impl DeltaDecision {
    /// Stable wire name (the JSONL `decision` field).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            DeltaDecision::RatioDown => "ratio_down",
            DeltaDecision::TrendDown => "trend_down",
            DeltaDecision::Up => "up",
            DeltaDecision::None => "none",
        }
    }

    /// Parses a wire name back into a decision.
    #[must_use]
    pub fn from_str(s: &str) -> Option<Self> {
        match s {
            "ratio_down" => Some(DeltaDecision::RatioDown),
            "trend_down" => Some(DeltaDecision::TrendDown),
            "up" => Some(DeltaDecision::Up),
            "none" => Some(DeltaDecision::None),
            _ => None,
        }
    }
}

/// Packet lifecycle event kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// A data packet left the sender.
    Send,
    /// A first-time acknowledgment arrived.
    Ack,
    /// The transport declared the packet lost via reordering detection
    /// (the §5.2 gap timer / fast retransmit).
    Loss,
    /// A retransmission timeout fired.
    Timeout,
}

impl PacketKind {
    /// Stable wire name (the JSONL `kind` field).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            PacketKind::Send => "send",
            PacketKind::Ack => "ack",
            PacketKind::Loss => "loss",
            PacketKind::Timeout => "timeout",
        }
    }

    /// Parses a wire name back into a kind.
    #[must_use]
    pub fn from_str(s: &str) -> Option<Self> {
        match s {
            "send" => Some(PacketKind::Send),
            "ack" => Some(PacketKind::Ack),
            "loss" => Some(PacketKind::Loss),
            "timeout" => Some(PacketKind::Timeout),
            _ => None,
        }
    }
}

/// Connection lifecycle state, mirrored from `verus-transport`'s session
/// machine without depending on it (same inversion as [`TracePhase`]:
/// transport emits, trace defines).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Handshake in progress; probes paced by the backoff schedule.
    Connecting,
    /// Peer is live; normal data transfer.
    Established,
    /// Liveness deadline missed; still transmitting, watching for ACKs.
    Degraded,
    /// Peer declared silent; handshake retry under capped backoff.
    Reconnecting,
    /// Shutting down; waiting for outstanding data to settle.
    Draining,
    /// Terminal state.
    Closed,
}

impl SessionState {
    /// Stable wire name (the JSONL `state` field).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            SessionState::Connecting => "connecting",
            SessionState::Established => "established",
            SessionState::Degraded => "degraded",
            SessionState::Reconnecting => "reconnecting",
            SessionState::Draining => "draining",
            SessionState::Closed => "closed",
        }
    }

    /// Parses a wire name back into a state.
    #[must_use]
    pub fn from_str(s: &str) -> Option<Self> {
        match s {
            "connecting" => Some(SessionState::Connecting),
            "established" => Some(SessionState::Established),
            "degraded" => Some(SessionState::Degraded),
            "reconnecting" => Some(SessionState::Reconnecting),
            "draining" => Some(SessionState::Draining),
            "closed" => Some(SessionState::Closed),
            _ => None,
        }
    }
}

/// What a [`SessionRecord`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEventKind {
    /// The session machine changed state (the record's `state` is the
    /// state being *entered*).
    StateChange,
    /// A disruption→Established recovery completed; `elapsed_ns` is the
    /// recovery time the chaos SLOs bound.
    RecoveryComplete,
}

impl SessionEventKind {
    /// Stable wire name (the JSONL `kind` field).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            SessionEventKind::StateChange => "state_change",
            SessionEventKind::RecoveryComplete => "recovery_complete",
        }
    }

    /// Parses a wire name back into a kind.
    #[must_use]
    pub fn from_str(s: &str) -> Option<Self> {
        match s {
            "state_change" => Some(SessionEventKind::StateChange),
            "recovery_complete" => Some(SessionEventKind::RecoveryComplete),
            _ => None,
        }
    }
}

/// One session lifecycle event (a transport session's state change or
/// completed recovery).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionRecord {
    /// Timestamp in nanoseconds.
    pub t_ns: u64,
    /// What this record marks.
    pub kind: SessionEventKind,
    /// State entered (state changes) or occupied (recovery completions —
    /// always [`SessionState::Established`]).
    pub state: SessionState,
    /// Reconnect attempts taken so far in the current disruption (0 when
    /// the session is healthy).
    pub retries: u64,
    /// For state changes: time spent in the state being left. For
    /// recovery completions: disruption-detection → Established.
    pub elapsed_ns: u64,
}

/// One ε-epoch of controller state (emitted from `VerusCc::on_tick`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochRecord {
    /// Timestamp in nanoseconds (simulated or wall-clock, see module docs).
    pub t_ns: u64,
    /// Epoch index since controller start (1-based: counted at tick time).
    pub epoch: u64,
    /// Phase the controller was in when the tick fired.
    pub phase: TracePhase,
    /// Sending window `Wᵢ` in packets after this epoch's step.
    pub window: f64,
    /// Delay set point `Dest` in ms (`None` during slow start, before
    /// the window estimator exists).
    pub dest_ms: Option<f64>,
    /// Smoothed per-epoch maximum delay `Dmax` in ms (`None` before any
    /// delay sample).
    pub delay_ms: Option<f64>,
    /// The Eq. 4 branch taken this epoch.
    pub decision: DeltaDecision,
    /// Remaining ratio-guard headroom `R − Dmax/Dmin` (`None` when
    /// either delay figure is unavailable). Negative means the guard is
    /// tripping.
    pub headroom: Option<f64>,
}

/// One packet lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketRecord {
    /// Timestamp in nanoseconds.
    pub t_ns: u64,
    /// Event kind.
    pub kind: PacketKind,
    /// Sequence number.
    pub seq: u64,
    /// Payload bytes (0 for loss/timeout events).
    pub bytes: u64,
    /// The sending window associated with the event: the current window
    /// for sends, the echoed `send_window` for ACKs and losses.
    pub window: f64,
    /// RTT sample in ms (ACKs only).
    pub rtt_ms: Option<f64>,
}

/// A sampled delay-profile curve at one refit point.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileSnapshot {
    /// Timestamp in nanoseconds.
    pub t_ns: u64,
    /// Refit generation (1-based, incremented per re-interpolation).
    pub generation: u64,
    /// `(window, delay_ms)` samples along the fitted curve.
    pub samples: Vec<(f64, f64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_names_round_trip() {
        for p in [
            TracePhase::SlowStart,
            TracePhase::CongestionAvoidance,
            TracePhase::Recovery,
        ] {
            assert_eq!(TracePhase::from_str(p.as_str()), Some(p));
        }
        for d in [
            DeltaDecision::RatioDown,
            DeltaDecision::TrendDown,
            DeltaDecision::Up,
            DeltaDecision::None,
        ] {
            assert_eq!(DeltaDecision::from_str(d.as_str()), Some(d));
        }
        for k in [
            PacketKind::Send,
            PacketKind::Ack,
            PacketKind::Loss,
            PacketKind::Timeout,
        ] {
            assert_eq!(PacketKind::from_str(k.as_str()), Some(k));
        }
        for s in [
            SessionState::Connecting,
            SessionState::Established,
            SessionState::Degraded,
            SessionState::Reconnecting,
            SessionState::Draining,
            SessionState::Closed,
        ] {
            assert_eq!(SessionState::from_str(s.as_str()), Some(s));
        }
        for k in [
            SessionEventKind::StateChange,
            SessionEventKind::RecoveryComplete,
        ] {
            assert_eq!(SessionEventKind::from_str(k.as_str()), Some(k));
        }
        assert_eq!(TracePhase::from_str("bogus"), None);
        assert_eq!(DeltaDecision::from_str("bogus"), None);
        assert_eq!(PacketKind::from_str("bogus"), None);
        assert_eq!(SessionState::from_str("bogus"), None);
        assert_eq!(SessionEventKind::from_str("bogus"), None);
    }
}
