//! Per-shard timer plane — RTO and epoch deadlines on the netsim wheel.
//!
//! The per-socket transport paces itself with `sleep` calls and socket
//! read timeouts: one blocking primitive per flow. A shard multiplexing
//! thousands of flows needs *one* pacing primitive for all of them, and
//! the netsim hierarchical [`TimingWheel`] is exactly that: O(1)
//! schedule/pop, ~1 ms granularity, already property-tested against a
//! heap oracle. This module wraps the wheel for wall-clock use:
//!
//! * deadlines are armed as absolute [`SimTime`] stamps from the
//!   shard's [`WallClock`](crate::WallClock);
//! * the shard loop pops everything due (`pop_due(now)`), then sleeps
//!   toward [`TimerPlane::next_deadline`] — no per-flow sleeps;
//! * every popped **epoch** timer records its lateness (`now − deadline`)
//!   into a [`StreamingStats`] collector. The p99 of that distribution
//!   is the tentpole's published jitter metric: the wheel guarantees
//!   order, the *loop* guarantees promptness, and the jitter histogram
//!   is the evidence.
//!
//! Ties are a plain arming counter: the wheel only needs `(time, tie)`
//! uniqueness, and arming order is deterministic per shard.

use verus_netsim::TimingWheel;
use verus_nettypes::SimTime;
use verus_stats::StreamingStats;

/// What a fired timer means to the shard loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerKind {
    /// The flow's CC epoch tick (ε-cadence for Verus, RTT-cadence for
    /// baselines): run `on_tick`, session poll, gap sweep, pump or probe.
    Epoch {
        /// Shard-local flow index.
        flow: u32,
    },
    /// The flow's retransmission timeout.
    Rto {
        /// Shard-local flow index.
        flow: u32,
    },
}

impl TimerKind {
    /// The shard-local flow index this timer belongs to.
    #[must_use]
    pub fn flow(self) -> u32 {
        match self {
            TimerKind::Epoch { flow } | TimerKind::Rto { flow } => flow,
        }
    }
}

/// Histogram geometry for the jitter collector: 0.5 ms bins to 4 s.
/// Fires later than that land in the overflow tally and push the p99
/// estimate to the histogram ceiling — conservatively failing any
/// reasonable bound instead of hiding the tail.
const JITTER_HIST_HI_MS: f64 = 4000.0;
const JITTER_HIST_BINS: usize = 8000;

/// One shard's timer wheel plus fire/jitter accounting.
pub struct TimerPlane {
    wheel: TimingWheel<TimerKind>,
    /// Arming counter; makes `(time, tie)` unique per wheel contract.
    tie: u64,
    fires: u64,
    epoch_fires: u64,
    jitter: StreamingStats,
}

impl Default for TimerPlane {
    fn default() -> Self {
        Self::new()
    }
}

impl TimerPlane {
    /// An empty plane with its wheel cursor at time zero.
    #[must_use]
    pub fn new() -> Self {
        Self {
            wheel: TimingWheel::new(),
            tie: 0,
            fires: 0,
            epoch_fires: 0,
            jitter: StreamingStats::new(0.0, JITTER_HIST_HI_MS, JITTER_HIST_BINS),
        }
    }

    /// Arms `kind` to fire at `deadline`. Deadlines must not precede the
    /// last popped timer's stamp (the wheel contract); a wall-clock
    /// driver satisfies this naturally because it arms at `now + Δ`
    /// after popping everything `≤ now`.
    pub fn arm(&mut self, deadline: SimTime, kind: TimerKind) {
        self.wheel.schedule(deadline, self.tie, kind);
        self.tie += 1;
    }

    /// Pops the earliest timer due at or before `now`, or `None` when
    /// nothing is due yet. Epoch fires record `now − deadline` into the
    /// jitter distribution; the shard loop calls this in a drain loop
    /// each iteration.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, TimerKind)> {
        let (at, _tie, kind) = self.wheel.pop_next_before(now)?;
        self.fires += 1;
        if matches!(kind, TimerKind::Epoch { .. }) {
            self.epoch_fires += 1;
            self.jitter.record(now.saturating_since(at).as_millis_f64());
        }
        Some((at, kind))
    }

    /// The earliest pending deadline — what the shard loop sleeps
    /// toward between iterations. `None` when no timers are armed.
    pub fn next_deadline(&mut self) -> Option<SimTime> {
        self.wheel.peek_next().map(|(t, _)| t)
    }

    /// Pending (not yet fired) timers.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.wheel.len()
    }

    /// Timers fired so far (all kinds).
    #[must_use]
    pub fn fires(&self) -> u64 {
        self.fires
    }

    /// Epoch timers fired so far (the jitter sample count).
    #[must_use]
    pub fn epoch_fires(&self) -> u64 {
        self.epoch_fires
    }

    /// The epoch-fire lateness distribution (milliseconds).
    #[must_use]
    pub fn jitter(&self) -> &StreamingStats {
        &self.jitter
    }

    /// Conservative p99 of epoch-fire lateness in milliseconds: the
    /// upper edge of the first histogram bin where the empirical CDF
    /// reaches 0.99. Overflow mass (fires later than the 4 s ceiling)
    /// keeps the CDF below 0.99 through every bin, in which case the
    /// ceiling itself is returned — a late tail can push the estimate
    /// *up*, never hide it. Returns 0 when no epoch timer has fired.
    #[must_use]
    pub fn jitter_p99_ms(&self) -> f64 {
        if self.jitter.count() == 0 {
            return 0.0;
        }
        self.jitter
            .histogram()
            .cdf()
            .into_iter()
            .find(|&(_, frac)| frac >= 0.99)
            .map_or(JITTER_HIST_HI_MS, |(edge, _)| edge)
    }
}

/// Folds per-shard jitter collectors into one distribution and returns
/// its conservative p99 (same estimator as [`TimerPlane::jitter_p99_ms`]).
#[must_use]
pub fn merged_jitter_p99_ms(planes: &[StreamingStats]) -> f64 {
    let mut all = StreamingStats::new(0.0, JITTER_HIST_HI_MS, JITTER_HIST_BINS);
    for s in planes {
        all.merge(s);
    }
    if all.count() == 0 {
        return 0.0;
    }
    all.histogram()
        .cdf()
        .into_iter()
        .find(|&(_, frac)| frac >= 0.99)
        .map_or(JITTER_HIST_HI_MS, |(edge, _)| edge)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn timers_fire_in_deadline_order_with_kinds_intact() {
        let mut p = TimerPlane::new();
        p.arm(ms(30), TimerKind::Rto { flow: 7 });
        p.arm(ms(10), TimerKind::Epoch { flow: 3 });
        p.arm(ms(20), TimerKind::Epoch { flow: 4 });
        assert_eq!(p.pending(), 3);
        assert_eq!(p.next_deadline(), Some(ms(10)));

        // Nothing due before the first deadline.
        assert_eq!(p.pop_due(ms(5)), None);
        // Drain at t=25: epochs at 10 and 20 fire, RTO at 30 stays.
        assert_eq!(p.pop_due(ms(25)), Some((ms(10), TimerKind::Epoch { flow: 3 })));
        assert_eq!(p.pop_due(ms(25)), Some((ms(20), TimerKind::Epoch { flow: 4 })));
        assert_eq!(p.pop_due(ms(25)), None);
        assert_eq!(p.pending(), 1);
        assert_eq!(p.pop_due(ms(31)), Some((ms(30), TimerKind::Rto { flow: 7 })));
        assert_eq!(p.fires(), 3);
        assert_eq!(p.epoch_fires(), 2);
        assert_eq!(TimerKind::Rto { flow: 7 }.flow(), 7);
    }

    #[test]
    fn epoch_jitter_is_recorded_rto_jitter_is_not() {
        let mut p = TimerPlane::new();
        p.arm(ms(10), TimerKind::Epoch { flow: 0 });
        p.arm(ms(10), TimerKind::Rto { flow: 0 });
        // Both fire 15 ms late; only the epoch feeds the distribution.
        assert!(p.pop_due(ms(25)).is_some());
        assert!(p.pop_due(ms(25)).is_some());
        assert_eq!(p.jitter().count(), 1);
        let mean = p.jitter().mean();
        assert!((mean - 15.0).abs() < 1e-9, "lateness should be 15 ms, got {mean}");
    }

    #[test]
    fn p99_bounds_the_observed_lateness() {
        let mut p = TimerPlane::new();
        assert_eq!(p.jitter_p99_ms(), 0.0, "empty plane reports zero");
        // 200 epoch fires: 199 on time, one 100 ms late.
        for i in 0..200u64 {
            p.arm(ms(i), TimerKind::Epoch { flow: 0 });
        }
        for i in 0..199u64 {
            assert!(p.pop_due(ms(i)).is_some());
        }
        assert!(p.pop_due(ms(199 + 100)).is_some());
        let p99 = p.jitter_p99_ms();
        // One late fire in 200 is within the top 1%: p99 stays at the
        // on-time bin, and the estimator is an upper edge, so > 0.
        assert!(p99 > 0.0 && p99 <= 1.0, "p99 = {p99}");
        // Merging with an idle shard's (empty) collector changes nothing.
        let idle = TimerPlane::new();
        let merged = merged_jitter_p99_ms(&[p.jitter().clone(), idle.jitter().clone()]);
        assert!((merged - p99).abs() < 1e-9);
    }

    #[test]
    fn overflow_lateness_saturates_to_the_ceiling() {
        let mut p = TimerPlane::new();
        p.arm(ms(0), TimerKind::Epoch { flow: 0 });
        // 10 s late — beyond the 4 s histogram ceiling.
        assert!(p.pop_due(ms(10_000)).is_some());
        assert!((p.jitter_p99_ms() - JITTER_HIST_HI_MS).abs() < 1e-9);
    }

    #[test]
    fn merged_p99_covers_all_shards() {
        let mut a = TimerPlane::new();
        let mut b = TimerPlane::new();
        for i in 0..100u64 {
            a.arm(ms(i), TimerKind::Epoch { flow: 0 });
            b.arm(ms(i), TimerKind::Epoch { flow: 0 });
        }
        for i in 0..100u64 {
            assert!(a.pop_due(ms(i)).is_some()); // on time
            assert!(b.pop_due(ms(i + 50)).is_some()); // 50 ms late
        }
        let merged = merged_jitter_p99_ms(&[a.jitter().clone(), b.jitter().clone()]);
        assert!(
            (50.0..=51.0).contains(&merged),
            "late shard must dominate the merged p99, got {merged}"
        );
        assert_eq!(merged_jitter_p99_ms(&[]), 0.0);
    }
}
