//! The omniscient plan as a runnable congestion controller.
//!
//! [`OracleCc`] replays a [`SchedulePlan`] through the standard
//! [`CongestionControl`] interface: its quota at time `t` is exactly
//! the number of planned sends that have come due and not yet been
//! taken. It ignores ACKs and losses entirely — it already knows the
//! channel — which also means it never reacts, never backs off, and is
//! meaningless as a deployable protocol. That is the point: it is the
//! upper bound the tournament scores everyone else against.

use crate::plan::SchedulePlan;
use verus_nettypes::{AckEvent, CongestionControl, LossEvent, SimDuration, SimTime};

/// Omniscient controller: emits packets on the precomputed schedule.
#[derive(Debug, Clone)]
pub struct OracleCc {
    plan: SchedulePlan,
    /// Packets already handed to the transport.
    sent: usize,
}

impl OracleCc {
    /// Wraps a plan for execution.
    #[must_use]
    pub fn new(plan: SchedulePlan) -> Self {
        Self { plan, sent: 0 }
    }

    /// The underlying plan (closed-form figures for reports).
    #[must_use]
    pub fn plan(&self) -> &SchedulePlan {
        &self.plan
    }

    /// Planned sends due at or before `now` (monotone in `now`).
    fn due(&self, now: SimTime) -> usize {
        self.plan.send_times().partition_point(|&t| t <= now)
    }
}

impl CongestionControl for OracleCc {
    fn name(&self) -> &'static str {
        "oracle"
    }

    fn quota(&mut self, now: SimTime, _in_flight: usize) -> usize {
        // Pacing, not windowing: in-flight count is irrelevant — the
        // schedule already embodies what the channel can hold.
        self.due(now).saturating_sub(self.sent)
    }

    fn on_packet_sent(&mut self, _now: SimTime, _seq: u64, _bytes: u64) {
        self.sent += 1;
    }

    fn on_ack(&mut self, _now: SimTime, _ev: &AckEvent) {}

    fn on_loss(&mut self, _now: SimTime, _ev: &LossEvent) {}

    /// A 1 ms pump tick: the transport only re-evaluates quota on
    /// events, and a pure schedule generates none of its own.
    fn tick_interval(&self) -> Option<SimDuration> {
        Some(SimDuration::from_millis(1))
    }

    fn window(&self) -> f64 {
        // For logs/plots: sends still pending release is the closest
        // window-like quantity a paced schedule has.
        (self.plan.packets().saturating_sub(self.sent)) as f64
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use verus_cellular::Trace;

    fn ms(n: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(n)
    }

    fn plan() -> SchedulePlan {
        let trace =
            Trace::from_times("steady", (1..=10).map(|i| ms(i * 10)), 1400).unwrap();
        SchedulePlan::build(
            &trace,
            SimDuration::from_millis(100),
            1400,
            &[],
            SimDuration::from_millis(2),
        )
    }

    #[test]
    fn quota_releases_on_schedule() {
        let mut cc = OracleCc::new(plan());
        assert_eq!(cc.quota(ms(0), 0), 0);
        assert_eq!(cc.quota(ms(8), 0), 1); // first send due at 8 ms
        assert_eq!(cc.quota(ms(28), 0), 3);
    }

    #[test]
    fn sends_consume_quota_exactly_once() {
        let mut cc = OracleCc::new(plan());
        assert_eq!(cc.quota(ms(8), 0), 1);
        cc.on_packet_sent(ms(8), 0, 1400);
        assert_eq!(cc.quota(ms(8), 0), 0);
        assert_eq!(cc.quota(ms(18), 1), 1, "in-flight must not gate the schedule");
    }

    #[test]
    fn events_do_not_perturb_the_schedule() {
        let mut cc = OracleCc::new(plan());
        cc.on_ack(
            ms(5),
            &AckEvent {
                seq: 0,
                bytes: 1400,
                rtt: SimDuration::from_millis(40),
                delay: SimDuration::from_millis(20),
                send_window: 1.0,
                abc_mark: Some(false),
            },
        );
        cc.on_loss(
            ms(6),
            &LossEvent {
                seq: 0,
                send_window: 1.0,
                kind: verus_nettypes::LossKind::Timeout,
            },
        );
        assert_eq!(cc.quota(ms(8), 0), 1);
    }

    #[test]
    fn window_counts_down_and_stays_finite() {
        let mut cc = OracleCc::new(plan());
        let total = cc.plan().packets();
        assert_eq!(cc.window(), total as f64);
        for s in 0..total {
            cc.on_packet_sent(ms(s as u64), s as u64, 1400);
        }
        assert_eq!(cc.window(), 0.0);
        cc.on_packet_sent(ms(99), 99, 1400);
        assert_eq!(cc.window(), 0.0, "overshoot saturates, never negative");
    }

    #[test]
    fn has_a_pump_tick() {
        assert_eq!(
            OracleCc::new(plan()).tick_interval(),
            Some(SimDuration::from_millis(1))
        );
    }
}
