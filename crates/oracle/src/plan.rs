//! Offline optimal send scheduling from a delivery-opportunity trace.
//!
//! The planner mirrors the simulator's cell semantics exactly
//! (`verus_netsim::sim::CellService::drain`): the trace loops for the
//! whole horizon; byte credit accrues per opportunity only against a
//! backlog; a blackout opportunity is wasted and resets credit. Under
//! those rules the best any sender can do is keep the queue *just*
//! backlogged: every opportunity then contributes its bytes, and each
//! packet departs at the first opportunity whose accumulated credit
//! covers it — the minimum-delay, maximum-throughput schedule.
//!
//! The plan therefore walks the looped opportunity list once,
//! accumulating credit as if always backlogged (resetting across
//! blackout windows, where real credit dies too), assigns each packet
//! its delivery opportunity, and schedules its *send* a small lead
//! ahead of that instant. The lead absorbs the transport's tick
//! granularity; sending early only deepens the queue by a packet for a
//! few milliseconds, so the plan is self-stabilizing rather than
//! brittle about alignment.

use verus_cellular::Trace;
use verus_nettypes::{SimDuration, SimTime};

/// A closed interval during which the radio is gone (blackout): all
/// opportunities inside are wasted and banked credit dies.
pub type Outage = (SimTime, SimTime);

/// The omniscient send schedule for one scenario.
#[derive(Debug, Clone)]
pub struct SchedulePlan {
    /// Sorted send instants, one per plannable packet.
    send_times: Vec<SimTime>,
    /// The matching planned delivery instants (same order).
    delivery_times: Vec<SimTime>,
    /// Payload bytes per packet.
    packet_bytes: u32,
}

impl SchedulePlan {
    /// Default send lead ahead of each delivery opportunity: generous
    /// against the transport's 1 ms pump tick, negligible against any
    /// delay budget.
    pub const DEFAULT_LEAD: SimDuration = SimDuration::from_millis(2);

    /// Builds the plan for `trace` looped over `duration`, with
    /// `packet_bytes` packets, skipping (and resetting credit across)
    /// each `outages` window. `lead` is how far ahead of its delivery
    /// opportunity each packet is sent.
    ///
    /// # Panics
    /// On an empty trace or zero `packet_bytes`.
    #[must_use]
    pub fn build(
        trace: &Trace,
        duration: SimDuration,
        packet_bytes: u32,
        outages: &[Outage],
        lead: SimDuration,
    ) -> Self {
        assert!(packet_bytes > 0, "packet size must be positive");
        let opps = trace.opportunities();
        assert!(!opps.is_empty(), "cannot plan over an empty trace");
        let period = trace.duration().max(SimDuration::from_nanos(1));
        let end = SimTime::ZERO + duration;

        let in_outage = |t: SimTime| outages.iter().any(|&(s, e)| t >= s && t < e);

        let mut send_times = Vec::new();
        let mut delivery_times = Vec::new();
        let mut credit: u64 = 0;
        let mut offset = SimDuration::ZERO;
        'outer: loop {
            for opp in opps {
                let t = opp.time + offset;
                if t >= end {
                    break 'outer;
                }
                if in_outage(t) {
                    // The radio is gone: the opportunity is wasted and
                    // banked credit dies, exactly as in the simulator.
                    credit = 0;
                    continue;
                }
                credit += u64::from(opp.bytes);
                while credit >= u64::from(packet_bytes) {
                    credit -= u64::from(packet_bytes);
                    delivery_times.push(t);
                    send_times.push(SimTime::ZERO + t.saturating_since(SimTime::ZERO + lead));
                }
            }
            offset += period;
        }
        Self {
            send_times,
            delivery_times,
            packet_bytes,
        }
    }

    /// The sorted send instants.
    #[must_use]
    pub fn send_times(&self) -> &[SimTime] {
        &self.send_times
    }

    /// Number of packets the plan delivers within the horizon.
    #[must_use]
    pub fn packets(&self) -> usize {
        self.send_times.len()
    }

    /// Payload bytes per packet.
    #[must_use]
    pub fn packet_bytes(&self) -> u32 {
        self.packet_bytes
    }

    /// Closed-form deliverable payload over the horizon, bytes — the
    /// link's capacity under the credit semantics, before any transport
    /// overhead. The running [`crate::OracleCc`] should land close to
    /// this; the tournament records both.
    #[must_use]
    pub fn planned_bytes(&self) -> u64 {
        self.send_times.len() as u64 * u64::from(self.packet_bytes)
    }

    /// Closed-form mean queueing delay of the plan, milliseconds: the
    /// send→delivery gap averaged over packets (the lead plus however
    /// long sub-packet credit takes to accumulate).
    #[must_use]
    pub fn mean_planned_delay_ms(&self) -> f64 {
        if self.send_times.is_empty() {
            return 0.0;
        }
        let total: f64 = self
            .delivery_times
            .iter()
            .zip(&self.send_times)
            .map(|(d, s)| d.saturating_since(*s).as_millis_f64())
            .sum();
        total / self.send_times.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(n)
    }

    /// One 1400-byte opportunity every 10 ms for 100 ms.
    fn steady() -> Trace {
        Trace::from_times("steady", (1..=10).map(|i| ms(i * 10)), 1400).unwrap()
    }

    #[test]
    fn steady_trace_schedules_one_packet_per_opportunity() {
        let plan = SchedulePlan::build(
            &steady(),
            SimDuration::from_millis(100),
            1400,
            &[],
            SchedulePlan::DEFAULT_LEAD,
        );
        // Opportunities at 10..=90 ms fall inside the 100 ms horizon
        // (the one at 100 ms does not).
        assert_eq!(plan.packets(), 9);
        assert_eq!(plan.send_times()[0], ms(8)); // 10 ms − 2 ms lead
        assert_eq!(plan.planned_bytes(), 9 * 1400);
    }

    #[test]
    fn trace_loops_across_its_period() {
        let plan = SchedulePlan::build(
            &steady(),
            SimDuration::from_millis(250),
            1400,
            &[],
            SchedulePlan::DEFAULT_LEAD,
        );
        // 10 per 100 ms loop; horizon 250 ms → 10 + 10 + 4 (210..240).
        assert_eq!(plan.packets(), 24);
    }

    #[test]
    fn sub_packet_opportunities_accumulate() {
        let trace = Trace::from_times("thin", (1..=10).map(|i| ms(i * 10)), 700).unwrap();
        let plan = SchedulePlan::build(
            &trace,
            SimDuration::from_millis(100),
            1400,
            &[],
            SimDuration::ZERO,
        );
        // Two 700-byte opportunities per packet: deliveries at 20, 40,
        // 60, 80 ms.
        assert_eq!(plan.packets(), 4);
        assert_eq!(plan.send_times()[0], ms(20));
    }

    #[test]
    fn outage_wastes_opportunities_and_credit() {
        let trace = Trace::from_times("thin", (1..=10).map(|i| ms(i * 10)), 700).unwrap();
        // Outage covering 30–55 ms: the 30/40/50 ms opportunities die,
        // and the 700 bytes banked at 10+20 ms... deliver at 20 ms
        // already. Banked credit from the 10 ms opp dies with the
        // outage, so after it deliveries restart from zero credit.
        let plan = SchedulePlan::build(
            &trace,
            SimDuration::from_millis(100),
            1400,
            &[(ms(25), ms(55))],
            SimDuration::ZERO,
        );
        // 10+20 → delivery at 20. 30..50 wasted. 60+70 → 70, 80+90 → 90.
        assert_eq!(plan.packets(), 3);
        assert_eq!(plan.send_times(), &[ms(20), ms(70), ms(90)]);
    }

    #[test]
    fn lead_clamps_at_time_zero() {
        let plan = SchedulePlan::build(
            &steady(),
            SimDuration::from_millis(100),
            1400,
            &[],
            SimDuration::from_secs(1),
        );
        assert_eq!(plan.send_times()[0], SimTime::ZERO);
    }

    #[test]
    fn planner_is_deterministic() {
        let a = SchedulePlan::build(
            &steady(),
            SimDuration::from_secs(2),
            1400,
            &[(ms(500), ms(700))],
            SchedulePlan::DEFAULT_LEAD,
        );
        let b = SchedulePlan::build(
            &steady(),
            SimDuration::from_secs(2),
            1400,
            &[(ms(500), ms(700))],
            SchedulePlan::DEFAULT_LEAD,
        );
        assert_eq!(a.send_times(), b.send_times());
        assert_eq!(a.planned_bytes(), b.planned_bytes());
    }
}
