//! Per-flow measurement results.

use verus_stats::{Running, Summary, ThroughputSeries};

/// Everything measured about one flow during a simulation run.
#[derive(Debug, Clone)]
pub struct FlowReport {
    /// Protocol name ("verus", "cubic", …).
    pub protocol: String,
    /// Flow index within the simulation.
    pub flow: usize,
    /// Windowed received throughput (window from
    /// [`crate::SimConfig::throughput_window`]).
    pub throughput: ThroughputSeries,
    /// Per-packet one-way delays (ms) — the paper's "delay" axis
    /// (self-inflicted queueing plus propagation). In arrival order while
    /// the flow's delivery count is within the per-flow reservoir cap, a
    /// uniform sample of them past it. Empty when the simulation was
    /// built with sample buffering disabled
    /// ([`crate::Simulation::with_delay_samples`]).
    pub delays_ms: Vec<f64>,
    /// Exact delay count, mean, variance, min and max (ms) over every
    /// delivery, recorded whether or not samples are buffered.
    pub delay_stats: Running,
    /// Packets handed to the network.
    pub sent: u64,
    /// Packets delivered to the receiver.
    pub delivered: u64,
    /// Losses declared by the transport (fast-retransmit path).
    pub fast_losses: u64,
    /// Retransmission timeouts fired.
    pub timeouts: u64,
    /// Packets lost on the radio link before reaching the bottleneck
    /// queue (stochastic loss).
    pub radio_lost: u64,
    /// Packets dropped by the bottleneck queue (tail-drop or RED).
    pub queue_drops: u64,
    /// Packets lost to the impairment pipeline (blackouts, burst loss);
    /// see [`crate::impairment`].
    pub impaired_lost: u64,
    /// Packets corrupted in flight and discarded at the receiver.
    pub corrupt_dropped: u64,
    /// Packets shed by the sender's overload guard before reaching the
    /// link (they consumed a sequence number and congestion-control
    /// credit but were never launched); see
    /// [`crate::FlowConfig::with_shed_cap`].
    pub shed_dropped: u64,
    /// Duplicate copies injected by the impairment pipeline.
    pub dup_injected: u64,
    /// Packets still sitting in the bottleneck queue at simulation end.
    pub residual_in_queue: u64,
    /// Packets still in flight (departed, undelivered) at simulation end.
    pub residual_in_transit: u64,
    /// Active duration used for mean-rate computations, seconds
    /// (simulation end minus flow start).
    pub active_secs: f64,
    /// For finite transfers: when the last payload byte was delivered,
    /// seconds since *flow start* (the flow-completion time). `None` for
    /// full-buffer flows or if the transfer did not finish.
    pub completion_secs: Option<f64>,
}

impl FlowReport {
    /// Mean throughput in Mbit/s over the flow's active period.
    #[must_use]
    pub fn mean_throughput_mbps(&self) -> f64 {
        if self.active_secs <= 0.0 {
            return 0.0;
        }
        self.throughput.mean_bps(self.active_secs) / 1e6
    }

    /// Delay summary (mean / percentiles) of the buffered samples, or
    /// `None` if nothing arrived or sample buffering was off.
    #[must_use]
    pub fn delay_summary(&self) -> Option<Summary> {
        Summary::from_samples(&self.delays_ms)
    }

    /// Mean one-way delay in ms (0 when nothing arrived). O(1): reads the
    /// running mean; hand-built reports that only filled `delays_ms` fall
    /// back to averaging those.
    #[must_use]
    pub fn mean_delay_ms(&self) -> f64 {
        if self.delay_stats.count() > 0 {
            return self.delay_stats.mean();
        }
        if self.delays_ms.is_empty() {
            return 0.0;
        }
        self.delays_ms.iter().sum::<f64>() / self.delays_ms.len() as f64
    }

    /// Loss rate experienced (declared losses / packets sent).
    #[must_use]
    pub fn loss_rate(&self) -> f64 {
        if self.sent == 0 {
            return 0.0;
        }
        self.fast_losses as f64 / self.sent as f64
    }

    /// End-of-run packet conservation (see [`crate::invariants`]): every
    /// packet that entered the network — sent plus injected duplicates —
    /// is delivered, dropped somewhere specific, or still in the network.
    #[must_use]
    pub fn ledger_balances(&self) -> bool {
        self.sent + self.dup_injected
            == self.radio_lost
                + self.impaired_lost
                + self.queue_drops
                + self.corrupt_dropped
                + self.shed_dropped
                + self.residual_in_queue
                + self.residual_in_transit
                + self.delivered
    }

    /// The packet-conservation ledger as named counters for a
    /// `verus-trace` summary record, so every exported trace carries the
    /// full sent = delivered + accounted-losses breakdown alongside the
    /// protocol timeline.
    #[must_use]
    pub fn trace_counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("sent", self.sent),
            ("delivered", self.delivered),
            ("fast_losses", self.fast_losses),
            ("timeouts", self.timeouts),
            ("radio_lost", self.radio_lost),
            ("queue_drops", self.queue_drops),
            ("impaired_lost", self.impaired_lost),
            ("corrupt_dropped", self.corrupt_dropped),
            ("shed_dropped", self.shed_dropped),
            ("dup_injected", self.dup_injected),
            ("residual_in_queue", self.residual_in_queue),
            ("residual_in_transit", self.residual_in_transit),
            ("ledger_balances", u64::from(self.ledger_balances())),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn running(xs: &[f64]) -> Running {
        let mut r = Running::new();
        xs.iter().for_each(|&x| r.push(x));
        r
    }

    fn report() -> FlowReport {
        let mut throughput = ThroughputSeries::new(1.0);
        throughput.record(0.5, 1_250_000); // 10 Mbit in second 0
        throughput.record(1.5, 1_250_000); // 10 Mbit in second 1
        FlowReport {
            protocol: "test".into(),
            flow: 0,
            throughput,
            delays_ms: vec![10.0, 20.0, 30.0],
            delay_stats: running(&[10.0, 20.0, 30.0]),
            sent: 100,
            delivered: 98,
            fast_losses: 2,
            timeouts: 0,
            radio_lost: 1,
            queue_drops: 1,
            impaired_lost: 0,
            corrupt_dropped: 0,
            shed_dropped: 0,
            dup_injected: 0,
            residual_in_queue: 0,
            residual_in_transit: 0,
            active_secs: 2.0,
            completion_secs: None,
        }
    }

    #[test]
    fn mean_throughput_uses_active_period() {
        assert!((report().mean_throughput_mbps() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn delay_statistics() {
        let r = report();
        assert_eq!(r.mean_delay_ms(), 20.0);
        assert_eq!(r.delay_summary().unwrap().median, 20.0);
    }

    #[test]
    fn loss_rate() {
        assert!((report().loss_rate() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn ledger_balance_is_detectable() {
        let mut r = report();
        assert!(r.ledger_balances());
        r.impaired_lost = 1; // a drop nobody delivered
        assert!(!r.ledger_balances());
        r.sent += 1;
        assert!(r.ledger_balances());
        // Shed packets are part of the equation, not invisible.
        r.shed_dropped = 3;
        assert!(!r.ledger_balances());
        r.sent += 3;
        assert!(r.ledger_balances());
    }

    #[test]
    fn empty_flow_is_all_zeroes() {
        let r = FlowReport {
            protocol: "idle".into(),
            flow: 1,
            throughput: ThroughputSeries::new(1.0),
            delays_ms: vec![],
            delay_stats: Running::new(),
            sent: 0,
            delivered: 0,
            fast_losses: 0,
            timeouts: 0,
            radio_lost: 0,
            queue_drops: 0,
            impaired_lost: 0,
            corrupt_dropped: 0,
            shed_dropped: 0,
            dup_injected: 0,
            residual_in_queue: 0,
            residual_in_transit: 0,
            active_secs: 0.0,
            completion_secs: None,
        };
        assert_eq!(r.mean_throughput_mbps(), 0.0);
        assert_eq!(r.mean_delay_ms(), 0.0);
        assert_eq!(r.loss_rate(), 0.0);
        assert!(r.delay_summary().is_none());
    }
}
