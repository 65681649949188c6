//! Transfer statistics for real-socket runs.

use verus_stats::{StreamingStats, Summary, ThroughputSeries};

/// What a [`crate::SupervisedSender`] measured over one transfer.
#[derive(Debug, Clone)]
pub struct TransferStats {
    /// Protocol name.
    pub protocol: String,
    /// Packets sent.
    pub sent: u64,
    /// Packets acknowledged.
    pub acked: u64,
    /// Losses declared by fast detection.
    pub fast_losses: u64,
    /// Retransmission timeouts.
    pub timeouts: u64,
    /// Packets the overload guard refused to put on the wire (sequence
    /// numbers consumed, counted as sent, never transmitted — the
    /// transport-side analogue of the simulator's `shed_dropped` ledger
    /// column). Always 0 unless the supervisor's shed cap is set.
    pub shed_dropped: u64,
    /// Acknowledged throughput in 1-second windows (bytes credited at
    /// ACK-arrival time).
    pub throughput: ThroughputSeries,
    /// Per-packet one-way delays in ms (receiver timestamp − send
    /// timestamp; exact when both ends share a [`crate::WallClock`]).
    pub delays_ms: Vec<f64>,
    /// Streaming delay statistics recorded alongside the raw samples
    /// (O(1) mean/quantiles even for very long transfers).
    pub delay_stats: StreamingStats,
    /// Wall-clock duration of the transfer, seconds.
    pub duration_secs: f64,
}

impl TransferStats {
    /// Mean acknowledged throughput in Mbit/s.
    #[must_use]
    pub fn mean_throughput_mbps(&self) -> f64 {
        if self.duration_secs <= 0.0 {
            return 0.0;
        }
        self.throughput.mean_bps(self.duration_secs) / 1e6
    }

    /// Mean one-way delay, ms. O(1) via the running mean; hand-built
    /// stats that only filled `delays_ms` fall back to averaging those.
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

    /// Delay distribution summary (exact over the raw samples when
    /// present, streaming estimate otherwise).
    #[must_use]
    pub fn delay_summary(&self) -> Option<Summary> {
        if self.delays_ms.is_empty() {
            return self.delay_stats.summary();
        }
        Summary::from_samples(&self.delays_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_duration_means_zero_rate() {
        let s = TransferStats {
            protocol: "t".into(),
            sent: 0,
            acked: 0,
            fast_losses: 0,
            timeouts: 0,
            shed_dropped: 0,
            throughput: ThroughputSeries::new(1.0),
            delays_ms: vec![],
            delay_stats: StreamingStats::for_delays_ms(),
            duration_secs: 0.0,
        };
        assert_eq!(s.mean_throughput_mbps(), 0.0);
        assert_eq!(s.mean_delay_ms(), 0.0);
        assert!(s.delay_summary().is_none());
    }

    #[test]
    fn throughput_and_delay_computation() {
        let mut tp = ThroughputSeries::new(1.0);
        tp.record(0.2, 250_000); // 2 Mbit
        let s = TransferStats {
            protocol: "t".into(),
            sent: 10,
            acked: 9,
            fast_losses: 1,
            timeouts: 0,
            shed_dropped: 0,
            throughput: tp,
            delays_ms: vec![10.0, 30.0],
            delay_stats: StreamingStats::from_samples(&[10.0, 30.0]),
            duration_secs: 2.0,
        };
        assert!((s.mean_throughput_mbps() - 1.0).abs() < 1e-9);
        assert_eq!(s.mean_delay_ms(), 20.0);
    }
}
