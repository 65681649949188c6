//! Transfer statistics for real-socket runs.

use verus_stats::{Running, Summary, ThroughputSeries};

/// What one flow of a [`crate::ShardServer`] run measured.
///
/// Its size is fixed whatever the run's length: the mean delay is exact
/// over every sample through a [`Running`], and the delay quantiles come
/// from a bounded sample (see `delay_summary`).
#[derive(Debug, Clone)]
pub struct TransferStats {
    /// Protocol name.
    pub protocol: &'static str,
    /// Sequences handed to the wire or shed (fresh sends, retransmissions
    /// and probes).
    pub sent: u64,
    /// Unique sequences acknowledged.
    pub acked: u64,
    /// Losses declared by fast detection.
    pub fast_losses: u64,
    /// Retransmission timeouts.
    pub timeouts: u64,
    /// Sequences the overload guard refused to put on the wire (consumed,
    /// counted as sent, never transmitted — the transport-side analogue
    /// of the simulator's `shed_dropped` ledger column). Always 0 unless
    /// the server's shed cap is set.
    pub shed_dropped: u64,
    /// Acknowledged throughput in 1-second windows (bytes credited when a
    /// sequence is first acknowledged).
    pub throughput: ThroughputSeries,
    /// Exact running statistics over every one-way delay sample, ms
    /// (receiver timestamp − send timestamp; exact when both ends share
    /// a [`crate::WallClock`]).
    pub delay_stats: Running,
    /// Delay distribution, ms, over the samples the flow kept: every
    /// sample up to its share of the server's
    /// [`verus_stats::Reservoir::DEFAULT_CAP`] (all of it when the
    /// server runs one flow), a uniform sample of them beyond. `None`
    /// without samples.
    pub delay_summary: Option<Summary>,
    /// Wall-clock seconds from the run's start until the flow stopped
    /// sending new data (it began draining or closed).
    pub duration_secs: f64,
}

impl TransferStats {
    /// Empty statistics for a `protocol` flow.
    #[must_use]
    pub fn new(protocol: &'static str) -> Self {
        Self {
            protocol,
            sent: 0,
            acked: 0,
            fast_losses: 0,
            timeouts: 0,
            shed_dropped: 0,
            throughput: ThroughputSeries::new(1.0),
            delay_stats: Running::new(),
            delay_summary: None,
            duration_secs: 0.0,
        }
    }

    /// Mean acknowledged throughput in Mbit/s.
    #[must_use]
    pub fn mean_throughput_mbps(&self) -> f64 {
        if self.duration_secs <= 0.0 {
            return 0.0;
        }
        self.throughput.mean_bps(self.duration_secs) / 1e6
    }

    /// Mean one-way delay over every sample, ms (0 without samples).
    #[must_use]
    pub fn mean_delay_ms(&self) -> f64 {
        self.delay_stats.mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_duration_means_zero_rate() {
        let s = TransferStats::new("t");
        assert_eq!(s.mean_throughput_mbps(), 0.0);
        assert_eq!(s.mean_delay_ms(), 0.0);
        assert!(s.delay_summary.is_none());
    }

    #[test]
    fn throughput_and_delay_computation() {
        let mut s = TransferStats::new("t");
        s.throughput.record(0.2, 250_000); // 2 Mbit
        s.duration_secs = 2.0;
        s.delay_stats.push(10.0);
        s.delay_stats.push(30.0);
        assert!((s.mean_throughput_mbps() - 1.0).abs() < 1e-9);
        assert_eq!(s.mean_delay_ms(), 20.0);
    }
}
