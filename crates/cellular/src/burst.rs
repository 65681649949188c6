//! Burst detection and statistics.
//!
//! The paper defines the receiver-side traffic pattern by its bursts: "the
//! typical traffic characteristics at a receiver are bursty … with variable
//! burst sizes and burst inter-arrival periods" (§1), quantified in
//! Figure 2 as PDFs of burst size (bytes) and burst inter-arrival time
//! (ms). A burst is a maximal run of packet arrivals whose gaps stay below
//! a threshold — arrivals within one TTI (1–2 ms) belong to the same
//! scheduler grant, so the detector defaults to a 1 ms gap.

use crate::trace::Trace;
use verus_nettypes::{SimDuration, SimTime};
use verus_stats::{LogHistogram, Summary};

/// One detected burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Burst {
    /// Arrival time of the burst's first packet.
    pub start: SimTime,
    /// Arrival time of the burst's last packet.
    pub end: SimTime,
    /// Total bytes in the burst.
    pub bytes: u64,
    /// Number of arrivals merged into the burst.
    pub packets: u32,
}

/// Splits a time-ordered arrival sequence `(time, bytes)` into bursts:
/// consecutive arrivals separated by **less than** `gap` join one burst.
#[must_use]
pub fn detect_bursts(arrivals: &[(SimTime, u32)], gap: SimDuration) -> Vec<Burst> {
    assert!(gap > SimDuration::ZERO, "burst gap must be positive");
    let mut bursts: Vec<Burst> = Vec::new();
    for &(t, bytes) in arrivals {
        match bursts.last_mut() {
            Some(b) if t.saturating_since(b.end) < gap => {
                debug_assert!(t >= b.end, "arrivals must be time-ordered");
                b.end = t;
                b.bytes += u64::from(bytes);
                b.packets += 1;
            }
            _ => bursts.push(Burst {
                start: t,
                end: t,
                bytes: u64::from(bytes),
                packets: 1,
            }),
        }
    }
    bursts
}

/// Detects bursts directly on a delivery [`Trace`].
#[must_use]
pub fn trace_bursts(trace: &Trace, gap: SimDuration) -> Vec<Burst> {
    let arrivals: Vec<(SimTime, u32)> = trace
        .opportunities()
        .iter()
        .map(|o| (o.time, o.bytes))
        .collect();
    detect_bursts(&arrivals, gap)
}

/// Figure 2's statistics for one trace.
#[derive(Debug, Clone)]
pub struct BurstStats {
    /// Number of bursts.
    pub count: usize,
    /// Summary of burst sizes in bytes.
    pub size_bytes: Summary,
    /// Summary of inter-arrival gaps (start-to-start) in milliseconds.
    pub inter_arrival_ms: Summary,
    /// Log-binned PMF of burst size, 10³–10⁶ bytes (Figure 2a axes).
    pub size_pmf: Vec<(f64, f64)>,
    /// Log-binned PMF of inter-arrival time, 10⁰–10³ ms (Figure 2b axes).
    pub inter_arrival_pmf: Vec<(f64, f64)>,
}

/// Computes burst statistics with Figure 2's axes. Returns `None` when
/// fewer than two bursts exist (no inter-arrival sample).
#[must_use]
pub fn burst_stats(bursts: &[Burst]) -> Option<BurstStats> {
    if bursts.len() < 2 {
        return None;
    }
    let sizes: Vec<f64> = bursts.iter().map(|b| b.bytes as f64).collect();
    let gaps_ms: Vec<f64> = bursts
        .windows(2)
        .map(|w| w[1].start.saturating_since(w[0].start).as_millis_f64())
        .collect();

    let mut size_hist = LogHistogram::new(1e2, 1e7, 50);
    for &s in &sizes {
        size_hist.add(s);
    }
    let mut gap_hist = LogHistogram::new(1e-1, 1e4, 50);
    for &g in &gaps_ms {
        gap_hist.add(g);
    }

    Some(BurstStats {
        count: bursts.len(),
        size_bytes: Summary::from_samples(&sizes)?,
        inter_arrival_ms: Summary::from_samples(&gaps_ms)?,
        size_pmf: size_hist.pmf(),
        inter_arrival_pmf: gap_hist.pmf(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimTime {
        SimTime::from_micros(v)
    }

    #[test]
    fn merges_arrivals_within_gap() {
        // three packets 100 µs apart, then a 5 ms pause, then one packet
        let arrivals = vec![
            (us(0), 1500u32),
            (us(100), 1500),
            (us(200), 1500),
            (us(5200), 1500),
        ];
        let bursts = detect_bursts(&arrivals, SimDuration::from_millis(1));
        assert_eq!(bursts.len(), 2);
        assert_eq!(bursts[0].bytes, 4500);
        assert_eq!(bursts[0].packets, 3);
        assert_eq!(bursts[1].packets, 1);
        assert_eq!(bursts[1].start, us(5200));
    }

    #[test]
    fn gap_is_exclusive() {
        // exactly `gap` apart → separate bursts
        let arrivals = vec![(us(0), 100u32), (us(1000), 100)];
        let bursts = detect_bursts(&arrivals, SimDuration::from_millis(1));
        assert_eq!(bursts.len(), 2);
        // just under → one burst
        let arrivals = vec![(us(0), 100u32), (us(999), 100)];
        let bursts = detect_bursts(&arrivals, SimDuration::from_millis(1));
        assert_eq!(bursts.len(), 1);
    }

    #[test]
    fn gap_measured_from_last_arrival_not_first() {
        // chain of arrivals each 0.9 ms apart spans > 1 ms total but is one burst
        let arrivals: Vec<(SimTime, u32)> =
            (0..5).map(|i| (us(i * 900), 100u32)).collect();
        let bursts = detect_bursts(&arrivals, SimDuration::from_millis(1));
        assert_eq!(bursts.len(), 1);
        assert_eq!(bursts[0].end, us(3600));
    }

    #[test]
    fn empty_input_yields_no_bursts() {
        assert!(detect_bursts(&[], SimDuration::from_millis(1)).is_empty());
    }

    #[test]
    fn stats_need_two_bursts() {
        let one = detect_bursts(&[(us(0), 100)], SimDuration::from_millis(1));
        assert!(burst_stats(&one).is_none());
    }

    #[test]
    fn stats_match_hand_computation() {
        let arrivals = vec![
            (us(0), 1000u32),
            (us(10_000), 2000),
            (us(30_000), 3000),
        ];
        let bursts = detect_bursts(&arrivals, SimDuration::from_millis(1));
        let stats = burst_stats(&bursts).unwrap();
        assert_eq!(stats.count, 3);
        assert_eq!(stats.size_bytes.mean, 2000.0);
        // start-to-start gaps: 10 ms and 20 ms
        assert_eq!(stats.inter_arrival_ms.mean, 15.0);
        // PMFs sum to ≤ 1 (mass, not density)
        let mass: f64 = stats.size_pmf.iter().map(|&(_, m)| m).sum();
        assert!(mass <= 1.0 + 1e-12);
    }

    #[test]
    fn works_on_traces() {
        let t = Trace::from_times(
            "t",
            [us(0), us(100), us(3000), us(3100)],
            1500,
        )
        .unwrap();
        let bursts = trace_bursts(&t, SimDuration::from_millis(1));
        assert_eq!(bursts.len(), 2);
        assert_eq!(bursts[0].bytes, 3000);
    }
}
