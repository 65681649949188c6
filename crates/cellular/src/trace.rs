//! Delivery-opportunity traces.
//!
//! A trace is the time-ordered list of `(time, bytes)` pairs at which the
//! cellular link can deliver data — mahimahi's link abstraction and the
//! format the paper's OPNET traffic shaper replays ("the channel traces …
//! contain inter-arrival times between consecutive packet arrivals",
//! §5.3). A saturating sender sees exactly the trace; a slower sender sees
//! a subset.
//!
//! Traces are stored in mahimahi's format: plain text, one millisecond
//! timestamp per line, each line one MTU-sized (1500-byte) delivery
//! opportunity — compatible with `mm-link` trace files so real mahimahi
//! traces can be dropped in.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use verus_nettypes::time::round_nonneg;
use verus_nettypes::{SimDuration, SimTime};

/// Bytes per line in the mahimahi trace format.
pub const MAHIMAHI_MTU: u32 = 1500;

/// One delivery opportunity: at `time`, the link can carry `bytes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Opportunity {
    /// When the opportunity occurs.
    pub time: SimTime,
    /// How many bytes it can carry.
    pub bytes: u32,
}

/// A time-ordered delivery-opportunity trace.
///
/// # Example
///
/// ```
/// use verus_cellular::trace::{Opportunity, Trace};
/// use verus_nettypes::{SimDuration, SimTime};
///
/// let trace = Trace::from_times(
///     "two packets per ms",
///     (0..100).map(|ms| SimTime::from_millis(ms)),
///     3000, // bytes per opportunity
/// ).unwrap();
/// // 3000 B/ms = 24 Mbit/s
/// assert!((trace.mean_rate_bps() - 24.24e6).abs() < 0.3e6);
///
/// // mahimahi text round-trip
/// let mut buf = Vec::new();
/// trace.save_mahimahi(&mut buf).unwrap();
/// let back = Trace::load_mahimahi("reloaded", &buf[..]).unwrap();
/// assert!(back.total_bytes().abs_diff(trace.total_bytes()) < 1500);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Human-readable origin ("etisalat-3g campus stationary", …).
    pub name: String,
    opportunities: Vec<Opportunity>,
}

/// Errors from trace I/O and validation.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed line in a mahimahi file.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Offending content.
        content: String,
    },
    /// Opportunities out of order.
    NotSorted {
        /// Index of the first out-of-order entry.
        index: usize,
    },
    /// The trace has no opportunities.
    Empty,
    /// Every opportunity is at t = 0, so the trace has no length to
    /// loop over.
    ZeroDuration,
    /// A cell or link-budget configuration the channel model cannot run.
    InvalidCell {
        /// The offending field, e.g. `"packet_bytes"`.
        field: &'static str,
        /// What the field must satisfy.
        requirement: &'static str,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "trace I/O error: {e}"),
            Self::Parse { line, content } => {
                write!(f, "trace parse error on line {line}: {content:?}")
            }
            Self::NotSorted { index } => {
                write!(f, "trace opportunities not sorted at index {index}")
            }
            Self::Empty => write!(f, "trace contains no opportunities"),
            Self::ZeroDuration => {
                write!(f, "trace has zero duration: every opportunity is at t = 0")
            }
            Self::InvalidCell { field, requirement } => {
                write!(f, "invalid cell config: {field} {requirement}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl Trace {
    /// Builds a trace from already-sorted opportunities. The last one
    /// must lie after t = 0: a trace is replayed in a loop of its own
    /// duration, and a zero-length loop never advances the clock.
    pub fn new(
        name: impl Into<String>,
        opportunities: Vec<Opportunity>,
    ) -> Result<Self, TraceError> {
        if opportunities.is_empty() {
            return Err(TraceError::Empty);
        }
        for (i, w) in opportunities.windows(2).enumerate() {
            if w[1].time < w[0].time {
                return Err(TraceError::NotSorted { index: i + 1 });
            }
        }
        if opportunities.last().map(|o| o.time) == Some(SimTime::ZERO) {
            return Err(TraceError::ZeroDuration);
        }
        Ok(Self {
            name: name.into(),
            opportunities,
        })
    }

    /// Builds a trace from arrival timestamps, each carrying `bytes`.
    pub fn from_times(
        name: impl Into<String>,
        times: impl IntoIterator<Item = SimTime>,
        bytes: u32,
    ) -> Result<Self, TraceError> {
        Self::new(
            name,
            times
                .into_iter()
                .map(|time| Opportunity { time, bytes })
                .collect(),
        )
    }

    /// The opportunities, sorted by time.
    #[must_use]
    pub fn opportunities(&self) -> &[Opportunity] {
        &self.opportunities
    }

    /// Consumes the trace, returning its opportunities without a copy.
    #[must_use]
    pub fn into_opportunities(self) -> Vec<Opportunity> {
        self.opportunities
    }

    /// Number of opportunities.
    #[must_use]
    pub fn len(&self) -> usize {
        self.opportunities.len()
    }

    /// Always false: empty traces are unrepresentable.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.opportunities.is_empty()
    }

    /// Timestamp of the last opportunity — the trace's natural duration,
    /// and the period it loops with. Always positive.
    #[must_use]
    pub fn duration(&self) -> SimDuration {
        self.opportunities
            .last()
            .map(|o| o.time.saturating_since(SimTime::ZERO))
            .unwrap_or(SimDuration::ZERO)
    }

    /// Total bytes deliverable over the whole trace.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.opportunities.iter().map(|o| u64::from(o.bytes)).sum()
    }

    /// Mean capacity in bits per second over the trace duration.
    #[must_use]
    pub fn mean_rate_bps(&self) -> f64 {
        let secs = self.duration().as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.total_bytes() as f64 * 8.0 / secs
    }

    /// Capacity in each window of `window` length, in bits per second
    /// (regenerates the paper's Figure 4 series when applied to a probe
    /// arrival trace).
    #[must_use]
    pub fn windowed_rate_bps(&self, window: SimDuration) -> Vec<(f64, f64)> {
        assert!(window > SimDuration::ZERO);
        let mut series = verus_stats::ThroughputSeries::new(window.as_secs_f64());
        for o in &self.opportunities {
            series.record(o.time.as_secs_f64(), u64::from(o.bytes));
        }
        series.series_bps()
    }

    /// Repeats the trace back-to-back until it covers at least `duration`
    /// (the simulator loops traces the same way mahimahi does).
    #[must_use]
    pub fn extend_to(&self, duration: SimDuration) -> Trace {
        let base = self.duration();
        let mut out = Vec::with_capacity(self.opportunities.len() * 2);
        let mut offset = SimDuration::ZERO;
        'outer: loop {
            for o in &self.opportunities {
                let t = o.time + offset;
                out.push(Opportunity { time: t, bytes: o.bytes });
                if t.saturating_since(SimTime::ZERO) >= duration {
                    break 'outer;
                }
            }
            offset += base;
        }
        Trace {
            name: format!("{} (looped)", self.name),
            opportunities: out,
        }
    }

    /// Scales all opportunity sizes by `factor` (coarse rate adjustment
    /// for sensitivity sweeps). Sizes are rounded and floored at 1 byte.
    #[must_use]
    pub fn scale_rate(&self, factor: f64) -> Trace {
        assert!(factor > 0.0 && factor.is_finite());
        Trace {
            name: format!("{} (x{factor})", self.name),
            opportunities: self
                .opportunities
                .iter()
                .map(|o| Opportunity {
                    time: o.time,
                    bytes: u32::try_from(round_nonneg(f64::from(o.bytes) * factor))
                        .unwrap_or(u32::MAX)
                        .max(1),
                })
                .collect(),
        }
    }

    /// Writes the mahimahi text format: ms timestamps, one line per
    /// [`MAHIMAHI_MTU`]-byte delivery opportunity.
    ///
    /// Synthetic opportunities carry arbitrary byte counts, so bytes are
    /// accumulated across opportunities and a line is emitted for every
    /// full MTU — total capacity is preserved to within one MTU (naively
    /// rounding each opportunity up would inflate a trace of small
    /// per-TTI grants by tens of percent).
    pub fn save_mahimahi<W: Write>(&self, writer: W) -> Result<(), TraceError> {
        let mut w = BufWriter::new(writer);
        let mut accum: u64 = 0;
        for o in &self.opportunities {
            accum += u64::from(o.bytes);
            while accum >= u64::from(MAHIMAHI_MTU) {
                accum -= u64::from(MAHIMAHI_MTU);
                writeln!(w, "{}", o.time.as_millis())?;
            }
        }
        w.flush()?;
        Ok(())
    }

    /// Reads the mahimahi text format; every line is one MTU opportunity.
    pub fn load_mahimahi<R: Read>(name: impl Into<String>, reader: R) -> Result<Self, TraceError> {
        let mut opportunities = Vec::new();
        for (i, line) in BufReader::new(reader).lines().enumerate() {
            let line = line?;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            // A timestamp past the nanosecond clock's range is as
            // malformed as one that does not parse.
            let ns = trimmed
                .parse::<u64>()
                .ok()
                .and_then(|ms| ms.checked_mul(1_000_000))
                .ok_or_else(|| TraceError::Parse {
                    line: i + 1,
                    content: trimmed.to_string(),
                })?;
            opportunities.push(Opportunity {
                time: SimTime::from_nanos(ns),
                bytes: MAHIMAHI_MTU,
            });
        }
        Self::new(name, opportunities)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn sample() -> Trace {
        Trace::from_times("t", [ms(0), ms(10), ms(10), ms(25)], 1500).unwrap()
    }

    #[test]
    fn rejects_empty() {
        assert!(matches!(Trace::new("t", vec![]), Err(TraceError::Empty)));
    }

    #[test]
    fn rejects_zero_duration() {
        let err = Trace::from_times("t", [ms(0), ms(0)], 1500).unwrap_err();
        assert!(matches!(err, TraceError::ZeroDuration));
        let err = Trace::load_mahimahi("t", "0\n0\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TraceError::ZeroDuration));
        // One opportunity after t = 0 is enough.
        let t = Trace::from_times("t", [ms(0), ms(1)], 1500).unwrap();
        assert_eq!(t.duration(), SimDuration::from_millis(1));
    }

    #[test]
    fn rejects_unsorted() {
        let err = Trace::from_times("t", [ms(5), ms(3)], 100).unwrap_err();
        assert!(matches!(err, TraceError::NotSorted { index: 1 }));
    }

    #[test]
    fn allows_equal_timestamps() {
        // Several opportunities in the same TTI are normal.
        assert!(Trace::from_times("t", [ms(1), ms(1), ms(1)], 100).is_ok());
    }

    #[test]
    fn duration_and_totals() {
        let t = sample();
        assert_eq!(t.duration(), SimDuration::from_millis(25));
        assert_eq!(t.total_bytes(), 6000);
        // 6000 B over 25 ms = 1.92 Mbit/s
        assert!((t.mean_rate_bps() - 1_920_000.0).abs() < 1.0);
    }

    #[test]
    fn windowed_rate_bins_correctly() {
        let t = sample();
        let rates = t.windowed_rate_bps(SimDuration::from_millis(10));
        // window 0: 1500 B, window 1: 3000 B, window 2: 1500 B
        assert_eq!(rates.len(), 3);
        assert!((rates[0].1 - 1500.0 * 8.0 / 0.01).abs() < 1.0);
        assert!((rates[1].1 - 3000.0 * 8.0 / 0.01).abs() < 1.0);
    }

    #[test]
    fn extend_loops_past_duration() {
        let t = sample();
        let long = t.extend_to(SimDuration::from_millis(80));
        assert!(long.duration() >= SimDuration::from_millis(80));
        // second copy starts offset by the base duration (25 ms)
        assert_eq!(long.opportunities()[4].time, ms(25));
    }

    #[test]
    fn scale_rate_multiplies_bytes() {
        let t = sample().scale_rate(2.0);
        assert_eq!(t.total_bytes(), 12_000);
        let half = sample().scale_rate(0.5);
        assert_eq!(half.total_bytes(), 3000);
    }

    #[test]
    fn scale_rate_rounds_like_f64_round() {
        // Byte counts at and around every rounding boundary a factor
        // can hit, then factors from tiny (every size floors at 1 byte)
        // to huge (every size saturates at u32::MAX).
        let sizes = [1u32, 2, 3, 7, 1399, 1400, 1401, 65_535, 1 << 30, u32::MAX];
        let trace = Trace::new(
            "t",
            sizes
                .iter()
                .enumerate()
                .map(|(i, &bytes)| Opportunity {
                    time: SimTime::from_millis(i as u64 + 1),
                    bytes,
                })
                .collect(),
        )
        .unwrap();
        let mut factors = vec![1e-12, 0.5, 1.0, 1.5, 2.5, 1e9, f64::MAX];
        let mut rng = 0x2545_f491_4f6c_dd1d_u64;
        for _ in 0..2_000 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            factors.push(((rng >> 11) + 1) as f64 / (1u64 << 53) as f64 * 4.0);
        }
        for f in factors {
            for (o, &b) in trace.scale_rate(f).opportunities().iter().zip(&sizes) {
                let want = ((f64::from(b) * f).round() as u32).max(1);
                assert_eq!(o.bytes, want, "{b} B x {f:e}");
            }
        }
    }

    #[test]
    fn mahimahi_round_trip() {
        let t = sample();
        let mut buf = Vec::new();
        t.save_mahimahi(&mut buf).unwrap();
        let parsed = Trace::load_mahimahi("t", &buf[..]).unwrap();
        assert_eq!(parsed.len(), t.len());
        assert_eq!(parsed.total_bytes(), t.total_bytes());
        assert_eq!(
            parsed.opportunities()[3].time,
            t.opportunities()[3].time
        );
    }

    #[test]
    fn mahimahi_splits_large_opportunities() {
        let t = Trace::new(
            "t",
            vec![Opportunity {
                time: ms(3),
                bytes: 4000,
            }],
        )
        .unwrap();
        let mut buf = Vec::new();
        t.save_mahimahi(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // floor(4000/1500) full MTUs; the 1000-byte remainder carries.
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l == "3"));
    }

    #[test]
    fn mahimahi_preserves_capacity_of_small_grants() {
        // 100 small opportunities of 800 B: naive per-opportunity
        // rounding would write 100 MTU lines (150 kB); the accumulator
        // writes floor(80000/1500) = 53.
        let t = Trace::new(
            "t",
            (0..100)
                .map(|i| Opportunity {
                    time: ms(i),
                    bytes: 800,
                })
                .collect(),
        )
        .unwrap();
        let mut buf = Vec::new();
        t.save_mahimahi(&mut buf).unwrap();
        let reloaded = Trace::load_mahimahi("r", &buf[..]).unwrap();
        let orig = t.total_bytes() as f64;
        let got = reloaded.total_bytes() as f64;
        assert!((got - orig).abs() <= f64::from(MAHIMAHI_MTU), "{orig} vs {got}");
    }

    #[test]
    fn mahimahi_skips_comments_and_blank_lines() {
        let input = "# header\n\n5\n7\n";
        let t = Trace::load_mahimahi("t", input.as_bytes()).unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn mahimahi_rejects_garbage() {
        let err = Trace::load_mahimahi("t", "abc\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 1, .. }));
    }

    #[test]
    fn mahimahi_rejects_timestamps_past_the_clock_range() {
        // u64::MAX ns is 18446744073709.55 ms: the next whole millisecond
        // overflows the nanosecond clock.
        let text = "5\n18446744073709\n18446744073710\n";
        let err = Trace::load_mahimahi("t", text.as_bytes()).unwrap_err();
        assert!(
            matches!(&err, TraceError::Parse { line: 3, content } if content == "18446744073710"),
            "{err}"
        );
    }

    #[test]
    fn error_display() {
        let e = TraceError::NotSorted { index: 4 };
        assert!(e.to_string().contains("index 4"));
    }
}
