//! Simulation time.
//!
//! Nanosecond-resolution, integer-backed time keeps the discrete-event
//! simulator exactly deterministic (no floating-point drift in event
//! ordering) while still being fine-grained enough for the 0.4 ms probe
//! intervals and 5 ms Verus epochs the paper works with.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Round-half-up for non-negative finite `x`, saturating at `u64::MAX`.
///
/// Exactly equivalent to `x.round() as u64` on that domain (halves round
/// away from zero, which is up for non-negatives; above 2^53 every f64 is
/// already an integer so the fractional test is vacuous), but compiled to
/// two conversions and a compare instead of a libm `round` call — the
/// baseline x86-64 target has no `roundsd`, and the RTT estimator makes
/// several rounding conversions per ACK, enough to show up in event-loop
/// profiles.
#[inline]
fn round_nonneg(x: f64) -> u64 {
    debug_assert!(x >= 0.0);
    let t = x as u64;
    t + u64::from(x - t as f64 >= 0.5 && t != u64::MAX)
}

/// An instant on the simulation clock, in nanoseconds since simulation
/// start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant (used as "never" sentinel).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Constructs from raw nanoseconds.
    #[must_use]
    pub const fn from_nanos(ns: u64) -> Self {
        Self(ns)
    }

    /// Constructs from microseconds.
    #[must_use]
    pub const fn from_micros(us: u64) -> Self {
        Self(us * 1_000)
    }

    /// Constructs from milliseconds.
    #[must_use]
    pub const fn from_millis(ms: u64) -> Self {
        Self(ms * 1_000_000)
    }

    /// Constructs from seconds.
    #[must_use]
    pub const fn from_secs(s: u64) -> Self {
        Self(s * 1_000_000_000)
    }

    /// Constructs from fractional seconds (rounds to nanoseconds).
    ///
    /// # Panics
    /// Panics on negative or non-finite input.
    #[must_use]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid time {s}");
        Self(round_nonneg(s * 1e9))
    }

    /// Raw nanoseconds.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds (truncating).
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds (truncating).
    #[must_use]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Fractional milliseconds.
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration since an earlier instant; saturates at zero if `earlier`
    /// is actually later (clock races in the real transport).
    #[must_use]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition.
    #[must_use]
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Constructs from raw nanoseconds.
    #[must_use]
    pub const fn from_nanos(ns: u64) -> Self {
        Self(ns)
    }

    /// Constructs from microseconds.
    #[must_use]
    pub const fn from_micros(us: u64) -> Self {
        Self(us * 1_000)
    }

    /// Constructs from milliseconds.
    #[must_use]
    pub const fn from_millis(ms: u64) -> Self {
        Self(ms * 1_000_000)
    }

    /// Constructs from seconds.
    #[must_use]
    pub const fn from_secs(s: u64) -> Self {
        Self(s * 1_000_000_000)
    }

    /// Constructs from fractional seconds (rounds to nanoseconds).
    #[must_use]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid duration {s}");
        Self(round_nonneg(s * 1e9))
    }

    /// Constructs from fractional milliseconds.
    #[must_use]
    pub fn from_millis_f64(ms: f64) -> Self {
        assert!(ms.is_finite() && ms >= 0.0, "invalid duration {ms} ms");
        Self(round_nonneg(ms * 1e6))
    }

    /// Raw nanoseconds.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole milliseconds (truncating).
    #[must_use]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Fractional milliseconds.
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Multiplies by a non-negative factor, rounding to nanoseconds.
    #[must_use]
    pub fn mul_f64(self, k: f64) -> Self {
        assert!(k.is_finite() && k >= 0.0, "invalid factor {k}");
        Self(round_nonneg(self.0 as f64 * k))
    }

    /// Converts to `std::time::Duration` (for the real-socket transport).
    #[must_use]
    pub fn to_std(self) -> std::time::Duration {
        std::time::Duration::from_nanos(self.0)
    }

    /// Converts from `std::time::Duration`, saturating at `u64::MAX` ns.
    #[must_use]
    pub fn from_std(d: std::time::Duration) -> Self {
        Self(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration subtraction underflow"),
        )
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div for SimDuration {
    type Output = f64;
    fn div(self, rhs: SimDuration) -> f64 {
        self.0 as f64 / rhs.0 as f64
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_millis(5), SimTime::from_micros(5_000));
        assert_eq!(SimTime::from_secs(1), SimTime::from_nanos(1_000_000_000));
        assert_eq!(SimTime::from_secs_f64(0.005), SimTime::from_millis(5));
        assert_eq!(SimDuration::from_millis_f64(2.5), SimDuration::from_micros(2_500));
    }

    #[test]
    fn arithmetic_round_trips() {
        let t = SimTime::from_millis(100);
        let d = SimDuration::from_millis(30);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn ordering_is_total() {
        assert!(SimTime::from_millis(1) < SimTime::from_millis(2));
        assert!(SimTime::ZERO < SimTime::MAX);
    }

    #[test]
    fn saturating_since_never_underflows() {
        let a = SimTime::from_millis(5);
        let b = SimTime::from_millis(9);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a), SimDuration::from_millis(4));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn strict_subtraction_panics_on_underflow() {
        let _ = SimTime::from_millis(1) - SimTime::from_millis(2);
    }

    #[test]
    fn float_conversions() {
        let d = SimDuration::from_millis(1500);
        assert_eq!(d.as_secs_f64(), 1.5);
        assert_eq!(d.as_millis_f64(), 1500.0);
        assert_eq!(d.mul_f64(2.0), SimDuration::from_secs(3));
    }

    #[test]
    fn duration_ratio() {
        let rtt = SimDuration::from_millis(50);
        let epoch = SimDuration::from_millis(5);
        assert_eq!(rtt / epoch, 10.0);
    }

    #[test]
    fn std_round_trip() {
        let d = SimDuration::from_micros(1234);
        assert_eq!(SimDuration::from_std(d.to_std()), d);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::from_millis(5).to_string(), "5.000ms");
        assert_eq!(SimTime::from_secs(2).to_string(), "2.000000s");
    }
}
