//! Virtual time: instants and durations with picosecond resolution.
//!
//! Picoseconds in a `u64` cover ~213 days of virtual time, far beyond any
//! simulated collective, while still resolving single-byte transfers on a
//! 450 GB/s link (~2.2 ps/byte).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant of virtual time, measured in picoseconds since simulation start.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

/// A span of virtual time, measured in picoseconds.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Time {
    /// The simulation start instant.
    pub const ZERO: Time = Time(0);

    /// The far future. Used as the `end` of a permanent fault window;
    /// never add a duration to it (virtual-time arithmetic would overflow).
    pub const MAX: Time = Time(u64::MAX);

    /// Creates an instant from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Time {
        Time(ps)
    }

    /// Raw picoseconds since simulation start.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// This instant expressed in nanoseconds.
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This instant expressed in microseconds.
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This instant expressed in seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// The span from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn duration_since(self, earlier: Time) -> Duration {
        assert!(
            earlier.0 <= self.0,
            "duration_since: earlier ({earlier:?}) is after self ({self:?})"
        );
        Duration(self.0 - earlier.0)
    }

    /// The later of two instants.
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }
}

impl Duration {
    /// The empty span.
    pub const ZERO: Duration = Duration(0);

    /// Creates a span from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Duration {
        Duration(ps)
    }

    /// Creates a span from nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is negative or not finite.
    pub fn from_ns(ns: f64) -> Duration {
        assert!(ns.is_finite() && ns >= 0.0, "invalid duration: {ns} ns");
        Duration((ns * 1e3).round() as u64)
    }

    /// Creates a span from microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `us` is negative or not finite.
    pub fn from_us(us: f64) -> Duration {
        Duration::from_ns(us * 1e3)
    }

    /// The virtual time needed to move `bytes` at `gb_per_s` gigabytes per
    /// second (1 GB = 1e9 bytes), excluding any fixed latency.
    ///
    /// # Panics
    ///
    /// Panics if `gb_per_s` is not strictly positive.
    pub fn for_transfer(bytes: u64, gb_per_s: f64) -> Duration {
        assert!(
            gb_per_s > 0.0 && gb_per_s.is_finite(),
            "invalid bandwidth: {gb_per_s} GB/s"
        );
        // bytes / (gb_per_s * 1e9 B/s) seconds = bytes * 1e3 / gb_per_s ps
        Duration(((bytes as f64) * 1e3 / gb_per_s).round() as u64)
    }

    /// Raw picoseconds.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// This span expressed in nanoseconds.
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This span expressed in microseconds.
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This span expressed in seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating sum of two spans.
    pub fn saturating_add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }

    /// Saturating difference of two spans (zero when `rhs` is larger).
    pub fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    fn add(self, rhs: Duration) -> Time {
        Time(self.0.checked_add(rhs.0).expect("virtual time overflow"))
    }
}

impl AddAssign<Duration> for Time {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<Time> for Time {
    type Output = Duration;
    fn sub(self, rhs: Time) -> Duration {
        self.duration_since(rhs)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.checked_add(rhs.0).expect("duration overflow"))
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}us", self.as_us())
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us())
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us())
    }
}

impl std::iter::Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = Time::from_ps(1_500_000); // 1.5 us
        assert_eq!(t.as_us(), 1.5);
        assert_eq!(t.as_ns(), 1500.0);
        let t2 = t + Duration::from_us(0.5);
        assert_eq!(t2.as_us(), 2.0);
        assert_eq!((t2 - t).as_us(), 0.5);
    }

    #[test]
    fn transfer_duration_matches_bandwidth() {
        // 1 GB at 25 GB/s = 40 ms
        let d = Duration::for_transfer(1_000_000_000, 25.0);
        assert_eq!(d.as_secs(), 0.04);
        // 1 byte at 450 GB/s is ~2.2 ps, must not truncate to zero
        let tiny = Duration::for_transfer(1, 450.0);
        assert!(tiny.as_ps() >= 2);
    }

    #[test]
    fn zero_transfer_is_zero() {
        assert_eq!(Duration::for_transfer(0, 25.0), Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "earlier")]
    fn duration_since_panics_when_reversed() {
        let _ = Time::from_ps(5).duration_since(Time::from_ps(10));
    }

    #[test]
    #[should_panic(expected = "invalid bandwidth")]
    fn zero_bandwidth_rejected() {
        let _ = Duration::for_transfer(100, 0.0);
    }

    #[test]
    fn duration_sum_and_ordering() {
        let a = Duration::from_ns(10.0);
        let b = Duration::from_ns(20.0);
        assert!(a < b);
        let s: Duration = [a, b].into_iter().sum();
        assert_eq!(s.as_ns(), 30.0);
    }

    #[test]
    fn display_formats_microseconds() {
        assert_eq!(Time::from_ps(2_500_000).to_string(), "2.500us");
        assert_eq!(Duration::from_us(1.25).to_string(), "1.250us");
    }
}
