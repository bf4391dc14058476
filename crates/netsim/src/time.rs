//! Simulated time: nanosecond ticks behind newtypes.
//!
//! `SimTime` is an instant, `Duration` a difference. Keeping them distinct
//! types (instead of bare `u64`s) has caught every "added two timestamps"
//! bug at compile time. Nanosecond resolution covers ~584 years of simulated
//! time in a `u64` — plenty.

use std::ops::{Add, AddAssign, Sub};

/// An instant in simulated time (nanoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// Raw nanoseconds since start.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since start as f64 (for metrics/rates).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration since an earlier instant (saturating — never underflows).
    pub fn since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl Duration {
    /// Zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// From nanoseconds.
    pub const fn from_nanos(ns: u64) -> Duration {
        Duration(ns)
    }

    /// From microseconds.
    pub const fn from_micros(us: u64) -> Duration {
        Duration(us * 1_000)
    }

    /// From milliseconds.
    pub const fn from_millis(ms: u64) -> Duration {
        Duration(ms * 1_000_000)
    }

    /// From (non-negative, finite) seconds; fractional values are truncated
    /// to whole nanoseconds.
    pub fn from_secs_f64(s: f64) -> Duration {
        debug_assert!(s.is_finite() && s >= 0.0, "durations are non-negative");
        Duration((s.max(0.0) * 1e9) as u64)
    }

    /// Nanoseconds.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds as f64.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds as f64.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Scale by a non-negative factor (used for RTO backoff and RTT math).
    pub fn mul_f64(self, factor: f64) -> Duration {
        debug_assert!(factor.is_finite() && factor >= 0.0);
        Duration((self.0 as f64 * factor.max(0.0)) as u64)
    }

    /// Component-wise max.
    pub fn max(self, other: Duration) -> Duration {
        Duration(self.0.max(other.0))
    }

    /// Component-wise min.
    pub fn min(self, other: Duration) -> Duration {
        Duration(self.0.min(other.0))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Duration) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, d: Duration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, d: Duration) {
        self.0 += d.0;
    }
}

impl Sub<Duration> for SimTime {
    type Output = SimTime;
    fn sub(self, d: Duration) -> SimTime {
        debug_assert!(self.0 >= d.0, "instant before simulation start");
        SimTime(self.0.saturating_sub(d.0))
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, other: Duration) -> Duration {
        Duration(self.0 + other.0)
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, other: Duration) -> Duration {
        debug_assert!(self.0 >= other.0, "duration subtraction underflow");
        Duration(self.0.saturating_sub(other.0))
    }
}

/// Time to serialize `bytes` onto a link of `rate_bps` bits per second.
pub fn serialization_time(bytes: u32, rate_bps: f64) -> Duration {
    debug_assert!(rate_bps > 0.0, "link rate must be positive");
    Duration::from_secs_f64(bytes as f64 * 8.0 / rate_bps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_round_trip() {
        let t = SimTime::ZERO + Duration::from_millis(5);
        assert_eq!(t.as_nanos(), 5_000_000);
        assert_eq!(t.since(SimTime::ZERO), Duration::from_millis(5));
        assert_eq!(t.as_secs_f64(), 0.005);
        assert_eq!(
            t - Duration::from_millis(2),
            SimTime::ZERO + Duration::from_millis(3)
        );
    }

    #[test]
    fn since_saturates() {
        let early = SimTime::ZERO + Duration::from_millis(1);
        let late = SimTime::ZERO + Duration::from_millis(9);
        assert_eq!(early.since(late), Duration::ZERO);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(Duration::from_millis(1), Duration::from_micros(1000));
        assert_eq!(Duration::from_micros(1), Duration::from_nanos(1000));
        assert_eq!(Duration::from_secs_f64(0.001), Duration::from_millis(1));
    }

    #[test]
    fn mul_and_minmax() {
        let d = Duration::from_millis(10);
        assert_eq!(d.mul_f64(2.5), Duration::from_millis(25));
        assert_eq!(d.max(Duration::from_millis(3)), d);
        assert_eq!(d.min(Duration::from_millis(3)), Duration::from_millis(3));
        assert_eq!(Duration::from_millis(3).saturating_sub(d), Duration::ZERO);
    }

    #[test]
    fn serialization_time_examples() {
        // 1500 bytes at 12 Mbps = 1 ms.
        assert_eq!(serialization_time(1500, 12e6), Duration::from_millis(1));
        // 1500 bytes at 120 Mbps = 100 µs.
        assert_eq!(serialization_time(1500, 120e6), Duration::from_micros(100));
    }

    #[test]
    fn ordering_is_sane() {
        let a = SimTime::ZERO + Duration::from_nanos(1);
        let b = SimTime::ZERO + Duration::from_nanos(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
    }
}
