//! Simulation clock types.
//!
//! All simulator time is kept in integer nanoseconds to make event ordering
//! exact and runs bit-for-bit reproducible. Durations derived from
//! floating-point cost models are rounded up so that a nonzero amount of work
//! always takes a nonzero amount of simulated time.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the simulation clock, in nanoseconds since simulation start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Nanoseconds since the simulation epoch.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the simulation epoch.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a duration from whole nanoseconds.
    #[inline]
    pub fn from_nanos(ns: u64) -> SimDuration {
        SimDuration(ns)
    }

    /// Builds a duration from whole microseconds.
    #[inline]
    pub fn from_micros(us: u64) -> SimDuration {
        SimDuration(us.saturating_mul(1_000))
    }

    /// Builds a duration from whole milliseconds.
    #[inline]
    pub fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms.saturating_mul(1_000_000))
    }

    /// Builds a duration from fractional seconds, rounding up to the next
    /// nanosecond so nonzero work never becomes a zero-length duration.
    pub fn from_secs_f64(secs: f64) -> SimDuration {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration must be finite and non-negative, got {secs}"
        );
        SimDuration((secs * 1e9).ceil() as u64)
    }

    /// Nanoseconds in this duration.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds in this duration.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::ZERO + SimDuration::from_millis(3);
        assert_eq!(t.as_nanos(), 3_000_000);
        assert_eq!(t - SimTime::ZERO, SimDuration::from_millis(3));
    }

    #[test]
    fn from_secs_rounds_up() {
        // 1.5 ns of work must not vanish to zero.
        let d = SimDuration::from_secs_f64(1.5e-9);
        assert_eq!(d.as_nanos(), 2);
        assert_eq!(SimDuration::from_secs_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    fn conversions_are_consistent() {
        assert_eq!(SimDuration::from_micros(1).as_nanos(), 1_000);
        assert_eq!(SimDuration::from_millis(1).as_nanos(), 1_000_000);
        let d = SimDuration::from_secs_f64(2.5);
        assert!((d.as_secs_f64() - 2.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_duration_panics() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn ordering_is_by_nanos() {
        assert!(SimTime(1) < SimTime(2));
        assert!(SimDuration(5) > SimDuration(4));
        let mut t = SimTime(1);
        t += SimDuration(9);
        assert_eq!(t, SimTime(10));
    }
}
