//! Virtual time types.
//!
//! Simulated time is measured in integer nanoseconds from the start of the
//! simulation. Using a fixed-point integer representation (rather than `f64`
//! seconds) keeps event ordering exact and the simulation fully
//! deterministic across platforms.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in virtual time, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Nanoseconds since simulation start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration elapsed since `earlier`. Saturates at zero if `earlier`
    /// is in the future.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from whole nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> SimDuration {
        SimDuration(ns)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> SimDuration {
        SimDuration(us * 1_000)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> SimDuration {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from fractional seconds. Negative or non-finite inputs
    /// clamp to zero; this keeps cost-model arithmetic total.
    #[inline]
    pub fn from_secs_f64(s: f64) -> SimDuration {
        if s.is_finite() && s > 0.0 {
            SimDuration((s * 1e9).round() as u64)
        } else {
            SimDuration(0)
        }
    }

    /// Whole nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Fractional milliseconds (for reporting only).
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The larger of two durations.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
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

/// Message of the panic raised when a subtraction would go below zero:
/// clamping would silently hide an ordering bug, in release builds as
/// well as debug ones. [`SimTime::since`] and
/// [`SimDuration::saturating_sub`] are the explicit clamps.
const NEGATIVE: &str = "negative virtual interval";

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect(NEGATIVE))
    }
}

/// Message of the panic raised when duration arithmetic would leave
/// `u64` nanoseconds: a total that wrapped would silently understate
/// time, in release builds as well as debug ones.
const OVERFLOW: &str = "virtual time overflow";

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect(OVERFLOW))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect(NEGATIVE))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect(OVERFLOW))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::ZERO + SimDuration::from_millis(5);
        assert_eq!(t.as_nanos(), 5_000_000);
        assert_eq!(t - SimTime::ZERO, SimDuration::from_millis(5));
        assert_eq!(t.since(SimTime(10_000_000)), SimDuration::ZERO);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(2), SimDuration::from_millis(2000));
        assert_eq!(SimDuration::from_millis(3), SimDuration::from_micros(3000));
        assert_eq!(SimDuration::from_micros(7), SimDuration::from_nanos(7000));
    }

    #[test]
    fn from_secs_f64_clamps_bad_input() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
    }

    #[test]
    fn saturating_ops() {
        let a = SimDuration::from_secs(1);
        let b = SimDuration::from_secs(2);
        assert_eq!(a.saturating_sub(b), SimDuration::ZERO);
        assert_eq!(b.saturating_sub(a), SimDuration::from_secs(1));
        assert_eq!(b - a, SimDuration::from_secs(1));
        let mut c = b;
        c -= a;
        assert_eq!(c, SimDuration::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "negative virtual interval")]
    fn duration_sub_panics_when_negative() {
        let _ = SimDuration::from_secs(1) - SimDuration::from_secs(2);
    }

    #[test]
    #[should_panic(expected = "negative virtual interval")]
    fn duration_sub_assign_panics_when_negative() {
        let mut d = SimDuration::from_secs(1);
        d -= SimDuration::from_secs(2);
    }

    #[test]
    #[should_panic(expected = "negative virtual interval")]
    fn time_sub_panics_when_negative() {
        let _ = SimTime(5) - SimTime(6);
    }

    #[test]
    fn display_picks_sensible_unit() {
        assert_eq!(format!("{}", SimDuration::from_nanos(17)), "17ns");
        assert_eq!(format!("{}", SimDuration::from_micros(17)), "17.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(17)), "17.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(17)), "17.000s");
    }

    #[test]
    fn sum_and_scalar_ops() {
        let total: SimDuration = [1u64, 2, 3]
            .iter()
            .map(|&s| SimDuration::from_secs(s))
            .sum();
        assert_eq!(total, SimDuration::from_secs(6));
        assert_eq!(total / 2, SimDuration::from_secs(3));
        assert_eq!(SimDuration::from_secs(2) * 3, SimDuration::from_secs(6));
    }

    const NEAR_MAX: SimDuration = SimDuration(u64::MAX - 1);

    #[test]
    #[should_panic(expected = "virtual time overflow")]
    fn add_panics_on_overflow() {
        let _ = NEAR_MAX + SimDuration(2);
    }

    #[test]
    #[should_panic(expected = "virtual time overflow")]
    fn add_assign_panics_on_overflow() {
        let mut d = NEAR_MAX;
        d += SimDuration(2);
    }

    #[test]
    #[should_panic(expected = "virtual time overflow")]
    fn mul_panics_on_overflow() {
        let _ = SimDuration::from_secs(1) * u64::MAX;
    }

    #[test]
    #[should_panic(expected = "virtual time overflow")]
    fn sum_panics_on_overflow() {
        let _: SimDuration = [NEAR_MAX, SimDuration(1), SimDuration(1)].into_iter().sum();
    }

    #[test]
    fn arithmetic_up_to_the_limit_is_exact() {
        assert_eq!(NEAR_MAX + SimDuration(1), SimDuration(u64::MAX));
        let total: SimDuration = [NEAR_MAX, SimDuration(1)].into_iter().sum();
        assert_eq!(total, SimDuration(u64::MAX));
        assert_eq!(SimDuration(u64::MAX / 2) * 2, SimDuration(u64::MAX - 1));
    }
}
