//! Simulated time: integer-nanosecond instants and durations.
//!
//! All experiment results in this reproduction are *simulated* times produced
//! by the cost model, so they are deterministic across machines and runs.
//! Plain `u64` nanoseconds wrapped in newtypes keep the arithmetic explicit
//! and prevent mixing simulated time with wall-clock time. Sums and
//! products saturate at `u64::MAX` ns: a charge too large for the clock
//! (a fault plan's huge slowdown factor, say) stops it at its end instead
//! of wrapping it back towards zero.

use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Build from fractional seconds (saturating at zero for negatives).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s.max(0.0) * 1e9).round() as u64)
    }

    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// Ratio of two durations as `f64`; `NaN`-free (0/0 → 0).
    pub fn ratio(self, denom: SimDuration) -> f64 {
        if denom.0 == 0 {
            if self.0 == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.0 as f64 / denom.0 as f64
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration((self.0 as f64 * rhs).round() as u64)
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
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl std::fmt::Display for SimDuration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.as_secs_f64();
        if s >= 1.0 {
            write!(f, "{s:.2} s")
        } else if s >= 1e-3 {
            write!(f, "{:.2} ms", s * 1e3)
        } else if s >= 1e-6 {
            write!(f, "{:.2} us", s * 1e6)
        } else {
            write!(f, "{} ns", self.0)
        }
    }
}

/// A point on the simulated timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimInstant(u64);

impl SimInstant {
    pub const EPOCH: SimInstant = SimInstant(0);

    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }
}

impl Add<SimDuration> for SimInstant {
    type Output = SimInstant;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimInstant {
        SimInstant(self.0.saturating_add(rhs.as_nanos()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimDuration::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimDuration::from_millis(2).as_nanos(), 2_000_000);
        let d = SimDuration::from_secs_f64(1.5);
        assert_eq!(d.as_nanos(), 1_500_000_000);
        assert!((d.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let a = SimDuration::from_nanos(100);
        let b = SimDuration::from_nanos(40);
        assert_eq!((a + b).as_nanos(), 140);
        assert_eq!((a - b).as_nanos(), 60);
        assert_eq!((a * 3).as_nanos(), 300);
        assert_eq!((a / 2).as_nanos(), 50);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
    }

    #[test]
    fn ratio_handles_zero() {
        let z = SimDuration::ZERO;
        let a = SimDuration::from_nanos(10);
        assert_eq!(z.ratio(z), 0.0);
        assert_eq!(a.ratio(z), f64::INFINITY);
        assert!((a.ratio(SimDuration::from_nanos(5)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn instants_advance() {
        let t0 = SimInstant::EPOCH;
        let t1 = t0 + SimDuration::from_nanos(7);
        assert_eq!(t1.as_nanos(), 7);
        assert!(t0 < t1);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimDuration::from_nanos(5)), "5 ns");
        assert_eq!(format!("{}", SimDuration::from_micros(5)), "5.00 us");
        assert_eq!(format!("{}", SimDuration::from_millis(5)), "5.00 ms");
        assert_eq!(format!("{}", SimDuration::from_secs_f64(5.0)), "5.00 s");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_nanos).sum();
        assert_eq!(total.as_nanos(), 10);
    }

    #[test]
    fn sums_and_products_stop_at_the_end_of_the_clock() {
        let end = SimDuration::from_nanos(u64::MAX);
        let big = SimDuration::from_nanos(u64::MAX / 2 + 1);
        assert_eq!(big + big, end);
        let mut acc = big;
        acc += big;
        assert_eq!(acc, end);
        assert_eq!([big, big, big].into_iter().sum::<SimDuration>(), end);
        assert_eq!(big * 3, end);
        assert_eq!((SimInstant::EPOCH + end + big).as_nanos(), u64::MAX);
    }
}
