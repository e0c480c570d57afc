//! Simulation clock types.
//!
//! The paper measures everything in seconds (connection lifetimes, sojourn
//! times, the estimation window `T_est`) but its mobility-estimation windows
//! are periodic in *days* and *weeks* (Section 3.1, Eq. 2). [`SimTime`] and
//! [`Duration`] are thin wrappers over `f64` seconds that add:
//!
//! * a **total order** (construction rejects NaN, so comparison is safe to
//!   use for ordering, and the event queue's integer time keys follow it),
//! * unit helpers for the paper's time scales (seconds, minutes, hours,
//!   days, km/h-derived crossing times), and
//! * day-periodic arithmetic used by the hand-off estimation windows.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Seconds in one minute.
pub const SECS_PER_MINUTE: f64 = 60.0;
/// Seconds in one hour.
pub const SECS_PER_HOUR: f64 = 3_600.0;
/// Seconds in one day (`T_day` in the paper).
pub const SECS_PER_DAY: f64 = 86_400.0;
/// Seconds in one week (`T_week` in the paper).
pub const SECS_PER_WEEK: f64 = 7.0 * SECS_PER_DAY;

/// A point on the simulation clock, in seconds since the start of the run.
///
/// `SimTime` is totally ordered; constructing one from NaN panics, which
/// keeps ordering-based containers (the event queue) sound. Negative times
/// are permitted — the periodic-window arithmetic of Eq. 2 subtracts
/// multiples of `T_day` and may legitimately produce negative instants.
#[derive(Clone, Copy, PartialEq)]
pub struct SimTime(f64);

impl SimTime {
    /// The origin of the simulation clock.
    pub const ZERO: SimTime = SimTime(0.0);
    /// A time later than any event horizon used in practice.
    pub const FAR_FUTURE: SimTime = SimTime(f64::MAX);

    /// Creates a time from seconds. Panics on NaN.
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        assert!(!secs.is_nan(), "SimTime cannot be NaN");
        SimTime(secs)
    }

    /// Creates a time from hours.
    #[inline]
    pub fn from_hours(hours: f64) -> Self {
        Self::from_secs(hours * SECS_PER_HOUR)
    }

    /// Creates a time from days.
    #[inline]
    pub fn from_days(days: f64) -> Self {
        Self::from_secs(days * SECS_PER_DAY)
    }

    /// The raw value in seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// The value in hours (used by diurnal workload schedules).
    #[inline]
    pub fn as_hours(self) -> f64 {
        self.0 / SECS_PER_HOUR
    }

    /// The value in days.
    #[inline]
    pub fn as_days(self) -> f64 {
        self.0 / SECS_PER_DAY
    }

    /// Time-of-day in `[0, 24)` hours, assuming the run starts at midnight.
    ///
    /// The paper's time-varying scenario (Fig. 14) expresses its workload
    /// schedule as a function of the hour of day over a two-day run.
    #[inline]
    pub fn hour_of_day(self) -> f64 {
        let h = self.as_hours() % 24.0;
        if h < 0.0 {
            h + 24.0
        } else {
            h
        }
    }

    /// Index of the day this instant falls in (0-based; negative times map
    /// to negative day indices).
    #[inline]
    pub fn day_index(self) -> i64 {
        self.as_days().floor() as i64
    }

    /// The larger of two times.
    #[inline]
    pub fn max(self, other: Self) -> Self {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The smaller of two times.
    #[inline]
    pub fn min(self, other: Self) -> Self {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Eq for SimTime {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // NaN is rejected at construction, so partial_cmp always succeeds.
        self.0
            .partial_cmp(&other.0)
            .expect("SimTime is NaN-free by construction")
    }
}

impl PartialOrd for SimTime {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}s", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(prec) = f.precision() {
            write!(f, "{:.*}s", prec, self.0)
        } else {
            write!(f, "{}s", self.0)
        }
    }
}

/// A span of simulation time, in seconds. May be negative (a directed span).
#[derive(Clone, Copy, PartialEq)]
pub struct Duration(f64);

impl Duration {
    /// The zero-length span.
    pub const ZERO: Duration = Duration(0.0);
    /// One simulated day (`T_day`).
    pub const DAY: Duration = Duration(SECS_PER_DAY);
    /// One simulated week (`T_week`).
    pub const WEEK: Duration = Duration(SECS_PER_WEEK);
    /// A span longer than any horizon used in practice; stands in for the
    /// paper's `T_int = ∞` stationary-case estimation interval.
    pub const INFINITE: Duration = Duration(f64::INFINITY);

    /// Creates a span from seconds. Panics on NaN.
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        assert!(!secs.is_nan(), "Duration cannot be NaN");
        Duration(secs)
    }

    /// Creates a span from hours.
    #[inline]
    pub fn from_hours(hours: f64) -> Self {
        Self::from_secs(hours * SECS_PER_HOUR)
    }

    /// Creates a span from days.
    #[inline]
    pub fn from_days(days: f64) -> Self {
        Self::from_secs(days * SECS_PER_DAY)
    }

    /// The raw value in seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// The value in hours.
    #[inline]
    pub fn as_hours(self) -> f64 {
        self.0 / SECS_PER_HOUR
    }

    /// True if this span is infinite (the `T_int = ∞` stationary mode).
    #[inline]
    pub fn is_infinite(self) -> bool {
        self.0.is_infinite()
    }

    /// True for spans of strictly positive length.
    #[inline]
    pub fn is_positive(self) -> bool {
        self.0 > 0.0
    }

    /// The larger of two spans.
    #[inline]
    pub fn max(self, other: Self) -> Self {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The smaller of two spans.
    #[inline]
    pub fn min(self, other: Self) -> Self {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Eq for Duration {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for Duration {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("Duration is NaN-free by construction")
    }
}

impl PartialOrd for Duration {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}s", self.0)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(prec) = f.precision() {
            write!(f, "{:.*}s", prec, self.0)
        } else {
            write!(f, "{}s", self.0)
        }
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: Duration) -> SimTime {
        SimTime::from_secs(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<Duration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: Duration) -> SimTime {
        SimTime::from_secs(self.0 - rhs.0)
    }
}

impl SubAssign<Duration> for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: SimTime) -> Duration {
        Duration::from_secs(self.0 - rhs.0)
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration::from_secs(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        Duration::from_secs(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    #[inline]
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Duration {
    type Output = Duration;
    #[inline]
    fn mul(self, rhs: f64) -> Duration {
        Duration::from_secs(self.0 * rhs)
    }
}

impl Div<f64> for Duration {
    type Output = Duration;
    #[inline]
    fn div(self, rhs: f64) -> Duration {
        Duration::from_secs(self.0 / rhs)
    }
}

impl Div for Duration {
    type Output = f64;
    #[inline]
    fn div(self, rhs: Duration) -> f64 {
        self.0 / rhs.0
    }
}

impl Neg for Duration {
    type Output = Duration;
    #[inline]
    fn neg(self) -> Duration {
        Duration::from_secs(-self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(b.cmp(&b), Ordering::Equal);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_time_rejected() {
        let _ = SimTime::from_secs(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_duration_rejected() {
        let _ = Duration::from_secs(f64::NAN);
    }

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::from_secs(10.0);
        let d = Duration::from_secs(3.5);
        assert_eq!(t + d - d, t);
        assert_eq!((t + d) - t, d);
        assert_eq!(d * 2.0, Duration::from_secs(7.0));
        assert_eq!(d / 2.0, Duration::from_secs(1.75));
        assert!((Duration::from_secs(7.0) / d - 2.0).abs() < 1e-12);
    }

    #[test]
    fn unit_helpers() {
        assert_eq!(SimTime::from_hours(2.0).as_secs(), 7_200.0);
        assert_eq!(SimTime::from_days(1.0).as_secs(), SECS_PER_DAY);
        assert_eq!(Duration::DAY.as_secs(), SECS_PER_DAY);
        assert_eq!(Duration::WEEK.as_secs(), SECS_PER_WEEK);
        assert!((Duration::from_hours(1.5).as_hours() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn hour_of_day_wraps() {
        assert_eq!(SimTime::from_hours(0.0).hour_of_day(), 0.0);
        assert!((SimTime::from_hours(25.5).hour_of_day() - 1.5).abs() < 1e-9);
        assert!((SimTime::from_hours(48.0).hour_of_day()).abs() < 1e-9);
        // Negative instants still map into [0, 24).
        let h = SimTime::from_hours(-1.0).hour_of_day();
        assert!((h - 23.0).abs() < 1e-9);
    }

    #[test]
    fn day_index() {
        assert_eq!(SimTime::from_hours(2.0).day_index(), 0);
        assert_eq!(SimTime::from_hours(26.0).day_index(), 1);
        assert_eq!(SimTime::from_hours(-2.0).day_index(), -1);
    }

    #[test]
    fn infinite_duration() {
        assert!(Duration::INFINITE.is_infinite());
        assert!(!Duration::from_secs(1.0).is_infinite());
        assert!(Duration::from_secs(1.0).is_positive());
        assert!(!Duration::ZERO.is_positive());
        assert!(!(-Duration::from_secs(1.0)).is_positive());
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimTime::from_secs(1.25)), "1.25s");
        assert_eq!(format!("{:.1}", SimTime::from_secs(1.25)), "1.2s");
        assert_eq!(format!("{}", Duration::from_secs(3.0)), "3s");
        assert_eq!(format!("{:?}", SimTime::from_secs(2.0)), "2s");
    }

    #[test]
    fn negative_times_allowed() {
        // Eq. 2 shifts event times by -n*T_day; negative instants must work.
        let t = SimTime::from_secs(100.0) - Duration::DAY;
        assert!(t < SimTime::ZERO);
        assert_eq!(t.as_secs(), 100.0 - SECS_PER_DAY);
    }
}
