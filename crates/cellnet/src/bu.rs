//! Bandwidth units and media classes.
//!
//! The paper measures wireless link capacity in **BU** — "the required
//! bandwidth to support a voice connection" (Section 2). Simulation
//! assumption A3 gives two media classes: voice at 1 BU and video at 4 BUs.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A non-negative amount of wireless link bandwidth, in BUs.
///
/// Subtraction saturates at zero is *not* provided: under-flowing a
/// bandwidth budget is always an accounting bug, so `Sub` panics in debug
/// builds like integer underflow does; use [`Bandwidth::checked_sub`] where
/// failure is expected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bandwidth(u32);

impl Bandwidth {
    /// Zero bandwidth.
    pub const ZERO: Bandwidth = Bandwidth(0);

    /// Creates a bandwidth of `bus` BUs.
    pub const fn from_bus(bus: u32) -> Self {
        Bandwidth(bus)
    }

    /// The amount in BUs.
    pub const fn as_bus(self) -> u32 {
        self.0
    }

    /// The amount as `f64` (for fractional-reservation arithmetic).
    pub fn as_f64(self) -> f64 {
        f64::from(self.0)
    }

    /// Subtraction returning `None` on underflow.
    pub fn checked_sub(self, rhs: Bandwidth) -> Option<Bandwidth> {
        self.0.checked_sub(rhs.0).map(Bandwidth)
    }

    /// Subtraction clamping at zero.
    pub fn saturating_sub(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.saturating_sub(rhs.0))
    }

    /// True when zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The smaller of two bandwidths.
    pub fn min(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.min(other.0))
    }

    /// The larger of two bandwidths.
    pub fn max(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.max(other.0))
    }
}

impl Add for Bandwidth {
    type Output = Bandwidth;
    fn add(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0 + rhs.0)
    }
}

impl AddAssign for Bandwidth {
    fn add_assign(&mut self, rhs: Bandwidth) {
        self.0 += rhs.0;
    }
}

impl Sub for Bandwidth {
    type Output = Bandwidth;
    fn sub(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0 - rhs.0)
    }
}

impl SubAssign for Bandwidth {
    fn sub_assign(&mut self, rhs: Bandwidth) {
        self.0 -= rhs.0;
    }
}

impl Sum for Bandwidth {
    fn sum<I: Iterator<Item = Bandwidth>>(iter: I) -> Bandwidth {
        iter.fold(Bandwidth::ZERO, Add::add)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} BU", self.0)
    }
}

/// The media class of a connection (simulation assumption A3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MediaClass {
    /// A voice connection: 1 BU.
    Voice,
    /// A video connection: 4 BUs.
    Video,
}

impl MediaClass {
    /// The bandwidth this class requires.
    pub const fn bandwidth(self) -> Bandwidth {
        match self {
            MediaClass::Voice => Bandwidth::from_bus(1),
            MediaClass::Video => Bandwidth::from_bus(4),
        }
    }

    /// Short label for tables.
    pub const fn label(self) -> &'static str {
        match self {
            MediaClass::Voice => "voice",
            MediaClass::Video => "video",
        }
    }

    /// Mean bandwidth of a connection mix with voice ratio `r_vo`
    /// (`b̄ = r_vo·1 + (1 − r_vo)·4` BU) — the factor in the paper's
    /// offered-load definition, Eq. 7.
    pub fn mean_bandwidth(r_vo: f64) -> f64 {
        assert!((0.0..=1.0).contains(&r_vo), "voice ratio must be in [0,1]");
        r_vo * MediaClass::Voice.bandwidth().as_f64()
            + (1.0 - r_vo) * MediaClass::Video.bandwidth().as_f64()
    }
}

impl fmt::Display for MediaClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Bandwidth::from_bus(10);
        let b = Bandwidth::from_bus(4);
        assert_eq!(a + b, Bandwidth::from_bus(14));
        assert_eq!(a - b, Bandwidth::from_bus(6));
        assert_eq!(b.checked_sub(a), None);
        assert_eq!(a.checked_sub(b), Some(Bandwidth::from_bus(6)));
        assert_eq!(b.saturating_sub(a), Bandwidth::ZERO);
        let mut c = a;
        c += b;
        c -= Bandwidth::from_bus(2);
        assert_eq!(c.as_bus(), 12);
    }

    // Integer overflow checks are off in release builds.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic]
    fn underflow_panics() {
        let _ = Bandwidth::from_bus(1) - Bandwidth::from_bus(2);
    }

    #[test]
    fn sum_and_ordering() {
        let total: Bandwidth = [1u32, 4, 4].into_iter().map(Bandwidth::from_bus).sum();
        assert_eq!(total.as_bus(), 9);
        assert!(Bandwidth::from_bus(3) < Bandwidth::from_bus(4));
        assert_eq!(
            Bandwidth::from_bus(3).max(Bandwidth::from_bus(4)).as_bus(),
            4
        );
        assert_eq!(
            Bandwidth::from_bus(3).min(Bandwidth::from_bus(4)).as_bus(),
            3
        );
    }

    #[test]
    fn media_class_bandwidths_match_paper() {
        assert_eq!(MediaClass::Voice.bandwidth().as_bus(), 1);
        assert_eq!(MediaClass::Video.bandwidth().as_bus(), 4);
    }

    #[test]
    fn mean_bandwidth_matches_eq7_factor() {
        assert_eq!(MediaClass::mean_bandwidth(1.0), 1.0);
        assert_eq!(MediaClass::mean_bandwidth(0.0), 4.0);
        // R_vo = 0.5 -> 2.5 BU average.
        assert_eq!(MediaClass::mean_bandwidth(0.5), 2.5);
        // R_vo = 0.8 -> 0.8 + 0.8 = 1.6 BU average.
        assert!((MediaClass::mean_bandwidth(0.8) - 1.6).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "voice ratio")]
    fn bad_voice_ratio_rejected() {
        let _ = MediaClass::mean_bandwidth(1.5);
    }

    #[test]
    fn display() {
        assert_eq!(Bandwidth::from_bus(7).to_string(), "7 BU");
        assert_eq!(MediaClass::Video.to_string(), "video");
    }
}
