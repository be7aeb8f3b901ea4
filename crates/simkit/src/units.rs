//! Strongly-typed physical units used throughout the toolkit.
//!
//! The simulation layers deal in four physical quantities: time (seconds),
//! energy (joules), power (watts) and data volume (megabytes, with rates in
//! megabytes per second). Wrapping them in newtypes keeps the arithmetic honest
//! (`Watts × Seconds = Joules`, `Megabytes ÷ MegabytesPerSec = Seconds`) while
//! still being cheap `f64` wrappers.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

macro_rules! unit {
    ($(#[$doc:meta])* $name:ident, $suffix:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Default)]
        pub struct $name(pub f64);

        impl PartialOrd for $name {
            #[expect(
                clippy::disallowed_methods,
                reason = "a unit orders exactly like its f64, NaN included; sorts use total_cmp on the value"
            )]
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                self.0.partial_cmp(&other.0)
            }
        }

        impl $name {
            /// Construct from a raw `f64` value.
            pub const fn new(v: f64) -> Self {
                Self(v)
            }

            /// The raw `f64` value.
            pub const fn value(self) -> f64 {
                self.0
            }

            /// The zero value of this unit.
            pub const fn zero() -> Self {
                Self(0.0)
            }

            /// Whether the value is finite (not NaN or infinite).
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Element-wise maximum.
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Element-wise minimum.
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div for $name {
            type Output = f64;
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                // Fold from +0.0: std's `Sum<f64>` starts at -0.0, which
                // leaks a "-0" into reports for empty sums (e.g. the network
                // bytes of a fully local transfer).
                Self(iter.map(|v| v.0).fold(0.0, |acc, v| acc + v))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $suffix)
                } else {
                    write!(f, "{:.3} {}", self.0, $suffix)
                }
            }
        }
    };
}

unit!(
    /// A duration in seconds.
    Seconds,
    "s"
);
unit!(
    /// An amount of energy in joules.
    Joules,
    "J"
);
unit!(
    /// An amount of power in watts.
    Watts,
    "W"
);
unit!(
    /// A data volume in megabytes (10^6 bytes).
    Megabytes,
    "MB"
);
unit!(
    /// A data rate in megabytes per second.
    MegabytesPerSec,
    "MB/s"
);

impl Mul<Seconds> for Watts {
    type Output = Joules;
    fn mul(self, rhs: Seconds) -> Joules {
        Joules(self.0 * rhs.0)
    }
}

impl Mul<Watts> for Seconds {
    type Output = Joules;
    fn mul(self, rhs: Watts) -> Joules {
        Joules(self.0 * rhs.0)
    }
}

impl Div<Seconds> for Joules {
    type Output = Watts;
    fn div(self, rhs: Seconds) -> Watts {
        Watts(self.0 / rhs.0)
    }
}

impl Div<Watts> for Joules {
    type Output = Seconds;
    fn div(self, rhs: Watts) -> Seconds {
        Seconds(self.0 / rhs.0)
    }
}

impl Div<MegabytesPerSec> for Megabytes {
    type Output = Seconds;
    fn div(self, rhs: MegabytesPerSec) -> Seconds {
        Seconds(self.0 / rhs.0)
    }
}

impl Div<Seconds> for Megabytes {
    type Output = MegabytesPerSec;
    fn div(self, rhs: Seconds) -> MegabytesPerSec {
        MegabytesPerSec(self.0 / rhs.0)
    }
}

impl Mul<Seconds> for MegabytesPerSec {
    type Output = Megabytes;
    fn mul(self, rhs: Seconds) -> Megabytes {
        Megabytes(self.0 * rhs.0)
    }
}

impl Joules {
    /// Convert to kilojoules.
    pub fn as_kilojoules(self) -> f64 {
        self.0 / 1_000.0
    }
}

impl Megabytes {
    /// Construct from gigabytes.
    pub fn from_gigabytes(gb: f64) -> Self {
        Megabytes(gb * 1_000.0)
    }

    /// Construct from raw bytes.
    pub fn from_bytes(bytes: u64) -> Self {
        Megabytes(bytes as f64 / 1.0e6)
    }

    /// Value in gigabytes.
    pub fn as_gigabytes(self) -> f64 {
        self.0 / 1_000.0
    }
}

impl MegabytesPerSec {
    /// Convert a link speed in gigabits per second to megabytes per second
    /// (decimal units: 1 Gb/s = 125 MB/s).
    pub fn from_gigabits_per_sec(gbps: f64) -> Self {
        MegabytesPerSec(gbps * 125.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_times_time_is_energy() {
        let e = Watts(100.0) * Seconds(10.0);
        assert_eq!(e, Joules(1000.0));
        let e = Seconds(10.0) * Watts(100.0);
        assert_eq!(e, Joules(1000.0));
    }

    #[test]
    fn energy_over_time_is_power() {
        assert_eq!(Joules(1000.0) / Seconds(10.0), Watts(100.0));
        assert_eq!(Joules(1000.0) / Watts(100.0), Seconds(10.0));
    }

    #[test]
    fn volume_over_rate_is_time() {
        assert_eq!(Megabytes(500.0) / MegabytesPerSec(100.0), Seconds(5.0));
        assert_eq!(Megabytes(500.0) / Seconds(5.0), MegabytesPerSec(100.0));
        assert_eq!(MegabytesPerSec(100.0) * Seconds(5.0), Megabytes(500.0));
    }

    #[test]
    fn unit_arithmetic_and_sum() {
        let total: Joules = [Joules(1.0), Joules(2.0), Joules(3.0)].into_iter().sum();
        assert_eq!(total, Joules(6.0));
        let empty: Joules = std::iter::empty().sum();
        assert!(empty.value().is_sign_positive(), "empty sum must be +0.0");
        assert_eq!(Seconds(3.0) + Seconds(2.0), Seconds(5.0));
        assert_eq!(Seconds(3.0) - Seconds(2.0), Seconds(1.0));
        assert_eq!(Seconds(3.0) * 2.0, Seconds(6.0));
        assert_eq!(Seconds(3.0) / 2.0, Seconds(1.5));
        assert!((Seconds(3.0) / Seconds(2.0) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn conversions() {
        assert_eq!(Megabytes::from_gigabytes(1.5), Megabytes(1500.0));
        assert_eq!(Megabytes::from_bytes(2_000_000), Megabytes(2.0));
        assert!((Megabytes(1500.0).as_gigabytes() - 1.5).abs() < 1e-12);
        assert_eq!(
            MegabytesPerSec::from_gigabits_per_sec(1.0),
            MegabytesPerSec(125.0)
        );
        assert!((Joules(2500.0).as_kilojoules() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn display_uses_suffix() {
        assert_eq!(format!("{}", Watts(12.5)), "12.500 W");
        assert_eq!(format!("{:.1}", Joules(1.25)), "1.2 J");
        assert_eq!(format!("{}", Megabytes(1.0)), "1.000 MB");
    }

    #[test]
    fn min_max_helpers() {
        assert_eq!(Seconds(1.0).max(Seconds(2.0)), Seconds(2.0));
        assert_eq!(Seconds(1.0).min(Seconds(2.0)), Seconds(1.0));
        assert!(Seconds(1.0).is_finite());
        assert!(!Seconds(f64::NAN).is_finite());
    }
}
