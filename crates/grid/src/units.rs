//! Typed physical and economic quantities.
//!
//! Newtypes keep kilowatts, kilowatt-hours, money and fractions statically
//! distinct (C-NEWTYPE): a cut-down [`Fraction`] can never be added to an
//! energy amount by accident, and prices only multiply with energy.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(pub f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: $name = $name(0.0);

            /// Returns the raw value.
            pub fn value(self) -> f64 {
                self.0
            }

            /// Returns the absolute value.
            pub fn abs(self) -> $name {
                $name(self.0.abs())
            }

            /// Returns the larger of `self` and `other`.
            pub fn max(self, other: $name) -> $name {
                $name(self.0.max(other.0))
            }

            /// Returns the smaller of `self` and `other`.
            pub fn min(self, other: $name) -> $name {
                $name(self.0.min(other.0))
            }

            /// Clamps negative values to zero.
            pub fn clamp_non_negative(self) -> $name {
                $name(self.0.max(0.0))
            }

            /// True if the value is finite (not NaN or infinite).
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:.3} {}", self.0, $unit)
            }
        }

        impl Add for $name {
            type Output = $name;
            fn add(self, rhs: $name) -> $name {
                $name(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: $name) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = $name;
            fn sub(self, rhs: $name) -> $name {
                $name(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: $name) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = $name;
            fn neg(self) -> $name {
                $name(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = $name;
            fn mul(self, rhs: f64) -> $name {
                $name(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = $name;
            fn div(self, rhs: f64) -> $name {
                $name(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Dividing two like quantities yields a dimensionless ratio.
            type Output = f64;
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                // Fold from +0.0: `f64::sum` of an empty iterator is
                // -0.0, which leaks a spurious minus sign into reports.
                $name(iter.map(|q| q.0).fold(0.0, |a, b| a + b))
            }
        }
    };
}

quantity!(
    /// Electrical energy in kilowatt-hours.
    KilowattHours,
    "kWh"
);

quantity!(
    /// Electrical power in kilowatts.
    Kilowatts,
    "kW"
);

quantity!(
    /// An amount of money, in abstract currency units (the paper's rewards
    /// are unit-less numbers such as `17` and `24.8`).
    Money,
    "cr"
);

quantity!(
    /// A price per kilowatt-hour.
    PricePerKwh,
    "cr/kWh"
);

quantity!(
    /// A temperature in degrees Celsius.
    Celsius,
    "°C"
);

impl Kilowatts {
    /// Energy delivered by this power over `hours` hours.
    pub fn for_hours(self, hours: f64) -> KilowattHours {
        KilowattHours(self.0 * hours)
    }
}

impl Mul<KilowattHours> for PricePerKwh {
    type Output = Money;
    fn mul(self, rhs: KilowattHours) -> Money {
        Money(self.0 * rhs.0)
    }
}

impl Mul<PricePerKwh> for KilowattHours {
    type Output = Money;
    fn mul(self, rhs: PricePerKwh) -> Money {
        Money(self.0 * rhs.0)
    }
}

/// A dimensionless fraction guaranteed to lie in `[0, 1]`.
///
/// Cut-down values of the paper's reward tables ("0, 0.1, 0.2, ...") are
/// fractions of a customer's allowed use.
///
/// # Example
///
/// ```
/// use powergrid::units::Fraction;
///
/// let f = Fraction::new(0.4).unwrap();
/// assert_eq!(f.complement().value(), 0.6);
/// assert!(Fraction::new(1.2).is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Fraction(f64);

/// Error returned when constructing a [`Fraction`] outside `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FractionRangeError {
    /// The offending raw value.
    pub value: f64,
}

impl fmt::Display for FractionRangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fraction {} outside [0, 1]", self.value)
    }
}

impl std::error::Error for FractionRangeError {}

// `value` is always finite here because the constructors reject NaN, so the
// manual Eq below is sound for the error type's use in tests and matching.
impl Eq for Fraction {}

impl Ord for Fraction {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Invariant: 0 <= value <= 1 and finite, so total order exists.
        self.0.total_cmp(&other.0)
    }
}

impl PartialOrd for Fraction {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl std::hash::Hash for Fraction {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}

impl Fraction {
    /// The fraction `0`.
    pub const ZERO: Fraction = Fraction(0.0);
    /// The fraction `1`.
    pub const ONE: Fraction = Fraction(1.0);

    /// Creates a fraction, rejecting values outside `[0, 1]` or NaN.
    ///
    /// # Errors
    ///
    /// Returns [`FractionRangeError`] if `value` is NaN or outside `[0, 1]`.
    pub fn new(value: f64) -> Result<Fraction, FractionRangeError> {
        if value.is_nan() || !(0.0..=1.0).contains(&value) {
            Err(FractionRangeError { value })
        } else {
            Ok(Fraction(value))
        }
    }

    /// Creates a fraction, clamping into `[0, 1]` (NaN becomes `0`).
    pub fn clamped(value: f64) -> Fraction {
        if value.is_nan() {
            Fraction(0.0)
        } else {
            Fraction(value.clamp(0.0, 1.0))
        }
    }

    /// The raw value in `[0, 1]`.
    pub fn value(self) -> f64 {
        self.0
    }

    /// `1 - self`.
    pub fn complement(self) -> Fraction {
        Fraction(1.0 - self.0)
    }

    /// Saturating addition within `[0, 1]`.
    pub fn saturating_add(self, other: Fraction) -> Fraction {
        Fraction::clamped(self.0 + other.0)
    }
}

impl fmt::Display for Fraction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}", self.0)
    }
}

impl Mul<KilowattHours> for Fraction {
    type Output = KilowattHours;
    fn mul(self, rhs: KilowattHours) -> KilowattHours {
        KilowattHours(self.0 * rhs.0)
    }
}

impl Mul<Kilowatts> for Fraction {
    type Output = Kilowatts;
    fn mul(self, rhs: Kilowatts) -> Kilowatts {
        Kilowatts(self.0 * rhs.0)
    }
}

impl Mul<Money> for Fraction {
    type Output = Money;
    fn mul(self, rhs: Money) -> Money {
        Money(self.0 * rhs.0)
    }
}

impl TryFrom<f64> for Fraction {
    type Error = FractionRangeError;
    fn try_from(value: f64) -> Result<Self, Self::Error> {
        Fraction::new(value)
    }
}

impl From<Fraction> for f64 {
    fn from(f: Fraction) -> f64 {
        f.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_arithmetic() {
        let a = KilowattHours(2.0);
        let b = KilowattHours(3.5);
        assert_eq!((a + b).value(), 5.5);
        assert_eq!((b - a).value(), 1.5);
        assert_eq!((a * 2.0).value(), 4.0);
        assert_eq!((2.0 * a).value(), 4.0);
        assert_eq!((b / 2.0).value(), 1.75);
        assert_eq!(b / a, 1.75);
    }

    #[test]
    fn energy_sum_and_ordering() {
        let total: KilowattHours = [1.0, 2.0, 3.0].iter().map(|&v| KilowattHours(v)).sum();
        assert_eq!(total.value(), 6.0);
        assert!(KilowattHours(1.0) < KilowattHours(2.0));
        assert_eq!(
            KilowattHours(-3.0).clamp_non_negative(),
            KilowattHours::ZERO
        );
    }

    #[test]
    fn power_energy_conversion() {
        let p = Kilowatts(4.0);
        assert_eq!(p.for_hours(0.25).value(), 1.0);
    }

    #[test]
    fn price_times_energy_is_money() {
        let cost = PricePerKwh(0.5) * KilowattHours(10.0);
        assert_eq!(cost, Money(5.0));
        let cost2 = KilowattHours(10.0) * PricePerKwh(0.5);
        assert_eq!(cost2, Money(5.0));
    }

    #[test]
    fn fraction_validation() {
        assert!(Fraction::new(0.0).is_ok());
        assert!(Fraction::new(1.0).is_ok());
        assert!(Fraction::new(-0.01).is_err());
        assert!(Fraction::new(1.01).is_err());
        assert!(Fraction::new(f64::NAN).is_err());
        let err = Fraction::new(2.0).unwrap_err();
        assert!(err.to_string().contains("outside"));
    }

    #[test]
    fn fraction_clamping() {
        assert_eq!(Fraction::clamped(-5.0), Fraction::ZERO);
        assert_eq!(Fraction::clamped(5.0), Fraction::ONE);
        assert_eq!(Fraction::clamped(f64::NAN), Fraction::ZERO);
        assert_eq!(Fraction::clamped(0.3).value(), 0.3);
    }

    #[test]
    fn fraction_operations() {
        let f = Fraction::new(0.4).unwrap();
        assert!((f.complement().value() - 0.6).abs() < 1e-12);
        assert_eq!(f.saturating_add(Fraction::new(0.9).unwrap()), Fraction::ONE);
        assert_eq!(f * KilowattHours(10.0), KilowattHours(4.0));
    }

    #[test]
    fn fraction_ordering_and_conversion() {
        let lo = Fraction::new(0.1).unwrap();
        let hi = Fraction::new(0.9).unwrap();
        assert!(lo < hi);
        assert_eq!(lo.max(hi), hi);
        let f: Fraction = 0.25f64.try_into().unwrap();
        assert_eq!(f64::from(f), 0.25);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", KilowattHours(1.5)), "1.500 kWh");
        assert_eq!(format!("{}", Kilowatts(2.0)), "2.000 kW");
        assert_eq!(format!("{}", Money(24.8)), "24.800 cr");
        assert_eq!(format!("{}", Fraction::clamped(0.4)), "0.40");
        assert_eq!(format!("{}", Celsius(-5.0)), "-5.000 °C");
    }

    #[test]
    fn neg_and_abs() {
        assert_eq!((-Money(3.0)).value(), -3.0);
        assert_eq!(Money(-3.0).abs(), Money(3.0));
    }

    #[test]
    fn money_ordering() {
        let mut v = vec![Money(3.0), Money(1.0), Money(2.0)];
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(v, vec![Money(1.0), Money(2.0), Money(3.0)]);
    }
}
