//! The lower/normal/higher price scheme of Section 3.2.
//!
//! All three announcement methods share a three-level price structure:
//! customers that cooperate pay the *lower* price for their reduced
//! consumption, the *higher* price for consumption beyond the agreed
//! amount, and non-participants pay the *normal* price. "Customer Agents
//! know the values for the lower, normal and higher prices."

use crate::units::{KilowattHours, Money, PricePerKwh};

/// Three-level electricity tariff.
///
/// # Example
///
/// ```
/// use powergrid::tariff::Tariff;
/// use powergrid::units::KilowattHours;
///
/// let t = Tariff::default_scheme();
/// // A customer that promised to stay within 8 kWh but used 10 pays the
/// // lower price for 8 and the higher price for the 2 kWh excess.
/// let bill = t.bill_with_limit(KilowattHours(10.0), KilowattHours(8.0));
/// let flat = t.bill_normal(KilowattHours(10.0));
/// assert!(bill.value() < flat.value()); // cooperation still paid off here
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tariff {
    lower: PricePerKwh,
    normal: PricePerKwh,
    higher: PricePerKwh,
}

impl Tariff {
    /// Creates a tariff.
    ///
    /// # Panics
    ///
    /// Panics unless `lower <= normal <= higher` and all are non-negative.
    pub fn new(lower: PricePerKwh, normal: PricePerKwh, higher: PricePerKwh) -> Tariff {
        assert!(lower.value() >= 0.0, "prices must be non-negative");
        assert!(
            lower <= normal && normal <= higher,
            "tariff must satisfy lower ≤ normal ≤ higher, got {lower} / {normal} / {higher}"
        );
        Tariff {
            lower,
            normal,
            higher,
        }
    }

    /// The default scheme used in the experiments (0.6 / 1.0 / 1.8).
    pub fn default_scheme() -> Tariff {
        Tariff::new(PricePerKwh(0.6), PricePerKwh(1.0), PricePerKwh(1.8))
    }

    /// Lower (reward) price.
    pub fn lower(&self) -> PricePerKwh {
        self.lower
    }

    /// Normal price.
    pub fn normal(&self) -> PricePerKwh {
        self.normal
    }

    /// Higher (penalty) price.
    pub fn higher(&self) -> PricePerKwh {
        self.higher
    }

    /// Bill at the normal price (non-participants; "if they say 'no', they
    /// pay the normal electricity price in the peak period").
    pub fn bill_normal(&self, used: KilowattHours) -> Money {
        used.clamp_non_negative() * self.normal
    }

    /// Bill for a participant with an agreed limit: lower price up to the
    /// limit, higher price beyond it (the offer and request-for-bids
    /// settlement rule of §3.2.1–3.2.2).
    pub fn bill_with_limit(&self, used: KilowattHours, limit: KilowattHours) -> Money {
        let used = used.clamp_non_negative();
        let limit = limit.clamp_non_negative();
        let within = used.min(limit);
        let excess = (used - within).clamp_non_negative();
        within * self.lower + excess * self.higher
    }
}

impl Default for Tariff {
    fn default() -> Self {
        Tariff::default_scheme()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_enforced() {
        assert!(std::panic::catch_unwind(|| {
            Tariff::new(PricePerKwh(1.0), PricePerKwh(0.5), PricePerKwh(2.0))
        })
        .is_err());
    }

    #[test]
    fn normal_bill_is_linear() {
        let t = Tariff::default_scheme();
        assert_eq!(t.bill_normal(KilowattHours(10.0)), Money(10.0));
        assert_eq!(t.bill_normal(KilowattHours(-3.0)), Money::ZERO);
    }

    #[test]
    fn within_limit_pays_lower_price() {
        let t = Tariff::default_scheme();
        let bill = t.bill_with_limit(KilowattHours(8.0), KilowattHours(10.0));
        assert_eq!(bill, Money(8.0 * 0.6));
    }

    #[test]
    fn excess_pays_higher_price() {
        let t = Tariff::default_scheme();
        let bill = t.bill_with_limit(KilowattHours(12.0), KilowattHours(10.0));
        assert!((bill.value() - (10.0 * 0.6 + 2.0 * 1.8)).abs() < 1e-12);
    }

    #[test]
    fn cooperation_wins_for_moderate_overuse_only() {
        let t = Tariff::default_scheme();
        let limit = KilowattHours(10.0);
        // Slight overuse: still cheaper than normal.
        let slight = t.bill_with_limit(KilowattHours(11.0), limit);
        assert!(slight < t.bill_normal(KilowattHours(11.0)));
        // Heavy overuse: worse than normal.
        let heavy = t.bill_with_limit(KilowattHours(30.0), limit);
        assert!(heavy > t.bill_normal(KilowattHours(30.0)));
    }

    #[test]
    fn accessors() {
        let t = Tariff::default_scheme();
        assert!(t.lower() < t.normal());
        assert!(t.normal() < t.higher());
    }
}
