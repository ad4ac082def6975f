//! Two-tier production model: normal vs expensive production (Figure 1).
//!
//! Figure 1 of the paper shows a demand curve crossing from "normal
//! production costs" into "expensive production costs" at peak times. The
//! Producer Agent prices production from this model.

use crate::time::TimeAxis;
use crate::units::{KilowattHours, Kilowatts, Money, PricePerKwh};

/// Generation capacity split into a cheap base tier and an expensive
/// peaking tier above it; demand beyond the base tier is always served,
/// at the peaking rate.
///
/// # Example
///
/// ```
/// use powergrid::production::ProductionModel;
/// use powergrid::units::{Kilowatts, KilowattHours};
///
/// let p = ProductionModel::two_tier(Kilowatts(100.0));
/// // Energy served within normal capacity costs the base rate.
/// let cheap = p.cost_of_energy(KilowattHours(50.0), 1.0);
/// let pricey = p.cost_of_energy(KilowattHours(120.0), 1.0);
/// assert!(pricey.value() > cheap.value() * 2.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProductionModel {
    normal_capacity: Kilowatts,
    normal_cost: PricePerKwh,
    expensive_cost: PricePerKwh,
}

impl ProductionModel {
    /// Default cost of base-tier production.
    pub const DEFAULT_NORMAL_COST: PricePerKwh = PricePerKwh(0.30);
    /// Default cost of peaking-tier production.
    pub const DEFAULT_EXPENSIVE_COST: PricePerKwh = PricePerKwh(1.10);

    /// Creates a two-tier model with default costs.
    ///
    /// # Panics
    ///
    /// Panics if the normal capacity is negative.
    pub fn two_tier(normal_capacity: Kilowatts) -> ProductionModel {
        ProductionModel::with_costs(
            normal_capacity,
            Self::DEFAULT_NORMAL_COST,
            Self::DEFAULT_EXPENSIVE_COST,
        )
    }

    /// Creates a two-tier model with explicit costs.
    ///
    /// # Panics
    ///
    /// Panics if the normal capacity is negative or the expensive cost
    /// is below the normal cost.
    pub fn with_costs(
        normal_capacity: Kilowatts,
        normal_cost: PricePerKwh,
        expensive_cost: PricePerKwh,
    ) -> ProductionModel {
        assert!(
            normal_capacity.value() >= 0.0,
            "normal capacity must be non-negative"
        );
        assert!(
            expensive_cost >= normal_cost,
            "expensive production should not be cheaper than normal production"
        );
        ProductionModel {
            normal_capacity,
            normal_cost,
            expensive_cost,
        }
    }

    /// Base-tier capacity.
    pub fn normal_capacity(&self) -> Kilowatts {
        self.normal_capacity
    }

    /// Cost of base-tier energy.
    pub fn normal_cost(&self) -> PricePerKwh {
        self.normal_cost
    }

    /// Cost of peaking-tier energy.
    pub fn expensive_cost(&self) -> PricePerKwh {
        self.expensive_cost
    }

    /// Normal capacity expressed as energy per slot on `axis`.
    pub fn normal_capacity_per_slot(&self, axis: TimeAxis) -> KilowattHours {
        self.normal_capacity.for_hours(axis.slot_hours())
    }

    /// Production cost of serving `energy` delivered over `hours` hours:
    /// energy within normal capacity at the base rate, the excess at the
    /// expensive rate, mirroring how the paper's utility always serves
    /// demand but at higher production cost.
    pub fn cost_of_energy(&self, energy: KilowattHours, hours: f64) -> Money {
        assert!(hours > 0.0, "duration must be positive");
        let cheap_cap = self.normal_capacity.for_hours(hours);
        let cheap = energy.min(cheap_cap).clamp_non_negative();
        let pricey = (energy - cheap).clamp_non_negative();
        cheap * self.normal_cost + pricey * self.expensive_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::TimeAxis;

    fn model() -> ProductionModel {
        ProductionModel::two_tier(Kilowatts(100.0))
    }

    #[test]
    fn accessors() {
        let m = model();
        assert_eq!(m.normal_capacity(), Kilowatts(100.0));
        assert!(m.expensive_cost() > m.normal_cost());
    }

    #[test]
    #[should_panic(expected = "normal capacity must be non-negative")]
    fn negative_capacity_panics() {
        let _ = ProductionModel::two_tier(Kilowatts(-1.0));
    }

    #[test]
    #[should_panic(expected = "cheaper than normal")]
    fn inverted_costs_panic() {
        let _ = ProductionModel::with_costs(Kilowatts(10.0), PricePerKwh(1.0), PricePerKwh(0.5));
    }

    #[test]
    fn cheap_energy_at_base_rate() {
        let m = model();
        let cost = m.cost_of_energy(KilowattHours(50.0), 1.0);
        assert_eq!(cost, Money(50.0 * m.normal_cost().value()));
    }

    #[test]
    fn peak_energy_split_across_tiers() {
        let m = model();
        let cost = m.cost_of_energy(KilowattHours(120.0), 1.0);
        let expected = 100.0 * m.normal_cost().value() + 20.0 * m.expensive_cost().value();
        assert!((cost.value() - expected).abs() < 1e-9);
    }

    #[test]
    fn marginal_cost_jumps_at_capacity() {
        let m = model();
        let below = m.cost_of_energy(KilowattHours(100.0), 1.0);
        let above = m.cost_of_energy(KilowattHours(101.0), 1.0);
        let marginal = above - below;
        assert!((marginal.value() - m.expensive_cost().value()).abs() < 1e-9);
    }

    #[test]
    fn per_slot_capacity_scales_with_axis() {
        let m = model();
        assert_eq!(
            m.normal_capacity_per_slot(TimeAxis::hourly()),
            KilowattHours(100.0)
        );
        assert_eq!(
            m.normal_capacity_per_slot(TimeAxis::quarter_hourly()),
            KilowattHours(25.0)
        );
    }

    #[test]
    fn negative_energy_costs_nothing() {
        let m = model();
        assert_eq!(m.cost_of_energy(KilowattHours(-5.0), 1.0), Money::ZERO);
    }
}
