//! The Producer Agent (PA): production cost.
//!
//! "Interaction with the Producer Agent is essential to acquire
//! information about the availability of electricity and the cost
//! involved" (§5.1.4). UA ↔ PA *negotiation* is out of the paper's scope;
//! the PA here is an information source backed by the two-tier production
//! model.

use powergrid::production::ProductionModel;
use powergrid::units::{KilowattHours, Money, PricePerKwh};

/// An agent wrapping a production model.
#[derive(Debug, Clone, PartialEq)]
pub struct ProducerAgent {
    production: ProductionModel,
}

impl ProducerAgent {
    /// Creates a producer agent.
    pub fn new(production: ProductionModel) -> ProducerAgent {
        ProducerAgent { production }
    }

    /// The underlying production model.
    pub fn production(&self) -> &ProductionModel {
        &self.production
    }

    /// Marginal production cost saved per kWh of peak energy avoided —
    /// what a unit of negotiated cut-down is worth to the utility.
    pub fn peak_saving_value(&self) -> PricePerKwh {
        PricePerKwh(
            self.production.expensive_cost().value() - self.production.normal_cost().value(),
        )
    }

    /// Production cost of serving `energy` over `hours`.
    pub fn cost_of_energy(&self, energy: KilowattHours, hours: f64) -> Money {
        self.production.cost_of_energy(energy, hours)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powergrid::units::Kilowatts;

    fn agent() -> ProducerAgent {
        ProducerAgent::new(ProductionModel::two_tier(Kilowatts(100.0)))
    }

    #[test]
    fn peak_saving_value_is_cost_spread() {
        let a = agent();
        let spread = a.peak_saving_value();
        assert!(
            (spread.value()
                - (a.production().expensive_cost().value() - a.production().normal_cost().value()))
            .abs()
                < 1e-12
        );
        assert!(spread.value() > 0.0);
    }

    #[test]
    fn cost_delegation() {
        let a = agent();
        assert_eq!(
            a.cost_of_energy(KilowattHours(10.0), 1.0),
            a.production().cost_of_energy(KilowattHours(10.0), 1.0)
        );
    }

    #[test]
    fn cost_of_energy_splits_tiers_by_duration() {
        // 100 kW of normal capacity over 2 h serves 200 kWh cheaply; the
        // 50 kWh beyond that is expensive. Units: kW × h → kWh, kWh ×
        // price/kWh → money.
        let a = agent();
        let cost = a.cost_of_energy(KilowattHours(250.0), 2.0);
        let expected = 200.0 * a.production().normal_cost().value()
            + 50.0 * a.production().expensive_cost().value();
        assert!((cost.value() - expected).abs() < 1e-9);
        // Halving the window halves the cheap band: 100 kWh cheap,
        // 150 kWh expensive.
        let shorter = a.cost_of_energy(KilowattHours(250.0), 1.0);
        let expected_short = 100.0 * a.production().normal_cost().value()
            + 150.0 * a.production().expensive_cost().value();
        assert!((shorter.value() - expected_short).abs() < 1e-9);
        assert!(shorter > cost, "less cheap capacity ⇒ higher cost");
    }

    #[test]
    fn cost_of_energy_is_monotone_and_non_negative() {
        let a = agent();
        assert_eq!(a.cost_of_energy(KilowattHours(0.0), 1.0), Money::ZERO);
        assert_eq!(a.cost_of_energy(KilowattHours(-10.0), 1.0), Money::ZERO);
        let mut prev = Money::ZERO;
        for kwh in [10.0, 50.0, 100.0, 150.0, 500.0] {
            let cost = a.cost_of_energy(KilowattHours(kwh), 1.0);
            assert!(cost >= prev, "cost must grow with energy served");
            prev = cost;
        }
    }

    #[test]
    fn peak_saving_value_prices_a_kwh_of_cutdown() {
        // One kWh shaved out of the expensive band saves the expensive
        // rate but forgoes serving it at the normal rate elsewhere: the
        // spread. That must equal the marginal cost drop of serving one
        // kWh less above capacity minus the normal rate.
        let a = agent();
        let cap = KilowattHours(100.0); // normal capacity over 1 h
        let marginal = a.cost_of_energy(cap + KilowattHours(1.0), 1.0) - a.cost_of_energy(cap, 1.0);
        let spread = a.peak_saving_value();
        assert!(
            (marginal.value() - a.production().expensive_cost().value()).abs() < 1e-9,
            "above capacity, the marginal kWh costs the expensive rate"
        );
        assert!(
            (spread.value() - (marginal.value() - a.production().normal_cost().value())).abs()
                < 1e-9
        );
        assert!(spread.value() > 0.0, "expensive ≥ normal ⇒ spread ≥ 0");
    }

    #[test]
    fn peak_saving_value_is_zero_for_flat_pricing() {
        use powergrid::units::PricePerKwh;
        let flat = ProducerAgent::new(ProductionModel::with_costs(
            Kilowatts(100.0),
            PricePerKwh(0.5),
            PricePerKwh(0.5),
        ));
        assert_eq!(flat.peak_saving_value(), PricePerKwh(0.0));
    }
}
