//! Settlement accounting: who gained what from a negotiation.
//!
//! "The bidding process ... can be seen as a process in which both agents
//! need to succeed to make a good deal" (§3.1). This module quantifies
//! that: the utility trades rewards for avoided expensive production;
//! customers trade comfort for rewards.

use crate::customer_agent::settlement_gain;
use crate::producer_agent::ProducerAgent;
use crate::session::{NegotiationReport, Scenario};
use powergrid::units::{KilowattHours, Money};
use std::fmt;

/// Monetary summary of one settled negotiation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SettlementSummary {
    /// Rewards (or billing advantages) the utility committed to.
    pub rewards_paid: Money,
    /// Peak energy removed by the accepted cut-downs.
    pub energy_saved: KilowattHours,
    /// Production cost avoided by not serving the removed energy at the
    /// expensive tier.
    pub production_cost_avoided: Money,
    /// The utility's net gain: avoided cost − rewards paid.
    pub utility_net_gain: Money,
    /// Sum of customer surpluses (reward − effort threshold).
    pub customer_surplus: Money,
    /// Number of customers with a non-zero cut-down.
    pub participants: usize,
}

impl SettlementSummary {
    /// Computes the summary for a report against its scenario and a
    /// producer agent.
    ///
    /// `peak_hours` is the wall-clock length of the cut-down interval
    /// (energy→power conversion for the production-cost comparison).
    ///
    /// # Panics
    ///
    /// Panics if `peak_hours` is not positive or the report's customer
    /// count differs from the scenario's.
    pub fn compute(
        scenario: &Scenario,
        report: &NegotiationReport,
        producer: &ProducerAgent,
        peak_hours: f64,
    ) -> SettlementSummary {
        assert!(peak_hours > 0.0, "peak length must be positive");
        assert_eq!(
            scenario.customers.len(),
            report.settlements().len(),
            "report does not match scenario"
        );
        let rewards_paid = report.total_rewards();
        let energy_saved = (report.initial_overuse() - report.final_overuse()).clamp_non_negative();
        // All saved energy comes out of the expensive tier while overuse
        // remains (demand above normal capacity by construction).
        let initial_cost =
            producer.cost_of_energy(scenario.normal_use + report.initial_overuse(), peak_hours);
        let final_cost =
            producer.cost_of_energy(scenario.normal_use + report.final_overuse(), peak_hours);
        let production_cost_avoided = (initial_cost - final_cost).clamp_non_negative();
        let customer_surplus = scenario
            .customers
            .iter()
            .zip(report.settlements())
            .map(|(c, s)| settlement_gain(&c.preferences, s.cutdown, s.reward))
            .sum();
        let participants = report
            .settlements()
            .iter()
            .filter(|s| s.cutdown.value() > 0.0)
            .count();
        SettlementSummary {
            rewards_paid,
            energy_saved,
            production_cost_avoided,
            utility_net_gain: production_cost_avoided - rewards_paid,
            customer_surplus,
            participants,
        }
    }
}

impl fmt::Display for SettlementSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "saved {} | avoided {} | rewards {} | utility net {} | customer surplus {} | {} participants",
            self.energy_saved,
            self.production_cost_avoided,
            self.rewards_paid,
            self.utility_net_gain,
            self.customer_surplus,
            self.participants
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::ScenarioBuilder;
    use powergrid::production::ProductionModel;
    use powergrid::units::Kilowatts;

    fn producer() -> ProducerAgent {
        // Expensive tier far above normal: peak energy is costly, so
        // negotiated savings are worth real money.
        ProducerAgent::new(ProductionModel::with_costs(
            Kilowatts(50.0),
            powergrid::units::PricePerKwh(0.3),
            powergrid::units::PricePerKwh(40.0),
        ))
    }

    #[test]
    fn paper_scenario_is_mutually_beneficial() {
        let scenario = ScenarioBuilder::paper_figure_6().build();
        let report = scenario.run();
        let summary = SettlementSummary::compute(&scenario, &report, &producer(), 2.0);
        assert!(summary.energy_saved.value() > 0.0);
        assert!(summary.participants > 0);
        assert!(
            summary.customer_surplus >= Money::ZERO,
            "customers only bid when the reward covers their threshold"
        );
        assert!(summary.utility_net_gain >= Money::ZERO, "{summary}");
    }

    #[test]
    fn no_deal_no_flows() {
        use crate::preferences::CustomerPreferences;
        use crate::session::CustomerProfile;
        use powergrid::units::Fraction;
        let mut b = ScenarioBuilder::new();
        for _ in 0..5 {
            b = b.customer(CustomerProfile {
                predicted_use: KilowattHours(27.0),
                allowed_use: KilowattHours(27.0),
                preferences: CustomerPreferences::from_base_scaled(100.0, Fraction::clamped(0.5)),
            });
        }
        let scenario = b.build();
        let report = scenario.run();
        let summary = SettlementSummary::compute(&scenario, &report, &producer(), 2.0);
        assert_eq!(summary.participants, 0);
        assert_eq!(summary.rewards_paid, Money::ZERO);
        assert_eq!(summary.energy_saved, KilowattHours::ZERO);
    }

    #[test]
    #[should_panic(expected = "peak length")]
    fn zero_peak_hours_panics() {
        let scenario = ScenarioBuilder::paper_figure_6().build();
        let report = scenario.run();
        let _ = SettlementSummary::compute(&scenario, &report, &producer(), 0.0);
    }

    #[test]
    fn display_mentions_flows() {
        let scenario = ScenarioBuilder::paper_figure_6().build();
        let report = scenario.run();
        let summary = SettlementSummary::compute(&scenario, &report, &producer(), 2.0);
        assert!(summary.to_string().contains("participants"));
    }
}
