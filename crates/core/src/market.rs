//! A computational-market baseline (§7, ref. \[12\]).
//!
//! "The potential of other negotiation strategies, such as computational
//! markets (see, for example, \[12\]) are also currently being explored."
//! Reference \[12\] is Ygge & Akkermans, *Power Load Management as a
//! Computational Market* (ICMAS'96). This module implements that
//! baseline so the reward-table protocol can be compared against it
//! (experiment E10):
//!
//! * each Customer Agent turns its private cut-down/required-reward table
//!   into a *demand function*: at compensation price `p` per saved kWh it
//!   sheds the largest cut-down whose threshold is covered by
//!   `p · cutdown · predicted_use`;
//! * the Utility Agent is the auctioneer: it quotes prices, customers
//!   respond with their demand, and a bisection search finds the lowest
//!   clearing price at which predicted consumption fits the allowed
//!   capacity;
//! * all shedders are paid the uniform clearing price for their shed
//!   energy (uniform-price auction).

use crate::preferences::CustomerPreferences;
use crate::session::Scenario;
use powergrid::units::{Fraction, KilowattHours, Money, PricePerKwh};
use std::fmt;

/// A customer's best response to a quoted compensation price: the
/// largest tabled cut-down whose effort threshold is covered by the
/// payment `price · cutdown · predicted_use`.
pub fn demand_response(
    preferences: &CustomerPreferences,
    predicted_use: KilowattHours,
    price: PricePerKwh,
) -> Fraction {
    let mut best = Fraction::ZERO;
    for (cutdown, required) in preferences.thresholds() {
        if cutdown > preferences.max_cutdown() {
            break;
        }
        let payment = Money(price.value() * cutdown.value() * predicted_use.value());
        if payment >= required && cutdown > best {
            best = cutdown;
        }
    }
    best
}

/// One price-quote iteration of the auction.
#[derive(Debug, Clone, PartialEq)]
pub struct AuctionRound {
    /// Iteration number, 1-based.
    pub iteration: u32,
    /// The quoted compensation price.
    pub price: PricePerKwh,
    /// Total predicted consumption at that price.
    pub predicted_total: KilowattHours,
}

/// Result of the computational-market run.
#[derive(Debug, Clone, PartialEq)]
pub struct MarketReport {
    /// The bisection trace.
    pub iterations: Vec<AuctionRound>,
    /// The uniform clearing price (None when even the price cap cannot
    /// clear the market).
    pub clearing_price: Option<PricePerKwh>,
    /// Final cut-down per customer.
    pub cutdowns: Vec<Fraction>,
    /// Total predicted consumption at the clearing price.
    pub final_total: KilowattHours,
    /// Total compensation paid.
    pub payments: Money,
    /// Messages exchanged (price quotes + demand responses + awards).
    pub messages: u64,
    /// Capacity the auctioneer had to fit under.
    pub capacity_target: KilowattHours,
}

impl MarketReport {
    /// Final relative overuse versus `normal_use`.
    pub fn final_overuse_fraction(&self, normal_use: KilowattHours) -> f64 {
        crate::reward::overuse_fraction(self.final_total, normal_use)
    }
}

impl fmt::Display for MarketReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "market | {} iterations | price {} | total {} (target {}) | paid {} | msgs {}",
            self.iterations.len(),
            self.clearing_price
                .map(|p| format!("{:.3}", p.value()))
                .unwrap_or_else(|| "uncleared".into()),
            self.final_total,
            self.capacity_target,
            self.payments,
            self.messages
        )
    }
}

/// Auctioneer configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuctionConfig {
    /// Upper bound on the compensation price.
    pub price_cap: PricePerKwh,
    /// Bisection iterations (each costs a full quote/response exchange).
    pub max_iterations: u32,
    /// Price resolution at which bisection stops.
    pub price_epsilon: f64,
}

impl Default for AuctionConfig {
    fn default() -> Self {
        AuctionConfig {
            price_cap: PricePerKwh(20.0),
            max_iterations: 30,
            price_epsilon: 1e-3,
        }
    }
}

/// Runs the computational market on a scenario: finds the lowest uniform
/// price bringing predicted consumption within
/// `normal_use · (1 + max_allowed_overuse)`.
pub fn run_market(scenario: &Scenario, config: AuctionConfig) -> MarketReport {
    let n = scenario.customers.len() as u64;
    let capacity_target = scenario.normal_use * (1.0 + scenario.config.max_allowed_overuse);

    let total_at = |price: PricePerKwh| -> (KilowattHours, Vec<Fraction>) {
        let mut cutdowns = Vec::with_capacity(scenario.customers.len());
        let mut total = KilowattHours::ZERO;
        for c in &scenario.customers {
            let cut = demand_response(&c.preferences, c.predicted_use, price);
            total += crate::reward::predicted_use_with_cutdown(c.predicted_use, c.allowed_use, cut);
            cutdowns.push(cut);
        }
        (total, cutdowns)
    };

    let mut iterations = Vec::new();
    let mut iteration = 0u32;
    let mut quote = |price: PricePerKwh, iterations: &mut Vec<AuctionRound>| {
        iteration += 1;
        let (total, cutdowns) = total_at(price);
        iterations.push(AuctionRound {
            iteration,
            price,
            predicted_total: total,
        });
        (total, cutdowns)
    };

    // Check the endpoints first: free (price 0) and the cap.
    let (total_free, cutdowns_free) = quote(PricePerKwh(0.0), &mut iterations);
    if total_free <= capacity_target {
        let messages = 2 * n * iterations.len() as u64;
        return MarketReport {
            iterations,
            clearing_price: Some(PricePerKwh(0.0)),
            cutdowns: cutdowns_free,
            final_total: total_free,
            payments: Money::ZERO,
            messages,
            capacity_target,
        };
    }
    let (total_cap, cutdowns_cap) = quote(config.price_cap, &mut iterations);
    if total_cap > capacity_target {
        // Even the cap cannot clear: settle at the cap (best effort).
        let payments = settle(scenario, &cutdowns_cap, config.price_cap);
        let messages = 2 * n * iterations.len() as u64 + n;
        return MarketReport {
            iterations,
            clearing_price: None,
            cutdowns: cutdowns_cap,
            final_total: total_cap,
            payments,
            messages,
            capacity_target,
        };
    }

    // Bisection: demand is non-increasing in price.
    let mut lo = 0.0f64;
    let mut hi = config.price_cap.value();
    let mut best = (config.price_cap, total_cap, cutdowns_cap);
    for _ in 0..config.max_iterations {
        if hi - lo <= config.price_epsilon {
            break;
        }
        let mid = 0.5 * (lo + hi);
        let (total, cutdowns) = quote(PricePerKwh(mid), &mut iterations);
        if total <= capacity_target {
            hi = mid;
            best = (PricePerKwh(mid), total, cutdowns);
        } else {
            lo = mid;
        }
    }
    let (price, final_total, cutdowns) = best;
    let payments = settle(scenario, &cutdowns, price);
    let messages = 2 * n * iterations.len() as u64 + n;
    MarketReport {
        iterations,
        clearing_price: Some(price),
        cutdowns,
        final_total,
        payments,
        messages,
        capacity_target,
    }
}

fn settle(scenario: &Scenario, cutdowns: &[Fraction], price: PricePerKwh) -> Money {
    scenario
        .customers
        .iter()
        .zip(cutdowns)
        .map(|(c, &cut)| Money(price.value() * cut.value() * c.predicted_use.value()))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::ScenarioBuilder;

    fn fr(v: f64) -> Fraction {
        Fraction::clamped(v)
    }

    #[test]
    fn demand_response_is_monotone_in_price() {
        let prefs = CustomerPreferences::paper_figure_8();
        let predicted = KilowattHours(6.75);
        let mut prev = Fraction::ZERO;
        for p in [0.0, 1.0, 2.0, 5.0, 10.0, 20.0] {
            let cut = demand_response(&prefs, predicted, PricePerKwh(p));
            assert!(cut >= prev, "shedding shrank as price rose");
            prev = cut;
        }
        assert!(prev > Fraction::ZERO, "a high price must induce shedding");
    }

    #[test]
    fn demand_response_respects_ceiling() {
        let prefs = CustomerPreferences::from_base_scaled(0.1, fr(0.3));
        let cut = demand_response(&prefs, KilowattHours(10.0), PricePerKwh(100.0));
        assert_eq!(cut, fr(0.3));
    }

    #[test]
    fn market_clears_paper_scenario() {
        let scenario = ScenarioBuilder::paper_figure_6().build();
        let report = run_market(&scenario, AuctionConfig::default());
        assert!(
            report.final_total <= report.capacity_target + KilowattHours(1e-9),
            "{report}"
        );
        let price = report.clearing_price.expect("cleared market has a price");
        assert!(price.value() > 0.0);
        assert!(report.payments > Money::ZERO);
        assert!(report.final_overuse_fraction(scenario.normal_use) <= 0.15 + 1e-9);
    }

    #[test]
    fn zero_price_when_no_peak() {
        let scenario = ScenarioBuilder::paper_figure_6()
            .normal_use(KilowattHours(200.0))
            .build();
        let report = run_market(&scenario, AuctionConfig::default());
        assert_eq!(report.clearing_price, Some(PricePerKwh(0.0)));
        assert_eq!(report.payments, Money::ZERO);
        assert_eq!(report.iterations.len(), 1, "one probe suffices");
    }

    #[test]
    fn uncleared_market_reports_none() {
        // Impossible demands: reluctant customers, tiny price cap.
        let scenario = ScenarioBuilder::random(20, 0.5, 3).build();
        let config = AuctionConfig {
            price_cap: PricePerKwh(0.001),
            ..AuctionConfig::default()
        };
        let report = run_market(&scenario, config);
        assert!(report.clearing_price.is_none());
        assert!(report.final_total > report.capacity_target + KilowattHours(1e-9));
    }

    #[test]
    fn clearing_price_is_minimal() {
        let scenario = ScenarioBuilder::random(50, 0.35, 7).build();
        let report = run_market(&scenario, AuctionConfig::default());
        let price = report.clearing_price.expect("clears");
        if price.value() > 0.01 {
            // Slightly below the clearing price the market must not clear.
            let below = PricePerKwh(price.value() - 0.01);
            let total: KilowattHours = scenario
                .customers
                .iter()
                .map(|c| {
                    crate::reward::predicted_use_with_cutdown(
                        c.predicted_use,
                        c.allowed_use,
                        demand_response(&c.preferences, c.predicted_use, below),
                    )
                })
                .sum();
            assert!(
                total > report.capacity_target - KilowattHours(1e-6),
                "a lower price should not clear"
            );
        }
    }

    #[test]
    fn market_vs_reward_tables_comparison_runs() {
        let scenario = ScenarioBuilder::random(100, 0.35, 11).build();
        let market = run_market(&scenario, AuctionConfig::default());
        let tables = scenario.run();
        // Both reduce the peak; the comparison itself is experiment E10.
        assert!(market.final_total <= scenario.initial_total());
        assert!(tables.final_overuse() <= tables.initial_overuse());
    }

    #[test]
    fn display_mentions_price() {
        let scenario = ScenarioBuilder::paper_figure_6().build();
        let report = run_market(&scenario, AuctionConfig::default());
        assert!(report.to_string().contains("price"));
    }
}
