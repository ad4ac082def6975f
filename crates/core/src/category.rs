//! Customer categories for the offer method (§3.2.1).
//!
//! "A possible solution to this problem is to divide the customers into
//! different categories (for example according to the number of persons
//! in the household) and treat all customers in a certain category in the
//! same way." This module implements that refinement: customers are
//! bucketed by predicted use and each bucket receives its own `x_max`,
//! while all members of a bucket still get identical terms (the Swedish
//! equal-treatment constraint applies *within* a category).
//!
//! A categorized offer is a set of ordinary offers, one per category
//! ([`categorized_offers`]): each part is an
//! [`AnnouncementMethod::Offer`] [`Scenario`] that runs in every
//! execution mode like any other, so its reports come out of the engine.

use crate::customer_agent::decide_offer;
use crate::methods::AnnouncementMethod;
use crate::session::Scenario;
use powergrid::units::{Fraction, KilowattHours};

/// A consumption category: all customers whose predicted use falls in
/// `[lower, upper)` receive the category's `x_max`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Category {
    /// Inclusive lower bound on predicted use.
    pub lower: KilowattHours,
    /// Exclusive upper bound on predicted use (`f64::INFINITY` allowed).
    pub upper: KilowattHours,
    /// The offer parameter for this category.
    pub x_max: Fraction,
}

impl Category {
    /// True if a customer with this predicted use belongs here.
    pub fn contains(&self, predicted_use: KilowattHours) -> bool {
        predicted_use >= self.lower && predicted_use < self.upper
    }
}

/// Splits the scenario's population into `buckets` equal-width
/// consumption bands and assigns stricter `x_max` values to heavier
/// consumers (they have more flexible load to shed).
///
/// # Panics
///
/// Panics if `buckets` is zero.
pub fn consumption_categories(scenario: &Scenario, buckets: usize) -> Vec<Category> {
    assert!(buckets > 0, "need at least one category");
    let min = scenario
        .customers
        .iter()
        .map(|c| c.predicted_use.value())
        .fold(f64::INFINITY, f64::min);
    let max = scenario
        .customers
        .iter()
        .map(|c| c.predicted_use.value())
        .fold(f64::NEG_INFINITY, f64::max);
    let width = ((max - min) / buckets as f64).max(f64::EPSILON);
    (0..buckets)
        .map(|i| {
            let lower = min + i as f64 * width;
            let upper = if i + 1 == buckets {
                f64::INFINITY
            } else {
                lower + width
            };
            // Heavier consumers get a stricter cap: base x_max minus 5 %
            // per bucket step.
            let x_max = Fraction::clamped(scenario.config.offer_x_max.value() - 0.05 * i as f64);
            Category {
                lower: KilowattHours(lower),
                upper: KilowattHours(upper),
                x_max,
            }
        })
        .collect()
}

/// Splits the population into `buckets` consumption bands and picks each
/// band's `x_max` from `candidates` to maximise the predicted energy
/// reduction of that band — the Utility Agent "optimisation" tactic of
/// §5.1.3 applied per category. The uniform offer is always among the
/// candidates, so the optimized categorization never predicts worse than
/// uniform.
///
/// # Panics
///
/// Panics if `buckets` is zero or `candidates` is empty.
pub fn optimized_categories(
    scenario: &Scenario,
    buckets: usize,
    candidates: &[Fraction],
) -> Vec<Category> {
    assert!(!candidates.is_empty(), "need candidate x_max values");
    let mut categories = consumption_categories(scenario, buckets);
    for category in &mut categories {
        let members: Vec<_> = scenario
            .customers
            .iter()
            .filter(|c| category.contains(c.predicted_use))
            .collect();
        let mut best = (category.x_max, KilowattHours(f64::NEG_INFINITY));
        for &x_max in candidates {
            let reduction: KilowattHours = members
                .iter()
                .map(|c| {
                    let accept = decide_offer(
                        &c.preferences,
                        c.predicted_use,
                        c.allowed_use,
                        x_max,
                        &scenario.tariff,
                    );
                    if accept {
                        (c.predicted_use - c.predicted_use.min(x_max * c.allowed_use))
                            .clamp_non_negative()
                    } else {
                        KilowattHours::ZERO
                    }
                })
                .sum();
            if reduction > best.1 {
                best = (x_max, reduction);
            }
        }
        category.x_max = best.0;
    }
    categories
}

/// Splits a categorized offer into one [`AnnouncementMethod::Offer`]
/// scenario per non-empty category, in category order. Each part holds
/// the category's customers in scenario order, offers the category's
/// `x_max`, and keeps the whole scenario's capacity, interval and tariff
/// (an offer decision never reads the capacity). A customer belongs to
/// the first category that contains it.
///
/// # Panics
///
/// Panics if some customer falls outside every category.
pub fn categorized_offers(scenario: &Scenario, categories: &[Category]) -> Vec<Scenario> {
    let mut members = vec![Vec::new(); categories.len()];
    for customer in &scenario.customers {
        let category = categories
            .iter()
            .position(|cat| cat.contains(customer.predicted_use))
            .unwrap_or_else(|| {
                panic!(
                    "customer with predicted use {} has no category",
                    customer.predicted_use
                )
            });
        members[category].push(customer.clone());
    }
    categories
        .iter()
        .zip(members)
        .filter(|(_, customers)| !customers.is_empty())
        .map(|(category, customers)| Scenario {
            normal_use: scenario.normal_use,
            interval: scenario.interval,
            customers,
            config: scenario.config.with_offer_x_max(category.x_max),
            method: AnnouncementMethod::Offer,
            tariff: scenario.tariff,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::ScenarioBuilder;

    #[test]
    fn categories_cover_the_population() {
        let scenario = ScenarioBuilder::random(100, 0.35, 5).build();
        let cats = consumption_categories(&scenario, 3);
        assert_eq!(cats.len(), 3);
        for c in &scenario.customers {
            assert!(
                cats.iter().any(|cat| cat.contains(c.predicted_use)),
                "uncovered customer at {}",
                c.predicted_use
            );
        }
    }

    #[test]
    fn heavier_categories_get_stricter_caps() {
        let scenario = ScenarioBuilder::random(100, 0.35, 5).build();
        let cats = consumption_categories(&scenario, 3);
        for pair in cats.windows(2) {
            assert!(pair[1].x_max <= pair[0].x_max);
        }
    }

    #[test]
    fn categorized_offer_runs_single_round() {
        let scenario = ScenarioBuilder::random(100, 0.35, 5).build();
        let cats = consumption_categories(&scenario, 3);
        let parts = categorized_offers(&scenario, &cats);
        assert!((1..=3).contains(&parts.len()));
        let mut final_total = KilowattHours::ZERO;
        for part in &parts {
            let report = part.run();
            assert_eq!(report.rounds().len(), 1);
            assert!(report.converged());
            final_total += report.final_total();
        }
        assert!(final_total <= scenario.initial_total());
    }

    #[test]
    fn single_category_equals_uniform_offer() {
        let scenario = ScenarioBuilder::random(80, 0.35, 9).build();
        let uniform = Scenario {
            method: AnnouncementMethod::Offer,
            ..scenario.clone()
        };
        let one = vec![Category {
            lower: KilowattHours(0.0),
            upper: KilowattHours(f64::INFINITY),
            x_max: scenario.config.offer_x_max,
        }];
        assert_eq!(categorized_offers(&scenario, &one), vec![uniform]);
    }

    #[test]
    #[should_panic(expected = "has no category")]
    fn uncovered_customer_panics() {
        let scenario = ScenarioBuilder::random(10, 0.35, 1).build();
        let none = [Category {
            lower: KilowattHours(0.0),
            upper: KilowattHours(0.0),
            x_max: scenario.config.offer_x_max,
        }];
        let _ = categorized_offers(&scenario, &none);
    }

    #[test]
    #[should_panic(expected = "at least one category")]
    fn zero_buckets_panics() {
        let scenario = ScenarioBuilder::random(10, 0.35, 1).build();
        let _ = consumption_categories(&scenario, 0);
    }

    #[test]
    fn optimized_categories_never_reduce_less_than_uniform() {
        let scenario = ScenarioBuilder::random(150, 0.35, 13).build();
        let uniform = Scenario {
            method: AnnouncementMethod::Offer,
            ..scenario.clone()
        }
        .run();
        let candidates: Vec<Fraction> = [0.5, 0.6, 0.7, 0.8, 0.9]
            .iter()
            .map(|&v| Fraction::clamped(v))
            .collect();
        assert!(candidates.contains(&scenario.config.offer_x_max));
        let cats = optimized_categories(&scenario, 3, &candidates);
        let final_total: KilowattHours = categorized_offers(&scenario, &cats)
            .iter()
            .map(|part| part.run().final_total())
            .sum();
        let final_overuse = (final_total - scenario.normal_use).clamp_non_negative();
        assert!(
            final_overuse <= uniform.final_overuse() + KilowattHours(1e-9),
            "optimized categories ({final_overuse}) must not trail uniform ({})",
            uniform.final_overuse()
        );
    }

    #[test]
    #[should_panic(expected = "candidate")]
    fn optimizer_needs_candidates() {
        let scenario = ScenarioBuilder::random(10, 0.35, 1).build();
        let _ = optimized_categories(&scenario, 2, &[]);
    }

    #[test]
    fn within_category_treatment_is_equal() {
        // §3.2.1: same kind of customers treated the same — identical
        // profiles must end with identical settlements.
        let scenario = ScenarioBuilder::paper_figure_6().build();
        let cats = consumption_categories(&scenario, 2);
        let parts = categorized_offers(&scenario, &cats);
        // Every Figure-6 customer predicts 6.75: one category holds them
        // all, and the empty one yields no part.
        assert_eq!(parts.len(), 1);
        let report = parts[0].run();
        // Customers 0 and 1 are identical (k = 1.0 twins).
        assert_eq!(report.settlements()[0], report.settlements()[1]);
    }
}
