//! The Customer Agent (CA): its decisions on offers and bid requests
//! (§3.2.1, §3.2.2) and its gain from a settled deal (§5.2, §6.2). A
//! negotiating CA is a [`CustomerEngine`](crate::engine::CustomerEngine),
//! which keeps its preferences and the grid index of its bid, answers a
//! reward table from the preferences, and answers offers and bid
//! requests with the functions here under the one §3.2 tariff.
//!
//! What its Resource Consumer Agents can shed (§5.2.2) is the
//! household's saving potential over the interval — each device's
//! flexible share of its energy there, that energy being the device's
//! power times its kind's duty integral over the interval — read by
//! [`ScenarioBuilder::from_peak`](crate::session::ScenarioBuilder::from_peak)
//! through [`powergrid::slab::interval_flexibility_slab`] into each
//! customer's cut-down ceiling.

use crate::preferences::CustomerPreferences;
use powergrid::tariff::Tariff;
use powergrid::units::{Fraction, KilowattHours, Money};

/// The CA's yes/no decision for the offer method (§3.2.1).
///
/// Accept when capping consumption at `x_max · allowed_use` is *feasible*
/// (the implied cut-down is within the customer's ceiling) and
/// *worthwhile*: the billing advantage of the lower price (net of the
/// higher-price risk already reflected in capped usage) beats the effort
/// cost of the implied cut-down.
pub fn decide_offer(
    preferences: &CustomerPreferences,
    predicted_use: KilowattHours,
    allowed_use: KilowattHours,
    x_max: Fraction,
    tariff: &Tariff,
) -> bool {
    let limit = x_max * allowed_use;
    // Implied cut-down relative to predicted usage (no cut needed if
    // already below the limit).
    let needed = if predicted_use <= limit || predicted_use.value() <= f64::EPSILON {
        Fraction::ZERO
    } else {
        Fraction::clamped((predicted_use - limit) / predicted_use)
    };
    let Some(effort) = preferences.effort_for_fraction(needed) else {
        return false; // physically infeasible
    };
    let capped_use = predicted_use.min(limit);
    let bill_if_accept = tariff.bill_with_limit(capped_use, limit);
    let bill_if_decline = tariff.bill_normal(predicted_use);
    let saving = bill_if_decline - bill_if_accept;
    saving >= effort
}

/// One step of the request-for-bids method on the CA side (§3.2.2):
/// given the current committed cut-down, either "stand still" or move
/// "one step forward" towards the customer's most profitable level.
///
/// The target is the largest tabled level whose effort cost is covered by
/// the billing advantage of committing to `y_min = (1 − level) · allowed`.
/// Returns the new cut-down (equal to `current` when standing still).
pub fn rfb_step(
    preferences: &CustomerPreferences,
    current: Fraction,
    predicted_use: KilowattHours,
    allowed_use: KilowattHours,
    tariff: &Tariff,
) -> Fraction {
    let mut target = Fraction::ZERO;
    for level in preferences.levels() {
        if level > preferences.max_cutdown() {
            break;
        }
        let y_min = level.complement() * allowed_use;
        let committed_use = predicted_use.min(y_min);
        let saving =
            tariff.bill_normal(predicted_use) - tariff.bill_with_limit(committed_use, y_min);
        let effort = preferences.effort_cost(level);
        if saving >= effort && level > target {
            target = level;
        }
    }
    if target <= current {
        return current; // stand still
    }
    // One step forward: the smallest tabled level above the current bid.
    preferences
        .levels()
        .find(|&lvl| lvl > current)
        .map(|lvl| lvl.min(target))
        .unwrap_or(current)
}

/// Converts a cut-down commitment into the `y_min` the CA reports.
pub fn y_min_for(cutdown: Fraction, allowed_use: KilowattHours) -> KilowattHours {
    cutdown.complement() * allowed_use
}

/// The customer's financial gain from a settled reward-table deal:
/// reward received minus the effort cost of the implemented cut-down.
pub fn settlement_gain(
    preferences: &CustomerPreferences,
    cutdown: Fraction,
    reward: Money,
) -> Money {
    reward - preferences.effort_cost(cutdown)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fr(v: f64) -> Fraction {
        Fraction::clamped(v)
    }

    #[test]
    fn offer_accepted_when_cheap_and_feasible() {
        // Flexible customer, modest cut needed.
        let prefs = CustomerPreferences::from_base_scaled(0.2, fr(0.5));
        let accept = decide_offer(
            &prefs,
            KilowattHours(10.0),
            KilowattHours(10.0),
            fr(0.8),
            &Tariff::default_scheme(),
        );
        assert!(accept);
    }

    #[test]
    fn offer_declined_when_effort_exceeds_saving() {
        // Very reluctant customer: huge thresholds dwarf the bill saving.
        let prefs = CustomerPreferences::from_base_scaled(50.0, fr(0.5));
        let accept = decide_offer(
            &prefs,
            KilowattHours(10.0),
            KilowattHours(10.0),
            fr(0.8),
            &Tariff::default_scheme(),
        );
        assert!(!accept);
    }

    #[test]
    fn offer_declined_when_infeasible() {
        // Ceiling 0.3 but the offer needs a 0.5 cut.
        let prefs = CustomerPreferences::from_base_scaled(0.1, fr(0.3));
        let accept = decide_offer(
            &prefs,
            KilowattHours(10.0),
            KilowattHours(10.0),
            fr(0.5),
            &Tariff::default_scheme(),
        );
        assert!(!accept);
    }

    #[test]
    fn offer_trivially_accepted_when_already_below_limit() {
        let prefs = CustomerPreferences::paper_figure_8();
        // Predicted use far below the capped allowance: zero cut-down
        // needed, lower price is pure gain.
        let accept = decide_offer(
            &prefs,
            KilowattHours(4.0),
            KilowattHours(10.0),
            fr(0.8),
            &Tariff::default_scheme(),
        );
        assert!(accept);
    }

    #[test]
    fn rfb_steps_one_level_at_a_time() {
        let prefs = CustomerPreferences::from_base_scaled(0.3, fr(0.5));
        let tariff = Tariff::default_scheme();
        let (pred, allowed) = (KilowattHours(10.0), KilowattHours(10.0));
        let mut current = Fraction::ZERO;
        let mut steps = Vec::new();
        for _ in 0..8 {
            let next = rfb_step(&prefs, current, pred, allowed, &tariff);
            if next == current {
                break;
            }
            steps.push(next);
            current = next;
        }
        assert!(!steps.is_empty(), "a flexible customer should concede");
        // Strictly one level per step.
        let levels: Vec<Fraction> = prefs.levels().collect();
        let mut expected = Vec::new();
        for lvl in levels {
            if lvl > Fraction::ZERO && lvl <= current {
                expected.push(lvl);
            }
        }
        assert_eq!(steps, expected, "one tabled level per round");
    }

    #[test]
    fn rfb_stands_still_when_target_reached() {
        let prefs = CustomerPreferences::from_base_scaled(10.0, fr(0.5));
        let tariff = Tariff::default_scheme();
        let next = rfb_step(
            &prefs,
            Fraction::ZERO,
            KilowattHours(10.0),
            KilowattHours(10.0),
            &tariff,
        );
        assert_eq!(next, Fraction::ZERO, "reluctant customer never moves");
    }

    #[test]
    fn y_min_computation() {
        assert_eq!(y_min_for(fr(0.3), KilowattHours(10.0)), KilowattHours(7.0));
    }

    #[test]
    fn settlement_gain_is_reward_minus_effort() {
        let prefs = CustomerPreferences::paper_figure_8();
        let gain = settlement_gain(&prefs, fr(0.4), Money(24.8));
        assert!((gain.value() - 3.8).abs() < 1e-9);
    }
}
