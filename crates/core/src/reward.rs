//! Reward tables and the Section-6 reward-update formula.
//!
//! "A reward table consists of possible cut-down values, a reward value
//! assigned to each cut-down value, together with a time interval."
//! (Section 3.2.3). The update rule, §6:
//!
//! ```text
//! new_reward = reward + beta · overuse · (1 − reward/max_reward) · reward
//! ```
//!
//! The reward "increases more when the predicted overuse is higher ... and
//! never exceeds the maximal reward, due to the logistic factor".
//!
//! The prototype's reward tables (§3.2.3, Figures 6–9) and every
//! customer's cut-down-reward table (§6.2) share one grid of cut-downs,
//! [`LEVELS`]: 0, 0.1, …, 0.5. A [`RewardTable`] is six rewards over the
//! grid, and both agents name a level by its grid index.

use powergrid::time::Interval;
use powergrid::units::{Fraction, KilowattHours, Money};
use std::fmt;

/// The §6 update rule with its parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RewardFormula {
    /// β — "determines how steeply the reward values increase".
    pub beta: f64,
    /// The maximum reward the Utility Agent can offer ("determined in
    /// advance").
    pub max_reward: Money,
    /// Convergence threshold: negotiation ends when the table moves by at
    /// most this much between rounds ("less than or equal to 1" in the
    /// prototype).
    pub epsilon: Money,
}

impl RewardFormula {
    /// The prototype's parameters calibrated to Figures 6–7: β = 2,
    /// max_reward = 30, ε = 1.
    pub fn paper() -> RewardFormula {
        RewardFormula {
            beta: 2.0,
            max_reward: Money(30.0),
            epsilon: Money(1.0),
        }
    }

    /// Creates a formula.
    ///
    /// # Panics
    ///
    /// Panics if `beta` is negative, `max_reward` is not positive, or
    /// `epsilon` is negative.
    pub fn new(beta: f64, max_reward: Money, epsilon: Money) -> RewardFormula {
        assert!(
            beta >= 0.0 && beta.is_finite(),
            "beta must be a non-negative number"
        );
        assert!(max_reward.value() > 0.0, "max_reward must be positive");
        assert!(epsilon.value() >= 0.0, "epsilon must be non-negative");
        RewardFormula {
            beta,
            max_reward,
            epsilon,
        }
    }

    /// Applies the update rule to one reward value, with `beta` possibly
    /// overridden by a [`crate::beta::BetaPolicy`].
    ///
    /// `overuse` is the *relative* predicted overuse
    /// (`predicted_overuse / normal_use`), clamped at 0 from below — a
    /// negative overuse (peak already gone) never lowers rewards, in line
    /// with the monotonic concession protocol.
    pub fn next_reward(&self, reward: Money, overuse: f64, beta: f64) -> Money {
        let overuse = overuse.max(0.0);
        let r = reward.value();
        let logistic = 1.0 - r / self.max_reward.value();
        let next = r + beta * overuse * logistic * r;
        // Floating error could nudge past max_reward; the paper's claim
        // "never exceeds the maximal reward" is kept exact.
        Money(next.min(self.max_reward.value()))
    }
}

impl Default for RewardFormula {
    fn default() -> Self {
        RewardFormula::paper()
    }
}

/// The §6 predicted-use-with-cut-down formula for one customer:
/// `min(predicted_use, (1 − cutdown) · allowed_use)`.
pub fn predicted_use_with_cutdown(
    predicted_use: KilowattHours,
    allowed_use: KilowattHours,
    cutdown: Fraction,
) -> KilowattHours {
    let capped = cutdown.complement() * allowed_use;
    predicted_use.min(capped)
}

/// The §6 overuse fraction: `(total_predicted − normal_use) / normal_use`.
///
/// Returns 0 when `normal_use` is zero.
pub fn overuse_fraction(total_predicted: KilowattHours, normal_use: KilowattHours) -> f64 {
    if normal_use.value() <= f64::EPSILON {
        return 0.0;
    }
    (total_predicted - normal_use) / normal_use
}

/// The cut-down grid, 0, 0.1, …, 0.5, ascending: every
/// [`RewardTable`] pays one reward per grid level, and a customer can
/// only bid a grid level.
pub const LEVELS: [f64; 6] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5];

/// A reward table: one reward per level of the cut-down grid
/// ([`LEVELS`]), over an interval.
///
/// Rewards are non-decreasing in the cut-down (a bigger saving never
/// pays less). The six `(cut-down, reward)` pairs are kept inline, so a
/// table is one fixed-size value.
///
/// # Example
///
/// ```
/// use loadbal_core::reward::RewardTable;
/// use powergrid::time::Interval;
/// use powergrid::units::{Fraction, Money};
///
/// let table = RewardTable::quadratic(Interval::new(72, 80), Money(17.0), Fraction::clamped(0.4));
/// assert_eq!(table.reward_for(Fraction::clamped(0.4)), Money(17.0));
/// assert!(table.reward_for(Fraction::clamped(0.3)) < Money(10.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RewardTable {
    interval: Interval,
    entries: [(Fraction, Money); LEVELS.len()],
}

impl RewardTable {
    /// Creates a table paying `rewards[k]` for grid level `k`.
    ///
    /// # Panics
    ///
    /// Panics if the rewards decrease as cut-downs increase.
    pub fn new(interval: Interval, rewards: [Money; LEVELS.len()]) -> RewardTable {
        let entries: [(Fraction, Money); LEVELS.len()] =
            std::array::from_fn(|k| (Fraction::clamped(LEVELS[k]), rewards[k]));
        for window in entries.windows(2) {
            assert!(
                window[0].1 <= window[1].1,
                "reward for cut-down {} ({}) lower than for smaller cut-down {} ({})",
                window[1].0,
                window[1].1,
                window[0].0,
                window[0].1
            );
        }
        RewardTable { interval, entries }
    }

    /// A table whose reward grows *quadratically* in the cut-down, pinned
    /// to `reward_at` at cut-down `pin`: `reward(c) = reward_at · (c/pin)²`.
    ///
    /// This is the Figure 6 calibration: with `reward_at = 17` and
    /// `pin = 0.4`, reward(0.3) ≈ 9.56 < 10 and reward(0.2) ≈ 4.25,
    /// reproducing the highlighted customer's round-1 choice of 0.2.
    ///
    /// # Panics
    ///
    /// Panics if `pin` is zero.
    pub fn quadratic(interval: Interval, reward_at: Money, pin: Fraction) -> RewardTable {
        assert!(pin.value() > 0.0, "pin cut-down must be positive");
        RewardTable::new(
            interval,
            LEVELS.map(|c| {
                let ratio = c / pin.value();
                Money(reward_at.value() * ratio * ratio)
            }),
        )
    }

    /// A table with rewards *linear* in the cut-down, pinned like
    /// [`RewardTable::quadratic`].
    ///
    /// # Panics
    ///
    /// Panics if `pin` is zero.
    pub fn linear(interval: Interval, reward_at: Money, pin: Fraction) -> RewardTable {
        assert!(pin.value() > 0.0, "pin cut-down must be positive");
        RewardTable::new(
            interval,
            LEVELS.map(|c| Money(reward_at.value() * c / pin.value())),
        )
    }

    /// The interval during which cut-downs apply.
    pub fn interval(&self) -> Interval {
        self.interval
    }

    /// The `(cutdown, reward)` entries, one per grid level, ascending.
    pub fn entries(&self) -> &[(Fraction, Money); LEVELS.len()] {
        &self.entries
    }

    /// The reward for an exact cut-down level (zero off the grid —
    /// customers choose *from* the table, §3.2.3).
    pub fn reward_for(&self, cutdown: Fraction) -> Money {
        self.entries
            .iter()
            .find(|&&(c, _)| c == cutdown)
            .map(|&(_, r)| r)
            .unwrap_or(Money::ZERO)
    }

    /// Applies the §6 update rule to every entry, producing the next
    /// round's table.
    pub fn updated(&self, formula: &RewardFormula, overuse: f64, beta: f64) -> RewardTable {
        RewardTable {
            interval: self.interval,
            entries: self
                .entries
                .map(|(c, r)| (c, formula.next_reward(r, overuse, beta))),
        }
    }

    /// True if every reward in `self` is at least the reward in
    /// `previous` for the same cut-down — the monotonic concession
    /// requirement on announcements.
    pub fn dominates(&self, previous: &RewardTable) -> bool {
        self.entries
            .iter()
            .zip(&previous.entries)
            .all(|(&(_, r1), &(_, r2))| r1 >= r2)
    }

    /// The largest absolute reward change versus `previous` — compared
    /// against ε for termination.
    pub fn max_delta(&self, previous: &RewardTable) -> Money {
        let mut delta: f64 = 0.0;
        for (&(_, r1), &(_, r2)) in self.entries.iter().zip(&previous.entries) {
            delta = delta.max((r1 - r2).abs().value());
        }
        Money(delta)
    }
}

impl fmt::Display for RewardTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "interval {} |", self.interval)?;
        for (c, r) in &self.entries {
            write!(f, " {c}→{:.1}", r.value())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interval() -> Interval {
        Interval::new(72, 80)
    }

    fn fr(v: f64) -> Fraction {
        Fraction::clamped(v)
    }

    #[test]
    fn formula_basic_step() {
        let f = RewardFormula::paper();
        // §6 with reward 17, overuse 0.35, beta 2:
        // 17 + 2·0.35·(1 − 17/30)·17 = 17 + 5.157 ≈ 22.16
        let next = f.next_reward(Money(17.0), 0.35, 2.0);
        assert!((next.value() - 22.156_666).abs() < 1e-3, "got {next}");
    }

    #[test]
    fn formula_never_exceeds_max() {
        let f = RewardFormula::paper();
        let mut r = Money(17.0);
        for _ in 0..100 {
            r = f.next_reward(r, 1.0, 8.0);
            assert!(r <= f.max_reward, "reward {r} exceeded max");
        }
        assert!((r.value() - 30.0).abs() < 1e-6, "saturates at max");
    }

    #[test]
    fn formula_grows_with_overuse() {
        let f = RewardFormula::paper();
        let small = f.next_reward(Money(10.0), 0.1, 2.0);
        let large = f.next_reward(Money(10.0), 0.4, 2.0);
        assert!(large > small);
    }

    #[test]
    fn negative_overuse_does_not_lower_reward() {
        let f = RewardFormula::paper();
        let r = f.next_reward(Money(10.0), -0.5, 2.0);
        assert_eq!(r, Money(10.0));
    }

    #[test]
    fn zero_reward_is_fixed_point() {
        let f = RewardFormula::paper();
        assert_eq!(f.next_reward(Money::ZERO, 0.5, 2.0), Money::ZERO);
    }

    #[test]
    #[should_panic(expected = "max_reward must be positive")]
    fn bad_formula_panics() {
        let _ = RewardFormula::new(1.0, Money(0.0), Money(1.0));
    }

    #[test]
    fn predicted_use_with_cutdown_formula() {
        // (1 − cutdown)·allowed ≥ predicted → predicted unchanged.
        let a = predicted_use_with_cutdown(KilowattHours(5.0), KilowattHours(10.0), fr(0.3));
        assert_eq!(a, KilowattHours(5.0));
        // Otherwise capped at (1 − cutdown)·allowed.
        let b = predicted_use_with_cutdown(KilowattHours(10.0), KilowattHours(10.0), fr(0.3));
        assert_eq!(b, KilowattHours(7.0));
    }

    #[test]
    fn overuse_fraction_formula() {
        assert!(
            (overuse_fraction(KilowattHours(135.0), KilowattHours(100.0)) - 0.35).abs() < 1e-12
        );
        assert_eq!(
            overuse_fraction(KilowattHours(50.0), KilowattHours::ZERO),
            0.0
        );
        assert!(overuse_fraction(KilowattHours(90.0), KilowattHours(100.0)) < 0.0);
    }

    #[test]
    fn quadratic_table_matches_figure_6() {
        let t = RewardTable::quadratic(interval(), Money(17.0), fr(0.4));
        assert_eq!(t.reward_for(fr(0.4)), Money(17.0));
        assert!((t.reward_for(fr(0.3)).value() - 9.5625).abs() < 1e-9);
        assert!((t.reward_for(fr(0.2)).value() - 4.25).abs() < 1e-9);
        assert_eq!(t.reward_for(fr(0.0)), Money::ZERO);
    }

    #[test]
    fn linear_table() {
        let t = RewardTable::linear(interval(), Money(17.0), fr(0.4));
        assert!((t.reward_for(fr(0.2)).value() - 8.5).abs() < 1e-9);
    }

    #[test]
    fn reward_for_unknown_level_is_zero() {
        let t = RewardTable::quadratic(interval(), Money(17.0), fr(0.4));
        assert_eq!(t.reward_for(fr(0.15)), Money::ZERO);
    }

    #[test]
    fn updated_table_dominates_and_converges() {
        let formula = RewardFormula::paper();
        let t0 = RewardTable::quadratic(interval(), Money(17.0), fr(0.4));
        let t1 = t0.updated(&formula, 0.35, formula.beta);
        assert!(t1.dominates(&t0));
        assert!(!t0.dominates(&t1) || t1 == t0);
        assert!(t1.max_delta(&t0) > formula.epsilon);

        // Saturate: delta eventually drops below epsilon.
        let mut t = t1;
        let mut converged = false;
        for _ in 0..200 {
            let next = t.updated(&formula, 0.35, formula.beta);
            if next.max_delta(&t) <= formula.epsilon {
                converged = true;
                break;
            }
            t = next;
        }
        assert!(converged, "update rule must converge by saturation");
    }

    #[test]
    #[should_panic(expected = "lower than for smaller")]
    fn decreasing_rewards_panic() {
        let _ = RewardTable::new(interval(), [0.0, 5.0, 2.0, 6.0, 7.0, 8.0].map(Money));
    }

    #[test]
    fn display_shows_entries() {
        let t = RewardTable::quadratic(interval(), Money(17.0), fr(0.4));
        let s = t.to_string();
        assert!(s.contains("0.40→17.0"), "{s}");
        assert_eq!(s.matches('→').count(), LEVELS.len(), "{s}");
    }
}
